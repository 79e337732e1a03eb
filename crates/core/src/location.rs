//! Placement facts the decision tree consumes.

use ccnuma_types::NodeId;

/// Where a page's copies live, from the point of view of one accessor.
///
/// The decision tree needs three placement facts about the faulting page:
/// which node the accessor's *mapping* currently points at (which may be a
/// stale remote copy even when a local replica exists — the splash effect
/// of §7.1.1), whether *any* copy already lives on the accessor's node,
/// and whether the page is replicated at all (a write must then collapse).
///
/// # Examples
///
/// ```
/// use ccnuma_core::PageLocation;
/// use ccnuma_types::NodeId;
///
/// // Master on n0; accessor on n2; a replica exists on n2 but the
/// // accessor's mapping still points at n0.
/// let loc = PageLocation::new(NodeId(0), NodeId(2), &[NodeId(0), NodeId(2)]);
/// assert!(!loc.mapped_local());
/// assert!(loc.copy_on_accessor_node());
/// assert!(loc.is_replicated());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageLocation {
    mapped_node: NodeId,
    accessor_node: NodeId,
    copy_on_accessor_node: bool,
    replicated: bool,
}

impl PageLocation {
    /// Builds a location from the accessor's mapped node, the accessor's
    /// own node, and the full set of nodes holding a copy.
    pub fn new(mapped_node: NodeId, accessor_node: NodeId, copies: &[NodeId]) -> PageLocation {
        PageLocation {
            mapped_node,
            accessor_node,
            copy_on_accessor_node: copies.contains(&accessor_node),
            replicated: copies.len() > 1,
        }
    }

    /// Builds a location from already-computed placement facts — the
    /// kernel's allocation-free path: the miss handler reads the replica
    /// chain in place instead of materialising the copy list that
    /// [`new`](PageLocation::new) summarises.
    #[inline]
    pub fn from_parts(
        mapped_node: NodeId,
        accessor_node: NodeId,
        copy_on_accessor_node: bool,
        replicated: bool,
    ) -> PageLocation {
        PageLocation {
            mapped_node,
            accessor_node,
            copy_on_accessor_node,
            replicated,
        }
    }

    /// Convenience: a single un-replicated master on `master`, accessed
    /// from `accessor_node` with an up-to-date mapping.
    pub fn master_only(master: NodeId, accessor_node: NodeId) -> PageLocation {
        PageLocation {
            mapped_node: master,
            accessor_node,
            copy_on_accessor_node: master == accessor_node,
            replicated: false,
        }
    }

    /// The node the accessor's page-table mapping points at.
    #[inline]
    pub fn mapped_node(&self) -> NodeId {
        self.mapped_node
    }

    /// The node of the accessing processor.
    #[inline]
    pub fn accessor_node(&self) -> NodeId {
        self.accessor_node
    }

    /// True when the accessor's mapping already points at local memory —
    /// the miss is a *local* miss and no action is needed.
    #[inline]
    pub fn mapped_local(&self) -> bool {
        self.mapped_node == self.accessor_node
    }

    /// True when some copy (master or replica) lives on the accessor's
    /// node, even if the accessor's mapping is stale.
    #[inline]
    pub fn copy_on_accessor_node(&self) -> bool {
        self.copy_on_accessor_node
    }

    /// True when more than one copy of the page exists.
    #[inline]
    pub fn is_replicated(&self) -> bool {
        self.replicated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn master_only_local() {
        let loc = PageLocation::master_only(NodeId(1), NodeId(1));
        assert!(loc.mapped_local());
        assert!(loc.copy_on_accessor_node());
        assert!(!loc.is_replicated());
    }

    #[test]
    fn master_only_remote() {
        let loc = PageLocation::master_only(NodeId(0), NodeId(3));
        assert!(!loc.mapped_local());
        assert!(!loc.copy_on_accessor_node());
        assert_eq!(loc.mapped_node(), NodeId(0));
        assert_eq!(loc.accessor_node(), NodeId(3));
    }

    #[test]
    fn stale_mapping_with_local_replica() {
        let loc = PageLocation::new(NodeId(0), NodeId(2), &[NodeId(0), NodeId(2)]);
        assert!(!loc.mapped_local());
        assert!(loc.copy_on_accessor_node());
        assert!(loc.is_replicated());
    }

    #[test]
    fn replicated_elsewhere() {
        let loc = PageLocation::new(NodeId(0), NodeId(5), &[NodeId(0), NodeId(1)]);
        assert!(!loc.copy_on_accessor_node());
        assert!(loc.is_replicated());
    }
}
