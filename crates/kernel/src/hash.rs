//! The physical-page hash table with replica chains.
//!
//! IRIX translates logical pages (`vnode`, `offset`) to physical pages
//! through a global open hash of page frame descriptors. The paper's
//! *replication support* change links replicas of a physical page into a
//! chain, with one member (the master) in the hash table. This module
//! reproduces that structure for [`VirtPage`]s. The simulator's page
//! numbers are dense from 0, so the "hash" is a page-indexed table: the
//! miss handler reads a page's chain with one indexed load.

use ccnuma_types::{Frame, MachineConfig, NodeId, VirtPage};

/// One logical page's physical copies: a master frame plus replica chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageEntry {
    master: Frame,
    replicas: Vec<Frame>,
}

impl PageEntry {
    /// The master frame (the hash-table member of the chain).
    pub fn master(&self) -> Frame {
        self.master
    }

    /// The replica frames, in creation order.
    pub fn replicas(&self) -> &[Frame] {
        &self.replicas
    }

    /// Master plus replicas.
    #[inline]
    pub fn all_frames(&self) -> impl Iterator<Item = Frame> + '_ {
        std::iter::once(self.master).chain(self.replicas.iter().copied())
    }

    /// Number of physical copies.
    pub fn copy_count(&self) -> usize {
        1 + self.replicas.len()
    }

    /// True when replicas exist (page-table entries are then read-only).
    #[inline]
    pub fn is_replicated(&self) -> bool {
        !self.replicas.is_empty()
    }
}

/// The global page hash: logical page → [`PageEntry`].
///
/// # Examples
///
/// ```
/// use ccnuma_kernel::PageHash;
/// use ccnuma_types::{Frame, MachineConfig, NodeId, VirtPage};
///
/// let cfg = MachineConfig::cc_numa();
/// let mut hash = PageHash::new(cfg.clone());
/// hash.insert_master(VirtPage(9), Frame(0));
/// hash.add_replica(VirtPage(9), cfg.first_frame_of(NodeId(3)));
/// assert_eq!(hash.copy_nodes(VirtPage(9)), vec![NodeId(0), NodeId(3)]);
/// ```
#[derive(Debug, Clone)]
pub struct PageHash {
    cfg: MachineConfig,
    /// Indexed by page number: the miss handler consults the chain on
    /// every counted miss. Grows only when a master is inserted beyond
    /// its end.
    entries: Vec<Option<PageEntry>>,
    /// Pages present.
    len: usize,
    /// Running count of replica frames, for the §7.2.3 space overhead.
    replica_frames: u64,
    /// High-water mark of replica frames.
    replica_frames_peak: u64,
}

impl PageHash {
    /// An empty hash for the given machine.
    pub fn new(cfg: MachineConfig) -> PageHash {
        PageHash {
            cfg,
            entries: Vec::new(),
            len: 0,
            replica_frames: 0,
            replica_frames_peak: 0,
        }
    }

    /// Inserts a brand-new master frame for `page`.
    ///
    /// # Panics
    ///
    /// Panics if the page is already present.
    pub fn insert_master(&mut self, page: VirtPage, frame: Frame) {
        if page.index() >= self.entries.len() {
            self.entries.resize_with(page.index() + 1, || None);
        }
        let slot = &mut self.entries[page.index()];
        assert!(slot.is_none(), "page {page} already in hash");
        *slot = Some(PageEntry {
            master: frame,
            replicas: Vec::new(),
        });
        self.len += 1;
    }

    /// Looks up a page's entry.
    #[inline]
    pub fn get(&self, page: VirtPage) -> Option<&PageEntry> {
        self.entries.get(page.index())?.as_ref()
    }

    /// Whether the hash knows this page.
    pub fn contains(&self, page: VirtPage) -> bool {
        self.get(page).is_some()
    }

    /// Number of logical pages present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no pages are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Links a replica frame into `page`'s chain.
    ///
    /// # Panics
    ///
    /// Panics if the page is absent or the frame's node already holds a
    /// copy (one copy per node is the useful maximum).
    pub fn add_replica(&mut self, page: VirtPage, frame: Frame) {
        let node = self.cfg.node_of_frame(frame);
        let nodes = self.copy_nodes(page);
        assert!(
            !nodes.contains(&node),
            "page {page} already has a copy on {node}"
        );
        let e = self
            .entries
            .get_mut(page.index())
            .and_then(Option::as_mut)
            .expect("page must be present");
        e.replicas.push(frame);
        self.replica_frames += 1;
        self.replica_frames_peak = self.replica_frames_peak.max(self.replica_frames);
    }

    /// Replaces the master frame (migration), returning the old frame.
    ///
    /// # Panics
    ///
    /// Panics if the page is absent.
    pub fn migrate_master(&mut self, page: VirtPage, new_frame: Frame) -> Frame {
        let e = self
            .entries
            .get_mut(page.index())
            .and_then(Option::as_mut)
            .expect("page must be present");
        std::mem::replace(&mut e.master, new_frame)
    }

    /// Collapses the chain to the master only, returning the freed replica
    /// frames.
    ///
    /// # Panics
    ///
    /// Panics if the page is absent.
    pub fn collapse(&mut self, page: VirtPage) -> Vec<Frame> {
        let e = self
            .entries
            .get_mut(page.index())
            .and_then(Option::as_mut)
            .expect("page must be present");
        let freed = std::mem::take(&mut e.replicas);
        self.replica_frames -= freed.len() as u64;
        freed
    }

    /// Removes one replica of `page` living on `node`, if any, returning
    /// the freed frame (memory-pressure reclaim prefers replicated pages).
    pub fn remove_replica_on(&mut self, page: VirtPage, node: NodeId) -> Option<Frame> {
        let e = self
            .entries
            .get_mut(page.index())
            .and_then(Option::as_mut)?;
        let pos = e
            .replicas
            .iter()
            .position(|f| self.cfg.node_of_frame(*f) == node)?;
        self.replica_frames -= 1;
        Some(e.replicas.remove(pos))
    }

    /// The nodes currently holding a copy of `page` (master first).
    pub fn copy_nodes(&self, page: VirtPage) -> Vec<NodeId> {
        match self.get(page) {
            None => Vec::new(),
            Some(e) => e.all_frames().map(|f| self.cfg.node_of_frame(f)).collect(),
        }
    }

    /// The frame of `page`'s copy on `node`, if one exists.
    pub fn copy_on(&self, page: VirtPage, node: NodeId) -> Option<Frame> {
        self.get(page)?
            .all_frames()
            .find(|f| self.cfg.node_of_frame(*f) == node)
    }

    /// Pages that currently have replicas on `node` (reclaim
    /// candidates), lowest page first: reclaim takes victims from the
    /// front of this list, so its order is part of a run's result.
    pub fn replicated_pages_on(&self, node: NodeId) -> Vec<VirtPage> {
        self.iter()
            .filter(|(_, e)| {
                e.replicas
                    .iter()
                    .any(|f| self.cfg.node_of_frame(*f) == node)
            })
            .map(|(p, _)| p)
            .collect()
    }

    /// Every (page, entry) pair, lowest page first — used by the
    /// invariant checker to audit all replica chains.
    pub fn iter(&self) -> impl Iterator<Item = (VirtPage, &PageEntry)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(p, e)| Some((VirtPage(p as u64), e.as_ref()?)))
    }

    /// Replica frames currently live.
    pub fn replica_frames(&self) -> u64 {
        self.replica_frames
    }

    /// High-water mark of live replica frames — the numerator of the
    /// §7.2.3 replication space overhead.
    pub fn replica_frames_peak(&self) -> u64 {
        self.replica_frames_peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash() -> PageHash {
        PageHash::new(MachineConfig::cc_numa())
    }

    fn frame_on(node: u16, k: u64) -> Frame {
        Frame(node as u64 * 4096 + k)
    }

    #[test]
    fn master_then_replicas() {
        let mut h = hash();
        let p = VirtPage(1);
        h.insert_master(p, frame_on(0, 0));
        assert!(h.contains(p));
        assert!(!h.get(p).unwrap().is_replicated());
        h.add_replica(p, frame_on(3, 0));
        h.add_replica(p, frame_on(5, 0));
        let e = h.get(p).unwrap();
        assert_eq!(e.copy_count(), 3);
        assert!(e.is_replicated());
        assert_eq!(h.copy_nodes(p), vec![NodeId(0), NodeId(3), NodeId(5)]);
        assert_eq!(h.replica_frames(), 2);
    }

    #[test]
    #[should_panic(expected = "already in hash")]
    fn duplicate_master_panics() {
        let mut h = hash();
        h.insert_master(VirtPage(1), frame_on(0, 0));
        h.insert_master(VirtPage(1), frame_on(1, 0));
    }

    #[test]
    #[should_panic(expected = "already has a copy")]
    fn replica_on_same_node_panics() {
        let mut h = hash();
        h.insert_master(VirtPage(1), frame_on(0, 0));
        h.add_replica(VirtPage(1), frame_on(0, 1));
    }

    #[test]
    fn migrate_swaps_master() {
        let mut h = hash();
        let p = VirtPage(2);
        h.insert_master(p, frame_on(0, 0));
        let old = h.migrate_master(p, frame_on(4, 0));
        assert_eq!(old, frame_on(0, 0));
        assert_eq!(h.copy_nodes(p), vec![NodeId(4)]);
    }

    #[test]
    fn collapse_returns_replicas_and_updates_count() {
        let mut h = hash();
        let p = VirtPage(3);
        h.insert_master(p, frame_on(0, 0));
        h.add_replica(p, frame_on(1, 0));
        h.add_replica(p, frame_on(2, 0));
        let freed = h.collapse(p);
        assert_eq!(freed.len(), 2);
        assert_eq!(h.replica_frames(), 0);
        assert_eq!(h.replica_frames_peak(), 2, "peak survives collapse");
        assert_eq!(h.copy_nodes(p), vec![NodeId(0)]);
    }

    #[test]
    fn remove_replica_on_node() {
        let mut h = hash();
        let p = VirtPage(4);
        h.insert_master(p, frame_on(0, 0));
        h.add_replica(p, frame_on(1, 0));
        assert_eq!(h.remove_replica_on(p, NodeId(2)), None);
        assert_eq!(h.remove_replica_on(p, NodeId(1)), Some(frame_on(1, 0)));
        assert_eq!(h.replica_frames(), 0);
        // master is not removable this way
        assert_eq!(h.remove_replica_on(p, NodeId(0)), None);
    }

    #[test]
    fn copy_on_finds_nearest() {
        let mut h = hash();
        let p = VirtPage(5);
        h.insert_master(p, frame_on(0, 0));
        h.add_replica(p, frame_on(6, 0));
        assert_eq!(h.copy_on(p, NodeId(6)), Some(frame_on(6, 0)));
        assert_eq!(h.copy_on(p, NodeId(0)), Some(frame_on(0, 0)));
        assert_eq!(h.copy_on(p, NodeId(1)), None);
    }

    #[test]
    fn replicated_pages_on_node() {
        let mut h = hash();
        h.insert_master(VirtPage(1), frame_on(0, 0));
        h.add_replica(VirtPage(1), frame_on(2, 0));
        h.insert_master(VirtPage(2), frame_on(2, 1));
        assert_eq!(h.replicated_pages_on(NodeId(2)), vec![VirtPage(1)]);
        assert!(h.replicated_pages_on(NodeId(0)).is_empty());
        assert_eq!(h.len(), 2);
    }
}
