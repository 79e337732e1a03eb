//! Page tables with back-mappings.
//!
//! IRIX PTEs point at page frame descriptors with no reverse link; the
//! paper adds "links ... to the pfd pointing back to all the ptes mapping
//! this page, similar to an inverted page table" so a migration can find
//! and update every mapping cheaply. [`PageTables`] keeps both directions.
//!
//! The forward direction is one page-indexed row of PTEs per process:
//! workload page numbers are dense from 0 (see
//! `WorkloadSpec::page_bound`), so a lookup is two indexed loads. Each
//! PTE carries its frame's node, resolved once when the mapping is
//! installed, so asking which node backs a mapping — once per simulated
//! L2 miss — costs no division.

use ccnuma_types::{Frame, FxHashMap, MachineConfig, NodeId, Pid, VirtPage};

/// One page-table entry: the frame in the low 48 bits and the frame's
/// node in the high 16. Frame numbers stay below `nodes ×
/// frames_per_node` < 2⁴⁸, so the two never overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pte(u64);

impl Pte {
    /// An unmapped entry (no real frame packs to all ones).
    const NONE: Pte = Pte(u64::MAX);
    const FRAME_BITS: u32 = 48;

    fn new(frame: Frame, node: NodeId) -> Pte {
        Pte(frame.0 | (u64::from(node.0) << Pte::FRAME_BITS))
    }

    fn get(self) -> Option<Pte> {
        (self != Pte::NONE).then_some(self)
    }

    fn frame(self) -> Frame {
        Frame(self.0 & ((1 << Pte::FRAME_BITS) - 1))
    }

    fn node(self) -> NodeId {
        NodeId((self.0 >> Pte::FRAME_BITS) as u16)
    }
}

/// Per-process virtual→physical mappings plus the frame→PTE back-map.
///
/// # Examples
///
/// ```
/// use ccnuma_kernel::PageTables;
/// use ccnuma_types::{Frame, MachineConfig, NodeId, Pid, VirtPage};
///
/// let mut pt = PageTables::new(&MachineConfig::cc_numa());
/// pt.map(Pid(1), VirtPage(7), Frame(40));
/// pt.map(Pid(2), VirtPage(7), Frame(40));
/// assert_eq!(pt.mappers_of(Frame(40)).len(), 2);
/// let changed = pt.repoint(VirtPage(7), Frame(40), Frame(4096 + 9));
/// assert_eq!(changed, 2);
/// assert_eq!(pt.lookup(Pid(1), VirtPage(7)), Some(Frame(4096 + 9)));
/// assert_eq!(pt.lookup_node(Pid(1), VirtPage(7)), Some(NodeId(1)));
/// ```
#[derive(Debug, Clone)]
pub struct PageTables {
    /// Frames per node, to resolve a frame's node at map time.
    frames_per_node: u64,
    nodes: u16,
    /// `rows[pid][page]`: that process's PTE for the page. Rows grow
    /// only when a mapping is installed beyond their end, never on a
    /// lookup; a page past the end is unmapped.
    rows: Vec<Vec<Pte>>,
    /// frame → pids whose PTE points at it (the added back-map).
    back: FxHashMap<Frame, Vec<Pid>>,
    /// Live PTEs.
    len: usize,
}

impl PageTables {
    /// Empty tables for `machine`'s frame layout.
    pub fn new(machine: &MachineConfig) -> PageTables {
        PageTables {
            frames_per_node: u64::from(machine.frames_per_node),
            nodes: machine.nodes,
            rows: Vec::new(),
            back: FxHashMap::default(),
            len: 0,
        }
    }

    /// The PTE for (`pid`, `page`), if mapped.
    #[inline]
    fn pte(&self, pid: Pid, page: VirtPage) -> Option<Pte> {
        self.rows.get(pid.index())?.get(page.index())?.get()
    }

    /// Installs or replaces the mapping for (`pid`, `page`).
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range for the machine.
    pub fn map(&mut self, pid: Pid, page: VirtPage, frame: Frame) {
        let node = frame.0 / self.frames_per_node;
        assert!(
            node < u64::from(self.nodes),
            "frame {frame} out of range for {} nodes x {} frames",
            self.nodes,
            self.frames_per_node
        );
        let pte = Pte::new(frame, NodeId(node as u16));
        if pid.index() >= self.rows.len() {
            self.rows.resize_with(pid.index() + 1, Vec::new);
        }
        let row = &mut self.rows[pid.index()];
        if page.index() >= row.len() {
            row.resize(page.index() + 1, Pte::NONE);
        }
        match std::mem::replace(&mut row[page.index()], pte).get() {
            Some(old) => self.unlink(old.frame(), pid),
            None => self.len += 1,
        }
        self.back.entry(frame).or_default().push(pid);
    }

    /// Removes the mapping for (`pid`, `page`), returning the frame it
    /// pointed at.
    pub fn unmap(&mut self, pid: Pid, page: VirtPage) -> Option<Frame> {
        let frame = self.pte(pid, page)?.frame();
        self.rows[pid.index()][page.index()] = Pte::NONE;
        self.len -= 1;
        self.unlink(frame, pid);
        Some(frame)
    }

    fn unlink(&mut self, frame: Frame, pid: Pid) {
        if let Some(pids) = self.back.get_mut(&frame) {
            if let Some(pos) = pids.iter().position(|p| *p == pid) {
                pids.swap_remove(pos);
            }
            if pids.is_empty() {
                self.back.remove(&frame);
            }
        }
    }

    /// The frame (`pid`, `page`) maps to, if mapped.
    #[inline]
    pub fn lookup(&self, pid: Pid, page: VirtPage) -> Option<Frame> {
        self.pte(pid, page).map(Pte::frame)
    }

    /// The node of the frame (`pid`, `page`) maps to, if mapped.
    #[inline]
    pub fn lookup_node(&self, pid: Pid, page: VirtPage) -> Option<NodeId> {
        self.pte(pid, page).map(Pte::node)
    }

    /// Processes whose PTE points at `frame` (via the back-map). The
    /// returned list may repeat a pid if it maps the frame at several
    /// virtual pages, which does not occur in this simulator.
    pub fn mappers_of(&self, frame: Frame) -> &[Pid] {
        self.back.get(&frame).map_or(&[], Vec::as_slice)
    }

    /// Repoints every PTE of `page` that references `old` to `new`,
    /// returning how many PTEs changed (a migration's "Links & Mapping"
    /// step walks exactly these back-links).
    pub fn repoint(&mut self, page: VirtPage, old: Frame, new: Frame) -> usize {
        let pids: Vec<Pid> = self.mappers_of(old).to_vec();
        let mut changed = 0;
        for pid in pids {
            if self.lookup(pid, page) == Some(old) {
                self.map(pid, page, new);
                changed += 1;
            }
        }
        changed
    }

    /// Repoints every PTE of `page` according to `choose`, which picks the
    /// target frame for each pid (used after replication to point each
    /// process at its nearest copy — step 8 of Figure 2). Returns the
    /// number of PTEs changed.
    pub fn repoint_each(
        &mut self,
        page: VirtPage,
        pids: &[Pid],
        mut choose: impl FnMut(Pid) -> Frame,
    ) -> usize {
        let mut changed = 0;
        for &pid in pids {
            if let Some(cur) = self.lookup(pid, page) {
                let target = choose(pid);
                if cur != target {
                    self.map(pid, page, target);
                    changed += 1;
                }
            }
        }
        changed
    }

    /// All pids currently mapping `page`, lowest first. Reads one entry
    /// per process row, not every PTE.
    pub fn mappers_of_page(&self, page: VirtPage) -> Vec<Pid> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, row)| row.get(page.index()).is_some_and(|pte| *pte != Pte::NONE))
            .map(|(pid, _)| Pid(pid as u32))
            .collect()
    }

    /// Every live PTE as ((pid, page), frame), by pid then page — used
    /// by the invariant checker to audit the whole mapping state.
    pub fn iter(&self) -> impl Iterator<Item = ((Pid, VirtPage), Frame)> + '_ {
        self.rows.iter().enumerate().flat_map(|(pid, row)| {
            row.iter().enumerate().filter_map(move |(page, pte)| {
                pte.get()
                    .map(|pte| ((Pid(pid as u32), VirtPage(page as u64)), pte.frame()))
            })
        })
    }

    /// Number of live PTEs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no PTEs exist.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tables() -> PageTables {
        PageTables::new(&MachineConfig::cc_numa())
    }

    #[test]
    fn map_lookup_unmap() {
        let mut pt = tables();
        pt.map(Pid(1), VirtPage(1), Frame(10));
        assert_eq!(pt.lookup(Pid(1), VirtPage(1)), Some(Frame(10)));
        assert_eq!(pt.lookup(Pid(2), VirtPage(1)), None);
        assert_eq!(pt.unmap(Pid(1), VirtPage(1)), Some(Frame(10)));
        assert_eq!(pt.unmap(Pid(1), VirtPage(1)), None);
        assert!(pt.is_empty());
    }

    #[test]
    fn back_map_tracks_mappers() {
        let mut pt = tables();
        pt.map(Pid(1), VirtPage(1), Frame(10));
        pt.map(Pid(2), VirtPage(1), Frame(10));
        pt.map(Pid(3), VirtPage(1), Frame(11));
        let mut mappers = pt.mappers_of(Frame(10)).to_vec();
        mappers.sort();
        assert_eq!(mappers, vec![Pid(1), Pid(2)]);
        pt.unmap(Pid(1), VirtPage(1));
        assert_eq!(pt.mappers_of(Frame(10)), &[Pid(2)]);
    }

    #[test]
    fn remap_replaces_back_link() {
        let mut pt = tables();
        pt.map(Pid(1), VirtPage(1), Frame(10));
        pt.map(Pid(1), VirtPage(1), Frame(20)); // re-map same pte
        assert!(pt.mappers_of(Frame(10)).is_empty());
        assert_eq!(pt.mappers_of(Frame(20)), &[Pid(1)]);
        assert_eq!(pt.len(), 1);
    }

    #[test]
    fn repoint_moves_all_ptes() {
        let mut pt = tables();
        for pid in 1..=3 {
            pt.map(Pid(pid), VirtPage(5), Frame(50));
        }
        pt.map(Pid(9), VirtPage(6), Frame(50)); // different page, same frame
        let changed = pt.repoint(VirtPage(5), Frame(50), Frame(60));
        assert_eq!(changed, 3);
        for pid in 1..=3 {
            assert_eq!(pt.lookup(Pid(pid), VirtPage(5)), Some(Frame(60)));
        }
        // the other page's mapping is untouched
        assert_eq!(pt.lookup(Pid(9), VirtPage(6)), Some(Frame(50)));
    }

    #[test]
    fn repoint_each_uses_chooser() {
        let mut pt = tables();
        pt.map(Pid(1), VirtPage(5), Frame(50));
        pt.map(Pid(2), VirtPage(5), Frame(50));
        let changed = pt.repoint_each(VirtPage(5), &[Pid(1), Pid(2), Pid(3)], |pid| {
            if pid == Pid(1) {
                Frame(51)
            } else {
                Frame(50)
            }
        });
        assert_eq!(changed, 1);
        assert_eq!(pt.lookup(Pid(1), VirtPage(5)), Some(Frame(51)));
        assert_eq!(pt.lookup(Pid(2), VirtPage(5)), Some(Frame(50)));
        assert_eq!(
            pt.lookup(Pid(3), VirtPage(5)),
            None,
            "unmapped pid untouched"
        );
    }

    #[test]
    fn mappers_of_page() {
        let mut pt = tables();
        pt.map(Pid(1), VirtPage(5), Frame(50));
        pt.map(Pid(2), VirtPage(5), Frame(51));
        pt.map(Pid(3), VirtPage(6), Frame(52));
        assert_eq!(pt.mappers_of_page(VirtPage(5)), vec![Pid(1), Pid(2)]);
        pt.unmap(Pid(1), VirtPage(5));
        assert_eq!(pt.mappers_of_page(VirtPage(5)), vec![Pid(2)]);
        assert!(pt.mappers_of_page(VirtPage(7_000)).is_empty());
    }

    #[test]
    fn lookup_node_follows_the_frame() {
        let mut pt = tables();
        pt.map(Pid(0), VirtPage(3), Frame(4096 * 5 + 17));
        assert_eq!(pt.lookup_node(Pid(0), VirtPage(3)), Some(NodeId(5)));
        pt.map(Pid(0), VirtPage(3), Frame(2));
        assert_eq!(pt.lookup_node(Pid(0), VirtPage(3)), Some(NodeId(0)));
        assert_eq!(pt.lookup_node(Pid(1), VirtPage(3)), None);
        assert_eq!(pt.lookup_node(Pid(0), VirtPage(4)), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn map_rejects_a_frame_beyond_the_machine() {
        tables().map(Pid(0), VirtPage(0), Frame(8 * 4096));
    }
}
