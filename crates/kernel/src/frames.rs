//! Per-node physical frame allocation.

use ccnuma_types::{Frame, MachineConfig, NodeId, SimError};

/// Per-node free lists over the machine's physical frames.
///
/// Frames are numbered node-major (see
/// [`MachineConfig::node_of_frame`]); each node hands
/// out its own frames in ascending order and recycles freed ones LIFO.
/// A node is under *memory pressure* once its free count drops below a
/// configurable fraction of its capacity — the policy stops replicating
/// onto such nodes (decision node 3a of Figure 1).
///
/// # Examples
///
/// ```
/// use ccnuma_kernel::FrameAllocator;
/// use ccnuma_types::{MachineConfig, NodeId};
///
/// let cfg = MachineConfig::cc_numa().with_frames_per_node(4);
/// let mut alloc = FrameAllocator::new(&cfg);
/// let f = alloc.alloc(NodeId(2)).unwrap();
/// assert_eq!(cfg.node_of_frame(f), NodeId(2));
/// assert_eq!(alloc.free_on(NodeId(2)), 3);
/// alloc.free(f).unwrap();
/// assert_eq!(alloc.free_on(NodeId(2)), 4);
/// ```
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    cfg: MachineConfig,
    /// Next never-allocated frame per node.
    next: Vec<u64>,
    /// Recycled frames per node.
    recycled: Vec<Vec<Frame>>,
    /// Allocated count per node.
    used: Vec<u32>,
    /// Free fraction below which a node reports pressure.
    pressure_threshold: f64,
}

impl FrameAllocator {
    /// Builds an allocator for the machine's frame ranges with the default
    /// 5 % pressure threshold.
    pub fn new(cfg: &MachineConfig) -> FrameAllocator {
        FrameAllocator {
            next: (0..cfg.nodes)
                .map(|n| cfg.first_frame_of(NodeId(n)).0)
                .collect(),
            recycled: vec![Vec::new(); cfg.nodes as usize],
            used: vec![0; cfg.nodes as usize],
            pressure_threshold: 0.05,
            cfg: cfg.clone(),
        }
    }

    /// Overrides the pressure threshold (fraction of capacity that must
    /// remain free).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= fraction < 1.0`.
    #[must_use]
    pub fn with_pressure_threshold(mut self, fraction: f64) -> FrameAllocator {
        assert!(
            (0.0..1.0).contains(&fraction),
            "pressure threshold must be in [0, 1)"
        );
        self.pressure_threshold = fraction;
        self
    }

    /// Allocates a frame on `node`, or `None` when the node is exhausted —
    /// the condition behind Table 4's "% No Page" column.
    pub fn alloc(&mut self, node: NodeId) -> Option<Frame> {
        let i = node.index();
        let frame = if let Some(f) = self.recycled[i].pop() {
            Some(f)
        } else {
            let limit = self.cfg.first_frame_of(node).0 + self.cfg.frames_per_node as u64;
            if self.next[i] < limit {
                let f = Frame(self.next[i]);
                self.next[i] += 1;
                Some(f)
            } else {
                None
            }
        };
        if frame.is_some() {
            self.used[i] += 1;
        }
        frame
    }

    /// Allocates on `node` if possible, otherwise falls back to the
    /// node with the most free frames (used for first-touch allocation,
    /// which must not fail while the machine has memory anywhere).
    pub fn alloc_with_fallback(&mut self, node: NodeId) -> Option<Frame> {
        if let Some(f) = self.alloc(node) {
            return Some(f);
        }
        let best = (0..self.cfg.nodes)
            .map(NodeId)
            .max_by_key(|n| self.free_on(*n))?;
        self.alloc(best)
    }

    /// Returns a frame to its node's free list.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DoubleFree`] if the frame is already free —
    /// either its node has no outstanding allocations, or the frame
    /// itself is sitting on the free list. The allocator state is left
    /// untouched, so the caller can degrade instead of corrupting the
    /// accounting.
    pub fn free(&mut self, frame: Frame) -> Result<(), SimError> {
        let node = self.cfg.node_of_frame(frame);
        let i = node.index();
        if self.used[i] == 0 || self.recycled[i].contains(&frame) {
            return Err(SimError::DoubleFree { frame, node });
        }
        self.used[i] -= 1;
        self.recycled[i].push(frame);
        Ok(())
    }

    /// Free frames remaining on `node`.
    #[inline]
    pub fn free_on(&self, node: NodeId) -> u32 {
        self.cfg.frames_per_node - self.used[node.index()]
    }

    /// Allocated frames on `node`.
    pub fn used_on(&self, node: NodeId) -> u32 {
        self.used[node.index()]
    }

    /// Total allocated frames machine-wide.
    pub fn used_total(&self) -> u64 {
        self.used.iter().map(|&u| u as u64).sum()
    }

    /// True when `node`'s free memory has fallen below the pressure
    /// threshold.
    #[inline]
    pub fn pressure(&self, node: NodeId) -> bool {
        (self.free_on(node) as f64) < self.pressure_threshold * self.cfg.frames_per_node as f64
    }

    /// The machine configuration this allocator serves.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MachineConfig {
        MachineConfig::cc_numa()
            .with_nodes(2)
            .with_frames_per_node(4)
    }

    #[test]
    fn alloc_until_exhaustion() {
        let mut a = FrameAllocator::new(&small());
        for _ in 0..4 {
            assert!(a.alloc(NodeId(0)).is_some());
        }
        assert_eq!(a.alloc(NodeId(0)), None);
        assert_eq!(a.free_on(NodeId(0)), 0);
        assert_eq!(a.free_on(NodeId(1)), 4);
    }

    #[test]
    fn frames_belong_to_their_node() {
        let cfg = small();
        let mut a = FrameAllocator::new(&cfg);
        let f0 = a.alloc(NodeId(0)).unwrap();
        let f1 = a.alloc(NodeId(1)).unwrap();
        assert_eq!(cfg.node_of_frame(f0), NodeId(0));
        assert_eq!(cfg.node_of_frame(f1), NodeId(1));
    }

    #[test]
    fn free_recycles() {
        let mut a = FrameAllocator::new(&small());
        let f = a.alloc(NodeId(0)).unwrap();
        a.free(f).unwrap();
        assert_eq!(a.free_on(NodeId(0)), 4);
        // recycled frame is reused
        assert_eq!(a.alloc(NodeId(0)), Some(f));
    }

    #[test]
    fn double_free_is_an_error_and_leaves_state_intact() {
        let mut a = FrameAllocator::new(&small());
        let f = a.alloc(NodeId(0)).unwrap();
        a.free(f).unwrap();
        let err = a.free(f).unwrap_err();
        assert_eq!(
            err,
            SimError::DoubleFree {
                frame: f,
                node: NodeId(0)
            }
        );
        // Accounting is untouched: the frame is free exactly once.
        assert_eq!(a.free_on(NodeId(0)), 4);
        assert_eq!(a.alloc(NodeId(0)), Some(f));
        assert_eq!(a.alloc(NodeId(0)).map(|g| g == f), Some(false));
    }

    #[test]
    fn free_with_other_frames_outstanding_still_detects_double_free() {
        let mut a = FrameAllocator::new(&small());
        let f = a.alloc(NodeId(0)).unwrap();
        let _g = a.alloc(NodeId(0)).unwrap();
        a.free(f).unwrap();
        // used > 0 because g is still out, but f is already on the free
        // list: this is a double free, not a legal return.
        assert!(matches!(a.free(f), Err(SimError::DoubleFree { .. })));
        assert_eq!(a.used_on(NodeId(0)), 1);
    }

    #[test]
    fn fallback_spills_to_freest_node() {
        let cfg = small();
        let mut a = FrameAllocator::new(&cfg);
        for _ in 0..4 {
            a.alloc(NodeId(0)).unwrap();
        }
        let f = a.alloc_with_fallback(NodeId(0)).unwrap();
        assert_eq!(cfg.node_of_frame(f), NodeId(1));
        // exhaust everything
        for _ in 0..3 {
            a.alloc_with_fallback(NodeId(0)).unwrap();
        }
        assert_eq!(a.alloc_with_fallback(NodeId(0)), None);
    }

    #[test]
    fn pressure_trips_below_threshold() {
        let cfg = MachineConfig::cc_numa()
            .with_nodes(1)
            .with_frames_per_node(100);
        let mut a = FrameAllocator::new(&cfg).with_pressure_threshold(0.10);
        for _ in 0..90 {
            a.alloc(NodeId(0)).unwrap();
        }
        assert!(!a.pressure(NodeId(0)), "exactly 10% free is not pressure");
        a.alloc(NodeId(0)).unwrap();
        assert!(a.pressure(NodeId(0)));
        assert_eq!(a.used_total(), 91);
        assert_eq!(a.used_on(NodeId(0)), 91);
    }
}
