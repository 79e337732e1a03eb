//! Static page-placement baselines (Section 8.1).
//!
//! The paper compares its dynamic policy against three static allocation
//! strategies: round-robin (equivalent to random allocation), first-touch
//! (the CC-NUMA default), and post-facto — "the best possible static
//! allocation case", computed with perfect future knowledge of the miss
//! trace.

use ccnuma_trace::{MissRecord, Trace};
use ccnuma_types::{FxHashMap, MachineConfig, NodeId, VirtPage};
use core::fmt;

/// Tag for the three static baselines, used when labelling results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StaticPolicyKind {
    /// Pages are dealt to nodes cyclically.
    RoundRobin,
    /// A page lives on the node that first touches it.
    FirstTouch,
    /// Each page lives on the node that will take the most misses to it.
    PostFacto,
}

impl fmt::Display for StaticPolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StaticPolicyKind::RoundRobin => "RR",
            StaticPolicyKind::FirstTouch => "FT",
            StaticPolicyKind::PostFacto => "PF",
        })
    }
}

/// A static placement policy: decides the home node of a page at its
/// first touch, once and for all.
pub trait Placer {
    /// The home node for `page`, first touched from `first_toucher`.
    fn place(&mut self, page: VirtPage, first_toucher: NodeId) -> NodeId;

    /// Which baseline this is.
    fn kind(&self) -> StaticPolicyKind;
}

/// Round-robin placement — pages are dealt to nodes cyclically, which is
/// statistically equivalent to random placement.
///
/// # Examples
///
/// ```
/// use ccnuma_core::{Placer, RoundRobin};
/// use ccnuma_types::{NodeId, VirtPage};
///
/// let mut rr = RoundRobin::new(4);
/// assert_eq!(rr.place(VirtPage(10), NodeId(0)), NodeId(0));
/// assert_eq!(rr.place(VirtPage(11), NodeId(0)), NodeId(1));
/// // Placement is remembered: re-placing the same page is stable.
/// assert_eq!(rr.place(VirtPage(10), NodeId(3)), NodeId(0));
/// ```
#[derive(Debug, Clone)]
pub struct RoundRobin {
    nodes: u16,
    next: u16,
    placed: FxHashMap<VirtPage, NodeId>,
}

impl RoundRobin {
    /// A round-robin placer over `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: u16) -> RoundRobin {
        assert!(nodes > 0, "need at least one node");
        RoundRobin {
            nodes,
            next: 0,
            placed: FxHashMap::default(),
        }
    }
}

impl Placer for RoundRobin {
    fn place(&mut self, page: VirtPage, _first_toucher: NodeId) -> NodeId {
        *self.placed.entry(page).or_insert_with(|| {
            let n = NodeId(self.next);
            self.next = (self.next + 1) % self.nodes;
            n
        })
    }

    fn kind(&self) -> StaticPolicyKind {
        StaticPolicyKind::RoundRobin
    }
}

/// First-touch placement — the default allocation policy on CC-NUMA
/// machines and the paper's baseline for Section 7.
#[derive(Debug, Clone, Default)]
pub struct FirstTouch {
    placed: FxHashMap<VirtPage, NodeId>,
}

impl FirstTouch {
    /// A fresh first-touch placer.
    pub fn new() -> FirstTouch {
        FirstTouch::default()
    }
}

impl Placer for FirstTouch {
    fn place(&mut self, page: VirtPage, first_toucher: NodeId) -> NodeId {
        *self.placed.entry(page).or_insert(first_toucher)
    }

    fn kind(&self) -> StaticPolicyKind {
        StaticPolicyKind::FirstTouch
    }
}

/// Post-facto placement — the optimal static allocation, built from a
/// complete miss trace with perfect future knowledge (each page is placed
/// on the node that takes the most cache misses to it).
///
/// # Examples
///
/// ```
/// use ccnuma_core::{Placer, PostFacto};
/// use ccnuma_trace::{MissRecord, Trace};
/// use ccnuma_types::{MachineConfig, NodeId, Ns, Pid, ProcId, VirtPage};
///
/// let cfg = MachineConfig::cc_numa();
/// let trace: Trace = [
///     MissRecord::user_data_read(Ns(0), ProcId(2), Pid(0), VirtPage(7)),
///     MissRecord::user_data_read(Ns(1), ProcId(2), Pid(0), VirtPage(7)),
///     MissRecord::user_data_read(Ns(2), ProcId(5), Pid(1), VirtPage(7)),
/// ].into_iter().collect();
/// let mut pf = PostFacto::from_trace(&trace, &cfg);
/// // Node 2 took two of the three misses, so it wins the page.
/// assert_eq!(pf.place(VirtPage(7), NodeId(5)), NodeId(2));
/// ```
#[derive(Debug, Clone)]
pub struct PostFacto {
    best: FxHashMap<VirtPage, NodeId>,
}

impl PostFacto {
    /// Computes the optimal static home of every page in `trace`, counting
    /// only secondary-cache misses. Ties are broken toward the
    /// lowest-numbered node, deterministically.
    pub fn from_trace(trace: &Trace, cfg: &MachineConfig) -> PostFacto {
        let mut b = PostFactoBuilder::new(cfg);
        for r in trace.iter() {
            b.observe(r);
        }
        b.finish()
    }

    /// Number of pages with a computed optimal home.
    pub fn len(&self) -> usize {
        self.best.len()
    }

    /// True when the source trace had no cache misses.
    pub fn is_empty(&self) -> bool {
        self.best.is_empty()
    }
}

/// Streaming constructor for [`PostFacto`]: feed it miss records one at a
/// time (e.g. straight off a stored trace) and [`finish`] into the placer
/// without ever materializing the trace.
///
/// [`finish`]: PostFactoBuilder::finish
///
/// # Examples
///
/// ```
/// use ccnuma_core::{Placer, PostFactoBuilder};
/// use ccnuma_trace::MissRecord;
/// use ccnuma_types::{MachineConfig, NodeId, Ns, Pid, ProcId, VirtPage};
///
/// let cfg = MachineConfig::cc_numa();
/// let mut b = PostFactoBuilder::new(&cfg);
/// for t in 0..3 {
///     b.observe(&MissRecord::user_data_read(Ns(t), ProcId(2), Pid(0), VirtPage(7)));
/// }
/// let mut pf = b.finish();
/// assert_eq!(pf.place(VirtPage(7), NodeId(5)), NodeId(2));
/// ```
#[derive(Debug, Clone)]
pub struct PostFactoBuilder {
    nodes: usize,
    /// The node of each processor ([`MachineConfig::proc_nodes`]).
    proc_nodes: Vec<NodeId>,
    /// Each page's slot in `counts`, in first-miss order.
    slots: FxHashMap<VirtPage, u32>,
    /// Per-node miss counts, stride `nodes` per slot.
    counts: Vec<u64>,
}

impl PostFactoBuilder {
    /// An empty builder for a machine shaped like `cfg`.
    pub fn new(cfg: &MachineConfig) -> PostFactoBuilder {
        PostFactoBuilder {
            nodes: cfg.nodes as usize,
            proc_nodes: cfg.proc_nodes(),
            slots: FxHashMap::default(),
            counts: Vec::new(),
        }
    }

    /// Counts one record toward its node's claim on the page. TLB-only
    /// records are ignored — post-facto placement optimizes cache misses.
    ///
    /// # Panics
    ///
    /// Panics if the record's processor is out of range for the machine.
    pub fn observe(&mut self, r: &MissRecord) {
        if r.source != ccnuma_trace::MissSource::Cache {
            return;
        }
        let node = self.proc_nodes[r.proc.index()];
        let fresh = self.slots.len() as u32;
        let base = *self.slots.entry(r.page).or_insert(fresh) as usize * self.nodes;
        if base == self.counts.len() {
            self.counts.resize(base + self.nodes, 0);
        }
        self.counts[base + node.index()] += 1;
    }

    /// Resolves every page to the node that took the most misses to it.
    /// Ties break toward the lowest-numbered node, deterministically.
    pub fn finish(self) -> PostFacto {
        let PostFactoBuilder {
            nodes,
            slots,
            counts,
            ..
        } = self;
        let best = slots
            .into_iter()
            .map(|(page, slot)| {
                let per_node = &counts[slot as usize * nodes..][..nodes];
                let (idx, _) = per_node
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
                    .expect("a machine has at least one node");
                (page, NodeId(idx as u16))
            })
            .collect();
        PostFacto { best }
    }
}

impl Placer for PostFacto {
    fn place(&mut self, page: VirtPage, first_toucher: NodeId) -> NodeId {
        // Pages never missed on in the trace fall back to first touch.
        self.best.get(&page).copied().unwrap_or(first_toucher)
    }

    fn kind(&self) -> StaticPolicyKind {
        StaticPolicyKind::PostFacto
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma_trace::MissRecord;
    use ccnuma_types::{Ns, Pid, ProcId};

    #[test]
    fn round_robin_cycles_and_is_stable() {
        let mut rr = RoundRobin::new(3);
        let homes: Vec<NodeId> = (0..6).map(|i| rr.place(VirtPage(i), NodeId(0))).collect();
        assert_eq!(
            homes,
            vec![
                NodeId(0),
                NodeId(1),
                NodeId(2),
                NodeId(0),
                NodeId(1),
                NodeId(2)
            ]
        );
        assert_eq!(rr.place(VirtPage(2), NodeId(2)), NodeId(2));
        assert_eq!(rr.kind(), StaticPolicyKind::RoundRobin);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn round_robin_rejects_zero_nodes() {
        let _ = RoundRobin::new(0);
    }

    #[test]
    fn first_touch_pins_to_first_toucher() {
        let mut ft = FirstTouch::new();
        assert_eq!(ft.place(VirtPage(1), NodeId(4)), NodeId(4));
        assert_eq!(ft.place(VirtPage(1), NodeId(6)), NodeId(4));
        assert_eq!(ft.kind(), StaticPolicyKind::FirstTouch);
    }

    #[test]
    fn post_facto_picks_miss_majority() {
        let cfg = MachineConfig::cc_numa();
        let mut recs = Vec::new();
        for t in 0..10u64 {
            recs.push(MissRecord::user_data_read(
                Ns(t),
                ProcId(3),
                Pid(0),
                VirtPage(1),
            ));
        }
        for t in 10..13u64 {
            recs.push(MissRecord::user_data_read(
                Ns(t),
                ProcId(0),
                Pid(1),
                VirtPage(1),
            ));
        }
        // TLB misses must not influence PF placement.
        for t in 13..40u64 {
            recs.push(MissRecord::user_data_read(Ns(t), ProcId(7), Pid(2), VirtPage(1)).as_tlb());
        }
        let trace: Trace = recs.into_iter().collect();
        let mut pf = PostFacto::from_trace(&trace, &cfg);
        assert_eq!(pf.len(), 1);
        assert_eq!(pf.place(VirtPage(1), NodeId(0)), NodeId(3));
        assert_eq!(pf.kind(), StaticPolicyKind::PostFacto);
    }

    #[test]
    fn post_facto_tie_breaks_low_and_falls_back_to_first_touch() {
        let cfg = MachineConfig::cc_numa();
        let trace: Trace = [
            MissRecord::user_data_read(Ns(0), ProcId(5), Pid(0), VirtPage(2)),
            MissRecord::user_data_read(Ns(1), ProcId(1), Pid(1), VirtPage(2)),
        ]
        .into_iter()
        .collect();
        let mut pf = PostFacto::from_trace(&trace, &cfg);
        assert_eq!(
            pf.place(VirtPage(2), NodeId(7)),
            NodeId(1),
            "tie -> low node"
        );
        assert_eq!(
            pf.place(VirtPage(99), NodeId(6)),
            NodeId(6),
            "unseen -> first touch"
        );
    }

    #[test]
    fn post_facto_counts_interleaved_pages_per_node() {
        // Two processors per node: procs 4 and 5 both count for node 2.
        let mut cfg = MachineConfig::cc_numa().with_nodes(4);
        cfg.procs_per_node = 2;
        let mut b = PostFactoBuilder::new(&cfg);
        let misses = [
            (7, 10),
            (4, 11),
            (5, 10),
            (0, 12),
            (4, 10),
            (7, 11),
            (6, 12),
            (6, 12),
            (0, 10),
        ];
        for (t, &(proc, page)) in misses.iter().enumerate() {
            b.observe(&MissRecord::user_data_read(
                Ns(t as u64),
                ProcId(proc),
                Pid(0),
                VirtPage(page),
            ));
        }
        let mut pf = b.finish();
        assert_eq!(pf.len(), 3);
        // Page 10: node 2 twice (procs 5 and 4), nodes 3 and 0 once.
        assert_eq!(pf.place(VirtPage(10), NodeId(1)), NodeId(2));
        // Page 11: nodes 2 and 3 tie; the lower node wins.
        assert_eq!(pf.place(VirtPage(11), NodeId(1)), NodeId(2));
        // Page 12: node 3 twice beats node 0 once.
        assert_eq!(pf.place(VirtPage(12), NodeId(1)), NodeId(3));
    }

    #[test]
    fn post_facto_empty_trace() {
        let cfg = MachineConfig::cc_numa();
        let pf = PostFacto::from_trace(&Trace::new(), &cfg);
        assert!(pf.is_empty());
    }

    #[test]
    fn kind_labels() {
        assert_eq!(StaticPolicyKind::RoundRobin.to_string(), "RR");
        assert_eq!(StaticPolicyKind::FirstTouch.to_string(), "FT");
        assert_eq!(StaticPolicyKind::PostFacto.to_string(), "PF");
    }
}
