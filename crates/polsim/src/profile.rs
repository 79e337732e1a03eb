//! Pricing the static baselines from one trace profile.
//!
//! Round-robin, first-touch and post-facto placement never move a page
//! (Section 8.1), so each page is charged for one home node the whole
//! trace long. Their result is therefore a pure function of two facts
//! per page: the node that first touched it (and in which order pages
//! were first seen), and how many charged cache misses each node took
//! to it, split into reads and writes. A [`StaticProfile`] gathers those
//! in one pass; [`StaticProfile::price`] turns them into the exact
//! report a record-by-record replay would give, under any latency, move
//! cost or topology preset — post-facto included, which needs no
//! priming pass.

use crate::pages::PageSlots;
use crate::{PolsimConfig, PolsimReport, TraceFilter};
use ccnuma_core::StaticPolicyKind;
use ccnuma_trace::{MissRecord, MissSource};
use ccnuma_types::{AccessKind, MachineConfig, NodeId};

/// One pass's worth of facts about a trace, enough to price every
/// static placement.
///
/// # Examples
///
/// ```
/// use ccnuma_core::StaticPolicyKind;
/// use ccnuma_polsim::{PolsimConfig, StaticProfile, TraceFilter};
/// use ccnuma_trace::MissRecord;
/// use ccnuma_types::{Ns, Pid, ProcId, VirtPage};
///
/// let mut profile = StaticProfile::new(8, TraceFilter::All);
/// // Processor 2 touches the page first; processor 5 then misses on it
/// // three times.
/// profile.observe(&MissRecord::user_data_read(Ns(0), ProcId(2), Pid(0), VirtPage(9)));
/// for t in 1..4 {
///     profile.observe(&MissRecord::user_data_read(Ns(t), ProcId(5), Pid(0), VirtPage(9)));
/// }
/// let cfg = PolsimConfig::section8(8);
/// let ft = profile.price(&cfg, StaticPolicyKind::FirstTouch);
/// assert_eq!((ft.local_misses, ft.remote_misses), (1, 3));
/// // Post-facto homes the page where most misses came from.
/// let pf = profile.price(&cfg, StaticPolicyKind::PostFacto);
/// assert_eq!((pf.local_misses, pf.remote_misses), (3, 1));
/// ```
#[derive(Debug, Clone)]
pub struct StaticProfile {
    nodes: u16,
    filter: TraceFilter,
    /// The node of each processor ([`MachineConfig::proc_nodes`]).
    proc_nodes: Vec<NodeId>,
    slots: PageSlots,
    /// Each page's first-sight node, by slot: in first-sight order.
    first: Vec<NodeId>,
    /// Charged misses per slot, node and kind: `2 × nodes` counters per
    /// slot, the read count of node *n* at `2n` and its write count at
    /// `2n + 1`.
    misses: Vec<u64>,
    records: u64,
}

impl StaticProfile {
    /// An empty profile of a trace from an `nodes`-node machine. Cache
    /// misses whose mode `filter` admits are charged; every record
    /// counts toward first sight.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: u16, filter: TraceFilter) -> StaticProfile {
        assert!(nodes > 0, "need at least one node");
        StaticProfile {
            nodes,
            filter,
            proc_nodes: MachineConfig::cc_numa().with_nodes(nodes).proc_nodes(),
            slots: PageSlots::default(),
            first: Vec::new(),
            misses: Vec::new(),
            records: 0,
        }
    }

    /// Profiles every record of `records`.
    pub fn of<'a>(
        nodes: u16,
        filter: TraceFilter,
        records: impl IntoIterator<Item = &'a MissRecord>,
    ) -> StaticProfile {
        let mut profile = StaticProfile::new(nodes, filter);
        for rec in records {
            profile.observe(rec);
        }
        profile
    }

    /// Adds one record.
    ///
    /// # Panics
    ///
    /// Panics if the record's processor is out of range for the machine.
    #[inline]
    pub fn observe(&mut self, rec: &MissRecord) {
        let node = self.proc_nodes[rec.proc.index()];
        self.records += 1;
        let width = 2 * self.nodes as usize;
        let (slot, fresh) = self.slots.slot(rec.page);
        if fresh {
            self.first.push(node);
            self.misses.resize(self.misses.len() + width, 0);
        }
        if rec.source == MissSource::Cache && self.filter.admits(rec.mode) {
            self.misses[slot * width + 2 * node.index() + usize::from(rec.kind.is_write())] += 1;
        }
    }

    /// Records profiled.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The report a replay of `kind` would give under `cfg`, field for
    /// field. Each page's home is fixed for the whole trace:
    ///
    /// - round-robin: its first-sight index modulo the node count;
    /// - first-touch: its first-sight node;
    /// - post-facto: the node with the most charged misses to it, the
    ///   lowest such node on a tie, or its first-sight node if it took
    ///   none.
    ///
    /// Every charged miss costs the topology's latency from the
    /// accessor's node to the home, and counts as remote when that path
    /// is off-node or far.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.nodes` is not the profile's node count.
    pub fn price(&self, cfg: &PolsimConfig, kind: StaticPolicyKind) -> PolsimReport {
        assert_eq!(
            cfg.nodes, self.nodes,
            "profile and config disagree on nodes"
        );
        let topo = cfg.topology_model();
        let mut report = PolsimReport::empty(kind.to_string(), cfg.other_time);
        let width = 2 * self.nodes as usize;
        for (slot, (&first, counts)) in self
            .first
            .iter()
            .zip(self.misses.chunks_exact(width))
            .enumerate()
        {
            let home = match kind {
                StaticPolicyKind::RoundRobin => NodeId((slot % self.nodes as usize) as u16),
                StaticPolicyKind::FirstTouch => first,
                StaticPolicyKind::PostFacto => post_facto_home(counts).unwrap_or(first),
            };
            for (n, by_kind) in counts.chunks_exact(2).enumerate() {
                let node = NodeId(n as u16);
                let off_node = topo.tier(node, home).is_off_node();
                for (&count, access) in by_kind.iter().zip([AccessKind::Read, AccessKind::Write]) {
                    if count == 0 {
                        continue;
                    }
                    let stall = topo.latency(node, home, access) * count;
                    if off_node {
                        report.remote_misses += count;
                        report.remote_stall += stall;
                    } else {
                        report.local_misses += count;
                        report.local_stall += stall;
                    }
                }
            }
        }
        report
    }
}

/// The node with the most misses in one slot's counters (reads and
/// writes together), the lowest node on a tie; `None` if there are none.
fn post_facto_home(counts: &[u64]) -> Option<NodeId> {
    let mut best: Option<(NodeId, u64)> = None;
    for (n, by_kind) in counts.chunks_exact(2).enumerate() {
        let total = by_kind[0] + by_kind[1];
        if total > best.map_or(0, |(_, most)| most) {
            best = Some((NodeId(n as u16), total));
        }
    }
    best.map(|(node, _)| node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma_types::{Ns, Pid, ProcId, VirtPage};

    fn read(t: u64, proc: u16, page: u64) -> MissRecord {
        MissRecord::user_data_read(Ns(t), ProcId(proc), Pid(0), VirtPage(page))
    }

    #[test]
    fn post_facto_counts_per_node_breaks_ties_low_and_falls_back() {
        // Two processors per node: procs 4 and 5 both count for node 2.
        let mut cfg = PolsimConfig::section8(4);
        let mut profile = StaticProfile::new(4, TraceFilter::All);
        profile.proc_nodes = {
            let mut m = MachineConfig::cc_numa().with_nodes(4);
            m.procs_per_node = 2;
            m.proc_nodes()
        };
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
            profile.observe(&read(t as u64, proc, page));
        }
        // Page 13 is only ever seen through the TLB from node 1.
        profile.observe(&read(9, 2, 13).as_tlb());
        let homes: Vec<Option<NodeId>> = profile
            .misses
            .chunks_exact(8)
            .map(post_facto_home)
            .collect();
        // Page 10: node 2 twice beats nodes 3 and 0 once; page 11: nodes
        // 2 and 3 tie and the lower wins; page 12: node 3 twice beats
        // node 0 once; page 13 took no cache miss.
        assert_eq!(
            homes,
            [Some(NodeId(2)), Some(NodeId(2)), Some(NodeId(3)), None]
        );
        // PF homes pages 10-12 as above; page 13 falls back to its first
        // toucher, and its TLB record charges nothing.
        cfg.other_time = Ns(7);
        let pf = profile.price(&cfg, StaticPolicyKind::PostFacto);
        assert_eq!(pf.local_misses, 2 + 1 + 2);
        assert_eq!(pf.remote_misses, 4);
        assert_eq!(pf.other_time, Ns(7));
        assert_eq!(profile.records(), 10);
    }

    #[test]
    fn round_robin_deals_pages_in_first_sight_order() {
        let profile = StaticProfile::of(
            3,
            TraceFilter::All,
            &[
                read(0, 0, 40),
                read(1, 0, 7),
                read(2, 0, 40),
                read(3, 0, 1 << 41),
            ],
        );
        // Pages 40, 7 and 2^41 land on nodes 0, 1 and 2; only page 40's
        // two misses from node 0 are local.
        let rr = profile.price(&PolsimConfig::section8(3), StaticPolicyKind::RoundRobin);
        assert_eq!((rr.local_misses, rr.remote_misses), (2, 2));
        assert_eq!(rr.label, "RR");
        assert_eq!(rr.policy_stats, None);
    }

    #[test]
    #[should_panic(expected = "disagree on nodes")]
    fn pricing_checks_the_node_count() {
        let profile = StaticProfile::new(4, TraceFilter::All);
        profile.price(&PolsimConfig::section8(8), StaticPolicyKind::FirstTouch);
    }
}
