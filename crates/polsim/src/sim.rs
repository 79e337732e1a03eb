//! The trace replay engine.

use crate::pages::PageSlots;
use crate::{evaluate, PolsimReport};
use ccnuma_core::{
    DynamicPolicyKind, MissMetric, ObservedMiss, PageLocation, PolicyAction, PolicyEngine,
    PolicyParams, StaticPolicyKind,
};
use ccnuma_trace::{MissRecord, MissSource, Trace};
use ccnuma_types::{MachineConfig, Mode, NodeId, Ns, Topology, TopologyPreset};
use core::convert::Infallible;

/// The contentionless memory model of Section 8.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolsimConfig {
    /// Nodes in the machine (processor *i* lives on node *i*).
    pub nodes: u16,
    /// Local miss latency (the machine config's 300 ns).
    pub local_latency: Ns,
    /// Remote miss latency (the machine config's 1200 ns).
    pub remote_latency: Ns,
    /// Cost of one migrate, replicate or collapse (350 µs).
    pub move_cost: Ns,
    /// The constant "all other time" component reported in the bars;
    /// callers usually take it from a machine run of the same trace.
    pub other_time: Ns,
    /// Replay under a non-flat topology preset; `None` (or `Flat`) keeps
    /// the paper's two-latency model built from the pair above.
    pub topology: Option<TopologyPreset>,
}

impl PolsimConfig {
    /// The paper's Section 8 parameters for an `nodes`-node machine. The
    /// local/remote pair comes from [`MachineConfig::cc_numa`], the single
    /// source of truth for the 300/1200 ns figures.
    pub fn section8(nodes: u16) -> PolsimConfig {
        let machine = MachineConfig::cc_numa();
        PolsimConfig {
            nodes,
            local_latency: machine.local_latency,
            remote_latency: machine.remote_latency,
            move_cost: Ns::from_us(350),
            other_time: Ns::ZERO,
            topology: None,
        }
    }

    /// Sets the constant non-miss time component.
    #[must_use]
    pub fn with_other_time(mut self, other: Ns) -> PolsimConfig {
        self.other_time = other;
        self
    }

    /// Replays under a topology preset ([`TopologyPreset::Flat`] is the
    /// identity: it reproduces the two-latency model exactly).
    #[must_use]
    pub fn with_topology(mut self, preset: TopologyPreset) -> PolsimConfig {
        self.topology = Some(preset);
        self
    }

    /// The latency model this config replays under.
    pub fn topology_model(&self) -> Topology {
        match self.topology {
            Some(preset) if !preset.is_flat() => preset.build(self.nodes),
            _ => Topology::flat(self.nodes, self.local_latency, self.remote_latency),
        }
    }
}

/// Which records count for stall accounting (the policy still sees the
/// whole trace through its metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFilter {
    /// Everything (user + kernel).
    All,
    /// User-mode misses only (Figure 6).
    UserOnly,
    /// Kernel-mode misses only (Figure 7).
    KernelOnly,
}

impl TraceFilter {
    /// True when misses in `mode` are charged.
    pub(crate) fn admits(self, mode: Mode) -> bool {
        match self {
            TraceFilter::All => true,
            TraceFilter::UserOnly => mode == Mode::User,
            TraceFilter::KernelOnly => mode == Mode::Kernel,
        }
    }
}

/// A policy to replay: one of the three static baselines or the dynamic
/// engine with a metric.
#[derive(Debug, Clone)]
pub enum SimPolicy {
    /// Round-robin, first-touch, or post-facto static placement.
    Static(StaticPolicyKind),
    /// The dynamic policy.
    Dynamic {
        /// Table 1 parameters.
        params: PolicyParams,
        /// Migr, Repl or Mig/Rep.
        kind: DynamicPolicyKind,
        /// FC, SC, FT or ST (Figure 8).
        metric: MissMetric,
    },
}

impl SimPolicy {
    /// Round-robin baseline.
    pub fn round_robin() -> SimPolicy {
        SimPolicy::Static(StaticPolicyKind::RoundRobin)
    }

    /// First-touch baseline.
    pub fn first_touch() -> SimPolicy {
        SimPolicy::Static(StaticPolicyKind::FirstTouch)
    }

    /// Post-facto optimal static placement.
    pub fn post_facto() -> SimPolicy {
        SimPolicy::Static(StaticPolicyKind::PostFacto)
    }

    /// The base dynamic policy (Mig/Rep on full cache misses) with the
    /// Section 8 parameters: trigger 128, sharing 32, write/migrate
    /// thresholds 1, 100 ms reset.
    pub fn base_dynamic() -> SimPolicy {
        SimPolicy::Dynamic {
            params: PolicyParams::base(),
            kind: DynamicPolicyKind::MigRep,
            metric: MissMetric::full_cache(),
        }
    }

    /// Migration-only variant of [`base_dynamic`](SimPolicy::base_dynamic).
    pub fn migration_only() -> SimPolicy {
        SimPolicy::Dynamic {
            params: PolicyParams::base(),
            kind: DynamicPolicyKind::MigrationOnly,
            metric: MissMetric::full_cache(),
        }
    }

    /// Replication-only variant of [`base_dynamic`](SimPolicy::base_dynamic).
    pub fn replication_only() -> SimPolicy {
        SimPolicy::Dynamic {
            params: PolicyParams::base(),
            kind: DynamicPolicyKind::ReplicationOnly,
            metric: MissMetric::full_cache(),
        }
    }

    /// The Figure 6 policy set, in the paper's order.
    pub fn figure6_set() -> Vec<SimPolicy> {
        vec![
            SimPolicy::round_robin(),
            SimPolicy::first_touch(),
            SimPolicy::post_facto(),
            SimPolicy::migration_only(),
            SimPolicy::replication_only(),
            SimPolicy::base_dynamic(),
        ]
    }

    /// Label used in figures.
    pub fn label(&self) -> String {
        match self {
            SimPolicy::Static(k) => k.to_string(),
            SimPolicy::Dynamic { kind, metric, .. } => kind.label(metric),
        }
    }
}

/// Copies a page holds before its [`Placement`] spills to the heap: every
/// node of the paper's eight-node machine.
const INLINE_COPIES: usize = 8;

/// Per-page placement state during a replay: the master's node first,
/// then replica nodes in creation order (nearest-copy semantics — the
/// policy simulator does not model stale mappings, unlike the machine
/// simulator). The order matters: the cheapest-copy scan breaks cost
/// ties toward the earlier copy.
///
/// Up to [`INLINE_COPIES`] copies live inline, so placing, replicating
/// and collapsing a page allocate nothing on machines of up to that many
/// nodes; a larger copy set moves to a `Vec`.
#[derive(Debug, Clone)]
enum Placement {
    Inline {
        len: u8,
        copies: [NodeId; INLINE_COPIES],
    },
    Spilled(Vec<NodeId>),
}

impl Placement {
    /// A page held only by its master copy on `master`.
    fn at(master: NodeId) -> Placement {
        let mut copies = [NodeId(0); INLINE_COPIES];
        copies[0] = master;
        Placement::Inline { len: 1, copies }
    }

    /// Every copy, master first.
    fn copies(&self) -> &[NodeId] {
        match self {
            Placement::Inline { len, copies } => &copies[..*len as usize],
            Placement::Spilled(copies) => copies,
        }
    }

    fn master(&self) -> NodeId {
        self.copies()[0]
    }

    fn has(&self, node: NodeId) -> bool {
        self.copies().contains(&node)
    }

    fn is_replicated(&self) -> bool {
        self.copies().len() > 1
    }

    /// Moves the master copy to `node`.
    fn migrate(&mut self, node: NodeId) {
        match self {
            Placement::Inline { copies, .. } => copies[0] = node,
            Placement::Spilled(copies) => copies[0] = node,
        }
    }

    /// Appends a replica on `node`, spilling to the heap when the inline
    /// array is full.
    fn replicate(&mut self, node: NodeId) {
        match self {
            Placement::Inline { len, copies } if (*len as usize) < INLINE_COPIES => {
                copies[*len as usize] = node;
                *len += 1;
            }
            Placement::Inline { copies, .. } => {
                let mut spilled = copies.to_vec();
                spilled.push(node);
                *self = Placement::Spilled(spilled);
            }
            Placement::Spilled(copies) => copies.push(node),
        }
    }

    /// Drops every replica, keeping the master.
    fn collapse(&mut self) {
        *self = Placement::at(self.master());
    }
}

/// An incremental replay of one dynamic policy under the Section 8
/// memory model: the streaming entry point behind [`simulate`].
///
/// Records are fed one at a time with [`observe`], so a stored trace can
/// be replayed chunk by chunk with bounded memory; [`finish`] yields the
/// [`PolsimReport`]. Each page starts on its first toucher's node. The
/// static baselines never move a page, so they are priced from a
/// [`StaticProfile`](crate::StaticProfile) instead of replayed; the
/// [`plan`](crate::plan()) decides which cells take which.
///
/// [`observe`]: Replay::observe
/// [`finish`]: Replay::finish
///
/// # Examples
///
/// ```
/// use ccnuma_core::{DynamicPolicyKind, MissMetric, PolicyParams};
/// use ccnuma_polsim::{PolsimConfig, Replay, TraceFilter};
/// use ccnuma_trace::MissRecord;
/// use ccnuma_types::{Ns, Pid, ProcId, VirtPage};
///
/// let cfg = PolsimConfig::section8(8);
/// let mut replay = Replay::new(
///     &cfg,
///     PolicyParams::base(),
///     DynamicPolicyKind::MigRep,
///     MissMetric::full_cache(),
///     TraceFilter::All,
/// );
/// for i in 0..10 {
///     replay.observe(&MissRecord::user_data_read(Ns(i), ProcId(3), Pid(0), VirtPage(1)));
/// }
/// let report = replay.finish();
/// assert_eq!(report.local_misses, 10);
/// ```
pub struct Replay {
    move_cost: Ns,
    /// The latency model misses are charged through (flat unless the
    /// config installs a preset).
    topo: Topology,
    filter: TraceFilter,
    /// The node of each processor ([`MachineConfig::proc_nodes`]).
    proc_nodes: Vec<NodeId>,
    /// Each page's slot, handed out densely in order of first sight:
    /// the index of its placement in `placements` and of its policy
    /// counters, so both are as large as the trace's distinct pages,
    /// whatever their page numbers.
    slots: PageSlots,
    placements: Vec<Placement>,
    engine: PolicyEngine,
    metric: MissMetric,
    report: PolsimReport,
}

impl Replay {
    /// Sets up a replay of the `kind` policy with Table 1 `params`,
    /// driven by `metric`, on a `cfg.nodes`-node machine.
    pub fn new(
        cfg: &PolsimConfig,
        params: PolicyParams,
        kind: DynamicPolicyKind,
        metric: MissMetric,
        filter: TraceFilter,
    ) -> Replay {
        let machine = MachineConfig::cc_numa().with_nodes(cfg.nodes);
        let label = kind.label(&metric);
        Replay {
            move_cost: cfg.move_cost,
            topo: cfg.topology_model(),
            proc_nodes: machine.proc_nodes(),
            filter,
            slots: PageSlots::default(),
            placements: Vec::new(),
            engine: PolicyEngine::with_procs(params, kind, machine.procs() as usize),
            metric,
            report: PolsimReport::empty(label, cfg.other_time),
        }
    }

    /// Replays one record: places the page on this node at its first
    /// sight, charges stall for cache misses passing the filter, and
    /// lets the policy act on whatever its metric admits.
    ///
    /// # Panics
    ///
    /// Panics if the record's processor is out of range for the machine.
    #[inline]
    pub fn observe(&mut self, rec: &MissRecord) {
        let node = self.proc_nodes[rec.proc.index()];
        let (slot, fresh) = self.slots.slot(rec.page);
        if fresh {
            self.placements.push(Placement::at(node));
        }
        let placement = &mut self.placements[slot];

        // Stall accounting: cache misses passing the filter are charged
        // for the cheapest copy through the topology. On the flat model
        // this is exactly the legacy rule — local latency when a copy is
        // on-node, remote latency otherwise.
        if rec.source == MissSource::Cache && self.filter.admits(rec.mode) {
            let (cost, tier) = placement
                .copies()
                .iter()
                .map(|&c| {
                    (
                        self.topo.latency(node, c, rec.kind),
                        self.topo.tier(node, c),
                    )
                })
                .min_by_key(|&(cost, _)| cost)
                .expect("placement holds at least the master copy");
            if tier.is_off_node() {
                self.report.remote_misses += 1;
                self.report.remote_stall += cost;
            } else {
                self.report.local_misses += 1;
                self.report.local_stall += cost;
            }
        }

        // Policy decisions: whatever the metric admits.
        if !self.metric.admits(rec) {
            return;
        }
        let on_node = placement.has(node);
        let mapped = if on_node { node } else { placement.master() };
        let loc = PageLocation::from_parts(mapped, node, on_node, placement.is_replicated());
        let miss = ObservedMiss {
            now: rec.time,
            proc: rec.proc,
            node,
            page: rec.page,
            is_write: rec.kind.is_write(),
        };
        match self.engine.observe(slot, miss, &loc, false) {
            PolicyAction::Nothing(_) | PolicyAction::Remap { .. } => {}
            PolicyAction::Migrate { to } => {
                placement.migrate(to);
                self.report.migrations += 1;
                self.report.mig_overhead += self.move_cost;
            }
            PolicyAction::Replicate { at } => {
                placement.replicate(at);
                self.report.replications += 1;
                self.report.rep_overhead += self.move_cost;
            }
            PolicyAction::Collapse => {
                if placement.is_replicated() {
                    placement.collapse();
                    self.report.collapses += 1;
                    self.report.rep_overhead += self.move_cost;
                }
            }
        }
    }

    /// Consumes the replay and returns the report.
    pub fn finish(mut self) -> PolsimReport {
        self.report.policy_stats = Some(*self.engine.stats());
        self.report
    }
}

/// Replays `trace` under `policy` with the Section 8 memory model.
///
/// Stall is charged for every secondary-cache miss passing `filter`; the
/// policy is driven by whatever records its metric admits (which is how
/// TLB-driven policies are evaluated on cache-miss performance in
/// Figure 8). Page moves cost [`PolsimConfig::move_cost`] each.
///
/// This is the one-cell convenience wrapper for in-memory traces, an
/// [`evaluate`] call: a dynamic policy streams the records through a
/// [`Replay`], a static one prices a
/// [`StaticProfile`](crate::StaticProfile) of them. Several policies of
/// one trace are cheaper as one [`evaluate`] call, which prices all the
/// static ones from a single profile.
pub fn simulate(
    trace: &Trace,
    cfg: &PolsimConfig,
    policy: SimPolicy,
    filter: TraceFilter,
) -> PolsimReport {
    let open = || Ok::<_, Infallible>(trace.iter().map(|r| Ok(*r)));
    let Ok((mut reports, _)) = evaluate(&[(cfg.clone(), policy)], filter, open);
    reports.pop().expect("one cell, one report")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma_trace::{MissRecord, TraceBuilder};
    use ccnuma_types::{Pid, ProcId, VirtPage};

    /// `n` remote read misses from proc 5 to a page first touched by proc 0.
    fn remote_read_trace(n: u64) -> Trace {
        let mut b = TraceBuilder::new();
        b.push(MissRecord::user_data_read(
            Ns(0),
            ProcId(0),
            Pid(0),
            VirtPage(1),
        ));
        for i in 0..n {
            b.push(MissRecord::user_data_read(
                Ns(1000 + i * 500),
                ProcId(5),
                Pid(1),
                VirtPage(1),
            ));
        }
        b.finish()
    }

    #[test]
    fn first_touch_places_at_first_toucher() {
        let t = remote_read_trace(10);
        let r = simulate(
            &t,
            &PolsimConfig::section8(8),
            SimPolicy::first_touch(),
            TraceFilter::All,
        );
        assert_eq!(r.local_misses, 1);
        assert_eq!(r.remote_misses, 10);
        assert_eq!(r.stall(), Ns(300 + 12_000));
    }

    #[test]
    fn post_facto_places_at_majority() {
        let t = remote_read_trace(10);
        let r = simulate(
            &t,
            &PolsimConfig::section8(8),
            SimPolicy::post_facto(),
            TraceFilter::All,
        );
        // Node 5 took 10 of 11 misses, so PF homes the page there.
        assert_eq!(r.remote_misses, 1);
        assert_eq!(r.local_misses, 10);
    }

    #[test]
    fn dynamic_migrates_hot_remote_page() {
        // Enough misses to cross the base trigger of 128.
        let t = remote_read_trace(300);
        let r = simulate(
            &t,
            &PolsimConfig::section8(8),
            SimPolicy::base_dynamic(),
            TraceFilter::All,
        );
        assert_eq!(r.migrations, 1, "{:?}", r.policy_stats);
        assert_eq!(r.replications, 0, "single sharer: migrate, not replicate");
        assert_eq!(r.mig_overhead, Ns::from_us(350));
        // After the migration (at miss 128) the rest are local.
        assert!(r.local_misses > 150, "local {} of 301", r.local_misses);
        // The migration made the policy strictly better than FT despite
        // the 350µs overhead (171 remaining misses save 900ns each... in
        // this tiny trace overhead dominates; just check accounting).
        assert_eq!(r.local_misses + r.remote_misses, 301);
    }

    #[test]
    fn dynamic_replicates_read_shared_page() {
        let mut b = TraceBuilder::new();
        // Two processors interleave reads: both cross sharing threshold.
        for i in 0..400u64 {
            let proc = if i % 2 == 0 { ProcId(0) } else { ProcId(5) };
            b.push(MissRecord::user_data_read(
                Ns(i * 500),
                proc,
                Pid(0),
                VirtPage(1),
            ));
        }
        let t = b.finish();
        let r = simulate(
            &t,
            &PolsimConfig::section8(8),
            SimPolicy::base_dynamic(),
            TraceFilter::All,
        );
        assert!(r.replications >= 1, "{:?}", r.policy_stats);
        assert_eq!(r.migrations, 0, "shared page must not migrate");
        // Once replicated, both sides hit locally.
        assert!(r.pct_local_misses() > 50.0);
    }

    #[test]
    fn write_collapses_replicas() {
        let mut b = TraceBuilder::new();
        let mut t_ns = 0u64;
        for i in 0..400u64 {
            let proc = if i % 2 == 0 { ProcId(0) } else { ProcId(5) };
            b.push(MissRecord::user_data_read(
                Ns(t_ns),
                proc,
                Pid(0),
                VirtPage(1),
            ));
            t_ns += 500;
        }
        b.push(MissRecord::user_data_write(
            Ns(t_ns),
            ProcId(3),
            Pid(0),
            VirtPage(1),
        ));
        let t = b.finish();
        let r = simulate(
            &t,
            &PolsimConfig::section8(8),
            SimPolicy::base_dynamic(),
            TraceFilter::All,
        );
        assert!(r.replications >= 1);
        assert_eq!(r.collapses, 1);
    }

    #[test]
    fn replication_only_never_migrates() {
        let t = remote_read_trace(300);
        let r = simulate(
            &t,
            &PolsimConfig::section8(8),
            SimPolicy::replication_only(),
            TraceFilter::All,
        );
        assert_eq!(r.migrations, 0);
        assert_eq!(r.replications, 0, "unshared page: repl branch disabled");
        assert_eq!(r.remote_misses, 300);
    }

    #[test]
    fn migration_only_never_replicates() {
        let mut b = TraceBuilder::new();
        for i in 0..400u64 {
            let proc = if i % 2 == 0 { ProcId(0) } else { ProcId(5) };
            b.push(MissRecord::user_data_read(
                Ns(i * 500),
                proc,
                Pid(0),
                VirtPage(1),
            ));
        }
        let t = b.finish();
        let r = simulate(
            &t,
            &PolsimConfig::section8(8),
            SimPolicy::migration_only(),
            TraceFilter::All,
        );
        assert_eq!(r.replications, 0);
        assert_eq!(r.migrations, 0, "shared page: migr branch refuses");
    }

    #[test]
    fn kernel_filter_excludes_user_misses() {
        let mut b = TraceBuilder::new();
        b.push(MissRecord::user_data_read(
            Ns(0),
            ProcId(1),
            Pid(0),
            VirtPage(1),
        ));
        let mut k = MissRecord::user_data_read(Ns(1), ProcId(1), Pid(0), VirtPage(2));
        k.mode = Mode::Kernel;
        b.push(k);
        let t = b.finish();
        let cfg = PolsimConfig::section8(8);
        let user = simulate(&t, &cfg, SimPolicy::first_touch(), TraceFilter::UserOnly);
        let kern = simulate(&t, &cfg, SimPolicy::first_touch(), TraceFilter::KernelOnly);
        let all = simulate(&t, &cfg, SimPolicy::first_touch(), TraceFilter::All);
        assert_eq!(user.local_misses + user.remote_misses, 1);
        assert_eq!(kern.local_misses + kern.remote_misses, 1);
        assert_eq!(all.local_misses + all.remote_misses, 2);
    }

    #[test]
    fn tlb_misses_do_not_count_as_stall() {
        let mut b = TraceBuilder::new();
        b.push(MissRecord::user_data_read(Ns(0), ProcId(1), Pid(0), VirtPage(1)).as_tlb());
        let t = b.finish();
        let r = simulate(
            &t,
            &PolsimConfig::section8(8),
            SimPolicy::first_touch(),
            TraceFilter::All,
        );
        assert_eq!(r.local_misses + r.remote_misses, 0);
    }

    #[test]
    fn tlb_metric_drives_policy_but_not_stall() {
        // Cache misses from p5 stay below any trigger, but TLB misses
        // cross it, so a TLB-driven policy migrates while an FC-driven
        // one with the same trigger also would. Use a TLB-only stream to
        // check the metric wiring.
        let mut b = TraceBuilder::new();
        b.push(MissRecord::user_data_read(
            Ns(0),
            ProcId(0),
            Pid(0),
            VirtPage(1),
        ));
        for i in 0..200u64 {
            b.push(
                MissRecord::user_data_read(Ns(1000 + i * 500), ProcId(5), Pid(1), VirtPage(1))
                    .as_tlb(),
            );
        }
        // And some cache misses from p5 that benefit after the move.
        for i in 0..50u64 {
            b.push(MissRecord::user_data_read(
                Ns(200_000 + i * 500),
                ProcId(5),
                Pid(1),
                VirtPage(1),
            ));
        }
        let t = b.finish();
        let policy = SimPolicy::Dynamic {
            params: PolicyParams::base(),
            kind: DynamicPolicyKind::MigRep,
            metric: MissMetric::full_tlb(),
        };
        let r = simulate(&t, &PolsimConfig::section8(8), policy, TraceFilter::All);
        assert_eq!(r.migrations, 1);
        assert_eq!(r.local_misses, 51, "cache misses after the move are local");
    }

    #[test]
    fn round_robin_label_and_other_time() {
        let t = remote_read_trace(2);
        let cfg = PolsimConfig::section8(8).with_other_time(Ns::from_ms(5));
        let r = simulate(&t, &cfg, SimPolicy::round_robin(), TraceFilter::All);
        assert_eq!(r.label, "RR");
        assert_eq!(r.other_time, Ns::from_ms(5));
        assert!(r.total() >= Ns::from_ms(5));
    }

    #[test]
    fn section8_latencies_come_from_the_machine_config() {
        let machine = MachineConfig::cc_numa();
        let cfg = PolsimConfig::section8(8);
        assert_eq!(cfg.local_latency, machine.local_latency);
        assert_eq!(cfg.remote_latency, machine.remote_latency);
    }

    #[test]
    fn flat_topology_preset_is_the_identity() {
        let t = remote_read_trace(10);
        let base = simulate(
            &t,
            &PolsimConfig::section8(8),
            SimPolicy::first_touch(),
            TraceFilter::All,
        );
        let flat = simulate(
            &t,
            &PolsimConfig::section8(8).with_topology(TopologyPreset::Flat),
            SimPolicy::first_touch(),
            TraceFilter::All,
        );
        assert_eq!(base.local_misses, flat.local_misses);
        assert_eq!(base.remote_misses, flat.remote_misses);
        assert_eq!(base.stall(), flat.stall());
    }

    #[test]
    fn topology_replay_charges_the_hop_path() {
        // Proc 5's node sits two ring hops from the first-touch home
        // (node 0) under four-socket-hierarchical: 2100 ns per miss
        // instead of the flat 1200 ns.
        let t = remote_read_trace(10);
        let cfg = PolsimConfig::section8(8).with_topology(TopologyPreset::FourSocketHierarchical);
        let r = simulate(&t, &cfg, SimPolicy::first_touch(), TraceFilter::All);
        assert_eq!(r.remote_misses, 10);
        assert_eq!(r.remote_stall, Ns(10 * 2100));
        assert_eq!(r.local_stall, Ns(300));
    }

    #[test]
    fn cxl_far_writes_cost_more_than_reads() {
        // One read and one write to a page homed on a far node (node 6 of
        // 8 under cxl-tiered) from node 0: 1800 ns read, 3600 ns write.
        let mut b = TraceBuilder::new();
        b.push(MissRecord::user_data_read(
            Ns(0),
            ProcId(6),
            Pid(0),
            VirtPage(1),
        ));
        b.push(MissRecord::user_data_read(
            Ns(500),
            ProcId(0),
            Pid(1),
            VirtPage(1),
        ));
        b.push(MissRecord::user_data_write(
            Ns(1000),
            ProcId(0),
            Pid(1),
            VirtPage(1),
        ));
        let t = b.finish();
        let cfg = PolsimConfig::section8(8).with_topology(TopologyPreset::CxlTiered);
        let r = simulate(&t, &cfg, SimPolicy::first_touch(), TraceFilter::All);
        // The first-toucher's own miss is on-node but still far-tier, so
        // every access here is off-node or far: 900 (on-node far read)
        // + 1800 (cross read) + 3600 (cross write).
        assert_eq!(r.remote_misses, 3);
        assert_eq!(r.remote_stall, Ns(900 + 1800 + 3600));
    }

    #[test]
    fn copy_set_keeps_creation_order_past_its_inline_capacity() {
        let mut p = Placement::at(NodeId(3));
        let replicas: Vec<NodeId> = (0..16).filter(|&n| n != 3).map(NodeId).collect();
        for (i, &node) in replicas.iter().enumerate() {
            p.replicate(node);
            assert_eq!(
                matches!(p, Placement::Spilled(_)),
                i + 2 > INLINE_COPIES,
                "{} copies",
                i + 2
            );
        }
        assert_eq!(p.copies()[0], NodeId(3));
        assert_eq!(&p.copies()[1..], replicas.as_slice());
        assert!(p.is_replicated() && p.has(NodeId(15)));
        p.migrate(NodeId(9));
        assert_eq!(p.master(), NodeId(9));
        assert_eq!(p.copies().len(), 16);
        p.collapse();
        assert_eq!(p.copies(), [NodeId(9)]);
        assert!(matches!(p, Placement::Inline { len: 1, .. }));
    }

    #[test]
    fn page_replicated_on_all_sixteen_nodes_then_collapsed() {
        // Page 1 is first touched by proc 0 (node 0), which keeps reading
        // it until it is a sharer (100 misses, below the 128 trigger).
        // Then procs 1..=15 each take 128 remote read misses in turn;
        // the 128th triggers a replica on the reader's node, so the page
        // ends up with 16 copies — twice the inline capacity. One more
        // read per node is then local everywhere. A write from proc 3
        // (charged locally: node 3 holds a replica) collapses the page
        // back to node 0, after which proc 3 misses remotely again and
        // proc 0 locally.
        let mut b = TraceBuilder::new();
        let mut t = 0u64;
        let mut push = |b: &mut TraceBuilder, proc: u16, write: bool| {
            let (p, pid, page) = (ProcId(proc), Pid(0), VirtPage(1));
            b.push(if write {
                MissRecord::user_data_write(Ns(t), p, pid, page)
            } else {
                MissRecord::user_data_read(Ns(t), p, pid, page)
            });
            t += 100;
        };
        for _ in 0..100 {
            push(&mut b, 0, false);
        }
        for proc in 1..16 {
            for _ in 0..128 {
                push(&mut b, proc, false);
            }
        }
        for proc in 0..16 {
            push(&mut b, proc, false);
        }
        push(&mut b, 3, true);
        push(&mut b, 3, false);
        push(&mut b, 0, false);
        let trace = b.finish();

        let cfg = PolsimConfig::section8(16);
        let r = simulate(&trace, &cfg, SimPolicy::base_dynamic(), TraceFilter::All);
        assert_eq!(r.replications, 15, "{:?}", r.policy_stats);
        assert_eq!(r.collapses, 1);
        assert_eq!(r.migrations, 0);
        // Local: 100 (node 0 warm-up) + 16 (one read per node) + 1 (the
        // write) + 1 (node 0's last read). Remote: 15 × 128 + 1.
        assert_eq!(r.local_misses, 118);
        assert_eq!(r.remote_misses, 1921);
        assert_eq!(r.local_stall, Ns(118 * 300));
        assert_eq!(r.remote_stall, Ns(1921 * 1200));
        assert_eq!(r.rep_overhead, Ns::from_us(16 * 350));
        assert_eq!(r.mig_overhead, Ns::ZERO);
    }

    #[test]
    fn figure6_set_order() {
        let labels: Vec<String> = SimPolicy::figure6_set()
            .iter()
            .map(SimPolicy::label)
            .collect();
        assert_eq!(labels, vec!["RR", "FT", "PF", "Migr", "Repl", "Mig/Rep"]);
    }
}
