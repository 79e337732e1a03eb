//! The policy engine: Figure 1's decision tree over per-page counters.

use crate::{CounterTable, DynamicPolicyKind, PageCountersView, PageLocation, PolicyParams};
use ccnuma_types::{NodeId, Ns, ProcId, VirtPage};
use core::fmt;

/// One counted miss, as fed to [`PolicyEngine::observe`].
///
/// # Examples
///
/// ```
/// use ccnuma_core::ObservedMiss;
/// use ccnuma_types::{NodeId, Ns, ProcId, VirtPage};
///
/// let m = ObservedMiss::write(Ns(10), ProcId(1), NodeId(1), VirtPage(3));
/// assert!(m.is_write);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedMiss {
    /// When the miss occurred (drives the counter reset interval).
    pub now: Ns,
    /// The processor that missed.
    pub proc: ProcId,
    /// That processor's node.
    pub node: NodeId,
    /// The page missed on.
    pub page: VirtPage,
    /// Whether the miss was a store.
    pub is_write: bool,
}

impl ObservedMiss {
    /// A read miss.
    pub fn read(now: Ns, proc: ProcId, node: NodeId, page: VirtPage) -> ObservedMiss {
        ObservedMiss {
            now,
            proc,
            node,
            page,
            is_write: false,
        }
    }

    /// A write miss.
    pub fn write(now: Ns, proc: ProcId, node: NodeId, page: VirtPage) -> ObservedMiss {
        ObservedMiss {
            is_write: true,
            ..ObservedMiss::read(now, proc, node, page)
        }
    }
}

/// Why the decision tree chose to leave a page alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NoActionReason {
    /// The per-processor counter has not reached the trigger threshold.
    NotHot,
    /// The page is hot but the accessor's mapping is already local.
    AlreadyLocal,
    /// Replication candidate, but the write counter disqualifies it
    /// (fine-grain write sharing — the database workload's 85 %).
    WriteShared,
    /// Migration candidate, but the page migrated too recently
    /// (ping-pong damping via the migrate threshold).
    MigrateLimit,
    /// Replication candidate, but the node is under memory pressure.
    MemoryPressure,
    /// The decision-tree branch is disabled by the policy kind
    /// (migration-only or replication-only runs).
    BranchDisabled,
    /// The page is frozen after a recent collapse (freeze/defrost
    /// damping, enabled by `PolicyParams::with_freeze_intervals`).
    Frozen,
}

impl fmt::Display for NoActionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NoActionReason::NotHot => "not hot",
            NoActionReason::AlreadyLocal => "already local",
            NoActionReason::WriteShared => "write shared",
            NoActionReason::MigrateLimit => "migrate limit",
            NoActionReason::MemoryPressure => "memory pressure",
            NoActionReason::BranchDisabled => "branch disabled",
            NoActionReason::Frozen => "frozen",
        })
    }
}

/// The decision produced for one counted miss (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyAction {
    /// Leave the page alone.
    Nothing(NoActionReason),
    /// Move the page to the accessor's node.
    Migrate {
        /// Destination node (the hot processor's node).
        to: NodeId,
    },
    /// Create a replica on the accessor's node.
    Replicate {
        /// Node that receives the new replica.
        at: NodeId,
    },
    /// A copy already exists on the accessor's node but the accessor's
    /// mapping is stale; repoint it (the splash effect, §7.1.1).
    Remap {
        /// Node holding the copy the mapping should use.
        to: NodeId,
    },
    /// A write hit a replicated page: collapse the replicas to one copy
    /// before the write proceeds (the pfault path of Section 4).
    Collapse,
}

impl PolicyAction {
    /// Shorthand for the overwhelmingly common "below trigger" outcome.
    pub fn nothing_not_hot() -> PolicyAction {
        PolicyAction::Nothing(NoActionReason::NotHot)
    }

    /// True for actions that allocate and copy a page (migrate/replicate).
    pub fn is_page_move(&self) -> bool {
        matches!(
            self,
            PolicyAction::Migrate { .. } | PolicyAction::Replicate { .. }
        )
    }
}

impl fmt::Display for PolicyAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyAction::Nothing(r) => write!(f, "nothing ({r})"),
            PolicyAction::Migrate { to } => write!(f, "migrate to {to}"),
            PolicyAction::Replicate { at } => write!(f, "replicate at {at}"),
            PolicyAction::Remap { to } => write!(f, "remap to {to}"),
            PolicyAction::Collapse => f.write_str("collapse"),
        }
    }
}

/// Running tallies behind Table 4 ("Breakdown of actions taken on hot
/// pages").
///
/// Migrations and replications are counted optimistically when the engine
/// returns the action; a caller whose allocation fails must call
/// [`PolicyEngine::note_no_page`], which reclassifies the event into
/// [`no_page`](PolicyStats::no_page).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyStats {
    /// Total misses observed (after metric filtering).
    pub misses_observed: u64,
    /// Hot-page events: trigger crossings on remotely mapped pages.
    pub hot_events: u64,
    /// Hot pages migrated.
    pub migrations: u64,
    /// Hot pages replicated.
    pub replications: u64,
    /// Hot pages whose stale mapping was repointed at an existing local copy.
    pub remaps: u64,
    /// Writes to replicated pages that forced a collapse.
    pub collapses: u64,
    /// Hot pages deliberately left alone (sum of the per-reason fields).
    pub no_action: u64,
    /// `no_action` events due to write sharing.
    pub no_action_write_shared: u64,
    /// `no_action` events due to the migrate threshold.
    pub no_action_migrate_limit: u64,
    /// `no_action` events due to memory pressure at decision time.
    pub no_action_pressure: u64,
    /// `no_action` events due to a disabled policy branch.
    pub no_action_disabled: u64,
    /// `no_action` events due to freeze/defrost damping.
    pub no_action_frozen: u64,
    /// Page moves abandoned because no local frame could be allocated
    /// (Table 4's "% No Page" — 24 % for splash).
    pub no_page: u64,
}

impl PolicyStats {
    /// Total hot-page events, the denominator of Table 4's percentages.
    pub fn hot_pages(&self) -> u64 {
        self.hot_events
    }

    /// Percentage helper: `part` as a percentage of hot pages (0 when no
    /// hot pages were seen).
    pub fn pct_of_hot(&self, part: u64) -> f64 {
        if self.hot_events == 0 {
            0.0
        } else {
            100.0 * part as f64 / self.hot_events as f64
        }
    }
}

/// The migration/replication policy engine.
///
/// Owns the Table 1 parameters, the per-page counters, and the Table 4
/// statistics. See the [crate docs](crate) for a worked example.
#[derive(Debug, Clone)]
pub struct PolicyEngine {
    params: PolicyParams,
    kind: DynamicPolicyKind,
    pages: CounterTable,
    stats: PolicyStats,
}

impl PolicyEngine {
    /// Engine for the paper's 8-processor machine.
    pub fn new(params: PolicyParams, kind: DynamicPolicyKind) -> PolicyEngine {
        PolicyEngine::with_procs(params, kind, 8)
    }

    /// Engine for a machine with `procs` processors.
    ///
    /// # Panics
    ///
    /// Panics if `procs` is zero.
    pub fn with_procs(params: PolicyParams, kind: DynamicPolicyKind, procs: usize) -> PolicyEngine {
        PolicyEngine {
            params,
            kind,
            pages: CounterTable::new(procs),
            stats: PolicyStats::default(),
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &PolicyParams {
        &self.params
    }

    /// The policy kind (Mig/Rep, Migr, Repl).
    pub fn kind(&self) -> DynamicPolicyKind {
        self.kind
    }

    /// The Table 4 statistics so far.
    pub fn stats(&self) -> &PolicyStats {
        &self.stats
    }

    /// Number of pages with live counter state.
    pub fn pages_tracked(&self) -> usize {
        self.pages.len()
    }

    /// The live counter state in `slot`, if any miss has been counted
    /// against it. Read-only: instrumentation uses this to snapshot the
    /// counters behind a decision.
    pub fn counters(&self, slot: usize) -> Option<PageCountersView<'_>> {
        self.pages.get(slot)
    }

    /// Feeds one counted miss through the decision tree (Figure 1).
    ///
    /// `slot` names the missed page's counters: any dense index the
    /// caller keeps one-to-one with pages (the machine uses the page
    /// number). The counter table grows to cover it, so slots should
    /// stay small. `loc` describes the faulting page's placement from the accessor's
    /// point of view and `mem_pressure` is the kernel's report of free-
    /// memory pressure on the accessor's node (node 3a of the tree).
    ///
    /// Counters are updated, the trigger fires exactly once per
    /// (page, processor) per reset interval, and the returned action is
    /// pre-counted in [`stats`](PolicyEngine::stats) — call
    /// [`note_no_page`](PolicyEngine::note_no_page) if the move then fails
    /// for lack of a local frame.
    pub fn observe(
        &mut self,
        slot: usize,
        miss: ObservedMiss,
        loc: &PageLocation,
        mem_pressure: bool,
    ) -> PolicyAction {
        self.stats.misses_observed += 1;
        self.pages.track(slot, self.params.counter_cap);
        // One reset-interval index per miss, shared by every check below.
        let epoch = self.params.epoch_of(miss.now);
        self.pages.roll_epoch(slot, epoch);

        // The pfault path: a store to a replicated page always collapses,
        // independent of heat (Section 4). With freeze/defrost enabled,
        // the collapsed page is frozen against re-replication.
        if miss.is_write && loc.is_replicated() {
            self.pages.record_miss(slot, miss.proc, true);
            if self.params.freeze_intervals > 0 {
                self.pages
                    .freeze_until(slot, epoch + 1 + self.params.freeze_intervals as u64);
            }
            self.stats.collapses += 1;
            return PolicyAction::Collapse;
        }

        let count = self.pages.record_miss(slot, miss.proc, miss.is_write);
        if count != self.params.trigger_threshold {
            // Fires exactly when the counter *reaches* the trigger; later
            // misses in the same interval do not re-interrupt.
            return PolicyAction::Nothing(NoActionReason::NotHot);
        }

        if loc.mapped_local() {
            // The directory suppresses interrupts for locally mapped pages.
            return PolicyAction::Nothing(NoActionReason::AlreadyLocal);
        }

        self.stats.hot_events += 1;

        if loc.copy_on_accessor_node() {
            self.pages.clear_proc(slot, miss.proc);
            self.stats.remaps += 1;
            return PolicyAction::Remap { to: miss.node };
        }

        let shared = self
            .pages
            .shared_beyond(slot, miss.proc, self.params.sharing_threshold);
        if shared {
            if self.pages.is_frozen(slot, epoch) {
                return Self::no_action(&mut self.stats, NoActionReason::Frozen);
            }
            Self::decide_shared(
                &self.params,
                self.kind,
                &mut self.stats,
                miss,
                &mut self.pages,
                slot,
                mem_pressure,
            )
        } else {
            Self::decide_unshared(
                &self.params,
                self.kind,
                &mut self.stats,
                miss,
                &mut self.pages,
                slot,
            )
        }
    }

    fn decide_shared(
        params: &PolicyParams,
        kind: DynamicPolicyKind,
        stats: &mut PolicyStats,
        miss: ObservedMiss,
        counters: &mut CounterTable,
        slot: usize,
        mem_pressure: bool,
    ) -> PolicyAction {
        if !kind.allows_replication() {
            return Self::no_action(stats, NoActionReason::BranchDisabled);
        }
        if mem_pressure {
            return Self::no_action(stats, NoActionReason::MemoryPressure);
        }
        if counters.writes(slot) < params.write_threshold {
            // Only the requester's counter clears: other sharers keep
            // their counts and earn their own replicas this interval.
            counters.clear_proc(slot, miss.proc);
            stats.replications += 1;
            return PolicyAction::Replicate { at: miss.node };
        }
        // §7.1.2 extension: migrate even write-shared pages to spread load.
        if params.hotspot_migrate
            && kind.allows_migration()
            && counters.migrates(slot) < params.migrate_threshold
        {
            counters.record_migrate(slot);
            counters.clear_misses(slot);
            stats.migrations += 1;
            return PolicyAction::Migrate { to: miss.node };
        }
        Self::no_action(stats, NoActionReason::WriteShared)
    }

    fn decide_unshared(
        params: &PolicyParams,
        kind: DynamicPolicyKind,
        stats: &mut PolicyStats,
        miss: ObservedMiss,
        counters: &mut CounterTable,
        slot: usize,
    ) -> PolicyAction {
        if !kind.allows_migration() {
            return Self::no_action(stats, NoActionReason::BranchDisabled);
        }
        if counters.migrates(slot) >= params.migrate_threshold {
            return Self::no_action(stats, NoActionReason::MigrateLimit);
        }
        counters.record_migrate(slot);
        counters.clear_misses(slot);
        stats.migrations += 1;
        PolicyAction::Migrate { to: miss.node }
    }

    fn no_action(stats: &mut PolicyStats, reason: NoActionReason) -> PolicyAction {
        stats.no_action += 1;
        match reason {
            NoActionReason::WriteShared => stats.no_action_write_shared += 1,
            NoActionReason::MigrateLimit => stats.no_action_migrate_limit += 1,
            NoActionReason::MemoryPressure => stats.no_action_pressure += 1,
            NoActionReason::BranchDisabled => stats.no_action_disabled += 1,
            NoActionReason::Frozen => stats.no_action_frozen += 1,
            NoActionReason::NotHot | NoActionReason::AlreadyLocal => {}
        }
        PolicyAction::Nothing(reason)
    }

    /// Reclassifies the most recent page move as a "no page" failure —
    /// the kernel found no free frame on the target node (Table 4's
    /// "% No Page" column).
    ///
    /// # Panics
    ///
    /// Panics if `action` is not a page move, or if no matching move was
    /// counted.
    pub fn note_no_page(&mut self, action: &PolicyAction) {
        match action {
            PolicyAction::Migrate { .. } => {
                assert!(self.stats.migrations > 0, "no migration to reclassify");
                self.stats.migrations -= 1;
            }
            PolicyAction::Replicate { .. } => {
                assert!(self.stats.replications > 0, "no replication to reclassify");
                self.stats.replications -= 1;
            }
            other => panic!("note_no_page on non-move action {other}"),
        }
        self.stats.no_page += 1;
    }

    /// Drops all per-page counter state (e.g. between benchmark runs)
    /// while keeping parameters; statistics are reset too.
    pub fn reset(&mut self) {
        self.pages.clear();
        self.stats = PolicyStats::default();
    }

    /// Replaces the parameters mid-run — the hook the adaptive trigger
    /// controller (§8.4) uses at reset-interval boundaries. Existing
    /// counter state is kept; new pages pick up the new counter cap.
    pub fn set_params(&mut self, params: PolicyParams) {
        self.params = params;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRIG: u32 = 8;

    fn engine(kind: DynamicPolicyKind) -> PolicyEngine {
        PolicyEngine::new(PolicyParams::base().with_trigger(TRIG), kind)
    }

    fn heat(
        engine: &mut PolicyEngine,
        proc: u16,
        node: u16,
        page: u64,
        loc: &PageLocation,
    ) -> PolicyAction {
        let mut last = PolicyAction::nothing_not_hot();
        for t in 0..TRIG as u64 {
            last = engine.observe(
                page as usize,
                ObservedMiss::read(Ns(t), ProcId(proc), NodeId(node), VirtPage(page)),
                loc,
                false,
            );
        }
        last
    }

    #[test]
    fn below_trigger_no_action() {
        let mut e = engine(DynamicPolicyKind::MigRep);
        let loc = PageLocation::master_only(NodeId(0), NodeId(1));
        for t in 0..(TRIG - 1) as u64 {
            let a = e.observe(
                1,
                ObservedMiss::read(Ns(t), ProcId(1), NodeId(1), VirtPage(1)),
                &loc,
                false,
            );
            assert_eq!(a, PolicyAction::Nothing(NoActionReason::NotHot));
        }
        assert_eq!(e.stats().hot_events, 0);
    }

    #[test]
    fn unshared_hot_remote_page_migrates() {
        let mut e = engine(DynamicPolicyKind::MigRep);
        let loc = PageLocation::master_only(NodeId(0), NodeId(1));
        let a = heat(&mut e, 1, 1, 1, &loc);
        assert_eq!(a, PolicyAction::Migrate { to: NodeId(1) });
        assert_eq!(e.stats().migrations, 1);
        assert_eq!(e.stats().hot_events, 1);
    }

    #[test]
    fn hot_local_page_left_alone() {
        let mut e = engine(DynamicPolicyKind::MigRep);
        let loc = PageLocation::master_only(NodeId(1), NodeId(1));
        let a = heat(&mut e, 1, 1, 1, &loc);
        assert_eq!(a, PolicyAction::Nothing(NoActionReason::AlreadyLocal));
        assert_eq!(e.stats().hot_events, 0, "local pages are not hot events");
    }

    #[test]
    fn shared_read_page_replicates() {
        let mut e = engine(DynamicPolicyKind::MigRep);
        // p0 reads enough to cross the sharing threshold (trigger/4 = 2).
        let loc0 = PageLocation::master_only(NodeId(0), NodeId(0));
        for t in 0..4u64 {
            e.observe(
                1,
                ObservedMiss::read(Ns(t), ProcId(0), NodeId(0), VirtPage(1)),
                &loc0,
                false,
            );
        }
        let loc1 = PageLocation::master_only(NodeId(0), NodeId(1));
        let a = heat(&mut e, 1, 1, 1, &loc1);
        assert_eq!(a, PolicyAction::Replicate { at: NodeId(1) });
        assert_eq!(e.stats().replications, 1);
    }

    #[test]
    fn write_shared_page_gets_no_action() {
        let mut e = engine(DynamicPolicyKind::MigRep);
        let loc0 = PageLocation::master_only(NodeId(0), NodeId(0));
        // Writes from p0 push the write counter past the threshold and the
        // miss counter past sharing.
        for t in 0..4u64 {
            e.observe(
                1,
                ObservedMiss::write(Ns(t), ProcId(0), NodeId(0), VirtPage(1)),
                &loc0,
                false,
            );
        }
        let loc1 = PageLocation::master_only(NodeId(0), NodeId(1));
        let a = heat(&mut e, 1, 1, 1, &loc1);
        assert_eq!(a, PolicyAction::Nothing(NoActionReason::WriteShared));
        assert_eq!(e.stats().no_action_write_shared, 1);
        assert_eq!(e.stats().no_action, 1);
    }

    #[test]
    fn hotspot_extension_migrates_write_shared() {
        let params = PolicyParams::base()
            .with_trigger(TRIG)
            .with_hotspot_migrate(true);
        let mut e = PolicyEngine::new(params, DynamicPolicyKind::MigRep);
        let loc0 = PageLocation::master_only(NodeId(0), NodeId(0));
        for t in 0..4u64 {
            e.observe(
                1,
                ObservedMiss::write(Ns(t), ProcId(0), NodeId(0), VirtPage(1)),
                &loc0,
                false,
            );
        }
        let loc1 = PageLocation::master_only(NodeId(0), NodeId(1));
        let a = heat(&mut e, 1, 1, 1, &loc1);
        assert_eq!(a, PolicyAction::Migrate { to: NodeId(1) });
    }

    #[test]
    fn memory_pressure_blocks_replication() {
        let mut e = engine(DynamicPolicyKind::MigRep);
        let loc0 = PageLocation::master_only(NodeId(0), NodeId(0));
        for t in 0..4u64 {
            e.observe(
                1,
                ObservedMiss::read(Ns(t), ProcId(0), NodeId(0), VirtPage(1)),
                &loc0,
                false,
            );
        }
        let loc1 = PageLocation::master_only(NodeId(0), NodeId(1));
        let mut last = PolicyAction::nothing_not_hot();
        for t in 0..TRIG as u64 {
            last = e.observe(
                1,
                ObservedMiss::read(Ns(t), ProcId(1), NodeId(1), VirtPage(1)),
                &loc1,
                true, // pressure
            );
        }
        assert_eq!(last, PolicyAction::Nothing(NoActionReason::MemoryPressure));
        assert_eq!(e.stats().no_action_pressure, 1);
    }

    #[test]
    fn migrate_threshold_damps_ping_pong() {
        let mut e = engine(DynamicPolicyKind::MigRep);
        let loc = PageLocation::master_only(NodeId(0), NodeId(1));
        let a = heat(&mut e, 1, 1, 1, &loc);
        assert!(a.is_page_move());
        // Page (now notionally on n1) heats up from p2 in the same interval.
        let loc2 = PageLocation::master_only(NodeId(1), NodeId(2));
        let mut last = PolicyAction::nothing_not_hot();
        for t in 0..TRIG as u64 {
            last = e.observe(
                1,
                ObservedMiss::read(Ns(t), ProcId(2), NodeId(2), VirtPage(1)),
                &loc2,
                false,
            );
        }
        assert_eq!(last, PolicyAction::Nothing(NoActionReason::MigrateLimit));
        assert_eq!(e.stats().no_action_migrate_limit, 1);
    }

    #[test]
    fn migrate_threshold_resets_next_interval() {
        let mut e = engine(DynamicPolicyKind::MigRep);
        let loc = PageLocation::master_only(NodeId(0), NodeId(1));
        assert!(heat(&mut e, 1, 1, 1, &loc).is_page_move());
        // Next reset interval: the migrate counter clears, migration allowed.
        let later = Ns::from_ms(150).0;
        let loc2 = PageLocation::master_only(NodeId(1), NodeId(2));
        let mut last = PolicyAction::nothing_not_hot();
        for t in 0..TRIG as u64 {
            last = e.observe(
                1,
                ObservedMiss::read(Ns(later + t), ProcId(2), NodeId(2), VirtPage(1)),
                &loc2,
                false,
            );
        }
        assert_eq!(last, PolicyAction::Migrate { to: NodeId(2) });
        assert_eq!(e.stats().migrations, 2);
    }

    #[test]
    fn write_to_replicated_page_collapses() {
        let mut e = engine(DynamicPolicyKind::MigRep);
        let loc = PageLocation::new(NodeId(0), NodeId(1), &[NodeId(0), NodeId(1)]);
        let a = e.observe(
            1,
            ObservedMiss::write(Ns(0), ProcId(1), NodeId(1), VirtPage(1)),
            &loc,
            false,
        );
        assert_eq!(a, PolicyAction::Collapse);
        assert_eq!(e.stats().collapses, 1);
    }

    #[test]
    fn stale_mapping_remaps_to_local_copy() {
        let mut e = engine(DynamicPolicyKind::MigRep);
        let loc = PageLocation::new(NodeId(0), NodeId(1), &[NodeId(0), NodeId(1)]);
        let a = heat(&mut e, 1, 1, 1, &loc);
        assert_eq!(a, PolicyAction::Remap { to: NodeId(1) });
        assert_eq!(e.stats().remaps, 1);
    }

    #[test]
    fn migration_only_skips_replication_branch() {
        let mut e = engine(DynamicPolicyKind::MigrationOnly);
        let loc0 = PageLocation::master_only(NodeId(0), NodeId(0));
        for t in 0..4u64 {
            e.observe(
                1,
                ObservedMiss::read(Ns(t), ProcId(0), NodeId(0), VirtPage(1)),
                &loc0,
                false,
            );
        }
        let loc1 = PageLocation::master_only(NodeId(0), NodeId(1));
        let a = heat(&mut e, 1, 1, 1, &loc1);
        assert_eq!(a, PolicyAction::Nothing(NoActionReason::BranchDisabled));
    }

    #[test]
    fn replication_only_skips_migration_branch() {
        let mut e = engine(DynamicPolicyKind::ReplicationOnly);
        let loc = PageLocation::master_only(NodeId(0), NodeId(1));
        let a = heat(&mut e, 1, 1, 1, &loc);
        assert_eq!(a, PolicyAction::Nothing(NoActionReason::BranchDisabled));
        assert_eq!(e.stats().no_action_disabled, 1);
    }

    #[test]
    fn trigger_fires_once_per_interval() {
        let mut e = engine(DynamicPolicyKind::ReplicationOnly);
        let loc = PageLocation::master_only(NodeId(0), NodeId(1));
        // Run 3x the trigger in one interval; only one hot event because
        // the counter passes (not re-reaches) the trigger and no action
        // cleared it.
        for t in 0..(3 * TRIG) as u64 {
            e.observe(
                1,
                ObservedMiss::read(Ns(t), ProcId(1), NodeId(1), VirtPage(1)),
                &loc,
                false,
            );
        }
        assert_eq!(e.stats().hot_events, 1);
    }

    #[test]
    fn successful_action_allows_refire_after_reheat() {
        let mut e = engine(DynamicPolicyKind::MigRep);
        let params_interval_misses = 2 * TRIG as u64;
        let loc = PageLocation::master_only(NodeId(0), NodeId(1));
        let mut moves = 0;
        for t in 0..params_interval_misses {
            // After each migrate the kernel would relocate the page; for
            // this unit test the location stays "remote" so the page can
            // re-heat, but the migrate threshold stops a second move.
            if e.observe(
                1,
                ObservedMiss::read(Ns(t), ProcId(1), NodeId(1), VirtPage(1)),
                &loc,
                false,
            )
            .is_page_move()
            {
                moves += 1;
            }
        }
        assert_eq!(moves, 1);
        assert_eq!(e.stats().no_action_migrate_limit, 1);
    }

    #[test]
    fn note_no_page_reclassifies() {
        let mut e = engine(DynamicPolicyKind::MigRep);
        let loc = PageLocation::master_only(NodeId(0), NodeId(1));
        let a = heat(&mut e, 1, 1, 1, &loc);
        assert_eq!(e.stats().migrations, 1);
        e.note_no_page(&a);
        assert_eq!(e.stats().migrations, 0);
        assert_eq!(e.stats().no_page, 1);
        assert_eq!(e.stats().hot_pages(), 1);
    }

    #[test]
    #[should_panic(expected = "non-move")]
    fn note_no_page_rejects_non_moves() {
        let mut e = engine(DynamicPolicyKind::MigRep);
        e.note_no_page(&PolicyAction::Collapse);
    }

    #[test]
    fn stats_percentages() {
        let s = PolicyStats {
            hot_events: 200,
            migrations: 50,
            ..PolicyStats::default()
        };
        assert_eq!(s.pct_of_hot(s.migrations), 25.0);
        assert_eq!(PolicyStats::default().pct_of_hot(5), 0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut e = engine(DynamicPolicyKind::MigRep);
        let loc = PageLocation::master_only(NodeId(0), NodeId(1));
        heat(&mut e, 1, 1, 1, &loc);
        assert!(e.pages_tracked() > 0);
        e.reset();
        assert_eq!(e.pages_tracked(), 0);
        assert_eq!(*e.stats(), PolicyStats::default());
    }

    #[test]
    fn freeze_blocks_rereplication_until_defrost() {
        let params = PolicyParams::base()
            .with_trigger(TRIG)
            .with_freeze_intervals(2);
        let mut e = PolicyEngine::new(params, DynamicPolicyKind::MigRep);
        let page = VirtPage(1);
        // Heat the page from two procs so it is a replication candidate.
        let loc0 = PageLocation::master_only(NodeId(0), NodeId(0));
        for t in 0..4u64 {
            e.observe(
                page.index(),
                ObservedMiss::read(Ns(t), ProcId(0), NodeId(0), page),
                &loc0,
                false,
            );
        }
        // A write to the (now notionally replicated) page collapses and
        // freezes it for 2 further intervals.
        let loc_repl = PageLocation::new(NodeId(0), NodeId(1), &[NodeId(0), NodeId(1)]);
        let a = e.observe(
            page.index(),
            ObservedMiss::write(Ns(10), ProcId(1), NodeId(1), page),
            &loc_repl,
            false,
        );
        assert_eq!(a, PolicyAction::Collapse);
        // Reheating in the next interval is refused with Frozen.
        let next = Ns::from_ms(150).0;
        let loc1 = PageLocation::master_only(NodeId(0), NodeId(1));
        for t in 0..4u64 {
            e.observe(
                page.index(),
                ObservedMiss::read(Ns(next + t), ProcId(0), NodeId(0), page),
                &loc0,
                false,
            );
        }
        let mut last = PolicyAction::nothing_not_hot();
        for t in 0..TRIG as u64 {
            last = e.observe(
                page.index(),
                ObservedMiss::read(Ns(next + 10 + t), ProcId(1), NodeId(1), page),
                &loc1,
                false,
            );
        }
        assert_eq!(last, PolicyAction::Nothing(NoActionReason::Frozen));
        assert_eq!(e.stats().no_action_frozen, 1);
        // Four intervals later the page has defrosted and replicates again.
        let later = Ns::from_ms(450).0;
        for t in 0..4u64 {
            e.observe(
                page.index(),
                ObservedMiss::read(Ns(later + t), ProcId(0), NodeId(0), page),
                &loc0,
                false,
            );
        }
        let mut last = PolicyAction::nothing_not_hot();
        for t in 0..TRIG as u64 {
            last = e.observe(
                page.index(),
                ObservedMiss::read(Ns(later + 10 + t), ProcId(1), NodeId(1), page),
                &loc1,
                false,
            );
        }
        assert_eq!(last, PolicyAction::Replicate { at: NodeId(1) });
    }

    #[test]
    fn action_display() {
        assert_eq!(
            PolicyAction::Migrate { to: NodeId(2) }.to_string(),
            "migrate to n2"
        );
        assert_eq!(
            PolicyAction::Nothing(NoActionReason::WriteShared).to_string(),
            "nothing (write shared)"
        );
        assert_eq!(PolicyAction::Collapse.to_string(), "collapse");
    }
}
