//! Property-based tests for the policy engine's invariants.

use ccnuma_core::{
    CounterTable, DynamicPolicyKind, NoActionReason, ObservedMiss, PageCounters, PageLocation,
    PolicyAction, PolicyEngine, PolicyParams,
};
use ccnuma_types::{NodeId, Ns, ProcId, VirtPage};
use proptest::prelude::*;
use std::collections::HashMap;

fn arb_miss() -> impl Strategy<Value = (u64, u16, u64, bool)> {
    (0u64..500_000_000, 0u16..8, 0u64..32, proptest::bool::ANY)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The trigger fires at most once per (page, processor) per reset
    /// interval: within one interval, a remote page generates at most one
    /// hot event per processor no matter how many misses arrive.
    #[test]
    fn at_most_one_hot_event_per_proc_per_interval(
        trigger in 2u32..64,
        misses in 1u64..400,
    ) {
        let params = PolicyParams::base().with_trigger(trigger);
        // Replication-only so no action clears the counters.
        let mut e = PolicyEngine::new(params, DynamicPolicyKind::ReplicationOnly);
        let loc = PageLocation::master_only(NodeId(0), NodeId(1));
        for i in 0..misses {
            // All within one 100ms interval.
            let now = Ns(i * 1000);
            let _ = e.observe(
                7,
                ObservedMiss::read(now, ProcId(1), NodeId(1), VirtPage(7)),
                &loc,
                false,
            );
        }
        let expected = u64::from(misses >= trigger as u64);
        prop_assert_eq!(e.stats().hot_events, expected);
    }

    /// Local pages never produce hot events or actions.
    #[test]
    fn local_pages_never_acted_on(events in proptest::collection::vec(arb_miss(), 1..300)) {
        let mut e = PolicyEngine::new(
            PolicyParams::base().with_trigger(2),
            DynamicPolicyKind::MigRep,
        );
        for (t, proc, page, write) in events {
            let node = NodeId(proc % 8);
            let loc = PageLocation::master_only(node, node);
            let miss = ObservedMiss {
                now: Ns(t),
                proc: ProcId(proc),
                node,
                page: VirtPage(page),
                is_write: write,
            };
            let action = e.observe(page as usize, miss, &loc, false);
            prop_assert!(
                matches!(
                    action,
                    PolicyAction::Nothing(NoActionReason::NotHot)
                        | PolicyAction::Nothing(NoActionReason::AlreadyLocal)
                ),
                "acted on a local page: {action:?}"
            );
        }
        prop_assert_eq!(e.stats().hot_events, 0);
        prop_assert_eq!(e.stats().migrations + e.stats().replications, 0);
    }

    /// The observation count in stats always equals the misses fed in.
    #[test]
    fn misses_observed_counts_every_observation(
        events in proptest::collection::vec(arb_miss(), 0..300),
    ) {
        let mut e = PolicyEngine::new(PolicyParams::base(), DynamicPolicyKind::MigRep);
        let n = events.len() as u64;
        for (t, proc, page, write) in events {
            let loc = PageLocation::master_only(NodeId(0), NodeId(proc % 8));
            let miss = ObservedMiss {
                now: Ns(t),
                proc: ProcId(proc),
                node: NodeId(proc % 8),
                page: VirtPage(page),
                is_write: write,
            };
            let _ = e.observe(page as usize, miss, &loc, false);
        }
        prop_assert_eq!(e.stats().misses_observed, n);
    }

    /// A write to a replicated page always collapses, regardless of heat,
    /// thresholds or policy kind (the pfault path is unconditional).
    #[test]
    fn write_to_replicated_always_collapses(
        t in 0u64..1_000_000,
        proc in 0u16..8,
        kind_sel in 0u8..3,
    ) {
        let kind = match kind_sel {
            0 => DynamicPolicyKind::MigrationOnly,
            1 => DynamicPolicyKind::ReplicationOnly,
            _ => DynamicPolicyKind::MigRep,
        };
        let mut e = PolicyEngine::new(PolicyParams::base(), kind);
        let node = NodeId(proc % 8);
        let loc = PageLocation::new(NodeId(0), node, &[NodeId(0), NodeId(3)]);
        let action = e.observe(
            1,
            ObservedMiss::write(Ns(t), ProcId(proc), node, VirtPage(1)),
            &loc,
            false,
        );
        prop_assert_eq!(action, PolicyAction::Collapse);
    }

    /// Actions are consistent with the location: Migrate/Replicate target
    /// the accessor's node, Remap only fires when a local copy exists.
    #[test]
    fn actions_target_the_accessor(events in proptest::collection::vec(arb_miss(), 1..400)) {
        let mut e = PolicyEngine::new(
            PolicyParams::base().with_trigger(3),
            DynamicPolicyKind::MigRep,
        );
        for (t, proc, page, write) in events {
            let node = NodeId(proc % 8);
            let master = NodeId((page % 8) as u16);
            // Sometimes a replica exists on the accessor's node.
            let copies = if page % 3 == 0 && master != node {
                vec![master, node]
            } else {
                vec![master]
            };
            let loc = PageLocation::new(master, node, &copies);
            let miss = ObservedMiss {
                now: Ns(t),
                proc: ProcId(proc),
                node,
                page: VirtPage(page),
                is_write: write,
            };
            match e.observe(page as usize, miss, &loc, false) {
                PolicyAction::Migrate { to } | PolicyAction::Remap { to } => {
                    prop_assert_eq!(to, node)
                }
                PolicyAction::Replicate { at } => prop_assert_eq!(at, node),
                PolicyAction::Collapse | PolicyAction::Nothing(_) => {}
            }
        }
    }

    /// The flat counter table behaves exactly like one [`PageCounters`]
    /// per slot over random operation streams: slots are tracked on
    /// first use with the cap live at that moment (later caps do not
    /// apply), arrays grow past sparse slots, and untracked slots read
    /// as absent.
    #[test]
    fn counter_table_matches_page_counters(
        ops in proptest::collection::vec((0u8..8, 0usize..40, 0u16..4, 0u64..4, 1u32..6), 1..400),
    ) {
        const PROCS: usize = 4;
        let mut table = CounterTable::new(PROCS);
        let mut model: HashMap<usize, PageCounters> = HashMap::new();
        for (kind, slot, proc, epoch, cap) in ops {
            // Sparse slots: only multiples of three are ever used.
            let slot = slot / 2 * 3;
            let proc = ProcId(proc);
            table.track(slot, cap);
            let m = model
                .entry(slot)
                .or_insert_with(|| PageCounters::new(PROCS).with_cap(cap));
            match kind {
                0 => prop_assert_eq!(table.roll_epoch(slot, epoch), m.roll_epoch(epoch)),
                1 | 2 => {
                    let write = kind == 2;
                    prop_assert_eq!(table.record_miss(slot, proc, write), m.record_miss(proc, write));
                }
                3 => {
                    table.record_migrate(slot);
                    m.record_migrate();
                }
                4 => {
                    table.clear_misses(slot);
                    m.clear_misses();
                }
                5 => {
                    table.clear_proc(slot, proc);
                    m.clear_proc(proc);
                }
                _ => {
                    table.freeze_until(slot, epoch);
                    m.freeze_until(epoch);
                }
            }
            prop_assert_eq!(table.len(), model.len());
            for s in 0..64 {
                let Some(m) = model.get(&s) else {
                    prop_assert!(table.get(s).is_none(), "slot {} tracked", s);
                    continue;
                };
                let view = table.get(s).expect("tracked slot");
                prop_assert_eq!(view.writes(), m.writes());
                prop_assert_eq!(view.migrates(), m.migrates());
                for p in 0..PROCS as u16 {
                    prop_assert_eq!(view.miss_count(ProcId(p)), m.miss_count(ProcId(p)));
                    prop_assert_eq!(table.shared_beyond(s, ProcId(p), 2), m.shared_beyond(ProcId(p), 2));
                }
                for e in 0..4 {
                    prop_assert_eq!(table.is_frozen(s, e), m.is_frozen(e));
                }
            }
        }
    }
}
