//! Property-based cross-crate invariants.

use ccnuma_locality::kernel::{PageOp, Pager, PagerConfig};
use ccnuma_locality::policy::{
    DynamicPolicyKind, MissMetric, ObservedMiss, PageLocation, PolicyEngine, PolicyParams,
};
use ccnuma_locality::polsim::{simulate, PolsimConfig, SimPolicy, TraceFilter};
use ccnuma_locality::prelude::*;
use ccnuma_locality::trace::{MissRecord, Trace};
use proptest::prelude::*;

/// Strategy: an arbitrary miss record over a small page/processor space.
fn miss_record() -> impl Strategy<Value = MissRecord> {
    (
        0u64..2_000_000_000,
        0u16..8,
        0u64..64,
        proptest::bool::ANY,
        proptest::bool::ANY,
    )
        .prop_map(|(t, proc, page, write, tlb)| {
            let r = if write {
                MissRecord::user_data_write(Ns(t), ProcId(proc), Pid(proc as u32), VirtPage(page))
            } else {
                MissRecord::user_data_read(Ns(t), ProcId(proc), Pid(proc as u32), VirtPage(page))
            };
            if tlb {
                r.as_tlb()
            } else {
                r
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every miss in a trace is accounted as exactly one of local/remote
    /// by every policy, and overheads equal 350µs times the move count.
    #[test]
    fn polsim_conserves_misses(records in proptest::collection::vec(miss_record(), 0..400)) {
        let trace: Trace = records.into_iter().collect();
        let cache_misses = trace.cache_misses().count() as u64;
        let cfg = PolsimConfig::section8(8);
        for policy in SimPolicy::figure6_set() {
            let r = simulate(&trace, &cfg, policy, TraceFilter::All);
            prop_assert_eq!(r.local_misses + r.remote_misses, cache_misses);
            prop_assert_eq!(
                r.mig_overhead + r.rep_overhead,
                Ns::from_us(350) * (r.migrations + r.replications + r.collapses)
            );
            prop_assert_eq!(
                r.stall(),
                Ns(r.local_misses * 300 + r.remote_misses * 1200)
            );
        }
    }

    /// The engine's Table 4 statistics always partition the hot events.
    #[test]
    fn engine_stats_partition_hot_events(records in proptest::collection::vec(miss_record(), 0..500)) {
        let mut engine = PolicyEngine::new(PolicyParams::base().with_trigger(4), DynamicPolicyKind::MigRep);
        let mut metric = MissMetric::full_cache();
        for r in &records {
            if !metric.admits(r) {
                continue;
            }
            // Alternate placements so all branches get exercised.
            let master = NodeId((r.page.0 % 8) as u16);
            let node = NodeId(r.proc.0 % 8);
            let loc = PageLocation::master_only(master, node);
            let _ = engine.observe(
                r.page.index(),
                ObservedMiss {
                    now: r.time,
                    proc: r.proc,
                    node,
                    page: r.page,
                    is_write: r.kind.is_write(),
                },
                &loc,
                r.page.0 % 7 == 0, // occasional memory pressure
            );
        }
        let s = engine.stats();
        prop_assert_eq!(
            s.hot_events,
            s.migrations + s.replications + s.remaps + s.no_action + s.no_page
        );
        prop_assert_eq!(
            s.no_action,
            s.no_action_write_shared + s.no_action_migrate_limit
                + s.no_action_pressure + s.no_action_disabled + s.no_action_frozen
        );
        prop_assert!(s.hot_events <= s.misses_observed);
    }

    /// Kernel frame accounting: after any interleaving of operations,
    /// used frames equal pages plus live replicas, every mapping points
    /// at a frame of the right page, and no frame is double-booked.
    #[test]
    fn pager_conserves_frames(ops in proptest::collection::vec((0u64..32, 0u16..8, 0u8..4), 1..200)) {
        let machine = MachineConfig::cc_numa().with_frames_per_node(64);
        let mut pager = Pager::new(PagerConfig::for_machine(machine));
        for i in 0..8u32 {
            pager.set_pid_node(Pid(i), NodeId(i as u16));
        }
        let mut t = 0u64;
        for (page, node, op) in ops {
            t += 1_000;
            let page = VirtPage(page);
            let node = NodeId(node);
            let pid = Pid(node.0 as u32);
            match op {
                0 => {
                    pager.first_touch(pid, page, node);
                }
                1 => {
                    if pager.mapping_node(pid, page).is_some() {
                        pager.service_batch(Ns(t), &[PageOp::migrate(page, node)]);
                    }
                }
                2 => {
                    if pager.mapping_node(pid, page).is_some() {
                        pager.service_batch(Ns(t), &[PageOp::replicate(page, node)]);
                    }
                }
                _ => {
                    pager.service_batch(Ns(t), &[PageOp::collapse(page)]);
                }
            }
        }
        // Conservation: used frames == master pages + live replicas.
        let masters = pager.hash().len() as u64;
        let replicas = pager.hash().replica_frames();
        prop_assert_eq!(pager.frames().used_total(), masters + replicas);
        // Every page's copies live on distinct nodes.
        for page in (0..32).map(VirtPage) {
            let copies = pager.copies(page);
            let mut nodes = copies.clone();
            nodes.sort();
            nodes.dedup();
            prop_assert_eq!(nodes.len(), copies.len(), "duplicate copy node for {}", page);
            // Every process mapping points at one of the copies.
            for pid in (0..8).map(Pid) {
                if let Some(n) = pager.mapping_node(pid, page) {
                    prop_assert!(copies.contains(&n), "{} maps {} to non-copy {}", pid, page, n);
                }
            }
        }
    }

}

/// Machine runs are deterministic: identical seeds give identical
/// breakdowns under a dynamic policy.
#[test]
fn machine_runs_are_deterministic() {
    let run = || {
        ccnuma_locality::machine::Machine::new(
            WorkloadKind::Database.build(Scale::quick()),
            ccnuma_locality::machine::RunOptions::new(
                ccnuma_locality::machine::PolicyChoice::base_mig_rep(
                    PolicyParams::base().with_trigger(16),
                ),
            ),
        )
        .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.breakdown, b.breakdown);
    assert_eq!(a.policy_stats, b.policy_stats);
}
