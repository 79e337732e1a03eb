//! The pass planner must not change a single number: a batched
//! `evaluate` equals every cell evaluated alone (a profile priced for a
//! static cell, a replay for a dynamic one), field for field. It opens
//! one stream for all the static cells plus one per dynamic cell, and
//! reads every stream it opens to the end.

use ccnuma_core::{DynamicPolicyKind, MissMetric, PolicyParams, StaticPolicyKind};
use ccnuma_polsim::{
    evaluate, plan, Cell, PolsimConfig, PolsimReport, Replay, SimPolicy, StaticProfile, TraceFilter,
};
use ccnuma_trace::MissRecord;
use ccnuma_types::{MachineConfig, Mode, Ns, Pid, ProcId, TopologyPreset, VirtPage};
use core::convert::Infallible;
use proptest::prelude::*;

const FILTERS: [TraceFilter; 3] = [
    TraceFilter::All,
    TraceFilter::UserOnly,
    TraceFilter::KernelOnly,
];

/// A trace of `len` records from a 64-bit LCG over a small page pool,
/// so pages get hot enough for the dynamic policies to act: cache and
/// TLB misses, reads and writes, user and kernel mode.
fn trace(seed: u64, len: usize, procs: u16) -> Vec<MissRecord> {
    let mut x = seed | 1;
    let mut next = move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 33
    };
    (0..len as u64)
        .map(|t| {
            let page = VirtPage(next() % 12);
            let proc = ProcId((next() % procs as u64) as u16);
            let mut rec = if next() % 4 == 0 {
                MissRecord::user_data_write(Ns(t * 1000), proc, Pid(0), page)
            } else {
                MissRecord::user_data_read(Ns(t * 1000), proc, Pid(0), page)
            };
            if next() % 3 == 0 {
                rec.mode = Mode::Kernel;
            }
            if next() % 5 == 0 {
                rec = rec.as_tlb();
            }
            rec
        })
        .collect()
}

/// A drawn cell: policy, trigger, metric, remote latency, move cost and
/// topology choices.
type Draw = (usize, u32, usize, u64, u64, usize);

fn cell(nodes: u16, other: Ns, (policy, trigger, metric, remote, move_us, topo): Draw) -> Cell {
    let mut cfg = PolsimConfig::section8(nodes).with_other_time(other);
    cfg.remote_latency = Ns(remote);
    cfg.move_cost = Ns::from_us(move_us);
    cfg = match topo {
        0 => cfg,
        1 => cfg.with_topology(TopologyPreset::TwoSocket),
        2 => cfg.with_topology(TopologyPreset::FourSocketHierarchical),
        _ => cfg.with_topology(TopologyPreset::CxlTiered),
    };
    let metric = match metric {
        0 => MissMetric::full_cache(),
        1 => MissMetric::sampled_cache(3),
        _ => MissMetric::full_tlb(),
    };
    let dynamic = |kind| SimPolicy::Dynamic {
        params: PolicyParams::base().with_trigger(trigger),
        kind,
        metric: metric.clone(),
    };
    let policy = match policy {
        0 => SimPolicy::Static(StaticPolicyKind::RoundRobin),
        1 => SimPolicy::Static(StaticPolicyKind::FirstTouch),
        2 => SimPolicy::Static(StaticPolicyKind::PostFacto),
        3 => dynamic(DynamicPolicyKind::MigRep),
        4 => dynamic(DynamicPolicyKind::MigrationOnly),
        _ => dynamic(DynamicPolicyKind::ReplicationOnly),
    };
    (cfg, policy)
}

/// One cell on its own, without the planner.
fn alone(records: &[MissRecord], (cfg, policy): &Cell, filter: TraceFilter) -> PolsimReport {
    match policy {
        SimPolicy::Static(kind) => StaticProfile::of(cfg.nodes, filter, records).price(cfg, *kind),
        SimPolicy::Dynamic {
            params,
            kind,
            metric,
        } => {
            let mut replay = Replay::new(cfg, *params, *kind, metric.clone(), filter);
            for rec in records {
                replay.observe(rec);
            }
            replay.finish()
        }
    }
}

/// A record stream that counts itself drained when it yields `None`.
struct Counted<'a> {
    records: std::slice::Iter<'a, MissRecord>,
    drained: &'a std::cell::Cell<usize>,
}

impl Iterator for Counted<'_> {
    type Item = Result<MissRecord, Infallible>;

    fn next(&mut self) -> Option<Self::Item> {
        let rec = self.records.next();
        if rec.is_none() {
            self.drained.set(self.drained.get() + 1);
        }
        rec.map(|r| Ok(*r))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn batched_evaluation_equals_each_cell_alone(
        seed in 0u64..u64::MAX,
        len in 0usize..600,
        nodes in 1u16..17,
        filter in 0usize..3,
        other in 0u64..1_000_000,
        draws in proptest::collection::vec(
            (0usize..6, 1u32..48, 0usize..3, 100u64..4000, 0u64..1000, 0usize..4),
            0..8,
        ),
    ) {
        let filter = FILTERS[filter];
        let records = trace(seed, len, MachineConfig::cc_numa().with_nodes(nodes).procs());
        let cells: Vec<Cell> = draws.iter().map(|&d| cell(nodes, Ns(other), d)).collect();
        let statics = cells.iter().filter(|(_, p)| matches!(p, SimPolicy::Static(_))).count();

        let (opened, drained) = (std::cell::Cell::new(0), std::cell::Cell::new(0));
        let open = || {
            opened.set(opened.get() + 1);
            Ok::<_, Infallible>(Counted { records: records.iter(), drained: &drained })
        };
        let Ok((reports, n)) = evaluate(&cells, filter, open);

        let want_passes = usize::from(statics > 0) + (cells.len() - statics);
        prop_assert_eq!(plan(&cells, filter).len(), want_passes);
        prop_assert_eq!(opened.get(), want_passes);
        prop_assert_eq!(drained.get(), want_passes, "every opened stream is read to its end");
        prop_assert_eq!(n, if cells.is_empty() { 0 } else { len as u64 });
        prop_assert_eq!(reports.len(), cells.len());
        for (cell, report) in cells.iter().zip(&reports) {
            prop_assert_eq!(report, &alone(&records, cell, filter), "{:?}", cell);
        }
    }
}
