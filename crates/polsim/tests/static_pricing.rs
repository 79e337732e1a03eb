//! The static baselines priced from a one-pass profile must equal a
//! record-by-record replay of the same placement, field for field, for
//! any trace, node count, filter, latency and topology.

use ccnuma_core::StaticPolicyKind;
use ccnuma_polsim::{simulate, PolsimConfig, PolsimReport, SimPolicy, StaticProfile, TraceFilter};
use ccnuma_trace::{MissRecord, MissSource, Trace};
use ccnuma_types::{MachineConfig, Mode, NodeId, Ns, Pid, ProcId, TopologyPreset, VirtPage};
use proptest::prelude::*;
use std::collections::HashMap;

const KINDS: [StaticPolicyKind; 3] = [
    StaticPolicyKind::RoundRobin,
    StaticPolicyKind::FirstTouch,
    StaticPolicyKind::PostFacto,
];
const FILTERS: [TraceFilter; 3] = [
    TraceFilter::All,
    TraceFilter::UserOnly,
    TraceFilter::KernelOnly,
];

fn admits(filter: TraceFilter, mode: Mode) -> bool {
    match filter {
        TraceFilter::All => true,
        TraceFilter::UserOnly => mode == Mode::User,
        TraceFilter::KernelOnly => mode == Mode::Kernel,
    }
}

/// The reference: place each page at its first sight — round-robin in
/// first-sight order, on the first toucher, or on the node that takes
/// the most charged misses (lowest on a tie, first toucher if none) —
/// then charge every admitted cache miss record by record.
fn replay(
    records: &[MissRecord],
    cfg: &PolsimConfig,
    kind: StaticPolicyKind,
    filter: TraceFilter,
) -> PolsimReport {
    let topo = cfg.topology_model();
    let proc_nodes = MachineConfig::cc_numa().with_nodes(cfg.nodes).proc_nodes();
    let charged = |r: &MissRecord| r.source == MissSource::Cache && admits(filter, r.mode);
    let mut counts: HashMap<VirtPage, Vec<u64>> = HashMap::new();
    for r in records.iter().filter(|r| charged(r)) {
        let node = proc_nodes[r.proc.index()].index();
        counts
            .entry(r.page)
            .or_insert_with(|| vec![0; cfg.nodes as usize])[node] += 1;
    }
    let mut homes: HashMap<VirtPage, NodeId> = HashMap::new();
    let mut report = PolsimReport {
        label: kind.to_string(),
        local_misses: 0,
        remote_misses: 0,
        local_stall: Ns::ZERO,
        remote_stall: Ns::ZERO,
        mig_overhead: Ns::ZERO,
        rep_overhead: Ns::ZERO,
        migrations: 0,
        replications: 0,
        collapses: 0,
        other_time: cfg.other_time,
        policy_stats: None,
    };
    for r in records {
        let node = proc_nodes[r.proc.index()];
        let seen = homes.len();
        let home = *homes.entry(r.page).or_insert_with(|| match kind {
            StaticPolicyKind::RoundRobin => NodeId((seen % cfg.nodes as usize) as u16),
            StaticPolicyKind::FirstTouch => node,
            StaticPolicyKind::PostFacto => counts.get(&r.page).map_or(node, |c| {
                let most = *c.iter().max().expect("at least one node");
                NodeId(c.iter().position(|&n| n == most).expect("max is present") as u16)
            }),
        });
        if !charged(r) {
            continue;
        }
        let cost = topo.latency(node, home, r.kind);
        if topo.tier(node, home).is_off_node() {
            report.remote_misses += 1;
            report.remote_stall += cost;
        } else {
            report.local_misses += 1;
            report.local_stall += cost;
        }
    }
    report
}

/// A trace of `len` records from a 64-bit LCG: cache and TLB misses,
/// reads and writes, user and kernel mode, over a page pool mixing
/// small page numbers with sparse ones at and above 2^40.
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
            let r = next();
            let page = match r % 4 {
                0 => VirtPage((1 << 40) + next() % 6),
                1 => VirtPage(u64::MAX - next() % 3),
                _ => VirtPage(next() % 24),
            };
            let proc = ProcId((next() % procs as u64) as u16);
            let mut rec = if next() % 3 == 0 {
                MissRecord::user_data_write(Ns(t * 100), proc, Pid(0), page)
            } else {
                MissRecord::user_data_read(Ns(t * 100), proc, Pid(0), page)
            };
            if next() % 3 == 0 {
                rec.mode = Mode::Kernel;
            }
            if next() % 4 == 0 {
                rec = rec.as_tlb();
            }
            rec
        })
        .collect()
}

/// The flat machine with the remote latency above, equal to and below
/// the 300 ns local one, then the three non-flat presets.
fn config(nodes: u16, topology: usize, other: u64, move_us: u64) -> PolsimConfig {
    let mut cfg = PolsimConfig::section8(nodes).with_other_time(Ns(other));
    cfg.move_cost = Ns::from_us(move_us);
    match topology {
        0 => cfg.remote_latency = Ns(1200),
        1 => cfg.remote_latency = Ns(300),
        2 => cfg.remote_latency = Ns(100),
        3 => cfg = cfg.with_topology(TopologyPreset::TwoSocket),
        4 => cfg = cfg.with_topology(TopologyPreset::FourSocketHierarchical),
        _ => cfg = cfg.with_topology(TopologyPreset::CxlTiered),
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn priced_static_reports_equal_a_per_record_replay(
        seed in 0u64..u64::MAX,
        len in 0usize..400,
        nodes in 1u16..17,
        filter in 0usize..3,
        topology in 0usize..6,
        other in 0u64..1_000_000,
        move_us in 0u64..1000,
    ) {
        let filter = FILTERS[filter];
        let cfg = config(nodes, topology, other, move_us);
        let records = trace(seed, len, MachineConfig::cc_numa().with_nodes(nodes).procs());
        let profile = StaticProfile::of(nodes, filter, &records);
        prop_assert_eq!(profile.records(), len as u64);
        let trace: Trace = records.iter().copied().collect();
        for kind in KINDS {
            let want = replay(&records, &cfg, kind, filter);
            prop_assert_eq!(&profile.price(&cfg, kind), &want, "{} {:?}", kind, cfg);
            prop_assert_eq!(&simulate(&trace, &cfg, SimPolicy::Static(kind), filter), &want);
        }
    }
}
