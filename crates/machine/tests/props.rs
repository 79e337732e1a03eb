//! Property-based tests for the machine simulator's components.

use ccnuma_machine::{CoherenceDir, DirectoryModel, L2Cache, Tlb};
use ccnuma_types::{MachineConfig, NodeId, Ns, ProcId, ProcSet, VirtPage};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Naive reference model for the flat open-addressed [`Tlb`]: presence in
/// a std `HashSet` (SipHash, no probing to get wrong), recency in the same
/// FIFO ring the hardware models — a fixed slot array whose head advances
/// once per miss, with shot-down entries leaving holes that evict nothing
/// when their turn comes.
struct ModelTlb {
    present: HashSet<u64>,
    ring: Vec<Option<u64>>,
    head: usize,
}

impl ModelTlb {
    fn new(capacity: usize) -> ModelTlb {
        ModelTlb {
            present: HashSet::new(),
            ring: vec![None; capacity],
            head: 0,
        }
    }

    fn access(&mut self, page: u64) -> bool {
        if self.present.contains(&page) {
            return true;
        }
        if let Some(old) = self.ring[self.head].replace(page) {
            self.present.remove(&old);
        }
        self.present.insert(page);
        self.head = (self.head + 1) % self.ring.len();
        false
    }

    fn shootdown(&mut self, page: u64) {
        if self.present.remove(&page) {
            let slot = self
                .ring
                .iter()
                .position(|&p| p == Some(page))
                .expect("present pages are in the ring");
            self.ring[slot] = None;
        }
    }

    fn flush(&mut self) {
        self.present.clear();
        self.ring.iter_mut().for_each(|s| *s = None);
        self.head = 0;
    }
}

proptest! {
    /// The L2 obeys inclusion of recency: an access immediately followed
    /// by the same access always hits, and hit+miss counts equal accesses.
    #[test]
    fn l2_rehit_and_counts(accesses in proptest::collection::vec((0u64..5000, 0u16..32), 1..500)) {
        let cfg = MachineConfig::cc_numa();
        let mut l2 = L2Cache::new(&cfg);
        let mut n = 0u64;
        for (page, line) in accesses {
            l2.access(VirtPage(page), line);
            prop_assert!(l2.access(VirtPage(page), line), "immediate re-access must hit");
            n += 2;
        }
        prop_assert_eq!(l2.hits() + l2.misses(), n);
        prop_assert!(l2.miss_ratio() <= 0.5);
    }

    /// The TLB never holds more than its capacity and its counters add up.
    #[test]
    fn tlb_capacity_respected(pages in proptest::collection::vec(0u64..500, 1..400)) {
        let cfg = MachineConfig::cc_numa();
        let mut tlb = Tlb::new(&cfg);
        for p in &pages {
            tlb.access(VirtPage(*p));
            prop_assert!(tlb.len() <= 64);
        }
        prop_assert_eq!(tlb.hits() + tlb.misses(), pages.len() as u64);
    }

    /// Coherence: after any sequence of fills and writes, a line has at
    /// most one holder immediately after a write, and holder sets only
    /// contain processors that actually filled or wrote.
    #[test]
    fn coherence_write_leaves_single_holder(
        events in proptest::collection::vec((0u16..8, 0u64..16, 0u16..4, proptest::bool::ANY), 1..300),
    ) {
        let mut dir = CoherenceDir::new();
        let mut victims = ProcSet::with_capacity_for(dir.max_procs());
        for (proc, page, line, is_write) in events {
            let proc = ProcId(proc);
            if is_write {
                dir.write(proc, VirtPage(page), line, &mut victims);
                prop_assert!(!victims.contains(proc), "writer invalidated itself");
                prop_assert_eq!(dir.holders_of(VirtPage(page), line), vec![proc]);
            } else {
                dir.record_fill(proc, VirtPage(page), line);
                prop_assert!(dir.holders_of(VirtPage(page), line).contains(&proc));
            }
        }
    }

    /// The bitmap TLB agrees with the naive model on every access outcome
    /// over arbitrary interleavings of accesses, shootdowns and flushes —
    /// setting, clearing and growing the residency bitmap never lose or
    /// invent a page. Page numbers are scaled by a per-case stride so
    /// one case packs pages into a few bitmap words and another spreads
    /// them one or more words apart, straddling word boundaries.
    #[test]
    fn tlb_matches_reference_model(
        events in proptest::collection::vec((0u8..8, 0u64..200), 1..800),
        stride in 1u64..130,
    ) {
        let cfg = MachineConfig::cc_numa();
        let mut tlb = Tlb::new(&cfg);
        let mut model = ModelTlb::new(cfg.tlb_entries as usize);
        for (kind, page) in events {
            let page = page * stride;
            match kind {
                0 => {
                    // Rare: full flush (context switch).
                    tlb.flush();
                    model.flush();
                }
                1 | 2 => {
                    tlb.shootdown(VirtPage(page));
                    model.shootdown(page);
                }
                _ => {
                    let hit = tlb.access(VirtPage(page));
                    let expect = model.access(page);
                    prop_assert_eq!(hit, expect, "access {} disagreed with model", page);
                }
            }
            prop_assert_eq!(tlb.len(), model.present.len());
        }
    }

    /// The slot-arena coherence directory agrees with a naive
    /// `HashMap<line, HashSet<proc>>` model: fills and evicts track holder
    /// sets exactly, and a write's victim set is precisely the other
    /// holders at that instant. Processors span several `ProcSet` words
    /// (up to 160), exercising the lifted 64-processor cap.
    #[test]
    fn coherence_matches_reference_model(
        events in proptest::collection::vec((0u8..4, 0u16..160, 0u64..12, 0u16..4), 1..600),
    ) {
        let mut dir = CoherenceDir::with_procs(160);
        let mut victims = ProcSet::with_capacity_for(dir.max_procs());
        let mut model: HashMap<(u64, u16), HashSet<u16>> = HashMap::new();
        for (kind, proc, page, line) in events {
            let key = (page, line);
            match kind {
                0 => {
                    dir.record_evict(ProcId(proc), VirtPage(page), line);
                    if let Some(set) = model.get_mut(&key) {
                        set.remove(&proc);
                    }
                }
                1 => {
                    dir.write(ProcId(proc), VirtPage(page), line, &mut victims);
                    let expect = model.entry(key).or_default();
                    expect.remove(&proc);
                    let mut expect_set: Vec<u16> = expect.iter().copied().collect();
                    expect_set.sort_unstable();
                    let got: Vec<u16> = victims.iter().map(|p| p.0).collect();
                    prop_assert_eq!(got, expect_set, "victim set disagreed");
                    expect.clear();
                    expect.insert(proc);
                }
                _ => {
                    dir.record_fill(ProcId(proc), VirtPage(page), line);
                    model.entry(key).or_default().insert(proc);
                }
            }
            let mut holders: Vec<u16> =
                model.get(&key).map_or_else(Vec::new, |s| s.iter().copied().collect());
            holders.sort_unstable();
            let got: Vec<u16> = dir
                .holders_of(VirtPage(page), line)
                .into_iter()
                .map(|p| p.0)
                .collect();
            prop_assert_eq!(got, holders, "holder set disagreed");
        }
    }

    /// Directory waits are FIFO-consistent: total wait equals the sum of
    /// the returned waits, and requests to distinct nodes never interfere.
    #[test]
    fn directory_nodes_independent(
        reqs in proptest::collection::vec((0u64..1_000_000, 0u16..8, proptest::bool::ANY), 1..300),
    ) {
        let cfg = MachineConfig::cc_numa();
        let mut one = DirectoryModel::new(&cfg);
        let mut total = Ns::ZERO;
        for (t, node, remote) in &reqs {
            total += one.request(Ns(*t), NodeId(*node), *remote);
        }
        prop_assert_eq!(one.stats().total_wait, total);
        prop_assert_eq!(
            one.stats().remote_requests + one.stats().local_requests,
            reqs.len() as u64
        );
        // Re-running each node's sub-stream alone gives the same waits.
        for n in 0..8u16 {
            let mut solo = DirectoryModel::new(&cfg);
            let mut solo_total = Ns::ZERO;
            for (t, node, remote) in &reqs {
                if *node == n {
                    solo_total += solo.request(Ns(*t), NodeId(n), *remote);
                }
            }
            let mut joint = DirectoryModel::new(&cfg);
            let mut joint_node_total = Ns::ZERO;
            for (t, node, remote) in &reqs {
                let w = joint.request(Ns(*t), NodeId(*node), *remote);
                if *node == n {
                    joint_node_total += w;
                }
            }
            prop_assert_eq!(solo_total, joint_node_total, "node {} interfered", n);
        }
    }

    /// The `flat` topology preset reproduces the legacy two-latency cost
    /// model *exactly*: for every (from, to, kind) the end-to-end latency
    /// is `local` on-node and `remote` off-node, reads and writes alike,
    /// and the tier is the legacy local/remote bool. This is the
    /// correctness bar that keeps flat-machine goldens byte-identical.
    #[test]
    fn flat_topology_reproduces_two_latency_model(
        nodes in 1u16..64,
        local in 1u64..3000,
        extra in 0u64..5000,
        from_raw in 0u16..64,
        to_raw in 0u16..64,
        is_write in proptest::bool::ANY,
    ) {
        use ccnuma_types::{AccessKind, Topology};
        let remote = Ns(local + extra);
        let local = Ns(local);
        let topo = Topology::flat(nodes, local, remote);
        topo.validate().unwrap();
        let (from, to) = (NodeId(from_raw % nodes), NodeId(to_raw % nodes));
        let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
        // The naive reference model the codebase used before topologies.
        let naive = if from == to { local } else { remote };
        prop_assert_eq!(topo.latency(from, to, kind), naive);
        prop_assert_eq!(topo.tier(from, to).is_off_node(), from != to);
    }

    /// Shootdown of arbitrary subsets leaves exactly the untouched pages
    /// resident.
    #[test]
    fn tlb_shootdown_is_exact(resident in proptest::collection::vec(0u64..64, 1..40), kill in proptest::collection::vec(0u64..64, 0..40)) {
        let cfg = MachineConfig::cc_numa();
        let mut tlb = Tlb::new(&cfg);
        // Insert up to 40 distinct pages (within capacity 64: no eviction).
        let mut resident_set: Vec<u64> = resident.clone();
        resident_set.sort();
        resident_set.dedup();
        for p in &resident_set {
            tlb.access(VirtPage(*p));
        }
        for p in &kill {
            tlb.shootdown(VirtPage(*p));
        }
        for p in &resident_set {
            let hit = tlb.access(VirtPage(*p));
            prop_assert_eq!(hit, !kill.contains(p), "page {} residency wrong", p);
        }
    }
}

/// Builds a small random workload on a machine with `nodes` × `ppn`
/// CPUs. Reference counts are sized so the run definitely enters the
/// windowed phase (the windowed/serial split depends only on refs and
/// the window bound, never on the shard count).
fn random_workload(
    nodes: u16,
    ppn: u16,
    shared_pages: u64,
    private_pages: u64,
    write_frac: f64,
    affinity: bool,
    seed: u64,
) -> ccnuma_workloads::WorkloadSpec {
    use ccnuma_workloads::{Scale, WorkloadBuilder};
    let mut cfg = MachineConfig::cc_numa().with_nodes(nodes);
    cfg.procs_per_node = ppn;
    let b = WorkloadBuilder::new("prop", cfg)
        .shared_data("heap", shared_pages, 0.6, write_frac)
        .private_data("stack", private_pages, 0.4, 0.3)
        .seed(seed);
    let b = if affinity {
        b.affinity(3, 4)
    } else {
        b.pinned()
    };
    b.build(Scale {
        refs_per_cpu: 12_000,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The sharded runner against the serial runner on random small
    /// machines and workloads: the full report (breakdown, timing,
    /// contention, every float) must render byte-identically whatever
    /// the shard count.
    #[test]
    fn sharded_runner_matches_serial_on_random_machines(
        nodes in 1u16..=4,
        ppn in 1u16..=2,
        shared_pages in 64u64..512,
        private_pages in 16u64..128,
        write_frac in 0.0f64..0.5,
        affinity_raw in 0u8..2,
        policy_raw in 0u8..4,
        seed in 0u64..1_000_000,
        shards in 2u32..=8,
    ) {
        use ccnuma_core::{DynamicPolicyKind, MissMetric, PolicyParams};
        use ccnuma_machine::{Machine, PolicyChoice, RunOptions};
        use ccnuma_types::ShardPlan;
        let affinity = affinity_raw == 1;
        // Static, and Mig/Rep driven by cache misses, every TLB miss,
        // or one TLB miss in ten: TLB-driven runs are the ones whose
        // lanes must emit TLB-refill events with no recorder attached.
        let params = PolicyParams::base().with_trigger(16);
        let mig_rep = |metric| PolicyChoice::Dynamic {
            params,
            kind: DynamicPolicyKind::MigRep,
            metric,
        };
        let policy = match policy_raw {
            0 => PolicyChoice::first_touch(),
            1 => PolicyChoice::base_mig_rep(params),
            2 => mig_rep(MissMetric::full_tlb()),
            _ => mig_rep(MissMetric::sampled_tlb(10)),
        };
        let run = |n: u32| {
            let spec = random_workload(
                nodes, ppn, shared_pages, private_pages, write_frac, affinity, seed,
            );
            let opts = RunOptions::new(policy.clone()).with_shards(ShardPlan::new(n));
            format!("{:?}", Machine::new(spec, opts).run())
        };
        prop_assert_eq!(run(1), run(shards), "shards={} must match serial", shards);
    }
}
