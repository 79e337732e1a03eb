//! Property-based tests for the kernel substrate.

use ccnuma_kernel::{
    FrameAllocator, LockGranularity, LockId, LockModel, PageOp, PageTables, Pager, PagerConfig,
    ShootdownMode,
};
use ccnuma_types::{Frame, MachineConfig, NodeId, Ns, Pid, VirtPage};
use proptest::prelude::*;
use std::collections::HashMap;

/// `pids` sorted, so lists are compared as (multi)sets.
fn sorted(mut pids: Vec<Pid>) -> Vec<Pid> {
    pids.sort_unstable();
    pids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Frame allocation never exceeds capacity, frees restore it, and a
    /// node's frames always map back to that node.
    #[test]
    fn allocator_conserves_capacity(
        ops in proptest::collection::vec((0u16..4, proptest::bool::ANY), 1..300),
    ) {
        let cfg = MachineConfig::cc_numa().with_nodes(4).with_frames_per_node(16);
        let mut a = FrameAllocator::new(&cfg);
        let mut live: Vec<ccnuma_types::Frame> = Vec::new();
        for (node, is_alloc) in ops {
            let node = NodeId(node);
            if is_alloc {
                if let Some(f) = a.alloc(node) {
                    prop_assert_eq!(cfg.node_of_frame(f), node);
                    prop_assert!(!live.contains(&f), "frame handed out twice");
                    live.push(f);
                }
            } else if let Some(f) = live.pop() {
                prop_assert!(a.free(f).is_ok());
            }
            for n in 0..4u16 {
                prop_assert!(a.used_on(NodeId(n)) <= 16);
                prop_assert_eq!(a.free_on(NodeId(n)), 16 - a.used_on(NodeId(n)));
            }
        }
        prop_assert_eq!(a.used_total(), live.len() as u64);
    }

    /// Random alloc / free / alloc_with_fallback sequences driven
    /// through exhaustion and recovery: the allocator hands out each
    /// frame at most once, every double free is rejected as a typed
    /// error without corrupting state, and fallback only fails when the
    /// whole machine is full.
    #[test]
    fn allocator_survives_exhaustion_and_double_frees(
        ops in proptest::collection::vec((0u16..3, 0u8..4, 0usize..64), 1..400),
    ) {
        let nodes = 3u16;
        let per_node = 8u32;
        let cfg = MachineConfig::cc_numa().with_nodes(nodes).with_frames_per_node(per_node);
        let mut a = FrameAllocator::new(&cfg);
        let mut live: Vec<ccnuma_types::Frame> = Vec::new();
        let mut freed: Vec<ccnuma_types::Frame> = Vec::new();
        for (node, op, pick) in ops {
            let node = NodeId(node);
            match op {
                // Plain alloc: must fail exactly when the node is full.
                0 => {
                    let was_full = a.free_on(node) == 0;
                    match a.alloc(node) {
                        Some(f) => {
                            prop_assert!(!was_full);
                            prop_assert_eq!(cfg.node_of_frame(f), node);
                            prop_assert!(!live.contains(&f), "frame handed out twice");
                            live.push(f);
                            freed.retain(|g| *g != f);
                        }
                        None => prop_assert!(was_full),
                    }
                }
                // Fallback alloc: must fail only when everything is full.
                1 => {
                    let machine_full =
                        (0..nodes).all(|n| a.free_on(NodeId(n)) == 0);
                    match a.alloc_with_fallback(node) {
                        Some(f) => {
                            prop_assert!(!machine_full);
                            prop_assert!(!live.contains(&f));
                            live.push(f);
                            freed.retain(|g| *g != f);
                        }
                        None => prop_assert!(machine_full),
                    }
                }
                // Legal free of a live frame.
                2 => {
                    if !live.is_empty() {
                        let f = live.swap_remove(pick % live.len());
                        prop_assert!(a.free(f).is_ok());
                        freed.push(f);
                    }
                }
                // Double free of an already-freed frame: typed error,
                // state untouched.
                _ => {
                    if !freed.is_empty() {
                        let f = freed[pick % freed.len()];
                        let before: Vec<u32> =
                            (0..nodes).map(|n| a.used_on(NodeId(n))).collect();
                        let err = a.free(f);
                        prop_assert!(
                            matches!(err, Err(ccnuma_types::SimError::DoubleFree { frame, .. }) if frame == f)
                        );
                        let after: Vec<u32> =
                            (0..nodes).map(|n| a.used_on(NodeId(n))).collect();
                        prop_assert_eq!(before, after, "rejected free must not change accounting");
                    }
                }
            }
            for n in 0..nodes {
                prop_assert!(a.used_on(NodeId(n)) <= per_node);
                prop_assert_eq!(a.free_on(NodeId(n)), per_node - a.used_on(NodeId(n)));
            }
            prop_assert_eq!(a.used_total(), live.len() as u64);
        }
        // Recovery: free everything, then the machine is empty again and
        // every node can be fully re-allocated.
        for f in live.drain(..) {
            prop_assert!(a.free(f).is_ok());
        }
        prop_assert_eq!(a.used_total(), 0);
        for n in 0..nodes {
            for _ in 0..per_node {
                prop_assert!(a.alloc(NodeId(n)).is_some());
            }
            prop_assert_eq!(a.alloc(NodeId(n)), None);
        }
    }

    /// The lock model's waits are bounded by the backlog cap and its
    /// statistics are internally consistent.
    #[test]
    fn lock_waits_bounded(
        acquires in proptest::collection::vec((0u64..1_000_000, 1u64..1000), 1..200),
        backlog in 1u64..10,
    ) {
        let mut m = LockModel::new().with_max_backlog(backlog);
        let mut total = Ns::ZERO;
        let mut contended = 0;
        for (now, hold) in &acquires {
            let w = m.acquire(LockId::Memlock, Ns(*now), Ns(*hold));
            prop_assert!(w <= Ns(*hold) * backlog, "wait {w} above cap");
            total += w;
            if w > Ns::ZERO {
                contended += 1;
            }
        }
        prop_assert_eq!(m.total_wait(), total);
        prop_assert_eq!(m.acquisitions(), acquires.len() as u64);
        prop_assert_eq!(m.contended(), contended);
    }

    /// After any mix of pager operations the hash, tables and allocator
    /// agree, under both shootdown modes and lock granularities.
    #[test]
    fn pager_state_is_consistent(
        ops in proptest::collection::vec((0u64..24, 0u16..8, 0u8..5), 1..150),
        targeted in proptest::bool::ANY,
        coarse in proptest::bool::ANY,
    ) {
        let machine = MachineConfig::cc_numa().with_frames_per_node(32);
        let cfg = PagerConfig::for_machine(machine)
            .with_shootdown(if targeted { ShootdownMode::Targeted } else { ShootdownMode::Broadcast })
            .with_granularity(if coarse { LockGranularity::Coarse } else { LockGranularity::Fine });
        let mut pager = Pager::new(cfg);
        for i in 0..8u32 {
            pager.set_pid_node(Pid(i), NodeId(i as u16));
        }
        let mut t = 0u64;
        for (page, node, op) in ops {
            t += 500;
            let page = VirtPage(page);
            let node = NodeId(node);
            let pid = Pid(node.0 as u32);
            match op {
                0 | 1 => {
                    pager.first_touch(pid, page, node);
                }
                2 => {
                    pager.service_batch(Ns(t), &[PageOp::migrate(page, node)]);
                }
                3 => {
                    pager.service_batch(Ns(t), &[PageOp::replicate(page, node)]);
                }
                _ => {
                    pager.service_batch(Ns(t), &[PageOp::collapse(page)]);
                }
            }
        }
        // Invariants: frames used == masters + replicas; copies on
        // distinct nodes; mappings point into the copy set; peak >= live.
        let masters = pager.hash().len() as u64;
        prop_assert_eq!(
            pager.frames().used_total(),
            masters + pager.hash().replica_frames()
        );
        prop_assert!(pager.hash().replica_frames_peak() >= pager.hash().replica_frames());
        for page in (0..24).map(VirtPage) {
            let copies = pager.copies(page);
            let mut nodes = copies.clone();
            nodes.sort();
            nodes.dedup();
            prop_assert_eq!(nodes.len(), copies.len());
            for pid in (0..8).map(Pid) {
                if let Some(n) = pager.mapping_node(pid, page) {
                    prop_assert!(copies.contains(&n));
                }
            }
        }
    }

    /// Targeted shootdown never flushes more TLBs than broadcast.
    #[test]
    fn targeted_flushes_at_most_broadcast(mappers in 1u16..8) {
        let machine = MachineConfig::cc_numa();
        let run = |mode| {
            let mut pager = Pager::new(PagerConfig::for_machine(machine.clone()).with_shootdown(mode));
            for i in 0..mappers {
                pager.set_pid_node(Pid(i as u32), NodeId(i));
                pager.first_touch(Pid(i as u32), VirtPage(1), NodeId(i));
            }
            // Migrate somewhere with no copy yet.
            pager.service_batch(Ns(1000), &[PageOp::migrate(VirtPage(1), NodeId(7))]);
            pager.last_batch().tlbs_flushed
        };
        let broadcast = run(ShootdownMode::Broadcast);
        let targeted = run(ShootdownMode::Targeted);
        prop_assert_eq!(broadcast, 8);
        prop_assert!(targeted <= broadcast);
        prop_assert!(targeted >= 1);
    }

    /// Batch latency equals the sum of the per-op latencies.
    #[test]
    fn batch_latency_is_sum_of_ops(n_ops in 1usize..8) {
        let machine = MachineConfig::cc_numa();
        let mut pager = Pager::new(PagerConfig::for_machine(machine));
        let ops: Vec<PageOp> = (0..n_ops as u64)
            .map(|i| {
                pager.first_touch(Pid(1), VirtPage(i), NodeId(0));
                PageOp::migrate(VirtPage(i), NodeId(3))
            })
            .collect();
        let outcomes = pager.service_batch(Ns(10_000), &ops);
        let sum: Ns = outcomes
            .iter()
            .map(|o| match o {
                ccnuma_kernel::OpOutcome::Done { latency } => *latency,
                _ => Ns::ZERO,
            })
            .sum();
        prop_assert_eq!(pager.last_batch().total_latency, sum);
    }

    /// The page-indexed tables agree with a naive `(pid, page) → frame`
    /// map under random map, unmap, repoint and repoint_each calls:
    /// every lookup and node, the PTE count, and the mappers of every
    /// frame and page (compared as sets) match after each step. Frames
    /// span all eight nodes; pages straddle the end of short rows.
    #[test]
    fn page_tables_match_reference_model(
        ops in proptest::collection::vec((0u8..6, 0u32..5, 0u64..24, 0u64..12, 0u64..12), 1..300),
    ) {
        let cfg = MachineConfig::cc_numa();
        let frame = |i: u64| Frame(i * 2_700);
        let mut pt = PageTables::new(&cfg);
        let mut model: HashMap<(Pid, VirtPage), Frame> = HashMap::new();
        for (kind, raw_pid, page, a, b) in ops {
            let (pid, page) = (Pid(raw_pid), VirtPage(page));
            match kind {
                0 | 1 => {
                    pt.map(pid, page, frame(a));
                    model.insert((pid, page), frame(a));
                }
                2 => {
                    prop_assert_eq!(pt.unmap(pid, page), model.remove(&(pid, page)));
                }
                3 => {
                    // Repointing a frame at itself is never asked for.
                    let (old, new) = (frame(a), frame(if a == b { (b + 1) % 12 } else { b }));
                    let mut expect = 0;
                    for ((_, p), f) in model.iter_mut() {
                        if *p == page && *f == old {
                            *f = new;
                            expect += 1;
                        }
                    }
                    prop_assert_eq!(pt.repoint(page, old, new), expect);
                }
                _ => {
                    // Each pid's target is a function of the pid; the
                    // list may repeat a pid and name unmapped ones.
                    let pids = [pid, Pid((raw_pid + 1) % 5), pid, Pid((raw_pid + 3) % 5)];
                    let choose = |p: Pid| frame((u64::from(p.0) * a + b) % 12);
                    let mut expect = 0;
                    for &p in &pids {
                        if let Some(cur) = model.get_mut(&(p, page)) {
                            if *cur != choose(p) {
                                *cur = choose(p);
                                expect += 1;
                            }
                        }
                    }
                    prop_assert_eq!(pt.repoint_each(page, &pids, choose), expect);
                }
            }
            prop_assert_eq!(pt.len(), model.len());
            for p in 0..5 {
                for pg in 0..25 {
                    let key = (Pid(p), VirtPage(pg));
                    let want = model.get(&key).copied();
                    prop_assert_eq!(pt.lookup(key.0, key.1), want);
                    prop_assert_eq!(pt.lookup_node(key.0, key.1), want.map(|f| cfg.node_of_frame(f)));
                }
            }
            for i in 0..12 {
                let want = model.iter().filter(|(_, &f)| f == frame(i)).map(|(&(p, _), _)| p).collect();
                prop_assert_eq!(sorted(pt.mappers_of(frame(i)).to_vec()), sorted(want));
            }
            for pg in 0..25 {
                let want = model.keys().filter(|(_, p)| *p == VirtPage(pg)).map(|&(p, _)| p).collect();
                prop_assert_eq!(sorted(pt.mappers_of_page(VirtPage(pg))), sorted(want));
            }
        }
    }
}
