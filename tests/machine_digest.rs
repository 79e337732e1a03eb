//! Pins the machine simulator's full report: FNV-1a 64 of the
//! `RunReport` debug rendering (breakdown, policy stats, cost book,
//! contention, trace and every float) for runs that exercise both halves
//! of the engine. A quick run spends most of its references in windows
//! and ends in the exact tail; a run shorter than the tail bound never
//! opens a window. Any change to the per-reference step, either event
//! sink or the merge order moves a digest.

use ccnuma_locality::prelude::*;
use ccnuma_locality::types::ShardPlan;
use ccnuma_obs::fnv1a64;

/// Quick Raytrace under Mig/Rep: windowed bulk, the carry, then the tail.
const QUICK_DIGEST: u64 = 0x46c3_ead4_c3a4_39c5;

/// 1,000 references per CPU, below the 1,668-per-CPU tail bound of a
/// 100 µs window at 60 ns per reference: the whole run is the tail.
const TAIL_ONLY_DIGEST: u64 = 0x7fb6_bade_0430_a511;

fn digest(scale: Scale, shards: u32) -> u64 {
    let opts = RunOptions::new(PolicyChoice::base_mig_rep(
        PolicyParams::base().with_trigger(16),
    ))
    .with_trace()
    .with_shards(ShardPlan::new(shards));
    let report = Machine::new(WorkloadKind::Raytrace.build(scale), opts).run();
    fnv1a64(format!("{report:?}").as_bytes())
}

#[test]
fn quick_mig_rep_report_is_pinned_at_every_shard_count() {
    assert_eq!(digest(Scale::quick(), 1), QUICK_DIGEST, "shards=1");
    assert_eq!(digest(Scale::quick(), 2), QUICK_DIGEST, "shards=2");
    assert_eq!(digest(Scale::quick(), 8), QUICK_DIGEST, "shards=8");
}

#[test]
fn tail_only_report_is_pinned() {
    let scale = Scale {
        refs_per_cpu: 1_000,
    };
    assert_eq!(digest(scale, 1), TAIL_ONLY_DIGEST);
}
