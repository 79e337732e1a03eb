//! Pins the workload reference generator: FNV-1a 64 over the first
//! 100,000 references of every process stream of every workload the
//! quick plan runs (the five catalog workloads and the shared-reader
//! scaling runs at 4, 8 and 16 nodes), each stream seeded the way the
//! machine seeds it. Any change to the segment choice, the page, line
//! or store draws, or to the vendored RNG's sampling moves the digest.

use ccnuma_locality::workloads::{shared_reader, Scale, WorkloadKind, WorkloadSpec};
use ccnuma_obs::{fnv1a64_update, FNV1A64_OFFSET};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const STREAM_DIGEST: u64 = 0xf673_97ae_62b3_693b;

const REFS_PER_STREAM: usize = 100_000;

/// The machine's per-process seed mix (`runner/mod.rs`).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn fold(mut h: u64, mut spec: WorkloadSpec) -> u64 {
    for (pid, stream) in spec.streams.iter_mut().enumerate() {
        let mut rng = SmallRng::seed_from_u64(spec.seed ^ splitmix64(pid as u64 + 1));
        for _ in 0..REFS_PER_STREAM {
            let r = stream.next_ref(&mut rng);
            h = fnv1a64_update(h, &r.pid.0.to_le_bytes());
            h = fnv1a64_update(h, &r.page.0.to_le_bytes());
            h = fnv1a64_update(h, &r.line.to_le_bytes());
            h = fnv1a64_update(
                h,
                &[
                    r.kind.is_write().into(),
                    r.mode.is_kernel().into(),
                    r.class.is_instr().into(),
                ],
            );
        }
    }
    h
}

#[test]
fn quick_plan_reference_streams_are_pinned() {
    let scale = Scale::quick();
    let mut h = FNV1A64_OFFSET;
    for kind in WorkloadKind::ALL {
        h = fold(h, kind.build(scale));
    }
    for nodes in [4, 8, 16] {
        h = fold(h, shared_reader(nodes, scale));
    }
    assert_eq!(h, STREAM_DIGEST, "{h:#018x}");
}
