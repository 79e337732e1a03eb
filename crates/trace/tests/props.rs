//! Property-based tests for traces, sampling and read chains.

use ccnuma_trace::{read_chains, MissRecord, Sampler, Trace, TraceBuilder};
use ccnuma_types::{AccessKind, Mode, Ns, Pid, ProcId, RefClass, VirtPage};
use proptest::prelude::*;

fn arb_record() -> impl Strategy<Value = MissRecord> {
    (
        0u64..u64::MAX / 2,
        0u16..64,
        0u32..1000,
        0u64..1u64 << 40,
        proptest::bool::ANY,
        proptest::bool::ANY,
        proptest::bool::ANY,
        proptest::bool::ANY,
    )
        .prop_map(|(t, proc, pid, page, w, k, i, tlb)| {
            let mut r = MissRecord::user_data_read(Ns(t), ProcId(proc), Pid(pid), VirtPage(page));
            if w {
                r.kind = AccessKind::Write;
            }
            if k {
                r.mode = Mode::Kernel;
            }
            if i {
                r.class = RefClass::Instr;
            }
            if tlb {
                r = r.as_tlb();
            }
            r
        })
}

proptest! {
    /// Traces are always sorted by time after building, whatever the
    /// insertion order.
    #[test]
    fn traces_are_time_sorted(records in proptest::collection::vec(arb_record(), 0..300)) {
        let trace: Trace = records.into_iter().collect();
        prop_assert!(trace.as_slice().windows(2).all(|w| w[0].time <= w[1].time));
    }

    /// Sampling keeps exactly ceil(n / rate) records and is idempotent
    /// in expectation: sampling at rate 1 is the identity.
    #[test]
    fn sampling_counts(records in proptest::collection::vec(arb_record(), 0..300), rate in 1u32..50) {
        let trace: Trace = records.into_iter().collect();
        let sampled = trace.sampled(rate);
        let expected = (trace.len() as u64).div_ceil(rate as u64);
        prop_assert_eq!(sampled.len() as u64, expected);
        prop_assert_eq!(trace.sampled(1), trace);
    }

    /// A standalone sampler admits exactly floor(n/rate) + (phase) events.
    #[test]
    fn sampler_admits_one_in_n(n in 0u32..10_000, rate in 1u32..100) {
        let mut s = Sampler::new(rate);
        let admitted = (0..n).filter(|_| s.admit()).count() as u32;
        prop_assert_eq!(admitted, n.div_ceil(rate));
    }

    /// The filtered views partition the trace.
    #[test]
    fn filters_partition(records in proptest::collection::vec(arb_record(), 0..300)) {
        let trace: Trace = records.into_iter().collect();
        prop_assert_eq!(
            trace.cache_misses().count() + trace.tlb_misses().count(),
            trace.len()
        );
        prop_assert_eq!(
            trace.user_only().count() + trace.kernel_only().count(),
            trace.len()
        );
    }

    /// Read-chain accounting: misses in chains never exceed the data-miss
    /// population, and the fraction series is non-increasing in L.
    #[test]
    fn read_chain_bounds(records in proptest::collection::vec(arb_record(), 0..400)) {
        let trace: Trace = records.into_iter().collect();
        let hist = read_chains(&trace);
        let total = trace.user_data_cache_misses().count() as u64;
        prop_assert_eq!(hist.total_misses(), total);
        prop_assert!(hist.misses_at_least(1) <= total);
        let mut prev = f64::INFINITY;
        for l in [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024] {
            let f = hist.fraction_at_least(l);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f <= prev);
            prev = f;
        }
    }

    /// In an all-read trace every data miss belongs to some chain.
    #[test]
    fn all_read_trace_fully_chained(pages in proptest::collection::vec(0u64..16, 1..300)) {
        let mut b = TraceBuilder::new();
        for (i, p) in pages.iter().enumerate() {
            b.push(MissRecord::user_data_read(
                Ns(i as u64),
                ProcId((i % 4) as u16),
                Pid(0),
                VirtPage(*p),
            ));
        }
        let hist = read_chains(&b.finish());
        prop_assert_eq!(hist.misses_at_least(1), pages.len() as u64);
        prop_assert_eq!(hist.fraction_at_least(1), 1.0);
    }

    /// `push_ordered` accepts exactly the sorted prefixes that `push`
    /// would produce.
    #[test]
    fn push_ordered_matches_sorted(mut times in proptest::collection::vec(0u64..1000, 1..100)) {
        times.sort_unstable();
        let mut b = TraceBuilder::new();
        for (i, t) in times.iter().enumerate() {
            let r = MissRecord::user_data_read(Ns(*t), ProcId(0), Pid(0), VirtPage(i as u64));
            prop_assert!(b.push_ordered(r).is_ok());
        }
        prop_assert_eq!(b.len(), times.len());
    }
}
