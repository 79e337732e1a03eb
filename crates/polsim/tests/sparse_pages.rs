//! A trace over sparse page numbers (2^40 and up) replays and profiles
//! in memory proportional to its distinct pages, never to its page
//! numbers. The allocator below counts the bytes this test's thread
//! asks for.

use ccnuma_core::{DynamicPolicyKind, MissMetric, PolicyParams};
use ccnuma_polsim::{PolsimConfig, Replay, StaticProfile, TraceFilter};
use ccnuma_trace::MissRecord;
use ccnuma_types::{Ns, Pid, ProcId, VirtPage};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread local, so counting never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes `f` allocates on this thread.
fn allocated_by(f: impl FnOnce()) -> usize {
    let before = ALLOCATED.with(Cell::get);
    f();
    ALLOCATED.with(Cell::get) - before
}

#[test]
fn sparse_page_numbers_allocate_per_distinct_page() {
    // 500 distinct pages spread from 2^40 to near u64::MAX, plus page 3,
    // each missed on four times by a rotating processor.
    let pages: Vec<VirtPage> = (0..500u64)
        .map(|i| VirtPage((1 << 40) + i * (1 << 54)))
        .chain([VirtPage(3)])
        .collect();
    let records: Vec<MissRecord> = (0..4 * pages.len() as u64)
        .map(|t| {
            let page = pages[t as usize % pages.len()];
            MissRecord::user_data_read(Ns(t * 100), ProcId((t % 8) as u16), Pid(0), page)
        })
        .collect();
    let cfg = PolsimConfig::section8(8);
    // Ample for 501 pages' state; a table indexed by page number would
    // need terabytes, one sized to the dense cap megabytes.
    const BOUND: usize = 512 << 10;

    let profiled = allocated_by(|| {
        let profile = StaticProfile::of(8, TraceFilter::All, &records);
        assert_eq!(profile.records(), records.len() as u64);
    });
    assert!(profiled < BOUND, "profile allocated {profiled} bytes");

    let replayed = allocated_by(|| {
        let mut replay = Replay::new(
            &cfg,
            PolicyParams::base(),
            DynamicPolicyKind::MigRep,
            MissMetric::full_cache(),
            TraceFilter::All,
        );
        for rec in &records {
            replay.observe(rec);
        }
        let report = replay.finish();
        assert_eq!(
            report.local_misses + report.remote_misses,
            records.len() as u64
        );
    });
    assert!(replayed < BOUND, "replay allocated {replayed} bytes");
}
