//! `--resume` for sweeps keys every cell by the trace it replays, in the
//! same content-addressed result store the serve daemon uses: two traces
//! swept into one directory never restore each other's cells, and a
//! damaged entry is replayed instead of restored.

use ccnuma_locality::prelude::*;
use ccnuma_tracestore::{
    run_sweep, run_sweep_cached, ResultCache, SweepReport, SweepSpec, SweepStore,
};
use std::path::PathBuf;

fn quick_trace(kind: WorkloadKind) -> Vec<MissRecord> {
    let run = Machine::new(
        kind.build(Scale::quick()),
        RunOptions::new(PolicyChoice::first_touch()).with_trace(),
    )
    .run();
    run.trace.expect("traced").as_slice().to_vec()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccnuma-root-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cached(
    records: &[MissRecord],
    results: &ResultCache,
    slug: &str,
    jobs: usize,
) -> (SweepReport, usize) {
    let nodes = MachineConfig::cc_numa().nodes;
    let open = || Ok(records.iter().map(|r| Ok(*r)));
    let store = SweepStore {
        results: Some(results),
        trace_slug: slug,
        progress: &|_| true,
    };
    let run = run_sweep_cached(
        &SweepSpec::default_grid(),
        nodes,
        Ns::from_ms(5),
        jobs,
        open,
        &store,
    )
    .expect("in-memory sweep");
    (run.report, run.resumed)
}

fn fresh(records: &[MissRecord]) -> SweepReport {
    let nodes = MachineConfig::cc_numa().nodes;
    let open = || Ok(records.iter().map(|r| Ok(*r)));
    run_sweep(&SweepSpec::default_grid(), nodes, Ns::from_ms(5), 2, open).expect("sweep")
}

#[test]
fn a_second_trace_swept_into_the_same_store_restores_nothing() {
    let dir = scratch("cross-trace");
    let results = ResultCache::new(&dir).unwrap();
    let raytrace = quick_trace(WorkloadKind::Raytrace);
    let database = quick_trace(WorkloadKind::Database);

    let (_, restored) = cached(&raytrace, &results, "raytrace-slug", 2);
    assert_eq!(restored, 0);
    let (report, restored) = cached(&database, &results, "database-slug", 2);
    assert_eq!(
        restored, 0,
        "no Raytrace cell may stand in for a Database cell"
    );
    let want = fresh(&database);
    assert_eq!(report, want, "field for field");
    assert_eq!(report.records, database.len() as u64);
    assert_eq!(report.to_json("db"), want.to_json("db"));
    assert_eq!(report.to_csv(), want.to_csv());

    // Resuming the same trace restores every distinct cell, at any
    // worker count, with identical artifacts.
    let (again, restored) = cached(&database, &results, "database-slug", 1);
    assert_eq!(restored, want.unique_replays);
    assert_eq!(again.to_json("db"), want.to_json("db"));
    assert_eq!(again.to_csv(), want.to_csv());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_changed_digit_in_a_stored_cell_is_replayed_not_restored() {
    let dir = scratch("cell-digit");
    let results = ResultCache::new(&dir).unwrap();
    let raytrace = quick_trace(WorkloadKind::Raytrace);
    cached(&raytrace, &results, "raytrace-slug", 2);

    // Bump the first digit of one entry's `local_misses`.
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let text = std::fs::read_to_string(&entry).unwrap();
    let at = text.find("\"local_misses\":").unwrap() + "\"local_misses\":".len();
    let mut bytes = text.into_bytes();
    bytes[at] = if bytes[at] == b'9' {
        b'1'
    } else {
        bytes[at] + 1
    };
    std::fs::write(&entry, bytes).unwrap();

    let want = fresh(&raytrace);
    let (report, restored) = cached(&raytrace, &results, "raytrace-slug", 2);
    assert_eq!(
        restored,
        want.unique_replays - 1,
        "the damaged cell replays"
    );
    assert_eq!(report, want);
    let _ = std::fs::remove_dir_all(&dir);
}
