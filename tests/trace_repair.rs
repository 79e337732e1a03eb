//! A damaged stored trace is never served as a prefix of the capture:
//! `fsck` with repair moves the whole entry into quarantine, and the
//! next capture through the executor recomputes every record.

use ccnuma_bench::{traced_ft_spec, Executor};
use ccnuma_obs::Verbosity;
use ccnuma_tracestore::{fsck, TraceStore};
use ccnuma_workloads::{Scale, WorkloadKind};

#[test]
fn a_truncated_capture_is_quarantined_and_recaptured_whole() {
    let dir = std::env::temp_dir().join(format!("ccnuma-root-repair-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TraceStore::new(&dir).expect("store dir");
    let executor = || {
        Executor::serial()
            .with_verbosity(Verbosity::Quiet)
            .with_trace_store(store.clone())
    };
    let spec = traced_ft_spec(WorkloadKind::Pmake, Scale::quick());

    let first = executor();
    let original = first.traced(&spec).trace().clone();
    let slug = first.trace_slug(&spec);
    assert_eq!(store.list().unwrap(), std::slice::from_ref(&slug));

    // Cut the file to two thirds: every chunk before the cut is intact.
    let path = store.trace_path(&slug);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() * 2 / 3]).unwrap();

    let report = fsck(&store, true).unwrap();
    assert_eq!(
        report.quarantined,
        std::slice::from_ref(&slug),
        "{}",
        report.render()
    );
    assert!(
        store.list().unwrap().is_empty(),
        "the damaged entry must leave the store, not stay as a prefix"
    );

    let again = executor();
    let recaptured = again.traced(&spec);
    assert!(!recaptured.from_store());
    assert_eq!(again.stats().computed, 1);
    assert_eq!(recaptured.trace(), &original);
    assert_eq!(store.load(&slug).unwrap().0, original);
    let _ = std::fs::remove_dir_all(&dir);
}
