//! Observability artifact guarantees: the audit log reproduces the run's
//! `PolicyStats` exactly, the time series covers the run, and every
//! artifact written under an obs dir is byte-identical however many
//! worker threads the executor used.

use ccnuma_bench::{Executor, RunPlan};
use ccnuma_machine::{PolicyChoice, RunOptions, RunSpec};
use ccnuma_obs::{artifact_slug, NullProfiler, RunRecorder};
use ccnuma_workloads::{Scale, WorkloadKind};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn dynamic_spec(kind: WorkloadKind) -> RunSpec {
    // Quick runs are short; lower the trigger so pages heat up and the
    // pager actually migrates/replicates/collapses.
    let params = ccnuma_core::PolicyParams::base().with_trigger(16);
    RunSpec::catalog(
        kind,
        Scale::quick(),
        RunOptions::new(PolicyChoice::base_mig_rep(params)),
    )
}

#[test]
fn audit_totals_equal_policy_stats() {
    for kind in [WorkloadKind::Raytrace, WorkloadKind::Splash] {
        let spec = dynamic_spec(kind);
        let mut rec = RunRecorder::default();
        let report = spec.try_run_with(&mut rec, &mut NullProfiler).unwrap();
        let stats = report.policy_stats.expect("dynamic run has stats");
        let totals = rec.audit.totals();
        assert_eq!(totals.migrations, stats.migrations, "{kind:?} migrations");
        assert_eq!(
            totals.replications, stats.replications,
            "{kind:?} replications"
        );
        assert_eq!(totals.collapses, stats.collapses, "{kind:?} collapses");
        assert_eq!(totals.remaps, stats.remaps, "{kind:?} remaps");
        assert_eq!(totals.no_page, stats.no_page, "{kind:?} no_page");
        assert!(
            totals.migrations + totals.replications > 0,
            "{kind:?} must exercise the pager for this test to mean anything"
        );
    }
}

#[test]
fn time_series_covers_the_run() {
    let spec = dynamic_spec(WorkloadKind::Raytrace);
    let mut rec = RunRecorder::default();
    let report = spec.try_run_with(&mut rec, &mut NullProfiler).unwrap();
    assert!(
        rec.series.len() >= 10,
        "quick runs must yield at least 10 epochs, got {}",
        rec.series.len()
    );
    let snaps = rec.series.snapshots();
    assert!(snaps.windows(2).all(|w| w[0].t <= w[1].t), "time-ordered");
    let last = snaps.last().unwrap();
    assert_eq!(last.t, report.sim_time, "series closes at end of run");
    assert_eq!(
        last.view.local_misses + last.view.remote_misses,
        report.breakdown.local_misses() + report.breakdown.remote_misses(),
        "final snapshot matches the report's miss totals"
    );
    let mut csv = Vec::new();
    ccnuma_obs::export::write_timeseries_csv(&mut csv, &rec.series).unwrap();
    let csv = String::from_utf8(csv).unwrap();
    assert!(csv.lines().count() >= 11, "header + >=10 epoch rows");
}

fn read_tree(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).unwrap().display().to_string();
                out.insert(rel, std::fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccnuma-obs-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn obs_artifacts_are_byte_identical_across_job_counts() {
    let mut plan = RunPlan::new();
    plan.add(dynamic_spec(WorkloadKind::Raytrace));
    plan.add(RunSpec::catalog(
        WorkloadKind::Engineering,
        Scale::quick(),
        RunOptions::new(PolicyChoice::first_touch()),
    ));

    let artifacts_with_jobs = |jobs: usize, tag: &str| {
        let dir = scratch_dir(tag);
        let exec = Executor::new(jobs).with_obs_dir(&dir);
        exec.execute(&plan);
        let mut tree = read_tree(&dir);
        // run-metadata.json carries wall-clock measurements and is
        // explicitly outside the byte-identity guarantee.
        tree.remove("run-metadata.json");
        std::fs::remove_dir_all(&dir).unwrap();
        tree
    };

    let serial = artifacts_with_jobs(1, "serial");
    let parallel = artifacts_with_jobs(4, "parallel");
    assert_eq!(
        serial.keys().collect::<Vec<_>>(),
        parallel.keys().collect::<Vec<_>>(),
        "same artifact set"
    );
    assert_eq!(serial.len(), 2 * 4, "two runs x four artifacts");
    for (path, bytes) in &serial {
        assert_eq!(
            bytes,
            parallel.get(path).unwrap(),
            "{path} must not depend on --jobs"
        );
    }
}

#[test]
fn executor_writes_parseable_artifacts_and_metadata() {
    let spec = dynamic_spec(WorkloadKind::Raytrace);
    let mut plan = RunPlan::new();
    plan.add(spec.clone());
    let dir = scratch_dir("parse");
    let exec = Executor::new(2).with_obs_dir(&dir);
    let started = std::time::Instant::now();
    exec.execute(&plan);

    let slug = artifact_slug(&spec.describe(), &spec.cache_key());
    let run_dir = dir.join("runs").join(&slug);
    for name in [
        "events.jsonl",
        "timeseries.csv",
        "trace.json",
        "metrics.json",
    ] {
        assert!(run_dir.join(name).is_file(), "missing {name}");
    }
    let trace = std::fs::read_to_string(run_dir.join("trace.json")).unwrap();
    assert!(trace.starts_with('{') && trace.ends_with('}'));
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("\"cat\":\"sched\""));
    assert!(trace.contains("\"cat\":\"pager\""));

    let wall = started.elapsed();
    let metadata = exec.metadata_json(wall);
    assert!(metadata.contains("\"schema\":\"ccnuma-run-metadata/3\""));
    assert!(metadata.contains("\"resumed_runs\":0"));
    assert!(metadata.contains(&format!("\"slug\":\"{slug}\"")));
    let path = exec.write_run_metadata(&dir, wall).unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), metadata);
    std::fs::remove_dir_all(&dir).unwrap();
}
