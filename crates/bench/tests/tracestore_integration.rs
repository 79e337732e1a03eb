//! End-to-end guarantees for the capture-once trace store, driven
//! through the `repro` binary:
//!
//! 1. `repro fig6` stdout is byte-identical whether traces come from a
//!    fresh machine run, a cold store (capture on first use), or a warm
//!    store (pure replay) — and the warm run computes zero machine runs.
//! 2. `repro sweep` artifacts (JSON and CSV) are byte-identical across
//!    worker counts.
//! 3. `repro trace verify` exits 0 on an intact store and 1 with a
//!    checksum diagnostic after a single flipped byte.
//! 4. A stored capture is never served at another window: the window
//!    changes results, so a non-default window captures under its own
//!    slug.
//! 5. A damaged store entry heals: the run after the damage warns once
//!    and rewrites the entry, and the run after that is served from the
//!    store without a warning.
//! 6. Each stored trace is decoded once per invocation, however many
//!    experiments replay it.
//! 7. A truncated entry repaired by `trace fsck --repair` is captured
//!    again in full, never served as the prefix its intact chunks hold.

use std::path::PathBuf;
use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

/// A fresh scratch directory under the OS temp dir, cleaned first so
/// reruns start cold.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccnuma-tracestore-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stdout_of(out: &std::process::Output) -> String {
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).expect("stdout is UTF-8")
}

#[test]
fn fig6_stdout_identical_fresh_cold_and_warm_store() {
    let dir = scratch("fig6");
    let dir = dir.to_str().expect("temp path is UTF-8");

    let fresh = repro(&["fig6", "--scale", "quick"]);
    let cold = repro(&["fig6", "--scale", "quick", "--trace-dir", dir]);
    let warm = repro(&["fig6", "--scale", "quick", "--trace-dir", dir]);

    let fresh_out = stdout_of(&fresh);
    assert_eq!(
        fresh_out,
        stdout_of(&cold),
        "capturing through the store must not change the figure"
    );
    assert_eq!(
        fresh_out,
        stdout_of(&warm),
        "replaying stored traces must not change the figure"
    );

    // The warm run never touches the machine simulator: every traced
    // spec is served from the store before the executor plans it.
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(
        warm_err.contains("0 distinct run(s) computed"),
        "warm run must compute nothing: {warm_err}"
    );
    assert!(
        warm_err.contains("trace-store hit(s)"),
        "warm run must report its store hits: {warm_err}"
    );
}

#[test]
fn sweep_artifacts_identical_across_job_counts() {
    let dir = scratch("sweep");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let store = dir.to_str().expect("temp path is UTF-8");
    let sweep = |jobs: &str, tag: &str| {
        let json = dir.join(format!("sweep-{tag}.json"));
        let csv = dir.join(format!("sweep-{tag}.csv"));
        let out = repro(&[
            "sweep",
            "--workload",
            "Raytrace",
            "--scale",
            "quick",
            "--trace-dir",
            store,
            "--jobs",
            jobs,
            "--out",
            json.to_str().unwrap(),
            "--csv",
            csv.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "sweep --jobs {jobs} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            std::fs::read(&json).expect("json artifact"),
            std::fs::read(&csv).expect("csv artifact"),
        )
    };

    let (json1, csv1) = sweep("1", "j1");
    let (json4, csv4) = sweep("4", "j4");
    assert_eq!(json1, json4, "sweep JSON must not depend on job count");
    assert_eq!(csv1, csv4, "sweep CSV must not depend on job count");

    let text = String::from_utf8(json1).expect("JSON is UTF-8");
    assert!(
        text.contains("\"schema\":\"ccnuma-sweep/2\""),
        "artifact must declare its schema: {text}"
    );
}

#[test]
fn trace_verify_detects_a_flipped_byte() {
    let dir = scratch("verify");
    let store = dir.to_str().expect("temp path is UTF-8");

    let cap = repro(&[
        "trace",
        "capture",
        "Raytrace",
        "--scale",
        "quick",
        "--trace-dir",
        store,
    ]);
    assert!(
        cap.status.success(),
        "capture failed: {}",
        String::from_utf8_lossy(&cap.stderr)
    );

    let good = repro(&["trace", "verify", "--trace-dir", store]);
    let good_out = stdout_of(&good);
    assert!(
        good_out.contains("ok "),
        "intact store verifies: {good_out}"
    );

    // Flip one bit in the middle of the only .trace file.
    let trace_file = std::fs::read_dir(&dir)
        .expect("store dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "trace"))
        .expect("captured trace file");
    let mut bytes = std::fs::read(&trace_file).expect("trace bytes");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&trace_file, &bytes).expect("rewrite trace");

    let bad = repro(&["trace", "verify", "--trace-dir", store]);
    assert_eq!(
        bad.status.code(),
        Some(1),
        "corruption must exit 1: {}",
        String::from_utf8_lossy(&bad.stdout)
    );
    let bad_out = String::from_utf8_lossy(&bad.stdout);
    assert!(
        bad_out.contains("FAIL"),
        "corruption must be diagnosed: {bad_out}"
    );
}

/// The slug a `repro sweep` stderr line reports, and whether the trace
/// was served from the store.
fn sweep_trace(out: &std::process::Output) -> (String, bool) {
    stdout_of(out);
    let err = String::from_utf8_lossy(&out.stderr);
    let line = err
        .lines()
        .find_map(|l| l.strip_prefix("sweep: trace "))
        .unwrap_or_else(|| panic!("no trace line: {err}"));
    let slug = line.split(' ').next().expect("slug").to_string();
    (slug, line.contains("served from store"))
}

#[test]
fn a_stored_capture_is_not_served_at_another_window() {
    let dir = scratch("window");
    let dir = dir.to_str().expect("temp path is UTF-8");
    let sweep = |window: &[&str]| {
        let mut args = vec![
            "sweep",
            "--workload",
            "raytrace",
            "--scale",
            "quick",
            "--trace-dir",
            dir,
            "--policies",
            "FT",
        ];
        args.extend_from_slice(window);
        sweep_trace(&repro(&args))
    };

    let (default_slug, served) = sweep(&[]);
    assert!(!served, "the first sweep captures");
    let (slug, served) = sweep(&["--window-us", "1000"]);
    assert!(
        !served,
        "a 1000 us sweep must capture again, not reuse {default_slug}"
    );
    assert_ne!(slug, default_slug, "the window must join the slug");
    // The default window keys like an unset one, so existing stores
    // stay valid.
    assert_eq!(sweep(&["--window-us", "100"]), (default_slug, true));
}

#[test]
fn a_damaged_trace_entry_is_rewritten_and_then_served() {
    let dir = scratch("heal");
    let fig7 = || {
        let out = repro(&[
            "fig7",
            "--scale",
            "quick",
            "--trace-dir",
            dir.to_str().unwrap(),
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        (stdout_of(&out), stderr)
    };
    let (first, _) = fig7();

    // Flip one byte inside the first chunk body of the stored trace:
    // past the 8-byte header and the 13-byte chunk frame.
    let trace = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "trace"))
        .expect("fig7 stores its trace");
    let mut bytes = std::fs::read(&trace).unwrap();
    bytes[8 + 13 + 100] ^= 0x01;
    std::fs::write(&trace, bytes).unwrap();

    let (damaged, stderr) = fig7();
    assert_eq!(
        damaged, first,
        "a damaged trace must never reach a renderer"
    );
    assert_eq!(
        stderr.matches("unreadable").count(),
        1,
        "the damage is reported once: {stderr}"
    );

    let (healed, stderr) = fig7();
    assert_eq!(healed, first);
    assert!(
        !stderr.contains("unreadable"),
        "the recapture rewrote the entry: {stderr}"
    );
    assert!(
        stderr.contains("0 distinct run(s) computed"),
        "the healed entry is served from the store: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `N trace-store hit(s)` count of a summary line (0 when absent).
fn store_hits(stderr: &str) -> usize {
    stderr
        .split(", ")
        .find_map(|part| part.strip_suffix(" trace-store hit(s)")?.parse().ok())
        .unwrap_or(0)
}

#[test]
fn a_stored_trace_is_decoded_once_per_invocation() {
    let dir = scratch("once");
    let line = ["fig4", "fig6", "--scale", "quick", "--trace-dir"];
    let run = || {
        let mut args = line.to_vec();
        args.push(dir.to_str().unwrap());
        let out = repro(&args);
        (
            stdout_of(&out),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (cold, _) = run();
    let traces = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "trace"))
        .count();
    let (warm, stderr) = run();
    assert_eq!(warm, cold);
    assert!(traces > 0 && stderr.contains("0 distinct run(s) computed"));
    // fig4 and fig6 replay the same traces: each is read from the store
    // once, and the second use is served from memory.
    assert_eq!(store_hits(&stderr), traces, "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_repaired_truncation_is_recaptured_not_served_as_a_prefix() {
    let dir = scratch("prefix");
    let dir_arg = dir.to_str().unwrap();
    let fig7 = || {
        let out = repro(&["fig7", "--scale", "quick", "--trace-dir", dir_arg]);
        (
            stdout_of(&out),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (first, _) = fig7();
    let trace = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "trace"))
        .expect("fig7 stores its trace");
    let bytes = std::fs::read(&trace).unwrap();
    std::fs::write(&trace, &bytes[..bytes.len() * 2 / 3]).unwrap();

    let fsck = repro(&["trace", "fsck", "--repair", "--trace-dir", dir_arg]);
    assert!(stdout_of(&fsck).contains("quarantined"));
    assert!(!trace.exists(), "the damaged entry leaves the store whole");

    let (again, stderr) = fig7();
    assert_eq!(again, first, "the figure must come from the whole trace");
    assert!(stderr.contains("1 distinct run(s) computed"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
