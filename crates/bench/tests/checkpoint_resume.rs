//! Crash-tolerance integration tests for the `repro` binary: a SIGKILL
//! mid-plan loses nothing that was stored, the resumed invocation's
//! stdout is byte-identical to the committed golden capture, a fully
//! stored plan replays with zero recomputation, a damaged stored trace
//! is recomputed with a warning instead of rendered, a result whose
//! trace `trace fsck --repair` quarantined is recomputed without one, a
//! store filled at one window is not restored at another, and a resume
//! directory beside a `--trace-dir` store keeps results only.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccnuma-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Count stored result entries (`*.json` under `results/`; an
/// in-flight atomic write is still a `*.tmp`).
fn stored(ckpt: &Path) -> usize {
    std::fs::read_dir(ckpt.join("results"))
        .map(|dir| {
            dir.flatten()
                .filter(|e| e.file_name().to_string_lossy().ends_with(".json"))
                .count()
        })
        .unwrap_or(0)
}

fn resumed_count(stderr: &str) -> u64 {
    stderr
        .lines()
        .find_map(|l| {
            let (head, _) = l.split_once(" resumed from checkpoint")?;
            head.rsplit(' ').next()?.parse().ok()
        })
        .unwrap_or(0)
}

fn computed_count(stderr: &str) -> u64 {
    stderr
        .lines()
        .find_map(|l| {
            let (head, _) = l.split_once(" distinct run(s) computed")?;
            head.rsplit(' ').next()?.parse().ok()
        })
        .expect("summary line present")
}

#[test]
fn sigkill_mid_plan_then_resume_is_byte_identical_with_zero_recomputation() {
    let ckpt = scratch("kill");

    // Start the full quick plan against a fresh store, serial so it
    // fills gradually, and SIGKILL it as soon as at least one result
    // entry is durable.
    let mut child = repro()
        .args(["all", "--scale", "quick", "--jobs", "1"])
        .arg("--resume")
        .arg(&ckpt)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("repro spawns");
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        if stored(&ckpt) >= 1 {
            break;
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            // The machine raced through the whole plan before we saw a
            // record — fine, the resume below still proves the point.
            assert!(status.success(), "un-killed run must succeed");
            break;
        }
        assert!(Instant::now() < deadline, "no result entry within 300s");
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    let _ = child.wait();
    let survived = stored(&ckpt);
    assert!(survived >= 1, "at least one entry survived the kill");

    // Resume: completes the plan, prints the golden bytes, restores
    // every stored run instead of recomputing it.
    let out = repro()
        .args(["all", "--scale", "quick", "--jobs", "1"])
        .arg("--resume")
        .arg(&ckpt)
        .output()
        .expect("resume run");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "resume failed: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert_eq!(
        stdout,
        include_str!("golden_repro_all_quick.stdout"),
        "resumed stdout must be byte-identical to the golden capture"
    );
    assert!(
        resumed_count(&stderr) >= survived as u64,
        "every surviving entry must be restored, not recomputed: {stderr}"
    );

    // A third invocation finds the plan fully stored: zero
    // recomputation, same bytes again.
    let out = repro()
        .args(["all", "--scale", "quick", "--jobs", "4"])
        .arg("--resume")
        .arg(&ckpt)
        .output()
        .expect("replay run");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "replay failed: {stderr}");
    assert_eq!(
        computed_count(&stderr),
        0,
        "fully stored plan must recompute nothing: {stderr}"
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert_eq!(stdout, include_str!("golden_repro_all_quick.stdout"));

    let _ = std::fs::remove_dir_all(&ckpt);
}

/// The window changes results, so a resume store filled at the default
/// window must restore nothing at `--window-us 1000`: the rerun
/// recomputes and prints what a fresh 1000 us run prints.
#[test]
fn a_resume_store_is_not_restored_at_another_window() {
    let ckpt = scratch("window");
    let fig3 = |window: &[&str], resume: bool| {
        let mut cmd = repro();
        cmd.args(["fig3", "--scale", "quick", "--jobs", "2"])
            .args(window);
        if resume {
            cmd.arg("--resume").arg(&ckpt);
        }
        let out = cmd.output().expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "fig3 failed: {stderr}");
        (
            String::from_utf8(out.stdout).expect("stdout is UTF-8"),
            stderr,
        )
    };
    let wide = ["--window-us", "1000"];

    let (default_out, _) = fig3(&[], true);
    let (resumed_out, stderr) = fig3(&wide, true);
    assert_eq!(
        resumed_count(&stderr),
        0,
        "no run stored at 100 us may be restored at 1000 us: {stderr}"
    );
    assert!(computed_count(&stderr) > 0, "{stderr}");
    let (fresh_out, _) = fig3(&wide, false);
    assert_eq!(resumed_out, fresh_out);
    assert_ne!(
        fresh_out, default_out,
        "the window changes fig3, or this test proves nothing"
    );

    let _ = std::fs::remove_dir_all(&ckpt);
}

#[test]
fn sweep_resume_renders_identical_artifacts_without_replays() {
    let ckpt = scratch("sweep");
    let traces = scratch("sweep-traces");

    let run = || {
        repro()
            .args([
                "sweep",
                "--workload",
                "raytrace",
                "--scale",
                "quick",
                "--jobs",
                "2",
            ])
            .arg("--trace-dir")
            .arg(&traces)
            .arg("--resume")
            .arg(&ckpt)
            .output()
            .expect("repro sweep runs")
    };
    let first = run();
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let second = run();
    assert!(
        second.status.success(),
        "{}",
        String::from_utf8_lossy(&second.stderr)
    );
    assert_eq!(
        first.stdout, second.stdout,
        "resumed sweep JSON must be byte-identical"
    );
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(
        stderr.contains("12 resumed from checkpoint"),
        "all 12 distinct cells must come from the store: {stderr}"
    );

    let _ = std::fs::remove_dir_all(&ckpt);
    let _ = std::fs::remove_dir_all(&traces);
}

#[test]
fn a_flipped_byte_in_a_stored_trace_is_recomputed_with_a_warning() {
    let ckpt = scratch("flip");
    let obs = scratch("flip-obs");
    let run = |extra: &[&std::ffi::OsStr]| {
        repro()
            .args(["all", "--scale", "quick", "--jobs", "2"])
            .arg("--resume")
            .arg(&ckpt)
            .args(extra)
            .output()
            .expect("repro runs")
    };
    let first = run(&[]);
    assert!(first.status.success());

    // Flip one byte inside the first chunk body of the stored Raytrace
    // trace: past the 8-byte header and the 13-byte chunk frame.
    let trace = std::fs::read_dir(&ckpt)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with("raytrace-") && name.ends_with(".trace")
        })
        .expect("a stored raytrace trace");
    let slug = trace.file_stem().unwrap().to_string_lossy().into_owned();
    let mut bytes = std::fs::read(&trace).unwrap();
    bytes[8 + 13 + 100] ^= 0x01;
    std::fs::write(&trace, bytes).unwrap();

    let out = run(&[std::ffi::OsStr::new("--obs-dir"), obs.as_os_str()]);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{stderr}");
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        include_str!("golden_repro_all_quick.stdout"),
        "a damaged trace must never reach a renderer"
    );
    assert_eq!(computed_count(&stderr), 1, "only the damaged run: {stderr}");
    let metadata = std::fs::read_to_string(obs.join("run-metadata.json")).unwrap();
    let warnings = ccnuma_obs::JsonValue::parse(&metadata).unwrap();
    let warnings = warnings.get("warnings").unwrap().as_array().unwrap();
    let naming: Vec<_> = warnings
        .iter()
        .filter_map(|w| w.as_str().filter(|w| w.contains(&slug)))
        .collect();
    // One warning: the damaged trace is read once, and the run that
    // recaptures it does not read it again to restore its result.
    assert!(
        matches!(naming[..], [w] if w.contains("checksum")),
        "run-metadata.json must name the damaged slug once: {metadata}"
    );

    let _ = std::fs::remove_dir_all(&ckpt);
    let _ = std::fs::remove_dir_all(&obs);
}

/// `trace fsck --repair` quarantines a truncated trace but keeps its
/// clean result entry. The next `--resume` run treats that result as
/// never stored: it recomputes the one run without an `unusable`
/// warning and prints what a fresh run prints.
#[test]
fn a_result_whose_trace_was_quarantined_is_recomputed_without_a_warning() {
    let ckpt = scratch("quarantined");
    let fig7 = |resume: bool| {
        let mut cmd = repro();
        cmd.args(["fig7", "--scale", "quick"]);
        if resume {
            cmd.arg("--resume").arg(&ckpt);
        }
        let out = cmd.output().expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "fig7 failed: {stderr}");
        (
            String::from_utf8(out.stdout).expect("stdout is UTF-8"),
            stderr,
        )
    };
    let (fresh, _) = fig7(false);
    fig7(true);

    let trace = std::fs::read_dir(&ckpt)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "trace"))
        .expect("a stored trace");
    let bytes = std::fs::read(&trace).unwrap();
    std::fs::write(&trace, &bytes[..bytes.len() * 2 / 3]).unwrap();
    let fsck = repro()
        .args(["trace", "fsck", "--repair", "--trace-dir"])
        .arg(&ckpt)
        .output()
        .expect("fsck runs");
    assert!(
        String::from_utf8_lossy(&fsck.stdout).contains(": quarantined"),
        "{}",
        String::from_utf8_lossy(&fsck.stdout)
    );
    assert!(!trace.exists(), "repair moved the trace out of the store");
    assert_eq!(stored(&ckpt), 1, "the result entry itself is clean");

    let (again, stderr) = fig7(true);
    assert!(!stderr.contains("unusable"), "{stderr}");
    assert_eq!(computed_count(&stderr), 1, "{stderr}");
    assert_eq!(again, fresh);

    let _ = std::fs::remove_dir_all(&ckpt);
}

/// With both flags, a captured trace is written once, to the trace
/// store: the resume directory holds only `results/`, a rerun with
/// both flags restores every run, and its summary counts those results.
#[test]
fn a_resume_dir_beside_a_trace_store_holds_only_results() {
    let traces = scratch("both-traces");
    let ckpt = scratch("both-ckpt");
    let fig7 = || {
        let out = repro()
            .args(["fig7", "--scale", "quick", "--trace-dir"])
            .arg(&traces)
            .arg("--resume")
            .arg(&ckpt)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "fig7 failed: {stderr}");
        (
            String::from_utf8(out.stdout).expect("stdout is UTF-8"),
            stderr,
        )
    };
    let (first, _) = fig7();
    let names: Vec<_> = std::fs::read_dir(&ckpt)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, ["results"], "no trace in the resume dir");
    assert!(stored(&ckpt) > 0);

    let (again, stderr) = fig7();
    assert_eq!(again, first);
    assert_eq!(computed_count(&stderr), 0, "{stderr}");
    // The summary's result cache is the resume dir's, not one under the
    // trace store.
    let results = format!(" in {} result(s)", stored(&ckpt));
    assert!(
        stderr.contains(", result cache ") && stderr.contains(&results),
        "{stderr}"
    );

    let _ = std::fs::remove_dir_all(&traces);
    let _ = std::fs::remove_dir_all(&ckpt);
}
