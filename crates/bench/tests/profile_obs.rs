//! End-to-end guarantees for the host-side observability layer, driven
//! through the `repro` binary:
//!
//! 1. `--profile` never changes experiment stdout, and the profile
//!    artifacts' *structure* (phases, strides, entries, spans) is
//!    byte-comparable across `--jobs 1` and `--jobs 4` — only the
//!    host-time duration fields may differ.
//! 2. Every lane window of the windowed engine is one timed `lanes`
//!    span, while `memory` stays stride-sampled per tail reference.
//! 3. `repro obs report` aggregates an invocation's artifact tree.
//! 4. `repro sweep --profile` emits a replay-phase profile of the
//!    passes the sweep made, with or without `--resume`, and a soft
//!    deadline needs no result store.
//! 5. Host time has one ledger (the perfsuite benchmark): `bench` is an
//!    unknown name to `repro`, and `repro serve` refuses `--window-us`.

use std::path::{Path, PathBuf};
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
    let dir = std::env::temp_dir().join(format!("ccnuma-profobs-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
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

/// The determinism-relevant structure of a `ccnuma-profile/3` document:
/// per phase `(name, stride, entries, spans)`. Duration fields are host
/// measurements and deliberately excluded.
fn profile_structure(path: &Path) -> Vec<(String, u64, u64, u64)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let doc = ccnuma_obs::JsonValue::parse(&text).expect("profile parses");
    assert_eq!(
        doc.get("schema").and_then(|s| s.as_str()),
        Some("ccnuma-profile/3")
    );
    doc.get("phases")
        .and_then(|p| p.as_array())
        .expect("phases array")
        .iter()
        .map(|p| {
            let u = |k: &str| p.get(k).and_then(|v| v.as_u64()).expect("u64 field");
            (
                p.get("phase").and_then(|v| v.as_str()).unwrap().to_string(),
                u("stride"),
                u("entries"),
                u("spans"),
            )
        })
        .collect()
}

#[test]
fn profiled_stdout_is_identical_and_structure_survives_jobs() {
    let d1 = scratch("jobs1");
    let d4 = scratch("jobs4");
    let plain = repro(&["table3", "--scale", "quick"]);
    let p1 = repro(&[
        "table3",
        "--scale",
        "quick",
        "--jobs",
        "1",
        "--obs-dir",
        d1.to_str().unwrap(),
        "--profile",
    ]);
    let p4 = repro(&[
        "table3",
        "--scale",
        "quick",
        "--jobs",
        "4",
        "--obs-dir",
        d4.to_str().unwrap(),
        "--profile",
    ]);
    let plain_out = stdout_of(&plain);
    assert_eq!(
        plain_out,
        stdout_of(&p1),
        "profiling must not change stdout"
    );
    assert_eq!(plain_out, stdout_of(&p4));

    // Invocation-level profile: same structure whatever the job count.
    let inv1 = profile_structure(&d1.join("profile.json"));
    let inv4 = profile_structure(&d4.join("profile.json"));
    assert_eq!(
        inv1, inv4,
        "invocation profile structure must not depend on jobs"
    );
    let memory = inv1.iter().find(|(name, ..)| name == "memory").unwrap();
    assert!(memory.2 > 0, "memory phase saw the references");
    assert_eq!(memory.1, 1024, "memory phase is stride-sampled");
    let lanes = inv1.iter().find(|(name, ..)| name == "lanes").unwrap();
    assert!(lanes.2 > 0, "lane windows ran");
    assert_eq!(lanes.3, lanes.2, "every lane window is timed");

    // Per-run artifacts: same slugs, same per-slug structure, and the
    // Chrome trace rides along.
    let slugs = |d: &Path| -> Vec<String> {
        let mut v: Vec<String> = std::fs::read_dir(d.join("runs"))
            .expect("runs dir")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        v.sort();
        v
    };
    let s1 = slugs(&d1);
    assert_eq!(s1, slugs(&d4));
    assert!(!s1.is_empty());
    for slug in &s1 {
        let a = d1.join("runs").join(slug);
        let b = d4.join("runs").join(slug);
        assert_eq!(
            profile_structure(&a.join("profile.json")),
            profile_structure(&b.join("profile.json")),
            "{slug}"
        );
        assert!(a.join("host-trace.json").is_file(), "{slug}");
    }
    std::fs::remove_dir_all(&d1).ok();
    std::fs::remove_dir_all(&d4).ok();
}

#[test]
fn profile_without_obs_dir_is_refused() {
    let out = repro(&["table1", "--scale", "quick", "--profile"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--profile requires --obs-dir"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn retired_bench_subcommand_and_serve_window_flag_exit_2() {
    let bench = repro(&["bench", "--scale", "quick"]);
    assert_eq!(bench.status.code(), Some(2));
    assert!(bench.stdout.is_empty(), "nothing renders for `bench`");
    let serve = repro(&["serve", "--window-us", "10"]);
    assert_eq!(serve.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&serve.stderr).contains("repro serve: unknown argument"),
        "{}",
        String::from_utf8_lossy(&serve.stderr)
    );
}

#[test]
fn obs_report_rolls_up_a_profiled_invocation() {
    let dir = scratch("obsreport");
    let obs = dir.join("obs");
    let run = repro(&[
        "table3",
        "--scale",
        "quick",
        "--obs-dir",
        obs.to_str().unwrap(),
        "--profile",
    ]);
    assert!(run.status.success());
    let out_json = dir.join("report.json");
    let report = repro(&[
        "obs",
        "report",
        obs.to_str().unwrap(),
        "--out",
        out_json.to_str().unwrap(),
    ]);
    let text = stdout_of(&report);
    assert!(text.contains("== obs report:"), "{text}");
    assert!(text.contains("runs aggregated:"), "{text}");
    assert!(text.contains("host profile (merged"), "{text}");
    assert!(text.contains("memory"), "{text}");
    let doc = ccnuma_obs::JsonValue::parse(&std::fs::read_to_string(&out_json).unwrap()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(|s| s.as_str()),
        Some("ccnuma-obs-report/1")
    );
    assert!(doc.get("profile_runs").and_then(|v| v.as_u64()).unwrap() > 0);
    let phases = doc.get("phases").and_then(|p| p.as_array()).unwrap();
    let memory = phases
        .iter()
        .find(|p| p.get("phase").and_then(|v| v.as_str()) == Some("memory"))
        .expect("memory phase row");
    assert!(memory.get("entries").and_then(|v| v.as_u64()).unwrap() > 0);
    // Reporting over a directory that does not exist fails cleanly.
    let missing = repro(&["obs", "report", dir.join("nope").to_str().unwrap()]);
    assert!(missing.status.success(), "an absent tree is an empty fleet");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_profile_counts_replays() {
    let dir = scratch("sweepprof");
    let traces = dir.join("traces");
    let prof_path = dir.join("sweep-profile.json");
    let out = repro(&[
        "sweep",
        "--workload",
        "Raytrace",
        "--scale",
        "quick",
        "--trace-dir",
        traces.to_str().unwrap(),
        "--out",
        dir.join("sweep.json").to_str().unwrap(),
        "--profile",
        prof_path.to_str().unwrap(),
        "--jobs",
        "2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let structure = profile_structure(&prof_path);
    let replay = structure.iter().find(|(n, ..)| n == "replay").unwrap();
    assert!(replay.2 > 0, "replay spans were profiled");
    assert_eq!(
        replay.2, replay.3,
        "replay is a coarse phase: every entry timed"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_resumed_sweep_profiles_only_the_passes_it_made() {
    let dir = scratch("sweepresume");
    let traces = dir.join("traces");
    let resume = dir.join("resume");
    let sweep = |tag: &str, extra: &[&str]| {
        let json = dir.join(format!("{tag}.json"));
        let prof = dir.join(format!("{tag}-profile.json"));
        let mut args = vec![
            "sweep",
            "--workload",
            "Raytrace",
            "--scale",
            "quick",
            "--trace-dir",
            traces.to_str().unwrap(),
            "--out",
            json.to_str().unwrap(),
            "--profile",
            prof.to_str().unwrap(),
            "--jobs",
            "2",
        ];
        args.extend(extra);
        let out = repro(&args);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{tag}: {stderr}");
        let replay = profile_structure(&prof)
            .into_iter()
            .find(|(n, ..)| n == "replay")
            .unwrap();
        (std::fs::read(&json).unwrap(), replay.2)
    };
    let resume_args = ["--resume", resume.to_str().unwrap()];
    let (fresh, fresh_passes) = sweep("fresh", &resume_args);
    assert_eq!(fresh_passes, 12, "the default grid: 12 dynamic cells");
    let (resumed, resumed_passes) = sweep("resumed", &resume_args);
    assert_eq!(resumed_passes, 0, "every cell restored, no pass made");
    assert_eq!(resumed, fresh, "a resumed sweep writes the same JSON");
    std::fs::remove_dir_all(&dir).ok();
}
