//! Usage errors do no work: a bad `repro` line exits 2 with empty
//! stdout before any store is opened or any run starts. Unknown
//! experiment *names* are not usage errors: they are reported, skipped,
//! and the rest still render (exit 2).

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

/// A store path under the OS temp dir that does not exist yet.
fn absent_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccnuma-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `args` with `--trace-dir` pointing at a fresh path and checks
/// the line is refused before doing anything: exit 2, nothing on
/// stdout, the store never created, and `want` on stderr.
fn refused_before_work(tag: &str, args: &[&str], want: &str) {
    let dir = absent_dir(tag);
    let mut line = args.to_vec();
    line.extend(["--trace-dir", dir.to_str().expect("temp path is UTF-8")]);
    let out = repro(&line);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{line:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{line:?} printed to stdout");
    assert!(!dir.exists(), "{line:?} created {}", dir.display());
    assert!(stderr.contains(want), "{line:?}: {stderr}");
    assert!(stderr.contains("usage: repro"), "{line:?}: {stderr}");
}

#[test]
fn an_unknown_flag_renders_nothing() {
    refused_before_work(
        "jbos",
        &["table1", "--scale", "quick", "--jbos", "2"],
        "repro: unknown argument \"--jbos\"",
    );
}

#[test]
fn a_sweep_rule_is_checked_before_the_capture() {
    refused_before_work(
        "sweep-one-of",
        &[
            "sweep",
            "--workload",
            "raytrace",
            "--trace",
            "s",
            "--scale",
            "quick",
        ],
        "exactly one of --workload or --trace is required",
    );
}

#[test]
fn trace_gc_and_ls_argument_errors_open_no_store() {
    refused_before_work("gc", &["trace", "gc"], "gc requires --max-bytes");
    refused_before_work(
        "ls",
        &["trace", "ls", "extra"],
        "unexpected argument \"extra\"",
    );
    // fsck and gc act on the whole store, so a name is refused rather
    // than ignored.
    refused_before_work(
        "fsck-name",
        &["trace", "fsck", "some-slug"],
        "unexpected argument \"some-slug\"",
    );
    refused_before_work(
        "gc-name",
        &["trace", "gc", "--max-bytes", "1", "some-slug"],
        "unexpected argument \"some-slug\"",
    );
}

#[test]
fn a_missing_value_names_its_flag() {
    let out = repro(&["table1", "--scale"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--scale expects quick|standard|full"),
        "{stderr}"
    );
}

#[test]
fn an_unknown_experiment_name_is_skipped_and_the_rest_render() {
    let plain = repro(&["table1", "--scale", "quick", "--jobs", "1"]);
    assert!(plain.status.success());
    let mixed = repro(&["table1", "nosuch", "--scale", "quick", "--jobs", "1"]);
    assert_eq!(mixed.status.code(), Some(2));
    assert_eq!(mixed.stdout, plain.stdout, "table1 still renders");
    let stderr = String::from_utf8_lossy(&mixed.stderr);
    assert!(
        stderr.contains("unknown experiment 'nosuch' (see repro --list); skipping"),
        "{stderr}"
    );
}
