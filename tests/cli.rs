//! The `repro` command-line contract, checked in process through
//! `ccnuma_bench::cli::parse` (no binary is spawned): the flags each
//! subcommand accepts, its usage errors — an unknown flag, a missing
//! value, a bad value, each cross-flag rule — and one full valid line.

use ccnuma_bench::cli::{parse, CliError, Command, Opts, TraceAction, SUBS};
use ccnuma_faults::{FaultScenario, FaultSpec};
use ccnuma_obs::Verbosity;
use ccnuma_tracestore::SweepPolicy;
use ccnuma_types::{ShardPlan, TopologyPreset};
use ccnuma_workloads::{Scale, WorkloadKind};
use std::path::PathBuf;
use std::time::Duration;

fn parsed(line: &str) -> Command {
    let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
    parse(&args).unwrap_or_else(|e| panic!("{line}: {e}"))
}

fn err(line: &str) -> CliError {
    let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
    parse(&args).expect_err(line)
}

fn rule(line: &str) -> &'static str {
    match err(line) {
        CliError::Rule(rule) => rule,
        other => panic!("{line}: expected a rule, got {other:?}"),
    }
}

fn path(p: &str) -> Option<PathBuf> {
    Some(PathBuf::from(p))
}

/// The flag set of every subcommand, written out: a flag cannot be
/// added to or dropped from a subcommand without changing this list.
#[test]
fn each_subcommand_accepts_exactly_its_flags() {
    let want: [(&str, &[&str]); 6] = [
        (
            "repro",
            &[
                "--scale",
                "--jobs",
                "--shards",
                "--window-us",
                "--topology",
                "--obs-dir",
                "--profile",
                "--trace-dir",
                "--faults",
                "--chaos-seed",
                "--resume",
                "-v|--verbose",
                "-q|--quiet",
                "--list",
                "--list-faults",
            ],
        ),
        ("repro obs", &["--out"]),
        (
            "repro trace",
            &[
                "--scale",
                "--trace-dir",
                "--json",
                "--repair",
                "--max-bytes",
            ],
        ),
        (
            "repro sweep",
            &[
                "--workload",
                "--trace",
                "--scale",
                "--trace-dir",
                "--jobs",
                "--shards",
                "--window-us",
                "--out",
                "--csv",
                "--profile",
                "--resume",
                "--policies",
                "--triggers",
                "--samples",
                "--latencies",
                "--move-costs",
                "--topologies",
            ],
        ),
        (
            "repro serve",
            &[
                "--addr",
                "--trace-dir",
                "--results-dir",
                "--workers",
                "--queue-depth",
                "--prewarm",
                "--trace-budget-bytes",
                "--max-cells",
                "--max-body-bytes",
                "--max-sweeps",
            ],
        ),
        (
            "repro loadgen",
            &["--url", "--concurrency", "--duration", "--trace", "--out"],
        ),
    ];
    assert_eq!(SUBS.len(), want.len());
    for (sub, (name, flags)) in SUBS.iter().zip(want) {
        assert_eq!(sub.name, name);
        let got: Vec<&str> = sub.flags.iter().map(|f| f.name).collect();
        assert_eq!(got, flags, "{name}");
    }
}

#[test]
fn experiments_usage_errors() {
    assert_eq!(
        err("table1 --jbos 2"),
        CliError::UnknownFlag("--jbos".into())
    );
    assert_eq!(
        err("table1 --scale"),
        CliError::MissingValue("--scale", "quick|standard|full".into())
    );
    assert_eq!(
        err("table1 --jobs 0"),
        CliError::BadValue("--jobs", "0".into(), "a positive integer".into())
    );
    assert!(matches!(
        err("table1 --topology moon"),
        CliError::BadValue("--topology", _, _)
    ));
    assert!(matches!(
        err("table1 --faults meteor"),
        CliError::BadValue("--faults", _, _)
    ));
    assert_eq!(rule("table1 --profile"), "--profile requires --obs-dir");
    assert_eq!(
        err("--scale quick"),
        CliError::Missing("an experiment name")
    );
}

/// Host time never decides an outcome, so no subcommand takes a
/// deadline: the flags the experiments, `sweep` and `serve` once took
/// are unknown everywhere.
#[test]
fn no_subcommand_takes_a_deadline() {
    for sub in ["table1", "sweep --workload raytrace", "serve"] {
        for flag in ["--soft-deadline", "--hard-deadline"] {
            assert_eq!(
                err(&format!("{sub} {flag} 1")),
                CliError::UnknownFlag(flag.into()),
                "{sub}"
            );
        }
    }
}

#[test]
fn experiments_full_line() {
    let line = "fig3 figure3 all --scale quick --jobs 3 --shards 2 --window-us 10 \
                --topology two-socket --obs-dir o --profile --trace-dir t \
                --faults pressure-storm --chaos-seed 7 --resume r -q";
    let Command::Experiments(names, o) = parsed(line) else {
        panic!("{line}");
    };
    let all = ccnuma_bench::experiments::ALL.iter().map(|e| e.name);
    let want: Vec<&str> = ["fig3", "figure3"].into_iter().chain(all).collect();
    assert_eq!(names, want);
    assert_eq!(o.scale, Scale::quick());
    assert_eq!(
        (o.jobs, o.shards, o.window_us),
        (3, ShardPlan::new(2), Some(10))
    );
    assert_eq!(o.topology, Some(TopologyPreset::TwoSocket));
    let faults = FaultSpec {
        scenario: FaultScenario::PressureStorm,
        chaos_seed: 7,
    };
    assert_eq!(o.fault_spec(), Some(faults));
    assert_eq!((o.obs_dir, o.profile), (path("o"), true));
    assert_eq!((o.trace_dir, o.resume), (path("t"), path("r")));
    assert_eq!(o.verbosity, Some(Verbosity::Quiet));
    assert!(matches!(parsed("--list --profile"), Command::List));
    assert!(matches!(parsed("--list-faults"), Command::ListFaults));
}

#[test]
fn obs_usage_errors_and_full_line() {
    assert_eq!(
        err("obs report d --json"),
        CliError::UnknownFlag("--json".into())
    );
    assert_eq!(
        err("obs report d --out"),
        CliError::MissingValue("--out", "FILE".into())
    );
    assert_eq!(err("obs report"), CliError::Missing("DIR"));
    assert_eq!(err("obs report a b"), CliError::Unexpected("b".into()));
    assert_eq!(err("obs rollup a"), CliError::Unexpected("rollup".into()));
    assert!(matches!(
        parsed("obs report d --out r.json"),
        Command::ObsReport(dir, out) if dir.as_os_str() == "d" && out == path("r.json")
    ));
}

#[test]
fn trace_usage_errors() {
    assert_eq!(
        err("trace ls --jobs 2"),
        CliError::UnknownFlag("--jobs".into())
    );
    assert_eq!(
        err("trace gc --max-bytes"),
        CliError::MissingValue("--max-bytes", "an unsigned integer".into())
    );
    assert!(matches!(
        err("trace gc --max-bytes -1"),
        CliError::BadValue("--max-bytes", _, _)
    ));
    assert!(matches!(
        err("trace capture Nope"),
        CliError::BadValue("trace capture", v, _) if v == "Nope"
    ));
    assert_eq!(rule("trace gc"), "gc requires --max-bytes");
    assert_eq!(
        rule("trace verify --json"),
        "--json applies to ls and info only"
    );
    assert_eq!(err("trace ls extra"), CliError::Unexpected("extra".into()));
    // fsck and gc check or evict the whole store: a name is not a scope.
    assert_eq!(err("trace fsck SLUG"), CliError::Unexpected("SLUG".into()));
    assert_eq!(
        err("trace fsck --repair SLUG"),
        CliError::Unexpected("SLUG".into())
    );
    assert_eq!(
        err("trace gc --max-bytes 5 SLUG"),
        CliError::Unexpected("SLUG".into())
    );
    assert_eq!(err("trace prune"), CliError::Unexpected("prune".into()));
    assert_eq!(err("trace"), CliError::Missing("an action"));
}

#[test]
fn trace_full_lines() {
    let Command::Trace(action, o) =
        parsed("trace capture raytrace Splash --scale quick --trace-dir t")
    else {
        panic!("capture");
    };
    let kinds = vec![WorkloadKind::Raytrace, WorkloadKind::Splash];
    assert_eq!(action, TraceAction::Capture(kinds));
    assert_eq!((o.scale, o.trace_dir), (Scale::quick(), path("t")));
    let Command::Trace(action, o) = parsed("trace ls --json") else {
        panic!("ls");
    };
    assert_eq!(action, TraceAction::Ls);
    assert_eq!((o.json, o.trace_dir), (true, path("artifacts/traces")));
    let Command::Trace(action, o) = parsed("trace fsck --repair") else {
        panic!("fsck");
    };
    assert_eq!((action, o.repair), (TraceAction::Fsck, true));
    assert!(matches!(
        parsed("trace gc --max-bytes 0"),
        Command::Trace(TraceAction::Gc(0), _)
    ));
}

#[test]
fn sweep_usage_errors() {
    assert_eq!(
        err("sweep --workload raytrace --obs-dir o"),
        CliError::UnknownFlag("--obs-dir".into())
    );
    assert!(matches!(
        err("sweep --workload"),
        CliError::MissingValue("--workload", _)
    ));
    for (flag, value) in [
        ("--workload", "quake"),
        ("--policies", "RR,Bogus"),
        ("--triggers", "64,x"),
        ("--topologies", "flat,moon"),
        ("--window-us", "0"),
    ] {
        let line = format!("sweep --trace s {flag} {value}");
        let bad = matches!(err(&line), CliError::BadValue(f, v, _) if f == flag && v == value);
        assert!(bad, "{line}");
    }
    let one_of = "exactly one of --workload or --trace is required";
    assert_eq!(rule("sweep --scale quick"), one_of);
    assert_eq!(rule("sweep --workload raytrace --trace s"), one_of);
    // One sweep engine serves every flag mix: a profile can cover a
    // resumed sweep.
    let Command::Sweep(o) = parsed("sweep --trace s --profile p --resume r") else {
        panic!("--profile with --resume");
    };
    assert_eq!(
        (o.trace.as_deref(), o.profile_out, o.resume),
        (Some("s"), path("p"), path("r"))
    );
    assert_eq!(
        err("sweep --trace s extra"),
        CliError::Unexpected("extra".into())
    );
}

#[test]
fn sweep_full_line() {
    let line = "sweep --workload raytrace --scale quick --trace-dir t --jobs 2 --shards 4 \
                --window-us 50 --out s.json --csv s.csv --resume r \
                --policies RR,Mig/Rep --triggers 64,256 --samples 1 --latencies 300,1200 \
                --move-costs 50 --topologies flat,cxl-tiered";
    let Command::Sweep(o) = parsed(line) else {
        panic!("{line}");
    };
    assert_eq!((o.workload, o.trace), (Some(WorkloadKind::Raytrace), None));
    assert_eq!((o.scale, o.trace_dir), (Scale::quick(), path("t")));
    assert_eq!(
        (o.jobs, o.shards, o.window_us),
        (2, ShardPlan::new(4), Some(50))
    );
    assert_eq!(
        (o.out, o.csv, o.resume),
        (path("s.json"), path("s.csv"), path("r"))
    );
    let spec = &o.spec;
    assert_eq!(
        spec.policies,
        [SweepPolicy::RoundRobin, SweepPolicy::MigRep]
    );
    assert_eq!(
        (&spec.triggers[..], &spec.sample_rates[..]),
        (&[64, 256][..], &[1][..])
    );
    assert_eq!(spec.remote_latencies_ns, [300, 1200]);
    assert_eq!(spec.move_costs_us, [50]);
    let topologies = [TopologyPreset::Flat, TopologyPreset::CxlTiered];
    assert_eq!(spec.topologies, topologies);
    let Command::Sweep(o) = parsed("sweep --trace s --profile p.json") else {
        panic!("--trace");
    };
    assert_eq!(
        (o.trace.as_deref(), o.profile_out),
        (Some("s"), path("p.json"))
    );
    assert_eq!(o.trace_dir, path("artifacts/traces"));
    assert_eq!(
        o.spec,
        Opts::default().spec,
        "unset axes keep the default grid"
    );
}

#[test]
fn serve_usage_errors_and_full_line() {
    assert_eq!(
        err("serve --window-us 10"),
        CliError::UnknownFlag("--window-us".into())
    );
    assert_eq!(
        err("serve --workers"),
        CliError::MissingValue("--workers", "a positive integer".into())
    );
    assert_eq!(
        err("serve --workers 0"),
        CliError::BadValue("--workers", "0".into(), "a positive integer".into())
    );
    assert_eq!(err("serve now"), CliError::Unexpected("now".into()));
    let line = "serve --addr 127.0.0.1:0 --trace-dir t --workers 3 --queue-depth 9 \
                --prewarm a,b --prewarm c --trace-budget-bytes 1000 --max-cells 10 \
                --max-body-bytes 2048 --max-sweeps 2";
    let Command::Serve(cfg) = parsed(line) else {
        panic!("{line}");
    };
    assert_eq!(cfg.addr, "127.0.0.1:0");
    assert_eq!(cfg.trace_dir, PathBuf::from("t"));
    assert_eq!(cfg.results_dir, PathBuf::from("t/results"));
    assert_eq!((cfg.workers, cfg.queue_depth), (3, 9));
    assert_eq!(cfg.prewarm, ["a", "b", "c"]);
    assert_eq!((cfg.trace_budget_bytes, cfg.max_cells), (1000, 10));
    assert_eq!((cfg.max_body_bytes, cfg.max_sweeps), (2048, 2));
    let Command::Serve(cfg) = parsed("serve --results-dir r") else {
        panic!("--results-dir");
    };
    assert_eq!(cfg.trace_dir, PathBuf::from("artifacts/traces"));
    assert_eq!(cfg.results_dir, PathBuf::from("r"));
}

#[test]
fn loadgen_usage_errors_and_full_line() {
    assert_eq!(
        err("loadgen --url 127.0.0.1:1 --jobs 2"),
        CliError::UnknownFlag("--jobs".into())
    );
    assert_eq!(
        err("loadgen --url"),
        CliError::MissingValue("--url", "HOST:PORT".into())
    );
    assert!(matches!(
        err("loadgen --url 127.0.0.1:1 --duration soon"),
        CliError::BadValue("--duration", _, _)
    ));
    assert!(matches!(
        err("loadgen --url 127.0.0.1:1 --concurrency 0"),
        CliError::BadValue("--concurrency", _, _)
    ));
    assert!(matches!(
        err("loadgen --url 127.0.0.1"),
        CliError::BadValue("--url", _, _)
    ));
    assert_eq!(rule("loadgen --concurrency 2"), "--url is required");
    let line = "loadgen --url http://127.0.0.1:7070/ --concurrency 8 --duration 3s \
                --trace Raytrace --out l.json";
    let Command::Loadgen(url, opts, out) = parsed(line) else {
        panic!("{line}");
    };
    assert_eq!(url, "http://127.0.0.1:7070/");
    assert_eq!(opts.addr, "127.0.0.1:7070".parse().unwrap());
    assert_eq!(
        (opts.concurrency, opts.duration),
        (8, Duration::from_secs(3))
    );
    assert_eq!(
        (opts.trace.as_deref(), out),
        (Some("Raytrace"), path("l.json"))
    );
}
