//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro <experiment>... [--scale quick|standard|full] [--jobs N]
//!                       [--shards N] [--window-us N] [--topology PRESET]
//!                       [--obs-dir DIR] [--profile] [--trace-dir DIR]
//!                       [--faults SCENARIO] [--chaos-seed N]
//!                       [--resume DIR] [-v|--verbose] [-q|--quiet]
//! repro all [--scale ...] [--jobs N] [--resume DIR]
//! repro obs report DIR [--out FILE]
//! repro trace <capture|info|verify> [WORKLOAD|SLUG]...
//!             [--scale S] [--trace-dir DIR] [--json]
//! repro trace ls [--json] [--trace-dir DIR]
//! repro trace fsck [--repair] [--trace-dir DIR]
//! repro trace gc --max-bytes N [--trace-dir DIR]
//! repro sweep (--workload NAME | --trace SLUG) [--scale S]
//!             [--trace-dir DIR] [--jobs N] [--shards N] [--window-us N]
//!             [--out FILE] [--csv FILE]
//!             [--profile FILE] [--resume DIR]
//!             [--policies P,..] [--triggers N,..] [--samples N,..]
//!             [--latencies NS,..] [--move-costs US,..]
//!             [--topologies T,..]
//! repro serve [--addr HOST:PORT] [--trace-dir DIR] [--results-dir DIR]
//!             [--workers N] [--queue-depth N] [--prewarm SLUG,..]
//!             [--trace-budget-bytes N] [--max-cells N]
//!             [--max-body-bytes N] [--max-sweeps N]
//! repro loadgen --url HOST:PORT [--concurrency N] [--duration SECS]
//!               [--trace NAME] [--out FILE]
//! repro --list | repro --list-faults
//! ```
//!
//! `--topology PRESET` reruns every experiment on a named machine
//! topology (`flat`, `two-socket`, `four-socket-hierarchical`,
//! `cxl-tiered`). `flat` is the paper's machine and the default; its
//! stdout is the byte-identical golden. Non-flat presets carry their own
//! hop-path latencies, so the simulated machine — and every table — is
//! expected to differ.
//!
//! `--window-us N` overrides the simulator's 100 µs scheduling window.
//! Unlike `--shards` it is part of the simulated machine — a different
//! window perturbs scheduling decisions and therefore the tables — so a
//! non-default window joins the run-cache key and the trace slug:
//! `--resume` and `--trace-dir` never serve a run computed at another
//! window.
//!
//! `repro serve` runs the sweep-as-a-service daemon: stored traces stay
//! resident in memory, one `POST /v1/eval` replays one sweep cell, and
//! every finished cell is stored in a content-addressed on-disk
//! result cache so repeated queries — including across daemon restarts
//! — are answered byte-identically without touching the simulator.
//! `repro loadgen` is the matching load generator; see README.md
//! ("Sweep service") for the endpoints and EXPERIMENTS.md for the
//! `ccnuma-serve-result/1` and `ccnuma-loadgen/1` schemas.
//!
//! The requested experiments' run plans are merged, deduplicated, and
//! executed on `--jobs` worker threads (default: available parallelism)
//! before anything is rendered. Reports print to stdout in the order the
//! experiments were requested — byte-identical for any `--jobs` value.
//!
//! `--faults SCENARIO` stresses every run with a named deterministic
//! fault scenario (see `--list-faults`); `--chaos-seed N` varies the
//! fault stream without changing the workload. A stressed invocation
//! appends a chaos summary (faults injected, degradation responses) to
//! stdout. Runs that fail outright — a typed simulator error or a panic
//! — do not abort the invocation: the remaining runs complete, the
//! experiments depending on a failed run are skipped with a notice, the
//! failures are listed in a summary (and in `run-metadata.json` under an
//! `--obs-dir`), and the exit status is 1.
//!
//! With `--obs-dir DIR`, every computed run additionally writes its
//! observability artifacts (`events.jsonl`, `timeseries.csv`,
//! `trace.json`, `metrics.json`) under `DIR/runs/<slug>/`, and the
//! invocation writes `DIR/run-metadata.json` (jobs, cache hits, per-run
//! wall times). See EXPERIMENTS.md for the artifact schemas.
//!
//! With `--profile` (requires `--obs-dir`), every computed run is
//! additionally timed by the host-side span profiler: each run's
//! directory gains a `profile.json` (`ccnuma-profile/3` phase summary)
//! and a `host-trace.json` (host-time Chrome trace), and the invocation
//! writes a merged `DIR/profile.json`. The profiler watches only the
//! host's wall clock, so profiled stdout stays byte-identical to an
//! unprofiled invocation; the artifact's *structure* (phases, entries,
//! spans) is deterministic while its durations are host measurements.
//! `repro obs report DIR` reads a whole artifact tree back and prints
//! the fleet rollup (summed counters, merged histograms with
//! p50/p90/p99, merged host profile); `--out FILE` adds a
//! `ccnuma-obs-report/1` JSON document.
//!
//! With `--trace-dir DIR`, captured miss traces are stored under `DIR`
//! in the chunked v3 format and served from there on later invocations
//! — the Section 8 experiments (fig4/6/7/8/9, sharing, counters,
//! characterize) then render without re-running the machine simulator.
//! The `trace` subcommand manages the store directly (`capture` fills
//! it, `info` lists it, `verify` checks every byte of each entry: each
//! chunk and the footer against their checksums, and the trailer), and
//! `sweep` replays a policy-parameter grid over a stored
//! trace, writing a `ccnuma-sweep/2` JSON (and optionally CSV)
//! artifact. Both default to the `artifacts/traces` store directory.
//! `trace fsck` verifies every store entry (exit 1 on damage); with
//! `--repair` it moves each damaged entry whole into `quarantine/`, and
//! the next run that needs a quarantined trace captures it again. `trace gc
//! --max-bytes N` evicts least-recently-used entries until the store
//! fits the byte budget (loads freshen an entry's LRU stamp).
//!
//! With `--resume DIR`, the invocation stores every completed run (or
//! sweep cell) and restores stored results instead of recomputing them,
//! so a killed invocation rerun with the same `--resume DIR` completes
//! only the missing work while printing byte-identical stdout. One rule
//! places the files: results live under `DIR/results` (checksummed),
//! and traces live in the trace store (v3 entries), which is
//! `--trace-dir` when given and otherwise `DIR` (experiments) or
//! `artifacts/traces` (sweep). A damaged entry is a warning plus a
//! recomputation that rewrites it. `trace fsck` and `trace gc` cover
//! the results too.
//!
//! Stderr chatter is gated by one verbosity knob: `-v`/`--verbose` and
//! `-q`/`--quiet` flags first, then the `CCNUMA_LOG` environment
//! variable (`quiet|info|debug`), then the default (a one-line
//! summary). Experiment output on stdout is never gated.
//!
//! Every line is parsed once, against one flag table
//! (`ccnuma_bench::cli`), before any store is opened or any run starts.
//! A usage error — a flag the subcommand does not take, a missing or bad
//! value, or a flag combination it refuses — prints the message and the
//! subcommand's usage (generated from the table) and exits 2 having done
//! nothing. Unknown experiment *names* are not usage errors: they are
//! reported on stderr and skipped, the rest render, and the exit status
//! is 2.

use ccnuma_bench::cli::{self, Command, Opts, TraceAction};
use ccnuma_bench::{experiments, traced_ft_spec, Executor, RunPlan, TracedRun};
use ccnuma_faults::{FaultScenario, FaultSpec, FaultStats};
use ccnuma_obs::Verbosity;
use ccnuma_tracestore::{
    fsck, gc, run_sweep_cached, Footer, ResultCache, StoreError, StoreListing, SweepStore,
    TraceStore, RESULTS_DIR,
};
use ccnuma_workloads::{Scale, WorkloadKind};
use std::fs::File;
use std::path::Path;
use std::time::Instant;

/// Reports a runtime failure on stderr and exits 1.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

/// Writes `body` to `path` atomically, or exits 1.
fn write(path: &Path, body: &str) {
    if let Err(e) = ccnuma_faults::atomic_write(path, body.as_bytes()) {
        fail(format!("writing {}: {e}", path.display()));
    }
}

/// Writes `body` to `out` (noting `what` on stderr), or prints it to
/// stdout when there is no `out`.
fn emit(out: Option<&Path>, body: &str, what: &str) {
    match out {
        Some(path) => {
            write(path, body);
            eprintln!("{what} -> {}", path.display());
        }
        None => println!("{body}"),
    }
}

/// `, N what` when `n` is non-zero, for the one-line summaries.
fn note(n: u64, what: &str) -> String {
    if n > 0 {
        format!(", {n} {what}")
    } else {
        String::new()
    }
}

/// Captures `kind`'s traced first-touch run at `scale` through `exec`'s
/// trace store, or serves it from there: the store slug, the run's
/// label, and the run (`from_store` tells which).
fn capture(exec: &Executor, kind: WorkloadKind, scale: Scale) -> (String, String, TracedRun) {
    let spec = traced_ft_spec(kind, scale);
    (exec.trace_slug(&spec), spec.describe(), exec.traced(&spec))
}

/// The stdout chaos summary for a stressed invocation: what was
/// injected and how the simulator degraded. Derived purely from
/// sim-time statistics, so it is identical for any `--jobs` value.
fn chaos_summary(faults: FaultSpec, ok: u64, failed: u64, t: &FaultStats) -> String {
    format!(
        "== chaos summary: {faults} ==\nruns: {ok} ok, {failed} failed\n\
         faults injected: {} (storms {}, copy aborts {}, allocs blocked {}, acks delayed {}, \
         interrupts lost {}, counters capped {})\n\
         frames seized: {}, extra ack delay: {} ns\n\
         degradation: retries {} ({} recovered), dropped ops {}, throttled moves {}, \
         remap-only activations {}, reclaimed frames {}\n",
        t.injected_total(),
        t.storms,
        t.copy_aborts,
        t.allocs_blocked,
        t.acks_delayed,
        t.interrupts_lost,
        t.counters_capped,
        t.frames_seized,
        t.ack_delay_total.0,
        t.op_retries,
        t.retry_successes,
        t.failed_ops,
        t.throttled_ops,
        t.remap_only_activations,
        t.reclaimed_frames,
    )
}

/// `repro obs report DIR [--out FILE]`: aggregate one invocation's
/// artifact tree into a fleet summary (stdout) and optionally the
/// `ccnuma-obs-report/1` JSON document.
fn run_obs_report(dir: &Path, out: Option<&Path>) -> i32 {
    let report = ccnuma_bench::build_report(dir)
        .unwrap_or_else(|e| fail(format!("obs report over {}: {e}", dir.display())));
    print!("{}", report.render(dir));
    if let Some(path) = out {
        write(path, &report.to_json());
        eprintln!("obs report artifact -> {}", path.display());
    }
    0
}

fn listing(store: &TraceStore) -> StoreListing {
    StoreListing::scan(store)
        .unwrap_or_else(|e| fail(format!("listing {}: {e}", store.dir().display())))
}

/// `repro trace`: manage the on-disk trace store.
fn run_trace(action: &TraceAction, o: &Opts) -> i32 {
    let dir = o.trace_dir.as_deref().expect("parse sets the trace dir");
    let store = cli::open_store(dir).unwrap_or_else(|e| fail(e));
    match action {
        TraceAction::Ls if o.json => print!("{}", listing(&store).to_json()),
        TraceAction::Ls => {
            let listing = listing(&store);
            let n = listing.entries.len();
            for e in &listing.entries {
                println!(
                    "{}: label=\"{}\" records={} nodes={} chunks={} bytes={} mtime={}",
                    e.slug, e.label, e.records, e.nodes, e.chunks, e.bytes, e.mtime_unix
                );
            }
            println!(
                "total: {} entr{}, {} bytes, {} records",
                n,
                if n == 1 { "y" } else { "ies" },
                listing.total_bytes,
                listing.total_records
            );
        }
        TraceAction::Capture(kinds) => {
            let serial = Opts {
                jobs: 1,
                trace_dir: o.trace_dir.clone(),
                ..Opts::default()
            };
            let exec = serial.executor().unwrap_or_else(|e| fail(e));
            for &kind in kinds {
                let (slug, _, tr) = capture(&exec, kind, o.scale);
                let bytes = std::fs::metadata(store.trace_path(&slug)).map_or(0, |m| m.len());
                let origin = if tr.from_store() {
                    "stored  "
                } else {
                    "captured"
                };
                println!(
                    "{origin} {slug}: {} records, {} bytes, nodes={}",
                    tr.trace().len(),
                    bytes,
                    tr.nodes()
                );
            }
            let stats = exec.stats();
            eprintln!(
                "trace capture: {} machine run(s), {} store hit(s) -> {}",
                stats.computed,
                stats.store_hits,
                store.dir().display()
            );
        }
        TraceAction::Info(names) | TraceAction::Verify(names) => {
            let slugs = if names.is_empty() {
                store
                    .list()
                    .unwrap_or_else(|e| fail(format!("listing {}: {e}", dir.display())))
            } else {
                names.clone()
            };
            if slugs.is_empty() {
                eprintln!("trace store {} is empty", store.dir().display());
            }
            // `info --json` goes through the shared listing scan, so its
            // entries are the same bytes `trace ls --json` and the serve
            // daemon's `GET /v1/traces` would report.
            let listing = o.json.then(|| listing(&store));
            let mut failed = false;
            for slug in &slugs {
                let outcome = match &listing {
                    Some(l) => match l.entries.iter().find(|e| &e.slug == slug) {
                        Some(e) => {
                            print!("{}", e.to_json());
                            Ok(())
                        }
                        None => store.meta(slug).and(Err(StoreError::Corrupt {
                            chunk: usize::MAX,
                            what: "entry unreadable (see trace fsck)",
                        })),
                    },
                    None if matches!(action, TraceAction::Info(_)) => trace_info(&store, slug),
                    None => trace_verify(&store, slug),
                };
                if let Err(e) = outcome {
                    println!("FAIL {slug}: {e}");
                    failed = true;
                }
            }
            return i32::from(failed);
        }
        TraceAction::Fsck => {
            let report = fsck(&store, o.repair)
                .unwrap_or_else(|e| fail(format!("fsck over {}: {e}", dir.display())));
            print!("{}", report.render());
            // Dry runs signal damage through the exit status; a repair
            // run that contained everything it found exits clean.
            return i32::from(!report.is_clean() && !o.repair);
        }
        TraceAction::Gc(budget) => {
            let report = gc(&store, *budget)
                .unwrap_or_else(|e| fail(format!("gc over {}: {e}", dir.display())));
            print!("{}", report.render());
        }
    }
    0
}

/// One `trace info` line, from one read of the entry's footer.
fn trace_info(store: &TraceStore, slug: &str) -> Result<(), StoreError> {
    let mut file = File::open(store.trace_path(slug))?;
    let bytes = file.metadata()?.len();
    let Footer { chunks, meta } = Footer::read_from(&mut file)?;
    println!(
        "{slug}: label=\"{}\" records={} nodes={} other_time_ns={} chunks={} bytes={bytes}",
        meta.label,
        meta.records,
        meta.nodes,
        meta.other_time_ns,
        chunks.len(),
    );
    Ok(())
}

/// One `trace verify` line: a strict read of the whole entry.
fn trace_verify(store: &TraceStore, slug: &str) -> Result<(), StoreError> {
    let (reader, _) = store.open(slug)?;
    let mut records = 0u64;
    for rec in reader {
        rec?;
        records += 1;
    }
    println!("ok {slug}: {records} records");
    Ok(())
}

/// `repro sweep`: replay a policy-parameter grid over a stored trace.
fn run_sweep_cmd(o: &Opts) -> i32 {
    let (store, slug, label, nodes, other_time) = match (&o.trace, o.workload) {
        (Some(slug), _) => {
            let store = cli::open_store(o.trace_dir.as_deref().expect("parse sets the trace dir"))
                .unwrap_or_else(|e| fail(e));
            let meta = store
                .meta(slug)
                .unwrap_or_else(|e| fail(format!("reading stored trace {slug}: {e}")));
            let other_time = ccnuma_types::Ns(meta.other_time_ns);
            (store, slug.clone(), meta.label, meta.nodes, other_time)
        }
        (None, kind) => {
            // Capture-once: the machine runs only if the store does not
            // already hold this workload's trace. The capture (the only
            // machine run a sweep makes) can shard; the swept replays
            // are host-threaded via --jobs.
            let capture_opts = Opts {
                jobs: 1,
                shards: o.shards,
                window_us: o.window_us,
                trace_dir: o.trace_dir.clone(),
                ..Opts::default()
            };
            let exec = capture_opts.executor().unwrap_or_else(|e| fail(e));
            let kind = kind.expect("parse requires --workload or --trace");
            let (slug, label, tr) = capture(&exec, kind, o.scale);
            let stats = exec.stats();
            let origin = if tr.from_store() {
                "served from store"
            } else {
                "captured"
            };
            eprintln!(
                "sweep: trace {slug} {origin}, {} machine run(s), {} store hit(s)",
                stats.computed, stats.store_hits
            );
            let store = exec.trace_store().expect("capture has a store").clone();
            (store, slug, label, tr.nodes(), tr.other_time())
        }
    };
    let open = || store.open(&slug).map(|(reader, _)| reader);
    let results = o.resume.as_ref().map(|resume_dir| {
        ResultCache::new(resume_dir.join(RESULTS_DIR)).unwrap_or_else(|e| {
            fail(format!(
                "opening result store {}: {e}",
                resume_dir.display()
            ))
        })
    });
    let cells = SweepStore {
        results: results.as_ref(),
        trace_slug: &slug,
        progress: &|_| true,
    };
    let jobs = o.jobs;
    let run = run_sweep_cached(&o.spec, nodes, other_time, jobs, open, &cells)
        .unwrap_or_else(|e| fail(format!("sweep over {slug}: {e}")));
    let (report, resumed) = (&run.report, run.resumed);
    if let Some(path) = &o.profile_out {
        write(path, &run.profile.to_json());
        eprintln!(
            "sweep profile -> {} ({} replay span(s))",
            path.display(),
            run.profile.spans(ccnuma_obs::Phase::Replay)
        );
    }
    emit(o.out.as_deref(), &report.to_json(&label), "sweep artifact");
    if let Some(path) = &o.csv {
        write(path, &report.to_csv());
        eprintln!("sweep CSV -> {}", path.display());
    }
    let resumed_note = if o.resume.is_some() {
        format!(", {resumed} resumed from checkpoint")
    } else {
        String::new()
    };
    eprintln!(
        "sweep: {} cell(s), {} unique replay(s){resumed_note}, {} records, jobs={jobs}",
        report.cells.len(),
        report.unique_replays,
        report.records
    );
    0
}

/// Renders the requested experiments. Their run plans merge into one,
/// executed before anything renders, so stdout is identical for any
/// `--jobs`. Unknown names are skipped (exit 2); failed runs skip the
/// experiments that need them (exit 1).
fn run_experiments(names: &[String], mut o: Opts) -> i32 {
    let verbosity = Verbosity::resolve(o.verbosity, std::env::var("CCNUMA_LOG").ok().as_deref());
    o.verbosity = Some(verbosity);

    // Resolve names to experiments, deduplicating (aliases and repeats
    // collapse onto the canonical entry, keeping first-request order) and
    // collecting unknown names instead of aborting on the first one.
    let mut selected: Vec<&experiments::Experiment> = Vec::new();
    let mut unknown: Vec<&String> = Vec::new();
    for name in names {
        match experiments::find(name) {
            Some(exp) if !selected.iter().any(|e| e.name == exp.name) => selected.push(exp),
            None if !unknown.contains(&name) => unknown.push(name),
            _ => {}
        }
    }
    for name in &unknown {
        eprintln!("unknown experiment '{name}' (see repro --list); skipping");
    }

    let start = Instant::now();
    let scale = o.scale;
    let mut plan = RunPlan::new();
    for exp in &selected {
        plan.extend((exp.plan)(scale));
    }
    let fault_spec = o.fault_spec();
    let exec = o.executor().unwrap_or_else(|e| fail(e));
    exec.execute(&plan);
    for exp in &selected {
        // An experiment whose plan contains a failed run cannot render;
        // skip it with a notice and keep going — the failure itself is
        // reported in the summary below.
        let broken: Vec<_> = (exp.plan)(scale)
            .iter()
            .filter_map(|s| exec.failure_for(s))
            .collect();
        if broken.is_empty() {
            println!("{}", (exp.render)(scale, &exec));
        } else {
            println!(
                "== {} skipped: {} failed run(s) ==\n",
                exp.name,
                broken.len()
            );
        }
    }

    let stats = exec.stats();
    if let Some(faults) = fault_spec {
        print!(
            "{}",
            chaos_summary(faults, stats.computed, stats.failed, &exec.fault_totals())
        );
    }
    let failures = exec.failures();
    if failures.is_empty() {
        if fault_spec.is_some() {
            println!("failures: none");
        }
    } else {
        println!("== failure summary ==");
        for f in &failures {
            println!("FAILED {}: {}", f.label, f.error);
        }
        println!("failures: {}", failures.len());
    }
    let wall = start.elapsed();
    if let Some(dir) = &o.obs_dir {
        let path = exec
            .write_run_metadata(dir, wall)
            .unwrap_or_else(|e| fail(format!("writing {}/run-metadata.json: {e}", dir.display())));
        if verbosity.normal() {
            eprintln!("obs artifacts in {}", path.parent().unwrap().display());
        }
        let profile = exec
            .write_invocation_profile(dir)
            .unwrap_or_else(|e| fail(format!("writing {}/profile.json: {e}", dir.display())));
        if let (Some(path), true) = (profile, verbosity.normal()) {
            eprintln!("invocation profile -> {}", path.display());
        }
    }
    if verbosity.verbose() {
        eprintln!("-- repro summary --");
        for t in exec.timings() {
            eprintln!("  {:>8.2}s  {}", t.wall.as_secs_f64(), t.label);
        }
    }
    if verbosity.normal() {
        // Byte footprints ride along with the hit counts whenever a
        // store is in play, so capacity pressure is visible from the
        // same line operators already watch.
        let mut footprints = String::new();
        if let Some(Ok(listing)) = exec.trace_store().map(StoreListing::scan) {
            footprints.push_str(&format!(
                ", trace store {} B in {} trace(s)",
                listing.total_bytes,
                listing.entries.len()
            ));
        }
        if let Some(cache) = exec.result_cache() {
            let (n, b) = cache.footprint();
            footprints.push_str(&format!(", result cache {b} B in {n} result(s)"));
        }
        eprintln!(
            "{} experiment(s), {} distinct run(s) computed, {} cache hit(s){}{}{}{}, jobs={}, wall {:.2}s",
            selected.len(),
            stats.computed,
            stats.hits,
            note(stats.store_hits, "trace-store hit(s)"),
            note(stats.resumed, "resumed from checkpoint"),
            footprints,
            note(stats.failed, "FAILED"),
            stats.jobs,
            wall.as_secs_f64()
        );
    }
    if !unknown.is_empty() {
        2
    } else {
        i32::from(!failures.is_empty())
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = cli::parse(&args).unwrap_or_else(|e| {
        let sub = cli::subcommand(&args);
        eprintln!("{}: {e}\n{}", sub.name, sub.usage());
        std::process::exit(2)
    });
    std::process::exit(match command {
        Command::List => {
            for e in experiments::ALL {
                match e.aliases {
                    [] => println!("{}", e.name),
                    aliases => println!("{} (aliases: {})", e.name, aliases.join(", ")),
                }
            }
            0
        }
        Command::ListFaults => {
            for sc in FaultScenario::ALL {
                println!("{:<15} {}", sc.name(), sc.describe());
            }
            0
        }
        Command::Experiments(names, opts) => run_experiments(&names, opts),
        Command::ObsReport(dir, out) => run_obs_report(&dir, out.as_deref()),
        Command::Trace(action, opts) => run_trace(&action, &opts),
        Command::Sweep(opts) => run_sweep_cmd(&opts),
        Command::Serve(cfg) => {
            ccnuma_serve::run(cfg).unwrap_or_else(|e| fail(format!("serve: {e}")));
            0
        }
        Command::Loadgen(url, opts, out) => {
            let json = ccnuma_serve::run_loadgen(&opts)
                .unwrap_or_else(|e| fail(format!("loadgen against {url}: {e}")));
            emit(out.as_deref(), &json, "loadgen report");
            0
        }
    })
}
