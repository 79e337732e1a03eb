//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro <experiment>... [--scale quick|standard|full] [--jobs N]
//!                       [--topology PRESET] [--window-us N]
//!                       [--obs-dir DIR] [--profile] [--trace-dir DIR]
//!                       [--faults SCENARIO] [--chaos-seed N]
//!                       [--resume DIR] [--soft-deadline SECS]
//!                       [--hard-deadline SECS]
//!                       [-v|--verbose] [-q|--quiet]
//! repro all [--scale ...] [--jobs N] [--resume DIR]
//! repro obs report DIR [--out FILE]
//! repro trace <capture|info|verify> [WORKLOAD|SLUG]...
//!             [--scale S] [--trace-dir DIR] [--json]
//! repro trace ls [--json] [--trace-dir DIR]
//! repro trace fsck [--repair] [--trace-dir DIR]
//! repro trace gc --max-bytes N [--trace-dir DIR]
//! repro sweep (--workload NAME | --trace SLUG) [--scale S]
//!             [--trace-dir DIR] [--jobs N] [--window-us N]
//!             [--out FILE] [--csv FILE]
//!             [--profile FILE] [--resume DIR] [--soft-deadline SECS]
//!             [--policies P,..] [--triggers N,..] [--samples N,..]
//!             [--latencies NS,..] [--move-costs US,..]
//!             [--topologies T,..]
//! repro serve [--addr HOST:PORT] [--trace-dir DIR] [--results-dir DIR]
//!             [--workers N] [--queue-depth N] [--prewarm SLUG,..]
//!             [--trace-budget-bytes N] [--max-cells N]
//!             [--max-body-bytes N] [--max-sweeps N]
//!             [--soft-deadline SECS] [--hard-deadline SECS]
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
//! directory gains a `profile.json` (`ccnuma-profile/2` phase summary)
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
//! in the chunked v2 format and served from there on later invocations
//! — the Section 8 experiments (fig4/6/7/8/9, sharing, counters,
//! characterize) then render without re-running the machine simulator.
//! The `trace` subcommand manages the store directly (`capture` fills
//! it, `info` lists it, `verify` re-decodes every chunk against its
//! checksum), and `sweep` replays a policy-parameter grid over a stored
//! trace, writing a `ccnuma-sweep/2` JSON (and optionally CSV)
//! artifact. Both default to the `artifacts/traces` store directory.
//! `trace fsck` verifies every store entry (exit 1 on damage); with
//! `--repair` it salvages what the format's truncation-salvage path can
//! recover and quarantines the rest under `quarantine/`. `trace gc
//! --max-bytes N` evicts least-recently-used entries until the store
//! fits the byte budget (loads freshen an entry's LRU stamp).
//!
//! With `--resume DIR`, the invocation stores every completed run (or
//! sweep cell) in the content-addressed store at `DIR` — the serve
//! daemon's layout: v2 trace entries at `DIR`, checksummed results
//! under `DIR/results` — and restores stored results instead of
//! recomputing them, so a killed invocation rerun with the same
//! `--resume DIR` completes only the missing work while printing
//! byte-identical stdout. A damaged entry is a warning plus a
//! recomputation. `trace fsck` and `trace gc` cover the results too.
//! `--soft-deadline SECS` warns on stderr when a run overruns;
//! `--hard-deadline SECS` converts an overrunning run into a failure
//! (never stored, plan continues).
//!
//! Stderr chatter is gated by one verbosity knob: `-v`/`--verbose` and
//! `-q`/`--quiet` flags first, then the `CCNUMA_LOG` environment
//! variable (`quiet|info|debug`), then the default (a one-line
//! summary). Experiment output on stdout is never gated.

use ccnuma_bench::{experiments, traced_ft_spec, Executor, RunPlan};
use ccnuma_faults::{FaultScenario, FaultSpec, FaultStats};
use ccnuma_obs::Verbosity;
use ccnuma_serve::{LoadgenOptions, ServeConfig};
use ccnuma_tracestore::{
    fsck, gc, run_sweep, run_sweep_cached, run_sweep_profiled, ChunkIndex, ResultCache,
    StoreListing, SweepPolicy, SweepSpec, SweepStore, TraceStore, RESULTS_DIR,
};
use ccnuma_types::{ShardPlan, TopologyPreset};
use ccnuma_workloads::{Scale, WorkloadKind};
use std::fs::File;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Default store directory for the `trace` and `sweep` subcommands.
const DEFAULT_TRACE_DIR: &str = "artifacts/traces";

fn parse_scale(v: Option<&str>) -> Scale {
    match v {
        Some("quick") => Scale::quick(),
        Some("standard") => Scale::standard(),
        Some("full") => Scale::full(),
        other => {
            eprintln!("--scale expects quick|standard|full, got {other:?}");
            std::process::exit(2);
        }
    }
}

fn parse_workload(name: &str) -> Option<WorkloadKind> {
    WorkloadKind::ALL
        .into_iter()
        .find(|k| k.to_string().eq_ignore_ascii_case(name))
}

fn parse_topology(flag: &str, label: &str) -> TopologyPreset {
    TopologyPreset::parse(label).unwrap_or_else(|| {
        let known: Vec<&str> = TopologyPreset::ALL.into_iter().map(|p| p.label()).collect();
        eprintln!(
            "{flag}: unknown topology {label:?} (want one of {})",
            known.join(", ")
        );
        std::process::exit(2);
    })
}

/// Parses a `--shards N` value: a positive shard count. Shards are
/// host-side parallelism only — stdout and reports are byte-identical
/// at every count.
fn parse_shards(flag: &str, it: &mut std::slice::Iter<'_, String>) -> ShardPlan {
    match it.next().and_then(|v| v.parse::<u32>().ok()) {
        Some(n) if n > 0 => ShardPlan::new(n),
        _ => {
            eprintln!("{flag} expects a positive shard count");
            std::process::exit(2);
        }
    }
}

/// Parses a `--window-us N` value: a positive scheduling-window length
/// in microseconds. Unlike `--shards`, the window is part of the
/// simulated machine — changing it perturbs scheduling decisions and
/// therefore the tables (the default 100 matches the paper).
fn parse_window(flag: &str, it: &mut std::slice::Iter<'_, String>) -> u64 {
    match it.next().and_then(|v| v.parse::<u64>().ok()) {
        Some(n) if n > 0 => n,
        _ => {
            eprintln!("{flag} expects a positive microsecond count");
            std::process::exit(2);
        }
    }
}

/// Pulls a flag's string value or exits with a usage error.
fn next_str<'a>(flag: &str, it: &mut std::slice::Iter<'a, String>) -> &'a str {
    it.next().map(String::as_str).unwrap_or_else(|| {
        eprintln!("{flag} expects a value");
        std::process::exit(2);
    })
}

fn open_store(dir: &PathBuf) -> TraceStore {
    match TraceStore::new(dir) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("opening trace store {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn print_list() {
    for e in experiments::ALL {
        if e.aliases.is_empty() {
            println!("{}", e.name);
        } else {
            println!("{} (aliases: {})", e.name, e.aliases.join(", "));
        }
    }
}

fn print_fault_list() {
    for sc in FaultScenario::ALL {
        println!("{:<15} {}", sc.name(), sc.describe());
    }
}

/// The stdout chaos summary for a stressed invocation: what was
/// injected and how the simulator degraded. Derived purely from
/// sim-time statistics, so it is identical for any `--jobs` value.
fn chaos_summary(faults: FaultSpec, ok: u64, failed: u64, t: &FaultStats) -> String {
    let mut s = String::new();
    s.push_str(&format!("== chaos summary: {faults} ==\n"));
    s.push_str(&format!("runs: {ok} ok, {failed} failed\n"));
    s.push_str(&format!(
        "faults injected: {} (storms {}, copy aborts {}, allocs blocked {}, acks delayed {}, \
         interrupts lost {}, counters capped {})\n",
        t.injected_total(),
        t.storms,
        t.copy_aborts,
        t.allocs_blocked,
        t.acks_delayed,
        t.interrupts_lost,
        t.counters_capped,
    ));
    s.push_str(&format!(
        "frames seized: {}, extra ack delay: {} ns\n",
        t.frames_seized, t.ack_delay_total.0
    ));
    s.push_str(&format!(
        "degradation: retries {} ({} recovered), dropped ops {}, throttled moves {}, \
         remap-only activations {}, reclaimed frames {}\n",
        t.op_retries,
        t.retry_successes,
        t.failed_ops,
        t.throttled_ops,
        t.remap_only_activations,
        t.reclaimed_frames,
    ));
    s
}

/// `repro obs report DIR [--out FILE]`: aggregate one invocation's
/// artifact tree into a fleet summary (stdout) and optionally the
/// `ccnuma-obs-report/1` JSON document.
fn run_obs_cmd(args: &[String]) -> ! {
    let usage = "usage: repro obs report DIR [--out FILE]";
    if args.first().map(String::as_str) != Some("report") {
        eprintln!("{usage}");
        std::process::exit(2);
    }
    let mut dir: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => {
                out = match it.next() {
                    Some(p) => Some(PathBuf::from(p)),
                    None => {
                        eprintln!("--out expects a file path");
                        std::process::exit(2);
                    }
                };
            }
            flag if flag.starts_with('-') => {
                eprintln!("repro obs: unknown argument {flag:?}\n{usage}");
                std::process::exit(2);
            }
            path if dir.is_none() => dir = Some(PathBuf::from(path)),
            extra => {
                eprintln!("repro obs: unexpected argument {extra:?}\n{usage}");
                std::process::exit(2);
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let report = ccnuma_bench::build_report(&dir).unwrap_or_else(|e| {
        eprintln!("obs report over {}: {e}", dir.display());
        std::process::exit(1);
    });
    print!("{}", report.render(&dir));
    if let Some(path) = &out {
        if let Err(e) = ccnuma_faults::atomic_write(path, report.to_json().as_bytes()) {
            eprintln!("writing {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("obs report artifact -> {}", path.display());
    }
    std::process::exit(0);
}

/// `repro trace capture|info|verify`: manage the on-disk trace store.
fn run_trace_cmd(args: &[String]) -> ! {
    let usage = "usage: repro trace <capture|info|verify> [WORKLOAD|SLUG]... \
                 [--scale quick|standard|full] [--trace-dir DIR] [--json]\n\
                 \u{20}      repro trace ls [--json] [--trace-dir DIR]\n\
                 \u{20}      repro trace fsck [--repair] [--trace-dir DIR]\n\
                 \u{20}      repro trace gc --max-bytes N [--trace-dir DIR]";
    let Some(action) = args.first().map(String::as_str) else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let mut scale = Scale::standard();
    let mut dir = PathBuf::from(DEFAULT_TRACE_DIR);
    let mut repair = false;
    let mut json = false;
    let mut max_bytes: Option<u64> = None;
    let mut names: Vec<String> = Vec::new();
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => scale = parse_scale(it.next().map(String::as_str)),
            "--json" => json = true,
            "--trace-dir" => match it.next() {
                Some(d) => dir = PathBuf::from(d),
                None => {
                    eprintln!("--trace-dir expects a directory path");
                    std::process::exit(2);
                }
            },
            "--repair" => repair = true,
            "--max-bytes" => {
                max_bytes = match it.next().and_then(|v| v.parse::<u64>().ok()) {
                    Some(n) => Some(n),
                    None => {
                        eprintln!("--max-bytes expects an unsigned byte count");
                        std::process::exit(2);
                    }
                };
            }
            flag if flag.starts_with('-') => {
                eprintln!("repro trace: unknown argument {flag:?}\n{usage}");
                std::process::exit(2);
            }
            name => names.push(name.to_string()),
        }
    }
    if json && !matches!(action, "ls" | "info") {
        eprintln!("repro trace: --json applies to ls and info only\n{usage}");
        std::process::exit(2);
    }
    let store = open_store(&dir);
    match action {
        "ls" => {
            if !names.is_empty() {
                eprintln!("repro trace ls takes no positional arguments\n{usage}");
                std::process::exit(2);
            }
            let listing = StoreListing::scan(&store).unwrap_or_else(|e| {
                eprintln!("listing {}: {e}", store.dir().display());
                std::process::exit(1);
            });
            if json {
                print!("{}", listing.to_json());
            } else {
                for e in &listing.entries {
                    println!(
                        "{}: label=\"{}\" records={} nodes={} chunks={} bytes={} mtime={}",
                        e.slug, e.label, e.records, e.nodes, e.chunks, e.bytes, e.mtime_unix
                    );
                }
                println!(
                    "total: {} entr{}, {} bytes, {} records",
                    listing.entries.len(),
                    if listing.entries.len() == 1 {
                        "y"
                    } else {
                        "ies"
                    },
                    listing.total_bytes,
                    listing.total_records
                );
            }
            std::process::exit(0);
        }
        "capture" => {
            let kinds: Vec<WorkloadKind> = if names.is_empty() {
                WorkloadKind::ALL.to_vec()
            } else {
                names
                    .iter()
                    .map(|n| {
                        parse_workload(n).unwrap_or_else(|| {
                            eprintln!("unknown workload '{n}' (want one of Engineering, Raytrace, Splash, Database, Pmake)");
                            std::process::exit(2);
                        })
                    })
                    .collect()
            };
            let exec = Executor::serial().with_trace_store(store.clone());
            for kind in kinds {
                let spec = traced_ft_spec(kind, scale);
                let slug = exec.trace_slug(&spec);
                let tr = exec.traced(&spec);
                let bytes = std::fs::metadata(store.trace_path(&slug))
                    .map(|m| m.len())
                    .unwrap_or(0);
                println!(
                    "{} {slug}: {} records, {} bytes, nodes={}",
                    if tr.from_store() {
                        "stored  "
                    } else {
                        "captured"
                    },
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
            std::process::exit(0);
        }
        "info" | "verify" => {
            let slugs = if names.is_empty() {
                store.list().unwrap_or_else(|e| {
                    eprintln!("listing {}: {e}", store.dir().display());
                    std::process::exit(1);
                })
            } else {
                names
            };
            if slugs.is_empty() {
                eprintln!("trace store {} is empty", store.dir().display());
            }
            // `info --json` goes through the shared listing scan, so its
            // entries are the same bytes `trace ls --json` and the serve
            // daemon's `GET /v1/traces` would report.
            let listing = if json {
                Some(StoreListing::scan(&store).unwrap_or_else(|e| {
                    eprintln!("listing {}: {e}", store.dir().display());
                    std::process::exit(1);
                }))
            } else {
                None
            };
            let mut failed = false;
            for slug in &slugs {
                let outcome = match &listing {
                    Some(l) => match l.entries.iter().find(|e| &e.slug == slug) {
                        Some(e) => {
                            print!("{}", e.to_json());
                            Ok(())
                        }
                        None => store
                            .meta(slug)
                            .and(Err(ccnuma_tracestore::StoreError::Corrupt {
                                chunk: usize::MAX,
                                what: "entry unreadable (see trace fsck)",
                            })),
                    },
                    None if action == "info" => trace_info(&store, slug),
                    None => trace_verify(&store, slug),
                };
                if let Err(e) = outcome {
                    println!("FAIL {slug}: {e}");
                    failed = true;
                }
            }
            std::process::exit(i32::from(failed));
        }
        "fsck" => {
            let report = fsck(&store, repair).unwrap_or_else(|e| {
                eprintln!("fsck over {}: {e}", store.dir().display());
                std::process::exit(1);
            });
            print!("{}", report.render());
            // Dry runs signal damage through the exit status; a repair
            // run that contained everything it found exits clean.
            let dirty = report.damaged().count() > 0 || !report.orphans.is_empty();
            std::process::exit(i32::from(dirty && !repair));
        }
        "gc" => {
            let Some(budget) = max_bytes else {
                eprintln!("repro trace gc requires --max-bytes N\n{usage}");
                std::process::exit(2);
            };
            let report = gc(&store, budget).unwrap_or_else(|e| {
                eprintln!("gc over {}: {e}", store.dir().display());
                std::process::exit(1);
            });
            print!("{}", report.render());
            std::process::exit(0);
        }
        other => {
            eprintln!("repro trace: unknown action {other:?}\n{usage}");
            std::process::exit(2);
        }
    }
}

/// One `trace info` line: sidecar fields plus the chunk index.
fn trace_info(store: &TraceStore, slug: &str) -> Result<(), ccnuma_tracestore::StoreError> {
    let meta = store.meta(slug)?;
    let path = store.trace_path(slug);
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let index = ChunkIndex::read_from(&mut File::open(&path)?)?;
    println!(
        "{slug}: label=\"{}\" records={} nodes={} other_time_ns={} chunks={} bytes={}",
        meta.label,
        meta.records,
        meta.nodes,
        meta.other_time_ns,
        index.chunks.len(),
        bytes
    );
    Ok(())
}

/// One `trace verify` line: full strict decode of every chunk, with the
/// record count cross-checked against the sidecar and the footer.
fn trace_verify(store: &TraceStore, slug: &str) -> Result<(), ccnuma_tracestore::StoreError> {
    let (reader, meta) = store.open(slug)?;
    let mut records = 0u64;
    for rec in reader {
        rec?;
        records += 1;
    }
    if records != meta.records {
        return Err(ccnuma_tracestore::StoreError::Corrupt {
            chunk: usize::MAX,
            what: "record count disagrees with sidecar",
        });
    }
    println!("ok {slug}: {records} records");
    Ok(())
}

/// `repro sweep`: replay a policy-parameter grid over a stored trace.
fn run_sweep_cmd(args: &[String]) -> ! {
    let usage = "usage: repro sweep (--workload NAME | --trace SLUG) \
                 [--scale quick|standard|full] [--trace-dir DIR] [--jobs N] \
                 [--shards N] [--window-us N] [--out FILE] [--csv FILE] \
                 [--profile FILE] [--resume DIR] [--soft-deadline SECS] \
                 [--policies P,..] [--triggers N,..] [--samples N,..] \
                 [--latencies NS,..] [--move-costs US,..] [--topologies T,..]";
    let mut scale = Scale::standard();
    let mut dir = PathBuf::from(DEFAULT_TRACE_DIR);
    let mut jobs = default_jobs();
    let mut shards = ShardPlan::serial();
    let mut window_us: Option<u64> = None;
    let mut workload: Option<WorkloadKind> = None;
    let mut trace_slug: Option<String> = None;
    let mut out: Option<PathBuf> = None;
    let mut csv: Option<PathBuf> = None;
    let mut profile_out: Option<PathBuf> = None;
    let mut resume: Option<PathBuf> = None;
    let mut soft_deadline: Option<Duration> = None;
    let mut spec = SweepSpec::default_grid();
    fn next_value<'a>(flag: &str, it: &mut std::slice::Iter<'a, String>) -> &'a str {
        it.next().map(String::as_str).unwrap_or_else(|| {
            eprintln!("{flag} expects a value");
            std::process::exit(2);
        })
    }
    fn num_list<T: std::str::FromStr>(flag: &str, raw: &str) -> Vec<T> {
        raw.split(',')
            .map(|x| {
                x.trim().parse().unwrap_or_else(|_| {
                    eprintln!("{flag}: bad element {x:?} in {raw:?}");
                    std::process::exit(2);
                })
            })
            .collect()
    }
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => scale = parse_scale(it.next().map(String::as_str)),
            "--trace-dir" => dir = PathBuf::from(next_value("--trace-dir", &mut it)),
            "--jobs" => {
                jobs = match next_value("--jobs", &mut it).parse() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        eprintln!("--jobs expects a positive integer");
                        std::process::exit(2);
                    }
                };
            }
            "--shards" => shards = parse_shards("--shards", &mut it),
            "--window-us" => window_us = Some(parse_window("--window-us", &mut it)),
            "--workload" => {
                let name = next_value("--workload", &mut it);
                workload = Some(parse_workload(name).unwrap_or_else(|| {
                    eprintln!("unknown workload '{name}'");
                    std::process::exit(2);
                }));
            }
            "--trace" => trace_slug = Some(next_value("--trace", &mut it).to_string()),
            "--out" => out = Some(PathBuf::from(next_value("--out", &mut it))),
            "--csv" => csv = Some(PathBuf::from(next_value("--csv", &mut it))),
            "--profile" => profile_out = Some(PathBuf::from(next_value("--profile", &mut it))),
            "--resume" => resume = Some(PathBuf::from(next_value("--resume", &mut it))),
            "--soft-deadline" => {
                soft_deadline = Some(parse_deadline(
                    "--soft-deadline",
                    next_value("--soft-deadline", &mut it),
                ));
            }
            "--policies" => {
                spec.policies = next_value("--policies", &mut it)
                    .split(',')
                    .map(|p| {
                        SweepPolicy::parse(p.trim()).unwrap_or_else(|| {
                            eprintln!("--policies: unknown policy {p:?} (want RR, FT, PF, Migr, Repl, Mig/Rep)");
                            std::process::exit(2);
                        })
                    })
                    .collect();
            }
            "--triggers" => {
                spec.triggers = num_list("--triggers", next_value("--triggers", &mut it))
            }
            "--samples" => {
                spec.sample_rates = num_list("--samples", next_value("--samples", &mut it));
            }
            "--latencies" => {
                spec.remote_latencies_ns =
                    num_list("--latencies", next_value("--latencies", &mut it));
            }
            "--move-costs" => {
                spec.move_costs_us = num_list("--move-costs", next_value("--move-costs", &mut it));
            }
            "--topologies" => {
                spec.topologies = next_value("--topologies", &mut it)
                    .split(',')
                    .map(|t| parse_topology("--topologies", t.trim()))
                    .collect();
            }
            other => {
                eprintln!("repro sweep: unknown argument {other:?}\n{usage}");
                std::process::exit(2);
            }
        }
    }
    if spec.is_empty() {
        eprintln!("repro sweep: the grid is empty (an axis has no values)");
        std::process::exit(2);
    }
    let store = open_store(&dir);
    let (slug, label, nodes, other_time) = match (trace_slug, workload) {
        (Some(slug), None) => {
            let meta = store.meta(&slug).unwrap_or_else(|e| {
                eprintln!("reading stored trace {slug}: {e}");
                std::process::exit(1);
            });
            (
                slug,
                meta.label,
                meta.nodes,
                ccnuma_types::Ns(meta.other_time_ns),
            )
        }
        (None, Some(kind)) => {
            // Capture-once: the machine runs only if the store does not
            // already hold this workload's trace. The capture (the only
            // machine run a sweep makes) can shard; the swept replays
            // are host-threaded via --jobs.
            let exec = Executor::serial()
                .with_shards(shards)
                .with_window_us(window_us)
                .with_trace_store(store.clone());
            let run_spec = traced_ft_spec(kind, scale);
            let slug = exec.trace_slug(&run_spec);
            let tr = exec.traced(&run_spec);
            let stats = exec.stats();
            eprintln!(
                "sweep: trace {slug} {}, {} machine run(s), {} store hit(s)",
                if tr.from_store() {
                    "served from store"
                } else {
                    "captured"
                },
                stats.computed,
                stats.store_hits
            );
            (slug, run_spec.describe(), tr.nodes(), tr.other_time())
        }
        _ => {
            eprintln!("repro sweep: exactly one of --workload or --trace is required\n{usage}");
            std::process::exit(2);
        }
    };
    if soft_deadline.is_some() && resume.is_none() {
        eprintln!("repro sweep: --soft-deadline requires --resume DIR\n{usage}");
        std::process::exit(2);
    }
    if profile_out.is_some() && resume.is_some() {
        eprintln!("repro sweep: --profile and --resume cannot be combined\n{usage}");
        std::process::exit(2);
    }
    let open = || store.open(&slug).map(|(reader, _)| reader);
    let mut resumed = 0usize;
    let (report, prof) = if let Some(resume_dir) = &resume {
        let results = ResultCache::new(resume_dir.join(RESULTS_DIR)).unwrap_or_else(|e| {
            eprintln!("opening result store {}: {e}", resume_dir.display());
            std::process::exit(1);
        });
        let store = SweepStore {
            results: &results,
            trace_slug: &slug,
            soft_deadline,
        };
        match run_sweep_cached(&spec, nodes, other_time, jobs, open, &store) {
            Ok((report, n)) => {
                resumed = n;
                (report, None)
            }
            Err(e) => {
                eprintln!("sweep over {slug}: {e}");
                std::process::exit(1);
            }
        }
    } else if profile_out.is_some() {
        match run_sweep_profiled(&spec, nodes, other_time, jobs, open) {
            Ok((report, prof)) => (report, Some(prof)),
            Err(e) => {
                eprintln!("sweep over {slug}: {e}");
                std::process::exit(1);
            }
        }
    } else {
        match run_sweep(&spec, nodes, other_time, jobs, open) {
            Ok(report) => (report, None),
            Err(e) => {
                eprintln!("sweep over {slug}: {e}");
                std::process::exit(1);
            }
        }
    };
    if let (Some(path), Some(prof)) = (&profile_out, &prof) {
        if let Err(e) = ccnuma_faults::atomic_write(path, prof.to_json().as_bytes()) {
            eprintln!("writing {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!(
            "sweep profile -> {} ({} replay span(s))",
            path.display(),
            prof.spans(ccnuma_obs::Phase::Replay)
        );
    }
    let json = report.to_json(&label);
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("writing {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("sweep artifact -> {}", path.display());
        }
        None => println!("{json}"),
    }
    if let Some(path) = &csv {
        if let Err(e) = std::fs::write(path, report.to_csv()) {
            eprintln!("writing {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("sweep CSV -> {}", path.display());
    }
    let resumed_note = if resume.is_some() {
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
    std::process::exit(0);
}

/// `repro serve`: run the sweep-as-a-service daemon until SIGTERM or
/// SIGINT (graceful: in-flight sweep cells are stored in the result
/// cache before exit).
fn run_serve_cmd(args: &[String]) -> ! {
    let usage = "usage: repro serve [--addr HOST:PORT] [--trace-dir DIR] \
                 [--results-dir DIR] [--workers N] [--queue-depth N] \
                 [--prewarm SLUG,..] [--trace-budget-bytes N] [--max-cells N] \
                 [--max-body-bytes N] [--max-sweeps N] \
                 [--soft-deadline SECS] [--hard-deadline SECS]";
    fn pos_num(flag: &str, it: &mut std::slice::Iter<'_, String>) -> u64 {
        match it.next().and_then(|v| v.parse::<u64>().ok()) {
            Some(n) if n > 0 => n,
            _ => {
                eprintln!("{flag} expects a positive integer");
                std::process::exit(2);
            }
        }
    }
    let mut cfg = ServeConfig {
        trace_dir: PathBuf::from(DEFAULT_TRACE_DIR),
        ..ServeConfig::default()
    };
    let mut results_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => cfg.addr = next_str("--addr", &mut it).to_string(),
            "--trace-dir" => cfg.trace_dir = PathBuf::from(next_str("--trace-dir", &mut it)),
            "--results-dir" => {
                results_dir = Some(PathBuf::from(next_str("--results-dir", &mut it)));
            }
            "--workers" => cfg.workers = pos_num("--workers", &mut it) as usize,
            "--queue-depth" => cfg.queue_depth = pos_num("--queue-depth", &mut it) as usize,
            "--prewarm" => cfg.prewarm.extend(
                next_str("--prewarm", &mut it)
                    .split(',')
                    .map(str::to_string),
            ),
            "--trace-budget-bytes" => {
                cfg.trace_budget_bytes = pos_num("--trace-budget-bytes", &mut it);
            }
            "--max-cells" => cfg.max_cells = pos_num("--max-cells", &mut it) as usize,
            "--max-body-bytes" => {
                cfg.max_body_bytes = pos_num("--max-body-bytes", &mut it) as usize;
            }
            "--max-sweeps" => cfg.max_sweeps = pos_num("--max-sweeps", &mut it) as usize,
            "--soft-deadline" => {
                cfg.soft_deadline = Some(parse_deadline(
                    "--soft-deadline",
                    next_str("--soft-deadline", &mut it),
                ));
            }
            "--hard-deadline" => {
                cfg.hard_deadline = Some(parse_deadline(
                    "--hard-deadline",
                    next_str("--hard-deadline", &mut it),
                ));
            }
            other => {
                eprintln!("repro serve: unknown argument {other:?}\n{usage}");
                std::process::exit(2);
            }
        }
    }
    cfg.results_dir = results_dir.unwrap_or_else(|| cfg.trace_dir.join(RESULTS_DIR));
    match ccnuma_serve::run(cfg) {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("serve: {e}");
            std::process::exit(1);
        }
    }
}

/// `repro loadgen`: hammer a running daemon with mixed traffic and
/// print (or write) the `ccnuma-loadgen/1` report.
fn run_loadgen_cmd(args: &[String]) -> ! {
    let usage = "usage: repro loadgen --url HOST:PORT [--concurrency N] \
                 [--duration SECS] [--trace NAME] [--out FILE]";
    let mut url: Option<String> = None;
    let mut concurrency = 4usize;
    let mut duration = Duration::from_secs(5);
    let mut trace: Option<String> = None;
    let mut out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--url" => url = Some(next_str("--url", &mut it).to_string()),
            "--concurrency" => {
                concurrency = match next_str("--concurrency", &mut it).parse() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        eprintln!("--concurrency expects a positive integer");
                        std::process::exit(2);
                    }
                };
            }
            "--duration" => {
                let raw = next_str("--duration", &mut it);
                duration = parse_deadline("--duration", raw.strip_suffix('s').unwrap_or(raw));
            }
            "--trace" => trace = Some(next_str("--trace", &mut it).to_string()),
            "--out" => out = Some(PathBuf::from(next_str("--out", &mut it))),
            other => {
                eprintln!("repro loadgen: unknown argument {other:?}\n{usage}");
                std::process::exit(2);
            }
        }
    }
    let Some(url) = url else {
        eprintln!("repro loadgen: --url is required\n{usage}");
        std::process::exit(2);
    };
    let stripped = url
        .trim_start_matches("http://")
        .trim_end_matches('/')
        .to_string();
    let addr = {
        use std::net::ToSocketAddrs;
        match stripped.to_socket_addrs().ok().and_then(|mut a| a.next()) {
            Some(addr) => addr,
            None => {
                eprintln!("--url: cannot resolve {url:?} (want HOST:PORT)");
                std::process::exit(2);
            }
        }
    };
    let opts = LoadgenOptions {
        addr,
        concurrency,
        duration,
        trace,
    };
    match ccnuma_serve::run_loadgen(&opts) {
        Ok(json) => {
            match &out {
                Some(path) => {
                    if let Err(e) = ccnuma_faults::atomic_write(path, json.as_bytes()) {
                        eprintln!("writing {}: {e}", path.display());
                        std::process::exit(1);
                    }
                    eprintln!("loadgen report -> {}", path.display());
                }
                None => println!("{json}"),
            }
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("loadgen against {url}: {e}");
            std::process::exit(1);
        }
    }
}

/// Parses a `--soft-deadline`/`--hard-deadline` value: positive
/// seconds, fractions allowed.
fn parse_deadline(flag: &str, raw: &str) -> Duration {
    match raw.parse::<f64>() {
        Ok(secs) if secs > 0.0 && secs.is_finite() => Duration::from_secs_f64(secs),
        _ => {
            eprintln!("{flag} expects a positive number of seconds");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("obs") => run_obs_cmd(&args[1..]),
        Some("trace") => run_trace_cmd(&args[1..]),
        Some("sweep") => run_sweep_cmd(&args[1..]),
        Some("serve") => run_serve_cmd(&args[1..]),
        Some("loadgen") => run_loadgen_cmd(&args[1..]),
        _ => {}
    }
    let mut scale = Scale::standard();
    let mut jobs = default_jobs();
    let mut obs_dir: Option<PathBuf> = None;
    let mut profile = false;
    let mut trace_dir: Option<PathBuf> = None;
    let mut resume_dir: Option<PathBuf> = None;
    let mut soft_deadline: Option<Duration> = None;
    let mut hard_deadline: Option<Duration> = None;
    let mut verbosity_flag: Option<Verbosity> = None;
    let mut fault_scenario: Option<FaultScenario> = None;
    let mut chaos_seed: u64 = 0;
    let mut topology: Option<TopologyPreset> = None;
    let mut shards: Option<ShardPlan> = None;
    let mut window_us: Option<u64> = None;
    let mut names: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" => {
                print_list();
                return;
            }
            "--list-faults" => {
                print_fault_list();
                return;
            }
            "--faults" => {
                fault_scenario = match it.next().map(|v| v.parse::<FaultScenario>()) {
                    Some(Ok(sc)) => Some(sc),
                    Some(Err(e)) => {
                        eprintln!("--faults: {e}");
                        std::process::exit(2);
                    }
                    None => {
                        eprintln!("--faults expects a scenario name (see repro --list-faults)");
                        std::process::exit(2);
                    }
                };
            }
            "--chaos-seed" => {
                chaos_seed = match it.next().and_then(|v| v.parse::<u64>().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!("--chaos-seed expects an unsigned integer");
                        std::process::exit(2);
                    }
                };
            }
            "--scale" => {
                let v = it.next().map(String::as_str);
                scale = match v {
                    Some("quick") => Scale::quick(),
                    Some("standard") => Scale::standard(),
                    Some("full") => Scale::full(),
                    other => {
                        eprintln!("--scale expects quick|standard|full, got {other:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--jobs" => {
                jobs = match it.next().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n > 0 => n,
                    _ => {
                        eprintln!("--jobs expects a positive integer");
                        std::process::exit(2);
                    }
                };
            }
            "--topology" => {
                let label = match it.next() {
                    Some(v) => v,
                    None => {
                        eprintln!("--topology expects a preset name");
                        std::process::exit(2);
                    }
                };
                topology = Some(parse_topology("--topology", label));
            }
            "--shards" => shards = Some(parse_shards("--shards", &mut it)),
            "--window-us" => window_us = Some(parse_window("--window-us", &mut it)),
            "--obs-dir" => {
                obs_dir = match it.next() {
                    Some(dir) => Some(PathBuf::from(dir)),
                    None => {
                        eprintln!("--obs-dir expects a directory path");
                        std::process::exit(2);
                    }
                };
            }
            "--profile" => profile = true,
            "--trace-dir" => {
                trace_dir = match it.next() {
                    Some(dir) => Some(PathBuf::from(dir)),
                    None => {
                        eprintln!("--trace-dir expects a directory path");
                        std::process::exit(2);
                    }
                };
            }
            "--resume" => {
                resume_dir = match it.next() {
                    Some(dir) => Some(PathBuf::from(dir)),
                    None => {
                        eprintln!("--resume expects a result store directory path");
                        std::process::exit(2);
                    }
                };
            }
            "--soft-deadline" => {
                let raw = it.next().cloned().unwrap_or_else(|| {
                    eprintln!("--soft-deadline expects a number of seconds");
                    std::process::exit(2);
                });
                soft_deadline = Some(parse_deadline("--soft-deadline", &raw));
            }
            "--hard-deadline" => {
                let raw = it.next().cloned().unwrap_or_else(|| {
                    eprintln!("--hard-deadline expects a number of seconds");
                    std::process::exit(2);
                });
                hard_deadline = Some(parse_deadline("--hard-deadline", &raw));
            }
            "-v" | "--verbose" => verbosity_flag = Some(Verbosity::Verbose),
            "-q" | "--quiet" => verbosity_flag = Some(Verbosity::Quiet),
            "all" => names.extend(experiments::ALL.iter().map(|e| e.name.to_string())),
            name => names.push(name.to_string()),
        }
    }
    let verbosity = Verbosity::resolve(verbosity_flag, std::env::var("CCNUMA_LOG").ok().as_deref());
    if profile && obs_dir.is_none() {
        eprintln!("--profile requires --obs-dir DIR (profiles are artifacts, not stdout)");
        std::process::exit(2);
    }
    if names.is_empty() {
        eprintln!(
            "usage: repro <experiment>... [--scale quick|standard|full] [--jobs N] \
             [--shards N] [--window-us N] [--topology PRESET] [--obs-dir DIR] [--profile] \
             [--trace-dir DIR] [--faults SCENARIO] [--chaos-seed N] [--resume DIR] \
             [--soft-deadline SECS] [--hard-deadline SECS] [-v|-q]"
        );
        eprintln!("       repro all | repro obs report | repro trace | repro sweep");
        eprintln!("       repro serve | repro loadgen");
        eprintln!("       repro --list | repro --list-faults");
        std::process::exit(2);
    }

    // Resolve names to experiments, deduplicating (aliases and repeats
    // collapse onto the canonical entry, keeping first-request order) and
    // collecting unknown names instead of aborting on the first one.
    let mut selected: Vec<&experiments::Experiment> = Vec::new();
    let mut unknown: Vec<String> = Vec::new();
    for name in &names {
        match experiments::find(name) {
            Some(exp) => {
                if !selected.iter().any(|e| e.name == exp.name) {
                    selected.push(exp);
                }
            }
            None => {
                if !unknown.contains(name) {
                    unknown.push(name.clone());
                }
            }
        }
    }
    for name in &unknown {
        eprintln!("unknown experiment '{name}' (see repro --list); skipping");
    }

    let start = Instant::now();
    let mut plan = RunPlan::new();
    for exp in &selected {
        plan.extend((exp.plan)(scale));
    }
    let fault_spec = fault_scenario.map(|scenario| FaultSpec {
        scenario,
        chaos_seed,
    });
    let mut exec = Executor::new(jobs).with_verbosity(verbosity);
    if let Some(preset) = topology {
        exec = exec.with_topology(preset);
    }
    if let Some(plan) = shards {
        exec = exec.with_shards(plan);
    }
    if window_us.is_some() {
        exec = exec.with_window_us(window_us);
    }
    if let Some(dir) = &obs_dir {
        exec = exec.with_obs_dir(dir.clone());
    }
    if profile {
        exec = exec.with_profiling();
    }
    if let Some(dir) = &trace_dir {
        exec = exec.with_trace_store(open_store(dir));
    }
    if let Some(faults) = fault_spec {
        exec = exec.with_faults(faults);
    }
    if soft_deadline.is_some() || hard_deadline.is_some() {
        exec = exec.with_deadlines(soft_deadline, hard_deadline);
    }
    if let Some(dir) = &resume_dir {
        exec = exec.with_resume(dir).unwrap_or_else(|e| {
            eprintln!("opening result store {}: {e}", dir.display());
            std::process::exit(1);
        });
    }
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
    if let Some(dir) = &obs_dir {
        match exec.write_run_metadata(dir, wall) {
            Ok(path) => {
                if verbosity.normal() {
                    eprintln!("obs artifacts in {}", path.parent().unwrap().display());
                }
            }
            Err(e) => {
                eprintln!("writing {}/run-metadata.json: {e}", dir.display());
                std::process::exit(1);
            }
        }
        match exec.write_invocation_profile(dir) {
            Ok(Some(path)) => {
                if verbosity.normal() {
                    eprintln!("invocation profile -> {}", path.display());
                }
            }
            Ok(None) => {}
            Err(e) => {
                eprintln!("writing {}/profile.json: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }
    if verbosity.verbose() {
        eprintln!("-- repro summary --");
        for t in exec.timings() {
            eprintln!("  {:>8.2}s  {}", t.wall.as_secs_f64(), t.label);
        }
    }
    if verbosity.normal() {
        let failed = if stats.failed > 0 {
            format!(", {} FAILED", stats.failed)
        } else {
            String::new()
        };
        let store_hits = if stats.store_hits > 0 {
            format!(", {} trace-store hit(s)", stats.store_hits)
        } else {
            String::new()
        };
        let resumed = if stats.resumed > 0 {
            format!(", {} resumed from checkpoint", stats.resumed)
        } else {
            String::new()
        };
        // Byte footprints ride along with the hit counts whenever a
        // store is in play, so capacity pressure is visible from the
        // same line operators already watch.
        let footprints = trace_dir.as_ref().map_or(String::new(), |dir| {
            let mut s = String::new();
            if let Ok(listing) = StoreListing::scan(&open_store(dir)) {
                s.push_str(&format!(
                    ", trace store {} B in {} trace(s)",
                    listing.total_bytes,
                    listing.entries.len()
                ));
            }
            let results = dir.join(RESULTS_DIR);
            if results.is_dir() {
                if let Ok(cache) = ResultCache::new(&results) {
                    let (n, b) = cache.footprint();
                    s.push_str(&format!(", result cache {b} B in {n} result(s)"));
                }
            }
            s
        });
        eprintln!(
            "{} experiment(s), {} distinct run(s) computed, {} cache hit(s){}{}{}{}, jobs={}, wall {:.2}s",
            selected.len(),
            stats.computed,
            stats.hits,
            store_hits,
            resumed,
            footprints,
            failed,
            stats.jobs,
            wall.as_secs_f64()
        );
    }
    if !unknown.is_empty() {
        std::process::exit(2);
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
