//! `sim-suite`: the complete `repro all --scale quick` plan, executed
//! through `Executor` with one job and one shard, then every
//! experiment's `render`.
//!
//! Renderers build their own specs with the catalog's seeds, and the
//! public API has no seed override for them. So each pass executes the
//! seeded plan on a fresh executor. At the default seed that plan is the
//! catalog's, and the pass renders its own executor, whose stdout must
//! equal the quick golden byte for byte. At any other seed the renders
//! read a catalog-seed executor that set-up executed, and every pass's
//! reports must equal the first pass's.

use crate::probes::{self, MachineRun};
use crate::stats::{median, peak_rss_mb, percentile, secs};
use crate::{Ctx, Report};
use ccnuma_bench::experiments::ALL;
use ccnuma_bench::{traced_ft_spec, Executor, RunPlan};
use ccnuma_obs::{artifact_slug, Verbosity};
use ccnuma_workloads::{Scale, WorkloadKind};
use std::collections::HashMap;
use std::time::Instant;

const GOLDEN: &str = "crates/bench/tests/golden_repro_all_quick.stdout";
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 2;
/// Jobs of the set-up's catalog executor. Set-up is not the timed
/// work, so it uses both vCPUs and leaves the passes more of the run.
const SETUP_JOBS: usize = 2;

struct Planned {
    catalog: RunPlan,
    seeded: RunPlan,
    /// Per seeded spec: its artifact slug (which keys `Executor::timings`)
    /// and the references its run retires.
    slugs: Vec<String>,
    refs: Vec<u64>,
}

/// Set-up: the union plan of every experiment, re-seeded.
fn plan(seed: u64) -> Planned {
    let mut catalog = RunPlan::new();
    for e in ALL {
        catalog.extend((e.plan)(Scale::quick()));
    }
    let mut seeded = RunPlan::new();
    seeded.extend(
        catalog
            .specs()
            .iter()
            .map(|s| probes::reseed(s.clone(), seed)),
    );
    let specs = seeded.specs();
    Planned {
        slugs: specs
            .iter()
            .map(|s| artifact_slug(&s.describe(), &s.cache_key()))
            .collect(),
        refs: specs
            .iter()
            .map(|s| s.build_workload().total_refs)
            .collect(),
        catalog,
        seeded,
    }
}

fn executor(jobs: usize) -> Executor {
    Executor::new(jobs).with_verbosity(Verbosity::Quiet)
}

/// Every experiment's render, concatenated exactly as `repro all`
/// prints them, with each render's time in seconds.
fn render_all(ctx: &Ctx, exec: &Executor) -> (String, Vec<f64>) {
    ctx.tracer.time("bench", "render", None, |p| {
        let mut out = String::new();
        let mut times = Vec::with_capacity(ALL.len());
        for e in ALL {
            ctx.tracer.time("bench", e.name, p, |_| {
                let t = Instant::now();
                out.push_str(&(e.render)(Scale::quick(), exec));
                times.push(secs(t));
                out.push('\n');
            });
        }
        (out, times)
    })
}

/// One pass: execute the seeded plan on a fresh executor, then render.
struct Pass {
    exec: Executor,
    /// Each planned run's simulation time from `Executor::timings`, in
    /// seconds (`None` if it failed).
    run_s: Vec<Option<f64>>,
    /// Each experiment's render time, seconds.
    render_s: Vec<f64>,
    execute_s: f64,
    render_hits: u64,
    output: String,
}

impl Pass {
    fn wall(&self) -> f64 {
        self.execute_s + self.render_s.iter().sum::<f64>()
    }
}

/// `catalog` is the executor to render at non-default seeds.
fn pass(ctx: &Ctx, planned: &Planned, catalog: Option<&Executor>) -> Pass {
    let exec = executor(1);
    let t0 = Instant::now();
    // `Executor::execute` with one job is this loop: `try_run` per spec.
    ctx.tracer.time("bench", "execute", None, |p| {
        for spec in planned.seeded.specs() {
            ctx.tracer.time("machine", "run", p, |_| {
                let _ = exec.try_run(spec);
            });
        }
    });
    let execute_s = secs(t0);
    let walls: HashMap<String, f64> = exec
        .timings()
        .into_iter()
        .map(|t| (t.slug, t.wall.as_secs_f64()))
        .collect();
    let run_s = planned
        .slugs
        .iter()
        .map(|s| walls.get(s).copied())
        .collect();
    let renderer = catalog.unwrap_or(&exec);
    let hits0 = renderer.stats().hits;
    let (output, render_s) = render_all(ctx, renderer);
    let render_hits = renderer.stats().hits - hits0;
    Pass {
        exec,
        run_s,
        render_s,
        execute_s,
        render_hits,
        output,
    }
}

/// Correctness gates of one pass: the golden stdout, no failed run, the
/// accounting identity on every report, and the same simulated
/// statistics as the run's first pass.
fn check(
    rep: &mut Report,
    planned: &Planned,
    p: &Pass,
    golden: &str,
    first: &mut Option<Vec<[u64; 10]>>,
) {
    rep.ops(planned.seeded.len() as u64 + ALL.len() as u64);
    rep.gate(p.output == golden, || {
        format!("sim-suite: rendered stdout differs from {GOLDEN}")
    });
    for f in p.exec.failures() {
        rep.fail(format!("sim-suite: run {} failed: {}", f.label, f.error));
    }
    let mut stats = Vec::with_capacity(planned.seeded.len());
    for spec in planned.seeded.specs() {
        match p.exec.try_run(spec) {
            Ok(r) => {
                probes::check_accounting(rep, &r);
                stats.push(probes::sim_stats(&r));
            }
            Err(_) => stats.push([0; 10]),
        }
    }
    let want = first.get_or_insert_with(|| stats.clone());
    rep.gate(*want == stats, || {
        "sim-suite: a pass's reports differ from the first pass's".into()
    });
}

pub fn run(ctx: &Ctx) -> Report {
    let mut rep = Report::default();
    let golden = std::fs::read_to_string(GOLDEN).expect("reading the quick golden");

    // Set-up: the plan, and the catalog-seed executor (rendered at
    // non-default seeds, executed at every seed so set-up is the same
    // work whatever the seed).
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        drop(ready.take());
        let t = Instant::now();
        let planned = plan(ctx.seed);
        let catalog = executor(SETUP_JOBS);
        catalog.execute(&planned.catalog);
        setups.push(secs(t));
        ready = Some((planned, catalog));
    }
    let (planned, catalog) = ready.expect("at least one set-up");
    for spec in planned.catalog.specs() {
        match catalog.try_run(spec) {
            Ok(r) => probes::check_accounting(&mut rep, &r),
            Err(f) => rep.fail(format!(
                "sim-suite: catalog run {} failed: {}",
                f.label, f.error
            )),
        }
    }
    let renderer = (!ctx.is_default_seed()).then_some(&catalog);
    let mut first = None;

    if ctx.traced {
        ctx.tracer.set(false);
        let untraced = pass(ctx, &planned, renderer);
        check(&mut rep, &planned, &untraced, &golden, &mut first);
        let untraced_wall = untraced.wall();
        drop(untraced);
        ctx.tracer.set(true);
        let p = pass(ctx, &planned, renderer);
        ctx.tracer.set(false);
        check(&mut rep, &planned, &p, &golden, &mut first);
        let mut runs = Vec::new();
        let mut reports = Vec::new();
        for ((spec, &refs), s) in planned
            .seeded
            .specs()
            .iter()
            .zip(&planned.refs)
            .zip(&p.run_s)
        {
            if let (Ok(r), Some(&run_s)) = (p.exec.try_run(spec), s.as_ref()) {
                runs.push(MachineRun {
                    kind: probes::kind_key(&r.workload),
                    secs: run_s,
                    refs,
                });
                reports.push(r);
            }
        }
        probes::machine_metrics(&mut rep, &runs, reports.iter().map(|r| &**r), ctx.seed);
        let machine_s: f64 = runs.iter().map(|r| r.secs).sum();
        probes::gen_metrics(&mut rep, planned.seeded.specs(), machine_s);
        rep.metric(
            "bench.cache_hit_ratio",
            p.render_hits as f64 / (p.render_hits + planned.seeded.len() as u64) as f64,
            "ratio",
        );
        let spec = probes::reseed(
            traced_ft_spec(WorkloadKind::Engineering, Scale::quick()),
            ctx.seed,
        );
        let tr = p.exec.traced(&spec);
        probes::codec_probes(
            &mut rep,
            tr.trace().as_slice(),
            tr.nodes(),
            tr.other_time(),
            &ctx.fresh_dir("probes"),
        );
        let overhead = 100.0 * (p.wall() - untraced_wall) / untraced_wall;
        crate::finish_trace(ctx, &mut rep, "sim-suite", p.wall(), overhead, None);
        return rep;
    }

    // Passes until `--seconds` is spent. Each run and each render is
    // taken at its fastest repetition across the passes, so a burst of
    // interference costs only the steps it overlapped.
    let start = Instant::now();
    let mut best_run = vec![f64::INFINITY; planned.seeded.len()];
    let mut best_render = vec![f64::INFINITY; ALL.len()];
    loop {
        let p = pass(ctx, &planned, renderer);
        check(&mut rep, &planned, &p, &golden, &mut first);
        eprintln!(
            "sim-suite: pass execute {:.4}s render {:.4}s",
            p.execute_s,
            p.render_s.iter().sum::<f64>()
        );
        for (best, s) in best_run.iter_mut().zip(&p.run_s) {
            *best = best.min(s.unwrap_or(f64::INFINITY));
        }
        for (best, &s) in best_render.iter_mut().zip(&p.render_s) {
            *best = best.min(s);
        }
        if secs(start) >= ctx.seconds {
            break;
        }
    }
    let execute_s: f64 = best_run.iter().sum();
    let run_ms: Vec<f64> = best_run.iter().map(|s| 1e3 * s).collect();
    rep.metric("setup_s", median(&setups), "s");
    rep.metric("wall_s", execute_s + best_render.iter().sum::<f64>(), "s");
    rep.metric(
        "throughput",
        planned.refs.iter().sum::<u64>() as f64 / execute_s,
        "1/s",
    );
    rep.metric("op_p50_ms", percentile(&run_ms, 50.0), "ms");
    rep.metric("op_p90_ms", percentile(&run_ms, 90.0), "ms");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    rep
}
