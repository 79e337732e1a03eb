//! `sweep-grid`: the reference grid (`SweepSpec::default_grid()` widened
//! to all six policies: 24 cells, 15 unique replays, 16 trace passes)
//! streamed with one job from a fresh on-disk `TraceStore` holding a
//! Raytrace first-touch trace at an eighth of standard scale.
//!
//! The machine runs only in set-up (the capture), so `polsim` replay and
//! the `tracestore` decoder are what a timed pass measures.

use crate::probes::{self, MachineRun};
use crate::spans::{SpanId, Tracer};
use crate::stats::{fnv64, median, peak_rss_mb, percentile, secs};
use crate::{Ctx, Report};
use ccnuma_bench::{traced_ft_spec, Executor};
use ccnuma_machine::RunReport;
use ccnuma_obs::Verbosity;
use ccnuma_tracestore::{run_sweep, StoreError, SweepPolicy, SweepReport, SweepSpec, TraceStore};
use ccnuma_types::Ns;
use ccnuma_workloads::{Scale, WorkloadKind};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The captured run's length: an eighth of `Scale::standard()`, so a
/// sweep is short enough to repeat many times within a run.
const TRACE_SCALE: Scale = Scale {
    refs_per_cpu: 100_000,
};
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Jobs the sweep runs with. One: the passes then run in a fixed order,
/// and a second thread would time the host's scheduler as much as the
/// replay.
const JOBS: usize = 1;
/// FNV-1a 64 of the default-seed `ccnuma-sweep/2` document.
const DEFAULT_DIGEST: u64 = 0x9a7a_7d6c_13e1_2554;

fn grid() -> SweepSpec {
    SweepSpec {
        policies: SweepPolicy::ALL.to_vec(),
        ..SweepSpec::default_grid()
    }
}

/// A captured trace in a fresh store.
struct Captured {
    store: TraceStore,
    slug: String,
    label: String,
    nodes: u16,
    other: Ns,
    records: u64,
    report: Arc<RunReport>,
    machine: MachineRun,
}

/// Set-up: capture the trace through the executor's capture-once path
/// (machine run, v2 encode, save) into a fresh store.
fn capture(ctx: &Ctx) -> (Captured, f64) {
    let spec = probes::reseed(traced_ft_spec(WorkloadKind::Raytrace, TRACE_SCALE), ctx.seed);
    let t = Instant::now();
    let store = TraceStore::new(ctx.fresh_dir("sweep-store")).expect("trace store");
    let exec = Executor::serial()
        .with_verbosity(Verbosity::Quiet)
        .with_trace_store(store.clone());
    let tr = exec.traced(&spec);
    let setup_s = secs(t);
    let report = Arc::clone(tr.report().expect("a fresh store captures"));
    let captured = Captured {
        slug: exec.trace_slug(&spec),
        label: spec.describe(),
        nodes: tr.nodes(),
        other: tr.other_time(),
        records: tr.trace().len() as u64,
        machine: MachineRun {
            kind: probes::kind_key(&report.workload),
            secs: exec.timings()[0].wall.as_secs_f64(),
            refs: spec.build_workload().total_refs,
        },
        report,
        store,
    };
    (captured, setup_s)
}

/// Ends a pass's span and records its latency when the stream runs dry.
struct TimedPass<'a, I> {
    inner: I,
    start: Instant,
    lat_ms: &'a Mutex<Vec<f64>>,
    tracer: &'a Tracer,
    span: SpanId,
    done: bool,
}

impl<I: Iterator> Iterator for TimedPass<'_, I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let item = self.inner.next();
        if item.is_none() && !self.done {
            self.done = true;
            self.tracer.close(self.span);
            self.lat_ms
                .lock()
                .expect("latency list lock poisoned")
                .push(1e3 * secs(self.start));
        }
        item
    }
}

/// One sweep; returns the report, its wall and the per-pass latencies.
fn sweep(ctx: &Ctx, cap: &Captured) -> (Result<SweepReport, StoreError>, f64, Vec<f64>) {
    let lat_ms = Mutex::new(Vec::new());
    let t = Instant::now();
    let report = ctx.tracer.time("tracestore", "run_sweep", None, |parent| {
        let open = || {
            let start = Instant::now();
            let span = ctx.tracer.open("polsim", "pass", parent);
            cap.store.open(&cap.slug).map(|(reader, _)| TimedPass {
                inner: reader,
                start,
                lat_ms: &lat_ms,
                tracer: &ctx.tracer,
                span,
                done: false,
            })
        };
        run_sweep(&grid(), cap.nodes, cap.other, JOBS, open)
    });
    let wall = secs(t);
    (
        report,
        wall,
        lat_ms.into_inner().expect("latency list lock poisoned"),
    )
}

/// Gates one sweep: shape, and the digest (recorded at the default seed,
/// the first pass's otherwise).
fn check(
    rep: &mut Report,
    cap: &Captured,
    r: &Result<SweepReport, StoreError>,
    expect: &mut Option<u64>,
) {
    rep.ops(grid().len() as u64);
    let r = match r {
        Ok(r) => r,
        Err(e) => {
            rep.fail(format!("sweep-grid: sweep failed: {e}"));
            return;
        }
    };
    rep.gate(
        r.cells.len() == 24 && r.unique_replays == 15 && r.records == cap.records,
        || {
            format!(
                "sweep-grid: shape {} cells, {} replays, {} records",
                r.cells.len(),
                r.unique_replays,
                r.records
            )
        },
    );
    let digest = fnv64(r.to_json(&cap.label).as_bytes());
    eprintln!("sweep-grid: report digest {digest:#018x}");
    let want = *expect.get_or_insert(digest);
    rep.gate(digest == want, || {
        format!("sweep-grid: digest {digest:#018x} != {want:#018x}")
    });
}

/// One set-up: captures, records its time, and checks the run's accounting.
fn set_up(ctx: &Ctx, rep: &mut Report, setups: &mut Vec<f64>) -> Captured {
    let (cap, s) = capture(ctx);
    eprintln!("sweep-grid: set-up {s:.4}s");
    setups.push(s);
    probes::check_accounting(rep, &cap.report);
    cap
}

pub fn run(ctx: &Ctx) -> Report {
    let mut rep = Report::default();
    let mut setups = Vec::new();
    let start = Instant::now();
    let mut cap = set_up(ctx, &mut rep, &mut setups);
    let mut expect = ctx.is_default_seed().then_some(DEFAULT_DIGEST);

    if ctx.traced {
        ctx.tracer.set(false);
        let (r, untraced_wall, _) = sweep(ctx, &cap);
        check(&mut rep, &cap, &r, &mut expect);
        ctx.tracer.set(true);
        let (r, wall, lat_ms) = sweep(ctx, &cap);
        check(&mut rep, &cap, &r, &mut expect);
        ctx.tracer.set(false);
        let passes = lat_ms.len();
        let decode_s = {
            let t = Instant::now();
            let (reader, _) = cap.store.open(&cap.slug).expect("stored trace opens");
            let mut n = 0u64;
            for rec in reader {
                rec.expect("stored trace decodes");
                n += 1;
            }
            assert_eq!(n, cap.records);
            secs(t)
        };
        let pass_s: f64 = lat_ms.iter().sum::<f64>() / 1e3;
        let decode_share = decode_s * passes as f64 / pass_s;
        rep.metric("tracestore.decode_share", 100.0 * decode_share, "%");
        rep.metric("tracestore.sweep_passes", passes as f64, "count");
        if let Ok(r) = &r {
            rep.metric(
                "tracestore.sweep_unique_replays",
                r.unique_replays as f64,
                "count",
            );
        }
        let spec = probes::reseed(traced_ft_spec(WorkloadKind::Raytrace, TRACE_SCALE), ctx.seed);
        probes::machine_metrics(
            &mut rep,
            std::slice::from_ref(&cap.machine),
            std::iter::once(&*cap.report),
            ctx.seed,
        );
        probes::gen_metrics(&mut rep, &[spec], cap.machine.secs);
        let trace = cap.report.trace.as_ref().expect("traced run");
        probes::codec_probes(
            &mut rep,
            trace.as_slice(),
            cap.nodes,
            cap.other,
            &ctx.fresh_dir("probes"),
        );
        crate::finish_trace(
            ctx,
            &mut rep,
            "sweep-grid",
            wall,
            100.0 * (wall - untraced_wall) / untraced_wall,
            Some(("polsim", "tracestore", decode_share)),
        );
        return rep;
    }

    // Sweeps until `--seconds` is spent. With one job a sweep makes its
    // passes in the same order every time, so each pass is taken at its
    // fastest across the sweeps, and the wall is the sum of those. The
    // set-ups are spread evenly over the run, between sweeps, so that
    // their median samples the host across the whole run, not only its
    // first seconds; each later sweep reads the newest capture. The peak
    // RSS is read after the first capture and sweep: a later capture can
    // land beside pages the allocator kept from the sweeps, which adds
    // about 17 MB in some runs and not in others.
    let mut pass_ms: Vec<f64> = Vec::new();
    let mut peak_mb = None;
    loop {
        let due = 1 + (SETUPS as f64 * secs(start) / ctx.seconds) as usize;
        if !pass_ms.is_empty() && setups.len() < due.min(SETUPS) {
            drop(cap); // one capture resident at a time
            cap = set_up(ctx, &mut rep, &mut setups);
        }
        let (r, wall, lat) = sweep(ctx, &cap);
        check(&mut rep, &cap, &r, &mut expect);
        eprintln!("sweep-grid: sweep {wall:.4}s");
        peak_mb.get_or_insert_with(peak_rss_mb);
        if pass_ms.is_empty() {
            pass_ms = lat;
        } else {
            rep.gate(lat.len() == pass_ms.len(), || {
                format!("sweep-grid: {} passes, not {}", lat.len(), pass_ms.len())
            });
            pass_ms
                .iter_mut()
                .zip(lat)
                .for_each(|(best, l)| *best = best.min(l));
        }
        if secs(start) >= ctx.seconds && setups.len() == SETUPS {
            break;
        }
    }
    let wall = pass_ms.iter().sum::<f64>() / 1e3;
    rep.metric("setup_s", median(&setups), "s");
    rep.metric("wall_s", wall, "s");
    rep.metric(
        "throughput",
        pass_ms.len() as f64 * cap.records as f64 / wall,
        "1/s",
    );
    rep.metric("op_p50_ms", percentile(&pass_ms, 50.0), "ms");
    rep.metric("op_p90_ms", percentile(&pass_ms, 90.0), "ms");
    rep.metric("peak_rss_mb", peak_mb.expect("at least one sweep"), "MB");
    rep
}
