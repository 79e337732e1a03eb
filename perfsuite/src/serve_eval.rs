//! `serve-eval`: an in-process daemon (`ccnuma_serve::start`, two
//! workers) over the quick Engineering first-touch trace, prewarmed,
//! with a fresh trace store and result-cache directory per set-up.
//!
//! One client process drives it with at most two threads and two
//! connections, in rounds of three phases:
//! * a mixed open loop: a warm stream of evals of cells primed during
//!   set-up (memo reads through the HTTP layer) beside a cold stream of
//!   distinct, never-seen cells (a full replay plus a `ResultCache`
//!   write each), both on fixed seeded schedules and timed from each
//!   request's scheduled send time;
//! * closed-loop warm evals over one connection (the request rate);
//! * a closed-loop batch of distinct cold cells over one connection.
//!
//! The end-to-end latency and rate come from the closed-loop phases.
//! They keep one worker busy at a time and run with the whole process
//! on one vCPU (see `affinity`), so what they measure does not hinge on
//! how the scheduler places the client and the worker. The open loop's
//! warm and cold latencies are per-layer metrics.
//!
//! The traced run adds a warm-only open-loop rate ladder, giving the
//! highest rate whose p99 stays within the latency limit.

use crate::affinity::{self, CpuSet};
use crate::probes::{self, MachineRun};
use crate::stats::{fastest, median, peak_rss_mb, percentile, secs};
use crate::{Ctx, Report};
use ccnuma_bench::{traced_ft_spec, Executor};
use ccnuma_machine::RunReport;
use ccnuma_obs::Verbosity;
use ccnuma_polsim::TraceFilter;
use ccnuma_serve::{HttpClient, ServeConfig, ServerHandle};
use ccnuma_tracestore::{cell_payload, eval_cell, CellParams, SweepPolicy};
use ccnuma_types::{Ns, TopologyPreset};
use ccnuma_workloads::{Scale, WorkloadKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
const WORKERS: usize = 2;
const WARM_CELLS: usize = 6;
/// Rounds per run, and each phase's share of a round.
const ROUNDS: usize = 12;
const MIX_SHARE: f64 = 0.5;
const CLOSED_SHARE: f64 = 0.25;
/// Open-loop rates of the mixed phase, requests per second: warm at
/// under a tenth of what one unpinned connection sustains closed-loop
/// (about 18,000/s), cold at a fifth of one worker's time given a
/// replay of about 20 ms.
const WARM_RPS: f64 = 1000.0;
const COLD_RPS: f64 = 10.0;
/// Warm-only ladder steps of the traced run, requests per second across
/// both connections, and their share of `--seconds`.
const LADDER_RPS: [f64; 8] = [
    2000.0, 4000.0, 6000.0, 8000.0, 10000.0, 12000.0, 14000.0, 16000.0,
];
const LADDER_SHARE: f64 = 0.2;
/// The latency limit a ladder step's warm p99 must meet, microseconds.
const LIMIT_P99_US: f64 = 1000.0;
/// Consecutive closed-loop warm requests whose latency percentiles are
/// taken together: tens of milliseconds of load, so the fastest such
/// stretch is picked from hundreds per run.
const CHUNK: usize = 1000;
/// Distinct cold cells per closed-loop batch.
const BATCH_CELLS: usize = 8;
const TIMEOUT: Duration = Duration::from_secs(10);

/// The six warm cells: every policy at the default parameters.
fn warm_cells() -> [CellParams; WARM_CELLS] {
    SweepPolicy::ALL.map(|policy| CellParams {
        policy,
        ..probes::probe_cell()
    })
}

/// `count` distinct never-primed cells drawn from the seed: Mig/Rep
/// replays at the default trigger, with the seed choosing the latency
/// and move-cost constants. Those only price the policy's decisions, so
/// every cold eval is a full replay of the same work whatever the seed.
fn cold_cells(seed: u64, count: usize) -> Vec<CellParams> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut seen: HashSet<String> = warm_cells().iter().map(CellParams::memo_key).collect();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let cell = CellParams {
            policy: SweepPolicy::MigRep,
            trigger: probes::probe_cell().trigger,
            sample: 1,
            remote_ns: rng.gen_range(1000..1400),
            move_us: rng.gen_range(100..1000),
            topology: TopologyPreset::Flat,
        };
        if seen.insert(cell.memo_key()) {
            out.push(cell);
        }
    }
    out
}

fn eval_body(slug: &str, c: &CellParams) -> String {
    format!(
        "{{\"trace\":\"{slug}\",\"policy\":\"{}\",\"trigger\":{},\"sample_rate\":{},\"remote_latency_ns\":{},\"move_cost_us\":{}}}",
        c.policy, c.trigger, c.sample, c.remote_ns, c.move_us
    )
}

/// A started, primed daemon.
struct Daemon {
    handle: ServerHandle,
    slug: String,
    nodes: u16,
    other: Ns,
    report: Arc<RunReport>,
    machine: MachineRun,
    /// Response bodies of the warm cells, as primed.
    warm: Vec<String>,
}

/// Set-up: capture and save the trace into a fresh store, start the
/// daemon on a fresh result cache with the trace prewarmed, prime the
/// warm cells, and close the priming connection (an idle keep-alive
/// connection would pin a worker until its read timeout).
fn setup(ctx: &Ctx, rep: &mut Report) -> Daemon {
    let dir = ctx.fresh_dir("serve");
    let store = ccnuma_tracestore::TraceStore::new(dir.join("traces")).expect("trace store");
    let exec = Executor::serial()
        .with_verbosity(Verbosity::Quiet)
        .with_trace_store(store);
    let spec = probes::reseed(
        traced_ft_spec(WorkloadKind::Engineering, Scale::quick()),
        ctx.seed,
    );
    let tr = exec.traced(&spec);
    let slug = exec.trace_slug(&spec);
    let report = Arc::clone(tr.report().expect("a fresh store captures"));
    let handle = ccnuma_serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        trace_dir: dir.join("traces"),
        results_dir: dir.join("results"),
        workers: WORKERS,
        prewarm: vec![slug.clone()],
        ..ServeConfig::default()
    })
    .expect("starting the daemon");
    let mut client = HttpClient::connect(handle.addr(), TIMEOUT).expect("priming connection");
    let mut warm = Vec::new();
    for cell in warm_cells() {
        rep.ops(1);
        match client.request("POST", "/v1/eval", Some(&eval_body(&slug, &cell))) {
            Ok(r) if r.status == 200 => warm.push(r.text()),
            Ok(r) => rep.fail(format!(
                "serve-eval: priming {}: status {}",
                cell.memo_key(),
                r.status
            )),
            Err(e) => rep.fail(format!("serve-eval: priming {}: {e}", cell.memo_key())),
        }
    }
    drop(client);
    Daemon {
        machine: MachineRun {
            kind: probes::kind_key(&report.workload),
            secs: exec.timings()[0].wall.as_secs_f64(),
            refs: spec.build_workload().total_refs,
        },
        nodes: tr.nodes(),
        other: tr.other_time(),
        report,
        handle,
        slug,
        warm,
    }
}

/// One response as the client saw it.
struct Reply {
    /// Index into the stream's request list.
    index: usize,
    status: u16,
    hit: bool,
    /// The body, kept for cold replies (checked once timing is over).
    body: String,
    /// Whether the body equals the expected one, for streams that have
    /// one (warm replies, whose bodies are dropped at once).
    matches: bool,
}

/// What one stream of requests observed.
#[derive(Default)]
struct Stream {
    /// Latency of each reply, microseconds: from the scheduled send time
    /// in an open loop, from the send in a closed one.
    lat_us: Vec<f64>,
    /// How late each open-loop request was sent, microseconds.
    late_us: Vec<f64>,
    /// Most scheduled-but-unsent requests at any send.
    backlog_max: usize,
    transport_errors: u64,
    replies: Vec<Reply>,
    /// From the stream's start to each reply, seconds.
    done_s: Vec<f64>,
}

impl Stream {
    /// From the stream's start to its last reply, seconds.
    fn span_s(&self) -> f64 {
        self.done_s.last().copied().unwrap_or(0.0)
    }

    /// Latency p50 and p90 (ms) and the request rate of each run of
    /// `CHUNK` consecutive replies of a closed loop.
    fn chunks(&self) -> Vec<Chunk> {
        self.lat_us
            .chunks_exact(CHUNK)
            .enumerate()
            .map(|(k, lat)| {
                let from = if k == 0 {
                    0.0
                } else {
                    self.done_s[k * CHUNK - 1]
                };
                Chunk {
                    p50_ms: percentile(lat, 50.0) / 1e3,
                    p90_ms: percentile(lat, 90.0) / 1e3,
                    rps: CHUNK as f64 / (self.done_s[(k + 1) * CHUNK - 1] - from),
                }
            })
            .collect()
    }
}

/// One run of `CHUNK` consecutive closed-loop warm requests.
struct Chunk {
    p50_ms: f64,
    p90_ms: f64,
    rps: f64,
}

static REQ_ID: AtomicU64 = AtomicU64::new(0);

/// Sends `bodies[i]` over one connection: in an open loop at
/// `start + offsets[i]` (timed from that scheduled time), or with no
/// offsets back to back until `deadline` (cycling through `bodies`) or
/// once through `bodies`. With `expect`, each reply body is compared
/// with `expect[i]` (cycling) and dropped.
fn drive(
    ctx: &Ctx,
    addr: SocketAddr,
    start: Instant,
    offsets: Option<&[Duration]>,
    bodies: &[String],
    deadline: Option<Instant>,
    expect: Option<&[String]>,
) -> Stream {
    let mut s = Stream::default();
    let mut client = HttpClient::connect(addr, TIMEOUT).ok();
    let stream_span = ctx
        .tracer
        .open_at("loadgen", "stream", None, None, Some(start));
    let mut unsent_from = 0;
    for i in 0.. {
        let due = match (offsets, deadline) {
            (Some(at), _) if i < at.len() => start + at[i],
            (None, Some(end)) if Instant::now() < end => Instant::now(),
            (None, None) if i < bodies.len() => Instant::now(),
            _ => break,
        };
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        if let Some(at) = offsets {
            s.late_us
                .push(1e6 * sent.saturating_duration_since(due).as_secs_f64());
            unsent_from = unsent_from.max(i);
            while unsent_from < at.len() && start + at[unsent_from] <= sent {
                unsent_from += 1;
            }
            s.backlog_max = s.backlog_max.max(unsent_from - i);
        }
        let span = ctx.tracer.open_at(
            "serve",
            "eval",
            stream_span,
            Some(REQ_ID.fetch_add(1, Ordering::Relaxed)),
            None,
        );
        let result = match client.as_mut() {
            Some(c) => c.request("POST", "/v1/eval", Some(&bodies[i % bodies.len()])),
            None => Err(std::io::Error::other("not connected")),
        };
        ctx.tracer.close(span);
        match result {
            Ok(r) => {
                s.lat_us.push(1e6 * secs(due));
                s.done_s.push(secs(start));
                let (body, matches) = match expect {
                    Some(want) => (String::new(), r.body == want[i % want.len()].as_bytes()),
                    None => (r.text(), true),
                };
                s.replies.push(Reply {
                    index: i,
                    status: r.status,
                    hit: r.header("x-cache") == Some("hit"),
                    body,
                    matches,
                });
            }
            Err(_) => {
                s.transport_errors += 1;
                client = HttpClient::connect(addr, TIMEOUT).ok();
            }
        }
    }
    ctx.tracer.close(stream_span);
    s
}

/// Runs `a` on a second thread and `b` on this one.
fn both<A: Send, B>(a: impl FnOnce() -> A + Send, b: impl FnOnce() -> B) -> (A, B) {
    std::thread::scope(|s| {
        let h = s.spawn(a);
        let rb = b();
        (h.join().expect("client thread"), rb)
    })
}

/// A seeded schedule of `n` sends at `rps`: one per interval, each
/// jittered within the first half of its interval.
fn schedule(rng: &mut SmallRng, n: usize, rps: f64) -> Vec<Duration> {
    let interval = 1.0 / rps;
    (0..n)
        .map(|i| Duration::from_secs_f64(interval * (i as f64 + rng.gen_range(0.0..0.5))))
        .collect()
}

/// Checks a warm stream: every reply a 200 memo hit whose body is the
/// primed one.
fn check_warm(rep: &mut Report, s: &Stream) {
    rep.ops(s.lat_us.len() as u64 + s.transport_errors);
    for _ in 0..s.transport_errors {
        rep.fail("serve-eval: warm transport error".into());
    }
    for r in &s.replies {
        let ok = r.status == 200 && r.hit && r.matches;
        rep.gate(ok, || {
            format!(
                "serve-eval: warm reply {} status {} hit {}",
                r.index, r.status, r.hit
            )
        });
    }
}

/// Checks cold replies' status and cache header; their payloads are
/// checked against direct replays once timing is over.
fn check_cold(rep: &mut Report, s: &Stream) {
    rep.ops(s.lat_us.len() as u64 + s.transport_errors);
    for _ in 0..s.transport_errors {
        rep.fail("serve-eval: cold transport error".into());
    }
    for r in &s.replies {
        rep.gate(r.status == 200 && !r.hit, || {
            format!(
                "serve-eval: cold reply {} status {} hit {}",
                r.index, r.status, r.hit
            )
        });
    }
}

/// The mixed phase: a warm stream and a cold stream side by side.
fn mixed(
    ctx: &Ctx,
    d: &Daemon,
    seconds: f64,
    cold: &[CellParams],
    rng: &mut SmallRng,
) -> (Stream, Stream) {
    let warm: Vec<String> = warm_cells().iter().map(|c| eval_body(&d.slug, c)).collect();
    let cold: Vec<String> = cold.iter().map(|c| eval_body(&d.slug, c)).collect();
    let warm_at = schedule(rng, (WARM_RPS * seconds) as usize, WARM_RPS);
    let cold_at = schedule(rng, cold.len(), COLD_RPS);
    let addr = d.handle.addr();
    let start = Instant::now() + Duration::from_millis(20);
    both(
        || drive(ctx, addr, start, Some(&warm_at), &warm, None, Some(&d.warm)),
        || drive(ctx, addr, start, Some(&cold_at), &cold, None, None),
    )
}

/// Closed-loop warm evals over one connection for `seconds`: the
/// achieved rate and the stream.
fn warm_closed(ctx: &Ctx, d: &Daemon, seconds: f64) -> (f64, Stream) {
    let warm: Vec<String> = warm_cells().iter().map(|c| eval_body(&d.slug, c)).collect();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let s = drive(
        ctx,
        d.handle.addr(),
        start,
        None,
        &warm,
        Some(end),
        Some(&d.warm),
    );
    (s.replies.len() as f64 / s.span_s(), s)
}

/// One warm-only open-loop ladder step at `rps` over both connections:
/// the p99 in µs, the achieved rate, and both streams.
fn ladder_step(
    ctx: &Ctx,
    d: &Daemon,
    rps: f64,
    seconds: f64,
    rng: &mut SmallRng,
) -> (f64, f64, Stream, Stream) {
    let warm: Vec<String> = warm_cells().iter().map(|c| eval_body(&d.slug, c)).collect();
    let per = ((rps / 2.0) * seconds) as usize;
    let a_at = schedule(rng, per, rps / 2.0);
    let b_at = schedule(rng, per, rps / 2.0);
    let addr = d.handle.addr();
    let start = Instant::now() + Duration::from_millis(20);
    let (a, b) = both(
        || drive(ctx, addr, start, Some(&a_at), &warm, None, Some(&d.warm)),
        || drive(ctx, addr, start, Some(&b_at), &warm, None, Some(&d.warm)),
    );
    let lat: Vec<f64> = a.lat_us.iter().chain(&b.lat_us).copied().collect();
    let achieved = lat.len() as f64 / a.span_s().max(b.span_s());
    (percentile(&lat, 99.0), achieved, a, b)
}

/// One closed-loop batch of distinct cold cells over one connection.
fn batch(ctx: &Ctx, d: &Daemon, cells: &[CellParams]) -> Stream {
    let bodies: Vec<String> = cells.iter().map(|c| eval_body(&d.slug, c)).collect();
    drive(
        ctx,
        d.handle.addr(),
        Instant::now(),
        None,
        &bodies,
        None,
        None,
    )
}

/// Checks every cold payload against `cell_payload(eval_cell(..))`,
/// computed here, outside any timed window. Returns the direct replay
/// times in milliseconds.
fn verify_cold(rep: &mut Report, d: &Daemon, checks: &[(CellParams, String)]) -> Vec<f64> {
    let records = d.report.trace.as_ref().expect("traced run").as_slice();
    let mut direct = Vec::new();
    for (cell, body) in checks {
        let t = Instant::now();
        let (r, n) = eval_cell(cell, d.nodes, d.other, TraceFilter::UserOnly, records);
        direct.push(1e3 * secs(t));
        let want = format!("\"result\":{}}}", cell_payload(&r, n));
        rep.gate(body.ends_with(&want), || {
            format!(
                "serve-eval: cold payload for {} differs from a direct replay",
                cell.memo_key()
            )
        });
    }
    direct
}

/// One round's observations.
struct Round {
    warm: Stream,
    cold: Stream,
    /// Wall of the round's mixed, closed-loop and batch phases.
    wall: f64,
    closed_rps: f64,
    closed_chunks: Vec<Chunk>,
    /// Latency of each cold eval of the batch, in batch order, seconds.
    batch_s: Vec<f64>,
}

/// One round: the mixed open loop, a closed-loop warm segment, and a
/// cold batch. Cold bodies go to `checks` for verification afterwards.
fn round(
    ctx: &Ctx,
    rep: &mut Report,
    d: &Daemon,
    cold: &[CellParams],
    rng: &mut SmallRng,
    checks: &mut Vec<(CellParams, String)>,
    cpus: Option<(CpuSet, CpuSet)>,
) -> Round {
    let (mix_cells, batch_cells) = cold.split_at(cold.len() - BATCH_CELLS);
    let per_round = ctx.seconds / ROUNDS as f64;
    let t = Instant::now();
    let (warm, cold) = mixed(ctx, d, MIX_SHARE * per_round, mix_cells, rng);
    if let Some((_, one)) = &cpus {
        affinity::set_all(one);
    }
    let (closed_rps, closed) = warm_closed(ctx, d, CLOSED_SHARE * per_round);
    let batched = batch(ctx, d, batch_cells);
    if let Some((all, _)) = &cpus {
        affinity::set_all(all);
    }
    let wall = secs(t);
    check_warm(rep, &warm);
    check_warm(rep, &closed);
    for (cells, s) in [(mix_cells, &cold), (batch_cells, &batched)] {
        check_cold(rep, s);
        checks.extend(s.replies.iter().map(|r| (cells[r.index], r.body.clone())));
    }
    Round {
        closed_chunks: closed.chunks(),
        batch_s: batched.lat_us.iter().map(|us| us / 1e6).collect(),
        warm,
        cold,
        wall,
        closed_rps,
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut rep = Report::default();
    let mut setups = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for _ in 0..SETUPS {
        if let Some(d) = daemon.take() {
            d.handle.shutdown();
        }
        let t = Instant::now();
        daemon = Some(setup(ctx, &mut rep));
        setups.push(secs(t));
    }
    let d = daemon.expect("at least one set-up");
    probes::check_accounting(&mut rep, &d.report);

    // Every phase runs once per round, so the fastest repetition of
    // each is picked from repetitions spread over the whole run. The
    // closed-loop phases run with the process on one vCPU (see
    // `affinity`). The traced run traces every other round and compares
    // the two halves.
    let cpus = affinity::current().map(|all| (all, affinity::first_of(&all)));
    let n_mix = (COLD_RPS * MIX_SHARE * ctx.seconds / ROUNDS as f64) as usize;
    let cold = cold_cells(ctx.derive(0xC01D), ROUNDS * (n_mix + BATCH_CELLS));
    let mut rng = SmallRng::seed_from_u64(ctx.derive(0x7157));
    let mut checks: Vec<(CellParams, String)> = Vec::new();
    let mut rounds = Vec::new();
    for (i, cells) in cold.chunks(n_mix + BATCH_CELLS).enumerate() {
        ctx.tracer.set(ctx.traced && i % 2 == 1);
        rounds.push(round(ctx, &mut rep, &d, cells, &mut rng, &mut checks, cpus));
    }
    ctx.tracer.set(false);

    let mut max_rps = 0.0;
    if ctx.traced {
        let step_s = LADDER_SHARE * ctx.seconds / LADDER_RPS.len() as f64;
        for rps in LADDER_RPS {
            let (p99, achieved, a, b) = ladder_step(ctx, &d, rps, step_s, &mut rng);
            check_warm(&mut rep, &a);
            check_warm(&mut rep, &b);
            let clean = a.transport_errors + b.transport_errors == 0
                && a.replies.iter().chain(&b.replies).all(|r| r.status == 200);
            if p99 <= LIMIT_P99_US && clean {
                max_rps = achieved;
            }
        }
    }

    let direct_ms = verify_cold(&mut rep, &d, &checks);
    d.handle.shutdown();

    if !ctx.traced {
        // The batch with each of its evals at its fastest across rounds,
        // and the fastest stretch of closed-loop warm requests.
        let batch_s: f64 = (0..BATCH_CELLS)
            .map(|i| {
                fastest(
                    &rounds
                        .iter()
                        .filter_map(|r| r.batch_s.get(i).copied())
                        .collect::<Vec<_>>(),
                )
            })
            .sum();
        let chunks = || rounds.iter().flat_map(|r| &r.closed_chunks);
        let of = |f: fn(&Chunk) -> f64| chunks().map(f).collect::<Vec<f64>>();
        rep.metric("setup_s", median(&setups), "s");
        rep.metric("wall_s", batch_s, "s");
        rep.metric("throughput", -fastest(&of(|c| -c.rps)), "1/s");
        rep.metric("op_p50_ms", fastest(&of(|c| c.p50_ms)), "ms");
        rep.metric("op_p90_ms", fastest(&of(|c| c.p90_ms)), "ms");
        rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
        return rep;
    }

    // The open-loop streams of every round, warm and cold.
    let warm = || rounds.iter().map(|r| &r.warm);
    let cold = || rounds.iter().map(|r| &r.cold);
    let ms = |s: &mut dyn Iterator<Item = &Stream>| -> Vec<f64> {
        s.flat_map(|s| s.lat_us.iter().map(|u| u / 1e3)).collect()
    };
    let (warm_ms, cold_ms) = (ms(&mut warm()), ms(&mut cold()));
    let hit_ratio = |s: &mut dyn Iterator<Item = &Stream>| {
        let (hits, n) = s
            .flat_map(|s| &s.replies)
            .fold((0usize, 0usize), |(h, n), r| {
                (h + usize::from(r.hit), n + 1)
            });
        hits as f64 / n.max(1) as f64
    };
    let statuses = |f: fn(u16) -> bool| {
        warm()
            .chain(cold())
            .flat_map(|s| &s.replies)
            .filter(|r| f(r.status))
            .count() as f64
    };
    let late: Vec<f64> = warm()
        .chain(cold())
        .flat_map(|s| s.late_us.iter().copied())
        .collect();
    rep.metric("serve.warm_p50_ms", median(&warm_ms), "ms");
    rep.metric("serve.warm_p99_ms", percentile(&warm_ms, 99.0), "ms");
    rep.metric("serve.warm_max_rps", max_rps, "1/s");
    rep.metric("serve.warm_hit_ratio", hit_ratio(&mut warm()), "ratio");
    rep.metric("serve.cold_hit_ratio", hit_ratio(&mut cold()), "ratio");
    rep.metric("serve.cold_p50_ms", median(&cold_ms), "ms");
    rep.metric("serve.cold_p90_ms", percentile(&cold_ms, 90.0), "ms");
    rep.metric(
        "serve.cold_replay_share",
        100.0 * median(&direct_ms) / median(&cold_ms),
        "%",
    );
    rep.metric("serve.shed", statuses(|s| s == 503 || s == 429), "count");
    rep.metric("serve.errors_5xx", statuses(|s| s >= 500), "count");
    rep.metric(
        "serve.transport_errors",
        warm()
            .chain(cold())
            .map(|s| s.transport_errors)
            .sum::<u64>() as f64,
        "count",
    );
    rep.metric("loadgen.late_p99_us", percentile(&late, 99.0), "us");
    rep.metric(
        "loadgen.backlog_max",
        warm()
            .chain(cold())
            .map(|s| s.backlog_max)
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
    let spec = probes::reseed(
        traced_ft_spec(WorkloadKind::Engineering, Scale::quick()),
        ctx.seed,
    );
    probes::machine_metrics(
        &mut rep,
        std::slice::from_ref(&d.machine),
        std::iter::once(&*d.report),
        ctx.seed,
    );
    probes::gen_metrics(&mut rep, &[spec], d.machine.secs);
    let trace = d.report.trace.as_ref().expect("traced run");
    probes::codec_probes(
        &mut rep,
        trace.as_slice(),
        d.nodes,
        d.other,
        &ctx.fresh_dir("probes"),
    );
    // Most of a round's wall is fixed by the open loop's schedule, so the
    // overhead compares fixed-work rates: the closed-loop warm rate of
    // the traced rounds against that of the untraced ones.
    let rate = |first: usize| {
        let rates: Vec<f64> = rounds
            .iter()
            .skip(first)
            .step_by(2)
            .map(|r| r.closed_rps)
            .collect();
        median(&rates)
    };
    let overhead = 100.0 * (rate(0) / rate(1) - 1.0);
    let traced: f64 = rounds.iter().skip(1).step_by(2).map(|r| r.wall).sum();
    crate::finish_trace(ctx, &mut rep, "serve-eval", traced, overhead, None);
    rep
}
