//! The daemon: accept loop, bounded work queue, worker pool, request
//! routing, and graceful shutdown.
//!
//! Shedding happens at two gates. The *accept gate* is the bounded
//! connection queue: when it is full the accept thread itself writes a
//! typed 503 with `Retry-After` and closes — workers never see the
//! connection, so a flood cannot wedge the pool. The *work gates* are
//! per-request budgets: body size (413), sweep cell budget (413),
//! concurrent-sweep cap (429) and the resident-trace byte budget (503).
//! Host time is only measured (the latency histograms); it never
//! changes a response.
//!
//! `POST /v1/eval` answers one cell from the in-memory memo, then the
//! on-disk result cache, then an `eval_cell` replay of the resident
//! trace. `POST /v1/sweeps` runs `repro sweep`'s engine
//! (`run_sweep_cached`) over the resident trace: the same result keys,
//! the same single static pass, the same bytes. Every memo entry is
//! also written to disk, so sweeps restore from the result cache alone.

use crate::http::{
    finish_chunks, read_request, start_chunked, write_chunk, write_response, HttpError, Request,
};
use crate::signal;
use crate::state::{
    filter_name, parse_filter, JobState, LoadError, ServeConfig, ServeState, SweepJob,
};
use ccnuma_obs::artifact_slug;
use ccnuma_obs::json::{JsonValue, JsonWriter};
use ccnuma_polsim::TraceFilter;
use ccnuma_tracestore::{
    cell_payload, eval_cell, run_sweep_cached, CellParams, ResultCache, StoreError, StoreListing,
    SweepPolicy, SweepSpec, SweepStore, TraceMeta,
};
use ccnuma_types::TopologyPreset;
use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Schema tag of a single-cell evaluation response.
pub const SERVE_RESULT_SCHEMA: &str = "ccnuma-serve-result/1";
/// Schema tag of the sweep-registration response.
pub const SERVE_SWEEP_SCHEMA: &str = "ccnuma-serve-sweep/1";
/// Schema tag of the metrics document.
pub const SERVE_METRICS_SCHEMA: &str = "ccnuma-serve-metrics/1";

/// Idle keep-alive read timeout; also bounds how long a worker can be
/// stuck mid-request on a stalled peer.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// The bounded pending-connection queue.
struct WorkQueue {
    inner: Mutex<(VecDeque<TcpStream>, bool)>,
    cv: Condvar,
    depth: usize,
}

impl WorkQueue {
    fn new(depth: usize) -> WorkQueue {
        WorkQueue {
            inner: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// Enqueues, or hands the stream back when full (the shed path).
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.0.len() >= self.depth || inner.1 {
            return Err(stream);
        }
        inner.0.push_back(stream);
        self.cv.notify_one();
        Ok(())
    }

    /// Dequeues; `None` once closed and drained.
    fn pop(&self) -> Option<TcpStream> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(s) = inner.0.pop_front() {
                return Some(s);
            }
            if inner.1 {
                return None;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(inner, Duration::from_millis(100))
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
        }
    }

    fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.1 = true;
        self.cv.notify_all();
    }
}

/// A started daemon: its bound address plus the handles needed to
/// stop it. Tests bind port 0 and read the ephemeral address here.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServeState>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state (tests inspect metrics and footprints).
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Requests graceful shutdown and joins every thread: stop
    /// accepting, drain the queue, finish in-flight requests, and wait
    /// for sweep threads to store their last cell.
    pub fn shutdown(mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        // Sweep threads are detached but check the shutdown flag
        // between passes and advertise themselves in `running_sweeps`;
        // give them a bounded grace period to finish the current pass.
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.state.running_sweeps.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(25));
        }
    }
}

/// Binds, pre-warms, and spawns the accept thread and worker pool.
///
/// # Errors
///
/// Bind/listen failures, or a store/result-cache directory that
/// cannot be created.
pub fn start(cfg: ServeConfig) -> io::Result<ServerHandle> {
    let workers = cfg.workers.max(1);
    let queue_depth = cfg.queue_depth;
    let state =
        Arc::new(ServeState::new(cfg).map_err(|e| io::Error::other(format!("store: {e}")))?);
    for name in state.cfg.prewarm.clone() {
        match state.resolve(&name) {
            Ok(Some((slug, _))) => match state.resident(&slug) {
                Ok(t) => eprintln!(
                    "serve: pre-warmed {slug} ({} records, {} bytes resident)",
                    t.records().len(),
                    t.bytes
                ),
                Err(e) => eprintln!("serve: pre-warm {slug} failed: {e:?}"),
            },
            Ok(None) => eprintln!("serve: pre-warm: no trace named {name:?} in the store"),
            Err(e) => eprintln!("serve: pre-warm {name} failed: {e}"),
        }
    }

    let listener = TcpListener::bind(&state.cfg.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let queue = Arc::new(WorkQueue::new(queue_depth));

    let mut worker_handles = Vec::with_capacity(workers);
    for _ in 0..workers {
        let queue = Arc::clone(&queue);
        let state = Arc::clone(&state);
        worker_handles.push(std::thread::spawn(move || {
            while let Some(stream) = queue.pop() {
                handle_conn(&state, stream);
            }
        }));
    }

    let accept_state = Arc::clone(&state);
    let accept_queue = Arc::clone(&queue);
    let accept = std::thread::spawn(move || {
        loop {
            if accept_state.shutting_down() || signal::shutdown_requested() {
                accept_state.shutdown.store(true, Ordering::SeqCst);
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    if let Err(stream) = accept_queue.push(stream) {
                        accept_state.count("shed_queue_full", 1);
                        shed_connection(stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        accept_queue.close();
    });

    Ok(ServerHandle {
        addr,
        state,
        accept: Some(accept),
        workers: worker_handles,
    })
}

/// Runs the daemon in the foreground until SIGTERM/SIGINT, then shuts
/// down gracefully. The `repro serve` entry point.
///
/// # Errors
///
/// Propagates [`start`] failures.
pub fn run(cfg: ServeConfig) -> io::Result<()> {
    signal::install();
    let handle = start(cfg)?;
    eprintln!("serve: listening on {}", handle.addr());
    while !signal::shutdown_requested() && !handle.state().shutting_down() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("serve: shutting down (in-flight sweep cells are stored in the result cache)");
    handle.shutdown();
    Ok(())
}

/// Writes the queue-full 503 on the accept thread and closes.
fn shed_connection(stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut w = BufWriter::new(stream);
    let body = error_body(503, "shed_queue_full", "work queue is full; retry shortly");
    let _ = write_response(
        &mut w,
        503,
        reason(503),
        "application/json",
        &[
            ("Retry-After", "1".to_string()),
            ("Connection", "close".to_string()),
        ],
        body.as_bytes(),
    );
}

/// Renders the typed error body every non-2xx response carries.
fn error_body(status: u16, code: &str, message: &str) -> String {
    let mut j = JsonWriter::new();
    j.begin_obj();
    j.key("error");
    j.begin_obj();
    j.key("status");
    j.raw(&status.to_string());
    j.key("code");
    j.str(code);
    j.key("message");
    j.str(message);
    j.end_obj();
    j.end_obj();
    j.finish()
}

/// One connection: keep-alive request loop with typed error mapping.
fn handle_conn(state: &Arc<ServeState>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut r = BufReader::new(read_half);
    let mut w = BufWriter::new(stream);
    loop {
        match read_request(&mut r, state.cfg.max_body_bytes) {
            Ok(None) => break,
            Ok(Some(req)) => {
                let close = req.wants_close();
                if dispatch(state, &req, &mut w).is_err() || close || state.shutting_down() {
                    break;
                }
            }
            Err(e) => {
                if let Some((status, reason)) = e.status() {
                    if !matches!(e, HttpError::Timeout) {
                        state.count("errors_4xx", 1);
                        let body = error_body(status, e.code(), "malformed request");
                        let _ = write_response(
                            &mut w,
                            status,
                            reason,
                            "application/json",
                            &[("Connection", "close".to_string())],
                            body.as_bytes(),
                        );
                    }
                }
                break;
            }
        }
    }
}

/// Sends a JSON response and counts its status class.
fn respond(
    state: &ServeState,
    w: &mut impl Write,
    status: u16,
    extra: &[(&str, String)],
    body: &str,
) -> io::Result<()> {
    let class = match status {
        200..=299 => "resp_2xx",
        400..=499 => "resp_4xx",
        _ => "resp_5xx",
    };
    state.count(class, 1);
    write_response(
        w,
        status,
        reason(status),
        "application/json",
        extra,
        body.as_bytes(),
    )
}

/// The reason phrase of each status the daemon answers with.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Service Unavailable",
    }
}

fn respond_error(
    state: &ServeState,
    w: &mut impl Write,
    status: u16,
    code: &str,
    message: &str,
    extra: &[(&str, String)],
) -> io::Result<()> {
    respond(state, w, status, extra, &error_body(status, code, message))
}

/// Routes one request. An `Err` means the connection is unusable.
fn dispatch(state: &Arc<ServeState>, req: &Request, w: &mut impl Write) -> io::Result<()> {
    let t0 = Instant::now();
    let result = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            state.count("req_healthz", 1);
            respond(state, w, 200, &[], "{\"ok\":true}")
        }
        ("GET", "/v1/traces") => {
            state.count("req_traces", 1);
            match StoreListing::scan(&state.store) {
                Ok(listing) => respond(state, w, 200, &[], &listing.to_json()),
                Err(e) => respond_error(
                    state,
                    w,
                    500,
                    "store_error",
                    &format!("listing failed: {e}"),
                    &[],
                ),
            }
        }
        ("POST", "/v1/eval") => {
            state.count("req_eval", 1);
            let out = handle_eval(state, req, w);
            state.observe("eval_latency_us", t0.elapsed().as_micros() as u64);
            out
        }
        ("POST", "/v1/sweeps") => {
            state.count("req_sweeps_post", 1);
            handle_sweep_post(state, req, w)
        }
        ("GET", path) if path.starts_with("/v1/sweeps/") => {
            state.count("req_sweeps_get", 1);
            handle_sweep_stream(state, &path["/v1/sweeps/".len()..], w)
        }
        ("GET", "/v1/metrics") => {
            state.count("req_metrics", 1);
            handle_metrics(state, w)
        }
        (_, "/healthz" | "/v1/traces" | "/v1/eval" | "/v1/sweeps" | "/v1/metrics") => {
            state.count("errors_4xx", 1);
            respond_error(
                state,
                w,
                405,
                "method_not_allowed",
                "see README: Sweep service",
                &[],
            )
        }
        _ => {
            state.count("errors_4xx", 1);
            respond_error(state, w, 404, "unknown_route", "no such endpoint", &[])
        }
    };
    state.observe("request_latency_us", t0.elapsed().as_micros() as u64);
    result
}

/// A rejected request: status, error code and message.
type Bad = (u16, &'static str, String);

fn bad(code: &'static str, message: String) -> Bad {
    (400, code, message)
}

/// Answers a rejected request with its typed error body.
fn respond_bad(state: &ServeState, w: &mut impl Write, (status, code, msg): Bad) -> io::Result<()> {
    if status < 500 {
        state.count("errors_4xx", 1);
    }
    respond_error(state, w, status, code, &msg, &[])
}

/// Reads a JSON body that names a stored trace: the document, the
/// trace's slug and the meta from its footer (from the catalogue).
fn parse_body(state: &ServeState, body: &[u8]) -> Result<(JsonValue, String, Arc<TraceMeta>), Bad> {
    let text =
        std::str::from_utf8(body).map_err(|_| bad("bad_json", "body is not UTF-8".into()))?;
    let v =
        JsonValue::parse(text).map_err(|e| bad("bad_json", format!("unparseable body: {e}")))?;
    let trace = v
        .get("trace")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| bad("missing_trace", "field \"trace\" is required".into()))?;
    match state.resolve(trace) {
        Ok(Some((slug, meta))) => Ok((v, slug, meta)),
        Ok(None) => Err((
            404,
            "unknown_trace",
            format!("no trace named {trace:?} in the store"),
        )),
        Err(e) => Err((500, "store_error", format!("stored trace unreadable: {e}"))),
    }
}

/// One body field: `default` when absent, else what `read` makes of
/// its value; a value `read` rejects is a 400 with `code`.
fn field<T>(
    v: &JsonValue,
    key: &str,
    code: &'static str,
    default: T,
    read: impl Fn(&JsonValue) -> Option<T>,
) -> Result<T, Bad> {
    match v.get(key) {
        None => Ok(default),
        Some(x) => read(x).ok_or_else(|| bad(code, format!("bad value in {key:?}"))),
    }
}

/// One sweep axis: an array of values each read by `read`.
fn axis<T>(
    v: &JsonValue,
    key: &str,
    default: Vec<T>,
    read: impl Fn(&JsonValue) -> Option<T>,
) -> Result<Vec<T>, Bad> {
    field(v, key, "bad_field", default, |x| {
        x.as_array()?.iter().map(&read).collect()
    })
}

fn u32_of(x: &JsonValue) -> Option<u32> {
    x.as_u64().and_then(|n| u32::try_from(n).ok())
}

/// A sample rate: a `u32` of at least 1.
fn rate_of(x: &JsonValue) -> Option<u32> {
    u32_of(x).filter(|&n| n > 0)
}

fn policy_of(x: &JsonValue) -> Option<SweepPolicy> {
    x.as_str().and_then(SweepPolicy::parse)
}

fn topology_of(x: &JsonValue) -> Option<TopologyPreset> {
    x.as_str().and_then(TopologyPreset::parse)
}

fn filter_of(v: &JsonValue) -> Result<TraceFilter, Bad> {
    field(v, "filter", "unknown_filter", TraceFilter::UserOnly, |x| {
        x.as_str().and_then(parse_filter)
    })
}

/// The parsed coordinates of one eval request.
struct EvalParams {
    slug: String,
    meta: Arc<TraceMeta>,
    cell: CellParams,
    filter: TraceFilter,
}

fn parse_eval(state: &ServeState, body: &[u8]) -> Result<EvalParams, Bad> {
    let (v, slug, meta) = parse_body(state, body)?;
    let num = |key: &str, default| field(&v, key, "bad_field", default, JsonValue::as_u64);
    let count = |key: &str, default| field(&v, key, "bad_field", default, u32_of);
    let policy = field(&v, "policy", "unknown_policy", None, |x| {
        policy_of(x).map(Some)
    })?;
    let policy =
        policy.ok_or_else(|| bad("missing_policy", "field \"policy\" is required".into()))?;
    let topology = field(
        &v,
        "topology",
        "unknown_topology",
        TopologyPreset::Flat,
        topology_of,
    )?;
    let cell = CellParams {
        policy,
        trigger: count("trigger", 128)?,
        sample: field(&v, "sample_rate", "bad_field", 1, rate_of)?,
        remote_ns: num("remote_latency_ns", 1200)?,
        move_us: num("move_cost_us", 350)?,
        topology,
    };
    let filter = filter_of(&v)?;
    Ok(EvalParams {
        slug,
        meta,
        cell,
        filter,
    })
}

/// Looks a cell up in the memo/result cache, replaying on a miss: the
/// `/v1/eval` path. A replayed cell is stored on disk before it enters
/// the memo. Returns the payload and whether it was a cache hit.
fn cell_result(
    state: &ServeState,
    slug: &str,
    meta: &TraceMeta,
    cell: &CellParams,
    filter: TraceFilter,
) -> Result<(Arc<String>, bool), LoadError> {
    let key = ResultCache::key(
        slug,
        meta.nodes,
        meta.other_time_ns,
        filter,
        &cell.memo_key(),
    );
    {
        let memo = state.memo.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(p) = memo.get(&key) {
            return Ok((Arc::clone(p), true));
        }
    }
    match state.results.load(&key) {
        Ok(Some(text)) => {
            let payload = Arc::new(text);
            state
                .memo
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(key, Arc::clone(&payload));
            return Ok((payload, true));
        }
        Ok(None) => {}
        // A damaged entry (wrong key, failed checksum) degrades to a
        // replay that overwrites it, never to a bad response.
        Err(e) => {
            state.count("results_damaged", 1);
            eprintln!("serve: result-cache entry for {key} unusable ({e}); replaying");
        }
    }
    let resident = state.resident(slug)?;
    let (report, records) = eval_cell(
        cell,
        meta.nodes,
        ccnuma_types::Ns(meta.other_time_ns),
        filter,
        resident.records(),
    );
    let payload = Arc::new(cell_payload(&report, records));
    if let Err(e) = state.results.store(&key, &payload) {
        eprintln!("serve: result-cache write failed for {key}: {e}");
    }
    state
        .memo
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(key, Arc::clone(&payload));
    Ok((payload, false))
}

fn load_error_response(state: &ServeState, w: &mut impl Write, e: LoadError) -> io::Result<()> {
    let bad = match e {
        LoadError::NotFound => (404, "unknown_trace", "trace vanished from the store".into()),
        LoadError::Store(err) => (500, "store_error", format!("trace load failed: {err}")),
        LoadError::OverBudget => {
            state.count("shed_over_capacity", 1);
            let msg = "resident-trace byte budget exceeded; retry shortly";
            let retry = [("Retry-After", "1".to_string())];
            return respond_error(state, w, 503, "shed_over_capacity", msg, &retry);
        }
    };
    respond_bad(state, w, bad)
}

fn handle_eval(state: &ServeState, req: &Request, w: &mut impl Write) -> io::Result<()> {
    let params = match parse_eval(state, &req.body) {
        Ok(p) => p,
        Err(e) => return respond_bad(state, w, e),
    };
    let meta = &params.meta;
    let (payload, hit) = match cell_result(state, &params.slug, meta, &params.cell, params.filter) {
        Ok(r) => r,
        Err(e) => return load_error_response(state, w, e),
    };
    state.count(
        if hit {
            "eval_cache_hits"
        } else {
            "eval_cache_misses"
        },
        1,
    );

    let mut j = JsonWriter::new();
    j.begin_obj();
    j.key("schema");
    j.str(SERVE_RESULT_SCHEMA);
    j.key("trace");
    j.str(&params.slug);
    j.key("trace_label");
    j.str(&meta.label);
    j.key("policy");
    j.str(&params.cell.policy.to_string());
    j.key("trigger");
    j.raw(&params.cell.trigger.to_string());
    j.key("sample_rate");
    j.raw(&params.cell.sample.to_string());
    j.key("remote_latency_ns");
    j.raw(&params.cell.remote_ns.to_string());
    j.key("move_cost_us");
    j.raw(&params.cell.move_us.to_string());
    j.key("topology");
    j.str(params.cell.topology.label());
    j.key("filter");
    j.str(filter_name(params.filter));
    j.key("memo_key");
    j.str(&params.cell.memo_key());
    j.key("result");
    j.raw(&payload);
    j.end_obj();
    let cache = if hit { "hit" } else { "miss" };
    respond(
        state,
        w,
        200,
        &[("X-Cache", cache.to_string())],
        &j.finish(),
    )
}

fn parse_sweep(
    state: &ServeState,
    body: &[u8],
) -> Result<(String, Arc<TraceMeta>, SweepSpec), Bad> {
    let (v, slug, meta) = parse_body(state, body)?;
    let grid = SweepSpec::default_grid();
    let spec = SweepSpec {
        policies: axis(&v, "policies", grid.policies, policy_of)?,
        triggers: axis(&v, "triggers", grid.triggers, u32_of)?,
        sample_rates: axis(&v, "sample_rates", grid.sample_rates, rate_of)?,
        remote_latencies_ns: axis(
            &v,
            "remote_latencies_ns",
            grid.remote_latencies_ns,
            JsonValue::as_u64,
        )?,
        move_costs_us: axis(&v, "move_costs_us", grid.move_costs_us, JsonValue::as_u64)?,
        topologies: axis(&v, "topologies", grid.topologies, topology_of)?,
        filter: filter_of(&v)?,
    };
    if spec.is_empty() {
        return Err(bad("empty_grid", "every axis must be non-empty".into()));
    }
    Ok((slug, meta, spec))
}

/// Renders the sweep-registration body.
fn sweep_ack(id: &str, cells: usize, status: &str) -> String {
    let mut j = JsonWriter::new();
    j.begin_obj();
    j.key("schema");
    j.str(SERVE_SWEEP_SCHEMA);
    j.key("id");
    j.str(id);
    j.key("cells");
    j.raw(&cells.to_string());
    j.key("status");
    j.str(status);
    j.end_obj();
    j.finish()
}

fn handle_sweep_post(state: &Arc<ServeState>, req: &Request, w: &mut impl Write) -> io::Result<()> {
    let (slug, meta, spec) = match parse_sweep(state, &req.body) {
        Ok(x) => x,
        Err(e) => return respond_bad(state, w, e),
    };
    let cells = spec.len();
    if cells > state.cfg.max_cells {
        state.count("errors_4xx", 1);
        return respond_error(
            state,
            w,
            413,
            "cell_budget",
            &format!(
                "grid has {cells} cells; the per-sweep budget is {}",
                state.cfg.max_cells
            ),
            &[],
        );
    }
    // Content-addressed id: the same grid on the same trace is the
    // same sweep, so POST is idempotent within a daemon's lifetime and
    // cache-warm across restarts.
    let id = artifact_slug("sweep", &format!("{slug}|{spec:?}"));

    let mut sweeps = state.sweeps.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(job) = sweeps.get(&id) {
        let status = match &*job.state.lock().unwrap_or_else(|e| e.into_inner()) {
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
        };
        return respond(state, w, 200, &[], &sweep_ack(&id, job.total, status));
    }
    if state.running_sweeps.load(Ordering::SeqCst) >= state.cfg.max_sweeps {
        drop(sweeps);
        state.count("shed_sweeps_busy", 1);
        return respond_error(
            state,
            w,
            429,
            "shed_sweeps_busy",
            &format!(
                "{} sweeps already running; retry shortly",
                state.cfg.max_sweeps
            ),
            &[("Retry-After", "2".to_string())],
        );
    }
    let job = Arc::new(SweepJob {
        total: cells,
        done: AtomicUsize::new(0),
        state: Mutex::new(JobState::Running),
        cv: Condvar::new(),
    });
    sweeps.insert(id.clone(), Arc::clone(&job));
    state.running_sweeps.fetch_add(1, Ordering::SeqCst);
    drop(sweeps);

    let thread_state = Arc::clone(state);
    let thread_job = Arc::clone(&job);
    std::thread::spawn(move || run_sweep_job(&thread_state, &thread_job, &slug, &meta, &spec));
    respond(state, w, 202, &[], &sweep_ack(&id, cells, "running"))
}

/// Executes one sweep through the sweep engine, the one `repro sweep`
/// runs: cells stored in the result cache are restored, the rest are
/// evaluated in the polsim plan's passes over the resident trace (loaded
/// only if some pass is needed) and stored as each pass finishes. The
/// progress hook streams the count and stops the sweep between passes
/// on shutdown.
fn run_sweep_job(
    state: &Arc<ServeState>,
    job: &Arc<SweepJob>,
    slug: &str,
    meta: &TraceMeta,
    spec: &SweepSpec,
) {
    let resident = OnceLock::new();
    let open = || {
        let trace = match resident.get() {
            Some(trace) => trace,
            None => {
                let loaded = state.resident(slug).map_err(|e| match e {
                    LoadError::Store(e) => e,
                    e => StoreError::Io(io::Error::other(format!("loading {slug}: {e:?}"))),
                })?;
                resident.get_or_init(|| loaded)
            }
        };
        Ok(trace.records().iter().map(|r| Ok(*r)))
    };
    let progress = |done: usize| {
        job.progress(done);
        !state.shutting_down()
    };
    let store = SweepStore {
        results: Some(&state.results),
        trace_slug: slug,
        progress: &progress,
    };
    let other_time = ccnuma_types::Ns(meta.other_time_ns);
    let outcome = match run_sweep_cached(spec, meta.nodes, other_time, 1, open, &store) {
        Ok(run) => {
            state.count("results_damaged", run.damaged as u64);
            state.count("sweep_passes", run.passes as u64);
            JobState::Done(run.report.to_json(&meta.label))
        }
        Err(StoreError::Interrupted) => JobState::Failed(
            "shutdown: sweep interrupted; completed cells are stored in the result cache".into(),
        ),
        Err(e) => JobState::Failed(format!("sweep failed: {e}")),
    };
    job.finish(outcome);
    state.running_sweeps.fetch_sub(1, Ordering::SeqCst);
}

/// Streams sweep progress as newline-delimited JSON chunks, ending
/// with the full grid document (or a typed error line).
fn handle_sweep_stream(state: &ServeState, id: &str, w: &mut impl Write) -> io::Result<()> {
    let job = {
        let sweeps = state.sweeps.lock().unwrap_or_else(|e| e.into_inner());
        sweeps.get(id).cloned()
    };
    let Some(job) = job else {
        state.count("errors_4xx", 1);
        return respond_error(state, w, 404, "unknown_sweep", "no such sweep id", &[]);
    };
    state.count("resp_2xx", 1);
    start_chunked(w, 200, "OK", "application/x-ndjson")?;
    loop {
        // Read the count under the state lock: a sweep's last progress
        // call precedes its finish, so the line before the final
        // document reads done == total.
        let guard = job.state.lock().unwrap_or_else(|e| e.into_inner());
        let done = job.done.load(Ordering::SeqCst);
        let mut lines = format!("{{\"done\":{done},\"total\":{}}}\n", job.total);
        let end = match &*guard {
            JobState::Running => None,
            JobState::Done(doc) => Some(doc.clone()),
            JobState::Failed(msg) => Some(error_body(500, "sweep_failed", msg)),
        };
        drop(guard);
        if let Some(end) = &end {
            lines.push_str(end);
            lines.push('\n');
        }
        write_chunk(w, lines.as_bytes())?;
        if end.is_some() {
            break;
        }
        let guard = job.state.lock().unwrap_or_else(|e| e.into_inner());
        if matches!(*guard, JobState::Running) && job.done.load(Ordering::SeqCst) == done {
            let _ = job.cv.wait_timeout(guard, Duration::from_millis(250));
        }
    }
    finish_chunks(w)
}

/// Renders the metrics document: request/shed counters, cache hit
/// ratios, and the log2 latency histograms with percentiles.
fn handle_metrics(state: &ServeState, w: &mut impl Write) -> io::Result<()> {
    let (resident_traces, resident_bytes) = state.resident_footprint();
    let (cache_entries, cache_bytes) = state.results.footprint();
    let metrics_json = state
        .metrics
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .to_json();
    let mut j = JsonWriter::new();
    j.begin_obj();
    j.key("schema");
    j.str(SERVE_METRICS_SCHEMA);
    j.key("resident_traces");
    j.raw(&resident_traces.to_string());
    j.key("resident_bytes");
    j.raw(&resident_bytes.to_string());
    j.key("result_cache_entries");
    j.raw(&cache_entries.to_string());
    j.key("result_cache_bytes");
    j.raw(&cache_bytes.to_string());
    j.key("metrics");
    j.raw(&metrics_json);
    j.end_obj();
    respond(state, w, 200, &[], &j.finish())
}
