//! The load generator: hammers a running daemon with mixed
//! eval/healthz/metrics/sweep traffic from keep-alive connections and
//! emits a `ccnuma-loadgen/1` JSON report with achieved RPS, shed and
//! error counts, and client-side latency percentiles through the obs
//! histogram stack.

use crate::client::HttpClient;
use ccnuma_obs::json::{JsonValue, JsonWriter};
use ccnuma_obs::Histogram;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Schema tag of the loadgen report.
pub const LOADGEN_SCHEMA: &str = "ccnuma-loadgen/1";

/// Load-generator options (the `repro loadgen` flags).
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Daemon address.
    pub addr: SocketAddr,
    /// Concurrent client connections.
    pub concurrency: usize,
    /// Wall-clock run length.
    pub duration: Duration,
    /// Trace to evaluate (slug or label); default: the store's first
    /// listing entry.
    pub trace: Option<String>,
}

/// Per-thread tallies, merged after the run.
#[derive(Default)]
struct Tally {
    requests: u64,
    ok: u64,
    shed: u64,
    errors_4xx: u64,
    errors_5xx: u64,
    transport_errors: u64,
    eval_requests: u64,
    eval_cache_hits: u64,
    latency: Histogram,
}

impl Tally {
    fn merge(&mut self, other: &Tally) {
        self.requests += other.requests;
        self.ok += other.ok;
        self.shed += other.shed;
        self.errors_4xx += other.errors_4xx;
        self.errors_5xx += other.errors_5xx;
        self.transport_errors += other.transport_errors;
        self.eval_requests += other.eval_requests;
        self.eval_cache_hits += other.eval_cache_hits;
        self.latency.merge(&other.latency);
    }
}

/// The policies the eval mix cycles through (all warmed first, so
/// steady-state traffic measures the pure cache path).
const MIX_POLICIES: [&str; 3] = ["FT", "RR", "Mig/Rep"];

fn eval_body(trace: &str, policy: &str) -> String {
    let mut j = JsonWriter::new();
    j.begin_obj();
    j.key("trace");
    j.str(trace);
    j.key("policy");
    j.str(policy);
    j.end_obj();
    j.finish()
}

fn sweep_body(trace: &str) -> String {
    let mut j = JsonWriter::new();
    j.begin_obj();
    j.key("trace");
    j.str(trace);
    j.key("policies");
    j.begin_arr();
    j.str("FT");
    j.end_arr();
    j.end_obj();
    j.finish()
}

/// Runs the load and renders the `ccnuma-loadgen/1` report.
///
/// # Errors
///
/// Connect failures, an empty store, or a failed warm-up request.
pub fn run_loadgen(opts: &LoadgenOptions) -> io::Result<String> {
    let timeout = Duration::from_secs(10);
    // Probe: pick the trace and warm every cell the mix will touch.
    let mut probe = HttpClient::connect(opts.addr, timeout)?;
    let trace = match &opts.trace {
        Some(t) => t.clone(),
        None => {
            let listing = probe.request("GET", "/v1/traces", None)?;
            let v = JsonValue::parse(&listing.text())
                .map_err(|e| io::Error::other(format!("bad /v1/traces body: {e}")))?;
            v.get("entries")
                .and_then(JsonValue::as_array)
                .and_then(|a| a.first())
                .and_then(|e| e.get("slug"))
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| io::Error::other("store has no traces; capture one first"))?
        }
    };
    for policy in MIX_POLICIES {
        let resp = probe.request("POST", "/v1/eval", Some(&eval_body(&trace, policy)))?;
        if resp.status != 200 {
            return Err(io::Error::other(format!(
                "warm-up eval of {policy} failed with {}: {}",
                resp.status,
                resp.text()
            )));
        }
    }
    // Close the probe before the timed phase: an idle keep-alive
    // connection would pin one daemon worker until its read timeout.
    drop(probe);

    let deadline = Instant::now() + opts.duration;
    let t0 = Instant::now();
    let concurrency = opts.concurrency.max(1);
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..concurrency)
            .map(|worker| {
                let trace = trace.clone();
                s.spawn(move || drive(opts.addr, timeout, &trace, worker, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let elapsed = t0.elapsed();

    let mut total = Tally::default();
    for t in &tallies {
        total.merge(t);
    }
    let secs = elapsed.as_secs_f64().max(1e-9);
    let mut j = JsonWriter::new();
    j.begin_obj();
    j.key("schema");
    j.str(LOADGEN_SCHEMA);
    j.key("target");
    j.str(&opts.addr.to_string());
    j.key("trace");
    j.str(&trace);
    j.key("concurrency");
    j.raw(&concurrency.to_string());
    j.key("duration_s");
    j.raw(&format!("{secs:.3}"));
    j.key("requests");
    j.raw(&total.requests.to_string());
    j.key("rps");
    j.raw(&format!("{:.1}", total.requests as f64 / secs));
    j.key("ok");
    j.raw(&total.ok.to_string());
    j.key("shed");
    j.raw(&total.shed.to_string());
    j.key("errors_4xx");
    j.raw(&total.errors_4xx.to_string());
    j.key("errors_5xx");
    j.raw(&total.errors_5xx.to_string());
    j.key("transport_errors");
    j.raw(&total.transport_errors.to_string());
    j.key("eval_requests");
    j.raw(&total.eval_requests.to_string());
    j.key("eval_cache_hits");
    j.raw(&total.eval_cache_hits.to_string());
    j.key("latency_us");
    j.begin_obj();
    j.key("count");
    j.raw(&total.latency.count().to_string());
    j.key("min");
    j.raw(&total.latency.min().to_string());
    j.key("max");
    j.raw(&total.latency.max().to_string());
    j.key("mean");
    j.raw(&format!("{:.1}", total.latency.mean()));
    j.key("p50");
    j.raw(&total.latency.p50().to_string());
    j.key("p90");
    j.raw(&total.latency.p90().to_string());
    j.key("p99");
    j.raw(&total.latency.p99().to_string());
    j.end_obj();
    j.end_obj();
    Ok(j.finish())
}

/// One worker: a keep-alive connection cycling through the mix until
/// the deadline, reconnecting after transport errors.
fn drive(
    addr: SocketAddr,
    timeout: Duration,
    trace: &str,
    worker: usize,
    deadline: Instant,
) -> Tally {
    let mut tally = Tally::default();
    let mut client = HttpClient::connect(addr, timeout).ok();
    let mut i = worker as u64; // de-phase the workers' mixes
    let mut sweep_id: Option<String> = None;
    while Instant::now() < deadline {
        let Some(c) = client.as_mut() else {
            tally.transport_errors += 1;
            std::thread::sleep(Duration::from_millis(20));
            client = HttpClient::connect(addr, timeout).ok();
            continue;
        };
        // Mix: 16/20 warm evals, 1 healthz, 1 metrics, 1 sweep POST
        // (idempotent), 1 sweep progress GET.
        let slot = i % 20;
        i += 1;
        let is_eval = slot < 16;
        let t0 = Instant::now();
        let result = if is_eval {
            let policy = MIX_POLICIES[(i % MIX_POLICIES.len() as u64) as usize];
            c.request("POST", "/v1/eval", Some(&eval_body(trace, policy)))
        } else if slot == 16 {
            c.request("GET", "/healthz", None)
        } else if slot == 17 {
            c.request("GET", "/v1/metrics", None)
        } else if slot == 18 {
            c.request("POST", "/v1/sweeps", Some(&sweep_body(trace)))
        } else if let Some(id) = &sweep_id {
            c.request("GET", &format!("/v1/sweeps/{id}"), None)
        } else {
            c.request("GET", "/healthz", None)
        };
        match result {
            Ok(resp) => {
                tally.requests += 1;
                tally.latency.record(t0.elapsed().as_micros() as u64);
                match resp.status {
                    200..=299 => tally.ok += 1,
                    429 | 503 => tally.shed += 1,
                    400..=499 => tally.errors_4xx += 1,
                    _ => tally.errors_5xx += 1,
                }
                if is_eval {
                    tally.eval_requests += 1;
                    if resp.header("x-cache") == Some("hit") {
                        tally.eval_cache_hits += 1;
                    }
                }
                if slot == 18 && resp.status < 300 {
                    if let Ok(v) = JsonValue::parse(&resp.text()) {
                        sweep_id = v.get("id").and_then(JsonValue::as_str).map(str::to_string);
                    }
                }
            }
            Err(_) => {
                tally.transport_errors += 1;
                client = HttpClient::connect(addr, timeout).ok();
            }
        }
    }
    tally
}
