//! Sweep-as-a-service: a resident daemon serving policy queries.
//!
//! The trace store (PR 5) made a policy evaluation a cheap pure
//! function of (trace, policy params) — that is a servable request.
//! This crate is the server: a long-running multi-threaded daemon
//! hand-rolled on `std::net::TcpListener` (deps are vendored; no
//! tokio) with a bounded worker pool and a small HTTP/1.1 + JSON
//! layer. On startup it opens a
//! [`TraceStore`](ccnuma_tracestore::TraceStore), optionally pre-warms
//! named traces into memory, and exposes:
//!
//! * `GET /healthz` — liveness.
//! * `GET /v1/traces` — the store listing (`ccnuma-trace-ls/1`,
//!   shared with `repro trace ls --json`).
//! * `POST /v1/eval` — one sweep cell → `ccnuma-serve-result/1`.
//! * `POST /v1/sweeps` — a full grid → content-addressed sweep id.
//! * `GET /v1/sweeps/{id}` — chunked progress stream, then the final
//!   `ccnuma-sweep/2` document.
//! * `GET /v1/metrics` — request counters, cache hit ratios, and log2
//!   latency histograms with p50/p90/p99 via the obs Histogram stack.
//!
//! *Results* — not just traces — are content-addressed: each cell's
//! memo key, extended with a format-version salt, maps to an on-disk
//! [`ResultCache`](ccnuma_tracestore::ResultCache) entry written with
//! `atomic_write`, so a repeated query is O(lookup) even across daemon
//! restarts and a warm daemon answers without touching the simulator.
//! Each trace's footer meta is read once into the daemon's trace
//! catalogue, so a warm answer on a known slug makes no system call.
//! Each entry carries its key and a payload checksum; a damaged entry
//! is counted (`results_damaged`) and replayed, never served.
//! Under load it degrades instead of falling over: a bounded
//! accept/work queue (full → 503 + `Retry-After`, written on the
//! accept thread) and per-request budgets (body size, sweep cell count,
//! concurrent sweeps, the resident-trace byte budget). Host time is
//! only measured, in the latency histograms: it never changes a
//! response, a stored result or a status.
//!
//! [`loadgen`] is the matching load generator (`repro loadgen`),
//! emitting a `ccnuma-loadgen/1` report with achieved RPS, shed and
//! error counts, and client-side latency percentiles.

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod loadgen;
pub mod server;
pub mod signal;
pub mod state;

pub use client::{HttpClient, HttpResponse};
pub use loadgen::{run_loadgen, LoadgenOptions, LOADGEN_SCHEMA};
pub use server::{
    run, start, ServerHandle, SERVE_METRICS_SCHEMA, SERVE_RESULT_SCHEMA, SERVE_SWEEP_SCHEMA,
};
pub use state::{ServeConfig, ServeState};
