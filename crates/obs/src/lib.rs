//! Observability for the CC-NUMA simulator.
//!
//! The paper's analysis lives in *time-resolved* behaviour — how pages
//! heat up, when the pager migrates vs. replicates vs. collapses, how
//! kernel overhead and directory occupancy evolve (§7) — but a
//! `RunReport` only carries end-of-run aggregates. This crate adds the
//! missing instrumentation layer:
//!
//! * [`Recorder`] — the hook trait the simulator drives. The simulator
//!   is generic over it and monomorphized, so the no-op
//!   [`NullRecorder`] compiles every hook to nothing: with
//!   observability off, the run path is byte-identical to an
//!   uninstrumented simulator (the determinism tests prove it).
//! * [`Metrics`] — named counters and log2-bucketed latency
//!   [`Histogram`]s (miss latency, pager step costs, TLB-shootdown
//!   batch sizes) with p50/p90/p99 accessors.
//! * [`EpochSeries`] — a sim-time epoch sampler snapshotting local-miss
//!   percentage, page-operation counts, replica footprint and directory
//!   occupancy, reproducing the paper's over-time behaviour per run.
//! * [`AuditLog`] — every migrate/replicate/collapse/remap decision with
//!   its triggering counters, plus "no page" reclassifications and
//!   reset-interval boundaries; [`AuditLog::totals`] reproduces the
//!   run's `PolicyStats` action counts exactly.
//! * [`export`] — deterministic artifact writers: JSONL event log, CSV
//!   time series, and Chrome trace-event JSON with per-CPU tracks for
//!   scheduler quanta, page operations and TLB shootdowns (loadable in
//!   Perfetto).
//! * [`profile`] — the *host-time* counterpart: a [`Profiler`] hook
//!   trait with a provably-free [`NullProfiler`] off-path and a
//!   stride-sampling [`SpanProfiler`] measuring where the wall clock
//!   goes per runner phase and sweep pass.
//!
//! All recorded data except the [`profile`] module's is keyed by sim
//! time and spec identity, never wall-clock, so artifacts for the same
//! run spec are byte-identical across thread counts and machines.
//! Profile artifacts are the documented exception: their *structure*
//! (phases, entry and span counts, strides) is deterministic, their
//! durations are honest host measurements.
//!
//! # Examples
//!
//! Record by hand and export:
//!
//! ```
//! use ccnuma_obs::{ObsConfig, Recorder, RunRecorder, SampleView};
//! use ccnuma_types::Ns;
//!
//! let mut rec = RunRecorder::new(ObsConfig { epoch: Ns(1000) });
//! assert!(rec.epoch_due(Ns(1000)));
//! rec.on_epoch(Ns(1000), &SampleView::default());
//! rec.on_run_end(Ns(2500), &SampleView::default());
//! assert_eq!(rec.series.len(), 2);
//!
//! let mut csv = Vec::new();
//! ccnuma_obs::export::write_timeseries_csv(&mut csv, &rec.series).unwrap();
//! assert!(String::from_utf8(csv).unwrap().lines().count() == 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
pub mod export;
mod hist;
pub mod json;
mod metrics;
pub mod profile;
mod recorder;
mod sample;
mod verbosity;

pub use audit::{AuditAction, AuditEvent, AuditLog, AuditTotals, Decision};
pub use export::{artifact_slug, fnv1a64, fnv1a64_update, write_run_artifacts, FNV1A64_OFFSET};
pub use hist::{bucket_bounds, bucket_of, Histogram, BUCKETS};
pub use json::JsonValue;
pub use metrics::Metrics;
pub use profile::{
    write_profile_artifacts, NullProfiler, Phase, Profiler, SpanEvent, SpanProfiler, PHASES,
    PROFILE_SCHEMA,
};
pub use recorder::{
    NullRecorder, ObsConfig, OpEvent, Recorder, RunRecorder, SchedEvent, ShootdownEvent,
};
pub use sample::{EpochSeries, SampleView, Snapshot};
pub use verbosity::Verbosity;
