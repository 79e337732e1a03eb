//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each function in [`experiments`] reproduces one artifact — Tables 1–6,
//! Figures 3–9, and the section-level results (§7.1.2 contention, §7.2.1
//! information-gathering space overhead, §7.2.3 replication space
//! overhead, §8.4 sharing-threshold sensitivity) — and returns the
//! rendered report as a `String`.
//!
//! Experiments do not run the machine directly: they describe runs as
//! `RunSpec`s and fetch reports through an [`Executor`] handle. The
//! executor memoizes reports by spec, so experiments that need the same
//! baseline — one first-touch run per workload and scale, however many
//! tables read it — share a single simulation, and [`Executor::execute`]
//! computes the distinct runs of a whole [`RunPlan`] on parallel worker
//! threads. The `repro` binary builds the union plan of the requested
//! experiments, executes it, and renders in deterministic order; its
//! stdout is byte-identical whatever the thread count.
//!
//! # Examples
//!
//! ```no_run
//! use ccnuma_bench::{experiments, Executor};
//! use ccnuma_workloads::Scale;
//!
//! let exec = Executor::serial();
//! println!("{}", experiments::table1(Scale::quick(), &exec));
//! println!("{}", experiments::figure3(Scale::quick(), &exec));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
mod helpers;
pub mod obsreport;
pub mod plan;
pub mod resume;

pub use helpers::{
    dynamic_options, dynamic_spec, ft_options, ft_spec, traced_ft, traced_ft_spec, trigger_for,
    RunPair,
};
pub use obsreport::{build_report, InvocationMeta, ObsReport, PhaseSummary, OBS_REPORT_SCHEMA};
pub use plan::{Executor, ExecutorStats, RunFailure, RunPlan, RunTiming, TracedRun};
