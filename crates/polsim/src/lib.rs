//! The Section 8 trace-driven policy simulator.
//!
//! "We non-intrusively generated a detailed trace for each workload ...
//! The trace was then used as input to a policy simulator with a simple
//! contentionless memory model. The memory model has a 300ns local-miss
//! latency and a 1200ns remote-miss latency. The cost of a migrate,
//! replicate, or collapse is 350µs."
//!
//! [`simulate`] replays a [`ccnuma_trace::Trace`] under any of the six
//! policies of Figure 6 (RR, FT, PF, Migr, Repl, Mig/Rep) driven by any
//! of the four information metrics of Figure 8 (FC, SC, FT, ST), with a
//! mode filter for the kernel-only study of Figure 7, and reports the
//! stall/overhead breakdown each figure plots. The dynamic policies
//! stream the trace through a [`Replay`]; the static baselines never
//! move a page, so a one-pass [`StaticProfile`] of the trace prices all
//! three of them exactly, at any latency or topology. The planner,
//! [`plan()`], makes that choice once for every caller, and [`evaluate`]
//! runs its passes: one profile pass for every static cell of a list,
//! one replay pass per dynamic cell.
//!
//! # Examples
//!
//! ```
//! use ccnuma_polsim::{simulate, PolsimConfig, SimPolicy, TraceFilter};
//! use ccnuma_trace::{MissRecord, Trace};
//! use ccnuma_types::{Ns, Pid, ProcId, VirtPage};
//!
//! // One page read remotely, many times, by processor 5.
//! let trace: Trace = (0..200)
//!     .map(|i| MissRecord::user_data_read(Ns(i * 1000), ProcId(5), Pid(1), VirtPage(9)))
//!     .collect();
//! let cfg = PolsimConfig::section8(8);
//! let ft = simulate(&trace, &cfg, SimPolicy::first_touch(), TraceFilter::UserOnly);
//! // Under FT the first toucher owns the page, so every miss is local.
//! assert_eq!(ft.remote_misses, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pages;
mod plan;
mod profile;
mod report;
mod sim;

pub use plan::{evaluate, plan, Cell, Pass, PassOutput};
pub use profile::StaticProfile;
pub use report::PolsimReport;
pub use sim::{simulate, PolsimConfig, Replay, SimPolicy, TraceFilter};
