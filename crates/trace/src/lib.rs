//! Miss traces for the CC-NUMA locality study.
//!
//! Section 8 of the paper drives its policy simulator from non-intrusively
//! collected traces containing "information about all secondary cache
//! misses, both user and kernel, and TLB misses, including the processor
//! taking the miss, and a timestamp". This crate provides exactly that:
//!
//! * [`MissRecord`] — one miss event (cache or TLB) with processor, page,
//!   read/write, user/kernel, instruction/data, and timestamp;
//! * [`Trace`] — an append-only, time-ordered container with filtered views;
//! * [`Sampler`] and [`Trace::sampled`] — the deterministic 1-in-N
//!   sampling the paper uses to cut information-gathering cost (§8.3);
//! * [`read_chains`] — the read-chain analysis behind Figure 4;
//! * [`TraceStats`] — miss-composition and page-concentration summaries
//!   (the §7.1.1 "90 % of misses in 5 % of pages" analysis).
//!
//! # Examples
//!
//! ```
//! use ccnuma_trace::{MissRecord, MissSource, Trace, TraceBuilder};
//! use ccnuma_types::{AccessKind, Mode, Ns, Pid, ProcId, RefClass, VirtPage};
//!
//! let mut b = TraceBuilder::new();
//! b.push(MissRecord {
//!     time: Ns(100),
//!     proc: ProcId(0),
//!     pid: Pid(1),
//!     page: VirtPage(7),
//!     kind: AccessKind::Read,
//!     mode: Mode::User,
//!     class: RefClass::Data,
//!     source: MissSource::Cache,
//! });
//! let trace: Trace = b.finish();
//! assert_eq!(trace.len(), 1);
//! assert_eq!(trace.cache_misses().count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod read_chains;
mod record;
mod sampling;
mod stats;
mod trace;

pub use read_chains::{read_chains, ChainSummary, ReadChainHistogram};
pub use record::{MissRecord, MissSource};
pub use sampling::Sampler;
pub use stats::TraceStats;
pub use trace::{Trace, TraceBuilder, TraceError};
