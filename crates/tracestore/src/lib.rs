//! Capture-once trace store and policy-sweep engine.
//!
//! The paper's Section 8 methodology captures each workload's cache-miss
//! trace once and replays it through a cheap contentionless policy
//! simulator many times. This crate makes that literal on disk:
//!
//! * [`format`] — the chunked trace format v3: varint + delta encoding
//!   (~3–8 bytes per record instead of a fixed-width 24), an FNV
//!   checksum per chunk, a checksummed footer holding the chunk index
//!   and the trace's [`TraceMeta`], and a bounded-memory streaming
//!   [`TraceWriter`]/[`TraceReader`] pair whose reader checks every
//!   byte of the file.
//! * [`store`] — a content-addressed [`TraceStore`] directory keyed by
//!   run-spec slug, one self-checking file per trace, so experiments
//!   render from storage without re-running the machine simulator.
//! * [`sweep`] — a declarative [`SweepSpec`] grid (policies × triggers ×
//!   sampling × latencies × move costs) replayed in parallel over a
//!   stored trace with memoized cells, emitting deterministic
//!   `ccnuma-sweep/2` JSON/CSV artifacts.
//! * [`results`] — the content-addressed [`ResultCache`] of finished
//!   sweep cells and executor runs, one checksummed entry per result;
//!   with the trace store it is the only thing `--resume` and the serve
//!   daemon persist.
//! * [`fsck`] — store-wide verification, repair and byte-budget garbage
//!   collection over traces and results alike.
//!
//! # Examples
//!
//! Round-trip a trace through the format:
//!
//! ```
//! use ccnuma_trace::MissRecord;
//! use ccnuma_tracestore::{TraceMeta, TraceReader, TraceWriter};
//! use ccnuma_types::{Ns, Pid, ProcId, VirtPage};
//! use std::io::Cursor;
//!
//! # fn main() -> Result<(), ccnuma_tracestore::StoreError> {
//! let mut buf = Vec::new();
//! let mut w = TraceWriter::new(&mut buf)?;
//! for i in 0..1000u64 {
//!     w.push(&MissRecord::user_data_read(Ns(i * 300), ProcId(0), Pid(0), VirtPage(i / 8)))?;
//! }
//! let meta = TraceMeta { label: "demo".into(), records: 0, nodes: 8, other_time_ns: 0 };
//! let summary = w.finish(&meta)?;
//! assert!(summary.bytes < 1000 * 12, "far below 24 bytes/record");
//! let records: Result<Vec<_>, _> = TraceReader::new(Cursor::new(buf))?.collect();
//! assert_eq!(records?.len(), 1000);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod fsck;
pub mod listing;
pub mod results;
pub mod store;
pub mod sweep;
pub mod varint;

pub use format::{
    ChunkEntry, Footer, StoreError, TraceMeta, TraceReader, TraceWriter, WriteSummary,
    DEFAULT_CHUNK_RECORDS, VERSION,
};
pub use fsck::{fsck, gc, EntryStatus, FsckEntry, FsckReport, GcReport, QUARANTINE_DIR};
pub use listing::{ListingEntry, StoreListing, LISTING_SCHEMA};
pub use results::{
    read_policy_stats, write_policy_stats, ResultCache, RESULTS_DIR, RESULT_SALT, RUN_RESULT_SALT,
};
pub use store::{OpenedEntry, TraceStore};
pub use sweep::{
    cell_from_payload, cell_payload, eval_cell, run_sweep, run_sweep_cached, CachedSweep,
    CellParams, SweepCell, SweepPolicy, SweepReport, SweepSpec, SweepStore, SWEEP_SCHEMA,
};
