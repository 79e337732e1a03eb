//! Capture-once trace store and policy-sweep engine.
//!
//! The paper's Section 8 methodology captures each workload's cache-miss
//! trace once and replays it through a cheap contentionless policy
//! simulator many times. This crate makes that literal on disk:
//!
//! * [`format`] — the chunked trace format v2: varint + delta encoding
//!   (~3–8 bytes per record instead of a fixed-width 24), an FNV
//!   checksum per chunk, a chunk-index footer that lists the chunks
//!   without decoding them, a bounded-memory streaming [`TraceWriter`]/[`TraceReader`]
//!   pair, and salvage of complete chunks from a truncated tail.
//! * [`store`] — a content-addressed [`TraceStore`] directory keyed by
//!   run-spec slug, with a JSON sidecar per trace so experiments render
//!   from storage without re-running the machine simulator.
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
//! Round-trip a trace through the v2 format:
//!
//! ```
//! use ccnuma_trace::MissRecord;
//! use ccnuma_tracestore::{TraceReader, TraceWriter};
//! use ccnuma_types::{Ns, Pid, ProcId, VirtPage};
//!
//! # fn main() -> Result<(), ccnuma_tracestore::StoreError> {
//! let mut buf = Vec::new();
//! let mut w = TraceWriter::new(&mut buf)?;
//! for i in 0..1000u64 {
//!     w.push(&MissRecord::user_data_read(Ns(i * 300), ProcId(0), Pid(0), VirtPage(i / 8)))?;
//! }
//! let summary = w.finish()?;
//! assert!(summary.bytes < 1000 * 12, "far below 24 bytes/record");
//! let records: Result<Vec<_>, _> = TraceReader::new(buf.as_slice())?.collect();
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
    ChunkEntry, ChunkIndex, SalvageInfo, SalvageReason, StoreError, TraceReader, TraceWriter,
    WriteSummary, DEFAULT_CHUNK_RECORDS, VERSION_V2,
};
pub use fsck::{
    fsck, gc, EntryStatus, FsckEntry, FsckReport, GcReport, RepairAction, QUARANTINE_DIR,
};
pub use listing::{ListingEntry, StoreListing, LISTING_SCHEMA};
pub use results::{ResultCache, RESULTS_DIR, RESULT_SALT, RUN_RESULT_SALT};
pub use store::{OpenedEntry, TraceMeta, TraceStore, META_SCHEMA};
pub use sweep::{
    cell_from_payload, cell_payload, eval_cell, run_sweep, run_sweep_cached, CachedSweep,
    CellParams, SweepCell, SweepPolicy, SweepReport, SweepSpec, SweepStore, SWEEP_SCHEMA,
};
