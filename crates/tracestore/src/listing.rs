//! Machine-readable store listing, shared by `repro trace ls/info
//! --json` and the serve daemon's `GET /v1/traces` endpoint — one
//! implementation, two consumers, so operators and the service can
//! never disagree about what the store holds.

use crate::format::{Footer, StoreError};
use crate::store::TraceStore;
use ccnuma_faults::io::Storage;
use ccnuma_obs::json::JsonWriter;
use std::fs::File;
use std::time::UNIX_EPOCH;

/// Schema tag of the listing JSON.
pub const LISTING_SCHEMA: &str = "ccnuma-trace-ls/1";

/// One store entry, as seen from the host filesystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListingEntry {
    /// Content-address slug (the `.trace` file stem).
    pub slug: String,
    /// Human-readable run description from the footer.
    pub label: String,
    /// Records in the trace.
    pub records: u64,
    /// NUMA nodes of the captured machine.
    pub nodes: u16,
    /// The run's constant non-miss time, nanoseconds.
    pub other_time_ns: u64,
    /// Chunks in the file (from the footer's index).
    pub chunks: u64,
    /// Bytes of the trace file on disk.
    pub bytes: u64,
    /// Last-modified time of the trace file, seconds since the Unix
    /// epoch (freshened on open, so it tracks actual use).
    pub mtime_unix: u64,
}

/// A scan of the whole store: sorted entries plus totals for capacity
/// planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreListing {
    /// Entries in slug order.
    pub entries: Vec<ListingEntry>,
    /// Sum of trace-file bytes.
    pub total_bytes: u64,
    /// Sum of records.
    pub total_records: u64,
}

impl StoreListing {
    /// Scans the store: every entry's footer (label, nodes, other time,
    /// record and chunk counts), file size and mtime. Entries whose
    /// footer is unreadable are skipped (fsck is the tool for
    /// diagnosing those).
    ///
    /// # Errors
    ///
    /// Propagates directory-listing failures; per-entry read errors
    /// only drop that entry.
    pub fn scan<S: Storage>(store: &TraceStore<S>) -> Result<StoreListing, StoreError> {
        let mut entries = Vec::new();
        for slug in store.list()? {
            let Ok(mut file) = File::open(store.trace_path(&slug)) else {
                continue;
            };
            let (Ok(footer), Ok(fsmeta)) = (Footer::read_from(&mut file), file.metadata()) else {
                continue;
            };
            let mtime_unix = fsmeta
                .modified()
                .ok()
                .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_secs());
            let meta = footer.meta;
            entries.push(ListingEntry {
                slug,
                label: meta.label,
                records: meta.records,
                nodes: meta.nodes,
                other_time_ns: meta.other_time_ns,
                chunks: footer.chunks.len() as u64,
                bytes: fsmeta.len(),
                mtime_unix,
            });
        }
        let total_bytes = entries.iter().map(|e| e.bytes).sum();
        let total_records = entries.iter().map(|e| e.records).sum();
        Ok(StoreListing {
            entries,
            total_bytes,
            total_records,
        })
    }

    /// Renders the `ccnuma-trace-ls/1` JSON document (entries in slug
    /// order, deterministic key order).
    pub fn to_json(&self) -> String {
        let mut j = JsonWriter::new();
        j.begin_obj();
        j.key("schema");
        j.str(LISTING_SCHEMA);
        j.key("entries");
        j.begin_arr();
        for e in &self.entries {
            write_entry(&mut j, e);
        }
        j.end_arr();
        j.key("total_entries");
        j.raw(&self.entries.len().to_string());
        j.key("total_bytes");
        j.raw(&self.total_bytes.to_string());
        j.key("total_records");
        j.raw(&self.total_records.to_string());
        j.end_obj();
        j.finish()
    }
}

impl ListingEntry {
    /// Renders just this entry as a JSON object (the `trace info
    /// --json` body).
    pub fn to_json(&self) -> String {
        let mut j = JsonWriter::new();
        write_entry(&mut j, self);
        j.finish()
    }
}

fn write_entry(j: &mut JsonWriter, e: &ListingEntry) {
    j.begin_obj();
    j.key("slug");
    j.str(&e.slug);
    j.key("label");
    j.str(&e.label);
    j.key("records");
    j.raw(&e.records.to_string());
    j.key("nodes");
    j.raw(&e.nodes.to_string());
    j.key("other_time_ns");
    j.raw(&e.other_time_ns.to_string());
    j.key("chunks");
    j.raw(&e.chunks.to_string());
    j.key("bytes");
    j.raw(&e.bytes.to_string());
    j.key("mtime_unix");
    j.raw(&e.mtime_unix.to_string());
    j.end_obj();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceMeta;
    use ccnuma_obs::json::JsonValue;
    use ccnuma_trace::{MissRecord, Trace};
    use ccnuma_types::{Ns, Pid, ProcId, VirtPage};

    fn trace(n: u64) -> Trace {
        (0..n)
            .map(|i| MissRecord::user_data_read(Ns(i * 300), ProcId(0), Pid(0), VirtPage(i / 8)))
            .collect()
    }

    #[test]
    fn listing_counts_entries_and_totals() {
        let dir = std::env::temp_dir().join(format!("ccnuma-listing-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = TraceStore::new(&dir).unwrap();
        for (label, n) in [("a [FT]", 10u64), ("b [FT]", 20)] {
            let meta = TraceMeta {
                label: label.into(),
                records: n,
                nodes: 8,
                other_time_ns: 5,
            };
            store
                .save(&TraceStore::slug(label, "id"), &trace(n), &meta)
                .unwrap();
        }
        let listing = StoreListing::scan(&store).unwrap();
        assert_eq!(listing.entries.len(), 2);
        assert_eq!(listing.total_records, 30);
        assert!(listing.total_bytes > 0);
        assert!(listing.entries.iter().all(|e| e.chunks >= 1));
        let v = JsonValue::parse(&listing.to_json()).unwrap();
        assert_eq!(
            v.get("schema").and_then(JsonValue::as_str),
            Some(LISTING_SCHEMA)
        );
        assert_eq!(v.get("total_records").and_then(JsonValue::as_u64), Some(30));
        assert_eq!(
            v.get("entries")
                .and_then(JsonValue::as_array)
                .map(<[JsonValue]>::len),
            Some(2)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
