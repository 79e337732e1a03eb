//! The capture-once trace cache.
//!
//! A [`TraceStore`] is a directory of trace files, content-addressed by
//! the same slug scheme the observability layer uses for run artifacts:
//! a human-readable label plus an FNV fingerprint of the run spec's
//! identity. Each entry is one self-checking `<slug>.trace` file whose
//! checksummed footer carries the [`TraceMeta`] a replay needs beyond
//! the records themselves — the machine's node count and the run's
//! constant non-miss time — so experiments can render from a stored
//! trace without re-running the machine simulator.

use crate::format::{Footer, StoreError, TraceMeta, TraceReader, TraceWriter, WriteSummary};
use ccnuma_faults::io::{is_transient, DiskStorage, RetryPolicy, Storage};
use ccnuma_obs::artifact_slug;
use ccnuma_trace::{MissRecord, Trace, TraceBuilder};
use std::fs;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};

/// What [`TraceStore::open`] yields: a streaming reader over the entry's
/// trace plus the meta its footer carries.
pub type OpenedEntry<S> = (TraceReader<BufReader<<S as Storage>::ReadFile>>, TraceMeta);

/// A directory of stored traces, addressed by run-spec slug.
///
/// # Examples
///
/// ```no_run
/// use ccnuma_tracestore::{TraceMeta, TraceStore};
/// use ccnuma_trace::Trace;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let store = TraceStore::new("artifacts/traces")?;
/// let slug = TraceStore::slug("raytrace [FT] +trace", "spec identity");
/// if !store.contains(&slug) {
///     let trace = Trace::new(); // ... captured from a machine run
///     let meta = TraceMeta { label: "raytrace".into(), records: 0, nodes: 8, other_time_ns: 0 };
///     store.save(&slug, &trace, &meta)?;
/// }
/// let (trace, meta) = store.load(&slug)?;
/// # let _ = (trace, meta);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TraceStore<S: Storage = DiskStorage> {
    dir: PathBuf,
    storage: S,
    retry: RetryPolicy,
}

impl TraceStore<DiskStorage> {
    /// Opens (creating if needed) the store directory on plain disk
    /// storage. Monomorphizes to exactly the pre-fault-injection code.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn new<P: AsRef<Path>>(dir: P) -> Result<TraceStore, StoreError> {
        TraceStore::with_storage(dir, DiskStorage)
    }

    /// The content address for a run: readable label + identity
    /// fingerprint, shared with the obs artifact naming.
    pub fn slug(label: &str, identity: &str) -> String {
        artifact_slug(label, identity)
    }
}

impl<S: Storage> TraceStore<S> {
    /// Opens (creating if needed) the store directory on `storage` —
    /// the fault-injection seam: hand it a
    /// [`FaultyStorage`](ccnuma_faults::FaultyStorage) to stress every
    /// save and load.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn with_storage<P: AsRef<Path>>(dir: P, storage: S) -> Result<TraceStore<S>, StoreError> {
        storage.create_dir_all(dir.as_ref())?;
        Ok(TraceStore {
            dir: dir.as_ref().to_path_buf(),
            storage,
            retry: RetryPolicy::default(),
        })
    }

    /// Overrides the bounded retry-with-backoff policy
    /// [`save`](TraceStore::save) uses for transient storage failures.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> TraceStore<S> {
        self.retry = retry;
        self
    }

    /// The storage layer the store performs its I/O through.
    pub fn storage(&self) -> &S {
        &self.storage
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the trace file for `slug`.
    pub fn trace_path(&self, slug: &str) -> PathBuf {
        self.dir.join(format!("{slug}.trace"))
    }

    /// True when the store holds a trace file for `slug`.
    pub fn contains(&self, slug: &str) -> bool {
        self.trace_path(slug).is_file()
    }

    /// Writes `trace` with `meta` in its footer under `slug`, atomically:
    /// the file lands in a temporary first and is renamed into place.
    /// `meta.records` is not stored; the footer counts the records.
    /// Transient storage failures are retried with bounded backoff (see
    /// [`with_retry`](TraceStore::with_retry)); permanent errors
    /// (ENOSPC-class) surface immediately.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a failed save leaves no visible entry.
    pub fn save(
        &self,
        slug: &str,
        trace: &Trace,
        meta: &TraceMeta,
    ) -> Result<WriteSummary, StoreError> {
        let attempts = self.retry.attempts.max(1);
        let mut backoff = self.retry.base_backoff;
        let mut tried = 0;
        loop {
            match self.save_records(slug, trace.iter().copied(), meta) {
                Err(StoreError::Io(e)) if tried + 1 < attempts && is_transient(&e) => {
                    tried += 1;
                    if backoff > std::time::Duration::ZERO {
                        std::thread::sleep(backoff);
                        backoff = backoff.saturating_mul(2);
                    }
                }
                other => return other,
            }
        }
    }

    /// Streaming form of [`save`](TraceStore::save) for callers that do
    /// not hold a whole [`Trace`]. Single-attempt: the record iterator
    /// cannot be replayed, so retrying is the caller's business.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a failed save leaves no visible entry.
    pub fn save_records(
        &self,
        slug: &str,
        records: impl IntoIterator<Item = MissRecord>,
        meta: &TraceMeta,
    ) -> Result<WriteSummary, StoreError> {
        let tmp = self.dir.join(format!("{slug}.trace.tmp"));
        let result = (|| {
            let mut w = TraceWriter::new(BufWriter::new(self.storage.create(&tmp)?))?;
            for r in records {
                w.push(&r)?;
            }
            let summary = w.finish(meta)?;
            self.storage.rename(&tmp, &self.trace_path(slug))?;
            Ok(summary)
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }

    /// Opens a strict streaming reader for `slug` (see [`TraceReader`])
    /// plus the meta its footer carries. A successful open freshens the
    /// entry's file mtime, so `trace gc`'s
    /// least-recently-used eviction order tracks actual use (sweeps
    /// stream a trace and never load it), not just capture time. The
    /// freshen is best-effort: if a concurrent `trace gc` evicted the
    /// entry between the open and the touch, the touch degrades to a
    /// no-op — the open file handle still reads the bytes, and a
    /// vanished file must not turn a successful open into an error.
    ///
    /// # Errors
    ///
    /// I/O errors (including a missing entry), a foreign header or a
    /// damaged footer.
    pub fn open(&self, slug: &str) -> Result<OpenedEntry<S>, StoreError> {
        let path = self.trace_path(slug);
        let reader = TraceReader::new(BufReader::new(self.storage.open(&path)?))?;
        freshen(&path);
        let meta = reader.footer().meta.clone();
        Ok((reader, meta))
    }

    /// Loads the whole trace into memory (for callers that genuinely
    /// need a [`Trace`], e.g. figure rendering). Freshens the entry's
    /// mtime through [`open`](TraceStore::open).
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from the read.
    pub fn load(&self, slug: &str) -> Result<(Trace, TraceMeta), StoreError> {
        let (reader, meta) = self.open(slug)?;
        let mut b = TraceBuilder::with_capacity(meta.records.min(1 << 24) as usize);
        for rec in reader {
            b.push(rec?);
        }
        Ok((b.finish(), meta))
    }

    /// Reads just the meta for `slug`, from the footer at the end of its
    /// file, without decoding a chunk.
    ///
    /// # Errors
    ///
    /// I/O errors, a foreign header or a damaged footer.
    pub fn meta(&self, slug: &str) -> Result<TraceMeta, StoreError> {
        let mut file = self.storage.open(&self.trace_path(slug))?;
        Ok(Footer::read_from(&mut file)?.meta)
    }

    /// All slugs present in the store, sorted.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing failures.
    pub fn list(&self) -> Result<Vec<String>, StoreError> {
        let mut slugs = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(slug) = name.strip_suffix(".trace") {
                slugs.push(slug.to_string());
            }
        }
        slugs.sort();
        Ok(slugs)
    }
}

/// Best-effort LRU hint: bump a file's mtime to "now" so `trace gc`
/// evicts genuinely cold entries first. Purely a host-side ordering
/// aid — every failure (most importantly `NotFound`, the entry evicted
/// by a concurrent gc between our read and this touch) degrades to a
/// no-op; the bytes on disk are never modified. Returns whether the
/// mtime was actually bumped, so tests can pin the degraded path.
pub(crate) fn freshen(path: &Path) -> bool {
    match fs::OpenOptions::new().append(true).open(path) {
        Ok(f) => f.set_modified(std::time::SystemTime::now()).is_ok(),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma_types::{Ns, Pid, ProcId, VirtPage};

    fn meta() -> TraceMeta {
        TraceMeta {
            label: "raytrace [FT] +trace".into(),
            records: 3,
            nodes: 8,
            other_time_ns: 123_456,
        }
    }

    fn trace() -> Trace {
        (0..3)
            .map(|i| MissRecord::user_data_read(Ns(i), ProcId(0), Pid(0), VirtPage(i)))
            .collect()
    }

    #[test]
    fn save_retries_through_injected_write_failures() {
        use ccnuma_faults::io::{FaultyStorage, IoFaultConfig, IoFaults};
        let dir = std::env::temp_dir().join(format!("ccnuma-store-faulty-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cfg = IoFaultConfig {
            write_fail_p: 0.20,
            ..IoFaultConfig::default()
        };
        // The fault stream is a pure function of the seed, so this test
        // is deterministic: enough attempts that the flaky-disk run
        // converges, and the entry must then read back bit-exact.
        let store =
            TraceStore::with_storage(&dir, FaultyStorage::new(IoFaults::new(cfg, 0xC0FFEE)))
                .unwrap()
                .with_retry(RetryPolicy {
                    attempts: 64,
                    base_backoff: std::time::Duration::ZERO,
                });
        let slug = TraceStore::slug("raytrace [FT] +trace", "identity-faulty");
        store.save(&slug, &trace(), &meta()).unwrap();
        assert!(
            store.storage().faults().stats().write_fails > 0,
            "the scenario must actually have injected failures"
        );
        // Verify through a clean store: no read-side injection.
        let clean = TraceStore::new(&dir).unwrap();
        let (t, m) = clean.load(&slug).unwrap();
        assert_eq!(t, trace());
        assert_eq!(m, meta());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_load_and_list() {
        let dir = std::env::temp_dir().join(format!("ccnuma-store-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = TraceStore::new(&dir).unwrap();
        let slug = TraceStore::slug("raytrace [FT] +trace", "identity-a");
        assert!(!store.contains(&slug));
        store.save(&slug, &trace(), &meta()).unwrap();
        assert!(store.contains(&slug));
        let (t, m) = store.load(&slug).unwrap();
        assert_eq!(t, trace());
        assert_eq!(m, meta());
        assert_eq!(store.list().unwrap(), vec![slug]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn freshen_degrades_to_noop_when_entry_was_evicted() {
        // Regression: the post-load mtime freshen must not error (or
        // panic) when a concurrent `trace gc` unlinked the entry
        // between the read and the touch.
        let dir = std::env::temp_dir().join(format!("ccnuma-store-freshen-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = TraceStore::new(&dir).unwrap();
        let slug = TraceStore::slug("raytrace [FT] +trace", "identity-f");
        store.save(&slug, &trace(), &meta()).unwrap();
        assert!(freshen(&store.trace_path(&slug)), "live entry is touched");
        // Simulate the gc winning the race: the entry vanishes.
        fs::remove_file(store.trace_path(&slug)).unwrap();
        assert!(
            !freshen(&store.trace_path(&slug)),
            "evicted entry degrades to a no-op"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
