//! Store-wide verification (`fsck`), quarantine repair, and
//! byte-budget garbage collection for a [`TraceStore`] and the result
//! entries under its `results/` directory.
//!
//! A trace store accretes entries across many invocations, and the
//! paper pipeline trusts it on the capture-once fast path — a flipped
//! bit or a truncated tail would otherwise surface as a wrong replay
//! deep inside an experiment. [`fsck`] walks every trace with the
//! strict reader (every byte of the file is checked) and every result
//! entry through its key and checksum check, and with repair enabled
//! moves each damaged file whole into a `quarantine/` subdirectory; the
//! next capture of a quarantined trace recomputes it. [`gc`] evicts
//! least-recently-used entries, traces and results alike, until the
//! store fits a byte budget; [`TraceStore::open`] and
//! [`ResultCache::load`] freshen mtimes, so "recently used" means used,
//! not just captured.

use crate::format::{StoreError, TraceReader};
use crate::results::{ResultCache, RESULTS_DIR};
use crate::store::TraceStore;
use ccnuma_faults::io::Storage;
use std::fmt::Write as _;
use std::fs;
use std::io::Cursor;
use std::path::{Path, PathBuf};

/// Subdirectory of the store that repair moves damaged files into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// The verdict on one store entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryStatus {
    /// The strict read of the whole trace file succeeded.
    Clean {
        /// Records in the trace.
        records: u64,
    },
    /// The strict read failed: the file is damaged somewhere.
    Unreadable {
        /// The strict reader's error rendering.
        detail: String,
    },
    /// A result entry that passed its key and checksum checks.
    ResultOk,
    /// A result entry that failed its key or checksum check.
    DamagedResult {
        /// The verification error rendering.
        detail: String,
    },
}

impl EntryStatus {
    /// True for the statuses that need no attention.
    pub fn is_clean(&self) -> bool {
        matches!(self, EntryStatus::Clean { .. } | EntryStatus::ResultOk)
    }
}

/// One entry's fsck result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckEntry {
    /// The entry's slug; a result entry is named `results/<file stem>`.
    pub slug: String,
    /// What the verifier found.
    pub status: EntryStatus,
}

/// The result of an [`fsck`] walk.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Every entry examined: traces sorted by slug, then result
    /// entries sorted by name.
    pub entries: Vec<FsckEntry>,
    /// Stale `*.tmp` leftovers of interrupted saves and `*.meta.json`
    /// sidecars left by the v2 format, which kept a trace's label and
    /// timing beside it instead of in its footer (under `results/`
    /// too). Sorted.
    pub orphans: Vec<String>,
    /// Entries moved to `quarantine/` (empty unless repair was
    /// requested), in slug order.
    pub quarantined: Vec<String>,
}

impl FsckReport {
    /// True when every entry is clean and nothing is orphaned.
    pub fn is_clean(&self) -> bool {
        self.orphans.is_empty() && self.entries.iter().all(|e| e.status.is_clean())
    }

    /// Entries that are not clean.
    pub fn damaged(&self) -> impl Iterator<Item = &FsckEntry> {
        self.entries.iter().filter(|e| !e.status.is_clean())
    }

    /// Renders the deterministic human-readable summary the
    /// `repro trace fsck` subcommand prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let _ = match &e.status {
                EntryStatus::Clean { records } => {
                    writeln!(out, "ok        {} ({records} records)", e.slug)
                }
                EntryStatus::Unreadable { detail } => {
                    writeln!(out, "unreadable {} ({detail})", e.slug)
                }
                EntryStatus::ResultOk => writeln!(out, "ok        {} (result)", e.slug),
                EntryStatus::DamagedResult { detail } => {
                    writeln!(out, "damaged   {} ({detail})", e.slug)
                }
            };
        }
        for o in &self.orphans {
            let _ = writeln!(out, "orphan    {o}");
        }
        for slug in &self.quarantined {
            let _ = writeln!(out, "repaired  {slug}: quarantined");
        }
        let damaged = self.damaged().count();
        let _ = writeln!(
            out,
            "{} entries: {} clean, {} damaged, {} orphaned file(s)",
            self.entries.len(),
            self.entries.len() - damaged,
            damaged,
            self.orphans.len()
        );
        out
    }
}

/// Classifies one trace file by a strict read of all of it.
fn verify_entry<S: Storage>(store: &TraceStore<S>, slug: &str) -> Result<EntryStatus, StoreError> {
    // Reading the bytes is the environment's business (an error here
    // aborts the walk); everything after it is the entry's.
    let bytes = store.storage().read(&store.trace_path(slug))?;
    let strict = TraceReader::new(Cursor::new(&bytes[..])).and_then(|reader| {
        let mut n = 0u64;
        for rec in reader {
            rec?;
            n += 1;
        }
        Ok(n)
    });
    Ok(match strict {
        Ok(records) => EntryStatus::Clean { records },
        Err(e) => EntryStatus::Unreadable {
            detail: e.to_string(),
        },
    })
}

/// Moves `path` into the store's quarantine directory (best-effort
/// create), preserving the file name.
fn quarantine<S: Storage>(store: &TraceStore<S>, path: &Path) -> Result<(), StoreError> {
    let qdir = store.dir().join(QUARANTINE_DIR);
    store.storage().create_dir_all(&qdir)?;
    let name = path.file_name().expect("store paths have file names");
    store.storage().rename(path, &qdir.join(name))?;
    Ok(())
}

/// Verifies every entry of `store`; with `repair`, moves each damaged
/// file whole into quarantine and removes orphans: stale `*.tmp`
/// leftovers and v2 `*.meta.json` sidecars.
///
/// Never panics on damaged input: corruption is reported (and with
/// `repair`, contained), not propagated as a torn replay.
///
/// # Errors
///
/// Only environment errors — an unlistable directory, a quarantine
/// move that fails. Damage inside entries is a report, not an error.
pub fn fsck<S: Storage>(store: &TraceStore<S>, repair: bool) -> Result<FsckReport, StoreError> {
    let mut report = FsckReport::default();
    for (name, _) in sorted_files(store.dir())? {
        // No v3 reader opens a v2 sidecar: it only takes up space.
        if name.ends_with(".tmp") || name.ends_with(".meta.json") {
            report.orphans.push(name);
        }
    }
    for slug in store.list()? {
        let status = verify_entry(store, &slug)?;
        report.entries.push(FsckEntry { slug, status });
    }
    let results_dir = store.dir().join(RESULTS_DIR);
    if results_dir.is_dir() {
        let cache = ResultCache::new(&results_dir)?;
        for (name, path) in sorted_files(&results_dir)? {
            let slug = format!("{RESULTS_DIR}/{name}");
            if name.ends_with(".tmp") {
                report.orphans.push(slug);
            } else if let Some(stem) = slug.strip_suffix(".json") {
                let status = match cache.verify(&path) {
                    Ok(()) => EntryStatus::ResultOk,
                    Err(StoreError::Io(e)) => return Err(StoreError::Io(e)),
                    Err(e) => EntryStatus::DamagedResult {
                        detail: e.to_string(),
                    },
                };
                report.entries.push(FsckEntry {
                    slug: stem.to_string(),
                    status,
                });
            }
        }
        report.orphans.sort();
    }

    if repair {
        for entry in report.entries.iter().filter(|e| !e.status.is_clean()) {
            let path = match entry.status {
                EntryStatus::DamagedResult { .. } => {
                    store.dir().join(format!("{}.json", entry.slug))
                }
                _ => store.trace_path(&entry.slug),
            };
            quarantine(store, &path)?;
            report.quarantined.push(entry.slug.clone());
        }
        // Stale temporaries are droppings from an interrupted save and
        // sidecars are v2 leftovers; with repair on they are deleted,
        // not quarantined.
        for orphan in &report.orphans {
            let _ = store.storage().remove_file(&store.dir().join(orphan));
        }
    }
    Ok(report)
}

/// One evicted entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evicted {
    /// The entry's slug (`results/<file stem>` for a result entry).
    pub slug: String,
    /// Bytes freed.
    pub bytes: u64,
}

/// The result of a [`gc`] pass.
#[derive(Debug, Clone, Default)]
pub struct GcReport {
    /// Store size (trace files plus result entries) before eviction.
    pub bytes_before: u64,
    /// Store size after eviction.
    pub bytes_after: u64,
    /// Evicted entries, least-recently-used first.
    pub evicted: Vec<Evicted>,
    /// Entries kept.
    pub kept: usize,
}

impl GcReport {
    /// Renders the deterministic summary `repro trace gc` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.evicted {
            let _ = writeln!(out, "evicted   {} ({} bytes)", e.slug, e.bytes);
        }
        let _ = writeln!(
            out,
            "{} -> {} bytes, {} evicted, {} kept",
            self.bytes_before,
            self.bytes_after,
            self.evicted.len(),
            self.kept
        );
        out
    }
}

/// Evicts least-recently-used entries until the store's trace files and
/// its result entries together total at most `max_bytes`.
/// Use order is file mtime — [`TraceStore::open`] freshens a trace's on
/// every successful open (and so every load), [`ResultCache::load`] a
/// result's on every hit. Ties break by name so the eviction order is
/// deterministic.
///
/// Concurrency-safe against loaders and other collectors: each victim
/// is re-stat'ed immediately before unlinking, so an entry a load
/// freshened after the scan (it just proved itself hot) is skipped, and
/// an entry another collector already removed is accounted as gone
/// instead of erroring.
///
/// # Errors
///
/// Directory-listing or removal failures (a concurrently vanished
/// entry is not a failure).
pub fn gc<S: Storage>(store: &TraceStore<S>, max_bytes: u64) -> Result<GcReport, StoreError> {
    gc_with_hook(store, max_bytes, |_| {})
}

/// [`gc`] with a test seam: `before_unlink` runs after a victim is
/// chosen and before its files are unlinked — exactly the window a
/// concurrent [`TraceStore::open`] freshen or a racing collector's
/// unlink lands in.
fn gc_with_hook<S: Storage>(
    store: &TraceStore<S>,
    max_bytes: u64,
    mut before_unlink: impl FnMut(&str),
) -> Result<GcReport, StoreError> {
    // Every entry is one file, whose mtime marks its use.
    let mut candidates: Vec<(String, PathBuf)> = store
        .list()?
        .into_iter()
        .map(|slug| {
            let path = store.trace_path(&slug);
            (slug, path)
        })
        .collect();
    let results_dir = store.dir().join(RESULTS_DIR);
    if results_dir.is_dir() {
        for (name, path) in sorted_files(&results_dir)? {
            if let Some(stem) = name.strip_suffix(".json") {
                candidates.push((format!("{RESULTS_DIR}/{stem}"), path));
            }
        }
    }
    let mut entries = Vec::new();
    for (name, path) in candidates {
        // An entry may vanish between the listing and here (a racing
        // collector): it holds no bytes, so it is simply not a victim.
        let md = match fs::metadata(&path) {
            Ok(md) => md,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e.into()),
        };
        let used = md.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
        entries.push((used, name, path, md.len()));
    }
    let mut report = GcReport {
        bytes_before: entries.iter().map(|e| e.3).sum(),
        ..GcReport::default()
    };
    report.bytes_after = report.bytes_before;
    // Oldest first; equal timestamps fall back to name order.
    entries.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let mut vanished = 0usize;
    let mut next = 0;
    while report.bytes_after > max_bytes && next < entries.len() {
        let (seen, name, path, bytes) = &entries[next];
        next += 1;
        before_unlink(name);
        // Re-stat before unlinking. A fresher mtime means a load used
        // the entry after our scan — it is hot now, so evicting it
        // would throw away exactly the bytes most worth keeping; skip
        // to the next-oldest victim instead.
        match fs::metadata(path) {
            Ok(md) => {
                let now = md.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                if now > *seen {
                    continue;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // A racing collector won: the bytes are already gone.
                report.bytes_after -= bytes;
                vanished += 1;
                continue;
            }
            Err(e) => return Err(e.into()),
        }
        remove_if_present(store, path)?;
        report.bytes_after -= bytes;
        report.evicted.push(Evicted {
            slug: name.clone(),
            bytes: *bytes,
        });
    }
    report.kept = entries.len() - report.evicted.len() - vanished;
    Ok(report)
}

/// The regular files directly inside `dir`, as `(name, path)` sorted by
/// name.
fn sorted_files(dir: &Path) -> Result<Vec<(String, PathBuf)>, StoreError> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            files.push((
                entry.file_name().to_string_lossy().into_owned(),
                entry.path(),
            ));
        }
    }
    files.sort();
    Ok(files)
}

/// Unlinks `path`, treating an already-missing file (a racing collector
/// got there first) as success.
fn remove_if_present<S: Storage>(store: &TraceStore<S>, path: &Path) -> Result<(), StoreError> {
    match store.storage().remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::TraceMeta;
    use ccnuma_trace::{MissRecord, Trace};
    use ccnuma_types::{Ns, Pid, ProcId, VirtPage};
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ccnuma-fsck-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample(n: u64) -> Trace {
        (0..n)
            .map(|i| MissRecord::user_data_read(Ns(i * 500), ProcId(0), Pid(0), VirtPage(i / 8)))
            .collect()
    }

    fn meta_for(t: &Trace) -> TraceMeta {
        TraceMeta {
            label: "sample".into(),
            records: t.len() as u64,
            nodes: 8,
            other_time_ns: 0,
        }
    }

    fn store_with(tag: &str, slugs: &[(&str, u64)]) -> (TraceStore, PathBuf) {
        let dir = tmpdir(tag);
        let store = TraceStore::new(&dir).unwrap();
        for (slug, n) in slugs {
            let t = sample(*n);
            store.save(slug, &t, &meta_for(&t)).unwrap();
        }
        (store, dir)
    }

    #[test]
    fn clean_store_passes() {
        let (store, dir) = store_with("clean", &[("a", 100), ("b", 50)]);
        let report = fsck(&store, false).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.entries.len(), 2);
        assert!(report.render().contains("2 entries: 2 clean"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_is_quarantined_whole() {
        let (store, dir) = store_with("trunc", &[("a", 10_000)]);
        // Chop the tail mid-chunk: two whole chunks stay intact.
        let path = store.trace_path("a");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() * 3 / 4]).unwrap();

        let report = fsck(&store, false).unwrap();
        assert!(!report.is_clean());
        assert!(
            matches!(report.entries[0].status, EntryStatus::Unreadable { .. }),
            "{}",
            report.render()
        );
        assert!(report.quarantined.is_empty(), "a dry run moves nothing");

        let repaired = fsck(&store, true).unwrap();
        assert_eq!(repaired.quarantined, ["a"]);
        // No prefix is kept: the entry is gone, so the next capture
        // recomputes it.
        assert!(store.list().unwrap().is_empty());
        assert!(store.load("a").is_err());
        let after = fsck(&store, false).unwrap();
        assert!(after.is_clean(), "{}", after.render());
        assert_eq!(
            fs::read(dir.join(QUARANTINE_DIR).join("a.trace")).unwrap(),
            &bytes[..bytes.len() * 3 / 4]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_header_is_quarantined() {
        let (store, dir) = store_with("garbage", &[("a", 100)]);
        fs::write(store.trace_path("a"), b"not a trace at all").unwrap();
        let report = fsck(&store, true).unwrap();
        assert!(matches!(
            report.entries[0].status,
            EntryStatus::Unreadable { .. }
        ));
        assert_eq!(report.quarantined, ["a"]);
        assert!(store.list().unwrap().is_empty());
        assert!(dir.join(QUARANTINE_DIR).join("a.trace").is_file());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damage_to_the_footer_meta_or_trailer_is_detected() {
        let (store, dir) = store_with("meta", &[("a", 100), ("b", 100), ("c", 100)]);
        // `a`: the label's first byte, inside the checksummed footer.
        let path = store.trace_path("a");
        let mut bytes = fs::read(&path).unwrap();
        let label = bytes.windows(6).rposition(|w| w == b"sample").unwrap();
        bytes[label] ^= 0x20;
        fs::write(&path, bytes).unwrap();
        // `b`: "CCNX" -> "CCNZ", the last byte of the file.
        let path = store.trace_path("b");
        let mut bytes = fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() = b'Z';
        fs::write(&path, bytes).unwrap();
        assert!(store.meta("a").is_err() && store.meta("b").is_err());

        let report = fsck(&store, false).unwrap();
        let statuses: Vec<_> = report.entries.iter().map(|e| &e.status).collect();
        assert!(
            matches!(
                statuses[..],
                [
                    EntryStatus::Unreadable { .. },
                    EntryStatus::Unreadable { .. },
                    EntryStatus::Clean { records: 100 }
                ]
            ),
            "{}",
            report.render()
        );
        let repaired = fsck(&store, true).unwrap();
        assert_eq!(repaired.quarantined, ["a", "b"]);
        assert_eq!(store.list().unwrap(), ["c"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_tmps_are_reported_and_cleaned() {
        let (store, dir) = store_with("orphan", &[("a", 10)]);
        fs::write(dir.join("b.trace.tmp"), b"y").unwrap();
        let report = fsck(&store, false).unwrap();
        assert_eq!(report.orphans, vec!["b.trace.tmp"]);
        assert!(dir.join("b.trace.tmp").is_file(), "dry run deletes nothing");
        fsck(&store, true).unwrap();
        assert!(!dir.join("b.trace.tmp").is_file(), "repair removes tmps");
        assert!(fsck(&store, false).unwrap().is_clean());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v2_sidecars_are_reported_and_cleaned() {
        let (store, dir) = store_with("sidecar", &[("a", 10)]);
        fs::write(dir.join("a.meta.json"), b"{\"label\":\"sample\"}").unwrap();
        let report = fsck(&store, false).unwrap();
        assert!(!report.is_clean(), "{}", report.render());
        assert_eq!(report.orphans, vec!["a.meta.json"]);
        assert!(report.render().contains("orphan    a.meta.json"));
        assert!(dir.join("a.meta.json").is_file(), "dry run deletes nothing");
        fsck(&store, true).unwrap();
        assert!(
            !dir.join("a.meta.json").is_file(),
            "repair removes sidecars"
        );
        assert!(dir.join("a.trace").is_file(), "the trace itself stays");
        assert!(fsck(&store, false).unwrap().is_clean());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_result_entries_are_reported_and_quarantined() {
        let (store, dir) = store_with("results", &[("a", 10)]);
        let cache = ResultCache::new(dir.join(RESULTS_DIR)).unwrap();
        let (good, bad) = (ResultCache::run_key("good"), ResultCache::run_key("bad"));
        cache.store(&good, "{\"n\":1}").unwrap();
        cache.store(&bad, "{\"n\":2}").unwrap();
        fs::write(dir.join(RESULTS_DIR).join("x.json.tmp"), b"partial").unwrap();
        let report = fsck(&store, false).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.entries.len(), 3);
        assert_eq!(report.orphans, vec!["results/x.json.tmp"]);

        let bad_path = cache.path(&bad);
        let text = fs::read_to_string(&bad_path).unwrap();
        fs::write(&bad_path, text.replace("\"n\":2", "\"n\":3")).unwrap();
        let report = fsck(&store, false).unwrap();
        let damaged: Vec<_> = report.damaged().collect();
        assert_eq!(damaged.len(), 1, "{}", report.render());
        assert!(matches!(
            damaged[0].status,
            EntryStatus::DamagedResult { .. }
        ));
        assert!(report.render().contains("checksum"));

        let repaired = fsck(&store, true).unwrap();
        assert_eq!(repaired.quarantined.len(), 1);
        assert!(!bad_path.exists());
        let name = bad_path.file_name().unwrap();
        assert!(dir.join(QUARANTINE_DIR).join(name).is_file());
        let after = fsck(&store, false).unwrap();
        assert!(after.is_clean(), "{}", after.render());
        assert_eq!(cache.load(&good).unwrap().as_deref(), Some("{\"n\":1}"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_counts_and_evicts_result_entries() {
        let (store, dir) = store_with("gc-results", &[("a", 100)]);
        let cache = ResultCache::new(dir.join(RESULTS_DIR)).unwrap();
        let key = ResultCache::run_key("k");
        cache.store(&key, "{\"n\":1}").unwrap();
        let result_bytes = fs::metadata(cache.path(&key)).unwrap().len();
        let trace_bytes = fs::metadata(store.trace_path("a")).unwrap().len();
        let report = gc(&store, u64::MAX).unwrap();
        assert_eq!(report.bytes_before, trace_bytes + result_bytes);
        assert_eq!(report.kept, 2);
        let report = gc(&store, 0).unwrap();
        assert_eq!(report.evicted.len(), 2);
        assert_eq!(report.bytes_after, 0);
        assert_eq!(cache.load(&key).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_evicts_lru_until_under_budget() {
        let (store, dir) = store_with("gc", &[("old", 5000), ("hot", 5000), ("mid", 5000)]);
        // Establish distinct mtimes: old < mid < hot.
        let stamp = |slug: &str, secs: u64| {
            let f = fs::OpenOptions::new()
                .append(true)
                .open(store.trace_path(slug))
                .unwrap();
            f.set_modified(
                std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(secs),
            )
            .unwrap();
        };
        stamp("old", 1000);
        stamp("mid", 2000);
        stamp("hot", 3000);
        let total: u64 = store
            .list()
            .unwrap()
            .iter()
            .map(|s| fs::metadata(store.trace_path(s)).unwrap().len())
            .sum();
        // Budget for roughly two entries: the oldest goes.
        let report = gc(&store, total * 2 / 3).unwrap();
        assert_eq!(report.evicted.len(), 1);
        assert_eq!(report.evicted[0].slug, "old");
        assert_eq!(report.kept, 2);
        assert!(report.bytes_after <= total * 2 / 3);
        assert_eq!(store.list().unwrap(), vec!["hot", "mid"]);
        // A zero budget clears the store.
        let report = gc(&store, 0).unwrap();
        assert_eq!(report.evicted.len(), 2);
        assert_eq!(report.bytes_after, 0);
        assert!(store.list().unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_skips_a_victim_freshened_mid_collection() {
        // Regression: a load that freshens the chosen victim between
        // gc's scan and its unlink proves the entry hot — gc must move
        // on to the next-oldest instead of evicting it.
        let (store, dir) = store_with("gc-race-hot", &[("old", 5000), ("mid", 5000)]);
        let stamp = |slug: &str, secs: u64| {
            let f = fs::OpenOptions::new()
                .append(true)
                .open(store.trace_path(slug))
                .unwrap();
            f.set_modified(
                std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(secs),
            )
            .unwrap();
        };
        stamp("old", 1000);
        stamp("mid", 2000);
        let report = gc_with_hook(&store, 0, |slug| {
            if slug == "old" {
                // The concurrent load's mtime freshen.
                let _ = store.load("old");
            }
        })
        .unwrap();
        assert_eq!(
            report
                .evicted
                .iter()
                .map(|e| e.slug.as_str())
                .collect::<Vec<_>>(),
            vec!["mid"],
            "the freshened victim survives; the next-oldest goes"
        );
        assert_eq!(report.kept, 1);
        assert_eq!(store.list().unwrap(), vec!["old"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_tolerates_a_racing_collector_unlinking_first() {
        // Regression: a second collector removing the victim between
        // gc's scan and its unlink used to surface as a hard I/O error.
        let (store, dir) = store_with("gc-race-gone", &[("old", 5000), ("mid", 5000)]);
        let stamp = |slug: &str, secs: u64| {
            let f = fs::OpenOptions::new()
                .append(true)
                .open(store.trace_path(slug))
                .unwrap();
            f.set_modified(
                std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(secs),
            )
            .unwrap();
        };
        stamp("old", 1000);
        stamp("mid", 2000);
        let report = gc_with_hook(&store, 0, |slug| {
            if slug == "old" {
                // The racing collector wins the unlink.
                fs::remove_file(store.trace_path("old")).unwrap();
            }
        })
        .unwrap();
        assert_eq!(
            report
                .evicted
                .iter()
                .map(|e| e.slug.as_str())
                .collect::<Vec<_>>(),
            vec!["mid"],
            "only the entry this gc actually unlinked is reported evicted"
        );
        assert_eq!(
            report.kept, 0,
            "the vanished entry is neither kept nor evicted"
        );
        assert_eq!(report.bytes_after, 0);
        assert!(store.list().unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_freshens_mtime_for_lru() {
        // Every way an entry is used freshens its LRU stamp: loading a
        // trace, streaming it (what a sweep does), and a result hit.
        let (store, dir) = store_with("touch", &[("a", 100)]);
        let cache = ResultCache::new(dir.join(RESULTS_DIR)).unwrap();
        let key = ResultCache::run_key("k");
        cache.store(&key, "{\"n\":1}").unwrap();
        let age = |path: &Path| {
            let f = fs::OpenOptions::new().append(true).open(path).unwrap();
            f.set_modified(std::time::SystemTime::UNIX_EPOCH).unwrap();
        };
        let stamp = |path: &Path| fs::metadata(path).unwrap().modified().unwrap();
        let epoch = std::time::SystemTime::UNIX_EPOCH;

        let trace = store.trace_path("a");
        age(&trace);
        store.load("a").unwrap();
        assert!(stamp(&trace) > epoch, "load must freshen the LRU stamp");

        age(&trace);
        let (reader, _) = store.open("a").unwrap();
        assert!(stamp(&trace) > epoch, "open must freshen the LRU stamp");
        assert_eq!(reader.count(), 100, "the open stream still reads");

        let result = cache.path(&key);
        age(&result);
        assert_eq!(cache.load(&key).unwrap().as_deref(), Some("{\"n\":1}"));
        assert!(
            stamp(&result) > epoch,
            "a result hit must freshen its stamp"
        );

        // With the trace aged again, a budget for one entry keeps the
        // result that was just read and evicts the trace.
        age(&trace);
        let report = gc(&store, fs::metadata(&result).unwrap().len()).unwrap();
        assert_eq!(report.kept, 1, "{report:?}");
        assert!(
            result.exists() && !trace.exists(),
            "the used result outlives the aged trace"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
