//! Content-addressed *result* store: finished sweep cells and executor
//! runs, one self-verifying file per result.
//!
//! The trace store content-addresses inputs; this directory
//! content-addresses outputs. A cell's key is the sweep memo key
//! extended with a format-version salt plus everything else the replay
//! is a function of (trace slug, node count, other-time, record
//! filter); a run's key is its executor cache key behind its own salt
//! ([`ResultCache::run_key`]). The stored payload is exactly the
//! [`cell_payload`](crate::sweep::cell_payload) (or the executor's
//! exact report) encoding, so a hit reproduces a fresh computation
//! byte-for-byte, across restarts, by construction.
//!
//! Each entry is one JSON object written by
//! [`Storage::write_durable`] (tmp + fsync + rename + directory fsync)
//! under bounded [`retry_io`], so a crash never leaves a half-written
//! result visible and a stored result survives a power cut:
//!
//! ```text
//! {"key":"<full key>","fnv1a64":"<16 hex digits>","payload":<payload>}
//! ```
//!
//! [`ResultCache::load`] checks that the entry was stored under the
//! requested key and that the payload still hashes to its FNV-1a64
//! checksum (the function the trace chunks use). Either mismatch is a
//! [`StoreError::DamagedResult`]: callers count it, warn, and recompute,
//! so a damaged entry is never served.

use crate::format::StoreError;
use crate::store::freshen;
use ccnuma_core::PolicyStats;
use ccnuma_faults::io::{retry_io, DiskStorage, RetryPolicy, Storage};
use ccnuma_obs::json::JsonWriter;
use ccnuma_obs::{artifact_slug, fnv1a64, JsonValue};
use ccnuma_polsim::TraceFilter;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Format-version salt folded into every cell key. Bump it when the
/// payload or entry encoding changes and the whole cache invalidates at
/// once.
pub const RESULT_SALT: &str = "ccnuma-cell-result/2";

/// Format-version salt folded into every executor-run key.
pub const RUN_RESULT_SALT: &str = "ccnuma-run-result/1";

/// Subdirectory of a store directory that holds its result entries.
pub const RESULTS_DIR: &str = "results";

/// The member that separates an entry's header from its payload. A key
/// is written as an escaped JSON string, in which every `"` is preceded
/// by a backslash, so this byte sequence cannot occur inside it.
const PAYLOAD_MEMBER: &str = ",\"payload\":";

/// An on-disk result store directory, doing its file I/O through a
/// [`Storage`] layer ([`DiskStorage`] unless a test injects faults).
#[derive(Debug, Clone)]
pub struct ResultCache<S: Storage = DiskStorage> {
    dir: PathBuf,
    storage: S,
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory on disk.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn new<P: AsRef<Path>>(dir: P) -> Result<ResultCache, StoreError> {
        ResultCache::with_storage(dir, DiskStorage)
    }

    /// The full content address of one cell result: the sweep memo key
    /// salted with the payload format version and the replay's other
    /// inputs.
    pub fn key(
        trace_slug: &str,
        nodes: u16,
        other_time_ns: u64,
        filter: TraceFilter,
        memo_key: &str,
    ) -> String {
        format!("{RESULT_SALT}|{trace_slug}|n={nodes}|ot={other_time_ns}|f={filter:?}|{memo_key}")
    }

    /// The content address of one executor run, by its cache key.
    pub fn run_key(cache_key: &str) -> String {
        format!("{RUN_RESULT_SALT}|{cache_key}")
    }
}

impl<S: Storage> ResultCache<S> {
    /// Opens (creating if needed) the cache directory through `storage`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn with_storage<P: AsRef<Path>>(dir: P, storage: S) -> Result<ResultCache<S>, StoreError> {
        retry_io(RetryPolicy::default(), || {
            storage.create_dir_all(dir.as_ref())
        })?;
        Ok(ResultCache {
            dir: dir.as_ref().to_path_buf(),
            storage,
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// File path a key is stored at: the key's salt as a readable
    /// prefix plus the FNV fingerprint of the full key, like every
    /// other artifact.
    pub fn path(&self, key: &str) -> PathBuf {
        let salt = key.split('|').next().unwrap_or_default();
        self.dir.join(format!("{}.json", artifact_slug(salt, key)))
    }

    /// Loads the payload stored under `key`: `Ok(None)` when there is
    /// no entry. A hit freshens the entry's mtime (best-effort, as
    /// [`TraceStore::open`](crate::TraceStore::open) does), so `trace
    /// gc` sees results that are read as used.
    ///
    /// # Errors
    ///
    /// [`StoreError::DamagedResult`] when the entry does not parse, was
    /// stored under another key, or fails its checksum;
    /// [`StoreError::Io`] when it cannot be read.
    pub fn load(&self, key: &str) -> Result<Option<String>, StoreError> {
        let bytes = match self.storage.read(&self.path(key)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let text = std::str::from_utf8(&bytes).map_err(|_| damaged("entry is not UTF-8"))?;
        let (stored_key, payload) = open_entry(text)?;
        if stored_key != key {
            return Err(damaged("entry was stored under another key"));
        }
        freshen(&self.path(key));
        Ok(Some(payload.to_string()))
    }

    /// Stores `payload` under `key` atomically and durably, retrying
    /// transient I/O failures.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors once retries are exhausted; a failed store
    /// leaves no visible entry.
    pub fn store(&self, key: &str, payload: &str) -> Result<(), StoreError> {
        let mut j = JsonWriter::new();
        j.begin_obj();
        j.key("key");
        j.str(key);
        j.key("fnv1a64");
        j.str(&format!("{:016x}", fnv1a64(payload.as_bytes())));
        j.key("payload");
        j.raw(payload);
        j.end_obj();
        let (path, entry) = (self.path(key), j.finish());
        Ok(retry_io(RetryPolicy::default(), || {
            self.storage.write_durable(&path, entry.as_bytes())
        })?)
    }

    /// Verifies the entry file at `path` on its own: it must parse, pass
    /// its checksum, and sit at the path its stored key addresses.
    ///
    /// # Errors
    ///
    /// As [`load`](ResultCache::load).
    pub fn verify(&self, path: &Path) -> Result<(), StoreError> {
        let bytes = self.storage.read(path)?;
        let text = std::str::from_utf8(&bytes).map_err(|_| damaged("entry is not UTF-8"))?;
        let (stored_key, _) = open_entry(text)?;
        if self.path(&stored_key) != path {
            return Err(damaged("entry is not at its key's address"));
        }
        Ok(())
    }

    /// Entry count and byte footprint of the cache directory, for the
    /// executor summary and capacity planning. Unreadable entries are
    /// counted as zero bytes.
    pub fn footprint(&self) -> (u64, u64) {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        let Ok(dir) = fs::read_dir(&self.dir) else {
            return (0, 0);
        };
        for entry in dir.flatten() {
            if entry.file_name().to_string_lossy().ends_with(".json") {
                entries += 1;
                bytes += entry.metadata().map_or(0, |m| m.len());
            }
        }
        (entries, bytes)
    }
}

/// `PolicyStats`'s counters in payload order, by name: the one field
/// list that [`write_policy_stats`] and [`read_policy_stats`] walk.
fn policy_stats_fields(p: &mut PolicyStats) -> [(&'static str, &mut u64); 13] {
    [
        ("misses_observed", &mut p.misses_observed),
        ("hot_events", &mut p.hot_events),
        ("migrations", &mut p.migrations),
        ("replications", &mut p.replications),
        ("remaps", &mut p.remaps),
        ("collapses", &mut p.collapses),
        ("no_action", &mut p.no_action),
        ("no_action_write_shared", &mut p.no_action_write_shared),
        ("no_action_migrate_limit", &mut p.no_action_migrate_limit),
        ("no_action_pressure", &mut p.no_action_pressure),
        ("no_action_disabled", &mut p.no_action_disabled),
        ("no_action_frozen", &mut p.no_action_frozen),
        ("no_page", &mut p.no_page),
    ]
}

/// Writes `stats` as a payload value: `null`, or an object of its
/// counters as JSON integers. Run and cell payloads both use it.
pub fn write_policy_stats(j: &mut JsonWriter, stats: Option<PolicyStats>) {
    let Some(mut p) = stats else {
        return j.raw("null");
    };
    j.begin_obj();
    for (key, v) in policy_stats_fields(&mut p) {
        j.key(key);
        j.raw(&v.to_string());
    }
    j.end_obj();
}

/// Reads a value written by [`write_policy_stats`]. `None` when a
/// counter is missing or malformed.
pub fn read_policy_stats(v: &JsonValue) -> Option<Option<PolicyStats>> {
    if matches!(v, JsonValue::Null) {
        return Some(None);
    }
    let mut p = PolicyStats::default();
    for (key, slot) in policy_stats_fields(&mut p) {
        *slot = v.get(key)?.as_u64()?;
    }
    Some(Some(p))
}

fn damaged(what: &'static str) -> StoreError {
    StoreError::DamagedResult { what }
}

/// Splits an entry into its stored key and its checksum-verified
/// payload.
fn open_entry(text: &str) -> Result<(String, &str), StoreError> {
    let at = text
        .find(PAYLOAD_MEMBER)
        .ok_or(damaged("entry has no payload"))?;
    let payload = text[at + PAYLOAD_MEMBER.len()..]
        .strip_suffix('}')
        .ok_or(damaged("entry is truncated"))?;
    let header = JsonValue::parse(&format!("{}}}", &text[..at]))
        .map_err(|_| damaged("entry header does not parse"))?;
    let key = header.get("key").and_then(JsonValue::as_str);
    let sum = header.get("fnv1a64").and_then(JsonValue::as_str);
    let (Some(key), Some(sum)) = (key, sum) else {
        return Err(damaged("entry header is incomplete"));
    };
    if u64::from_str_radix(sum, 16).ok() != Some(fnv1a64(payload.as_bytes())) {
        return Err(damaged("payload checksum mismatch"));
    }
    Ok((key.to_string(), payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ccnuma-results-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_load_and_footprint() {
        let dir = tmpdir("basic");
        let cache = ResultCache::new(&dir).unwrap();
        let key = ResultCache::key("slug-a", 8, 42, TraceFilter::UserOnly, "FT|topo=flat");
        assert_eq!(cache.load(&key).unwrap(), None);
        cache.store(&key, "{\"x\":1}").unwrap();
        assert_eq!(cache.load(&key).unwrap().as_deref(), Some("{\"x\":1}"));
        cache.verify(&cache.path(&key)).unwrap();
        // A different filter is a different address.
        let other = ResultCache::key("slug-a", 8, 42, TraceFilter::All, "FT|topo=flat");
        assert_ne!(cache.path(&key), cache.path(&other));
        assert_eq!(cache.load(&other).unwrap(), None);
        // Runs live in their own namespace.
        assert_ne!(cache.path(&ResultCache::run_key(&key)), cache.path(&key));
        let (n, b) = cache.footprint();
        assert_eq!(n, 1);
        assert_eq!(b, fs::metadata(cache.path(&key)).unwrap().len());
        // A reopened cache (daemon restart) sees the same bytes.
        let reopened = ResultCache::new(&dir).unwrap();
        assert_eq!(reopened.load(&key).unwrap().as_deref(), Some("{\"x\":1}"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn keys_with_quotes_round_trip() {
        let dir = tmpdir("quotes");
        let cache = ResultCache::new(&dir).unwrap();
        let key = ResultCache::run_key("Spec { label: \"a\",\"payload\":1 }");
        cache.store(&key, "{\"y\":[1,2]}").unwrap();
        assert_eq!(cache.load(&key).unwrap().as_deref(), Some("{\"y\":[1,2]}"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_changed_digit_is_a_typed_error() {
        let dir = tmpdir("digit");
        let cache = ResultCache::new(&dir).unwrap();
        let key = ResultCache::run_key("k");
        cache.store(&key, "{\"misses\":1234}").unwrap();
        let path = cache.path(&key);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replace("1234", "1235")).unwrap();
        assert!(matches!(
            cache.load(&key),
            Err(StoreError::DamagedResult { .. })
        ));
        assert!(cache.verify(&path).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulty_stores_survive_retries() {
        use ccnuma_faults::io::{FaultyStorage, IoFaultConfig, IoFaults};
        let dir = tmpdir("faulty");
        let faults = IoFaults::new(
            IoFaultConfig {
                write_fail_p: 0.05,
                ..IoFaultConfig::default()
            },
            5,
        );
        let cache = ResultCache::with_storage(&dir, FaultyStorage::new(faults.clone())).unwrap();
        for i in 0..50 {
            let key = ResultCache::run_key(&format!("k{i}"));
            cache.store(&key, &format!("{{\"i\":{i}}}")).unwrap();
        }
        assert!(faults.stats().write_fails > 0, "faults actually fired");
        let clean = ResultCache::new(&dir).unwrap();
        for i in 0..50 {
            let key = ResultCache::run_key(&format!("k{i}"));
            assert_eq!(clean.load(&key).unwrap(), Some(format!("{{\"i\":{i}}}")));
        }
        assert_eq!(clean.footprint().0, 50, "no orphan is counted as an entry");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_entry_under_the_wrong_address_is_a_typed_error() {
        let dir = tmpdir("moved");
        let cache = ResultCache::new(&dir).unwrap();
        let (a, b) = (ResultCache::run_key("a"), ResultCache::run_key("b"));
        cache.store(&a, "{}").unwrap();
        fs::rename(cache.path(&a), cache.path(&b)).unwrap();
        assert!(matches!(
            cache.load(&b),
            Err(StoreError::DamagedResult { .. })
        ));
        assert!(cache.verify(&cache.path(&b)).is_err());
        for garbage in ["", "{}", "{\"key\":\"b\",\"payload\":{}}", "\u{0}"] {
            fs::write(cache.path(&b), garbage).unwrap();
            assert!(cache.load(&b).is_err(), "{garbage:?} must not load");
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
