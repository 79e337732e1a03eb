//! Shared daemon state: configuration, the trace store and result
//! cache, the trace catalogue (footer metas plus resident records under
//! a byte budget), server metrics, and the sweep-job registry.

use ccnuma_obs::Metrics;
use ccnuma_polsim::TraceFilter;
use ccnuma_trace::{MissRecord, Trace};
use ccnuma_tracestore::{ResultCache, StoreError, TraceMeta, TraceStore};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Daemon configuration (the `repro serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7070` (port 0 = ephemeral).
    pub addr: String,
    /// Trace-store directory.
    pub trace_dir: PathBuf,
    /// Result-cache directory (default: `<trace_dir>/results`).
    pub results_dir: PathBuf,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Bounded pending-connection queue depth; beyond it, 503.
    pub queue_depth: usize,
    /// Trace slugs (or labels) loaded resident at startup.
    pub prewarm: Vec<String>,
    /// Byte budget for resident traces; a load that cannot fit even
    /// after evicting idle traces is shed with 503.
    pub trace_budget_bytes: u64,
    /// Per-sweep cell budget; larger grids are rejected with 413.
    pub max_cells: usize,
    /// Request body cap in bytes.
    pub max_body_bytes: usize,
    /// Concurrently running sweeps; beyond it, 429.
    pub max_sweeps: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7070".into(),
            trace_dir: PathBuf::from("artifacts/traces"),
            results_dir: PathBuf::from("artifacts/traces/results"),
            workers: 4,
            queue_depth: 64,
            prewarm: Vec::new(),
            trace_budget_bytes: 256 << 20,
            max_cells: 4096,
            max_body_bytes: 1 << 20,
            max_sweeps: 4,
        }
    }
}

/// A trace held resident in memory, shared across requests. Its meta
/// lives in the trace catalogue, not here.
pub struct ResidentTrace {
    /// Decoded records.
    pub trace: Trace,
    /// In-memory footprint charged against the byte budget.
    pub bytes: u64,
}

impl ResidentTrace {
    /// The records as a slice (the `eval_cell` input).
    pub fn records(&self) -> &[MissRecord] {
        self.trace.as_slice()
    }
}

/// The trace catalogue: slug → footer meta, read once and kept for the
/// daemon's lifetime, plus the decoded records while resident. LRU
/// eviction to stay under the byte budget drops records, never a meta.
struct TraceCache {
    map: HashMap<String, CatalogueEntry>,
    /// Bytes of the resident records.
    bytes: u64,
    tick: u64,
}

struct CatalogueEntry {
    meta: Arc<TraceMeta>,
    /// The records while resident, with the tick of their last use.
    resident: Option<(Arc<ResidentTrace>, u64)>,
}

impl TraceCache {
    /// The resident records of `slug`, marked as just used.
    fn touch(&mut self, slug: &str) -> Option<Arc<ResidentTrace>> {
        self.tick += 1;
        let tick = self.tick;
        let (t, used) = self.map.get_mut(slug)?.resident.as_mut()?;
        *used = tick;
        Some(Arc::clone(t))
    }

    /// Makes `trace` the records of `slug`'s entry, unless another
    /// worker raced its own there, first evicting the least-recently-used
    /// idle records (idle = no request holds an Arc to them) until it
    /// fits the byte budget.
    fn admit(
        &mut self,
        slug: &str,
        meta: Arc<TraceMeta>,
        trace: ResidentTrace,
        budget: u64,
    ) -> Result<Arc<ResidentTrace>, LoadError> {
        if let Some(t) = self.touch(slug) {
            return Ok(t);
        }
        while self.bytes + trace.bytes > budget {
            let victim = self
                .map
                .values_mut()
                .filter(|e| matches!(&e.resident, Some((t, _)) if Arc::strong_count(t) == 1))
                .min_by_key(|e| e.resident.as_ref().map(|(_, used)| *used));
            match victim.and_then(|e| e.resident.take()) {
                Some((t, _)) => self.bytes -= t.bytes,
                None => return Err(LoadError::OverBudget),
            }
        }
        self.bytes += trace.bytes;
        let t = Arc::new(trace);
        let entry = self.map.entry(slug.to_string()).or_insert(CatalogueEntry {
            meta,
            resident: None,
        });
        entry.resident = Some((Arc::clone(&t), self.tick));
        Ok(t)
    }
}

/// Why a trace could not be made resident.
#[derive(Debug)]
pub enum LoadError {
    /// Unknown slug/label.
    NotFound,
    /// Loading it would exceed the byte budget even after evicting
    /// every idle trace — the in-flight byte-budget shed (503).
    OverBudget,
    /// The store failed to read it.
    Store(StoreError),
}

/// One sweep job's lifecycle.
pub enum JobState {
    /// Cells are still replaying.
    Running,
    /// Final `ccnuma-sweep/2` document.
    Done(String),
    /// Typed failure message (store error, shutdown).
    Failed(String),
}

/// A registered sweep: progress counters plus the final document.
pub struct SweepJob {
    /// Grid cells in total.
    pub total: usize,
    /// Grid cells completed so far.
    pub done: AtomicUsize,
    /// Lifecycle, guarded for the progress-stream condvar.
    pub state: Mutex<JobState>,
    /// Signalled on every progress step and at completion.
    pub cv: Condvar,
}

impl SweepJob {
    /// Records `done` grid cells complete and wakes streamers.
    pub fn progress(&self, done: usize) {
        self.done.store(done, Ordering::SeqCst);
        let _guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
        self.cv.notify_all();
    }

    /// Transitions to a terminal state and wakes streamers.
    pub fn finish(&self, state: JobState) {
        let mut guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
        *guard = state;
        self.cv.notify_all();
    }
}

/// Everything the worker threads share.
pub struct ServeState {
    /// Configuration snapshot.
    pub cfg: ServeConfig,
    /// The trace store.
    pub store: TraceStore,
    /// The on-disk result cache.
    pub results: ResultCache,
    /// In-memory memo in front of the result cache. With the trace
    /// catalogue, a warm hit on a known slug makes no system call.
    pub memo: Mutex<HashMap<String, Arc<String>>>,
    /// Server metrics, rendered by `/v1/metrics`.
    pub metrics: Mutex<Metrics>,
    /// Graceful-shutdown flag; workers and sweep threads poll it.
    pub shutdown: AtomicBool,
    /// Running + finished sweep jobs by id.
    pub sweeps: Mutex<HashMap<String, Arc<SweepJob>>>,
    /// Sweeps currently in the `Running` state.
    pub running_sweeps: AtomicUsize,
    traces: Mutex<TraceCache>,
}

impl ServeState {
    /// Opens the store and result cache and builds empty state.
    ///
    /// # Errors
    ///
    /// Propagates store/cache directory-creation failures.
    pub fn new(cfg: ServeConfig) -> Result<ServeState, StoreError> {
        let store = TraceStore::new(&cfg.trace_dir)?;
        let results = ResultCache::new(&cfg.results_dir)?;
        Ok(ServeState {
            cfg,
            store,
            results,
            memo: Mutex::new(HashMap::new()),
            metrics: Mutex::new(Metrics::new()),
            shutdown: AtomicBool::new(false),
            sweeps: Mutex::new(HashMap::new()),
            running_sweeps: AtomicUsize::new(0),
            traces: Mutex::new(TraceCache {
                map: HashMap::new(),
                bytes: 0,
                tick: 0,
            }),
        })
    }

    /// Bumps a counter metric.
    pub fn count(&self, name: &'static str, n: u64) {
        self.metrics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .add(name, n);
    }

    /// Records a histogram observation.
    pub fn observe(&self, name: &'static str, value: u64) {
        self.metrics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .observe(name, value);
    }

    /// Resolves a slug-or-label to a store slug and its footer meta. A
    /// slug in the catalogue is answered from memory; otherwise an exact
    /// slug match on disk wins, then the first (slug-sorted) entry whose
    /// stored label matches. `Ok(None)`: no trace by that name.
    ///
    /// # Errors
    ///
    /// The footer of a slug present on disk could not be read.
    pub fn resolve(&self, name: &str) -> Result<Option<(String, Arc<TraceMeta>)>, StoreError> {
        let known = self.catalogue().map.get(name).map(|e| Arc::clone(&e.meta));
        if let Some(meta) = known {
            return Ok(Some((name.to_string(), meta)));
        }
        if self.store.contains(name) {
            return Ok(Some((name.to_string(), self.meta(name)?)));
        }
        let Ok(slugs) = self.store.list() else {
            return Ok(None);
        };
        Ok(slugs.into_iter().find_map(|slug| match self.meta(&slug) {
            Ok(meta) if meta.label == name => Some((slug, meta)),
            _ => None,
        }))
    }

    /// The footer meta of `slug` from the catalogue, read from the store
    /// (and counted in `trace_footer_reads`) only the first time.
    fn meta(&self, slug: &str) -> Result<Arc<TraceMeta>, StoreError> {
        let mut cache = self.catalogue();
        if let Some(e) = cache.map.get(slug) {
            return Ok(Arc::clone(&e.meta));
        }
        // Read under the lock, so each footer is read once per daemon.
        let meta = Arc::new(self.store.meta(slug)?);
        let entry = CatalogueEntry {
            meta: Arc::clone(&meta),
            resident: None,
        };
        cache.map.insert(slug.to_string(), entry);
        drop(cache);
        self.count("trace_footer_reads", 1);
        Ok(meta)
    }

    fn catalogue(&self) -> MutexGuard<'_, TraceCache> {
        self.traces.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns the resident trace for `slug`, loading it (and evicting
    /// idle colder traces' records) if needed.
    ///
    /// # Errors
    ///
    /// [`LoadError`] — unknown entry, over budget, or a store failure.
    pub fn resident(&self, slug: &str) -> Result<Arc<ResidentTrace>, LoadError> {
        // The catalogue names traces, but a replay needs the trace on
        // disk: one deleted since it was catalogued is not replayed.
        if !self.store.contains(slug) {
            return Err(LoadError::NotFound);
        }
        let meta = self.meta(slug).map_err(LoadError::Store)?;
        if let Some(t) = self.catalogue().touch(slug) {
            return Ok(t);
        }
        // Load outside the lock: decoding can be slow and must not
        // stall warm requests for other traces.
        let (trace, _) = self.store.load(slug).map_err(LoadError::Store)?;
        let bytes = (trace.len() * std::mem::size_of::<MissRecord>()) as u64;
        let trace = ResidentTrace { trace, bytes };
        self.catalogue()
            .admit(slug, meta, trace, self.cfg.trace_budget_bytes)
    }

    /// Resident-trace footprint: `(traces, bytes)`.
    pub fn resident_footprint(&self) -> (usize, u64) {
        let cache = self.catalogue();
        let traces = cache.map.values().filter(|e| e.resident.is_some()).count();
        (traces, cache.bytes)
    }

    /// Whether graceful shutdown has been requested.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Parses a record filter name (`all` / `user` / `kernel`).
pub fn parse_filter(s: &str) -> Option<TraceFilter> {
    match s {
        "all" => Some(TraceFilter::All),
        "user" => Some(TraceFilter::UserOnly),
        "kernel" => Some(TraceFilter::KernelOnly),
        _ => None,
    }
}

/// Renders a filter back to its request name.
pub fn filter_name(f: TraceFilter) -> &'static str {
    match f {
        TraceFilter::All => "all",
        TraceFilter::UserOnly => "user",
        TraceFilter::KernelOnly => "kernel",
    }
}
