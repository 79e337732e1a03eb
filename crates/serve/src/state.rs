//! Shared daemon state: configuration, the trace store and result
//! cache, the resident-trace byte budget, server metrics, and the
//! sweep-job registry.

use ccnuma_obs::Metrics;
use ccnuma_polsim::TraceFilter;
use ccnuma_trace::{MissRecord, Trace};
use ccnuma_tracestore::{ResultCache, StoreError, TraceMeta, TraceStore};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

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

/// A trace held resident in memory, shared across requests.
pub struct ResidentTrace {
    /// Decoded records.
    pub trace: Trace,
    /// The meta from the trace's footer.
    pub meta: TraceMeta,
    /// In-memory footprint charged against the byte budget.
    pub bytes: u64,
}

impl ResidentTrace {
    /// The records as a slice (the `eval_cell` input).
    pub fn records(&self) -> &[MissRecord] {
        self.trace.as_slice()
    }
}

/// The resident-trace cache: slug → trace, LRU-evicted to stay under
/// the byte budget.
struct TraceCache {
    map: HashMap<String, (Arc<ResidentTrace>, u64)>,
    bytes: u64,
    tick: u64,
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
    /// In-memory memo in front of the result cache (warm hits never
    /// touch the filesystem).
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

    /// Resolves a slug-or-label to a store slug: an exact slug match
    /// wins; otherwise the first (slug-sorted) entry whose stored
    /// label matches.
    pub fn resolve_slug(&self, name: &str) -> Option<String> {
        if self.store.contains(name) {
            return Some(name.to_string());
        }
        for slug in self.store.list().ok()? {
            if let Ok(meta) = self.store.meta(&slug) {
                if meta.label == name {
                    return Some(slug);
                }
            }
        }
        None
    }

    /// Returns the resident trace for `slug`, loading it (and evicting
    /// idle colder traces) if needed.
    ///
    /// # Errors
    ///
    /// [`LoadError`] — unknown entry, over budget, or a store failure.
    pub fn resident(&self, slug: &str) -> Result<Arc<ResidentTrace>, LoadError> {
        {
            let mut cache = self.traces.lock().unwrap_or_else(|e| e.into_inner());
            cache.tick += 1;
            let tick = cache.tick;
            if let Some((t, used)) = cache.map.get_mut(slug) {
                *used = tick;
                return Ok(Arc::clone(t));
            }
        }
        if !self.store.contains(slug) {
            return Err(LoadError::NotFound);
        }
        // Load outside the lock: decoding can be slow and must not
        // stall warm requests for other traces.
        let (trace, meta) = self.store.load(slug).map_err(LoadError::Store)?;
        let bytes = (trace.len() * std::mem::size_of::<MissRecord>()) as u64;
        let resident = Arc::new(ResidentTrace { trace, meta, bytes });
        let mut cache = self.traces.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((t, _)) = cache.map.get(slug) {
            // Another worker raced us to it; use theirs.
            return Ok(Arc::clone(t));
        }
        while cache.bytes + bytes > self.cfg.trace_budget_bytes {
            // Evict the least-recently-used idle trace (idle = no
            // request currently holds an Arc to it).
            let victim = cache
                .map
                .iter()
                .filter(|(_, (t, _))| Arc::strong_count(t) == 1)
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    if let Some((t, _)) = cache.map.remove(&k) {
                        cache.bytes -= t.bytes;
                    }
                }
                None => return Err(LoadError::OverBudget),
            }
        }
        cache.bytes += bytes;
        cache.tick += 1;
        let tick = cache.tick;
        cache
            .map
            .insert(slug.to_string(), (Arc::clone(&resident), tick));
        Ok(resident)
    }

    /// Resident-trace footprint: `(traces, bytes)`.
    pub fn resident_footprint(&self) -> (usize, u64) {
        let cache = self.traces.lock().unwrap_or_else(|e| e.into_inner());
        (cache.map.len(), cache.bytes)
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
