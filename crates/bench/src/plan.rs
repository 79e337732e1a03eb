//! Run plans and the deduplicating, parallel, fault-tolerant executor.
//!
//! Experiments describe the simulator runs they need as [`RunSpec`]s.
//! A [`RunPlan`] collects specs in deterministic order, dropping
//! duplicates; an [`Executor`] memoizes reports keyed by
//! [`RunSpec::cache_key`] and computes the distinct specs of a plan on a
//! pool of scoped worker threads. Because a run is a pure function of its
//! spec, sharing one memoized report between experiments — one
//! first-touch baseline per workload and scale, however many tables and
//! figures read it — cannot change any output, and neither can the order
//! in which worker threads finish: renderers pull finished reports out of
//! the cache in plan order.
//!
//! The executor is built to survive failing runs. A run that returns a
//! typed `SimError` or panics outright (both reachable under fault
//! injection) becomes a memoized [`RunFailure`] instead of tearing the
//! worker pool down: the rest of the plan still executes, the failure is
//! listed in `run-metadata.json`, and [`Executor::failure_for`] lets the
//! `repro` binary skip just the experiments that depend on the failed
//! run. Mutex poisoning from a panicking worker is likewise recovered —
//! the executor's locks guard simple collections that are never left in
//! a torn state, so a poisoned guard's data is still valid.

use crate::resume::{report_from_payload, report_payload};
use ccnuma_faults::{atomic_write, FaultSpec, FaultStats};
use ccnuma_machine::{RunReport, RunSpec};
use ccnuma_obs::{
    artifact_slug, json::JsonWriter, JsonValue, NullProfiler, NullRecorder, RunRecorder,
    SpanProfiler, Verbosity,
};
use ccnuma_trace::Trace;
use ccnuma_tracestore::{ResultCache, StoreError, TraceMeta, TraceStore, RESULTS_DIR};
use ccnuma_types::{Ns, ShardPlan, TopologyPreset};
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Locks `m`, recovering the data from a poisoned mutex. Every mutex in
/// the executor guards an append-only collection that is never left
/// half-updated, so data behind a poisoned lock is still consistent —
/// a worker that panicked mid-run must not wedge the whole plan.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Renders a panic payload as a message for a [`RunFailure`].
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked (non-string payload)".to_string()
    }
}

/// An ordered, duplicate-free collection of runs to execute.
#[derive(Default)]
pub struct RunPlan {
    specs: Vec<RunSpec>,
    seen: HashSet<String>,
}

impl RunPlan {
    /// An empty plan.
    pub fn new() -> RunPlan {
        RunPlan::default()
    }

    /// Adds `spec` unless an identical spec is already planned.
    pub fn add(&mut self, spec: RunSpec) {
        if self.seen.insert(spec.cache_key()) {
            self.specs.push(spec);
        }
    }

    /// Adds every spec in `specs` (deduplicating).
    pub fn extend(&mut self, specs: impl IntoIterator<Item = RunSpec>) {
        for spec in specs {
            self.add(spec);
        }
    }

    /// The distinct specs, in insertion order.
    pub fn specs(&self) -> &[RunSpec] {
        &self.specs
    }

    /// Number of distinct runs planned.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True if nothing is planned.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// Wall-clock timing of one computed run.
#[derive(Debug, Clone)]
pub struct RunTiming {
    /// Human-readable description of the run.
    pub label: String,
    /// The run's stable artifact slug (see
    /// [`ccnuma_obs::artifact_slug`]) — names its directory under an
    /// `--obs-dir` and keys it in `run-metadata.json`.
    pub slug: String,
    /// Time spent simulating it.
    pub wall: Duration,
}

/// One run that did not produce a report: the simulator returned a typed
/// `SimError` or panicked. Memoized like a report (retrying a
/// deterministic failure would fail identically) and listed under
/// `"failures"` in `run-metadata.json`.
#[derive(Debug, Clone)]
pub struct RunFailure {
    /// Human-readable description of the failed run.
    pub label: String,
    /// The run's stable artifact slug.
    pub slug: String,
    /// What went wrong (the `SimError` rendering or the panic message).
    pub error: String,
}

/// Counters describing what an executor did.
#[derive(Debug, Clone, Copy)]
pub struct ExecutorStats {
    /// Worker threads used for plan execution.
    pub jobs: usize,
    /// Reports served from the memo cache.
    pub hits: u64,
    /// Reports actually computed.
    pub computed: u64,
    /// Runs attempted that ended in a [`RunFailure`].
    pub failed: u64,
    /// Traces served from the on-disk trace store instead of a machine
    /// run (always 0 without [`Executor::with_trace_store`]).
    pub store_hits: u64,
    /// Reports restored from the result store instead of computed
    /// (always 0 without [`Executor::with_resume`]).
    pub resumed: u64,
}

/// A trace-bearing run fetched through [`Executor::traced`]: either a
/// fresh machine run carrying its captured trace, or — when the
/// executor has a trace store and the store already holds this spec's
/// capture — the stored trace plus its footer's meta, with no machine
/// run at all. Either way the handle exposes exactly what the Section 8
/// policy-simulator experiments need: the records, the machine's node
/// count, and the run's constant non-miss time.
#[derive(Debug, Clone)]
pub struct TracedRun {
    source: TracedSource,
    nodes: u16,
    other_time: Ns,
}

#[derive(Debug, Clone)]
enum TracedSource {
    Fresh(Arc<RunReport>),
    Stored(Arc<Trace>),
}

impl TracedRun {
    /// The captured miss trace.
    pub fn trace(&self) -> &Trace {
        match &self.source {
            TracedSource::Fresh(report) => report.trace.as_ref().expect("traced run"),
            TracedSource::Stored(trace) => trace,
        }
    }

    /// NUMA nodes of the machine that produced the trace.
    pub fn nodes(&self) -> u16 {
        self.nodes
    }

    /// The run's constant "all other time" component.
    pub fn other_time(&self) -> Ns {
        self.other_time
    }

    /// True when the trace came from the store (no machine run).
    pub fn from_store(&self) -> bool {
        matches!(self.source, TracedSource::Stored(_))
    }

    /// The full machine report, when one was computed.
    pub fn report(&self) -> Option<&Arc<RunReport>> {
        match &self.source {
            TracedSource::Fresh(report) => Some(report),
            TracedSource::Stored(_) => None,
        }
    }
}

/// A memoizing run executor.
///
/// [`Executor::run`] returns the report for a spec, computing it on the
/// calling thread on a cache miss. [`Executor::execute`] computes every
/// not-yet-cached spec of a plan on up to `jobs` scoped threads, so later
/// `run` calls are cache hits. Equal specs always share one report.
///
/// Failing runs degrade gracefully: [`Executor::try_run`] returns a
/// [`RunFailure`] instead of panicking, [`Executor::execute`] records
/// failures and keeps going, and [`Executor::metadata_json`] reports
/// them. [`Executor::with_faults`] stresses a whole plan by applying a
/// default fault scenario to every spec that does not carry its own.
pub struct Executor {
    jobs: usize,
    obs_dir: Option<PathBuf>,
    verbosity: Verbosity,
    default_faults: Option<FaultSpec>,
    default_topology: Option<TopologyPreset>,
    shards: ShardPlan,
    window_us: Option<u64>,
    trace_store: Option<TraceStore>,
    profiling: bool,
    results: Option<ResultCache>,
    profile: Mutex<SpanProfiler>,
    cache: Mutex<HashMap<String, Result<Arc<RunReport>, RunFailure>>>,
    /// Store entries [`Executor::try_traced`] has read, by slug: the
    /// run it served, or `None` for an entry found damaged.
    stored: Mutex<HashMap<String, Option<TracedRun>>>,
    hits: AtomicU64,
    computed: AtomicU64,
    store_hits: AtomicU64,
    resumed: AtomicU64,
    timings: Mutex<Vec<RunTiming>>,
    failures: Mutex<Vec<RunFailure>>,
    warnings: Mutex<Vec<String>>,
}

impl Executor {
    /// An executor that runs plans on up to `jobs` threads (minimum 1).
    pub fn new(jobs: usize) -> Executor {
        Executor {
            jobs: jobs.max(1),
            obs_dir: None,
            verbosity: Verbosity::default(),
            default_faults: None,
            default_topology: None,
            shards: ShardPlan::default(),
            window_us: None,
            trace_store: None,
            profiling: false,
            results: None,
            profile: Mutex::new(SpanProfiler::new()),
            cache: Mutex::new(HashMap::new()),
            stored: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            computed: AtomicU64::new(0),
            store_hits: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
            timings: Mutex::new(Vec::new()),
            failures: Mutex::new(Vec::new()),
            warnings: Mutex::new(Vec::new()),
        }
    }

    /// A single-threaded executor (still memoizing).
    pub fn serial() -> Executor {
        Executor::new(1)
    }

    /// Records observability artifacts for every computed run under
    /// `dir/runs/<slug>/` (see [`ccnuma_obs::write_run_artifacts`]).
    /// Artifacts derive purely from sim-time data, so they are
    /// byte-identical for any job count.
    #[must_use]
    pub fn with_obs_dir(mut self, dir: impl Into<PathBuf>) -> Executor {
        self.obs_dir = Some(dir.into());
        self
    }

    /// Sets the stderr verbosity (Verbose adds per-run start/done lines).
    #[must_use]
    pub fn with_verbosity(mut self, v: Verbosity) -> Executor {
        self.verbosity = v;
        self
    }

    /// Injects `faults` into every run whose spec does not already name
    /// a fault scenario of its own. The fault spec joins the cache key,
    /// so a stressed plan never shares reports with a clean one.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultSpec) -> Executor {
        self.default_faults = Some(faults);
        self
    }

    /// Runs every spec that does not name its own topology preset on
    /// `preset`'s machine. The preset joins each spec before cache
    /// keying, so two executors with different presets in one process
    /// never share reports. A `Flat` preset is recorded as no override
    /// (see [`RunSpec::with_topology`]), keeping cache keys and goldens
    /// stable.
    #[must_use]
    pub fn with_topology(mut self, preset: TopologyPreset) -> Executor {
        self.default_topology = Some(preset);
        self
    }

    /// Shards every run of this executor across `plan`'s worker threads
    /// (specs already carrying a non-default plan keep their own). The
    /// shard plan is host-side parallelism only: it never joins cache
    /// keys, and reports are byte-identical at every shard count.
    #[must_use]
    pub fn with_shards(mut self, plan: ShardPlan) -> Executor {
        self.shards = plan;
        self
    }

    /// Sets the shard epoch window (`--window-us`) for every run whose
    /// spec has not set its own. Unlike the shard plan it perturbs
    /// results (contention feedback is one window late), so it is
    /// installed before keying: a non-default window joins cache keys
    /// and trace slugs. Comparative experiments should hold it fixed.
    #[must_use]
    pub fn with_window_us(mut self, us: Option<u64>) -> Executor {
        self.window_us = us;
        self
    }

    /// Attaches a host-time span profiler to every computed run. The
    /// run report is unchanged (the profiler only watches the host's
    /// wall clock), so profiled and unprofiled invocations render
    /// byte-identical stdout. Each run's profile merges into one
    /// invocation-level aggregate (see
    /// [`Executor::write_invocation_profile`]); under an obs dir the
    /// run additionally writes its own `profile.json` and
    /// `host-trace.json` (see [`ccnuma_obs::write_profile_artifacts`]).
    #[must_use]
    pub fn with_profiling(mut self) -> Executor {
        self.profiling = true;
        self
    }

    /// Serves and captures traces through `store`: a
    /// [`Executor::traced`] call whose capture is already stored skips
    /// the machine run entirely, and every trace a run captures is saved
    /// for next time, replacing any damaged entry. The store is keyed by
    /// the same slug as obs artifacts, so a spec change (scale, seed,
    /// faults) never serves a stale trace.
    #[must_use]
    pub fn with_trace_store(mut self, store: TraceStore) -> Executor {
        self.trace_store = Some(store);
        self
    }

    /// Resumes from (and stores into) the result cache at
    /// `dir/results`. On a memo miss, [`Executor::try_run`] restores the
    /// run's stored report — bit-exact (see [`report_payload`]), so
    /// renderers re-render identical stdout with zero recomputation —
    /// and every run computed from here on is stored before its result
    /// is served. A damaged entry is a warning plus a recomputation,
    /// never a restored wrong report.
    ///
    /// A stored run's trace lives in the trace store, not in the result
    /// cache: `dir` itself becomes the trace store unless
    /// [`Executor::with_trace_store`] already gave one, so call that
    /// first.
    ///
    /// Resume never prints to stdout; restored-run counts surface only
    /// through [`Executor::stats`] and `run-metadata.json`, keeping
    /// golden stdout byte-identical with or without `--resume`.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn with_resume(mut self, dir: &Path) -> Result<Executor, StoreError> {
        if self.trace_store.is_none() {
            self.trace_store = Some(TraceStore::new(dir)?);
        }
        self.results = Some(ResultCache::new(dir.join(RESULTS_DIR))?);
        Ok(self)
    }

    /// The configured observability directory, if any.
    pub fn obs_dir(&self) -> Option<&Path> {
        self.obs_dir.as_deref()
    }

    /// The configured trace store, if any.
    pub fn trace_store(&self) -> Option<&TraceStore> {
        self.trace_store.as_ref()
    }

    /// The result cache runs are stored in and restored from, if any
    /// (see [`Executor::with_resume`]).
    pub fn result_cache(&self) -> Option<&ResultCache> {
        self.results.as_ref()
    }

    /// The trace-store slug for `spec` (after fault defaulting) — the
    /// same label + identity-fingerprint scheme obs artifacts use.
    pub fn trace_slug(&self, spec: &RunSpec) -> String {
        let spec = self.effective_spec(spec);
        TraceStore::slug(&spec.describe(), &spec.cache_key())
    }

    /// True when [`Executor::traced`] would serve `spec` from the store
    /// without running the machine.
    fn store_serves(&self, effective: &RunSpec) -> bool {
        effective.opts.capture_trace
            && self.trace_store.as_ref().is_some_and(|store| {
                store.contains(&TraceStore::slug(
                    &effective.describe(),
                    &effective.cache_key(),
                ))
            })
    }

    /// The spec as this executor will actually run it: the default fault
    /// scenario and topology preset applied unless the spec carries its
    /// own, and the executor's shard plan installed on specs that kept
    /// the default (serial) plan.
    fn effective_spec(&self, spec: &RunSpec) -> RunSpec {
        let mut spec = spec.clone();
        if let Some(f) = self.default_faults {
            if spec.opts.faults.is_none() {
                spec = spec.with_faults(f);
            }
        }
        if let Some(preset) = self.default_topology {
            if spec.topology.is_none() {
                spec = spec.with_topology(preset);
            }
        }
        if spec.opts.shards == ShardPlan::default() {
            spec.opts.shards = self.shards;
        }
        if spec.opts.window_us.is_none() {
            spec.opts.window_us = self.window_us;
        }
        spec
    }

    /// Records a non-fatal problem (shown on stderr, listed under
    /// `"warnings"` in `run-metadata.json`).
    fn warn(&self, msg: String) {
        if self.verbosity.normal() {
            eprintln!("warn  {msg}");
        }
        lock(&self.warnings).push(msg);
    }

    /// Returns the report for `spec`, computing it here if not cached.
    ///
    /// # Panics
    ///
    /// Panics if the run fails (see [`Executor::try_run`] for the
    /// non-panicking form). Renderers call this only for specs the
    /// `repro` driver has already checked with [`Executor::failure_for`].
    pub fn run(&self, spec: &RunSpec) -> Arc<RunReport> {
        self.try_run(spec)
            .unwrap_or_else(|f| panic!("run {} failed: {}", f.label, f.error))
    }

    /// Returns the report for `spec`, or the memoized [`RunFailure`] if
    /// the run errored or panicked. Computes on the calling thread on a
    /// cache miss; a failure is cached exactly like a report, so a
    /// deterministic failure is attempted once per executor.
    pub fn try_run(&self, spec: &RunSpec) -> Result<Arc<RunReport>, RunFailure> {
        let spec = self.effective_spec(spec);
        let key = spec.cache_key();
        if let Some(outcome) = lock(&self.cache).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return outcome.clone();
        }
        let label = spec.describe();
        let slug = artifact_slug(&label, &key);
        match self.restore(&slug, &key) {
            Ok(Some(report)) => {
                self.resumed.fetch_add(1, Ordering::Relaxed);
                return lock(&self.cache)
                    .entry(key)
                    .or_insert(Ok(Arc::new(report)))
                    .clone();
            }
            Ok(None) => {}
            Err(e) => self.warn(format!(
                "resume: stored run {slug} unusable ({e}); recomputing"
            )),
        }
        if self.verbosity.verbose() {
            eprintln!("run   {label}");
        }
        let start = Instant::now();
        // The catch_unwind fence is what lets one poisoned run fail
        // alone: a panic inside the simulator (or the recorder) becomes
        // a RunFailure here instead of unwinding through the worker pool.
        let computed = catch_unwind(AssertUnwindSafe(|| {
            // Profiling rides any of the paths below without changing
            // the report: the profiler only watches the host's wall
            // clock, so profiled stdout stays byte-identical. Each
            // worker profiles into a local SpanProfiler (no lock on the
            // hot path) merged into the invocation aggregate at the end.
            let mut prof = self.profiling.then(SpanProfiler::new);
            let result = if let Some(dir) = &self.obs_dir {
                // Instrumented run: same report (the recorder is a pure
                // side-channel), plus the artifact set on disk. A failed
                // artifact write degrades to a warning — the report is
                // already computed and still worth serving.
                let cpus = spec.build_workload().config.procs() as usize;
                let mut rec = RunRecorder::default();
                let report = match &mut prof {
                    Some(p) => spec.try_run_with(&mut rec, p)?,
                    None => spec.try_run_with(&mut rec, &mut NullProfiler)?,
                };
                if let Err(e) = ccnuma_obs::write_run_artifacts(dir, &slug, &rec, cpus) {
                    self.warn(format!("writing obs artifacts for {label}: {e}"));
                }
                if let Some(p) = &prof {
                    if let Err(e) = ccnuma_obs::write_profile_artifacts(dir, &slug, p) {
                        self.warn(format!("writing profile artifacts for {label}: {e}"));
                    }
                }
                Ok(report)
            } else {
                match &mut prof {
                    Some(p) => spec.try_run_with(&mut NullRecorder, p),
                    None => spec.try_run(),
                }
            };
            if let Some(p) = &prof {
                lock(&self.profile).merge(p);
            }
            result
        }));
        let outcome = match computed {
            Ok(Ok(report)) => Ok(Arc::new(report)),
            Ok(Err(e)) => Err(RunFailure {
                label: label.clone(),
                slug: slug.clone(),
                error: e.to_string(),
            }),
            Err(payload) => Err(RunFailure {
                label: label.clone(),
                slug: slug.clone(),
                error: panic_message(payload),
            }),
        };
        let wall = start.elapsed();
        if let Ok(report) = &outcome {
            // Store before serving the result: once a caller sees this
            // report, a crash-and-resume must not recompute it.
            if let Err(e) = self.save(&spec, &slug, &key, report) {
                self.warn(format!("storing {slug}: {e}"));
            }
        }
        match &outcome {
            Ok(_) => {
                if self.verbosity.verbose() {
                    eprintln!("done  {label} ({:.2}s)", wall.as_secs_f64());
                }
                self.computed.fetch_add(1, Ordering::Relaxed);
                lock(&self.timings).push(RunTiming { label, slug, wall });
            }
            Err(f) => {
                if self.verbosity.normal() {
                    eprintln!("fail  {label}: {}", f.error);
                }
                lock(&self.failures).push(f.clone());
            }
        }
        // Keep the first outcome if another thread raced us here; both
        // are equal by determinism, but callers must agree on one Arc.
        lock(&self.cache).entry(key).or_insert(outcome).clone()
    }

    /// The run stored under `key` in the result cache, with its trace
    /// (if it captured one) loaded from the trace store entry `slug`.
    /// `Ok(None)` without a result cache (and so without
    /// [`Executor::with_resume`]) or when the run was never stored. A
    /// result whose trace file is gone (quarantined by `trace fsck
    /// --repair`, evicted by `trace gc`) counts as never stored: the
    /// run is recomputed without a warning, and its save rewrites both.
    ///
    /// # Errors
    ///
    /// A typed [`StoreError`] when the result entry or its trace fails
    /// verification, or the two disagree; the caller recomputes.
    fn restore(&self, slug: &str, key: &str) -> Result<Option<RunReport>, StoreError> {
        let (Some(results), Some(store)) = (&self.results, &self.trace_store) else {
            return Ok(None);
        };
        let Some(text) = results.load(&ResultCache::run_key(key))? else {
            return Ok(None);
        };
        let incomplete = || StoreError::DamagedResult {
            what: "run payload is incomplete",
        };
        let v = JsonValue::parse(&text).map_err(|_| incomplete())?;
        let trace = match v.get("trace_records").and_then(JsonValue::as_u64) {
            // `try_traced` found this capture damaged and has warned.
            Some(_) if matches!(lock(&self.stored).get(slug), Some(None)) => return Ok(None),
            Some(_) if !store.contains(slug) => return Ok(None),
            Some(n) => {
                let (trace, _) = store.load(slug)?;
                if trace.len() as u64 != n {
                    return Err(StoreError::DamagedResult {
                        what: "stored trace length disagrees with its run",
                    });
                }
                Some(trace)
            }
            None => None,
        };
        report_from_payload(&v, trace)
            .map(Some)
            .ok_or_else(incomplete)
    }

    /// Persists one computed run: its trace (if it captured one) as the
    /// trace store entry `slug`, overwriting whatever is there, then its
    /// exact [`report_payload`] under `key` in the result cache. The
    /// trace goes first, so a result entry is never visible without the
    /// trace it names. This is the only place a trace is saved.
    fn save(
        &self,
        spec: &RunSpec,
        slug: &str,
        key: &str,
        report: &RunReport,
    ) -> Result<(), StoreError> {
        if let (Some(store), Some(trace)) = (&self.trace_store, &report.trace) {
            let meta = TraceMeta {
                label: spec.describe(),
                records: trace.len() as u64,
                nodes: spec.build_workload().config.nodes,
                other_time_ns: crate::helpers::other_time_of(report).0,
            };
            store.save(slug, trace, &meta)?;
        }
        match &self.results {
            Some(results) => results.store(&ResultCache::run_key(key), &report_payload(report)),
            None => Ok(()),
        }
    }

    /// Returns the trace-bearing run for `spec` — from the trace store
    /// when possible (capture-once), from [`Executor::try_run`] otherwise,
    /// which saves the capture to the store for future invocations.
    ///
    /// # Panics
    ///
    /// Panics if the machine run fails (see [`Executor::try_traced`]).
    pub fn traced(&self, spec: &RunSpec) -> TracedRun {
        self.try_traced(spec)
            .unwrap_or_else(|f| panic!("run {} failed: {}", f.label, f.error))
    }

    /// Non-panicking form of [`Executor::traced`].
    ///
    /// A run this executor already holds is served from memory, and so
    /// is a store entry it already read: each entry is decoded at most
    /// once. An unreadable store entry degrades to one warning plus a
    /// fresh capture, which rewrites the entry; only a failing machine
    /// run is an error.
    pub fn try_traced(&self, spec: &RunSpec) -> Result<TracedRun, RunFailure> {
        let spec = self.effective_spec(spec);
        let key = spec.cache_key();
        let slug = TraceStore::slug(&spec.describe(), &key);
        if !lock(&self.cache).contains_key(&key) {
            if let Some(run) = self.serve_stored(&slug) {
                return Ok(run);
            }
        }
        let report = self.try_run(&spec)?;
        Ok(TracedRun {
            nodes: spec.build_workload().config.nodes,
            other_time: crate::helpers::other_time_of(&report),
            source: TracedSource::Fresh(report),
        })
    }

    /// The store's capture `slug`, read on the first call and then
    /// served from memory. `None` when there is no store or no entry,
    /// or when the entry is damaged (warned about on the first call).
    fn serve_stored(&self, slug: &str) -> Option<TracedRun> {
        let store = self.trace_store.as_ref()?;
        let mut stored = lock(&self.stored);
        if let Some(run) = stored.get(slug) {
            if run.is_some() {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            return run.clone();
        }
        if !store.contains(slug) {
            return None;
        }
        let run = match store.load(slug) {
            Ok((trace, meta)) => {
                self.store_hits.fetch_add(1, Ordering::Relaxed);
                if self.verbosity.verbose() {
                    eprintln!("trace {} served from store", meta.label);
                }
                Some(TracedRun {
                    nodes: meta.nodes,
                    other_time: Ns(meta.other_time_ns),
                    source: TracedSource::Stored(Arc::new(trace)),
                })
            }
            Err(e) => {
                self.warn(format!("stored trace {slug} unreadable ({e}); recapturing"));
                None
            }
        };
        stored.insert(slug.to_string(), run.clone());
        run
    }

    /// Computes every spec of `plan` that is not yet cached, using up to
    /// `jobs` worker threads. Idempotent; call before rendering so the
    /// renderers' `run` calls all hit the cache. Failing runs are
    /// recorded (see [`Executor::failures`]) and do not stop the rest of
    /// the plan.
    pub fn execute(&self, plan: &RunPlan) {
        let todo: Vec<&RunSpec> = {
            let cache = lock(&self.cache);
            plan.specs()
                .iter()
                .filter(|s| {
                    let eff = self.effective_spec(s);
                    // A traced spec whose capture is already stored is
                    // served by `traced` without a machine run; planning
                    // it here would defeat capture-once.
                    !cache.contains_key(&eff.cache_key()) && !self.store_serves(&eff)
                })
                .collect()
        };
        if todo.is_empty() {
            return;
        }
        let workers = self.jobs.min(todo.len());
        if workers <= 1 {
            for spec in todo {
                let _ = self.try_run(spec);
            }
            return;
        }
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = todo.get(i) else {
                        break;
                    };
                    let _ = self.try_run(spec);
                });
            }
        });
    }

    /// Hit/compute/failure counters so far.
    pub fn stats(&self) -> ExecutorStats {
        ExecutorStats {
            jobs: self.jobs,
            hits: self.hits.load(Ordering::Relaxed),
            computed: self.computed.load(Ordering::Relaxed),
            failed: lock(&self.failures).len() as u64,
            store_hits: self.store_hits.load(Ordering::Relaxed),
            resumed: self.resumed.load(Ordering::Relaxed),
        }
    }

    /// Per-run wall times of every computed run, in completion order.
    pub fn timings(&self) -> Vec<RunTiming> {
        lock(&self.timings).clone()
    }

    /// Every recorded run failure, sorted by slug (deterministic across
    /// thread schedules).
    pub fn failures(&self) -> Vec<RunFailure> {
        let mut fs = lock(&self.failures).clone();
        fs.sort_by(|a, b| a.slug.cmp(&b.slug));
        fs.dedup_by(|a, b| a.slug == b.slug);
        fs
    }

    /// True if any attempted run failed.
    pub fn has_failures(&self) -> bool {
        !lock(&self.failures).is_empty()
    }

    /// Recorded warnings (non-fatal problems like failed artifact
    /// writes), sorted for determinism.
    pub fn warnings(&self) -> Vec<String> {
        let mut ws = lock(&self.warnings).clone();
        ws.sort();
        ws
    }

    /// The memoized failure for `spec` (after fault defaulting), if its
    /// run failed. Lets the `repro` driver skip rendering exactly the
    /// experiments that depend on a failed run.
    pub fn failure_for(&self, spec: &RunSpec) -> Option<RunFailure> {
        let key = self.effective_spec(spec).cache_key();
        match lock(&self.cache).get(&key) {
            Some(Err(f)) => Some(f.clone()),
            _ => None,
        }
    }

    /// Field-wise sum of the fault/degradation statistics of every
    /// successfully computed run — the executor-level chaos summary.
    /// All-zero when fault injection is off.
    pub fn fault_totals(&self) -> FaultStats {
        lock(&self.cache)
            .values()
            .filter_map(|o| o.as_ref().ok())
            .fold(FaultStats::default(), |acc, r| acc.merged(&r.fault_stats))
    }

    /// The `run-metadata.json` document for everything executed so far:
    /// job count, distinct runs computed, cache hits, failure count,
    /// total wall time, a per-run list of `{label, slug, wall_seconds}`,
    /// and the recorded failures and warnings.
    ///
    /// Runs, failures and warnings are sorted so the *structure* is
    /// deterministic; the wall-clock fields are measurements and
    /// naturally vary between invocations (which is why this file lives
    /// next to, not inside, the per-run artifact directories the
    /// byte-identity guarantee covers).
    pub fn metadata_json(&self, wall_total: Duration) -> String {
        let stats = self.stats();
        let mut timings = self.timings();
        timings.sort_by(|a, b| a.slug.cmp(&b.slug));
        let failures = self.failures();
        let warnings = self.warnings();
        let mut j = JsonWriter::new();
        j.begin_obj();
        j.key("schema");
        j.str("ccnuma-run-metadata/3");
        j.key("jobs");
        j.raw(&stats.jobs.to_string());
        j.key("distinct_runs");
        j.raw(&stats.computed.to_string());
        j.key("cache_hits");
        j.raw(&stats.hits.to_string());
        j.key("failed_runs");
        j.raw(&stats.failed.to_string());
        j.key("resumed_runs");
        j.raw(&stats.resumed.to_string());
        j.key("wall_seconds_total");
        j.raw(&format!("{:.6}", wall_total.as_secs_f64()));
        j.key("runs");
        j.begin_arr();
        for t in &timings {
            j.begin_obj();
            j.key("label");
            j.str(&t.label);
            j.key("slug");
            j.str(&t.slug);
            j.key("wall_seconds");
            j.raw(&format!("{:.6}", t.wall.as_secs_f64()));
            j.end_obj();
        }
        j.end_arr();
        j.key("failures");
        j.begin_arr();
        for f in &failures {
            j.begin_obj();
            j.key("label");
            j.str(&f.label);
            j.key("slug");
            j.str(&f.slug);
            j.key("error");
            j.str(&f.error);
            j.end_obj();
        }
        j.end_arr();
        j.key("warnings");
        j.begin_arr();
        for w in &warnings {
            j.str(w);
        }
        j.end_arr();
        j.end_obj();
        let mut s = j.finish();
        s.push('\n');
        s
    }

    /// The invocation-level host profile: every computed run's
    /// per-phase aggregates merged commutatively, so the totals never
    /// depend on worker scheduling. `None` unless
    /// [`Executor::with_profiling`] was set.
    pub fn invocation_profile(&self) -> Option<SpanProfiler> {
        self.profiling.then(|| lock(&self.profile).clone())
    }

    /// Writes the merged invocation profile to `<dir>/profile.json`
    /// (the same `ccnuma-profile/3` document the per-run artifacts
    /// use), creating `dir` if needed. Returns the file's path; no-op
    /// `None` when profiling is off.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-write errors.
    pub fn write_invocation_profile(&self, dir: &Path) -> io::Result<Option<PathBuf>> {
        let Some(prof) = self.invocation_profile() else {
            return Ok(None);
        };
        std::fs::create_dir_all(dir)?;
        let path = dir.join("profile.json");
        atomic_write(&path, prof.to_json().as_bytes())?;
        Ok(Some(path))
    }

    /// Writes [`Executor::metadata_json`] to `<dir>/run-metadata.json`,
    /// creating `dir` if needed. Returns the file's path.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-write errors.
    pub fn write_run_metadata(&self, dir: &Path, wall_total: Duration) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("run-metadata.json");
        atomic_write(&path, self.metadata_json(wall_total).as_bytes())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma_faults::FaultScenario;
    use ccnuma_machine::{PolicyChoice, RunOptions};
    use ccnuma_workloads::{Scale, WorkloadKind};

    fn ft(kind: WorkloadKind) -> RunSpec {
        RunSpec::catalog(
            kind,
            Scale::quick(),
            RunOptions::new(PolicyChoice::first_touch()),
        )
    }

    #[test]
    fn plan_deduplicates_preserving_order() {
        let mut plan = RunPlan::new();
        plan.add(ft(WorkloadKind::Raytrace));
        plan.add(ft(WorkloadKind::Database));
        plan.add(ft(WorkloadKind::Raytrace));
        assert_eq!(plan.len(), 2);
        assert_eq!(
            plan.specs()[0].cache_key(),
            ft(WorkloadKind::Raytrace).cache_key()
        );
        assert_eq!(
            plan.specs()[1].cache_key(),
            ft(WorkloadKind::Database).cache_key()
        );
    }

    #[test]
    fn two_executors_with_different_topologies_coexist_in_one_process() {
        // Regression: the --topology override used to be a process-wide
        // write-once OnceLock, so a second executor could never simulate
        // a different machine. It is now per-executor state.
        let spec = ft(WorkloadKind::Raytrace);
        let flat = Executor::serial();
        let hier = Executor::serial().with_topology(TopologyPreset::FourSocketHierarchical);
        let a = flat.run(&spec);
        let b = hier.run(&spec);
        assert_ne!(
            format!("{:?}", a.breakdown),
            format!("{:?}", b.breakdown),
            "hierarchical latencies must produce a different run"
        );
        // An explicit Flat preset is the identity: same effective spec,
        // same cache key, same report as no preset at all.
        let explicit_flat = Executor::serial().with_topology(TopologyPreset::Flat);
        let c = explicit_flat.run(&spec);
        assert_eq!(format!("{:?}", a.breakdown), format!("{:?}", c.breakdown));
        // A spec carrying its own preset wins over the executor default.
        let own = spec
            .clone()
            .with_topology(TopologyPreset::FourSocketHierarchical);
        let d = flat.run(&own);
        assert_eq!(format!("{:?}", b.breakdown), format!("{:?}", d.breakdown));
    }

    #[test]
    fn executor_shard_plan_changes_no_report_and_no_cache_key() {
        let spec = ft(WorkloadKind::Raytrace);
        let serial = Executor::serial();
        let sharded = Executor::serial().with_shards(ShardPlan::new(4));
        let a = serial.run(&spec);
        let b = sharded.run(&spec);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "shards are host-side only; reports must be byte-identical"
        );
        // The shard plan never joins cache keys: a sharded executor
        // still memoizes under the same key the serial one used.
        assert_eq!(
            serial.trace_slug(&spec),
            sharded.trace_slug(&spec),
            "slug (and hence cache key) is shard-invariant"
        );
    }

    #[test]
    fn run_memoizes() {
        let exec = Executor::serial();
        let a = exec.run(&ft(WorkloadKind::Raytrace));
        let b = exec.run(&ft(WorkloadKind::Raytrace));
        assert!(Arc::ptr_eq(&a, &b), "second run must be the cached report");
        let stats = exec.stats();
        assert_eq!(stats.computed, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.failed, 0);
        assert_eq!(exec.timings().len(), 1);
    }

    #[test]
    fn execute_then_run_hits_for_every_planned_spec() {
        let mut plan = RunPlan::new();
        for kind in [WorkloadKind::Raytrace, WorkloadKind::Database] {
            plan.add(ft(kind));
        }
        let exec = Executor::new(2);
        exec.execute(&plan);
        assert_eq!(exec.stats().computed, 2);
        for spec in plan.specs() {
            exec.run(spec);
        }
        assert_eq!(exec.stats().computed, 2, "no recomputation after execute");
        assert_eq!(exec.stats().hits, 2);
        // Executing the same plan again is a no-op.
        exec.execute(&plan);
        assert_eq!(exec.stats().computed, 2);
    }

    #[test]
    fn parallel_and_serial_executors_agree() {
        let spec = ft(WorkloadKind::Database);
        let mut plan = RunPlan::new();
        plan.add(spec.clone());
        let serial = Executor::serial();
        serial.execute(&plan);
        let parallel = Executor::new(4);
        parallel.execute(&plan);
        let a = serial.run(&spec);
        let b = parallel.run(&spec);
        assert_eq!(format!("{:?}", a.breakdown), format!("{:?}", b.breakdown));
        assert_eq!(a.sim_time, b.sim_time);
    }

    #[test]
    fn default_faults_apply_and_split_the_cache() {
        let spec = ft(WorkloadKind::Raytrace);
        let clean = Executor::serial();
        let chaotic = Executor::serial().with_faults(FaultSpec::new(FaultScenario::PressureStorm));
        let a = clean.run(&spec);
        let b = chaotic.run(&spec);
        assert!(a.fault_stats.is_zero(), "clean run must inject nothing");
        assert!(
            b.fault_stats.injected_total() > 0,
            "defaulted fault spec must actually inject"
        );
        // A spec carrying its own fault scenario wins over the default.
        // Counter saturation needs a counting policy, so use Mig/Rep.
        let own = crate::dynamic_spec(WorkloadKind::Raytrace, Scale::quick())
            .with_faults(FaultSpec::new(FaultScenario::CounterSat));
        let c = chaotic.run(&own);
        assert_eq!(c.fault_stats.storms, 0, "own scenario overrides default");
        assert!(c.fault_stats.counters_capped > 0);
        assert!(chaotic.fault_totals().injected_total() > 0);
        assert!(clean.fault_totals().is_zero());
    }

    #[test]
    fn failures_are_recorded_and_memoized_without_poisoning() {
        let exec = Executor::serial();
        // Inject a failure the way try_run does, then confirm the
        // executor keeps serving other runs and reports it everywhere.
        lock(&exec.failures).push(RunFailure {
            label: "broken [X]".into(),
            slug: "zz-broken".into(),
            error: "out of memory: no frame for page 7 on node 1".into(),
        });
        lock(&exec.cache).insert(
            "broken-key".into(),
            Err(RunFailure {
                label: "broken [X]".into(),
                slug: "zz-broken".into(),
                error: "out of memory: no frame for page 7 on node 1".into(),
            }),
        );
        assert!(exec.has_failures());
        assert_eq!(exec.stats().failed, 1);
        let report = exec.run(&ft(WorkloadKind::Raytrace));
        assert!(report.sim_time.0 > 0, "healthy runs still execute");
        let meta = exec.metadata_json(Duration::from_secs(1));
        assert!(meta.contains("\"schema\":\"ccnuma-run-metadata/3\""));
        assert!(meta.contains("\"failed_runs\":1"));
        assert!(meta.contains("\"zz-broken\""));
        assert!(meta.contains("out of memory"));
        assert!(meta.contains("\"warnings\":[]"));
    }

    #[test]
    fn obs_write_problems_degrade_to_warnings() {
        // Point the obs dir at a *file* so artifact writes must fail;
        // the run itself still succeeds and the warning is recorded.
        let dir = std::env::temp_dir().join(format!("ccnuma-warn-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("runs");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let exec = Executor::serial()
            .with_obs_dir(&dir)
            .with_verbosity(Verbosity::Quiet);
        let report = exec.run(&ft(WorkloadKind::Raytrace));
        assert!(report.sim_time.0 > 0, "report survives the failed write");
        let warnings = exec.warnings();
        assert_eq!(warnings.len(), 1, "exactly one warning: {warnings:?}");
        assert!(warnings[0].contains("writing obs artifacts"));
        let meta = exec.metadata_json(Duration::from_secs(1));
        assert!(meta.contains("writing obs artifacts"));
        assert!(!exec.has_failures());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profiled_executor_matches_unprofiled_and_aggregates_runs() {
        use ccnuma_obs::Phase;
        let mut plan = RunPlan::new();
        plan.add(ft(WorkloadKind::Raytrace));
        plan.add(ft(WorkloadKind::Database));
        let plain = Executor::serial();
        plain.execute(&plan);
        let dir = std::env::temp_dir().join(format!("ccnuma-prof-exec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let profiled = Executor::new(2)
            .with_profiling()
            .with_obs_dir(&dir)
            .with_verbosity(Verbosity::Quiet);
        profiled.execute(&plan);
        assert!(plain.invocation_profile().is_none());
        let prof = profiled.invocation_profile().expect("profiling is on");
        // One Run span per computed run. Phase::Memory counts only the
        // serial tail's references (lane windows are Phase::Lanes), so
        // the entry count is positive but well below one-per-reference.
        assert_eq!(prof.entries(Phase::Run), 2);
        let total_refs: u64 = plan
            .specs()
            .iter()
            .map(|s| s.build_workload().total_refs)
            .sum();
        assert!(prof.entries(Phase::Memory) > 0);
        assert!(prof.entries(Phase::Memory) <= total_refs);
        assert!(prof.entries(Phase::Merge) > 0, "windows merged");
        for spec in plan.specs() {
            let a = plain.run(spec);
            let b = profiled.run(spec);
            assert_eq!(a.breakdown, b.breakdown, "profiler must not change reports");
            assert_eq!(a.sim_time, b.sim_time);
            // Per-run artifacts landed next to the obs set.
            let slug = artifact_slug(&spec.describe(), &spec.cache_key());
            let run_dir = dir.join("runs").join(&slug);
            assert!(run_dir.join("profile.json").is_file(), "{slug}");
            assert!(run_dir.join("host-trace.json").is_file(), "{slug}");
            assert!(run_dir.join("metrics.json").is_file(), "{slug}");
        }
        let path = profiled
            .write_invocation_profile(&dir)
            .unwrap()
            .expect("profiling on");
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.starts_with("{\"schema\":\"ccnuma-profile/3\""));
        assert_eq!(plain.write_invocation_profile(&dir).unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_serves_identical_reports_with_zero_recomputation() {
        let dir = std::env::temp_dir().join(format!("ccnuma-ckpt-exec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = ft(WorkloadKind::Raytrace);
        let first = Executor::serial().with_resume(&dir).unwrap();
        let a = first.run(&spec);
        assert_eq!(first.stats().computed, 1);
        assert_eq!(first.stats().resumed, 0, "nothing stored yet");
        // A second executor resuming from the same directory serves the
        // stored report without running the machine.
        let second = Executor::serial().with_resume(&dir).unwrap();
        let b = second.run(&spec);
        assert_eq!(second.stats().resumed, 1);
        assert_eq!(
            second.stats().computed,
            0,
            "resume means zero recomputation"
        );
        assert_eq!(
            format!("{:?}", *a),
            format!("{:?}", *b),
            "bit-exact restore"
        );
        let meta = second.metadata_json(Duration::from_secs(1));
        assert!(meta.contains("\"resumed_runs\":1"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_restores_traced_runs_and_damage_is_typed() {
        let dir = std::env::temp_dir().join(format!("ccnuma-ckpt-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = crate::traced_ft_spec(WorkloadKind::Database, Scale::quick());
        let first = Executor::serial().with_resume(&dir).unwrap();
        let a = first.run(&spec);
        assert!(a.trace.is_some());
        let second = Executor::serial().with_resume(&dir).unwrap();
        let b = second.run(&spec);
        assert_eq!(second.stats().computed, 0);
        assert_eq!(
            a.trace.as_ref().unwrap().as_slice(),
            b.trace.as_ref().unwrap().as_slice(),
            "the trace store entry restores the capture exactly"
        );
        let slug = second.trace_slug(&spec);
        let key = second.effective_spec(&spec).cache_key();
        // Another run's key never restores this report.
        assert!(second.restore(&slug, "other").unwrap().is_none());

        // An entry that passes its checksum but carries an incomplete
        // (or unparsable) run payload is a typed error, not a report.
        let results = ResultCache::new(dir.join(RESULTS_DIR)).unwrap();
        for payload in ["{\"workload\":\"x\"}", "not json"] {
            results
                .store(&ResultCache::run_key("partial"), payload)
                .unwrap();
            assert!(
                matches!(
                    second.restore(&slug, "partial"),
                    Err(StoreError::DamagedResult {
                        what: "run payload is incomplete"
                    })
                ),
                "{payload:?} must not restore"
            );
        }

        // One flipped byte inside a trace chunk body (past the 8-byte
        // header and the 13-byte chunk frame) is a typed error. A
        // missing trace (quarantined, evicted) is a run never stored.
        let path = dir.join(format!("{slug}.trace"));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8 + 13 + 4] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();
        assert!(second.restore(&slug, &key).is_err());
        std::fs::remove_file(&path).unwrap();
        assert!(second.restore(&slug, &key).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_changed_digit_in_a_stored_run_is_recomputed_not_served() {
        let dir = std::env::temp_dir().join(format!("ccnuma-ckpt-digit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = ft(WorkloadKind::Raytrace);
        let fresh = Executor::serial().with_resume(&dir).unwrap().run(&spec);
        // Bump the first digit of the stored `sim_time`.
        let entry = std::fs::read_dir(dir.join(ccnuma_tracestore::RESULTS_DIR))
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let text = std::fs::read_to_string(&entry).unwrap();
        let at = text.find("\"sim_time\":").unwrap() + "\"sim_time\":".len();
        let mut bytes = text.into_bytes();
        bytes[at] = if bytes[at] == b'9' {
            b'1'
        } else {
            bytes[at] + 1
        };
        std::fs::write(&entry, bytes).unwrap();

        let resumed = Executor::serial()
            .with_verbosity(Verbosity::Quiet)
            .with_resume(&dir)
            .unwrap();
        let again = resumed.run(&spec);
        assert_eq!(resumed.stats().resumed, 0, "a damaged entry is not served");
        assert_eq!(resumed.stats().computed, 1);
        assert_eq!(format!("{:?}", *fresh), format!("{:?}", *again));
        let warnings = resumed.warnings();
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("checksum"), "{}", warnings[0]);
        // The recomputation rewrote the entry: the next resume is clean.
        let third = Executor::serial().with_resume(&dir).unwrap();
        third.run(&spec);
        assert_eq!(third.stats().resumed, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn panic_messages_render_usefully() {
        let s: Box<dyn Any + Send> = Box::new("boom");
        assert_eq!(panic_message(s), "panicked: boom");
        let s: Box<dyn Any + Send> = Box::new(String::from("kaboom"));
        assert_eq!(panic_message(s), "panicked: kaboom");
        let s: Box<dyn Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(s), "panicked (non-string payload)");
    }
}
