//! The policy-parameter sweep engine.
//!
//! Section 8's methodology — capture a trace once, replay it under many
//! policies — generalizes to a grid: policies × trigger thresholds ×
//! sampling rates × remote latencies × move costs × topologies. A
//! [`SweepSpec`] declares the grid. [`run_sweep`] collapses it onto its
//! *distinct* cells (cells whose effective inputs coincide — a static
//! policy ignores triggers and sampling, a non-flat topology ignores the
//! latency axis — share one result) and hands them to the polsim
//! planner, [`ccnuma_polsim::plan`], whose passes it runs on scoped
//! worker threads, each over its own reopened trace stream: one profile
//! pass prices every static cell, and each dynamic cell replays in a pass
//! of its own. [`run_sweep_cached`] adds an optional result store, a
//! progress hook and a per-pass host-time profile; it is the one engine
//! behind [`run_sweep`], `repro sweep` and the serve daemon's
//! `POST /v1/sweeps`. The result renders as a deterministic JSON
//! (`ccnuma-sweep/2`) or CSV artifact whose bytes do not depend on the
//! worker count.

use crate::format::StoreError;
use crate::results::{read_policy_stats, write_policy_stats, ResultCache};
use ccnuma_core::{MissMetric, PolicyParams};
use ccnuma_obs::json::{JsonValue, JsonWriter};
use ccnuma_obs::{Phase, Profiler, SpanProfiler};
use ccnuma_polsim::{
    evaluate, plan, Cell, PassOutput, PolsimConfig, PolsimReport, SimPolicy, TraceFilter,
};
use ccnuma_trace::MissRecord;
use ccnuma_types::{Ns, TopologyPreset};
use core::convert::Infallible;
use core::fmt;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A policy axis value in a sweep grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweepPolicy {
    /// Round-robin static baseline.
    RoundRobin,
    /// First-touch static baseline.
    FirstTouch,
    /// Post-facto optimal static placement.
    PostFacto,
    /// Dynamic policy, migration only.
    MigrationOnly,
    /// Dynamic policy, replication only.
    ReplicationOnly,
    /// Dynamic policy, migration + replication.
    MigRep,
}

impl SweepPolicy {
    /// All six policies, in the Figure 6 order.
    pub const ALL: [SweepPolicy; 6] = [
        SweepPolicy::RoundRobin,
        SweepPolicy::FirstTouch,
        SweepPolicy::PostFacto,
        SweepPolicy::MigrationOnly,
        SweepPolicy::ReplicationOnly,
        SweepPolicy::MigRep,
    ];

    /// True for the policies driven by the miss metric and trigger.
    pub fn is_dynamic(self) -> bool {
        matches!(
            self,
            SweepPolicy::MigrationOnly | SweepPolicy::ReplicationOnly | SweepPolicy::MigRep
        )
    }

    /// Parses the labels used on the CLI and in artifacts.
    pub fn parse(s: &str) -> Option<SweepPolicy> {
        match s {
            "RR" => Some(SweepPolicy::RoundRobin),
            "FT" => Some(SweepPolicy::FirstTouch),
            "PF" => Some(SweepPolicy::PostFacto),
            "Migr" => Some(SweepPolicy::MigrationOnly),
            "Repl" => Some(SweepPolicy::ReplicationOnly),
            "Mig/Rep" | "MigRep" => Some(SweepPolicy::MigRep),
            _ => None,
        }
    }

    fn to_sim(self, trigger: u32, sample: u32) -> SimPolicy {
        let metric = if sample == 1 {
            MissMetric::full_cache()
        } else {
            MissMetric::sampled_cache(sample)
        };
        let params = PolicyParams::base().with_trigger(trigger);
        match self {
            SweepPolicy::RoundRobin => SimPolicy::round_robin(),
            SweepPolicy::FirstTouch => SimPolicy::first_touch(),
            SweepPolicy::PostFacto => SimPolicy::post_facto(),
            SweepPolicy::MigrationOnly => SimPolicy::Dynamic {
                params,
                kind: ccnuma_core::DynamicPolicyKind::MigrationOnly,
                metric,
            },
            SweepPolicy::ReplicationOnly => SimPolicy::Dynamic {
                params,
                kind: ccnuma_core::DynamicPolicyKind::ReplicationOnly,
                metric,
            },
            SweepPolicy::MigRep => SimPolicy::Dynamic {
                params,
                kind: ccnuma_core::DynamicPolicyKind::MigRep,
                metric,
            },
        }
    }
}

impl fmt::Display for SweepPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SweepPolicy::RoundRobin => "RR",
            SweepPolicy::FirstTouch => "FT",
            SweepPolicy::PostFacto => "PF",
            SweepPolicy::MigrationOnly => "Migr",
            SweepPolicy::ReplicationOnly => "Repl",
            SweepPolicy::MigRep => "Mig/Rep",
        })
    }
}

/// A declarative policy-parameter grid.
///
/// The cell list is the cartesian product of the five axes, in
/// policy-major order; axes that do not apply to a policy (triggers and
/// sampling for static baselines, move costs likewise) still appear in
/// the output rows but collapse onto a single replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Policies to replay.
    pub policies: Vec<SweepPolicy>,
    /// Trigger thresholds for the dynamic policies.
    pub triggers: Vec<u32>,
    /// Metric sampling rates (1 = full information).
    pub sample_rates: Vec<u32>,
    /// Remote miss latencies, nanoseconds (ignored by non-flat
    /// topologies, whose latency model is the preset's own).
    pub remote_latencies_ns: Vec<u64>,
    /// Page move costs, microseconds.
    pub move_costs_us: Vec<u64>,
    /// Topology presets to replay under.
    pub topologies: Vec<TopologyPreset>,
    /// Which records count for stall accounting.
    pub filter: TraceFilter,
}

impl SweepSpec {
    /// The default 12-cell grid: the three dynamic policies × triggers
    /// {64, 128} × sampling {1:1, 1:10}, at the paper's latencies on the
    /// flat machine.
    pub fn default_grid() -> SweepSpec {
        SweepSpec {
            policies: vec![
                SweepPolicy::MigrationOnly,
                SweepPolicy::ReplicationOnly,
                SweepPolicy::MigRep,
            ],
            triggers: vec![64, 128],
            sample_rates: vec![1, 10],
            remote_latencies_ns: vec![1200],
            move_costs_us: vec![350],
            topologies: vec![TopologyPreset::Flat],
            filter: TraceFilter::UserOnly,
        }
    }

    /// Number of grid cells.
    pub fn len(&self) -> usize {
        self.policies.len()
            * self.triggers.len()
            * self.sample_rates.len()
            * self.remote_latencies_ns.len()
            * self.move_costs_us.len()
            * self.topologies.len()
    }

    /// True when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cells of the grid, in deterministic policy-major order.
    pub fn cells(&self) -> Vec<CellParams> {
        let mut out = Vec::with_capacity(self.len());
        for &policy in &self.policies {
            for &trigger in &self.triggers {
                for &sample in &self.sample_rates {
                    for &remote_ns in &self.remote_latencies_ns {
                        for &move_us in &self.move_costs_us {
                            for &topology in &self.topologies {
                                out.push(CellParams {
                                    policy,
                                    trigger,
                                    sample,
                                    remote_ns,
                                    move_us,
                                    topology,
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// Coordinates of one sweep cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellParams {
    /// Policy axis value.
    pub policy: SweepPolicy,
    /// Trigger threshold (ignored by static policies).
    pub trigger: u32,
    /// Metric sampling rate (ignored by static policies).
    pub sample: u32,
    /// Remote miss latency, nanoseconds (ignored by non-flat topologies).
    pub remote_ns: u64,
    /// Page move cost, microseconds (ignored by static policies).
    pub move_us: u64,
    /// Topology preset the replay runs under.
    pub topology: TopologyPreset,
}

impl CellParams {
    /// The effective-input key cells are memoized on: static policies
    /// drop the axes that cannot change their result (e.g. `FT` at any
    /// trigger is one replay), and a non-flat topology drops the remote
    /// latency — the preset carries its own latency model.
    pub fn memo_key(&self) -> String {
        let lat = if self.topology.is_flat() {
            format!("|lat={}", self.remote_ns)
        } else {
            String::new()
        };
        if self.policy.is_dynamic() {
            format!(
                "{}|t={}|s={}{}|mv={}|topo={}",
                self.policy, self.trigger, self.sample, lat, self.move_us, self.topology
            )
        } else {
            format!("{}{}|topo={}", self.policy, lat, self.topology)
        }
    }

    /// The polsim cell this grid cell evaluates on an `nodes`-node
    /// machine.
    fn sim_cell(&self, nodes: u16, other_time: Ns) -> Cell {
        let mut cfg = PolsimConfig::section8(nodes).with_other_time(other_time);
        cfg.remote_latency = Ns(self.remote_ns);
        cfg.move_cost = Ns::from_us(self.move_us);
        if !self.topology.is_flat() {
            cfg = cfg.with_topology(self.topology);
        }
        (cfg, self.policy.to_sim(self.trigger, self.sample))
    }
}

/// One finished cell: its coordinates plus the replay report.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Grid coordinates.
    pub params: CellParams,
    /// Replay result.
    pub report: PolsimReport,
}

/// The result of a sweep, in grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Nodes of the replayed machine.
    pub nodes: u16,
    /// Records in the source trace.
    pub records: u64,
    /// One entry per grid cell.
    pub cells: Vec<SweepCell>,
    /// Distinct replays actually executed (≤ `cells.len()`).
    pub unique_replays: usize,
}

/// Schema tag of the JSON artifact (v2 added the `topology` axis).
pub const SWEEP_SCHEMA: &str = "ccnuma-sweep/2";

/// The artifact columns, in order: the CSV header, and the keys of a
/// grid cell in the JSON.
const COLUMNS: &str = "policy,trigger,sample_rate,remote_latency_ns,move_cost_us,topology,\
                       local_misses,remote_misses,local_stall_ns,remote_stall_ns,\
                       mig_overhead_ns,rep_overhead_ns,migrations,replications,\
                       collapses,other_time_ns,total_ns,pct_local";

impl SweepCell {
    /// The cell's value in each of the [`COLUMNS`].
    fn row(&self) -> [String; 18] {
        let (p, r) = (&self.params, &self.report);
        [
            p.policy.to_string(),
            p.trigger.to_string(),
            p.sample.to_string(),
            p.remote_ns.to_string(),
            p.move_us.to_string(),
            p.topology.to_string(),
            r.local_misses.to_string(),
            r.remote_misses.to_string(),
            r.local_stall.0.to_string(),
            r.remote_stall.0.to_string(),
            r.mig_overhead.0.to_string(),
            r.rep_overhead.0.to_string(),
            r.migrations.to_string(),
            r.replications.to_string(),
            r.collapses.to_string(),
            r.other_time.0.to_string(),
            r.total().0.to_string(),
            format!("{:.3}", r.pct_local_misses()),
        ]
    }
}

impl SweepReport {
    /// Renders the `ccnuma-sweep/2` JSON artifact. Deterministic: same
    /// spec and trace give the same bytes whatever the worker count.
    pub fn to_json(&self, trace_label: &str) -> String {
        let mut j = JsonWriter::new();
        j.begin_obj();
        j.key("schema");
        j.str(SWEEP_SCHEMA);
        j.key("trace");
        j.str(trace_label);
        j.key("records");
        j.raw(&self.records.to_string());
        j.key("nodes");
        j.raw(&self.nodes.to_string());
        j.key("cells");
        j.raw(&self.cells.len().to_string());
        j.key("unique_replays");
        j.raw(&self.unique_replays.to_string());
        j.key("grid");
        j.begin_arr();
        for cell in &self.cells {
            j.begin_obj();
            for (key, value) in COLUMNS.split(',').zip(cell.row()) {
                j.key(key);
                match key {
                    "policy" | "topology" => j.str(&value),
                    _ => j.raw(&value),
                }
            }
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
        j.finish()
    }

    /// Renders the same table as CSV (header + one row per cell).
    pub fn to_csv(&self) -> String {
        let mut out = format!("{COLUMNS}\n");
        for cell in &self.cells {
            out += &cell.row().join(",");
            out.push('\n');
        }
        out
    }
}

/// Serializes one finished cell into its result-store payload. Every
/// field is a `u64` (times are `Ns` counts), so the round trip is exact
/// by construction, and a stored cell is byte-identical to a fresh
/// replay.
pub fn cell_payload(report: &PolsimReport, records: u64) -> String {
    let mut j = JsonWriter::new();
    let u = |j: &mut JsonWriter, k: &str, v: u64| {
        j.key(k);
        j.raw(&v.to_string());
    };
    j.begin_obj();
    j.key("label");
    j.str(&report.label);
    u(&mut j, "records", records);
    u(&mut j, "local_misses", report.local_misses);
    u(&mut j, "remote_misses", report.remote_misses);
    u(&mut j, "local_stall_ns", report.local_stall.0);
    u(&mut j, "remote_stall_ns", report.remote_stall.0);
    u(&mut j, "mig_overhead_ns", report.mig_overhead.0);
    u(&mut j, "rep_overhead_ns", report.rep_overhead.0);
    u(&mut j, "migrations", report.migrations);
    u(&mut j, "replications", report.replications);
    u(&mut j, "collapses", report.collapses);
    u(&mut j, "other_time_ns", report.other_time.0);
    j.key("policy_stats");
    write_policy_stats(&mut j, report.policy_stats);
    j.end_obj();
    j.finish()
}

/// Rebuilds a cell result from its stored payload. `None` if the
/// payload is malformed — the caller replays that cell.
pub fn cell_from_payload(v: &JsonValue) -> Option<(PolsimReport, u64)> {
    fn u(v: &JsonValue, k: &str) -> Option<u64> {
        v.get(k).and_then(JsonValue::as_u64)
    }
    let policy_stats = read_policy_stats(v.get("policy_stats")?)?;
    Some((
        PolsimReport {
            label: v.get("label")?.as_str()?.to_string(),
            local_misses: u(v, "local_misses")?,
            remote_misses: u(v, "remote_misses")?,
            local_stall: Ns(u(v, "local_stall_ns")?),
            remote_stall: Ns(u(v, "remote_stall_ns")?),
            mig_overhead: Ns(u(v, "mig_overhead_ns")?),
            rep_overhead: Ns(u(v, "rep_overhead_ns")?),
            migrations: u(v, "migrations")?,
            replications: u(v, "replications")?,
            collapses: u(v, "collapses")?,
            other_time: Ns(u(v, "other_time_ns")?),
            policy_stats,
        },
        u(v, "records")?,
    ))
}

/// Where [`run_sweep_cached`] restores finished cells from and stores
/// new ones, and who hears of its progress.
#[derive(Clone, Copy)]
pub struct SweepStore<'a> {
    /// The result store; `None` evaluates every cell and stores nothing.
    pub results: Option<&'a ResultCache>,
    /// The swept trace's slug: part of every cell's result key, so two
    /// traces never share a cell.
    pub trace_slug: &'a str,
    /// Called with the grid cells finished so far (each distinct cell
    /// counted with its multiplicity): once after the restore, then after
    /// each pass. Returning `false` stops the sweep before its next pass
    /// with [`StoreError::Interrupted`]; the cells finished by then are
    /// stored.
    pub progress: &'a (dyn Fn(usize) -> bool + Sync),
}

impl SweepStore<'_> {
    /// No result store, no one listening: what [`run_sweep`] runs under.
    const NONE: SweepStore<'static> = SweepStore {
        results: None,
        trace_slug: "",
        progress: &|_| true,
    };

    fn key(&self, nodes: u16, other_time: Ns, filter: TraceFilter, cell: &CellParams) -> String {
        ResultCache::key(
            self.trace_slug,
            nodes,
            other_time.0,
            filter,
            &cell.memo_key(),
        )
    }
}

/// One stored cell result; `Ok(None)` when the cell was never stored.
fn load_cell(results: &ResultCache, key: &str) -> Result<Option<(PolsimReport, u64)>, StoreError> {
    let Some(text) = results.load(key)? else {
        return Ok(None);
    };
    JsonValue::parse(&text)
        .ok()
        .as_ref()
        .and_then(cell_from_payload)
        .map(Some)
        .ok_or(StoreError::DamagedResult {
            what: "cell payload is incomplete",
        })
}

/// A finished [`run_sweep_cached`]: the report and what it took.
#[derive(Debug, Clone)]
pub struct CachedSweep {
    /// The sweep's result, identical to a fresh [`run_sweep`].
    pub report: SweepReport,
    /// Distinct cells restored from the store.
    pub resumed: usize,
    /// Stored cells that were unusable and so evaluated again.
    pub damaged: usize,
    /// Trace passes made.
    pub passes: usize,
    /// Host time of those passes: one [`Phase::Replay`] span per pass
    /// (a dynamic cell's replay, or the static cells' shared profile
    /// pass with their pricing), so its entry and span counts equal
    /// `passes` whatever the worker count or scheduling.
    pub profile: SpanProfiler,
}

/// Evaluates one cell against an in-memory record slice — the serve
/// daemon's eval path, where the trace is already resident. Infallible
/// by construction: the only error source in a replay is the trace
/// stream, and a slice cannot fail (its error type is uninhabited, so
/// the per-record error checks compile away).
pub fn eval_cell(
    cell: &CellParams,
    nodes: u16,
    other_time: Ns,
    filter: TraceFilter,
    records: &[MissRecord],
) -> (PolsimReport, u64) {
    let open = || Ok::<_, Infallible>(records.iter().map(|r| Ok(*r)));
    let Ok((mut reports, n)) = evaluate(&[cell.sim_cell(nodes, other_time)], filter, open);
    (reports.pop().expect("one cell, one report"), n)
}

/// Runs the sweep on up to `jobs` scoped worker threads, each pass
/// streaming its own reopened trace (`open` must yield a fresh stream
/// per call). The passes are the polsim [`plan`] of the distinct cells:
/// one profile pass prices all the static cells, and every dynamic cell
/// replays in a pass of its own. The output is in grid order regardless
/// of scheduling.
///
/// # Errors
///
/// The first [`StoreError`] any worker hits (opening or decoding the
/// trace stream).
///
/// # Panics
///
/// Panics if `jobs` is zero.
pub fn run_sweep<I, F>(
    spec: &SweepSpec,
    nodes: u16,
    other_time: Ns,
    jobs: usize,
    open: F,
) -> Result<SweepReport, StoreError>
where
    I: Iterator<Item = Result<MissRecord, StoreError>>,
    F: Fn() -> Result<I, StoreError> + Sync,
{
    run_sweep_cached(spec, nodes, other_time, jobs, open, &SweepStore::NONE).map(|run| run.report)
}

/// [`run_sweep`] with crash tolerance and a host-time profile: every
/// finished distinct cell is stored in `store.results` (when set) under
/// [`ResultCache::key`]`(trace_slug, nodes, other_time, filter, memo_key)`
/// — the key the serve daemon uses — and cells already stored there are
/// restored instead of replayed. Static cells are stored one entry per
/// cell, though they share a pass: only the missing ones are priced,
/// and when none is missing the sweep makes no profile pass.
///
/// The rendered artifacts are byte-identical whether the sweep ran
/// fresh, resumed partially, or resumed completely — restored payloads
/// round-trip every report field exactly, and `unique_replays` keeps
/// counting distinct cells, not work done this invocation. A damaged
/// entry and a failed store are stderr warnings: the cell is replayed
/// (or stays unstored) and the sweep continues. The store's `progress`
/// hook hears of every finished pass and can stop the sweep between
/// passes. Each worker thread times its passes on its own
/// [`SpanProfiler`] (no shared hot-path state); they merge commutatively
/// into [`CachedSweep::profile`].
///
/// # Errors
///
/// As [`run_sweep`], plus [`StoreError::Interrupted`] when the progress
/// hook stopped the sweep before its last pass.
///
/// # Panics
///
/// Panics if `jobs` is zero.
pub fn run_sweep_cached<I, F>(
    spec: &SweepSpec,
    nodes: u16,
    other_time: Ns,
    jobs: usize,
    open: F,
    store: &SweepStore<'_>,
) -> Result<CachedSweep, StoreError>
where
    I: Iterator<Item = Result<MissRecord, StoreError>>,
    F: Fn() -> Result<I, StoreError> + Sync,
{
    assert!(jobs > 0, "need at least one worker");
    let cells = spec.cells();

    // Collapse cells onto distinct effective inputs, preserving first-
    // appearance order so the job list is deterministic; each distinct
    // cell weighs as many grid cells as it stands for.
    let mut job_of_cell = Vec::with_capacity(cells.len());
    let mut job_cells: Vec<CellParams> = Vec::new();
    let mut weight: Vec<usize> = Vec::new();
    let mut seen: HashMap<String, usize> = HashMap::new();
    for cell in &cells {
        let job = *seen.entry(cell.memo_key()).or_insert_with(|| {
            job_cells.push(*cell);
            weight.push(0);
            job_cells.len() - 1
        });
        weight[job] += 1;
        job_of_cell.push(job);
    }

    // Restore stored cells up front; only the rest get a pass.
    let mut done: Vec<Option<(PolsimReport, u64)>> = vec![None; job_cells.len()];
    let (mut resumed, mut damaged) = (0usize, 0usize);
    if let Some(results) = store.results {
        for (slot, cell) in done.iter_mut().zip(&job_cells) {
            match load_cell(results, &store.key(nodes, other_time, spec.filter, cell)) {
                Ok(Some(stored)) => {
                    *slot = Some(stored);
                    resumed += 1;
                }
                Ok(None) => {}
                Err(e) => {
                    damaged += 1;
                    eprintln!(
                        "warning: result store: sweep cell {} unusable ({e}); replaying",
                        cell.memo_key()
                    );
                }
            }
        }
    }
    let finished = Mutex::new(0usize);
    let report_progress = |more: usize| {
        let mut finished = finished.lock().unwrap_or_else(|e| e.into_inner());
        *finished += more;
        (store.progress)(*finished)
    };
    let restored = (0..job_cells.len()).filter(|&i| done[i].is_some());
    let stop = AtomicBool::new(!report_progress(restored.map(|i| weight[i]).sum()));

    // polsim plans the passes over the missing cells; pass outputs index
    // into `missing`.
    let missing: Vec<usize> = (0..job_cells.len())
        .filter(|&i| done[i].is_none())
        .collect();
    let sim_cells: Vec<Cell> = missing
        .iter()
        .map(|&i| job_cells[i].sim_cell(nodes, other_time))
        .collect();
    let passes = plan(&sim_cells, spec.filter);

    let outcomes: Vec<Mutex<Option<Result<PassOutput, StoreError>>>> =
        passes.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let merged_prof: Mutex<SpanProfiler> = Mutex::new(SpanProfiler::new());
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(passes.len()) {
            scope.spawn(|| {
                let mut local_prof = SpanProfiler::new();
                while !stop.load(Ordering::SeqCst) {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(pass) = passes.get(k) else {
                        break;
                    };
                    let span = local_prof.enter(Phase::Replay);
                    let outcome = open().and_then(|records| pass.run(records));
                    local_prof.exit(Phase::Replay, span);
                    if let Ok(out) = &outcome {
                        if let Some(results) = store.results {
                            for (i, report) in &out.reports {
                                let cell = &job_cells[missing[*i]];
                                let key = store.key(nodes, other_time, spec.filter, cell);
                                let payload = cell_payload(report, out.records);
                                if let Err(e) = results.store(&key, &payload) {
                                    eprintln!(
                                        "warning: result store: storing sweep cell {}: {e}",
                                        cell.memo_key()
                                    );
                                }
                            }
                        }
                        let more = out.reports.iter().map(|(i, _)| weight[missing[*i]]);
                        if !report_progress(more.sum()) {
                            stop.store(true, Ordering::SeqCst);
                        }
                    }
                    *outcomes[k].lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
                }
                merged_prof
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .merge(&local_prof);
            });
        }
    });

    let passes = outcomes.len();
    for outcome in outcomes {
        match outcome.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Some(Ok(out)) => {
                for (i, report) in out.reports {
                    done[missing[i]] = Some((report, out.records));
                }
            }
            Some(Err(e)) => return Err(e),
            None => return Err(StoreError::Interrupted),
        }
    }
    let mut reports = Vec::with_capacity(job_cells.len());
    let mut records = 0u64;
    for (report, n) in done
        .into_iter()
        .map(|d| d.expect("every cell restored or passed"))
    {
        records = records.max(n);
        reports.push(report);
    }

    let unique_replays = job_cells.len();
    let cells = cells
        .into_iter()
        .zip(&job_of_cell)
        .map(|(params, &job)| SweepCell {
            params,
            report: reports[job].clone(),
        })
        .collect();
    Ok(CachedSweep {
        report: SweepReport {
            nodes,
            records,
            cells,
            unique_replays,
        },
        resumed,
        damaged,
        passes,
        profile: merged_prof.into_inner().unwrap_or_else(|e| e.into_inner()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma_types::{Pid, ProcId, VirtPage};

    fn records() -> Vec<MissRecord> {
        let mut v = Vec::new();
        for i in 0..400u64 {
            let proc = if i % 2 == 0 { ProcId(0) } else { ProcId(5) };
            v.push(MissRecord::user_data_read(
                Ns(i * 500),
                proc,
                Pid(0),
                VirtPage(1 + i / 64),
            ));
        }
        v
    }

    fn open_mem(recs: &[MissRecord]) -> impl Iterator<Item = Result<MissRecord, StoreError>> + '_ {
        recs.iter().map(|r| Ok(*r))
    }

    #[test]
    fn default_grid_is_twelve_cells() {
        let spec = SweepSpec::default_grid();
        assert_eq!(spec.len(), 12);
        assert_eq!(spec.cells().len(), 12);
    }

    #[test]
    fn static_cells_collapse_to_one_replay() {
        let spec = SweepSpec {
            policies: vec![SweepPolicy::FirstTouch],
            triggers: vec![32, 64, 128],
            sample_rates: vec![1, 10],
            remote_latencies_ns: vec![1200],
            move_costs_us: vec![350],
            topologies: vec![TopologyPreset::Flat],
            filter: TraceFilter::All,
        };
        let recs = records();
        let report = run_sweep(&spec, 8, Ns::ZERO, 2, || Ok(open_mem(&recs))).unwrap();
        assert_eq!(report.cells.len(), 6);
        assert_eq!(report.unique_replays, 1, "FT ignores trigger and sampling");
        // Every cell carries the same numbers.
        for c in &report.cells {
            assert_eq!(c.report, report.cells[0].report);
        }
    }

    #[test]
    fn sweep_matches_direct_simulate() {
        let recs = records();
        let trace: ccnuma_trace::Trace = recs.iter().copied().collect();
        let spec = SweepSpec {
            policies: vec![SweepPolicy::MigRep],
            triggers: vec![128],
            sample_rates: vec![1],
            remote_latencies_ns: vec![1200],
            move_costs_us: vec![350],
            topologies: vec![TopologyPreset::Flat],
            filter: TraceFilter::All,
        };
        let swept = run_sweep(&spec, 8, Ns::ZERO, 1, || Ok(open_mem(&recs))).unwrap();
        let direct = ccnuma_polsim::simulate(
            &trace,
            &PolsimConfig::section8(8),
            SimPolicy::base_dynamic(),
            TraceFilter::All,
        );
        assert_eq!(swept.cells[0].report, direct);
        assert_eq!(swept.records, 400);
    }

    #[test]
    fn artifacts_are_job_count_invariant() {
        let recs = records();
        let spec = SweepSpec::default_grid();
        let run = |jobs| {
            let r = run_sweep(&spec, 8, Ns(777), jobs, || Ok(open_mem(&recs))).unwrap();
            (r.to_json("demo"), r.to_csv())
        };
        let (j1, c1) = run(1);
        let (j4, c4) = run(4);
        assert_eq!(j1, j4, "JSON must not depend on worker count");
        assert_eq!(c1, c4, "CSV must not depend on worker count");
        assert!(j1.starts_with(&format!("{{\"schema\":\"{SWEEP_SCHEMA}\"")));
    }

    #[test]
    fn static_cells_share_one_profile_pass() {
        let recs = records();
        let opens = AtomicUsize::new(0);
        let sweep = |policies: Vec<SweepPolicy>, jobs| {
            let spec = SweepSpec {
                policies,
                triggers: vec![128],
                sample_rates: vec![1],
                remote_latencies_ns: vec![1200],
                move_costs_us: vec![350],
                topologies: vec![TopologyPreset::Flat],
                filter: TraceFilter::All,
            };
            opens.store(0, Ordering::Relaxed);
            let report = run_sweep(&spec, 8, Ns::ZERO, jobs, || {
                opens.fetch_add(1, Ordering::Relaxed);
                Ok(open_mem(&recs))
            })
            .unwrap();
            (report, opens.load(Ordering::Relaxed))
        };
        // Post-facto needs no priming pass: one open prices it.
        let (pf, passes) = sweep(vec![SweepPolicy::PostFacto], 1);
        assert_eq!(passes, 1, "one profile pass, no priming pass");
        assert_eq!(pf.cells[0].report.label, "PF");
        // RR, FT and PF share that one pass, at any worker count, and
        // still count as three distinct cells.
        for jobs in [1, 3] {
            let (grid, passes) = sweep(
                vec![
                    SweepPolicy::RoundRobin,
                    SweepPolicy::FirstTouch,
                    SweepPolicy::PostFacto,
                ],
                jobs,
            );
            assert_eq!(passes, 1, "jobs={jobs}");
            assert_eq!(grid.unique_replays, 3);
            assert_eq!(grid.records, recs.len() as u64);
            assert_eq!(grid.cells[2].report, pf.cells[0].report);
        }
    }

    #[test]
    fn topology_axis_sweeps_and_drops_the_latency_axis() {
        let recs = records();
        let spec = SweepSpec {
            policies: vec![SweepPolicy::FirstTouch],
            triggers: vec![128],
            sample_rates: vec![1],
            remote_latencies_ns: vec![1200, 2400],
            move_costs_us: vec![350],
            topologies: vec![TopologyPreset::Flat, TopologyPreset::CxlTiered],
            filter: TraceFilter::All,
        };
        let report = run_sweep(&spec, 8, Ns::ZERO, 2, || Ok(open_mem(&recs))).unwrap();
        assert_eq!(report.cells.len(), 4);
        // Flat cells differ by latency (2 replays); the cxl-tiered cells
        // ignore the latency axis and collapse onto one replay.
        assert_eq!(report.unique_replays, 3);
        let cxl: Vec<&SweepCell> = report
            .cells
            .iter()
            .filter(|c| c.params.topology == TopologyPreset::CxlTiered)
            .collect();
        assert_eq!(
            cxl[0].report, cxl[1].report,
            "latency axis must not split cxl"
        );
        // The artifact carries the topology column.
        let json = report.to_json("demo");
        assert!(json.contains("\"topology\":\"cxl-tiered\""), "{json}");
        assert!(report
            .to_csv()
            .lines()
            .next()
            .unwrap()
            .contains(",topology,"));
    }

    #[test]
    fn sweep_profile_counts_one_replay_span_per_pass() {
        let recs = records();
        let spec = SweepSpec::default_grid();
        let plain = run_sweep(&spec, 8, Ns::ZERO, 2, || Ok(open_mem(&recs))).unwrap();
        for jobs in [1, 4] {
            let run = run_sweep_cached(
                &spec,
                8,
                Ns::ZERO,
                jobs,
                || Ok(open_mem(&recs)),
                &SweepStore::NONE,
            )
            .unwrap();
            let (report, prof) = (run.report, run.profile);
            assert_eq!(report, plain, "profiling never changes the sweep");
            assert_eq!(prof.entries(Phase::Replay), run.passes as u64);
            // One Replay span per pass, independent of the worker
            // count (the merge is commutative); the default grid is all
            // dynamic, so that is one per distinct cell.
            assert_eq!(
                prof.entries(Phase::Replay),
                report.unique_replays as u64,
                "jobs={jobs}"
            );
            assert_eq!(prof.spans(Phase::Replay), report.unique_replays as u64);
            assert!(prof.histogram(Phase::Replay).count() > 0);
        }
    }

    #[test]
    fn cached_sweep_stores_and_resumes_byte_identically() {
        let dir = std::env::temp_dir().join(format!("ccnuma-sweep-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let results = ResultCache::new(&dir).unwrap();
        let recs = records();
        // Dynamic + static policies so payloads cover both the
        // policy_stats object and the null branch.
        let spec = SweepSpec {
            policies: vec![SweepPolicy::FirstTouch, SweepPolicy::MigRep],
            triggers: vec![64, 128],
            sample_rates: vec![1],
            remote_latencies_ns: vec![1200],
            move_costs_us: vec![350],
            topologies: vec![TopologyPreset::Flat],
            filter: TraceFilter::All,
        };
        let opens = AtomicUsize::new(0);
        let open = || {
            opens.fetch_add(1, Ordering::Relaxed);
            Ok(open_mem(&recs))
        };

        let store = SweepStore {
            results: Some(&results),
            trace_slug: "t",
            progress: &|_| true,
        };
        let CachedSweep {
            report: fresh,
            resumed,
            ..
        } = run_sweep_cached(&spec, 8, Ns(777), 2, open, &store).unwrap();
        assert_eq!(resumed, 0, "first run restores nothing");
        assert_eq!(fresh.unique_replays, 3, "FT + MigRep x 2 triggers");
        let opened_fresh = opens.load(Ordering::Relaxed);
        assert!(opened_fresh >= 3);

        // A new invocation over the same store replays nothing and
        // renders the exact same bytes.
        let CachedSweep {
            report: resumed_report,
            resumed,
            ..
        } = run_sweep_cached(&spec, 8, Ns(777), 2, open, &store).unwrap();
        assert_eq!(resumed, 3, "every distinct cell restored");
        assert_eq!(
            opens.load(Ordering::Relaxed),
            opened_fresh,
            "zero recomputation: the trace was never reopened"
        );
        assert_eq!(resumed_report, fresh);
        assert_eq!(resumed_report.to_json("demo"), fresh.to_json("demo"));
        assert_eq!(resumed_report.to_csv(), fresh.to_csv());

        // And it matches a plain, never-stored sweep.
        let plain = run_sweep(&spec, 8, Ns(777), 2, || Ok(open_mem(&recs))).unwrap();
        assert_eq!(plain, fresh);

        // A changed digit in one stored payload is caught by its
        // checksum: that cell is replayed, the rest restored.
        let victim = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let text = std::fs::read_to_string(&victim).unwrap();
        let start = text.find("\"payload\":").unwrap();
        let at = start + text[start..].find(|c: char| c.is_ascii_digit()).unwrap();
        let mut bytes = text.into_bytes();
        bytes[at] = if bytes[at] == b'9' {
            b'8'
        } else {
            bytes[at] + 1
        };
        std::fs::write(&victim, bytes).unwrap();
        let CachedSweep {
            report, resumed, ..
        } = run_sweep_cached(&spec, 8, Ns(777), 2, open, &store).unwrap();
        assert_eq!(resumed, 2, "the damaged cell is replayed, not restored");
        assert_eq!(report, plain);

        // An entry that passes its checksum but carries an incomplete
        // cell payload is a typed error: that cell is replayed too.
        let entry = JsonValue::parse(&std::fs::read_to_string(&victim).unwrap()).unwrap();
        let key = entry.get("key").and_then(JsonValue::as_str).unwrap();
        results.store(key, "{\"label\":\"FT\"}").unwrap();
        assert!(matches!(
            load_cell(&results, key),
            Err(StoreError::DamagedResult {
                what: "cell payload is incomplete"
            })
        ));
        let CachedSweep {
            report, resumed, ..
        } = run_sweep_cached(&spec, 8, Ns(777), 2, open, &store).unwrap();
        assert_eq!(resumed, 2, "the incomplete cell is replayed, not restored");
        assert_eq!(report, plain);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_store_resumes_only_missing_cells() {
        let dir = std::env::temp_dir().join(format!("ccnuma-sweep-part-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let results = ResultCache::new(&dir).unwrap();
        let recs = records();
        let spec = SweepSpec::default_grid();
        let sweep = |spec: &SweepSpec, slug: &str| {
            let store = SweepStore {
                results: Some(&results),
                trace_slug: slug,
                progress: &|_| true,
            };
            let run =
                run_sweep_cached(spec, 8, Ns::ZERO, 2, || Ok(open_mem(&recs)), &store).unwrap();
            (run.report, run.resumed)
        };
        // Store only some cells, as if the first invocation was killed
        // partway.
        let half = SweepSpec {
            policies: vec![SweepPolicy::MigrationOnly],
            ..spec.clone()
        };
        sweep(&half, "t");
        // Another trace's cells never stand in for this one's.
        assert_eq!(sweep(&half, "other").1, 0);
        let (report, resumed) = sweep(&spec, "t");
        assert_eq!(resumed, 4, "the four Migr cells came from the store");
        assert_eq!(report.unique_replays, 12);
        let plain = run_sweep(&spec, 8, Ns::ZERO, 2, || Ok(open_mem(&recs))).unwrap();
        assert_eq!(report, plain);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumed_static_cells_price_only_what_is_missing() {
        let dir = std::env::temp_dir().join(format!("ccnuma-sweep-static-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let results = ResultCache::new(&dir).unwrap();
        let recs = records();
        let spec = SweepSpec {
            policies: vec![
                SweepPolicy::RoundRobin,
                SweepPolicy::FirstTouch,
                SweepPolicy::PostFacto,
                SweepPolicy::MigRep,
            ],
            triggers: vec![128],
            sample_rates: vec![1],
            remote_latencies_ns: vec![300, 3000],
            move_costs_us: vec![350],
            topologies: vec![TopologyPreset::Flat, TopologyPreset::TwoSocket],
            filter: TraceFilter::All,
        };
        let store = SweepStore {
            results: Some(&results),
            trace_slug: "t",
            progress: &|_| true,
        };
        let opens = AtomicUsize::new(0);
        let sweep = |spec: &SweepSpec, jobs| {
            opens.store(0, Ordering::Relaxed);
            let open = || {
                opens.fetch_add(1, Ordering::Relaxed);
                Ok(open_mem(&recs))
            };
            let CachedSweep {
                report, resumed, ..
            } = run_sweep_cached(spec, 8, Ns(777), jobs, open, &store).unwrap();
            (report, resumed, opens.load(Ordering::Relaxed))
        };
        let entries = || -> Vec<(std::path::PathBuf, Vec<u8>)> {
            let mut v: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| {
                    let path = e.unwrap().path();
                    let bytes = std::fs::read(&path).unwrap();
                    (path, bytes)
                })
                .collect();
            v.sort();
            v
        };
        let fresh = run_sweep(&spec, 8, Ns(777), 2, || Ok(open_mem(&recs))).unwrap();
        // Nine static cells (six flat, three two-socket), three dynamic.
        assert_eq!(fresh.unique_replays, 12);

        // Store the FT cells only, as if an earlier sweep stopped there.
        let ft_only = SweepSpec {
            policies: vec![SweepPolicy::FirstTouch],
            ..spec.clone()
        };
        let (_, _, passes) = sweep(&ft_only, 1);
        assert_eq!(passes, 1);
        let stored = entries();
        assert_eq!(stored.len(), 3);

        for jobs in [1, 3] {
            let (report, resumed, passes) = sweep(&spec, jobs);
            if jobs == 1 {
                // The three FT cells come back; one profile pass prices
                // the six other static cells, three passes replay the
                // dynamic ones.
                assert_eq!(resumed, 3);
                assert_eq!(passes, 1 + 3);
                let now = entries();
                assert_eq!(now.len(), 12, "each static cell is its own entry");
                for entry in &stored {
                    assert!(now.contains(entry), "stored entry rewritten: {:?}", entry.0);
                }
            } else {
                // Everything is stored now: no pass at all.
                assert_eq!((resumed, passes), (12, 0));
            }
            assert_eq!(report.to_json("demo"), fresh.to_json("demo"));
            assert_eq!(report.to_csv(), fresh.to_csv());
        }

        // With every static cell stored and the dynamic ones missing,
        // the sweep makes no static pass.
        let _ = std::fs::remove_dir_all(&dir);
        let results = ResultCache::new(&dir).unwrap();
        let store = SweepStore {
            results: Some(&results),
            ..store
        };
        let statics = SweepSpec {
            policies: vec![
                SweepPolicy::RoundRobin,
                SweepPolicy::FirstTouch,
                SweepPolicy::PostFacto,
            ],
            ..spec.clone()
        };
        run_sweep_cached(&statics, 8, Ns(777), 1, || Ok(open_mem(&recs)), &store).unwrap();
        opens.store(0, Ordering::Relaxed);
        let open = || {
            opens.fetch_add(1, Ordering::Relaxed);
            Ok(open_mem(&recs))
        };
        let CachedSweep {
            report, resumed, ..
        } = run_sweep_cached(&spec, 8, Ns(777), 2, open, &store).unwrap();
        assert_eq!(resumed, 9);
        assert_eq!(opens.load(Ordering::Relaxed), 3, "dynamic replays only");
        assert_eq!(report.to_json("demo"), fresh.to_json("demo"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_progress_hook_stops_the_sweep_between_passes_and_a_rerun_resumes() {
        let dir = std::env::temp_dir().join(format!("ccnuma-sweep-stop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let results = ResultCache::new(&dir).unwrap();
        let recs = records();
        // Six grid cells on four distinct ones: RR and FT (two grid
        // cells each) share the profile pass; Mig/Rep at two triggers
        // replays twice.
        let spec = SweepSpec {
            policies: vec![
                SweepPolicy::RoundRobin,
                SweepPolicy::FirstTouch,
                SweepPolicy::MigRep,
            ],
            triggers: vec![64, 128],
            sample_rates: vec![1],
            remote_latencies_ns: vec![1200],
            move_costs_us: vec![350],
            topologies: vec![TopologyPreset::Flat],
            filter: TraceFilter::All,
        };
        let seen = Mutex::new(Vec::new());
        let sweep = |stop_after: usize| {
            seen.lock().unwrap().clear();
            let progress = |done: usize| {
                let mut seen = seen.lock().unwrap();
                seen.push(done);
                seen.len() <= stop_after
            };
            let store = SweepStore {
                results: Some(&results),
                trace_slug: "t",
                progress: &progress,
            };
            let run = run_sweep_cached(&spec, 8, Ns(777), 1, || Ok(open_mem(&recs)), &store);
            (run, seen.lock().unwrap().clone())
        };

        // The hook hears of the restore (nothing) and of the first pass
        // (the four static grid cells), then stops the sweep.
        let (run, heard) = sweep(1);
        assert!(matches!(run, Err(StoreError::Interrupted)), "{run:?}");
        assert_eq!(heard, [0, 4]);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2, "RR and FT");

        // A rerun restores the first pass's cells and makes the rest.
        let (run, heard) = sweep(usize::MAX);
        let run = run.unwrap();
        assert_eq!((run.resumed, run.passes), (2, 2));
        assert_eq!(heard, [4, 5, 6], "the last call reads done == total");
        let plain = run_sweep(&spec, 8, Ns(777), 1, || Ok(open_mem(&recs))).unwrap();
        assert_eq!(run.report.to_json("demo"), plain.to_json("demo"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_payload_roundtrips_exactly() {
        let recs = records();
        let spec = SweepSpec::default_grid();
        let report = run_sweep(&spec, 8, Ns(12345), 1, || Ok(open_mem(&recs))).unwrap();
        for cell in &report.cells {
            let payload = cell_payload(&cell.report, report.records);
            let v = JsonValue::parse(&payload).unwrap();
            let (back, n) = cell_from_payload(&v).unwrap();
            assert_eq!(back, cell.report);
            assert_eq!(n, report.records);
        }
        // Malformed payloads are rejected, not misread.
        assert!(cell_from_payload(&JsonValue::parse("{\"label\":\"FT\"}").unwrap()).is_none());
    }

    #[test]
    fn sweep_policy_labels_roundtrip() {
        for p in SweepPolicy::ALL {
            assert_eq!(SweepPolicy::parse(&p.to_string()), Some(p));
        }
        assert_eq!(SweepPolicy::parse("bogus"), None);
    }
}
