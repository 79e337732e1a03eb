//! The `repro` command line: one flag table, parsed once.
//!
//! Every flag `repro` takes is one [`Flag`]: its name, a metavar for
//! usage text, and a value kind carrying the setter for the [`Opts`]
//! field it fills. Each subcommand ([`Sub`]) lists the flags it accepts
//! and the cross-flag rules it keeps, so a name may mean different
//! things to different subcommands (`--profile` is a switch for
//! experiments but takes a `FILE` for `sweep`). One scan reads any
//! subcommand's line, and usage text is generated from the same lists.
//!
//! [`parse`] checks every flag, every value and every rule before the
//! caller opens a store or starts a run, so a usage error ([`CliError`])
//! does no work.

use crate::{experiments, Executor};
use ccnuma_faults::{FaultScenario, FaultSpec};
use ccnuma_obs::Verbosity;
use ccnuma_serve::{LoadgenOptions, ServeConfig};
use ccnuma_tracestore::{SweepSpec, TraceStore, RESULTS_DIR};
use ccnuma_types::{ShardPlan, TopologyPreset};
use ccnuma_workloads::{Scale, WorkloadKind};
use std::fmt;
use std::net::ToSocketAddrs;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Default store directory for the `trace`, `sweep` and `serve` subcommands.
const DEFAULT_TRACE_DIR: &str = "artifacts/traces";

/// Every value a `repro` line can set. One scan fills it; each
/// subcommand reads the fields its own flags set.
#[derive(Clone, Debug)]
pub struct Opts {
    /// `--scale` (default standard).
    pub scale: Scale,
    /// `--jobs` (default: available parallelism).
    pub jobs: usize,
    /// `--shards` (default serial).
    pub shards: ShardPlan,
    /// `--window-us` (default: the simulator's 100 µs).
    pub window_us: Option<u64>,
    /// `--topology`.
    pub topology: Option<TopologyPreset>,
    /// `--obs-dir`.
    pub obs_dir: Option<PathBuf>,
    /// `--profile`, the experiments' switch.
    pub profile: bool,
    /// `--trace-dir` (`trace`, `sweep` and `serve` default it to
    /// `artifacts/traces`).
    pub trace_dir: Option<PathBuf>,
    /// `--resume`: results go under `DIR/results`; `DIR` is also the
    /// experiments' trace store when `--trace-dir` is not given.
    pub resume: Option<PathBuf>,
    /// `--faults`.
    pub faults: Option<FaultScenario>,
    /// `--chaos-seed` (default 0).
    pub chaos_seed: u64,
    /// `-v`/`-q`; unset defers to `CCNUMA_LOG`.
    pub verbosity: Option<Verbosity>,
    /// `--list`.
    pub list: bool,
    /// `--list-faults`.
    pub list_faults: bool,
    /// `trace --json`.
    pub json: bool,
    /// `trace --repair`.
    pub repair: bool,
    /// `trace --max-bytes`.
    pub max_bytes: Option<u64>,
    /// `sweep --workload`.
    pub workload: Option<WorkloadKind>,
    /// `--trace`: a slug for `sweep`, a slug or label for `loadgen`.
    pub trace: Option<String>,
    /// `--out`.
    pub out: Option<PathBuf>,
    /// `sweep --csv`.
    pub csv: Option<PathBuf>,
    /// `sweep --profile FILE`.
    pub profile_out: Option<PathBuf>,
    /// The sweep grid, `--policies` to `--topologies` (default 12 cells).
    pub spec: SweepSpec,
    /// The daemon's settings, `serve --addr` to `--max-sweeps`.
    pub serve: ServeConfig,
    /// `serve --results-dir` (default: `<trace-dir>/results`).
    pub results_dir: Option<PathBuf>,
    /// `loadgen --url`.
    pub url: Option<String>,
    /// `loadgen --concurrency` (default 4).
    pub concurrency: usize,
    /// `loadgen --duration` (default 5 s).
    pub duration: Duration,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            scale: Scale::standard(),
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            shards: ShardPlan::serial(),
            window_us: None,
            topology: None,
            obs_dir: None,
            profile: false,
            trace_dir: None,
            resume: None,
            faults: None,
            chaos_seed: 0,
            verbosity: None,
            list: false,
            list_faults: false,
            json: false,
            repair: false,
            max_bytes: None,
            workload: None,
            trace: None,
            out: None,
            csv: None,
            profile_out: None,
            spec: SweepSpec::default_grid(),
            serve: ServeConfig::default(),
            results_dir: None,
            url: None,
            concurrency: 4,
            duration: Duration::from_secs(5),
        }
    }
}

impl Opts {
    /// The fault spec `--faults` and `--chaos-seed` ask for, if any.
    pub fn fault_spec(&self) -> Option<FaultSpec> {
        self.faults.map(|scenario| FaultSpec {
            scenario,
            chaos_seed: self.chaos_seed,
        })
    }

    /// The executor these options describe: jobs, verbosity, machine
    /// overrides, artifacts, faults and the two stores. The trace store
    /// is set before the result cache, so `--resume DIR` keeps only
    /// results when `--trace-dir` is given.
    ///
    /// # Errors
    ///
    /// The message for a trace or result store that cannot be opened.
    pub fn executor(&self) -> Result<Executor, String> {
        let mut exec = Executor::new(self.jobs)
            .with_verbosity(self.verbosity.unwrap_or_default())
            .with_shards(self.shards)
            .with_window_us(self.window_us);
        if let Some(preset) = self.topology {
            exec = exec.with_topology(preset);
        }
        if let Some(dir) = &self.obs_dir {
            exec = exec.with_obs_dir(dir.clone());
        }
        if self.profile {
            exec = exec.with_profiling();
        }
        if let Some(faults) = self.fault_spec() {
            exec = exec.with_faults(faults);
        }
        if let Some(dir) = &self.trace_dir {
            exec = exec.with_trace_store(open_store(dir)?);
        }
        match &self.resume {
            Some(dir) => exec
                .with_resume(dir)
                .map_err(|e| format!("opening result store {}: {e}", dir.display())),
            None => Ok(exec),
        }
    }
}

/// Opens (creating) the trace store at `dir`.
///
/// # Errors
///
/// The message for a directory that cannot be created.
pub fn open_store(dir: &Path) -> Result<TraceStore, String> {
    TraceStore::new(dir).map_err(|e| format!("opening trace store {}: {e}", dir.display()))
}

/// How a flag reads its value, with the [`Opts`] setter the value
/// feeds. `Positive` takes integers above zero, `Unsigned` zero too;
/// `SecondsOrS` takes positive seconds, fractions allowed, with or
/// without a trailing `s` (`5s`). A `List` is comma-separated:
/// it names its elements, and its setter returns false on a bad one.
#[derive(Clone, Copy)]
enum Kind {
    Switch(fn(&mut Opts)),
    Path(fn(&mut Opts, PathBuf)),
    Text(fn(&mut Opts, String)),
    Positive(fn(&mut Opts, u64)),
    Unsigned(fn(&mut Opts, u64)),
    SecondsOrS(fn(&mut Opts, Duration)),
    List(&'static str, fn(&mut Opts, &str) -> bool),
    Scale(fn(&mut Opts, Scale)),
    Topology(fn(&mut Opts, TopologyPreset)),
    Faults(fn(&mut Opts, FaultScenario)),
    Workload(fn(&mut Opts, WorkloadKind)),
}

/// One flag: its name, its value's metavar in usage text, and its kind.
#[derive(Clone, Copy)]
pub struct Flag {
    /// The flag as typed; `|` separates aliases (`-v|--verbose`).
    pub name: &'static str,
    /// The value's placeholder in usage text; empty for a switch.
    metavar: &'static str,
    kind: Kind,
}

const fn flag(name: &'static str, metavar: &'static str, kind: Kind) -> Flag {
    Flag {
        name,
        metavar,
        kind,
    }
}

/// A cross-flag rule: it holds for a valid line, else the sentence is
/// the error.
type Rule = (fn(&Opts) -> bool, &'static str);

/// One subcommand: its name, the positional part of its usage line,
/// the flags it accepts and the cross-flag rules it keeps.
pub struct Sub {
    /// `repro` plus the subcommand word (just `repro` for experiments).
    pub name: &'static str,
    head: &'static str,
    /// The flags this subcommand accepts, in usage order.
    pub flags: &'static [Flag],
    rules: &'static [Rule],
}

// The flag table: every flag once, one row each, then each
// subcommand's flags and rules.
#[rustfmt::skip]
mod table {
    use super::{flag, list, numbers, Flag, Kind as K, Sub};
    use ccnuma_obs::Verbosity;
    use ccnuma_tracestore::SweepPolicy;
    use ccnuma_types::{ShardPlan, TopologyPreset};

    const SCALE: Flag = flag("--scale", "quick|standard|full", K::Scale(|o, s| o.scale = s));
    const JOBS: Flag = flag("--jobs", "N", K::Positive(|o, n| o.jobs = n as usize));
    const SHARDS: Flag = flag("--shards", "N", K::Positive(|o, n| o.shards = ShardPlan::new(u32::try_from(n).unwrap_or(u32::MAX))));
    const WINDOW_US: Flag = flag("--window-us", "N", K::Positive(|o, n| o.window_us = Some(n)));
    const TOPOLOGY: Flag = flag("--topology", "PRESET", K::Topology(|o, t| o.topology = Some(t)));
    const OBS_DIR: Flag = flag("--obs-dir", "DIR", K::Path(|o, p| o.obs_dir = Some(p)));
    const PROFILE: Flag = flag("--profile", "", K::Switch(|o| o.profile = true));
    const TRACE_DIR: Flag = flag("--trace-dir", "DIR", K::Path(|o, p| o.trace_dir = Some(p)));
    const FAULTS: Flag = flag("--faults", "SCENARIO", K::Faults(|o, f| o.faults = Some(f)));
    const CHAOS_SEED: Flag = flag("--chaos-seed", "N", K::Unsigned(|o, n| o.chaos_seed = n));
    const RESUME: Flag = flag("--resume", "DIR", K::Path(|o, p| o.resume = Some(p)));
    const VERBOSE: Flag = flag("-v|--verbose", "", K::Switch(|o| o.verbosity = Some(Verbosity::Verbose)));
    const QUIET: Flag = flag("-q|--quiet", "", K::Switch(|o| o.verbosity = Some(Verbosity::Quiet)));
    const LIST: Flag = flag("--list", "", K::Switch(|o| o.list = true));
    const LIST_FAULTS: Flag = flag("--list-faults", "", K::Switch(|o| o.list_faults = true));
    const OUT: Flag = flag("--out", "FILE", K::Path(|o, p| o.out = Some(p)));
    const JSON: Flag = flag("--json", "", K::Switch(|o| o.json = true));
    const REPAIR: Flag = flag("--repair", "", K::Switch(|o| o.repair = true));
    const MAX_BYTES: Flag = flag("--max-bytes", "N", K::Unsigned(|o, n| o.max_bytes = Some(n)));
    const WORKLOAD: Flag = flag("--workload", "NAME", K::Workload(|o, w| o.workload = Some(w)));
    const TRACE_SLUG: Flag = flag("--trace", "SLUG", K::Text(|o, s| o.trace = Some(s)));
    const CSV: Flag = flag("--csv", "FILE", K::Path(|o, p| o.csv = Some(p)));
    const PROFILE_OUT: Flag = flag("--profile", "FILE", K::Path(|o, p| o.profile_out = Some(p)));
    const POLICIES: Flag = flag("--policies", "P,..", K::List("RR, FT, PF, Migr, Repl, Mig/Rep",
        |o, v| list(v, SweepPolicy::parse).map(|x| o.spec.policies = x).is_some()));
    const TRIGGERS: Flag = flag("--triggers", "N,..", K::List("integers",
        |o, v| numbers(v).map(|x| o.spec.triggers = x).is_some()));
    const SAMPLES: Flag = flag("--samples", "N,..", K::List("integers",
        |o, v| numbers(v).map(|x| o.spec.sample_rates = x).is_some()));
    const LATENCIES: Flag = flag("--latencies", "NS,..", K::List("integers",
        |o, v| numbers(v).map(|x| o.spec.remote_latencies_ns = x).is_some()));
    const MOVE_COSTS: Flag = flag("--move-costs", "US,..", K::List("integers",
        |o, v| numbers(v).map(|x| o.spec.move_costs_us = x).is_some()));
    const TOPOLOGIES: Flag = flag("--topologies", "T,..", K::List("topology presets",
        |o, v| list(v, TopologyPreset::parse).map(|x| o.spec.topologies = x).is_some()));
    const ADDR: Flag = flag("--addr", "HOST:PORT", K::Text(|o, s| o.serve.addr = s));
    const RESULTS: Flag = flag("--results-dir", "DIR", K::Path(|o, p| o.results_dir = Some(p)));
    const WORKERS: Flag = flag("--workers", "N", K::Positive(|o, n| o.serve.workers = n as usize));
    const QUEUE_DEPTH: Flag = flag("--queue-depth", "N", K::Positive(|o, n| o.serve.queue_depth = n as usize));
    const PREWARM: Flag = flag("--prewarm", "SLUG,..", K::List("trace slugs",
        |o, v| { o.serve.prewarm.extend(v.split(',').map(str::to_string)); true }));
    const TRACE_BUDGET: Flag = flag("--trace-budget-bytes", "N", K::Positive(|o, n| o.serve.trace_budget_bytes = n));
    const MAX_CELLS: Flag = flag("--max-cells", "N", K::Positive(|o, n| o.serve.max_cells = n as usize));
    const MAX_BODY: Flag = flag("--max-body-bytes", "N", K::Positive(|o, n| o.serve.max_body_bytes = n as usize));
    const MAX_SWEEPS: Flag = flag("--max-sweeps", "N", K::Positive(|o, n| o.serve.max_sweeps = n as usize));
    const URL: Flag = flag("--url", "HOST:PORT", K::Text(|o, s| o.url = Some(s)));
    const CONCURRENCY: Flag = flag("--concurrency", "N", K::Positive(|o, n| o.concurrency = n as usize));
    const DURATION: Flag = flag("--duration", "SECS", K::SecondsOrS(|o, d| o.duration = d));
    const TRACE_NAME: Flag = flag("--trace", "NAME", K::Text(|o, s| o.trace = Some(s)));

    /// Every subcommand; experiments (no subcommand word) first.
    pub static SUBS: [Sub; 6] = [
        Sub { name: "repro", head: "<experiment>...|all", flags: &[
            SCALE, JOBS, SHARDS, WINDOW_US, TOPOLOGY, OBS_DIR, PROFILE, TRACE_DIR, FAULTS,
            CHAOS_SEED, RESUME, VERBOSE, QUIET, LIST, LIST_FAULTS],
            // `--list` and `--list-faults` print and run nothing, so no
            // rule binds them.
            rules: &[(|o| !o.profile || o.obs_dir.is_some() || o.list || o.list_faults,
                "--profile requires --obs-dir")] },
        Sub { name: "repro obs", head: "report DIR", flags: &[OUT], rules: &[] },
        Sub { name: "repro trace", head: "<capture|info|verify|ls|fsck|gc> [WORKLOAD|SLUG]...",
            flags: &[SCALE, TRACE_DIR, JSON, REPAIR, MAX_BYTES], rules: &[] },
        Sub { name: "repro sweep", head: "(--workload NAME | --trace SLUG)", flags: &[
            WORKLOAD, TRACE_SLUG, SCALE, TRACE_DIR, JOBS, SHARDS, WINDOW_US, OUT, CSV, PROFILE_OUT,
            RESUME, POLICIES, TRIGGERS, SAMPLES, LATENCIES, MOVE_COSTS, TOPOLOGIES],
            rules: &[
                (|o| o.workload.is_some() != o.trace.is_some(), "exactly one of --workload or --trace is required"),
            ] },
        Sub { name: "repro serve", head: "", flags: &[
            ADDR, TRACE_DIR, RESULTS, WORKERS, QUEUE_DEPTH, PREWARM, TRACE_BUDGET, MAX_CELLS,
            MAX_BODY, MAX_SWEEPS], rules: &[] },
        Sub { name: "repro loadgen", head: "--url HOST:PORT",
            flags: &[URL, CONCURRENCY, DURATION, TRACE_NAME, OUT],
            rules: &[(|o| o.url.is_some(), "--url is required")] },
    ];
}
pub use table::SUBS;

/// The subcommand `args` (the line after `repro`) names: its first
/// word, or experiments.
pub fn subcommand(args: &[String]) -> &'static Sub {
    let word = args.first().map(String::as_str);
    SUBS.iter()
        .find(|s| word.is_some() && s.name.strip_prefix("repro ") == word)
        .unwrap_or(&SUBS[0])
}

/// A usage error: a flag, value, argument or combination the
/// subcommand does not take. `repro` prints it with the usage and
/// exits 2.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// A flag the subcommand does not take.
    UnknownFlag(String),
    /// A positional argument or action the subcommand does not take.
    Unexpected(String),
    /// A required positional argument is absent: what it is.
    Missing(&'static str),
    /// A flag ends the line: the flag, and what its value should be.
    MissingValue(&'static str, String),
    /// A bad value: the flag (or positional role), the value, and what
    /// it should be.
    BadValue(&'static str, String, String),
    /// A cross-flag rule the line breaks, as a sentence.
    Rule(&'static str),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownFlag(arg) => write!(f, "unknown argument {arg:?}"),
            CliError::Unexpected(arg) => write!(f, "unexpected argument {arg:?}"),
            CliError::Missing(what) => write!(f, "missing {what}"),
            CliError::MissingValue(flag, expects) => write!(f, "{flag} expects {expects}"),
            CliError::BadValue(flag, value, expects) => {
                write!(f, "{flag} expects {expects}, got {value:?}")
            }
            CliError::Rule(rule) => f.write_str(rule),
        }
    }
}

impl std::error::Error for CliError {}

/// A parsed `repro` line, checked and ready to run.
#[derive(Debug)]
pub enum Command {
    /// `--list`: print the experiment names.
    List,
    /// `--list-faults`: print the fault scenarios.
    ListFaults,
    /// Experiment names in request order (`all` expanded, unknown
    /// names kept), and the run options.
    Experiments(Vec<String>, Opts),
    /// `obs report DIR`, and `--out`.
    ObsReport(PathBuf, Option<PathBuf>),
    /// A `trace` action; the options' `trace_dir` is set.
    Trace(TraceAction, Opts),
    /// `sweep`: exactly one of `workload` and `trace` is set, and
    /// `trace_dir` is.
    Sweep(Opts),
    /// `serve`, every default filled in.
    Serve(ServeConfig),
    /// `loadgen`: the `--url` as given, the resolved options, and `--out`.
    Loadgen(String, LoadgenOptions, Option<PathBuf>),
}

/// What `repro trace` does.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceAction {
    /// Capture these workloads (all of them when none is named).
    Capture(Vec<WorkloadKind>),
    /// Describe these slugs (every stored one when none is named).
    Info(Vec<String>),
    /// Decode and check these slugs (every stored one when none is named).
    Verify(Vec<String>),
    /// List the store.
    Ls,
    /// Check the store (and with `--repair`, mend it).
    Fsck,
    /// Evict down to this many bytes.
    Gc(u64),
}

/// Parses a `repro` line (the arguments after the program name).
///
/// # Errors
///
/// The first usage error found; nothing has been opened or run.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let sub = subcommand(args);
    let Some(word) = sub.name.strip_prefix("repro ") else {
        let (o, names) = sub.scan(args)?;
        return experiments(o, names);
    };
    let rest = &args[1..];
    if matches!(word, "obs" | "trace") {
        let (action, rest) = rest.split_first().ok_or(CliError::Missing("an action"))?;
        let (o, pos) = sub.scan(rest)?;
        return if word == "obs" {
            obs(action, o, pos)
        } else {
            trace(action, o, pos)
        };
    }
    let (mut o, pos) = sub.scan(rest)?;
    if let Some(extra) = pos.first() {
        return Err(CliError::Unexpected(extra.clone()));
    }
    let trace_dir = o
        .trace_dir
        .take()
        .unwrap_or_else(|| DEFAULT_TRACE_DIR.into());
    match word {
        "sweep" => Ok(Command::Sweep(Opts {
            trace_dir: Some(trace_dir),
            ..o
        })),
        "serve" => Ok(Command::Serve(ServeConfig {
            results_dir: o.results_dir.unwrap_or_else(|| trace_dir.join(RESULTS_DIR)),
            trace_dir,
            ..o.serve
        })),
        _ => {
            let url = o.url.unwrap_or_default();
            let addr = url.trim_start_matches("http://").trim_end_matches('/');
            let addr = addr.to_socket_addrs().ok().and_then(|mut a| a.next());
            let addr = addr.ok_or_else(|| {
                CliError::BadValue("--url", url.clone(), "a resolvable HOST:PORT".into())
            })?;
            let opts = LoadgenOptions {
                addr,
                concurrency: o.concurrency,
                duration: o.duration,
                trace: o.trace,
            };
            Ok(Command::Loadgen(url, opts, o.out))
        }
    }
}

fn experiments(o: Opts, pos: Vec<String>) -> Result<Command, CliError> {
    if o.list {
        return Ok(Command::List);
    }
    if o.list_faults {
        return Ok(Command::ListFaults);
    }
    if pos.is_empty() {
        return Err(CliError::Missing("an experiment name"));
    }
    let mut names = Vec::new();
    for name in pos {
        if name == "all" {
            names.extend(experiments::ALL.iter().map(|e| e.name.to_string()));
        } else {
            names.push(name);
        }
    }
    Ok(Command::Experiments(names, o))
}

fn obs(action: &str, o: Opts, pos: Vec<String>) -> Result<Command, CliError> {
    match (action, pos.as_slice()) {
        ("report", [dir]) => Ok(Command::ObsReport(dir.into(), o.out)),
        ("report", []) => Err(CliError::Missing("DIR")),
        ("report", [_, extra, ..]) => Err(CliError::Unexpected(extra.clone())),
        (other, _) => Err(CliError::Unexpected(other.into())),
    }
}

fn trace(action: &str, mut o: Opts, names: Vec<String>) -> Result<Command, CliError> {
    let kind = |n: &String| {
        let expects = one_of(WorkloadKind::ALL);
        workload(n).ok_or_else(|| CliError::BadValue("trace capture", n.clone(), expects))
    };
    let action = match action {
        "capture" if names.is_empty() => TraceAction::Capture(WorkloadKind::ALL.to_vec()),
        "capture" => TraceAction::Capture(names.iter().map(kind).collect::<Result<_, _>>()?),
        "info" => TraceAction::Info(names),
        "verify" => TraceAction::Verify(names),
        // These act on the whole store: a name would be ignored.
        "ls" | "fsck" | "gc" if !names.is_empty() => {
            return Err(CliError::Unexpected(names[0].clone()))
        }
        "ls" => TraceAction::Ls,
        "fsck" => TraceAction::Fsck,
        "gc" => TraceAction::Gc(
            o.max_bytes
                .ok_or(CliError::Rule("gc requires --max-bytes"))?,
        ),
        other => return Err(CliError::Unexpected(other.into())),
    };
    if o.json && !matches!(action, TraceAction::Ls | TraceAction::Info(_)) {
        return Err(CliError::Rule("--json applies to ls and info only"));
    }
    o.trace_dir.get_or_insert_with(|| DEFAULT_TRACE_DIR.into());
    Ok(Command::Trace(action, o))
}

impl Sub {
    /// Reads `args` against this subcommand's flags and rules: the
    /// filled options and the positional arguments in order.
    fn scan(&self, args: &[String]) -> Result<(Opts, Vec<String>), CliError> {
        let mut o = Opts::default();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') {
                positional.push(arg.clone());
                continue;
            }
            let flag = self
                .flags
                .iter()
                .find(|f| f.name.split('|').any(|n| n == arg));
            flag.ok_or_else(|| CliError::UnknownFlag(arg.clone()))?
                .read(&mut o, &mut it)?;
        }
        match self.rules.iter().find(|(holds, _)| !holds(&o)) {
            Some(&(_, broken)) => Err(CliError::Rule(broken)),
            None => Ok((o, positional)),
        }
    }

    /// The usage text, generated from the flag list.
    pub fn usage(&self) -> String {
        let mut lines: Vec<String> = vec![format!("usage: {} {}", self.name, self.head)
            .trim_end()
            .into()];
        let indent = " ".repeat("usage: ".len() + self.name.len() + 1);
        for f in self.flags.iter().filter(|f| !self.head.contains(f.name)) {
            let word = match f.metavar {
                "" => format!("[{}]", f.name),
                meta => format!("[{} {meta}]", f.name),
            };
            let line = lines.last_mut().expect("one line at least");
            if line.len() + 1 + word.len() > 80 {
                lines.push(format!("{indent}{word}"));
            } else {
                line.push(' ');
                line.push_str(&word);
            }
        }
        if self.name == SUBS[0].name {
            let words: Vec<&str> = SUBS[1..]
                .iter()
                .map(|s| &s.name["repro ".len()..])
                .collect();
            lines.push(format!(
                "       repro <{}> ... (see each one's usage)",
                words.join("|")
            ));
        }
        lines.join("\n")
    }
}

impl Flag {
    /// Reads this flag's value (if it takes one) from `it` into `o`.
    fn read(&self, o: &mut Opts, it: &mut std::slice::Iter<'_, String>) -> Result<(), CliError> {
        match self.kind {
            Kind::Switch(set) => set(o),
            Kind::Path(set) => set(o, self.parse(it, |v| Some(v.into()))?),
            Kind::Text(set) => set(o, self.parse(it, |v| Some(v.into()))?),
            Kind::Positive(set) => set(o, self.parse(it, |v| v.parse().ok().filter(|&n| n > 0))?),
            Kind::Unsigned(set) => set(o, self.parse(it, |v| v.parse().ok())?),
            Kind::SecondsOrS(set) => {
                set(
                    o,
                    self.parse(it, |v| seconds(v.strip_suffix('s').unwrap_or(v)))?,
                );
            }
            Kind::List(_, set) => self.parse(it, |v| set(o, v).then_some(()))?,
            Kind::Scale(set) => set(o, self.parse(it, scale)?),
            Kind::Topology(set) => set(o, self.parse(it, TopologyPreset::parse)?),
            Kind::Faults(set) => set(o, self.parse(it, |v| v.parse().ok())?),
            Kind::Workload(set) => set(o, self.parse(it, workload)?),
        }
        Ok(())
    }

    /// The next argument, read by `f`: a missing or bad value is an error.
    fn parse<T>(
        &self,
        it: &mut std::slice::Iter<'_, String>,
        f: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, CliError> {
        let raw = it
            .next()
            .ok_or_else(|| CliError::MissingValue(self.name, self.expects()))?;
        f(raw).ok_or_else(|| CliError::BadValue(self.name, raw.clone(), self.expects()))
    }

    /// What the value should be, for error messages.
    fn expects(&self) -> String {
        match self.kind {
            Kind::Switch(_) | Kind::Path(_) | Kind::Text(_) | Kind::Scale(_) => self.metavar.into(),
            Kind::Positive(_) => "a positive integer".into(),
            Kind::Unsigned(_) => "an unsigned integer".into(),
            Kind::SecondsOrS(_) => "a positive number of seconds".into(),
            Kind::List(what, _) => format!("a comma list of {what}"),
            Kind::Topology(_) => one_of(TopologyPreset::ALL.map(TopologyPreset::label)),
            Kind::Faults(_) => one_of(FaultScenario::ALL.iter().map(FaultScenario::name)),
            Kind::Workload(_) => one_of(WorkloadKind::ALL),
        }
    }
}

fn one_of<T: fmt::Display>(names: impl IntoIterator<Item = T>) -> String {
    let names: Vec<String> = names.into_iter().map(|n| n.to_string()).collect();
    format!("one of {}", names.join(", "))
}

fn seconds(raw: &str) -> Option<Duration> {
    let secs = raw.parse::<f64>().ok().filter(|s| *s > 0.0)?;
    Duration::try_from_secs_f64(secs).ok()
}

fn scale(raw: &str) -> Option<Scale> {
    match raw {
        "quick" => Some(Scale::quick()),
        "standard" => Some(Scale::standard()),
        "full" => Some(Scale::full()),
        _ => None,
    }
}

fn workload(raw: &str) -> Option<WorkloadKind> {
    WorkloadKind::ALL
        .into_iter()
        .find(|k| k.to_string().eq_ignore_ascii_case(raw))
}

fn list<T>(raw: &str, parse: impl Fn(&str) -> Option<T>) -> Option<Vec<T>> {
    raw.split(',').map(|x| parse(x.trim())).collect()
}

fn numbers<T: std::str::FromStr>(raw: &str) -> Option<Vec<T>> {
    list(raw, |x| x.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The usage block at the top of `repro.rs` names exactly the flags
    /// of the table: neither can gain or drop a flag alone.
    #[test]
    fn repro_doc_usage_block_matches_the_flag_table() {
        let block: Vec<&str> = include_str!("bin/repro.rs")
            .lines()
            .take_while(|l| l.starts_with("//!"))
            .skip_while(|l| !l.contains("```text"))
            .skip(1)
            .take_while(|l| !l.contains("```"))
            .collect();
        let doc: BTreeSet<&str> = block
            .iter()
            .flat_map(|l| l.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')))
            .filter(|w| w.starts_with('-'))
            .collect();
        let table: BTreeSet<&str> = SUBS
            .iter()
            .flat_map(|s| s.flags)
            .flat_map(|f| f.name.split('|'))
            .collect();
        assert_eq!(doc, table);
    }

    #[test]
    fn usage_is_generated_from_the_table() {
        for sub in &SUBS {
            let usage = sub.usage();
            assert!(
                usage.starts_with(&format!("usage: {} ", sub.name)),
                "{usage}"
            );
            for f in sub.flags {
                assert!(usage.contains(f.name), "{} missing from {usage}", f.name);
            }
            assert!(usage.lines().all(|l| l.len() <= 80), "{usage}");
        }
    }
}
