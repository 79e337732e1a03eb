//! The full-system runner: workload × kernel × policy → [`RunReport`].
//!
//! The simulation state lives in one [`Sim`] struct, but its behaviour is
//! split across focused submodules behind the [`Machine`] facade:
//!
//! * [`options`] — [`PolicyChoice`] and [`RunOptions`];
//! * `sched` — the main loop: windows, then the exact serial tail in
//!   clock order; scheduling points (quantum boundaries, context
//!   switches, epoch samples), idle accounting, adaptive-interval ticks;
//! * `memory` — the one per-reference step (TLB, L2, coherence, NUMA
//!   memory) and its breakdown charges, generic over the sink that takes
//!   its effects: the serial tail's immediate sink, which applies each
//!   effect to the canonical state at once, or a window lane's buffering
//!   sink;
//! * `window` — windowed, sharded execution: lanes, their event runs and
//!   the canonical merge that replays them;
//! * `policy` — miss events into the policy engine, page-op batching, the
//!   pager and TLB shootdown;
//! * `accounting` — epoch samples and final report assembly.
//!
//! A run is a pure function of its inputs: `Sim` owns all state
//! (including its RNG, seeded from the workload spec), is `Send`, and
//! touches nothing global — which is what lets the bench executor run
//! distinct specs on worker threads and memoize reports by spec.

mod accounting;
mod faults;
mod memory;
mod options;
mod policy;
mod sched;
mod window;

pub use options::{PolicyChoice, RunOptions};

use crate::{CoherenceDir, DirectoryModel, L2Cache, RunReport, Tlb};
use ccnuma_core::{AdaptiveTrigger, MissMetric, PolicyAction, PolicyEngine};
use ccnuma_faults::{FaultInjector, FaultPlan, FaultStats, NullFaults};
use ccnuma_kernel::{OpOutcome, PageOp, Pager, PagerConfig};
use ccnuma_obs::{NullProfiler, NullRecorder, Profiler, Recorder};
use ccnuma_trace::{MissSource, TraceBuilder};
use ccnuma_types::{FxHashMap, NodeId, Ns, Pid, ProcSet, SimError, Topology, VirtPage};
use ccnuma_workloads::{ProcessStream, WorkloadSpec};
use memory::{Core, StepEnv, Tally};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use window::{LaneBuf, WinEv};

/// The assembled machine, ready to run one workload under one policy.
pub struct Machine {
    spec: WorkloadSpec,
    opts: RunOptions,
}

impl Machine {
    /// Builds a machine for `spec` with `opts`.
    pub fn new(spec: WorkloadSpec, opts: RunOptions) -> Machine {
        Machine { spec, opts }
    }

    /// Runs the workload to completion and reports.
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails (see [`Machine::try_run`] for the
    /// fallible form). Without fault injection the simulator only fails
    /// on genuine exhaustion (machine out of memory after reclaim), so
    /// existing callers keep their infallible API.
    pub fn run(self) -> RunReport {
        self.try_run()
            .unwrap_or_else(|e| panic!("simulation failed: {e}"))
    }

    /// Runs the workload to completion, returning a typed error instead
    /// of panicking when the simulation cannot continue.
    pub fn try_run(self) -> Result<RunReport, SimError> {
        self.try_run_with(&mut NullRecorder, &mut NullProfiler)
    }

    /// The fallible, instrumented run: drives the run with an
    /// observability [`Recorder`] and a host-time [`Profiler`] attached
    /// and, when [`RunOptions::faults`] is set, with the scenario's
    /// deterministic [`FaultPlan`] injected. The simulator is
    /// monomorphized over all three hook types, so
    /// `try_run_with(&mut NullRecorder, &mut NullProfiler)` on a
    /// fault-free spec compiles to exactly the uninstrumented path and
    /// every entry point keeps byte-identical results. The profiler only
    /// measures host wall time — it never influences the run.
    pub fn try_run_with<R: Recorder, P: Profiler>(
        self,
        obs: &mut R,
        prof: &mut P,
    ) -> Result<RunReport, SimError> {
        match self.opts.faults {
            Some(fspec) => {
                let plan = FaultPlan::from_spec(fspec, self.spec.seed, self.spec.config.nodes);
                Sim::new(self.spec, self.opts, obs, prof, plan).run(true)
            }
            None => Sim::new(self.spec, self.opts, obs, prof, NullFaults).run(true),
        }
    }
}

/// Internal simulation state. Assembly lives here; behaviour lives in the
/// sibling submodules.
struct Sim<'a, R: Recorder, F: FaultInjector, P: Profiler> {
    obs: &'a mut R,
    /// Host-time span profiler ([`NullProfiler`] compiles its hooks
    /// away). Observes wall time only; never feeds back into the run.
    prof: &'a mut P,
    faults: F,
    /// Runner-side degradation statistics (retries, throttles, reclaims);
    /// merged with the injector's own half into the report.
    fault_stats: FaultStats,
    /// Consecutive failed page ops; crossing the pressure threshold
    /// activates remap-only mode.
    consec_failures: u32,
    /// While set, migrations and replications are throttled (remap-only
    /// degradation); collapses and remaps still run.
    remap_only_until: Option<Ns>,
    /// Consecutive lost pager interrupts; the batch is force-driven after
    /// the bound so injected interrupt loss can only delay, never starve.
    consec_intr_lost: u32,
    /// Pager batches serviced (drives sampled invariant checks).
    batches_serviced: u64,
    spec: WorkloadSpec,
    opts: RunOptions,
    /// Per-process reference stream plus its own RNG, both taken out of
    /// the slot while a core running the process holds them. One RNG
    /// per process (not one global) is what lets lanes draw references
    /// independently of how CPUs are grouped onto shards.
    proc_streams: Vec<Option<(ProcessStream, SmallRng)>>,
    cores: Vec<Core>,
    env: StepEnv,
    coherence: CoherenceDir,
    /// Reusable victim-set scratch for coherence writes; sized for the
    /// machine once so the per-reference path never allocates.
    victims: ProcSet,
    /// The machine's topology (explicit, or the flat view of the config's
    /// latency pair), resolved once so the per-reference path is a pair
    /// of table lookups.
    topo: Topology,
    directory: DirectoryModel,
    pager: Pager,
    engine: Option<PolicyEngine>,
    metric: Option<MissMetric>,
    tally: Tally,
    trace: Option<TraceBuilder>,
    pending: Vec<(PageOp, PolicyAction)>,
    /// Drained `pending` batches swap through here so both buffers keep
    /// their capacity; with the op/outcome scratches below, servicing a
    /// batch allocates nothing in steady state.
    pending_scratch: Vec<(PageOp, PolicyAction)>,
    ops_scratch: Vec<PageOp>,
    outcomes_scratch: Vec<OpOutcome>,
    tlbs_flushed_sum: u64,
    flush_batches: u64,
    adaptive: Option<AdaptiveTrigger>,
    adaptive_epoch: u64,
    adaptive_snap: (Ns, Ns, Ns),
    obs_epoch: u64,
    /// First-touch homes decided by window lanes, keyed by
    /// `(pid, page)`. Consulted after the pager so a page touched in an
    /// earlier window resolves even when its `FirstTouch` event is
    /// still in the carry pool.
    overlay: FxHashMap<(Pid, VirtPage), NodeId>,
    /// Window events whose timestamps fall beyond the merged window;
    /// replayed (still in canonical order) in a later merge.
    carry: Vec<WinEv>,
    /// Per-CPU lane buffers, recycled between windows.
    lanes: Vec<LaneBuf>,
}

impl<'a, R: Recorder, F: FaultInjector, P: Profiler> Sim<'a, R, F, P> {
    fn new(
        mut spec: WorkloadSpec,
        opts: RunOptions,
        obs: &'a mut R,
        prof: &'a mut P,
        faults: F,
    ) -> Sim<'a, R, F, P> {
        let cfg = spec.config.clone();
        let procs = cfg.procs() as usize;
        let pager_cfg = PagerConfig::for_machine(cfg.clone())
            .with_shootdown(opts.shootdown)
            .with_granularity(opts.granularity)
            .with_pipelined_copy(opts.pipelined_copy);
        let (engine, metric, rr_nodes) = match &opts.policy {
            PolicyChoice::FirstTouch => (None, None, None),
            PolicyChoice::RoundRobin => (None, None, Some(cfg.nodes)),
            PolicyChoice::Dynamic {
                params,
                kind,
                metric,
            } => (
                Some(PolicyEngine::with_procs(*params, *kind, procs)),
                Some(metric.clone()),
                None,
            ),
        };
        let seed = spec.seed;
        let pages = spec.page_bound();
        let proc_streams = std::mem::take(&mut spec.streams)
            .into_iter()
            .enumerate()
            .map(|(pid, stream)| {
                let rng = SmallRng::seed_from_u64(seed ^ splitmix64(pid as u64 + 1));
                Some((stream, rng))
            })
            .collect();
        let tlb_events = R::ENABLED
            || opts.capture_trace
            || metric
                .as_ref()
                .is_some_and(|m| m.source() == MissSource::Tlb);
        Sim {
            proc_streams,
            cores: (0..)
                .zip(cfg.proc_nodes())
                .map(|(cpu, node)| Core {
                    cpu,
                    node,
                    clock: Ns::ZERO,
                    pid: None,
                    quantum: u64::MAX,
                    tlb: Tlb::new(&cfg),
                    l2: L2Cache::new(&cfg),
                    slot: None,
                })
                .collect(),
            env: StepEnv {
                compute: cfg.compute_ns_per_ref,
                l2_hit: cfg.l2_hit,
                rr_nodes,
                tlb_events,
            },
            coherence: CoherenceDir::for_machine(&cfg, pages),
            victims: ProcSet::with_capacity_for(cfg.procs()),
            topo: cfg.effective_topology(),
            directory: DirectoryModel::new(&cfg),
            pager: Pager::new(pager_cfg),
            engine,
            metric,
            tally: Tally::default(),
            trace: if opts.capture_trace {
                Some(TraceBuilder::new())
            } else {
                None
            },
            pending: Vec::new(),
            pending_scratch: Vec::new(),
            ops_scratch: Vec::new(),
            outcomes_scratch: Vec::new(),
            tlbs_flushed_sum: 0,
            flush_batches: 0,
            adaptive: opts.adaptive.clone(),
            adaptive_epoch: 0,
            adaptive_snap: (Ns::ZERO, Ns::ZERO, Ns::ZERO),
            obs_epoch: 0,
            overlay: FxHashMap::default(),
            carry: Vec::new(),
            lanes: (0..procs).map(|_| LaneBuf::default()).collect(),
            obs,
            prof,
            faults,
            fault_stats: FaultStats::default(),
            consec_failures: 0,
            remap_only_until: None,
            consec_intr_lost: 0,
            batches_serviced: 0,
            spec,
            opts,
        }
    }
}

/// SplitMix64 finalizer: decorrelates per-process RNG seeds derived
/// from one workload seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma_core::PolicyParams;
    use ccnuma_workloads::{Scale, WorkloadKind};

    fn quick(kind: WorkloadKind, policy: PolicyChoice) -> RunReport {
        Machine::new(kind.build(Scale::quick()), RunOptions::new(policy)).run()
    }

    /// The windowing-error oracle: the whole (fault-free) run through
    /// the exact serial sink, with no window opened.
    fn run_serial(spec: WorkloadSpec, opts: RunOptions) -> RunReport {
        assert!(opts.faults.is_none(), "the oracle runs fault-free");
        Sim::new(spec, opts, &mut NullRecorder, &mut NullProfiler, NullFaults)
            .run(false)
            .unwrap()
    }

    /// The oracle charges every nanosecond a CPU clock advances to
    /// exactly one breakdown slice, as the windowed engine does.
    #[test]
    fn serial_oracle_keeps_time_accounting_exact() {
        for policy in [
            PolicyChoice::first_touch(),
            PolicyChoice::round_robin(),
            PolicyChoice::base_mig_rep(PolicyParams::base().with_trigger(16)),
        ] {
            let spec = WorkloadKind::Raytrace.build(Scale::quick());
            let r = run_serial(spec, RunOptions::new(policy));
            assert_eq!(r.breakdown.total(), r.cpu_time, "{}", r.policy_label);
        }
    }

    /// A run shorter than the tail bound never opens a window, so the
    /// windowed engine and the oracle are the same computation.
    #[test]
    fn serial_oracle_is_the_tail() {
        let spec = || {
            WorkloadKind::Engineering.build(Scale {
                refs_per_cpu: 1_000,
            })
        };
        let params = PolicyParams::base().with_trigger(16);
        let opts = RunOptions::new(PolicyChoice::base_mig_rep(params)).with_trace();
        let windowed = Machine::new(spec(), opts.clone()).run();
        let serial = run_serial(spec(), opts);
        assert_eq!(format!("{windowed:?}"), format!("{serial:?}"));
    }

    #[test]
    fn machine_and_sim_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Machine>();
        assert_send::<Sim<'static, NullRecorder, NullFaults, NullProfiler>>();
        assert_send::<Sim<'static, ccnuma_obs::RunRecorder, FaultPlan, ccnuma_obs::SpanProfiler>>();
    }

    #[test]
    fn first_touch_run_produces_sane_breakdown() {
        let r = quick(WorkloadKind::Raytrace, PolicyChoice::first_touch());
        assert_eq!(r.policy_label, "FT");
        assert!(r.breakdown.total() > Ns::ZERO);
        assert!(
            r.breakdown.remote_misses() > 0,
            "8 nodes: most misses remote"
        );
        assert!(r.breakdown.local_misses() > 0);
        assert!(r.policy_stats.is_none());
        assert!(r.distinct_pages > 500);
        assert!(r.sim_time > Ns::ZERO);
    }

    #[test]
    fn round_robin_spreads_pages() {
        let r = quick(WorkloadKind::Raytrace, PolicyChoice::round_robin());
        // Under RR on 8 nodes roughly 1/8 of misses are local.
        let pct = r.breakdown.pct_local_misses();
        assert!((5.0..25.0).contains(&pct), "RR local% = {pct}");
    }

    #[test]
    fn dynamic_policy_moves_pages_and_improves_locality() {
        let ft = quick(WorkloadKind::Raytrace, PolicyChoice::first_touch());
        // Quick runs are short; lower the trigger so pages heat up.
        let params = PolicyParams::base().with_trigger(16);
        let mr = quick(WorkloadKind::Raytrace, PolicyChoice::base_mig_rep(params));
        let stats = mr.policy_stats.expect("dynamic run has stats");
        assert!(stats.hot_events > 0, "pages must heat up");
        assert!(
            stats.replications > 0,
            "raytrace's read-shared scene must replicate: {stats:?}"
        );
        assert!(
            mr.breakdown.pct_local_misses() > ft.breakdown.pct_local_misses(),
            "Mig/Rep locality {} <= FT {}",
            mr.breakdown.pct_local_misses(),
            ft.breakdown.pct_local_misses()
        );
        assert!(mr.cost_book.total() > Ns::ZERO);
        assert!(mr.replica_frames_peak > 0);
    }

    #[test]
    fn trace_capture_contains_both_sources() {
        let spec = WorkloadKind::Database.build(Scale::quick());
        let r = Machine::new(
            spec,
            RunOptions::new(PolicyChoice::first_touch()).with_trace(),
        )
        .run();
        let t = r.trace.expect("trace requested");
        assert!(t.cache_misses().count() > 0);
        assert!(t.tlb_misses().count() > 0);
        // Timestamps are sorted.
        assert!(t.as_slice().windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn database_idles() {
        let r = quick(WorkloadKind::Database, PolicyChoice::first_touch());
        let idle_pct = r.breakdown.idle_pct_of_total();
        assert!((20.0..55.0).contains(&idle_pct), "idle {idle_pct}%");
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let a = quick(WorkloadKind::Engineering, PolicyChoice::first_touch());
        let b = quick(WorkloadKind::Engineering, PolicyChoice::first_touch());
        assert_eq!(a.breakdown, b.breakdown);
        assert_eq!(a.sim_time, b.sim_time);
    }

    /// The tentpole guarantee: the shard plan is thread placement and
    /// nothing else. The full report — breakdown, policy stats, cost
    /// book, contention, trace, every float — renders byte-identically
    /// at every shard count.
    #[test]
    fn sharded_report_is_byte_identical_to_serial() {
        use ccnuma_types::ShardPlan;
        let run = |shards: u32| {
            let params = PolicyParams::base().with_trigger(16);
            let opts = RunOptions::new(PolicyChoice::base_mig_rep(params))
                .with_trace()
                .with_shards(ShardPlan::new(shards));
            Machine::new(WorkloadKind::Raytrace.build(Scale::quick()), opts).run()
        };
        let serial = format!("{:?}", run(1));
        for n in [2, 8] {
            assert_eq!(serial, format!("{:?}", run(n)), "shards={n}");
        }
    }

    /// Fault injection goes through the same canonical merge order, so
    /// chaos runs shard deterministically too.
    #[test]
    fn sharded_chaos_run_is_byte_identical_to_serial() {
        use ccnuma_types::ShardPlan;
        let run = |shards: u32| {
            let params = PolicyParams::base().with_trigger(16);
            let opts = RunOptions::new(PolicyChoice::base_mig_rep(params))
                .with_faults(ccnuma_faults::FaultSpec::new(
                    ccnuma_faults::FaultScenario::Chaos,
                ))
                .with_shards(ShardPlan::new(shards));
            Machine::new(WorkloadKind::Raytrace.build(Scale::quick()), opts)
                .try_run()
                .unwrap()
        };
        let serial = format!("{:?}", run(1));
        assert_eq!(serial, format!("{:?}", run(4)));
    }

    #[test]
    fn no_faults_run_reports_zero_fault_stats() {
        let r = quick(WorkloadKind::Raytrace, PolicyChoice::first_touch());
        assert!(r.fault_stats.is_zero());
    }

    fn chaos_run(sc: ccnuma_faults::FaultScenario) -> RunReport {
        let spec = WorkloadKind::Raytrace.build(Scale::quick());
        let params = PolicyParams::base().with_trigger(16);
        let opts = RunOptions::new(PolicyChoice::base_mig_rep(params))
            .with_faults(ccnuma_faults::FaultSpec::new(sc));
        Machine::new(spec, opts)
            .try_run()
            .unwrap_or_else(|e| panic!("{sc} must degrade gracefully, got: {e}"))
    }

    /// Every shipped fault scenario completes with a structured report
    /// (no panic), keeps every kernel invariant (the checker runs after
    /// every pager batch when faults are enabled — a violation would
    /// have surfaced as `SimError::Invariant`), and actually injects.
    #[test]
    fn every_fault_scenario_completes_and_injects() {
        for sc in ccnuma_faults::FaultScenario::ALL {
            let r = chaos_run(sc);
            assert!(
                r.fault_stats.injected_total() > 0,
                "{sc} injected nothing: {:?}",
                r.fault_stats
            );
            assert!(r.breakdown.total() > ccnuma_types::Ns::ZERO);
        }
    }

    #[test]
    fn fault_runs_are_deterministic() {
        for sc in [
            ccnuma_faults::FaultScenario::Chaos,
            ccnuma_faults::FaultScenario::PressureStorm,
        ] {
            let a = chaos_run(sc);
            let b = chaos_run(sc);
            assert_eq!(a.breakdown, b.breakdown, "{sc}");
            assert_eq!(a.sim_time, b.sim_time, "{sc}");
            assert_eq!(a.fault_stats, b.fault_stats, "{sc}");
        }
    }

    #[test]
    fn copy_flake_retries_and_degrades_instead_of_panicking() {
        let r = chaos_run(ccnuma_faults::FaultScenario::CopyFlake);
        assert!(r.fault_stats.copy_aborts > 0, "{:?}", r.fault_stats);
        assert!(r.fault_stats.op_retries > 0, "aborts must trigger retries");
        assert!(
            r.fault_stats.retry_successes + r.fault_stats.failed_ops > 0,
            "every retry chain ends in success or a counted failure"
        );
    }

    #[test]
    fn pressure_storms_seize_frames_and_trigger_reclaim() {
        let r = chaos_run(ccnuma_faults::FaultScenario::PressureStorm);
        assert!(r.fault_stats.storms > 0);
        assert!(r.fault_stats.frames_seized > 0);
    }

    #[test]
    fn counter_saturation_starves_the_policy_but_run_completes() {
        let sat = chaos_run(ccnuma_faults::FaultScenario::CounterSat);
        let free = {
            let spec = WorkloadKind::Raytrace.build(Scale::quick());
            let params = PolicyParams::base().with_trigger(16);
            Machine::new(spec, RunOptions::new(PolicyChoice::base_mig_rep(params))).run()
        };
        assert!(sat.fault_stats.counters_capped > 0);
        let sat_moves = sat
            .policy_stats
            .map_or(0, |s| s.migrations + s.replications);
        let free_moves = free
            .policy_stats
            .map_or(0, |s| s.migrations + s.replications);
        assert!(
            sat_moves < free_moves,
            "cap 3 < trigger 16 must suppress moves ({sat_moves} vs {free_moves})"
        );
    }

    #[test]
    fn different_chaos_seeds_inject_different_streams() {
        let run = |chaos_seed| {
            let fs = ccnuma_faults::FaultSpec {
                scenario: ccnuma_faults::FaultScenario::CopyFlake,
                chaos_seed,
            };
            let params = PolicyParams::base().with_trigger(16);
            Machine::new(
                WorkloadKind::Raytrace.build(Scale::quick()),
                RunOptions::new(PolicyChoice::base_mig_rep(params)).with_faults(fs),
            )
            .try_run()
            .unwrap()
        };
        let a = run(1);
        let b = run(2);
        assert_ne!(
            a.fault_stats, b.fault_stats,
            "distinct chaos seeds should flake different copies"
        );
    }
}
