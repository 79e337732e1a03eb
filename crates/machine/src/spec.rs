//! Serializable-by-value run descriptions.
//!
//! A [`RunSpec`] names everything that determines a run's result: which
//! workload to build ([`RunKind`]), at what [`Scale`], under which
//! [`RunOptions`], plus optional seed and remote-latency overrides. The
//! simulator is deterministic, so a run is a pure function of its spec —
//! [`RunSpec::run`] always returns the same [`RunReport`] for the same
//! spec. That property is what the bench executor's memoization and
//! parallelism rest on: specs with equal [`RunSpec::cache_key`]s share
//! one report, and distinct specs can run on different threads.

use crate::{Machine, RunOptions, RunReport};
use ccnuma_faults::FaultSpec;
use ccnuma_types::{Ns, SimError, TopologyPreset};
use ccnuma_workloads::{shared_reader, Scale, WorkloadKind, WorkloadSpec};

/// Which workload a run builds.
#[derive(Debug, Clone, Copy)]
pub enum RunKind {
    /// One of the paper's five Table 2 workloads.
    Catalog(WorkloadKind),
    /// The synthetic shared-reader workload parameterised by node count
    /// (the scaling experiment).
    SharedReader {
        /// Number of nodes (one pinned reader per node).
        nodes: u16,
    },
}

/// A complete, by-value description of one simulator run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The workload to build.
    pub kind: RunKind,
    /// Run length.
    pub scale: Scale,
    /// Policy and kernel knobs.
    pub opts: RunOptions,
    /// Overrides the workload's built-in RNG seed.
    pub seed: Option<u64>,
    /// Overrides the machine's remote-miss latency (the zero-delay
    /// interconnect experiment).
    pub remote_latency: Option<Ns>,
    /// Overrides the machine's topology with a named preset. Applied
    /// after `remote_latency`, so an explicit topology wins; `Flat` (or
    /// `None`) leaves the paper's machine untouched.
    pub topology: Option<TopologyPreset>,
}

impl RunSpec {
    /// A run of catalog workload `kind`.
    pub fn catalog(kind: WorkloadKind, scale: Scale, opts: RunOptions) -> RunSpec {
        RunSpec {
            kind: RunKind::Catalog(kind),
            scale,
            opts,
            seed: None,
            remote_latency: None,
            topology: None,
        }
    }

    /// A run of the shared-reader workload on `nodes` nodes.
    pub fn shared_reader(nodes: u16, scale: Scale, opts: RunOptions) -> RunSpec {
        RunSpec {
            kind: RunKind::SharedReader { nodes },
            scale,
            opts,
            seed: None,
            remote_latency: None,
            topology: None,
        }
    }

    /// Overrides the workload's RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> RunSpec {
        self.seed = Some(seed);
        self
    }

    /// Overrides the machine's remote-miss latency.
    #[must_use]
    pub fn with_remote_latency(mut self, latency: Ns) -> RunSpec {
        self.remote_latency = Some(latency);
        self
    }

    /// Overrides the machine's topology with a named preset. A `Flat`
    /// preset is recorded as no override at all, so flat runs share
    /// their cache key (and memoized report) with legacy specs.
    #[must_use]
    pub fn with_topology(mut self, preset: TopologyPreset) -> RunSpec {
        self.topology = (!preset.is_flat()).then_some(preset);
        self
    }

    /// Enables deterministic fault injection for this run. Part of the
    /// cache key: the same spec under a different scenario or chaos seed
    /// is a different run.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultSpec) -> RunSpec {
        self.opts = self.opts.with_faults(faults);
        self
    }

    /// Builds the workload this spec describes, with overrides applied.
    pub fn build_workload(&self) -> WorkloadSpec {
        let mut spec = match self.kind {
            RunKind::Catalog(kind) => kind.build(self.scale),
            RunKind::SharedReader { nodes } => shared_reader(nodes, self.scale),
        };
        if let Some(seed) = self.seed {
            spec.seed = seed;
        }
        if let Some(latency) = self.remote_latency {
            spec.config = spec.config.clone().with_remote_latency(latency);
        }
        if let Some(preset) = self.topology {
            let topo = preset.build(spec.config.nodes);
            spec.config = spec.config.clone().with_topology(topo);
        }
        spec
    }

    /// Runs the spec to completion. A pure function: equal specs produce
    /// equal reports.
    pub fn run(&self) -> RunReport {
        Machine::new(self.build_workload(), self.opts.clone()).run()
    }

    /// Like [`RunSpec::run`], but failures (exhaustion, broken kernel
    /// invariants under fault injection) come back as a typed
    /// [`SimError`] instead of a panic.
    pub fn try_run(&self) -> Result<RunReport, SimError> {
        Machine::new(self.build_workload(), self.opts.clone()).try_run()
    }

    /// Fallible, instrumented run (see [`Machine::try_run_with`]). The
    /// report is identical to [`RunSpec::try_run`]'s: the recorder fills
    /// with the run's timelines, metrics and audit log as a side effect,
    /// and the profiler only measures where the host's wall clock goes.
    pub fn try_run_with<R: ccnuma_obs::Recorder, P: ccnuma_obs::Profiler>(
        &self,
        obs: &mut R,
        prof: &mut P,
    ) -> Result<RunReport, SimError> {
        Machine::new(self.build_workload(), self.opts.clone()).try_run_with(obs, prof)
    }

    /// A short human-readable description for logs and timing summaries
    /// (not an identity — use [`RunSpec::cache_key`] for that).
    pub fn describe(&self) -> String {
        let name = match self.kind {
            RunKind::Catalog(kind) => kind.to_string(),
            RunKind::SharedReader { nodes } => format!("shared-reader-{nodes}"),
        };
        let mut s = format!("{name} [{}]", self.opts.policy.label());
        if self.opts.capture_trace {
            s.push_str(" +trace");
        }
        if let Some(faults) = self.opts.faults {
            s.push_str(&format!(" +faults={faults}"));
        }
        if let Some(latency) = self.remote_latency {
            s.push_str(&format!(" +remote={}ns", latency.0));
        }
        if let Some(preset) = self.topology {
            s.push_str(&format!(" +topo={preset}"));
        }
        if let Some(seed) = self.seed {
            s.push_str(&format!(" +seed={seed:#x}"));
        }
        s
    }

    /// A stable identity string: two specs with equal keys describe the
    /// same run and may share one memoized report.
    ///
    /// The key is the `Debug` rendering of the spec. That sidesteps
    /// deriving `Eq`/`Hash` across the policy parameters' floating-point
    /// fields while still distinguishing every field that affects the
    /// result.
    pub fn cache_key(&self) -> String {
        format!("{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyChoice;

    fn ft(kind: WorkloadKind) -> RunSpec {
        RunSpec::catalog(
            kind,
            Scale::quick(),
            RunOptions::new(PolicyChoice::first_touch()),
        )
    }

    #[test]
    fn spec_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<RunSpec>();
    }

    #[test]
    fn equal_specs_have_equal_keys_distinct_specs_distinct() {
        assert_eq!(
            ft(WorkloadKind::Raytrace).cache_key(),
            ft(WorkloadKind::Raytrace).cache_key()
        );
        assert_ne!(
            ft(WorkloadKind::Raytrace).cache_key(),
            ft(WorkloadKind::Database).cache_key()
        );
        assert_ne!(
            ft(WorkloadKind::Raytrace).cache_key(),
            ft(WorkloadKind::Raytrace).with_seed(7).cache_key()
        );
        assert_ne!(
            ft(WorkloadKind::Raytrace).cache_key(),
            ft(WorkloadKind::Raytrace)
                .with_remote_latency(Ns(100))
                .cache_key()
        );
        let traced = RunSpec::catalog(
            WorkloadKind::Raytrace,
            Scale::quick(),
            RunOptions::new(PolicyChoice::first_touch()).with_trace(),
        );
        assert_ne!(ft(WorkloadKind::Raytrace).cache_key(), traced.cache_key());
    }

    #[test]
    fn topology_override_applies_and_flat_is_identity() {
        let base = ft(WorkloadKind::Raytrace);
        let flat = base.clone().with_topology(TopologyPreset::Flat);
        assert_eq!(base.cache_key(), flat.cache_key(), "flat is no override");
        let cxl = base.clone().with_topology(TopologyPreset::CxlTiered);
        assert_ne!(base.cache_key(), cxl.cache_key());
        assert!(
            cxl.describe().contains("+topo=cxl-tiered"),
            "{}",
            cxl.describe()
        );
        let w = cxl.build_workload();
        let topo = w.config.topology.as_ref().expect("topology installed");
        assert_eq!(topo.label(), "cxl-tiered");
        assert_eq!(topo.nodes(), w.config.nodes);
        w.config.validate().unwrap();
    }

    #[test]
    fn run_is_a_pure_function_of_the_spec() {
        let spec = ft(WorkloadKind::Engineering);
        let a = spec.run();
        let b = spec.clone().run();
        assert_eq!(a.breakdown, b.breakdown);
        assert_eq!(a.sim_time, b.sim_time);
        assert_eq!(a.cpu_time, b.cpu_time);
    }

    #[test]
    fn profiled_run_report_is_identical_and_structure_deterministic() {
        use ccnuma_obs::{NullRecorder, Phase, SpanProfiler};
        let spec = ft(WorkloadKind::Raytrace);
        let plain = spec.try_run().unwrap();
        let mut prof = SpanProfiler::new();
        let profiled = spec.try_run_with(&mut NullRecorder, &mut prof).unwrap();
        assert_eq!(plain.breakdown, profiled.breakdown);
        assert_eq!(plain.sim_time, profiled.sim_time);
        assert_eq!(plain.cpu_time, profiled.cpu_time);
        // The span structure derives from deterministic sim event
        // counts: the whole run is one run span, the lanes phase is
        // entered (and timed) once per window, the memory phase once per
        // reference of the serial tail, and a second profiled run
        // reproduces the same entry/span counts for every phase.
        assert_eq!(prof.entries(Phase::Run), 1);
        assert_eq!(prof.spans(Phase::Run), 1);
        assert!(prof.entries(Phase::Lanes) > 0, "windows ran");
        assert_eq!(prof.spans(Phase::Lanes), prof.entries(Phase::Lanes));
        assert!(prof.entries(Phase::Merge) >= prof.entries(Phase::Lanes));
        let w = spec.build_workload();
        assert!(prof.entries(Phase::Memory) > 0);
        assert!(
            prof.entries(Phase::Memory) < w.total_refs,
            "windows batch references: {} tail entries for {} refs",
            prof.entries(Phase::Memory),
            w.total_refs
        );
        assert!(prof.entries(Phase::Merge) > 0, "windows merged");
        assert!(prof.entries(Phase::Sched) > 0, "quantum boundaries fire");
        let mut prof2 = SpanProfiler::new();
        spec.try_run_with(&mut NullRecorder, &mut prof2).unwrap();
        for phase in Phase::ALL {
            assert_eq!(prof.entries(phase), prof2.entries(phase), "{phase:?}");
            assert_eq!(prof.spans(phase), prof2.spans(phase), "{phase:?}");
        }
    }

    #[test]
    fn overrides_apply_to_the_built_workload() {
        let w = ft(WorkloadKind::Raytrace)
            .with_seed(42)
            .with_remote_latency(Ns(123))
            .build_workload();
        assert_eq!(w.seed, 42);
        assert_eq!(w.config.remote_latency, Ns(123));
        let sr = RunSpec::shared_reader(
            4,
            Scale::quick(),
            RunOptions::new(PolicyChoice::first_touch()),
        )
        .build_workload();
        assert_eq!(sr.config.nodes, 4);
        assert_eq!(sr.name, "shared-reader-4");
    }
}
