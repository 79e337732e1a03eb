//! Determinism guarantees the run-plan executor depends on: a run is a
//! pure function of its spec, and rendered experiment output does not
//! depend on the executor's thread count.

use ccnuma_bench::{experiments, Executor, RunPlan};
use ccnuma_machine::{PolicyChoice, RunOptions, RunSpec};
use ccnuma_obs::{NullProfiler, NullRecorder};
use ccnuma_workloads::{Scale, WorkloadKind};

#[test]
fn same_spec_twice_produces_identical_reports() {
    let spec = RunSpec::catalog(
        WorkloadKind::Raytrace,
        Scale::quick(),
        RunOptions::new(PolicyChoice::base_mig_rep(
            ccnuma_core::PolicyParams::base().with_trigger(16),
        )),
    );
    let a = spec.run();
    let b = spec.run();
    // RunReport carries no Eq impl (floats, trace payloads); the Debug
    // rendering covers every field.
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn recorders_never_perturb_the_report() {
    // The simulator is generic over its recorder; with the NullRecorder
    // (what `run()` uses) the hooks compile away, and even a full
    // RunRecorder is a pure side-channel. Trace capture is one too. The
    // windowed lanes emit TLB-refill events only when something
    // consumes them (a recorder, a trace, or a TLB-driven metric), so
    // every combination must agree to the byte for each kind of policy:
    // cache-driven, TLB-driven (full and sampled), and static.
    use ccnuma_core::{MissMetric, PolicyParams};
    let mig_rep = |metric: MissMetric| PolicyChoice::Dynamic {
        params: PolicyParams::base().with_trigger(16),
        kind: ccnuma_core::DynamicPolicyKind::MigRep,
        metric,
    };
    for policy in [
        PolicyChoice::base_mig_rep(PolicyParams::base().with_trigger(16)),
        mig_rep(MissMetric::full_tlb()),
        mig_rep(MissMetric::sampled_tlb(10)),
        PolicyChoice::first_touch(),
    ] {
        let label = policy.label();
        let spec =
            |opts: RunOptions| RunSpec::catalog(WorkloadKind::Raytrace, Scale::quick(), opts);
        let untraced = spec(RunOptions::new(policy.clone()));
        let traced = spec(RunOptions::new(policy).with_trace());
        let plain = format!("{:?}", untraced.run());
        for spec in [&untraced, &traced] {
            let with_null = spec
                .try_run_with(&mut NullRecorder, &mut NullProfiler)
                .unwrap();
            let mut rec = ccnuma_obs::RunRecorder::default();
            let with_obs = spec.try_run_with(&mut rec, &mut NullProfiler).unwrap();
            assert!(
                !rec.series.is_empty(),
                "{label}: instrumented run recorded data"
            );
            assert_eq!(
                with_null.trace.is_some(),
                spec.opts.capture_trace,
                "{label}: a trace exactly when captured"
            );
            assert_eq!(
                format!("{:?}", with_null.trace),
                format!("{:?}", with_obs.trace),
                "{label}: the trace does not depend on the recorder"
            );
            for mut report in [with_null, with_obs] {
                report.trace = None;
                assert_eq!(plain, format!("{report:?}"), "{label}");
            }
        }
    }
}

#[test]
fn fig3_quick_output_is_byte_identical_across_job_counts() {
    let scale = Scale::quick();
    let exp = experiments::find("fig3").expect("fig3 registered");

    let render_with_jobs = |jobs: usize| {
        let mut plan = RunPlan::new();
        plan.extend((exp.plan)(scale));
        let exec = Executor::new(jobs);
        exec.execute(&plan);
        (exp.render)(scale, &exec)
    };

    let serial = render_with_jobs(1);
    let parallel = render_with_jobs(8);
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "fig3 output must not depend on --jobs");
}

#[test]
fn every_workload_report_is_byte_identical_across_job_counts() {
    // The allocation-free hot path (flat TLB, bitmask coherence
    // directory, flat counter tables, FxHash page tables) must stay a
    // pure function of the spec: full RunReports — not just rendered
    // tables — agree to the byte whether the executor runs serial or
    // with a worker pool.
    let scale = Scale::quick();
    let reports_with_jobs = |jobs: usize| -> Vec<String> {
        let exec = Executor::new(jobs);
        let mut out = Vec::new();
        for kind in WorkloadKind::ALL {
            for spec in [
                ccnuma_bench::ft_spec(kind, scale),
                ccnuma_bench::dynamic_spec(kind, scale),
            ] {
                out.push(format!("{:?}", exec.run(&spec)));
            }
        }
        out
    };

    let serial = reports_with_jobs(1);
    let parallel = reports_with_jobs(4);
    assert_eq!(serial.len(), parallel.len());
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(a, b, "report {i} diverged between --jobs 1 and --jobs 4");
    }
}

#[test]
fn topology_runs_are_byte_identical_across_job_counts() {
    // The hop-path latency model adds per-tier accounting to the hot
    // path; it must stay as deterministic as the flat machine. Full
    // RunReports on the hierarchical and CXL presets agree to the byte
    // whether the executor runs serial or with a worker pool.
    use ccnuma_types::TopologyPreset;
    let scale = Scale::quick();
    let specs = || {
        [
            ccnuma_bench::dynamic_spec(WorkloadKind::Raytrace, scale)
                .with_topology(TopologyPreset::FourSocketHierarchical),
            ccnuma_bench::ft_spec(WorkloadKind::Database, scale)
                .with_topology(TopologyPreset::CxlTiered),
        ]
    };
    let reports_with_jobs = |jobs: usize| -> Vec<String> {
        let exec = Executor::new(jobs);
        specs()
            .iter()
            .map(|spec| format!("{:?}", exec.run(spec)))
            .collect()
    };

    let serial = reports_with_jobs(1);
    let parallel = reports_with_jobs(4);
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            a, b,
            "topology report {i} diverged between --jobs 1 and --jobs 4"
        );
    }
    // The presets really did change the machine: a hierarchical run is
    // not the flat run under a different label.
    let flat = format!(
        "{:?}",
        Executor::new(1).run(&ccnuma_bench::dynamic_spec(WorkloadKind::Raytrace, scale))
    );
    assert_ne!(serial[0], flat, "hierarchical preset must differ from flat");
}

#[test]
fn experiment_output_is_byte_identical_across_shard_counts() {
    // The tentpole contract: a shard plan is host-side parallelism
    // only. Rendered experiment output — the same stdout `repro all`
    // prints — must agree to the byte at every shard count. (CI
    // additionally byte-compares the full `repro all --scale quick`
    // stdout at --shards 1/2/8 against the golden file with the
    // release binary.)
    use ccnuma_types::ShardPlan;
    let scale = Scale::quick();
    let names = ["fig3", "table2", "contention"];
    let render_with_shards = |shards: u32| -> String {
        let exec = Executor::new(2).with_shards(ShardPlan::new(shards));
        let mut plan = RunPlan::new();
        for name in names {
            plan.extend((experiments::find(name).expect(name).plan)(scale));
        }
        exec.execute(&plan);
        names
            .iter()
            .map(|name| (experiments::find(name).unwrap().render)(scale, &exec))
            .collect::<Vec<_>>()
            .join("\n")
    };

    let serial = render_with_shards(1);
    for shards in [2, 8] {
        assert_eq!(
            serial,
            render_with_shards(shards),
            "rendered output diverged between --shards 1 and --shards {shards}"
        );
    }
    assert!(!serial.is_empty());
}

#[test]
fn lifted_processor_cap_completes_a_quick_run() {
    // 128 shared-reader nodes means 128 processors — double the old
    // 64-proc bitmask ceiling. The run must validate, complete, and
    // stay deterministic.
    let spec = RunSpec::shared_reader(
        128,
        Scale::quick(),
        RunOptions::new(PolicyChoice::first_touch()),
    );
    let a = spec.run();
    let b = spec.run();
    assert!(a.breakdown.total().0 > 0, "128-proc run retired work");
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn executor_memoizes_across_experiments() {
    // fig3 and table3 both need the engineering FT baseline; the second
    // renderer must reuse the first's run rather than recompute.
    let scale = Scale::quick();
    let mut plan = RunPlan::new();
    for name in ["fig3", "table3"] {
        plan.extend((experiments::find(name).unwrap().plan)(scale));
    }
    // 8 runs for fig3 (4 workloads x FT/MigRep) + 5 FT runs for table3,
    // of which 4 FT runs are shared.
    assert_eq!(
        plan.len(),
        9,
        "union plan must deduplicate shared baselines"
    );

    let exec = Executor::new(4);
    exec.execute(&plan);
    let computed_after_plan = exec.stats().computed;
    let fig3 = (experiments::find("fig3").unwrap().render)(scale, &exec);
    let table3 = (experiments::find("table3").unwrap().render)(scale, &exec);
    assert!(!fig3.is_empty() && !table3.is_empty());
    let stats = exec.stats();
    assert_eq!(
        stats.computed, computed_after_plan,
        "rendering must be pure cache hits after execute()"
    );
    assert!(stats.hits >= 13, "every render fetch is a hit: {stats:?}");
}
