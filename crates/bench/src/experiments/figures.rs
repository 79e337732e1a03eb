//! Figures 3–9.
//!
//! Each figure has a `*_plan` function naming the machine runs it needs
//! (for the executor to batch and parallelize) and a render function
//! that fetches those runs through the [`Executor`] handle.

use crate::helpers::{base_params, dynamic_spec, ft_spec, traced_ft, traced_ft_spec, RunPair};
use crate::plan::Executor;
use ccnuma_core::{DynamicPolicyKind, MissMetric, PolicyParams};
use ccnuma_machine::{RunReport, RunSpec};
use ccnuma_polsim::{evaluate, Cell, PolsimConfig, SimPolicy, TraceFilter};
use ccnuma_stats::{f1, BarChart, Table};
use ccnuma_trace::read_chains;
use ccnuma_types::{MachineConfig, Ns};
use ccnuma_workloads::{Scale, WorkloadKind};
use core::convert::Infallible;
use std::fmt::Write as _;

fn report_bar(chart: &mut BarChart, r: &RunReport) {
    let b = &r.breakdown;
    chart.bar(
        format!("{} {}", r.workload, r.policy_label),
        vec![
            b.policy_overhead().as_ms(),
            b.remote_stall().as_ms(),
            b.local_stall().as_ms(),
            (b.other_incl_hits() + b.idle()).as_ms(),
        ],
        Some(format!("{}% local", f1(b.pct_local_misses()))),
    );
}

/// Runs needed by [`figure3`].
pub fn figure3_plan(scale: Scale) -> Vec<RunSpec> {
    WorkloadKind::USER_SET
        .into_iter()
        .flat_map(|kind| RunPair::specs(kind, scale))
        .collect()
}

/// Figure 3: performance improvement of the base policy over first touch.
pub fn figure3(scale: Scale, exec: &Executor) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Figure 3: base policy (Mig/Rep) vs first touch (FT) =="
    );
    let mut chart = BarChart::new(vec![
        "mig/rep overhead",
        "remote stall",
        "local stall",
        "other",
    ]);
    let mut summary = Table::new(vec![
        "Workload",
        "FT(ms)",
        "MigRep(ms)",
        "Improve%",
        "StallRed%",
        "FT local%",
        "MR local%",
    ]);
    for kind in WorkloadKind::USER_SET {
        let pair = RunPair::of(exec, kind, scale);
        report_bar(&mut chart, &pair.ft);
        report_bar(&mut chart, &pair.mig_rep);
        summary.row(vec![
            kind.to_string(),
            f1(pair.ft.breakdown.total().as_ms()),
            f1(pair.mig_rep.breakdown.total().as_ms()),
            f1(pair.improvement()),
            f1(pair.stall_reduction()),
            f1(pair.ft.breakdown.pct_local_misses()),
            f1(pair.mig_rep.breakdown.pct_local_misses()),
        ]);
    }
    let _ = writeln!(out, "{chart}");
    let _ = write!(out, "{summary}");
    out
}

/// Runs needed by [`figure4`].
pub fn figure4_plan(scale: Scale) -> Vec<RunSpec> {
    WorkloadKind::USER_SET
        .into_iter()
        .map(|kind| traced_ft_spec(kind, scale))
        .collect()
}

/// Figure 4: percentage of data cache misses in read chains of length ≥ L.
pub fn figure4(scale: Scale, exec: &Executor) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Figure 4: data cache misses in read chains ==");
    let _ = writeln!(
        out,
        "(per workload: % of user data misses in read chains of length >= L)"
    );
    let mut t = Table::new(vec!["L", "Engineering", "Raytrace", "Splash", "Database"]);
    let summaries: Vec<_> = WorkloadKind::USER_SET
        .iter()
        .map(|kind| {
            let tr = traced_ft(exec, *kind, scale);
            read_chains(tr.trace()).summary()
        })
        .collect();
    for (i, threshold) in ccnuma_trace::ChainSummary::THRESHOLDS.iter().enumerate() {
        let mut row = vec![threshold.to_string()];
        for s in &summaries {
            let (_, frac) = s.points().nth(i).expect("same thresholds");
            row.push(f1(frac * 100.0));
        }
        t.row(row);
    }
    let _ = write!(out, "{t}");
    out
}

/// Figure 5's two machine configurations: CC-NUMA (the workload's native
/// latency — plain specs, shared with Figure 3) and CC-NOW.
fn figure5_configs(scale: Scale) -> [(&'static str, RunSpec, RunSpec); 2] {
    let kind = WorkloadKind::Engineering;
    let now = MachineConfig::cc_now().remote_latency;
    [
        ("CC-NUMA", ft_spec(kind, scale), dynamic_spec(kind, scale)),
        (
            "CC-NOW",
            ft_spec(kind, scale).with_remote_latency(now),
            dynamic_spec(kind, scale).with_remote_latency(now),
        ),
    ]
}

/// Runs needed by [`figure5`].
pub fn figure5_plan(scale: Scale) -> Vec<RunSpec> {
    figure5_configs(scale)
        .into_iter()
        .flat_map(|(_, ft, mr)| [ft, mr])
        .collect()
}

/// Figure 5: CC-NUMA vs CC-NOW for the engineering workload.
pub fn figure5(scale: Scale, exec: &Executor) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Figure 5: CC-NUMA vs CC-NOW (engineering) ==");
    let mut chart = BarChart::new(vec![
        "mig/rep overhead",
        "remote stall",
        "local stall",
        "other",
    ]);
    let mut rows = Table::new(vec![
        "Config",
        "Policy",
        "NonIdle(ms)",
        "UserStallRed%",
        "Improve%",
    ]);
    for (label, ft_run, mr_run) in figure5_configs(scale) {
        let ft = exec.run(&ft_run);
        let mr = exec.run(&mr_run);
        for r in [&ft, &mr] {
            let b = &r.breakdown;
            chart.bar(
                format!("{label} {}", r.policy_label),
                vec![
                    b.policy_overhead().as_ms(),
                    b.remote_stall().as_ms(),
                    b.local_stall().as_ms(),
                    b.other_incl_hits().as_ms(),
                ],
                Some(format!("{}% local", f1(b.pct_local_misses()))),
            );
        }
        let user_stall_ft = ft.breakdown.mode_stall(ccnuma_types::Mode::User);
        let user_stall_mr = mr.breakdown.mode_stall(ccnuma_types::Mode::User);
        let red = if user_stall_ft == Ns::ZERO {
            0.0
        } else {
            100.0 * (user_stall_ft.0 as f64 - user_stall_mr.0 as f64) / user_stall_ft.0 as f64
        };
        rows.row(vec![
            label.into(),
            "FT->Mig/Rep".into(),
            format!(
                "{} -> {}",
                f1(ft.breakdown.non_idle().as_ms()),
                f1(mr.breakdown.non_idle().as_ms())
            ),
            f1(red),
            f1(mr.improvement_over(&ft)),
        ]);
    }
    let _ = writeln!(out, "{chart}");
    let _ = write!(out, "{rows}");
    out
}

fn polsim_figure(
    out: &mut String,
    exec: &Executor,
    workloads: &[WorkloadKind],
    scale: Scale,
    filter: TraceFilter,
    policies: impl Fn(WorkloadKind) -> Vec<SimPolicy>,
) {
    for kind in workloads {
        let tr = traced_ft(exec, *kind, scale);
        let cfg = PolsimConfig::section8(tr.nodes()).with_other_time(tr.other_time());
        let cells: Vec<Cell> = policies(*kind)
            .into_iter()
            .map(|p| (cfg.clone(), p))
            .collect();
        let open = || Ok::<_, Infallible>(tr.trace().iter().map(|r| Ok(*r)));
        let Ok((reports, _)) = evaluate(&cells, filter, open);
        let base_total = reports[0].total();
        let mut chart = BarChart::new(vec![
            "mig overhead",
            "rep overhead",
            "remote stall",
            "local stall",
            "other",
        ]);
        let mut t = Table::new(vec![
            "Policy",
            "Normalized",
            "Local%",
            "Migr",
            "Repl",
            "Coll",
        ]);
        for r in &reports {
            let norm = if base_total == Ns::ZERO {
                0.0
            } else {
                r.total().0 as f64 / base_total.0 as f64
            };
            chart.bar(
                format!("{} {}", kind, r.label),
                vec![
                    r.mig_overhead.as_ms(),
                    r.rep_overhead.as_ms(),
                    r.remote_stall.as_ms(),
                    r.local_stall.as_ms(),
                    r.other_time.as_ms(),
                ],
                Some(format!("{}% local", f1(r.pct_local_misses()))),
            );
            t.row(vec![
                r.label.clone(),
                format!("{norm:.3}"),
                f1(r.pct_local_misses()),
                r.migrations.to_string(),
                r.replications.to_string(),
                r.collapses.to_string(),
            ]);
        }
        let _ = writeln!(out, "{chart}");
        let _ = writeln!(out, "{t}");
    }
}

/// Runs needed by [`figure6`] (shared with Figures 4, 8 and 9).
pub fn figure6_plan(scale: Scale) -> Vec<RunSpec> {
    figure4_plan(scale)
}

/// Figure 6: the six policies (RR, FT, PF, Migr, Repl, Mig/Rep) replayed
/// through the trace-driven policy simulator.
pub fn figure6(scale: Scale, exec: &Executor) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Figure 6: policy comparison on traces (normalized to RR) =="
    );
    polsim_figure(
        &mut out,
        exec,
        &WorkloadKind::USER_SET,
        scale,
        TraceFilter::UserOnly,
        |kind| {
            SimPolicy::figure6_set()
                .into_iter()
                .map(|p| with_workload_trigger(p, kind))
                .collect()
        },
    );
    out
}

/// Applies the workload's Section 7 trigger to a dynamic policy.
fn with_workload_trigger(policy: SimPolicy, kind: WorkloadKind) -> SimPolicy {
    match policy {
        SimPolicy::Dynamic {
            params,
            kind: pk,
            metric,
        } => SimPolicy::Dynamic {
            params: params.with_trigger(crate::helpers::trigger_for(kind)),
            kind: pk,
            metric,
        },
        s => s,
    }
}

/// Runs needed by [`figure7`].
pub fn figure7_plan(scale: Scale) -> Vec<RunSpec> {
    vec![traced_ft_spec(WorkloadKind::Pmake, scale)]
}

/// Figure 7: the same policies on the pmake workload's *kernel* misses.
pub fn figure7(scale: Scale, exec: &Executor) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Figure 7: kernel-only policy comparison (pmake) ==");
    polsim_figure(
        &mut out,
        exec,
        &[WorkloadKind::Pmake],
        scale,
        TraceFilter::KernelOnly,
        |_| SimPolicy::figure6_set(),
    );
    out
}

/// Runs needed by [`figure8`].
pub fn figure8_plan(scale: Scale) -> Vec<RunSpec> {
    figure4_plan(scale)
}

/// Figure 8: approximate information — full/sampled cache, full/sampled
/// TLB (1:10 sampling), Mig/Rep policy.
pub fn figure8(scale: Scale, exec: &Executor) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Figure 8: impact of approximate information (FC/SC/FT/ST) =="
    );
    polsim_figure(
        &mut out,
        exec,
        &WorkloadKind::USER_SET,
        scale,
        TraceFilter::UserOnly,
        |kind| {
            MissMetric::figure8_set()
                .into_iter()
                .map(|metric| {
                    // Sampled metrics see 1/rate of the events, so the
                    // thresholds scale down with the rate to keep the same
                    // effective miss-rate trigger.
                    let trigger = (crate::helpers::trigger_for(kind) / metric.rate()).max(1);
                    SimPolicy::Dynamic {
                        params: base_params(kind).with_trigger(trigger),
                        kind: DynamicPolicyKind::MigRep,
                        metric,
                    }
                })
                .collect()
        },
    );
    out
}

/// Runs needed by [`figure9`].
pub fn figure9_plan(scale: Scale) -> Vec<RunSpec> {
    figure4_plan(scale)
}

/// Figure 9: trigger-threshold sweep (32, 64, 128, 256; sharing =
/// trigger/4).
pub fn figure9(scale: Scale, exec: &Executor) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Figure 9: trigger threshold sweep ==");
    polsim_figure(
        &mut out,
        exec,
        &WorkloadKind::USER_SET,
        scale,
        TraceFilter::UserOnly,
        |_| {
            [32u32, 64, 128, 256]
                .into_iter()
                .map(|t| SimPolicy::Dynamic {
                    params: PolicyParams::base().with_trigger(t),
                    kind: DynamicPolicyKind::MigRep,
                    metric: MissMetric::full_cache(),
                })
                .collect()
        },
    );
    out
}
