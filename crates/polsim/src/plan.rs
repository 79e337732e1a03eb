//! The pass planner: how a set of policy cells is evaluated over one
//! trace.
//!
//! The static baselines never move a page, so every static cell of a set
//! is priced from one [`StaticProfile`] pass, at whatever latency, move
//! cost or topology each cell asks for. Each dynamic cell replays the
//! trace in a pass of its own through a [`Replay`]. [`plan`] turns a cell
//! list into those passes, [`Pass::run`] runs one of them over a record
//! stream, and [`evaluate`] runs them all, one after another.
//!
//! This is the only place that chooses between profiling and replaying:
//! [`simulate`](crate::simulate), the sweep engine and the serve daemon
//! (through it), and the figure renders all take their passes from here.
//! The planner does not dedupe: two equal cells are evaluated twice
//! unless the caller collapses them first.
//!
//! # Examples
//!
//! ```
//! use ccnuma_polsim::{evaluate, PolsimConfig, SimPolicy, TraceFilter};
//! use ccnuma_trace::MissRecord;
//! use ccnuma_types::{Ns, Pid, ProcId, VirtPage};
//!
//! let records: Vec<MissRecord> = (0..300)
//!     .map(|i| MissRecord::user_data_read(Ns(i * 500), ProcId(5), Pid(1), VirtPage(9)))
//!     .collect();
//! let cfg = PolsimConfig::section8(8);
//! let cells: Vec<_> = SimPolicy::figure6_set()
//!     .into_iter()
//!     .map(|p| (cfg.clone(), p))
//!     .collect();
//! let mut opened = 0;
//! let (reports, n) = evaluate(&cells, TraceFilter::All, || {
//!     opened += 1;
//!     Ok::<_, std::convert::Infallible>(records.iter().map(|r| Ok(*r)))
//! })
//! .unwrap();
//! // One profile pass prices RR, FT and PF; Migr, Repl and Mig/Rep
//! // replay in a pass each.
//! assert_eq!(opened, 1 + 3);
//! assert_eq!((reports.len(), n), (6, 300));
//! assert_eq!(reports[1].label, "FT");
//! ```

use crate::{PolsimConfig, PolsimReport, Replay, SimPolicy, StaticProfile, TraceFilter};
use ccnuma_core::{DynamicPolicyKind, MissMetric, PolicyParams, StaticPolicyKind};
use ccnuma_trace::MissRecord;

/// One cell to evaluate: the memory model and the policy replayed under
/// it.
pub type Cell = (PolsimConfig, SimPolicy);

/// One pass over a trace, evaluating one or more cells of a [`plan`].
#[derive(Debug, Clone)]
pub struct Pass {
    filter: TraceFilter,
    work: Work,
}

/// A pass's cells, each with its index in the planned list.
#[derive(Debug, Clone)]
enum Work {
    /// Every static cell of the list, priced from one profile.
    Profile(Vec<(usize, PolsimConfig, StaticPolicyKind)>),
    /// One dynamic cell, replayed record by record.
    Replay(
        usize,
        PolsimConfig,
        PolicyParams,
        DynamicPolicyKind,
        MissMetric,
    ),
}

/// What a finished [`Pass`] yields.
#[derive(Debug, Clone, PartialEq)]
pub struct PassOutput {
    /// Each of the pass's cells' report, by its index in the planned
    /// cell list.
    pub reports: Vec<(usize, PolsimReport)>,
    /// Records the stream held.
    pub records: u64,
}

/// The passes that evaluate `cells` with stall charged through `filter`:
/// one profile pass for all the static cells (if any), then one replay
/// pass per dynamic cell, in cell order.
///
/// # Panics
///
/// Panics if the cells disagree on the node count.
pub fn plan(cells: &[Cell], filter: TraceFilter) -> Vec<Pass> {
    assert!(
        cells.windows(2).all(|w| w[0].0.nodes == w[1].0.nodes),
        "planned cells must share a node count"
    );
    let mut statics = Vec::new();
    let mut work = Vec::new();
    for (i, (cfg, policy)) in cells.iter().cloned().enumerate() {
        match policy {
            SimPolicy::Static(kind) => statics.push((i, cfg, kind)),
            SimPolicy::Dynamic {
                params,
                kind,
                metric,
            } => work.push(Work::Replay(i, cfg, params, kind, metric)),
        }
    }
    if !statics.is_empty() {
        work.insert(0, Work::Profile(statics));
    }
    work.into_iter().map(|work| Pass { filter, work }).collect()
}

impl Pass {
    /// Runs the pass over one record stream, drained to its end.
    ///
    /// # Errors
    ///
    /// The stream's first error; an uninhabited error type (a slice's)
    /// compiles the per-record checks away.
    pub fn run<E>(
        &self,
        records: impl IntoIterator<Item = Result<MissRecord, E>>,
    ) -> Result<PassOutput, E> {
        match &self.work {
            Work::Profile(cells) => {
                let mut profile = StaticProfile::new(cells[0].1.nodes, self.filter);
                for rec in records {
                    profile.observe(&rec?);
                }
                Ok(PassOutput {
                    reports: cells
                        .iter()
                        .map(|(i, cfg, kind)| (*i, profile.price(cfg, *kind)))
                        .collect(),
                    records: profile.records(),
                })
            }
            Work::Replay(i, cfg, params, kind, metric) => {
                let mut replay = Replay::new(cfg, *params, *kind, metric.clone(), self.filter);
                let mut n = 0u64;
                for rec in records {
                    replay.observe(&rec?);
                    n += 1;
                }
                Ok(PassOutput {
                    reports: vec![(*i, replay.finish())],
                    records: n,
                })
            }
        }
    }
}

/// Evaluates `cells` with stall charged through `filter`: runs the
/// [`plan`] one pass after another, each over a fresh stream from `open`.
/// Returns one report per cell, in cell order, and the records the trace
/// held (0 when there are no cells, and so no pass).
///
/// # Errors
///
/// The first error `open` or a stream returns.
///
/// # Panics
///
/// As [`plan`].
pub fn evaluate<E, I, F>(
    cells: &[Cell],
    filter: TraceFilter,
    mut open: F,
) -> Result<(Vec<PolsimReport>, u64), E>
where
    I: Iterator<Item = Result<MissRecord, E>>,
    F: FnMut() -> Result<I, E>,
{
    let mut reports = vec![None; cells.len()];
    let mut records = 0;
    for pass in plan(cells, filter) {
        let out = pass.run(open()?)?;
        records = out.records;
        for (i, report) in out.reports {
            reports[i] = Some(report);
        }
    }
    let reports = reports
        .into_iter()
        .map(|r| r.expect("every cell is in exactly one pass"))
        .collect();
    Ok((reports, records))
}
