//! The [`Recorder`] trait — the simulator's instrumentation surface —
//! and its two implementations: the zero-cost [`NullRecorder`] and the
//! full [`RunRecorder`].
//!
//! The simulator is generic over `R: Recorder` and monomorphized, so a
//! run with [`NullRecorder`] compiles every hook to nothing: the
//! associated constant [`Recorder::ENABLED`] is `false`, guarding
//! call sites whose *arguments* would cost something to build, and the
//! empty default methods inline away. The off path is byte-identical to
//! a simulator with no observability at all — the determinism tests
//! assert it.

use crate::audit::{AuditAction, AuditEvent, AuditLog, Decision};
use crate::hist::Histogram;
use crate::metrics::Metrics;
use crate::sample::{EpochSeries, SampleView};
use ccnuma_core::PolicyAction;
use ccnuma_faults::{FaultEvent, FaultKind};
use ccnuma_kernel::{BatchStats, OpOutcome, PageOp};
use ccnuma_trace::MissRecord;
use ccnuma_types::{Ns, VirtPage};

/// Instrumentation hooks the simulator drives.
///
/// Every method has an empty default body; implementations override the
/// ones they care about. All hooks are keyed by sim time — a recorder
/// must never consult wall-clock time, so recorded artifacts for equal
/// run specs are byte-identical regardless of scheduling.
pub trait Recorder: Send {
    /// `false` only for [`NullRecorder`]: lets the simulator skip
    /// *building hook arguments* (sample views, counter snapshots) when
    /// observability is off. Hook calls themselves need no guard — they
    /// monomorphize to nothing.
    const ENABLED: bool = true;

    /// A CPU switched context at `now` (`pid` of the incoming process,
    /// `None` for idle).
    fn on_context_switch(&mut self, _cpu: usize, _now: Ns, _pid: Option<u64>) {}

    /// An L2 miss went to memory: `latency` end-to-end, `remote` if the
    /// mapping was on another node.
    fn on_miss(&mut self, _rec: &MissRecord, _latency: Ns, _remote: bool) {}

    /// A TLB refill cost `cost` of kernel time.
    fn on_tlb_fill(&mut self, _rec: &MissRecord, _cost: Ns) {}

    /// The policy engine decided a non-trivial action.
    fn on_decision(&mut self, _d: &Decision) {}

    /// A decided page move found no free frame and was reclassified.
    fn on_no_page(&mut self, _now: Ns, _page: VirtPage, _action: &PolicyAction) {}

    /// The policy counter reset interval rolled over to `epoch`.
    fn on_interval_reset(&mut self, _now: Ns, _epoch: u64) {}

    /// The pager finished one operation of a batch on `cpu`, starting at
    /// sim time `start`.
    fn on_page_op(&mut self, _cpu: usize, _start: Ns, _op: &PageOp, _outcome: &OpOutcome) {}

    /// A pager batch performed its TLB shootdown.
    fn on_shootdown(&mut self, _now: Ns, _stats: &BatchStats) {}

    /// A fault was injected (chaos runs only; never fires with fault
    /// injection off).
    fn on_fault(&mut self, _event: &FaultEvent) {}

    /// True when the epoch sampler wants a snapshot at sim time `now`.
    /// The simulator checks this before building the (non-free)
    /// [`SampleView`].
    fn epoch_due(&self, _now: Ns) -> bool {
        false
    }

    /// Receives the snapshot requested via [`Recorder::epoch_due`].
    fn on_epoch(&mut self, _now: Ns, _view: &SampleView) {}

    /// The run finished at `sim_time`; `view` is the final cumulative
    /// state.
    fn on_run_end(&mut self, _sim_time: Ns, _view: &SampleView) {}
}

/// The no-op recorder: observability off.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    const ENABLED: bool = false;
}

/// Configuration for a [`RunRecorder`].
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig {
    /// Epoch length of the time-series sampler.
    pub epoch: Ns,
}

impl Default for ObsConfig {
    /// 100 µs epochs: fine enough that even `--scale quick` runs (a few
    /// simulated milliseconds) produce tens of epochs, coarse enough
    /// that standard runs stay small.
    fn default() -> ObsConfig {
        ObsConfig {
            epoch: Ns::from_us(100),
        }
    }
}

/// A context-switch record for the scheduler timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedEvent {
    /// The CPU that switched.
    pub cpu: usize,
    /// When it switched.
    pub now: Ns,
    /// The incoming process (`None` = idle).
    pub pid: Option<u64>,
}

/// A completed (or skipped/failed) pager operation for the page-op
/// timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpEvent {
    /// CPU the operation was charged to.
    pub cpu: usize,
    /// Sim time the operation started.
    pub start: Ns,
    /// Operation name ("migrate", "replicate", "collapse", "remap").
    pub name: &'static str,
    /// The page operated on.
    pub page: VirtPage,
    /// End-to-end latency (zero for skipped / no-page).
    pub dur: Ns,
    /// Outcome name ("done", "skipped", "no_page", "failed").
    pub outcome: &'static str,
}

/// One TLB shootdown for the shootdown timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShootdownEvent {
    /// When the batch flushed.
    pub now: Ns,
    /// TLBs flushed by the rendezvous.
    pub tlbs: u32,
    /// Operations in the batch that needed the flush.
    pub flush_ops: u32,
}

/// The series recorded on every replayed miss and TLB refill, held in
/// fixed fields instead of name-keyed registry entries so the per-event
/// hooks compare no strings. [`RunRecorder::metrics`] folds them into
/// the registry under their names; a series never recorded stays out
/// of it, exactly as an untouched registry name would.
#[derive(Debug, Clone, Default)]
struct HotSeries {
    misses_local: u64,
    misses_remote: u64,
    tlb_refills: u64,
    miss_latency: Histogram,
    miss_latency_local: Histogram,
    miss_latency_remote: Histogram,
    tlb_refill: Histogram,
}

impl HotSeries {
    fn fold_into(&self, m: &mut Metrics) {
        for (name, v) in [
            ("misses_local", self.misses_local),
            ("misses_remote", self.misses_remote),
            ("tlb_refills", self.tlb_refills),
        ] {
            if v > 0 {
                m.add(name, v);
            }
        }
        for (name, h) in [
            ("miss_latency_ns", &self.miss_latency),
            ("miss_latency_local_ns", &self.miss_latency_local),
            ("miss_latency_remote_ns", &self.miss_latency_remote),
            ("tlb_refill_ns", &self.tlb_refill),
        ] {
            if h.count() > 0 {
                m.merge_histogram(name, h);
            }
        }
    }
}

/// The full observability recorder: metrics registry, epoch time series,
/// pager audit log, and the raw event streams behind the Chrome trace.
#[derive(Debug, Clone)]
pub struct RunRecorder {
    /// Named counters and histograms, less the per-miss series.
    metrics: Metrics,
    /// The per-miss and per-refill series.
    hot: HotSeries,
    /// The epoch-sampled time series.
    pub series: EpochSeries,
    /// The pager decision audit log.
    pub audit: AuditLog,
    sched: Vec<SchedEvent>,
    ops: Vec<OpEvent>,
    shootdowns: Vec<ShootdownEvent>,
    sim_time: Ns,
}

impl Default for RunRecorder {
    fn default() -> RunRecorder {
        RunRecorder::new(ObsConfig::default())
    }
}

impl RunRecorder {
    /// A recorder with the given configuration.
    pub fn new(cfg: ObsConfig) -> RunRecorder {
        RunRecorder {
            metrics: Metrics::new(),
            hot: HotSeries::default(),
            series: EpochSeries::new(cfg.epoch),
            audit: AuditLog::new(),
            sched: Vec::new(),
            ops: Vec::new(),
            shootdowns: Vec::new(),
            sim_time: Ns::ZERO,
        }
    }

    /// Every named counter and histogram recorded so far.
    pub fn metrics(&self) -> Metrics {
        let mut m = self.metrics.clone();
        self.hot.fold_into(&mut m);
        m
    }

    /// Scheduler timeline events, in record order.
    pub fn sched_events(&self) -> &[SchedEvent] {
        &self.sched
    }

    /// Pager operation events, in record order.
    pub fn op_events(&self) -> &[OpEvent] {
        &self.ops
    }

    /// Shootdown events, in record order.
    pub fn shootdown_events(&self) -> &[ShootdownEvent] {
        &self.shootdowns
    }

    /// Final sim time (set by [`Recorder::on_run_end`]).
    pub fn sim_time(&self) -> Ns {
        self.sim_time
    }

    fn op_hist_name(op: &PageOp) -> &'static str {
        match op {
            PageOp::Migrate { .. } => "pager_migrate_ns",
            PageOp::Replicate { .. } => "pager_replicate_ns",
            PageOp::Collapse { .. } => "pager_collapse_ns",
            PageOp::Remap { .. } => "pager_remap_ns",
        }
    }

    fn op_name(op: &PageOp) -> &'static str {
        match op {
            PageOp::Migrate { .. } => "migrate",
            PageOp::Replicate { .. } => "replicate",
            PageOp::Collapse { .. } => "collapse",
            PageOp::Remap { .. } => "remap",
        }
    }
}

impl Recorder for RunRecorder {
    fn on_context_switch(&mut self, cpu: usize, now: Ns, pid: Option<u64>) {
        self.metrics.inc("context_switches");
        self.sched.push(SchedEvent { cpu, now, pid });
    }

    fn on_miss(&mut self, _rec: &MissRecord, latency: Ns, remote: bool) {
        let hot = &mut self.hot;
        hot.miss_latency.record(latency.0);
        if remote {
            hot.misses_remote += 1;
            hot.miss_latency_remote.record(latency.0);
        } else {
            hot.misses_local += 1;
            hot.miss_latency_local.record(latency.0);
        }
    }

    fn on_tlb_fill(&mut self, _rec: &MissRecord, cost: Ns) {
        self.hot.tlb_refills += 1;
        self.hot.tlb_refill.record(cost.0);
    }

    fn on_decision(&mut self, d: &Decision) {
        self.metrics.inc(match d.action {
            AuditAction::Migrate { .. } => "decisions_migrate",
            AuditAction::Replicate { .. } => "decisions_replicate",
            AuditAction::Collapse => "decisions_collapse",
            AuditAction::Remap { .. } => "decisions_remap",
        });
        self.audit.push(AuditEvent::Decision(*d));
    }

    fn on_no_page(&mut self, now: Ns, page: VirtPage, action: &PolicyAction) {
        if let Some(action) = AuditAction::of(action) {
            self.metrics.inc("decisions_no_page");
            self.audit.push(AuditEvent::NoPage { now, page, action });
        }
    }

    fn on_interval_reset(&mut self, now: Ns, epoch: u64) {
        self.metrics.inc("interval_resets");
        self.audit.push(AuditEvent::Reset { now, epoch });
    }

    fn on_page_op(&mut self, cpu: usize, start: Ns, op: &PageOp, outcome: &OpOutcome) {
        let (dur, outcome_name) = match outcome {
            OpOutcome::Done { latency } => {
                self.metrics.observe("pager_op_ns", latency.0);
                self.metrics.observe(Self::op_hist_name(op), latency.0);
                self.metrics.inc("pager_ops_done");
                (*latency, "done")
            }
            OpOutcome::NoPage => {
                self.metrics.inc("pager_ops_no_page");
                (Ns::ZERO, "no_page")
            }
            OpOutcome::Skipped => {
                self.metrics.inc("pager_ops_skipped");
                (Ns::ZERO, "skipped")
            }
            OpOutcome::Failed { .. } => {
                self.metrics.inc("pager_ops_failed");
                (Ns::ZERO, "failed")
            }
        };
        self.ops.push(OpEvent {
            cpu,
            start,
            name: Self::op_name(op),
            page: op.page(),
            dur,
            outcome: outcome_name,
        });
    }

    fn on_shootdown(&mut self, now: Ns, stats: &BatchStats) {
        self.metrics.inc("shootdowns");
        self.metrics
            .observe("shootdown_tlbs", stats.tlbs_flushed as u64);
        self.metrics
            .observe("shootdown_flush_ops", stats.flush_ops as u64);
        self.shootdowns.push(ShootdownEvent {
            now,
            tlbs: stats.tlbs_flushed,
            flush_ops: stats.flush_ops,
        });
    }

    fn on_fault(&mut self, event: &FaultEvent) {
        self.metrics.inc("faults_injected");
        self.metrics.inc(match event.kind {
            FaultKind::StormSeize { .. } => "fault_storm_seize",
            FaultKind::StormRelease { .. } => "fault_storm_release",
            FaultKind::CopyAbort { .. } => "fault_copy_abort",
            FaultKind::AllocBlocked { .. } => "fault_alloc_blocked",
            FaultKind::AckDelay { .. } => "fault_ack_delay",
            FaultKind::InterruptLost => "fault_interrupt_lost",
            FaultKind::CounterCapped { .. } => "fault_counter_capped",
        });
        self.audit.push(AuditEvent::Fault(*event));
    }

    fn epoch_due(&self, now: Ns) -> bool {
        self.series.due(now)
    }

    fn on_epoch(&mut self, now: Ns, view: &SampleView) {
        self.series.push(now, *view);
    }

    fn on_run_end(&mut self, sim_time: Ns, view: &SampleView) {
        self.sim_time = sim_time;
        // Always close the series with the final state, so even a run
        // shorter than one epoch has a last row.
        self.series.push(sim_time, *view);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma_types::{NodeId, Pid, ProcId};

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn null_recorder_is_disabled() {
        assert!(!NullRecorder::ENABLED);
        assert!(RunRecorder::ENABLED);
        let null = NullRecorder;
        assert!(!null.epoch_due(Ns(1_000_000_000)));
    }

    #[test]
    fn run_recorder_accumulates_streams() {
        let mut r = RunRecorder::default();
        r.on_context_switch(0, Ns(0), Some(1));
        r.on_shootdown(
            Ns(5),
            &BatchStats {
                total_latency: Ns(100),
                tlbs_flushed: 8,
                flush_ops: 2,
            },
        );
        let op = PageOp::migrate(VirtPage(3), NodeId(1));
        r.on_page_op(0, Ns(10), &op, &OpOutcome::Done { latency: Ns(400) });
        r.on_page_op(0, Ns(20), &op, &OpOutcome::Skipped);
        r.on_page_op(
            0,
            Ns(30),
            &op,
            &OpOutcome::Failed {
                reason: ccnuma_kernel::OpFailReason::CopyAborted,
            },
        );
        r.on_fault(&FaultEvent {
            now: Ns(30),
            kind: FaultKind::CopyAbort { page: VirtPage(3) },
        });
        r.on_run_end(Ns(1000), &SampleView::default());
        assert_eq!(r.metrics().counter("context_switches"), 1);
        assert_eq!(r.metrics().counter("pager_ops_done"), 1);
        assert_eq!(r.metrics().counter("pager_ops_skipped"), 1);
        assert_eq!(r.metrics().counter("pager_ops_failed"), 1);
        assert_eq!(r.metrics().counter("faults_injected"), 1);
        assert_eq!(r.metrics().counter("fault_copy_abort"), 1);
        assert_eq!(r.audit.len(), 1, "fault lands in the audit log");
        assert_eq!(r.op_events()[2].outcome, "failed");
        assert_eq!(
            r.metrics().histogram("pager_migrate_ns").unwrap().count(),
            1
        );
        assert_eq!(r.op_events().len(), 3);
        assert_eq!(r.shootdown_events().len(), 1);
        assert_eq!(r.sim_time(), Ns(1000));
        assert_eq!(r.series.len(), 1, "run end closes the series");
    }

    /// The fixed-slot miss and refill series export exactly as the
    /// name-keyed registry records them, and an unrecorded series stays
    /// absent.
    #[test]
    fn hot_series_fold_into_the_registry_by_name() {
        let mut r = RunRecorder::default();
        let mut expect = Metrics::new();
        let rec = MissRecord::user_data_read(Ns(1), ProcId(0), Pid(0), VirtPage(1));
        for (latency, remote) in [(300, false), (1200, true), (310, false)] {
            r.on_miss(&rec, Ns(latency), remote);
            expect.observe("miss_latency_ns", latency);
            if remote {
                expect.inc("misses_remote");
                expect.observe("miss_latency_remote_ns", latency);
            } else {
                expect.inc("misses_local");
                expect.observe("miss_latency_local_ns", latency);
            }
        }
        r.on_context_switch(0, Ns(0), None);
        expect.inc("context_switches");
        assert_eq!(r.metrics().to_json(), expect.to_json());
        assert!(r.metrics().histogram("tlb_refill_ns").is_none());

        r.on_tlb_fill(&rec, Ns(250));
        expect.inc("tlb_refills");
        expect.observe("tlb_refill_ns", 250);
        assert_eq!(r.metrics().to_json(), expect.to_json());
    }
}
