//! Policy-interrupt handling: feeding miss events to the engine, batching
//! page operations, running the pager, and TLB shootdown.

use super::faults::{MAX_INTR_LOSSES, MAX_OP_RETRIES, PRESSURE_THRESHOLD, RETRY_BACKOFF};
use super::Sim;
use ccnuma_core::{ObservedMiss, PolicyAction};
use ccnuma_faults::{FaultEvent, FaultInjector, FaultKind};
use ccnuma_kernel::{OpOutcome, PageOp};
use ccnuma_obs::{AuditAction, Decision, Phase, Profiler, Recorder};
use ccnuma_trace::MissRecord;
use ccnuma_types::{Mode, Ns, SimError, VirtPage};

impl<R: Recorder, F: FaultInjector, P: Profiler> Sim<'_, R, F, P> {
    /// Feeds one miss event to the policy engine and acts on the decision.
    pub(super) fn drive_policy(&mut self, rec: &MissRecord) -> Result<(), SimError> {
        let Some(metric) = &mut self.metric else {
            return Ok(());
        };
        if !metric.admits(rec) {
            return Ok(());
        }
        let (proc, pid) = (rec.proc, rec.pid);
        let cpu = proc.index();
        let my_node = self.cores[cpu].node;
        let engine = self.engine.as_mut().expect("metric implies engine");
        // Workload pages are dense from 0, so the page number is the
        // page's counter slot.
        let slot = rec.page.index();
        let loc = self.pager.location_for(pid, rec.page, my_node);
        let pressure = self.pager.pressure(my_node);
        // The event's own timestamp, not the CPU clock: identical on
        // the serial path (records carry the CPU clock), and the only
        // deterministic choice when a merge replays lane events after
        // the lane clocks have already advanced past them.
        let now = rec.time;
        if F::ENABLED {
            // Miss-counter saturation: a page pinned at the cap stops
            // counting, so the policy starves on it (the run still
            // completes; the fault shows up as capped-counter events).
            if let Some(cap) = self.faults.counter_cap() {
                let count = engine.counters(slot).map_or(0, |c| c.miss_count(proc));
                if count >= cap {
                    self.faults.note(FaultEvent {
                        now,
                        kind: FaultKind::CounterCapped { page: rec.page },
                    });
                    return Ok(());
                }
            }
        }
        let engine = self.engine.as_mut().expect("metric implies engine");
        let miss = ObservedMiss {
            now,
            proc,
            node: my_node,
            page: rec.page,
            is_write: rec.kind.is_write(),
        };
        if R::ENABLED {
            // Counter reset-interval boundary, observed at the first
            // counted miss of the new interval (matching when the engine
            // itself rolls the page's epoch).
            let epoch = engine.params().epoch_of(now);
            if epoch > self.obs_epoch {
                self.obs_epoch = epoch;
                self.obs.on_interval_reset(now, epoch);
            }
        }
        let action = engine.observe(slot, miss, &loc, pressure);
        if R::ENABLED {
            if let Some(audit) = AuditAction::of(&action) {
                let counters = engine.counters(slot);
                self.obs.on_decision(&Decision {
                    now,
                    page: rec.page,
                    proc,
                    node: my_node,
                    is_write: rec.kind.is_write(),
                    mapped_node: loc.mapped_node(),
                    pressure,
                    action: audit,
                    counter: counters.map_or(0, |c| c.miss_count(proc)),
                    writes: counters.map_or(0, |c| c.writes()),
                    migrates: counters.map_or(0, |c| c.migrates()),
                });
            }
        }
        match action {
            PolicyAction::Nothing(_) => {}
            PolicyAction::Collapse => {
                // The pfault path runs immediately, not batched.
                self.service_now(cpu, &[(PageOp::collapse(rec.page), action)])?;
            }
            PolicyAction::Remap { to } => {
                self.service_now(cpu, &[(PageOp::remap(rec.page, pid, to), action)])?;
            }
            PolicyAction::Migrate { to } => {
                if F::ENABLED && self.throttle_move(now) {
                    // Remap-only degradation: the decided move never
                    // reaches the pager, so net it out of the stats.
                    self.note_move_dropped(now, rec.page, &action);
                    return Ok(());
                }
                self.pending.push((PageOp::migrate(rec.page, to), action));
                if self.pending.len() >= self.opts.batch_pages {
                    self.flush_pending(cpu)?;
                }
            }
            PolicyAction::Replicate { at } => {
                if F::ENABLED && self.throttle_move(now) {
                    self.note_move_dropped(now, rec.page, &action);
                    return Ok(());
                }
                self.pending.push((PageOp::replicate(rec.page, at), action));
                if self.pending.len() >= self.opts.batch_pages {
                    self.flush_pending(cpu)?;
                }
            }
        }
        Ok(())
    }

    /// Nets a decided-but-never-executed page move out of the policy
    /// statistics (same reclassification as the kernel's "no page"
    /// failure, Table 4) and mirrors it into the audit log so the
    /// audit's net totals keep matching `PolicyStats` under faults.
    fn note_move_dropped(&mut self, now: Ns, page: VirtPage, action: &PolicyAction) {
        if let Some(e) = &mut self.engine {
            e.note_no_page(action);
            self.obs.on_no_page(now, page, action);
        }
    }

    fn flush_pending(&mut self, cpu: usize) -> Result<(), SimError> {
        if F::ENABLED && !self.pending.is_empty() {
            // Pager-interrupt loss: the batch stays queued and is
            // retried on the next flush attempt, but only up to the
            // bound — injected loss may delay a batch, never starve it.
            if self.consec_intr_lost < MAX_INTR_LOSSES
                && self.faults.interrupt_lost(self.cores[cpu].clock)
            {
                self.consec_intr_lost += 1;
                return Ok(());
            }
            self.consec_intr_lost = 0;
        }
        // Drain into the scratch buffer so both vectors keep their
        // capacity: after warm-up no flush allocates.
        std::mem::swap(&mut self.pending, &mut self.pending_scratch);
        let batch = std::mem::take(&mut self.pending_scratch);
        let result = self.service_now(cpu, &batch);
        self.pending_scratch = batch;
        self.pending_scratch.clear();
        result
    }

    /// Runs a pager batch on `cpu`, charging its kernel overhead there.
    fn service_now(
        &mut self,
        cpu: usize,
        batch: &[(PageOp, PolicyAction)],
    ) -> Result<(), SimError> {
        let span = self.prof.enter(Phase::Pager);
        let result = self.service_now_inner(cpu, batch);
        self.prof.exit(Phase::Pager, span);
        result
    }

    fn service_now_inner(
        &mut self,
        cpu: usize,
        batch: &[(PageOp, PolicyAction)],
    ) -> Result<(), SimError> {
        self.ops_scratch.clear();
        self.ops_scratch.extend(batch.iter().map(|(op, _)| *op));
        let mut outcomes = std::mem::take(&mut self.outcomes_scratch);
        self.pager.service_batch_into(
            self.cores[cpu].clock,
            &self.ops_scratch,
            &mut self.faults,
            &mut outcomes,
        );
        let stats = self.pager.last_batch();
        if stats.flush_ops > 0 {
            self.tlbs_flushed_sum += stats.tlbs_flushed as u64;
            self.flush_batches += 1;
            self.obs.on_shootdown(self.cores[cpu].clock, &stats);
        }
        for ((op, action), outcome) in batch.iter().zip(outcomes.iter().copied()) {
            let start = self.cores[cpu].clock;
            match outcome {
                OpOutcome::Done { latency } => {
                    if F::ENABLED {
                        self.consec_failures = 0;
                    }
                    self.charge_overhead(cpu, op, latency);
                    self.shootdown_all(op.page());
                    self.obs.on_page_op(cpu, start, op, &outcome);
                }
                OpOutcome::NoPage => {
                    // Memory-pressure response: reclaim replicas on the
                    // target node, then retry once.
                    let target = match *op {
                        PageOp::Migrate { to, .. } => to,
                        PageOp::Replicate { at, .. } => at,
                        _ => unreachable!("only page moves can fail allocation"),
                    };
                    let freed = self.pager.reclaim_replicas_on(target, 2);
                    if F::ENABLED {
                        self.fault_stats.reclaimed_frames += u64::from(freed);
                    }
                    let retried = if freed > 0 {
                        self.pager.service_batch_with(
                            self.cores[cpu].clock,
                            &[*op],
                            &mut self.faults,
                        )[0]
                    } else {
                        OpOutcome::NoPage
                    };
                    if let OpOutcome::Done { latency } = retried {
                        if F::ENABLED {
                            self.consec_failures = 0;
                        }
                        self.charge_overhead(cpu, op, latency);
                        self.shootdown_all(op.page());
                    } else {
                        if let Some(e) = &mut self.engine {
                            e.note_no_page(action);
                            self.obs.on_no_page(start, op.page(), action);
                        }
                        if F::ENABLED {
                            self.note_pressure_failure(cpu);
                        }
                    }
                    self.obs.on_page_op(cpu, start, op, &retried);
                }
                OpOutcome::Skipped => {
                    self.obs.on_page_op(cpu, start, op, &outcome);
                }
                OpOutcome::Failed { reason } => {
                    // Transient failure: bounded retry with backoff, then
                    // graceful degradation instead of a panic.
                    let mut last = outcome;
                    if reason.retryable() {
                        for _ in 0..MAX_OP_RETRIES {
                            self.fault_stats.op_retries += 1;
                            self.tally.breakdown.add_busy(Mode::Kernel, RETRY_BACKOFF);
                            self.cores[cpu].clock += RETRY_BACKOFF;
                            last = self.pager.service_batch_with(
                                self.cores[cpu].clock,
                                &[*op],
                                &mut self.faults,
                            )[0];
                            if matches!(last, OpOutcome::Done { .. }) {
                                break;
                            }
                        }
                    }
                    if let OpOutcome::Done { latency } = last {
                        self.fault_stats.retry_successes += 1;
                        self.consec_failures = 0;
                        self.charge_overhead(cpu, op, latency);
                        self.shootdown_all(op.page());
                    } else {
                        self.fault_stats.failed_ops += 1;
                        // A dropped move never happened: net it out of
                        // the policy statistics like a "no page" event.
                        if matches!(
                            action,
                            PolicyAction::Migrate { .. } | PolicyAction::Replicate { .. }
                        ) {
                            if let Some(e) = &mut self.engine {
                                e.note_no_page(action);
                                self.obs.on_no_page(start, op.page(), action);
                            }
                        }
                        self.note_pressure_failure(cpu);
                    }
                    self.obs.on_page_op(cpu, start, op, &last);
                }
            }
        }
        self.outcomes_scratch = outcomes;
        if F::ENABLED {
            self.forward_fault_events();
        }
        self.check_invariants()
    }

    /// Counts one failed page operation toward sustained pressure and
    /// activates remap-only mode at the threshold.
    fn note_pressure_failure(&mut self, cpu: usize) {
        self.consec_failures += 1;
        if self.consec_failures >= PRESSURE_THRESHOLD {
            let now = self.cores[cpu].clock;
            self.enter_remap_only(now);
        }
    }

    fn charge_overhead(&mut self, cpu: usize, op: &PageOp, latency: Ns) {
        match op {
            PageOp::Migrate { .. } => self.tally.breakdown.add_mig_overhead(latency),
            _ => self.tally.breakdown.add_rep_overhead(latency),
        }
        self.cores[cpu].clock += latency;
    }

    /// Removes `page` from every TLB (the mappings changed).
    fn shootdown_all(&mut self, page: VirtPage) {
        for core in &mut self.cores {
            core.tlb.shootdown(page);
        }
    }
}
