//! The main simulation loop: windows for the bulk of a run, then the
//! exact serial tail in CPU clock order; scheduling points (quantum
//! boundaries, context switches, epoch samples) for both; idle
//! accounting and the adaptive-trigger interval hook.

use super::memory::{step, Immediate};
use super::Sim;
use crate::RunReport;
use ccnuma_core::IntervalFeedback;
use ccnuma_faults::FaultInjector;
use ccnuma_obs::{Phase, Profiler, Recorder};
use ccnuma_types::{Ns, SimError};
use std::ops::Range;

impl<R: Recorder, F: FaultInjector, P: Profiler> Sim<'_, R, F, P> {
    /// Runs the workload to completion and reports. Fails with a typed
    /// [`SimError`] instead of panicking when the machine cannot
    /// continue (exhaustion) or a kernel invariant breaks.
    ///
    /// With `windowed` unset no window opens: the whole run is the
    /// exact serial tail, the oracle the windowing error is measured
    /// against.
    pub(super) fn run(mut self, windowed: bool) -> Result<RunReport, SimError> {
        let run_span = self.prof.enter(Phase::Run);
        let mut refs_left = self.spec.total_refs;
        let shards = self.opts.shards.effective(self.cores.len());

        // Windowed bulk phase: lanes advance one bounded time window at
        // a time (in parallel when sharded), merging cross-CPU events
        // in canonical order between windows. The bound guarantees one
        // window can never consume the references reserved for the
        // exact serial tail below.
        let tail_bound = if windowed {
            self.window_tail_bound()
        } else {
            u64::MAX
        };
        while refs_left > tail_bound {
            refs_left -= self.run_window(shards)?;
        }
        self.end_windows()?;

        // Exact serial tail: the CPU with the smallest clock steps next
        // (deterministic tie-break by index), straight into the
        // canonical state.
        let quantum = self.spec.scheduler.quantum();
        while refs_left > 0 {
            let (cpu, now) = self
                .cores
                .iter()
                .map(|c| c.clock)
                .enumerate()
                .min_by_key(|&(i, clock)| (clock, i))
                .expect("at least one cpu");
            self.sched_point(now, cpu..cpu + 1);
            let Some(pid) = self.cores[cpu].pid else {
                // Idle until the next quantum boundary.
                let next = Ns((now.0 / quantum.0 + 1) * quantum.0);
                self.tally.breakdown.add_idle(next - now);
                self.cores[cpu].clock = next;
                continue;
            };

            let access = {
                let (stream, rng) = self.proc_streams[pid.index()]
                    .as_mut()
                    .expect("scheduled pid has a stream");
                stream.next_ref(rng)
            };
            refs_left -= 1;
            // The per-reference hot path: stride-sampled (see
            // `Phase::stride`) so the NullProfiler-free overhead budget
            // holds even here.
            let span = self.prof.enter(Phase::Memory);
            let env = self.env;
            let stepped = step(
                &mut Immediate {
                    sim: &mut self,
                    cpu,
                },
                env,
                pid,
                access,
            );
            self.prof.exit(Phase::Memory, span);
            stepped?;
        }
        // `finish` consumes `self`, so the run span closes here; the
        // cheap report assembly after this point is uncounted.
        self.prof.exit(Phase::Run, run_span);
        Ok(self.finish())
    }

    /// A scheduling point at sim time `now`, when every CPU has reached
    /// it: the epoch sample if one is due, then, on the first visit to a
    /// new quantum, the quantum-boundary work and a scheduler re-query
    /// for `cpus` (all of them between windows, one in the serial tail;
    /// either way they share their last quantum).
    pub(super) fn sched_point(&mut self, now: Ns, cpus: Range<usize>) {
        // The `R::ENABLED` guard keeps the (non-free) sample view off
        // the uninstrumented path entirely.
        if R::ENABLED && self.obs.epoch_due(now) {
            let span = self.prof.enter(Phase::Epoch);
            let view = self.sample_view(now);
            self.obs.on_epoch(now, &view);
            self.prof.exit(Phase::Epoch, span);
        }
        let q = now.0 / self.spec.scheduler.quantum().0;
        if q == self.cores[cpus.start].quantum {
            return;
        }
        let span = self.prof.enter(Phase::Sched);
        if F::ENABLED {
            self.drive_storms(now);
        }
        self.adaptive_tick(now);
        let map = self.spec.scheduler.assignment(now);
        for cpu in cpus {
            let pid = map.get(cpu).copied().flatten();
            let core = &mut self.cores[cpu];
            core.quantum = q;
            if pid == core.pid {
                continue;
            }
            // Context switch: no ASIDs, flush the TLB.
            core.tlb.flush();
            if let (Some(old), Some(slot)) = (core.pid, core.slot.take()) {
                self.proc_streams[old.index()] = Some(slot);
            }
            core.pid = pid;
            if let Some(p) = pid {
                self.pager.set_pid_node(p, core.node);
            }
            self.obs
                .on_context_switch(cpu, now, pid.map(|p| p.0 as u64));
        }
        self.prof.exit(Phase::Sched, span);
    }

    /// At reset-interval boundaries, feed the adaptive controller the
    /// interval's overhead/stall deltas and install its new parameters.
    pub(super) fn adaptive_tick(&mut self, now: Ns) {
        let (Some(controller), Some(engine)) = (&mut self.adaptive, &mut self.engine) else {
            return;
        };
        let epoch = engine.params().epoch_of(now);
        if epoch <= self.adaptive_epoch {
            return;
        }
        self.adaptive_epoch = epoch;
        let b = &self.tally.breakdown;
        let cur = (b.policy_overhead(), b.remote_stall(), b.local_stall());
        let fb = IntervalFeedback {
            move_overhead: cur.0 - self.adaptive_snap.0,
            remote_stall: cur.1 - self.adaptive_snap.1,
            local_stall: cur.2 - self.adaptive_snap.2,
        };
        self.adaptive_snap = cur;
        engine.set_params(controller.end_interval(fb));
    }
}
