//! Run accounting: epoch samples and the final [`RunReport`] assembled
//! from the simulation state.

use super::Sim;
use crate::RunReport;
use ccnuma_faults::FaultInjector;
use ccnuma_obs::{Profiler, Recorder, SampleView};
use ccnuma_trace::TraceBuilder;
use ccnuma_types::Ns;

impl<R: Recorder, F: FaultInjector, P: Profiler> Sim<'_, R, F, P> {
    /// Snapshots the cumulative simulator state at sim time `now` for the
    /// epoch sampler. Only called on instrumented runs (`R::ENABLED`).
    pub(super) fn sample_view(&self, now: Ns) -> SampleView {
        let stats = self.engine.as_ref().map(|e| *e.stats()).unwrap_or_default();
        SampleView {
            local_misses: self.tally.breakdown.local_misses(),
            remote_misses: self.tally.breakdown.remote_misses(),
            migrations: stats.migrations,
            replications: stats.replications,
            collapses: stats.collapses,
            remaps: stats.remaps,
            replica_frames: self.pager.hash().replica_frames(),
            frames_used: self.pager.frames().used_total(),
            dir_occupancy_pct: self.directory.max_occupancy(now),
            policy_overhead: self.tally.breakdown.policy_overhead(),
        }
    }

    pub(super) fn finish(mut self) -> RunReport {
        let sim_time = self.cores.iter().map(|c| c.clock).fold(Ns::ZERO, Ns::max);
        let cpu_time = self.cores.iter().map(|c| c.clock).sum::<Ns>();
        if F::ENABLED {
            self.forward_fault_events();
        }
        if R::ENABLED {
            let view = self.sample_view(sim_time);
            self.obs.on_run_end(sim_time, &view);
        }
        let avg_local = if self.tally.local_lat_n == 0 {
            Ns::ZERO
        } else {
            self.tally.local_lat_sum / self.tally.local_lat_n
        };
        let avg_tlbs = if self.flush_batches == 0 {
            0.0
        } else {
            self.tlbs_flushed_sum as f64 / self.flush_batches as f64
        };
        RunReport {
            workload: self.spec.name.clone(),
            policy_label: self.opts.policy.label(),
            breakdown: self.tally.breakdown,
            policy_stats: self.engine.as_ref().map(|e| *e.stats()),
            cost_book: self.pager.book().clone(),
            contention: *self.directory.stats(),
            max_occupancy: self.directory.max_occupancy(sim_time),
            sim_time,
            cpu_time,
            trace: self.trace.take().map(TraceBuilder::finish),
            distinct_pages: self.pager.hash().len() as u64,
            replica_frames_peak: self.pager.hash().replica_frames_peak(),
            replication_space_overhead_pct: self.pager.replication_space_overhead_pct(),
            frames_used: self.pager.frames().used_total(),
            lock_wait: self.pager.locks().total_wait(),
            lock_contention_rate: self.pager.locks().contention_rate(),
            avg_local_miss_latency: avg_local,
            avg_tlbs_flushed: avg_tlbs,
            fault_stats: self.faults.stats().merged(&self.fault_stats),
        }
    }
}
