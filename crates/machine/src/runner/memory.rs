//! The memory-access path: one reference through TLB, L2, coherence and
//! the NUMA memory system, charging every nanosecond to the breakdown.

use super::Sim;
use ccnuma_faults::FaultInjector;
use ccnuma_obs::{Phase, Profiler, Recorder};
use ccnuma_trace::MissSource;
use ccnuma_types::{AccessKind, MemAccess, NodeId, Ns, Pid, ProcId, SimError};

/// TLB refill cost (software-reloaded TLB handler, kernel time).
pub(super) const TLB_REFILL: Ns = Ns(250);

impl<R: Recorder, F: FaultInjector, P: Profiler> Sim<'_, R, F, P> {
    pub(super) fn node_of(&self, cpu: usize) -> NodeId {
        self.proc_nodes[cpu]
    }

    /// Simulates one memory reference on `cpu`.
    pub(super) fn step(&mut self, cpu: usize, pid: Pid, access: MemAccess) -> Result<(), SimError> {
        let compute = self.spec.config.compute_ns_per_ref;
        let l2_hit = self.spec.config.l2_hit;
        let my_node = self.node_of(cpu);
        let proc = ProcId(cpu as u16);

        // Compute time between references.
        self.breakdown.add_busy(access.mode, compute);
        self.clocks[cpu] += compute;

        // TLB. A hit proves the page is already mapped — entries are
        // only installed by a prior access (which first-touched the
        // page), the TLB is flushed on every context switch, and
        // mappings are never torn down, only repointed — so the
        // first-touch probe is needed only on a miss.
        if !self.tlb[cpu].access(access.page) {
            // First touch: allocate/map the page. If the whole machine
            // is out of frames, reclaim replicated pages (the §7.2.3
            // pressure response) before giving up.
            if self.pager.mapping_node(pid, access.page).is_none() {
                let home = match self.rr_nodes {
                    Some(n) => NodeId((access.page.0 % u64::from(n)) as u16),
                    None => my_node,
                };
                if self.pager.first_touch(pid, access.page, home).is_none() {
                    for n in 0..self.spec.config.nodes {
                        let freed = self.pager.reclaim_replicas_on(NodeId(n), 8);
                        if F::ENABLED {
                            self.fault_stats.reclaimed_frames += u64::from(freed);
                        }
                    }
                    if self.pager.first_touch(pid, access.page, home).is_none() {
                        // Out of memory even after shedding every
                        // replica: surface the typed error instead of
                        // panicking.
                        return Err(SimError::OutOfMemory {
                            page: access.page,
                            node: home,
                        });
                    }
                }
            }
            self.breakdown
                .add_busy(ccnuma_types::Mode::Kernel, TLB_REFILL);
            self.clocks[cpu] += TLB_REFILL;
            let rec = self.record_of(cpu, pid, &access, MissSource::Tlb);
            self.obs.on_tlb_fill(&rec, TLB_REFILL);
            if let Some(t) = &mut self.trace {
                t.push(rec);
            }
            self.drive_policy(cpu, pid, my_node, proc, &rec)?;
        }

        // L2 + coherence.
        let hit = self.l2[cpu].access(access.page, access.line);
        if access.kind == AccessKind::Write {
            let span = self.prof.enter(Phase::Coherence);
            // The victim set lands in the reusable `ProcSet` scratch
            // (usually empty: no other holder); decoding it costs one
            // trailing_zeros per actual victim and nothing on the heap.
            self.coherence
                .write(proc, access.page, access.line, &mut self.victims);
            for victim in self.victims.iter() {
                self.l2[victim.index()].invalidate(access.page, access.line);
            }
            self.prof.exit(Phase::Coherence, span);
        } else if !hit {
            self.coherence.record_fill(proc, access.page, access.line);
        }

        if hit {
            self.breakdown
                .add_hit_stall(access.mode, access.class, l2_hit);
            self.clocks[cpu] += l2_hit;
            return Ok(());
        }

        // Secondary-cache miss: go to memory.
        let mapped = self
            .pager
            .mapping_node(pid, access.page)
            .expect("mapped above");
        let tier = self.topo.tier(my_node, mapped);
        let remote = tier.is_off_node();
        let base = self.topo.latency(my_node, mapped, access.kind);
        let wait = self.directory.request(self.clocks[cpu], mapped, remote);
        let latency = base + wait;
        self.breakdown
            .add_stall_tier(access.mode, access.class, tier, latency);
        self.clocks[cpu] += latency;
        if !remote {
            self.local_lat_sum += latency;
            self.local_lat_n += 1;
        }

        let rec = self.record_of(cpu, pid, &access, MissSource::Cache);
        self.obs.on_miss(&rec, latency, remote);
        if let Some(t) = &mut self.trace {
            t.push(rec);
        }
        self.drive_policy(cpu, pid, my_node, proc, &rec)
    }
}
