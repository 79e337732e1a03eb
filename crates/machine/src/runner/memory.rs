//! The memory-access path: one reference through TLB, L2, coherence and
//! the NUMA memory system, charging every nanosecond to the breakdown.
//!
//! There is one per-reference step, [`step`], generic over the [`Sink`]
//! that takes its effects on shared state ([`Ev`]). The windowed bulk
//! passes a buffering sink (`window::Lane`), which stamps each effect as
//! an event for the canonical merge. The exact serial tail passes
//! [`Immediate`], which applies each effect to the canonical state at
//! once through [`Sim::apply`], the function the merge's replay ends in.

use super::Sim;
use crate::{L2Cache, Tlb};
use ccnuma_faults::FaultInjector;
use ccnuma_obs::{Phase, Profiler, Recorder};
use ccnuma_stats::RunBreakdown;
use ccnuma_trace::{MissRecord, MissSource};
use ccnuma_types::{
    AccessKind, MemAccess, Mode, NodeId, Ns, Pid, ProcId, SimError, Topology, VirtPage,
};
use ccnuma_workloads::ProcessStream;
use rand::rngs::SmallRng;

/// TLB refill cost (software-reloaded TLB handler, kernel time).
pub(super) const TLB_REFILL: Ns = Ns(250);

/// One simulated CPU: its clock, its private TLB and L2, and what it is
/// scheduled to run.
pub(super) struct Core {
    pub cpu: u16,
    /// The node this CPU sits on.
    pub node: NodeId,
    pub clock: Ns,
    pub pid: Option<Pid>,
    /// Quantum index of this CPU's last scheduler query.
    pub quantum: u64,
    pub tlb: Tlb,
    pub l2: L2Cache,
    /// The scheduled process's stream and RNG, held here while windows
    /// run (returned on a context switch and before the serial tail).
    pub slot: Option<(ProcessStream, SmallRng)>,
}

impl Core {
    /// The miss record for `access` at this CPU's clock.
    fn record(&self, pid: Pid, access: &MemAccess, source: MissSource) -> MissRecord {
        MissRecord {
            time: self.clock,
            proc: ProcId(self.cpu),
            pid,
            page: access.page,
            kind: access.kind,
            mode: access.mode,
            class: access.class,
            source,
        }
    }
}

/// What the step charges: the time breakdown and the sums behind the
/// average local miss latency.
#[derive(Default)]
pub(super) struct Tally {
    pub breakdown: RunBreakdown,
    pub local_lat_sum: Ns,
    pub local_lat_n: u64,
}

/// Run-constant inputs of the step.
#[derive(Clone, Copy)]
pub(super) struct StepEnv {
    pub compute: Ns,
    pub l2_hit: Ns,
    /// Round-robin placement as a pure function of the page number
    /// (`page % nodes`), so any lane can compute a home without shared
    /// placement state.
    pub rr_nodes: Option<u16>,
    /// Whether a TLB refill reaches the sink: only when applying it can
    /// do something (a recorder is on, a trace is being captured, or the
    /// policy counts TLB misses). Otherwise it would be a no-op.
    pub tlb_events: bool,
}

/// One effect of a step on state shared between CPUs.
#[derive(Clone, Copy)]
pub(super) enum Ev {
    /// A first touch of an unmapped page: allocate it (with the §7.2.3
    /// reclaim-then-retry pressure response).
    FirstTouch {
        /// Touching process.
        pid: Pid,
        /// The touched page.
        page: VirtPage,
        /// Home node the step decided (first-touch or round-robin).
        home: NodeId,
    },
    /// A TLB refill: recorded, traced, and fed to the policy engine.
    /// Emitted only when one of those consumers is on.
    Tlb {
        /// The miss record (timestamped with the CPU clock).
        rec: MissRecord,
    },
    /// A secondary-cache miss: recorded, traced and policy-driven.
    Miss {
        /// The miss record.
        rec: MissRecord,
        /// Miss latency charged so far (a lane's is uncontended: the
        /// merge queues the miss at the directory and adds the wait).
        latency: Ns,
        /// Home node of the page (where the directory request lands).
        home: NodeId,
        /// Whether the miss went off-node.
        remote: bool,
    },
    /// A write hit the coherence directory: invalidate other sharers.
    CohWrite {
        /// Written page.
        page: VirtPage,
        /// Written line within the page.
        line: u16,
    },
    /// A clean fill: record the sharer in the coherence directory.
    CohFill {
        /// Filled page.
        page: VirtPage,
        /// Filled line.
        line: u16,
    },
}

/// Where one CPU's step reads its state and sends its effects.
pub(super) trait Sink {
    type Error;
    /// The stepping CPU.
    fn core(&mut self) -> &mut Core;
    fn tally(&mut self) -> &mut Tally;
    fn topo(&self) -> &Topology;
    /// The node `page` is mapped on for `pid`, as far as this sink
    /// knows; `None` before its first touch.
    fn home(&self, pid: Pid, page: VirtPage) -> Option<NodeId>;
    /// The directory-controller wait charged now to a miss issued at
    /// `issue` (the buffering sink defers it to the merge).
    fn contention(&mut self, issue: Ns, home: NodeId, remote: bool) -> Ns;
    /// An effect, at the stepping CPU's clock.
    fn emit(&mut self, ev: Ev) -> Result<(), Self::Error>;
}

/// Simulates one memory reference of `pid` on the sink's CPU.
#[inline]
pub(super) fn step<S: Sink>(
    s: &mut S,
    env: StepEnv,
    pid: Pid,
    access: MemAccess,
) -> Result<(), S::Error> {
    let page = access.page;
    // Compute time between references.
    s.tally().breakdown.add_busy(access.mode, env.compute);
    s.core().clock += env.compute;

    // TLB. A hit proves the page is already mapped — entries are only
    // installed by a prior access (which first-touched the page), the
    // TLB is flushed on every context switch, and mappings are never
    // torn down, only repointed — so the first-touch probe is needed
    // only on a miss.
    if !s.core().tlb.access(page) {
        if s.home(pid, page).is_none() {
            let home = match env.rr_nodes {
                Some(n) => NodeId((page.0 % u64::from(n)) as u16),
                None => s.core().node,
            };
            s.emit(Ev::FirstTouch { pid, page, home })?;
        }
        s.tally().breakdown.add_busy(Mode::Kernel, TLB_REFILL);
        s.core().clock += TLB_REFILL;
        if env.tlb_events {
            let rec = s.core().record(pid, &access, MissSource::Tlb);
            s.emit(Ev::Tlb { rec })?;
        }
    }

    // L2 + coherence.
    let line = access.line;
    let hit = s.core().l2.access(page, line);
    if access.kind == AccessKind::Write {
        s.emit(Ev::CohWrite { page, line })?;
    } else if !hit {
        s.emit(Ev::CohFill { page, line })?;
    }
    if hit {
        s.tally()
            .breakdown
            .add_hit_stall(access.mode, access.class, env.l2_hit);
        s.core().clock += env.l2_hit;
        return Ok(());
    }

    // Secondary-cache miss: go to memory.
    let node = s.core().node;
    let home = s.home(pid, page).expect("page mapped by a prior touch");
    let tier = s.topo().tier(node, home);
    let remote = tier.is_off_node();
    let issue = s.core().clock;
    let latency = s.topo().latency(node, home, access.kind) + s.contention(issue, home, remote);
    let tally = s.tally();
    tally
        .breakdown
        .add_stall_tier(access.mode, access.class, tier, latency);
    if !remote {
        tally.local_lat_sum += latency;
        tally.local_lat_n += 1;
    }
    s.core().clock += latency;
    let rec = s.core().record(pid, &access, MissSource::Cache);
    s.emit(Ev::Miss {
        rec,
        latency,
        home,
        remote,
    })
}

/// The exact serial sink: every effect lands on the canonical state as
/// the step makes it. So a miss queues at the directory at its issue
/// clock and pays the wait before its record is stamped, and the pager
/// charges and shoots down the stepping CPU's own clock and TLB.
pub(super) struct Immediate<'s, 'a, R: Recorder, F: FaultInjector, P: Profiler> {
    pub sim: &'s mut Sim<'a, R, F, P>,
    pub cpu: usize,
}

impl<R: Recorder, F: FaultInjector, P: Profiler> Sink for Immediate<'_, '_, R, F, P> {
    type Error = SimError;

    fn core(&mut self) -> &mut Core {
        &mut self.sim.cores[self.cpu]
    }

    fn tally(&mut self) -> &mut Tally {
        &mut self.sim.tally
    }

    fn topo(&self) -> &Topology {
        &self.sim.topo
    }

    fn home(&self, pid: Pid, page: VirtPage) -> Option<NodeId> {
        self.sim.pager.mapping_node(pid, page)
    }

    fn contention(&mut self, issue: Ns, home: NodeId, remote: bool) -> Ns {
        self.sim.directory.request(issue, home, remote)
    }

    fn emit(&mut self, ev: Ev) -> Result<(), SimError> {
        self.sim.apply(self.cpu, ev)
    }
}

impl<R: Recorder, F: FaultInjector, P: Profiler> Sim<'_, R, F, P> {
    /// Applies one effect of `cpu`'s step to the canonical state: at
    /// once from the immediate sink, in canonical order from the merge.
    pub(super) fn apply(&mut self, cpu: usize, ev: Ev) -> Result<(), SimError> {
        let rec = match ev {
            Ev::FirstTouch { pid, page, home } => {
                // An earlier event may have mapped the page already;
                // first writer wins. If the whole machine is out of
                // frames, reclaim replicas everywhere, then retry once.
                if self.pager.mapping_node(pid, page).is_some()
                    || self.pager.first_touch(pid, page, home).is_some()
                {
                    return Ok(());
                }
                for n in 0..self.spec.config.nodes {
                    let freed = self.pager.reclaim_replicas_on(NodeId(n), 8);
                    if F::ENABLED {
                        self.fault_stats.reclaimed_frames += u64::from(freed);
                    }
                }
                return match self.pager.first_touch(pid, page, home) {
                    Some(_) => Ok(()),
                    None => Err(SimError::OutOfMemory { page, node: home }),
                };
            }
            Ev::CohWrite { page, line } => {
                let span = self.prof.enter(Phase::Coherence);
                // The victim set lands in the reusable `ProcSet` scratch
                // (usually empty: no other holder); decoding it costs
                // one trailing_zeros per actual victim and nothing on
                // the heap.
                self.coherence
                    .write(ProcId(cpu as u16), page, line, &mut self.victims);
                for victim in self.victims.iter() {
                    self.cores[victim.index()].l2.invalidate(page, line);
                }
                self.prof.exit(Phase::Coherence, span);
                return Ok(());
            }
            Ev::CohFill { page, line } => {
                self.coherence.record_fill(ProcId(cpu as u16), page, line);
                return Ok(());
            }
            Ev::Tlb { rec } => {
                self.obs.on_tlb_fill(&rec, TLB_REFILL);
                rec
            }
            Ev::Miss {
                rec,
                latency,
                remote,
                ..
            } => {
                self.obs.on_miss(&rec, latency, remote);
                rec
            }
        };
        if let Some(t) = &mut self.trace {
            t.push(rec);
        }
        self.drive_policy(&rec)
    }
}
