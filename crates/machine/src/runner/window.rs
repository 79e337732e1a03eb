//! Windowed, sharded execution: the bulk of a run advances in bounded
//! time windows where every simulated CPU is an independent *lane*,
//! and cross-CPU state changes are deferred as events that the
//! coordinating thread replays in one canonical order.
//!
//! # Determinism contract
//!
//! A lane's window is a pure function of (lane state, the shared-state
//! snapshot at the window start, the window bounds): it owns its TLB,
//! L2, clock, reference stream and RNG, reads the pager and topology
//! immutably, and queues everything else — first touches, coherence
//! writes and fills, policy-driving miss events — as [`Ev`] values
//! stamped `(time, cpu, seq)`. Each lane's events, and the carry pool
//! of events held back from earlier windows, are already sorted by
//! that key, so the merge never sorts: it replays a k-way merge of
//! those runs on the coordinating thread, straight out of the lanes'
//! buffers. The result depends only on the *window size*, never on how
//! lanes are grouped onto host threads. `--shards 1` and `--shards 8`
//! are the same computation with different thread placement; reports
//! are byte-identical by construction.
//!
//! A TLB refill becomes an event only when its replay can do
//! something: a recorder is on, a trace is being captured, or the
//! policy counts TLB misses. Otherwise the merge would replay it as a
//! no-op, so the lane never emits it. Eliding it is exact: `seq` only
//! breaks ties within one CPU and stays monotone.
//!
//! Directory-controller contention (§7.1.2) is charged entirely at the
//! merge: lanes charge the uncontended miss latency, and the canonical
//! replay queues every miss at the shared
//! [`DirectoryModel`](crate::DirectoryModel) in merge
//! order, deferring the computed wait onto the CPU's clock before its
//! next window. Queueing statistics therefore see the same global
//! interleaving the serial loop produced; only the timing feedback is
//! one window late.
//!
//! Windows are clamped to scheduler-quantum boundaries, so a context
//! switch never lands inside a window; the quantum-boundary work
//! (scheduler re-query, fault storms, adaptive ticks, epoch sampling)
//! runs between windows on the coordinating thread, exactly once per
//! quantum. The final stretch of a run (and anything too short to
//! window) uses the exact serial per-reference loop in `sched`.

use super::memory::TLB_REFILL;
use super::Sim;
use crate::{L2Cache, Tlb};
use ccnuma_faults::FaultInjector;
use ccnuma_obs::{Phase, Profiler, Recorder};
use ccnuma_stats::RunBreakdown;
use ccnuma_trace::{MissRecord, MissSource};
use ccnuma_types::{
    AccessKind, FxHashMap, MachineConfig, MemAccess, Mode, NodeId, Ns, Pid, ProcId, SimError,
    Topology, VirtPage,
};
use ccnuma_workloads::ProcessStream;
use rand::rngs::SmallRng;
use std::convert::Infallible;

/// Default window length in simulated nanoseconds, used when
/// [`RunOptions::window_us`](super::RunOptions) is `None`. Windows are
/// additionally clamped so they never cross a scheduler-quantum
/// boundary.
pub(super) const WINDOW: Ns = Ns(100_000);

/// One deferred cross-CPU interaction, replayed at merge time.
#[derive(Clone, Copy)]
pub(super) enum Ev {
    /// A lane first-touched an unmapped page; the merge allocates it
    /// (with the §7.2.3 reclaim-then-retry pressure response).
    FirstTouch {
        /// Touching process.
        pid: Pid,
        /// The touched page.
        page: VirtPage,
        /// Home node the lane decided (first-touch or round-robin).
        home: NodeId,
    },
    /// A TLB refill: recorded, traced, and fed to the policy engine.
    /// Emitted only when one of those consumers is on.
    Tlb {
        /// The miss record (timestamped with the lane clock).
        rec: MissRecord,
    },
    /// A secondary-cache miss: recorded, traced, policy-driven, and
    /// queued at the home node's directory controller during the
    /// merge (the lane charges the uncontended latency; the canonical
    /// replay computes the queueing delay and defers it to the CPU's
    /// next window).
    Miss {
        /// The miss record.
        rec: MissRecord,
        /// Uncontended miss latency the lane charged.
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

/// An [`Ev`] with its canonical merge key.
#[derive(Clone, Copy)]
pub(super) struct WinEv {
    /// Lane clock when the event was emitted.
    pub time: Ns,
    /// Emitting CPU.
    pub cpu: u16,
    /// Per-CPU sequence number, never reset: `(time, cpu, seq)` is a
    /// strict total order over all events of a run.
    pub seq: u64,
    /// The deferred interaction.
    pub ev: Ev,
}

/// Exclusive bound on a per-CPU `seq`: it must fit in the low 48 bits
/// of [`WinEv::key`] and never be all ones, so no key is `u128::MAX`,
/// the merge's mark for an exhausted run.
const SEQ_END: u64 = (1 << 48) - 1;

impl WinEv {
    /// The canonical `(time, cpu, seq)` key packed into one integer, so
    /// the merge compares one number instead of a tuple.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.time.0) << 64) | (u128::from(self.cpu) << 48) | u128::from(self.seq)
    }
}

/// Feeds every event of `runs` to `f` in canonical `(time, cpu, seq)`
/// order, stopping at the first error. Each run must already be sorted
/// by that key; keys are unique across runs because `seq` is per CPU
/// and never reset.
///
/// A k-way merge over a loser tree: each internal node holds the head
/// that lost the match there, so taking the next event replays only
/// the path from the winner's leaf to the root (`log2 k` comparisons).
/// A window has one run per CPU plus the carry, and consecutive events
/// rarely come from the same run, so a linear scan of every head per
/// event (or per burst) costs more than the tree.
fn merge_runs<E>(
    runs: &mut [&[WinEv]],
    mut f: impl FnMut(&WinEv) -> Result<(), E>,
) -> Result<(), E> {
    let mut left: usize = runs.iter().map(|r| r.len()).sum();
    if left == 0 {
        return Ok(());
    }
    let head = |run: &[WinEv]| run.first().map_or(u128::MAX, WinEv::key);
    // Leaves are padded to a power of two with exhausted runs; each
    // node is `(key, run)`. Build bottom-up: `win` holds each
    // subtree's winner, `losers` what it beat.
    let leaves = runs.len().next_power_of_two();
    let mut win = vec![(u128::MAX, 0); 2 * leaves];
    let mut losers = vec![(u128::MAX, 0); leaves];
    for (i, slot) in win[leaves..].iter_mut().enumerate() {
        *slot = (runs.get(i).map_or(u128::MAX, |r| head(r)), i);
    }
    for n in (1..leaves).rev() {
        let (a, b) = (win[2 * n], win[2 * n + 1]);
        (win[n], losers[n]) = if a.0 < b.0 { (a, b) } else { (b, a) };
    }
    let mut winner = win[1].1;
    while left > 0 {
        let run = &mut runs[winner];
        let (ev, rest) = run.split_first().expect("the winner has a head");
        f(ev)?;
        *run = rest;
        left -= 1;
        let mut cur = (head(rest), winner);
        let mut n = (winner + leaves) / 2;
        while n > 0 {
            let lost = losers[n];
            let beaten = lost.0 < cur.0;
            losers[n] = if beaten { cur } else { lost };
            cur = if beaten { lost } else { cur };
            n /= 2;
        }
        winner = cur.1;
    }
    Ok(())
}

/// One window's merge over the carry and the lanes' event runs, each
/// sorted by key: feeds every event stamped before `end` to `f` in
/// canonical order, and appends the rest, in the same order, to
/// `later`. Those belong to a later merge: every lane clock is >= `end`
/// once its window ran, so the next window's events can only be later
/// and global order holds.
fn merge_window<'e, E>(
    runs: impl IntoIterator<Item = &'e Vec<WinEv>>,
    end: Ns,
    later: &mut Vec<WinEv>,
    f: impl FnMut(&WinEv) -> Result<(), E>,
) -> Result<(), E> {
    let (mut now, mut tails): (Vec<&[WinEv]>, Vec<&[WinEv]>) = runs
        .into_iter()
        .map(|run| run.split_at(run.partition_point(|e| e.time < end)))
        .unzip();
    let Ok(()) = merge_runs(&mut tails, |ev| {
        later.push(*ev);
        Ok::<(), Infallible>(())
    });
    merge_runs(&mut now, f)
}

/// Shared read-only context every lane sees during one window: the
/// canonical state as of the window start.
struct LaneCtx<'a> {
    cfg: &'a MachineConfig,
    topo: &'a Topology,
    pager: &'a ccnuma_kernel::Pager,
    overlay: &'a FxHashMap<(Pid, VirtPage), NodeId>,
    rr_nodes: Option<u16>,
    /// Whether lanes emit [`Ev::Tlb`]: see the module docs.
    tlb_events: bool,
    end: Ns,
}

/// Per-CPU state a window lane owns while it runs (moved out of `Sim`
/// for the window, moved back at the merge).
struct Lane {
    cpu: u16,
    /// The node this CPU sits on.
    node: NodeId,
    clock: Ns,
    pid: Option<Pid>,
    tlb: Tlb,
    l2: L2Cache,
    /// The scheduled process's stream and RNG, taken from the slot.
    slot: Option<(ProcessStream, SmallRng)>,
    breakdown: RunBreakdown,
    /// First-touch homes this lane decided this window.
    touched: FxHashMap<(Pid, VirtPage), NodeId>,
    local_lat_sum: Ns,
    local_lat_n: u64,
    refs: u64,
    seq: u64,
    events: Vec<WinEv>,
}

impl Lane {
    fn emit(&mut self, time: Ns, ev: Ev) {
        self.seq += 1;
        assert!(
            self.seq < SEQ_END,
            "cpu {} event sequence overflow",
            self.cpu
        );
        self.events.push(WinEv {
            time,
            cpu: self.cpu,
            seq: self.seq,
            ev,
        });
    }

    /// Advances this lane to the window end (or until its reference
    /// budget runs out — a guard against zero-cost configurations).
    fn run_window(&mut self, ctx: &LaneCtx) {
        let Some(pid) = self.pid else {
            if self.clock < ctx.end {
                self.breakdown.add_idle(ctx.end - self.clock);
                self.clock = ctx.end;
            }
            return;
        };
        let min_step = ctx.cfg.compute_ns_per_ref.0.max(1);
        let mut budget = ctx.end.0.saturating_sub(self.clock.0) / min_step + 1;
        while self.clock < ctx.end && budget > 0 {
            budget -= 1;
            let (stream, rng) = self.slot.as_mut().expect("scheduled lane has a stream");
            let access = stream.next_ref(rng);
            self.refs += 1;
            self.step(ctx, pid, access);
        }
    }

    /// The lane-side memory step: identical timing to the serial
    /// `Sim::step`, but every cross-CPU effect becomes an event.
    fn step(&mut self, ctx: &LaneCtx, pid: Pid, access: MemAccess) {
        let my_node = self.node;

        self.breakdown
            .add_busy(access.mode, ctx.cfg.compute_ns_per_ref);
        self.clock += ctx.cfg.compute_ns_per_ref;

        if !self.tlb.access(access.page) {
            let key = (pid, access.page);
            if ctx.pager.mapping_node(pid, access.page).is_none()
                && !ctx.overlay.contains_key(&key)
                && !self.touched.contains_key(&key)
            {
                let home = match ctx.rr_nodes {
                    Some(n) => NodeId((access.page.0 % u64::from(n)) as u16),
                    None => my_node,
                };
                self.touched.insert(key, home);
                self.emit(
                    self.clock,
                    Ev::FirstTouch {
                        pid,
                        page: access.page,
                        home,
                    },
                );
            }
            self.breakdown.add_busy(Mode::Kernel, TLB_REFILL);
            self.clock += TLB_REFILL;
            if ctx.tlb_events {
                let rec = self.record_of(pid, &access, MissSource::Tlb);
                self.emit(self.clock, Ev::Tlb { rec });
            }
        }

        let hit = self.l2.access(access.page, access.line);
        if access.kind == AccessKind::Write {
            self.emit(
                self.clock,
                Ev::CohWrite {
                    page: access.page,
                    line: access.line,
                },
            );
        } else if !hit {
            self.emit(
                self.clock,
                Ev::CohFill {
                    page: access.page,
                    line: access.line,
                },
            );
        }

        if hit {
            self.breakdown
                .add_hit_stall(access.mode, access.class, ctx.cfg.l2_hit);
            self.clock += ctx.cfg.l2_hit;
            return;
        }

        let mapped = ctx
            .pager
            .mapping_node(pid, access.page)
            .or_else(|| ctx.overlay.get(&(pid, access.page)).copied())
            .or_else(|| self.touched.get(&(pid, access.page)).copied())
            .expect("page mapped by a prior touch");
        let tier = ctx.topo.tier(my_node, mapped);
        let remote = tier.is_off_node();
        let latency = ctx.topo.latency(my_node, mapped, access.kind);
        self.breakdown
            .add_stall_tier(access.mode, access.class, tier, latency);
        self.clock += latency;
        if !remote {
            self.local_lat_sum += latency;
            self.local_lat_n += 1;
        }
        let rec = self.record_of(pid, &access, MissSource::Cache);
        self.emit(
            self.clock,
            Ev::Miss {
                rec,
                latency,
                home: mapped,
                remote,
            },
        );
    }

    fn record_of(&self, pid: Pid, access: &MemAccess, source: MissSource) -> MissRecord {
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

impl<R: Recorder, F: FaultInjector, P: Profiler> Sim<'_, R, F, P> {
    /// The configured window length (the `--window-us` knob, or the
    /// built-in default).
    pub(super) fn window(&self) -> Ns {
        self.opts.window_us.map_or(WINDOW, Ns::from_us)
    }

    /// References the windowed phase must leave for the serial tail:
    /// one window can consume at most this many, so running windows
    /// only while `refs_left` exceeds it can never overdraw.
    pub(super) fn window_tail_bound(&self) -> u64 {
        let min_step = self.spec.config.compute_ns_per_ref.0.max(1);
        self.clocks.len() as u64 * (self.window().0 / min_step + 2)
    }

    /// Runs one window: quantum/epoch work, parallel lanes, canonical
    /// merge. Returns the number of references consumed.
    pub(super) fn run_window(&mut self, shards: usize, quantum: Ns) -> Result<u64, SimError> {
        let procs = self.clocks.len();
        let cur = self.clocks.iter().copied().min().expect("at least one cpu");

        if R::ENABLED && self.obs.epoch_due(cur) {
            let span = self.prof.enter(Phase::Epoch);
            let view = self.sample_view(cur);
            self.obs.on_epoch(cur, &view);
            self.prof.exit(Phase::Epoch, span);
        }

        // Quantum-boundary work runs once per quantum, between windows,
        // for every CPU at once (windows never straddle a boundary).
        let q = cur.0 / quantum.0;
        if q != self.win_quantum {
            let span = self.prof.enter(Phase::Sched);
            self.win_quantum = q;
            if F::ENABLED {
                self.drive_storms(cur);
            }
            self.adaptive_tick(cur);
            let map = self.spec.scheduler.assignment(cur);
            for cpu in 0..procs {
                self.cur_quantum[cpu] = q;
                let pid = map.get(cpu).copied().flatten();
                if pid != self.cur_pid[cpu] {
                    self.tlb[cpu].flush();
                    self.cur_pid[cpu] = pid;
                    if let Some(p) = pid {
                        self.pager.set_pid_node(p, self.node_of(cpu));
                    }
                    self.obs
                        .on_context_switch(cpu, cur, pid.map(|p| p.0 as u64));
                }
            }
            self.prof.exit(Phase::Sched, span);
        }
        let end = Ns((cur.0 + self.window().0).min((q + 1) * quantum.0));

        // Move per-CPU state out of `Sim` into lanes.
        let tlbs = std::mem::take(&mut self.tlb);
        let l2s = std::mem::take(&mut self.l2);
        let mut lanes: Vec<Lane> = tlbs
            .into_iter()
            .zip(l2s)
            .enumerate()
            .map(|(cpu, (tlb, l2))| {
                let pid = self.cur_pid[cpu];
                let slot = pid.map(|p| {
                    self.proc_streams[p.index()]
                        .take()
                        .expect("scheduler assigned one pid to two cpus")
                });
                Lane {
                    cpu: cpu as u16,
                    node: self.node_of(cpu),
                    clock: self.clocks[cpu],
                    pid,
                    tlb,
                    l2,
                    slot,
                    breakdown: RunBreakdown::new(),
                    touched: std::mem::take(&mut self.touched_scratch[cpu]),
                    local_lat_sum: Ns::ZERO,
                    local_lat_n: 0,
                    refs: 0,
                    seq: self.lane_seq[cpu],
                    events: std::mem::take(&mut self.event_scratch[cpu]),
                }
            })
            .collect();

        let ctx = LaneCtx {
            cfg: &self.spec.config,
            topo: &self.topo,
            pager: &self.pager,
            overlay: &self.overlay,
            rr_nodes: self.rr_nodes,
            tlb_events: self.tlb_events_consumed(),
            end,
        };
        let span = self.prof.enter(Phase::Lanes);
        if shards <= 1 {
            for lane in &mut lanes {
                lane.run_window(&ctx);
            }
        } else {
            let per = lanes.len().div_ceil(shards);
            std::thread::scope(|s| {
                let ctx = &ctx;
                for chunk in lanes.chunks_mut(per) {
                    s.spawn(move || {
                        for lane in chunk {
                            lane.run_window(ctx);
                        }
                    });
                }
            });
        }
        self.prof.exit(Phase::Lanes, span);

        // Fold lane state back in CPU order (deterministic float sums),
        // then replay the carry and the lanes' event runs in canonical
        // (time, cpu, seq) order. Handoff, merge and replay are all
        // merge time.
        let span = self.prof.enter(Phase::Merge);
        let mut consumed = 0u64;
        let mut tlbs = Vec::with_capacity(procs);
        let mut l2s = Vec::with_capacity(procs);
        for mut lane in lanes {
            let cpu = lane.cpu as usize;
            consumed += lane.refs;
            self.clocks[cpu] = lane.clock;
            self.lane_seq[cpu] = lane.seq;
            self.breakdown.merge(&lane.breakdown);
            self.local_lat_sum += lane.local_lat_sum;
            self.local_lat_n += lane.local_lat_n;
            if let (Some(pid), Some(slot)) = (lane.pid, lane.slot.take()) {
                self.proc_streams[pid.index()] = Some(slot);
            }
            for (k, v) in lane.touched.drain() {
                self.overlay.entry(k).or_insert(v);
            }
            self.touched_scratch[cpu] = lane.touched;
            self.event_scratch[cpu] = lane.events;
            tlbs.push(lane.tlb);
            l2s.push(lane.l2);
        }
        self.tlb = tlbs;
        self.l2 = l2s;

        let carry = std::mem::take(&mut self.carry);
        let mut lane_events = std::mem::take(&mut self.event_scratch);
        let runs = std::iter::once(&carry).chain(&lane_events);
        let mut next_carry = Vec::new();
        let outcome = merge_window(runs, end, &mut next_carry, |ev| self.replay(ev));
        self.carry = next_carry;
        for events in &mut lane_events {
            events.clear();
        }
        self.event_scratch = lane_events;
        self.prof.exit(Phase::Merge, span);
        outcome?;
        Ok(consumed)
    }

    /// Whether replaying an [`Ev::Tlb`] can have any effect: the
    /// recorder observes TLB fills, the trace records them, or the
    /// policy metric counts them. When none holds, lanes skip them.
    fn tlb_events_consumed(&self) -> bool {
        R::ENABLED
            || self.trace.is_some()
            || self
                .metric
                .as_ref()
                .is_some_and(|m| m.source() == MissSource::Tlb)
    }

    /// Replays events still in the carry pool (the windowed phase is
    /// over; the serial tail starts from fully merged state).
    pub(super) fn flush_carried(&mut self) -> Result<(), SimError> {
        if self.carry.is_empty() {
            return Ok(());
        }
        let carry = std::mem::take(&mut self.carry);
        let span = self.prof.enter(Phase::Merge);
        let outcome = carry.iter().try_for_each(|ev| self.replay(ev));
        self.prof.exit(Phase::Merge, span);
        outcome
    }

    /// Applies one lane event to the canonical state. Mirrors the
    /// corresponding arms of the serial `Sim::step`.
    fn replay(&mut self, wev: &WinEv) -> Result<(), SimError> {
        let cpu = wev.cpu as usize;
        match wev.ev {
            Ev::FirstTouch { pid, page, home } => {
                // Another event (same page, earlier in canonical order)
                // may have mapped it already; first writer wins.
                if self.pager.mapping_node(pid, page).is_none()
                    && self.pager.first_touch(pid, page, home).is_none()
                {
                    for n in 0..self.spec.config.nodes {
                        let freed = self.pager.reclaim_replicas_on(NodeId(n), 8);
                        if F::ENABLED {
                            self.fault_stats.reclaimed_frames += u64::from(freed);
                        }
                    }
                    if self.pager.first_touch(pid, page, home).is_none() {
                        return Err(SimError::OutOfMemory { page, node: home });
                    }
                }
                Ok(())
            }
            Ev::Tlb { rec } => {
                self.obs.on_tlb_fill(&rec, TLB_REFILL);
                if let Some(t) = &mut self.trace {
                    t.push(rec);
                }
                let my_node = self.node_of(cpu);
                self.drive_policy(cpu, rec.pid, my_node, ProcId(wev.cpu), &rec)
            }
            Ev::CohWrite { page, line } => {
                let span = self.prof.enter(Phase::Coherence);
                self.coherence
                    .write(ProcId(wev.cpu), page, line, &mut self.victims);
                for victim in self.victims.iter() {
                    self.l2[victim.index()].invalidate(page, line);
                }
                self.prof.exit(Phase::Coherence, span);
                Ok(())
            }
            Ev::CohFill { page, line } => {
                self.coherence.record_fill(ProcId(wev.cpu), page, line);
                Ok(())
            }
            Ev::Miss {
                rec,
                latency,
                home,
                remote,
            } => {
                // Queue the request at the canonical directory in merge
                // order — the single place every CPU's misses contend,
                // exactly as in the serial loop. The lane already
                // charged the uncontended latency; the queueing delay
                // lands on the CPU's clock here, before its next
                // window (a one-window deferral, the price of relaxed
                // synchronization).
                let wait = self.directory.request(wev.time, home, remote);
                if wait > Ns::ZERO {
                    let my_node = self.node_of(cpu);
                    let tier = self.topo.tier(my_node, home);
                    self.breakdown
                        .add_contention_stall(rec.mode, rec.class, tier, wait);
                    self.clocks[cpu] += wait;
                    if !remote {
                        self.local_lat_sum += wait;
                    }
                }
                self.obs.on_miss(&rec, latency + wait, remote);
                if let Some(t) = &mut self.trace {
                    t.push(rec);
                }
                let my_node = self.node_of(cpu);
                self.drive_policy(cpu, rec.pid, my_node, ProcId(wev.cpu), &rec)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn ev(time: u64, cpu: u16, seq: u64) -> WinEv {
        WinEv {
            time: Ns(time),
            cpu,
            seq,
            ev: Ev::CohFill {
                page: VirtPage(0),
                line: 0,
            },
        }
    }

    fn keys(evs: &[WinEv]) -> Vec<(Ns, u16, u64)> {
        evs.iter().map(|e| (e.time, e.cpu, e.seq)).collect()
    }

    proptest! {
        /// The merge replays exactly what sorting the pooled events by
        /// `(time, cpu, seq)` and cutting at `end` would, and carries
        /// the rest in that same order. Up to nine lanes are drawn as
        /// per-CPU time steps and the carry as `(time, cpu)` pairs:
        /// lane events take odd sequence numbers and carry events even
        /// ones, so keys are unique as the merge requires, and carry
        /// times reach past any window end.
        #[test]
        fn merge_matches_sort_then_cut(
            cpus in 1usize..=9,
            lanes in vec(vec(0u64..40, 0..40), 9),
            carry in vec((0u64..1_500, 0u16..9), 0..40),
            end in 0u64..1_200,
        ) {
            let mut runs: Vec<Vec<WinEv>> = Vec::new();
            let mut carry: Vec<WinEv> = carry
                .iter()
                .enumerate()
                .map(|(i, &(time, cpu))| ev(time, cpu % cpus as u16, 2 * i as u64))
                .collect();
            carry.sort_unstable_by_key(|e| (e.time, e.cpu, e.seq));
            runs.push(carry);
            for (cpu, steps) in lanes.iter().take(cpus).enumerate() {
                let mut time = 0;
                let lane = steps
                    .iter()
                    .enumerate()
                    .map(|(i, step)| {
                        time += step;
                        ev(time, cpu as u16, 2 * i as u64 + 1)
                    })
                    .collect();
                runs.push(lane);
            }

            let mut pool: Vec<WinEv> = runs.iter().flatten().copied().collect();
            pool.sort_unstable_by_key(|e| (e.time, e.cpu, e.seq));
            let cut = pool.partition_point(|e| e.time < Ns(end));

            let mut replayed = Vec::new();
            let mut later = Vec::new();
            let Ok(()) = merge_window(&runs, Ns(end), &mut later, |e| {
                replayed.push(*e);
                Ok::<(), Infallible>(())
            });
            prop_assert_eq!(keys(&replayed), keys(&pool[..cut]));
            prop_assert_eq!(keys(&later), keys(&pool[cut..]));

            // An error stops the replay at the failing event.
            if cut > 0 {
                let stop = cut / 2;
                let mut fed = 0;
                let outcome = merge_window(&runs, Ns(end), &mut Vec::new(), |_| {
                    fed += 1;
                    if fed > stop { Err(fed) } else { Ok(()) }
                });
                prop_assert_eq!(outcome, Err(stop + 1));
            }
        }
    }
}
