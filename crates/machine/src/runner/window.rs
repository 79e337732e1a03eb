//! Windowed, sharded execution: the bulk of a run advances in bounded
//! time windows where every simulated CPU is an independent *lane*,
//! and cross-CPU state changes are deferred as events that the
//! coordinating thread replays in one canonical order.
//!
//! # Determinism contract
//!
//! A lane's window is a pure function of (lane state, the shared-state
//! snapshot at the window start, the window bounds): it borrows its
//! CPU's core (TLB, L2, clock, reference stream and RNG) out of `Sim`
//! by `chunks_mut`, reads the pager and topology immutably, and queues
//! everything else — first touches, coherence writes and fills,
//! policy-driving miss events — as [`Ev`] values stamped
//! `(time, cpu, seq)`. Each lane's events, and the carry pool
//! of events held back from earlier windows, are already sorted by
//! that key, so the merge never sorts: it replays a k-way merge of
//! those runs on the coordinating thread, straight out of the lanes'
//! buffers. The result depends only on the *window size*, never on how
//! lanes are grouped onto host threads. `--shards 1` and `--shards 8`
//! are the same computation with different thread placement; reports
//! are byte-identical by construction.
//!
//! A lane runs the one per-reference step (`memory::step`) with itself
//! as the buffering sink: every effect on shared state becomes an event
//! in the lane's ordered run. A TLB refill reaches the sink only when
//! its replay can do something (see `StepEnv::tlb_events`); eliding it
//! is exact, since `seq` only breaks ties within one CPU and stays
//! monotone.
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
//! window) runs the same step with the immediate sink
//! (`memory::Immediate`), which applies each effect to the canonical
//! state at once: the exact serial semantics, in CPU clock order.

use super::memory::{step, Core, Ev, Sink, StepEnv, Tally};
use super::Sim;
use ccnuma_faults::FaultInjector;
use ccnuma_obs::{Phase, Profiler, Recorder};
use ccnuma_types::{FxHashMap, NodeId, Ns, Pid, SimError, Topology, VirtPage};
use std::convert::Infallible;

/// Default window length in simulated nanoseconds, used when
/// [`RunOptions::window_us`](super::RunOptions) is `None`. Windows are
/// additionally clamped so they never cross a scheduler-quantum
/// boundary.
pub(super) const WINDOW: Ns = Ns(100_000);

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
    env: StepEnv,
    topo: &'a Topology,
    pager: &'a ccnuma_kernel::Pager,
    overlay: &'a FxHashMap<(Pid, VirtPage), NodeId>,
    end: Ns,
}

/// A lane's buffers, kept per CPU between windows so they keep their
/// capacity.
#[derive(Default)]
pub(super) struct LaneBuf {
    tally: Tally,
    /// First-touch homes this lane decided this window (drained into
    /// the overlay at the merge).
    touched: FxHashMap<(Pid, VirtPage), NodeId>,
    /// References stepped this window.
    refs: u64,
    /// Last event sequence number; never reset, so `(cpu, seq)` is
    /// unique across the whole run and the merge order total.
    seq: u64,
    events: Vec<WinEv>,
}

/// The buffering sink: one CPU's lane for one window. Every cross-CPU
/// effect becomes an event for the canonical merge.
struct Lane<'w> {
    ctx: &'w LaneCtx<'w>,
    core: &'w mut Core,
    buf: &'w mut LaneBuf,
}

impl Lane<'_> {
    /// Advances this lane to the window end (or until its reference
    /// budget runs out — a guard against zero-cost configurations).
    fn run(mut self) {
        let end = self.ctx.end;
        let Some(pid) = self.core.pid else {
            if self.core.clock < end {
                self.buf.tally.breakdown.add_idle(end - self.core.clock);
                self.core.clock = end;
            }
            return;
        };
        let env = self.ctx.env;
        let mut budget = end.0.saturating_sub(self.core.clock.0) / env.compute.0.max(1) + 1;
        while self.core.clock < end && budget > 0 {
            budget -= 1;
            let (stream, rng) = self
                .core
                .slot
                .as_mut()
                .expect("scheduled lane has a stream");
            let access = stream.next_ref(rng);
            self.buf.refs += 1;
            let Ok(()) = step(&mut self, env, pid, access);
        }
    }
}

impl Sink for Lane<'_> {
    type Error = Infallible;

    fn core(&mut self) -> &mut Core {
        self.core
    }

    fn tally(&mut self) -> &mut Tally {
        &mut self.buf.tally
    }

    fn topo(&self) -> &Topology {
        self.ctx.topo
    }

    /// The pager as of the window start, then pages first-touched in
    /// earlier windows whose events are still in the carry, then this
    /// lane's own touches. Forced inline: left to itself the compiler
    /// calls it out of line from both probes in the step, once per TLB
    /// and L2 miss.
    #[inline(always)]
    fn home(&self, pid: Pid, page: VirtPage) -> Option<NodeId> {
        self.ctx
            .pager
            .mapping_node(pid, page)
            .or_else(|| self.ctx.overlay.get(&(pid, page)).copied())
            .or_else(|| self.buf.touched.get(&(pid, page)).copied())
    }

    /// Contention is charged at the merge: see the module docs.
    fn contention(&mut self, _: Ns, _: NodeId, _: bool) -> Ns {
        Ns::ZERO
    }

    fn emit(&mut self, ev: Ev) -> Result<(), Infallible> {
        let buf = &mut *self.buf;
        if let Ev::FirstTouch { pid, page, home } = ev {
            buf.touched.insert((pid, page), home);
        }
        buf.seq += 1;
        assert!(
            buf.seq < SEQ_END,
            "cpu {} event sequence overflow",
            self.core.cpu
        );
        buf.events.push(WinEv {
            time: self.core.clock,
            cpu: self.core.cpu,
            seq: buf.seq,
            ev,
        });
        Ok(())
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
        self.cores.len() as u64 * (self.window().0 / min_step + 2)
    }

    /// Runs one window: scheduling point, parallel lanes, canonical
    /// merge. Returns the number of references consumed.
    pub(super) fn run_window(&mut self, shards: usize) -> Result<u64, SimError> {
        let cur = self
            .cores
            .iter()
            .map(|c| c.clock)
            .min()
            .expect("at least one cpu");
        // Windows never straddle a quantum boundary, so the boundary
        // work runs here, once per quantum, for every CPU at once.
        self.sched_point(cur, 0..self.cores.len());
        let quantum = self.spec.scheduler.quantum().0;
        let end = Ns((cur.0 + self.window().0).min((cur.0 / quantum + 1) * quantum));

        // A lane draws from the stream of the process it runs.
        for core in &mut self.cores {
            if let (Some(pid), None) = (core.pid, &core.slot) {
                core.slot = Some(
                    self.proc_streams[pid.index()]
                        .take()
                        .expect("scheduler assigned one pid to two cpus"),
                );
            }
        }

        let ctx = LaneCtx {
            env: self.env,
            topo: &self.topo,
            pager: &self.pager,
            overlay: &self.overlay,
            end,
        };
        let span = self.prof.enter(Phase::Lanes);
        let per = self.cores.len().div_ceil(shards.max(1));
        let chunks = self.cores.chunks_mut(per).zip(self.lanes.chunks_mut(per));
        let run = |(cores, bufs): (&mut [Core], &mut [LaneBuf])| {
            for (core, buf) in cores.iter_mut().zip(bufs) {
                Lane {
                    ctx: &ctx,
                    core,
                    buf,
                }
                .run();
            }
        };
        if shards <= 1 {
            chunks.for_each(run);
        } else {
            std::thread::scope(|s| {
                for chunk in chunks {
                    s.spawn(move || run(chunk));
                }
            });
        }
        self.prof.exit(Phase::Lanes, span);

        // Fold lane tallies in CPU order (deterministic sums), then
        // replay the carry and the lanes' event runs in canonical
        // (time, cpu, seq) order. Handoff, merge and replay are all
        // merge time.
        let span = self.prof.enter(Phase::Merge);
        let mut lanes = std::mem::take(&mut self.lanes);
        let mut consumed = 0u64;
        for buf in &mut lanes {
            consumed += std::mem::take(&mut buf.refs);
            let tally = std::mem::take(&mut buf.tally);
            self.tally.breakdown.merge(&tally.breakdown);
            self.tally.local_lat_sum += tally.local_lat_sum;
            self.tally.local_lat_n += tally.local_lat_n;
            for (k, v) in buf.touched.drain() {
                self.overlay.entry(k).or_insert(v);
            }
        }
        let carry = std::mem::take(&mut self.carry);
        let runs = std::iter::once(&carry).chain(lanes.iter().map(|b| &b.events));
        let mut next_carry = Vec::new();
        let outcome = merge_window(runs, end, &mut next_carry, |ev| self.replay(ev));
        self.carry = next_carry;
        for buf in &mut lanes {
            buf.events.clear();
        }
        self.lanes = lanes;
        self.prof.exit(Phase::Merge, span);
        outcome?;
        Ok(consumed)
    }

    /// Ends the windowed phase: replays events still in the carry pool
    /// and returns every lane's stream, so the serial tail starts from
    /// fully merged state.
    pub(super) fn end_windows(&mut self) -> Result<(), SimError> {
        for core in &mut self.cores {
            if let (Some(pid), Some(slot)) = (core.pid, core.slot.take()) {
                self.proc_streams[pid.index()] = Some(slot);
            }
        }
        if self.carry.is_empty() {
            return Ok(());
        }
        let carry = std::mem::take(&mut self.carry);
        let span = self.prof.enter(Phase::Merge);
        let outcome = carry.iter().try_for_each(|ev| self.replay(ev));
        self.prof.exit(Phase::Merge, span);
        outcome
    }

    /// Applies one lane event to the canonical state. A miss first
    /// queues at the canonical directory in merge order — the single
    /// place every CPU's misses contend. The lane already charged the
    /// uncontended latency; the queueing delay lands on the CPU's clock
    /// here, before its next window (a one-window deferral, the price
    /// of relaxed synchronization).
    fn replay(&mut self, wev: &WinEv) -> Result<(), SimError> {
        let cpu = usize::from(wev.cpu);
        let mut ev = wev.ev;
        if let Ev::Miss {
            rec,
            latency,
            home,
            remote,
        } = &mut ev
        {
            let wait = self.directory.request(wev.time, *home, *remote);
            if wait > Ns::ZERO {
                let tier = self.topo.tier(self.cores[cpu].node, *home);
                self.tally
                    .breakdown
                    .add_contention_stall(rec.mode, rec.class, tier, wait);
                self.cores[cpu].clock += wait;
                if !*remote {
                    self.tally.local_lat_sum += wait;
                }
                *latency += wait;
            }
        }
        self.apply(cpu, ev)
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
