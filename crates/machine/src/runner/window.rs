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
//! policy-driving miss events — as [`Ev`] values stamped with one
//! `u64` key, `time << 17 | cpu << 1 | 1` (see [`WinEv`]). Each lane's
//! events, and the carry pool of events held back from earlier
//! windows, are already in key order, so the merge never sorts: it
//! replays a k-way merge of those runs on the coordinating thread,
//! straight out of the lanes' buffers. The canonical order is
//! `(time, cpu)`, then the carry before a lane (the carry's events
//! were emitted in earlier windows: moving an event to the carry clears
//! its low bit), then emission order within a run. The result depends
//! only on the *window size*, never on how lanes are grouped onto host
//! threads. `--shards 1` and `--shards 8` are the same computation with
//! different thread placement; reports are byte-identical by
//! construction.
//!
//! A lane runs the one per-reference step (`memory::step`) with itself
//! as the buffering sink: every effect on shared state becomes an event
//! in the lane's ordered run. A TLB refill reaches the sink only when
//! its replay can do something (see `StepEnv::tlb_events`); eliding it
//! is exact, since it leaves the other events' order unchanged.
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

/// Bits of [`WinEv::k`] below the time.
const TIME_SHIFT: u32 = 17;

/// The low bit of [`WinEv::k`]: set on a lane's events, cleared on the
/// carry's.
const LANE: u64 = 1;

/// An [`Ev`] with its canonical merge key.
#[derive(Clone, Copy)]
pub(super) struct WinEv {
    /// `time << 17 | cpu << 1 | LANE`: the lane clock when the event
    /// was emitted (below `2^47` ns), the emitting CPU, and [`LANE`]
    /// while the event is in its lane's run. Equal keys occur only
    /// within one run, whose order is emission order, so the merge
    /// needs no tie-breaker. No key is `u64::MAX`, the merge's mark for
    /// an exhausted run: CPU numbers stay below
    /// [`ProcSet::MAX_PROCS`](ccnuma_types::ProcSet::MAX_PROCS).
    k: u64,
    /// The deferred interaction.
    ev: Ev,
}

impl WinEv {
    /// A lane's event, emitted at `time` by `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is `2^47` ns (about 39 hours) or later.
    #[inline]
    fn lane(time: Ns, cpu: u16, ev: Ev) -> WinEv {
        assert!(
            time.0 >> (64 - TIME_SHIFT) == 0,
            "event time {} ns is beyond the merge key's range",
            time.0
        );
        WinEv {
            k: time.0 << TIME_SHIFT | u64::from(cpu) << 1 | LANE,
            ev,
        }
    }

    /// The event as the carry holds it: it sorts before every lane
    /// event with its `(time, cpu)`.
    #[inline]
    fn carried(self) -> WinEv {
        WinEv {
            k: self.k & !LANE,
            ..self
        }
    }

    /// Lane clock when the event was emitted.
    #[inline]
    fn time(&self) -> Ns {
        Ns(self.k >> TIME_SHIFT)
    }

    /// Emitting CPU.
    #[inline]
    fn cpu(&self) -> usize {
        (self.k >> 1) as usize & 0xffff
    }
}

/// Feeds every event of `runs` to `f` in key order, stopping at the
/// first error. Each run must already be in key order, and equal keys
/// must not span two runs.
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
    let head = |run: &[WinEv]| run.first().map_or(u64::MAX, |e| e.k);
    // Leaves are padded to a power of two with exhausted runs; each
    // node is `(key, run)`. Build bottom-up: `win` holds each
    // subtree's winner, `losers` what it beat.
    let leaves = runs.len().next_power_of_two();
    let mut win = vec![(u64::MAX, 0); 2 * leaves];
    let mut losers = vec![(u64::MAX, 0); leaves];
    for (i, slot) in win[leaves..].iter_mut().enumerate() {
        *slot = (runs.get(i).map_or(u64::MAX, |r| head(r)), i);
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
/// in key order: feeds every event stamped before `end` to `f` in
/// canonical order, and appends the rest, in the same order and
/// [`carried`](WinEv::carried), to `later`. Those belong to a later
/// merge: every lane clock is >= `end` once its window ran, so the next
/// window's events can only be later or, at an equal `(time, cpu)`,
/// follow the carry, and global order holds.
fn merge_window<'e, E>(
    runs: impl IntoIterator<Item = &'e Vec<WinEv>>,
    end: Ns,
    later: &mut Vec<WinEv>,
    f: impl FnMut(&WinEv) -> Result<(), E>,
) -> Result<(), E> {
    let (mut now, mut tails): (Vec<&[WinEv]>, Vec<&[WinEv]>) = runs
        .into_iter()
        .map(|run| run.split_at(run.partition_point(|e| e.time() < end)))
        .unzip();
    let Ok(()) = merge_runs(&mut tails, |ev| {
        later.push(ev.carried());
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
        buf.events
            .push(WinEv::lane(self.core.clock, self.core.cpu, ev));
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
        // replay the carry and the lanes' event runs in canonical key
        // order. Handoff, merge and replay are all merge time.
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
        let cpu = wev.cpu();
        let mut ev = wev.ev;
        if let Ev::Miss {
            rec,
            latency,
            home,
            remote,
        } = &mut ev
        {
            let wait = self.directory.request(wev.time(), *home, *remote);
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

    /// Lane ids start here; carry ids stay below.
    const LANE_IDS: u64 = 1_000;

    /// A lane event tagged with `id` (as its page), so the test can
    /// follow it through the merge.
    fn ev(time: u64, cpu: u16, id: u64) -> WinEv {
        let ev = Ev::CohFill {
            page: VirtPage(id),
            line: 0,
        };
        WinEv::lane(Ns(time), cpu, ev)
    }

    fn id(e: &WinEv) -> u64 {
        match e.ev {
            Ev::CohFill { page, .. } => page.0,
            _ => unreachable!("the tests merge only tagged fills"),
        }
    }

    fn ids(evs: &[WinEv]) -> Vec<u64> {
        evs.iter().map(id).collect()
    }

    /// Feeds `runs` through one window's merge; returns what it
    /// replayed and what it carried.
    fn merge(runs: &[Vec<WinEv>], end: u64) -> (Vec<WinEv>, Vec<WinEv>) {
        let mut replayed = Vec::new();
        let mut later = Vec::new();
        let Ok(()) = merge_window(runs, Ns(end), &mut later, |e| {
            replayed.push(*e);
            Ok::<(), Infallible>(())
        });
        (replayed, later)
    }

    #[test]
    fn key_packs_time_and_cpu() {
        let e = ev((1 << 47) - 1, 1023, 0);
        assert_eq!((e.time(), e.cpu()), (Ns((1 << 47) - 1), 1023));
        assert!(e.k < u64::MAX && e.k & LANE == LANE);
        let c = e.carried();
        assert_eq!((c.time(), c.cpu(), c.k & LANE), (e.time(), e.cpu(), 0));
    }

    #[test]
    #[should_panic(expected = "beyond the merge key's range")]
    fn event_time_past_the_key_range_panics() {
        ev(1 << 47, 0, 0);
    }

    /// A carried event and a lane event at the same `(time, cpu)`: the
    /// carried one, emitted in an earlier window, replays first.
    #[test]
    fn carry_wins_a_tie_with_a_lane() {
        let runs = vec![vec![ev(5, 2, 0).carried()], vec![ev(5, 2, LANE_IDS)]];
        let (replayed, later) = merge(&runs, 6);
        assert_eq!(ids(&replayed), vec![0, LANE_IDS]);
        assert!(later.is_empty());
        let (replayed, later) = merge(&runs, 5);
        assert!(replayed.is_empty());
        assert_eq!(ids(&later), vec![0, LANE_IDS]);
    }

    proptest! {
        /// The merge replays exactly what a stable sort of the pooled
        /// events by key (carry first) and a cut at `end` would, and
        /// carries the rest in that same order with the lane bit
        /// cleared. Up to nine lanes are drawn as per-CPU time steps (a
        /// step of 0 repeats a `(time, cpu)` within a lane); the carry
        /// holds random `(time, cpu)` pairs, which reach past any window
        /// end, and copies of lane events' `(time, cpu)`, so the carry
        /// ties with lanes and must come first at every tie.
        #[test]
        fn merge_matches_sort_then_cut(
            cpus in 1usize..=9,
            lanes in vec(vec(0u64..40, 0..40), 9),
            carry in vec((0u64..1_500, 0u16..9), 0..40),
            ties in vec((0usize..9, 0usize..40), 0..12),
            end in 0u64..1_200,
        ) {
            let lane_runs: Vec<Vec<WinEv>> = lanes
                .iter()
                .take(cpus)
                .enumerate()
                .map(|(cpu, steps)| {
                    let mut time = 0;
                    let first = LANE_IDS + 100 * cpu as u64;
                    steps
                        .iter()
                        .enumerate()
                        .map(|(i, step)| {
                            time += step;
                            ev(time, cpu as u16, first + i as u64)
                        })
                        .collect()
                })
                .collect();
            let tied = ties.iter().filter_map(|&(lane, i)| {
                let e = lane_runs.get(lane)?.get(i)?;
                Some((e.time().0, e.cpu() as u16))
            });
            let mut carry: Vec<WinEv> = carry
                .iter()
                .map(|&(time, cpu)| (time, cpu % cpus as u16))
                .chain(tied)
                .enumerate()
                .map(|(i, (time, cpu))| ev(time, cpu, i as u64).carried())
                .collect();
            carry.sort_by_key(|e| e.k);
            let runs: Vec<Vec<WinEv>> = std::iter::once(carry).chain(lane_runs).collect();

            let mut pool: Vec<WinEv> = runs.iter().flatten().copied().collect();
            pool.sort_by_key(|e| e.k);
            let cut = pool.partition_point(|e| e.time() < Ns(end));

            let (replayed, later) = merge(&runs, end);
            prop_assert_eq!(ids(&replayed), ids(&pool[..cut]));
            prop_assert_eq!(ids(&later), ids(&pool[cut..]));
            prop_assert!(later.iter().all(|e| e.k & LANE == 0));
            let order: Vec<&WinEv> = replayed.iter().chain(&later).collect();
            for w in order.windows(2) {
                let tie = (w[0].time(), w[0].cpu()) == (w[1].time(), w[1].cpu());
                prop_assert!(
                    !(tie && id(w[0]) >= LANE_IDS && id(w[1]) < LANE_IDS),
                    "lane event {} replayed before carried event {}",
                    id(w[0]),
                    id(w[1])
                );
            }

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
