//! The execution-time breakdown used by every experiment.

use ccnuma_types::{Mode, Ns, RefClass, StallTier};

fn midx(mode: Mode) -> usize {
    match mode {
        Mode::User => 0,
        Mode::Kernel => 1,
    }
}

fn cidx(class: RefClass) -> usize {
    match class {
        RefClass::Instr => 0,
        RefClass::Data => 1,
    }
}

/// Cumulative execution-time slices for one simulated run.
///
/// Stall time is kept in a (mode × class × tier) cube so Table 3's
/// four stall columns, Figure 3's local/remote split, and Figure 6's
/// user-stall bars all come from the same accumulator. The tier axis is
/// [`StallTier`]: local, remote DRAM, or far (CXL-like) memory — on the
/// paper's flat machine the far slice stays zero and every output
/// reduces to the original local/remote split. Busy (non-stall)
/// time is kept per mode; the pager's kernel overhead is kept separately
/// per action so the Mig and Rep overhead segments of Figures 6, 8 and 9
/// can be told apart. Miss *counts* (local vs. remote) feed the
/// "% misses local" annotations at the bottom of each figure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunBreakdown {
    // [mode][class][StallTier::index()]
    stall: [[[Ns; 3]; 2]; 2],
    // L2-hit stall: time waiting on the secondary cache that did not go
    // to memory ([mode][class]). Part of Table 3's stall columns, part of
    // "other time" in the figures' local/remote split.
    hit_stall: [[Ns; 2]; 2],
    busy: [Ns; 2],
    idle: Ns,
    mig_overhead: Ns,
    rep_overhead: Ns,
    local_misses: u64,
    remote_misses: u64,
    far_misses: u64,
}

impl RunBreakdown {
    /// An all-zero breakdown.
    pub fn new() -> RunBreakdown {
        RunBreakdown::default()
    }

    /// Adds non-stall CPU time in `mode`.
    pub fn add_busy(&mut self, mode: Mode, t: Ns) {
        self.busy[midx(mode)] += t;
    }

    /// Adds memory-stall time and counts the miss, using the legacy
    /// local/remote dichotomy (the flat machine's two tiers).
    pub fn add_stall(&mut self, mode: Mode, class: RefClass, remote: bool, t: Ns) {
        let tier = if remote {
            StallTier::Remote
        } else {
            StallTier::Local
        };
        self.add_stall_tier(mode, class, tier, t);
    }

    /// Adds memory-stall time in a specific [`StallTier`] and counts the
    /// miss there.
    pub fn add_stall_tier(&mut self, mode: Mode, class: RefClass, tier: StallTier, t: Ns) {
        self.stall[midx(mode)][cidx(class)][tier.index()] += t;
        match tier {
            StallTier::Local => self.local_misses += 1,
            StallTier::Remote => self.remote_misses += 1,
            StallTier::Far => self.far_misses += 1,
        }
    }

    /// Adds directory-queueing delay to a tier's stall time *without*
    /// counting a new miss. The windowed engine charges a miss's
    /// uncontended latency (and counts the miss) inside its lane, then
    /// discovers the contention wait at the canonical merge; this adds
    /// that wait so total stall matches one [`add_stall_tier`] call with
    /// the combined latency.
    pub fn add_contention_stall(&mut self, mode: Mode, class: RefClass, tier: StallTier, t: Ns) {
        self.stall[midx(mode)][cidx(class)][tier.index()] += t;
    }

    /// Adds secondary-cache *hit* stall: time spent waiting on the L2
    /// that did not go to memory. Included in Table 3's stall columns but
    /// not in the figures' local/remote miss-stall segments.
    pub fn add_hit_stall(&mut self, mode: Mode, class: RefClass, t: Ns) {
        self.hit_stall[midx(mode)][cidx(class)] += t;
    }

    /// Adds idle time.
    pub fn add_idle(&mut self, t: Ns) {
        self.idle += t;
    }

    /// Adds pager (kernel) overhead for a migration.
    pub fn add_mig_overhead(&mut self, t: Ns) {
        self.mig_overhead += t;
    }

    /// Adds pager (kernel) overhead for a replication (or collapse).
    pub fn add_rep_overhead(&mut self, t: Ns) {
        self.rep_overhead += t;
    }

    /// Busy time in `mode`.
    pub fn busy(&self, mode: Mode) -> Ns {
        self.busy[midx(mode)]
    }

    /// Idle time.
    pub fn idle(&self) -> Ns {
        self.idle
    }

    /// Stall time for a (mode, class) pair: L2-hit stall plus local and
    /// remote miss stall (Table 3's definition: time stalled on the
    /// secondary cache).
    pub fn stall(&self, mode: Mode, class: RefClass) -> Ns {
        let s = &self.stall[midx(mode)][cidx(class)];
        s[0] + s[1] + self.hit_stall[midx(mode)][cidx(class)]
    }

    /// Total stall to local memory.
    pub fn local_stall(&self) -> Ns {
        self.sum_stall(StallTier::Local.index())
    }

    /// Total stall to off-node memory (remote DRAM plus far tier) — the
    /// figures' "remote" segment.
    pub fn remote_stall(&self) -> Ns {
        self.sum_stall(StallTier::Remote.index()) + self.sum_stall(StallTier::Far.index())
    }

    /// Total stall charged to one [`StallTier`].
    pub fn tier_stall(&self, tier: StallTier) -> Ns {
        self.sum_stall(tier.index())
    }

    /// Total stall to the far (CXL-like) memory tier.
    pub fn far_stall(&self) -> Ns {
        self.sum_stall(StallTier::Far.index())
    }

    fn sum_stall(&self, loc: usize) -> Ns {
        let mut t = Ns::ZERO;
        for m in 0..2 {
            for c in 0..2 {
                t += self.stall[m][c][loc];
            }
        }
        t
    }

    /// Total stall time.
    pub fn total_stall(&self) -> Ns {
        self.local_stall() + self.remote_stall()
    }

    /// Stall restricted to one mode (Figure 7 uses kernel-only).
    pub fn mode_stall(&self, mode: Mode) -> Ns {
        self.stall(mode, RefClass::Instr) + self.stall(mode, RefClass::Data)
    }

    /// Migration overhead charged to the kernel.
    pub fn mig_overhead(&self) -> Ns {
        self.mig_overhead
    }

    /// Replication/collapse overhead charged to the kernel.
    pub fn rep_overhead(&self) -> Ns {
        self.rep_overhead
    }

    /// Combined pager overhead.
    pub fn policy_overhead(&self) -> Ns {
        self.mig_overhead + self.rep_overhead
    }

    /// Total L2-hit stall across modes and classes.
    pub fn hit_stall_total(&self) -> Ns {
        let mut t = Ns::ZERO;
        for m in 0..2 {
            for c in 0..2 {
                t += self.hit_stall[m][c];
            }
        }
        t
    }

    /// Busy (non-stall) CPU time.
    pub fn other(&self) -> Ns {
        self.busy[0] + self.busy[1]
    }

    /// The figures' "all other time" segment: busy time plus L2-hit stall
    /// (everything that is neither a memory miss, pager overhead nor idle).
    pub fn other_incl_hits(&self) -> Ns {
        self.other() + self.hit_stall_total()
    }

    /// Total execution time.
    pub fn total(&self) -> Ns {
        self.other_incl_hits() + self.total_stall() + self.policy_overhead() + self.idle
    }

    /// Non-idle execution time.
    pub fn non_idle(&self) -> Ns {
        self.total() - self.idle
    }

    /// Misses satisfied locally.
    pub fn local_misses(&self) -> u64 {
        self.local_misses
    }

    /// Misses that left the node (remote DRAM plus far tier).
    pub fn remote_misses(&self) -> u64 {
        self.remote_misses + self.far_misses
    }

    /// Misses satisfied from the far (CXL-like) memory tier.
    pub fn far_misses(&self) -> u64 {
        self.far_misses
    }

    /// Percentage of misses satisfied from local memory — the number
    /// printed at the bottom of each bar in Figures 3, 6, 8 and 9.
    pub fn pct_local_misses(&self) -> f64 {
        let total = self.local_misses + self.remote_misses();
        if total == 0 {
            0.0
        } else {
            100.0 * self.local_misses as f64 / total as f64
        }
    }

    /// Table 3's stall columns: a (mode, class) stall as a percentage of
    /// non-idle time.
    pub fn stall_pct_of_nonidle(&self, mode: Mode, class: RefClass) -> f64 {
        let non_idle = self.non_idle();
        if non_idle == Ns::ZERO {
            return 0.0;
        }
        100.0 * self.stall(mode, class).0 as f64 / non_idle.0 as f64
    }

    /// Percentage of total time spent in `mode` (Table 3's CPU breakdown;
    /// pager overhead counts as kernel time).
    pub fn mode_pct_of_total(&self, mode: Mode) -> f64 {
        if self.total() == Ns::ZERO {
            return 0.0;
        }
        let mut t = self.busy(mode) + self.mode_stall(mode);
        if mode == Mode::Kernel {
            t += self.policy_overhead();
        }
        100.0 * t.0 as f64 / self.total().0 as f64
    }

    /// Percentage of total time spent idle.
    pub fn idle_pct_of_total(&self) -> f64 {
        if self.total() == Ns::ZERO {
            return 0.0;
        }
        100.0 * self.idle.0 as f64 / self.total().0 as f64
    }

    /// Merges another breakdown into this one (summing every slice), e.g.
    /// to aggregate per-CPU breakdowns into a machine-wide one.
    pub fn merge(&mut self, other: &RunBreakdown) {
        for m in 0..2 {
            for c in 0..2 {
                for l in 0..3 {
                    self.stall[m][c][l] += other.stall[m][c][l];
                }
                self.hit_stall[m][c] += other.hit_stall[m][c];
            }
            self.busy[m] += other.busy[m];
        }
        self.idle += other.idle;
        self.mig_overhead += other.mig_overhead;
        self.rep_overhead += other.rep_overhead;
        self.local_misses += other.local_misses;
        self.remote_misses += other.remote_misses;
        self.far_misses += other.far_misses;
    }

    /// Number of values in the [`to_raw_parts`](RunBreakdown::to_raw_parts)
    /// flattening.
    pub const RAW_LEN: usize = 24;

    /// Flattens every accumulator into a fixed-order `u64` array, the
    /// result store's exact run serialization surface. Layout: the
    /// stall cube in `[mode][class][tier]` order (12), hit stall in
    /// `[mode][class]` order (4), busy per mode (2), idle, migration
    /// overhead, replication overhead, then local/remote/far miss
    /// counts.
    pub fn to_raw_parts(&self) -> [u64; RunBreakdown::RAW_LEN] {
        let mut out = [0u64; RunBreakdown::RAW_LEN];
        let mut i = 0;
        let mut push = |v: u64| {
            out[i] = v;
            i += 1;
        };
        for m in 0..2 {
            for c in 0..2 {
                for l in 0..3 {
                    push(self.stall[m][c][l].0);
                }
            }
        }
        for m in 0..2 {
            for c in 0..2 {
                push(self.hit_stall[m][c].0);
            }
        }
        push(self.busy[0].0);
        push(self.busy[1].0);
        push(self.idle.0);
        push(self.mig_overhead.0);
        push(self.rep_overhead.0);
        push(self.local_misses);
        push(self.remote_misses);
        push(self.far_misses);
        out
    }

    /// Rebuilds a breakdown from a
    /// [`to_raw_parts`](RunBreakdown::to_raw_parts) flattening.
    pub fn from_raw_parts(raw: [u64; RunBreakdown::RAW_LEN]) -> RunBreakdown {
        let mut b = RunBreakdown::new();
        let mut i = 0;
        let mut next = || {
            let v = raw[i];
            i += 1;
            v
        };
        for m in 0..2 {
            for c in 0..2 {
                for l in 0..3 {
                    b.stall[m][c][l] = Ns(next());
                }
            }
        }
        for m in 0..2 {
            for c in 0..2 {
                b.hit_stall[m][c] = Ns(next());
            }
        }
        b.busy[0] = Ns(next());
        b.busy[1] = Ns(next());
        b.idle = Ns(next());
        b.mig_overhead = Ns(next());
        b.rep_overhead = Ns(next());
        b.local_misses = next();
        b.remote_misses = next();
        b.far_misses = next();
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_parts_round_trip_exactly() {
        let mut b = RunBreakdown::new();
        b.add_busy(Mode::User, Ns(11));
        b.add_busy(Mode::Kernel, Ns(22));
        b.add_stall(Mode::User, RefClass::Data, true, Ns(33));
        b.add_stall_tier(Mode::Kernel, RefClass::Instr, StallTier::Far, Ns(44));
        b.add_hit_stall(Mode::User, RefClass::Instr, Ns(5));
        b.add_idle(Ns(6));
        b.add_mig_overhead(Ns(7));
        b.add_rep_overhead(Ns(8));
        let rebuilt = RunBreakdown::from_raw_parts(b.to_raw_parts());
        assert_eq!(rebuilt, b);
        assert_eq!(rebuilt.local_misses(), b.local_misses());
        assert_eq!(rebuilt.remote_misses(), b.remote_misses());
        assert_eq!(rebuilt.total(), b.total());
    }

    #[test]
    fn contention_stall_adds_time_without_counting_a_miss() {
        let mut b = RunBreakdown::new();
        b.add_stall_tier(Mode::User, RefClass::Data, StallTier::Remote, Ns(200));
        b.add_contention_stall(Mode::User, RefClass::Data, StallTier::Remote, Ns(50));
        assert_eq!(b.remote_misses(), 1, "the wait is not a second miss");
        assert_eq!(b.remote_stall(), Ns(250));

        // Equivalent to one combined charge, as the serial loop makes.
        let mut serial = RunBreakdown::new();
        serial.add_stall_tier(Mode::User, RefClass::Data, StallTier::Remote, Ns(250));
        assert_eq!(b, serial);
    }

    fn sample() -> RunBreakdown {
        let mut b = RunBreakdown::new();
        b.add_busy(Mode::User, Ns(500));
        b.add_busy(Mode::Kernel, Ns(100));
        b.add_stall(Mode::User, RefClass::Data, true, Ns(200));
        b.add_stall(Mode::User, RefClass::Instr, false, Ns(50));
        b.add_stall(Mode::Kernel, RefClass::Data, true, Ns(40));
        b.add_idle(Ns(110));
        b.add_mig_overhead(Ns(70));
        b.add_rep_overhead(Ns(30));
        b
    }

    #[test]
    fn totals_add_up() {
        let b = sample();
        assert_eq!(b.other(), Ns(600));
        assert_eq!(b.total_stall(), Ns(290));
        assert_eq!(b.policy_overhead(), Ns(100));
        assert_eq!(b.total(), Ns(1100));
        assert_eq!(b.non_idle(), Ns(990));
    }

    #[test]
    fn locality_split() {
        let b = sample();
        assert_eq!(b.local_stall(), Ns(50));
        assert_eq!(b.remote_stall(), Ns(240));
        assert_eq!(b.local_misses(), 1);
        assert_eq!(b.remote_misses(), 2);
        assert!((b.pct_local_misses() - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn table3_percentages() {
        let b = sample();
        // user data stall 200 of 990 non-idle
        assert!((b.stall_pct_of_nonidle(Mode::User, RefClass::Data) - 200.0 / 9.9).abs() < 1e-9);
        // kernel % of total: busy 100 + stall 40 + overhead 100 = 240 of 1100
        assert!((b.mode_pct_of_total(Mode::Kernel) - 24000.0 / 1100.0).abs() < 1e-9);
        assert!((b.idle_pct_of_total() - 10.0).abs() < 1e-9);
        // user % + kernel % + idle % = 100
        let sum = b.mode_pct_of_total(Mode::User)
            + b.mode_pct_of_total(Mode::Kernel)
            + b.idle_pct_of_total();
        assert!((sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_is_safe() {
        let b = RunBreakdown::new();
        assert_eq!(b.total(), Ns::ZERO);
        assert_eq!(b.pct_local_misses(), 0.0);
        assert_eq!(b.stall_pct_of_nonidle(Mode::User, RefClass::Data), 0.0);
        assert_eq!(b.mode_pct_of_total(Mode::User), 0.0);
        assert_eq!(b.idle_pct_of_total(), 0.0);
    }

    #[test]
    fn merge_sums_slices() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.total(), Ns(2200));
        assert_eq!(a.local_misses(), 2);
        assert_eq!(a.remote_misses(), 4);
        assert_eq!(a.mig_overhead(), Ns(140));
        assert_eq!(a.rep_overhead(), Ns(60));
        assert_eq!(a.mode_stall(Mode::Kernel), Ns(80));
    }

    #[test]
    fn far_tier_counts_as_off_node() {
        let mut b = RunBreakdown::new();
        b.add_stall_tier(Mode::User, RefClass::Data, StallTier::Local, Ns(100));
        b.add_stall_tier(Mode::User, RefClass::Data, StallTier::Remote, Ns(200));
        b.add_stall_tier(Mode::User, RefClass::Data, StallTier::Far, Ns(400));
        assert_eq!(b.local_stall(), Ns(100));
        assert_eq!(b.tier_stall(StallTier::Remote), Ns(200));
        assert_eq!(b.far_stall(), Ns(400));
        assert_eq!(b.remote_stall(), Ns(600), "remote includes far");
        assert_eq!(b.total_stall(), Ns(700));
        assert_eq!(b.local_misses(), 1);
        assert_eq!(b.far_misses(), 1);
        assert_eq!(b.remote_misses(), 2, "off-node misses include far");
        assert!((b.pct_local_misses() - 100.0 / 3.0).abs() < 1e-9);
        let mut merged = RunBreakdown::new();
        merged.merge(&b);
        assert_eq!(merged, b);
    }

    #[test]
    fn hit_stall_counts_in_table3_but_not_miss_split() {
        let mut b = RunBreakdown::new();
        b.add_busy(Mode::User, Ns(100));
        b.add_hit_stall(Mode::User, RefClass::Data, Ns(40));
        b.add_stall(Mode::User, RefClass::Data, true, Ns(60));
        assert_eq!(b.stall(Mode::User, RefClass::Data), Ns(100));
        assert_eq!(b.remote_stall(), Ns(60));
        assert_eq!(b.local_stall(), Ns::ZERO);
        assert_eq!(b.other(), Ns(100));
        assert_eq!(b.other_incl_hits(), Ns(140));
        assert_eq!(b.total(), Ns(200));
        assert_eq!(b.hit_stall_total(), Ns(40));
        let mut c = RunBreakdown::new();
        c.merge(&b);
        assert_eq!(c, b);
    }
}
