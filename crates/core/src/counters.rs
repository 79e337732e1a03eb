//! Per-page counter state.
//!
//! The kernel implementation keeps, for each page, "a miss counter per
//! processor, a migrate counter, and a write counter" (Section 4),
//! periodically reset. We reset lazily: each page remembers the epoch of
//! its last update and clears itself when the global epoch has advanced,
//! which is observationally identical to a synchronous reset because a
//! counter is only consulted on the increment path.
//!
//! Two representations live here. [`PageCounters`] is the reference
//! model: one self-contained struct per page, easy to reason about and
//! the oracle the property tests compare against. [`CounterTable`] is
//! what the policy engine actually uses on the per-miss hot path: every
//! page's counters flattened into contiguous arrays indexed by
//! `slot × procs + proc`, where the caller names each page's slot — the
//! machine passes the page number, the §8 replay a slot its placement
//! map hands out — so no per-page heap allocation, no hashing and no
//! pointer chase stand between a miss and its counter.

use ccnuma_types::ProcId;

/// Counters for one page within the current reset interval.
///
/// # Examples
///
/// ```
/// use ccnuma_core::PageCounters;
/// use ccnuma_types::ProcId;
///
/// let mut c = PageCounters::new(8);
/// c.roll_epoch(0);
/// assert_eq!(c.record_miss(ProcId(3), false), 1);
/// assert_eq!(c.record_miss(ProcId(3), true), 2);
/// assert_eq!(c.writes(), 1);
/// c.roll_epoch(1); // reset interval elapsed
/// assert_eq!(c.miss_count(ProcId(3)), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageCounters {
    /// Per-processor miss counters (saturating at `cap`).
    misses: Vec<u32>,
    writes: u32,
    migrates: u32,
    epoch: u64,
    cap: u32,
    /// Page is frozen (not replicable) until this epoch (freeze/defrost).
    frozen_until: u64,
}

impl PageCounters {
    /// Creates zeroed counters for a machine with `procs` processors,
    /// saturating at `u32::MAX` (use [`with_cap`](PageCounters::with_cap)
    /// to model narrow hardware counters).
    pub fn new(procs: usize) -> PageCounters {
        PageCounters {
            misses: vec![0; procs],
            writes: 0,
            migrates: 0,
            epoch: 0,
            cap: u32::MAX,
            frozen_until: 0,
        }
    }

    /// Sets the saturation value (the paper's hardware uses 1-byte
    /// counters, cap 255).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    #[must_use]
    pub fn with_cap(mut self, cap: u32) -> PageCounters {
        assert!(cap > 0, "counter cap must be non-zero");
        self.cap = cap;
        self
    }

    /// Clears all counters if `epoch` has advanced past the stored one.
    /// Returns `true` when a reset happened.
    pub fn roll_epoch(&mut self, epoch: u64) -> bool {
        if epoch != self.epoch {
            self.misses.iter_mut().for_each(|m| *m = 0);
            self.writes = 0;
            self.migrates = 0;
            self.epoch = epoch;
            true
        } else {
            false
        }
    }

    /// Records a miss from `proc`, bumping the write counter when
    /// `is_write`. Returns the processor's new miss count.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range for the processor count given at
    /// construction.
    pub fn record_miss(&mut self, proc: ProcId, is_write: bool) -> u32 {
        let m = &mut self.misses[proc.index()];
        *m = m.saturating_add(1).min(self.cap);
        if is_write {
            self.writes = self.writes.saturating_add(1);
        }
        *m
    }

    /// Miss count for one processor in the current interval.
    pub fn miss_count(&self, proc: ProcId) -> u32 {
        self.misses[proc.index()]
    }

    /// Write count in the current interval.
    pub fn writes(&self) -> u32 {
        self.writes
    }

    /// Migration count in the current interval.
    pub fn migrates(&self) -> u32 {
        self.migrates
    }

    /// Records a migration of this page (the migrate-threshold input).
    pub fn record_migrate(&mut self) {
        self.migrates = self.migrates.saturating_add(1);
    }

    /// True when any processor other than `hot` has at least `sharing`
    /// misses — the node-2 sharing test of the decision tree.
    pub fn shared_beyond(&self, hot: ProcId, sharing: u32) -> bool {
        self.misses
            .iter()
            .enumerate()
            .any(|(i, &m)| i != hot.index() && m >= sharing)
    }

    /// The processor with the most misses this interval (ties broken by
    /// lowest processor number); used by the hotspot-migration extension.
    pub fn hottest_proc(&self) -> ProcId {
        let (idx, _) = self
            .misses
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .expect("PageCounters always has at least one processor");
        ProcId(idx as u16)
    }

    /// Zeroes the per-processor miss counters (done after a migration so
    /// the page must re-heat before the next move), while keeping write
    /// and migrate counters for the rest of the interval.
    pub fn clear_misses(&mut self) {
        self.misses.iter_mut().for_each(|m| *m = 0);
    }

    /// Zeroes one processor's miss counter (done after a replication or
    /// remap: the *other* sharers keep their accumulated counts so each
    /// can earn its own local copy within the same interval).
    pub fn clear_proc(&mut self, proc: ProcId) {
        self.misses[proc.index()] = 0;
    }

    /// Freezes the page (no replication) until `epoch`. Survives epoch
    /// rolls — that is the point of freezing.
    pub fn freeze_until(&mut self, epoch: u64) {
        self.frozen_until = self.frozen_until.max(epoch);
    }

    /// True while the page is frozen at `epoch`.
    pub fn is_frozen(&self, epoch: u64) -> bool {
        epoch < self.frozen_until
    }
}

/// A read-only snapshot of one page's counters inside a
/// [`CounterTable`]. Cheap to copy (two words and two integers);
/// instrumentation uses it to record the counter state behind a
/// decision without touching the table.
#[derive(Debug, Clone, Copy)]
pub struct PageCountersView<'a> {
    misses: &'a [u32],
    writes: u32,
    migrates: u32,
}

impl PageCountersView<'_> {
    /// Miss count for one processor in the current interval.
    pub fn miss_count(&self, proc: ProcId) -> u32 {
        self.misses[proc.index()]
    }

    /// Write count in the current interval.
    pub fn writes(&self) -> u32 {
        self.writes
    }

    /// Migration count in the current interval.
    pub fn migrates(&self) -> u32 {
        self.migrates
    }
}

/// Every tracked page's counters in contiguous arrays.
///
/// The policy engine consults counters on every counted miss, so the
/// per-page [`PageCounters`] boxes (each with its own heap-allocated
/// per-processor vector) are flattened: a slot's per-processor miss
/// counters live at `misses[slot × procs ..][..procs]` next to parallel
/// scalar arrays for writes, migrates, epochs, freezes and caps. Slots
/// are dense indices the caller chooses; the arrays grow only when a
/// slot beyond their end is first [`track`](CounterTable::track)ed.
/// Slots are never freed individually — [`clear`](CounterTable::clear)
/// drops everything — which matches the engine's lifecycle (pages
/// accumulate over a run, counters reset by epoch rolling in place).
///
/// Semantics are identical to driving one [`PageCounters`] per page;
/// the property tests in `crates/core/tests/props.rs` hold the two
/// representations against each other over random miss streams.
///
/// # Examples
///
/// ```
/// use ccnuma_core::CounterTable;
/// use ccnuma_types::ProcId;
///
/// let mut t = CounterTable::new(8);
/// let s = 7;
/// t.track(s, u32::MAX);
/// t.roll_epoch(s, 0);
/// assert_eq!(t.record_miss(s, ProcId(3), false), 1);
/// assert_eq!(t.record_miss(s, ProcId(3), true), 2);
/// assert_eq!(t.writes(s), 1);
/// t.roll_epoch(s, 1); // reset interval elapsed
/// assert_eq!(t.miss_count(s, ProcId(3)), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CounterTable {
    procs: usize,
    /// Slots with live counter state.
    tracked: usize,
    /// Per-processor miss counters, stride `procs` per slot.
    misses: Vec<u32>,
    writes: Vec<u32>,
    migrates: Vec<u32>,
    epochs: Vec<u64>,
    frozen_until: Vec<u64>,
    /// Per-slot saturation value, captured from the parameters live when
    /// the page was first counted (the engine's historical behaviour:
    /// adaptive parameter swaps only affect pages seen afterwards).
    /// Zero marks a slot that was never tracked (a live cap is never
    /// zero).
    caps: Vec<u32>,
}

impl CounterTable {
    /// An empty table for a machine with `procs` processors.
    ///
    /// # Panics
    ///
    /// Panics if `procs` is zero.
    pub fn new(procs: usize) -> CounterTable {
        assert!(procs > 0, "counter table needs at least one processor");
        CounterTable {
            procs,
            ..CounterTable::default()
        }
    }

    /// Number of pages with live counter state.
    pub fn len(&self) -> usize {
        self.tracked
    }

    /// True when no page is tracked.
    pub fn is_empty(&self) -> bool {
        self.tracked == 0
    }

    /// Drops every page's state, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        self.tracked = 0;
        self.misses.clear();
        self.writes.clear();
        self.migrates.clear();
        self.epochs.clear();
        self.frozen_until.clear();
        self.caps.clear();
    }

    /// Starts tracking `slot` with zeroed counters saturating at `cap`,
    /// unless it is already tracked (its counters and cap then stay).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    #[inline]
    pub fn track(&mut self, slot: usize, cap: u32) {
        if self.caps.get(slot).is_some_and(|&c| c != 0) {
            return;
        }
        assert!(cap > 0, "counter cap must be non-zero");
        if slot >= self.caps.len() {
            self.grow(slot + 1);
        }
        self.caps[slot] = cap;
        self.tracked += 1;
    }

    /// Grows every array to `slots` slots; the new ones are untracked
    /// and zeroed.
    #[cold]
    fn grow(&mut self, slots: usize) {
        self.misses.resize(slots * self.procs, 0);
        self.writes.resize(slots, 0);
        self.migrates.resize(slots, 0);
        self.epochs.resize(slots, 0);
        self.frozen_until.resize(slots, 0);
        self.caps.resize(slots, 0);
    }

    /// A read-only view of `slot`'s counters, if it is tracked.
    pub fn get(&self, slot: usize) -> Option<PageCountersView<'_>> {
        if self.caps.get(slot).is_none_or(|&c| c == 0) {
            return None;
        }
        Some(PageCountersView {
            misses: self.row(slot),
            writes: self.writes[slot],
            migrates: self.migrates[slot],
        })
    }

    #[inline]
    fn row(&self, slot: usize) -> &[u32] {
        &self.misses[slot * self.procs..(slot + 1) * self.procs]
    }

    #[inline]
    fn row_mut(&mut self, slot: usize) -> &mut [u32] {
        &mut self.misses[slot * self.procs..(slot + 1) * self.procs]
    }

    /// Clears `slot`'s counters if `epoch` has advanced past the stored
    /// one. Returns `true` when a reset happened.
    pub fn roll_epoch(&mut self, slot: usize, epoch: u64) -> bool {
        if epoch != self.epochs[slot] {
            self.row_mut(slot).fill(0);
            self.writes[slot] = 0;
            self.migrates[slot] = 0;
            self.epochs[slot] = epoch;
            true
        } else {
            false
        }
    }

    /// Records a miss from `proc`, bumping the write counter when
    /// `is_write`. Returns the processor's new miss count.
    pub fn record_miss(&mut self, slot: usize, proc: ProcId, is_write: bool) -> u32 {
        let cap = self.caps[slot];
        let procs = self.procs;
        let m = &mut self.misses[slot * procs + proc.index()];
        *m = m.saturating_add(1).min(cap);
        let count = *m;
        if is_write {
            self.writes[slot] = self.writes[slot].saturating_add(1);
        }
        count
    }

    /// Miss count for one processor in the current interval.
    pub fn miss_count(&self, slot: usize, proc: ProcId) -> u32 {
        self.misses[slot * self.procs + proc.index()]
    }

    /// Write count in the current interval.
    pub fn writes(&self, slot: usize) -> u32 {
        self.writes[slot]
    }

    /// Migration count in the current interval.
    pub fn migrates(&self, slot: usize) -> u32 {
        self.migrates[slot]
    }

    /// Records a migration of the page (the migrate-threshold input).
    pub fn record_migrate(&mut self, slot: usize) {
        self.migrates[slot] = self.migrates[slot].saturating_add(1);
    }

    /// True when any processor other than `hot` has at least `sharing`
    /// misses — the node-2 sharing test of the decision tree.
    pub fn shared_beyond(&self, slot: usize, hot: ProcId, sharing: u32) -> bool {
        self.row(slot)
            .iter()
            .enumerate()
            .any(|(i, &m)| i != hot.index() && m >= sharing)
    }

    /// Zeroes the per-processor miss counters (done after a migration so
    /// the page must re-heat), keeping write and migrate counters.
    pub fn clear_misses(&mut self, slot: usize) {
        self.row_mut(slot).fill(0);
    }

    /// Zeroes one processor's miss counter (done after a replication or
    /// remap so the other sharers keep their accumulated counts).
    pub fn clear_proc(&mut self, slot: usize, proc: ProcId) {
        self.misses[slot * self.procs + proc.index()] = 0;
    }

    /// Freezes the page (no replication) until `epoch`. Survives epoch
    /// rolls — that is the point of freezing.
    pub fn freeze_until(&mut self, slot: usize, epoch: u64) {
        self.frozen_until[slot] = self.frozen_until[slot].max(epoch);
    }

    /// True while the page is frozen at `epoch`.
    pub fn is_frozen(&self, slot: usize, epoch: u64) -> bool {
        epoch < self.frozen_until[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read_back() {
        let mut c = PageCounters::new(4);
        assert_eq!(c.record_miss(ProcId(0), false), 1);
        assert_eq!(c.record_miss(ProcId(0), false), 2);
        assert_eq!(c.record_miss(ProcId(2), true), 1);
        assert_eq!(c.miss_count(ProcId(0)), 2);
        assert_eq!(c.miss_count(ProcId(1)), 0);
        assert_eq!(c.writes(), 1);
    }

    #[test]
    fn epoch_roll_clears_everything() {
        let mut c = PageCounters::new(2);
        c.record_miss(ProcId(0), true);
        c.record_migrate();
        assert!(c.roll_epoch(5));
        assert_eq!(c.miss_count(ProcId(0)), 0);
        assert_eq!(c.writes(), 0);
        assert_eq!(c.migrates(), 0);
        // same epoch: no reset
        c.record_miss(ProcId(1), false);
        assert!(!c.roll_epoch(5));
        assert_eq!(c.miss_count(ProcId(1)), 1);
    }

    #[test]
    fn sharing_test_excludes_hot_processor() {
        let mut c = PageCounters::new(3);
        for _ in 0..10 {
            c.record_miss(ProcId(0), false);
        }
        for _ in 0..3 {
            c.record_miss(ProcId(1), false);
        }
        assert!(c.shared_beyond(ProcId(0), 3));
        assert!(!c.shared_beyond(ProcId(0), 4));
        // From p1's view, p0's 10 misses make it shared even at high thresholds.
        assert!(c.shared_beyond(ProcId(1), 10));
        // A processor alone on the page is never "shared".
        let mut solo = PageCounters::new(3);
        solo.record_miss(ProcId(2), false);
        assert!(!solo.shared_beyond(ProcId(2), 1));
    }

    #[test]
    fn hottest_proc_breaks_ties_low() {
        let mut c = PageCounters::new(4);
        c.record_miss(ProcId(1), false);
        c.record_miss(ProcId(3), false);
        assert_eq!(c.hottest_proc(), ProcId(1));
        c.record_miss(ProcId(3), false);
        assert_eq!(c.hottest_proc(), ProcId(3));
    }

    #[test]
    fn clear_misses_keeps_write_and_migrate() {
        let mut c = PageCounters::new(2);
        c.record_miss(ProcId(0), true);
        c.record_migrate();
        c.clear_misses();
        assert_eq!(c.miss_count(ProcId(0)), 0);
        assert_eq!(c.writes(), 1);
        assert_eq!(c.migrates(), 1);
    }

    #[test]
    fn counters_saturate() {
        let mut c = PageCounters::new(1);
        for _ in 0..10 {
            c.record_miss(ProcId(0), true);
        }
        // force saturation path without 4 billion iterations: clone state
        let mut big = c.clone();
        for _ in 0..20 {
            big.record_miss(ProcId(0), true);
        }
        assert!(big.miss_count(ProcId(0)) >= c.miss_count(ProcId(0)));
    }

    #[test]
    fn freeze_survives_epoch_roll() {
        let mut c = PageCounters::new(2);
        c.freeze_until(5);
        assert!(c.is_frozen(4));
        c.roll_epoch(3);
        assert!(c.is_frozen(4), "rolling the counters must not defrost");
        assert!(!c.is_frozen(5));
        // freezing never shortens an existing freeze
        c.freeze_until(2);
        assert!(c.is_frozen(4));
    }

    #[test]
    fn cap_saturates_misses() {
        let mut c = PageCounters::new(1).with_cap(3);
        for _ in 0..10 {
            c.record_miss(ProcId(0), false);
        }
        assert_eq!(c.miss_count(ProcId(0)), 3);
        // epoch roll resets below the cap again
        c.roll_epoch(1);
        assert_eq!(c.record_miss(ProcId(0), false), 1);
    }

    #[test]
    #[should_panic]
    fn out_of_range_proc_panics() {
        let mut c = PageCounters::new(2);
        c.record_miss(ProcId(2), false);
    }
}
