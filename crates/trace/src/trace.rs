//! The trace container.

use crate::{MissRecord, MissSource, Sampler};
use ccnuma_types::{Mode, Ns, RefClass};
use core::fmt;

/// Error raised when a trace's time-ordering invariant would be violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    at: usize,
    prev: Ns,
    next: Ns,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace records out of order at index {}: {} follows {}",
            self.at, self.next, self.prev
        )
    }
}

impl std::error::Error for TraceError {}

/// Incrementally builds a [`Trace`], enforcing non-decreasing timestamps.
///
/// The machine simulator emits misses from per-CPU clocks; the builder
/// keeps them merged in time order, which the read-chain analysis and the
/// policy simulator both rely on.
///
/// # Examples
///
/// ```
/// use ccnuma_trace::{MissRecord, TraceBuilder};
/// use ccnuma_types::{Ns, Pid, ProcId, VirtPage};
///
/// let mut b = TraceBuilder::new();
/// b.push(MissRecord::user_data_read(Ns(1), ProcId(0), Pid(0), VirtPage(1)));
/// b.push(MissRecord::user_data_read(Ns(2), ProcId(1), Pid(1), VirtPage(2)));
/// assert_eq!(b.finish().len(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct TraceBuilder {
    records: Vec<MissRecord>,
}

impl TraceBuilder {
    /// Creates an empty builder.
    pub fn new() -> TraceBuilder {
        TraceBuilder::default()
    }

    /// Creates a builder with capacity for `n` records.
    pub fn with_capacity(n: usize) -> TraceBuilder {
        TraceBuilder {
            records: Vec::with_capacity(n),
        }
    }

    /// Appends a record. Out-of-order records are accepted and re-sorted at
    /// [`finish`](TraceBuilder::finish); use
    /// [`push_ordered`](TraceBuilder::push_ordered) to enforce ordering
    /// eagerly.
    #[inline]
    pub fn push(&mut self, record: MissRecord) {
        self.records.push(record);
    }

    /// Appends a record, checking that the timestamp does not go backwards.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if `record.time` precedes the last pushed
    /// record's time; the record is not appended.
    pub fn push_ordered(&mut self, record: MissRecord) -> Result<(), TraceError> {
        if let Some(last) = self.records.last() {
            if record.time < last.time {
                return Err(TraceError {
                    at: self.records.len(),
                    prev: last.time,
                    next: record.time,
                });
            }
        }
        self.records.push(record);
        Ok(())
    }

    /// Number of records pushed so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records were pushed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Finalises the trace, sorting by timestamp (stable, so per-CPU
    /// ordering of simultaneous events is preserved).
    pub fn finish(mut self) -> Trace {
        self.records.sort_by_key(|r| r.time);
        Trace {
            records: self.records,
        }
    }
}

/// A time-ordered sequence of [`MissRecord`]s.
///
/// Traces are immutable once built; all views are non-allocating iterators.
///
/// # Examples
///
/// ```
/// use ccnuma_trace::{MissRecord, Trace};
/// use ccnuma_types::{Ns, Pid, ProcId, VirtPage};
///
/// let trace: Trace = (0..10)
///     .map(|i| MissRecord::user_data_read(Ns(i), ProcId(0), Pid(0), VirtPage(i)))
///     .collect();
/// assert_eq!(trace.len(), 10);
/// assert_eq!(trace.sampled(10).len(), 1);
/// ```
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Trace {
    records: Vec<MissRecord>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records in time order.
    pub fn iter(&self) -> core::slice::Iter<'_, MissRecord> {
        self.records.iter()
    }

    /// The records as a slice.
    pub fn as_slice(&self) -> &[MissRecord] {
        &self.records
    }

    /// Only the secondary-cache misses.
    pub fn cache_misses(&self) -> impl Iterator<Item = &MissRecord> {
        self.records
            .iter()
            .filter(|r| r.source == MissSource::Cache)
    }

    /// Only the TLB misses.
    pub fn tlb_misses(&self) -> impl Iterator<Item = &MissRecord> {
        self.records.iter().filter(|r| r.source == MissSource::Tlb)
    }

    /// Only kernel-mode records (the §8.2 pmake study).
    pub fn kernel_only(&self) -> impl Iterator<Item = &MissRecord> {
        self.records.iter().filter(|r| r.mode == Mode::Kernel)
    }

    /// Only user-mode records.
    pub fn user_only(&self) -> impl Iterator<Item = &MissRecord> {
        self.records.iter().filter(|r| r.mode == Mode::User)
    }

    /// Only user-mode *data* cache misses — the Figure 4 population.
    pub fn user_data_cache_misses(&self) -> impl Iterator<Item = &MissRecord> {
        self.records.iter().filter(|r| r.is_user_data_cache_miss())
    }

    /// Fraction of records with the given class, among cache misses.
    pub fn cache_class_fraction(&self, class: RefClass) -> f64 {
        let total = self.cache_misses().count();
        if total == 0 {
            return 0.0;
        }
        let n = self.cache_misses().filter(|r| r.class == class).count();
        n as f64 / total as f64
    }

    /// A new trace with records matching `keep`, preserving order.
    pub fn filtered(&self, keep: impl FnMut(&MissRecord) -> bool) -> Trace {
        let mut keep = keep;
        Trace {
            records: self.records.iter().copied().filter(|r| keep(r)).collect(),
        }
    }

    /// A new trace keeping 1 in `rate` records, using the same
    /// deterministic count-based sampling the paper applies in the MAGIC
    /// handlers ("we use sampling, and count only one in ten invocations",
    /// §7.2.1).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    pub fn sampled(&self, rate: u32) -> Trace {
        let mut sampler = Sampler::new(rate);
        self.filtered(|_| sampler.admit())
    }

    /// Timestamp of the last record, or zero for an empty trace.
    pub fn end_time(&self) -> Ns {
        self.records.last().map_or(Ns::ZERO, |r| r.time)
    }

    /// The distinct pages referenced, in first-reference order.
    pub fn distinct_pages(&self) -> Vec<ccnuma_types::VirtPage> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for r in &self.records {
            if seen.insert(r.page) {
                out.push(r.page);
            }
        }
        out
    }
}

impl FromIterator<MissRecord> for Trace {
    fn from_iter<I: IntoIterator<Item = MissRecord>>(iter: I) -> Trace {
        let mut b = TraceBuilder::new();
        for r in iter {
            b.push(r);
        }
        b.finish()
    }
}

impl Extend<MissRecord> for Trace {
    fn extend<I: IntoIterator<Item = MissRecord>>(&mut self, iter: I) {
        self.records.extend(iter);
        self.records.sort_by_key(|r| r.time);
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a MissRecord;
    type IntoIter = core::slice::Iter<'a, MissRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl IntoIterator for Trace {
    type Item = MissRecord;
    type IntoIter = std::vec::IntoIter<MissRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma_types::{Pid, ProcId, VirtPage};

    fn rec(t: u64, page: u64) -> MissRecord {
        MissRecord::user_data_read(Ns(t), ProcId(0), Pid(0), VirtPage(page))
    }

    #[test]
    fn builder_sorts_on_finish() {
        let mut b = TraceBuilder::new();
        b.push(rec(5, 1));
        b.push(rec(1, 2));
        b.push(rec(3, 3));
        let t = b.finish();
        let times: Vec<u64> = t.iter().map(|r| r.time.0).collect();
        assert_eq!(times, vec![1, 3, 5]);
        assert_eq!(t.end_time(), Ns(5));
    }

    #[test]
    fn push_ordered_rejects_time_travel() {
        let mut b = TraceBuilder::new();
        b.push_ordered(rec(5, 1)).unwrap();
        let err = b.push_ordered(rec(4, 2)).unwrap_err();
        assert!(err.to_string().contains("out of order"));
        assert_eq!(b.len(), 1);
        b.push_ordered(rec(5, 3)).unwrap(); // equal timestamps fine
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn filters_partition_the_trace() {
        let mut b = TraceBuilder::new();
        b.push(rec(1, 1));
        b.push(rec(2, 2).as_tlb());
        let mut k = rec(3, 3);
        k.mode = Mode::Kernel;
        b.push(k);
        let t = b.finish();
        assert_eq!(t.cache_misses().count(), 2);
        assert_eq!(t.tlb_misses().count(), 1);
        assert_eq!(t.kernel_only().count(), 1);
        assert_eq!(t.user_only().count(), 2);
        assert_eq!(t.user_data_cache_misses().count(), 1);
    }

    #[test]
    fn sampling_keeps_one_in_n() {
        let t: Trace = (0..100).map(|i| rec(i, i)).collect();
        let s = t.sampled(10);
        assert_eq!(s.len(), 10);
        // First record of every group of 10 is kept.
        assert_eq!(s.as_slice()[0].time, Ns(0));
        assert_eq!(s.as_slice()[1].time, Ns(10));
    }

    #[test]
    fn sampled_rate_one_is_identity() {
        let t: Trace = (0..17).map(|i| rec(i, i)).collect();
        assert_eq!(t.sampled(1), t);
    }

    #[test]
    fn class_fraction() {
        let mut b = TraceBuilder::new();
        b.push(rec(1, 1));
        b.push(MissRecord::user_instr(
            Ns(2),
            ProcId(0),
            Pid(0),
            VirtPage(2),
        ));
        b.push(MissRecord::user_instr(
            Ns(3),
            ProcId(0),
            Pid(0),
            VirtPage(2),
        ));
        b.push(rec(4, 9).as_tlb()); // excluded: not a cache miss
        let t = b.finish();
        assert!((t.cache_class_fraction(RefClass::Instr) - 2.0 / 3.0).abs() < 1e-12);
        assert!((t.cache_class_fraction(RefClass::Data) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(Trace::new().cache_class_fraction(RefClass::Data), 0.0);
    }

    #[test]
    fn distinct_pages_first_reference_order() {
        let t: Trace = [rec(1, 5), rec(2, 3), rec(3, 5), rec(4, 1)]
            .into_iter()
            .collect();
        assert_eq!(
            t.distinct_pages(),
            vec![VirtPage(5), VirtPage(3), VirtPage(1)]
        );
    }

    #[test]
    fn extend_keeps_order() {
        let mut t: Trace = [rec(10, 1)].into_iter().collect();
        t.extend([rec(5, 2), rec(15, 3)]);
        let times: Vec<u64> = t.iter().map(|r| r.time.0).collect();
        assert_eq!(times, vec![5, 10, 15]);
    }
}
