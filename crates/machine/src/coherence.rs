//! Write-invalidate coherence bookkeeping.
//!
//! Sharer sets live in page rows: each page that has ever been filled
//! or written owns one row of `lines_per_page × stride` bytes in a flat
//! arena (`stride` = bytes per sharer set, one bit per processor), and
//! a page-indexed slot array finds the row. Workload page numbers are
//! dense from 0 (see `WorkloadSpec::page_bound`), so the slot array is
//! as long as the page space and a lookup is two loads, with no
//! hashing.

use ccnuma_types::{MachineConfig, ProcId, ProcSet, VirtPage};

/// Slot-array mark for a page without a row.
const NO_ROW: u32 = u32::MAX;

/// Tracks which processors cache each line, so a write can invalidate
/// the other holders — the directory's sharing vector, reduced to what
/// the simulator needs. Sized for the machine at construction
/// ([`CoherenceDir::for_machine`]), up to [`ProcSet::MAX_PROCS`]
/// processors.
///
/// This table is consulted on every simulated write and every L2 fill,
/// so it is built for the hot path: a page-indexed slot array gives the
/// page's row, and the line's sharing vector sits at a fixed offset in
/// it. A sharing vector is `ceil(procs / 8)` bytes: one per line on the
/// paper's 8-processor machine (a 32-byte page row), 128 on a
/// 1024-processor one — and in both cases [`write`](CoherenceDir::write)
/// decodes the victims into a caller-owned [`ProcSet`] scratch, eight
/// bytes per word, so the per-reference path never allocates once a
/// page has its row. Rows are allocated on a page's first fill or
/// write, never on a lookup, and are kept for the run (an evicted line
/// just reads as an empty sharer set).
///
/// # Examples
///
/// ```
/// use ccnuma_machine::CoherenceDir;
/// use ccnuma_types::{ProcId, ProcSet, VirtPage};
///
/// let mut dir = CoherenceDir::new();
/// let mut victims = ProcSet::with_capacity_for(64);
/// dir.record_fill(ProcId(0), VirtPage(1), 4);
/// dir.record_fill(ProcId(2), VirtPage(1), 4);
/// dir.write(ProcId(0), VirtPage(1), 4, &mut victims);
/// assert_eq!(victims.iter().collect::<Vec<_>>(), vec![ProcId(2)]);
/// ```
#[derive(Debug, Clone)]
pub struct CoherenceDir {
    /// Page → row index into the `bytes` arena, [`NO_ROW`] when the page
    /// has none. Grows only when a row is allocated.
    row_of: Vec<u32>,
    /// Sharing vectors: `row_len` bytes per row, `stride` per line;
    /// processor `p` is bit `p % 8` of byte `p / 8`.
    bytes: Vec<u8>,
    /// Lines per page.
    lines: u16,
    /// Bytes per sharing vector (`ceil(max_procs / 8)`).
    stride: usize,
    /// Bytes per page row (`lines × stride`).
    row_len: usize,
    max_procs: u16,
}

impl CoherenceDir {
    /// An empty directory for the paper's machine sizes (up to 64
    /// processors, eight bytes per line).
    pub fn new() -> CoherenceDir {
        CoherenceDir::with_procs(64)
    }

    /// An empty directory sized for a machine with `procs` processors
    /// and the paper's 32 lines per page.
    ///
    /// # Panics
    ///
    /// Panics if `procs` is zero or exceeds [`ProcSet::MAX_PROCS`].
    pub fn with_procs(procs: u16) -> CoherenceDir {
        CoherenceDir::sized(procs, MachineConfig::cc_numa().lines_per_page())
    }

    /// An empty directory for `cfg`'s processors and lines per page,
    /// sized for pages `0..pages` (a workload's page bound). The arena
    /// reserves a row for every page up front, so it never moves while
    /// rows are added; only the rows of pages actually filled or
    /// written are ever touched.
    ///
    /// # Panics
    ///
    /// Panics if the machine has more than [`ProcSet::MAX_PROCS`]
    /// processors or more than `u16::MAX` lines per page.
    pub fn for_machine(cfg: &MachineConfig, pages: u64) -> CoherenceDir {
        let mut dir = CoherenceDir::sized(cfg.procs(), cfg.lines_per_page());
        let pages = usize::try_from(pages).expect("page bound fits in usize");
        dir.row_of = vec![NO_ROW; pages];
        dir.bytes = Vec::with_capacity(pages * dir.row_len);
        dir
    }

    fn sized(procs: u16, lines: u32) -> CoherenceDir {
        assert!(
            procs > 0 && procs <= ProcSet::MAX_PROCS,
            "coherence dir supports 1..={} processors, got {procs}",
            ProcSet::MAX_PROCS
        );
        let lines = u16::try_from(lines).expect("lines per page fit in u16");
        let stride = procs.div_ceil(8) as usize;
        CoherenceDir {
            row_of: Vec::new(),
            bytes: Vec::new(),
            lines,
            stride,
            row_len: lines as usize * stride,
            max_procs: procs,
        }
    }

    /// The processor capacity this directory was sized for.
    pub fn max_procs(&self) -> u16 {
        self.max_procs
    }

    /// Bounds-check once per entry point — an out-of-range processor
    /// or line would otherwise corrupt a neighbouring sharing vector
    /// silently.
    #[inline]
    fn check(&self, proc: ProcId, line: u16) {
        assert!(
            proc.0 < self.max_procs,
            "coherence dir supports up to {} processors",
            self.max_procs
        );
        assert!(
            line < self.lines,
            "line {line} beyond {} per page",
            self.lines
        );
    }

    /// The arena offset of `page`'s row, if it has one.
    #[inline]
    fn row_base(&self, page: VirtPage) -> Option<usize> {
        match self.row_of.get(page.0 as usize) {
            Some(&row) if row != NO_ROW => Some(row as usize * self.row_len),
            _ => None,
        }
    }

    /// The arena offset of (`page`, `line`)'s sharing vector, allocating
    /// the page's row on its first fill or write.
    #[inline]
    fn line_base(&mut self, page: VirtPage, line: u16) -> usize {
        let base = match self.row_base(page) {
            Some(base) => base,
            None => self.new_row(page),
        };
        base + line as usize * self.stride
    }

    /// Allocates a zeroed row for `page`, growing the slot array to
    /// cover it.
    #[cold]
    fn new_row(&mut self, page: VirtPage) -> usize {
        let idx = usize::try_from(page.0).expect("page number fits in usize");
        if idx >= self.row_of.len() {
            self.row_of.resize(idx + 1, NO_ROW);
        }
        let base = self.bytes.len();
        self.row_of[idx] = u32::try_from(base / self.row_len).expect("row count fits in u32");
        self.bytes.resize(base + self.row_len, 0);
        base
    }

    /// Records that `proc` now caches (`page`, `line`).
    ///
    /// # Panics
    ///
    /// Panics if `proc` is beyond the directory's capacity or `line`
    /// beyond the page.
    pub fn record_fill(&mut self, proc: ProcId, page: VirtPage, line: u16) {
        self.check(proc, line);
        let base = self.line_base(page, line);
        self.bytes[base + proc.index() / 8] |= 1 << (proc.index() % 8);
    }

    /// Records that `proc` lost (`page`, `line`) to eviction.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is beyond the directory's capacity or `line`
    /// beyond the page.
    pub fn record_evict(&mut self, proc: ProcId, page: VirtPage, line: u16) {
        self.check(proc, line);
        if let Some(base) = self.row_base(page) {
            let base = base + line as usize * self.stride;
            self.bytes[base + proc.index() / 8] &= !(1 << (proc.index() % 8));
        }
    }

    /// A write by `proc`: every *other* holder must invalidate. Fills
    /// `victims` with the victim set (usually empty: no other holder)
    /// and leaves `proc` as the sole holder. The caller owns and reuses
    /// the scratch set, so the hot path stays allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is beyond the directory's capacity, `line`
    /// beyond the page, or if `victims` was sized for a different
    /// machine.
    pub fn write(&mut self, proc: ProcId, page: VirtPage, line: u16, victims: &mut ProcSet) {
        self.check(proc, line);
        let stride = self.stride;
        let base = self.line_base(page, line);
        let dst = victims.words_mut();
        assert_eq!(
            dst.len(),
            stride.div_ceil(8),
            "victim set sized for a different machine"
        );
        let set = &mut self.bytes[base..base + stride];
        for (word, chunk) in dst.iter_mut().zip(set.chunks(8)) {
            *word = chunk.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
        }
        dst[proc.index() / 64] &= !(1 << (proc.index() % 64));
        set.fill(0);
        set[proc.index() / 8] = 1 << (proc.index() % 8);
    }

    /// Holders of (`page`, `line`), lowest processor first. Diagnostic
    /// convenience — allocates, so keep it off the per-reference path.
    pub fn holders_of(&self, page: VirtPage, line: u16) -> Vec<ProcId> {
        let Some(base) = self.row_base(page) else {
            return Vec::new();
        };
        let base = base + line as usize * self.stride;
        let mut out = Vec::new();
        for (bi, &byte) in self.bytes[base..base + self.stride].iter().enumerate() {
            let mut b = byte;
            while b != 0 {
                out.push(ProcId((bi * 8 + b.trailing_zeros() as usize) as u16));
                b &= b - 1;
            }
        }
        out
    }

    /// Number of lines with at least one holder. Scans every row, so
    /// keep it off the per-reference path.
    pub fn len(&self) -> usize {
        self.bytes
            .chunks_exact(self.stride)
            .filter(|set| set.iter().any(|&b| b != 0))
            .count()
    }

    /// True when no line has a holder.
    pub fn is_empty(&self) -> bool {
        self.bytes.iter().all(|&b| b == 0)
    }
}

impl Default for CoherenceDir {
    fn default() -> CoherenceDir {
        CoherenceDir::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a write and decodes the victims, the way the runner does.
    fn write_victims(d: &mut CoherenceDir, proc: ProcId, page: VirtPage, line: u16) -> Vec<ProcId> {
        let mut victims = ProcSet::with_capacity_for(d.max_procs());
        d.write(proc, page, line, &mut victims);
        victims.iter().collect()
    }

    #[test]
    fn fill_and_write_invalidate() {
        let mut d = CoherenceDir::new();
        d.record_fill(ProcId(0), VirtPage(1), 0);
        d.record_fill(ProcId(1), VirtPage(1), 0);
        d.record_fill(ProcId(5), VirtPage(1), 0);
        let v = write_victims(&mut d, ProcId(1), VirtPage(1), 0);
        assert_eq!(v, vec![ProcId(0), ProcId(5)]);
        assert_eq!(d.holders_of(VirtPage(1), 0), vec![ProcId(1)]);
    }

    #[test]
    fn write_by_sole_holder_invalidates_nobody() {
        let mut d = CoherenceDir::new();
        d.record_fill(ProcId(3), VirtPage(2), 7);
        assert!(write_victims(&mut d, ProcId(3), VirtPage(2), 7).is_empty());
    }

    #[test]
    fn evict_clears_holder() {
        let mut d = CoherenceDir::new();
        d.record_fill(ProcId(0), VirtPage(1), 0);
        d.record_evict(ProcId(0), VirtPage(1), 0);
        assert!(d.is_empty());
        // evicting a non-holder is a no-op
        d.record_evict(ProcId(1), VirtPage(1), 0);
        assert!(d.holders_of(VirtPage(1), 0).is_empty());
    }

    #[test]
    fn lines_are_independent() {
        let mut d = CoherenceDir::new();
        d.record_fill(ProcId(0), VirtPage(1), 0);
        d.record_fill(ProcId(0), VirtPage(1), 1);
        assert_eq!(
            write_victims(&mut d, ProcId(2), VirtPage(1), 0),
            vec![ProcId(0)]
        );
        assert_eq!(d.holders_of(VirtPage(1), 1), vec![ProcId(0)]);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn proc_63_is_the_last_representable_holder() {
        let mut d = CoherenceDir::new();
        d.record_fill(ProcId(63), VirtPage(1), 0);
        assert_eq!(
            write_victims(&mut d, ProcId(0), VirtPage(1), 0),
            vec![ProcId(63)]
        );
    }

    #[test]
    fn large_machines_cross_word_boundaries() {
        let mut d = CoherenceDir::with_procs(128);
        assert_eq!(d.max_procs(), 128);
        d.record_fill(ProcId(1), VirtPage(1), 0);
        d.record_fill(ProcId(64), VirtPage(1), 0);
        d.record_fill(ProcId(127), VirtPage(1), 0);
        assert_eq!(
            d.holders_of(VirtPage(1), 0),
            vec![ProcId(1), ProcId(64), ProcId(127)]
        );
        let v = write_victims(&mut d, ProcId(127), VirtPage(1), 0);
        assert_eq!(v, vec![ProcId(1), ProcId(64)]);
        assert_eq!(d.holders_of(VirtPage(1), 0), vec![ProcId(127)]);
    }

    /// Victims decode from bytes into words at every byte and word edge,
    /// including a last word only partly backed by bytes (100
    /// processors: 13 bytes, 2 words).
    #[test]
    fn victims_decode_across_byte_and_word_edges() {
        for procs in [8, 100, 1024] {
            let mut d = CoherenceDir::with_procs(procs);
            let holders: Vec<ProcId> = [0, 7, 8, 63, 64, 99, 512, 1023]
                .into_iter()
                .filter(|&p| p < procs)
                .map(ProcId)
                .collect();
            for &p in &holders {
                d.record_fill(p, VirtPage(3), 31);
            }
            assert_eq!(d.holders_of(VirtPage(3), 31), holders, "{procs}");
            let writer = holders[1];
            let mut want = holders.clone();
            want.retain(|&p| p != writer);
            assert_eq!(write_victims(&mut d, writer, VirtPage(3), 31), want);
            assert_eq!(d.holders_of(VirtPage(3), 31), vec![writer]);
        }
    }

    #[test]
    fn evicted_lines_read_empty_and_refill_cleanly() {
        let mut d = CoherenceDir::with_procs(256);
        d.record_fill(ProcId(200), VirtPage(1), 0);
        d.record_evict(ProcId(200), VirtPage(1), 0);
        assert!(d.is_empty());
        // The page keeps its row; a later fill of the same line must not
        // see the evicted holder.
        d.record_fill(ProcId(3), VirtPage(1), 0);
        assert_eq!(d.holders_of(VirtPage(1), 0), vec![ProcId(3)]);
        d.record_fill(ProcId(3), VirtPage(9), 5);
        assert_eq!(d.holders_of(VirtPage(9), 5), vec![ProcId(3)]);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn rows_follow_the_machine_shape() {
        let cfg = MachineConfig::cc_numa().with_nodes(2);
        let mut d = CoherenceDir::for_machine(&cfg, 40);
        assert_eq!(d.max_procs(), 2);
        // Page 40 lies just past the sized bound: its fill grows the
        // slot array.
        d.record_fill(ProcId(1), VirtPage(40), 31);
        assert_eq!(d.holders_of(VirtPage(40), 31), vec![ProcId(1)]);
        assert!(d.holders_of(VirtPage(39), 31).is_empty());
        assert!(d.holders_of(VirtPage(41), 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "beyond 32 per page")]
    fn record_fill_rejects_out_of_range_line() {
        CoherenceDir::new().record_fill(ProcId(0), VirtPage(1), 32);
    }

    #[test]
    #[should_panic(expected = "up to 64 processors")]
    fn record_fill_rejects_out_of_range_proc() {
        CoherenceDir::new().record_fill(ProcId(64), VirtPage(1), 0);
    }

    #[test]
    #[should_panic(expected = "up to 64 processors")]
    fn record_evict_rejects_out_of_range_proc() {
        let mut d = CoherenceDir::new();
        d.record_fill(ProcId(0), VirtPage(1), 0);
        d.record_evict(ProcId(64), VirtPage(1), 0);
    }

    #[test]
    #[should_panic(expected = "up to 64 processors")]
    fn write_rejects_out_of_range_proc() {
        let mut victims = ProcSet::with_capacity_for(64);
        CoherenceDir::new().write(ProcId(64), VirtPage(1), 0, &mut victims);
    }

    #[test]
    #[should_panic(expected = "sized for a different machine")]
    fn write_rejects_mismatched_victim_set() {
        let mut victims = ProcSet::with_capacity_for(128);
        CoherenceDir::new().write(ProcId(0), VirtPage(1), 0, &mut victims);
    }
}
