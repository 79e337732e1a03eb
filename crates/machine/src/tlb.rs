//! The per-processor TLB model.
//!
//! Residency is a bitmap over the page space: bit `p` is set while page
//! `p` has an entry. Workload page numbers are handed out densely from 0
//! (see `WorkloadSpec::page_bound`), so the bitmap is a few hundred words
//! and a lookup is one load, a shift and a mask. The FIFO ring holds the
//! resident pages in load order for replacement.

use ccnuma_types::{MachineConfig, VirtPage};

/// Sentinel marking an empty ring slot. Virtual page numbers are segment
/// offsets handed out by the workload generators and never reach
/// `u64::MAX`.
const EMPTY: u64 = u64::MAX;

/// A 64-entry (configurable) TLB with FIFO replacement.
///
/// Misses are what a software-reloaded-TLB OS can observe (the FT/ST
/// metrics of §8.3); shootdowns remove a single page's entry; context
/// switches flush everything (no ASIDs, like the paper's IRIX).
///
/// [`access`](Tlb::access) runs once per simulated memory reference, so
/// residency is a page-indexed bitmap rather than a map: a hit tests one
/// bit. The bitmap grows only when a refill loads a page beyond its end,
/// never on a lookup; a flush clears just the bits of the ring's pages.
///
/// # Examples
///
/// ```
/// use ccnuma_machine::Tlb;
/// use ccnuma_types::{MachineConfig, VirtPage};
///
/// let mut tlb = Tlb::new(&MachineConfig::cc_numa());
/// assert!(!tlb.access(VirtPage(1)));
/// assert!(tlb.access(VirtPage(1)));
/// tlb.shootdown(VirtPage(1));
/// assert!(!tlb.access(VirtPage(1)));
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    /// One bit per page: set while the page is resident.
    resident: Vec<u64>,
    /// FIFO ring of resident pages in load order; [`EMPTY`] when the
    /// slot is vacant or was shot down.
    ring: Vec<u64>,
    head: usize,
    len: usize,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// A TLB with the machine's entry count.
    pub fn new(cfg: &MachineConfig) -> Tlb {
        Tlb {
            resident: Vec::new(),
            ring: vec![EMPTY; cfg.tlb_entries as usize],
            head: 0,
            len: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Whether `page` has an entry. Pages beyond the bitmap never do.
    #[inline]
    fn is_resident(&self, page: u64) -> bool {
        self.resident
            .get((page / 64) as usize)
            .is_some_and(|w| w & (1 << (page % 64)) != 0)
    }

    /// Clears `page`'s residency bit; the page must be resident.
    #[inline]
    fn clear(&mut self, page: u64) {
        self.resident[(page / 64) as usize] &= !(1 << (page % 64));
    }

    /// Sets `page`'s residency bit, growing the bitmap to cover it.
    #[inline]
    fn set(&mut self, page: u64) {
        let word = (page / 64) as usize;
        if word >= self.resident.len() {
            self.resident.resize(word + 1, 0);
        }
        self.resident[word] |= 1 << (page % 64);
    }

    /// Accesses `page`; returns `true` on hit. On a miss the page is
    /// loaded into the next FIFO slot, evicting that slot's page.
    pub fn access(&mut self, page: VirtPage) -> bool {
        debug_assert_ne!(page.0, EMPTY, "u64::MAX is the vacancy sentinel");
        if self.is_resident(page.0) {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        let old = std::mem::replace(&mut self.ring[self.head], page.0);
        if old != EMPTY {
            self.clear(old);
            self.len -= 1;
        }
        self.set(page.0);
        self.len += 1;
        self.head += 1;
        if self.head == self.ring.len() {
            self.head = 0;
        }
        false
    }

    /// Removes `page`'s entry if resident (TLB shootdown for one page).
    pub fn shootdown(&mut self, page: VirtPage) {
        if self.is_resident(page.0) {
            self.clear(page.0);
            self.len -= 1;
            let slot = self
                .ring
                .iter()
                .position(|&p| p == page.0)
                .expect("resident pages are in the ring");
            self.ring[slot] = EMPTY;
        }
    }

    /// Flushes the whole TLB (context switch).
    pub fn flush(&mut self) {
        for slot in 0..self.ring.len() {
            let page = std::mem::replace(&mut self.ring[slot], EMPTY);
            if page != EMPTY {
                self.clear(page);
            }
        }
        self.head = 0;
        self.len = 0;
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb() -> Tlb {
        Tlb::new(&MachineConfig::cc_numa())
    }

    #[test]
    fn fits_64_pages() {
        let mut t = tlb();
        for p in 0..64u64 {
            assert!(!t.access(VirtPage(p)));
        }
        for p in 0..64u64 {
            assert!(t.access(VirtPage(p)));
        }
        assert_eq!(t.len(), 64);
    }

    #[test]
    fn fifo_eviction() {
        let mut t = tlb();
        for p in 0..65u64 {
            t.access(VirtPage(p));
        }
        assert!(!t.access(VirtPage(0)), "oldest entry evicted");
        // The refill of page 0 itself evicted page 1 (next FIFO slot);
        // page 2 is still resident.
        assert!(t.access(VirtPage(2)), "third entry still resident");
        assert!(!t.access(VirtPage(1)), "page 1 evicted by the refill");
    }

    #[test]
    fn flush_empties() {
        let mut t = tlb();
        for p in 0..10u64 {
            t.access(VirtPage(p));
        }
        t.flush();
        assert!(t.is_empty());
        assert!(!t.access(VirtPage(3)));
    }

    #[test]
    fn flush_keeps_counters() {
        let mut t = tlb();
        t.access(VirtPage(1));
        t.access(VirtPage(1));
        t.flush();
        assert_eq!(t.misses(), 1);
        assert_eq!(t.hits(), 1);
    }

    #[test]
    fn shootdown_is_precise() {
        let mut t = tlb();
        t.access(VirtPage(1));
        t.access(VirtPage(2));
        t.shootdown(VirtPage(1));
        assert!(!t.access(VirtPage(1)));
        assert!(t.access(VirtPage(2)));
        // shootdown of a non-resident page is a no-op
        t.shootdown(VirtPage(99));
        assert_eq!(t.hits(), 1);
    }

    #[test]
    fn counters_track() {
        let mut t = tlb();
        t.access(VirtPage(1));
        t.access(VirtPage(1));
        t.access(VirtPage(2));
        assert_eq!(t.misses(), 2);
        assert_eq!(t.hits(), 1);
    }

    #[test]
    fn pages_sharing_a_bitmap_word_survive_each_others_shootdown() {
        // Pages 0..64 share one residency word, 64 starts the next: a
        // shootdown must clear exactly its own bit.
        let mut t = tlb();
        let pages = [0u64, 1, 62, 63, 64];
        for &p in &pages {
            assert!(!t.access(VirtPage(p)));
        }
        t.shootdown(VirtPage(1));
        t.shootdown(VirtPage(63));
        for p in [0u64, 62, 64] {
            assert!(
                t.access(VirtPage(p)),
                "page {p} lost to a neighbour's shootdown"
            );
        }
        assert!(!t.access(VirtPage(1)));
        assert!(!t.access(VirtPage(63)));
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn refill_beyond_the_bitmap_grows_it() {
        let mut t = tlb();
        assert!(!t.access(VirtPage(5)));
        assert!(!t.access(VirtPage(100_000)));
        assert!(t.access(VirtPage(5)));
        assert!(t.access(VirtPage(100_000)));
        assert!(!t.access(VirtPage(99_999)));
    }

    #[test]
    fn churn_never_grows_past_capacity() {
        let mut t = tlb();
        for p in 0..10_000u64 {
            t.access(VirtPage(p % 777));
            assert!(t.len() <= 64);
        }
        assert_eq!(t.len(), 64);
    }
}
