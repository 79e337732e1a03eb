//! The unified second-level cache model.

use ccnuma_types::{MachineConfig, VirtPage};

/// A two-way (configurable) set-associative L2 cache with LRU
/// replacement, indexed by global line number (page × lines-per-page +
/// line). Lines are identified virtually — the simulator has a single
/// global address space — so cached data stays valid across page
/// migration, exactly as hardware coherence keeps caches valid when the
/// OS moves a page.
///
/// # Examples
///
/// ```
/// use ccnuma_machine::L2Cache;
/// use ccnuma_types::{MachineConfig, VirtPage};
///
/// let cfg = MachineConfig::cc_numa();
/// let mut l2 = L2Cache::new(&cfg);
/// assert!(!l2.access(VirtPage(1), 0)); // cold miss
/// assert!(l2.access(VirtPage(1), 0));  // hit
/// ```
#[derive(Debug, Clone)]
pub struct L2Cache {
    sets: usize,
    /// `sets - 1` when `sets` is a power of two (as in every validated
    /// geometry: 512 KiB / (128 B × 2 ways) = 2048), so a line's set is
    /// a mask of its id instead of a division.
    set_mask: Option<u64>,
    ways: usize,
    lines_per_page: u64,
    /// tags[set * ways + way] = line id + 1 (0 = invalid).
    tags: Vec<u64>,
    /// LRU order: lower = more recent; same indexing as tags.
    stamp: Vec<u64>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl L2Cache {
    /// A cache with the machine's L2 geometry.
    pub fn new(cfg: &MachineConfig) -> L2Cache {
        let sets = cfg.l2_sets() as usize;
        let ways = cfg.l2_ways as usize;
        L2Cache {
            sets,
            set_mask: sets.is_power_of_two().then(|| sets as u64 - 1),
            ways,
            lines_per_page: cfg.lines_per_page() as u64,
            tags: vec![0; sets * ways],
            stamp: vec![0; sets * ways],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn line_id(&self, page: VirtPage, line: u16) -> u64 {
        page.0 * self.lines_per_page + line as u64
    }

    /// The set holding line `id`.
    #[inline]
    fn set_of(&self, id: u64) -> usize {
        match self.set_mask {
            Some(mask) => (id & mask) as usize,
            None => (id % self.sets as u64) as usize,
        }
    }

    /// Accesses (`page`, `line`); returns `true` on hit. On a miss the
    /// line is filled, evicting the set's LRU way.
    pub fn access(&mut self, page: VirtPage, line: u16) -> bool {
        let line = self.line_id(page, line);
        let set = self.set_of(line);
        let id = line + 1;
        self.tick += 1;
        let base = set * self.ways;
        let ways = &mut self.tags[base..base + self.ways];
        if let Some(w) = ways.iter().position(|&t| t == id) {
            self.stamp[base + w] = self.tick;
            self.hits += 1;
            return true;
        }
        // Miss: evict LRU (or an invalid way).
        self.misses += 1;
        let victim = (0..self.ways)
            .min_by_key(|&w| {
                if self.tags[base + w] == 0 {
                    0
                } else {
                    self.stamp[base + w] + 1
                }
            })
            .expect("ways > 0");
        self.tags[base + victim] = id;
        self.stamp[base + victim] = self.tick;
        false
    }

    /// Invalidates (`page`, `line`) if present (coherence write from
    /// another CPU). Returns `true` when a line was dropped.
    pub fn invalidate(&mut self, page: VirtPage, line: u16) -> bool {
        let line = self.line_id(page, line);
        let set = self.set_of(line);
        let id = line + 1;
        let base = set * self.ways;
        for w in 0..self.ways {
            if self.tags[base + w] == id {
                self.tags[base + w] = 0;
                return true;
            }
        }
        false
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio over all accesses (0 when no accesses yet).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> L2Cache {
        L2Cache::new(&MachineConfig::cc_numa())
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = cache();
        assert!(!c.access(VirtPage(5), 3));
        assert!(c.access(VirtPage(5), 3));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.miss_ratio(), 0.5);
    }

    #[test]
    fn distinct_lines_do_not_alias_within_capacity() {
        let mut c = cache();
        // 2048 sets × 2 ways = 4096 lines = 128 pages of 32 lines.
        for p in 0..128u64 {
            for l in 0..32u16 {
                assert!(!c.access(VirtPage(p), l));
            }
        }
        for p in 0..128u64 {
            for l in 0..32u16 {
                assert!(c.access(VirtPage(p), l), "page {p} line {l} evicted");
            }
        }
    }

    #[test]
    fn capacity_eviction_lru() {
        let mut c = cache();
        // Three lines mapping to the same set: ids differ by sets.
        let sets = 2048u64;
        let a = VirtPage(0);
        let b = VirtPage(sets / 32); // line id 0 of this page aliases set 0
        let d = VirtPage(2 * sets / 32);
        assert!(!c.access(a, 0));
        assert!(!c.access(b, 0));
        assert!(c.access(a, 0), "a is MRU");
        assert!(!c.access(d, 0)); // evicts b (LRU)
        assert!(c.access(a, 0));
        assert!(!c.access(b, 0), "b was evicted");
    }

    #[test]
    fn invalidate_forces_remiss() {
        let mut c = cache();
        c.access(VirtPage(9), 1);
        assert!(c.invalidate(VirtPage(9), 1));
        assert!(!c.invalidate(VirtPage(9), 1), "already gone");
        assert!(!c.access(VirtPage(9), 1), "must miss after invalidate");
    }

    #[test]
    fn sets_that_are_not_a_power_of_two_index_by_remainder() {
        // 3 sets × 2 ways: lines 0, 3 and 6 share set 0 (a mask of 2
        // would put line 6 in set 2).
        let mut cfg = MachineConfig::cc_numa();
        cfg.l2_bytes = 3 * 2 * cfg.line_size;
        let mut c = L2Cache::new(&cfg);
        assert_eq!(c.set_mask, None);
        assert_eq!(cache().set_mask, Some(2047));
        assert!(!c.access(VirtPage(0), 0));
        assert!(!c.access(VirtPage(0), 3));
        assert!(!c.access(VirtPage(0), 6)); // evicts line 0 (LRU)
        assert!(!c.access(VirtPage(0), 0), "line 0 was evicted");
        assert!(c.access(VirtPage(0), 6));
        assert!(c.invalidate(VirtPage(0), 6));
    }

    #[test]
    fn empty_cache_ratio_zero() {
        assert_eq!(cache().miss_ratio(), 0.0);
    }
}
