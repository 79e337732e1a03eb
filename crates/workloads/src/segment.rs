//! Memory segments and per-process reference generators.

use ccnuma_types::{AccessKind, MemAccess, Mode, Pid, RefClass, VirtPage};
use rand::rngs::SmallRng;
use rand::Rng;

/// Hands out disjoint virtual-page ranges to segments, so every segment's
/// pool is unique machine-wide.
///
/// # Examples
///
/// ```
/// use ccnuma_workloads::PageSpace;
///
/// let mut space = PageSpace::new();
/// let a = space.reserve(100);
/// let b = space.reserve(50);
/// assert_eq!(b.0, a.0 + 100);
/// assert_eq!(space.allocated(), 150);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageSpace {
    next: u64,
}

impl PageSpace {
    /// A fresh address space starting at page 0.
    pub fn new() -> PageSpace {
        PageSpace::default()
    }

    /// Reserves `pages` consecutive pages and returns the first.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero.
    pub fn reserve(&mut self, pages: u64) -> VirtPage {
        assert!(pages > 0, "cannot reserve an empty range");
        let base = VirtPage(self.next);
        self.next += pages;
        base
    }

    /// Total pages reserved so far (the workload's footprint).
    pub fn allocated(&self) -> u64 {
        self.next
    }
}

/// One typed region of a process's address space.
///
/// A segment owns a page pool and an access profile. Accesses pick a page
/// (skewed toward a *hot* subset to model temporal locality), a line
/// within the page, and a read/write outcome. Code segments generate
/// instruction fetches; `mode` distinguishes kernel structures from user
/// memory (the pmake study).
#[derive(Debug, Clone)]
pub struct Segment {
    /// Human-readable name ("scene", "private", "sync", ...).
    pub name: &'static str,
    /// First page of the pool.
    pub base: VirtPage,
    /// Pool size in pages.
    pub pages: u64,
    /// Relative probability of this segment being referenced.
    pub weight: f64,
    /// Probability that a data access is a store.
    pub write_frac: f64,
    /// User or kernel memory.
    pub mode: Mode,
    /// Instruction fetches or data accesses.
    pub class: RefClass,
    /// Fraction of the pool that forms the hot subset.
    pub hot_frac: f64,
    /// Probability an access lands in the hot subset.
    pub hot_weight: f64,
}

impl Segment {
    /// A user data segment with moderate locality (80 % of accesses to the
    /// hottest 20 % of pages).
    pub fn data(
        name: &'static str,
        base: VirtPage,
        pages: u64,
        weight: f64,
        write_frac: f64,
    ) -> Segment {
        Segment {
            name,
            base,
            pages,
            weight,
            write_frac,
            mode: Mode::User,
            class: RefClass::Data,
            hot_frac: 0.2,
            hot_weight: 0.8,
        }
    }

    /// A user code segment: instruction fetches, never written.
    pub fn code(name: &'static str, base: VirtPage, pages: u64, weight: f64) -> Segment {
        Segment {
            write_frac: 0.0,
            class: RefClass::Instr,
            ..Segment::data(name, base, pages, weight, 0.0)
        }
    }

    /// Marks the segment as kernel memory.
    #[must_use]
    pub fn kernel(mut self) -> Segment {
        self.mode = Mode::Kernel;
        self
    }

    /// Overrides the locality skew.
    ///
    /// # Panics
    ///
    /// Panics unless both arguments are in `(0, 1]`.
    #[must_use]
    pub fn with_locality(mut self, hot_frac: f64, hot_weight: f64) -> Segment {
        assert!(hot_frac > 0.0 && hot_frac <= 1.0, "hot_frac out of range");
        assert!(
            hot_weight > 0.0 && hot_weight <= 1.0,
            "hot_weight out of range"
        );
        self.hot_frac = hot_frac;
        self.hot_weight = hot_weight;
        self
    }

    /// Size of the hot subset: `ceil(pages × hot_frac)`, at least one page.
    fn hot_pages(&self) -> u64 {
        ((self.pages as f64 * self.hot_frac).ceil() as u64).clamp(1, self.pages)
    }

    /// One past the last page of the pool.
    fn end(&self) -> u64 {
        self.base.0 + self.pages
    }

    /// Draws a page from this segment's pool; `hot_pages` is
    /// [`hot_pages`](Segment::hot_pages), computed once per stream.
    fn pick_page(&self, hot_pages: u64, rng: &mut SmallRng) -> VirtPage {
        let in_hot = rng.gen_bool(self.hot_weight);
        let idx = if in_hot {
            rng.gen_range(0..hot_pages)
        } else {
            rng.gen_range(0..self.pages)
        };
        self.base.offset(idx)
    }
}

/// One simulated process: a weighted mixture over its segments.
///
/// # Examples
///
/// ```
/// use ccnuma_workloads::{PageSpace, ProcessStream, Segment};
/// use ccnuma_types::Pid;
/// use rand::SeedableRng;
///
/// let mut space = PageSpace::new();
/// let seg = Segment::data("private", space.reserve(10), 10, 1.0, 0.3);
/// let mut p = ProcessStream::new(Pid(1), vec![seg]);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
/// let r = p.next_ref(&mut rng);
/// assert!(r.page.0 < 10);
/// assert_eq!(r.pid, Pid(1));
/// ```
#[derive(Debug, Clone)]
pub struct ProcessStream {
    pid: Pid,
    segments: Vec<Segment>,
    /// Each segment's hot-subset size, parallel to `segments`.
    hot_pages: Vec<u64>,
    total_weight: f64,
    lines_per_page: u16,
}

impl ProcessStream {
    /// A stream for `pid` over the given segments (32-line pages).
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty or total weight is non-positive.
    pub fn new(pid: Pid, segments: Vec<Segment>) -> ProcessStream {
        assert!(!segments.is_empty(), "a process needs at least one segment");
        let total_weight: f64 = segments.iter().map(|s| s.weight).sum();
        assert!(total_weight > 0.0, "total segment weight must be positive");
        ProcessStream {
            pid,
            hot_pages: segments.iter().map(Segment::hot_pages).collect(),
            segments,
            total_weight,
            lines_per_page: 32,
        }
    }

    /// The owning process.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The segments of this process.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// One past the highest page any of this process's segments holds:
    /// every reference the stream generates is below it.
    pub fn page_bound(&self) -> u64 {
        self.segments.iter().map(Segment::end).max().unwrap_or(0)
    }

    /// Generates the next reference.
    pub fn next_ref(&mut self, rng: &mut SmallRng) -> MemAccess {
        let mut pick = rng.gen_range(0.0..self.total_weight);
        let mut chosen = self.segments.len() - 1;
        for (i, seg) in self.segments.iter().enumerate() {
            if pick < seg.weight {
                chosen = i;
                break;
            }
            pick -= seg.weight;
        }
        let hot_pages = self.hot_pages[chosen];
        let chosen = &self.segments[chosen];
        let page = chosen.pick_page(hot_pages, rng);
        let kind = if chosen.class == RefClass::Instr {
            AccessKind::Read
        } else if rng.gen_bool(chosen.write_frac) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        MemAccess {
            pid: self.pid,
            page,
            line: rng.gen_range(0..self.lines_per_page),
            kind,
            mode: chosen.mode,
            class: chosen.class,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn page_space_is_disjoint() {
        let mut s = PageSpace::new();
        let a = s.reserve(10);
        let b = s.reserve(20);
        let c = s.reserve(1);
        assert_eq!(a, VirtPage(0));
        assert_eq!(b, VirtPage(10));
        assert_eq!(c, VirtPage(30));
        assert_eq!(s.allocated(), 31);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn zero_reservation_panics() {
        PageSpace::new().reserve(0);
    }

    #[test]
    fn code_segments_fetch_instructions_read_only() {
        let seg = Segment::code("text", VirtPage(0), 5, 1.0);
        let mut p = ProcessStream::new(Pid(3), vec![seg]);
        let mut r = rng();
        for _ in 0..100 {
            let a = p.next_ref(&mut r);
            assert_eq!(a.class, RefClass::Instr);
            assert_eq!(a.kind, AccessKind::Read);
            assert!(a.page.0 < 5);
            assert!(a.line < 32);
        }
    }

    #[test]
    fn write_fraction_is_respected() {
        let seg = Segment::data("d", VirtPage(0), 50, 1.0, 0.5);
        let mut p = ProcessStream::new(Pid(1), vec![seg]);
        let mut r = rng();
        let writes = (0..2000)
            .filter(|_| p.next_ref(&mut r).kind == AccessKind::Write)
            .count();
        assert!((800..1200).contains(&writes), "writes {writes} not ~50%");
    }

    #[test]
    fn hot_subset_gets_most_accesses() {
        let seg = Segment::data("d", VirtPage(0), 100, 1.0, 0.0).with_locality(0.1, 0.9);
        let mut p = ProcessStream::new(Pid(1), vec![seg]);
        let mut r = rng();
        let hot = (0..5000).filter(|_| p.next_ref(&mut r).page.0 < 10).count();
        assert!(hot > 4000, "hot accesses {hot} not ~90%+");
    }

    #[test]
    fn segment_weights_bias_selection() {
        let mut space = PageSpace::new();
        let heavy = Segment::data("heavy", space.reserve(10), 10, 0.9, 0.0);
        let light = Segment::code("light", space.reserve(10), 10, 0.1);
        let mut p = ProcessStream::new(Pid(1), vec![heavy, light]);
        let mut r = rng();
        let heavy_hits = (0..2000).filter(|_| p.next_ref(&mut r).page.0 < 10).count();
        assert!((1600..2000).contains(&heavy_hits), "{heavy_hits}");
    }

    #[test]
    fn kernel_marker() {
        let seg = Segment::data("k", VirtPage(0), 4, 1.0, 0.2).kernel();
        assert_eq!(seg.mode, Mode::Kernel);
        let mut p = ProcessStream::new(Pid(1), vec![seg]);
        let a = p.next_ref(&mut rng());
        assert!(a.mode.is_kernel());
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_segments_panic() {
        let _ = ProcessStream::new(Pid(1), vec![]);
    }

    #[test]
    fn determinism_under_same_seed() {
        let seg = Segment::data("d", VirtPage(0), 100, 1.0, 0.5);
        let mut p1 = ProcessStream::new(Pid(1), vec![seg.clone()]);
        let mut p2 = ProcessStream::new(Pid(1), vec![seg]);
        let mut r1 = rng();
        let mut r2 = rng();
        for _ in 0..100 {
            assert_eq!(p1.next_ref(&mut r1), p2.next_ref(&mut r2));
        }
    }
}
