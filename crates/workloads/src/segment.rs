//! Memory segments and per-process reference generators.

use ccnuma_types::{AccessKind, MemAccess, Mode, Pid, RefClass, VirtPage};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

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

    /// One past the last page of the pool.
    fn end(&self) -> u64 {
        self.base.0 + self.pages
    }
}

/// `2^53`: the segment, hot and store draws each take the top 53 bits of
/// one RNG output, as the vendored `rand`'s `gen_range(0.0..x)` and
/// `gen_bool` do.
const UNIT: u64 = 1 << 53;

/// The next 53-bit draw `m`; `gen_range(0.0..x)` and `gen_bool` see it
/// as the float `m · 2^-53`.
#[inline]
fn draw53(rng: &mut SmallRng) -> u64 {
    rng.next_u64() >> 11
}

/// `gen_bool(p)` as a threshold on the 53-bit draw: `m · 2^-53 < p`
/// holds exactly when `m < p · 2^53` (both sides are scaled by a power
/// of two, which is exact), so for integer `m` when `m < ceil(p · 2^53)`.
fn bool_threshold(p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} out of range");
    (p * UNIT as f64).ceil() as u64
}

/// The segment a weighted pick chooses for the 53-bit draw `m`: the
/// value `gen_range(0.0..total)` makes of it (`0.0 + (total - 0.0) ·
/// m · 2^-53`, whose `0.0` terms are exact no-ops), then sequential
/// subtraction, falling back to the last segment. Each step is a
/// monotone rounding, so the choice is a monotone step function of `m`.
fn segment_of(weights: &[f64], total: f64, m: u64) -> usize {
    let mut pick = total * (m as f64 / UNIT as f64);
    for (i, &w) in weights.iter().enumerate() {
        if pick < w {
            return i;
        }
        pick -= w;
    }
    weights.len() - 1
}

/// One segment's draws, precomputed by [`ProcessStream::new`].
#[derive(Debug, Clone)]
struct Draw {
    base: VirtPage,
    pages: u64,
    /// Size of the hot subset: `ceil(pages × hot_frac)`, at least one
    /// page.
    hot_pages: u64,
    /// The hot draw's threshold (see [`bool_threshold`]).
    hot: u64,
    /// The store draw's threshold; `None` for instruction fetches,
    /// which draw no store.
    store: Option<u64>,
    mode: Mode,
    class: RefClass,
}

impl Draw {
    fn new(seg: &Segment) -> Draw {
        Draw {
            base: seg.base,
            pages: seg.pages,
            hot_pages: ((seg.pages as f64 * seg.hot_frac).ceil() as u64).clamp(1, seg.pages),
            hot: bool_threshold(seg.hot_weight),
            store: (seg.class == RefClass::Data).then(|| bool_threshold(seg.write_frac)),
            mode: seg.mode,
            class: seg.class,
        }
    }
}

/// One simulated process: a weighted mixture over its segments.
///
/// A reference draws, in order: its segment (weighted by
/// [`Segment::weight`]), whether it lands in the hot subset, its page,
/// for data segments whether it is a store, and its line. The segment
/// choice is a table of 53-bit boundaries built once per stream, and
/// the Bernoulli draws are integer thresholds, so a reference costs no
/// float arithmetic and consumes the same RNG outputs as the weighted
/// loop and `gen_bool` calls it replaces.
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
    /// Each segment's draws, parallel to `segments`.
    draws: Vec<Draw>,
    /// `bounds[i - 1]` is the first 53-bit draw that picks segment `i`
    /// or a later one (`2^53` when none does), so the segment of draw
    /// `m` is the number of bounds `<= m`.
    bounds: Vec<u64>,
    lines_per_page: u16,
}

impl ProcessStream {
    /// A stream for `pid` over the given segments (32-line pages).
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty, total weight is non-positive, or
    /// a hot weight or a data segment's write fraction lies outside
    /// `[0, 1]`.
    pub fn new(pid: Pid, segments: Vec<Segment>) -> ProcessStream {
        assert!(!segments.is_empty(), "a process needs at least one segment");
        let weights: Vec<f64> = segments.iter().map(|s| s.weight).collect();
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "total segment weight must be positive");
        // Bisect for the first draw whose segment is at or after `i`.
        let bounds = (1..segments.len())
            .map(|i| {
                let (mut lo, mut hi) = (0, UNIT);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if segment_of(&weights, total, mid) >= i {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                lo
            })
            .collect();
        ProcessStream {
            pid,
            draws: segments.iter().map(Draw::new).collect(),
            segments,
            bounds,
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

    /// The segment the 53-bit draw `m` picks.
    #[inline]
    fn segment_for(&self, m: u64) -> usize {
        self.bounds.iter().filter(|&&b| b <= m).count()
    }

    /// Generates the next reference.
    #[inline]
    pub fn next_ref(&mut self, rng: &mut SmallRng) -> MemAccess {
        let d = &self.draws[self.segment_for(draw53(rng))];
        let span = if draw53(rng) < d.hot {
            d.hot_pages
        } else {
            d.pages
        };
        let page = d.base.offset(rng.gen_range(0..span));
        let kind = match d.store {
            Some(store) if draw53(rng) < store => AccessKind::Write,
            _ => AccessKind::Read,
        };
        MemAccess {
            pid: self.pid,
            page,
            line: rng.gen_range(0..self.lines_per_page),
            kind,
            mode: d.mode,
            class: d.class,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    /// An RNG whose every 53-bit draw is `m`.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0 << 11
        }
    }

    /// The weighted pick the boundary table replaces, as it was:
    /// `gen_range(0.0..total)`, sequential subtraction, and the last
    /// segment when the float sum falls short.
    fn weighted_loop(weights: &[f64], m: u64) -> usize {
        let total: f64 = weights.iter().sum();
        let mut pick = Fixed(m).gen_range(0.0..total);
        for (i, &w) in weights.iter().enumerate() {
            if pick < w {
                return i;
            }
            pick -= w;
        }
        weights.len() - 1
    }

    fn stream(weights: &[f64]) -> ProcessStream {
        let mut space = PageSpace::new();
        let segs = weights
            .iter()
            .map(|&w| Segment::data("s", space.reserve(1), 1, w, 0.5))
            .collect();
        ProcessStream::new(Pid(0), segs)
    }

    proptest! {
        /// The boundary table picks the weighted loop's segment for
        /// every draw: random ones, both sides of every boundary, and
        /// the ends of the range. Zero weights (never picked unless
        /// last) and sums that fall short of the last weight are drawn.
        #[test]
        fn boundary_table_matches_the_weighted_loop(
            weights in vec(
                (0u8..4, 0.0f64..10.0).prop_map(|(z, w)| if z == 0 { 0.0 } else { w }),
                1..9,
            ),
            draws in vec(0u64..UNIT, 0..64),
        ) {
            let mut weights = weights;
            if weights.iter().sum::<f64>() <= 0.0 {
                weights.push(1.0);
            }
            let p = stream(&weights);
            let edges = p.bounds.iter().flat_map(|&b| [b.saturating_sub(1), b]);
            for m in draws.into_iter().chain(edges).chain([0, UNIT - 1]) {
                let m = m.min(UNIT - 1);
                prop_assert_eq!(p.segment_for(m), weighted_loop(&weights, m), "m = {}", m);
            }
        }

        /// `m < bool_threshold(p)` is `gen_bool(p)` for the same draw,
        /// on both sides of the threshold.
        #[test]
        fn bool_threshold_matches_gen_bool(p in 0.0f64..1.0, m in 0u64..UNIT) {
            let t = bool_threshold(p);
            for m in [m, t.saturating_sub(1), t, t + 1] {
                let m = m.min(UNIT - 1);
                prop_assert_eq!(m < t, Fixed(m).gen_bool(p), "p = {}, m = {}", p, m);
            }
        }
    }

    #[test]
    fn bool_threshold_at_the_ends_and_on_the_grid() {
        let tiny = f64::from_bits(1);
        let below_one = 1.0 - f64::EPSILON / 2.0;
        for p in [0.0, 1.0, 0.5, 0.8, 0.02, tiny, 1.0 / UNIT as f64, below_one] {
            let t = bool_threshold(p);
            for m in [0, t.saturating_sub(1), t, t + 1, UNIT - 1] {
                let m = m.min(UNIT - 1);
                assert_eq!(m < t, Fixed(m).gen_bool(p), "p = {p}, m = {m}");
            }
        }
        assert_eq!(bool_threshold(0.0), 0);
        assert_eq!(bool_threshold(1.0), UNIT);
        assert_eq!(bool_threshold(tiny), 1);
        assert_eq!(bool_threshold(below_one), UNIT - 1);
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
