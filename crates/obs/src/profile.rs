//! Host-time span profiler: scoped phase timers for the simulator's
//! wall-clock behaviour.
//!
//! Everything else in this crate records *sim time* and is held
//! byte-identical across machines and thread counts. This module is the
//! deliberate exception: it measures where the *host* spends its wall
//! clock — per phase of the runner (sched / memory / pager / coherence)
//! and sweep replays — so optimisation work (sharding
//! the simulator, the intra-run-parallelism plan) can be judged by
//! measurement instead of folklore.
//!
//! The design mirrors [`Recorder`](crate::Recorder):
//!
//! * [`Profiler`] is the hook trait the instrumented code drives. Hosts
//!   are generic over it and monomorphized, so the no-op
//!   [`NullProfiler`] (`ENABLED == false`) compiles every `enter`/`exit`
//!   pair to nothing — the off path is provably free and the simulator's
//!   output stays byte-identical to an unprofiled build.
//! * [`SpanProfiler`] is the live implementation: per-phase entry
//!   counts, a log2 [`Histogram`] of span durations, and a bounded ring
//!   buffer of raw spans for the host-time Chrome trace. Hot phases are
//!   *stride-sampled*: every entry is counted (cheap — one increment and
//!   a mask test), but only every [`Phase::stride`]-th entry pays for a
//!   pair of `Instant::now()` calls, which is what keeps whole-run
//!   overhead under the 2% budget on per-reference phases.
//!
//! Determinism contract: `entries` and `spans` derive purely from
//! deterministic simulation event counts and fixed strides, so the
//! *structure* of a profile artifact (phases, entries, spans, strides)
//! is identical across job counts and repeat runs. The *durations* are
//! host measurements and naturally vary; consumers comparing artifacts
//! must exclude them (the repo's determinism tests do).
//!
//! # Examples
//!
//! ```
//! use ccnuma_obs::{Phase, Profiler, SpanProfiler};
//!
//! let mut prof = SpanProfiler::new();
//! for _ in 0..10 {
//!     let span = prof.enter(Phase::Pager);
//!     // ... do the phase's work ...
//!     prof.exit(Phase::Pager, span);
//! }
//! assert_eq!(prof.entries(Phase::Pager), 10);
//! // Pager is a coarse phase (stride 1): every entry was timed.
//! assert_eq!(prof.spans(Phase::Pager), 10);
//! let json = prof.to_json();
//! assert!(json.starts_with("{\"schema\":\"ccnuma-profile/3\""));
//! ```
//!
//! The null path is statically off:
//!
//! ```
//! use ccnuma_obs::{NullProfiler, Phase, Profiler};
//!
//! assert!(!NullProfiler::ENABLED);
//! let mut off = NullProfiler;
//! assert!(off.enter(Phase::Memory).is_none());
//! ```

use crate::export::ts_us;
use crate::hist::Histogram;
use crate::json::JsonWriter;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Schema tag of the per-run `profile.json` artifact.
pub const PROFILE_SCHEMA: &str = "ccnuma-profile/3";

/// Instrumented host phases.
///
/// One enum (rather than free-form string labels) keeps `enter`/`exit`
/// allocation-free and lets per-phase state live in a flat array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// One whole simulator run, entry to report.
    Run,
    /// Scheduler quantum-boundary work (re-query, context switch,
    /// adaptive tick, storm driving).
    Sched,
    /// One memory reference of the serial tail through TLB / L2 /
    /// coherence / NUMA memory (stride-sampled: this is the
    /// per-reference hot path). Lane windows are [`Phase::Lanes`].
    Memory,
    /// One coherence write (victim invalidation) inside the merge
    /// replay or the serial tail's memory phase (stride-sampled).
    Coherence,
    /// One pager batch service (page ops, shootdown, outcome handling).
    Pager,
    /// One observability epoch sample (building the sample view).
    Epoch,
    /// One policy-simulator pass of a sweep: a dynamic cell's replay, or
    /// the profile pass that prices the static cells.
    Replay,
    /// One window merge in the windowed engine: folding lane state back,
    /// sorting the event pool, and applying lane events (first touches,
    /// coherence writes, policy driving) in canonical order on the
    /// coordinating thread.
    Merge,
    /// One lane pass of the windowed engine: every CPU stepping its
    /// references through TLB / L2 / NUMA memory up to the window end
    /// (across shard threads when sharded). Entered once per window, so
    /// every entry is timed.
    Lanes,
}

/// Number of phases (length of [`Phase::ALL`]).
pub const PHASES: usize = 9;

impl Phase {
    /// Every phase, in the canonical artifact order.
    pub const ALL: [Phase; PHASES] = [
        Phase::Run,
        Phase::Sched,
        Phase::Memory,
        Phase::Coherence,
        Phase::Pager,
        Phase::Epoch,
        Phase::Replay,
        Phase::Merge,
        Phase::Lanes,
    ];

    /// Stable artifact name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Run => "run",
            Phase::Sched => "sched",
            Phase::Memory => "memory",
            Phase::Coherence => "coherence",
            Phase::Pager => "pager",
            Phase::Epoch => "epoch",
            Phase::Replay => "replay",
            Phase::Merge => "merge",
            Phase::Lanes => "lanes",
        }
    }

    /// Sampling stride: a power of two; every entry increments the
    /// counter, but only every stride-th entry is actually timed. The
    /// per-reference phases use a wide stride so two `Instant::now()`
    /// calls amortize over ~1k references; coarse phases time every
    /// entry.
    pub const fn stride(self) -> u64 {
        match self {
            Phase::Memory | Phase::Coherence => 1024,
            _ => 1,
        }
    }

    const fn index(self) -> usize {
        self as usize
    }
}

/// The profiling hooks instrumented code drives.
///
/// Hosts are generic over the profiler and monomorphized, exactly like
/// the simulator over [`Recorder`](crate::Recorder): with
/// [`NullProfiler`] both methods compile to nothing and
/// [`Profiler::ENABLED`] lets callers skip building anything costly.
pub trait Profiler: Send {
    /// `false` only for [`NullProfiler`].
    const ENABLED: bool = true;

    /// Begins one entry of `phase`. Returns the start token to hand back
    /// to [`Profiler::exit`]; `None` when this entry is not sampled (or
    /// profiling is off) — the matching `exit` is then free.
    fn enter(&mut self, phase: Phase) -> Option<Instant>;

    /// Ends the entry begun by the matching [`Profiler::enter`].
    fn exit(&mut self, phase: Phase, span: Option<Instant>);
}

/// The no-op profiler: profiling off, provably free.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProfiler;

impl Profiler for NullProfiler {
    const ENABLED: bool = false;

    #[inline(always)]
    fn enter(&mut self, _phase: Phase) -> Option<Instant> {
        None
    }

    #[inline(always)]
    fn exit(&mut self, _phase: Phase, _span: Option<Instant>) {}
}

/// Raw spans kept for the host-time Chrome trace before the ring wraps.
const DEFAULT_RING_SPANS: usize = 4096;

/// One timed span, relative to the profiler's creation instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Which phase the span timed.
    pub phase: Phase,
    /// Start offset from profiler creation, nanoseconds.
    pub start_ns: u64,
    /// Measured duration, nanoseconds.
    pub dur_ns: u64,
}

#[derive(Debug, Clone, Default)]
struct PhaseAgg {
    /// Every `enter`, sampled or not.
    entries: u64,
    /// Timed entries (`entries.div_ceil(stride)` by construction).
    spans: u64,
    /// Log2 histogram of timed span durations, nanoseconds.
    hist: Histogram,
}

/// The live profiler: per-phase aggregates plus a bounded ring of raw
/// spans for the host-time Chrome trace.
///
/// One `SpanProfiler` belongs to one thread of work (a simulator run, a
/// sweep worker); cross-thread aggregation goes through
/// [`SpanProfiler::merge`], which is commutative over the aggregates so
/// fleet totals never depend on completion order. Rings are *not*
/// merged — a ring is a per-thread debugging artifact, not a statistic.
#[derive(Debug, Clone)]
pub struct SpanProfiler {
    phases: [PhaseAgg; PHASES],
    ring: Vec<SpanEvent>,
    ring_cap: usize,
    ring_next: usize,
    /// Timed spans that overwrote an older ring slot.
    wrapped: u64,
    t0: Instant,
}

impl Default for SpanProfiler {
    fn default() -> SpanProfiler {
        SpanProfiler::new()
    }
}

impl SpanProfiler {
    /// A fresh profiler with the default ring capacity.
    pub fn new() -> SpanProfiler {
        SpanProfiler::with_ring_capacity(DEFAULT_RING_SPANS)
    }

    /// A fresh profiler keeping at most `cap` raw spans (older spans are
    /// overwritten once the ring is full; aggregates always see every
    /// timed span).
    pub fn with_ring_capacity(cap: usize) -> SpanProfiler {
        SpanProfiler {
            phases: std::array::from_fn(|_| PhaseAgg::default()),
            ring: Vec::new(),
            ring_cap: cap.max(1),
            ring_next: 0,
            wrapped: 0,
            t0: Instant::now(),
        }
    }

    /// Total entries recorded for `phase` (sampled or not).
    pub fn entries(&self, phase: Phase) -> u64 {
        self.phases[phase.index()].entries
    }

    /// Timed spans recorded for `phase`.
    pub fn spans(&self, phase: Phase) -> u64 {
        self.phases[phase.index()].spans
    }

    /// Duration histogram of `phase`'s timed spans (nanoseconds).
    pub fn histogram(&self, phase: Phase) -> &Histogram {
        &self.phases[phase.index()].hist
    }

    /// Summed timed nanoseconds in `phase`.
    pub fn total_ns(&self, phase: Phase) -> u128 {
        self.phases[phase.index()].hist.sum()
    }

    /// The raw spans currently held, oldest first.
    pub fn ring(&self) -> Vec<SpanEvent> {
        if self.ring.len() < self.ring_cap || self.ring_next == 0 {
            self.ring.clone()
        } else {
            let mut out = Vec::with_capacity(self.ring.len());
            out.extend_from_slice(&self.ring[self.ring_next..]);
            out.extend_from_slice(&self.ring[..self.ring_next]);
            out
        }
    }

    /// Timed spans whose raw record was overwritten by ring wraparound.
    pub fn wrapped_spans(&self) -> u64 {
        self.wrapped
    }

    /// Folds `other`'s per-phase aggregates into `self` (commutative and
    /// associative). `other`'s ring is intentionally dropped: raw spans
    /// are per-thread timelines and merging them would make the result
    /// depend on merge order.
    pub fn merge(&mut self, other: &SpanProfiler) {
        for (a, b) in self.phases.iter_mut().zip(other.phases.iter()) {
            a.entries += b.entries;
            a.spans += b.spans;
            a.hist.merge(&b.hist);
        }
    }

    /// Renders the `ccnuma-profile/3` artifact.
    ///
    /// Every phase appears, in [`Phase::ALL`] order, with its stride and
    /// its deterministic `entries`/`spans` counts; the `*_ns` fields and
    /// `buckets` are host measurements (excluded from determinism
    /// comparisons). Buckets are the sparse log2 rendering the metrics
    /// artifact uses, so fleet aggregation can rebuild and merge the
    /// histograms exactly.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("schema");
        w.str(PROFILE_SCHEMA);
        w.key("phases");
        w.begin_arr();
        for phase in Phase::ALL {
            let agg = &self.phases[phase.index()];
            w.begin_obj();
            w.key("phase");
            w.str(phase.name());
            w.key("stride");
            w.raw(&phase.stride().to_string());
            w.key("entries");
            w.raw(&agg.entries.to_string());
            w.key("spans");
            w.raw(&agg.spans.to_string());
            w.key("total_ns");
            w.raw(&agg.hist.sum().to_string());
            for (k, v) in [
                ("min_ns", agg.hist.min()),
                ("max_ns", agg.hist.max()),
                ("p50_ns", agg.hist.p50()),
                ("p90_ns", agg.hist.p90()),
                ("p99_ns", agg.hist.p99()),
            ] {
                w.key(k);
                w.raw(&v.to_string());
            }
            w.key("buckets");
            w.begin_obj();
            for (i, &c) in agg.hist.buckets().iter().enumerate() {
                if c > 0 {
                    w.key(&crate::hist::bucket_bounds(i).0.to_string());
                    w.raw(&c.to_string());
                }
            }
            w.end_obj();
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        let mut s = w.finish();
        s.push('\n');
        s
    }

    /// Writes the host-time Chrome trace (loadable in Perfetto): one
    /// track per phase, spans from the ring, timestamps relative to
    /// profiler creation. Purely a host-time artifact — nothing in it is
    /// expected to be deterministic.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_host_trace<W: Write>(&self, mut w: W) -> io::Result<()> {
        let mut j = JsonWriter::new();
        j.begin_obj();
        j.key("displayTimeUnit");
        j.str("ns");
        j.key("traceEvents");
        j.begin_arr();
        for phase in Phase::ALL {
            j.begin_obj();
            j.key("ph");
            j.str("M");
            j.key("name");
            j.str("thread_name");
            j.key("pid");
            j.raw("1");
            j.key("tid");
            j.raw(&phase.index().to_string());
            j.key("args");
            j.begin_obj();
            j.key("name");
            j.str(phase.name());
            j.end_obj();
            j.end_obj();
        }
        for span in self.ring() {
            j.begin_obj();
            j.key("ph");
            j.str("X");
            j.key("cat");
            j.str("host");
            j.key("name");
            j.str(span.phase.name());
            j.key("pid");
            j.raw("1");
            j.key("tid");
            j.raw(&span.phase.index().to_string());
            j.key("ts");
            j.raw(&ts_us(span.start_ns));
            j.key("dur");
            j.raw(&ts_us(span.dur_ns));
            j.end_obj();
        }
        j.end_arr();
        j.end_obj();
        w.write_all(j.finish().as_bytes())
    }
}

impl Profiler for SpanProfiler {
    #[inline]
    fn enter(&mut self, phase: Phase) -> Option<Instant> {
        let agg = &mut self.phases[phase.index()];
        let i = agg.entries;
        agg.entries += 1;
        // Strides are powers of two: the sampling test is one mask.
        if i & (phase.stride() - 1) == 0 {
            Some(Instant::now())
        } else {
            None
        }
    }

    fn exit(&mut self, phase: Phase, span: Option<Instant>) {
        let Some(start) = span else { return };
        let dur_ns = start.elapsed().as_nanos() as u64;
        let start_ns = start.duration_since(self.t0).as_nanos() as u64;
        let agg = &mut self.phases[phase.index()];
        agg.spans += 1;
        agg.hist.record(dur_ns);
        let event = SpanEvent {
            phase,
            start_ns,
            dur_ns,
        };
        if self.ring.len() < self.ring_cap {
            self.ring.push(event);
        } else {
            self.ring[self.ring_next] = event;
            self.ring_next = (self.ring_next + 1) % self.ring_cap;
            self.wrapped += 1;
        }
    }
}

/// Writes the profile artifact pair for one run under
/// `<dir>/runs/<slug>/`: `profile.json` (the `ccnuma-profile/3`
/// summary) and `host-trace.json` (the host-time Chrome trace). Returns
/// the run's artifact directory.
///
/// # Errors
///
/// Propagates directory-creation and file-write errors.
pub fn write_profile_artifacts(dir: &Path, slug: &str, prof: &SpanProfiler) -> io::Result<PathBuf> {
    let run_dir = dir.join("runs").join(slug);
    std::fs::create_dir_all(&run_dir)?;
    ccnuma_faults::io::atomic_write(&run_dir.join("profile.json"), prof.to_json().as_bytes())?;
    let mut buf = Vec::new();
    prof.write_host_trace(&mut buf)?;
    ccnuma_faults::io::atomic_write(&run_dir.join("host-trace.json"), &buf)?;
    Ok(run_dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn null_profiler_is_disabled_and_free() {
        assert!(!NullProfiler::ENABLED);
        assert!(SpanProfiler::ENABLED);
        let mut p = NullProfiler;
        let span = p.enter(Phase::Memory);
        assert!(span.is_none());
        p.exit(Phase::Memory, span);
    }

    #[test]
    fn strides_are_powers_of_two() {
        for phase in Phase::ALL {
            assert!(phase.stride().is_power_of_two(), "{:?}", phase);
        }
    }

    #[test]
    fn coarse_phase_times_every_entry() {
        let mut p = SpanProfiler::new();
        for _ in 0..5 {
            let span = p.enter(Phase::Pager);
            assert!(span.is_some());
            p.exit(Phase::Pager, span);
        }
        assert_eq!(p.entries(Phase::Pager), 5);
        assert_eq!(p.spans(Phase::Pager), 5);
        assert_eq!(p.histogram(Phase::Pager).count(), 5);
        assert_eq!(p.ring().len(), 5);
    }

    #[test]
    fn hot_phase_samples_on_the_stride() {
        let stride = Phase::Memory.stride();
        let n = stride * 3 + 7;
        let mut p = SpanProfiler::new();
        for _ in 0..n {
            let span = p.enter(Phase::Memory);
            p.exit(Phase::Memory, span);
        }
        assert_eq!(p.entries(Phase::Memory), n);
        assert_eq!(p.spans(Phase::Memory), n.div_ceil(stride));
        // The first entry is always sampled, so short phases still
        // produce at least one span.
        let mut q = SpanProfiler::new();
        let span = q.enter(Phase::Memory);
        assert!(span.is_some());
        q.exit(Phase::Memory, span);
        assert_eq!(q.spans(Phase::Memory), 1);
    }

    #[test]
    fn span_structure_is_deterministic_across_runs() {
        let drive = || {
            let mut p = SpanProfiler::new();
            for _ in 0..3000 {
                let s = p.enter(Phase::Memory);
                p.exit(Phase::Memory, s);
            }
            for _ in 0..17 {
                let s = p.enter(Phase::Pager);
                p.exit(Phase::Pager, s);
            }
            Phase::ALL.map(|ph| (p.entries(ph), p.spans(ph)))
        };
        assert_eq!(drive(), drive());
    }

    #[test]
    fn ring_wraps_without_losing_aggregates() {
        let mut p = SpanProfiler::with_ring_capacity(4);
        for _ in 0..10 {
            let s = p.enter(Phase::Replay);
            p.exit(Phase::Replay, s);
        }
        assert_eq!(p.spans(Phase::Replay), 10);
        assert_eq!(p.histogram(Phase::Replay).count(), 10);
        let ring = p.ring();
        assert_eq!(ring.len(), 4);
        assert_eq!(p.wrapped_spans(), 6);
        // Oldest-first ordering survives the rotation.
        assert!(ring.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
    }

    #[test]
    fn merge_sums_aggregates_and_keeps_own_ring() {
        let mut a = SpanProfiler::new();
        let mut b = SpanProfiler::new();
        for _ in 0..3 {
            let s = a.enter(Phase::Sched);
            a.exit(Phase::Sched, s);
        }
        for _ in 0..4 {
            let s = b.enter(Phase::Sched);
            b.exit(Phase::Sched, s);
        }
        let ring_before = a.ring().len();
        a.merge(&b);
        assert_eq!(a.entries(Phase::Sched), 7);
        assert_eq!(a.spans(Phase::Sched), 7);
        assert_eq!(a.histogram(Phase::Sched).count(), 7);
        assert_eq!(a.ring().len(), ring_before, "rings are not merged");
    }

    #[test]
    fn json_lists_every_phase_in_order() {
        let mut p = SpanProfiler::new();
        let s = p.enter(Phase::Run);
        p.exit(Phase::Run, s);
        let json = p.to_json();
        assert!(json.starts_with("{\"schema\":\"ccnuma-profile/3\",\"phases\":["));
        assert!(json.ends_with("}\n"));
        let mut last = 0;
        for phase in Phase::ALL {
            let needle = format!("\"phase\":\"{}\"", phase.name());
            let at = json.find(&needle).unwrap_or_else(|| panic!("{needle}"));
            assert!(at > last || last == 0);
            last = at;
        }
        assert!(json.contains("\"stride\":1024"));
        assert!(json.contains("\"entries\":1"));
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn host_trace_has_tracks_and_spans() {
        let mut p = SpanProfiler::new();
        let s = p.enter(Phase::Replay);
        p.exit(Phase::Replay, s);
        let mut buf = Vec::new();
        p.write_host_trace(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(text.contains("\"name\":\"replay\""));
        assert!(text.contains("\"cat\":\"host\""));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
    }

    #[test]
    fn artifact_pair_lands_on_disk() {
        let dir = std::env::temp_dir().join(format!("ccnuma-profile-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut p = SpanProfiler::new();
        let s = p.enter(Phase::Run);
        p.exit(Phase::Run, s);
        let run_dir = write_profile_artifacts(&dir, "some-run", &p).unwrap();
        assert!(run_dir.join("profile.json").is_file());
        assert!(run_dir.join("host-trace.json").is_file());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
