//! In-memory spans recorded around each call the benchmark makes into a
//! layer, and the per-layer self-time report derived from them.
//!
//! A span has a name, a layer, a start, an end, a parent and (for serve
//! requests) a request id. Spans stay in memory while the workload runs
//! and are written out as JSON when it ends. A layer's self time is the
//! summed duration of its spans minus the part of each span its child
//! spans cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The layers spans are charged to (crate names, plus the load
/// generator the benchmark itself runs).
pub const LAYERS: [&str; 6] = [
    "machine",
    "bench",
    "polsim",
    "tracestore",
    "serve",
    "loadgen",
];

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    layer: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: Option<u64>,
}

/// A span recorder; a disabled one records nothing and costs one branch.
pub struct Tracer {
    on: AtomicBool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Handle to an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: AtomicBool::new(on),
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off (the traced run's untraced pass).
    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::SeqCst)
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span. `start` backdates it (the open loop times a request
    /// from its scheduled send time).
    pub fn open_at(
        &self,
        layer: &'static str,
        name: &'static str,
        parent: SpanId,
        req: Option<u64>,
        start: Option<Instant>,
    ) -> SpanId {
        if !self.is_on() {
            return None;
        }
        let start_ns = match start {
            Some(t) => t.saturating_duration_since(self.t0).as_nanos() as u64,
            None => self.now_ns(),
        };
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        Some(spans.len() - 1)
    }

    pub fn open(&self, layer: &'static str, name: &'static str, parent: SpanId) -> SpanId {
        self.open_at(layer, name, parent, None, None)
    }

    pub fn close(&self, id: SpanId) {
        if let Some(i) = id {
            let end = self.now_ns();
            self.spans.lock().expect("span list lock poisoned")[i].end_ns = end;
        }
    }

    /// Runs `f` inside a span; `f` gets the span as parent for children.
    pub fn time<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.open(layer, name, parent);
        let out = f(id);
        self.close(id);
        out
    }

    /// Self time per layer in seconds, plus the unattributed part of
    /// `wall_s` (wall not covered by any top-level span).
    pub fn self_times(&self, wall_s: f64) -> (BTreeMap<&'static str, f64>, f64) {
        let spans = self.spans.lock().expect("span list lock poisoned");
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        let mut roots = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            match s.parent {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
        for (i, s) in spans.iter().enumerate() {
            let covered = union_ns(children[i].iter().map(|&c| {
                (
                    spans[c].start_ns.max(s.start_ns),
                    spans[c].end_ns.min(s.end_ns),
                )
            }));
            let own = (s.end_ns.saturating_sub(s.start_ns)).saturating_sub(covered);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e9;
        }
        let top = union_ns(roots.iter().map(|&r| (spans[r].start_ns, spans[r].end_ns)));
        let unattributed = (wall_s - top as f64 / 1e9).max(0.0);
        (out, unattributed)
    }

    /// Every span as one JSON document.
    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("span list lock poisoned");
        let mut s = String::from("{\"schema\":\"perfsuite-spans/1\",\"spans\":[");
        for (i, sp) in spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                sp.name,
                sp.layer,
                sp.start_ns,
                sp.end_ns,
                sp.parent.map_or("null".into(), |p| p.to_string()),
                sp.req.map_or("null".into(), |r| r.to_string()),
            ));
        }
        s.push_str("]}\n");
        s
    }
}

/// Length of the union of `[start, end)` intervals.
fn union_ns(intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.filter(|(a, b)| b > a).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns([(0, 10), (5, 15), (20, 25)].into_iter()), 20);
        assert_eq!(union_ns(std::iter::empty()), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.time("bench", "outer", None, |p| {
            t.time("machine", "inner", p, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let (by_layer, _) = t.self_times(0.0);
        assert!(by_layer["machine"] >= 0.02);
        assert!(by_layer["bench"] < by_layer["machine"]);
    }
}
