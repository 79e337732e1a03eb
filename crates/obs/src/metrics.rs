//! A registry of named counters and histograms.
//!
//! Names are `&'static str` so recording never allocates; storage is
//! `BTreeMap` so every iteration (and therefore every export) is in
//! deterministic name order.

use crate::hist::Histogram;
use crate::json::{push_json_str, JsonWriter};
use std::collections::BTreeMap;

/// Named counters plus named log2 histograms.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `v` to counter `name`, creating it at zero first.
    #[inline]
    pub fn add(&mut self, name: &'static str, v: u64) {
        *self.counters.entry(name).or_insert(0) += v;
    }

    /// Increments counter `name` by one.
    #[inline]
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Records `v` into histogram `name`, creating it first if needed.
    #[inline]
    pub fn observe(&mut self, name: &'static str, v: u64) {
        self.hists.entry(name).or_default().record(v);
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The histogram registered under `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        self.hists.iter().map(|(&k, v)| (k, v))
    }

    /// Folds `h`'s samples into histogram `name`, creating it first if
    /// needed.
    pub fn merge_histogram(&mut self, name: &'static str, h: &Histogram) {
        self.hists.entry(name).or_default().merge(h);
    }

    /// Folds `other`'s counters and histograms into `self`.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, v) in other.counters() {
            self.add(name, v);
        }
        for (name, h) in other.histograms() {
            self.merge_histogram(name, h);
        }
    }

    /// Renders the registry as one JSON object with `counters` and
    /// `histograms` members; histogram entries carry count/min/max/mean
    /// and the p50/p90/p99 accessors. Deterministic: name order, integer
    /// fields, and mean printed via Rust's shortest-roundtrip float
    /// formatting.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("counters");
        w.begin_obj();
        for (name, v) in self.counters() {
            w.key(name);
            w.raw(&v.to_string());
        }
        w.end_obj();
        w.key("histograms");
        w.begin_obj();
        for (name, h) in self.histograms() {
            w.key(name);
            w.begin_obj();
            for (k, v) in [
                ("count", h.count()),
                ("min", h.min()),
                ("max", h.max()),
                ("p50", h.p50()),
                ("p90", h.p90()),
                ("p99", h.p99()),
            ] {
                w.key(k);
                w.raw(&v.to_string());
            }
            w.key("sum");
            w.raw(&h.sum().to_string());
            w.key("mean");
            w.raw(&format!("{}", h.mean()));
            w.key("buckets");
            // Sparse rendering: only non-empty buckets, as "lo": count.
            w.begin_obj();
            for (i, &c) in h.buckets().iter().enumerate() {
                if c > 0 {
                    let mut key = String::new();
                    push_json_str(&mut key, &crate::hist::bucket_bounds(i).0.to_string());
                    w.raw_key(&key);
                    w.raw(&c.to_string());
                }
            }
            w.end_obj();
            w.end_obj();
        }
        w.end_obj();
        w.end_obj();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_histograms_round_trip() {
        let mut m = Metrics::new();
        m.inc("a");
        m.add("a", 4);
        m.observe("lat", 100);
        m.observe("lat", 200);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.histogram("lat").unwrap().count(), 2);
        assert!(m.histogram("missing").is_none());
    }

    #[test]
    fn merge_sums_both_kinds() {
        let mut a = Metrics::new();
        a.inc("x");
        a.observe("h", 1);
        let mut b = Metrics::new();
        b.add("x", 2);
        b.observe("h", 3);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn json_is_deterministic_and_ordered() {
        let mut m = Metrics::new();
        m.inc("zeta");
        m.inc("alpha");
        m.observe("lat", 7);
        let j1 = m.to_json();
        let j2 = m.to_json();
        assert_eq!(j1, j2);
        assert!(j1.find("\"alpha\"").unwrap() < j1.find("\"zeta\"").unwrap());
        assert!(j1.contains("\"histograms\""));
        assert!(j1.contains("\"p99\""));
    }
}
