//! `repro obs report` — fleet-wide aggregation of one invocation's
//! observability artifacts.
//!
//! An `--obs-dir` invocation leaves one artifact directory per run
//! (`runs/<slug>/metrics.json`, and with `--profile` also
//! `runs/<slug>/profile.json`) plus an invocation-level
//! `run-metadata.json`. Each is self-contained; nothing summarises the
//! fleet. This module reads the whole directory back and rolls it up:
//! counters are summed, histograms are rebuilt from their sparse log2
//! buckets via [`Histogram::from_parts`] and merged through the same
//! histogram stack the recorder uses — so the fleet p50/p90/p99 are
//! computed over the merged distribution, not averaged per-run — and
//! host profiles aggregate per phase exactly like the sweep engine's
//! worker merge.
//!
//! The rendered summary is deterministic for a given artifact tree
//! (runs are walked in sorted slug order); the `--out` JSON document
//! (`ccnuma-obs-report/1`) additionally carries the merged
//! distributions for downstream tooling.

use ccnuma_obs::json::JsonWriter;
use ccnuma_obs::{bucket_of, Histogram, JsonValue, Phase, BUCKETS, PHASES};
use std::collections::BTreeMap;
use std::path::Path;

/// Schema tag of the `--out` document.
pub const OBS_REPORT_SCHEMA: &str = "ccnuma-obs-report/1";

/// Invocation-level facts lifted from `run-metadata.json`.
#[derive(Debug, Clone, Default)]
pub struct InvocationMeta {
    /// Worker threads the invocation used.
    pub jobs: u64,
    /// Distinct runs computed.
    pub distinct_runs: u64,
    /// Memo-cache hits.
    pub cache_hits: u64,
    /// Runs that ended in a failure.
    pub failed_runs: u64,
    /// Total wall time of the invocation, seconds.
    pub wall_seconds_total: f64,
    /// `(label, wall_seconds)` per computed run, slowest first.
    pub slowest: Vec<(String, f64)>,
    /// Recorded warnings.
    pub warnings: Vec<String>,
}

/// One phase row of the merged host profile.
#[derive(Debug, Clone)]
pub struct PhaseSummary {
    /// The phase.
    pub phase: Phase,
    /// Summed entries across runs.
    pub entries: u64,
    /// Summed timed spans across runs.
    pub spans: u64,
    /// Merged duration histogram (nanoseconds).
    pub hist: Histogram,
}

/// The aggregated fleet view of one obs directory.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Invocation metadata, when `run-metadata.json` was present.
    pub meta: Option<InvocationMeta>,
    /// Run directories aggregated.
    pub runs: u64,
    /// Of those, how many carried a `metrics.json`.
    pub metrics_runs: u64,
    /// Of those, how many carried a `profile.json`.
    pub profile_runs: u64,
    /// Counters summed across every run, name-sorted.
    pub counters: BTreeMap<String, u64>,
    /// Sim-time histograms merged across every run, name-sorted.
    pub histograms: BTreeMap<String, Histogram>,
    /// Merged host profile, [`Phase::ALL`] order (empty when no run
    /// carried a profile).
    pub phases: Vec<PhaseSummary>,
}

/// Rebuilds a [`Histogram`] from the sparse `"lo": count` bucket
/// rendering plus the given sum/min/max members of `obj`.
fn hist_from_json(
    obj: &JsonValue,
    sum_key: &str,
    min_key: &str,
    max_key: &str,
) -> Option<Histogram> {
    let mut counts = [0u64; BUCKETS];
    for (lo, c) in obj.get("buckets")?.members()? {
        counts[bucket_of(lo.parse().ok()?)] += c.as_u64()?;
    }
    Some(Histogram::from_parts(
        counts,
        obj.get(sum_key)?.as_u128()?,
        obj.get(min_key)?.as_u64()?,
        obj.get(max_key)?.as_u64()?,
    ))
}

fn parse_metadata(doc: &JsonValue) -> InvocationMeta {
    let u = |key: &str| doc.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
    let mut slowest: Vec<(String, f64)> = doc
        .get("runs")
        .and_then(JsonValue::as_array)
        .map(|runs| {
            runs.iter()
                .filter_map(|r| {
                    Some((
                        r.get("label")?.as_str()?.to_string(),
                        r.get("wall_seconds")?.as_f64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default();
    slowest.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let warnings = doc
        .get("warnings")
        .and_then(JsonValue::as_array)
        .map(|ws| {
            ws.iter()
                .filter_map(|w| Some(w.as_str()?.to_string()))
                .collect()
        })
        .unwrap_or_default();
    InvocationMeta {
        jobs: u("jobs"),
        distinct_runs: u("distinct_runs"),
        cache_hits: u("cache_hits"),
        failed_runs: u("failed_runs"),
        wall_seconds_total: doc
            .get("wall_seconds_total")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0),
        slowest,
        warnings,
    }
}

/// Reads every artifact under `dir` and aggregates the fleet view.
///
/// Missing pieces degrade: a run directory without `metrics.json` or
/// `profile.json` still counts as a run, and a missing
/// `run-metadata.json` just leaves [`ObsReport::meta`] empty. Only an
/// unreadable directory layout or malformed JSON is an error.
///
/// # Errors
///
/// Returns a message naming the unreadable or malformed file.
pub fn build_report(dir: &Path) -> Result<ObsReport, String> {
    let mut report = ObsReport {
        meta: None,
        runs: 0,
        metrics_runs: 0,
        profile_runs: 0,
        counters: BTreeMap::new(),
        histograms: BTreeMap::new(),
        phases: Vec::new(),
    };
    let meta_path = dir.join("run-metadata.json");
    if meta_path.is_file() {
        let text = std::fs::read_to_string(&meta_path)
            .map_err(|e| format!("reading {}: {e}", meta_path.display()))?;
        let doc =
            JsonValue::parse(&text).map_err(|e| format!("parsing {}: {e}", meta_path.display()))?;
        report.meta = Some(parse_metadata(&doc));
    }

    let runs_dir = dir.join("runs");
    let mut slugs: Vec<std::path::PathBuf> = Vec::new();
    if runs_dir.is_dir() {
        for entry in std::fs::read_dir(&runs_dir)
            .map_err(|e| format!("reading {}: {e}", runs_dir.display()))?
        {
            let entry = entry.map_err(|e| format!("reading {}: {e}", runs_dir.display()))?;
            if entry.path().is_dir() {
                slugs.push(entry.path());
            }
        }
    }
    // Directory iteration order is filesystem-dependent; the report is
    // not.
    slugs.sort();

    let mut phase_entries = [0u64; PHASES];
    let mut phase_spans = [0u64; PHASES];
    let mut phase_hists: [Histogram; PHASES] = std::array::from_fn(|_| Histogram::new());
    for run_dir in &slugs {
        report.runs += 1;
        let metrics_path = run_dir.join("metrics.json");
        if metrics_path.is_file() {
            let text = std::fs::read_to_string(&metrics_path)
                .map_err(|e| format!("reading {}: {e}", metrics_path.display()))?;
            let doc = JsonValue::parse(&text)
                .map_err(|e| format!("parsing {}: {e}", metrics_path.display()))?;
            report.metrics_runs += 1;
            if let Some(counters) = doc.get("counters").and_then(JsonValue::members) {
                for (name, v) in counters {
                    let v = v.as_u64().ok_or_else(|| {
                        format!("{}: counter {name:?} is not a u64", metrics_path.display())
                    })?;
                    *report.counters.entry(name.to_string()).or_insert(0) += v;
                }
            }
            if let Some(hists) = doc.get("histograms").and_then(JsonValue::members) {
                for (name, h) in hists {
                    let rebuilt = hist_from_json(h, "sum", "min", "max").ok_or_else(|| {
                        format!(
                            "{}: histogram {name:?} is malformed",
                            metrics_path.display()
                        )
                    })?;
                    report
                        .histograms
                        .entry(name.to_string())
                        .or_default()
                        .merge(&rebuilt);
                }
            }
        }
        let profile_path = run_dir.join("profile.json");
        if profile_path.is_file() {
            let text = std::fs::read_to_string(&profile_path)
                .map_err(|e| format!("reading {}: {e}", profile_path.display()))?;
            let doc = JsonValue::parse(&text)
                .map_err(|e| format!("parsing {}: {e}", profile_path.display()))?;
            report.profile_runs += 1;
            for row in doc
                .get("phases")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("{}: no \"phases\" array", profile_path.display()))?
            {
                // Rows roll up by name: a document from another schema
                // version may order its phases differently or list ones
                // this build no longer has (skipped).
                let name = row.get("phase").and_then(JsonValue::as_str);
                let Some(i) = Phase::ALL.iter().position(|p| Some(p.name()) == name) else {
                    continue;
                };
                let u = |key: &str| row.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
                phase_entries[i] += u("entries");
                phase_spans[i] += u("spans");
                if let Some(h) = hist_from_json(row, "total_ns", "min_ns", "max_ns") {
                    phase_hists[i].merge(&h);
                }
            }
        }
    }
    if report.profile_runs > 0 {
        report.phases = Phase::ALL
            .into_iter()
            .enumerate()
            .map(|(i, phase)| PhaseSummary {
                phase,
                entries: phase_entries[i],
                spans: phase_spans[i],
                hist: phase_hists[i].clone(),
            })
            .collect();
    }
    Ok(report)
}

impl ObsReport {
    /// The human-readable fleet summary.
    pub fn render(&self, dir: &Path) -> String {
        let mut s = format!("== obs report: {} ==\n", dir.display());
        if let Some(m) = &self.meta {
            s.push_str(&format!(
                "invocation: jobs={} distinct_runs={} cache_hits={} failed_runs={} wall {:.2}s\n",
                m.jobs, m.distinct_runs, m.cache_hits, m.failed_runs, m.wall_seconds_total
            ));
            if !m.slowest.is_empty() {
                s.push_str("slowest runs:\n");
                for (label, wall) in m.slowest.iter().take(5) {
                    s.push_str(&format!("  {wall:>8.2}s  {label}\n"));
                }
            }
            for w in &m.warnings {
                s.push_str(&format!("warning: {w}\n"));
            }
        } else {
            s.push_str("invocation: no run-metadata.json (partial artifact tree)\n");
        }
        s.push_str(&format!(
            "runs aggregated: {} ({} with metrics, {} with host profiles)\n",
            self.runs, self.metrics_runs, self.profile_runs
        ));
        if !self.counters.is_empty() {
            s.push_str("counters (summed):\n");
            for (name, v) in &self.counters {
                s.push_str(&format!("  {name:<40} {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            s.push_str("sim-time histograms (merged):\n");
            for (name, h) in &self.histograms {
                s.push_str(&format!(
                    "  {name:<40} count={} p50={} p90={} p99={} max={}\n",
                    h.count(),
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.max()
                ));
            }
        }
        if !self.phases.is_empty() {
            s.push_str("host profile (merged, host-time ns):\n");
            for p in &self.phases {
                if p.entries == 0 {
                    continue;
                }
                s.push_str(&format!(
                    "  {:<14} entries={} spans={} total_ms={:.3} p50={} p90={} p99={}\n",
                    p.phase.name(),
                    p.entries,
                    p.spans,
                    p.hist.sum() as f64 / 1e6,
                    p.hist.p50(),
                    p.hist.p90(),
                    p.hist.p99()
                ));
            }
        }
        s
    }

    /// Renders the `ccnuma-obs-report/1` JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("schema");
        w.str(OBS_REPORT_SCHEMA);
        w.key("runs");
        w.raw(&self.runs.to_string());
        w.key("metrics_runs");
        w.raw(&self.metrics_runs.to_string());
        w.key("profile_runs");
        w.raw(&self.profile_runs.to_string());
        if let Some(m) = &self.meta {
            w.key("invocation");
            w.begin_obj();
            w.key("jobs");
            w.raw(&m.jobs.to_string());
            w.key("distinct_runs");
            w.raw(&m.distinct_runs.to_string());
            w.key("cache_hits");
            w.raw(&m.cache_hits.to_string());
            w.key("failed_runs");
            w.raw(&m.failed_runs.to_string());
            w.key("wall_seconds_total");
            w.raw(&format!("{:.6}", m.wall_seconds_total));
            w.key("warnings");
            w.raw(&m.warnings.len().to_string());
            w.end_obj();
        }
        w.key("counters");
        w.begin_obj();
        for (name, v) in &self.counters {
            w.key(name);
            w.raw(&v.to_string());
        }
        w.end_obj();
        w.key("histograms");
        w.begin_obj();
        for (name, h) in &self.histograms {
            w.key(name);
            Self::hist_json(&mut w, h);
        }
        w.end_obj();
        w.key("phases");
        w.begin_arr();
        for p in &self.phases {
            w.begin_obj();
            w.key("phase");
            w.str(p.phase.name());
            w.key("entries");
            w.raw(&p.entries.to_string());
            w.key("spans");
            w.raw(&p.spans.to_string());
            w.key("total_ns");
            w.raw(&p.hist.sum().to_string());
            Self::hist_fields(&mut w, &p.hist, "_ns");
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        let mut s = w.finish();
        s.push('\n');
        s
    }

    fn hist_json(w: &mut JsonWriter, h: &Histogram) {
        w.begin_obj();
        w.key("count");
        w.raw(&h.count().to_string());
        w.key("sum");
        w.raw(&h.sum().to_string());
        Self::hist_fields(w, h, "");
        w.end_obj();
    }

    fn hist_fields(w: &mut JsonWriter, h: &Histogram, suffix: &str) {
        for (k, v) in [
            ("min", h.min()),
            ("max", h.max()),
            ("p50", h.p50()),
            ("p90", h.p90()),
            ("p99", h.p99()),
        ] {
            w.key(&format!("{k}{suffix}"));
            w.raw(&v.to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma_obs::{Profiler, SpanProfiler};

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ccnuma-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_run(dir: &Path, slug: &str, lat: u64) {
        let run = dir.join("runs").join(slug);
        std::fs::create_dir_all(&run).unwrap();
        let mut m = ccnuma_obs::Metrics::new();
        m.add("pages_migrated", 3);
        m.observe("op_latency_ns", lat);
        m.observe("op_latency_ns", lat * 2);
        std::fs::write(run.join("metrics.json"), m.to_json()).unwrap();
        let mut p = SpanProfiler::new();
        for _ in 0..4 {
            let s = p.enter(Phase::Pager);
            p.exit(Phase::Pager, s);
        }
        std::fs::write(run.join("profile.json"), p.to_json()).unwrap();
    }

    #[test]
    fn aggregates_counters_histograms_and_phases_across_runs() {
        let dir = scratch("obsreport");
        write_run(&dir, "b-run", 100);
        write_run(&dir, "a-run", 4000);
        std::fs::write(
            dir.join("run-metadata.json"),
            r#"{"schema":"ccnuma-run-metadata/3","jobs":4,"distinct_runs":2,"cache_hits":1,
                "failed_runs":0,"resumed_runs":0,"wall_seconds_total":1.5,
                "runs":[{"label":"a [FT]","slug":"a-run","wall_seconds":1.0},
                        {"label":"b [FT]","slug":"b-run","wall_seconds":0.5}],
                "failures":[],"warnings":["w1"]}"#,
        )
        .unwrap();
        let rep = build_report(&dir).unwrap();
        assert_eq!(rep.runs, 2);
        assert_eq!(rep.metrics_runs, 2);
        assert_eq!(rep.profile_runs, 2);
        assert_eq!(rep.counters["pages_migrated"], 6);
        let h = &rep.histograms["op_latency_ns"];
        assert_eq!(h.count(), 4, "two observations per run, merged");
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), 8000);
        let pager = rep.phases.iter().find(|p| p.phase == Phase::Pager).unwrap();
        assert_eq!(pager.entries, 8);
        assert_eq!(pager.spans, 8);
        assert_eq!(pager.hist.count(), 8);
        let meta = rep.meta.as_ref().unwrap();
        assert_eq!(meta.jobs, 4);
        assert_eq!(meta.slowest[0].0, "a [FT]");
        let text = rep.render(&dir);
        assert!(text.contains("runs aggregated: 2 (2 with metrics, 2 with host profiles)"));
        assert!(text.contains("pages_migrated"));
        assert!(text.contains("warning: w1"));
        assert!(text.contains("pager"));
        let json = rep.to_json();
        assert!(json.starts_with("{\"schema\":\"ccnuma-obs-report/1\""));
        assert!(json.contains("\"counters\":{\"pages_migrated\":6}"));
        assert!(json.contains("\"phase\":\"pager\""));
        // Round-trips through the parser.
        ccnuma_obs::JsonValue::parse(&json).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn profile_rows_roll_up_by_name_not_position() {
        // Rows out of `Phase::ALL` order, plus one phase this build does
        // not know (an older schema's codec row): each known row lands
        // under its own name and the unknown one is skipped.
        let dir = scratch("obsreport-rows");
        let run = dir.join("runs").join("r");
        std::fs::create_dir_all(&run).unwrap();
        let row = |name: &str, n: u64| {
            format!(
                r#"{{"phase":"{name}","stride":1,"entries":{n},"spans":{n},"total_ns":{t},"min_ns":10,"max_ns":10,"buckets":{{"8":{n}}}}}"#,
                t = 10 * n
            )
        };
        let rows = [
            row("lanes", 7),
            row("trace_encode", 100),
            row("replay", 3),
            row("merge", 5),
            row("run", 1),
        ];
        std::fs::write(
            run.join("profile.json"),
            format!(
                r#"{{"schema":"ccnuma-profile/2","phases":[{}]}}"#,
                rows.join(",")
            ),
        )
        .unwrap();
        let rep = build_report(&dir).unwrap();
        let got: Vec<(&str, u64, u64)> = rep
            .phases
            .iter()
            .filter(|p| p.entries > 0)
            .map(|p| (p.phase.name(), p.entries, p.hist.count()))
            .collect();
        assert_eq!(
            got,
            [
                ("run", 1, 1),
                ("replay", 3, 3),
                ("merge", 5, 5),
                ("lanes", 7, 7)
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partial_trees_degrade_instead_of_failing() {
        let dir = scratch("obsreport-partial");
        // No metadata, one bare run directory with no artifacts at all.
        std::fs::create_dir_all(dir.join("runs").join("bare-run")).unwrap();
        let rep = build_report(&dir).unwrap();
        assert!(rep.meta.is_none());
        assert_eq!(rep.runs, 1);
        assert_eq!(rep.metrics_runs, 0);
        assert_eq!(rep.profile_runs, 0);
        assert!(rep.phases.is_empty());
        assert!(rep.render(&dir).contains("no run-metadata.json"));
        // An empty directory is a valid (empty) fleet.
        let empty = scratch("obsreport-empty");
        let rep = build_report(&empty).unwrap();
        assert_eq!(rep.runs, 0);
        // Malformed JSON is a hard error naming the file.
        std::fs::write(dir.join("runs").join("bare-run").join("metrics.json"), "{").unwrap();
        let err = build_report(&dir).unwrap_err();
        assert!(err.contains("metrics.json"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&empty).unwrap();
    }

    #[test]
    fn fleet_percentiles_come_from_the_merged_distribution() {
        // One run with 95 fast ops, another with 5 slow ops: the fleet
        // p99 must see the slow tail even though the fast run alone
        // would report a fast p99.
        let dir = scratch("obsreport-merge");
        let fast = dir.join("runs").join("fast");
        std::fs::create_dir_all(&fast).unwrap();
        let mut m = ccnuma_obs::Metrics::new();
        for _ in 0..95 {
            m.observe("lat", 10);
        }
        std::fs::write(fast.join("metrics.json"), m.to_json()).unwrap();
        let slow = dir.join("runs").join("slow");
        std::fs::create_dir_all(&slow).unwrap();
        let mut m = ccnuma_obs::Metrics::new();
        for _ in 0..5 {
            m.observe("lat", 1_000_000);
        }
        std::fs::write(slow.join("metrics.json"), m.to_json()).unwrap();
        let rep = build_report(&dir).unwrap();
        let h = &rep.histograms["lat"];
        assert_eq!(h.count(), 100);
        assert!(h.p50() < 100, "bulk stays fast");
        assert!(h.p99() >= 500_000, "tail survives the merge: {}", h.p99());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
