//! `perfsuite`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfsuite/Cargo.toml -- \
//!     --workload sim-suite|sweep-grid|serve-eval --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each workload drives the program only
//! through its public library functions, checks every output, and
//! prints one JSON object as the last line of stdout. With `--trace 0`
//! it carries the end-to-end metrics; with `--trace 1` the per-layer
//! metrics of a separate traced run. See `perfsuite/README.md`.

mod affinity;
mod probes;
mod serve_eval;
mod sim_suite;
mod spans;
mod stats;
mod sweep_grid;

use spans::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;

/// The seed that reproduces the catalog's own seeds (the golden inputs).
pub const DEFAULT_SEED: u64 = 0;

/// End-to-end metrics, reported by every workload with `--trace 0`
/// (name, unit); `BENCHMARK.json` lists the same.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer a workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("workloads.gen_ns_per_ref", "ns"),
    ("workloads.gen_share", "%"),
    ("machine.run_s", "s"),
    ("machine.refs", "count"),
    ("machine.ns_per_ref.engineering", "ns"),
    ("machine.ns_per_ref.raytrace", "ns"),
    ("machine.ns_per_ref.splash", "ns"),
    ("machine.ns_per_ref.database", "ns"),
    ("machine.ns_per_ref.pmake", "ns"),
    ("machine.ns_per_ref.shared_reader", "ns"),
    ("machine.sim_time_ns", "ns"),
    ("machine.local_misses", "count"),
    ("machine.remote_misses", "count"),
    ("machine.directory_requests", "count"),
    ("machine.directory_wait_ns", "ns"),
    ("core.hot_events", "count"),
    ("core.migrations", "count"),
    ("core.replications", "count"),
    ("core.collapses", "count"),
    ("kernel.lock_wait_ns", "ns"),
    ("machine.self_share", "%"),
    ("bench.self_share", "%"),
    ("polsim.self_share", "%"),
    ("tracestore.self_share", "%"),
    ("serve.self_share", "%"),
    ("loadgen.self_share", "%"),
    ("bench.unattributed_share", "%"),
    ("bench.traced_wall_s", "s"),
    ("bench.tracing_overhead_pct", "%"),
    ("bench.cache_hit_ratio", "ratio"),
    ("polsim.replay_records_per_s", "1/s"),
    ("tracestore.encode_mb_per_s", "MB/s"),
    ("tracestore.decode_mb_per_s", "MB/s"),
    ("tracestore.bytes_per_record", "B"),
    ("tracestore.decode_share", "%"),
    ("tracestore.sweep_unique_replays", "count"),
    ("tracestore.sweep_passes", "count"),
    ("tracestore.results_store_us", "us"),
    ("tracestore.results_load_us", "us"),
    ("serve.http_parse_us", "us"),
    ("serve.http_write_us", "us"),
    ("serve.warm_p50_ms", "ms"),
    ("serve.warm_p99_ms", "ms"),
    ("serve.warm_max_rps", "1/s"),
    ("serve.warm_hit_ratio", "ratio"),
    ("serve.cold_hit_ratio", "ratio"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.cold_p90_ms", "ms"),
    ("serve.cold_replay_share", "%"),
    ("serve.shed", "count"),
    ("serve.errors_5xx", "count"),
    ("serve.transport_errors", "count"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.backlog_max", "count"),
];

/// What one workload run is given.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub tracer: Tracer,
    /// Working directory for this run (trace stores, result caches);
    /// removed when the run ends.
    pub dir: PathBuf,
}

impl Ctx {
    pub fn is_default_seed(&self) -> bool {
        self.seed == DEFAULT_SEED
    }

    /// A fresh, empty directory under the run's working directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let d = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("creating a working directory");
        d
    }

    /// Derives a seed for one input from the run seed.
    pub fn derive(&self, salt: u64) -> u64 {
        stats::splitmix64(self.seed ^ stats::splitmix64(salt))
    }
}

/// A workload's outcome: operation counts, failures, and metrics. The
/// run is correct when nothing failed.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Counts `n` attempted operations.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records a failed operation or correctness gate.
    pub fn fail(&mut self, what: String) {
        eprintln!("perfsuite: FAILED: {what}");
        self.failed += 1;
    }

    /// Checks `ok`, recording `what` as a failure otherwise.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }
}

/// Adds the span-derived layer shares of `wall_s` (the traced time) and
/// the tracing overhead, which each workload measures on work of a
/// fixed size, and writes the spans out. `moved` re-charges a measured
/// fraction of one layer's self time to another, where one span covers
/// two layers' work (a sweep pass both decodes and replays).
pub fn finish_trace(
    ctx: &Ctx,
    rep: &mut Report,
    workload: &str,
    wall_s: f64,
    overhead_pct: f64,
    moved: Option<(&'static str, &'static str, f64)>,
) {
    let (mut self_s, unattributed) = ctx.tracer.self_times(wall_s);
    if let Some((from, to, fraction)) = moved {
        let amount = self_s[from] * fraction.clamp(0.0, 1.0);
        *self_s.get_mut(from).expect("known layer") -= amount;
        *self_s.get_mut(to).expect("known layer") += amount;
    }
    let total: f64 = self_s.values().sum::<f64>() + unattributed;
    for (layer, s) in &self_s {
        rep.metric(format!("{layer}.self_share"), 100.0 * s / total, "%");
    }
    rep.metric(
        "bench.unattributed_share",
        100.0 * unattributed / total,
        "%",
    );
    rep.metric("bench.traced_wall_s", wall_s, "s");
    rep.metric("bench.tracing_overhead_pct", overhead_pct, "%");
    let path =
        PathBuf::from(".perfsuite-out").join(format!("spans-{workload}-seed{}.json", ctx.seed));
    if let Err(e) = std::fs::write(&path, ctx.tracer.to_json()) {
        eprintln!("perfsuite: writing {}: {e}", path.display());
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfsuite --workload sim-suite|sweep-grid|serve-eval --seed N --seconds S --trace 0|1"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 => seconds = s,
                _ => return usage(),
            },
            "--trace" => match value.as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    let run: fn(&Ctx) -> Report = match workload.as_str() {
        "sim-suite" => sim_suite::run,
        "sweep-grid" => sweep_grid::run,
        "serve-eval" => serve_eval::run,
        _ => return usage(),
    };
    if !std::path::Path::new("crates/bench/tests/golden_repro_all_quick.stdout").is_file() {
        eprintln!("perfsuite: run from the repository root");
        return ExitCode::from(2);
    }
    let dir = PathBuf::from(".perfsuite-out")
        .join(format!("{workload}-seed{seed}-pid{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating .perfsuite-out");
    let ctx = Ctx {
        seed,
        seconds,
        traced,
        tracer: Tracer::new(traced),
        dir,
    };
    let mut rep = run(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.dir);
    let declared: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        match rep.metrics.iter().find(|m| m.0 == name) {
            Some(m) if m.2 == unit && m.1.is_finite() => metrics.push((m.0.clone(), m.1, unit)),
            Some(m) if m.2 == unit => rep.fail(format!("metric {name} is not a number: {}", m.1)),
            Some(m) => rep.fail(format!("metric {name} reported in {} not {unit}", m.2)),
            None if traced => metrics.push((name.to_string(), 0.0, unit)),
            None => rep.fail(format!("metric {name} was not measured")),
        }
    }
    let undeclared: Vec<String> = rep
        .metrics
        .iter()
        .filter(|m| !declared.iter().any(|d| d.0 == m.0))
        .map(|m| m.0.clone())
        .collect();
    for name in undeclared {
        rep.fail(format!("metric {name} is not declared in BENCHMARK.json"));
    }
    rep.metrics = metrics;

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "perfsuite workload={workload} seed={seed} seconds={seconds} trace={} nproc={nproc} commit={} profile={profile}",
        u8::from(traced),
        stats::commit()
    );
    println!(
        "  fail_ratio = {} ({} failed of {} attempted)",
        rep.failed as f64 / rep.attempted.max(1) as f64,
        rep.failed,
        rep.attempted
    );
    for (name, value, unit) in &rep.metrics {
        println!("  {name} = {value} {unit}");
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        rep.failed == 0,
        rep.attempted.max(1),
        rep.failed
    );
    for (i, (name, value, unit)) in rep.metrics.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    json.push_str("}}");
    println!("{json}");
    if rep.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};
    use ccnuma_obs::json::JsonValue;

    /// `BENCHMARK.json` names exactly the metrics the runs report.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(JsonValue::as_str).expect("name and unit");
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect()
        };
        let declared = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), declared(&END_TO_END));
        assert_eq!(listed("per_layer"), declared(&PER_LAYER));
    }
}
