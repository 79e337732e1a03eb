//! Per-layer probes and counters shared by the workloads.
//!
//! A probe times one layer's public entry point directly, on the
//! workload's own inputs: reference generation, a machine run, one
//! replay, the v2 codec, the result cache and the HTTP codec. Probes run
//! only in the traced run (`--trace 1`), outside the traced pass.

use crate::stats::{median, secs, splitmix64};
use crate::Report;
use ccnuma_bench::ft_options;
use ccnuma_machine::{RunReport, RunSpec};
use ccnuma_polsim::TraceFilter;
use ccnuma_serve::http::{read_request, write_response};
use ccnuma_trace::MissRecord;
use ccnuma_tracestore::{
    cell_payload, eval_cell, CellParams, ResultCache, SweepPolicy, TraceMeta, TraceStore,
};
use ccnuma_types::{Ns, TopologyPreset};
use ccnuma_workloads::{Scale, WorkloadKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Probe inputs are capped at this many trace records, so a probe costs
/// about the same on every workload.
pub const PROBE_RECORDS: usize = 400_000;

/// Per-kind keys of `machine.ns_per_ref.*`.
pub const KINDS: [&str; 6] = [
    "engineering",
    "raytrace",
    "splash",
    "database",
    "pmake",
    "shared_reader",
];

/// One timed machine run.
pub struct MachineRun {
    pub kind: &'static str,
    pub secs: f64,
    pub refs: u64,
}

/// The `KINDS` key of a report's workload name.
pub fn kind_key(workload: &str) -> &'static str {
    match workload {
        "Engineering" => KINDS[0],
        "Raytrace" => KINDS[1],
        "Splash" => KINDS[2],
        "Database" => KINDS[3],
        "Pmake" => KINDS[4],
        _ => KINDS[5],
    }
}

/// Re-seeds a spec from the run seed; the default seed keeps the
/// catalog's own seed (the golden inputs).
pub fn reseed(spec: RunSpec, seed: u64) -> RunSpec {
    if seed == crate::DEFAULT_SEED {
        return spec;
    }
    let base = spec.build_workload().seed;
    spec.with_seed(splitmix64(base ^ splitmix64(seed)))
}

/// Runs and times one spec directly through `RunSpec::run`.
pub fn timed_run(spec: &RunSpec) -> (MachineRun, RunReport) {
    let refs = spec.build_workload().total_refs;
    let t = Instant::now();
    let report = spec.run();
    let run = MachineRun {
        kind: kind_key(&report.workload),
        secs: secs(t),
        refs,
    };
    (run, report)
}

/// Checks the accounting identity every run report must satisfy.
pub fn check_accounting(rep: &mut Report, r: &RunReport) {
    rep.gate(r.cpu_time == r.breakdown.total(), || {
        format!(
            "accounting: {} {}: cpu_time {} != breakdown total {}",
            r.workload,
            r.policy_label,
            r.cpu_time.0,
            r.breakdown.total().0
        )
    });
}

/// A report's simulated statistics, in the order `machine_metrics`
/// names them. They repeat bit for bit for a given spec.
pub fn sim_stats(r: &RunReport) -> [u64; 10] {
    let p = r.policy_stats.unwrap_or_default();
    [
        r.sim_time.0,
        r.breakdown.local_misses(),
        r.breakdown.remote_misses(),
        r.contention.local_requests + r.contention.remote_requests,
        r.contention.total_wait.0,
        p.hot_events,
        p.migrations,
        p.replications,
        p.collapses,
        r.lock_wait.0,
    ]
}

/// Machine-layer metrics: total run time and references, ns per
/// reference per catalog workload (kinds the workload did not run get a
/// quick first-touch probe run), and the simulated statistics summed
/// over `reports`, which repeat bit for bit for a given seed.
pub fn machine_metrics<'a>(
    rep: &mut Report,
    runs: &[MachineRun],
    reports: impl Iterator<Item = &'a RunReport>,
    seed: u64,
) {
    rep.metric("machine.run_s", runs.iter().map(|r| r.secs).sum(), "s");
    rep.metric(
        "machine.refs",
        runs.iter().map(|r| r.refs).sum::<u64>() as f64,
        "count",
    );
    for (i, kind) in KINDS.into_iter().enumerate() {
        let mut of_kind: Vec<&MachineRun> = runs.iter().filter(|r| r.kind == kind).collect();
        let probe;
        if of_kind.is_empty() {
            let spec = match WorkloadKind::ALL.get(i) {
                Some(&wk) => RunSpec::catalog(wk, Scale::quick(), ft_options()),
                None => RunSpec::shared_reader(8, Scale::quick(), ft_options()),
            };
            probe = timed_run(&reseed(spec, seed)).0;
            of_kind.push(&probe);
        }
        let s: f64 = of_kind.iter().map(|r| r.secs).sum();
        let n: u64 = of_kind.iter().map(|r| r.refs).sum();
        rep.metric(
            format!("machine.ns_per_ref.{kind}"),
            1e9 * s / n as f64,
            "ns",
        );
    }
    let mut sums = [0u64; 10];
    for r in reports {
        for (s, a) in sums.iter_mut().zip(sim_stats(r)) {
            *s += a;
        }
    }
    let names = [
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
    ];
    for ((name, unit), v) in names.into_iter().zip(sums) {
        rep.metric(name, v as f64, unit);
    }
}

/// Times `ProcessStream::next_ref` over each spec's own streams and
/// seeds, seeded the way the machine seeds them, for as many references
/// as the spec's run retires. Returns (seconds, references).
pub fn gen_probe(specs: &[RunSpec]) -> (f64, u64) {
    let mut total_s = 0.0;
    let mut total_refs = 0;
    for spec in specs {
        let mut w = spec.build_workload();
        let per_stream = w.total_refs / w.streams.len() as u64;
        let t = Instant::now();
        for (pid, stream) in w.streams.iter_mut().enumerate() {
            let mut rng = SmallRng::seed_from_u64(w.seed ^ splitmix64(pid as u64 + 1));
            for _ in 0..per_stream {
                black_box(stream.next_ref(&mut rng));
            }
        }
        total_s += secs(t);
        total_refs += per_stream * w.streams.len() as u64;
    }
    (total_s, total_refs)
}

/// Reports the generation probe against the machine time of the same runs.
pub fn gen_metrics(rep: &mut Report, specs: &[RunSpec], machine_s: f64) {
    let (s, n) = gen_probe(specs);
    rep.metric("workloads.gen_ns_per_ref", 1e9 * s / n as f64, "ns");
    rep.metric("workloads.gen_share", 100.0 * s / machine_s, "%");
}

/// The cell the replay and serve probes evaluate.
pub fn probe_cell() -> CellParams {
    CellParams {
        policy: SweepPolicy::MigRep,
        trigger: 128,
        sample: 1,
        remote_ns: 1200,
        move_us: 350,
        topology: TopologyPreset::Flat,
    }
}

/// Median wall of `reps` calls of `f`, in seconds.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            secs(t)
        })
        .collect();
    median(&v)
}

/// Median per-call time of `f` in microseconds, timed in batches so the
/// clock's own cost stays out of sub-microsecond calls.
fn median_us(mut f: impl FnMut()) -> f64 {
    const BATCH: usize = 200;
    let v: Vec<f64> = (0..25)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..BATCH {
                f();
            }
            1e6 * secs(t) / BATCH as f64
        })
        .collect();
    median(&v)
}

/// Replay, codec, result-cache and HTTP probes over (a prefix of) the
/// workload's trace. `dir` must be an empty working directory.
pub fn codec_probes(rep: &mut Report, records: &[MissRecord], nodes: u16, other: Ns, dir: &Path) {
    let records = &records[..records.len().min(PROBE_RECORDS)];
    let n = records.len() as f64;
    let cell = probe_cell();
    let replay_s = median_secs(3, || {
        black_box(eval_cell(
            &cell,
            nodes,
            other,
            TraceFilter::UserOnly,
            records,
        ));
    });
    rep.metric("polsim.replay_records_per_s", n / replay_s, "1/s");

    let store = TraceStore::new(dir.join("probe-traces")).expect("probe trace store");
    let meta = TraceMeta {
        label: "probe".into(),
        records: records.len() as u64,
        nodes,
        other_time_ns: other.0,
    };
    let mut bytes = 0;
    let encode_s = median_secs(3, || {
        let summary = store
            .save_records("probe", records.iter().copied(), &meta)
            .expect("probe trace save");
        bytes = summary.bytes;
    });
    let decode_s = median_secs(3, || {
        let (reader, _) = store.open("probe").expect("probe trace open");
        let mut count = 0usize;
        for rec in reader {
            black_box(rec.expect("probe trace decode"));
            count += 1;
        }
        assert_eq!(count, records.len(), "probe trace round trip");
    });
    let mb = bytes as f64 / 1e6;
    rep.metric("tracestore.encode_mb_per_s", mb / encode_s, "MB/s");
    rep.metric("tracestore.decode_mb_per_s", mb / decode_s, "MB/s");
    rep.metric("tracestore.bytes_per_record", bytes as f64 / n, "B");

    let (report, recs) = eval_cell(&cell, nodes, other, TraceFilter::UserOnly, records);
    let payload = cell_payload(&report, recs);
    let cache = ResultCache::new(dir.join("probe-results")).expect("probe result cache");
    let keys: Vec<String> = (0..100)
        .map(|i| {
            ResultCache::key(
                "probe",
                nodes,
                other.0,
                TraceFilter::UserOnly,
                &format!("k{i}"),
            )
        })
        .collect();
    let time_each = |f: &mut dyn FnMut(&str)| -> f64 {
        let v: Vec<f64> = keys
            .iter()
            .map(|k| {
                let t = Instant::now();
                f(k);
                1e6 * secs(t)
            })
            .collect();
        median(&v)
    };
    let store_us = time_each(&mut |k| cache.store(k, &payload).expect("result store"));
    let load_us = time_each(&mut |k| {
        black_box(cache.load(k).expect("result load"));
    });
    rep.metric("tracestore.results_store_us", store_us, "us");
    rep.metric("tracestore.results_load_us", load_us, "us");

    let body = format!(
        "{{\"trace\":\"probe\",\"policy\":\"{}\",\"trigger\":{}}}",
        cell.policy, cell.trigger
    );
    let request = format!(
        "POST /v1/eval HTTP/1.1\r\nHost: serve\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let response_body = format!(
        "{{\"schema\":\"ccnuma-serve-result/1\",\"trace\":\"probe\",\"memo_key\":\"{}\",\"result\":{payload}}}",
        cell.memo_key()
    );
    let parse_us = median_us(|| {
        let mut r = request.as_bytes();
        black_box(read_request(&mut r, 1 << 20).expect("probe request parses"));
    });
    let mut out = Vec::with_capacity(4096);
    let write_us = median_us(|| {
        out.clear();
        write_response(
            &mut out,
            200,
            "OK",
            "application/json",
            &[("X-Cache", "hit".to_string())],
            response_body.as_bytes(),
        )
        .expect("in-memory write");
        black_box(&out);
    });
    rep.metric("serve.http_parse_us", parse_us, "us");
    rep.metric("serve.http_write_us", write_us, "us");
}
