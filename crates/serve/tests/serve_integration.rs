//! End-to-end daemon tests against a real listener on an ephemeral
//! port: cold/warm eval, byte-identical answers across a daemon
//! restart (the on-disk result cache), queue-full shedding with
//! `Retry-After`, typed 4xx for malformed requests, the metrics
//! document, the sweep POST/stream lifecycle, and `run_loadgen`
//! against as many connections as workers.

use ccnuma_polsim::TraceFilter;
use ccnuma_serve::{run_loadgen, start, HttpClient, LoadgenOptions, ServeConfig};
use ccnuma_trace::{MissRecord, Trace};
use ccnuma_tracestore::{
    cell_payload, eval_cell, run_sweep, CellParams, SweepPolicy, SweepSpec, TraceMeta, TraceStore,
};
use ccnuma_types::{Ns, Pid, ProcId, TopologyPreset, VirtPage};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

fn test_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ccnuma-serve-{name}-{}", std::process::id()))
}

fn trace(n: u64) -> Trace {
    (0..n)
        .map(|i| {
            MissRecord::user_data_read(Ns(i * 300), ProcId((i % 8) as u16), Pid(1), VirtPage(i / 4))
        })
        .collect()
}

/// Seeds `dir` with one stored trace and returns its slug.
fn seed_store(dir: &Path) -> String {
    seed_trace(dir, "itest [FT]", "itest")
}

/// Stores the 200-record test trace under `label` and returns its slug.
fn seed_trace(dir: &Path, label: &str, identity: &str) -> String {
    let store = TraceStore::new(dir).unwrap();
    let slug = TraceStore::slug(label, identity);
    let meta = TraceMeta {
        label: label.into(),
        records: 200,
        nodes: 8,
        other_time_ns: 50_000,
    };
    store.save(&slug, &trace(200), &meta).unwrap();
    slug
}

fn cfg(dir: &Path) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        trace_dir: dir.to_path_buf(),
        results_dir: dir.join("results"),
        workers: 2,
        ..ServeConfig::default()
    }
}

fn eval_body(slug: &str) -> String {
    format!("{{\"trace\":\"{slug}\",\"policy\":\"FT\",\"trigger\":64}}")
}

#[test]
fn eval_cold_warm_and_restart_are_byte_identical() {
    let dir = test_dir("restart");
    let _ = std::fs::remove_dir_all(&dir);
    let slug = seed_store(&dir);

    let handle = start(cfg(&dir)).unwrap();
    let mut c = HttpClient::connect(handle.addr(), TIMEOUT).unwrap();
    let cold = c
        .request("POST", "/v1/eval", Some(&eval_body(&slug)))
        .unwrap();
    assert_eq!(cold.status, 200, "{}", cold.text());
    assert_eq!(cold.header("x-cache"), Some("miss"));
    assert!(cold.text().contains("\"schema\":\"ccnuma-serve-result/1\""));

    let warm = c
        .request("POST", "/v1/eval", Some(&eval_body(&slug)))
        .unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-cache"), Some("hit"));
    // The X-Cache header carries the hit/miss signal so the body can
    // stay byte-identical between a fresh replay and a cache hit.
    assert_eq!(cold.body, warm.body);
    drop(c);
    handle.shutdown();

    // A fresh daemon over the same directories serves the same bytes
    // from the on-disk result cache without replaying.
    let handle = start(cfg(&dir)).unwrap();
    let mut c = HttpClient::connect(handle.addr(), TIMEOUT).unwrap();
    let after = c
        .request("POST", "/v1/eval", Some(&eval_body(&slug)))
        .unwrap();
    assert_eq!(after.status, 200);
    assert_eq!(after.header("x-cache"), Some("hit"));
    assert_eq!(after.body, cold.body);
    drop(c);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_changed_digit_in_a_stored_result_is_replayed_after_restart() {
    let dir = test_dir("digit");
    let _ = std::fs::remove_dir_all(&dir);
    let slug = seed_store(&dir);
    let handle = start(cfg(&dir)).unwrap();
    let mut c = HttpClient::connect(handle.addr(), TIMEOUT).unwrap();
    let cold = c
        .request("POST", "/v1/eval", Some(&eval_body(&slug)))
        .unwrap();
    assert_eq!(cold.status, 200, "{}", cold.text());
    drop(c);
    handle.shutdown();

    // Bump the first digit of the stored `local_misses`: the payload
    // still parses, only its checksum can tell.
    let entry = std::fs::read_dir(dir.join("results"))
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let text = std::fs::read_to_string(&entry).unwrap();
    let at = text.find("\"local_misses\":").unwrap() + "\"local_misses\":".len();
    let mut bytes = text.into_bytes();
    bytes[at] = if bytes[at] == b'9' {
        b'1'
    } else {
        bytes[at] + 1
    };
    std::fs::write(&entry, bytes).unwrap();

    let handle = start(cfg(&dir)).unwrap();
    let mut c = HttpClient::connect(handle.addr(), TIMEOUT).unwrap();
    let after = c
        .request("POST", "/v1/eval", Some(&eval_body(&slug)))
        .unwrap();
    assert_eq!(after.status, 200);
    assert_eq!(after.header("x-cache"), Some("miss"), "damage is a replay");
    let cell = CellParams {
        policy: SweepPolicy::FirstTouch,
        trigger: 64,
        sample: 1,
        remote_ns: 1200,
        move_us: 350,
        topology: TopologyPreset::Flat,
    };
    let (report, records) = eval_cell(
        &cell,
        8,
        Ns(50_000),
        TraceFilter::UserOnly,
        trace(200).as_slice(),
    );
    let want = format!("\"result\":{}}}", cell_payload(&report, records));
    assert!(after.text().ends_with(&want), "{}", after.text());
    assert_eq!(after.body, cold.body);
    let metrics = c.request("GET", "/v1/metrics", None).unwrap();
    assert!(
        metrics.text().contains("\"results_damaged\":1"),
        "{}",
        metrics.text()
    );
    drop(c);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queue_full_is_typed_503_with_retry_after() {
    let dir = test_dir("shed");
    let _ = std::fs::remove_dir_all(&dir);
    seed_store(&dir);
    let mut config = cfg(&dir);
    config.workers = 1;
    config.queue_depth = 1;
    let handle = start(config).unwrap();

    // Occupy the only worker with a connection that never sends a
    // request, then fill the one queue slot the same way.
    let busy = TcpStream::connect(handle.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    let queued = TcpStream::connect(handle.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(150));

    // The next connection must be shed by the accept thread itself.
    let mut shed = TcpStream::connect(handle.addr()).unwrap();
    shed.set_read_timeout(Some(TIMEOUT)).unwrap();
    let mut response = String::new();
    shed.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 503"), "{response}");
    assert!(response.contains("Retry-After: 1"), "{response}");
    assert!(response.contains("shed_queue_full"), "{response}");

    drop(busy);
    drop(queued);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_requests_get_typed_4xx_not_a_crash() {
    let dir = test_dir("malformed");
    let _ = std::fs::remove_dir_all(&dir);
    seed_store(&dir);
    let handle = start(cfg(&dir)).unwrap();

    // Garbage request line → 400 with a typed error body.
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    s.set_read_timeout(Some(TIMEOUT)).unwrap();
    s.write_all(b"NOT AN HTTP LINE\r\n\r\n").unwrap();
    let mut response = String::new();
    s.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    assert!(response.contains("\"error\""), "{response}");

    // Declared body over the cap → 413 before any body byte is read.
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    s.set_read_timeout(Some(TIMEOUT)).unwrap();
    s.write_all(b"POST /v1/eval HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    s.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 413"), "{response}");

    // The daemon is still healthy afterwards.
    let mut c = HttpClient::connect(handle.addr(), TIMEOUT).unwrap();
    let health = c.request("GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);

    // Unknown routes and wrong methods are typed, too.
    let missing = c.request("GET", "/v1/nope", None).unwrap();
    assert_eq!(missing.status, 404);
    let wrong = c.request("GET", "/v1/eval", None).unwrap();
    assert_eq!(wrong.status, 405);
    let unknown_trace = c
        .request(
            "POST",
            "/v1/eval",
            Some("{\"trace\":\"no-such-trace\",\"policy\":\"FT\"}"),
        )
        .unwrap();
    assert_eq!(unknown_trace.status, 404);

    // A zero sample rate is rejected by eval as it is by sweeps.
    let slug = TraceStore::slug("itest [FT]", "itest");
    let zero = format!("{{\"trace\":\"{slug}\",\"policy\":\"FT\",\"sample_rate\":0}}");
    let eval = c.request("POST", "/v1/eval", Some(&zero)).unwrap();
    assert_eq!(eval.status, 400, "{}", eval.text());
    assert!(eval.text().contains("\"bad_field\""), "{}", eval.text());
    let zero = format!("{{\"trace\":\"{slug}\",\"sample_rates\":[0]}}");
    let sweep = c.request("POST", "/v1/sweeps", Some(&zero)).unwrap();
    assert_eq!(sweep.status, 400, "{}", sweep.text());
    assert!(sweep.text().contains("\"bad_field\""), "{}", sweep.text());
    drop(c);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traces_and_metrics_documents_parse() {
    use ccnuma_obs::json::JsonValue;
    let dir = test_dir("metrics");
    let _ = std::fs::remove_dir_all(&dir);
    let slug = seed_store(&dir);
    let handle = start(cfg(&dir)).unwrap();
    let mut c = HttpClient::connect(handle.addr(), TIMEOUT).unwrap();

    let listing = c.request("GET", "/v1/traces", None).unwrap();
    assert_eq!(listing.status, 200);
    let v = JsonValue::parse(&listing.text()).unwrap();
    assert_eq!(
        v.get("schema").and_then(JsonValue::as_str),
        Some("ccnuma-trace-ls/1")
    );
    let entries = v.get("entries").and_then(JsonValue::as_array).unwrap();
    assert!(entries
        .iter()
        .any(|e| e.get("slug").and_then(JsonValue::as_str) == Some(slug.as_str())));

    // One eval populates the latency histograms.
    let eval = c
        .request("POST", "/v1/eval", Some(&eval_body(&slug)))
        .unwrap();
    assert_eq!(eval.status, 200);

    let metrics = c.request("GET", "/v1/metrics", None).unwrap();
    assert_eq!(metrics.status, 200);
    let v = JsonValue::parse(&metrics.text()).unwrap();
    assert_eq!(
        v.get("schema").and_then(JsonValue::as_str),
        Some("ccnuma-serve-metrics/1")
    );
    let hist = v
        .get("metrics")
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get("eval_latency_us"))
        .expect("eval latency histogram present");
    assert!(hist.get("p99").is_some(), "p99 missing: {}", metrics.text());
    let counters = v.get("metrics").and_then(|m| m.get("counters")).unwrap();
    assert_eq!(
        counters.get("req_eval").and_then(JsonValue::as_u64),
        Some(1)
    );
    drop(c);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_post_streams_progress_then_final_document() {
    use ccnuma_obs::json::JsonValue;
    let dir = test_dir("sweep");
    let _ = std::fs::remove_dir_all(&dir);
    let slug = seed_store(&dir);
    let handle = start(cfg(&dir)).unwrap();
    let mut c = HttpClient::connect(handle.addr(), TIMEOUT).unwrap();

    let body = format!(
        "{{\"trace\":\"{slug}\",\"policies\":[\"FT\",\"RR\"],\"triggers\":[64],\"sample_rates\":[1]}}"
    );
    let ack = c.request("POST", "/v1/sweeps", Some(&body)).unwrap();
    assert_eq!(ack.status, 202, "{}", ack.text());
    let v = JsonValue::parse(&ack.text()).unwrap();
    let id = v.get("id").and_then(JsonValue::as_str).unwrap().to_string();
    assert_eq!(v.get("cells").and_then(JsonValue::as_u64), Some(2));

    // The progress stream is ndjson: progress lines, then the final
    // ccnuma-sweep/2 document.
    let stream = c.request("GET", &format!("/v1/sweeps/{id}"), None).unwrap();
    assert_eq!(stream.status, 200);
    let text = stream.text();
    let last = text.lines().last().unwrap();
    let doc = JsonValue::parse(last).unwrap();
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("ccnuma-sweep/2"),
        "{text}"
    );
    assert!(text.lines().any(|l| l.contains("\"done\"")), "{text}");

    // Re-POSTing the same grid is idempotent: same content-addressed
    // id, no second execution.
    let again = c.request("POST", "/v1/sweeps", Some(&body)).unwrap();
    assert_eq!(again.status, 200);
    let v = JsonValue::parse(&again.text()).unwrap();
    assert_eq!(v.get("id").and_then(JsonValue::as_str), Some(id.as_str()));
    drop(c);
    handle.shutdown();

    // A fresh daemon reruns the sweep purely from the result cache and
    // produces the identical document.
    let handle = start(cfg(&dir)).unwrap();
    let mut c = HttpClient::connect(handle.addr(), TIMEOUT).unwrap();
    let ack = c.request("POST", "/v1/sweeps", Some(&body)).unwrap();
    assert!(ack.status == 202 || ack.status == 200, "{}", ack.text());
    let stream = c.request("GET", &format!("/v1/sweeps/{id}"), None).unwrap();
    let text2 = stream.text();
    assert_eq!(text2.lines().last(), Some(last), "restarted sweep differs");
    drop(c);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One counter of the `/v1/metrics` document.
fn counter(c: &mut HttpClient, name: &str) -> Option<u64> {
    use ccnuma_obs::json::JsonValue;
    let m = JsonValue::parse(&c.request("GET", "/v1/metrics", None).unwrap().text()).unwrap();
    m.get("metrics")?.get("counters")?.get(name)?.as_u64()
}

/// POSTs `body` as a sweep and returns its NDJSON stream's lines.
fn sweep_lines(c: &mut HttpClient, body: &str) -> Vec<String> {
    use ccnuma_obs::json::JsonValue;
    let ack = c.request("POST", "/v1/sweeps", Some(body)).unwrap();
    assert!(ack.status == 202 || ack.status == 200, "{}", ack.text());
    let v = JsonValue::parse(&ack.text()).unwrap();
    let id = v.get("id").and_then(JsonValue::as_str).unwrap().to_string();
    let stream = c.request("GET", &format!("/v1/sweeps/{id}"), None).unwrap();
    assert_eq!(stream.status, 200);
    stream.text().lines().map(str::to_string).collect()
}

#[test]
fn a_static_sweep_is_one_pass_and_the_document_repro_sweep_writes() {
    let dir = test_dir("static-sweep");
    let _ = std::fs::remove_dir_all(&dir);
    let slug = seed_store(&dir);
    let body = format!(
        "{{\"trace\":\"{slug}\",\"policies\":[\"RR\",\"FT\",\"PF\"],\
         \"remote_latencies_ns\":[300,1200,3000],\
         \"topologies\":[\"flat\",\"two-socket\",\"cxl-tiered\"]}}"
    );
    // The same grid through `repro sweep`'s entry point: 108 grid
    // cells on 15 distinct static ones, all priced from one pass.
    let spec = SweepSpec {
        policies: vec![
            SweepPolicy::RoundRobin,
            SweepPolicy::FirstTouch,
            SweepPolicy::PostFacto,
        ],
        remote_latencies_ns: vec![300, 1200, 3000],
        topologies: vec![
            TopologyPreset::Flat,
            TopologyPreset::TwoSocket,
            TopologyPreset::CxlTiered,
        ],
        ..SweepSpec::default_grid()
    };
    let store = TraceStore::new(&dir).unwrap();
    let want = run_sweep(&spec, 8, Ns(50_000), 1, || {
        store.open(&slug).map(|(reader, _)| reader)
    })
    .unwrap();
    assert_eq!((want.cells.len(), want.unique_replays), (108, 15));
    let want = want.to_json("itest [FT]");

    let handle = start(cfg(&dir)).unwrap();
    let mut c = HttpClient::connect(handle.addr(), TIMEOUT).unwrap();
    let lines = sweep_lines(&mut c, &body);
    let (doc, progress) = lines.split_last().unwrap();
    assert_eq!(doc, &want, "byte for byte");
    assert_eq!(progress.last().unwrap(), "{\"done\":108,\"total\":108}");
    assert_eq!(counter(&mut c, "sweep_passes"), Some(1), "one static pass");
    drop(c);
    handle.shutdown();

    // After a restart every cell is in the result cache: no pass, and
    // the trace is never even loaded.
    let handle = start(cfg(&dir)).unwrap();
    let mut c = HttpClient::connect(handle.addr(), TIMEOUT).unwrap();
    let lines = sweep_lines(&mut c, &body);
    assert_eq!(lines.last(), Some(&want));
    assert_eq!(counter(&mut c, "sweep_passes"), Some(0));
    assert_eq!(handle.state().resident_footprint(), (0, 0));
    drop(c);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_sweep_grid_is_rejected_with_cell_budget() {
    let dir = test_dir("budget");
    let _ = std::fs::remove_dir_all(&dir);
    let slug = seed_store(&dir);
    let mut config = cfg(&dir);
    config.max_cells = 3;
    let handle = start(config).unwrap();
    let mut c = HttpClient::connect(handle.addr(), TIMEOUT).unwrap();
    let body = format!(
        "{{\"trace\":\"{slug}\",\"policies\":[\"FT\",\"RR\"],\"triggers\":[64,128],\"sample_rates\":[1]}}"
    );
    let resp = c.request("POST", "/v1/sweeps", Some(&body)).unwrap();
    assert_eq!(resp.status, 413, "{}", resp.text());
    assert!(resp.text().contains("cell_budget"), "{}", resp.text());
    drop(c);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loadgen_probe_does_not_pin_a_worker() {
    use ccnuma_obs::json::JsonValue;
    let dir = test_dir("loadgen");
    let _ = std::fs::remove_dir_all(&dir);
    let slug = seed_store(&dir);

    // As many client connections as daemon workers: a probe connection
    // left open through the timed phase would hold one worker, and one
    // client's first request would then wait until another client
    // disconnects at the deadline or the daemon's 5 s read timeout
    // frees the probe's worker.
    let handle = start(cfg(&dir)).unwrap();
    let opts = LoadgenOptions {
        addr: handle.addr(),
        concurrency: 2,
        duration: Duration::from_secs(1),
        trace: Some(slug),
    };
    let report = run_loadgen(&opts).unwrap();
    handle.shutdown();
    let v = JsonValue::parse(&report).unwrap();
    let u = |k: &str| v.get(k).and_then(JsonValue::as_u64).unwrap();
    assert!(u("requests") > 0, "{report}");
    assert_eq!(u("transport_errors"), 0, "{report}");
    let max_us = v
        .get("latency_us")
        .and_then(|l| l.get("max"))
        .and_then(JsonValue::as_u64)
        .unwrap();
    assert!(max_us < 500_000, "a client stalled {max_us} us: {report}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn each_footer_is_read_once_and_warm_evals_touch_no_file() {
    let dir = test_dir("catalogue");
    let _ = std::fs::remove_dir_all(&dir);
    let slug = seed_store(&dir);
    let mut config = cfg(&dir);
    config.prewarm = vec![slug.clone()];
    let handle = start(config).unwrap();
    let mut c = HttpClient::connect(handle.addr(), TIMEOUT).unwrap();
    let first = c
        .request("POST", "/v1/eval", Some(&eval_body(&slug)))
        .unwrap();
    assert_eq!(first.status, 200, "{}", first.text());
    for _ in 0..5 {
        let warm = c
            .request("POST", "/v1/eval", Some(&eval_body(&slug)))
            .unwrap();
        assert_eq!(warm.header("x-cache"), Some("hit"));
        assert_eq!(warm.body, first.body);
    }
    assert_eq!(counter(&mut c, "trace_footer_reads"), Some(1));

    // Damage the footer in place: a warm eval still answers from memory,
    // so it cannot have read the footer.
    let path = dir.join(format!("{slug}.trace"));
    let mut bytes = std::fs::read(&path).unwrap();
    let len = bytes.len();
    for b in &mut bytes[len - 16..] {
        *b ^= 0xff;
    }
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .write_all(&bytes)
        .unwrap();
    assert!(TraceStore::new(&dir).unwrap().meta(&slug).is_err());
    let warm = c
        .request("POST", "/v1/eval", Some(&eval_body(&slug)))
        .unwrap();
    assert_eq!(warm.status, 200, "{}", warm.text());
    assert_eq!(warm.header("x-cache"), Some("hit"));
    assert_eq!(warm.body, first.body);

    // Once the file is gone, a stored cell is still served, but a cell
    // that needs a replay is an unknown trace.
    std::fs::remove_file(&path).unwrap();
    let stored = c
        .request("POST", "/v1/eval", Some(&eval_body(&slug)))
        .unwrap();
    assert_eq!(stored.header("x-cache"), Some("hit"));
    assert_eq!(stored.body, first.body);
    let fresh = format!("{{\"trace\":\"{slug}\",\"policy\":\"RR\"}}");
    let gone = c.request("POST", "/v1/eval", Some(&fresh)).unwrap();
    assert_eq!(gone.status, 404, "{}", gone.text());
    assert!(gone.text().contains("\"unknown_trace\""), "{}", gone.text());
    assert_eq!(counter(&mut c, "trace_footer_reads"), Some(1));
    drop(c);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // A label lookup scans the store, but reads each footer once.
    let dir = test_dir("catalogue-labels");
    let _ = std::fs::remove_dir_all(&dir);
    let a = seed_trace(&dir, "label-a", "a");
    let b = seed_trace(&dir, "label-b", "b");
    let last = if a < b { "label-b" } else { "label-a" };
    let handle = start(cfg(&dir)).unwrap();
    let mut c = HttpClient::connect(handle.addr(), TIMEOUT).unwrap();
    for _ in 0..4 {
        let r = c
            .request("POST", "/v1/eval", Some(&eval_body(last)))
            .unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
        assert!(r.text().contains(&format!("\"trace_label\":\"{last}\"")));
    }
    assert_eq!(counter(&mut c, "trace_footer_reads"), Some(2));
    drop(c);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eviction_drops_records_but_keeps_the_meta() {
    let dir = test_dir("evict");
    let _ = std::fs::remove_dir_all(&dir);
    let a = seed_trace(&dir, "label-a", "a");
    let b = seed_trace(&dir, "label-b", "b");
    let one = 200 * std::mem::size_of::<MissRecord>() as u64;
    let mut config = cfg(&dir);
    config.trace_budget_bytes = one;
    let handle = start(config).unwrap();
    let mut c = HttpClient::connect(handle.addr(), TIMEOUT).unwrap();
    let cell =
        |slug: &str, policy: &str| format!("{{\"trace\":\"{slug}\",\"policy\":\"{policy}\"}}");
    // Each replay needs its trace's records, so each load evicts the
    // other trace's; its meta stays and is never read again.
    for (slug, policy) in [(&a, "FT"), (&b, "FT"), (&a, "RR")] {
        let r = c
            .request("POST", "/v1/eval", Some(&cell(slug, policy)))
            .unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
        assert_eq!(r.header("x-cache"), Some("miss"));
        assert_eq!(handle.state().resident_footprint(), (1, one));
    }
    assert_eq!(counter(&mut c, "trace_footer_reads"), Some(2));
    drop(c);
    handle.shutdown();

    // A trace larger than the whole budget is shed, typed.
    let mut config = cfg(&dir);
    config.trace_budget_bytes = one - 1;
    let handle = start(config).unwrap();
    let mut c = HttpClient::connect(handle.addr(), TIMEOUT).unwrap();
    let r = c
        .request("POST", "/v1/eval", Some(&cell(&a, "PF")))
        .unwrap();
    assert_eq!(r.status, 503, "{}", r.text());
    assert!(r.text().contains("shed_over_capacity"), "{}", r.text());
    assert_eq!(handle.state().resident_footprint(), (0, 0));
    drop(c);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
