//! Artifact exporters: JSONL event log, CSV time series, Chrome
//! trace-event JSON, and the per-run artifact directory writer.
//!
//! Every exporter derives its output purely from recorded sim-time data,
//! so artifacts for equal run specs are byte-identical however (and on
//! however many threads) the runs were scheduled. Wall-clock never
//! appears in any per-run artifact.

use crate::audit::{AuditEvent, AuditLog};
use crate::json::JsonWriter;
use crate::recorder::RunRecorder;
use crate::sample::EpochSeries;
use ccnuma_faults::io::atomic_write;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// 64-bit FNV-1a hash — the stable fingerprint behind artifact names.
///
/// # Examples
///
/// ```
/// use ccnuma_obs::fnv1a64;
///
/// assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
/// assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_update(FNV1A64_OFFSET, bytes)
}

/// The FNV-1a 64 offset basis: the hash of no bytes.
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a 64 hash `h` over `bytes`, so a stream can be
/// hashed piecewise: hashing `a` then `b` equals hashing `a ++ b`.
///
/// # Examples
///
/// ```
/// use ccnuma_obs::{fnv1a64, fnv1a64_update, FNV1A64_OFFSET};
///
/// let h = fnv1a64_update(fnv1a64_update(FNV1A64_OFFSET, b"ab"), b"cd");
/// assert_eq!(h, fnv1a64(b"abcd"));
/// ```
#[inline]
pub fn fnv1a64_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Sanitizes `label` into a filesystem-safe slug and appends the FNV
/// fingerprint of `identity`, producing a stable per-spec artifact name.
///
/// # Examples
///
/// ```
/// use ccnuma_obs::artifact_slug;
///
/// let slug = artifact_slug("raytrace [Mig/Rep] +trace", "key");
/// assert!(slug.starts_with("raytrace-mig-rep-trace-"));
/// assert_eq!(artifact_slug("a", "k1"), artifact_slug("a", "k1"));
/// assert_ne!(artifact_slug("a", "k1"), artifact_slug("a", "k2"));
/// ```
pub fn artifact_slug(label: &str, identity: &str) -> String {
    let mut slug = String::new();
    let mut dash = false;
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            slug.push(c.to_ascii_lowercase());
            dash = false;
        } else if !dash && !slug.is_empty() {
            slug.push('-');
            dash = true;
        }
    }
    while slug.ends_with('-') {
        slug.pop();
    }
    let _ = write!(slug, "-{:016x}", fnv1a64(identity.as_bytes()));
    slug
}

/// Writes the audit log as JSONL: one event object per line, fields
/// `event`, `t_ns`, then event-specific members. Time-ordered as
/// recorded.
///
/// # Errors
///
/// Propagates any I/O error from the underlying writer.
pub fn write_events_jsonl<W: Write>(mut w: W, log: &AuditLog) -> io::Result<()> {
    for e in log.events() {
        let mut j = JsonWriter::new();
        j.begin_obj();
        match e {
            AuditEvent::Decision(d) => {
                j.key("event");
                j.str("decision");
                j.key("t_ns");
                j.raw(&d.now.0.to_string());
                j.key("action");
                j.str(d.action.name());
                j.key("page");
                j.raw(&d.page.0.to_string());
                j.key("proc");
                j.raw(&d.proc.0.to_string());
                j.key("node");
                j.raw(&d.node.0.to_string());
                if let Some(t) = d.action.target() {
                    j.key("target_node");
                    j.raw(&t.0.to_string());
                }
                j.key("mapped_node");
                j.raw(&d.mapped_node.0.to_string());
                j.key("is_write");
                j.raw(if d.is_write { "true" } else { "false" });
                j.key("pressure");
                j.raw(if d.pressure { "true" } else { "false" });
                j.key("counter");
                j.raw(&d.counter.to_string());
                j.key("writes");
                j.raw(&d.writes.to_string());
                j.key("migrates");
                j.raw(&d.migrates.to_string());
            }
            AuditEvent::NoPage { now, page, action } => {
                j.key("event");
                j.str("no_page");
                j.key("t_ns");
                j.raw(&now.0.to_string());
                j.key("action");
                j.str(action.name());
                j.key("page");
                j.raw(&page.0.to_string());
            }
            AuditEvent::Reset { now, epoch } => {
                j.key("event");
                j.str("reset");
                j.key("t_ns");
                j.raw(&now.0.to_string());
                j.key("epoch");
                j.raw(&epoch.to_string());
            }
            AuditEvent::Fault(f) => {
                use ccnuma_faults::FaultKind;
                j.key("event");
                j.str("fault");
                j.key("t_ns");
                j.raw(&f.now.0.to_string());
                j.key("kind");
                j.str(f.kind.name());
                match f.kind {
                    FaultKind::StormSeize { node, frames }
                    | FaultKind::StormRelease { node, frames } => {
                        j.key("node");
                        j.raw(&node.0.to_string());
                        j.key("frames");
                        j.raw(&frames.to_string());
                    }
                    FaultKind::CopyAbort { page } | FaultKind::CounterCapped { page } => {
                        j.key("page");
                        j.raw(&page.0.to_string());
                    }
                    FaultKind::AllocBlocked { node } => {
                        j.key("node");
                        j.raw(&node.0.to_string());
                    }
                    FaultKind::AckDelay { delay } => {
                        j.key("delay_ns");
                        j.raw(&delay.0.to_string());
                    }
                    FaultKind::InterruptLost => {}
                }
            }
        }
        j.end_obj();
        writeln!(w, "{}", j.finish())?;
    }
    Ok(())
}

/// Writes the epoch time series as CSV.
///
/// Columns: `epoch,t_ns` then per-epoch deltas
/// (`local_misses,remote_misses,local_miss_pct,migrations,replications,
/// collapses,remaps`) then instantaneous state
/// (`replica_frames,frames_used,dir_occupancy_pct,policy_overhead_ns`).
/// The miss percentage is computed over the epoch's own misses, so each
/// row describes locality *during* that epoch — the paper's over-time
/// view.
///
/// # Errors
///
/// Propagates any I/O error from the underlying writer.
pub fn write_timeseries_csv<W: Write>(mut w: W, series: &EpochSeries) -> io::Result<()> {
    writeln!(
        w,
        "epoch,t_ns,local_misses,remote_misses,local_miss_pct,migrations,replications,\
         collapses,remaps,replica_frames,frames_used,dir_occupancy_pct,policy_overhead_ns"
    )?;
    let mut prev = crate::sample::SampleView::default();
    for (i, s) in series.snapshots().iter().enumerate() {
        let v = s.view;
        let local = v.local_misses - prev.local_misses;
        let remote = v.remote_misses - prev.remote_misses;
        let pct = if local + remote == 0 {
            0.0
        } else {
            100.0 * local as f64 / (local + remote) as f64
        };
        writeln!(
            w,
            "{},{},{},{},{:.3},{},{},{},{},{},{},{:.3},{}",
            i,
            s.t.0,
            local,
            remote,
            pct,
            v.migrations - prev.migrations,
            v.replications - prev.replications,
            v.collapses - prev.collapses,
            v.remaps - prev.remaps,
            v.replica_frames,
            v.frames_used,
            v.dir_occupancy_pct,
            (v.policy_overhead - prev.policy_overhead).0,
        )?;
        prev = v;
    }
    Ok(())
}

/// Nanoseconds rendered as the microsecond timestamps the trace-event
/// format wants, with fixed sub-microsecond precision (deterministic).
pub(crate) fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Writes the run as Chrome trace-event JSON (loadable in Perfetto or
/// `chrome://tracing`).
///
/// Tracks: one thread per CPU carrying scheduler quanta (`sched` spans
/// named by pid) and pager page-ops (`pager` spans named by operation),
/// plus one `shootdowns` thread of instant events with TLB counts.
///
/// # Errors
///
/// Propagates any I/O error from the underlying writer.
pub fn write_chrome_trace<W: Write>(mut w: W, rec: &RunRecorder, cpus: usize) -> io::Result<()> {
    let mut j = JsonWriter::new();
    j.begin_obj();
    j.key("displayTimeUnit");
    j.str("ns");
    j.key("traceEvents");
    j.begin_arr();

    let shootdown_tid = cpus;
    // Thread-name metadata, one per track.
    for cpu in 0..cpus {
        j.begin_obj();
        j.key("ph");
        j.str("M");
        j.key("name");
        j.str("thread_name");
        j.key("pid");
        j.raw("1");
        j.key("tid");
        j.raw(&cpu.to_string());
        j.key("args");
        j.begin_obj();
        j.key("name");
        j.str(&format!("cpu{cpu}"));
        j.end_obj();
        j.end_obj();
    }
    j.begin_obj();
    j.key("ph");
    j.str("M");
    j.key("name");
    j.str("thread_name");
    j.key("pid");
    j.raw("1");
    j.key("tid");
    j.raw(&shootdown_tid.to_string());
    j.key("args");
    j.begin_obj();
    j.key("name");
    j.str("shootdowns");
    j.end_obj();
    j.end_obj();

    // Scheduler quanta: each context switch opens a span that ends at the
    // CPU's next switch (or end of run). Idle periods (pid None) leave a
    // gap.
    let mut last: Vec<Option<(u64, u64)>> = vec![None; cpus]; // (start_ns, pid)
    let emit_span = |j: &mut JsonWriter, cpu: usize, start: u64, end: u64, pid: u64| {
        j.begin_obj();
        j.key("ph");
        j.str("X");
        j.key("cat");
        j.str("sched");
        j.key("name");
        j.str(&format!("pid {pid}"));
        j.key("pid");
        j.raw("1");
        j.key("tid");
        j.raw(&cpu.to_string());
        j.key("ts");
        j.raw(&ts_us(start));
        j.key("dur");
        j.raw(&ts_us(end.saturating_sub(start)));
        j.end_obj();
    };
    for e in rec.sched_events() {
        if e.cpu >= cpus {
            continue;
        }
        if let Some((start, pid)) = last[e.cpu].take() {
            emit_span(&mut j, e.cpu, start, e.now.0, pid);
        }
        last[e.cpu] = e.pid.map(|p| (e.now.0, p));
    }
    let end = rec.sim_time().0;
    for (cpu, open) in last.iter().enumerate() {
        if let Some((start, pid)) = *open {
            emit_span(&mut j, cpu, start, end.max(start), pid);
        }
    }

    // Pager operations.
    for op in rec.op_events() {
        j.begin_obj();
        j.key("ph");
        j.str("X");
        j.key("cat");
        j.str("pager");
        j.key("name");
        j.str(op.name);
        j.key("pid");
        j.raw("1");
        j.key("tid");
        j.raw(&op.cpu.to_string());
        j.key("ts");
        j.raw(&ts_us(op.start.0));
        j.key("dur");
        j.raw(&ts_us(op.dur.0));
        j.key("args");
        j.begin_obj();
        j.key("page");
        j.raw(&op.page.0.to_string());
        j.key("outcome");
        j.str(op.outcome);
        j.end_obj();
        j.end_obj();
    }

    // Shootdowns: instant events.
    for s in rec.shootdown_events() {
        j.begin_obj();
        j.key("ph");
        j.str("i");
        j.key("s");
        j.str("t");
        j.key("cat");
        j.str("shootdown");
        j.key("name");
        j.str("tlb shootdown");
        j.key("pid");
        j.raw("1");
        j.key("tid");
        j.raw(&shootdown_tid.to_string());
        j.key("ts");
        j.raw(&ts_us(s.now.0));
        j.key("args");
        j.begin_obj();
        j.key("tlbs_flushed");
        j.raw(&s.tlbs.to_string());
        j.key("flush_ops");
        j.raw(&s.flush_ops.to_string());
        j.end_obj();
        j.end_obj();
    }

    j.end_arr();
    j.end_obj();
    w.write_all(j.finish().as_bytes())
}

/// Writes the full artifact set for one run under
/// `<dir>/runs/<slug>/`: `events.jsonl`, `timeseries.csv`,
/// `trace.json`, `metrics.json`. Returns the run's artifact directory.
///
/// # Errors
///
/// Propagates directory-creation and file-write errors.
pub fn write_run_artifacts(
    dir: &Path,
    slug: &str,
    rec: &RunRecorder,
    cpus: usize,
) -> io::Result<PathBuf> {
    let run_dir = dir.join("runs").join(slug);
    std::fs::create_dir_all(&run_dir)?;

    let mut buf = Vec::new();
    write_events_jsonl(&mut buf, &rec.audit)?;
    atomic_write(&run_dir.join("events.jsonl"), &buf)?;

    buf.clear();
    write_timeseries_csv(&mut buf, &rec.series)?;
    atomic_write(&run_dir.join("timeseries.csv"), &buf)?;

    buf.clear();
    write_chrome_trace(&mut buf, rec, cpus)?;
    atomic_write(&run_dir.join("trace.json"), &buf)?;

    atomic_write(
        &run_dir.join("metrics.json"),
        rec.metrics().to_json().as_bytes(),
    )?;
    Ok(run_dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{AuditAction, Decision};
    use crate::recorder::{ObsConfig, Recorder};
    use crate::sample::SampleView;
    use ccnuma_kernel::{BatchStats, OpOutcome, PageOp};
    use ccnuma_types::{NodeId, Ns, ProcId, VirtPage};

    fn sample_recorder() -> RunRecorder {
        let mut r = RunRecorder::new(ObsConfig { epoch: Ns(100) });
        r.on_context_switch(0, Ns(0), Some(1));
        r.on_context_switch(1, Ns(0), Some(2));
        r.on_context_switch(0, Ns(500), None);
        r.on_decision(&Decision {
            now: Ns(40),
            page: VirtPage(7),
            proc: ProcId(0),
            node: NodeId(0),
            is_write: false,
            mapped_node: NodeId(1),
            pressure: false,
            action: AuditAction::Migrate { to: NodeId(0) },
            counter: 0,
            writes: 0,
            migrates: 1,
        });
        let op = PageOp::migrate(VirtPage(7), NodeId(0));
        r.on_page_op(0, Ns(50), &op, &OpOutcome::Done { latency: Ns(300) });
        r.on_shootdown(
            Ns(60),
            &BatchStats {
                total_latency: Ns(300),
                tlbs_flushed: 8,
                flush_ops: 1,
            },
        );
        r.on_epoch(Ns(100), &SampleView::default());
        r.on_run_end(Ns(1000), &SampleView::default());
        r
    }

    #[test]
    fn jsonl_one_object_per_line() {
        let mut buf = Vec::new();
        write_events_jsonl(&mut buf, &sample_recorder().audit).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 1);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"event\":\"decision\""));
            assert!(line.contains("\"action\":\"migrate\""));
        }
    }

    #[test]
    fn jsonl_serializes_fault_events() {
        use ccnuma_faults::{FaultEvent, FaultKind};
        let mut r = sample_recorder();
        r.on_fault(&FaultEvent {
            now: Ns(70),
            kind: FaultKind::StormSeize {
                node: NodeId(2),
                frames: 6,
            },
        });
        r.on_fault(&FaultEvent {
            now: Ns(80),
            kind: FaultKind::AckDelay { delay: Ns(5_000) },
        });
        let mut buf = Vec::new();
        write_events_jsonl(&mut buf, &r.audit).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains("\"event\":\"fault\""));
        assert!(lines[1].contains("\"kind\":\"storm_seize\""));
        assert!(lines[1].contains("\"node\":2"));
        assert!(lines[1].contains("\"frames\":6"));
        assert!(lines[2].contains("\"kind\":\"ack_delay\""));
        assert!(lines[2].contains("\"delay_ns\":5000"));
    }

    #[test]
    fn csv_has_header_and_delta_rows() {
        let mut buf = Vec::new();
        write_timeseries_csv(&mut buf, &sample_recorder().series).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("epoch,t_ns,local_misses"));
        assert_eq!(lines.len(), 3, "header + epoch sample + final sample");
        assert!(lines[1].starts_with("0,100,"));
        assert!(lines[2].starts_with("1,1000,"));
    }

    #[test]
    fn chrome_trace_structure() {
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &sample_recorder(), 2).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(text.ends_with("]}"));
        assert!(text.contains("\"name\":\"cpu0\""));
        assert!(text.contains("\"name\":\"shootdowns\""));
        assert!(text.contains("\"cat\":\"sched\""));
        assert!(text.contains("\"cat\":\"pager\""));
        assert!(text.contains("\"tlbs_flushed\":8"));
        // cpu0's quantum span: 0 → 500 ns = 0.500 µs.
        assert!(text.contains("\"dur\":\"0.500\"") || text.contains("\"dur\":0.500"));
        // Balanced brackets (cheap well-formedness check; CI parses it
        // with a real JSON parser).
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn ts_us_is_fixed_precision() {
        assert_eq!(ts_us(0), "0.000");
        assert_eq!(ts_us(1234), "1.234");
        assert_eq!(ts_us(1_000_005), "1000.005");
    }

    #[test]
    fn slug_and_artifacts_round_trip() {
        let dir = std::env::temp_dir().join(format!("ccnuma-obs-export-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = sample_recorder();
        let slug = artifact_slug("raytrace [FT]", "key");
        let run_dir = write_run_artifacts(&dir, &slug, &rec, 2).unwrap();
        for f in [
            "events.jsonl",
            "timeseries.csv",
            "trace.json",
            "metrics.json",
        ] {
            assert!(run_dir.join(f).is_file(), "missing {f}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
