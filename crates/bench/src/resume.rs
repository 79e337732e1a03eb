//! The exact [`RunReport`] serialization behind `repro … --resume DIR`:
//! the run payload an [`Executor`](crate::Executor) stores in its
//! [`ResultCache`](ccnuma_tracestore::ResultCache) and restores from it.
//!
//! A payload carries everything but the trace. A run that captured one
//! records its length as `trace_records`, and the trace itself is the
//! executor's trace store entry for the run, so a trace is persisted in
//! exactly one place.
//!
//! Exactness is the whole contract: every `u64` is written as a JSON
//! integer, and every `f64` is written as its IEEE-754 bit pattern
//! (`f64::to_bits`), so a restored report is bit-for-bit the report that
//! was stored — formatting a percentage from it cannot produce a
//! different digit. The serialization surface is pinned by
//! [`RunBreakdown::to_raw_parts`] and [`CostBook::to_raw_parts`].
//! Integrity is the stores': a result entry carries its key and an
//! FNV-1a64 checksum, a trace entry checksums every chunk, so damage is
//! a typed error and never a restored wrong answer.

use ccnuma_faults::FaultStats;
use ccnuma_kernel::CostBook;
use ccnuma_machine::{ContentionStats, RunReport};
use ccnuma_obs::{json::JsonWriter, JsonValue};
use ccnuma_stats::RunBreakdown;
use ccnuma_trace::Trace;
use ccnuma_tracestore::{read_policy_stats, write_policy_stats};
use ccnuma_types::Ns;

fn bits_key(j: &mut JsonWriter, key: &str, v: f64) {
    j.key(key);
    j.raw(&v.to_bits().to_string());
}

fn u64_key(j: &mut JsonWriter, key: &str, v: u64) {
    j.key(key);
    j.raw(&v.to_string());
}

fn u64_arr(j: &mut JsonWriter, key: &str, vals: &[u64]) {
    j.key(key);
    j.begin_arr();
    for v in vals {
        j.raw(&v.to_string());
    }
    j.end_arr();
}

/// Serializes a report (minus its trace, which is stored as its own
/// trace entry) into its result payload. Every `f64` is stored as its
/// bit pattern.
pub fn report_payload(report: &RunReport) -> String {
    let mut j = JsonWriter::new();
    j.begin_obj();
    j.key("workload");
    j.str(&report.workload);
    j.key("policy_label");
    j.str(&report.policy_label);
    u64_arr(&mut j, "breakdown", &report.breakdown.to_raw_parts());
    j.key("policy_stats");
    write_policy_stats(&mut j, report.policy_stats);
    u64_arr(&mut j, "cost_book", &report.cost_book.to_raw_parts());
    j.key("contention");
    j.begin_obj();
    u64_key(&mut j, "remote_requests", report.contention.remote_requests);
    u64_key(&mut j, "local_requests", report.contention.local_requests);
    u64_key(&mut j, "total_wait", report.contention.total_wait.0);
    u64_key(&mut j, "remote_wait", report.contention.remote_wait.0);
    u64_key(&mut j, "local_wait", report.contention.local_wait.0);
    bits_key(
        &mut j,
        "remote_queue_sum",
        report.contention.remote_queue_sum,
    );
    j.end_obj();
    bits_key(&mut j, "max_occupancy", report.max_occupancy);
    u64_key(&mut j, "sim_time", report.sim_time.0);
    u64_key(&mut j, "cpu_time", report.cpu_time.0);
    if let Some(trace) = &report.trace {
        u64_key(&mut j, "trace_records", trace.len() as u64);
    }
    u64_key(&mut j, "distinct_pages", report.distinct_pages);
    u64_key(&mut j, "replica_frames_peak", report.replica_frames_peak);
    bits_key(
        &mut j,
        "replication_space_overhead_pct",
        report.replication_space_overhead_pct,
    );
    u64_key(&mut j, "frames_used", report.frames_used);
    u64_key(&mut j, "lock_wait", report.lock_wait.0);
    bits_key(&mut j, "lock_contention_rate", report.lock_contention_rate);
    u64_key(
        &mut j,
        "avg_local_miss_latency",
        report.avg_local_miss_latency.0,
    );
    bits_key(&mut j, "avg_tlbs_flushed", report.avg_tlbs_flushed);
    j.key("fault_stats");
    j.begin_obj();
    let f = &report.fault_stats;
    u64_key(&mut j, "storms", f.storms);
    u64_key(&mut j, "frames_seized", f.frames_seized);
    u64_key(&mut j, "copy_aborts", f.copy_aborts);
    u64_key(&mut j, "allocs_blocked", f.allocs_blocked);
    u64_key(&mut j, "acks_delayed", f.acks_delayed);
    u64_key(&mut j, "ack_delay_total", f.ack_delay_total.0);
    u64_key(&mut j, "interrupts_lost", f.interrupts_lost);
    u64_key(&mut j, "counters_capped", f.counters_capped);
    u64_key(&mut j, "op_retries", f.op_retries);
    u64_key(&mut j, "retry_successes", f.retry_successes);
    u64_key(&mut j, "failed_ops", f.failed_ops);
    u64_key(&mut j, "remap_only_activations", f.remap_only_activations);
    u64_key(&mut j, "throttled_ops", f.throttled_ops);
    u64_key(&mut j, "reclaimed_frames", f.reclaimed_frames);
    j.end_obj();
    j.end_obj();
    j.finish()
}

fn get_u64(v: &JsonValue, key: &str) -> Option<u64> {
    v.get(key).and_then(JsonValue::as_u64)
}

fn get_bits(v: &JsonValue, key: &str) -> Option<f64> {
    get_u64(v, key).map(f64::from_bits)
}

fn get_u64_arr<const N: usize>(v: &JsonValue, key: &str) -> Option<[u64; N]> {
    let arr = v.get(key)?.as_array()?;
    if arr.len() != N {
        return None;
    }
    let mut out = [0u64; N];
    for (slot, item) in out.iter_mut().zip(arr) {
        *slot = item.as_u64()?;
    }
    Some(out)
}

/// Rebuilds a report from its result payload plus its (already loaded)
/// trace. `None` if the payload is malformed or incomplete — the caller
/// recomputes that run.
pub fn report_from_payload(v: &JsonValue, trace: Option<Trace>) -> Option<RunReport> {
    let policy_stats = read_policy_stats(v.get("policy_stats")?)?;
    let c = v.get("contention")?;
    let contention = ContentionStats {
        remote_requests: get_u64(c, "remote_requests")?,
        local_requests: get_u64(c, "local_requests")?,
        total_wait: Ns(get_u64(c, "total_wait")?),
        remote_wait: Ns(get_u64(c, "remote_wait")?),
        local_wait: Ns(get_u64(c, "local_wait")?),
        remote_queue_sum: get_bits(c, "remote_queue_sum")?,
    };
    let f = v.get("fault_stats")?;
    let fault_stats = FaultStats {
        storms: get_u64(f, "storms")?,
        frames_seized: get_u64(f, "frames_seized")?,
        copy_aborts: get_u64(f, "copy_aborts")?,
        allocs_blocked: get_u64(f, "allocs_blocked")?,
        acks_delayed: get_u64(f, "acks_delayed")?,
        ack_delay_total: Ns(get_u64(f, "ack_delay_total")?),
        interrupts_lost: get_u64(f, "interrupts_lost")?,
        counters_capped: get_u64(f, "counters_capped")?,
        op_retries: get_u64(f, "op_retries")?,
        retry_successes: get_u64(f, "retry_successes")?,
        failed_ops: get_u64(f, "failed_ops")?,
        remap_only_activations: get_u64(f, "remap_only_activations")?,
        throttled_ops: get_u64(f, "throttled_ops")?,
        reclaimed_frames: get_u64(f, "reclaimed_frames")?,
    };
    Some(RunReport {
        workload: v.get("workload")?.as_str()?.to_string(),
        policy_label: v.get("policy_label")?.as_str()?.to_string(),
        breakdown: RunBreakdown::from_raw_parts(get_u64_arr::<{ RunBreakdown::RAW_LEN }>(
            v,
            "breakdown",
        )?),
        policy_stats,
        cost_book: CostBook::from_raw_parts(get_u64_arr::<{ CostBook::RAW_LEN }>(v, "cost_book")?),
        contention,
        max_occupancy: get_bits(v, "max_occupancy")?,
        sim_time: Ns(get_u64(v, "sim_time")?),
        cpu_time: Ns(get_u64(v, "cpu_time")?),
        trace,
        distinct_pages: get_u64(v, "distinct_pages")?,
        replica_frames_peak: get_u64(v, "replica_frames_peak")?,
        replication_space_overhead_pct: get_bits(v, "replication_space_overhead_pct")?,
        frames_used: get_u64(v, "frames_used")?,
        lock_wait: Ns(get_u64(v, "lock_wait")?),
        lock_contention_rate: get_bits(v, "lock_contention_rate")?,
        avg_local_miss_latency: Ns(get_u64(v, "avg_local_miss_latency")?),
        avg_tlbs_flushed: get_bits(v, "avg_tlbs_flushed")?,
        fault_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::helpers::dynamic_spec;
    use ccnuma_workloads::{Scale, WorkloadKind};

    #[test]
    fn dynamic_report_round_trips_bit_exactly() {
        let report = dynamic_spec(WorkloadKind::Raytrace, Scale::quick())
            .try_run()
            .unwrap();
        let payload = report_payload(&report);
        let v = JsonValue::parse(&payload).unwrap();
        let rebuilt = report_from_payload(&v, None).unwrap();
        // Debug formatting covers every field, including f64s, which
        // {:?} prints with shortest-roundtrip precision.
        assert_eq!(format!("{report:?}"), format!("{rebuilt:?}"));
    }
}
