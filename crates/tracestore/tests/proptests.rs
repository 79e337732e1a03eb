//! Property tests for the v2 trace format: codec roundtrips and the
//! corruption contract (a damaged stream yields a
//! typed error or a salvaged prefix — never a panic, never garbage
//! records).

use ccnuma_trace::io::record_from_parts;
use ccnuma_trace::{MissRecord, Trace};
use ccnuma_tracestore::varint::{read_u64, unzigzag, write_u64, zigzag};
use ccnuma_tracestore::{
    fsck, EntryStatus, StoreError, TraceMeta, TraceReader, TraceStore, TraceWriter,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// An arbitrary record: unconstrained fields plus any of the 16 valid
/// flag combinations.
fn arb_record() -> impl Strategy<Value = MissRecord> {
    (
        0u64..=u64::MAX,
        0u64..=u64::MAX,
        0u32..=u32::MAX,
        0u16..=u16::MAX,
        0u8..16,
    )
        .prop_map(|(time, page, pid, proc, flags)| {
            record_from_parts(time, page, pid, proc, flags).expect("flags < 16 are valid")
        })
}

/// A trace-shaped stream: short forward time steps, pages near the
/// previous one (either side), a few pids and processors. Its records
/// take five to seven bytes, the shape the reader decodes a whole word
/// at a time.
fn arb_local_records() -> impl Strategy<Value = Vec<MissRecord>> {
    proptest::collection::vec(
        (0u64..20_000, 0u64..600, 0u32..4, 0u16..16, 0u8..16),
        0..300,
    )
    .prop_map(|steps| {
        let (mut time, mut page) = (0u64, 1u64 << 20);
        steps
            .into_iter()
            .map(|(dt, dp, pid, proc, flags)| {
                time += dt;
                page = page + dp - 300;
                record_from_parts(time, page, pid, proc, flags).expect("flags < 16 are valid")
            })
            .collect()
    })
}

fn encode_v2(records: &[MissRecord], chunk_records: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = TraceWriter::with_chunk_records(&mut buf, chunk_records).unwrap();
    for r in records {
        w.push(r).unwrap();
    }
    w.finish().unwrap();
    buf
}

fn decode_v2(bytes: &[u8]) -> Vec<MissRecord> {
    TraceReader::new(bytes)
        .unwrap()
        .collect::<Result<Vec<_>, _>>()
        .unwrap()
}

proptest! {
    #[test]
    fn varint_roundtrips(v in 0u64..=u64::MAX) {
        let mut buf = Vec::new();
        write_u64(&mut buf, v);
        let mut pos = 0;
        prop_assert_eq!(read_u64(&buf, &mut pos), Some(v));
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn zigzag_roundtrips(bits in 0u64..=u64::MAX) {
        let v = bits as i64;
        prop_assert_eq!(unzigzag(zigzag(v)), v);
    }

    #[test]
    fn varint_decode_never_reads_past_or_panics(bytes in proptest::collection::vec(0u8..=u8::MAX, 0..24)) {
        let mut pos = 0;
        if read_u64(&bytes, &mut pos).is_some() {
            prop_assert!(pos <= bytes.len());
        }
    }

    /// Arbitrary records — arbitrary deltas, wrapping both ways — come
    /// back exactly, across chunk boundaries.
    #[test]
    fn v2_roundtrips_arbitrary_records(
        records in proptest::collection::vec(arb_record(), 0..200),
        chunk in 1usize..33,
    ) {
        let bytes = encode_v2(&records, chunk);
        prop_assert_eq!(decode_v2(&bytes), records);
    }

    /// Trace-shaped records come back exactly too, whether a record
    /// decodes from one word or (near a chunk's end) field by field.
    #[test]
    fn v2_roundtrips_trace_shaped_records(
        records in arb_local_records(),
        chunk in 1usize..65,
    ) {
        let bytes = encode_v2(&records, chunk);
        prop_assert_eq!(decode_v2(&bytes), records);
    }

    /// Truncation anywhere: the strict reader yields a correct prefix
    /// then a typed error (or clean EOF exactly at a record boundary is
    /// impossible — the footer is gone); the salvage reader always ends
    /// cleanly with complete chunks only. Nothing panics.
    #[test]
    fn truncated_streams_never_panic(
        records in proptest::collection::vec(arb_record(), 1..100),
        chunk in 1usize..17,
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = encode_v2(&records, chunk);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let cut_bytes = &bytes[..cut];

        match TraceReader::new(cut_bytes) {
            Ok(reader) => {
                let mut seen = 0usize;
                let mut errored = false;
                for item in reader {
                    match item {
                        Ok(rec) => {
                            prop_assert_eq!(rec, records[seen], "prefix must be exact");
                            seen += 1;
                        }
                        Err(_) => {
                            errored = true;
                            break;
                        }
                    }
                }
                // A streaming read validates the footer body but never
                // touches the 8-byte seek trailer, so only a cut that
                // reaches into the footer body (or earlier) must error.
                prop_assert!(errored || cut >= bytes.len() - 8);
            }
            Err(_) => prop_assert!(cut < 8, "header errors only from a cut header"),
        }

        if cut >= 8 {
            let reader = TraceReader::with_salvage(cut_bytes).unwrap();
            let mut seen = 0usize;
            for item in reader {
                let rec = item.expect("salvage mode never errors past the header");
                prop_assert_eq!(rec, records[seen]);
                seen += 1;
            }
            // Salvage keeps whole chunks: a multiple of the chunk size,
            // or everything (the final chunk may be smaller).
            prop_assert!(
                seen == records.len() || seen.is_multiple_of(chunk),
                "salvage kept a partial chunk: {seen} of {} (chunk {chunk})",
                records.len()
            );
        }
    }

    /// A single flipped bit anywhere in the stream: decode either still
    /// succeeds (the flip hit slack the checksum does not cover — it
    /// cannot, every byte is covered, so really: the flip was detected)
    /// or fails with a typed error; the prefix of records delivered
    /// before the error is exact. Nothing panics.
    #[test]
    fn bit_flips_are_detected_or_isolated(
        records in proptest::collection::vec(arb_record(), 1..80),
        chunk in 1usize..17,
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = encode_v2(&records, chunk);
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;

        let mut delivered = Vec::new();
        let outcome: Result<(), StoreError> = (|| {
            for item in TraceReader::new(bytes.as_slice())? {
                delivered.push(item?);
            }
            Ok(())
        })();
        match outcome {
            Ok(()) => prop_assert_eq!(&delivered, &records, "undetected flip must be harmless"),
            Err(_) => {
                prop_assert!(delivered.len() <= records.len());
                prop_assert_eq!(&delivered[..], &records[..delivered.len()], "prefix must be exact");
            }
        }
    }
}

/// One kind of random damage an fsck case inflicts on a store entry.
#[derive(Debug, Clone)]
enum Damage {
    /// XOR one byte of the trace at a fractional offset.
    FlipTrace(f64, u8),
    /// Truncate the trace to a fraction of its length.
    Truncate(f64),
    /// Overwrite the meta sidecar with garbage.
    SmashMeta,
    /// Leave the entry alone.
    None,
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    (0u8..4, 0.0f64..1.0, 0u8..8).prop_map(|(kind, frac, bit)| match kind {
        0 => Damage::FlipTrace(frac, bit),
        1 => Damage::Truncate(frac),
        2 => Damage::SmashMeta,
        _ => Damage::None,
    })
}

fn fsck_case_dir() -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "ccnuma-fsck-prop-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

proptest! {
    // fsck cases hit the filesystem, so run fewer of them.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary damage to an entry's trace or sidecar: fsck always
    /// classifies (never panics), a dry run never mutates the store,
    /// and a repair run always converges to a store fsck calls clean.
    #[test]
    fn fsck_classifies_and_repair_converges(
        records in proptest::collection::vec(arb_record(), 1..600),
        chunk in 1usize..33,
        damage in arb_damage(),
    ) {
        let dir = fsck_case_dir();
        let store = TraceStore::new(&dir).unwrap();
        let trace: Trace = records.iter().copied().collect();
        let meta = TraceMeta {
            label: "prop".into(),
            records: trace.len() as u64,
            nodes: 8,
            other_time_ns: 0,
        };
        // Re-encode at the case's chunk size so truncation points land
        // in interesting places, then install it as the store entry.
        {
            let mut buf = Vec::new();
            let mut w = TraceWriter::with_chunk_records(&mut buf, chunk).unwrap();
            for r in trace.iter() {
                w.push(r).unwrap();
            }
            w.finish().unwrap();
            store.save("x", &trace, &meta).unwrap();
            std::fs::write(store.trace_path("x"), &buf).unwrap();
        }
        match &damage {
            Damage::FlipTrace(frac, bit) => {
                let p = store.trace_path("x");
                let mut b = std::fs::read(&p).unwrap();
                let at = (((b.len() - 1) as f64) * frac) as usize;
                b[at] ^= 1 << bit;
                std::fs::write(&p, &b).unwrap();
            }
            Damage::Truncate(frac) => {
                let p = store.trace_path("x");
                let b = std::fs::read(&p).unwrap();
                let keep = ((b.len() as f64) * frac) as usize;
                std::fs::write(&p, &b[..keep]).unwrap();
            }
            Damage::SmashMeta => {
                std::fs::write(store.meta_path("x"), b"{ definitely not a sidecar").unwrap();
            }
            Damage::None => {}
        }

        let dry = fsck(&store, false).unwrap();
        prop_assert_eq!(dry.entries.len(), 1);
        prop_assert!(dry.repaired.is_empty(), "dry run repairs nothing");
        if matches!(damage, Damage::None) {
            prop_assert!(dry.is_clean(), "{}", dry.render());
        }
        if matches!(damage, Damage::SmashMeta) {
            prop_assert!(
                matches!(dry.entries[0].status, EntryStatus::CorruptMeta { .. }),
                "{}", dry.render()
            );
        }
        // Salvageable verdicts must never promise more than the sidecar.
        if let EntryStatus::Salvageable { records_kept, records_expected, .. } =
            &dry.entries[0].status
        {
            prop_assert!(*records_kept > 0, "zero kept is Unreadable, not Salvageable");
            prop_assert!(records_kept <= records_expected);
        }

        // Repair, whatever the damage, converges: the next fsck is
        // clean and every surviving entry loads.
        let repaired = fsck(&store, true).unwrap();
        prop_assert_eq!(
            repaired.repaired.len(),
            usize::from(!repaired.entries[0].status.is_clean())
        );
        let after = fsck(&store, false).unwrap();
        prop_assert!(after.is_clean(), "after repair: {}", after.render());
        for slug in store.list().unwrap() {
            let (t, m) = store.load(&slug).unwrap();
            prop_assert_eq!(t.len() as u64, m.records);
            // Whatever survived is an exact prefix of the original.
            let kept: Vec<MissRecord> = t.iter().copied().collect();
            let original: Vec<MissRecord> = trace.iter().copied().collect();
            prop_assert_eq!(&kept[..], &original[..kept.len()]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
