//! Property tests for the trace format: codec roundtrips and the
//! corruption contract (a damaged file yields a typed error — never a
//! panic, never garbage records, never a prefix passed off as the
//! whole).

use ccnuma_trace::{MissRecord, Trace};
use ccnuma_tracestore::format::{encode_flags, record_from_parts};
use ccnuma_tracestore::varint::{read_u64, unzigzag, write_u64, zigzag};
use ccnuma_tracestore::{fsck, StoreError, TraceMeta, TraceReader, TraceStore, TraceWriter};
use ccnuma_types::{AccessKind, Mode, Ns, Pid, ProcId, RefClass, VirtPage};
use proptest::prelude::*;
use std::io::Cursor;
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

fn meta(records: usize) -> TraceMeta {
    TraceMeta {
        label: "prop".into(),
        records: records as u64,
        nodes: 8,
        other_time_ns: 0,
    }
}

fn encode(records: &[MissRecord], chunk_records: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = TraceWriter::with_chunk_records(&mut buf, chunk_records).unwrap();
    for r in records {
        w.push(r).unwrap();
    }
    w.finish(&meta(records.len())).unwrap();
    buf
}

fn decode(bytes: &[u8]) -> Vec<MissRecord> {
    TraceReader::new(Cursor::new(bytes))
        .unwrap()
        .collect::<Result<Vec<_>, _>>()
        .unwrap()
}

/// Reads `bytes` strictly: the records delivered before the stream
/// stopped, and its outcome.
fn read_all(bytes: &[u8]) -> (Vec<MissRecord>, Result<(), StoreError>) {
    let mut delivered = Vec::new();
    let outcome = (|| {
        for item in TraceReader::new(Cursor::new(bytes))? {
            delivered.push(item?);
        }
        Ok(())
    })();
    (delivered, outcome)
}

proptest! {
    /// The record codec round-trips any record exactly, built field by
    /// field rather than through the decoder, and rejects any flag byte
    /// with a reserved bit.
    #[test]
    fn codec_roundtrip(
        (time, page, pid, proc) in (0u64..=u64::MAX, 0u64..=u64::MAX, 0u32..=u32::MAX, 0u16..=u16::MAX),
        (write, kernel, instr, tlb) in (
            proptest::bool::ANY,
            proptest::bool::ANY,
            proptest::bool::ANY,
            proptest::bool::ANY,
        ),
        reserved in 0x10u8..=0xff,
    ) {
        let mut r = MissRecord::user_data_read(Ns(time), ProcId(proc), Pid(pid), VirtPage(page));
        if write {
            r.kind = AccessKind::Write;
        }
        if kernel {
            r.mode = Mode::Kernel;
        }
        if instr {
            r.class = RefClass::Instr;
        }
        if tlb {
            r = r.as_tlb();
        }
        let back = record_from_parts(time, page, pid, proc, encode_flags(&r));
        prop_assert_eq!(back.unwrap(), r);
        prop_assert!(matches!(
            record_from_parts(time, page, pid, proc, reserved),
            Err(StoreError::BadFlags(f)) if f == reserved
        ));
    }

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
    fn roundtrips_arbitrary_records(
        records in proptest::collection::vec(arb_record(), 0..200),
        chunk in 1usize..33,
    ) {
        let bytes = encode(&records, chunk);
        prop_assert_eq!(decode(&bytes), records);
    }

    /// Trace-shaped records come back exactly too, whether a record
    /// decodes from one word or (near a chunk's end) field by field.
    #[test]
    fn roundtrips_trace_shaped_records(
        records in arb_local_records(),
        chunk in 1usize..65,
    ) {
        let bytes = encode(&records, chunk);
        prop_assert_eq!(decode(&bytes), records);
    }

    /// Truncation anywhere is a typed error, whatever the reader
    /// delivered first; nothing panics.
    #[test]
    fn truncated_streams_are_typed_errors(
        records in proptest::collection::vec(arb_record(), 1..100),
        chunk in 1usize..17,
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = encode(&records, chunk);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let (delivered, outcome) = read_all(&bytes[..cut]);
        prop_assert!(outcome.is_err(), "a cut at {} of {} read cleanly", cut, bytes.len());
        prop_assert_eq!(&delivered[..], &records[..delivered.len()], "prefix must be exact");
    }

    /// A single flipped bit anywhere in the file is a typed error: every
    /// byte is covered by a checksum, the footer index or the trailer
    /// check. What was delivered before the error is exact. Nothing
    /// panics.
    #[test]
    fn bit_flips_are_typed_errors(
        records in proptest::collection::vec(arb_record(), 1..80),
        chunk in 1usize..17,
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = encode(&records, chunk);
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        let (delivered, outcome) = read_all(&bytes);
        prop_assert!(outcome.is_err(), "flip at {} bit {} read cleanly", pos, bit);
        prop_assert!(delivered.len() <= records.len());
        prop_assert_eq!(&delivered[..], &records[..delivered.len()], "prefix must be exact");
    }
}

/// A small three-chunk entry: every one of its bits flipped, and every
/// shorter length, makes `load` a typed error and `fsck` not clean.
#[test]
fn every_flipped_bit_and_every_truncation_is_caught() {
    let dir = fsck_case_dir();
    let store = TraceStore::new(&dir).unwrap();
    let records: Vec<MissRecord> = (0..25u64)
        .map(|i| {
            record_from_parts(i * 700, 4096 + i / 3, 1, (i % 4) as u16, (i % 16) as u8).unwrap()
        })
        .collect();
    let clean = encode(&records, 10);
    let path = store.trace_path("x");
    let caught = |bytes: &[u8], case: &str| {
        std::fs::write(&path, bytes).unwrap();
        assert!(store.load("x").is_err(), "{case}: load succeeded");
        assert!(
            !fsck(&store, false).unwrap().is_clean(),
            "{case}: fsck clean"
        );
    };
    std::fs::write(&path, &clean).unwrap();
    let (trace, m) = store.load("x").unwrap();
    assert_eq!((trace.as_slice(), m), (&records[..], meta(records.len())));
    assert!(fsck(&store, false).unwrap().is_clean());
    for at in 0..clean.len() {
        for bit in 0..8 {
            let mut bytes = clean.clone();
            bytes[at] ^= 1 << bit;
            caught(&bytes, &format!("bit {bit} of byte {at}"));
        }
    }
    for len in 0..clean.len() {
        caught(&clean[..len], &format!("truncated to {len}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One kind of random damage an fsck case inflicts on a store entry.
#[derive(Debug, Clone)]
enum Damage {
    /// XOR one byte of the trace at a fractional offset.
    FlipTrace(f64, u8),
    /// Truncate the trace to a fraction of its length.
    Truncate(f64),
    /// XOR one bit of the meta bytes at the end of the footer.
    FlipMeta(f64, u8),
    /// Leave the entry alone.
    None,
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    (0u8..4, 0.0f64..1.0, 0u8..8).prop_map(|(kind, frac, bit)| match kind {
        0 => Damage::FlipTrace(frac, bit),
        1 => Damage::Truncate(frac),
        2 => Damage::FlipMeta(frac, bit),
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

    /// Arbitrary damage to an entry: fsck always classifies (never
    /// panics), a dry run never mutates the store, every damage is
    /// found, and a repair run always converges to a clean store whose
    /// every surviving entry is the original in full.
    #[test]
    fn fsck_classifies_and_repair_converges(
        records in proptest::collection::vec(arb_record(), 1..600),
        chunk in 1usize..33,
        damage in arb_damage(),
    ) {
        let dir = fsck_case_dir();
        let store = TraceStore::new(&dir).unwrap();
        let trace: Trace = records.iter().copied().collect();
        // Encode at the case's chunk size so damage lands in
        // interesting places, then install it as the store entry.
        let p = store.trace_path("x");
        let mut b = encode(&records, chunk);
        match &damage {
            Damage::FlipTrace(frac, bit) => {
                let at = (((b.len() - 1) as f64) * frac) as usize;
                b[at] ^= 1 << bit;
            }
            Damage::Truncate(frac) => {
                b.truncate(((b.len() as f64) * frac) as usize);
            }
            Damage::FlipMeta(frac, bit) => {
                // The meta ends the footer body, just before the 8-byte
                // trailer: label length, "prop", nodes, other time.
                let meta_bytes = 7;
                let at = b.len() - 8 - meta_bytes + ((meta_bytes as f64) * frac) as usize;
                b[at] ^= 1 << bit;
            }
            Damage::None => {}
        }
        std::fs::write(&p, &b).unwrap();

        let dry = fsck(&store, false).unwrap();
        prop_assert_eq!(dry.entries.len(), 1);
        prop_assert!(dry.quarantined.is_empty(), "dry run repairs nothing");
        prop_assert_eq!(
            dry.is_clean(),
            matches!(damage, Damage::None),
            "{}", dry.render()
        );

        // Repair, whatever the damage, converges: the next fsck is
        // clean and every surviving entry is the original, whole.
        let repaired = fsck(&store, true).unwrap();
        prop_assert_eq!(
            repaired.quarantined.len(),
            usize::from(!repaired.entries[0].status.is_clean())
        );
        let after = fsck(&store, false).unwrap();
        prop_assert!(after.is_clean(), "after repair: {}", after.render());
        for slug in store.list().unwrap() {
            let (t, m) = store.load(&slug).unwrap();
            prop_assert_eq!(&t, &trace);
            prop_assert_eq!(m, meta(records.len()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
