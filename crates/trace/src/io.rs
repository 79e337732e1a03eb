//! The record codec shared by every trace encoding.
//!
//! A record's four booleans pack into one flag byte ([`encode_flags`]),
//! and [`record_from_parts`] rebuilds a record from its serialized
//! fields, rejecting reserved flag bits. The chunked, checksummed
//! on-disk format (v3) lives in the `ccnuma-tracestore` crate, which
//! builds on this codec and on the shared [`MAGIC`].
//!
//! # Examples
//!
//! ```
//! use ccnuma_trace::io::{encode_flags, record_from_parts};
//! use ccnuma_trace::MissRecord;
//! use ccnuma_types::{Ns, Pid, ProcId, VirtPage};
//!
//! let r = MissRecord::user_data_read(Ns(7), ProcId(1), Pid(2), VirtPage(3));
//! let back = record_from_parts(7, 3, 2, 1, encode_flags(&r)).unwrap();
//! assert_eq!(back, r);
//! ```

use crate::{MissRecord, MissSource};
use ccnuma_types::{AccessKind, Mode, Ns, Pid, ProcId, RefClass, VirtPage};

/// The four magic bytes every stored trace starts with.
pub const MAGIC: &[u8; 4] = b"CCNT";

/// Errors produced when decoding a record.
#[derive(Debug)]
pub enum ReadTraceError {
    /// A record's flag byte contains bits outside the defined set.
    BadFlags(u8),
}

impl std::fmt::Display for ReadTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadTraceError::BadFlags(b) => write!(f, "invalid record flags {b:#04x}"),
        }
    }
}

impl std::error::Error for ReadTraceError {}

/// Packs a record's four booleans into the shared flag byte: bit 0 write,
/// bit 1 kernel, bit 2 instruction fetch, bit 3 TLB miss.
pub fn encode_flags(r: &MissRecord) -> u8 {
    let mut f = 0u8;
    if r.kind.is_write() {
        f |= 1;
    }
    if r.mode.is_kernel() {
        f |= 2;
    }
    if r.class.is_instr() {
        f |= 4;
    }
    if r.source == MissSource::Tlb {
        f |= 8;
    }
    f
}

/// Rebuilds a record from its serialized fields, validating the flag byte
/// (the inverse of [`encode_flags`]).
///
/// # Errors
///
/// Returns [`ReadTraceError::BadFlags`] if `flags` has bits outside the
/// defined set.
pub fn record_from_parts(
    time: u64,
    page: u64,
    pid: u32,
    proc: u16,
    flags: u8,
) -> Result<MissRecord, ReadTraceError> {
    if flags & !0x0f != 0 {
        return Err(ReadTraceError::BadFlags(flags));
    }
    Ok(MissRecord {
        time: Ns(time),
        page: VirtPage(page),
        pid: Pid(pid),
        proc: ProcId(proc),
        kind: if flags & 1 != 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
        mode: if flags & 2 != 0 {
            Mode::Kernel
        } else {
            Mode::User
        },
        class: if flags & 4 != 0 {
            RefClass::Instr
        } else {
            RefClass::Data
        },
        source: if flags & 8 != 0 {
            MissSource::Tlb
        } else {
            MissSource::Cache
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Trace, TraceBuilder};

    fn sample_trace() -> Trace {
        let mut b = TraceBuilder::new();
        b.push(MissRecord::user_data_read(
            Ns(1),
            ProcId(3),
            Pid(9),
            VirtPage(0xdead),
        ));
        b.push(MissRecord::user_data_write(
            Ns(2),
            ProcId(4),
            Pid(10),
            VirtPage(0xbeef),
        ));
        let mut k = MissRecord::user_instr(Ns(3), ProcId(5), Pid(11), VirtPage(0xf00d));
        k.mode = Mode::Kernel;
        b.push(k);
        b.push(MissRecord::user_data_read(Ns(4), ProcId(6), Pid(12), VirtPage(0xcafe)).as_tlb());
        b.finish()
    }

    #[test]
    fn flags_roundtrip_through_the_codec() {
        for r in sample_trace().iter() {
            let f = encode_flags(r);
            let back =
                record_from_parts(r.time.0, r.page.0, r.pid.0, r.proc.0, f).expect("valid flags");
            assert_eq!(&back, r);
        }
        assert!(matches!(
            record_from_parts(0, 0, 0, 0, 0x10),
            Err(ReadTraceError::BadFlags(0x10))
        ));
    }
}
