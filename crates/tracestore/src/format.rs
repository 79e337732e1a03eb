//! The chunked on-disk trace format, version 3.
//!
//! A stream opens with the `CCNT` magic followed by a little-endian
//! `u32` version; any version but 3 is refused with
//! [`StoreError::BadVersion`]. After the header come self-contained
//! chunks and a footer:
//!
//! ```text
//! header := "CCNT" u32(version = 3)
//! chunk  := 0x01 u32(body_len) u64(fnv1a64 of body) body
//! footer := 0x00 u32(body_len) u64(fnv1a64 of body) body
//!           u32(body_len again) "CCNX"
//! ```
//!
//! A chunk body is `varint(record_count)` followed by delta-encoded
//! records; the delta baseline resets to zero at every chunk boundary,
//! so any chunk decodes on its own. Each record is four zigzag varints
//! (time, page, pid and processor deltas) plus the one-byte record
//! flags ([`encode_flags`], [`record_from_parts`]), which for the
//! simulator's sorted, page-local traces comes to ~3–8 bytes instead of
//! the 24 a fixed-width record needs.
//!
//! The footer body is `varint(chunk_count)`, then per chunk
//! `varint(file_offset) varint(record_count)`, then
//! `varint(total_records)`, then the trace's [`TraceMeta`]:
//! `varint(label_len) label varint(nodes) varint(other_time_ns)`. The
//! trailing length + `CCNX` magic let a seekable reader find the footer
//! from the end of the file without scanning ([`Footer::read_from`]).
//!
//! Every byte is checked. The strict [`TraceReader`] is the only reader:
//! it verifies each chunk and the footer against their checksums, the
//! footer's counts against the chunks it read, the trailer, and that no
//! byte follows it. Damage anywhere is a typed [`StoreError`]; no
//! reader yields a prefix of a damaged file as if it were the whole.

use crate::varint;
use ccnuma_obs::{fnv1a64, fnv1a64_update, FNV1A64_OFFSET};
use ccnuma_trace::{MissRecord, MissSource};
use ccnuma_types::{AccessKind, Mode, Ns, Pid, ProcId, RefClass, VirtPage};
use std::fmt;
use std::io::{self, Read, Seek, SeekFrom, Write};

/// The four magic bytes every stored trace starts with.
pub const MAGIC: &[u8; 4] = b"CCNT";
/// Format version written by [`TraceWriter`].
pub const VERSION: u32 = 3;
/// Marker byte that opens every chunk.
pub const CHUNK_MARKER: u8 = 0x01;
/// Marker byte that opens the footer.
pub const FOOTER_MARKER: u8 = 0x00;
/// Magic that ends a complete file.
pub const END_MAGIC: &[u8; 4] = b"CCNX";
/// Default records per chunk: bounds writer and reader memory to a few
/// hundred KB while keeping per-chunk overhead (13 bytes) negligible.
pub const DEFAULT_CHUNK_RECORDS: usize = 4096;

/// Everything that can go wrong reading or writing a stored trace.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with the `CCNT` magic.
    BadMagic([u8; 4]),
    /// A version this reader does not understand.
    BadVersion(u32),
    /// A chunk's FNV checksum does not match its body.
    ChecksumMismatch {
        /// Zero-based index of the failing chunk.
        chunk: usize,
    },
    /// A structural problem inside a chunk or the footer.
    Corrupt {
        /// Zero-based chunk index; `usize::MAX` for the footer and
        /// trailer.
        chunk: usize,
        /// What was malformed.
        what: &'static str,
    },
    /// A record carried reserved flag bits.
    BadFlags(u8),
    /// The file ended before a complete footer.
    MissingFooter,
    /// A result-store entry failed verification (see
    /// [`ResultCache::load`](crate::ResultCache::load)).
    DamagedResult {
        /// Which check failed.
        what: &'static str,
    },
    /// A sweep's progress hook stopped it before its last pass (see
    /// [`SweepStore::progress`](crate::SweepStore::progress)).
    Interrupted,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "trace store I/O error: {e}"),
            StoreError::BadMagic(m) => write!(f, "not a trace file (magic {m:02x?})"),
            StoreError::BadVersion(v) => write!(f, "unsupported trace format version {v}"),
            StoreError::ChecksumMismatch { chunk } => {
                write!(f, "checksum mismatch in chunk {chunk}")
            }
            StoreError::Corrupt {
                chunk: usize::MAX,
                what,
            } => write!(f, "corrupt trace footer: {what}"),
            StoreError::Corrupt { chunk, what } => {
                write!(f, "corrupt trace file at chunk {chunk}: {what}")
            }
            StoreError::BadFlags(b) => write!(f, "record with reserved flag bits {b:#04x}"),
            StoreError::MissingFooter => write!(f, "trace file truncated before its footer"),
            StoreError::DamagedResult { what } => write!(f, "damaged result entry: {what}"),
            StoreError::Interrupted => {
                write!(
                    f,
                    "sweep interrupted before its last pass; finished cells are stored"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// Packs a record's four booleans into its flag byte: bit 0 write,
/// bit 1 kernel, bit 2 instruction fetch, bit 3 TLB miss.
pub fn encode_flags(r: &MissRecord) -> u8 {
    u8::from(r.kind.is_write())
        | u8::from(r.mode.is_kernel()) << 1
        | u8::from(r.class.is_instr()) << 2
        | u8::from(r.source == MissSource::Tlb) << 3
}

/// Rebuilds a record from its stored fields (the inverse of
/// [`encode_flags`]).
///
/// # Errors
///
/// Returns [`StoreError::BadFlags`] if `flags` has reserved bits set.
///
/// # Examples
///
/// ```
/// use ccnuma_trace::MissRecord;
/// use ccnuma_tracestore::format::{encode_flags, record_from_parts};
/// use ccnuma_types::{Ns, Pid, ProcId, VirtPage};
///
/// let r = MissRecord::user_data_read(Ns(7), ProcId(1), Pid(2), VirtPage(3)).as_tlb();
/// let back = record_from_parts(7, 3, 2, 1, encode_flags(&r)).unwrap();
/// assert_eq!(back, r);
/// assert!(record_from_parts(7, 3, 2, 1, 0x10).is_err());
/// ```
pub fn record_from_parts(
    time: u64,
    page: u64,
    pid: u32,
    proc: u16,
    flags: u8,
) -> Result<MissRecord, StoreError> {
    if flags & !0x0f != 0 {
        return Err(StoreError::BadFlags(flags));
    }
    let bit = |b: u8| flags & b != 0;
    Ok(MissRecord {
        time: Ns(time),
        page: VirtPage(page),
        pid: Pid(pid),
        proc: ProcId(proc),
        kind: if bit(1) {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
        mode: if bit(2) { Mode::Kernel } else { Mode::User },
        class: if bit(4) {
            RefClass::Instr
        } else {
            RefClass::Data
        },
        source: if bit(8) {
            MissSource::Tlb
        } else {
            MissSource::Cache
        },
    })
}

/// One entry of the footer's chunk index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Byte offset of the chunk's marker byte from the start of the file.
    pub offset: u64,
    /// Records stored in the chunk.
    pub records: u64,
}

/// What a stored trace carries besides its records: everything a
/// replay needs to price them. It is written into the footer, under the
/// footer's checksum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Human-readable run description (e.g. `raytrace [FT] +trace`).
    pub label: String,
    /// Records in the trace. On read it is the footer's total; on write
    /// it is ignored, as the writer counts the records it is given.
    pub records: u64,
    /// NUMA nodes of the captured machine.
    pub nodes: u16,
    /// The run's constant "all other time" component, in nanoseconds.
    pub other_time_ns: u64,
}

/// The decoded footer of a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Footer {
    /// Per-chunk offsets and record counts, in file order.
    pub chunks: Vec<ChunkEntry>,
    /// The trace's meta; `meta.records` is the total across all chunks.
    pub meta: TraceMeta,
}

impl Footer {
    /// Reads the header and then the footer from the end of a seekable
    /// file, without scanning the chunks.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadMagic`]/[`StoreError::BadVersion`] for a foreign
    /// header, [`StoreError::MissingFooter`] when the trailer is absent
    /// or damaged, [`StoreError::Corrupt`] when the footer body does not
    /// validate, or an I/O error.
    pub fn read_from<R: Read + Seek>(r: &mut R) -> Result<Footer, StoreError> {
        r.seek(SeekFrom::Start(0))?;
        read_header(r)?;
        let file_len = r.seek(SeekFrom::End(0))?;
        // Trailer: u32 body_len + 4-byte end magic.
        if file_len < 8 {
            return Err(StoreError::MissingFooter);
        }
        r.seek(SeekFrom::End(-8))?;
        let mut trailer = [0u8; 8];
        r.read_exact(&mut trailer)?;
        if &trailer[4..] != END_MAGIC {
            return Err(StoreError::MissingFooter);
        }
        let body_len = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]) as u64;
        // marker(1) + len(4) + checksum(8) + body + trailer(8)
        let footer_total = 13 + body_len + 8;
        if file_len < footer_total {
            return Err(StoreError::MissingFooter);
        }
        r.seek(SeekFrom::Start(file_len - footer_total))?;
        let mut marker = [0u8; 1];
        r.read_exact(&mut marker)?;
        if marker[0] != FOOTER_MARKER {
            return Err(StoreError::MissingFooter);
        }
        let mut body = Vec::new();
        let checksum = read_frame(r, &mut body)?;
        if body.len() as u64 != body_len {
            return Err(StoreError::MissingFooter);
        }
        decode_footer_body(&body, checksum)
    }
}

/// Reads and checks the 8-byte header.
fn read_header<R: Read>(r: &mut R) -> Result<(), StoreError> {
    let mut header = [0u8; 8];
    r.read_exact(&mut header)?;
    let magic: [u8; 4] = header[..4].try_into().expect("4 bytes");
    if &magic != MAGIC {
        return Err(StoreError::BadMagic(magic));
    }
    match u32::from_le_bytes(header[4..].try_into().expect("4 bytes")) {
        VERSION => Ok(()),
        version => Err(StoreError::BadVersion(version)),
    }
}

/// A [`StoreError::Corrupt`] in the footer or trailer.
fn corrupt_footer(what: &'static str) -> StoreError {
    StoreError::Corrupt {
        chunk: usize::MAX,
        what,
    }
}

fn decode_footer_body(body: &[u8], checksum: u64) -> Result<Footer, StoreError> {
    if fnv1a64(body) != checksum {
        return Err(corrupt_footer("footer checksum mismatch"));
    }
    let mut pos = 0;
    let count = varint::read_u64(body, &mut pos).ok_or(corrupt_footer("footer chunk count"))?;
    // Each entry takes at least two bytes, so a count past half the
    // remaining body is garbage and must not drive an allocation.
    if count > ((body.len() - pos) / 2) as u64 {
        return Err(corrupt_footer("footer chunk count out of range"));
    }
    let mut chunks = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let offset =
            varint::read_u64(body, &mut pos).ok_or(corrupt_footer("footer chunk offset"))?;
        let records =
            varint::read_u64(body, &mut pos).ok_or(corrupt_footer("footer record count"))?;
        chunks.push(ChunkEntry { offset, records });
    }
    let records = varint::read_u64(body, &mut pos).ok_or(corrupt_footer("footer total"))?;
    if records != chunks.iter().map(|c| c.records).sum::<u64>() {
        return Err(corrupt_footer("footer total disagrees with entries"));
    }
    let label_len =
        varint::read_u64(body, &mut pos).ok_or(corrupt_footer("footer label length"))?;
    let label = usize::try_from(label_len)
        .ok()
        .and_then(|n| body.get(pos..pos.checked_add(n)?))
        .and_then(|bytes| std::str::from_utf8(bytes).ok())
        .ok_or(corrupt_footer("footer label"))?
        .to_string();
    pos += label.len();
    let nodes = varint::read_u64(body, &mut pos)
        .and_then(|n| u16::try_from(n).ok())
        .ok_or(corrupt_footer("footer nodes"))?;
    let other_time_ns =
        varint::read_u64(body, &mut pos).ok_or(corrupt_footer("footer other time"))?;
    if pos != body.len() {
        return Err(corrupt_footer("trailing bytes in footer"));
    }
    Ok(Footer {
        chunks,
        meta: TraceMeta {
            label,
            records,
            nodes,
            other_time_ns,
        },
    })
}

/// Delta-encodes `records` into a chunk body (count prefix included).
fn encode_chunk_body(records: &[MissRecord]) -> Vec<u8> {
    // ~6 bytes/record is typical; over-reserving slightly avoids realloc.
    let mut body = Vec::with_capacity(8 + records.len() * 8);
    varint::write_u64(&mut body, records.len() as u64);
    let (mut pt, mut pp, mut ppid, mut pproc) = (0u64, 0u64, 0i64, 0i64);
    for r in records {
        varint::write_u64(&mut body, varint::zigzag(r.time.0.wrapping_sub(pt) as i64));
        varint::write_u64(&mut body, varint::zigzag(r.page.0.wrapping_sub(pp) as i64));
        varint::write_u64(&mut body, varint::zigzag(r.pid.0 as i64 - ppid));
        varint::write_u64(&mut body, varint::zigzag(r.proc.0 as i64 - pproc));
        body.push(encode_flags(r));
        pt = r.time.0;
        pp = r.page.0;
        ppid = r.pid.0 as i64;
        pproc = r.proc.0 as i64;
    }
    body
}

/// Smallest encoded record: four one-byte varints and the flags byte.
const MIN_RECORD_BYTES: usize = 5;

/// Bytes of the checksum folded into the decode per record: more than
/// the typical record, so the decode loop hashes all but a short tail.
const HASH_BYTES_PER_RECORD: usize = 8;

/// Verifies a chunk body against its `checksum` and decodes it into
/// `records`, replacing their contents. On error `records` may hold a
/// prefix of the chunk; the caller discards it.
///
/// The outcome is exactly that of checking the checksum first: a body
/// whose checksum fails is a [`StoreError::ChecksumMismatch`] whether or
/// not it also fails to decode.
fn decode_chunk(
    body: &[u8],
    checksum: u64,
    chunk: usize,
    records: &mut Vec<MissRecord>,
) -> Result<(), StoreError> {
    match decode_chunk_body(body, chunk, records) {
        Ok(hash) if hash == checksum => Ok(()),
        Err(e) if fnv1a64(body) == checksum => Err(e),
        _ => Err(StoreError::ChecksumMismatch { chunk }),
    }
}

/// Decodes a chunk body into `records`, replacing their contents, and
/// returns the FNV-1a 64 of the body. FNV-1a is a serial chain of
/// multiplies, so rather than make a pass of its own it is folded into
/// the decode loop a fixed block per record, where it overlaps with the
/// varint decoding.
fn decode_chunk_body(
    body: &[u8],
    chunk: usize,
    records: &mut Vec<MissRecord>,
) -> Result<u64, StoreError> {
    let corrupt = |what| StoreError::Corrupt { chunk, what };
    records.clear();
    let mut hash = FNV1A64_OFFSET;
    let mut hashed = 0;
    let mut pos = 0;
    let count = varint::read_u64(body, &mut pos).ok_or(corrupt("record count"))?;
    // A count the remaining bytes cannot hold is garbage; reject it
    // before it drives the reservation below.
    if count > ((body.len() - pos) / MIN_RECORD_BYTES) as u64 {
        return Err(corrupt("record count out of range"));
    }
    records.reserve(count as usize);
    let (mut pt, mut pp, mut ppid, mut pproc) = (0u64, 0u64, 0i64, 0i64);
    for _ in 0..count {
        if let Some(block) = body.get(hashed..hashed + HASH_BYTES_PER_RECORD) {
            hash = fnv1a64_update(hash, block);
            hashed += HASH_BYTES_PER_RECORD;
        }
        let word = body
            .get(pos..pos + 8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")));
        let ([dt, dp, dpid, dproc], flags) = match word.and_then(record_in_word) {
            Some((fields, flags, len)) => {
                pos += len;
                (fields, flags)
            }
            None => {
                let mut field =
                    |what| varint::read_u64(body, &mut pos).ok_or_else(|| corrupt(what));
                let fields = [
                    field("time delta")?,
                    field("page delta")?,
                    field("pid delta")?,
                    field("proc delta")?,
                ];
                let flags = *body.get(pos).ok_or_else(|| corrupt("flags byte"))?;
                pos += 1;
                (fields, flags)
            }
        };
        let time = pt.wrapping_add(varint::unzigzag(dt) as u64);
        let page = pp.wrapping_add(varint::unzigzag(dp) as u64);
        let pid = ppid + varint::unzigzag(dpid);
        let proc = pproc + varint::unzigzag(dproc);
        let pid = u32::try_from(pid).map_err(|_| corrupt("pid out of range"))?;
        let proc = u16::try_from(proc).map_err(|_| corrupt("proc out of range"))?;
        records.push(record_from_parts(time, page, pid, proc, flags)?);
        pt = time;
        pp = page;
        ppid = pid as i64;
        pproc = proc as i64;
    }
    if pos != body.len() {
        return Err(corrupt("trailing bytes in chunk"));
    }
    Ok(fnv1a64_update(hash, &body[hashed..]))
}

/// Splits one encoded record out of `word`, the eight bytes at its start
/// (little-endian): the four varint fields, the flags byte and the
/// record's length in bytes. `None` when the record does not fit in the
/// word; the caller then reads it field by field.
///
/// This is the common case — a typical record takes five to seven
/// bytes — and it decodes without branching on each field's length:
/// the varint ends are the bytes with a clear continuation bit, found
/// by counting trailing zeros.
#[inline]
fn record_in_word(word: u64) -> Option<([u64; 4], u8, usize)> {
    // Bit 7 of every byte that ends a varint.
    let mut ends = !word & 0x8080_8080_8080_8080;
    let mut start = 0;
    let mut fields = [0u64; 4];
    for field in &mut fields {
        let end = ends.trailing_zeros();
        if end > 55 {
            // The flags byte after the fourth field must be in the word.
            return None;
        }
        ends &= ends - 1;
        // The field's bytes, bits `start..=end`: at most four, as four
        // fields end within seven bytes.
        let bytes = (word >> start) & (u64::MAX >> (63 - (end - start)));
        *field = varint::compact_u32(bytes);
        start = end + 1;
    }
    Some((fields, (word >> start) as u8, start as usize / 8 + 1))
}

/// Reads the `u32(body_len) u64(checksum)` head that follows a marker
/// byte, then the body into `body` (replacing its contents, reusing its
/// allocation), and returns the checksum.
///
/// The body is read through `take(body_len)`, so `body` grows only as
/// far as the bytes actually present: a damaged length field cannot
/// request gigabytes before the read fails. A body shorter than its
/// length field is [`io::ErrorKind::UnexpectedEof`].
fn read_frame<R: Read>(r: &mut R, body: &mut Vec<u8>) -> io::Result<u64> {
    let mut head = [0u8; 12];
    r.read_exact(&mut head)?;
    let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes"));
    body.clear();
    if r.take(u64::from(len)).read_to_end(body)? != len as usize {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(u64::from_le_bytes(head[4..].try_into().expect("8 bytes")))
}

/// Summary returned by [`TraceWriter::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteSummary {
    /// Records written.
    pub records: u64,
    /// Chunks written.
    pub chunks: usize,
    /// Total bytes of the finished file, header to end magic.
    pub bytes: u64,
}

/// Bounded-memory streaming writer for the trace format.
///
/// Push records one at a time; the writer buffers at most one chunk
/// (default [`DEFAULT_CHUNK_RECORDS`] records) before flushing it with
/// its checksum, and [`finish`](TraceWriter::finish) appends the footer:
/// the chunk index and the trace's [`TraceMeta`].
///
/// # Examples
///
/// ```
/// use ccnuma_tracestore::{TraceMeta, TraceReader, TraceWriter};
/// use ccnuma_trace::MissRecord;
/// use ccnuma_types::{Ns, Pid, ProcId, VirtPage};
/// use std::io::Cursor;
///
/// # fn main() -> Result<(), ccnuma_tracestore::StoreError> {
/// let mut buf = Vec::new();
/// let mut w = TraceWriter::new(&mut buf)?;
/// for i in 0..100u64 {
///     w.push(&MissRecord::user_data_read(Ns(i * 500), ProcId(0), Pid(0), VirtPage(i / 8)))?;
/// }
/// let meta = TraceMeta { label: "demo".into(), records: 0, nodes: 8, other_time_ns: 0 };
/// let summary = w.finish(&meta)?;
/// assert_eq!(summary.records, 100);
/// let back: Result<Vec<_>, _> = TraceReader::new(Cursor::new(buf))?.collect();
/// assert_eq!(back?.len(), 100);
/// # Ok(())
/// # }
/// ```
pub struct TraceWriter<W: Write> {
    w: W,
    written: u64,
    buf: Vec<MissRecord>,
    chunk_records: usize,
    index: Vec<ChunkEntry>,
    total: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a stream on `w` with the default chunk size.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the header.
    pub fn new(w: W) -> Result<TraceWriter<W>, StoreError> {
        TraceWriter::with_chunk_records(w, DEFAULT_CHUNK_RECORDS)
    }

    /// Starts a stream flushing every `chunk_records` records.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the header.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_records` is zero.
    pub fn with_chunk_records(
        mut w: W,
        chunk_records: usize,
    ) -> Result<TraceWriter<W>, StoreError> {
        assert!(chunk_records > 0, "chunks must hold at least one record");
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        Ok(TraceWriter {
            w,
            written: 8,
            buf: Vec::with_capacity(chunk_records),
            chunk_records,
            index: Vec::new(),
            total: 0,
        })
    }

    /// Appends one record, flushing a chunk when the buffer fills.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from a chunk flush.
    pub fn push(&mut self, rec: &MissRecord) -> Result<(), StoreError> {
        self.buf.push(*rec);
        self.total += 1;
        if self.buf.len() >= self.chunk_records {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<(), StoreError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let body = encode_chunk_body(&self.buf);
        self.index.push(ChunkEntry {
            offset: self.written,
            records: self.buf.len() as u64,
        });
        self.w.write_all(&[CHUNK_MARKER])?;
        self.w.write_all(&(body.len() as u32).to_le_bytes())?;
        self.w.write_all(&fnv1a64(&body).to_le_bytes())?;
        self.w.write_all(&body)?;
        self.written += 13 + body.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Flushes the last chunk, writes the footer with `meta`'s label,
    /// nodes and other time (the record count is the writer's own), and
    /// returns totals.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the final writes.
    pub fn finish(mut self, meta: &TraceMeta) -> Result<WriteSummary, StoreError> {
        self.flush_chunk()?;
        let mut body = Vec::new();
        varint::write_u64(&mut body, self.index.len() as u64);
        for entry in &self.index {
            varint::write_u64(&mut body, entry.offset);
            varint::write_u64(&mut body, entry.records);
        }
        varint::write_u64(&mut body, self.total);
        varint::write_u64(&mut body, meta.label.len() as u64);
        body.extend_from_slice(meta.label.as_bytes());
        varint::write_u64(&mut body, u64::from(meta.nodes));
        varint::write_u64(&mut body, meta.other_time_ns);
        self.w.write_all(&[FOOTER_MARKER])?;
        let len = (body.len() as u32).to_le_bytes();
        self.w.write_all(&len)?;
        self.w.write_all(&fnv1a64(&body).to_le_bytes())?;
        self.w.write_all(&body)?;
        self.w.write_all(&len)?;
        self.w.write_all(END_MAGIC)?;
        self.w.flush()?;
        Ok(WriteSummary {
            records: self.total,
            chunks: self.index.len(),
            bytes: self.written + 13 + body.len() as u64 + 8,
        })
    }
}

/// Streaming reader for stored traces: decodes chunk by chunk with
/// bounded memory and checks every byte of the file.
///
/// Opening reads the footer from the end of the input first, so the
/// trace's [`TraceMeta`] is known before a chunk is decoded. Iterate the
/// reader (`Iterator<Item = Result<MissRecord, StoreError>>`): each
/// chunk must sit where the footer's index lists it and hold the records
/// it lists, and the stream ends with `None` only after the footer it
/// reaches equals the one read at open, the trailer validates, and no
/// byte follows it. Any damage ends the stream with one `Err`.
///
/// # Examples
///
/// A stream of any other version is a typed error:
///
/// ```
/// use ccnuma_tracestore::{StoreError, TraceReader};
/// use std::io::Cursor;
///
/// let v2_header = b"CCNT\x02\0\0\0";
/// assert!(matches!(
///     TraceReader::new(Cursor::new(&v2_header[..])),
///     Err(StoreError::BadVersion(2))
/// ));
/// ```
pub struct TraceReader<R: Read + Seek> {
    reader: R,
    /// The footer read from the end of the input at open.
    footer: Footer,
    /// The current chunk's bytes and decoded records. Both buffers are
    /// reused for every chunk, so a steady-state read allocates nothing.
    body: Vec<u8>,
    records: Vec<MissRecord>,
    /// Index in `records` of the next record to yield.
    next: usize,
    chunks_done: usize,
    /// File offset of the next marker byte.
    offset: u64,
    done: bool,
}

impl<R: Read + Seek> TraceReader<R> {
    /// Opens a stored trace: checks the header, reads the footer (see
    /// [`Footer::read_from`]), and positions the stream at the first
    /// chunk.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadMagic`] / [`StoreError::BadVersion`] for foreign
    /// input, [`StoreError::MissingFooter`] / [`StoreError::Corrupt`]
    /// for a damaged footer or trailer, or an I/O error.
    pub fn new(mut reader: R) -> Result<TraceReader<R>, StoreError> {
        let footer = Footer::read_from(&mut reader)?;
        reader.seek(SeekFrom::Start(8))?;
        Ok(TraceReader {
            reader,
            footer,
            body: Vec::new(),
            records: Vec::new(),
            next: 0,
            chunks_done: 0,
            offset: 8,
            done: false,
        })
    }

    /// The footer read at open: the chunk index and the trace's meta.
    pub fn footer(&self) -> &Footer {
        &self.footer
    }

    /// Loads the next non-empty chunk into `records`. Returns `Ok(false)`
    /// at the end of a stream whose footer, trailer and end all
    /// validated. A chunk's records become visible only after its
    /// checksum, its whole body and its index entry validate.
    fn refill(&mut self) -> Result<bool, StoreError> {
        self.records.clear();
        self.next = 0;
        loop {
            let corrupt = |what| StoreError::Corrupt {
                chunk: self.chunks_done,
                what,
            };
            let mut marker = [0u8; 1];
            match self.reader.read_exact(&mut marker) {
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                    return Err(StoreError::MissingFooter);
                }
                other => other?,
            }
            if ![CHUNK_MARKER, FOOTER_MARKER].contains(&marker[0]) {
                return Err(corrupt("unknown marker byte"));
            }
            let checksum = read_frame(&mut self.reader, &mut self.body)?;
            let start = self.offset;
            self.offset += 13 + self.body.len() as u64;
            if marker[0] == FOOTER_MARKER {
                if decode_footer_body(&self.body, checksum)? != self.footer
                    || self.chunks_done != self.footer.chunks.len()
                {
                    return Err(corrupt_footer("footer disagrees with the stream"));
                }
                let mut trailer = [0u8; 8];
                self.reader.read_exact(&mut trailer)?;
                if trailer[..4] != (self.body.len() as u32).to_le_bytes()
                    || &trailer[4..] != END_MAGIC
                {
                    return Err(corrupt_footer("damaged trailer"));
                }
                if self.reader.read(&mut [0u8; 1])? != 0 {
                    return Err(corrupt_footer("bytes after the trailer"));
                }
                return Ok(false);
            }
            decode_chunk(&self.body, checksum, self.chunks_done, &mut self.records)?;
            let entry = ChunkEntry {
                offset: start,
                records: self.records.len() as u64,
            };
            if self.footer.chunks.get(self.chunks_done) != Some(&entry) {
                return Err(corrupt("chunk disagrees with the footer index"));
            }
            self.chunks_done += 1;
            if !self.records.is_empty() {
                return Ok(true);
            }
        }
    }
}

impl<R: Read + Seek> Iterator for TraceReader<R> {
    type Item = Result<MissRecord, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next == self.records.len() {
            if self.done {
                return None;
            }
            match self.refill() {
                Ok(true) => {}
                Ok(false) => {
                    self.done = true;
                    return None;
                }
                Err(e) => {
                    // Nothing of the failing chunk is yielded.
                    self.done = true;
                    self.records.clear();
                    self.next = 0;
                    return Some(Err(e));
                }
            }
        }
        let rec = self.records[self.next];
        self.next += 1;
        Some(Ok(rec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma_trace::{Trace, TraceBuilder};
    use ccnuma_types::{Ns, Pid, ProcId, VirtPage};
    use std::io::Cursor;

    fn meta(records: u64) -> TraceMeta {
        TraceMeta {
            label: "sample [FT] +trace".into(),
            records,
            nodes: 8,
            other_time_ns: 171_352_770,
        }
    }

    /// A reader over an in-memory file.
    fn reader(buf: &[u8]) -> Result<TraceReader<Cursor<&[u8]>>, StoreError> {
        TraceReader::new(Cursor::new(buf))
    }

    fn sample(n: u64) -> Trace {
        let mut b = TraceBuilder::new();
        for i in 0..n {
            b.push(MissRecord::user_data_read(
                Ns(i * 500),
                ProcId((i % 8) as u16),
                Pid((i % 3) as u32),
                VirtPage(100 + i / 16),
            ));
        }
        b.finish()
    }

    fn encode(trace: &Trace, chunk_records: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = TraceWriter::with_chunk_records(&mut buf, chunk_records).unwrap();
        for r in trace.iter() {
            w.push(r).unwrap();
        }
        w.finish(&meta(trace.len() as u64)).unwrap();
        buf
    }

    #[test]
    fn roundtrip_across_chunk_boundaries() {
        let t = sample(1000);
        let buf = encode(&t, 64);
        let back: Result<Vec<_>, _> = reader(&buf).unwrap().collect();
        assert_eq!(back.unwrap(), t.as_slice());
    }

    #[test]
    fn encoding_is_under_half_of_fixed_24_byte_records() {
        let t = sample(4000);
        let encoded = encode(&t, DEFAULT_CHUNK_RECORDS);
        let fixed = 24 * t.len();
        assert!(
            encoded.len() * 2 <= fixed,
            "{} bytes vs {fixed} bytes at 24 per record",
            encoded.len()
        );
    }

    #[test]
    fn empty_trace_roundtrips() {
        let buf = encode(&Trace::new(), 16);
        let mut r = reader(&buf).unwrap();
        assert_eq!(r.footer().meta, meta(0));
        assert!(r.next().is_none());
    }

    #[test]
    fn footer_reads_from_the_end_and_seeks_chunks() {
        let t = sample(300);
        let buf = encode(&t, 100);
        let footer = Footer::read_from(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(footer.chunks.len(), 3);
        assert_eq!(footer.meta, meta(300));
        let counts: Vec<u64> = footer.chunks.iter().map(|c| c.records).collect();
        assert_eq!(counts, [100, 100, 100]);
        assert_index_lands_on_chunks(&buf);
    }

    #[test]
    fn a_truncated_file_is_a_typed_error() {
        let t = sample(300);
        let full = encode(&t, 100);
        let footer = Footer::read_from(&mut Cursor::new(&full)).unwrap();
        // Cut into the last chunk, at the footer, and inside the trailer.
        for cut in [
            footer.chunks[2].offset as usize + 20,
            footer_start(&full),
            full.len() - 1,
        ] {
            assert!(
                matches!(reader(&full[..cut]), Err(StoreError::MissingFooter)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn damage_after_the_footer_is_a_typed_error() {
        let t = sample(300);
        let full = encode(&t, 100);
        // "CCNX" -> "CCNZ": the last byte of the file.
        let mut trailer = full.clone();
        *trailer.last_mut().unwrap() = b'Z';
        assert!(matches!(reader(&trailer), Err(StoreError::MissingFooter)));
        // A byte after the trailer.
        let mut appended = full.clone();
        appended.push(0);
        assert!(matches!(reader(&appended), Err(StoreError::MissingFooter)));
    }

    #[test]
    fn the_footer_carries_the_meta_under_its_checksum() {
        let t = sample(300);
        let full = encode(&t, 100);
        // The last byte of the footer body is `other_time_ns`'s varint.
        let at = full.len() - 9;
        let mut buf = full.clone();
        buf[at] ^= 0x01;
        assert!(matches!(
            reader(&buf),
            Err(StoreError::Corrupt {
                what: "footer checksum mismatch",
                ..
            })
        ));
    }

    #[test]
    fn a_stream_whose_footer_differs_from_the_one_opened_fails() {
        // Two files alike up to their footers: the stream of one read
        // against the footer of the other must not end cleanly.
        let t = sample(300);
        let full = encode(&t, 100);
        let mut r = reader(&full).unwrap();
        r.footer.meta.other_time_ns += 1;
        let (ok, err) = drain(&mut r);
        assert_eq!(ok, t.as_slice());
        assert!(
            matches!(
                err,
                Some(StoreError::Corrupt {
                    what: "footer disagrees with the stream",
                    ..
                })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn foreign_bytes_are_bad_magic() {
        let res = reader(b"not a trace file");
        assert!(matches!(res, Err(StoreError::BadMagic(_))));
        let res = reader(b"CCNT\x09\x00\x00\x00");
        assert!(matches!(res, Err(StoreError::BadVersion(9))));
        // A complete file of the previous version, header aside.
        let mut v2 = encode(&sample(10), 4);
        v2[4] = 2;
        assert!(matches!(reader(&v2), Err(StoreError::BadVersion(2))));
    }

    /// Assembles a file from explicit chunk bodies. Unlike the writer it
    /// can emit empty, uneven or forged chunks; every frame still
    /// carries a valid checksum and the footer indexes every chunk.
    fn assemble(bodies: &[Vec<u8>]) -> Vec<u8> {
        fn frame(out: &mut Vec<u8>, marker: u8, body: &[u8]) {
            out.push(marker);
            out.extend_from_slice(&(body.len() as u32).to_le_bytes());
            out.extend_from_slice(&fnv1a64(body).to_le_bytes());
            out.extend_from_slice(body);
        }
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&VERSION.to_le_bytes());
        let mut footer = Vec::new();
        varint::write_u64(&mut footer, bodies.len() as u64);
        let mut total = 0;
        for body in bodies {
            let records = varint::read_u64(body, &mut 0).unwrap();
            total += records;
            varint::write_u64(&mut footer, out.len() as u64);
            varint::write_u64(&mut footer, records);
            frame(&mut out, CHUNK_MARKER, body);
        }
        varint::write_u64(&mut footer, total);
        let meta = meta(total);
        varint::write_u64(&mut footer, meta.label.len() as u64);
        footer.extend_from_slice(meta.label.as_bytes());
        varint::write_u64(&mut footer, u64::from(meta.nodes));
        varint::write_u64(&mut footer, meta.other_time_ns);
        frame(&mut out, FOOTER_MARKER, &footer);
        out.extend_from_slice(&(footer.len() as u32).to_le_bytes());
        out.extend_from_slice(END_MAGIC);
        out
    }

    fn bodies(chunks: &[&[MissRecord]]) -> Vec<Vec<u8>> {
        chunks.iter().map(|c| encode_chunk_body(c)).collect()
    }

    /// Reads `buf`'s footer and checks that every index entry's offset
    /// lands on a chunk marker and that the entries' record counts sum
    /// to the footer total.
    fn assert_index_lands_on_chunks(buf: &[u8]) -> Footer {
        let footer = Footer::read_from(&mut Cursor::new(buf)).unwrap();
        for entry in &footer.chunks {
            assert_eq!(buf[entry.offset as usize], CHUNK_MARKER, "{entry:?}");
        }
        let sum: u64 = footer.chunks.iter().map(|c| c.records).sum();
        assert_eq!(sum, footer.meta.records);
        footer
    }

    fn offsets(buf: &[u8]) -> Vec<usize> {
        let footer = Footer::read_from(&mut Cursor::new(buf)).unwrap();
        footer.chunks.iter().map(|c| c.offset as usize).collect()
    }

    /// Offset of the footer's marker byte: the end of the last chunk.
    fn footer_start(buf: &[u8]) -> usize {
        let last = *offsets(buf).last().unwrap();
        last + 13 + u32::from_le_bytes(buf[last + 1..last + 5].try_into().unwrap()) as usize
    }

    /// Every record a reader yields before it stops, and its error. A
    /// stopped reader must stay stopped.
    fn drain(r: &mut TraceReader<Cursor<&[u8]>>) -> (Vec<MissRecord>, Option<StoreError>) {
        let mut ok = Vec::new();
        let mut err = None;
        for rec in &mut *r {
            match rec {
                Ok(rec) => ok.push(rec),
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(r.next().is_none(), "a stopped reader yielded more");
        (ok, err)
    }

    /// Capacity of the reader's reused body buffer.
    fn body_capacity(r: &TraceReader<Cursor<&[u8]>>) -> usize {
        r.body.capacity()
    }

    fn is_eof(e: &StoreError) -> bool {
        matches!(e, StoreError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof)
    }

    /// One record at the start of `bytes`, read field by field.
    fn record_by_fields(bytes: &[u8]) -> Option<([u64; 4], u8, usize)> {
        let mut pos = 0;
        let mut fields = [0; 4];
        for field in &mut fields {
            *field = varint::read_u64(bytes, &mut pos)?;
        }
        let flags = *bytes.get(pos)?;
        Some((fields, flags, pos + 1))
    }

    #[test]
    fn word_decode_agrees_with_field_by_field_decode() {
        // splitmix64: a fixed stream of words, so the test is repeatable.
        let mut state = 0u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut fitted = 0;
        for _ in 0..200_000 {
            // Clear continuation bits at random as well, so that most
            // words hold a whole record.
            let word = next() & !(next() & 0x8080_8080_8080_8080);
            let expect = record_by_fields(&word.to_le_bytes()).filter(|&(_, _, len)| len <= 8);
            assert_eq!(record_in_word(word), expect, "{word:#018x}");
            fitted += usize::from(expect.is_some());
        }
        assert!(fitted > 100_000, "only {fitted} words held a record");
    }

    #[test]
    fn assembled_files_match_the_writer() {
        let t = sample(300);
        let r = t.as_slice();
        let buf = assemble(&bodies(&[&r[..100], &r[100..200], &r[200..]]));
        assert_eq!(buf, encode(&t, 100));
    }

    #[test]
    fn flipped_high_bit_in_a_chunk_length_is_a_typed_error() {
        let t = sample(300);
        let mut buf = encode(&t, 100);
        let chunk1 = offsets(&buf)[1];
        // The top byte of chunk 1's little-endian length: it now claims
        // over 2 GiB, far past the end of the file.
        buf[chunk1 + 4] ^= 0x80;

        // The footer index is intact: it still points at every chunk.
        assert_index_lands_on_chunks(&buf);

        let mut strict = reader(&buf).unwrap();
        let (ok, err) = drain(&mut strict);
        assert_eq!(ok, &t.as_slice()[..100]);
        let err = err.expect("strict read must fail");
        assert!(is_eof(&err), "expected a truncated chunk, got {err:?}");
        // The body buffer grew only as far as the bytes present.
        assert!(body_capacity(&strict) <= 2 * buf.len());
    }

    #[test]
    fn flipped_high_bit_in_the_footer_length_is_a_typed_error() {
        let t = sample(300);
        let mut buf = encode(&t, 100);
        let footer = footer_start(&buf);
        assert_eq!(buf[footer], FOOTER_MARKER);
        buf[footer + 4] ^= 0x80;
        // The footer read stops at the end of the file.
        let err = reader(&buf).err().expect("open must fail");
        assert!(is_eof(&err), "expected a truncated footer, got {err:?}");
    }

    #[test]
    fn forged_record_count_is_rejected_before_reserving() {
        // Ten bytes after the count hold at most two 5-byte records.
        for (count, ok) in [(2u64, true), (3, false), (1 << 40, false)] {
            let mut body = Vec::new();
            varint::write_u64(&mut body, count);
            body.extend_from_slice(&[0; 10]);
            let mut records = Vec::new();
            match decode_chunk_body(&body, 7, &mut records) {
                Ok(_) => assert!(ok, "count {count} accepted"),
                Err(StoreError::Corrupt {
                    chunk: 7,
                    what: "record count out of range",
                }) => {
                    assert!(!ok, "count {count} rejected");
                    assert_eq!(records.capacity(), 0, "no reservation for a forged count");
                }
                Err(e) => panic!("count {count}: unexpected {e:?}"),
            }
        }
    }

    #[test]
    fn forged_footer_count_is_rejected() {
        // Twelve bytes after the count hold four two-byte entries, the
        // total and a three-byte empty meta; no count past six can fit.
        for (count, ok) in [(4u64, true), (7, false)] {
            let mut body = Vec::new();
            varint::write_u64(&mut body, count);
            body.extend_from_slice(&[0; 12]);
            let res = decode_footer_body(&body, fnv1a64(&body));
            match res {
                Ok(index) => {
                    assert!(ok, "count {count} accepted");
                    assert_eq!(index.chunks.len(), 4);
                }
                Err(StoreError::Corrupt {
                    what: "footer chunk count out of range",
                    ..
                }) => assert!(!ok, "count {count} rejected"),
                Err(e) => panic!("count {count}: unexpected {e:?}"),
            }
        }
    }

    #[test]
    fn bit_flip_in_a_chunk_is_a_checksum_error() {
        // Chunk 2 follows a longer chunk, so a reader that reuses its
        // buffers must not leak chunk 1's records past the failure.
        let t = sample(530);
        let r = t.as_slice();
        let clean = assemble(&bodies(&[&r[..100], &r[100..400], &r[400..450], &r[450..]]));
        let chunk2 = offsets(&clean)[2];
        let body2_len = u32::from_le_bytes(clean[chunk2 + 1..chunk2 + 5].try_into().unwrap());
        let last_flags = chunk2 + 13 + body2_len as usize - 1;
        // Two damages to chunk 2's body: a flipped bit in a delta, which
        // still decodes, and reserved bits in the last record's flags,
        // which do not. Both are checksum failures.
        for (at, damage) in [(chunk2 + 15, 0x40), (last_flags, 0xf0)] {
            let mut buf = clean.clone();
            buf[at] ^= damage;

            let (ok, err) = drain(&mut reader(&buf).unwrap());
            assert_eq!(ok, &r[..400]);
            match err {
                Some(StoreError::ChecksumMismatch { chunk: 2 }) => {}
                other => panic!("expected checksum mismatch in chunk 2, got {other:?}"),
            }
        }
    }

    #[test]
    fn decode_failure_after_a_longer_chunk_yields_no_stale_records() {
        // Chunk 2 carries a valid checksum but its last record has
        // reserved flag bits, so 49 of its records decode before the
        // failure; none of them may surface.
        let t = sample(530);
        let r = t.as_slice();
        let mut chunks = bodies(&[&r[..100], &r[100..400], &r[400..450], &r[450..]]);
        *chunks[2].last_mut().unwrap() = 0xf0;
        let buf = assemble(&chunks);

        let (ok, err) = drain(&mut reader(&buf).unwrap());
        assert_eq!(ok, &r[..400]);
        assert!(matches!(err, Some(StoreError::BadFlags(0xf0))), "{err:?}");
    }

    #[test]
    fn uneven_and_empty_chunks_roundtrip() {
        let t = sample(700);
        let r = t.as_slice();
        let layouts: [&[&[MissRecord]]; 4] = [
            // The last chunk is shorter than the one before it.
            &[&r[..500], &r[500..]],
            &[&r[..100], &r[100..650], &r[650..]],
            // Empty chunks: in the middle, at the end, and alone.
            &[&r[..300], &r[300..300], &r[300..]],
            &[&r[..0], r, &r[700..]],
        ];
        for layout in layouts {
            let buf = assemble(&bodies(layout));
            let (back, err) = drain(&mut reader(&buf).unwrap());
            assert!(err.is_none(), "{err:?}");
            assert_eq!(back, r);
            let index = assert_index_lands_on_chunks(&buf);
            let counts: Vec<u64> = index.chunks.iter().map(|c| c.records).collect();
            let lens: Vec<u64> = layout.iter().map(|c| c.len() as u64).collect();
            assert_eq!(counts, lens);
        }
        let buf = assemble(&bodies(&[&r[..0]]));
        let (back, err) = drain(&mut reader(&buf).unwrap());
        assert!(back.is_empty() && err.is_none());
    }
}
