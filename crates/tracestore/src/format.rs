//! The chunked on-disk trace format, version 2.
//!
//! A stream opens with the `CCNT` magic followed by a little-endian
//! `u32` version; any version but 2 is refused with
//! [`StoreError::BadVersion`]. After the header come self-contained
//! chunks and a chunk-index footer:
//!
//! ```text
//! header := "CCNT" u32(version = 2)
//! chunk  := 0x01 u32(body_len) u64(fnv1a64 of body) body
//! footer := 0x00 u32(body_len) u64(fnv1a64 of body) body
//!           u32(body_len again) "CCNX"
//! ```
//!
//! A chunk body is `varint(record_count)` followed by delta-encoded
//! records; the delta baseline resets to zero at every chunk boundary,
//! so any chunk decodes on its own — that is what makes tail salvage
//! possible. Each record is four zigzag varints (time, page, pid and
//! processor deltas) plus the one-byte record flags, which for the
//! simulator's sorted, page-local traces comes to ~3–8 bytes instead of
//! the 24 a fixed-width record needs.
//!
//! The footer body is `varint(chunk_count)`, then per chunk
//! `varint(file_offset) varint(record_count)`, then
//! `varint(total_records)`. The trailing length + `CCNX` magic let a
//! seekable reader find the index from the end of the file without
//! scanning.

use crate::varint;
use ccnuma_obs::{fnv1a64, fnv1a64_update, FNV1A64_OFFSET};
use ccnuma_trace::io::{encode_flags, record_from_parts, ReadTraceError, MAGIC};
use ccnuma_trace::MissRecord;
use std::fmt;
use std::io::{self, Read, Seek, SeekFrom, Write};

/// Format version written by [`TraceWriter`].
pub const VERSION_V2: u32 = 2;
/// Marker byte that opens every chunk.
pub const CHUNK_MARKER: u8 = 0x01;
/// Marker byte that opens the footer.
pub const FOOTER_MARKER: u8 = 0x00;
/// Magic that ends a complete v2 file.
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
        /// Zero-based chunk index (chunk count for the footer).
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

impl From<ReadTraceError> for StoreError {
    fn from(e: ReadTraceError) -> StoreError {
        match e {
            ReadTraceError::BadFlags(b) => StoreError::BadFlags(b),
        }
    }
}

/// One entry of the chunk-index footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Byte offset of the chunk's marker byte from the start of the file.
    pub offset: u64,
    /// Records stored in the chunk.
    pub records: u64,
}

/// The decoded chunk-index footer of a v2 file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkIndex {
    /// Per-chunk offsets and record counts, in file order.
    pub chunks: Vec<ChunkEntry>,
    /// Total records across all chunks.
    pub total_records: u64,
}

impl ChunkIndex {
    /// Reads the index from the end of a seekable v2 file without
    /// scanning the chunks.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingFooter`] when the trailer is absent or
    /// damaged, [`StoreError::Corrupt`]/[`StoreError::ChecksumMismatch`]
    /// when the footer body does not validate, or an I/O error.
    pub fn read_from<R: Read + Seek>(r: &mut R) -> Result<ChunkIndex, StoreError> {
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
        let mut head = [0u8; 13];
        r.read_exact(&mut head)?;
        if head[0] != FOOTER_MARKER {
            return Err(StoreError::MissingFooter);
        }
        let len = u32::from_le_bytes([head[1], head[2], head[3], head[4]]) as u64;
        if len != body_len {
            return Err(StoreError::MissingFooter);
        }
        let checksum = u64::from_le_bytes(head[5..13].try_into().expect("8 bytes"));
        let mut body = vec![0u8; body_len as usize];
        r.read_exact(&mut body)?;
        decode_footer_body(&body, checksum)
    }
}

fn decode_footer_body(body: &[u8], checksum: u64) -> Result<ChunkIndex, StoreError> {
    if fnv1a64(body) != checksum {
        return Err(StoreError::Corrupt {
            chunk: usize::MAX,
            what: "footer checksum mismatch",
        });
    }
    let corrupt = |what| StoreError::Corrupt {
        chunk: usize::MAX,
        what,
    };
    let mut pos = 0;
    let count = varint::read_u64(body, &mut pos).ok_or(corrupt("footer chunk count"))?;
    // Each entry takes at least two bytes, so a count past half the
    // remaining body is garbage and must not drive an allocation.
    if count > ((body.len() - pos) / 2) as u64 {
        return Err(corrupt("footer chunk count out of range"));
    }
    let mut chunks = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let offset = varint::read_u64(body, &mut pos).ok_or(corrupt("footer chunk offset"))?;
        let records = varint::read_u64(body, &mut pos).ok_or(corrupt("footer record count"))?;
        chunks.push(ChunkEntry { offset, records });
    }
    let total_records = varint::read_u64(body, &mut pos).ok_or(corrupt("footer total"))?;
    if pos != body.len() {
        return Err(corrupt("trailing bytes in footer"));
    }
    if total_records != chunks.iter().map(|c| c.records).sum::<u64>() {
        return Err(corrupt("footer total disagrees with entries"));
    }
    Ok(ChunkIndex {
        chunks,
        total_records,
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

/// Bounded-memory streaming writer for format v2.
///
/// Push records one at a time; the writer buffers at most one chunk
/// (default [`DEFAULT_CHUNK_RECORDS`] records) before flushing it with
/// its checksum, and [`finish`](TraceWriter::finish) appends the
/// chunk-index footer.
///
/// # Examples
///
/// ```
/// use ccnuma_tracestore::{TraceReader, TraceWriter};
/// use ccnuma_trace::MissRecord;
/// use ccnuma_types::{Ns, Pid, ProcId, VirtPage};
///
/// # fn main() -> Result<(), ccnuma_tracestore::StoreError> {
/// let mut buf = Vec::new();
/// let mut w = TraceWriter::new(&mut buf)?;
/// for i in 0..100u64 {
///     w.push(&MissRecord::user_data_read(Ns(i * 500), ProcId(0), Pid(0), VirtPage(i / 8)))?;
/// }
/// let summary = w.finish()?;
/// assert_eq!(summary.records, 100);
/// let back: Result<Vec<_>, _> = TraceReader::new(buf.as_slice())?.collect();
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
    /// Starts a v2 stream on `w` with the default chunk size.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the header.
    pub fn new(w: W) -> Result<TraceWriter<W>, StoreError> {
        TraceWriter::with_chunk_records(w, DEFAULT_CHUNK_RECORDS)
    }

    /// Starts a v2 stream flushing every `chunk_records` records.
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
        w.write_all(&VERSION_V2.to_le_bytes())?;
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

    /// Flushes the last chunk, writes the footer, and returns totals.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the final writes.
    pub fn finish(mut self) -> Result<WriteSummary, StoreError> {
        self.flush_chunk()?;
        let mut body = Vec::new();
        varint::write_u64(&mut body, self.index.len() as u64);
        for entry in &self.index {
            varint::write_u64(&mut body, entry.offset);
            varint::write_u64(&mut body, entry.records);
        }
        varint::write_u64(&mut body, self.total);
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

/// What a salvaging reader recovered from a damaged file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SalvageInfo {
    /// Complete chunks recovered before the damage.
    pub chunks_kept: usize,
    /// Records in those chunks.
    pub records_kept: u64,
    /// Why the scan stopped.
    pub reason: SalvageReason,
}

/// Why a salvage scan stopped accepting chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SalvageReason {
    /// The file ended mid-chunk (e.g. an interrupted capture).
    TruncatedChunk,
    /// A chunk's checksum or structure did not validate.
    DamagedChunk,
    /// All chunks were fine but the footer was missing or damaged.
    MissingFooter,
}

/// Streaming reader for stored traces: decodes chunk by chunk with
/// bounded memory.
///
/// Iterate it (`Iterator<Item = Result<MissRecord, StoreError>>`); after
/// a salvaging read finishes, [`salvaged`](TraceReader::salvaged)
/// reports what was dropped.
///
/// # Examples
///
/// A stream of any other version is a typed error:
///
/// ```
/// use ccnuma_tracestore::{StoreError, TraceReader};
///
/// let v1_header = b"CCNT\x01\0\0\0";
/// assert!(matches!(
///     TraceReader::new(&v1_header[..]),
///     Err(StoreError::BadVersion(1))
/// ));
/// ```
pub struct TraceReader<R: Read> {
    reader: R,
    /// The current chunk's bytes and decoded records. Both buffers are
    /// reused for every chunk, so a steady-state read allocates nothing.
    body: Vec<u8>,
    records: Vec<MissRecord>,
    /// Index in `records` of the next record to yield.
    next: usize,
    chunks_done: usize,
    records_done: u64,
    footer_seen: bool,
    salvage: bool,
    salvaged: Option<SalvageInfo>,
    finished: bool,
}

impl<R: Read> TraceReader<R> {
    /// Opens a stored trace, checking the header's magic and version.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadMagic`] / [`StoreError::BadVersion`] for foreign
    /// input, or an I/O error reading the header.
    pub fn new(reader: R) -> Result<TraceReader<R>, StoreError> {
        TraceReader::open(reader, false)
    }

    /// Like [`new`](TraceReader::new), but a damaged or truncated v2
    /// tail ends the stream cleanly (recording [`SalvageInfo`]) instead
    /// of yielding an error. Header problems still fail: there is
    /// nothing to salvage from a file of the wrong format.
    ///
    /// # Errors
    ///
    /// Same header errors as [`new`](TraceReader::new).
    pub fn with_salvage(reader: R) -> Result<TraceReader<R>, StoreError> {
        TraceReader::open(reader, true)
    }

    fn open(mut reader: R, salvage: bool) -> Result<TraceReader<R>, StoreError> {
        let mut header = [0u8; 8];
        reader.read_exact(&mut header)?;
        let magic: [u8; 4] = header[..4].try_into().expect("4 bytes");
        if &magic != MAGIC {
            return Err(StoreError::BadMagic(magic));
        }
        let version = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
        if version != VERSION_V2 {
            return Err(StoreError::BadVersion(version));
        }
        Ok(TraceReader {
            reader,
            body: Vec::new(),
            records: Vec::new(),
            next: 0,
            chunks_done: 0,
            records_done: 0,
            footer_seen: false,
            salvage,
            salvaged: None,
            finished: false,
        })
    }

    /// After iteration: what a salvaging read had to drop, if anything.
    pub fn salvaged(&self) -> Option<SalvageInfo> {
        self.salvaged
    }

    /// Records yielded so far.
    pub fn records_read(&self) -> u64 {
        self.records_done
    }

    /// Loads the next non-empty chunk into `records`. Returns `Ok(false)`
    /// at a clean end of stream (footer validated, or salvage stop). A
    /// chunk's records become visible only after its checksum and its
    /// whole body validate.
    fn refill(&mut self) -> Result<bool, StoreError> {
        self.records.clear();
        self.next = 0;
        loop {
            let mut marker = [0u8; 1];
            match self.reader.read_exact(&mut marker) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                    return self.stop(SalvageReason::MissingFooter, StoreError::MissingFooter);
                }
                Err(e) => return self.stop(SalvageReason::TruncatedChunk, e.into()),
            }
            match marker[0] {
                CHUNK_MARKER => {
                    let checksum = match read_frame(&mut self.reader, &mut self.body) {
                        Ok(c) => c,
                        Err(e) => return self.stop_io(e),
                    };
                    if let Err(e) =
                        decode_chunk(&self.body, checksum, self.chunks_done, &mut self.records)
                    {
                        return self.stop(SalvageReason::DamagedChunk, e);
                    }
                    self.chunks_done += 1;
                    if self.records.is_empty() {
                        continue;
                    }
                    return Ok(true);
                }
                FOOTER_MARKER => {
                    let checksum = match read_frame(&mut self.reader, &mut self.body) {
                        Ok(c) => c,
                        Err(e) => return self.stop_io(e),
                    };
                    let index = match decode_footer_body(&self.body, checksum) {
                        Ok(i) => i,
                        Err(e) => return self.stop(SalvageReason::MissingFooter, e),
                    };
                    if index.chunks.len() != self.chunks_done
                        || index.total_records != self.records_done
                    {
                        return self.stop(
                            SalvageReason::MissingFooter,
                            StoreError::Corrupt {
                                chunk: self.chunks_done,
                                what: "footer disagrees with chunks read",
                            },
                        );
                    }
                    self.footer_seen = true;
                    return Ok(false);
                }
                _ => {
                    return self.stop(
                        SalvageReason::DamagedChunk,
                        StoreError::Corrupt {
                            chunk: self.chunks_done,
                            what: "unknown marker byte",
                        },
                    );
                }
            }
        }
    }

    fn stop_io(&mut self, e: io::Error) -> Result<bool, StoreError> {
        let reason = if e.kind() == io::ErrorKind::UnexpectedEof {
            SalvageReason::TruncatedChunk
        } else {
            SalvageReason::DamagedChunk
        };
        self.stop(reason, e.into())
    }

    /// In salvage mode, record the reason and end cleanly; otherwise
    /// surface the error. Either way nothing of the failing chunk is
    /// yielded.
    fn stop(&mut self, reason: SalvageReason, err: StoreError) -> Result<bool, StoreError> {
        self.finished = true;
        self.records.clear();
        if self.salvage {
            self.salvaged = Some(SalvageInfo {
                chunks_kept: self.chunks_done,
                records_kept: self.records_done,
                reason,
            });
            Ok(false)
        } else {
            Err(err)
        }
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<MissRecord, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next == self.records.len() {
            if self.finished || self.footer_seen {
                return None;
            }
            match self.refill() {
                Ok(true) => {}
                Ok(false) => return None,
                Err(e) => {
                    self.finished = true;
                    return Some(Err(e));
                }
            }
        }
        let rec = self.records[self.next];
        self.next += 1;
        self.records_done += 1;
        Some(Ok(rec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma_trace::{Trace, TraceBuilder};
    use ccnuma_types::{Ns, Pid, ProcId, VirtPage};
    use std::io::Cursor;

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
        w.finish().unwrap();
        buf
    }

    #[test]
    fn roundtrip_across_chunk_boundaries() {
        let t = sample(1000);
        let buf = encode(&t, 64);
        let back: Result<Vec<_>, _> = TraceReader::new(buf.as_slice()).unwrap().collect();
        assert_eq!(back.unwrap(), t.as_slice());
    }

    #[test]
    fn v2_is_under_half_of_fixed_24_byte_records() {
        let t = sample(4000);
        let v2 = encode(&t, DEFAULT_CHUNK_RECORDS);
        let fixed = 24 * t.len();
        assert!(
            v2.len() * 2 <= fixed,
            "v2 {} bytes vs {fixed} bytes at 24 per record",
            v2.len()
        );
    }

    #[test]
    fn empty_trace_roundtrips() {
        let buf = encode(&Trace::new(), 16);
        let mut r = TraceReader::new(buf.as_slice()).unwrap();
        assert!(r.next().is_none());
        assert!(r.salvaged().is_none());
    }

    #[test]
    fn index_reads_from_the_end_and_seeks_chunks() {
        let t = sample(300);
        let buf = encode(&t, 100);
        let mut cur = Cursor::new(&buf);
        let index = ChunkIndex::read_from(&mut cur).unwrap();
        assert_eq!(index.chunks.len(), 3);
        assert_eq!(index.total_records, 300);
        let counts: Vec<u64> = index.chunks.iter().map(|c| c.records).collect();
        assert_eq!(counts, [100, 100, 100]);
        assert_index_lands_on_chunks(&buf);
    }

    #[test]
    fn truncated_tail_errors_strictly_and_salvages_leniently() {
        let t = sample(300);
        let full = encode(&t, 100);
        // Cut into the middle of the last chunk (before the footer).
        let mut cur = Cursor::new(&full);
        let index = ChunkIndex::read_from(&mut cur).unwrap();
        let cut = (index.chunks[2].offset + 20) as usize;
        let buf = &full[..cut];

        let strict: Result<Vec<_>, _> = TraceReader::new(buf).unwrap().collect();
        assert!(strict.is_err(), "strict read must surface truncation");

        let mut lenient = TraceReader::with_salvage(buf).unwrap();
        let recovered: Result<Vec<_>, _> = (&mut lenient).collect();
        assert_eq!(recovered.unwrap(), &t.as_slice()[..200]);
        let info = lenient.salvaged().unwrap();
        assert_eq!(info.chunks_kept, 2);
        assert_eq!(info.records_kept, 200);
        assert_eq!(info.reason, SalvageReason::TruncatedChunk);
    }

    #[test]
    fn missing_footer_is_detected() {
        let t = sample(50);
        let full = encode(&t, 100);
        // Drop the whole footer (marker through end magic).
        let mut cur = Cursor::new(&full);
        let index = ChunkIndex::read_from(&mut cur).unwrap();
        let footer_start = (index.chunks[0].offset + 13) as usize + {
            // chunk body length
            u32::from_le_bytes(
                full[(index.chunks[0].offset + 1) as usize..][..4]
                    .try_into()
                    .unwrap(),
            ) as usize
        };
        let buf = &full[..footer_start];
        let strict: Result<Vec<_>, _> = TraceReader::new(buf).unwrap().collect();
        assert!(matches!(strict, Err(StoreError::MissingFooter)));
        let mut lenient = TraceReader::with_salvage(buf).unwrap();
        let recovered: Result<Vec<_>, _> = (&mut lenient).collect();
        assert_eq!(recovered.unwrap().len(), 50, "all chunks were intact");
        assert_eq!(
            lenient.salvaged().unwrap().reason,
            SalvageReason::MissingFooter
        );
    }

    #[test]
    fn foreign_bytes_are_bad_magic() {
        let res = TraceReader::new(&b"not a trace file"[..]);
        assert!(matches!(res, Err(StoreError::BadMagic(_))));
        let res = TraceReader::new(&b"CCNT\x09\x00\x00\x00"[..]);
        assert!(matches!(res, Err(StoreError::BadVersion(9))));
    }

    /// Assembles a v2 file from explicit chunk bodies. Unlike the writer
    /// it can emit empty, uneven or forged chunks; every frame still
    /// carries a valid checksum and the footer indexes every chunk.
    fn assemble(bodies: &[Vec<u8>]) -> Vec<u8> {
        fn frame(out: &mut Vec<u8>, marker: u8, body: &[u8]) {
            out.push(marker);
            out.extend_from_slice(&(body.len() as u32).to_le_bytes());
            out.extend_from_slice(&fnv1a64(body).to_le_bytes());
            out.extend_from_slice(body);
        }
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&VERSION_V2.to_le_bytes());
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
        frame(&mut out, FOOTER_MARKER, &footer);
        out.extend_from_slice(&(footer.len() as u32).to_le_bytes());
        out.extend_from_slice(END_MAGIC);
        out
    }

    fn bodies(chunks: &[&[MissRecord]]) -> Vec<Vec<u8>> {
        chunks.iter().map(|c| encode_chunk_body(c)).collect()
    }

    /// Reads `buf`'s footer index and checks that every entry's offset
    /// lands on a chunk marker and that the entries' record counts sum
    /// to the footer total.
    fn assert_index_lands_on_chunks(buf: &[u8]) -> ChunkIndex {
        let index = ChunkIndex::read_from(&mut Cursor::new(buf)).unwrap();
        for entry in &index.chunks {
            assert_eq!(buf[entry.offset as usize], CHUNK_MARKER, "{entry:?}");
        }
        let sum: u64 = index.chunks.iter().map(|c| c.records).sum();
        assert_eq!(sum, index.total_records);
        index
    }

    fn offsets(buf: &[u8]) -> Vec<usize> {
        let index = ChunkIndex::read_from(&mut Cursor::new(buf)).unwrap();
        index.chunks.iter().map(|c| c.offset as usize).collect()
    }

    /// Every record a reader yields before it stops, and its error. A
    /// stopped reader must stay stopped.
    fn drain(r: &mut TraceReader<&[u8]>) -> (Vec<MissRecord>, Option<StoreError>) {
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
    fn body_capacity(r: &TraceReader<&[u8]>) -> usize {
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

        let mut strict = TraceReader::new(buf.as_slice()).unwrap();
        let (ok, err) = drain(&mut strict);
        assert_eq!(ok, &t.as_slice()[..100]);
        let err = err.expect("strict read must fail");
        assert!(is_eof(&err), "expected a truncated chunk, got {err:?}");
        // The body buffer grew only as far as the bytes present.
        assert!(body_capacity(&strict) <= 2 * buf.len());

        let mut lenient = TraceReader::with_salvage(buf.as_slice()).unwrap();
        let (kept, err) = drain(&mut lenient);
        assert!(err.is_none());
        assert_eq!(kept, &t.as_slice()[..100]);
        assert_eq!(
            lenient.salvaged(),
            Some(SalvageInfo {
                chunks_kept: 1,
                records_kept: 100,
                reason: SalvageReason::TruncatedChunk,
            })
        );
        assert!(body_capacity(&lenient) <= 2 * buf.len());

        // The footer index is intact: it still points at every chunk.
        assert_index_lands_on_chunks(&buf);
    }

    #[test]
    fn flipped_high_bit_in_the_footer_length_is_a_typed_error() {
        let t = sample(300);
        let mut buf = encode(&t, 100);
        let index = ChunkIndex::read_from(&mut Cursor::new(&buf)).unwrap();
        let last = index.chunks[2].offset as usize;
        let last_len = u32::from_le_bytes(buf[last + 1..last + 5].try_into().unwrap()) as usize;
        let footer = last + 13 + last_len;
        assert_eq!(buf[footer], FOOTER_MARKER);
        buf[footer + 4] ^= 0x80;

        let mut strict = TraceReader::new(buf.as_slice()).unwrap();
        let (ok, err) = drain(&mut strict);
        assert_eq!(ok, t.as_slice());
        assert!(is_eof(&err.expect("strict read must fail")));
        assert!(body_capacity(&strict) <= 2 * buf.len());

        let mut lenient = TraceReader::with_salvage(buf.as_slice()).unwrap();
        let (kept, err) = drain(&mut lenient);
        assert!(err.is_none());
        assert_eq!(kept, t.as_slice());
        assert_eq!(lenient.salvaged().unwrap().chunks_kept, 3);
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
        // Nine bytes after the count hold at most four two-byte entries
        // (and the one-byte total).
        for (count, ok) in [(4u64, true), (5, false)] {
            let mut body = Vec::new();
            varint::write_u64(&mut body, count);
            body.extend_from_slice(&[0; 9]);
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

            let (ok, err) = drain(&mut TraceReader::new(buf.as_slice()).unwrap());
            assert_eq!(ok, &r[..400]);
            match err {
                Some(StoreError::ChecksumMismatch { chunk: 2 }) => {}
                other => panic!("expected checksum mismatch in chunk 2, got {other:?}"),
            }

            let mut lenient = TraceReader::with_salvage(buf.as_slice()).unwrap();
            let (kept, err) = drain(&mut lenient);
            assert!(err.is_none());
            assert_eq!(kept, &r[..400]);
            assert_eq!(
                lenient.salvaged(),
                Some(SalvageInfo {
                    chunks_kept: 2,
                    records_kept: 400,
                    reason: SalvageReason::DamagedChunk,
                })
            );
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

        let (ok, err) = drain(&mut TraceReader::new(buf.as_slice()).unwrap());
        assert_eq!(ok, &r[..400]);
        assert!(matches!(err, Some(StoreError::BadFlags(0xf0))), "{err:?}");

        let mut lenient = TraceReader::with_salvage(buf.as_slice()).unwrap();
        let (kept, err) = drain(&mut lenient);
        assert!(err.is_none());
        assert_eq!(kept, &r[..400]);
        assert_eq!(
            lenient.salvaged().unwrap().reason,
            SalvageReason::DamagedChunk
        );
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
            let mut reader = TraceReader::new(buf.as_slice()).unwrap();
            let (back, err) = drain(&mut reader);
            assert!(err.is_none(), "{err:?}");
            assert_eq!(back, r);
            assert_eq!(reader.records_read(), 700);
            assert!(reader.salvaged().is_none());
            let index = assert_index_lands_on_chunks(&buf);
            let counts: Vec<u64> = index.chunks.iter().map(|c| c.records).collect();
            let lens: Vec<u64> = layout.iter().map(|c| c.len() as u64).collect();
            assert_eq!(counts, lens);
        }
        let buf = assemble(&bodies(&[&r[..0]]));
        let (back, err) = drain(&mut TraceReader::new(buf.as_slice()).unwrap());
        assert!(back.is_empty() && err.is_none());
    }
}
