//! LEB128 varints and zigzag signed mapping — the primitive codec under
//! the trace chunk format.
//!
//! Timestamps in a trace are monotone and pages exhibit locality, so
//! successive records differ by small amounts; zigzag folds those small
//! signed deltas onto small unsigned values and LEB128 stores them in
//! one or two bytes instead of eight.

/// Appends `v` to `out` as an LEB128 varint (1–10 bytes).
///
/// # Examples
///
/// ```
/// use ccnuma_tracestore::varint::write_u64;
///
/// let mut buf = Vec::new();
/// write_u64(&mut buf, 0);
/// write_u64(&mut buf, 300);
/// assert_eq!(buf, [0x00, 0xac, 0x02]);
/// ```
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint from `bytes` at `*pos`, advancing `*pos`.
/// Returns `None` on buffer overrun or a malformed encoding (more than
/// ten bytes, or bits beyond the 64th).
///
/// # Examples
///
/// ```
/// use ccnuma_tracestore::varint::{read_u64, write_u64};
///
/// let mut buf = Vec::new();
/// write_u64(&mut buf, u64::MAX);
/// let mut pos = 0;
/// assert_eq!(read_u64(&buf, &mut pos), Some(u64::MAX));
/// assert_eq!(pos, 10);
/// assert_eq!(read_u64(&buf, &mut pos), None, "overrun");
/// ```
#[inline]
pub fn read_u64(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    // Fast path: most deltas in a trace fit in one byte.
    let first = *bytes.get(*pos)?;
    if first & 0x80 == 0 {
        *pos += 1;
        return Some(u64::from(first));
    }
    read_u64_multibyte(bytes, pos)
}

/// [`read_u64`] for an encoding of two or more bytes.
fn read_u64_multibyte(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        let low = (byte & 0x7f) as u64;
        // The tenth byte carries the top single bit; anything above it
        // would overflow u64.
        if shift == 63 && low > 1 {
            return None;
        }
        v |= low << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

/// The value of an LEB128 encoding of one to four bytes held
/// little-endian in `bytes` (higher bytes zero), continuation bits
/// included: the 7-bit groups are packed together without a branch.
#[inline]
pub(crate) fn compact_u32(bytes: u64) -> u64 {
    let x = bytes & 0x7f7f_7f7f;
    let x = (x & 0x007f_007f) | ((x & 0x7f00_7f00) >> 1);
    (x & 0x3fff) | ((x & 0x3fff_0000) >> 2)
}

/// Maps a signed value onto an unsigned one with small magnitudes first:
/// 0, -1, 1, -2, 2, ...
///
/// # Examples
///
/// ```
/// use ccnuma_tracestore::varint::zigzag;
///
/// assert_eq!(zigzag(0), 0);
/// assert_eq!(zigzag(-1), 1);
/// assert_eq!(zigzag(1), 2);
/// ```
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
///
/// # Examples
///
/// ```
/// use ccnuma_tracestore::varint::{unzigzag, zigzag};
///
/// for v in [0i64, 1, -1, i64::MAX, i64::MIN] {
///     assert_eq!(unzigzag(zigzag(v)), v);
/// }
/// ```
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `v` encoded alone, and followed by nine more bytes: a value must
    /// read the same, and consume only its own bytes, either way.
    fn encodings(v: u64) -> [(Vec<u8>, usize); 2] {
        let mut alone = Vec::new();
        write_u64(&mut alone, v);
        let len = alone.len();
        let mut padded = alone.clone();
        padded.extend_from_slice(&[0xff; 9]);
        [(alone, len), (padded, len)]
    }

    #[test]
    fn roundtrips_boundary_values() {
        let boundaries = [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            (1 << 56) - 1,
            1 << 56,
            1 << 63,
            u64::MAX - 1,
            u64::MAX,
        ];
        for v in boundaries {
            for (bytes, len) in encodings(v) {
                let mut pos = 0;
                assert_eq!(read_u64(&bytes, &mut pos), Some(v));
                assert_eq!(pos, len, "{v} consumed its own bytes only");
            }
        }
    }

    #[test]
    fn small_values_are_one_byte() {
        for v in 0u64..128 {
            for (bytes, len) in encodings(v) {
                assert_eq!(len, 1);
                let mut pos = 0;
                assert_eq!(read_u64(&bytes, &mut pos), Some(v));
                assert_eq!(pos, 1);
            }
        }
    }

    #[test]
    fn rejects_overlong_encoding() {
        // 11 continuation bytes never terminate within the 10-byte cap.
        let overlong = [0xffu8; 11];
        // A tenth byte with payload beyond bit 64 is also malformed.
        let mut overflow = vec![0x80u8; 9];
        overflow.push(0x02);
        for bad in [overlong.to_vec(), overflow] {
            for tail in [&[][..], &[0x00; 8]] {
                let bytes = [bad.as_slice(), tail].concat();
                let mut pos = 0;
                assert_eq!(read_u64(&bytes, &mut pos), None, "{bytes:02x?}");
            }
        }
    }

    #[test]
    fn truncated_input_is_none_not_panic() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 1u64 << 40);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert_eq!(read_u64(&buf[..cut], &mut pos), None);
        }
    }

    #[test]
    fn compact_packs_one_to_four_byte_encodings() {
        for v in [0u64, 1, 127, 128, 300, 16383, 16384, (1 << 28) - 1] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            assert!(buf.len() <= 4);
            let mut word = [0u8; 8];
            word[..buf.len()].copy_from_slice(&buf);
            assert_eq!(compact_u32(u64::from_le_bytes(word)), v);
        }
    }
}
