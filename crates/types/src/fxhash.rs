//! A cheap, deterministic hasher for hot-path maps.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3 behind a
//! per-process random seed — HashDoS-resistant, but an order of
//! magnitude more expensive than the simulator's keys warrant, and
//! randomly seeded (so iteration order varies between processes, which
//! this deterministic simulator must never depend on anyway). The keys
//! hashed on the per-reference path — [`VirtPage`](crate::VirtPage),
//! `(VirtPage, u16)` cache-line pairs — are small integers produced by
//! the workload generators, not attacker-controlled input, so the
//! simulator uses the FxHash function (the rustc hasher: a rotate, an
//! xor and a multiply per word) with a fixed zero seed.
//!
//! # Examples
//!
//! ```
//! use ccnuma_types::{FxHashMap, VirtPage};
//!
//! let mut holders: FxHashMap<(VirtPage, u16), u64> = FxHashMap::default();
//! holders.insert((VirtPage(3), 1), 0b10);
//! assert_eq!(holders[&(VirtPage(3), 1)], 0b10);
//! ```

use core::hash::{BuildHasherDefault, Hasher};
use std::collections::HashMap;

/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Builds [`FxHasher`]s from a fixed (zero) seed — every map built with
/// it hashes identically in every process, keeping runs reproducible.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The FxHash word mixer used by rustc: for each input word,
/// `hash = (hash.rotate_left(5) ^ word) * K` with a golden-ratio-derived
/// odd constant. Not DoS-resistant; use only for trusted keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

/// 2^64 / φ, forced odd — the multiplicative constant of FxHash.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VirtPage;
    use core::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        let k = (VirtPage(0xdead_beef), 7u16);
        assert_eq!(hash_of(&k), hash_of(&k));
        assert_eq!(
            FxBuildHasher::default().hash_one(k),
            FxBuildHasher::default().hash_one(k),
        );
    }

    #[test]
    fn distinct_keys_hash_apart() {
        // Not a collision-resistance claim — just a sanity check that
        // the mixer uses all of its input.
        assert_ne!(hash_of(&VirtPage(1)), hash_of(&VirtPage(2)));
        assert_ne!(hash_of(&(VirtPage(1), 0u16)), hash_of(&(VirtPage(1), 1u16)));
        assert_ne!(hash_of(&0u64), hash_of(&(1u64 << 63)));
    }

    #[test]
    fn byte_stream_equivalent_to_word_writes() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut b = FxHasher::default();
        b.write_u64(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
        assert_eq!(a.finish(), b.finish());
        // A short tail is zero-padded, not dropped.
        let mut c = FxHasher::default();
        c.write(&[9, 9]);
        assert_ne!(c.finish(), FxHasher::default().finish());
    }

    #[test]
    fn map_alias_works() {
        let mut m: FxHashMap<VirtPage, u32> = FxHashMap::default();
        m.insert(VirtPage(1), 10);
        m.insert(VirtPage(2), 20);
        assert_eq!(m.get(&VirtPage(1)), Some(&10));
    }
}
