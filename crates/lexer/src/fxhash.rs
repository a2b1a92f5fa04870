//! A dependency-free FxHash-style hasher for hash maps whose keys are
//! small integers or short tuples.
//!
//! `std`'s default SipHash is DoS-resistant but costs tens of cycles per
//! key; the maps inside the two subset constructions (the scanner DFA's
//! NFA-set interning here, and `llstar-core`'s configuration-set and
//! call-stack interning, which re-exports this module as
//! `llstar_core::fxhash`) hash trusted, internally-generated keys
//! millions of times per grammar, so the multiply-rotate scheme
//! rustc itself uses for exactly this workload is the right trade. The
//! hasher is deterministic (no random seed), which also removes a source
//! of run-to-run variance from the analysis hot path.
//!
//! Only lookups and inserts may go through these maps on paths that
//! produce output: iteration order is unspecified (as with any
//! `HashMap`), so code whose byte output depends on ordering must sort,
//! exactly as before.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The Fowler-style multiply-rotate constant FxHash uses (the golden
/// ratio in 64-bit fixed point).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, deterministic, non-cryptographic hasher (rustc's FxHash
/// scheme: rotate, xor, multiply per word).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let mut word = [0u8; 8];
            word.copy_from_slice(&bytes[..8]);
            self.add_to_hash(u64::from_le_bytes(word));
            bytes = &bytes[8..];
        }
        if !bytes.is_empty() {
            let mut word = [0u8; 8];
            word[..bytes.len()].copy_from_slice(bytes);
            self.add_to_hash(u64::from_le_bytes(word) ^ bytes.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed through [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let hash = |bytes: &[u8]| {
            let mut h = FxHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b"decision"), hash(b"decision"));
        assert_ne!(hash(b"decision"), hash(b"decisioN"));
        assert_ne!(hash(b""), hash(b"\0"), "length participates in the tail word");
    }

    #[test]
    fn integer_writes_differ_from_zero_state() {
        let mut a = FxHasher::default();
        a.write_u64(7);
        let mut b = FxHasher::default();
        b.write_u64(8);
        assert_ne!(a.finish(), b.finish());
        assert_eq!(FxHasher::default().finish(), 0, "empty hasher is the zero state");
    }

    #[test]
    fn map_and_set_round_trip() {
        let mut m: FxHashMap<(usize, u32), usize> = FxHashMap::default();
        for i in 0..1000usize {
            m.insert((i, (i * 3) as u32), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(41, 123)), Some(&41));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.insert(9);
        assert!(s.contains(&9) && !s.contains(&10));
    }
}
