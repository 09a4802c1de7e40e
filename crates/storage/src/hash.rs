//! The one non-SipHash hasher of the workspace, for hash tables that only
//! ever hold the engine's own values.
//!
//! Bulk builds and statistics hash every cell of a table (a column
//! builder's value → code map, a row-store distinct count); SipHash's
//! per-call setup dominates those loops. Keys here never come from an
//! adversary choosing collisions, so a multiply-fold mix is enough: each
//! written word is XORed into the state and folded through one 64×64→128
//! multiply (high half XOR low half), which spreads every input bit over
//! the whole hash — hashbrown takes the bucket from the low bits and the
//! control byte from the high ones, and doubles such as `1.0, 2.0, 3.0`
//! differ only in their high bits. Primary-key maps keep the standard
//! hasher.

use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier of the fold (the 64-bit golden-ratio constant).
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// A multiply-fold hasher; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let m = u128::from(self.0 ^ word) * u128::from(MULTIPLIER);
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
        self.mix(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `BuildHasher` for [`FastHasher`]: `HashMap<K, V, FastState>`.
pub type FastState = BuildHasherDefault<FastHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use hsd_types::Value;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(v: &Value) -> u64 {
        FastState::default().hash_one(v)
    }

    #[test]
    fn equal_values_hash_equal_and_neighbours_differ() {
        assert_eq!(hash_of(&Value::text("abc")), hash_of(&Value::text("abc")));
        assert_ne!(hash_of(&Value::Int(1)), hash_of(&Value::BigInt(1)));
        assert_ne!(hash_of(&Value::Double(0.0)), hash_of(&Value::Double(-0.0)));
        assert_ne!(hash_of(&Value::text("ab")), hash_of(&Value::text("ab\0")));
    }

    #[test]
    fn high_bit_keys_spread_over_low_bits() {
        // Integral doubles differ only in their top bits; the fold must
        // still spread them over the bucket bits.
        let buckets: HashSet<u64> = (0..1024)
            .map(|i| hash_of(&Value::Double(f64::from(i))) & 1023)
            .collect();
        assert!(buckets.len() > 512, "{} buckets used", buckets.len());
        let mut h = FastHasher::default();
        7u64.hash(&mut h);
        assert_ne!(h.finish(), 7);
    }
}
