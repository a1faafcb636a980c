//! A multiply-rotate hasher for the region containers' maps.
//!
//! The keys ([`crate::SpaceId`], [`crate::Region`]) are internal coordinates the runtime assigns,
//! never attacker-controlled, so the DoS resistance of the standard library's SipHash buys
//! nothing here — while its cost lands on every bottom-map update and fragment operation. This
//! is the FxHash word step (rotate, xor, multiply by a large odd constant) over the key's `u64`
//! words, finished with a rotation that moves the well-mixed high bits down to where `HashMap`
//! takes its bucket index.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed through [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

const MULTIPLIER: u64 = 0x517c_c1b7_2722_0a95;

/// See the module docs.
#[derive(Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add_word(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_word(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Region, SpaceId};
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(value: &impl Hash) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(value)
    }

    /// Block-aligned regions (low coordinate bits all zero) must still spread over the low bits
    /// `HashMap` indexes buckets with.
    #[test]
    fn aligned_regions_spread_over_low_bits() {
        let buckets: HashSet<u64> = (0..1024usize)
            .map(|i| hash_of(&Region::new(SpaceId(1), i * 8192, (i + 1) * 8192)) & 1023)
            .collect();
        assert!(
            buckets.len() > 512,
            "only {} of 1024 low-bit buckets used",
            buckets.len()
        );
        assert_ne!(hash_of(&SpaceId(1)), hash_of(&SpaceId(2)));
    }
}
