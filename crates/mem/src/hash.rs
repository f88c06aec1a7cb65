//! The one hasher behind the crate's `u64`-keyed maps.
//!
//! Guest page numbers and the keys of [`crate::Lru`] (TLB page numbers,
//! ADT line addresses) are produced by the simulator itself, never read
//! from outside input, so they need no protection against crafted
//! collisions, and one multiply can stand in for std's SipHash.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by simulator-generated `u64`s.
pub(crate) type U64Map<V> = HashMap<u64, V, BuildHasherDefault<U64Hasher>>;

/// Odd multiplier with well-spread bits (the one `rustc-hash` uses).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiplicative hasher for one `u64` key.
///
/// The product's well-mixed high bits are rotated down into the low bits
/// the table indexes by, so aligned keys (low bits all zero, like line or
/// ADT addresses) still spread across buckets.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct U64Hasher(u64);

impl Hasher for U64Hasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(K);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(n: u64) -> u64 {
        BuildHasherDefault::<U64Hasher>::default().hash_one(n)
    }

    #[test]
    fn aligned_keys_spread_over_low_bits() {
        // 64-byte-aligned keys: a bare multiply would leave the low six
        // bits of every hash zero and pile them into 1/64 of the buckets.
        let mut buckets = [0u32; 64];
        for i in 0..4096u64 {
            buckets[(hash(i * 64) & 63) as usize] += 1;
        }
        assert!(buckets.iter().all(|&n| n > 0), "{buckets:?}");
    }
}
