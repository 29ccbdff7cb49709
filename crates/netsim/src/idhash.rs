//! One fixed hasher for maps keyed by ids the program itself minted.
//!
//! Node ids, zone ids, group numbers, sequence numbers and [`TimerId`]s
//! are dense integers the simulator hands out; no input from outside the
//! program ever chooses one.  SipHash's protection against crafted
//! collisions therefore buys nothing on those maps, while its cost is paid
//! per simulated event, and `RandomState`'s per-map random keys make
//! iteration order differ from run to run — which leaks into results the
//! moment a fold over `values()` is not associative (`LossReport::merge`).
//! [`IdHashMap`] and [`IdHashSet`] fix both: one multiply per integer
//! written, no per-map state, and an iteration order that is a pure
//! function of the map's own insertion history.
//!
//! Anything keyed by data that arrives from outside the program keeps the
//! standard library's default hasher.
//!
//! [`TimerId`]: crate::agent::TimerId

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 2⁶⁴ / φ, odd: multiplying by it spreads consecutive integers evenly
/// over the high bits (Fibonacci hashing).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-and-fold hasher for small integer keys.
///
/// The standard table indexes buckets by the *low* bits of the hash and
/// tags entries with its *top seven*.  A bare 64-bit multiply leaves the
/// low bits a function of the key's low bits alone — ids of stride 1024,
/// or [`TimerId`](crate::agent::TimerId)s whose node sits in bits 40 and
/// up while sequence numbers repeat across nodes, would pile into a
/// handful of buckets — so each integer is multiplied out to 128 bits and
/// the high half, which every bit of the key reaches, is folded down onto
/// the low half.  One `mul` and one `xor` per key.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let wide = u128::from(self.0 ^ x) * u128::from(K);
        self.0 = (wide as u64) ^ ((wide >> 64) as u64);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// Fallback for keys that are not plain integers; none is on the event
    /// path.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

/// `BuildHasher` for [`IdHasher`]: zero-sized, so a map carries no keys of
/// its own.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` keyed by a program-minted id.
pub type IdHashMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// A `HashSet` of program-minted ids.
pub type IdHashSet<K> = HashSet<K, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::TimerId;
    use crate::graph::NodeId;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(key: T) -> u64 {
        IdBuildHasher::default().hash_one(key)
    }

    /// Distinct values of the two fields the standard table reads: the low
    /// 12 bits (bucket index of a 4096-slot table) and the top 7 (the tag).
    fn coverage(hashes: impl Iterator<Item = u64>) -> (usize, usize) {
        let mut low = [false; 4096];
        let mut top = [false; 128];
        for h in hashes {
            low[(h & 0xFFF) as usize] = true;
            top[(h >> 57) as usize] = true;
        }
        let count = |seen: &[bool]| seen.iter().filter(|&&s| s).count();
        (count(&low), count(&top))
    }

    fn assert_spread(family: &str, hashes: impl Iterator<Item = u64>) {
        let (low, top) = coverage(hashes);
        assert!(low >= 3900, "{family}: only {low}/4096 bucket indices");
        assert_eq!(top, 128, "{family}: only {top}/128 tags");
    }

    #[test]
    fn sequential_ids_spread_over_buckets_and_tags() {
        assert_spread("sequential", (0..100_000u32).map(|i| hash_of(NodeId(i))));
    }

    #[test]
    fn strided_ids_spread_over_buckets_and_tags() {
        assert_spread("stride 1024", (0..100_000u32).map(|i| hash_of(i * 1024)));
    }

    #[test]
    fn engine_shaped_timer_ids_spread_over_buckets_and_tags() {
        // 1000 nodes x 100 sequence numbers: the node lives in bits 40+,
        // the sequence numbers repeat across nodes.
        let ids =
            (0..1000u32).flat_map(|n| (0..100u64).map(move |s| TimerId::encode(NodeId(n), s)));
        assert_spread("timer ids", ids.map(hash_of));
    }

    #[test]
    fn a_bare_multiply_would_not_pass() {
        // The reason for the fold: without it the strided family reaches 4
        // bucket indices and the timer ids 100.
        let bare = |x: u64| x.wrapping_mul(K);
        let (low, _) = coverage((0..100_000u64).map(|i| bare(i * 1024)));
        assert_eq!(low, 4);
        let ids = (0..1000u64).flat_map(|n| (0..100u64).map(move |s| ((n + 1) << 40) | s));
        let (low, _) = coverage(ids.map(bare));
        assert_eq!(low, 100);
    }

    #[test]
    fn derived_hash_and_raw_integer_agree() {
        // `#[derive(Hash)]` on a newtype forwards to the integer's own
        // `write_*`, so a `NodeId` and its `u32` land in the same bucket.
        assert_eq!(hash_of(NodeId(77)), hash_of(77u32));
        assert_eq!(hash_of(TimerId(1 << 41 | 9)), hash_of(1u64 << 41 | 9));
    }

    #[test]
    fn byte_keys_still_hash_distinctly() {
        let h: std::collections::HashSet<u64> = ["", "a", "b", "ab", "abcdefgh", "abcdefghi"]
            .map(hash_of)
            .into_iter()
            .collect();
        assert_eq!(h.len(), 6);
    }

    #[test]
    fn iteration_order_is_a_function_of_insertion_history() {
        let fill = || {
            let mut m: IdHashMap<NodeId, u32> = IdHashMap::default();
            for i in 0..500u32 {
                m.insert(NodeId(i * 7 % 501), i);
            }
            for i in 0..100u32 {
                m.remove(&NodeId(i * 3));
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(fill(), fill());
    }
}
