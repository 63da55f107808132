//! A fast hasher for ids the simulator hands out itself.
//!
//! `std`'s default `RandomState` runs SipHash-1-3 with per-process
//! random keys, which defends a map against keys an attacker chose to
//! collide. Domain ids, ports, grant references, task ids, transaction
//! ids and interned path symbols are allocated by the simulator, so no
//! guest can choose them, and every control-plane operation probes
//! several such tables. [`IdHasher`] hashes them one word at a time
//! with an Fx-style add-multiply. Keys that come from outside
//! the program (guest-written path strings, digests of guest-written
//! values, image names) stay on `RandomState`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier, with [`ROTATE`] picked by a search over 60 000
/// random odd constants and every rotation: one of two pairs that keep
/// 4096 ids at strides 1, 2^12 and 2^16, alone or paired with a domain
/// id, on at least 3 000 of 4096 low-bit buckets (a uniformly random
/// hash fills about 2 590). At every stride from 1 to 2^20 it still
/// fills at least 1 860; rustc-hash's multiplier drops to 1 288 and
/// the golden ratio's to 1 755 under their best rotations.
const K: u64 = 0x4690_84bf_b28d_280f;
/// Left rotation `finish` applies to the product.
const ROTATE: u32 = 23;

/// Word-at-a-time multiply-rotate hasher for simulator-assigned ids.
///
/// Each word is added and the sum multiplied by `K`. `finish` rotates
/// the product's high bits down: hashbrown picks a bucket from the low
/// bits, and the low bits of `id * K` depend only on the low bits of
/// `id`, so without the rotation ids in a stride of 2^k would share
/// their low k bits and pile into one bucket.
#[derive(Clone, Copy, Default, Debug)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(ROTATE)
    }
}

/// A `HashMap` hashed with [`IdHasher`].
///
/// Only for keys the simulator assigns (domain ids, ports, grant
/// references, task and transaction ids, interned symbols). A key that
/// a guest or any other outside input can choose must use `HashMap`'s
/// default `RandomState`, which resists deliberate collisions.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;
    use std::collections::{BTreeMap, HashSet};
    use std::hash::{BuildHasher, Hash};

    /// Distinct values of the low 12 bits of the finished hash: the
    /// bucket index of a 4096-bucket hashbrown table.
    fn low_bucket_spread<T: Hash>(keys: impl Iterator<Item = T>) -> usize {
        let build = BuildHasherDefault::<IdHasher>::default();
        keys.map(|k| build.hash_one(k) & 0xfff)
            .collect::<HashSet<_>>()
            .len()
    }

    #[test]
    fn strided_ids_spread_over_low_bits() {
        for shift in [0u32, 12, 16] {
            let spread = low_bucket_spread((0..4096u32).map(|i| i << shift));
            assert!(spread >= 3000, "stride 2^{shift}: {spread} of 4096 buckets");
        }
    }

    #[test]
    fn strided_tuple_keys_spread_over_low_bits() {
        for shift in [0u32, 12, 16] {
            // (DomId, port)-shaped: 8 domains with 512 strided ports
            // each, then strided domains with one port each.
            let spread = low_bucket_spread((0..4096u32).map(|i| (i & 7, (i >> 3) << shift)));
            assert!(
                spread >= 3000,
                "port stride 2^{shift}: {spread} of 4096 buckets"
            );
            let spread = low_bucket_spread((0..4096u32).map(|i| (i << shift, 1u32)));
            assert!(
                spread >= 3000,
                "domain stride 2^{shift}: {spread} of 4096 buckets"
            );
        }
    }

    #[test]
    fn id_map_matches_btree_map() {
        let mut rng = SimRng::new(0x1d_4a9);
        let mut ids: IdMap<(u32, u32), u64> = IdMap::default();
        let mut reference: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        for step in 0..20_000u64 {
            let key = (rng.index(8) as u32, rng.index(64) as u32 * 4096);
            match rng.index(10) {
                0..=3 => assert_eq!(ids.insert(key, step), reference.insert(key, step)),
                4..=6 => assert_eq!(ids.get(&key), reference.get(&key)),
                7..=8 => assert_eq!(ids.remove(&key), reference.remove(&key)),
                _ => {
                    let dom = rng.index(8) as u32;
                    ids.retain(|&(d, _), _| d != dom);
                    reference.retain(|&(d, _), _| d != dom);
                }
            }
            assert_eq!(ids.len(), reference.len());
        }
        let mut all: Vec<_> = ids.into_iter().collect();
        all.sort_unstable();
        assert_eq!(all, reference.into_iter().collect::<Vec<_>>());
    }
}
