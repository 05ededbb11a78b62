//! Fast non-cryptographic hashing for join and aggregation hash tables.
//!
//! Hash joins and hash aggregation hash millions of keys per query; SipHash
//! (std's default) would dominate their profile. We use an FxHash-style
//! multiply-rotate word hasher plus a finalizer, hand-rolled to avoid a
//! dependency. HashDoS is not a concern for an embedded analytical engine
//! processing its own storage.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Hash a single 64-bit key (the common case: integer join keys).
#[inline]
pub fn hash_u64(v: u64) -> u64 {
    // xorshift-multiply finalizer (splitmix64 style) — good avalanche,
    // 3 multiplies worth of latency, no table lookups.
    let mut x = v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Combine an existing hash with another word (multi-column keys).
#[inline]
pub fn hash_combine(h: u64, v: u64) -> u64 {
    hash_u64(h ^ v.wrapping_mul(SEED))
}

/// Hash a byte slice (string keys). FNV-1a over 8-byte chunks with a
/// splitmix finalizer; fast enough for our workloads and allocation-free.
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().unwrap());
        h = (h ^ w).wrapping_mul(0x100_0000_01b3);
    }
    let mut tail: u64 = 0;
    for (i, &b) in chunks.remainder().iter().enumerate() {
        tail |= (b as u64) << (8 * i);
    }
    h = (h ^ tail).wrapping_mul(0x100_0000_01b3);
    hash_u64(h ^ bytes.len() as u64)
}

/// Key word every NULL hashes as, so NULL group keys collide into one group.
pub const NULL_KEY_WORD: u64 = 0x6e75_6c6c;

/// Fold one key column of a whole vector into the hash lane array `out`:
/// `out[j]` belongs to row `sel[j]` (row `j` without a selection) and
/// `word(row)` is that row's key as a 64-bit word. The first key column seeds
/// the lanes with [`hash_u64`]; further columns mix in with [`hash_combine`].
/// The caller matches the column type once and passes a monomorphic `word`,
/// so nothing is dispatched per row.
#[inline]
pub fn hash_lanes(sel: Option<&[u32]>, out: &mut [u64], first: bool, word: impl Fn(usize) -> u64) {
    match (sel, first) {
        (None, true) => out
            .iter_mut()
            .enumerate()
            .for_each(|(i, h)| *h = hash_u64(word(i))),
        (None, false) => out
            .iter_mut()
            .enumerate()
            .for_each(|(i, h)| *h = hash_combine(*h, word(i))),
        (Some(s), true) => out
            .iter_mut()
            .zip(s)
            .for_each(|(h, &i)| *h = hash_u64(word(i as usize))),
        (Some(s), false) => out
            .iter_mut()
            .zip(s)
            .for_each(|(h, &i)| *h = hash_combine(*h, word(i as usize))),
    }
}

/// An `std::hash::Hasher` wrapper so std collections can use our function.
#[derive(Default)]
pub struct FxLikeHasher {
    state: u64,
}

impl Hasher for FxLikeHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.state = hash_combine(self.state, hash_bytes(bytes));
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.state = hash_combine(self.state, v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.state = hash_combine(self.state, v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = hash_combine(self.state, v);
    }

    #[inline]
    fn write_i32(&mut self, v: i32) {
        self.write_u32(v as u32);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// BuildHasher for `HashMap`/`HashSet` with our fast hasher.
pub type FxBuildHasher = BuildHasherDefault<FxLikeHasher>;

/// A `HashMap` keyed with the fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the fast hasher.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_u64_avalanches() {
        // Flipping one input bit should flip ~half the output bits on average.
        let mut total = 0u32;
        let trials = 64 * 16;
        for i in 0..16u64 {
            let x = i.wrapping_mul(0x1234_5678_9abc_def1);
            let base = hash_u64(x);
            for bit in 0..64 {
                let flipped = hash_u64(x ^ (1 << bit));
                total += (base ^ flipped).count_ones();
            }
        }
        let avg = total as f64 / trials as f64;
        assert!((24.0..40.0).contains(&avg), "poor avalanche: {}", avg);
    }

    #[test]
    fn sequential_keys_spread() {
        // Low bits of hashes of sequential keys must not collide heavily —
        // this is what the open-addressing tables rely on.
        let mask = 1024 - 1;
        let mut buckets = vec![0u32; 1024];
        for i in 0..8192u64 {
            buckets[(hash_u64(i) & mask) as usize] += 1;
        }
        let max = *buckets.iter().max().unwrap();
        assert!(max <= 24, "bucket skew too high: {}", max);
    }

    #[test]
    fn bytes_hash_distinguishes() {
        assert_ne!(hash_bytes(b"hello"), hash_bytes(b"hellp"));
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
        assert_ne!(hash_bytes(b"abc"), hash_bytes(b"abc\0"));
        assert_eq!(hash_bytes(b"vectorwise"), hash_bytes(b"vectorwise"));
        // longer than 8 bytes exercises the chunked path
        assert_ne!(
            hash_bytes(b"0123456789abcdef"),
            hash_bytes(b"0123456789abcdeg")
        );
    }

    #[test]
    fn std_collections_work_with_fx() {
        let mut m: FxHashMap<String, i32> = FxHashMap::default();
        m.insert("a".into(), 1);
        m.insert("b".into(), 2);
        assert_eq!(m["a"], 1);
        let mut s: FxHashSet<u64> = FxHashSet::default();
        for i in 0..1000 {
            s.insert(i);
        }
        assert_eq!(s.len(), 1000);
    }

    #[test]
    fn combine_order_matters() {
        assert_ne!(hash_combine(hash_u64(1), 2), hash_combine(hash_u64(2), 1));
    }
}
