//! A memory-bounded LRU of decoded vector slices, keyed `(block, from, to)`.
//!
//! Nothing in the engine uses it: scans decode each vector slice straight
//! into the batch they return, because on vwbench's `scan` workload a miss
//! here (decode, deep copy, `Arc`, O(entries) victim scan under a mutex)
//! cost 37 times the decode it saved and a hit still copied the slice.
//! What remains — [`DecodeCache::new`], [`get`](DecodeCache::get),
//! [`insert`](DecodeCache::insert), [`stats`](DecodeCache::stats) — is the
//! surface vwbench's standalone `bufman.decode_cache.{hit,insert}_us` rungs
//! link; retire the module with the `bufman.decode_cache.*` rungs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use vw_common::BlockId;
use vw_storage::NullableColumn;

/// Key: one decoded vector slice of one block.
pub type SliceKey = (BlockId, u32, u32);

struct Slot {
    col: Arc<NullableColumn>,
    bytes: usize,
    last_use: u64,
}

struct Inner {
    map: HashMap<SliceKey, Slot>,
    bytes: usize,
    clock: u64,
}

/// Cumulative counters of a [`DecodeCache`]; snapshot with
/// [`DecodeCache::stats`]. `QueryProfile::decode` has this type too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SliceCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Currently resident decoded bytes (a gauge, not a counter).
    pub resident_bytes: u64,
}

/// A shared, memory-bounded cache of decoded vector slices.
pub struct DecodeCache {
    inner: Mutex<Inner>,
    capacity_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl DecodeCache {
    pub fn new(capacity_bytes: usize) -> Self {
        DecodeCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                bytes: 0,
                clock: 0,
            }),
            capacity_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn evict_past_capacity(&self, inner: &mut Inner, capacity: usize) {
        while inner.bytes > capacity {
            // O(n) victim scan; the cache holds at most a few thousand
            // vector slices, and eviction only runs once the pool is full.
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, s)| s.last_use)
                .map(|(k, _)| *k)
                .expect("bytes > 0 implies non-empty");
            let slot = inner.map.remove(&victim).unwrap();
            inner.bytes -= slot.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Look up a decoded slice, refreshing its recency on hit.
    pub fn get(&self, key: &SliceKey) -> Option<Arc<NullableColumn>> {
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.get_mut(key) {
            Some(slot) => {
                slot.last_use = clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&slot.col))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a freshly decoded slice, evicting LRU entries past capacity.
    /// Slices larger than the whole capacity are not cached.
    pub fn insert(&self, key: SliceKey, col: Arc<NullableColumn>) {
        let bytes = slice_bytes(&col);
        let capacity = self.capacity_bytes;
        if bytes > capacity {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(old) = inner.map.insert(
            key,
            Slot {
                col,
                bytes,
                last_use: clock,
            },
        ) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        self.evict_past_capacity(&mut inner, capacity);
    }

    pub fn stats(&self) -> SliceCacheStats {
        let resident = self.inner.lock().unwrap().bytes as u64;
        SliceCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: resident,
        }
    }
}

fn slice_bytes(col: &NullableColumn) -> usize {
    col.data.uncompressed_bytes() + col.nulls.as_ref().map_or(0, |b| b.len().div_ceil(8))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_storage::ColumnData;

    fn col(vals: Vec<i64>) -> Arc<NullableColumn> {
        Arc::new(NullableColumn::not_null(ColumnData::I64(vals)))
    }

    fn key(b: u64, from: u32) -> SliceKey {
        (BlockId::new(b), from, from + 4)
    }

    #[test]
    fn hit_miss_and_stats() {
        let cache = DecodeCache::new(1 << 20);
        assert!(cache.get(&key(1, 0)).is_none());
        cache.insert(key(1, 0), col(vec![1, 2, 3, 4]));
        let hit = cache.get(&key(1, 0)).unwrap();
        assert_eq!(hit.len(), 4);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.resident_bytes, 32);
    }

    #[test]
    fn evicts_least_recently_used() {
        // Capacity fits exactly two 32-byte slices.
        let cache = DecodeCache::new(64);
        cache.insert(key(1, 0), col(vec![1, 2, 3, 4]));
        cache.insert(key(2, 0), col(vec![5, 6, 7, 8]));
        cache.get(&key(1, 0)).unwrap(); // refresh 1 → victim is 2
        cache.insert(key(3, 0), col(vec![9, 9, 9, 9]));
        assert!(cache.get(&key(1, 0)).is_some());
        assert!(cache.get(&key(2, 0)).is_none());
        assert!(cache.get(&key(3, 0)).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().resident_bytes, 64);
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let cache = DecodeCache::new(16);
        cache.insert(key(1, 0), col(vec![0; 100]));
        assert!(cache.get(&key(1, 0)).is_none());
        assert_eq!(cache.stats().resident_bytes, 0);
    }

    #[test]
    fn reinsert_same_key_replaces() {
        let cache = DecodeCache::new(1 << 10);
        cache.insert(key(1, 0), col(vec![1, 2, 3, 4]));
        cache.insert(key(1, 0), col(vec![4, 3, 2, 1]));
        assert_eq!(cache.stats().resident_bytes, 32);
        match &cache.get(&key(1, 0)).unwrap().data {
            ColumnData::I64(v) => assert_eq!(v[0], 4),
            _ => panic!(),
        }
    }

    #[test]
    fn concurrent_access() {
        let cache = Arc::new(DecodeCache::new(1 << 16));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let k = key(1 + i % 8, (t * 4) as u32);
                    if c.get(&k).is_none() {
                        c.insert(k, col(vec![i as i64; 4]));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = cache.stats();
        assert!(s.hits + s.misses >= 800);
    }
}
