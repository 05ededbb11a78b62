//! Capacity-bounded LRU buffer pool — the baseline policy Cooperative Scans
//! is compared against (experiment E6).

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use vw_common::{BlockId, Result};
use vw_storage::SimDisk;

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

struct Slot {
    data: Arc<Vec<u8>>,
    last_use: u64,
}

struct LruInner {
    slots: HashMap<BlockId, Slot>,
    bytes: usize,
    clock: u64,
    stats: PoolStats,
}

/// An LRU pool over the simulated disk, bounded in bytes.
pub struct LruPool {
    disk: Arc<SimDisk>,
    capacity_bytes: usize,
    inner: Mutex<LruInner>,
}

impl LruPool {
    pub fn new(disk: Arc<SimDisk>, capacity_bytes: usize) -> Self {
        LruPool {
            disk,
            capacity_bytes,
            inner: Mutex::new(LruInner {
                slots: HashMap::new(),
                bytes: 0,
                clock: 0,
                stats: PoolStats::default(),
            }),
        }
    }

    pub fn stats(&self) -> PoolStats {
        self.inner.lock().stats
    }

    pub fn cached_bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Drop everything (between benchmark phases).
    pub fn clear(&self) {
        let mut g = self.inner.lock();
        g.slots.clear();
        g.bytes = 0;
    }

    fn evict_to_fit(inner: &mut LruInner, incoming: usize, capacity: usize) {
        while inner.bytes + incoming > capacity && !inner.slots.is_empty() {
            // O(n) min-scan: pools hold at most a few thousand blocks here,
            // and eviction is off the hot (hit) path.
            let victim = *inner
                .slots
                .iter()
                .min_by_key(|(_, s)| s.last_use)
                .map(|(id, _)| id)
                .unwrap();
            let s = inner.slots.remove(&victim).unwrap();
            inner.bytes -= s.data.len();
            inner.stats.evictions += 1;
        }
    }

    /// The bytes of block `id`: from the pool on a hit, else read off the
    /// disk and installed, evicting least-recently-used blocks to fit.
    pub fn read(&self, id: BlockId) -> Result<Arc<Vec<u8>>> {
        {
            let mut g = self.inner.lock();
            g.clock += 1;
            let clock = g.clock;
            if let Some(slot) = g.slots.get_mut(&id) {
                slot.last_use = clock;
                let data = slot.data.clone();
                g.stats.hits += 1;
                return Ok(data);
            }
            g.stats.misses += 1;
        }
        // Miss: read outside the lock (charges virtual I/O), then install.
        let data = self.disk.read_block(id)?;
        let mut g = self.inner.lock();
        g.clock += 1;
        let clock = g.clock;
        if data.len() <= self.capacity_bytes {
            Self::evict_to_fit(&mut g, data.len(), self.capacity_bytes);
            if !g.slots.contains_key(&id) {
                g.bytes += data.len();
                g.slots.insert(
                    id,
                    Slot {
                        data: data.clone(),
                        last_use: clock,
                    },
                );
            }
        }
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_storage::SimDiskConfig;

    fn setup(n_blocks: usize, block_bytes: usize) -> (Arc<SimDisk>, Vec<BlockId>) {
        let disk = Arc::new(SimDisk::new(SimDiskConfig::default()));
        let ids = (0..n_blocks)
            .map(|i| disk.write_block(vec![i as u8; block_bytes]))
            .collect();
        (disk, ids)
    }

    #[test]
    fn hits_after_first_read() {
        let (disk, ids) = setup(3, 100);
        let pool = LruPool::new(disk.clone(), 1000);
        for &id in &ids {
            pool.read(id).unwrap();
        }
        for &id in &ids {
            pool.read(id).unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.misses, 3);
        assert_eq!(s.hits, 3);
        assert_eq!(disk.stats().reads, 3);
    }

    #[test]
    fn evicts_least_recently_used() {
        let (disk, ids) = setup(3, 100);
        let pool = LruPool::new(disk.clone(), 250); // fits 2 blocks
        pool.read(ids[0]).unwrap();
        pool.read(ids[1]).unwrap();
        pool.read(ids[0]).unwrap(); // refresh 0
        pool.read(ids[2]).unwrap(); // evicts 1
        assert_eq!(pool.stats().evictions, 1);
        pool.read(ids[0]).unwrap(); // still cached
        assert_eq!(pool.stats().hits, 2);
        pool.read(ids[1]).unwrap(); // was evicted → miss
        assert_eq!(pool.stats().misses, 4);
    }

    #[test]
    fn sequential_scan_thrash_no_reuse() {
        // The pathology cooperative scans fix: table 10 blocks, pool 5.
        let (disk, ids) = setup(10, 100);
        let pool = LruPool::new(disk.clone(), 500);
        for _pass in 0..3 {
            for &id in &ids {
                pool.read(id).unwrap();
            }
        }
        // Strict LRU + sequential order: zero reuse across passes.
        assert_eq!(pool.stats().hits, 0);
        assert_eq!(disk.stats().reads, 30);
    }

    #[test]
    fn oversized_block_bypasses_cache() {
        let (disk, _) = setup(0, 0);
        let big = disk.write_block(vec![0u8; 1000]);
        let pool = LruPool::new(disk.clone(), 100);
        pool.read(big).unwrap();
        pool.read(big).unwrap();
        assert_eq!(pool.stats().misses, 2);
        assert_eq!(pool.cached_bytes(), 0);
    }

    #[test]
    fn clear_resets_contents_not_stats() {
        let (disk, ids) = setup(2, 10);
        let pool = LruPool::new(disk, 100);
        pool.read(ids[0]).unwrap();
        pool.clear();
        assert_eq!(pool.cached_bytes(), 0);
        pool.read(ids[0]).unwrap();
        assert_eq!(pool.stats().misses, 2);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let (disk, ids) = setup(8, 64);
        let pool = Arc::new(LruPool::new(disk, 4 * 64));
        let mut handles = Vec::new();
        for t in 0..4 {
            let p = pool.clone();
            let ids = ids.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    let id = ids[(t + i) % ids.len()];
                    assert_eq!(p.read(id).unwrap().len(), 64);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 400);
    }
}
