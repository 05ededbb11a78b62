//! Cooperative Scans: the Active Buffer Manager (ABM).
//!
//! After "Cooperative scans: dynamic bandwidth sharing in a DBMS"
//! (Zukowski et al., VLDB 2007 — reference [4] of the Vectorwise paper).
//!
//! Scans *register* the set of blocks they need and then repeatedly ask the
//! ABM for "any block I still need". The ABM:
//!
//! * serves a cached block first if the scan still needs one (free);
//! * otherwise *chooses* which block to load next by **relevance**: the block
//!   needed by the most currently-active scans, so one disk read feeds many
//!   consumers;
//! * breaks relevance ties in favour of the scan that has made the least
//!   progress (a starvation bound, keeping slow scans from being left
//!   behind);
//! * keeps a block cached while any registered scan still needs it, evicting
//!   fully-consumed blocks first.
//!
//! Consumption is deliberately out-of-order ("relaxed" scans): callers get
//! `(BlockId, bytes)` pairs and must not assume table order.

use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vw_common::waits::{WaitClass, WaitStats, WaitTimer};
use vw_common::{BlockId, Result, VwError};
use vw_storage::SimDisk;

type ScanId = u64;

/// Externally-driven progress counter for one *logical* scan.
///
/// When an Exchange splits a table scan across P workers, the workers share
/// one registration (cloned [`CoopScanHandle`]s) and bump this counter as
/// they claim work (e.g. per morsel claimed from the shared morsel queue).
/// The ABM's starvation tiebreak then sees the scan's true overall progress
/// instead of P unrelated block counts.
#[derive(Debug, Default)]
pub struct ScanProgress(AtomicU64);

impl ScanProgress {
    pub fn new() -> Arc<ScanProgress> {
        Arc::new(ScanProgress(AtomicU64::new(0)))
    }

    /// Record `n` more units of progress (blocks, morsels, ...).
    pub fn advance(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct CachedBlock {
    data: Arc<Vec<u8>>,
    /// Scans that still need to consume this block.
    needed_by: HashSet<ScanId>,
}

struct ScanState {
    /// Blocks this scan has not yet consumed.
    remaining: HashSet<BlockId>,
    /// Blocks consumed so far (for the starvation/fairness tiebreak).
    consumed: usize,
    /// Live handles sharing this registration (workers of one logical scan).
    handles: usize,
    /// External progress override: when present, the starvation tiebreak
    /// reads this instead of `consumed`.
    progress: Option<Arc<ScanProgress>>,
}

impl ScanState {
    /// Progress figure used by the fairness tiebreak.
    fn progress_units(&self) -> usize {
        match &self.progress {
            Some(p) => p.get() as usize,
            None => self.consumed,
        }
    }
}

#[derive(Default)]
struct AbmState {
    scans: HashMap<ScanId, ScanState>,
    /// Per block, the registered scans that still need it (have it in
    /// `remaining`): its relevance, kept as scans register, take blocks and
    /// release, so choosing what to load reads a count instead of asking
    /// every scan.
    need: HashMap<BlockId, usize>,
    cache: HashMap<BlockId, CachedBlock>,
    cache_bytes: usize,
    next_scan: ScanId,
    loads: u64,
    shared_hits: u64,
}

impl AbmState {
    /// Scan `id` takes `block`, if it still needed it: the block leaves the
    /// scan's remaining set, so no other worker of the registration is
    /// handed it again.
    fn take(&mut self, id: ScanId, block: BlockId) {
        if let Some(scan) = self.scans.get_mut(&id) {
            if scan.remaining.remove(&block) {
                scan.consumed += 1;
                self.unneed(block);
            }
        }
    }

    /// Undo [`AbmState::take`] after the load of `block` failed.
    fn put_back(&mut self, id: ScanId, block: BlockId) {
        if let Some(scan) = self.scans.get_mut(&id) {
            if scan.remaining.insert(block) {
                scan.consumed -= 1;
                *self.need.entry(block).or_default() += 1;
            }
        }
    }

    fn unneed(&mut self, block: BlockId) {
        if let Some(n) = self.need.get_mut(&block) {
            *n -= 1;
            if *n == 0 {
                self.need.remove(&block);
            }
        }
    }

    /// The block scan `id` should load next: the one the most registered
    /// scans still need; among those, one needed by the least-progressed
    /// scan that needs any of them (a starvation bound); then the smallest
    /// id, for determinism.
    fn choose(&self, id: ScanId) -> Option<BlockId> {
        let remaining = &self.scans.get(&id)?.remaining;
        let relevance = |b: &BlockId| self.need.get(b).copied().unwrap_or(0);
        let most = remaining.iter().map(relevance).max()?;
        let top: Vec<BlockId> = remaining
            .iter()
            .copied()
            .filter(|b| relevance(b) == most)
            .collect();
        let progress: Vec<(usize, &HashSet<BlockId>)> = self
            .scans
            .values()
            .map(|s| (s.progress_units(), &s.remaining))
            .collect();
        let needs_top = |r: &HashSet<BlockId>| top.iter().any(|b| r.contains(b));
        // Scan `id` needs every candidate, so some scan does.
        let least = progress
            .iter()
            .filter(|(_, r)| needs_top(r))
            .map(|(p, _)| *p)
            .min()?;
        top.iter()
            .copied()
            .filter(|b| progress.iter().any(|(p, r)| *p == least && r.contains(b)))
            .min_by_key(|b| b.as_u64())
    }

    /// Keep `data` cached for the scans that still need `block`; a copy
    /// another scan loaded at the same time is replaced.
    fn cache(&mut self, block: BlockId, data: &Arc<Vec<u8>>) {
        let needed_by: HashSet<ScanId> = self
            .scans
            .iter()
            .filter(|(_, s)| s.remaining.contains(&block))
            .map(|(sid, _)| *sid)
            .collect();
        let cached = CachedBlock {
            data: data.clone(),
            needed_by,
        };
        if let Some(old) = self.cache.insert(block, cached) {
            self.cache_bytes -= old.data.len();
        }
        self.cache_bytes += data.len();
    }
}

/// The Active Buffer Manager.
pub struct Abm {
    disk: Arc<SimDisk>,
    capacity_bytes: usize,
    state: Mutex<AbmState>,
}

/// ABM-wide counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbmStats {
    /// Blocks loaded from disk.
    pub loads: u64,
    /// Block consumptions served from cache (another scan's load).
    pub shared_hits: u64,
}

impl AbmStats {
    /// Counters accumulated since `earlier` (per-query deltas for profiling).
    pub fn since(&self, earlier: &AbmStats) -> AbmStats {
        AbmStats {
            loads: self.loads.saturating_sub(earlier.loads),
            shared_hits: self.shared_hits.saturating_sub(earlier.shared_hits),
        }
    }
}

impl Abm {
    pub fn new(disk: Arc<SimDisk>, capacity_bytes: usize) -> Arc<Abm> {
        Arc::new(Abm {
            disk,
            capacity_bytes,
            state: Mutex::new(AbmState::default()),
        })
    }

    pub fn stats(&self) -> AbmStats {
        let g = self.state.lock();
        AbmStats {
            loads: g.loads,
            shared_hits: g.shared_hits,
        }
    }

    /// Expose the ABM's counters in a metrics registry as polled gauges.
    pub fn register_metrics(self: &Arc<Self>, registry: &vw_common::MetricsRegistry) {
        let abm = Arc::clone(self);
        registry.register_polled("abm_loads", "", move || abm.stats().loads as f64);
        let abm = Arc::clone(self);
        registry.register_polled("abm_shared_hits", "", move || {
            abm.stats().shared_hits as f64
        });
    }

    /// Register a scan over `blocks`. Returns a handle to pull blocks from.
    pub fn register_scan(
        self: &Arc<Self>,
        blocks: impl IntoIterator<Item = BlockId>,
    ) -> CoopScanHandle {
        self.register_scan_with_progress(blocks, None)
    }

    /// Register one *logical* scan over `blocks`, optionally tracked by an
    /// external [`ScanProgress`]. Clone the returned handle to share the
    /// registration among P parallel workers: the ABM's relevance policy
    /// counts them as a single scan, and dropping the last clone
    /// unregisters it.
    pub fn register_scan_with_progress(
        self: &Arc<Self>,
        blocks: impl IntoIterator<Item = BlockId>,
        progress: Option<Arc<ScanProgress>>,
    ) -> CoopScanHandle {
        let mut g = self.state.lock();
        let id = g.next_scan;
        g.next_scan += 1;
        let remaining: HashSet<BlockId> = blocks.into_iter().collect();
        for &bid in &remaining {
            *g.need.entry(bid).or_default() += 1;
        }
        // Blocks already cached become immediately relevant to this scan.
        for (bid, cb) in g.cache.iter_mut() {
            if remaining.contains(bid) {
                cb.needed_by.insert(id);
            }
        }
        g.scans.insert(
            id,
            ScanState {
                remaining,
                consumed: 0,
                handles: 1,
                progress,
            },
        );
        CoopScanHandle {
            abm: self.clone(),
            id,
            done: false,
            waits: None,
        }
    }

    /// Produce the next block for scan `id`: cached-and-needed first, else
    /// load the globally most relevant block this scan needs. The block is
    /// taken from the scan before the lock drops for the load, so each
    /// block reaches exactly one of the handles sharing a registration.
    fn next_for(&self, id: ScanId) -> Result<Option<(BlockId, Arc<Vec<u8>>)>> {
        let chosen = {
            let mut g = self.state.lock();
            let scan = g
                .scans
                .get(&id)
                .ok_or_else(|| VwError::Invalid("scan not registered".into()))?;
            // 1. A cached block we still need?
            let cached_hit = scan
                .remaining
                .iter()
                .find(|b| g.cache.contains_key(b))
                .copied();
            if let Some(bid) = cached_hit {
                let data = {
                    let cb = g.cache.get_mut(&bid).unwrap();
                    cb.needed_by.remove(&id);
                    cb.data.clone()
                };
                g.shared_hits += 1;
                g.take(id, bid);
                Self::evict_consumed(&mut g, self.capacity_bytes);
                return Ok(Some((bid, data)));
            }
            // 2. Choose what to load; `None` once nothing is left.
            let Some(chosen) = g.choose(id) else {
                return Ok(None);
            };
            g.take(id, chosen);
            chosen
        };
        // Load outside the lock (charges virtual I/O time).
        let data = match self.disk.read_block(chosen) {
            Ok(data) => data,
            Err(e) => {
                self.state.lock().put_back(id, chosen);
                return Err(e);
            }
        };
        let mut g = self.state.lock();
        g.loads += 1;
        // All scans that still need it share the load.
        g.cache(chosen, &data);
        Self::evict_consumed(&mut g, self.capacity_bytes);
        Ok(Some((chosen, data)))
    }

    /// Serve a *specific* block for scan `id` (demand fetch — the table-order
    /// access path of executor scans, as opposed to the relevance-order
    /// [`next_for`](Self::next_for) pull loop). A cache hit left behind by
    /// another overlapping scan counts as a shared hit: that is the
    /// bandwidth sharing cooperative scans exist for. Blocks outside the
    /// scan's registered set are served too (graceful degradation), they
    /// just don't participate in relevance accounting.
    fn fetch_for(
        &self,
        id: ScanId,
        block: BlockId,
        waits: Option<&WaitStats>,
    ) -> Result<Arc<Vec<u8>>> {
        {
            let mut g = self.state.lock();
            if let Some(cb) = g.cache.get_mut(&block) {
                cb.needed_by.remove(&id);
                let data = cb.data.clone();
                g.shared_hits += 1;
                g.take(id, block);
                Self::evict_consumed(&mut g, self.capacity_bytes);
                return Ok(data);
            }
        }
        // Miss: load outside the lock (charges virtual I/O time). This is
        // the scan's block-I/O wait; cache hits above cost no wait.
        let io_timer = waits.map(|w| WaitTimer::start(w, WaitClass::BlockIo));
        let data = self.disk.read_block(block)?;
        drop(io_timer);
        let mut g = self.state.lock();
        g.loads += 1;
        g.take(id, block);
        // Retain for the other scans that still need this block; if none do
        // it is evicted right away by the dead-block sweep below.
        g.cache(block, &data);
        Self::evict_consumed(&mut g, self.capacity_bytes);
        Ok(data)
    }

    /// Evict blocks no scan needs; if still over capacity, evict the blocks
    /// with the fewest remaining consumers.
    fn evict_consumed(g: &mut AbmState, capacity: usize) {
        let dead: Vec<BlockId> = g
            .cache
            .iter()
            .filter(|(_, cb)| cb.needed_by.is_empty())
            .map(|(b, _)| *b)
            .collect();
        for b in dead {
            let cb = g.cache.remove(&b).unwrap();
            g.cache_bytes -= cb.data.len();
        }
        while g.cache_bytes > capacity && !g.cache.is_empty() {
            let victim = *g
                .cache
                .iter()
                .min_by_key(|(b, cb)| (cb.needed_by.len(), b.as_u64()))
                .map(|(b, _)| b)
                .unwrap();
            let cb = g.cache.remove(&victim).unwrap();
            g.cache_bytes -= cb.data.len();
        }
    }

    /// Another handle now shares registration `id`.
    fn retain(&self, id: ScanId) {
        let mut g = self.state.lock();
        if let Some(s) = g.scans.get_mut(&id) {
            s.handles += 1;
        }
    }

    /// A handle for `id` was dropped; unregister once the last one is gone.
    fn release(&self, id: ScanId) {
        let mut g = self.state.lock();
        let last = match g.scans.get_mut(&id) {
            Some(s) => {
                s.handles -= 1;
                s.handles == 0
            }
            None => false,
        };
        if last {
            if let Some(scan) = g.scans.remove(&id) {
                for bid in scan.remaining {
                    g.unneed(bid);
                }
            }
            for cb in g.cache.values_mut() {
                cb.needed_by.remove(&id);
            }
            Self::evict_consumed(&mut g, self.capacity_bytes);
        }
    }
}

/// Handle for one registered cooperative scan.
///
/// Cloning shares the registration: all clones pull from the same remaining
/// set (each block is delivered to exactly one of them) and count as ONE scan
/// for the relevance policy. The registration is released when the last
/// clone drops.
pub struct CoopScanHandle {
    abm: Arc<Abm>,
    id: ScanId,
    done: bool,
    /// Wait-state sink: demand-fetch misses record their disk time here as
    /// `block_io` waits (set by the executor per plan node; `None` costs
    /// nothing).
    waits: Option<Arc<WaitStats>>,
}

impl Clone for CoopScanHandle {
    fn clone(&self) -> Self {
        self.abm.retain(self.id);
        CoopScanHandle {
            abm: self.abm.clone(),
            id: self.id,
            done: false,
            waits: self.waits.clone(),
        }
    }
}

impl CoopScanHandle {
    /// Next `(block, bytes)` this scan needs, in relevance order — NOT table
    /// order. `None` once every registered block was consumed.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<(BlockId, Arc<Vec<u8>>)>> {
        if self.done {
            return Ok(None);
        }
        let r = self.abm.next_for(self.id)?;
        if r.is_none() {
            self.done = true;
        }
        Ok(r)
    }

    /// Fetch a specific block through the ABM (demand fetch, table order).
    /// Overlapping scans of the same blocks share loads: whoever reads a
    /// block first leaves it cached for the others ("shared hits").
    pub fn fetch(&self, block: BlockId) -> Result<Arc<Vec<u8>>> {
        self.abm.fetch_for(self.id, block, self.waits.as_deref())
    }

    /// Attribute this handle's demand-fetch misses to `waits` as `block_io`.
    pub fn set_waits(&mut self, waits: Arc<WaitStats>) {
        self.waits = Some(waits);
    }
}

impl Drop for CoopScanHandle {
    fn drop(&mut self) {
        self.abm.release(self.id);
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
    fn single_scan_sees_every_block_once() {
        let (disk, ids) = setup(10, 50);
        let abm = Abm::new(disk.clone(), 10_000);
        let mut scan = abm.register_scan(ids.clone());
        let mut seen = HashSet::new();
        while let Some((bid, data)) = scan.next().unwrap() {
            assert_eq!(data.len(), 50);
            assert!(seen.insert(bid), "block delivered twice");
        }
        assert_eq!(seen.len(), 10);
        assert_eq!(disk.stats().reads, 10);
        assert!(scan.next().unwrap().is_none());
    }

    #[test]
    fn demand_fetch_shares_blocks_between_overlapping_scans() {
        let (disk, ids) = setup(10, 100);
        let abm = Abm::new(disk.clone(), 10 * 100);
        let a = abm.register_scan(ids.clone());
        let b = abm.register_scan(ids.clone());
        // a fetches everything in table order, paying the loads; b then
        // fetches the same blocks and is served from cache.
        for &bid in &ids {
            a.fetch(bid).unwrap();
        }
        for &bid in &ids {
            b.fetch(bid).unwrap();
        }
        let s = abm.stats();
        assert_eq!(s.loads, 10, "one disk pass for two scans");
        assert_eq!(s.shared_hits, 10, "second scan rode the first's loads");
        assert_eq!(disk.stats().reads, 10);
    }

    #[test]
    fn demand_fetch_miss_records_block_io_wait() {
        let (disk, ids) = setup(4, 100);
        let abm = Abm::new(disk.clone(), 4 * 100);
        let mut a = abm.register_scan(ids.clone());
        let mut b = abm.register_scan(ids.clone());
        let waits = Arc::new(WaitStats::new());
        a.set_waits(waits.clone());
        for &bid in &ids {
            a.fetch(bid).unwrap();
        }
        // Every fetch was a miss: one block_io wait event per block.
        assert_eq!(waits.count(WaitClass::BlockIo), 4);

        // The overlapping scan rides a's loads: no new block_io waits.
        let bw = Arc::new(WaitStats::new());
        b.set_waits(bw.clone());
        for &bid in &ids {
            b.fetch(bid).unwrap();
        }
        assert_eq!(bw.count(WaitClass::BlockIo), 0, "cache hits are not waits");
        // Clones share the sink.
        let c = b.clone();
        drop(c);
    }

    #[test]
    fn demand_fetch_evicts_blocks_nobody_else_needs() {
        let (disk, ids) = setup(8, 100);
        let abm = Abm::new(disk.clone(), 8 * 100);
        let a = abm.register_scan(ids.clone());
        for &bid in &ids {
            a.fetch(bid).unwrap();
        }
        // No other scan needs these blocks: cache must be empty, not pinned.
        assert_eq!(abm.state.lock().cache_bytes, 0);
        // Re-fetching after consumption still works (graceful re-load).
        a.fetch(ids[0]).unwrap();
        assert_eq!(abm.stats().loads, 9);
    }

    #[test]
    fn demand_fetch_of_unregistered_block_is_served() {
        let (disk, ids) = setup(4, 64);
        let abm = Abm::new(disk.clone(), 1024);
        let a = abm.register_scan(ids[..2].iter().copied());
        let data = a.fetch(ids[3]).unwrap();
        assert_eq!(data.len(), 64);
        // The out-of-set fetch didn't corrupt the scan's remaining set.
        assert_eq!(abm.state.lock().scans[&a.id].remaining.len(), 2);
    }

    #[test]
    fn two_interleaved_scans_share_one_disk_pass() {
        let (disk, ids) = setup(20, 100);
        let abm = Abm::new(disk.clone(), 20 * 100);
        let mut a = abm.register_scan(ids.clone());
        let mut b = abm.register_scan(ids.clone());
        let mut done_a = false;
        let mut done_b = false;
        let (mut got_a, mut got_b) = (0, 0);
        while !done_a || !done_b {
            if !done_a {
                match a.next().unwrap() {
                    Some(_) => got_a += 1,
                    None => done_a = true,
                }
            }
            if !done_b {
                match b.next().unwrap() {
                    Some(_) => got_b += 1,
                    None => done_b = true,
                }
            }
        }
        assert_eq!(got_a, 20);
        assert_eq!(got_b, 20);
        // The headline effect: 2 scans, ~1 table's worth of disk reads.
        assert_eq!(disk.stats().reads, 20);
        assert_eq!(abm.stats().shared_hits, 20);
    }

    #[test]
    fn late_joining_scan_shares_remaining_blocks() {
        let (disk, ids) = setup(10, 100);
        let abm = Abm::new(disk.clone(), 10 * 100);
        let mut a = abm.register_scan(ids.clone());
        // A consumes half the table alone.
        for _ in 0..5 {
            a.next().unwrap().unwrap();
        }
        let mut b = abm.register_scan(ids.clone());
        let mut done_a = false;
        let mut done_b = false;
        while !done_a || !done_b {
            if !done_a && a.next().unwrap().is_none() {
                done_a = true;
            }
            if !done_b && b.next().unwrap().is_none() {
                done_b = true;
            }
        }
        // A: 10 loads. B shares A's remaining 5 loads if cached, plus
        // re-reads the 5 blocks A consumed before B joined (cache may still
        // hold some). Total reads strictly less than 20.
        assert!(disk.stats().reads < 20, "reads {}", disk.stats().reads);
        assert!(abm.stats().shared_hits >= 5);
    }

    #[test]
    fn capacity_bound_still_completes() {
        let (disk, ids) = setup(50, 100);
        let abm = Abm::new(disk.clone(), 300); // tiny: 3 blocks
        let mut a = abm.register_scan(ids.clone());
        let mut b = abm.register_scan(ids.clone());
        let mut remaining = 2;
        let mut guard = 0;
        while remaining > 0 {
            guard += 1;
            assert!(guard < 10_000, "livelock");
            if a.next().unwrap().is_none() && remaining == 2 {
                remaining -= 1;
            }
            if b.next().unwrap().is_none() && remaining >= 1 && b.next().unwrap().is_none() {
                // b is done; drain a
                while a.next().unwrap().is_some() {}
                remaining = 0;
            }
        }
        // With a 3-block cache, sharing is partial but must beat 2 full passes
        // only when interleaved tightly; here we just require completion and
        // read count within 2 passes.
        assert!(disk.stats().reads <= 100);
    }

    #[test]
    fn disjoint_scans_do_not_interfere() {
        let (disk, ids) = setup(10, 10);
        let abm = Abm::new(disk.clone(), 1000);
        let mut a = abm.register_scan(ids[..5].to_vec());
        let mut b = abm.register_scan(ids[5..].to_vec());
        let mut got_a: Vec<BlockId> = Vec::new();
        let mut got_b: Vec<BlockId> = Vec::new();
        loop {
            let ra = a.next().unwrap();
            let rb = b.next().unwrap();
            if let Some((id, _)) = ra {
                got_a.push(id);
            }
            if let Some((id, _)) = rb {
                got_b.push(id);
            }
            if ra.is_none() && rb.is_none() {
                break;
            }
        }
        assert_eq!(got_a.len(), 5);
        assert_eq!(got_b.len(), 5);
        assert!(got_a.iter().all(|id| ids[..5].contains(id)));
        assert!(got_b.iter().all(|id| ids[5..].contains(id)));
    }

    #[test]
    fn dropping_handle_releases_cache() {
        let (disk, ids) = setup(5, 100);
        let abm = Abm::new(disk.clone(), 10_000);
        {
            let mut a = abm.register_scan(ids.clone());
            a.next().unwrap();
            // drop mid-scan
        }
        let g = abm.state.lock();
        assert!(g.scans.is_empty());
        assert_eq!(g.cache_bytes, 0, "cache retained after unregister");
    }

    #[test]
    fn cloned_handles_form_one_logical_scan() {
        let (disk, ids) = setup(24, 64);
        let abm = Abm::new(disk.clone(), 24 * 64);
        let progress = ScanProgress::new();
        let scan = abm.register_scan_with_progress(ids.clone(), Some(progress.clone()));
        // P workers share the registration.
        let mut handles = Vec::new();
        for _ in 0..4 {
            let mut worker = scan.clone();
            let progress = progress.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some((bid, _)) = worker.next().unwrap() {
                    progress.advance(1);
                    got.push(bid);
                }
                got
            }));
        }
        drop(scan);
        let mut all: Vec<BlockId> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_by_key(|b| b.as_u64());
        // One logical scan: every block delivered exactly once across ALL
        // workers, one disk pass total, and the shared counter saw them all.
        assert_eq!(all, ids, "blocks lost or duplicated across workers");
        assert_eq!(disk.stats().reads, 24);
        assert_eq!(progress.get(), 24);
        // Last clone gone -> registration fully released.
        assert!(abm.state.lock().scans.is_empty());
    }

    /// Four workers of one registration released at once by a barrier,
    /// a thousand times, beside a second scan of the same blocks: each
    /// worker set receives every block exactly once, and the scans' need
    /// counts drain to nothing.
    #[test]
    fn workers_of_one_scan_never_share_a_block() {
        let (disk, ids) = setup(16, 32);
        let abm = Abm::new(disk.clone(), 16 * 32);
        for round in 0..1000 {
            let scan = abm.register_scan(ids.clone());
            let mut other = abm.register_scan(ids.clone());
            let start = std::sync::Barrier::new(4);
            let mut got: Vec<BlockId> = std::thread::scope(|s| {
                let workers: Vec<_> = (0..4)
                    .map(|_| {
                        let mut worker = scan.clone();
                        let start = &start;
                        s.spawn(move || {
                            start.wait();
                            let mut got = Vec::new();
                            while let Some((bid, _)) = worker.next().unwrap() {
                                got.push(bid);
                            }
                            got
                        })
                    })
                    .collect();
                let mut seen = 0;
                while other.next().unwrap().is_some() {
                    seen += 1;
                }
                assert_eq!(seen, ids.len(), "round {}", round);
                workers
                    .into_iter()
                    .flat_map(|w| w.join().unwrap())
                    .collect()
            });
            got.sort_by_key(|b| b.as_u64());
            assert_eq!(got, ids, "round {}", round);
            drop((scan, other));
            let g = abm.state.lock();
            assert!(g.scans.is_empty() && g.need.is_empty() && g.cache.is_empty());
            assert_eq!(g.cache_bytes, 0, "round {}", round);
        }
    }

    #[test]
    fn shared_registration_counts_once_for_relevance() {
        let (disk, ids) = setup(6, 64);
        let abm = Abm::new(disk.clone(), 6 * 64);
        let shared = abm.register_scan(ids.clone());
        let _w1 = shared.clone();
        let _w2 = shared.clone();
        // Three handles, one registration: the policy sees a single scan.
        assert_eq!(abm.state.lock().scans.len(), 1);
        drop(shared);
        assert_eq!(abm.state.lock().scans.len(), 1, "released too early");
    }

    #[test]
    fn external_progress_drives_starvation_tiebreak() {
        let (disk, ids) = setup(3, 64);
        let abm = Abm::new(disk.clone(), 6 * 64);
        let (lag_block, ahead_block, probe_block) = (ids[0], ids[1], ids[2]);
        let lagging = ScanProgress::new();
        let ahead = ScanProgress::new();
        ahead.advance(100);
        let _s1 = abm.register_scan_with_progress(vec![lag_block], Some(lagging));
        let _s2 = abm.register_scan_with_progress(vec![ahead_block], Some(ahead));
        let probe_progress = ScanProgress::new();
        probe_progress.advance(50);
        let mut probe = abm.register_scan_with_progress(
            vec![lag_block, ahead_block, probe_block],
            Some(probe_progress),
        );
        // Both shared candidates have relevance 2; the tiebreak must pick the
        // block needed by the least-progressed scan (the lagging one).
        let (first, _) = probe.next().unwrap().unwrap();
        assert_eq!(
            first, lag_block,
            "starvation bound ignored external progress"
        );
    }

    #[test]
    fn threaded_scans_share() {
        let (disk, ids) = setup(30, 64);
        let abm = Abm::new(disk.clone(), 30 * 64);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let mut scan = abm.register_scan(ids.clone());
            handles.push(std::thread::spawn(move || {
                let mut n = 0;
                while scan.next().unwrap().is_some() {
                    n += 1;
                    std::thread::yield_now();
                }
                n
            }));
        }
        let counts: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(counts.iter().all(|&c| c == 30));
        // 4 scans over 30 blocks: perfect sharing = 30 reads; allow slack for
        // scheduling skew but demand clearly better than 4 passes.
        assert!(
            disk.stats().reads < 60,
            "reads {} — no sharing happened",
            disk.stats().reads
        );
    }
}
