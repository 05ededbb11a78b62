//! `vw-bufman` — buffer management: classic LRU and Cooperative Scans.
//!
//! §I-A of the paper cites Cooperative Scans [4] ("dynamic bandwidth sharing
//! in a DBMS") among the I/O innovations that keep the vectorized engine fed.
//! The idea: when several scans of the same table run concurrently, a normal
//! LRU buffer pool makes each of them read every block from disk (they are at
//! different offsets, so nothing is reused). The *Active Buffer Manager*
//! (ABM) instead treats scans as consumers of *sets* of blocks: it loads the
//! block relevant to the most waiting scans next, hands it to all of them,
//! and lets each scan consume blocks out of order. One disk pass serves all
//! scans.
//!
//! * [`LruPool`] — the baseline: capacity-bounded, least-recently-used.
//! * [`Abm`] — cooperative scans with a relevance policy and a starvation
//!   bound.
//! * [`BlockReader`] — the trait the execution engine's scans read through.

pub mod coop;
pub mod decode;
pub mod lru;

pub use coop::{Abm, AbmStats, CoopScanHandle, ScanProgress};
pub use decode::{DecodeCache, SliceCacheStats};
pub use lru::{LruPool, PoolStats};

use std::sync::Arc;
use vw_common::{BlockId, Result};
use vw_storage::SimDisk;

/// How a scan obtains block bytes. Implementations decide caching policy.
pub trait BlockReader: Send + Sync {
    fn read(&self, id: BlockId) -> Result<Arc<Vec<u8>>>;
}

/// No caching: every read goes to the (simulated) disk.
pub struct DirectReader {
    disk: Arc<SimDisk>,
}

impl DirectReader {
    pub fn new(disk: Arc<SimDisk>) -> Self {
        DirectReader { disk }
    }
}

impl BlockReader for DirectReader {
    fn read(&self, id: BlockId) -> Result<Arc<Vec<u8>>> {
        self.disk.read_block(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_storage::SimDiskConfig;

    #[test]
    fn direct_reader_passes_through() {
        let disk = Arc::new(SimDisk::new(SimDiskConfig::default()));
        let id = disk.write_block(vec![1, 2, 3]);
        let r = DirectReader::new(disk.clone());
        assert_eq!(&**r.read(id).unwrap(), &[1, 2, 3]);
        r.read(id).unwrap();
        assert_eq!(disk.stats().reads, 2); // no caching
    }
}
