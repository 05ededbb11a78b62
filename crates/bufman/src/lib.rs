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

pub mod coop;
pub mod decode;
pub mod lru;

pub use coop::{Abm, AbmStats, CoopScanHandle, ScanProgress};
pub use decode::{DecodeCache, SliceCacheStats};
pub use lru::{LruPool, PoolStats};
