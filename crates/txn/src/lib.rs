//! `vw-txn` — transactions: WAL, snapshot isolation, optimistic CC,
//! checkpointing.
//!
//! §I-B of the paper: "In order to provide full ACID properties, Vectorwise
//! uses a Write Ahead Log that logs PDTs as they are committed and performs
//! optimistic PDT-based concurrency control." This crate is that machinery:
//!
//! * [`wal`] — a length-prefixed, CRC-checked redo log. Only *committed*
//!   transactions are logged (one record per commit, carrying the
//!   transaction's translated PDT ops per table), which is the natural WAL
//!   shape for optimistic CC.
//! * [`manager`] — [`TxnManager`]: the current *version* of every table
//!   (an immutable stable image and the master PDT over it, handed out as a
//!   pair of `Arc`s = free consistent reads), transactions that pin their
//!   versions and write private working PDTs, commit-time positional
//!   conflict detection via [`vw_pdt::Footprint`], and crash recovery by
//!   WAL replay.
//! * [`checkpoint`] — builds a table's next stable image from the current
//!   one and its master PDT, block by block, installs it as a new version
//!   and trims the log of what it contains, bounding both PDT memory and
//!   recovery time.

pub mod checkpoint;
pub mod manager;
pub mod wal;

pub use checkpoint::{checkpoint_table, merge_column, CheckpointStats};
pub use manager::{Image, TableVersion, Transaction, TxnManager};
pub use wal::{Wal, WalRecord};
