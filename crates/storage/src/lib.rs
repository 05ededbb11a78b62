//! `vw-storage` — columnar storage for vectorwise-rs.
//!
//! The paper (§I-A) describes Vectorwise storage as a column store with
//! hybrid PAX/DSM layout, lightweight compression (PFOR and friends, [2])
//! chosen per block, and MinMax metadata for scan pruning. This crate builds
//! all of that:
//!
//! * [`column`] — uncompressed in-memory column representation (the form the
//!   execution engine consumes),
//! * [`compress`] — PFOR, PFOR-DELTA, PDICT, RLE and plain encoders with a
//!   cost-based per-block scheme chooser; DOUBLE blocks of exact decimals
//!   become PFOR frames of scaled integers,
//! * [`block`] — self-describing serialized column blocks with MinMax stats,
//! * [`cursor`] — the one decoder of the block format: per-block cursors
//!   with vector-granular decode and predicate evaluation directly on the
//!   encoded data; a whole-block read is a cursor's full-range decode,
//! * [`simdisk`] — a deterministic simulated disk that charges virtual I/O
//!   time (substitute for the paper's real disk arrays; see DESIGN.md),
//! * [`table`] — PAX-grouped table storage: row groups of column blocks,
//!   bulk load, per-group reads, zone-map pruning.

pub mod block;
pub mod column;
pub mod compress;
pub mod cursor;
pub mod simdisk;
pub mod spill;
pub mod table;

pub use block::{ColumnBlock, MinMax, PruneOp};
pub use column::{ColumnData, DictColumn, NullableColumn, StrColumn};
pub use compress::{compress_data, decimal_scale_of, decompress_data, CompressionScheme};
pub use cursor::{BlockCursor, KeySet, Pred, PredOp};
pub use simdisk::{DiskStats, SimDisk, SimDiskConfig};
pub use spill::{SpillCol, SpillFile, SpilledCol};
pub use table::{
    concat_columns, read_all_columns, GroupEdit, ImageStats, RowGroup, TableBuilder, TableStorage,
};
