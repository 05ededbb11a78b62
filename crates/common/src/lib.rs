//! `vw-common` — shared foundation types for the vectorwise-rs analytical DBMS.
//!
//! This crate holds everything that more than one subsystem needs but that has
//! no behaviour of its own worth a crate: scalar types and values, dates,
//! schemas, error handling, identifiers, a deterministic RNG, a fast
//! non-cryptographic hash, and a bit vector.
//!
//! Nothing in here depends on any other vectorwise crate; the dependency
//! graph is strictly bottom-up (see `DESIGN.md`).

pub mod bitvec;
pub mod config;
pub mod date;
pub mod error;
pub mod hash;
pub mod ids;
pub mod layout;
pub mod like;
pub mod metrics;
pub mod rng;
pub mod schema;
pub mod types;
pub mod waits;

pub use bitvec::BitVec;
pub use config::VECTOR_SIZE;
pub use error::{Result, VwError};
pub use ids::{BlockId, ColId, Lsn, Rid, Sid, TableId, TxnId};
pub use layout::{RangePartitionSpec, SortSpec, TableLayout};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricSample, MetricsRegistry};
pub use schema::{Field, Schema};
pub use types::{normalize_key_f64, DataType, Value};
pub use waits::{WaitClass, WaitSnapshot, WaitStats, WaitTimer, ALL_WAIT_CLASSES, WAIT_CLASSES};
