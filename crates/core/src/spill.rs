//! Batch-level helpers over `vw-storage`'s spill files.
//!
//! Operators spill dense [`Batch`]es: one batch becomes one spill chunk
//! (one SimDisk block). The byte estimate used for memory accounting is the
//! same uncompressed-columnar size the spill codec writes, so reservations
//! and spill counters line up.

use std::sync::Arc;

use vw_common::waits::{WaitClass, WaitStats, WaitTimer};
use vw_common::Result;
use vw_storage::{SimDisk, SimDiskConfig, SpillCol, SpillFile};

use crate::batch::{Batch, ExecVector};
use crate::mem::MemTracker;
use crate::trace::TraceHandle;

/// Estimated resident size of a dense batch: uncompressed column bytes plus
/// one byte per value of widened NULL indicator.
pub fn batch_bytes(batch: &Batch) -> usize {
    batch
        .columns
        .iter()
        .map(|c| c.data.uncompressed_bytes() + c.nulls.as_ref().map_or(0, |n| n.len()))
        .sum()
}

/// Append a dense batch (no selection vector) as one chunk; returns the
/// encoded byte count. With `waits` set, the encode+write is attributed as
/// [`WaitClass::SpillWrite`] blocked time (one timer per chunk).
pub fn write_batch(file: &mut SpillFile, batch: &Batch, waits: Option<&WaitStats>) -> Result<u64> {
    debug_assert!(batch.sel.is_none(), "spill batches must be compacted");
    let cols: Vec<SpillCol> = batch
        .columns
        .iter()
        .map(|c| SpillCol {
            data: &c.data,
            nulls: c.nulls.as_deref(),
        })
        .collect();
    let t = waits.map(|w| WaitTimer::start(w, WaitClass::SpillWrite));
    let r = file.append_chunk(&cols, batch.rows);
    drop(t);
    r
}

/// Read chunk `i` back as a dense batch (a [`WaitClass::SpillRead`] wait
/// when `waits` is set).
pub fn read_batch(file: &SpillFile, i: usize, waits: Option<&WaitStats>) -> Result<Batch> {
    let t = waits.map(|w| WaitTimer::start(w, WaitClass::SpillRead));
    let chunk = file.read_chunk(i);
    drop(t);
    let (cols, rows) = chunk?;
    let columns = cols
        .into_iter()
        .map(|(data, nulls)| ExecVector::new(data, nulls))
        .collect();
    let mut b = Batch::new(columns);
    b.rows = rows; // zero-column chunks still carry a row count
    Ok(b)
}

/// What a spilling operator (hash join, hash aggregate, sort, Top-N) takes
/// from the query it runs in: its ledger on the query's memory budget, the
/// disk it spills to, the trace timeline it records spills into and the
/// wait ledger of its plan node. [`ExecContext::query_env`] builds it for a
/// compiled operator; the default — a detached tracker, a private scratch
/// disk on first spill, no trace and no waits (profiling off) — is what a
/// directly constructed operator runs with.
///
/// [`ExecContext::query_env`]: crate::compile::ExecContext::query_env
pub struct QueryEnv {
    pub(crate) mem: MemTracker,
    /// `None` opens a private scratch disk on first spill.
    pub(crate) spill_disk: Option<Arc<SimDisk>>,
    pub(crate) trace: Option<TraceHandle>,
    pub(crate) waits: Option<Arc<WaitStats>>,
}

impl Default for QueryEnv {
    fn default() -> Self {
        QueryEnv {
            mem: MemTracker::detached(),
            spill_disk: None,
            trace: None,
            waits: None,
        }
    }
}

impl QueryEnv {
    /// The disk to spill to: the database's, so spill I/O lands in the
    /// query's `DiskStats`, else a new private one.
    pub(crate) fn spill_disk(&self) -> Arc<SimDisk> {
        self.spill_disk
            .clone()
            .unwrap_or_else(|| Arc::new(SimDisk::new(SimDiskConfig::default())))
    }

    /// The same environment with a tracker of its own on the same budget.
    pub(crate) fn fork(&self) -> QueryEnv {
        self.with_mem(MemTracker::new(self.mem.budget().clone()))
    }

    /// The environment handed on to an operator that takes over this one's
    /// work: this tracker, reservations and all, moves with it.
    pub(crate) fn hand_over(&mut self) -> QueryEnv {
        let mem = std::mem::replace(&mut self.mem, MemTracker::detached());
        self.with_mem(mem)
    }

    /// The default environment on a budget of its own, capped at `limit`
    /// bytes (operator unit tests).
    #[cfg(test)]
    pub(crate) fn bounded(limit: usize) -> QueryEnv {
        let budget = crate::mem::MemBudget::new(Some(limit));
        QueryEnv {
            mem: MemTracker::new(Arc::new(budget)),
            ..QueryEnv::default()
        }
    }

    fn with_mem(&self, mem: MemTracker) -> QueryEnv {
        QueryEnv {
            mem,
            spill_disk: self.spill_disk.clone(),
            trace: self.trace.clone(),
            waits: self.waits.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_common::{DataType, Field, Schema, Value};

    #[test]
    fn batch_roundtrip_preserves_nulls() {
        let schema = Schema::new(vec![
            Field::nullable("k", DataType::I64),
            Field::nullable("s", DataType::Str),
        ]);
        let rows = vec![
            vec![Value::I64(1), Value::Str("a".into())],
            vec![Value::Null, Value::Null],
            vec![Value::I64(3), Value::Str("".into())],
        ];
        let b = Batch::from_rows(&schema, &rows).unwrap();
        let mut f = SpillFile::new(QueryEnv::default().spill_disk());
        let est = batch_bytes(&b);
        let written = write_batch(&mut f, &b, None).unwrap();
        // Strings are length-prefixed rather than offset-encoded, so the
        // estimate is close but not exact.
        assert!(written as usize >= est / 2 && (written as usize) <= est * 2 + 64);
        let back = read_batch(&f, 0, None).unwrap();
        assert_eq!(back.to_rows(&schema), rows);
    }

    #[test]
    fn zero_column_batch_keeps_rows() {
        let schema = Schema::new(vec![]);
        let b = Batch::from_rows(&schema, &[vec![], vec![]]).unwrap();
        assert_eq!(b.rows, 2);
        let mut f = SpillFile::new(QueryEnv::default().spill_disk());
        write_batch(&mut f, &b, None).unwrap();
        let back = read_batch(&f, 0, None).unwrap();
        assert_eq!(back.rows, 2);
        assert_eq!(back.len(), 2);
    }
}
