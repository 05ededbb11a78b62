//! Vectorized Volcano operators.
//!
//! Pull-based (`next()` returns a [`Batch`] or end-of-stream), exactly one
//! virtual call per ~1000-tuple vector — the X100 execution model [1]. Each
//! operator is a plain struct; trees are built by the cross-compiler in
//! [`crate::compile`].

pub mod aggregate;
pub mod exchange;
pub mod filter;
pub mod hash_table;
pub mod join;
pub mod limit;
pub mod merge_join;
pub mod perfect;
pub mod project;
pub mod scan;
pub mod sort;

pub use aggregate::HashAggregate;
pub use exchange::Exchange;
pub use filter::VecFilter;
pub use join::{BuildData, HashJoin};
pub use limit::VecLimit;
pub use merge_join::MergeJoin;
pub use project::VecProject;
pub use scan::{RuntimeFilters, VecScan};
pub use sort::{TopN, VecSort};

use crate::batch::{Batch, ExecVector};
use std::time::Instant;
use vw_common::{Result, Schema, Value};
use vw_storage::ColumnData;

/// A vectorized operator: the unit of query-plan composition.
pub trait Operator: Send {
    /// Output schema.
    fn schema(&self) -> &Schema;
    /// Produce the next batch, or `None` at end of stream.
    fn next(&mut self) -> Result<Option<Batch>>;
    /// Operator-specific profile counters (e.g. morsels claimed, groups
    /// pruned, build reuse). Collected once by the profiling wrapper when the
    /// operator reaches end-of-stream; summed per plan node across Exchange
    /// workers.
    ///
    /// Determinism contract: keys must be `'static` literals drawn from a
    /// fixed per-operator set. The profile node merges them into a sorted
    /// map, so `EXPLAIN ANALYZE` renders extras in the same key order on
    /// every run at every dop — worker arrival order can never reorder them.
    fn profile_extras(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// Boxed operator trees.
pub type BoxedOperator = Box<dyn Operator>;

/// Drain an operator into rows (tests and result delivery): the boundary
/// where a dictionary vector that travelled all the way becomes strings.
pub fn collect_rows(op: &mut dyn Operator) -> Result<Vec<Vec<Value>>> {
    let schema = op.schema().clone();
    let mut out = Vec::new();
    while let Some(batch) = op.next()? {
        out.extend(batch.materialize().to_rows(&schema));
    }
    Ok(out)
}

/// Allocation-free ordering between two lanes of the *same* column type.
/// NULLs sort first (consistent with `Value::total_cmp`).
#[inline]
pub fn lanes_cmp(a: &ExecVector, i: usize, b: &ExecVector, j: usize) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a.is_null(i), b.is_null(j)) {
        (true, true) => return Ordering::Equal,
        (true, false) => return Ordering::Less,
        (false, true) => return Ordering::Greater,
        _ => {}
    }
    match (&a.data, &b.data) {
        (ColumnData::Bool(x), ColumnData::Bool(y)) => x[i].cmp(&y[j]),
        (ColumnData::I32(x), ColumnData::I32(y)) => x[i].cmp(&y[j]),
        (ColumnData::I64(x), ColumnData::I64(y)) => x[i].cmp(&y[j]),
        (ColumnData::F64(x), ColumnData::F64(y)) => f64_total_cmp(x[i], y[j]),
        (ColumnData::Str(x), ColumnData::Str(y)) => x.get_bytes(i).cmp(y.get_bytes(j)),
        _ => Ordering::Equal,
    }
}

/// `Value::total_cmp` on two doubles: numeric order (so `-0.0` equals `0.0`)
/// with NaNs placed by IEEE total order, which keeps the order total.
#[inline]
pub fn f64_total_cmp(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap_or_else(|| a.total_cmp(&b))
}

/// Concatenate column chunks of identical physical type.
pub fn concat_vectors(parts: &[ExecVector]) -> ExecVector {
    if parts.len() == 1 {
        return parts[0].clone();
    }
    let mut out = parts[0].empty_like(parts.iter().map(|p| p.len()).sum());
    for p in parts {
        out.extend_from(p, None);
    }
    out
}

/// Concatenate dense batches column-wise into one batch. `ncols` lets a
/// zero-column batch list (COUNT(*)-only shapes) keep its row count.
pub fn concat_batches(parts: Vec<Batch>, ncols: usize) -> Batch {
    let mut cols: Vec<Vec<ExecVector>> = vec![Vec::with_capacity(parts.len()); ncols];
    let mut rows = 0usize;
    for b in parts {
        debug_assert!(b.sel.is_none(), "concat_batches needs dense batches");
        rows += b.rows;
        for (c, v) in b.columns.into_iter().enumerate() {
            cols[c].push(v);
        }
    }
    let columns: Vec<ExecVector> = cols.into_iter().map(|p| concat_vectors(&p)).collect();
    let mut out = Batch::new(columns);
    out.rows = rows;
    out
}

/// Drain and concatenate an operator's whole output into one dense batch of
/// plain columns (the materializing baseline's barrier).
pub fn drain_to_single_batch(op: &mut dyn Operator) -> Result<Batch> {
    let ncols = op.schema().len();
    let mut parts: Vec<Vec<ExecVector>> = vec![Vec::new(); ncols];
    let mut total_rows = 0usize;
    let mut batches = 0usize;
    while let Some(b) = op.next()? {
        let b = b.materialize();
        total_rows += b.rows;
        batches += 1;
        for (c, col) in b.columns.into_iter().enumerate() {
            parts[c].push(col);
        }
    }
    if batches == 0 {
        // Preserve the column structure: downstream operators index columns
        // even over empty inputs.
        return Ok(Batch::new(empty_columns(op.schema())));
    }
    if ncols == 0 {
        let mut b = Batch::new(vec![]);
        b.rows = total_rows;
        return Ok(b);
    }
    let columns: Vec<ExecVector> = parts.iter().map(|p| concat_vectors(p)).collect();
    Ok(Batch::new(columns))
}

/// Add the time since `*from` to `*acc` and restart the lap. The clock is
/// `None` unless the query is profiled, so the off path takes no timestamps.
pub(crate) fn lap(from: &mut Option<Instant>, acc: &mut u64) {
    if let Some(t) = from {
        let now = Instant::now();
        *acc += (now - *t).as_nanos() as u64;
        *t = now;
    }
}

/// Typed zero-row columns: downstream code indexes columns even over empty
/// inputs.
pub fn empty_columns(schema: &Schema) -> Vec<ExecVector> {
    let fields = schema.fields().iter();
    fields.map(|f| ExecVector::empty(f.ty)).collect()
}

/// A fixed list of batches as an operator (tests, exchange plumbing).
pub struct BatchSource {
    schema: Schema,
    batches: std::vec::IntoIter<Batch>,
}

impl BatchSource {
    pub fn new(schema: Schema, batches: Vec<Batch>) -> BatchSource {
        BatchSource {
            schema,
            batches: batches.into_iter(),
        }
    }

    /// Source from rows, split into `vector_size` batches.
    pub fn from_rows(
        schema: Schema,
        rows: &[Vec<Value>],
        vector_size: usize,
    ) -> Result<BatchSource> {
        let mut batches = Vec::new();
        for chunk in rows.chunks(vector_size.max(1)) {
            batches.push(Batch::from_rows(&schema, chunk)?);
        }
        Ok(BatchSource::new(schema, batches))
    }
}

impl Operator for BatchSource {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        Ok(self.batches.next())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_common::{DataType, Field};

    #[test]
    fn hash_and_eq_lanes() {
        let a =
            ExecVector::from_values(DataType::I64, &[Value::I64(5), Value::Null, Value::I64(7)])
                .unwrap();
        let b = ExecVector::from_values(DataType::I64, &[Value::I64(5)]).unwrap();
        let (mut ha, mut hb) = (Vec::new(), Vec::new());
        hash_table::hash_keys(&[&a], None, 3, &mut ha);
        hash_table::hash_keys(&[&b], None, 1, &mut hb);
        assert_eq!(ha[0], hb[0]);
        assert_ne!(ha[2], hb[0]);
        // 5 = 5, 7 != 5, NULL != 5, and NULL = NULL (group-by semantics).
        let mut ok = vec![true; 4];
        hash_table::verify_keys(&a, &[0, 2, 1, 1], &b, &[0, 0, 0, 0], &mut ok[..3]);
        hash_table::verify_keys(&a, &[1], &a, &[1], &mut ok[3..]);
        assert_eq!(ok, vec![true, false, false, true]);
    }

    #[test]
    fn lanes_cmp_with_nulls_first() {
        use std::cmp::Ordering;
        let a = ExecVector::from_values(
            DataType::Str,
            &[Value::Str("b".into()), Value::Null, Value::Str("a".into())],
        )
        .unwrap();
        assert_eq!(lanes_cmp(&a, 0, &a, 2), Ordering::Greater);
        assert_eq!(lanes_cmp(&a, 1, &a, 0), Ordering::Less);
        assert_eq!(lanes_cmp(&a, 1, &a, 1), Ordering::Equal);
    }

    #[test]
    fn concat_and_drain() {
        let schema = Schema::new(vec![Field::new("x", DataType::I64)]);
        let rows1 = vec![vec![Value::I64(1)], vec![Value::I64(2)]];
        let rows2 = vec![vec![Value::I64(3)]];
        let mut src = BatchSource::new(
            schema.clone(),
            vec![
                Batch::from_rows(&schema, &rows1).unwrap(),
                Batch::from_rows(&schema, &rows2).unwrap(),
            ],
        );
        let b = drain_to_single_batch(&mut src).unwrap();
        assert_eq!(b.rows, 3);
        assert_eq!(
            b.to_rows(&schema),
            vec![
                vec![Value::I64(1)],
                vec![Value::I64(2)],
                vec![Value::I64(3)]
            ]
        );
    }

    #[test]
    fn batch_source_chunks_by_vector_size() {
        let schema = Schema::new(vec![Field::new("x", DataType::I64)]);
        let rows: Vec<Vec<Value>> = (0..10).map(|i| vec![Value::I64(i)]).collect();
        let mut src = BatchSource::from_rows(schema.clone(), &rows, 4).unwrap();
        let mut sizes = Vec::new();
        while let Some(b) = src.next().unwrap() {
            sizes.push(b.len());
        }
        assert_eq!(sizes, vec![4, 4, 2]);
    }

    #[test]
    fn collect_rows_works() {
        let schema = Schema::new(vec![Field::new("x", DataType::I64)]);
        let rows: Vec<Vec<Value>> = (0..5).map(|i| vec![Value::I64(i)]).collect();
        let mut src = BatchSource::from_rows(schema, &rows, 2).unwrap();
        assert_eq!(collect_rows(&mut src).unwrap(), rows);
    }
}
