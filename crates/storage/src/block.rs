//! Serialized column blocks and their MinMax ("zone map") metadata.
//!
//! A column block is the unit of storage I/O: one column's values for one row
//! group, compressed, preceded by its NULL indicator. MinMax statistics are
//! kept *outside* the block (in the table catalog) so scans can prune blocks
//! without reading them — Vectorwise's MinMax indexes (§I-A, [3]).

use crate::column::{ColumnData, NullableColumn};
use crate::compress::{compress_data, CompressionScheme};
use crate::cursor::BlockCursor;
use crate::simdisk::SimDisk;
use std::cmp::Ordering;
use std::sync::Arc;
use vw_common::{BlockId, Result, Value};

/// Min/max statistics over the *non-null* values of a block.
#[derive(Debug, Clone, PartialEq)]
pub enum MinMax {
    /// No stats (all-null block, empty block, or untracked type).
    None,
    Int {
        min: i64,
        max: i64,
    },
    Float {
        min: f64,
        max: f64,
    },
    Str {
        min: String,
        max: String,
    },
}

/// Comparison operators a zone map understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneOp {
    Eq,
    Lt,
    Le,
    Gt,
    Ge,
}

impl MinMax {
    /// Compute stats from a column chunk, skipping NULL positions.
    pub fn from_column(col: &NullableColumn) -> MinMax {
        let n = col.len();
        let non_null = (0..n).filter(|&i| !col.is_null(i));
        match &col.data {
            ColumnData::I32(v) => int_minmax(non_null.map(|i| v[i] as i64)),
            ColumnData::I64(v) => int_minmax(non_null.map(|i| v[i])),
            ColumnData::F64(v) => {
                let mut min = f64::INFINITY;
                let mut max = f64::NEG_INFINITY;
                let mut any = false;
                for i in non_null {
                    let x = v[i];
                    if x.is_nan() {
                        // NaN poisons ordering; give up on stats for the block.
                        return MinMax::None;
                    }
                    min = min.min(x);
                    max = max.max(x);
                    any = true;
                }
                if any {
                    MinMax::Float { min, max }
                } else {
                    MinMax::None
                }
            }
            ColumnData::Str(v) => {
                let mut min: Option<&str> = None;
                let mut max: Option<&str> = None;
                for i in non_null {
                    let s = v.get(i);
                    if min.is_none() || s < min.unwrap() {
                        min = Some(s);
                    }
                    if max.is_none() || s > max.unwrap() {
                        max = Some(s);
                    }
                }
                match (min, max) {
                    (Some(a), Some(b)) => MinMax::Str {
                        min: a.to_string(),
                        max: b.to_string(),
                    },
                    _ => MinMax::None,
                }
            }
            // Booleans as ints 0/1.
            ColumnData::Bool(v) => int_minmax(non_null.map(|i| v[i] as i64)),
            // Stats are taken of columns being stored, which are never in
            // dictionary form; claiming nothing is always safe.
            ColumnData::Dict(_) => MinMax::None,
        }
    }

    /// Stats of a block holding just `v` (`None` for NULL, which no
    /// comparison selects, and for NaN, as in [`MinMax::from_column`]).
    pub fn of_value(v: &Value) -> MinMax {
        match v {
            Value::Null => MinMax::None,
            Value::Bool(b) => MinMax::Int {
                min: *b as i64,
                max: *b as i64,
            },
            Value::I32(x) | Value::Date(x) => MinMax::Int {
                min: *x as i64,
                max: *x as i64,
            },
            Value::I64(x) => MinMax::Int { min: *x, max: *x },
            Value::F64(x) if x.is_nan() => MinMax::None,
            Value::F64(x) => MinMax::Float { min: *x, max: *x },
            Value::Str(s) => MinMax::Str {
                min: s.clone(),
                max: s.clone(),
            },
        }
    }

    /// Can a block with these stats possibly contain a value satisfying
    /// `value <op> bound`? `false` means the whole block is prunable.
    pub fn may_match(&self, op: PruneOp, bound: &Value) -> bool {
        let (cmp_min, cmp_max) = match (self, bound) {
            (MinMax::None, _) => return true,
            (MinMax::Int { min, max }, b) => match b.as_i64() {
                Some(bv) => (min.cmp(&bv), max.cmp(&bv)),
                None => match b.as_f64() {
                    Some(bf) => (cmp_f(*min as f64, bf), cmp_f(*max as f64, bf)),
                    None => return true,
                },
            },
            (MinMax::Float { min, max }, b) => match b.as_f64() {
                Some(bf) => (cmp_f(*min, bf), cmp_f(*max, bf)),
                None => return true,
            },
            (MinMax::Str { min, max }, Value::Str(s)) => {
                (min.as_str().cmp(s.as_str()), max.as_str().cmp(s.as_str()))
            }
            _ => return true,
        };
        match op {
            PruneOp::Eq => cmp_min != Ordering::Greater && cmp_max != Ordering::Less,
            PruneOp::Lt => cmp_min == Ordering::Less,
            PruneOp::Le => cmp_min != Ordering::Greater,
            PruneOp::Gt => cmp_max == Ordering::Greater,
            PruneOp::Ge => cmp_max != Ordering::Less,
        }
    }
}

fn cmp_f(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or(Ordering::Equal)
}

fn int_minmax(it: impl Iterator<Item = i64>) -> MinMax {
    let mut min = i64::MAX;
    let mut max = i64::MIN;
    let mut any = false;
    for v in it {
        min = min.min(v);
        max = max.max(v);
        any = true;
    }
    if any {
        MinMax::Int { min, max }
    } else {
        MinMax::None
    }
}

/// Ownership of one stored block. Successive images of a table share the
/// blocks a checkpoint did not rewrite by cloning the `Arc` around their
/// lease; the block leaves its disk when the last image holding it is
/// dropped, so a reader still scanning an old image never loses a block.
pub(crate) struct BlockLease {
    id: BlockId,
    disk: Arc<SimDisk>,
}

impl BlockLease {
    /// Write `bytes` to `disk` and own the resulting block.
    pub(crate) fn write(disk: &Arc<SimDisk>, bytes: Vec<u8>) -> Arc<BlockLease> {
        Arc::new(BlockLease {
            id: disk.write_block(bytes),
            disk: disk.clone(),
        })
    }

    pub(crate) fn id(&self) -> BlockId {
        self.id
    }
}

impl Drop for BlockLease {
    fn drop(&mut self) {
        self.disk.free_block(self.id);
    }
}

impl std::fmt::Debug for BlockLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BlockLease({})", self.id)
    }
}

/// Catalog entry for one stored column block.
#[derive(Debug, Clone)]
pub struct ColumnBlock {
    /// Where the encoded bytes live on the simulated disk, and the claim
    /// that keeps them there while any image refers to this block.
    pub(crate) block: Arc<BlockLease>,
    /// Values in this block.
    pub n_values: usize,
    /// Compression scheme chosen for the value payload.
    pub scheme: CompressionScheme,
    /// Zone map over non-null values.
    pub minmax: MinMax,
    /// Whether the payload carries a NULL indicator.
    pub has_nulls: bool,
    /// Encoded size in bytes (compression-ratio accounting).
    pub encoded_bytes: usize,
    /// Uncompressed size of the values (compression-ratio accounting).
    pub raw_bytes: usize,
}

impl ColumnBlock {
    pub fn block_id(&self) -> BlockId {
        self.block.id()
    }
}

/// Encode a column chunk (values + indicator) into a self-describing payload.
pub fn encode_block(col: &NullableColumn) -> (Vec<u8>, CompressionScheme) {
    let mut out = Vec::new();
    match &col.nulls {
        Some(bits) if bits.any() => {
            out.push(1);
            out.extend_from_slice(&bits.to_bytes());
        }
        _ => out.push(0),
    }
    let (scheme, payload) = compress_data(&col.data);
    out.extend_from_slice(&payload);
    (out, scheme)
}

/// Decode a payload produced by [`encode_block`]: the block cursor's
/// full-range decode, reading the payload in place.
pub fn decode_block(bytes: &[u8]) -> Result<NullableColumn> {
    BlockCursor::new(bytes)?.decode_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::StrColumn;
    use vw_common::DataType;

    #[test]
    fn minmax_int_and_pruning() {
        let col = NullableColumn::not_null(ColumnData::I64(vec![10, 20, 30]));
        let mm = MinMax::from_column(&col);
        assert_eq!(mm, MinMax::Int { min: 10, max: 30 });
        assert!(mm.may_match(PruneOp::Eq, &Value::I64(20)));
        assert!(!mm.may_match(PruneOp::Eq, &Value::I64(5)));
        assert!(!mm.may_match(PruneOp::Eq, &Value::I64(31)));
        assert!(mm.may_match(PruneOp::Lt, &Value::I64(11)));
        assert!(!mm.may_match(PruneOp::Lt, &Value::I64(10)));
        assert!(mm.may_match(PruneOp::Le, &Value::I64(10)));
        assert!(mm.may_match(PruneOp::Gt, &Value::I64(29)));
        assert!(!mm.may_match(PruneOp::Gt, &Value::I64(30)));
        assert!(mm.may_match(PruneOp::Ge, &Value::I64(30)));
        assert!(!mm.may_match(PruneOp::Ge, &Value::I64(31)));
        // cross-type: float bound against int stats
        assert!(mm.may_match(PruneOp::Gt, &Value::F64(29.5)));
        assert!(!mm.may_match(PruneOp::Gt, &Value::F64(30.5)));
    }

    #[test]
    fn minmax_skips_nulls() {
        let vals = vec![Value::Null, Value::I64(5), Value::Null, Value::I64(7)];
        let col = NullableColumn::from_values(DataType::I64, &vals).unwrap();
        assert_eq!(MinMax::from_column(&col), MinMax::Int { min: 5, max: 7 });
        let all_null =
            NullableColumn::from_values(DataType::I64, &[Value::Null, Value::Null]).unwrap();
        assert_eq!(MinMax::from_column(&all_null), MinMax::None);
        assert!(MinMax::None.may_match(PruneOp::Eq, &Value::I64(1)));
    }

    #[test]
    fn minmax_strings() {
        let col = NullableColumn::not_null(ColumnData::Str(StrColumn::from_iter([
            "delta", "alpha", "mike",
        ])));
        let mm = MinMax::from_column(&col);
        assert_eq!(
            mm,
            MinMax::Str {
                min: "alpha".into(),
                max: "mike".into()
            }
        );
        assert!(mm.may_match(PruneOp::Eq, &Value::Str("delta".into())));
        assert!(!mm.may_match(PruneOp::Eq, &Value::Str("zulu".into())));
        // unknown bound type → conservative keep
        assert!(mm.may_match(PruneOp::Eq, &Value::I64(1)));
    }

    #[test]
    fn minmax_float_nan_gives_up() {
        let col = NullableColumn::not_null(ColumnData::F64(vec![1.0, f64::NAN]));
        assert_eq!(MinMax::from_column(&col), MinMax::None);
        let col = NullableColumn::not_null(ColumnData::F64(vec![1.0, 2.0]));
        assert_eq!(
            MinMax::from_column(&col),
            MinMax::Float { min: 1.0, max: 2.0 }
        );
    }

    #[test]
    fn block_roundtrip_with_and_without_nulls() {
        let vals = vec![Value::I64(1), Value::Null, Value::I64(3)];
        let col = NullableColumn::from_values(DataType::I64, &vals).unwrap();
        let (bytes, _) = encode_block(&col);
        let back = decode_block(&bytes).unwrap();
        assert_eq!(back, col);

        let col2 = NullableColumn::not_null(ColumnData::I64(vec![4, 5, 6]));
        let (bytes2, _) = encode_block(&col2);
        let back2 = decode_block(&bytes2).unwrap();
        assert_eq!(back2, col2);
        assert!(back2.nulls.is_none());
    }

    #[test]
    fn decode_corrupt_block_errors() {
        assert!(decode_block(&[]).is_err());
        let col = NullableColumn::not_null(ColumnData::I64(vec![1]));
        let (bytes, _) = encode_block(&col);
        assert!(decode_block(&bytes[..bytes.len() - 1]).is_err());
        let mut bad = bytes.clone();
        bad[0] = 1; // claims nulls present, but payload is not a bitvec
        assert!(decode_block(&bad).is_err());
    }
}
