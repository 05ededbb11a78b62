//! Vectors and batches — the unit of data flow between operators.
//!
//! An [`ExecVector`] is a typed value array ([`ColumnData`], shared with the
//! storage layer) plus an optional *widened* NULL indicator (`Vec<bool>`, one
//! byte per value, so kernels index it without bit twiddling — storage keeps
//! the packed form, §I-B's PAX pair).
//!
//! A [`Batch`] is a set of equal-length vectors plus an optional **selection
//! vector**: a list of qualifying row positions. Filters produce selection
//! vectors instead of copying survivors — the X100 trick that makes selective
//! scans nearly free. Kernels take the selection as a parameter; operators
//! that need dense input call [`Batch::compact`].
//!
//! A string vector may arrive in **dictionary form** (`ColumnData::Dict`:
//! codes over the dictionary of the PDICT block a scan read them from) and
//! stays that way through selection, compaction and gathers. Operators
//! that know the form work on the codes; every other consumer first calls
//! [`Batch::materialize`] / [`ExecVector::materialize`], the one way back to
//! strings. Appending vectors of two different dictionaries materializes
//! too: the codes of one dictionary mean nothing in another.

use vw_common::{BitVec, DataType, Result, Schema, Value, VwError};
use vw_storage::{ColumnData, NullableColumn, StrColumn};

/// A typed vector with an optional byte-per-value NULL indicator.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecVector {
    pub data: ColumnData,
    /// `true` = NULL at that position. `None` = no NULLs.
    pub nulls: Option<Vec<bool>>,
}

impl ExecVector {
    pub fn not_null(data: ColumnData) -> ExecVector {
        ExecVector { data, nulls: None }
    }

    pub fn new(data: ColumnData, nulls: Option<Vec<bool>>) -> ExecVector {
        if let Some(n) = &nulls {
            assert_eq!(n.len(), data.len(), "null indicator length mismatch");
        }
        ExecVector { data, nulls }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls.as_ref().is_some_and(|n| n[i])
    }

    /// Convert from the storage representation (packed indicator).
    pub fn from_storage(col: NullableColumn) -> ExecVector {
        let nulls = col.nulls.as_ref().map(widen_bits);
        ExecVector {
            data: col.data,
            nulls,
        }
    }

    /// Read one position as a `Value` with logical type `ty`.
    pub fn get_value(&self, i: usize, ty: DataType) -> Value {
        if self.is_null(i) {
            Value::Null
        } else {
            self.data.get_value(i, ty)
        }
    }

    /// Gather positions into a new dense vector.
    pub fn gather(&self, positions: &[u32]) -> ExecVector {
        let mut out = self.empty_like(positions.len());
        out.extend_from(self, Some(positions));
        out
    }

    /// An empty vector of this one's physical type with room for `n` rows.
    pub fn empty_like(&self, n: usize) -> ExecVector {
        ExecVector::not_null(match &self.data {
            ColumnData::Bool(_) => ColumnData::Bool(Vec::with_capacity(n)),
            ColumnData::I32(_) => ColumnData::I32(Vec::with_capacity(n)),
            ColumnData::I64(_) => ColumnData::I64(Vec::with_capacity(n)),
            ColumnData::F64(_) => ColumnData::F64(Vec::with_capacity(n)),
            ColumnData::Str(_) => ColumnData::Str(StrColumn::with_capacity(n, n * 8)),
            ColumnData::Dict(d) => ColumnData::Dict(d.empty_like(n)),
        })
    }

    /// This vector with a dictionary column turned into its strings (any
    /// other vector as it is): what a consumer that does not read codes
    /// calls first.
    pub fn materialize(self) -> ExecVector {
        ExecVector {
            data: self.data.materialize(),
            nulls: self.nulls,
        }
    }

    /// Copy positions `[from, to)` into a new vector (scan batching).
    pub fn slice(&self, from: usize, to: usize) -> ExecVector {
        ExecVector {
            data: self.data.slice(from, to),
            nulls: self.nulls.as_ref().map(|n| n[from..to].to_vec()),
        }
    }

    /// An all-NULL vector of logical type `ty` (LEFT-join padding).
    pub fn all_null(ty: DataType, len: usize) -> ExecVector {
        let mut data = ColumnData::empty(ty);
        for _ in 0..len {
            data.push_safe_null();
        }
        ExecVector {
            data,
            nulls: Some(vec![true; len]),
        }
    }

    /// An empty, growable vector of logical type `ty`.
    pub fn empty(ty: DataType) -> ExecVector {
        ExecVector::not_null(ColumnData::empty(ty))
    }

    /// Append rows of `src` (same physical type): the listed `lanes` in list
    /// order, or every row. The column type is matched once per call.
    /// Dictionary vectors stay coded only while both sides share one
    /// dictionary; otherwise this vector becomes (or already is) a string
    /// column and the appended rows are copied out of `src`'s dictionary.
    pub fn extend_from(&mut self, src: &ExecVector, lanes: Option<&[u32]>) {
        fn ext<T: Copy>(dst: &mut Vec<T>, src: &[T], lanes: Option<&[u32]>) {
            match lanes {
                Some(l) => dst.extend(l.iter().map(|&i| src[i as usize])),
                None => dst.extend_from_slice(src),
            }
        }
        let before = self.len();
        let keeps_codes = matches!(
            (&self.data, &src.data),
            (ColumnData::Dict(d), ColumnData::Dict(s)) if d.same_dict(s)
        );
        if matches!(self.data, ColumnData::Dict(_)) && !keeps_codes {
            let coded = std::mem::replace(&mut self.data, ColumnData::Bool(Vec::new()));
            self.data = coded.materialize();
        }
        match (&mut self.data, &src.data) {
            (ColumnData::Bool(d), ColumnData::Bool(s)) => ext(d, s, lanes),
            (ColumnData::I32(d), ColumnData::I32(s)) => ext(d, s, lanes),
            (ColumnData::I64(d), ColumnData::I64(s)) => ext(d, s, lanes),
            (ColumnData::F64(d), ColumnData::F64(s)) => ext(d, s, lanes),
            (ColumnData::Str(d), ColumnData::Str(s)) => match lanes {
                Some(l) => {
                    for &i in l {
                        d.bytes.extend_from_slice(s.get_bytes(i as usize));
                        d.offsets.push(d.bytes.len() as u32);
                    }
                }
                None => {
                    let base = d.bytes.len() as u32;
                    d.bytes.extend_from_slice(&s.bytes);
                    d.offsets.extend(s.offsets[1..].iter().map(|o| o + base));
                }
            },
            (ColumnData::Dict(d), ColumnData::Dict(s)) => d.extend_from(s, lanes),
            (ColumnData::Str(d), ColumnData::Dict(s)) => {
                let mut push = |i: usize| {
                    d.bytes.extend_from_slice(s.get_bytes(i));
                    d.offsets.push(d.bytes.len() as u32);
                };
                match lanes {
                    Some(l) => l.iter().for_each(|&i| push(i as usize)),
                    None => (0..s.len()).for_each(push),
                }
            }
            (d, s) => panic!("extend_from: {} <- {}", d.type_name(), s.type_name()),
        }
        let added = self.len() - before;
        match (&mut self.nulls, &src.nulls) {
            (None, None) => {}
            (Some(d), None) => d.resize(before + added, false),
            (d, Some(s)) => {
                let d = d.get_or_insert_with(|| vec![false; before]);
                ext(d, s, lanes);
            }
        }
    }

    /// Heap bytes held, by capacity (what the allocator handed out).
    pub fn heap_bytes(&self) -> usize {
        let data = match &self.data {
            ColumnData::Bool(v) => v.capacity(),
            ColumnData::I32(v) => v.capacity() * 4,
            ColumnData::I64(v) => v.capacity() * 8,
            ColumnData::F64(v) => v.capacity() * 8,
            ColumnData::Str(v) => v.bytes.capacity() + v.offsets.capacity() * 4,
            ColumnData::Dict(v) => v.heap_bytes(),
        };
        data + self.nulls.as_ref().map_or(0, |n| n.capacity())
    }

    /// Build from `Value`s (test helper and slow paths).
    pub fn from_values(ty: DataType, values: &[Value]) -> Result<ExecVector> {
        Ok(ExecVector::from_storage(NullableColumn::from_values(
            ty, values,
        )?))
    }
}

/// Widen a packed bit indicator to one byte per value.
pub fn widen_bits(bits: &BitVec) -> Vec<bool> {
    bits.iter().collect()
}

/// A batch: columns + optional selection vector.
#[derive(Debug, Clone)]
pub struct Batch {
    pub columns: Vec<ExecVector>,
    /// Qualifying positions, ascending. `None` = all rows qualify.
    pub sel: Option<Vec<u32>>,
    /// Physical row count of every column.
    pub rows: usize,
}

impl Batch {
    pub fn new(columns: Vec<ExecVector>) -> Batch {
        let rows = columns.first().map_or(0, |c| c.len());
        debug_assert!(columns.iter().all(|c| c.len() == rows), "ragged batch");
        Batch {
            columns,
            sel: None,
            rows,
        }
    }

    pub fn with_sel(columns: Vec<ExecVector>, sel: Vec<u32>) -> Batch {
        let rows = columns.first().map_or(0, |c| c.len());
        debug_assert!(sel.iter().all(|&i| (i as usize) < rows));
        Batch {
            columns,
            sel: Some(sel),
            rows,
        }
    }

    /// An empty batch with no columns and no rows (COUNT(*) sources still
    /// need row counts; use `rows` directly).
    pub fn empty() -> Batch {
        Batch {
            columns: vec![],
            sel: None,
            rows: 0,
        }
    }

    /// Logical (selected) row count.
    pub fn len(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.rows,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate logical positions (selected physical indexes).
    pub fn positions(&self) -> Box<dyn Iterator<Item = usize> + '_> {
        match &self.sel {
            Some(s) => Box::new(s.iter().map(|&i| i as usize)),
            None => Box::new(0..self.rows),
        }
    }

    /// Materialize the selection: gather selected rows into dense columns.
    /// No-op when there is no selection.
    pub fn compact(self) -> Batch {
        match self.sel {
            None => self,
            Some(sel) => {
                let columns = self
                    .columns
                    .iter()
                    .map(|c| c.gather(&sel))
                    .collect::<Vec<_>>();
                let rows = sel.len();
                Batch {
                    columns,
                    sel: None,
                    rows,
                }
            }
        }
    }

    /// The batch dense and free of dictionary vectors: what sorts, join
    /// build sides, spills, the Exchange hand-off and the baselines' barrier
    /// take in.
    pub fn materialize(self) -> Batch {
        let mut b = self.compact();
        b.columns = b.columns.into_iter().map(|c| c.materialize()).collect();
        b
    }

    /// Read one logical row as `Value`s (result delivery; not a hot path).
    pub fn row_values(&self, logical: usize, schema: &Schema) -> Vec<Value> {
        let phys = match &self.sel {
            Some(s) => s[logical] as usize,
            None => logical,
        };
        self.columns
            .iter()
            .zip(schema.fields())
            .map(|(c, f)| c.get_value(phys, f.ty))
            .collect()
    }

    /// Convert a whole batch into rows (result delivery).
    pub fn to_rows(&self, schema: &Schema) -> Vec<Vec<Value>> {
        (0..self.len())
            .map(|i| self.row_values(i, schema))
            .collect()
    }

    /// Build a batch from rows (test helper).
    pub fn from_rows(schema: &Schema, rows: &[Vec<Value>]) -> Result<Batch> {
        let mut cols = Vec::with_capacity(schema.len());
        for (c, f) in schema.fields().iter().enumerate() {
            let vals: Vec<Value> = rows
                .iter()
                .map(|r| {
                    r.get(c)
                        .cloned()
                        .ok_or_else(|| VwError::Exec("short row".into()))
                })
                .collect::<Result<_>>()?;
            cols.push(ExecVector::from_values(f.ty, &vals)?);
        }
        let mut b = Batch::new(cols);
        b.rows = rows.len(); // correct even for zero-column schemas
        Ok(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vw_common::Field;
    use vw_storage::DictColumn;

    fn sample_batch() -> Batch {
        Batch::new(vec![
            ExecVector::not_null(ColumnData::I64(vec![10, 20, 30, 40])),
            ExecVector::new(
                ColumnData::Str(StrColumn::from_iter(["a", "b", "c", "d"])),
                Some(vec![false, true, false, false]),
            ),
        ])
    }

    #[test]
    fn batch_len_and_positions() {
        let b = sample_batch();
        assert_eq!(b.len(), 4);
        assert_eq!(b.positions().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        let s = Batch::with_sel(b.columns.clone(), vec![1, 3]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.positions().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn compact_gathers_and_drops_sel() {
        let b = sample_batch();
        let s = Batch::with_sel(b.columns.clone(), vec![0, 2]);
        let c = s.compact();
        assert!(c.sel.is_none());
        assert_eq!(c.rows, 2);
        match &c.columns[0].data {
            ColumnData::I64(v) => assert_eq!(v, &vec![10, 30]),
            _ => panic!(),
        }
        match &c.columns[1].data {
            ColumnData::Str(s) => assert_eq!(s.iter().collect::<Vec<_>>(), vec!["a", "c"]),
            _ => panic!(),
        }
        assert_eq!(c.columns[1].nulls, Some(vec![false, false]));
    }

    #[test]
    fn compact_without_sel_is_identity() {
        let b = sample_batch();
        let rows = b.rows;
        let c = b.compact();
        assert_eq!(c.rows, rows);
    }

    #[test]
    fn row_values_respect_sel_and_nulls() {
        let schema = Schema::new(vec![
            Field::new("k", DataType::I64),
            Field::nullable("s", DataType::Str),
        ]);
        let b = sample_batch();
        let s = Batch::with_sel(b.columns.clone(), vec![1]);
        let row = s.row_values(0, &schema);
        assert_eq!(row, vec![Value::I64(20), Value::Null]);
        let all = Batch::new(b.columns).to_rows(&schema);
        assert_eq!(all.len(), 4);
        assert_eq!(all[2], vec![Value::I64(30), Value::Str("c".into())]);
    }

    #[test]
    fn from_rows_roundtrip() {
        let schema = Schema::new(vec![
            Field::new("k", DataType::I64),
            Field::nullable("s", DataType::Str),
        ]);
        let rows = vec![
            vec![Value::I64(1), Value::Str("x".into())],
            vec![Value::I64(2), Value::Null],
        ];
        let b = Batch::from_rows(&schema, &rows).unwrap();
        assert_eq!(b.to_rows(&schema), rows);
    }

    #[test]
    fn all_null_vector() {
        let v = ExecVector::all_null(DataType::F64, 3);
        assert_eq!(v.len(), 3);
        assert!(v.is_null(0) && v.is_null(2));
        assert_eq!(v.get_value(1, DataType::F64), Value::Null);
    }

    #[test]
    fn gather_bool_and_f64() {
        let v = ExecVector::not_null(ColumnData::Bool(vec![true, false, true]));
        let g = v.gather(&[2, 0]);
        assert_eq!(g.data, ColumnData::Bool(vec![true, true]));
        let f = ExecVector::not_null(ColumnData::F64(vec![1.5, 2.5]));
        assert_eq!(f.gather(&[1]).data, ColumnData::F64(vec![2.5]));
    }

    fn dict_vector(dict: &Arc<StrColumn>, codes: &[u32], nulls: Option<Vec<bool>>) -> ExecVector {
        let col = DictColumn::new(codes.to_vec(), Arc::clone(dict)).expect("codes in range");
        ExecVector::new(ColumnData::Dict(col), nulls)
    }

    fn strings(v: &ExecVector) -> Vec<Value> {
        (0..v.len())
            .map(|i| v.get_value(i, DataType::Str))
            .collect()
    }

    fn strs(words: &[&str]) -> Vec<Value> {
        words.iter().map(|w| Value::Str(w.to_string())).collect()
    }

    /// Codes travel only beside codes of the same dictionary. Selecting,
    /// gathering and appending over one dictionary keep the vector coded;
    /// the moment a second dictionary (or plain strings) joins, the vector
    /// is strings — the same words in another order must never be read
    /// through the wrong dictionary.
    #[test]
    fn codes_of_two_dictionaries_never_mix() {
        let fruit = Arc::new(StrColumn::from_iter(["apple", "banana", "cherry"]));
        let reordered = Arc::new(StrColumn::from_iter(["cherry", "apple", "banana"]));
        let a = dict_vector(&fruit, &[0, 1, 2, 1], Some(vec![false, false, true, false]));
        let b = dict_vector(&fruit, &[2, 2], None);
        let c = dict_vector(&reordered, &[0, 1, 2], None);
        assert!(DictColumn::new(vec![0, 3], Arc::clone(&fruit)).is_none());

        let g = a.gather(&[3, 0]);
        assert!(matches!(&g.data, ColumnData::Dict(d) if d.codes() == [1, 0]));
        assert_eq!(strings(&g), strs(&["banana", "apple"]));

        let mut same = a.gather(&[0, 1]);
        same.extend_from(&b, None);
        same.extend_from(&a, Some(&[2]));
        assert!(matches!(&same.data, ColumnData::Dict(d) if d.codes() == [0, 1, 2, 2, 2]));
        assert_eq!(
            same.nulls,
            Some(vec![false, false, false, false, true]),
            "the indicator follows the codes"
        );

        // A second dictionary: strings from here on, each read through its own.
        let mut mixed = same.clone();
        mixed.extend_from(&c, Some(&[0, 1]));
        assert!(matches!(mixed.data, ColumnData::Str(_)));
        let mut want = strs(&["apple", "banana", "cherry", "cherry"]);
        want.extend([
            Value::Null,
            Value::Str("cherry".into()),
            Value::Str("apple".into()),
        ]);
        assert_eq!(strings(&mixed), want);
        // ... and a third vector, of either dictionary, appends as strings.
        mixed.extend_from(&b, None);
        mixed.extend_from(&c, None);
        assert_eq!(
            strings(&mixed)[7..],
            strs(&["cherry", "cherry", "cherry", "apple", "banana"])
        );

        // Plain strings beside codes, either way round.
        let plain = ExecVector::not_null(ColumnData::Str(StrColumn::from_iter(["x"])));
        let mut coded_first = b.clone();
        coded_first.extend_from(&plain, None);
        assert_eq!(strings(&coded_first), strs(&["cherry", "cherry", "x"]));
        let mut plain_first = plain.clone();
        plain_first.extend_from(&c, Some(&[2, 0]));
        assert_eq!(strings(&plain_first), strs(&["x", "banana", "cherry"]));

        // Compaction keeps codes; `materialize` is the way out.
        let batch = Batch::with_sel(vec![a.clone(), c.gather(&[0, 1, 2, 0])], vec![1, 3]);
        let dense = batch.clone().compact();
        assert!(dense
            .columns
            .iter()
            .all(|c| matches!(c.data, ColumnData::Dict(_))));
        let flat = batch.materialize();
        assert!(flat.sel.is_none());
        assert!(flat
            .columns
            .iter()
            .all(|c| matches!(c.data, ColumnData::Str(_))));
        assert_eq!(strings(&flat.columns[0]), strs(&["banana", "banana"]));
        assert_eq!(strings(&flat.columns[1]), strs(&["apple", "cherry"]));
    }

    /// A dictionary belongs to the block it was read from, not to the
    /// vectors over it: however many columns of a batch share it, and
    /// however large it is, they account for their codes alone.
    #[test]
    fn a_dictionary_is_never_charged_to_the_vectors_over_it() {
        let words: Vec<String> = (0..5000)
            .map(|i| format!("a long dictionary entry {i}"))
            .collect();
        let big = Arc::new(StrColumn::from_iter(words.iter().map(|w| w.as_str())));
        let small = Arc::new(StrColumn::from_iter(["a"]));
        let codes: Vec<u32> = (0..100).collect();
        let over_big = dict_vector(&big, &codes, None);
        let over_small = dict_vector(&small, &[0; 100], None);
        assert_eq!(over_big.heap_bytes(), 400);
        assert_eq!(over_big.heap_bytes(), over_small.heap_bytes());
        let batch = Batch::new(vec![over_big.clone(), over_big.gather(&codes), over_small]);
        assert_eq!(crate::spill::batch_bytes(&batch), 3 * 400);
        // Once strings, the bytes are the vector's own.
        assert!(over_big.materialize().heap_bytes() > 100 * 20);
    }

    #[test]
    fn from_storage_widens_nulls() {
        let col =
            NullableColumn::from_values(DataType::I64, &[Value::I64(1), Value::Null]).unwrap();
        let v = ExecVector::from_storage(col);
        assert_eq!(v.nulls, Some(vec![false, true]));
    }
}
