//! Uncompressed in-memory column representation.
//!
//! [`ColumnData`] is the *physical* shape of a column chunk: a dense typed
//! array. The logical type lives in the schema; logical `Date` maps onto
//! physical `I32`, which is how date columns get integer kernels and
//! PFOR-DELTA compression for free.
//!
//! NULLs follow the paper's two-column representation (§I-B): a value column
//! holding a "safe" value at NULL positions plus a separate indicator bitmap,
//! so kernels never branch on NULL.

use std::sync::Arc;
use vw_common::{BitVec, DataType, Value, VwError};

/// Variable-length string column: concatenated bytes plus offsets.
/// `offsets.len() == n + 1`; string `i` is `bytes[offsets[i]..offsets[i+1]]`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StrColumn {
    pub offsets: Vec<u32>,
    pub bytes: Vec<u8>,
}

impl StrColumn {
    pub fn new() -> Self {
        StrColumn {
            offsets: vec![0],
            bytes: Vec::new(),
        }
    }

    pub fn with_capacity(n: usize, byte_cap: usize) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        StrColumn {
            offsets,
            bytes: Vec::with_capacity(byte_cap),
        }
    }

    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    pub fn get(&self, i: usize) -> &str {
        let s = self.offsets[i] as usize;
        let e = self.offsets[i + 1] as usize;
        // Storage only ever holds valid UTF-8 (built via `push`).
        std::str::from_utf8(&self.bytes[s..e]).expect("corrupt string column")
    }

    #[inline]
    pub fn get_bytes(&self, i: usize) -> &[u8] {
        let s = self.offsets[i] as usize;
        let e = self.offsets[i + 1] as usize;
        &self.bytes[s..e]
    }

    pub fn push(&mut self, s: &str) {
        self.bytes.extend_from_slice(s.as_bytes());
        self.offsets.push(self.bytes.len() as u32);
    }

    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Build from an iterator of string slices.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<'a>(it: impl IntoIterator<Item = &'a str>) -> Self {
        let mut c = StrColumn::new();
        for s in it {
            c.push(s);
        }
        c
    }
}

/// Bytes [`DictColumn::materialize`] copies per move.
const MOVE: usize = 16;

/// A string vector still in dictionary form: one `u32` code per value into
/// a shared, immutable dictionary — how a scan hands out a PDICT block
/// without building its strings. A vector has exactly one dictionary, and
/// every code was checked against its length when the vector was made, so
/// readers index the dictionary without a check of their own. The codes of
/// two vectors mean the same strings only if they share the dictionary
/// ([`DictColumn::same_dict`]); anything that combines vectors of different
/// dictionaries goes through [`DictColumn::materialize`] first.
#[derive(Debug, Clone, PartialEq)]
pub struct DictColumn {
    codes: Vec<u32>,
    dict: Arc<StrColumn>,
}

impl DictColumn {
    /// `None` when a code lies outside the dictionary.
    pub fn new(codes: Vec<u32>, dict: Arc<StrColumn>) -> Option<DictColumn> {
        // One branch-free pass; an empty vector needs no dictionary entry.
        let top = codes.iter().fold(0, |m, &c| m.max(c)) as usize;
        (codes.is_empty() || top < dict.len()).then_some(DictColumn { codes, dict })
    }

    pub fn len(&self) -> usize {
        self.codes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    pub fn dict(&self) -> &Arc<StrColumn> {
        &self.dict
    }

    pub fn same_dict(&self, other: &DictColumn) -> bool {
        Arc::ptr_eq(&self.dict, &other.dict)
    }

    /// The bytes of value `i`.
    #[inline]
    pub fn get_bytes(&self, i: usize) -> &[u8] {
        self.dict.get_bytes(self.codes[i] as usize)
    }

    /// An empty vector over the same dictionary, with room for `n` codes.
    pub fn empty_like(&self, n: usize) -> DictColumn {
        DictColumn {
            codes: Vec::with_capacity(n),
            dict: Arc::clone(&self.dict),
        }
    }

    /// Append the listed positions of `src` (all of it without a list),
    /// which must share this vector's dictionary.
    pub fn extend_from(&mut self, src: &DictColumn, positions: Option<&[u32]>) {
        assert!(self.same_dict(src), "codes of two dictionaries never mix");
        match positions {
            Some(p) => self.codes.extend(p.iter().map(|&i| src.codes[i as usize])),
            None => self.codes.extend_from_slice(&src.codes),
        }
    }

    /// Heap bytes of the codes, by capacity. The dictionary is shared with
    /// the block cursor that made it and is not this vector's to count.
    pub fn heap_bytes(&self) -> usize {
        self.codes.capacity() * 4
    }

    /// The strings the codes stand for: the one place a dictionary vector
    /// turns into a string column. The offsets are summed first, so the
    /// bytes are allocated once. Unless the dictionary outweighs the
    /// strings, it is then copied once with [`MOVE`] bytes of padding and
    /// each string copied in whole [`MOVE`]-byte moves out of that copy:
    /// what a move writes past its string's end, the next string overwrites
    /// or the final truncation cuts off.
    pub fn materialize(&self) -> StrColumn {
        let (dict, mut end) = (&*self.dict, 0usize);
        let mut offsets = Vec::with_capacity(self.len() + 1);
        offsets.push(0);
        offsets.extend(self.codes.iter().map(|&c| {
            end += dict.get_bytes(c as usize).len();
            end as u32
        }));
        if dict.bytes.len() > end {
            let mut bytes = Vec::with_capacity(end);
            for &c in &self.codes {
                bytes.extend_from_slice(dict.get_bytes(c as usize));
            }
            return StrColumn { offsets, bytes };
        }
        let padded = [&dict.bytes[..], &[0; MOVE]].concat();
        let mut bytes = vec![0u8; end + MOVE];
        for (i, &c) in self.codes.iter().enumerate() {
            let (mut src, mut at) = (dict.offsets[c as usize] as usize, offsets[i] as usize);
            while at < offsets[i + 1] as usize {
                bytes[at..at + MOVE].copy_from_slice(&padded[src..src + MOVE]);
                (src, at) = (src + MOVE, at + MOVE);
            }
        }
        bytes.truncate(end);
        StrColumn { offsets, bytes }
    }
}

/// A dense, typed, uncompressed column chunk.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Bool(Vec<bool>),
    I32(Vec<i32>),
    I64(Vec<i64>),
    F64(Vec<f64>),
    Str(StrColumn),
    /// A string column in dictionary form; see [`DictColumn`]. Made by scans
    /// only: a column being built is always `Str`.
    Dict(DictColumn),
}

impl ColumnData {
    /// The physical representation used for a logical type.
    pub fn physical_type(ty: DataType) -> DataType {
        match ty {
            DataType::Date => DataType::I32,
            other => other,
        }
    }

    /// An empty column of the physical representation of `ty`.
    pub fn empty(ty: DataType) -> Self {
        match Self::physical_type(ty) {
            DataType::Bool => ColumnData::Bool(Vec::new()),
            DataType::I32 => ColumnData::I32(Vec::new()),
            DataType::I64 => ColumnData::I64(Vec::new()),
            DataType::F64 => ColumnData::F64(Vec::new()),
            DataType::Str => ColumnData::Str(StrColumn::new()),
            DataType::Date => unreachable!("date maps to i32"),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::I32(v) => v.len(),
            ColumnData::I64(v) => v.len(),
            ColumnData::F64(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Dict(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The same column with a dictionary vector turned into its strings;
    /// every other column as it is.
    pub fn materialize(self) -> ColumnData {
        match self {
            ColumnData::Dict(d) => ColumnData::Str(d.materialize()),
            other => other,
        }
    }

    /// The "safe" placeholder stored at NULL positions (paper §I-B): any
    /// in-domain value works because the indicator column masks it out.
    pub fn push_safe_null(&mut self) {
        match self {
            ColumnData::Bool(v) => v.push(false),
            ColumnData::I32(v) => v.push(0),
            ColumnData::I64(v) => v.push(0),
            ColumnData::F64(v) => v.push(0.0),
            ColumnData::Str(v) => v.push(""),
            ColumnData::Dict(_) => panic!("a dictionary vector is never built by value"),
        }
    }

    /// Append a non-null `Value`; errors on a type mismatch.
    pub fn push_value(&mut self, value: &Value) -> Result<(), VwError> {
        match (self, value) {
            (ColumnData::Bool(v), Value::Bool(b)) => v.push(*b),
            (ColumnData::I32(v), Value::I32(x)) => v.push(*x),
            (ColumnData::I32(v), Value::Date(x)) => v.push(*x),
            (ColumnData::I64(v), Value::I64(x)) => v.push(*x),
            (ColumnData::I64(v), Value::I32(x)) => v.push(*x as i64),
            (ColumnData::F64(v), Value::F64(x)) => v.push(*x),
            (ColumnData::F64(v), Value::I32(x)) => v.push(*x as f64),
            (ColumnData::F64(v), Value::I64(x)) => v.push(*x as f64),
            (ColumnData::Str(v), Value::Str(s)) => v.push(s),
            (me, v) => {
                return Err(VwError::Storage(format!(
                    "cannot append {:?} to {} column",
                    v,
                    me.type_name()
                )))
            }
        }
        Ok(())
    }

    /// Read position `i` back as a `Value` with logical type `ty`.
    pub fn get_value(&self, i: usize, ty: DataType) -> Value {
        match self {
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::I32(v) => {
                if ty == DataType::Date {
                    Value::Date(v[i])
                } else {
                    Value::I32(v[i])
                }
            }
            ColumnData::I64(v) => Value::I64(v[i]),
            ColumnData::F64(v) => Value::F64(v[i]),
            ColumnData::Str(v) => Value::Str(v.get(i).to_string()),
            ColumnData::Dict(v) => Value::Str(v.dict.get(v.codes[i] as usize).to_string()),
        }
    }

    pub fn type_name(&self) -> &'static str {
        match self {
            ColumnData::Bool(_) => "bool",
            ColumnData::I32(_) => "i32",
            ColumnData::I64(_) => "i64",
            ColumnData::F64(_) => "f64",
            ColumnData::Str(_) => "str",
            ColumnData::Dict(_) => "dict",
        }
    }

    /// Copy positions `[from, to)` into a new column (PAX group slicing).
    pub fn slice(&self, from: usize, to: usize) -> ColumnData {
        match self {
            ColumnData::Bool(v) => ColumnData::Bool(v[from..to].to_vec()),
            ColumnData::I32(v) => ColumnData::I32(v[from..to].to_vec()),
            ColumnData::I64(v) => ColumnData::I64(v[from..to].to_vec()),
            ColumnData::F64(v) => ColumnData::F64(v[from..to].to_vec()),
            ColumnData::Str(v) => {
                // One copy of the byte range, offsets rebased to it.
                let (lo, hi) = (v.offsets[from], v.offsets[to]);
                ColumnData::Str(StrColumn {
                    offsets: v.offsets[from..=to].iter().map(|o| o - lo).collect(),
                    bytes: v.bytes[lo as usize..hi as usize].to_vec(),
                })
            }
            ColumnData::Dict(v) => ColumnData::Dict(DictColumn {
                codes: v.codes[from..to].to_vec(),
                dict: Arc::clone(&v.dict),
            }),
        }
    }

    /// Append positions `[from, to)` of `src`, a column of the same physical
    /// type.
    pub fn extend_from_range(&mut self, src: &ColumnData, from: usize, to: usize) {
        match (self, src) {
            (ColumnData::Bool(d), ColumnData::Bool(s)) => d.extend_from_slice(&s[from..to]),
            (ColumnData::I32(d), ColumnData::I32(s)) => d.extend_from_slice(&s[from..to]),
            (ColumnData::I64(d), ColumnData::I64(s)) => d.extend_from_slice(&s[from..to]),
            (ColumnData::F64(d), ColumnData::F64(s)) => d.extend_from_slice(&s[from..to]),
            (ColumnData::Str(d), ColumnData::Str(s)) => {
                let (lo, hi) = (s.offsets[from], s.offsets[to]);
                let base = d.bytes.len() as u32;
                d.bytes
                    .extend_from_slice(&s.bytes[lo as usize..hi as usize]);
                d.offsets
                    .extend(s.offsets[from + 1..=to].iter().map(|o| o - lo + base));
            }
            (d, s) => panic!("extend_from_range: {} <- {}", d.type_name(), s.type_name()),
        }
    }

    /// Copy the listed positions, in list order, into a new dense column.
    pub fn gather(&self, positions: &[u32]) -> ColumnData {
        let at = |&i: &u32| i as usize;
        match self {
            ColumnData::Bool(v) => ColumnData::Bool(positions.iter().map(|i| v[at(i)]).collect()),
            ColumnData::I32(v) => ColumnData::I32(positions.iter().map(|i| v[at(i)]).collect()),
            ColumnData::I64(v) => ColumnData::I64(positions.iter().map(|i| v[at(i)]).collect()),
            ColumnData::F64(v) => ColumnData::F64(positions.iter().map(|i| v[at(i)]).collect()),
            ColumnData::Str(v) => {
                let mut out = StrColumn::with_capacity(positions.len(), positions.len() * 8);
                for i in positions {
                    out.push(v.get(at(i)));
                }
                ColumnData::Str(out)
            }
            ColumnData::Dict(v) => {
                let mut out = v.empty_like(positions.len());
                out.extend_from(v, Some(positions));
                ColumnData::Dict(out)
            }
        }
    }

    /// Heap bytes this chunk occupies uncompressed (for compression ratios).
    pub fn uncompressed_bytes(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::I32(v) => v.len() * 4,
            ColumnData::I64(v) => v.len() * 8,
            ColumnData::F64(v) => v.len() * 8,
            ColumnData::Str(v) => v.bytes.len() + v.offsets.len() * 4,
            ColumnData::Dict(v) => v.len() * 4,
        }
    }
}

/// A column chunk plus its optional NULL indicator — the unit the rest of the
/// system passes around.
#[derive(Debug, Clone, PartialEq)]
pub struct NullableColumn {
    pub data: ColumnData,
    /// One bit per value; `true` = NULL. Absent means "no NULLs".
    pub nulls: Option<BitVec>,
}

impl NullableColumn {
    pub fn not_null(data: ColumnData) -> Self {
        NullableColumn { data, nulls: None }
    }

    pub fn new(data: ColumnData, nulls: Option<BitVec>) -> Self {
        if let Some(n) = &nulls {
            assert_eq!(n.len(), data.len(), "indicator length mismatch");
        }
        NullableColumn { data, nulls }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls.as_ref().is_some_and(|n| n.get(i))
    }

    pub fn null_count(&self) -> usize {
        self.nulls.as_ref().map_or(0, |n| n.count_ones())
    }

    /// Read position `i` as a `Value` with logical type `ty` (NULL-aware).
    pub fn get_value(&self, i: usize, ty: DataType) -> Value {
        if self.is_null(i) {
            Value::Null
        } else {
            self.data.get_value(i, ty)
        }
    }

    /// An empty, growable chunk of logical type `ty`.
    pub fn empty(ty: DataType) -> Self {
        NullableColumn::not_null(ColumnData::empty(ty))
    }

    /// Append one value; NULL stores the safe placeholder under a set bit.
    pub fn push(&mut self, value: &Value) -> Result<(), VwError> {
        let at = self.len();
        if value.is_null() {
            self.data.push_safe_null();
            self.nulls
                .get_or_insert_with(|| BitVec::filled(at, false))
                .push(true);
        } else {
            self.data.push_value(value)?;
            if let Some(n) = &mut self.nulls {
                n.push(false);
            }
        }
        Ok(())
    }

    /// Append rows `[from, to)` of `src`, a chunk of the same physical type.
    pub fn extend_from_range(&mut self, src: &NullableColumn, from: usize, to: usize) {
        let at = self.len();
        self.data.extend_from_range(&src.data, from, to);
        match (&mut self.nulls, &src.nulls) {
            (None, None) => {}
            (Some(d), None) => (from..to).for_each(|_| d.push(false)),
            (d, Some(s)) => {
                let d = d.get_or_insert_with(|| BitVec::filled(at, false));
                (from..to).for_each(|i| d.push(s.get(i)));
            }
        }
    }

    /// Copy the listed positions, in list order, into a new chunk; the
    /// indicator is dropped when no gathered position is NULL.
    pub fn gather(&self, positions: &[u32]) -> NullableColumn {
        let nulls = self
            .nulls
            .as_ref()
            .map(|b| positions.iter().map(|&p| b.get(p as usize)).collect());
        NullableColumn::new(self.data.gather(positions), nulls).normalize()
    }

    /// Drop the indicator if it is all-false (normalization after merges).
    pub fn normalize(mut self) -> Self {
        if let Some(n) = &self.nulls {
            if !n.any() {
                self.nulls = None;
            }
        }
        self
    }

    /// Build from `Value`s (bulk-load path). `ty` is the logical type.
    pub fn from_values(ty: DataType, values: &[Value]) -> Result<Self, VwError> {
        let mut col = NullableColumn::empty(ty);
        for v in values {
            col.push(v)?;
        }
        Ok(col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn str_column_roundtrip() {
        let mut c = StrColumn::new();
        c.push("hello");
        c.push("");
        c.push("wörld");
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), "hello");
        assert_eq!(c.get(1), "");
        assert_eq!(c.get(2), "wörld");
        assert_eq!(c.iter().collect::<Vec<_>>(), vec!["hello", "", "wörld"]);
        assert_eq!(c.get_bytes(2), "wörld".as_bytes());
    }

    #[test]
    fn date_maps_to_i32() {
        let mut c = ColumnData::empty(DataType::Date);
        assert_eq!(c.type_name(), "i32");
        c.push_value(&Value::Date(9000)).unwrap();
        assert_eq!(c.get_value(0, DataType::Date), Value::Date(9000));
        assert_eq!(c.get_value(0, DataType::I32), Value::I32(9000));
    }

    #[test]
    fn push_value_type_checks() {
        let mut c = ColumnData::empty(DataType::I64);
        c.push_value(&Value::I64(5)).unwrap();
        c.push_value(&Value::I32(6)).unwrap(); // implicit widen
        assert!(c.push_value(&Value::Str("x".into())).is_err());
        assert_eq!(c.len(), 2);
        assert_eq!(c.get_value(1, DataType::I64), Value::I64(6));
    }

    #[test]
    fn nullable_from_values() {
        let vals = vec![Value::I64(1), Value::Null, Value::I64(3)];
        let c = NullableColumn::from_values(DataType::I64, &vals).unwrap();
        assert_eq!(c.len(), 3);
        assert!(c.is_null(1));
        assert!(!c.is_null(0));
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.get_value(1, DataType::I64), Value::Null);
        assert_eq!(c.get_value(2, DataType::I64), Value::I64(3));
        // safe value stored under the NULL
        assert_eq!(c.data.get_value(1, DataType::I64), Value::I64(0));
    }

    #[test]
    fn from_values_no_nulls_has_no_indicator() {
        let vals = vec![Value::F64(1.5), Value::F64(2.5)];
        let c = NullableColumn::from_values(DataType::F64, &vals).unwrap();
        assert!(c.nulls.is_none());
    }

    #[test]
    fn normalize_drops_empty_indicator() {
        let data = ColumnData::I32(vec![1, 2]);
        let c = NullableColumn::new(data, Some(BitVec::filled(2, false))).normalize();
        assert!(c.nulls.is_none());
        let data = ColumnData::I32(vec![1, 2]);
        let mut bits = BitVec::filled(2, false);
        bits.set(0, true);
        let c = NullableColumn::new(data, Some(bits)).normalize();
        assert!(c.nulls.is_some());
    }

    /// Both ways a dictionary vector is copied out — in whole moves out of a
    /// padded dictionary, and string by string when the dictionary
    /// outweighs the strings — give the strings the codes stand for,
    /// whatever their lengths around the move size and wherever they lie.
    #[test]
    fn dictionary_vectors_materialize_to_their_strings() {
        let long = "x".repeat(40);
        let entries = [
            "",
            "a",
            "ü",
            &"b".repeat(15),
            &"c".repeat(16),
            &"d".repeat(17),
            &long,
        ];
        let dict = Arc::new(StrColumn::from_iter(entries));
        let many: Vec<u32> = (0..200).map(|i| (i * 5 % 7) as u32).collect();
        for codes in [many, vec![6, 0, 6], vec![2], vec![0], vec![]] {
            let want = StrColumn::from_iter(codes.iter().map(|&c| entries[c as usize]));
            let v = DictColumn::new(codes.clone(), Arc::clone(&dict)).unwrap();
            assert_eq!(v.materialize(), want, "codes {:?}", codes);
        }
    }

    #[test]
    fn slicing() {
        let c = ColumnData::Str(StrColumn::from_iter(["a", "bb", "ccc", "dddd"]));
        let s = c.slice(1, 3);
        match s {
            ColumnData::Str(sc) => {
                assert_eq!(sc.iter().collect::<Vec<_>>(), vec!["bb", "ccc"]);
            }
            _ => panic!(),
        }
        let c = ColumnData::I64(vec![10, 20, 30]);
        assert_eq!(c.slice(0, 2), ColumnData::I64(vec![10, 20]));
    }

    #[test]
    fn uncompressed_sizes() {
        assert_eq!(ColumnData::I32(vec![0; 10]).uncompressed_bytes(), 40);
        assert_eq!(ColumnData::F64(vec![0.0; 10]).uncompressed_bytes(), 80);
        let s = ColumnData::Str(StrColumn::from_iter(["ab", "c"]));
        assert_eq!(s.uncompressed_bytes(), 3 + 3 * 4);
    }
}
