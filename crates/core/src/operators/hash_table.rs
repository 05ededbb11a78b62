//! The one hash table under [`super::HashJoin`] and the generic
//! [`super::HashAggregate`], driven a vector at a time.
//!
//! Layout ([`FlatTable`]): a power-of-two `u32` bucket array holding the head
//! of each chain, a `next` array linking entries of one bucket, and each
//! entry's full 64-bit hash. Entries are dense ids (build row numbers, group
//! numbers), so nothing is allocated per key and the table's footprint is
//! three flat arrays sized from the entry count (load ≤ 1/2).
//!
//! A vector goes through in three typed steps, none of which dispatches on
//! the column type per row:
//!
//! 1. [`hash_keys`] folds the key columns of the whole vector into a `u64`
//!    lane array (`vw_common::hash::hash_lanes`, type matched once outside
//!    the loop);
//! 2. the chains are walked comparing *hashes only* — [`FlatTable::candidates`]
//!    for the join (every entry, ascending), [`GroupIndex::find_or_insert`]
//!    for the aggregate (first entry, else a new group);
//! 3. [`verify_keys`] compares the candidates with the actual keys, column by
//!    column, in typed loops. Equal 64-bit hashes of different keys are the
//!    only thing it ever rejects.
//!
//! Key equality is SQL grouping equality: NULL equals NULL (the join never
//! lets a NULL key in), `0.0` equals `-0.0`, every NaN equals every NaN, and
//! an `I32` key equals the `I64` key of the same value. A string key in
//! dictionary form hashes and compares as the string it stands for — the
//! hash computed once per dictionary entry, not per row — so it meets string
//! keys of any other form; the table's own key columns are always strings,
//! a group's bytes copied out of the dictionary when the group is born.

use crate::batch::ExecVector;
use vw_common::hash::{hash_bytes, hash_lanes, NULL_KEY_WORD};
use vw_common::{normalize_key_f64, DataType};
use vw_storage::ColumnData;

/// Smallest bucket array; a 32-row build side gets 64 buckets, not a page.
const MIN_SLOTS: usize = 16;

/// Hash the key columns of one vector into `out`: lane `j` is row `sel[j]`
/// (row `j` of `rows` without a selection). With no key columns every lane
/// hashes to 0.
pub fn hash_keys(cols: &[&ExecVector], sel: Option<&[u32]>, rows: usize, out: &mut Vec<u64>) {
    out.clear();
    out.resize(sel.map_or(rows, |s| s.len()), 0);
    for (k, col) in cols.iter().enumerate() {
        let (first, nulls) = (k == 0, col.nulls.as_deref());
        match &col.data {
            ColumnData::Bool(v) => fold(nulls, sel, out, first, |i| v[i] as u64),
            ColumnData::I32(v) => fold(nulls, sel, out, first, |i| v[i] as i64 as u64),
            ColumnData::I64(v) => fold(nulls, sel, out, first, |i| v[i] as u64),
            ColumnData::F64(v) => fold(nulls, sel, out, first, |i| {
                normalize_key_f64(v[i]).to_bits()
            }),
            ColumnData::Str(v) => fold(nulls, sel, out, first, |i| hash_bytes(v.get_bytes(i))),
            ColumnData::Dict(v) if v.dict().len() <= out.len() => {
                let dict = v.dict();
                let entries: Vec<u64> = (0..dict.len())
                    .map(|e| hash_bytes(dict.get_bytes(e)))
                    .collect();
                let codes = v.codes();
                fold(nulls, sel, out, first, |i| entries[codes[i] as usize])
            }
            ColumnData::Dict(v) => fold(nulls, sel, out, first, |i| hash_bytes(v.get_bytes(i))),
        }
    }
}

fn fold(
    nulls: Option<&[bool]>,
    sel: Option<&[u32]>,
    out: &mut [u64],
    first: bool,
    word: impl Fn(usize) -> u64,
) {
    match nulls {
        None => hash_lanes(sel, out, first, word),
        Some(n) => hash_lanes(
            sel,
            out,
            first,
            |i| {
                if n[i] {
                    NULL_KEY_WORD
                } else {
                    word(i)
                }
            },
        ),
    }
}

/// `ok[k] &= a[ai[k]] == b[bi[k]]` under key equality, the column types
/// matched once. Columns of unrelated types never match.
pub fn verify_keys(a: &ExecVector, ai: &[u32], b: &ExecVector, bi: &[u32], ok: &mut [bool]) {
    fn check(
        (an, bn): (Option<&[bool]>, Option<&[bool]>),
        ai: &[u32],
        bi: &[u32],
        ok: &mut [bool],
        eq: impl Fn(usize, usize) -> bool,
    ) {
        let pairs = ok.iter_mut().zip(ai.iter().zip(bi));
        if an.is_none() && bn.is_none() {
            pairs.for_each(|(o, (&i, &j))| *o &= eq(i as usize, j as usize));
            return;
        }
        for (o, (&i, &j)) in pairs {
            let (i, j) = (i as usize, j as usize);
            let (na, nb) = (an.is_some_and(|n| n[i]), bn.is_some_and(|n| n[j]));
            *o &= if na || nb { na && nb } else { eq(i, j) };
        }
    }
    let nulls = (a.nulls.as_deref(), b.nulls.as_deref());
    match (&a.data, &b.data) {
        (ColumnData::Bool(x), ColumnData::Bool(y)) => check(nulls, ai, bi, ok, |i, j| x[i] == y[j]),
        (ColumnData::I32(x), ColumnData::I32(y)) => check(nulls, ai, bi, ok, |i, j| x[i] == y[j]),
        (ColumnData::I64(x), ColumnData::I64(y)) => check(nulls, ai, bi, ok, |i, j| x[i] == y[j]),
        (ColumnData::I32(x), ColumnData::I64(y)) => {
            check(nulls, ai, bi, ok, |i, j| x[i] as i64 == y[j])
        }
        (ColumnData::I64(x), ColumnData::I32(y)) => {
            check(nulls, ai, bi, ok, |i, j| x[i] == y[j] as i64)
        }
        (ColumnData::F64(x), ColumnData::F64(y)) => check(nulls, ai, bi, ok, |i, j| {
            normalize_key_f64(x[i]).to_bits() == normalize_key_f64(y[j]).to_bits()
        }),
        (ColumnData::Str(x), ColumnData::Str(y)) => {
            check(nulls, ai, bi, ok, |i, j| x.get_bytes(i) == y.get_bytes(j))
        }
        (ColumnData::Dict(x), ColumnData::Str(y)) => {
            check(nulls, ai, bi, ok, |i, j| x.get_bytes(i) == y.get_bytes(j))
        }
        (ColumnData::Str(x), ColumnData::Dict(y)) => {
            check(nulls, ai, bi, ok, |i, j| x.get_bytes(i) == y.get_bytes(j))
        }
        (ColumnData::Dict(x), ColumnData::Dict(y)) => {
            check(nulls, ai, bi, ok, |i, j| x.get_bytes(i) == y.get_bytes(j))
        }
        _ => ok.fill(false),
    }
}

/// Bucket heads, chain links and entry hashes; see the module docs.
pub struct FlatTable {
    /// `heads[hash & mask]`: 1 + id of the chain's first entry, 0 = empty.
    heads: Vec<u32>,
    /// `next[id]`: 1 + id of the next entry of the same bucket, 0 = end.
    next: Vec<u32>,
    hashes: Vec<u64>,
    rehashes: u64,
}

impl FlatTable {
    fn slots_for(entries: usize) -> usize {
        (entries * 2).next_power_of_two().max(MIN_SLOTS)
    }

    /// Heap bytes of a table [`FlatTable::build`] makes over `entries` rows.
    pub fn bytes_for(entries: usize) -> usize {
        Self::slots_for(entries) * 4 + entries * 12
    }

    /// An empty, growing table (the aggregate's).
    pub fn new() -> FlatTable {
        FlatTable {
            heads: vec![0; MIN_SLOTS],
            next: Vec::new(),
            hashes: Vec::new(),
            rehashes: 0,
        }
    }

    /// The join's table over rows `0..hashes.len()`: sized once from the row
    /// count, rows flagged in `skip` (NULL keys) left out. Rows are linked
    /// last to first, so every chain lists its rows in ascending order.
    pub fn build(hashes: Vec<u64>, skip: Option<&[bool]>) -> FlatTable {
        let n = hashes.len();
        let mut heads = vec![0u32; Self::slots_for(n)];
        let mut next = vec![0u32; n];
        let mask = heads.len() - 1;
        for i in (0..n).rev() {
            if skip.is_some_and(|s| s[i]) {
                continue;
            }
            let b = hashes[i] as usize & mask;
            next[i] = heads[b];
            heads[b] = i as u32 + 1;
        }
        FlatTable {
            heads,
            next,
            hashes,
            rehashes: 0,
        }
    }

    /// Entries (linked or skipped).
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Buckets.
    pub fn slots(&self) -> usize {
        self.heads.len()
    }

    /// Entries the table holds before it next doubles.
    pub fn capacity(&self) -> usize {
        self.heads.len() / 2
    }

    pub fn rehashes(&self) -> u64 {
        self.rehashes
    }

    /// The full hash of every entry, by id.
    pub fn hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// Heap bytes held, by capacity.
    pub fn heap_bytes(&self) -> usize {
        (self.heads.capacity() + self.next.capacity()) * 4 + self.hashes.capacity() * 8
    }

    /// Longest bucket chain (an `EXPLAIN ANALYZE` figure; walks every chain).
    pub fn max_chain(&self) -> u64 {
        let mut longest = 0;
        for &head in &self.heads {
            let (mut c, mut len) = (head, 0);
            while c != 0 {
                c = self.next[c as usize - 1];
                len += 1;
            }
            longest = longest.max(len);
        }
        longest
    }

    /// Ids of the entries whose hash is exactly `h`, in chain order.
    #[inline]
    pub fn chain(&self, h: u64) -> impl Iterator<Item = u32> + '_ {
        let mut c = self.heads[h as usize & (self.heads.len() - 1)];
        std::iter::from_fn(move || {
            while c != 0 {
                let id = c - 1;
                c = self.next[id as usize];
                if self.hashes[id as usize] == h {
                    return Some(id);
                }
            }
            None
        })
    }

    /// Append an entry with hash `h` at the head of its chain; returns its
    /// id. The bucket array doubles when the load would pass 1/2.
    pub fn push(&mut self, h: u64) -> u32 {
        if self.hashes.len() == self.capacity() {
            self.heads = vec![0; self.heads.len() * 2];
            self.rehashes += 1;
            let mask = self.heads.len() - 1;
            for (id, &h) in self.hashes.iter().enumerate() {
                let b = h as usize & mask;
                self.next[id] = self.heads[b];
                self.heads[b] = id as u32 + 1;
            }
        }
        let id = self.hashes.len() as u32;
        let b = h as usize & (self.heads.len() - 1);
        self.hashes.push(h);
        self.next.push(self.heads[b]);
        self.heads[b] = id + 1;
        id
    }

    /// Join probe: for lane `j` (probe row `sel[j]`, or `j`) every entry
    /// whose hash equals `hashes[j]` is appended as a pair `(probe row,
    /// entry)` — pairs ordered by lane, entries ascending within a lane. Rows
    /// flagged in `skip` (NULL keys) get no pairs.
    pub fn candidates(
        &self,
        hashes: &[u64],
        sel: Option<&[u32]>,
        skip: Option<&[bool]>,
        pi: &mut Vec<u32>,
        bi: &mut Vec<u32>,
    ) {
        for (j, &h) in hashes.iter().enumerate() {
            let row = sel.map_or(j as u32, |s| s[j]);
            if skip.is_some_and(|s| s[row as usize]) {
                continue;
            }
            for id in self.chain(h) {
                pi.push(row);
                bi.push(id);
            }
        }
    }
}

impl Default for FlatTable {
    fn default() -> Self {
        FlatTable::new()
    }
}

/// Rows of a vector with a NULL in any of `keys` (`None` = no such row).
pub fn null_key_mask(keys: &[&ExecVector]) -> Option<Vec<bool>> {
    let mut mask: Option<Vec<bool>> = None;
    for n in keys.iter().filter_map(|k| k.nulls.as_ref()) {
        match &mut mask {
            None => mask = Some(n.clone()),
            Some(m) => m.iter_mut().zip(n).for_each(|(m, &n)| *m |= n),
        }
    }
    mask
}

/// The aggregate's group directory: a [`FlatTable`] whose entries are group
/// ids, dense in first-seen order, with the group keys interned in typed
/// columns (f64 keys in canonical form).
pub struct GroupIndex {
    table: FlatTable,
    keys: Vec<ExecVector>,
    hashes: Vec<u64>,
    ok: Vec<bool>,
    born: Vec<u32>,
}

impl GroupIndex {
    pub fn new(key_types: &[DataType]) -> GroupIndex {
        GroupIndex {
            table: FlatTable::new(),
            keys: key_types.iter().map(|&t| ExecVector::empty(t)).collect(),
            hashes: Vec::new(),
            ok: Vec::new(),
            born: Vec::new(),
        }
    }

    /// Groups so far.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    pub fn table(&self) -> &FlatTable {
        &self.table
    }

    /// The interned key columns, one row per group.
    pub fn keys(&self) -> &[ExecVector] {
        &self.keys
    }

    /// Heap bytes held, by capacity (scratch lanes included).
    pub fn heap_bytes(&self) -> usize {
        self.table.heap_bytes()
            + self.keys.iter().map(|k| k.heap_bytes()).sum::<usize>()
            + self.hashes.capacity() * 8
            + self.ok.capacity()
            + self.born.capacity() * 4
    }

    /// Map rows `lanes` of the key columns `cols` to group ids (`gids[j]` for
    /// row `lanes[j]`), numbering unseen keys in the order they appear.
    pub fn find_or_insert(&mut self, cols: &[&ExecVector], lanes: &[u32], gids: &mut Vec<u32>) {
        gids.clear();
        if cols.is_empty() {
            // Scalar aggregate: everything is group 0.
            if self.table.is_empty() {
                self.table.push(0);
            }
            gids.resize(lanes.len(), 0);
            return;
        }
        hash_keys(cols, Some(lanes), 0, &mut self.hashes);
        self.assign(cols, lanes, gids);
    }

    /// [`Self::find_or_insert`] once `self.hashes` holds the lanes' hashes.
    fn assign(&mut self, cols: &[&ExecVector], lanes: &[u32], gids: &mut Vec<u32>) {
        self.born.clear();
        for (&h, &lane) in self.hashes.iter().zip(lanes) {
            let found = self.table.chain(h).next();
            gids.push(found.unwrap_or_else(|| {
                self.born.push(lane);
                self.table.push(h)
            }));
        }
        for (key, col) in self.keys.iter_mut().zip(cols) {
            intern(key, col, &self.born);
        }
        self.ok.clear();
        self.ok.resize(lanes.len(), true);
        for (key, col) in self.keys.iter().zip(cols) {
            verify_keys(col, lanes, key, gids, &mut self.ok);
        }
        if self.ok.iter().all(|&o| o) {
            return;
        }
        // Two different keys share a 64-bit hash: settle those lanes one at a
        // time against every entry of that hash. (Such a group is numbered
        // after the other groups born in this vector.)
        for j in (0..lanes.len()).filter(|&j| !self.ok[j]) {
            let (lane, h) = (lanes[j], self.hashes[j]);
            let same_key = |id: &u32| {
                let mut same = [true];
                for (col, key) in cols.iter().zip(&self.keys) {
                    verify_keys(col, &[lane], key, &[*id], &mut same);
                }
                same[0]
            };
            let found = self.table.chain(h).find(same_key);
            gids[j] = found.unwrap_or_else(|| {
                for (key, col) in self.keys.iter_mut().zip(cols) {
                    intern(key, col, &[lane]);
                }
                self.table.push(h)
            });
        }
    }
}

/// Append the keys of rows `lanes` to an interned key column.
fn intern(key: &mut ExecVector, col: &ExecVector, lanes: &[u32]) {
    let from = key.len();
    key.extend_from(col, Some(lanes));
    if let ColumnData::F64(v) = &mut key.data {
        v[from..]
            .iter_mut()
            .for_each(|x| *x = normalize_key_f64(*x));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_common::Value;
    use vw_storage::StrColumn;

    fn vec_of(ty: DataType, vals: &[Value]) -> ExecVector {
        ExecVector::from_values(ty, vals).unwrap()
    }

    #[test]
    fn hashes_follow_key_equality() {
        let i32s = vec_of(DataType::I32, &[Value::I32(7), Value::I32(-1), Value::Null]);
        let i64s = vec_of(DataType::I64, &[Value::I64(7), Value::I64(-1), Value::Null]);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        hash_keys(&[&i32s], None, 3, &mut a);
        hash_keys(&[&i64s], None, 3, &mut b);
        assert_eq!(a, b, "I32 and I64 keys of one value hash alike");
        assert_ne!(a[0], a[1]);

        let f = ExecVector::not_null(ColumnData::F64(vec![
            0.0,
            -0.0,
            f64::NAN,
            f64::from_bits(0xfff8_0000_0000_0001),
            1.5,
        ]));
        hash_keys(&[&f], None, 5, &mut a);
        assert_eq!(a[0], a[1]);
        assert_eq!(a[2], a[3]);
        assert_ne!(a[0], a[4]);

        // A selection hashes the selected rows only, in selection order, and
        // a second column changes the hash.
        hash_keys(&[&i64s], Some(&[2, 0]), 3, &mut a);
        assert_eq!(a, vec![b[2], b[0]]);
        hash_keys(&[&i64s, &i32s], None, 3, &mut a);
        assert_ne!(a[0], b[0]);
        hash_keys(&[], None, 3, &mut a);
        assert_eq!(a, vec![0, 0, 0]);
    }

    #[test]
    fn verify_is_key_equality() {
        let a = vec_of(
            DataType::F64,
            &[
                Value::F64(0.0),
                Value::F64(f64::NAN),
                Value::Null,
                Value::F64(2.0),
            ],
        );
        let b = vec_of(
            DataType::F64,
            &[
                Value::F64(-0.0),
                Value::F64(-f64::NAN),
                Value::Null,
                Value::Null,
            ],
        );
        let idx = [0u32, 1, 2, 3];
        let mut ok = vec![true; 4];
        verify_keys(&a, &idx, &b, &idx, &mut ok);
        assert_eq!(ok, vec![true, true, true, false]);

        let narrow = ExecVector::not_null(ColumnData::I32(vec![5, 6]));
        let wide = ExecVector::not_null(ColumnData::I64(vec![6, 5]));
        let mut ok = vec![true; 2];
        verify_keys(&narrow, &[0, 1], &wide, &[1, 1], &mut ok);
        assert_eq!(ok, vec![true, false]);

        let s = ExecVector::not_null(ColumnData::Str(StrColumn::from_iter(["ab", "abc"])));
        let mut ok = vec![true; 2];
        verify_keys(&s, &[0, 1], &s, &[0, 0], &mut ok);
        assert_eq!(ok, vec![true, false]);
        verify_keys(&s, &[0, 0], &narrow, &[0, 0], &mut ok);
        assert_eq!(ok, vec![false, false], "unrelated types never match");
    }

    #[test]
    fn build_chains_ascend_and_skip_null_rows() {
        // Rows 0, 2, 3 share a hash; row 2 has a NULL key.
        let hashes = vec![9, 4, 9, 9, 4 + 64];
        let t = FlatTable::build(hashes, Some(&[false, false, true, false, false]));
        assert_eq!(t.chain(9).collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(t.chain(4).collect::<Vec<_>>(), vec![1]);
        assert_eq!(t.chain(4 + 64).collect::<Vec<_>>(), vec![4]);
        assert_eq!(t.chain(5).count(), 0);
        assert_eq!(t.slots(), 16);
        assert_eq!(t.heap_bytes(), FlatTable::bytes_for(5));

        let (mut pi, mut bi) = (Vec::new(), Vec::new());
        t.candidates(
            &[9, 4],
            Some(&[7, 3]),
            Some(&[false, false, false, true, false, false, false, false]),
            &mut pi,
            &mut bi,
        );
        assert_eq!((pi, bi), (vec![7, 7], vec![0, 3]), "row 3 is skipped");
    }

    #[test]
    fn capacity_scales_from_row_count() {
        assert_eq!(FlatTable::build(vec![1; 32], None).slots(), 64);
        assert_eq!(FlatTable::build(Vec::new(), None).slots(), MIN_SLOTS);
        let mut t = FlatTable::new();
        for h in 0..1000u64 {
            t.push(h.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }
        assert_eq!(t.slots(), 2048);
        assert_eq!(t.rehashes(), 7);
        assert!(t.max_chain() >= 1);
        for h in 0..1000u64 {
            let h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            assert_eq!(t.chain(h).count(), 1);
        }
    }

    #[test]
    fn groups_are_numbered_in_first_seen_order() {
        let mut g = GroupIndex::new(&[DataType::Str, DataType::F64]);
        let s = vec_of(
            DataType::Str,
            &[
                Value::Str("b".into()),
                Value::Null,
                Value::Str("a".into()),
                Value::Str("b".into()),
                Value::Null,
                Value::Str("b".into()),
            ],
        );
        let f = ExecVector::not_null(ColumnData::F64(vec![-0.0, 1.0, 2.0, 0.0, 1.0, f64::NAN]));
        let mut gids = Vec::new();
        g.find_or_insert(&[&s, &f], &[0, 1, 2, 3, 4, 5], &mut gids);
        assert_eq!(gids, vec![0, 1, 2, 0, 1, 3]);
        // A second vector finds the old groups and appends after them.
        g.find_or_insert(&[&s, &f], &[5, 2], &mut gids);
        assert_eq!(gids, vec![3, 2]);
        assert_eq!(g.len(), 4);
        let ColumnData::F64(keys) = &g.keys()[1].data else {
            panic!("f64 key column")
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(keys), bits(&[0.0, 1.0, 2.0, f64::NAN]), "canonical");
        assert_eq!(g.keys()[0].nulls, Some(vec![false, true, false, false]));
    }

    /// Distinct keys under one 64-bit hash still get distinct groups, and an
    /// old group is found behind a newer one of the same hash.
    #[test]
    fn equal_hashes_of_different_keys_are_told_apart() {
        let mut g = GroupIndex::new(&[DataType::I64]);
        let k = ExecVector::not_null(ColumnData::I64(vec![10, 20, 10, 30, 20, 30]));
        let lanes = [0u32, 1, 2, 3, 4, 5];
        let mut gids = Vec::new();
        g.hashes = vec![42; 6];
        g.assign(&[&k], &lanes, &mut gids);
        assert_eq!(gids, vec![0, 1, 0, 2, 1, 2]);
        gids.clear();
        g.assign(&[&k], &lanes, &mut gids);
        assert_eq!(gids, vec![0, 1, 0, 2, 1, 2]);
        assert_eq!(g.keys()[0].data, ColumnData::I64(vec![10, 20, 30]));
        assert_eq!(g.table().max_chain(), 3);
    }

    /// A key in dictionary form is the string it stands for: it hashes and
    /// compares like the plain string (on the per-entry and on the per-lane
    /// path), equal words of two dictionaries land in one group, and the
    /// group's key is stored as bytes, once, when the group is born.
    #[test]
    fn dictionary_keys_are_their_strings() {
        use std::sync::Arc;
        use vw_storage::DictColumn;
        let dict = |words: &[&str], codes: &[u32], nulls: Option<Vec<bool>>| {
            let d = Arc::new(StrColumn::from_iter(words.iter().copied()));
            let col = DictColumn::new(codes.to_vec(), d).unwrap();
            ExecVector::new(ColumnData::Dict(col), nulls)
        };
        let a = dict(
            &["x", "yy", "zzz"],
            &[0, 1, 2, 1, 0],
            Some(vec![false, false, false, false, true]),
        );
        let plain = vec_of(
            DataType::Str,
            &[
                Value::Str("x".into()),
                Value::Str("yy".into()),
                Value::Str("zzz".into()),
                Value::Str("yy".into()),
                Value::Null,
            ],
        );
        let (mut ha, mut hp) = (Vec::new(), Vec::new());
        hash_keys(&[&a], None, 5, &mut ha);
        hash_keys(&[&plain], None, 5, &mut hp);
        assert_eq!(ha, hp, "one hash per dictionary entry");
        // Fewer lanes than entries: hashed per lane.
        hash_keys(&[&a], Some(&[3, 0]), 5, &mut ha);
        assert_eq!(ha, vec![hp[3], hp[0]]);

        let mut ok = vec![true; 5];
        verify_keys(&a, &[0, 1, 2, 3, 4], &plain, &[0, 1, 2, 1, 4], &mut ok);
        assert_eq!(ok, vec![true; 5]);
        verify_keys(&plain, &[0, 1], &a, &[1, 1], &mut ok[..2]);
        assert_eq!(ok[..2], [false, true]);
        // The same words under other codes.
        let b = dict(&["zzz", "x", "new"], &[0, 1, 2], None);
        let mut ok = vec![true; 3];
        verify_keys(&a, &[2, 0, 1], &b, &[0, 1, 2], &mut ok);
        assert_eq!(ok, vec![true, true, false]);

        let mut g = GroupIndex::new(&[DataType::Str]);
        let mut gids = Vec::new();
        g.find_or_insert(&[&a], &[0, 1, 2, 3, 4], &mut gids);
        assert_eq!(gids, vec![0, 1, 2, 1, 3]);
        g.find_or_insert(&[&b], &[0, 1, 2], &mut gids);
        assert_eq!(gids, vec![2, 0, 4]);
        g.find_or_insert(&[&plain], &[4, 2], &mut gids);
        assert_eq!(gids, vec![3, 2]);
        let keys = &g.keys()[0];
        assert!(matches!(keys.data, ColumnData::Str(_)), "stored as strings");
        let stored: Vec<Value> = (0..5).map(|i| keys.get_value(i, DataType::Str)).collect();
        let word = |w: &str| Value::Str(w.into());
        assert_eq!(
            stored,
            vec![word("x"), word("yy"), word("zzz"), Value::Null, word("new")]
        );
    }

    #[test]
    fn no_key_columns_means_one_group() {
        let mut g = GroupIndex::new(&[]);
        let mut gids = Vec::new();
        g.find_or_insert(&[], &[0, 1, 2], &mut gids);
        assert_eq!((gids, g.len()), (vec![0, 0, 0], 1));
    }
}
