//! The Positional Delta Tree structure itself.
//!
//! Entries are kept sorted by `(sid, seq)`; a rebuild pass precomputes, for
//! every entry, the RID it produces/affects and the cumulative insert-delete
//! balance before it. Both RID→location and SID→RID translation are then a
//! binary search — the role the counting inner nodes play in the paper's
//! B-tree formulation, flattened onto arrays since PDTs are rebuilt in bulk
//! at commit boundaries in this system.
//!
//! Key ordering facts the lookups rely on (invariants checked in tests):
//!
//! * per-entry RIDs are non-decreasing in entry order,
//! * within a run of equal RIDs, `Delete` entries form a prefix: a deleted
//!   position's "would-be" RID is reused by whatever follows it,
//! * at most one tuple entry (`Delete` or `Modify`) exists per SID, ordered
//!   after all inserts at that SID.

use crate::entry::{next_tag, Change, Entry, TUPLE_SEQ};
use std::collections::BTreeMap;
use vw_common::{Result, Value, VwError};

/// What occupies a given RID.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// The tuple is a PDT insert; payload is at this entry index.
    Inserted(usize),
    /// The tuple is stable tuple `sid`, possibly patched by a modify entry.
    Stable { sid: u64, modify: Option<usize> },
}

/// What a batch operation finds at one of its RIDs.
enum Occupant {
    /// A PDT insert, or a stable tuple that already carries a modify: the
    /// entry itself, taken out of the list.
    Entry(Entry),
    /// A stable tuple no entry refers to yet.
    Stable(u64),
}

/// A Positional Delta Tree over a stable image of `stable_rows` tuples.
#[derive(Debug, Clone, Default)]
pub struct Pdt {
    stable_rows: u64,
    entries: Vec<Entry>,
    /// rid of entry i (for a delete: the RID its stable tuple would occupy).
    rids: Vec<u64>,
    /// cumulative insert-delete balance of entries[0..i].
    delta_before: Vec<i64>,
    total_delta: i64,
}

impl Pdt {
    /// An empty PDT over a stable image of `stable_rows` tuples.
    pub fn new(stable_rows: u64) -> Pdt {
        Pdt {
            stable_rows,
            ..Default::default()
        }
    }

    /// Build from pre-sorted entries (deserialization, propagate).
    pub fn from_entries(stable_rows: u64, entries: Vec<Entry>) -> Result<Pdt> {
        let mut pdt = Pdt {
            stable_rows,
            entries,
            rids: Vec::new(),
            delta_before: Vec::new(),
            total_delta: 0,
        };
        pdt.validate()?;
        pdt.rebuild();
        Ok(pdt)
    }

    pub fn stable_rows(&self) -> u64 {
        self.stable_rows
    }

    /// Rows in the current logical image.
    pub fn current_rows(&self) -> u64 {
        (self.stable_rows as i64 + self.total_delta) as u64
    }

    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn insert_count(&self) -> usize {
        self.entries.iter().filter(|e| e.change.is_insert()).count()
    }

    pub fn delete_count(&self) -> usize {
        self.entries.iter().filter(|e| e.change.is_delete()).count()
    }

    pub fn modify_count(&self) -> usize {
        self.entries.iter().filter(|e| e.change.is_modify()).count()
    }

    /// The row payload of an `Inserted` location.
    pub fn inserted_row(&self, entry_idx: usize) -> &[Value] {
        match &self.entries[entry_idx].change {
            Change::Insert { row, .. } => row,
            _ => panic!("entry {} is not an insert", entry_idx),
        }
    }

    /// The column patches of a modify entry.
    pub fn mods_of(&self, entry_idx: usize) -> &BTreeMap<u32, Value> {
        match &self.entries[entry_idx].change {
            Change::Modify(m) => m,
            _ => panic!("entry {} is not a modify", entry_idx),
        }
    }

    fn rebuild(&mut self) {
        self.rids.clear();
        self.delta_before.clear();
        self.rids.reserve(self.entries.len());
        self.delta_before.reserve(self.entries.len());
        let mut delta = 0i64;
        for e in &self.entries {
            self.delta_before.push(delta);
            self.rids.push((e.sid as i64 + delta) as u64);
            delta += e.change.delta();
        }
        self.total_delta = delta;
    }

    fn validate(&self) -> Result<()> {
        let mut prev_key: Option<(u64, u32)> = None;
        for e in &self.entries {
            let k = e.key();
            if let Some(p) = prev_key {
                if k <= p {
                    return Err(VwError::Invalid(format!(
                        "PDT entries out of order at sid {}",
                        e.sid
                    )));
                }
            }
            prev_key = Some(k);
            match &e.change {
                Change::Insert { .. } => {
                    if e.sid > self.stable_rows || e.seq == TUPLE_SEQ {
                        return Err(VwError::Invalid(format!("bad insert at sid {}", e.sid)));
                    }
                }
                Change::Delete | Change::Modify(_) => {
                    if e.sid >= self.stable_rows || e.seq != TUPLE_SEQ {
                        return Err(VwError::Invalid(format!(
                            "bad tuple entry at sid {}",
                            e.sid
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Entry indexes `[lo, hi)` whose SID lies in `[sid_lo, sid_hi)`
    /// (scan-merge: fetch the changes relevant to one row group).
    pub fn entry_range_for_sids(&self, sid_lo: u64, sid_hi: u64) -> (usize, usize) {
        let lo = self.entries.partition_point(|e| e.key() < (sid_lo, 0));
        let hi = self.entries.partition_point(|e| e.key() < (sid_hi, 0));
        (lo, hi)
    }

    /// RID currently occupied by stable tuple `sid`, or `None` if deleted.
    pub fn rid_of_sid(&self, sid: u64) -> Option<u64> {
        assert!(sid < self.stable_rows, "sid out of range");
        let j = self.entries.partition_point(|e| e.key() < (sid, TUPLE_SEQ));
        if let Some(e) = self.entries.get(j) {
            if e.sid == sid && e.change.is_delete() {
                return None;
            }
        }
        let delta = self
            .delta_before
            .get(j)
            .copied()
            .unwrap_or(self.total_delta);
        Some((sid as i64 + delta) as u64)
    }

    /// RID of the first row a merge of the stable range starting at `sid`
    /// produces: `sid` shifted by every insert and delete before it. The
    /// inserts positioned at `sid` itself are the first rows of that range,
    /// so a scan unit's rows are numbered from here in merge order without
    /// looking at any data.
    pub fn first_rid_from(&self, sid: u64) -> u64 {
        let j = self.entries.partition_point(|e| e.key() < (sid, 0));
        let delta = self
            .delta_before
            .get(j)
            .copied()
            .unwrap_or(self.total_delta);
        (sid as i64 + delta) as u64
    }

    /// What occupies `rid` in the current image.
    pub fn resolve(&self, rid: u64) -> Result<Loc> {
        if rid >= self.current_rows() {
            return Err(VwError::Invalid(format!(
                "rid {} out of range ({} rows)",
                rid,
                self.current_rows()
            )));
        }
        let n = self.entries.len();
        // First entry at `rid` that is not a delete (deletes are a prefix of
        // each equal-rid run and do not occupy their RID). The predicate is
        // monotone over entry order, so plain binary search applies.
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let before = self.rids[mid] < rid
                || (self.rids[mid] == rid && self.entries[mid].change.is_delete());
            if before {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let j = lo;
        if j < n && self.rids[j] == rid {
            match &self.entries[j].change {
                Change::Insert { .. } => return Ok(Loc::Inserted(j)),
                Change::Modify(_) => {
                    return Ok(Loc::Stable {
                        sid: self.entries[j].sid,
                        modify: Some(j),
                    })
                }
                Change::Delete => unreachable!("deletes skipped by predicate"),
            }
        }
        let delta = self
            .delta_before
            .get(j)
            .copied()
            .unwrap_or(self.total_delta);
        let sid = (rid as i64 - delta) as u64;
        debug_assert!(sid < self.stable_rows);
        Ok(Loc::Stable { sid, modify: None })
    }

    /// Insert `row` so that it occupies `rid` (current occupant and
    /// everything after shift right). `rid == current_rows()` appends.
    pub fn insert_at(&mut self, rid: u64, row: Vec<Value>) -> Result<()> {
        let len = self.current_rows();
        if rid > len {
            return Err(VwError::Invalid(format!(
                "insert rid {} > len {}",
                rid, len
            )));
        }
        let (sid, idx) = if rid == len {
            (self.stable_rows, self.entries.len())
        } else {
            match self.resolve(rid)? {
                Loc::Inserted(j) => (self.entries[j].sid, j),
                Loc::Stable { sid, .. } => {
                    // Before the stable tuple: after all existing inserts at sid.
                    let j = self.entries.partition_point(|e| e.key() < (sid, TUPLE_SEQ));
                    (sid, j)
                }
            }
        };
        self.entries
            .insert(idx, Entry::insert(sid, 0, next_tag(), row));
        self.renumber_inserts(sid);
        self.rebuild();
        Ok(())
    }

    /// Delete the tuple at `rid` (everything after shifts left).
    pub fn delete_at(&mut self, rid: u64) -> Result<()> {
        match self.resolve(rid)? {
            Loc::Inserted(j) => {
                let sid = self.entries[j].sid;
                self.entries.remove(j);
                self.renumber_inserts(sid);
            }
            Loc::Stable { sid, modify } => match modify {
                Some(j) => self.entries[j] = Entry::delete(sid),
                None => {
                    let j = self.entries.partition_point(|e| e.key() < (sid, TUPLE_SEQ));
                    self.entries.insert(j, Entry::delete(sid));
                }
            },
        }
        self.rebuild();
        Ok(())
    }

    /// Overwrite column `col` of the tuple at `rid`.
    pub fn modify_at(&mut self, rid: u64, col: u32, value: Value) -> Result<()> {
        match self.resolve(rid)? {
            Loc::Inserted(j) => match &mut self.entries[j].change {
                Change::Insert { row, .. } => {
                    let c = col as usize;
                    if c >= row.len() {
                        return Err(VwError::Invalid(format!("modify col {} out of range", col)));
                    }
                    row[c] = value;
                }
                _ => unreachable!(),
            },
            Loc::Stable { sid, modify } => match modify {
                Some(j) => match &mut self.entries[j].change {
                    Change::Modify(m) => {
                        m.insert(col, value);
                    }
                    _ => unreachable!(),
                },
                None => {
                    let j = self.entries.partition_point(|e| e.key() < (sid, TUPLE_SEQ));
                    let mut m = BTreeMap::new();
                    m.insert(col, value);
                    self.entries.insert(j, Entry::modify(sid, m));
                    self.rebuild();
                }
            },
        }
        // Modifies don't shift RIDs; rebuild only needed when an entry was
        // added, handled above. Rebuild unconditionally for simplicity of the
        // Inserted path too (cheap relative to the Vec insert).
        Ok(())
    }

    /// Append `rows` behind the last tuple, in order.
    pub fn append_many(&mut self, rows: Vec<Vec<Value>>) {
        let sid = self.stable_rows;
        let first = self.entries.partition_point(|e| e.key() < (sid, 0));
        let next_seq = (self.entries.len() - first) as u32;
        self.entries.extend(
            (next_seq..)
                .zip(rows)
                .map(|(seq, row)| Entry::insert(sid, seq, next_tag(), row)),
        );
        self.rebuild();
    }

    /// Delete the tuples at `rids`: strictly ascending positions in the image
    /// as it is before the call. Nothing changes when a RID is invalid.
    pub fn delete_many(&mut self, rids: &[u64]) -> Result<()> {
        self.rewrite_at(rids, |occupant| match occupant {
            Occupant::Entry(e) if e.change.is_insert() => None,
            Occupant::Entry(e) => Some(Entry::delete(e.sid)),
            Occupant::Stable(sid) => Some(Entry::delete(sid)),
        })?;
        // Dropped inserts leave gaps in the sequence numbers of their SID.
        let mut prev: Option<(u64, u32)> = None;
        for e in &mut self.entries {
            if e.change.is_insert() {
                e.seq = match prev {
                    Some((sid, seq)) if sid == e.sid => seq + 1,
                    _ => 0,
                };
                prev = Some((e.sid, e.seq));
            }
        }
        Ok(())
    }

    /// Overwrite columns `cols` of the tuples at `rids` (strictly ascending
    /// positions in the current image); the k-th tuple gets `values[k]`, one
    /// value per entry of `cols`. Nothing changes when an argument is invalid.
    pub fn modify_many(
        &mut self,
        rids: &[u64],
        cols: &[u32],
        values: Vec<Vec<Value>>,
    ) -> Result<()> {
        if values.len() != rids.len() || values.iter().any(|v| v.len() != cols.len()) {
            return Err(VwError::Invalid(
                "modify_many: values do not match the RIDs and columns".into(),
            ));
        }
        // Inserted rows know the table's arity; stable tuples are patched by
        // column number alone, as in `modify_at`.
        let arity = self.entries.iter().find_map(|e| match &e.change {
            Change::Insert { row, .. } => Some(row.len()),
            _ => None,
        });
        if let Some(&col) = cols
            .iter()
            .find(|&&c| arity.is_some_and(|a| c as usize >= a))
        {
            return Err(VwError::Invalid(format!("modify col {} out of range", col)));
        }
        let mut values = values.into_iter();
        self.rewrite_at(rids, |occupant| {
            let new = cols
                .iter()
                .copied()
                .zip(values.next().expect("one per RID"));
            Some(match occupant {
                Occupant::Entry(mut e) => {
                    match &mut e.change {
                        Change::Insert { row, .. } => new.for_each(|(c, v)| row[c as usize] = v),
                        Change::Modify(m) => m.extend(new),
                        Change::Delete => unreachable!("a delete occupies no RID"),
                    }
                    e
                }
                Occupant::Stable(sid) => Entry::modify(sid, new.collect()),
            })
        })
    }

    /// One pass over the entry list for a batch of RIDs: `op(occupant)`
    /// returns what takes the place of the next RID's occupant in the list
    /// (`None` removes an insert), then the positional arrays are rebuilt
    /// once. RIDs are validated before anything is touched.
    fn rewrite_at(
        &mut self,
        rids: &[u64],
        mut op: impl FnMut(Occupant) -> Option<Entry>,
    ) -> Result<()> {
        if let Some(w) = rids.windows(2).find(|w| w[0] >= w[1]) {
            return Err(VwError::Invalid(format!(
                "batch RIDs not strictly ascending ({} then {})",
                w[0], w[1]
            )));
        }
        if let Some(&last) = rids.last().filter(|&&r| r >= self.current_rows()) {
            return Err(VwError::Invalid(format!(
                "rid {} out of range ({} rows)",
                last,
                self.current_rows()
            )));
        }
        let old = std::mem::take(&mut self.entries);
        let mut out = Vec::with_capacity(old.len() + rids.len());
        let mut it = old.into_iter().enumerate().peekable();
        for &rid in rids {
            // Everything before the occupant of `rid`, including the deletes
            // whose would-be RID it reuses.
            while let Some((_, e)) = it.next_if(|(i, e)| {
                self.rids[*i] < rid || (self.rids[*i] == rid && e.change.is_delete())
            }) {
                out.push(e);
            }
            let occupant = match it.next_if(|(i, _)| self.rids[*i] == rid) {
                Some((_, e)) => Occupant::Entry(e),
                None => {
                    let delta = it
                        .peek()
                        .map_or(self.total_delta, |(i, _)| self.delta_before[*i]);
                    Occupant::Stable((rid as i64 - delta) as u64)
                }
            };
            out.extend(op(occupant));
        }
        out.extend(it.map(|(_, e)| e));
        self.entries = out;
        self.rebuild();
        Ok(())
    }

    fn renumber_inserts(&mut self, sid: u64) {
        let lo = self.entries.partition_point(|e| e.key() < (sid, 0));
        let mut seq = 0u32;
        #[allow(clippy::explicit_counter_loop)]
        for e in &mut self.entries[lo..] {
            if e.sid != sid || !e.change.is_insert() {
                break;
            }
            e.seq = seq;
            seq += 1;
        }
    }

    /// Read the full row at `rid`, fetching stable tuples through `fetch`.
    /// Reference implementation for tests and the row-engine; columnar scans
    /// merge in bulk instead.
    pub fn row_at(&self, rid: u64, fetch: &mut dyn FnMut(u64) -> Vec<Value>) -> Result<Vec<Value>> {
        match self.resolve(rid)? {
            Loc::Inserted(j) => Ok(self.inserted_row(j).to_vec()),
            Loc::Stable { sid, modify } => {
                let mut row = fetch(sid);
                if let Some(j) = modify {
                    for (&c, v) in self.mods_of(j) {
                        row[c as usize] = v.clone();
                    }
                }
                Ok(row)
            }
        }
    }

    /// Debug/test invariant check: rebuild arrays are consistent and RIDs
    /// are non-decreasing with delete-prefix runs.
    pub fn check_invariants(&self) -> Result<()> {
        self.validate()?;
        let mut prev_rid = 0u64;
        let mut seen_non_delete_at_rid = false;
        for (i, e) in self.entries.iter().enumerate() {
            let rid = self.rids[i];
            if i > 0 {
                if rid < prev_rid {
                    return Err(VwError::Invalid("rids decreased".into()));
                }
                if rid > prev_rid {
                    seen_non_delete_at_rid = false;
                }
            }
            if e.change.is_delete() {
                if seen_non_delete_at_rid {
                    return Err(VwError::Invalid("delete after occupant in rid run".into()));
                }
            } else {
                seen_non_delete_at_rid = true;
            }
            prev_rid = rid;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: i64) -> Vec<Value> {
        vec![Value::I64(x)]
    }

    /// Oracle: a plain Vec of rows simulating the current image.
    struct Oracle {
        rows: Vec<Vec<Value>>,
    }

    impl Oracle {
        fn new(n: u64) -> Oracle {
            Oracle {
                rows: (0..n).map(|i| v(i as i64 * 10)).collect(),
            }
        }
        fn stable_fetch(n: u64) -> impl FnMut(u64) -> Vec<Value> {
            move |sid| {
                assert!(sid < n);
                v(sid as i64 * 10)
            }
        }
    }

    fn assert_image_matches(pdt: &Pdt, oracle: &Oracle, n_stable: u64) {
        pdt.check_invariants().unwrap();
        assert_eq!(pdt.current_rows() as usize, oracle.rows.len());
        let mut fetch = Oracle::stable_fetch(n_stable);
        for rid in 0..pdt.current_rows() {
            assert_eq!(
                pdt.row_at(rid, &mut fetch).unwrap(),
                oracle.rows[rid as usize],
                "rid {}",
                rid
            );
        }
    }

    #[test]
    fn empty_pdt_is_identity() {
        let pdt = Pdt::new(5);
        assert_eq!(pdt.current_rows(), 5);
        for s in 0..5 {
            assert_eq!(pdt.rid_of_sid(s), Some(s));
            assert_eq!(
                pdt.resolve(s).unwrap(),
                Loc::Stable {
                    sid: s,
                    modify: None
                }
            );
        }
        assert!(pdt.resolve(5).is_err());
    }

    #[test]
    fn insert_shifts_rids() {
        let mut pdt = Pdt::new(3); // stable: 0,10,20
        let mut o = Oracle::new(3);
        pdt.insert_at(1, v(99)).unwrap();
        o.rows.insert(1, v(99));
        assert_image_matches(&pdt, &o, 3);
        assert_eq!(pdt.rid_of_sid(0), Some(0));
        assert_eq!(pdt.rid_of_sid(1), Some(2));
        assert_eq!(pdt.rid_of_sid(2), Some(3));
        // append
        pdt.insert_at(4, v(77)).unwrap();
        o.rows.push(v(77));
        assert_image_matches(&pdt, &o, 3);
        // insert before an inserted tuple
        pdt.insert_at(1, v(88)).unwrap();
        o.rows.insert(1, v(88));
        assert_image_matches(&pdt, &o, 3);
    }

    #[test]
    fn delete_stable_and_inserted() {
        let mut pdt = Pdt::new(4);
        let mut o = Oracle::new(4);
        pdt.delete_at(1).unwrap();
        o.rows.remove(1);
        assert_image_matches(&pdt, &o, 4);
        assert_eq!(pdt.rid_of_sid(1), None);
        assert_eq!(pdt.rid_of_sid(2), Some(1));
        // insert then delete the insert: cancels
        pdt.insert_at(0, v(50)).unwrap();
        o.rows.insert(0, v(50));
        assert_image_matches(&pdt, &o, 4);
        pdt.delete_at(0).unwrap();
        o.rows.remove(0);
        assert_image_matches(&pdt, &o, 4);
        assert_eq!(pdt.insert_count(), 0);
        // delete run reusing the same rid
        pdt.delete_at(0).unwrap();
        o.rows.remove(0);
        pdt.delete_at(0).unwrap();
        o.rows.remove(0);
        assert_image_matches(&pdt, &o, 4);
        assert_eq!(pdt.current_rows(), 1);
    }

    #[test]
    fn modify_paths() {
        let mut pdt = Pdt::new(3);
        let mut o = Oracle::new(3);
        // modify stable
        pdt.modify_at(2, 0, Value::I64(-1)).unwrap();
        o.rows[2] = v(-1);
        assert_image_matches(&pdt, &o, 3);
        // re-modify same tuple merges into one entry
        pdt.modify_at(2, 0, Value::I64(-2)).unwrap();
        o.rows[2] = v(-2);
        assert_image_matches(&pdt, &o, 3);
        assert_eq!(pdt.modify_count(), 1);
        // modify an inserted tuple patches the insert payload
        pdt.insert_at(0, v(100)).unwrap();
        o.rows.insert(0, v(100));
        pdt.modify_at(0, 0, Value::I64(101)).unwrap();
        o.rows[0] = v(101);
        assert_image_matches(&pdt, &o, 3);
        assert_eq!(pdt.modify_count(), 1); // no new modify entry
                                           // delete a modified stable tuple: modify collapses into delete
        pdt.delete_at(3).unwrap();
        o.rows.remove(3);
        assert_image_matches(&pdt, &o, 3);
        assert_eq!(pdt.modify_count(), 0);
        assert_eq!(pdt.delete_count(), 1);
        // modify col out of range on insert errors
        assert!(pdt.modify_at(0, 5, Value::I64(0)).is_err());
    }

    #[test]
    fn interleaved_random_ops_match_oracle() {
        use vw_common::rng::Xoshiro256;
        let n_stable = 50u64;
        let mut pdt = Pdt::new(n_stable);
        let mut o = Oracle::new(n_stable);
        let mut r = Xoshiro256::seeded(2024);
        for step in 0..500 {
            let len = pdt.current_rows();
            match r.next_below(3) {
                0 => {
                    let rid = r.next_below(len + 1);
                    let row = v(1000 + step);
                    pdt.insert_at(rid, row.clone()).unwrap();
                    o.rows.insert(rid as usize, row);
                }
                1 if len > 0 => {
                    let rid = r.next_below(len);
                    pdt.delete_at(rid).unwrap();
                    o.rows.remove(rid as usize);
                }
                2 if len > 0 => {
                    let rid = r.next_below(len);
                    let val = Value::I64(-step);
                    pdt.modify_at(rid, 0, val.clone()).unwrap();
                    o.rows[rid as usize][0] = val;
                }
                _ => {}
            }
        }
        assert_image_matches(&pdt, &o, n_stable);
        // rid_of_sid consistency: every non-deleted sid maps to a rid whose
        // resolve() points back at it.
        for sid in 0..n_stable {
            if let Some(rid) = pdt.rid_of_sid(sid) {
                match pdt.resolve(rid).unwrap() {
                    Loc::Stable { sid: s2, .. } => assert_eq!(s2, sid),
                    other => panic!("sid {} rid {} resolved to {:?}", sid, rid, other),
                }
            }
        }
    }

    /// A PDT with every kind of entry, built by random single-row ops.
    fn churned(seed: u64, n_stable: u64, steps: u64) -> Pdt {
        use vw_common::rng::Xoshiro256;
        let mut pdt = Pdt::new(n_stable);
        let mut r = Xoshiro256::seeded(seed);
        for step in 0..steps {
            let len = pdt.current_rows();
            match r.next_below(3) {
                0 => pdt
                    .insert_at(
                        r.next_below(len + 1),
                        vec![Value::I64(step as i64), Value::Null],
                    )
                    .unwrap(),
                1 if len > 0 => pdt.delete_at(r.next_below(len)).unwrap(),
                2 if len > 0 => pdt
                    .modify_at(r.next_below(len), 0, Value::I64(-(step as i64)))
                    .unwrap(),
                _ => {}
            }
        }
        pdt
    }

    /// Ignoring insert tags, which every call draws fresh.
    fn untagged(pdt: &Pdt) -> Vec<(u64, u32, Change)> {
        pdt.entries()
            .iter()
            .map(|e| {
                let change = match &e.change {
                    Change::Insert { row, .. } => Change::Insert {
                        tag: 0,
                        row: row.clone(),
                    },
                    other => other.clone(),
                };
                (e.sid, e.seq, change)
            })
            .collect()
    }

    #[test]
    fn batch_ops_equal_their_single_row_loops() {
        use vw_common::rng::Xoshiro256;
        let mut r = Xoshiro256::seeded(99);
        for round in 0..40 {
            let base = churned(round, 30, 60);
            let len = base.current_rows();
            let rids: Vec<u64> = (0..len).filter(|_| r.next_below(3) == 0).collect();

            let mut batch = base.clone();
            batch.delete_many(&rids).unwrap();
            let mut single = base.clone();
            for &rid in rids.iter().rev() {
                single.delete_at(rid).unwrap();
            }
            batch.check_invariants().unwrap();
            assert_eq!(batch.entries(), single.entries(), "delete round {}", round);
            assert_eq!(batch.current_rows(), single.current_rows());

            let values: Vec<Vec<Value>> = rids
                .iter()
                .map(|&rid| vec![Value::I64(rid as i64), Value::I64(7)])
                .collect();
            let mut batch = base.clone();
            batch.modify_many(&rids, &[1, 0], values.clone()).unwrap();
            let mut single = base.clone();
            for (&rid, v) in rids.iter().zip(&values) {
                single.modify_at(rid, 1, v[0].clone()).unwrap();
                single.modify_at(rid, 0, v[1].clone()).unwrap();
            }
            batch.check_invariants().unwrap();
            assert_eq!(batch.entries(), single.entries(), "modify round {}", round);

            let rows: Vec<Vec<Value>> = (0..r.next_below(4))
                .map(|i| vec![Value::I64(i as i64), Value::Null])
                .collect();
            let mut batch = base.clone();
            batch.append_many(rows.clone());
            let mut single = base.clone();
            for row in rows {
                single.insert_at(single.current_rows(), row).unwrap();
            }
            batch.check_invariants().unwrap();
            assert_eq!(
                untagged(&batch),
                untagged(&single),
                "append round {}",
                round
            );
        }
    }

    #[test]
    fn invalid_batches_change_nothing() {
        let base = churned(5, 20, 40);
        let len = base.current_rows();
        let mut pdt = base.clone();
        assert!(pdt.delete_many(&[3, 3]).is_err());
        assert!(pdt.delete_many(&[4, 2]).is_err());
        assert!(pdt.delete_many(&[0, len]).is_err());
        assert!(pdt
            .modify_many(&[0, len], &[0], vec![vec![Value::I64(1)]; 2])
            .is_err());
        // inserted rows have two columns
        assert!(pdt
            .modify_many(&[0], &[2], vec![vec![Value::I64(1)]])
            .is_err());
        assert!(pdt
            .modify_many(&[0, 1], &[0], vec![vec![Value::I64(1)]])
            .is_err());
        assert!(pdt
            .modify_many(&[0], &[0, 1], vec![vec![Value::I64(1)]])
            .is_err());
        assert_eq!(pdt.entries(), base.entries());
        pdt.check_invariants().unwrap();
        // Empty batches are fine.
        pdt.delete_many(&[]).unwrap();
        pdt.modify_many(&[], &[0], vec![]).unwrap();
        assert_eq!(pdt.entries(), base.entries());
    }

    #[test]
    fn first_rid_from_numbers_merge_order() {
        for seed in 0..10 {
            let pdt = churned(seed, 40, 80);
            // Rows of the stable range [sid, ..) start where every earlier
            // stable tuple and insert has been counted.
            for sid in 0..=40u64 {
                let before = (0..pdt.current_rows())
                    .filter(|&rid| match pdt.resolve(rid).unwrap() {
                        Loc::Inserted(j) => pdt.entries()[j].sid < sid,
                        Loc::Stable { sid: s, .. } => s < sid,
                    })
                    .count() as u64;
                assert_eq!(pdt.first_rid_from(sid), before, "seed {} sid {}", seed, sid);
            }
        }
    }

    #[test]
    fn entry_range_for_sids() {
        let mut pdt = Pdt::new(100);
        pdt.delete_at(10).unwrap();
        pdt.modify_at(50, 0, Value::I64(0)).unwrap();
        pdt.insert_at(80, v(1)).unwrap();
        let (lo, hi) = pdt.entry_range_for_sids(0, 20);
        assert_eq!(hi - lo, 1);
        let (lo, hi) = pdt.entry_range_for_sids(0, 100);
        assert_eq!(hi - lo, 3);
        let (lo, hi) = pdt.entry_range_for_sids(60, 70);
        assert_eq!(hi - lo, 0);
    }

    #[test]
    fn from_entries_validates() {
        // out of order
        let es = vec![Entry::delete(5), Entry::delete(3)];
        assert!(Pdt::from_entries(10, es).is_err());
        // delete beyond stable
        assert!(Pdt::from_entries(3, vec![Entry::delete(3)]).is_err());
        // insert at stable_rows (append) is legal
        assert!(Pdt::from_entries(3, vec![Entry::insert(3, 0, 1, v(1))]).is_ok());
        // insert beyond is not
        assert!(Pdt::from_entries(3, vec![Entry::insert(4, 0, 1, v(1))]).is_err());
        // duplicate keys rejected
        let es = vec![Entry::delete(5), Entry::delete(5)];
        assert!(Pdt::from_entries(10, es).is_err());
    }

    #[test]
    fn bounds_errors() {
        let mut pdt = Pdt::new(2);
        assert!(pdt.resolve(2).is_err());
        assert!(pdt.delete_at(2).is_err());
        assert!(pdt.modify_at(2, 0, Value::I64(0)).is_err());
        assert!(pdt.insert_at(3, v(0)).is_err());
        pdt.insert_at(2, v(0)).unwrap(); // append ok
        assert_eq!(pdt.current_rows(), 3);
    }
}
