//! Translate and propagate: moving changes between PDT layers.
//!
//! A transaction works on a *working PDT* — a clone of its snapshot's master
//! PDT that it mutates privately (the paper's trans-PDT, expressed directly
//! in stable coordinates). At commit time:
//!
//! 1. [`translate`] diffs the working PDT against the snapshot, producing the
//!    transaction's own changes as a sorted list of [`StableOp`]s in stable
//!    coordinates. This list is what the WAL logs.
//! 2. The transaction manager checks the ops' [`Footprint`](crate::Footprint)
//!    against every commit that happened since the snapshot (optimistic CC).
//! 3. [`propagate`] merges the ops into the *current* master PDT, yielding
//!    the new master. PDT inserts are matched by identity tag, so the merge
//!    is exact even though `(sid, seq)` coordinates may have been renumbered
//!    by concurrent (non-conflicting) commits.

use crate::entry::{Change, Entry, TUPLE_SEQ};
use crate::pdt::Pdt;
use std::collections::{BTreeMap, HashMap, HashSet};
use vw_common::{Result, Value, VwError};

/// One transaction-level change in stable coordinates.
#[derive(Debug, Clone, PartialEq)]
pub enum StableOp {
    /// Delete stable tuple `sid`.
    DeleteStable { sid: u64 },
    /// Overwrite columns of stable tuple `sid`.
    ModifyStable {
        sid: u64,
        mods: BTreeMap<u32, Value>,
    },
    /// Insert a new tuple before stable tuple `sid`. `before_tag` pins the
    /// position among existing PDT inserts at this SID: insert immediately
    /// before the insert carrying that tag, or after all of them if `None`.
    Insert {
        sid: u64,
        before_tag: Option<u64>,
        tag: u64,
        row: Vec<Value>,
    },
    /// Remove a PDT insert (identified by tag) — deleting an uncommitted-to-
    /// stable tuple cancels it.
    DeleteInserted { sid: u64, tag: u64 },
    /// Patch columns of a PDT insert.
    ModifyInserted {
        sid: u64,
        tag: u64,
        mods: BTreeMap<u32, Value>,
    },
}

impl StableOp {
    /// SID this op anchors to (for ordering and footprints).
    pub fn sid(&self) -> u64 {
        match self {
            StableOp::DeleteStable { sid }
            | StableOp::ModifyStable { sid, .. }
            | StableOp::Insert { sid, .. }
            | StableOp::DeleteInserted { sid, .. }
            | StableOp::ModifyInserted { sid, .. } => *sid,
        }
    }

    /// Sort key: insert-affecting ops before tuple ops at the same SID.
    fn order_key(&self) -> (u64, u8) {
        let kind = match self {
            StableOp::Insert { .. }
            | StableOp::DeleteInserted { .. }
            | StableOp::ModifyInserted { .. } => 0,
            StableOp::DeleteStable { .. } | StableOp::ModifyStable { .. } => 1,
        };
        (self.sid(), kind)
    }
}

/// Diff `working` (snapshot + this transaction's changes) against
/// `snapshot`, both over the same stable image. Returns the transaction's
/// changes as stable-coordinate ops, sorted.
pub fn translate(snapshot: &Pdt, working: &Pdt) -> Result<Vec<StableOp>> {
    if snapshot.stable_rows() != working.stable_rows() {
        return Err(VwError::Invalid(
            "snapshot/working stable size mismatch".into(),
        ));
    }
    let mut ops: Vec<StableOp> = Vec::new();
    let se = snapshot.entries();
    let we = working.entries();
    let (mut i, mut j) = (0usize, 0usize);
    // Sweep SIDs present in either entry list.
    while i < se.len() || j < we.len() {
        let sid = match (se.get(i), we.get(j)) {
            (Some(a), Some(b)) => a.sid.min(b.sid),
            (Some(a), None) => a.sid,
            (None, Some(b)) => b.sid,
            (None, None) => unreachable!(),
        };
        let si_end = advance(se, i, sid);
        let wi_end = advance(we, j, sid);
        diff_sid_group(&se[i..si_end], &we[j..wi_end], sid, &mut ops)?;
        i = si_end;
        j = wi_end;
    }
    debug_assert!(ops.windows(2).all(|w| w[0].order_key() <= w[1].order_key()));
    Ok(ops)
}

fn advance(entries: &[Entry], from: usize, sid: u64) -> usize {
    let mut k = from;
    while k < entries.len() && entries[k].sid == sid {
        k += 1;
    }
    k
}

/// Diff the entries of one SID. `s` = snapshot entries, `w` = working.
fn diff_sid_group(s: &[Entry], w: &[Entry], sid: u64, ops: &mut Vec<StableOp>) -> Result<()> {
    // --- Inserts: match by tag. Working-only tags are new inserts; their
    // position is pinned by the next surviving snapshot tag after them.
    fn tagged(entries: &[Entry]) -> Vec<(u64, &[Value])> {
        entries
            .iter()
            .filter_map(|e| match &e.change {
                Change::Insert { tag, row } => Some((*tag, row.as_slice())),
                _ => None,
            })
            .collect()
    }
    let (s_inserts, w_inserts) = (tagged(s), tagged(w));
    let s_rows: HashMap<u64, &[Value]> = s_inserts.iter().copied().collect();
    let w_tags: HashSet<u64> = w_inserts.iter().map(|(tag, _)| *tag).collect();

    // Deleted snapshot inserts.
    for (tag, _) in &s_inserts {
        if !w_tags.contains(tag) {
            ops.push(StableOp::DeleteInserted { sid, tag: *tag });
        }
    }
    // For each working insert, the first surviving snapshot insert that
    // follows it in working order.
    let mut before_tags = vec![None; w_inserts.len()];
    let mut next_surviving = None;
    for (k, (tag, _)) in w_inserts.iter().enumerate().rev() {
        before_tags[k] = next_surviving;
        if s_rows.contains_key(tag) {
            next_surviving = Some(*tag);
        }
    }
    // New and modified inserts, in working order.
    for ((tag, row), before_tag) in w_inserts.iter().zip(before_tags) {
        let tag = *tag;
        match s_rows.get(&tag) {
            // Survived: payload may have been patched.
            Some(s_row) if s_row == row => {}
            Some(s_row) => {
                if s_row.len() != row.len() {
                    return Err(VwError::Invalid("insert arity changed".into()));
                }
                let mods = s_row
                    .iter()
                    .zip(row.iter())
                    .enumerate()
                    .filter(|(_, (a, b))| a != b)
                    .map(|(c, (_, b))| (c as u32, b.clone()))
                    .collect();
                ops.push(StableOp::ModifyInserted { sid, tag, mods });
            }
            None => ops.push(StableOp::Insert {
                sid,
                before_tag,
                tag,
                row: row.to_vec(),
            }),
        }
    }

    // --- Tuple entry (Delete/Modify of the stable tuple).
    let s_tuple = s.iter().find(|e| e.seq == TUPLE_SEQ);
    let w_tuple = w.iter().find(|e| e.seq == TUPLE_SEQ);
    match (s_tuple.map(|e| &e.change), w_tuple.map(|e| &e.change)) {
        (None, None) => {}
        (None, Some(Change::Delete)) => ops.push(StableOp::DeleteStable { sid }),
        (None, Some(Change::Modify(m))) => ops.push(StableOp::ModifyStable {
            sid,
            mods: m.clone(),
        }),
        (Some(Change::Modify(_)), Some(Change::Delete)) => ops.push(StableOp::DeleteStable { sid }),
        (Some(Change::Modify(m1)), Some(Change::Modify(m2))) => {
            let mut mods = BTreeMap::new();
            for (c, v) in m2 {
                if m1.get(c) != Some(v) {
                    mods.insert(*c, v.clone());
                }
            }
            if !mods.is_empty() {
                ops.push(StableOp::ModifyStable { sid, mods });
            }
        }
        (Some(Change::Delete), Some(Change::Delete)) => {}
        (a, b) => {
            return Err(VwError::Invalid(format!(
                "impossible tuple-entry transition at sid {}: {:?} -> {:?}",
                sid,
                a.map(kind_name),
                b.map(kind_name),
            )))
        }
    }
    Ok(())
}

fn kind_name(c: &Change) -> &'static str {
    match c {
        Change::Insert { .. } => "insert",
        Change::Delete => "delete",
        Change::Modify(_) => "modify",
    }
}

/// Merge translated ops into `master`, yielding the new master PDT.
///
/// Positional conflicts (e.g. deleting a tuple another transaction already
/// deleted) surface as `TxnConflict` — the transaction manager's footprint
/// check should have caught them earlier; this is the backstop.
pub fn propagate(master: &Pdt, ops: &[StableOp]) -> Result<Pdt> {
    let me = master.entries();
    let mut out: Vec<Entry> = Vec::with_capacity(me.len() + ops.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < me.len() || j < ops.len() {
        let sid = match (me.get(i), ops.get(j)) {
            (Some(a), Some(b)) => a.sid.min(b.sid()),
            (Some(a), None) => a.sid,
            (None, Some(b)) => b.sid(),
            (None, None) => unreachable!(),
        };
        let mi_end = advance(me, i, sid);
        let mut oj_end = j;
        while oj_end < ops.len() && ops[oj_end].sid() == sid {
            oj_end += 1;
        }
        merge_sid_group(&me[i..mi_end], &ops[j..oj_end], sid, &mut out)?;
        i = mi_end;
        j = oj_end;
    }
    Pdt::from_entries(master.stable_rows(), out)
}

fn merge_sid_group(m: &[Entry], ops: &[StableOp], sid: u64, out: &mut Vec<Entry>) -> Result<()> {
    // Working list of insert entries at this SID.
    let mut inserts: Vec<Entry> = m.iter().filter(|e| e.change.is_insert()).cloned().collect();
    let mut tuple: Option<Entry> = m.iter().find(|e| e.seq == TUPLE_SEQ).cloned();

    for op in ops {
        match op {
            StableOp::Insert {
                before_tag,
                tag,
                row,
                ..
            } => {
                let pos = match before_tag {
                    Some(bt) => inserts
                        .iter()
                        .position(|e| e.change.tag() == Some(*bt))
                        .unwrap_or(inserts.len()),
                    None => inserts.len(),
                };
                inserts.insert(pos, Entry::insert(sid, 0, *tag, row.clone()));
            }
            StableOp::DeleteInserted { tag, .. } => {
                let pos = inserts
                    .iter()
                    .position(|e| e.change.tag() == Some(*tag))
                    .ok_or_else(|| VwError::TxnConflict(format!("insert tag {} vanished", tag)))?;
                inserts.remove(pos);
            }
            StableOp::ModifyInserted { tag, mods, .. } => {
                let e = inserts
                    .iter_mut()
                    .find(|e| e.change.tag() == Some(*tag))
                    .ok_or_else(|| VwError::TxnConflict(format!("insert tag {} vanished", tag)))?;
                if let Change::Insert { row, .. } = &mut e.change {
                    for (&c, v) in mods {
                        let c = c as usize;
                        if c >= row.len() {
                            return Err(VwError::Invalid("modify col out of range".into()));
                        }
                        row[c] = v.clone();
                    }
                }
            }
            StableOp::DeleteStable { .. } => match &tuple {
                Some(e) if e.change.is_delete() => {
                    return Err(VwError::TxnConflict(format!(
                        "stable tuple {} already deleted",
                        sid
                    )))
                }
                _ => tuple = Some(Entry::delete(sid)),
            },
            StableOp::ModifyStable { mods, .. } => match &mut tuple {
                Some(e) if e.change.is_delete() => {
                    return Err(VwError::TxnConflict(format!(
                        "stable tuple {} deleted by concurrent txn",
                        sid
                    )))
                }
                Some(e) => {
                    if let Change::Modify(m) = &mut e.change {
                        for (c, v) in mods {
                            m.insert(*c, v.clone());
                        }
                    }
                }
                None => tuple = Some(Entry::modify(sid, mods.clone())),
            },
        }
    }

    for (seq, mut e) in inserts.into_iter().enumerate() {
        e.seq = seq as u32;
        out.push(e);
    }
    if let Some(t) = tuple {
        out.push(t);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::next_tag;

    fn v(x: i64) -> Vec<Value> {
        vec![Value::I64(x)]
    }

    /// End-to-end sanity: working = snapshot + ops; translate + propagate on
    /// the same snapshot must reproduce the working PDT's image.
    fn roundtrip_image(snapshot: &Pdt, working: &Pdt) {
        let ops = translate(snapshot, working).unwrap();
        let rebuilt = propagate(snapshot, &ops).unwrap();
        assert_eq!(rebuilt.current_rows(), working.current_rows());
        let n = snapshot.stable_rows();
        let mut fetch_a = |sid: u64| vec![Value::I64(sid as i64 * 10)];
        let mut fetch_b = |sid: u64| vec![Value::I64(sid as i64 * 10)];
        assert!(n >= rebuilt.stable_rows());
        for rid in 0..working.current_rows() {
            assert_eq!(
                rebuilt.row_at(rid, &mut fetch_a).unwrap(),
                working.row_at(rid, &mut fetch_b).unwrap(),
                "rid {}",
                rid
            );
        }
    }

    #[test]
    fn translate_empty_diff() {
        let snap = Pdt::new(10);
        let work = snap.clone();
        assert!(translate(&snap, &work).unwrap().is_empty());
    }

    #[test]
    fn translate_and_propagate_basic_ops() {
        let snap = Pdt::new(5);
        let mut work = snap.clone();
        work.insert_at(2, v(100)).unwrap();
        work.delete_at(4).unwrap(); // stable sid 3
        work.modify_at(0, 0, Value::I64(-5)).unwrap();
        let ops = translate(&snap, &work).unwrap();
        assert_eq!(ops.len(), 3);
        roundtrip_image(&snap, &work);
    }

    #[test]
    fn insert_then_delete_cancels_in_diff() {
        let snap = Pdt::new(5);
        let mut work = snap.clone();
        work.insert_at(1, v(7)).unwrap();
        work.delete_at(1).unwrap();
        assert!(translate(&snap, &work).unwrap().is_empty());
    }

    #[test]
    fn modify_of_snapshot_insert_diffs_by_tag() {
        let mut snap = Pdt::new(3);
        snap.insert_at(1, v(50)).unwrap();
        let mut work = snap.clone();
        work.modify_at(1, 0, Value::I64(51)).unwrap();
        let ops = translate(&snap, &work).unwrap();
        assert_eq!(ops.len(), 1);
        assert!(matches!(ops[0], StableOp::ModifyInserted { .. }));
        roundtrip_image(&snap, &work);
    }

    #[test]
    fn delete_of_snapshot_insert() {
        let mut snap = Pdt::new(3);
        snap.insert_at(0, v(9)).unwrap();
        let mut work = snap.clone();
        work.delete_at(0).unwrap();
        let ops = translate(&snap, &work).unwrap();
        assert!(matches!(ops[0], StableOp::DeleteInserted { .. }));
        roundtrip_image(&snap, &work);
    }

    #[test]
    fn interleaved_inserts_keep_order() {
        let mut snap = Pdt::new(3);
        snap.insert_at(1, v(100)).unwrap();
        snap.insert_at(2, v(200)).unwrap(); // before stable 1, after 100
        let mut work = snap.clone();
        // insert between the two snapshot inserts
        work.insert_at(2, v(150)).unwrap();
        // and one at the very front of sid 1's insert run
        work.insert_at(1, v(50)).unwrap();
        roundtrip_image(&snap, &work);
    }

    #[test]
    fn rebase_onto_advanced_master_disjoint() {
        // snapshot -> txn A deletes sid 1; txn B (same snapshot) modifies sid 3.
        let snap = Pdt::new(5);
        let mut wa = snap.clone();
        wa.delete_at(1).unwrap();
        let ops_a = translate(&snap, &wa).unwrap();
        let master2 = propagate(&snap, &ops_a).unwrap();

        let mut wb = snap.clone();
        wb.modify_at(3, 0, Value::I64(-3)).unwrap();
        let ops_b = translate(&snap, &wb).unwrap();
        // B rebases onto master2 (disjoint footprints).
        let master3 = propagate(&master2, &ops_b).unwrap();
        assert_eq!(master3.current_rows(), 4);
        let mut fetch = |sid: u64| vec![Value::I64(sid as i64)];
        // image: 0, 2, 3(modified), 4
        assert_eq!(master3.row_at(0, &mut fetch).unwrap(), v(0));
        assert_eq!(master3.row_at(1, &mut fetch).unwrap(), v(2));
        assert_eq!(master3.row_at(2, &mut fetch).unwrap(), v(-3));
        assert_eq!(master3.row_at(3, &mut fetch).unwrap(), v(4));
    }

    #[test]
    fn conflicting_double_delete_detected_by_backstop() {
        let snap = Pdt::new(5);
        let mut wa = snap.clone();
        wa.delete_at(1).unwrap();
        let ops_a = translate(&snap, &wa).unwrap();
        let master2 = propagate(&snap, &ops_a).unwrap();
        let mut wb = snap.clone();
        wb.delete_at(1).unwrap();
        let ops_b = translate(&snap, &wb).unwrap();
        let err = propagate(&master2, &ops_b).unwrap_err();
        assert_eq!(err.kind(), "txn_conflict");
    }

    #[test]
    fn vanished_insert_tag_is_conflict() {
        let mut snap = Pdt::new(3);
        snap.insert_at(0, v(9)).unwrap();
        // txn A deletes the insert; txn B modifies it.
        let mut wa = snap.clone();
        wa.delete_at(0).unwrap();
        let master2 = propagate(&snap, &translate(&snap, &wa).unwrap()).unwrap();
        let mut wb = snap.clone();
        wb.modify_at(0, 0, Value::I64(10)).unwrap();
        let err = propagate(&master2, &translate(&snap, &wb).unwrap()).unwrap_err();
        assert_eq!(err.kind(), "txn_conflict");
    }

    #[test]
    fn random_txn_stream_fast_path_equivalence() {
        use vw_common::rng::Xoshiro256;
        let mut r = Xoshiro256::seeded(77);
        let mut master = Pdt::new(40);
        for _txn in 0..30 {
            let snap = master.clone();
            let mut work = snap.clone();
            for _ in 0..r.next_below(8) {
                let len = work.current_rows();
                match r.next_below(3) {
                    0 => {
                        let rid = r.next_below(len + 1);
                        work.insert_at(rid, v(r.range_i64(0, 1000))).unwrap();
                    }
                    1 if len > 0 => {
                        work.delete_at(r.next_below(len)).unwrap();
                    }
                    2 if len > 0 => {
                        work.modify_at(r.next_below(len), 0, Value::I64(r.range_i64(-99, 0)))
                            .unwrap();
                    }
                    _ => {}
                }
            }
            roundtrip_image(&snap, &work);
            let ops = translate(&snap, &work).unwrap();
            master = propagate(&master, &ops).unwrap();
            master.check_invariants().unwrap();
            assert_eq!(master.current_rows(), work.current_rows());
        }
    }

    #[test]
    fn ops_order_key_sorts_inserts_first() {
        let a = StableOp::Insert {
            sid: 5,
            before_tag: None,
            tag: next_tag(),
            row: v(1),
        };
        let b = StableOp::DeleteStable { sid: 5 };
        assert!(a.order_key() < b.order_key());
    }
}
