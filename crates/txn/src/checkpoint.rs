//! Checkpointing: fold the master PDT into the stable columnar image.
//!
//! PDTs keep updates cheap, but they grow and every scan pays a merge cost.
//! Periodically the system builds the next stable image with all deltas
//! applied, installs it with an empty master PDT, and trims the WAL of what
//! the image now contains. The paper calls this propagating the deltas to
//! the "stable table image" [5].
//!
//! The next image is built *by column block* from the current one (Vertica's
//! tuple mover moves and merges containers, never a whole projection): a row
//! group the PDT does not touch is shared as is, a group touched only by
//! modifies re-encodes the patched columns, a group with inserts or deletes
//! is merged column-wise and re-encoded, and appended rows go behind the
//! last group. Queries keep scanning the image they started on; its
//! replaced blocks are freed when the last of them lets go.

use crate::manager::TxnManager;
use std::time::Duration;
use vw_common::{Result, TableId, VwError};
use vw_pdt::{Change, Entry, Pdt};
use vw_storage::{GroupEdit, ImageStats, NullableColumn, TableStorage};

/// What one checkpoint did.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointStats {
    /// Rows of the table's stable image after the checkpoint.
    pub rows: u64,
    /// Blocks of that image, and how many of them (and how many encoded
    /// bytes) the checkpoint wrote; the rest are shared with the image before.
    pub image: ImageStats,
    /// How long installing the image waited for the version lock.
    pub swap_wait: Duration,
}

/// Merge PDT `entries` — all of one row group, which starts at stable row
/// `grp_start` — into the group's decoded column `col` (column `c` of the
/// table): stable runs between entries are copied as slices, inserted and
/// modified cells pushed in between.
pub fn merge_column(
    stable: &NullableColumn,
    c: usize,
    entries: &[Entry],
    grp_start: u64,
) -> Result<NullableColumn> {
    let mut out = NullableColumn {
        data: stable.data.slice(0, 0),
        nulls: None,
    };
    // Stable rows `[run, at)` are pending: unchanged, not yet copied.
    let mut run = 0usize;
    for e in entries {
        let at = (e.sid - grp_start) as usize;
        let cell = match &e.change {
            Change::Insert { row, .. } => Some((&row[c], at)),
            Change::Delete => None,
            Change::Modify(mods) => match mods.get(&(c as u32)) {
                Some(v) => Some((v, at + 1)),
                None => continue,
            },
        };
        out.extend_from_range(stable, run, at);
        match cell {
            Some((v, resume)) => {
                out.push(v)?;
                run = resume;
            }
            None => run = at + 1,
        }
    }
    out.extend_from_range(stable, run, stable.len());
    Ok(out.normalize())
}

/// Build the image that holds `image` with `pdt` folded in.
fn fold_image(image: &TableStorage, pdt: &Pdt) -> Result<(TableStorage, ImageStats)> {
    let stable = pdt.stable_rows();
    if stable != image.n_rows() {
        return Err(VwError::Invalid(format!(
            "PDT over {} stable rows, image has {}",
            stable,
            image.n_rows()
        )));
    }
    let entries = pdt.entries();
    let of_group = |g: usize| {
        let grp = image.group(g);
        let (lo, hi) = pdt.entry_range_for_sids(grp.start_row, grp.start_row + grp.n_rows as u64);
        (&entries[lo..hi], grp.start_row)
    };
    let merged = |g: usize, c: usize| {
        let (entries, start) = of_group(g);
        merge_column(&image.read_column(g, c)?, c, entries, start)
    };
    let (lo, hi) = pdt.entry_range_for_sids(stable, stable + 1);
    let appended = |c: usize, mut col: NullableColumn| {
        for e in &entries[lo..hi] {
            if let Change::Insert { row, .. } = &e.change {
                col.push(&row[c])?;
            }
        }
        Ok(col)
    };
    let schema = image.schema();

    // A declared sort order or range partitioning places a row by its
    // values: an insert, or a modify of a column the layout reads, can move
    // one, and then the whole table is sorted and bucketed again.
    let layout = image.layout();
    let places_by = |c: u32| {
        layout.order.iter().any(|s| s.col == c as usize)
            || layout.partition.is_some_and(|p| p.col == c as usize)
    };
    let moves_rows = !layout.is_trivial()
        && entries.iter().any(|e| match &e.change {
            Change::Insert { .. } => true,
            Change::Modify(mods) => mods.keys().any(|c| places_by(*c)),
            Change::Delete => false,
        });
    if moves_rows {
        let columns = (0..schema.len())
            .map(|c| {
                let mut col = NullableColumn::empty(schema.field(c).ty);
                for g in 0..image.group_count() {
                    let part = merged(g, c)?;
                    col.extend_from_range(&part, 0, part.len());
                }
                appended(c, col)
            })
            .collect::<Result<Vec<_>>>()?;
        let mut next = image.fresh_like();
        next.rebuild_from_chunks(&[columns])?;
        let blocks = next.group_count() * schema.len();
        let stats = ImageStats {
            blocks_total: blocks,
            blocks_rewritten: blocks,
            bytes_written: next.encoded_bytes(),
        };
        return Ok((next, stats));
    }

    let tail = (hi > lo)
        .then(|| {
            (0..schema.len())
                .map(|c| appended(c, NullableColumn::empty(schema.field(c).ty)))
                .collect::<Result<Vec<_>>>()
        })
        .transpose()?;
    image.next_image(
        |g| {
            let (entries, _) = of_group(g);
            if entries.is_empty() {
                return Ok(GroupEdit::Keep);
            }
            let mut patched: Vec<usize> = Vec::new();
            for e in entries {
                match &e.change {
                    Change::Modify(mods) => patched.extend(mods.keys().map(|c| *c as usize)),
                    _ => {
                        // The row set changes: every column is merged.
                        let cols = (0..schema.len()).map(|c| merged(g, c));
                        return Ok(GroupEdit::Replace(cols.collect::<Result<_>>()?));
                    }
                }
            }
            patched.sort_unstable();
            patched.dedup();
            let cols = patched.into_iter().map(|c| Ok((c, merged(g, c)?)));
            Ok(GroupEdit::Patch(cols.collect::<Result<_>>()?))
        },
        tail,
    )
}

/// Checkpoint one table: build its next stable image with the master PDT
/// folded in, install it with an empty master, trim the WAL.
///
/// Queries and transactions that pinned the version before keep it; commits
/// to this table wait for the checkpoint (and, their snapshot being of the
/// replaced image, then fail with a conflict); everything else proceeds.
pub fn checkpoint_table(mgr: &TxnManager, table: TableId) -> Result<CheckpointStats> {
    let (ticket, version, lsn) = mgr.begin_checkpoint(table)?;
    let image = version.storage.read();
    let (next, stats) = if version.pdt.is_empty() {
        // Nothing to fold; the log may still have sections to trim.
        let stats = ImageStats {
            blocks_total: image.group_count() * image.schema().len(),
            ..ImageStats::default()
        };
        (None, stats)
    } else {
        let (mut next, stats) = fold_image(&image, &version.pdt)?;
        next.set_checkpoint_lsn(lsn);
        (Some(next), stats)
    };
    let rows = next.as_ref().map_or(image.n_rows(), |n| n.n_rows());
    drop(image);
    Ok(CheckpointStats {
        rows,
        image: stats,
        swap_wait: ticket.install(next)?,
    })
}

/// The current logical image (stable + PDT) as one chunk per column, built
/// one `Value` at a time by asking the PDT what every RID holds: the
/// reference the block-wise fold is tested against.
#[cfg(test)]
pub(crate) fn materialize_image(pdt: &Pdt, storage: &TableStorage) -> Result<Vec<NullableColumn>> {
    use vw_common::Value;
    use vw_pdt::Loc;
    let schema = storage.schema().clone();
    let stable = vw_storage::read_all_columns(storage)?;
    let n_rows = pdt.current_rows();
    let mut out_vals: Vec<Vec<Value>> = vec![Vec::with_capacity(n_rows as usize); schema.len()];
    for rid in 0..n_rows {
        match pdt.resolve(rid)? {
            Loc::Inserted(e) => {
                for (c, v) in pdt.inserted_row(e).iter().enumerate() {
                    out_vals[c].push(v.clone());
                }
            }
            Loc::Stable { sid, modify } => {
                for c in 0..schema.len() {
                    let mut v = stable[c].get_value(sid as usize, schema.field(c).ty);
                    if let Some(m) = modify {
                        if let Some(nv) = pdt.mods_of(m).get(&(c as u32)) {
                            v = nv.clone();
                        }
                    }
                    out_vals[c].push(v);
                }
            }
        }
    }
    schema
        .fields()
        .iter()
        .zip(out_vals)
        .map(|(f, vals)| NullableColumn::from_values(f.ty, &vals))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::temp_wal_path;
    use proptest::prelude::*;
    use std::sync::Arc;
    use vw_common::rng::Xoshiro256;
    use vw_common::{BlockId, DataType, Field, Schema, SortSpec, TableLayout, Value};
    use vw_storage::{read_all_columns, SimDisk, SimDiskConfig, TableBuilder};

    const T: TableId = TableId(9);

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("k", DataType::I64),
            Field::nullable("s", DataType::Str),
        ])
    }

    fn build_table(n: usize) -> TableStorage {
        let disk = Arc::new(SimDisk::new(SimDiskConfig::default()));
        let mut b = TableBuilder::with_group_size(schema(), disk, 64);
        for i in 0..n {
            b.push_row(vec![Value::I64(i as i64), Value::Str(format!("r{}", i))])
                .unwrap();
        }
        b.finish().unwrap()
    }

    fn mgr_over(storage: TableStorage, tag: &str) -> (TxnManager, std::path::PathBuf) {
        let path = temp_wal_path(tag);
        let mgr = TxnManager::new(&path).unwrap();
        mgr.register_table(T, storage);
        (mgr, path)
    }

    #[test]
    fn checkpoint_folds_updates_into_storage() {
        let (mgr, path) = mgr_over(build_table(100), "ckpt");
        let before = mgr.current(T).unwrap().storage;

        let mut t = mgr.begin();
        t.delete_at(T, 10).unwrap();
        t.modify_at(T, 0, 0, Value::I64(-1)).unwrap();
        t.append(T, vec![Value::I64(500), Value::Null]).unwrap();
        mgr.commit(t).unwrap();

        let done = checkpoint_table(&mgr, T).unwrap();
        assert_eq!(done.rows, 100); // -1 +1
        let now = mgr.current(T).unwrap();
        assert!(!Arc::ptr_eq(&now.storage, &before));
        let storage = now.storage.read();
        assert_eq!(storage.n_rows(), 100);
        // Master reset and WAL trimmed.
        assert!(now.pdt.is_empty());
        assert_eq!(crate::wal::Wal::replay(&path).unwrap().len(), 0);
        // Data landed: row 0 modified, old row 10 gone, appended row present.
        assert_eq!(storage.read_row(0).unwrap()[0], Value::I64(-1));
        assert_eq!(storage.read_row(10).unwrap()[0], Value::I64(11)); // shifted
        let last = storage.read_row(99).unwrap();
        assert_eq!(last[0], Value::I64(500));
        assert_eq!(last[1], Value::Null);
        // The image before is untouched for whoever still reads it.
        assert_eq!(before.read().read_row(10).unwrap()[0], Value::I64(10));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn checkpoint_empty_pdt_truncates_only() {
        let (mgr, path) = mgr_over(build_table(10), "ckpt_empty");
        let before = mgr.current(T).unwrap().storage;
        let done = checkpoint_table(&mgr, T).unwrap();
        assert_eq!(done.rows, 10);
        assert_eq!(done.image.blocks_rewritten, 0);
        let image = mgr.current(T).unwrap().storage;
        assert!(Arc::ptr_eq(&image, &before));
        assert_eq!(image.read().read_row(3).unwrap()[0], Value::I64(3));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn post_checkpoint_txns_continue() {
        let (mgr, path) = mgr_over(build_table(20), "ckpt_cont");
        let mut t = mgr.begin();
        t.delete_at(T, 0).unwrap();
        mgr.commit(t).unwrap();
        checkpoint_table(&mgr, T).unwrap();
        assert_eq!(mgr.current(T).unwrap().storage.read().n_rows(), 19);
        // New txn on the checkpointed table.
        let mut t2 = mgr.begin();
        t2.modify_at(T, 0, 0, Value::I64(1000)).unwrap();
        mgr.commit(t2).unwrap();
        let now = mgr.current(T).unwrap();
        let image = materialize_image(&now.pdt, &now.storage.read()).unwrap();
        assert_eq!(image[0].get_value(0, DataType::I64), Value::I64(1000));
        assert_eq!(image[0].len(), 19);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn materialize_image_with_interleaved_ops() {
        let (mgr, path) = mgr_over(build_table(5), "ckpt_mat");
        let mut t = mgr.begin();
        t.insert_at(T, 2, vec![Value::I64(77), Value::Str("ins".into())])
            .unwrap();
        t.delete_at(T, 0).unwrap();
        mgr.commit(t).unwrap();
        let now = mgr.current(T).unwrap();
        let image = materialize_image(&now.pdt, &now.storage.read()).unwrap();
        // original: 0,1,2,3,4 → insert 77 before rid2(=row2) → 0,1,77,2,3,4
        // → delete rid 0 → 1,77,2,3,4
        let ks: Vec<Value> = (0..image[0].len())
            .map(|i| image[0].get_value(i, DataType::I64))
            .collect();
        assert_eq!(
            ks,
            vec![
                Value::I64(1),
                Value::I64(77),
                Value::I64(2),
                Value::I64(3),
                Value::I64(4)
            ]
        );
        std::fs::remove_file(path).ok();
    }

    /// A transaction that began before a checkpoint keeps reading the
    /// version it pinned, and cannot commit what it wrote there.
    #[test]
    fn transaction_spanning_a_checkpoint_reads_its_version_and_conflicts() {
        let (mgr, path) = mgr_over(build_table(100), "ckpt_span");
        let mut old = mgr.begin();
        let mut other = mgr.begin();
        other.delete_many(T, &[0, 1, 2]).unwrap();
        mgr.commit(other).unwrap();
        checkpoint_table(&mgr, T).unwrap();
        // Still 100 rows over the image of 100 for the old transaction.
        old.modify_at(T, 50, 0, Value::I64(-50)).unwrap();
        let view = old.view(T).unwrap();
        let seen = materialize_image(&view.pdt, &view.storage.read()).unwrap();
        assert_eq!(seen[0].len(), 100);
        assert_eq!(seen[0].get_value(50, DataType::I64), Value::I64(-50));
        let err = mgr.commit(old).unwrap_err();
        assert_eq!(err.kind(), "txn_conflict");
        assert_eq!(mgr.abort_count(), 1);
        // A transaction begun since works on the new version.
        let mut new = mgr.begin();
        new.modify_at(T, 50, 0, Value::I64(-53)).unwrap();
        mgr.commit(new).unwrap();
        std::fs::remove_file(path).ok();
    }

    /// A commit to the table being checkpointed waits for the install; one
    /// to another table does not.
    #[test]
    fn commits_wait_only_for_a_checkpoint_of_their_own_table() {
        const OTHER: TableId = TableId(10);
        let (mgr, path) = mgr_over(build_table(10), "ckpt_wait");
        mgr.register_table(OTHER, build_table(10));
        let (ticket, ..) = mgr.begin_checkpoint(T).unwrap();
        let mut free = mgr.begin();
        free.delete_at(OTHER, 0).unwrap();
        mgr.commit(free).unwrap();
        let mut held = mgr.begin();
        held.delete_at(T, 0).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| tx.send(mgr.commit(held)).unwrap());
            // The commit is parked behind the ticket.
            assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
            ticket.install(None).unwrap();
            // No image was installed, so the snapshot still stands.
            rx.recv().unwrap().unwrap();
        });
        assert_eq!(mgr.current_pdt(T).unwrap().delete_count(), 1);
        std::fs::remove_file(path).ok();
    }

    fn block_ids(t: &TableStorage, g: usize) -> Vec<BlockId> {
        t.group(g).columns.iter().map(|c| c.block_id()).collect()
    }

    fn all_bytes(t: &TableStorage) -> Vec<(usize, Vec<u8>)> {
        (0..t.group_count())
            .flat_map(|g| block_ids(t, g).into_iter().map(move |id| (g, id)))
            .map(|(g, id)| (t.group(g).n_rows, t.disk().read_block(id).unwrap().to_vec()))
            .collect()
    }

    /// Three columns, NULLs in two of them, groups of 16.
    fn random_table(r: &mut Xoshiro256, rows: usize, layout: TableLayout) -> TableStorage {
        let schema = Schema::new(vec![
            Field::new("k", DataType::I64),
            Field::nullable("s", DataType::Str),
            Field::nullable("f", DataType::F64),
        ]);
        let mut t = TableStorage::with_group_size(schema, SimDisk::default_disk(), 16);
        t.set_name("t");
        t.set_layout(layout).unwrap();
        let mut b = TableBuilder::for_table(t);
        for _ in 0..rows {
            b.push_row(random_row(r)).unwrap();
        }
        b.finish().unwrap()
    }

    fn random_row(r: &mut Xoshiro256) -> Vec<Value> {
        vec![
            Value::I64(r.range_i64(0, 1000)),
            match r.next_below(4) {
                0 => Value::Null,
                _ => Value::Str(format!("s{}", r.next_below(7))),
            },
            match r.next_below(5) {
                0 => Value::Null,
                _ => Value::F64(r.range_i64(-50, 50) as f64 / 4.0),
            },
        ]
    }

    /// `kinds` picks from insert (0), append (1), delete (2), modify (3);
    /// `mod_cols` are the columns a modify may write.
    fn random_pdt(
        r: &mut Xoshiro256,
        stable: u64,
        ops: usize,
        kinds: &[u64],
        mod_cols: &[u32],
    ) -> Pdt {
        let mut pdt = Pdt::new(stable);
        for _ in 0..ops {
            let len = pdt.current_rows();
            match kinds[r.next_below(kinds.len() as u64) as usize] {
                0 => pdt.insert_at(r.next_below(len + 1), random_row(r)).unwrap(),
                1 => pdt.insert_at(len, random_row(r)).unwrap(),
                2 if len > 0 => {
                    // Sometimes a whole run, to empty groups (and tables).
                    let from = r.next_below(len);
                    let to = (from + 1 + r.next_below(24) * r.next_below(2)).min(len);
                    pdt.delete_many(&(from..to).collect::<Vec<_>>()).unwrap();
                }
                3 if len > 0 => {
                    let col = mod_cols[r.next_below(mod_cols.len() as u64) as usize];
                    let v = random_row(r).swap_remove(col as usize);
                    pdt.modify_at(r.next_below(len), col, v).unwrap();
                }
                _ => {}
            }
        }
        pdt
    }

    fn assert_decodes_to(next: &TableStorage, reference: &[NullableColumn]) {
        assert_eq!(next.n_rows() as usize, reference[0].len());
        let mut at = 0u64;
        for g in next.groups() {
            assert_eq!(g.start_row, at);
            assert!(g.n_rows > 0 && g.n_rows <= next.rows_per_group());
            at += g.n_rows as u64;
        }
        assert_eq!(read_all_columns(next).unwrap(), reference);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Whatever the PDT holds, the block-wise fold decodes to the
        /// reference image, shares the groups it may and rewrites no more
        /// of a modify-only group than the patched columns.
        #[test]
        fn incremental_image_equals_reference(seed in 0u64..1_000_000) {
            let mut r = Xoshiro256::seeded(seed);
            let rows = r.next_below(90) as usize;
            let image = random_table(&mut r, rows, TableLayout::default());
            // Few ops leave groups to share, many empty groups and tables.
            let most = if r.chance(0.5) { 6 } else { 40 };
            let ops = r.next_below(most) as usize;
            let pdt = random_pdt(&mut r, rows as u64, ops, &[0, 1, 2, 3], &[0, 1, 2]);
            let reference = materialize_image(&pdt, &image).unwrap();
            let (next, stats) = fold_image(&image, &pdt).unwrap();
            assert_decodes_to(&next, &reference);

            let mut shared = 0;
            for g in 0..image.group_count() {
                let grp = image.group(g);
                let (lo, hi) =
                    pdt.entry_range_for_sids(grp.start_row, grp.start_row + grp.n_rows as u64);
                let entries = &pdt.entries()[lo..hi];
                // The last group may have taken the appended rows in.
                let folded = g + 1 == image.group_count()
                    && grp.n_rows < 16
                    && pdt.first_rid_from(rows as u64) < pdt.current_rows();
                if folded || !entries.iter().all(|e| e.change.is_modify()) {
                    continue;
                }
                let patched: Vec<usize> = entries
                    .iter()
                    .flat_map(|e| match &e.change {
                        Change::Modify(m) => m.keys().map(|c| *c as usize).collect::<Vec<_>>(),
                        _ => unreachable!(),
                    })
                    .collect();
                let old = block_ids(&image, g);
                let new = (0..next.group_count())
                    .map(|n| block_ids(&next, n))
                    .find(|ids| ids.iter().any(|id| old.contains(id)));
                if patched.len() == 3 && new.is_none() {
                    continue; // every column patched somewhere in the group
                }
                let new = new.expect("an untouched block of the group is shared");
                for c in 0..3 {
                    prop_assert_eq!(old[c] == new[c], !patched.contains(&c), "group {} col {}", g, c);
                    shared += (old[c] == new[c]) as usize;
                }
            }
            prop_assert_eq!(stats.blocks_total, next.group_count() * 3);
            prop_assert_eq!(stats.blocks_total - stats.blocks_rewritten, shared);
            // Blocks only the old image holds go with it; the rest stay.
            let disk = image.disk().clone();
            drop(image);
            prop_assert_eq!(disk.block_count(), stats.blocks_total);
            assert_decodes_to(&next, &reference);
        }

        /// Modifies and appends leave every group its size, and then the
        /// fold writes, byte for byte, the image a full rebuild would.
        #[test]
        fn modify_and_append_fold_is_byte_identical_to_a_rebuild(seed in 0u64..1_000_000) {
            let mut r = Xoshiro256::seeded(seed);
            let rows = r.next_below(90) as usize;
            let image = random_table(&mut r, rows, TableLayout::default());
            let ops = 1 + r.next_below(30) as usize;
            let pdt = random_pdt(&mut r, rows as u64, ops, &[1, 3], &[0, 1, 2]);
            let (next, _) = fold_image(&image, &pdt).unwrap();
            let mut rebuilt = image.fresh_like();
            rebuilt
                .rebuild_from_chunks(&[materialize_image(&pdt, &image).unwrap()])
                .unwrap();
            prop_assert_eq!(all_bytes(&next), all_bytes(&rebuilt));
        }

        /// A declared layout survives: changes that can move a row re-sort
        /// and re-bucket the table, the others keep groups and extents.
        #[test]
        fn fold_keeps_a_declared_layout(seed in 0u64..1_000_000) {
            let mut r = Xoshiro256::seeded(seed);
            let rows = 20 + r.next_below(70) as usize;
            let layout = TableLayout {
                order: vec![SortSpec::new(0, true)],
                partition: r.chance(0.5).then_some(vw_common::RangePartitionSpec {
                    col: 0,
                    partitions: 3,
                }),
            };
            let image = random_table(&mut r, rows, layout);
            let moving = r.chance(0.5);
            let ops = 1 + r.next_below(30) as usize;
            let pdt = if moving {
                random_pdt(&mut r, rows as u64, ops, &[0, 1, 2, 3], &[0, 1, 2])
            } else {
                random_pdt(&mut r, rows as u64, ops, &[2, 3], &[1, 2])
            };
            let (next, stats) = fold_image(&image, &pdt).unwrap();
            let mut rebuilt = image.fresh_like();
            rebuilt
                .rebuild_from_chunks(&[materialize_image(&pdt, &image).unwrap()])
                .unwrap();
            // Same rows in the same (sorted, stable) order as a rebuild.
            assert_decodes_to(&next, &read_all_columns(&rebuilt).unwrap());
            prop_assert_eq!(next.partition_count(), image.partition_count());
            let mut covered = 0;
            for p in 0..next.partition_count() {
                let (s, e) = next.partition_extent(p);
                prop_assert_eq!(s, covered);
                covered = e;
                for g in s..e {
                    prop_assert_eq!(next.partition_of_group(g), p);
                }
            }
            prop_assert_eq!(covered, next.group_count());
            if !moving && pdt.delete_count() == 0 && !pdt.is_empty() {
                prop_assert!(stats.blocks_rewritten < stats.blocks_total || rows <= 16);
            }
        }
    }
}
