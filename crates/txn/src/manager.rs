//! The transaction manager: snapshot isolation over versioned tables with
//! optimistic positional concurrency control.
//!
//! Design (mirrors §I-B of the paper):
//!
//! * A table *version* is one thing: an immutable stable image, the **master
//!   PDT** over it — all committed changes since the image was built — and,
//!   stamped on the image, the log position it is current to. The manager
//!   holds the current version of every table behind one lock, so whoever
//!   reads it (a query, `begin`, a checkpoint installing the next image)
//!   sees image and PDT as a pair. Readers clone two `Arc`s: consistent
//!   reads are free and never block writers.
//! * A [`Transaction`] pins the version of every table at `begin` — image
//!   included, so it keeps addressing the rows its positions mean however
//!   many checkpoints pass — and lazily clones a private **working PDT** per
//!   table it writes (the trans-PDT of [5]).
//! * `commit` translates each working PDT into stable-coordinate ops
//!   (`vw_pdt::translate`), checks their [`Footprint`] against every commit
//!   that happened after the snapshot (abort on positional overlap, and on
//!   any table whose image was replaced since: its positions are gone), logs
//!   one WAL record, then propagates the ops into the current masters.
//! * Recovery replays WAL commit records through exactly the same
//!   `propagate` path, table section by table section, skipping the sections
//!   a table's image already contains.

use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vw_common::{Result, TableId, TxnId, Value, VwError};
use vw_pdt::{
    bump_tag_floor, deserialize_ops, max_tag, propagate, serialize_ops, translate, Footprint, Pdt,
    StableOp,
};
use vw_storage::TableStorage;

use crate::wal::Wal;

/// A stable image, shared by every reader of the version it belongs to.
/// Scans and `TableProvider` address storage through the `RwLock`; nothing
/// writes an image once it is installed.
pub type Image = Arc<RwLock<TableStorage>>;

/// What a reader needs of one table: the stable columnar image and the PDT
/// to merge over it. (The execution engine knows it as `TableProvider`.)
#[derive(Clone)]
pub struct TableVersion {
    pub storage: Image,
    pub pdt: Arc<Pdt>,
}

struct TableState {
    image: Image,
    master: Arc<Pdt>,
    /// Bumped on every commit touching this table.
    version: u64,
    /// Footprints of recent commits: `(version_after_commit, footprint)`.
    /// Trimmed at checkpoint time.
    history: Vec<(u64, Footprint)>,
    /// A checkpoint is building the next image from `master`: commits to
    /// the table wait, so none is lost from the new image or folded twice.
    checkpointing: bool,
}

impl TableState {
    fn over(image: Image) -> TableState {
        let rows = image.read().n_rows();
        TableState {
            image,
            master: Arc::new(Pdt::new(rows)),
            version: 0,
            history: Vec::new(),
            checkpointing: false,
        }
    }

    fn current(&self) -> TableVersion {
        TableVersion {
            storage: self.image.clone(),
            pdt: self.master.clone(),
        }
    }
}

struct TmInner {
    tables: HashMap<TableId, TableState>,
    next_txn: u64,
    wal: Wal,
    commits: u64,
    aborts: u64,
}

impl TmInner {
    fn table(&mut self, table: TableId) -> Result<&mut TableState> {
        self.tables
            .get_mut(&table)
            .ok_or_else(|| VwError::Txn(format!("table {} not registered", table)))
    }
}

/// The global transaction manager.
pub struct TxnManager {
    inner: Mutex<TmInner>,
    /// Signalled when a checkpoint releases its table.
    checkpoint_done: Condvar,
}

impl TxnManager {
    /// Create a manager logging to `wal_path` (created if absent).
    pub fn new(wal_path: impl AsRef<Path>) -> Result<TxnManager> {
        Ok(TxnManager {
            inner: Mutex::new(TmInner {
                tables: HashMap::new(),
                next_txn: 1,
                wal: Wal::open(wal_path)?,
                commits: 0,
                aborts: 0,
            }),
            checkpoint_done: Condvar::new(),
        })
    }

    /// Start a table's history from `image` with an empty master PDT: a new
    /// table, or a bulk load into an empty one. Log records written so far
    /// do not apply to this image.
    pub fn register_table(&self, table: TableId, image: TableStorage) {
        let mut g = self.inner.lock();
        let mut image = image;
        image.set_checkpoint_lsn(g.wal.last_lsn());
        g.tables
            .insert(table, TableState::over(Arc::new(RwLock::new(image))));
    }

    /// The current version of a table (autocommit read snapshot).
    pub fn current(&self, table: TableId) -> Result<TableVersion> {
        self.inner.lock().table(table).map(|st| st.current())
    }

    /// The committed master PDT of a table.
    pub fn current_pdt(&self, table: TableId) -> Result<Arc<Pdt>> {
        self.current(table).map(|v| v.pdt)
    }

    /// The current version of every table, read in one critical section:
    /// the snapshot of a query outside any transaction.
    pub fn versions(&self) -> HashMap<TableId, TableVersion> {
        let g = self.inner.lock();
        g.tables
            .iter()
            .map(|(tid, st)| (*tid, st.current()))
            .collect()
    }

    pub fn commit_count(&self) -> u64 {
        self.inner.lock().commits
    }

    pub fn abort_count(&self) -> u64 {
        self.inner.lock().aborts
    }

    /// Begin a transaction: pin the current version of every table.
    pub fn begin(&self) -> Transaction {
        let mut g = self.inner.lock();
        let id = TxnId::new(g.next_txn);
        g.next_txn += 1;
        let snapshot = g
            .tables
            .iter()
            .map(|(tid, st)| {
                let pinned = Pinned {
                    image: st.image.clone(),
                    pdt: st.master.clone(),
                    version: st.version,
                };
                (*tid, pinned)
            })
            .collect();
        Transaction {
            id,
            snapshot,
            working: HashMap::new(),
        }
    }

    /// Commit: validate, log, propagate. Consumes the transaction.
    pub fn commit(&self, txn: Transaction) -> Result<()> {
        // Translate outside the lock — snapshots are immutable.
        let mut per_table: Vec<(TableId, Vec<StableOp>, Footprint, &Pinned)> = Vec::new();
        for (tid, working) in &txn.working {
            let snap = txn
                .snapshot
                .get(tid)
                .ok_or_else(|| VwError::Txn(format!("table {} not in snapshot", tid)))?;
            let ops = translate(&snap.pdt, working)?;
            if ops.is_empty() {
                continue;
            }
            let fp = Footprint::of(&ops);
            per_table.push((*tid, ops, fp, snap));
        }
        if per_table.is_empty() {
            return Ok(()); // read-only
        }

        let mut g = self.inner.lock();
        while per_table
            .iter()
            .any(|(tid, ..)| g.tables.get(tid).is_some_and(|st| st.checkpointing))
        {
            self.checkpoint_done.wait(&mut g);
        }
        // Validation: a table checkpointed since the snapshot has lost the
        // positions our ops are written in; otherwise any committed
        // footprint newer than our snapshot that overlaps ours aborts the
        // transaction.
        let mut conflict: Option<VwError> = None;
        'outer: for (tid, _, fp, snap) in &per_table {
            let st = g
                .tables
                .get(tid)
                .ok_or_else(|| VwError::Txn(format!("table {} dropped", tid)))?;
            if !Arc::ptr_eq(&st.image, &snap.image) {
                conflict = Some(VwError::TxnConflict(format!(
                    "table {} was checkpointed after this transaction's snapshot",
                    tid
                )));
                break;
            }
            for (v, other) in &st.history {
                if *v > snap.version && fp.conflicts_with(other) {
                    conflict = Some(VwError::TxnConflict(format!(
                        "positional conflict on table {} (snapshot v{}, conflicting commit v{})",
                        tid, snap.version, v
                    )));
                    break 'outer;
                }
            }
        }
        if let Some(err) = conflict {
            g.aborts += 1;
            return Err(err);
        }
        // Log first (WAL rule), then apply.
        let encoded: Vec<(TableId, Vec<u8>)> = per_table
            .iter()
            .map(|(tid, ops, _, _)| (*tid, serialize_ops(ops)))
            .collect();
        g.wal.append_commit(txn.id, &encoded)?;
        for (tid, ops, fp, _) in per_table {
            let st = g.tables.get_mut(&tid).expect("validated above");
            let new_master = propagate(&st.master, &ops)?;
            st.master = Arc::new(new_master);
            st.version += 1;
            let v = st.version;
            st.history.push((v, fp));
        }
        g.commits += 1;
        Ok(())
    }

    /// Abort: nothing was shared, so just count it.
    pub fn abort(&self, _txn: Transaction) {
        self.inner.lock().aborts += 1;
    }

    /// Rebuild manager state from the WAL (crash recovery) over the images
    /// that survived. Each table replays only the record sections past the
    /// position its image is current to, so it does not matter which of
    /// them the log was already trimmed of.
    pub fn recover(
        wal_path: impl AsRef<Path>,
        images: &HashMap<TableId, Image>,
    ) -> Result<TxnManager> {
        let records = Wal::replay(&wal_path)?;
        let mgr = TxnManager::new(&wal_path)?;
        {
            let mut g = mgr.inner.lock();
            let mut folded: HashMap<TableId, u64> = HashMap::new();
            for (tid, image) in images {
                folded.insert(*tid, image.read().checkpoint_lsn());
                g.tables.insert(*tid, TableState::over(image.clone()));
            }
            let mut max_txn = 0u64;
            for rec in records {
                max_txn = max_txn.max(rec.txn_id.as_u64());
                for (tid, ops_bytes) in rec.tables {
                    let st = g.tables.get_mut(&tid).ok_or_else(|| {
                        VwError::Wal(format!("WAL references unknown table {}", tid))
                    })?;
                    if rec.lsn <= folded[&tid] {
                        continue;
                    }
                    let ops = deserialize_ops(&ops_bytes)?;
                    bump_tag_floor(max_tag(&ops));
                    let new_master = propagate(&st.master, &ops)?;
                    st.master = Arc::new(new_master);
                    st.version += 1;
                    let v = st.version;
                    st.history.push((v, Footprint::of(&ops)));
                }
                g.commits += 1;
            }
            g.next_txn = max_txn + 1;
            let reached = folded.values().copied().max().unwrap_or(0);
            g.wal.advance_lsn(reached);
        }
        Ok(mgr)
    }

    /// The current image of every table: what survives a crash.
    pub fn images(&self) -> HashMap<TableId, Image> {
        let g = self.inner.lock();
        g.tables
            .iter()
            .map(|(tid, st)| (*tid, st.image.clone()))
            .collect()
    }

    /// Reserve `table` for a checkpoint: until the returned ticket is
    /// redeemed or dropped, commits to the table wait. Returns the version
    /// to fold and the log position it is current to.
    pub(crate) fn begin_checkpoint(
        &self,
        table: TableId,
    ) -> Result<(CheckpointTicket<'_>, TableVersion, u64)> {
        let mut g = self.inner.lock();
        while g.table(table)?.checkpointing {
            self.checkpoint_done.wait(&mut g);
        }
        let lsn = g.wal.last_lsn();
        let st = g.table(table)?;
        st.checkpointing = true;
        let version = st.current();
        let ticket = CheckpointTicket { mgr: self, table };
        Ok((ticket, version, lsn))
    }
}

/// A table reserved for a checkpoint. Dropping the ticket releases the table
/// with its version unchanged.
pub(crate) struct CheckpointTicket<'a> {
    mgr: &'a TxnManager,
    table: TableId,
}

impl CheckpointTicket<'_> {
    /// Install `next` (when the checkpoint built one) as the table's image,
    /// with an empty master PDT over it, in one critical section with every
    /// reader of versions; then trim the log of the sections no table needs
    /// any more. Returns how long the swap waited for that critical section.
    pub(crate) fn install(self, next: Option<TableStorage>) -> Result<Duration> {
        let t = Instant::now();
        let mut g = self.mgr.inner.lock();
        let waited = t.elapsed();
        let replaced = match next {
            Some(image) => {
                let fresh = TableState::over(Arc::new(RwLock::new(image)));
                Some(std::mem::replace(g.table(self.table)?, fresh))
            }
            None => None,
        };
        let folded: HashMap<TableId, u64> = g
            .tables
            .iter()
            .map(|(tid, st)| (*tid, st.image.read().checkpoint_lsn()))
            .collect();
        g.wal
            .retain(|lsn, tid| folded.get(&tid).is_none_or(|&at| lsn > at))?;
        drop(g);
        // Outside the lock: if no reader holds the replaced version any
        // more, this frees the blocks only its image referred to.
        drop(replaced);
        Ok(waited)
        // Last goes the ticket: commits that waited for the table wake to
        // the new version and the trimmed log.
    }
}

impl Drop for CheckpointTicket<'_> {
    fn drop(&mut self) {
        if let Ok(st) = self.mgr.inner.lock().table(self.table) {
            st.checkpointing = false;
        }
        self.mgr.checkpoint_done.notify_all();
    }
}

/// The version of one table a transaction began with.
struct Pinned {
    image: Image,
    pdt: Arc<Pdt>,
    version: u64,
}

/// An in-flight transaction.
pub struct Transaction {
    id: TxnId,
    snapshot: HashMap<TableId, Pinned>,
    /// Private PDT of every table written: the snapshot's until the first
    /// write copies it, and copied again only if a write finds a reader
    /// ([`Transaction::view`]) still holding the last state.
    working: HashMap<TableId, Arc<Pdt>>,
}

impl Transaction {
    pub fn id(&self) -> TxnId {
        self.id
    }

    fn pinned(&self, table: TableId) -> Result<&Pinned> {
        self.snapshot
            .get(&table)
            .ok_or_else(|| VwError::Txn(format!("table {} unknown to txn", table)))
    }

    /// The PDT this transaction sees for `table`: its working PDT if it has
    /// written the table, else its snapshot.
    pub fn effective_pdt(&self, table: TableId) -> Result<&Pdt> {
        if let Some(w) = self.working.get(&table) {
            return Ok(w);
        }
        self.pinned(table).map(|p| p.pdt.as_ref())
    }

    /// What this transaction reads of `table`: the image it pinned at
    /// `begin` and its effective PDT over it.
    pub fn view(&self, table: TableId) -> Result<TableVersion> {
        let pinned = self.pinned(table)?;
        Ok(TableVersion {
            storage: pinned.image.clone(),
            pdt: self.working.get(&table).unwrap_or(&pinned.pdt).clone(),
        })
    }

    /// [`Transaction::view`] of every table the transaction began with.
    pub fn views(&self) -> HashMap<TableId, TableVersion> {
        self.snapshot
            .keys()
            .map(|tid| (*tid, self.view(*tid).expect("key of the snapshot")))
            .collect()
    }

    fn working_mut(&mut self, table: TableId) -> Result<&mut Pdt> {
        if !self.working.contains_key(&table) {
            let snap = self.pinned(table)?.pdt.clone();
            self.working.insert(table, snap);
        }
        Ok(Arc::make_mut(
            self.working.get_mut(&table).expect("inserted above"),
        ))
    }

    /// Insert `row` at position `rid` of the table's current image.
    pub fn insert_at(&mut self, table: TableId, rid: u64, row: Vec<Value>) -> Result<()> {
        self.working_mut(table)?.insert_at(rid, row)
    }

    /// Append `row` at the end of the table.
    pub fn append(&mut self, table: TableId, row: Vec<Value>) -> Result<()> {
        self.append_many(table, vec![row])
    }

    /// Append `rows` at the end of the table, in order.
    pub fn append_many(&mut self, table: TableId, rows: Vec<Vec<Value>>) -> Result<()> {
        self.working_mut(table)?.append_many(rows);
        Ok(())
    }

    pub fn delete_at(&mut self, table: TableId, rid: u64) -> Result<()> {
        self.working_mut(table)?.delete_at(rid)
    }

    /// Delete the rows at `rids` (ascending positions in the image the
    /// transaction sees now). All or nothing.
    pub fn delete_many(&mut self, table: TableId, rids: &[u64]) -> Result<()> {
        self.working_mut(table)?.delete_many(rids)
    }

    pub fn modify_at(&mut self, table: TableId, rid: u64, col: u32, value: Value) -> Result<()> {
        self.working_mut(table)?.modify_at(rid, col, value)
    }

    /// Overwrite columns `cols` of the rows at `rids` (ascending), the k-th
    /// row getting `values[k]`. All or nothing.
    pub fn modify_many(
        &mut self,
        table: TableId,
        rids: &[u64],
        cols: &[u32],
        values: Vec<Vec<Value>>,
    ) -> Result<()> {
        self.working_mut(table)?.modify_many(rids, cols, values)
    }

    /// Tables this transaction has written.
    pub fn dirty_tables(&self) -> impl Iterator<Item = TableId> + '_ {
        self.working.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::temp_wal_path;

    const T: TableId = TableId(1);

    fn v(x: i64) -> Vec<Value> {
        vec![Value::I64(x)]
    }

    /// A one-column image holding `0..rows`.
    pub(crate) fn image(rows: u64) -> TableStorage {
        use vw_common::{DataType, Field, Schema};
        use vw_storage::{SimDisk, TableBuilder};
        let schema = Schema::new(vec![Field::new("k", DataType::I64)]);
        let mut b = TableBuilder::with_group_size(schema, SimDisk::default_disk(), 64);
        for i in 0..rows {
            b.push_row(v(i as i64)).unwrap();
        }
        b.finish().unwrap()
    }

    fn mgr_with_table(rows: u64, tag: &str) -> (TxnManager, std::path::PathBuf) {
        let path = temp_wal_path(tag);
        let mgr = TxnManager::new(&path).unwrap();
        mgr.register_table(T, image(rows));
        (mgr, path)
    }

    #[test]
    fn commit_becomes_visible_to_new_snapshots() {
        let (mgr, path) = mgr_with_table(10, "visible");
        let mut t1 = mgr.begin();
        t1.delete_at(T, 0).unwrap();
        t1.append(T, v(99)).unwrap();
        // Not visible before commit.
        assert_eq!(mgr.current_pdt(T).unwrap().current_rows(), 10);
        mgr.commit(t1).unwrap();
        let pdt = mgr.current_pdt(T).unwrap();
        assert_eq!(pdt.current_rows(), 10); // -1 +1
        assert_eq!(pdt.delete_count(), 1);
        assert_eq!(pdt.insert_count(), 1);
        assert_eq!(mgr.commit_count(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn snapshot_isolation_reads_are_stable() {
        let (mgr, path) = mgr_with_table(5, "si");
        let reader = mgr.begin();
        let mut writer = mgr.begin();
        writer.delete_at(T, 2).unwrap();
        mgr.commit(writer).unwrap();
        // Reader still sees 5 rows.
        assert_eq!(reader.effective_pdt(T).unwrap().current_rows(), 5);
        // New txn sees 4.
        assert_eq!(mgr.begin().effective_pdt(T).unwrap().current_rows(), 4);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn own_writes_visible_within_txn() {
        let (mgr, path) = mgr_with_table(3, "ownwrites");
        let mut t = mgr.begin();
        t.append(T, v(7)).unwrap();
        assert_eq!(t.effective_pdt(T).unwrap().current_rows(), 4);
        t.modify_at(T, 3, 0, Value::I64(8)).unwrap();
        let pdt = t.effective_pdt(T).unwrap();
        let mut fetch = |_sid: u64| v(0);
        assert_eq!(pdt.row_at(3, &mut fetch).unwrap(), v(8));
        mgr.abort(t);
        assert_eq!(mgr.abort_count(), 1);
        assert_eq!(mgr.current_pdt(T).unwrap().current_rows(), 3);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn write_write_conflict_aborts_second() {
        let (mgr, path) = mgr_with_table(10, "conflict");
        let mut a = mgr.begin();
        let mut b = mgr.begin();
        a.modify_at(T, 4, 0, Value::I64(1)).unwrap();
        b.modify_at(T, 4, 0, Value::I64(2)).unwrap();
        mgr.commit(a).unwrap();
        let err = mgr.commit(b).unwrap_err();
        assert_eq!(err.kind(), "txn_conflict");
        assert_eq!(mgr.abort_count(), 1);
        assert_eq!(mgr.commit_count(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn disjoint_concurrent_commits_both_succeed() {
        let (mgr, path) = mgr_with_table(10, "disjoint");
        let mut a = mgr.begin();
        let mut b = mgr.begin();
        a.modify_at(T, 1, 0, Value::I64(1)).unwrap();
        b.delete_at(T, 8).unwrap();
        mgr.commit(a).unwrap();
        mgr.commit(b).unwrap();
        let pdt = mgr.current_pdt(T).unwrap();
        assert_eq!(pdt.current_rows(), 9);
        assert_eq!(pdt.modify_count(), 1);
        assert_eq!(pdt.delete_count(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn read_only_commit_is_free() {
        let (mgr, path) = mgr_with_table(10, "ro");
        let t = mgr.begin();
        mgr.commit(t).unwrap();
        assert_eq!(mgr.commit_count(), 0); // nothing logged
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn recovery_replays_committed_state() {
        let path = temp_wal_path("recover");
        let images = {
            let mgr = TxnManager::new(&path).unwrap();
            mgr.register_table(T, image(10));
            let mut t1 = mgr.begin();
            t1.delete_at(T, 3).unwrap();
            t1.append(T, v(42)).unwrap();
            mgr.commit(t1).unwrap();
            let mut t2 = mgr.begin();
            t2.modify_at(T, 0, 0, Value::I64(-1)).unwrap();
            mgr.commit(t2).unwrap();
            // "crash": drop the manager without checkpointing
            mgr.images()
        };
        let mgr2 = TxnManager::recover(&path, &images).unwrap();
        let pdt = mgr2.current_pdt(T).unwrap();
        assert_eq!(pdt.current_rows(), 10);
        assert_eq!(pdt.delete_count(), 1);
        assert_eq!(pdt.insert_count(), 1);
        assert_eq!(pdt.modify_count(), 1);
        let mut fetch = |sid: u64| v(sid as i64);
        assert_eq!(pdt.row_at(0, &mut fetch).unwrap(), v(-1));
        // New txns continue with fresh ids and work normally.
        let mut t3 = mgr2.begin();
        t3.append(T, v(7)).unwrap();
        mgr2.commit(t3).unwrap();
        assert_eq!(mgr2.current_pdt(T).unwrap().current_rows(), 11);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn recovery_is_idempotent() {
        let path = temp_wal_path("recover2");
        let images = {
            let mgr = TxnManager::new(&path).unwrap();
            mgr.register_table(T, image(5));
            let mut t = mgr.begin();
            t.delete_at(T, 1).unwrap();
            mgr.commit(t).unwrap();
            mgr.images()
        };
        let a = TxnManager::recover(&path, &images).unwrap();
        drop(a);
        let b = TxnManager::recover(&path, &images).unwrap();
        assert_eq!(b.current_pdt(T).unwrap().current_rows(), 4);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn concurrent_threads_commit_disjoint_rows() {
        let path = temp_wal_path("threads");
        let mgr = Arc::new(TxnManager::new(&path).unwrap());
        mgr.register_table(T, image(100));
        let mut handles = Vec::new();
        for th in 0..4u64 {
            let m = mgr.clone();
            handles.push(std::thread::spawn(move || {
                let mut committed = 0;
                for k in 0..10 {
                    let mut t = m.begin();
                    // Each thread owns a disjoint sid range; conflicts can
                    // still happen via version races, so retry.
                    let rid_target = th * 25 + k;
                    let pdt = t.effective_pdt(T).unwrap();
                    if let Some(rid) = pdt.rid_of_sid(rid_target) {
                        t.modify_at(T, rid, 0, Value::I64(th as i64)).unwrap();
                        if m.commit(t).is_ok() {
                            committed += 1;
                        }
                    }
                }
                committed
            }));
        }
        let total: i32 = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
            .iter()
            .sum();
        // Disjoint sids → no conflicts at all.
        assert_eq!(total, 40);
        assert_eq!(mgr.current_pdt(T).unwrap().modify_count(), 40);
        std::fs::remove_file(path).ok();
    }
}
