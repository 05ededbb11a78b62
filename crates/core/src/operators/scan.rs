//! The vectorized table scan.
//!
//! Reads the stable columnar image row-group by row-group, merges in the
//! table's PDT deltas (§I-B: "incoming queries … merge in the differences …
//! while they scan data from disk"), applies zone-map pruning for pushed-down
//! predicates, slices groups into engine-sized vectors, and evaluates the
//! pushed-down filter producing selection vectors.
//!
//! Every scan claims its units — row groups, and the PDT append tail — from
//! a [`MorselQueue`] it plans when it first runs. Planning is the one place
//! a scan prunes groups, charges their blocks as skipped I/O and registers
//! with the cooperative-scan buffer manager, so a scan that never runs plans
//! nothing. Inside an Exchange every worker's scan pulls from one shared
//! queue, planned by the first worker to claim, instead of owning a static
//! `g % P == worker` slice: which worker decodes a group is decided by
//! runtime readiness, so a skewed group-size distribution (one giant group,
//! many tiny ones) no longer serializes the query behind one thread, and no
//! worker exits while unclaimed work remains. Any other scan — a serial
//! plan, a join's build side (compiled by every Exchange worker, run by
//! one), a DML scan — plans a private queue of one lane, which hands out
//! its units in storage order.
//!
//! Pruning vs PDTs: a row group's MinMax stats describe its stable rows
//! only, so a group with PDT changes is skipped when the stats exclude a
//! conjunct *and* no change can add a row that satisfies it — a delete never
//! can, a modify only by writing the conjunct's column, an insert only by
//! its own value there. Appended rows (inserts at `sid == stable_rows`) form
//! a virtual tail group that is never pruned, one queue unit claimed by
//! exactly one worker.
//!
//! Filtering: the filter's conjuncts form one chain, and a conjunct only ever
//! sees the rows that survived the conjuncts before it. Conjuncts a codec
//! cursor can evaluate (`col <op> literal`, string `IN`, `LIKE`) come first,
//! in the order their observed cost and selectivity rank them, and narrow
//! one ascending candidate list over the encoded blocks of a clean group:
//! the first through [`BlockCursor::eval_pred`], the rest through
//! [`BlockCursor::narrow`]. What is left is decoded — only the survivors
//! when few are left, PDICT columns as dictionary vectors — and the other
//! conjuncts refine the batch's selection, those that can raise an error
//! last. Units that are decoded whole (a group with PDT changes, the append
//! tail) run the same chain with every conjunct evaluated by the vectorized
//! kernels.
//!
//! Runtime filters: a hash join whose probe side is this scan (reached
//! through filters and projections that hand the key column up unchanged)
//! leaves a [`KeySet`] of its finished build's keys in the scan's
//! [`RuntimeFilters`] before it pulls the first probe vector. The scan takes
//! them when it first runs, before it plans its queue, and adds them to its
//! chain as `Pred::InSet` conjuncts: zone maps skip row groups that hold no
//! key of the build, and rows whose key is not in the set are dropped on the
//! encoded blocks, so they are never decoded and never probed. They come
//! after the plan's own conjuncts, so the rows they drop are exactly those
//! the plan would have produced and the join thrown away: the scan's rows
//! plus those are what cardinality feedback records. `EXPLAIN ANALYZE` shows
//! how many the scan took (`rtf`) and how many rows they removed
//! (`rtf_dropped`).
//!
//! Row ids: the rows a unit produces before filtering are consecutive in
//! the merged image, starting at [`Pdt::first_rid_from`] of the unit's first
//! stable row — known without touching data. A scan asked to
//! ([`VecScan::set_emit_rids`]) reports the RID of every physical row of the
//! batch it returns; UPDATE and DELETE find their rows this way.

use super::lap;
use crate::adapt::{
    encode_order, AdaptiveOrder, MAX_REPORTED_CONJUNCTS, PRED_EVAL_KEYS, PRED_PASS_KEYS,
    SCAN_RERANK_VECTORS,
};
use crate::batch::{Batch, ExecVector};
use crate::morsel::{Morsel, MorselQueue, SharedExec};
use crate::trace::TraceHandle;
use crate::vexpr::ExprEvaluator;
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;
use std::time::Instant;
use vw_bufman::{Abm, CoopScanHandle};
use vw_common::like::LikePattern;
use vw_common::waits::{WaitClass, WaitStats, WaitTimer};
use vw_common::{BlockId, DataType, Result, Schema, TableId, Value, VwError};
use vw_pdt::{Change, Entry, Pdt};
use vw_plan::{BinOp, Expr};
use vw_storage::block::{MinMax, PruneOp};
use vw_storage::{BlockCursor, ColumnData, KeySet, Pred, PredOp, RowGroup, TableStorage};
use vw_txn::merge_column;

/// A scan inside an Exchange: the gang's registry, the scan's plan
/// position there (the `occurrence`-th scan of `table`) and the worker it
/// runs on, whose home partition lane it claims from first.
struct ExchangeSlot {
    shared: Arc<SharedExec>,
    table: TableId,
    occurrence: usize,
    worker: usize,
}

/// A vector whose pushed predicates keep at most one row in this many is
/// materialized dense: only the survivors are decoded
/// ([`BlockCursor::vector`] with the candidate list) and the batch carries
/// no selection.
/// Above that density the whole slice is decoded and the selection rides
/// along. One in two is where the cheapest columns to decode (plain f64
/// beside a PFOR key) break even between the two ways — at 50% survivors
/// `core.vecscan.sel50_mrows_per_s` reads the same either way, and every
/// sparser vector gains, `sel1_mrows_per_s` more than threefold; string
/// columns gain at any density, so they never argue for a lower bar
/// (EXPERIMENTS.md E11 has the sweep).
const SPARSE_ONE_IN: usize = 2;

/// A conjunct of the scan's filter that the codec cursors can evaluate.
struct Pushed {
    /// Output column and predicate: the conjunct over a clean group's
    /// encoded blocks.
    col: usize,
    pred: Pred,
    /// The same conjunct over decoded vectors, for units decoded whole;
    /// `None` for a runtime filter, which has no expression.
    eval: Option<ExprEvaluator>,
}

impl Pushed {
    /// The conjunct over a decoded batch: a chain step like
    /// [`ExprEvaluator::narrow`], returning the survivors' count.
    fn narrow(&self, batch: &mut Batch) -> Result<usize> {
        match (&self.eval, &self.pred) {
            (Some(e), _) => e.narrow(batch),
            (None, Pred::InSet(set)) => narrow_by_set(batch, self.col, set),
            (None, _) => Err(VwError::Exec("pushed conjunct without evaluator".into())),
        }
    }
}

/// Where a hash join leaves the key sets of its finished build for its
/// probe-side scan: `(output column of the scan, set)` pairs, taken by the
/// scan when it first runs.
#[derive(Default)]
pub struct RuntimeFilters(Mutex<Vec<(usize, Arc<KeySet>)>>);

impl RuntimeFilters {
    /// Hand the scan a key set on its output column `col`.
    pub fn publish(&self, col: usize, set: Arc<KeySet>) {
        self.0.lock().push((col, set));
    }

    fn take(&self) -> Vec<(usize, Arc<KeySet>)> {
        std::mem::take(&mut self.0.lock())
    }
}

/// The unit the scan is currently draining, vector by vector.
enum Unit {
    /// Columns decoded whole, because PDT deltas are merged over decoded
    /// columns: groups with pending changes, and the append tail.
    Eager {
        cols: Vec<ExecVector>,
        len: usize,
        off: usize,
        /// RID of the unit's first row.
        rid_base: u64,
    },
    /// A clean group: columns stay encoded; predicates run on the codec
    /// cursors and each vector is decoded straight into the batch it leaves
    /// in, as far as its rows survive.
    Lazy(LazyGroup),
}

/// Per-group state of the lazy (compressed-execution) path.
struct LazyGroup {
    group: usize,
    len: usize,
    off: usize,
    /// RID of the group's first row.
    rid_base: u64,
    /// One cursor per projected column, opened on first touch. A column
    /// whose cursor is never opened had its block skipped entirely.
    cursors: Vec<Option<BlockCursor>>,
    /// Encoded size per projected column (skipped-bytes accounting).
    enc_bytes: Vec<u64>,
    /// Per pushed conjunct (by conjunct id; the runtime filters follow the
    /// plan's conjuncts): does this group still have to evaluate it, or did
    /// its zone map already say every row passes? Evaluation order is
    /// decided per vector, not here.
    live: Vec<bool>,
}

/// Compressed-execution counters surfaced by `EXPLAIN ANALYZE`.
#[derive(Default)]
struct LazyCounters {
    /// Column-vector slices actually decoded.
    vec_decoded: u64,
    /// Column-vector slices never materialized (whole vector filtered out).
    vec_skipped: u64,
    /// Predicate evaluations performed on encoded data.
    enc_evals: u64,
    /// Column-vector slices shipped as dictionary codes, no string built.
    vec_coded: u64,
    /// Time in the steps of a vector over a clean group, one clock reading
    /// per step and only while profiling: narrowing the candidate list on
    /// the encoded blocks, decoding what is left, the remaining conjuncts
    /// over the decoded batch (this last one over decoded units too).
    pred_ns: u64,
    decode_ns: u64,
    residual_ns: u64,
    /// Rows the runtime filters removed: those of the row groups their zone
    /// maps ruled out, and those that failed them.
    rtf_dropped: u64,
}

/// The vectorized scan operator.
pub struct VecScan {
    storage: Arc<RwLock<TableStorage>>,
    pdt: Arc<Pdt>,
    /// Storage column indexes produced, in output order.
    projection: Vec<usize>,
    out_schema: Schema,
    /// The filter as a chain of conjuncts: first the ones the codec cursors
    /// can evaluate (their index is their conjunct id), then the others in
    /// plan order, those that can raise an error last.
    pushed: Vec<Pushed>,
    rest: Vec<ExprEvaluator>,
    /// The probing join's key sets, installed when the scan first runs and
    /// evaluated after the plan's conjuncts — on the encoded blocks when
    /// `rest` is empty, else on the decoded batch; their conjunct ids follow
    /// those of `pushed`.
    runtime: Vec<Pushed>,
    runtime_inbox: Option<Arc<RuntimeFilters>>,
    /// The naive mode of experiment E8: nothing is pushed, runtime filters
    /// included.
    naive: bool,
    /// The candidate list of the vector in hand.
    cands: Vec<u32>,
    vector_size: usize,
    /// `col <op> literal` conjuncts of the filter, by output column: what
    /// zone maps and partition bounds can rule groups out on.
    prune: Vec<(usize, PruneOp, Value)>,
    /// The queue this scan claims units from, planned on its first `next()`
    /// by [`VecScan::plan_queue`].
    queue: Option<Arc<MorselQueue>>,
    /// Set inside an Exchange: where the gang's shared queue is found.
    exchange: Option<ExchangeSlot>,
    /// The cooperative-scan buffer manager to register with, if any.
    buffer: Option<Arc<Abm>>,
    current: Option<Unit>,
    counters: LazyCounters,
    /// Units this operator instance actually claimed (profiling).
    units_claimed: u64,
    /// Row groups skipped by zone maps: when this instance planned the
    /// queue, and when a pushed predicate ruled out a unit it claimed.
    groups_pruned: u64,
    /// Range partitions of the table / partitions ruled out wholesale by
    /// range predicates, when this instance planned the queue.
    partitions: u64,
    partitions_pruned: u64,
    /// Micro-adaptive ordering of the pushed conjuncts: observed per-vector
    /// selectivity and cost re-rank them every few vectors so the
    /// cheapest/most-selective predicate empties the candidate list first
    /// (and the rest are never evaluated on that vector).
    adapt: AdaptiveOrder,
    /// Query trace: morsel claims become per-worker instant events.
    trace: Option<TraceHandle>,
    /// Cooperative-scan registration, a clone of the queue's one: when set,
    /// block reads go through the ABM so overlapping scans of the same table
    /// share disk loads.
    coop: Option<CoopScanHandle>,
    /// Wait-state sink (the owning plan node's [`WaitStats`]). `None` when
    /// profiling is off — no timestamps are taken then.
    waits: Option<Arc<WaitStats>>,
    /// RIDs of the physical rows of the batch just returned, when asked for.
    rids: Option<Vec<u64>>,
}

impl VecScan {
    /// Create a scan. It plans nothing until its first `next()`.
    ///
    /// * `projection` — storage columns to produce (output order),
    /// * `filter` — predicate over the projected schema (optional),
    /// * `naive_nulls` — use the naive NULL interpreter (experiment E8),
    /// * `adaptive` — enable micro-adaptive ordering of pushed conjuncts.
    pub fn new(
        storage: Arc<RwLock<TableStorage>>,
        pdt: Arc<Pdt>,
        projection: Vec<usize>,
        filter: Option<Expr>,
        vector_size: usize,
        naive_nulls: bool,
        adaptive: bool,
    ) -> Result<VecScan> {
        let out_schema = storage.read().schema().project(&projection);
        let mut parts = Vec::new();
        if let Some(f) = &filter {
            vw_plan::rewrite::pushdown::split_conjunction(f, &mut parts);
        }
        let prune = parts.iter().filter_map(prunable).collect();
        // The filter as a chain. The naive mode (experiment E8) models an
        // engine without compressed execution: nothing is pushed, and every
        // conjunct runs through the row-at-a-time interpreter.
        let (mut pushed, mut rest) = (Vec::new(), Vec::new());
        for e in parts {
            match pushable_pred(&e, &out_schema).filter(|_| !naive_nulls) {
                Some((col, pred)) => {
                    let eval = Some(ExprEvaluator::new(e, &out_schema, naive_nulls)?);
                    pushed.push(Pushed { col, pred, eval })
                }
                None => rest.push(e),
            }
        }
        // Stable: plan order within those that can raise and those that
        // cannot. No pushable conjunct can.
        rest.sort_by_key(|e| e.can_raise());
        let rest = rest
            .into_iter()
            .map(|e| ExprEvaluator::new(e, &out_schema, naive_nulls))
            .collect::<Result<Vec<_>>>()?;
        // One conjunct can't be reordered; keep the machinery off entirely.
        let adapt = AdaptiveOrder::new(
            pushed.len(),
            SCAN_RERANK_VECTORS,
            adaptive && pushed.len() > 1,
        );
        Ok(VecScan {
            storage,
            pdt,
            projection,
            out_schema,
            pushed,
            rest,
            runtime: Vec::new(),
            runtime_inbox: None,
            naive: naive_nulls,
            cands: Vec::new(),
            vector_size: vector_size.max(1),
            prune,
            queue: None,
            exchange: None,
            buffer: None,
            current: None,
            counters: LazyCounters::default(),
            units_claimed: 0,
            groups_pruned: 0,
            partitions: 0,
            partitions_pruned: 0,
            adapt,
            trace: None,
            coop: None,
            waits: None,
            rids: None,
        })
    }

    /// Report the RID of every row produced: after each `next()`,
    /// [`VecScan::rids`] holds one per physical row of the batch.
    pub fn set_emit_rids(&mut self) {
        self.rids = Some(Vec::new());
    }

    /// RIDs of the physical rows of the batch `next()` just returned (its
    /// selection, if any, indexes this slice like it does the columns).
    /// Empty unless [`VecScan::set_emit_rids`] was called.
    pub fn rids(&self) -> &[u64] {
        self.rids.as_deref().unwrap_or(&[])
    }

    /// Record morsel claims into the query trace timeline.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = Some(trace);
    }

    /// Claim from the shared queue of the surrounding Exchange: the one
    /// planned for the `occurrence`-th scan of `table` in the plan, starting
    /// from `worker`'s home partition lane.
    pub fn set_exchange(
        &mut self,
        shared: Arc<SharedExec>,
        table: TableId,
        occurrence: usize,
        worker: usize,
    ) {
        self.exchange = Some(ExchangeSlot {
            shared,
            table,
            occurrence,
            worker,
        });
    }

    /// Read blocks through a cooperative-scan buffer manager: the scan
    /// registers the blocks of its queue when it plans it.
    pub fn set_buffer(&mut self, abm: Arc<Abm>) {
        self.buffer = Some(abm);
    }

    /// Attribute this scan's blocked time (block I/O, slice decodes,
    /// contention on an Exchange's queue) to `waits`.
    pub fn set_waits(&mut self, waits: Arc<WaitStats>) {
        self.waits = Some(waits);
    }

    /// Take the key sets a probing hash join leaves in `inbox`: the scan
    /// installs what is there when it first runs.
    pub fn set_runtime_filters(&mut self, inbox: Arc<RuntimeFilters>) {
        self.runtime_inbox = Some(inbox);
    }

    /// Install the key sets handed over, on integer columns only (they
    /// compare as i64), unless nothing is pushed at all (E8's naive mode).
    fn install_runtime_filters(&mut self) {
        let Some(inbox) = self.runtime_inbox.take() else {
            return;
        };
        for (col, set) in inbox.take() {
            let ty = self.out_schema.field(col).ty;
            if !self.naive && matches!(ty, DataType::I32 | DataType::I64 | DataType::Date) {
                let pred = Pred::InSet(set);
                self.runtime.push(Pushed {
                    col,
                    pred,
                    eval: None,
                });
            }
        }
    }

    /// Plan the scan's morsel queue, on its first `next()`: the one place a
    /// scan prunes row groups, charges their blocks as skipped I/O, records
    /// the pruning counts and registers with the buffer manager. Inside an
    /// Exchange, the first worker to get here plans the gang's shared queue,
    /// split into partition lanes, and the others find it planned; any other
    /// scan plans a private queue of one lane, which hands out its units in
    /// storage order. Every scan of a queue takes a clone of the queue's one
    /// registration, so the ABM sees one logical scan.
    fn plan_queue(&mut self) -> Arc<MorselQueue> {
        self.install_runtime_filters();
        let slot = self
            .exchange
            .as_ref()
            .map(|x| (x.shared.clone(), x.table, x.occurrence));
        let queue = match slot {
            Some((shared, table, occurrence)) => shared.morsel_queue(table, occurrence, |stats| {
                let (units, lanes) = self.prune_groups();
                MorselQueue::new(units, lanes, Some(stats))
            }),
            None => MorselQueue::new(self.prune_groups().0, Vec::new(), None),
        };
        if let Some(abm) = &self.buffer {
            let mut coop = queue.coop_or_register(|| {
                let blocks = coop_blocks(&self.storage.read(), queue.units(), &self.projection);
                abm.register_scan_with_progress(blocks, Some(queue.progress()))
            });
            if let Some(w) = &self.waits {
                coop.set_waits(w.clone());
            }
            self.coop = Some(coop);
        }
        self.queue = Some(queue.clone());
        queue
    }

    /// The units of this table snapshot that zone maps and partition bounds
    /// leave (row groups, then the PDT append tail), and their partition
    /// lanes: `(start, end)` index ranges into the units, one per partition.
    fn prune_groups(&mut self) -> (Vec<Morsel>, Vec<(usize, usize)>) {
        let (guard, pdt, projection) = (self.storage.read(), &self.pdt, &self.projection);
        let prune = &self.prune;
        let mut rtf_dropped = 0u64;
        let n_groups = guard.group_count();
        let mut units: Vec<Morsel> = Vec::new();
        let mut groups_pruned = 0usize;
        // Partition-level pruning: a range predicate on the partitioning
        // column can rule out whole partitions against the declared bounds,
        // before any row-group zone map is consulted.
        let nparts = guard.partition_count();
        let mut part_pruned = vec![false; nparts];
        let mut partitions_pruned = 0usize;
        // Lanes: contiguous runs of units belonging to one partition. Group
        // ids iterate in storage order and partition extents are contiguous,
        // so a lane closes exactly when the partition id changes.
        let mut lanes: Vec<(usize, usize)> = Vec::new();
        let mut lane_part: Option<usize> = None;
        if nparts > 1 && !prune.is_empty() {
            if let Some(pcol) = guard.partition_col() {
                for (p, pruned) in part_pruned.iter_mut().enumerate() {
                    *pruned = prune.iter().any(|(out_col, op, v)| {
                        projection[*out_col] == pcol && !guard.partition_may_match(p, *op, v)
                    });
                    if *pruned {
                        partitions_pruned += 1;
                    }
                }
            }
        }
        for g in 0..n_groups {
            let grp = guard.group(g);
            let (lo, hi) =
                pdt.entry_range_for_sids(grp.start_row, grp.start_row + grp.n_rows as u64);
            let entries = &pdt.entries()[lo..hi];
            let dirty = lo != hi;
            if !dirty && partitions_pruned > 0 {
                let p = guard.partition_of_group(g);
                if part_pruned[p] {
                    groups_pruned += 1;
                    // Skipped blocks are charged against the partition's own
                    // device, so `vw_io` shows which disks the query avoided.
                    for &c in projection {
                        guard
                            .partition_disk(p)
                            .note_skipped(grp.columns[c].encoded_bytes as u64);
                    }
                    continue;
                }
            }
            if !prune.is_empty() {
                let keep = prune.iter().all(|(out_col, op, v)| {
                    let storage_col = projection[*out_col];
                    grp.columns[storage_col].minmax.may_match(*op, v)
                        || entries
                            .iter()
                            .any(|e| entry_may_match(e, storage_col, *op, v))
                });
                if !keep {
                    groups_pruned += 1;
                    // The scan will never touch this group's blocks: account
                    // their encoded bytes as skipped I/O on the device that
                    // holds them.
                    let d = guard.partition_disk(guard.partition_of_group(g));
                    for &c in projection {
                        d.note_skipped(grp.columns[c].encoded_bytes as u64);
                    }
                    continue;
                }
            }
            if !dirty && self.runtime_prunes(grp) {
                groups_pruned += 1;
                rtf_dropped += grp.n_rows as u64;
                let d = guard.partition_disk(guard.partition_of_group(g));
                for &c in projection {
                    d.note_skipped(grp.columns[c].encoded_bytes as u64);
                }
                continue;
            }
            if nparts > 1 {
                let p = guard.partition_of_group(g);
                if lane_part != Some(p) {
                    lanes.push((units.len(), units.len()));
                    lane_part = Some(p);
                }
            }
            units.push(Morsel::Group(g));
            if let Some(l) = lanes.last_mut() {
                l.1 = units.len();
            }
        }
        // Appends: inserts at sid == stable_rows form one virtual tail unit.
        let stable = pdt.stable_rows();
        let (alo, ahi) = pdt.entry_range_for_sids(stable, stable + 1);
        if ahi > alo {
            units.push(Morsel::AppendTail);
            // The tail belongs to no partition; fold it into the last lane.
            if let Some(l) = lanes.last_mut() {
                l.1 = units.len();
            }
        }
        self.groups_pruned += groups_pruned as u64;
        self.counters.rtf_dropped += rtf_dropped;
        self.partitions = nparts as u64;
        self.partitions_pruned = partitions_pruned as u64;
        (units, lanes)
    }

    /// Does a runtime filter rule out clean group `grp` by its zone map,
    /// while the zone maps also say the plan's conjuncts keep every row
    /// there? Only then is the group skipped for it: the rows it drops —
    /// all of the group's — are known, and counted, without reading a block.
    fn runtime_prunes(&self, grp: &RowGroup) -> bool {
        let verdict = |c: &Pushed| {
            let cb = &grp.columns[self.projection[c.col]];
            c.pred.decide(&cb.minmax, cb.has_nulls)
        };
        !self.runtime.is_empty()
            && self.rest.is_empty()
            && self.pushed.iter().all(|c| verdict(c) == Some(true))
            && self.runtime.iter().any(|c| verdict(c) == Some(false))
    }

    /// Load the columns of a scan unit, merging PDT changes.
    fn load_unit(&self, unit: Morsel) -> Result<(Vec<ExecVector>, usize)> {
        match unit {
            Morsel::Group(g) => {
                let guard = self.storage.read();
                let (grp_start, grp_rows) = {
                    let grp = guard.group(g);
                    (grp.start_row, grp.n_rows)
                };
                let (lo, hi) = self
                    .pdt
                    .entry_range_for_sids(grp_start, grp_start + grp_rows as u64);
                let entries = &self.pdt.entries()[lo..hi];
                let mut cols = Vec::with_capacity(self.projection.len());
                for &c in &self.projection {
                    let fetched = fetch_block(&guard, self.coop.as_ref(), g, c)?;
                    let mut col = guard.decode_column(g, c, fetched)?;
                    if !entries.is_empty() {
                        col = merge_column(&col, c, entries, grp_start)?;
                    }
                    cols.push(ExecVector::from_storage(col));
                }
                let delta: i64 = entries.iter().map(|e| e.change.delta()).sum();
                Ok((cols, (grp_rows as i64 + delta) as usize))
            }
            Morsel::AppendTail => {
                let stable = self.pdt.stable_rows();
                let (lo, hi) = self.pdt.entry_range_for_sids(stable, stable + 1);
                let schema = self.out_schema.clone();
                let mut rows: Vec<Vec<Value>> = Vec::with_capacity(hi - lo);
                for e in &self.pdt.entries()[lo..hi] {
                    if let Change::Insert { row, .. } = &e.change {
                        rows.push(self.projection.iter().map(|&c| row[c].clone()).collect());
                    }
                }
                let n = rows.len();
                let batch = Batch::from_rows(&schema, &rows)?;
                Ok((batch.columns, n))
            }
        }
    }

    /// Turn a claimed unit into drainable state. `None` means the unit
    /// produced nothing (empty, or skipped whole by predicate `decide`).
    fn open_unit(&mut self, unit: Morsel) -> Result<Option<Unit>> {
        let (first_sid, stable_rows) = match unit {
            Morsel::Group(g) => {
                let guard = self.storage.read();
                let grp = guard.group(g);
                (grp.start_row, grp.n_rows as u64)
            }
            Morsel::AppendTail => (self.pdt.stable_rows(), 0),
        };
        let rid_base = self.pdt.first_rid_from(first_sid);
        if let Morsel::Group(g) = unit {
            let (lo, hi) = self
                .pdt
                .entry_range_for_sids(first_sid, first_sid + stable_rows);
            // Every clean group stays encoded, pushed conjuncts or not; PDT
            // deltas are merged over decoded columns.
            if lo == hi {
                return self.open_lazy_group(g, rid_base);
            }
        }
        let (cols, len) = self.load_unit(unit)?;
        if len == 0 {
            return Ok(None);
        }
        Ok(Some(Unit::Eager {
            cols,
            len,
            off: 0,
            rid_base,
        }))
    }

    /// Open a clean group for compressed execution. Zone maps decide each
    /// pushed predicate where possible: an impossible predicate skips the
    /// group without reading any block, an always-true one is dropped.
    fn open_lazy_group(&mut self, g: usize, rid_base: u64) -> Result<Option<Unit>> {
        let guard = self.storage.read();
        let grp = guard.group(g);
        if grp.n_rows == 0 {
            return Ok(None);
        }
        let np = self.pushed.len();
        let mut live = vec![true; np + self.runtime.len()];
        let verdicts = self.pushed.iter().chain(&self.runtime).map(|c| {
            let cb = &grp.columns[self.projection[c.col]];
            c.pred.decide(&cb.minmax, cb.has_nulls)
        });
        let mut skip = false;
        for (cid, verdict) in verdicts.enumerate() {
            match verdict {
                // A runtime filter skips the group only where `runtime_prunes`
                // lets it; otherwise it drops the rows one by one.
                Some(false) if cid < np => skip = true,
                Some(true) => live[cid] = false,
                _ => {}
            }
        }
        if skip || self.runtime_prunes(grp) {
            if !skip {
                self.counters.rtf_dropped += grp.n_rows as u64;
            }
            // The blocks live on the group's partition shard.
            let disk = guard.partition_disk(guard.partition_of_group(g));
            for &c in &self.projection {
                disk.note_skipped(grp.columns[c].encoded_bytes as u64);
            }
            drop(guard);
            self.groups_pruned += 1;
            return Ok(None);
        }
        let enc_bytes = self
            .projection
            .iter()
            .map(|&c| grp.columns[c].encoded_bytes as u64)
            .collect();
        let cursors = self.projection.iter().map(|_| None).collect();
        Ok(Some(Unit::Lazy(LazyGroup {
            group: g,
            len: grp.n_rows,
            off: 0,
            rid_base,
            cursors,
            enc_bytes,
            live,
        })))
    }

    /// One vector step over the current eager unit. `Ok(None)` means the
    /// vector was filtered out entirely (the caller keeps looping).
    fn eager_step(&mut self) -> Result<Option<Batch>> {
        let Some(Unit::Eager {
            cols,
            len,
            off,
            rid_base,
        }) = self.current.as_mut()
        else {
            unreachable!("eager_step without an eager unit")
        };
        let from = *off;
        let to = (from + self.vector_size).min(*len);
        let slice: Vec<ExecVector> = cols.iter().map(|c| c.slice(from, to)).collect();
        if let Some(rids) = &mut self.rids {
            rids.clear();
            rids.extend(*rid_base + from as u64..*rid_base + to as u64);
        }
        *off = to;
        let n = to - from;
        if *off >= *len {
            self.current = None;
        }
        if n == 0 {
            return Ok(None);
        }
        let mut batch = Batch::new(slice);
        batch.rows = n;
        // The chain of a clean group, the pushed conjuncts in the same
        // learned order, every one over decoded vectors, then the runtime
        // filters.
        let mut clock = self.waits.as_ref().map(|_| Instant::now());
        let pushed = self.adapt.order().iter().map(|&cid| &self.pushed[cid]);
        let mut rows = n;
        for c in pushed {
            rows = c.narrow(&mut batch)?;
            if rows == 0 {
                break;
            }
        }
        if rows > 0 {
            for conjunct in &self.rest {
                if conjunct.narrow(&mut batch)? == 0 {
                    break;
                }
            }
        }
        self.narrow_runtime(&mut batch)?;
        lap(&mut clock, &mut self.counters.residual_ns);
        Ok((!batch.is_empty()).then_some(batch))
    }

    /// One vector step over the current lazy group: narrow the candidate
    /// list on the encoded data, and only materialize the vector's columns
    /// when rows survive. `Ok(None)` means nothing survived.
    fn lazy_step(&mut self) -> Result<Option<Batch>> {
        let vs = self.vector_size;
        // Re-rank window advances per vector so even single-group tables
        // adapt; the order just decided applies to this vector.
        self.adapt.tick();
        let profiled = self.waits.is_some();
        let Some(Unit::Lazy(lg)) = self.current.as_mut() else {
            unreachable!("lazy_step without a lazy unit")
        };
        let from = lg.off;
        let to = (from + vs).min(lg.len);
        lg.off = to;
        let done = lg.off >= lg.len;
        let n = to - from;
        let ctr = &mut self.counters;
        // `narrowed`: `cands` lists the rows still standing; before the
        // first live conjunct every row of the vector is.
        let mut narrowed = false;
        // One clock reading per conjunct serves the step's total and, when
        // the order adapts, each conjunct's cost.
        let mut clock = (profiled || self.adapt.enabled()).then(Instant::now);
        // The plan's conjuncts in their learned order, then the runtime
        // filters — here when no conjunct needs the decoded batch, else
        // after those (`narrow_runtime`).
        let np = self.pushed.len();
        let nr = if self.rest.is_empty() {
            self.runtime.len()
        } else {
            0
        };
        for at in 0..np + nr {
            let (cid, conjunct) = match at.checked_sub(np) {
                None => {
                    let cid = self.adapt.order()[at];
                    (cid, &self.pushed[cid])
                }
                Some(k) => (at, &self.runtime[k]),
            };
            if !lg.live[cid] {
                continue; // every row of this group passes it
            }
            let Pushed { col, pred, .. } = conjunct;
            let cur = cursor_at(
                &self.storage,
                self.coop.as_ref(),
                &self.projection,
                lg.group,
                &mut lg.cursors,
                *col,
            )?;
            ctr.enc_evals += 1;
            let rows_in = if narrowed {
                let rows_in = self.cands.len();
                cur.narrow(cid, pred, from, to, &mut self.cands)?;
                rows_in
            } else {
                self.cands = cur.eval_pred(pred, from, to)?;
                narrowed = true;
                n
            };
            let mut ns = 0;
            lap(&mut clock, &mut ns);
            ctr.pred_ns += ns;
            if cid < np {
                self.adapt.observe(cid, rows_in, self.cands.len(), ns);
            } else {
                ctr.rtf_dropped += (rows_in - self.cands.len()) as u64;
            }
            if self.cands.is_empty() {
                break;
            }
        }
        if narrowed && self.cands.is_empty() {
            ctr.vec_skipped += self.projection.len() as u64;
            if done {
                self.finish_lazy_group();
            }
            return Ok(None);
        }
        // Few survivors: decode only those and emit a dense batch.
        let sparse = narrowed && self.cands.len() * SPARSE_ONE_IN <= n;
        let survivors = sparse.then_some(&self.cands[..]);
        if let Some(rids) = &mut self.rids {
            let first = lg.rid_base + from as u64;
            rids.clear();
            match survivors {
                Some(s) => rids.extend(s.iter().map(|&p| first + p as u64)),
                None => rids.extend(first..first + n as u64),
            }
        }
        let mut columns = Vec::with_capacity(self.projection.len());
        for k in 0..self.projection.len() {
            let cur = cursor_at(
                &self.storage,
                self.coop.as_ref(),
                &self.projection,
                lg.group,
                &mut lg.cursors,
                k,
            )?;
            let col = cur.vector(from, to, survivors)?;
            match col.data {
                ColumnData::Dict(_) => ctr.vec_coded += 1,
                _ => ctr.vec_decoded += 1,
            }
            columns.push(ExecVector::from_storage(col));
        }
        // Decoding straight into the batch is this step's one stall worth
        // naming; the step's clock reading covers all of its columns.
        if let Some(w) = &self.waits {
            let mut ns = 0;
            lap(&mut clock, &mut ns);
            ctr.decode_ns += ns;
            w.record(WaitClass::Decode, ns);
        }
        if done {
            self.finish_lazy_group();
        }
        let mut batch = Batch::new(columns);
        if sparse {
            batch.rows = self.cands.len();
        } else {
            batch.rows = n;
            if narrowed && self.cands.len() < n {
                batch.sel = Some(std::mem::take(&mut self.cands));
            }
        }
        if !self.rest.is_empty() {
            for conjunct in &self.rest {
                if conjunct.narrow(&mut batch)? == 0 {
                    break;
                }
            }
            self.narrow_runtime(&mut batch)?;
        }
        if profiled {
            lap(&mut clock, &mut self.counters.residual_ns);
        }
        Ok((!batch.is_empty()).then_some(batch))
    }

    /// The runtime filters over a decoded batch that every conjunct of the
    /// plan has narrowed, counting the rows they drop.
    fn narrow_runtime(&mut self, batch: &mut Batch) -> Result<()> {
        for c in &self.runtime {
            let rows_in = batch.len();
            if rows_in == 0 {
                break;
            }
            let kept = c.narrow(batch)?;
            self.counters.rtf_dropped += (rows_in - kept) as u64;
        }
        Ok(())
    }

    /// Account the blocks a finished lazy group never opened as skipped I/O.
    fn finish_lazy_group(&mut self) {
        if let Some(Unit::Lazy(lg)) = self.current.take() {
            let guard = self.storage.read();
            let disk = guard.partition_disk(guard.partition_of_group(lg.group));
            for (k, c) in lg.cursors.iter().enumerate() {
                if c.is_none() {
                    disk.note_skipped(lg.enc_bytes[k]);
                }
            }
        }
    }
}

/// The bytes of column `col` of row group `group` when a cooperative-scan
/// registration fetches them; `None` when the storage reads them itself.
fn fetch_block(
    storage: &TableStorage,
    coop: Option<&CoopScanHandle>,
    group: usize,
    col: usize,
) -> Result<Option<Arc<Vec<u8>>>> {
    coop.map(|h| h.fetch(storage.column_block_id(group, col)?))
        .transpose()
}

/// Block ids of every `(scan unit × projected column)` — the registration
/// set for a cooperative scan. The PDT append tail is memory-resident and
/// contributes no blocks.
fn coop_blocks(storage: &TableStorage, units: &[Morsel], projection: &[usize]) -> Vec<BlockId> {
    let mut out = Vec::with_capacity(units.len() * projection.len());
    for u in units {
        if let Morsel::Group(g) = u {
            for &c in projection {
                if let Ok(b) = storage.column_block_id(*g, c) {
                    out.push(b);
                }
            }
        }
    }
    out
}

/// Open (once) and return the cursor of projected column `k`.
fn cursor_at<'a>(
    storage: &Arc<RwLock<TableStorage>>,
    coop: Option<&CoopScanHandle>,
    projection: &[usize],
    group: usize,
    cursors: &'a mut [Option<BlockCursor>],
    k: usize,
) -> Result<&'a mut BlockCursor> {
    if cursors[k].is_none() {
        let (guard, col) = (storage.read(), projection[k]);
        let fetched = fetch_block(&guard, coop, group, col)?;
        cursors[k] = Some(guard.column_cursor(group, col, fetched)?);
    }
    Ok(cursors[k].as_mut().unwrap())
}

/// A conjunct the codec cursors evaluate with the exact semantics of the
/// vectorized kernels: `col <op> literal` over a compatible type pair, a
/// NULL-free string IN-list or integer `IN` list, or `[NOT] LIKE` over a
/// string column.
fn pushable_pred(e: &Expr, schema: &Schema) -> Option<(usize, Pred)> {
    match e {
        Expr::Binary { op, l, r } => {
            let (col, v, op) = match (&**l, &**r) {
                (Expr::Col(i), Expr::Lit(v)) => (*i, v, *op),
                (Expr::Lit(v), Expr::Col(i)) => (*i, v, flip(*op)),
                _ => return None,
            };
            let op = pred_cmp_op(op)?;
            // NaN literals defeat zone-map `decide` (every ordering
            // comparison against NaN is false); leave them to the residual.
            if matches!(v, Value::F64(f) if f.is_nan()) {
                return None;
            }
            let ok = match schema.field(col).ty {
                // Int columns compare as i64 against int literals and as f64
                // against float literals — exactly what the kernels do.
                DataType::I32 | DataType::I64 | DataType::Date => {
                    v.as_i64().is_some() || matches!(v, Value::F64(_))
                }
                DataType::F64 => v.as_f64().is_some(),
                DataType::Str => matches!(v, Value::Str(_)),
                DataType::Bool => false,
            };
            ok.then(|| {
                (
                    col,
                    Pred::Cmp {
                        op,
                        value: v.clone(),
                    },
                )
            })
        }
        Expr::InList { e, list, negated } => {
            let Expr::Col(i) = &**e else { return None };
            // A NULL in the list changes the result of non-matches to NULL;
            // only NULL-free lists keep set-membership semantics.
            match schema.field(*i).ty {
                DataType::Str => {}
                // Integers compare as i64 with integer literals: the key set
                // of the list, when its range fits a bitmap.
                DataType::I32 | DataType::I64 | DataType::Date if !negated => {
                    let keys = list.iter().map(|v| match v {
                        Value::I32(_) | Value::I64(_) | Value::Date(_) => v.as_i64(),
                        _ => None,
                    });
                    let set = KeySet::exact(&keys.collect::<Option<Vec<i64>>>()?)?;
                    return Some((*i, Pred::InSet(Arc::new(set))));
                }
                _ => return None,
            }
            let mut values = Vec::with_capacity(list.len());
            for v in list {
                match v {
                    Value::Str(s) => values.push(s.clone()),
                    _ => return None,
                }
            }
            Some((
                *i,
                Pred::InStr {
                    values,
                    negated: *negated,
                },
            ))
        }
        Expr::Like {
            e,
            pattern,
            negated,
        } => {
            let Expr::Col(i) = &**e else { return None };
            (schema.field(*i).ty == DataType::Str).then(|| {
                (
                    *i,
                    Pred::Like {
                        pattern: LikePattern::new(pattern),
                        negated: *negated,
                    },
                )
            })
        }
        _ => None,
    }
}

fn pred_cmp_op(op: BinOp) -> Option<PredOp> {
    Some(match op {
        BinOp::Eq => PredOp::Eq,
        BinOp::Ne => PredOp::Ne,
        BinOp::Lt => PredOp::Lt,
        BinOp::Le => PredOp::Le,
        BinOp::Gt => PredOp::Gt,
        BinOp::Ge => PredOp::Ge,
        _ => return None,
    })
}

/// Keep, in the batch's selection, the rows whose value in column `col` is a
/// member of `set` (a NULL never is); the survivors' count.
fn narrow_by_set(batch: &mut Batch, col: usize, set: &KeySet) -> Result<usize> {
    let v = &batch.columns[col];
    let member = |i: usize| {
        !v.is_null(i)
            && match &v.data {
                ColumnData::I32(x) => set.contains(x[i] as i64),
                ColumnData::I64(x) => set.contains(x[i]),
                _ => false,
            }
    };
    if !matches!(v.data, ColumnData::I32(_) | ColumnData::I64(_)) {
        let ty = v.data.type_name();
        return Err(VwError::Exec(format!("key set over {} column", ty)));
    }
    let sel: Vec<u32> = match &batch.sel {
        Some(s) => s.iter().copied().filter(|&i| member(i as usize)).collect(),
        None => (0..batch.rows as u32)
            .filter(|&i| member(i as usize))
            .collect(),
    };
    let kept = sel.len();
    batch.sel = (kept < batch.rows).then_some(sel);
    Ok(kept)
}

/// Could this PDT entry put a row satisfying `col <op> bound` into its
/// group? Only by the value it gives the row in `col`: a delete adds no row,
/// and a modify that leaves `col` alone keeps a value the zone map covers.
fn entry_may_match(e: &Entry, col: usize, op: PruneOp, bound: &Value) -> bool {
    let v = match &e.change {
        Change::Insert { row, .. } => &row[col],
        Change::Modify(mods) => match mods.get(&(col as u32)) {
            Some(v) => v,
            None => return false,
        },
        Change::Delete => return false,
    };
    // Judged as a zone map over the one value, so exactly as conservative
    // as group pruning; a comparison with NULL never selects.
    !v.is_null() && MinMax::of_value(v).may_match(op, bound)
}

/// A `col <op> literal` conjunct, as zone-map pruning uses it.
fn prunable(conjunct: &Expr) -> Option<(usize, PruneOp, Value)> {
    let Expr::Binary { op, l, r } = conjunct else {
        return None;
    };
    match (&**l, &**r) {
        (Expr::Col(i), Expr::Lit(v)) => prune_op(*op).map(|p| (*i, p, v.clone())),
        (Expr::Lit(v), Expr::Col(i)) => prune_op(flip(*op)).map(|p| (*i, p, v.clone())),
        _ => None,
    }
}

fn prune_op(op: BinOp) -> Option<PruneOp> {
    Some(match op {
        BinOp::Eq => PruneOp::Eq,
        BinOp::Lt => PruneOp::Lt,
        BinOp::Le => PruneOp::Le,
        BinOp::Gt => PruneOp::Gt,
        BinOp::Ge => PruneOp::Ge,
        _ => return None,
    })
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

impl super::Operator for VecScan {
    fn schema(&self) -> &Schema {
        &self.out_schema
    }

    fn profile_extras(&self) -> Vec<(&'static str, u64)> {
        let mut v = vec![("morsels", self.units_claimed)];
        if self.groups_pruned > 0 {
            v.push(("pruned", self.groups_pruned));
        }
        if self.partitions_pruned > 0 {
            v.push(("partitions", self.partitions));
            v.push(("partitions_pruned", self.partitions_pruned));
        }
        let c = &self.counters;
        if c.vec_decoded > 0 {
            v.push(("vec_decoded", c.vec_decoded));
        }
        if c.vec_skipped > 0 {
            v.push(("vec_skipped", c.vec_skipped));
        }
        if c.enc_evals > 0 {
            v.push(("enc_evals", c.enc_evals));
        }
        if c.vec_coded > 0 {
            v.push(("vec_coded", c.vec_coded));
        }
        if !self.runtime.is_empty() {
            v.push(("rtf", self.runtime.len() as u64));
            v.push(("rtf_dropped", c.rtf_dropped));
        }
        if self.waits.is_some() {
            v.push(("pred_ns", c.pred_ns));
            v.push(("decode_ns", c.decode_ns));
            v.push(("residual_ns", c.residual_ns));
        }
        if self.adapt.enabled() {
            v.push(("adapt_order", encode_order(self.adapt.order())));
            if self.adapt.reorders() > 0 {
                v.push(("adapt_reorders", self.adapt.reorders()));
            }
            for (i, s) in self
                .adapt
                .stats()
                .iter()
                .enumerate()
                .take(MAX_REPORTED_CONJUNCTS)
            {
                if s.evals > 0 {
                    v.push((PRED_PASS_KEYS[i], (s.pass_rate() * 100.0).round() as u64));
                    v.push((PRED_EVAL_KEYS[i], s.evals));
                }
            }
        }
        v
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        loop {
            if self.current.is_none() {
                let queue = match &self.queue {
                    Some(q) => q.clone(),
                    None => self.plan_queue(),
                };
                // Time the claim only on an Exchange's shared queue:
                // contention there is morsel starvation, while a private
                // queue has one claimant.
                let t = match (&self.exchange, self.waits.as_deref()) {
                    (Some(_), Some(w)) => Some(WaitTimer::start(w, WaitClass::Morsel)),
                    _ => None,
                };
                let claimed = queue.claim_for(self.exchange.as_ref().map_or(0, |x| x.worker));
                drop(t);
                match claimed {
                    Some(unit) => {
                        self.units_claimed += 1;
                        if let Some(t) = &self.trace {
                            let arg = match &unit {
                                Morsel::Group(g) => Some(("group", *g as u64)),
                                Morsel::AppendTail => None,
                            };
                            t.instant("morsel claim", "sched", arg);
                        }
                        self.current = self.open_unit(unit)?;
                        continue;
                    }
                    None => return Ok(None),
                }
            }
            let lazy = matches!(self.current, Some(Unit::Lazy(_)));
            let step = if lazy {
                self.lazy_step()?
            } else {
                self.eager_step()?
            };
            if let Some(batch) = step {
                return Ok(Some(batch));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{collect_rows, Operator};
    use vw_common::{DataType, Field};
    use vw_storage::{SimDisk, SimDiskConfig, TableBuilder};

    fn make_table(n: usize, group: usize) -> Arc<RwLock<TableStorage>> {
        let disk = Arc::new(SimDisk::new(SimDiskConfig::default()));
        let schema = Schema::new(vec![
            Field::new("k", DataType::I64),
            Field::new("q", DataType::I64),
            Field::nullable("tag", DataType::Str),
        ]);
        let mut b = TableBuilder::with_group_size(schema, disk, group);
        for i in 0..n {
            b.push_row(vec![
                Value::I64(i as i64),
                Value::I64((i % 10) as i64),
                if i % 4 == 0 {
                    Value::Null
                } else {
                    Value::Str(format!("t{}", i % 3))
                },
            ])
            .unwrap();
        }
        Arc::new(RwLock::new(b.finish().unwrap()))
    }

    fn scan_all(
        storage: &Arc<RwLock<TableStorage>>,
        pdt: &Arc<Pdt>,
        projection: Vec<usize>,
        filter: Option<Expr>,
        vs: usize,
    ) -> Vec<Vec<Value>> {
        let mut scan = VecScan::new(
            storage.clone(),
            pdt.clone(),
            projection,
            filter,
            vs,
            false,
            true,
        )
        .unwrap();
        collect_rows(&mut scan).unwrap()
    }

    #[test]
    fn clean_scan_returns_all_rows() {
        let t = make_table(250, 100);
        let pdt = Arc::new(Pdt::new(250));
        let rows = scan_all(&t, &pdt, vec![0, 1, 2], None, 64);
        assert_eq!(rows.len(), 250);
        assert_eq!(rows[0][0], Value::I64(0));
        assert_eq!(rows[249][0], Value::I64(249));
        assert_eq!(rows[4][2], Value::Null);
    }

    #[test]
    fn projection_subset_and_order() {
        let t = make_table(10, 100);
        let pdt = Arc::new(Pdt::new(10));
        let rows = scan_all(&t, &pdt, vec![1, 0], None, 4);
        assert_eq!(rows[3], vec![Value::I64(3), Value::I64(3)]);
        let s = VecScan::new(t, pdt, vec![1, 0], None, 4, false, true).unwrap();
        assert_eq!(s.schema().field(0).name, "q");
        assert_eq!(s.schema().field(1).name, "k");
    }

    #[test]
    fn filter_produces_selection() {
        let t = make_table(100, 50);
        let pdt = Arc::new(Pdt::new(100));
        let f = Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit(Value::I64(5)));
        let rows = scan_all(&t, &pdt, vec![0], Some(f), 32);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[4], vec![Value::I64(4)]);
    }

    #[test]
    fn zone_map_pruning_skips_groups() {
        let t = make_table(1000, 100);
        let pdt = Arc::new(Pdt::new(1000));
        let disk_reads_before = t.read().disk().stats().reads;
        // k < 150 → only groups 0 and 1 must be read.
        let f = Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit(Value::I64(150)));
        let rows = scan_all(&t, &pdt, vec![0], Some(f), 128);
        assert_eq!(rows.len(), 150);
        let reads = t.read().disk().stats().reads - disk_reads_before;
        assert_eq!(reads, 2, "expected 2 group reads, got {}", reads);
    }

    #[test]
    fn pdt_merge_deletes_inserts_modifies() {
        let t = make_table(100, 40);
        let mut pdt = Pdt::new(100);
        pdt.delete_at(0).unwrap(); // delete k=0
        pdt.modify_at(0, 1, Value::I64(999)).unwrap(); // modify (now k=1)'s q
        pdt.insert_at(
            50,
            vec![Value::I64(-1), Value::I64(-2), Value::Str("ins".into())],
        )
        .unwrap();
        // append at end
        let end = pdt.current_rows();
        pdt.insert_at(end, vec![Value::I64(1000), Value::I64(0), Value::Null])
            .unwrap();
        let pdt = Arc::new(pdt);
        let rows = scan_all(&t, &pdt, vec![0, 1, 2], None, 16);
        assert_eq!(rows.len(), 101); // 100 - 1 + 1 + 1
        assert_eq!(rows[0][0], Value::I64(1)); // k=0 deleted
        assert_eq!(rows[0][1], Value::I64(999)); // modified
        assert_eq!(rows[50][0], Value::I64(-1)); // inserted mid-table
        assert_eq!(rows[100][0], Value::I64(1000)); // appended
        assert_eq!(rows[100][2], Value::Null);
    }

    #[test]
    fn dirty_groups_are_not_pruned() {
        let t = make_table(200, 100);
        let mut pdt = Pdt::new(200);
        // modify k in group 1 to a value the predicate matches
        let rid = pdt.rid_of_sid(150).unwrap();
        pdt.modify_at(rid, 0, Value::I64(1)).unwrap();
        let pdt = Arc::new(pdt);
        // predicate k <= 1 would prune group 1 by zone map (its min is 100)
        let f = Expr::binary(BinOp::Le, Expr::col(0), Expr::lit(Value::I64(1)));
        let rows = scan_all(&t, &pdt, vec![0], Some(f), 64);
        // rows: k=0, k=1 from group 0, and the modified k=1 in group 1
        assert_eq!(rows.len(), 3);
    }

    /// How many units the planner keeps for `k <op> bound` over column 0:
    /// a serial scan claims every unit of its queue.
    fn kept_units(t: &Arc<RwLock<TableStorage>>, pdt: Pdt, op: BinOp, bound: i64) -> u64 {
        let f = Expr::binary(op, Expr::col(0), Expr::lit(Value::I64(bound)));
        let mut scan = VecScan::new(
            t.clone(),
            Arc::new(pdt),
            vec![0, 1],
            Some(f),
            64,
            false,
            true,
        )
        .unwrap();
        collect_rows(&mut scan).unwrap();
        let extras = scan.profile_extras();
        extras.iter().find(|(k, _)| *k == "morsels").unwrap().1
    }

    /// A dirty group is pruned when its zone map excludes the predicate and
    /// none of its entries can add a qualifying row — each kind of entry.
    #[test]
    fn dirty_groups_are_pruned_when_no_entry_can_qualify() {
        let t = make_table(300, 100); // k = 0..299 in three groups
        let row = |k: i64| vec![Value::I64(k), Value::I64(0), Value::Null];
        let (only_group_0, groups_0_and_1) = (1, 2);

        // A delete adds no row.
        let mut pdt = Pdt::new(300);
        pdt.delete_at(150).unwrap();
        assert_eq!(kept_units(&t, pdt, BinOp::Lt, 50), only_group_0);

        // A modify of another column leaves k inside the zone map.
        let mut pdt = Pdt::new(300);
        pdt.modify_at(150, 1, Value::I64(7)).unwrap();
        assert_eq!(kept_units(&t, pdt, BinOp::Lt, 50), only_group_0);

        // A modify of k counts by its new value: 60 does not qualify, NULL
        // never does, 7 does.
        for (new_k, kept) in [
            (Value::I64(60), only_group_0),
            (Value::Null, only_group_0),
            (Value::I64(7), groups_0_and_1),
        ] {
            let mut pdt = Pdt::new(300);
            pdt.modify_at(150, 0, new_k).unwrap();
            assert_eq!(kept_units(&t, pdt, BinOp::Lt, 50), kept);
        }

        // An insert counts by its own value.
        for (k, kept) in [(60, only_group_0), (7, groups_0_and_1)] {
            let mut pdt = Pdt::new(300);
            pdt.insert_at(150, row(k)).unwrap();
            assert_eq!(kept_units(&t, pdt, BinOp::Lt, 50), kept);
        }

        // Pruned or not, the rows are the same as without zone maps.
        let mut pdt = Pdt::new(300);
        pdt.delete_at(10).unwrap();
        pdt.insert_at(150, row(7)).unwrap();
        pdt.modify_at(250, 0, Value::I64(3)).unwrap();
        pdt.modify_at(160, 0, Value::I64(500)).unwrap();
        let pdt = Arc::new(pdt);
        let f = Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit(Value::I64(50)));
        let rows = scan_all(&t, &pdt, vec![0], Some(f), 64);
        let mut keys: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        keys.sort_unstable();
        let mut want: Vec<i64> = (0..50).filter(|k| *k != 10).chain([3, 7]).collect();
        want.sort_unstable();
        assert_eq!(keys, want);
    }

    /// The RIDs a scan reports are positions in the merged image: what
    /// `Pdt::resolve` finds there is the row the scan produced — over clean
    /// groups (lazy, dense and sparse), dirty groups and the append tail.
    #[test]
    fn emitted_rids_are_positions_in_resolve_order() {
        let t = make_table(300, 100);
        let mut pdt = Pdt::new(300);
        let row = |k: i64| vec![Value::I64(k), Value::I64(k % 10), Value::Null];
        pdt.delete_at(5).unwrap();
        pdt.insert_at(120, row(1000)).unwrap();
        pdt.insert_at(120, row(1001)).unwrap();
        pdt.modify_at(130, 0, Value::I64(1002)).unwrap();
        pdt.delete_at(199).unwrap();
        for k in 0..3 {
            pdt.insert_at(pdt.current_rows(), row(2000 + k)).unwrap();
        }
        let pdt = Arc::new(pdt);
        // The key every RID holds, from the PDT alone.
        let stable = t.read();
        let key_at = |rid: u64| match pdt.resolve(rid).unwrap() {
            vw_pdt::Loc::Inserted(e) => pdt.inserted_row(e)[0].clone(),
            vw_pdt::Loc::Stable { sid, modify } => modify
                .and_then(|m| pdt.mods_of(m).get(&0).cloned())
                .unwrap_or_else(|| stable.read_row(sid).unwrap()[0].clone()),
        };
        let filters = [
            None,
            // 1 row in 10: sparse vectors in the clean group.
            Some(Expr::binary(
                BinOp::Eq,
                Expr::col(1),
                Expr::lit(Value::I64(3)),
            )),
            // 9 in 10: dense vectors with a selection.
            Some(Expr::binary(
                BinOp::Ne,
                Expr::col(1),
                Expr::lit(Value::I64(3)),
            )),
            Some(Expr::binary(
                BinOp::Ge,
                Expr::col(0),
                Expr::lit(Value::I64(250)),
            )),
        ];
        for filter in filters {
            for vs in [1, 7, 1024] {
                let mut scan = VecScan::new(
                    t.clone(),
                    pdt.clone(),
                    vec![1, 0],
                    filter.clone().map(|f| f.remap_columns(&|c| 1 - c)),
                    vs,
                    false,
                    true,
                )
                .unwrap();
                scan.set_emit_rids();
                let mut seen = Vec::new();
                while let Some(batch) = scan.next().unwrap() {
                    assert_eq!(scan.rids().len(), batch.rows);
                    for i in batch.positions() {
                        let rid = scan.rids()[i];
                        assert_eq!(batch.columns[1].get_value(i, DataType::I64), key_at(rid));
                        seen.push(rid);
                    }
                }
                assert!(seen.windows(2).all(|w| w[0] < w[1]), "RIDs ascend");
                if filter.is_none() {
                    assert_eq!(seen, (0..pdt.current_rows()).collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    fn morsel_scans_cover_disjointly() {
        let t = make_table(500, 50); // 10 groups
        let mut pdt = Pdt::new(500);
        pdt.insert_at(500, vec![Value::I64(9999), Value::I64(0), Value::Null])
            .unwrap();
        let pdt = Arc::new(pdt);
        // Three workers' scans of one plan position share the Exchange's
        // queue, planned by whichever claims first — together they must
        // cover every row (including the append tail) exactly once.
        let stats = Arc::new(crate::morsel::ExecStats::default());
        let shared = SharedExec::new(3, stats.clone());
        let mut scans: Vec<VecScan> = (0..3)
            .map(|worker| {
                let mut scan =
                    VecScan::new(t.clone(), pdt.clone(), vec![0], None, 64, false, true).unwrap();
                scan.set_exchange(shared.clone(), TableId::new(1), 0, worker);
                scan
            })
            .collect();
        let mut all: Vec<Vec<Value>> = Vec::new();
        while !scans.is_empty() {
            scans.retain_mut(|scan| match scan.next().unwrap() {
                Some(b) => {
                    all.extend(b.materialize().to_rows(scan.schema()));
                    true
                }
                None => false,
            });
        }
        assert_eq!(all.len(), 501);
        let mut keys: Vec<i64> = all
            .iter()
            .map(|r| match r[0] {
                Value::I64(k) => k,
                _ => panic!(),
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 501); // disjoint coverage
        assert_eq!(stats.morsels_claimed(), 11); // 10 groups + append tail
    }

    #[test]
    fn vector_size_one_works() {
        let t = make_table(5, 100);
        let pdt = Arc::new(Pdt::new(5));
        let rows = scan_all(&t, &pdt, vec![0], None, 1);
        assert_eq!(rows.len(), 5);
    }

    /// The density rule, observed in the batches themselves: a vector that
    /// keeps at most every second row comes out dense (survivors only, no
    /// selection), a fuller one keeps its selection over the whole slice.
    #[test]
    fn sparse_vectors_come_out_dense() {
        let t = make_table(4000, 4000);
        let pdt = Arc::new(Pdt::new(4000));
        // q = i % 10: `q < 2` keeps 2 rows in 10, `q < 8` keeps 8 in 10.
        for (bound, dense) in [(2, true), (8, false)] {
            let f = Expr::binary(BinOp::Lt, Expr::col(1), Expr::lit(Value::I64(bound)));
            let mut scan = VecScan::new(
                t.clone(),
                pdt.clone(),
                vec![0, 1, 2],
                Some(f),
                100,
                false,
                true,
            )
            .unwrap();
            let mut rows = 0;
            while let Some(batch) = scan.next().unwrap() {
                rows += batch.len();
                assert_eq!(batch.sel.is_none(), dense, "bound {}", bound);
                let physical = if dense { 10 * bound as usize } else { 100 };
                assert_eq!(batch.rows, physical, "bound {}", bound);
                assert!(batch.columns.iter().all(|c| c.len() == physical));
            }
            assert_eq!(rows, 400 * bound as usize);
        }
    }

    /// Every clean group goes through the cursors, filter or none: vectors
    /// are decoded one at a time (and counted), the PDICT column leaves as
    /// codes, and a pushed `LIKE` is one encoded evaluation per vector. A
    /// group with pending changes is decoded whole and yields strings.
    #[test]
    fn clean_groups_decode_vector_at_a_time_and_ship_codes() {
        let t = make_table(3000, 1000);
        let extra = |scan: &VecScan, key: &str| {
            let found = scan.profile_extras().into_iter().find(|(k, _)| *k == key);
            found.map_or(0, |(_, v)| v)
        };
        let coded = |b: &Batch| matches!(b.columns[1].data, ColumnData::Dict(_));
        let clean = Arc::new(Pdt::new(3000));
        let mut scan =
            VecScan::new(t.clone(), clean.clone(), vec![0, 2], None, 256, false, true).unwrap();
        let mut rows = 0;
        while let Some(b) = scan.next().unwrap() {
            assert!(coded(&b) && b.rows <= 256);
            rows += b.len();
        }
        assert_eq!(rows, 3000);
        // 3 groups of 4 vectors, two columns each.
        assert_eq!(extra(&scan, "vec_decoded"), 12);
        assert_eq!(extra(&scan, "vec_coded"), 12);

        // tag LIKE 't1%' keeps the rows with i % 3 = 1 that are not NULL.
        let like = Expr::Like {
            e: Box::new(Expr::col(1)),
            pattern: "t1%".into(),
            negated: false,
        };
        let mut scan = VecScan::new(
            t.clone(),
            clean,
            vec![0, 2],
            Some(like.clone()),
            256,
            false,
            true,
        )
        .unwrap();
        let got = collect_rows(&mut scan).unwrap();
        let want = (0..3000).filter(|i| i % 3 == 1 && i % 4 != 0).count();
        assert_eq!(got.len(), want);
        assert!(got.iter().all(|r| r[1] == Value::Str("t1".into())));
        assert_eq!(extra(&scan, "enc_evals"), 12);

        // The second group dirty: its batches are decoded strings.
        let mut pdt = Pdt::new(3000);
        pdt.modify_at(1500, 1, Value::I64(7)).unwrap();
        let mut scan =
            VecScan::new(t, Arc::new(pdt), vec![0, 2], Some(like), 256, false, true).unwrap();
        let (mut rows, mut plain) = (0, 0);
        while let Some(b) = scan.next().unwrap() {
            rows += b.len();
            plain += !coded(&b) as usize;
        }
        assert_eq!(rows, want);
        assert_eq!(plain, 4, "the dirty group's four vectors");
        assert_eq!(extra(&scan, "enc_evals"), 8);
    }

    /// A block that opens cleanly but fails to decode — a PDICT code past
    /// its dictionary — is an error naming the block when a dirty group
    /// decodes it whole.
    #[test]
    fn undecodable_blocks_of_dirty_groups_name_the_block() {
        use vw_storage::compress::{compress_with, CompressionScheme};
        use vw_storage::StrColumn;
        let t = make_table(200, 100);
        let tags = StrColumn::from_iter((0..100).map(|i| ["a", "b", "c"][i % 3]));
        // No NULL indicator, then the payload. Its last byte holds the last
        // four 2-bit codes: 0xFF makes each point past the three entries.
        let payload = compress_with(&ColumnData::Str(tags), CompressionScheme::Pdict);
        let mut block = [vec![0], payload].concat();
        *block.last_mut().unwrap() = 0xFF;
        let guard = t.read();
        let id = guard.column_block_id(1, 2).unwrap();
        guard.disk().overwrite_block(id, block).unwrap();
        drop(guard);
        let mut pdt = Pdt::new(200);
        pdt.modify_at(150, 1, Value::I64(7)).unwrap();
        let mut scan = VecScan::new(t, Arc::new(pdt), vec![0, 2], None, 64, false, true).unwrap();
        let msg = collect_rows(&mut scan).unwrap_err().to_string();
        for part in ["column 'tag'", "row-group 1", "pdict code"] {
            assert!(msg.contains(part), "msg: {}", msg);
        }
    }

    /// The acceptance shape for adaptivity: the selective conjunct is LAST
    /// in the written predicate order, so the static order always evaluates
    /// the pass-everything conjunct first. Adaptive ordering must converge
    /// on the selective conjunct, cut encoded-predicate evaluations, and
    /// return exactly the same rows.
    #[test]
    fn adaptive_order_cuts_enc_evals_and_preserves_results() {
        fn run(adaptive: bool) -> (Vec<Vec<Value>>, u64, u64) {
            let t = make_table(4000, 4000);
            let pdt = Arc::new(Pdt::new(4000));
            // q <= 8 passes 90% (zone maps can't decide: q ranges 0..9);
            // k < 40 passes 1% and is written last.
            let f = Expr::and(
                Expr::binary(BinOp::Le, Expr::col(1), Expr::lit(Value::I64(8))),
                Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit(Value::I64(40))),
            );
            let mut scan = VecScan::new(t, pdt, vec![0, 1], Some(f), 64, false, adaptive).unwrap();
            let rows = collect_rows(&mut scan).unwrap();
            let extras = scan.profile_extras();
            let get = |key: &str| {
                extras
                    .iter()
                    .find(|(n, _)| *n == key)
                    .map(|(_, v)| *v)
                    .unwrap_or(0)
            };
            (rows, get("enc_evals"), get("adapt_reorders"))
        }
        let (static_rows, static_evals, static_reorders) = run(false);
        let (adapt_rows, adapt_evals, adapt_reorders) = run(true);
        assert_eq!(static_rows, adapt_rows, "adaptivity changed results");
        assert_eq!(static_rows.len(), 36); // k<40 minus q==9 rows
        assert_eq!(static_reorders, 0);
        assert!(adapt_reorders >= 1, "order never adapted");
        let speedup = static_evals as f64 / adapt_evals.max(1) as f64;
        assert!(
            speedup >= 1.3,
            "enc_evals {} -> {} (speedup {:.2}, want >= 1.3)",
            static_evals,
            adapt_evals,
            speedup
        );
    }
}
