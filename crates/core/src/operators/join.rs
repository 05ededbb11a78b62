//! The vectorized hash join.
//!
//! Builds a hash table from the **right** input (the optimizer arranges the
//! smaller side there), then streams the left input vector-at-a-time:
//! hash probe → candidate verification (allocation-free lane comparison) →
//! gather of matched pairs. Supports inner, left-outer, semi and anti joins
//! plus a residual (non-equi) predicate evaluated over matched pairs.
//!
//! SQL NULL key semantics: a NULL key never matches anything — NULL-keyed
//! build rows are not inserted, NULL-keyed probe rows never find matches
//! (for LEFT/ANTI they surface as unmatched rows, as SQL requires).
//!
//! Under a [`MemTracker`] budget the join goes **grace-style**: if the build
//! side outgrows its reservation, build rows are partitioned by the top bits
//! of their key hash into [`SPILL_PARTITIONS`] spill files (NULL-keyed build
//! rows are dropped — they can never match, and build rows only surface
//! through matches). The probe input is then drained and partitioned the
//! same way (NULL-keyed probe rows go to partition 0: they match nothing,
//! which is exactly what LEFT/ANTI need). Probing proceeds
//! partition-at-a-time: load one build partition's hash table (the minimal
//! working unit, force-reserved), stream its probe partition through the
//! ordinary match/residual/kind pipeline, release, move on. Equal keys hash
//! equal, so matches can only occur within a partition.
//!
//! Runtime filters: an inner or semi join whose probe keys are integer
//! columns its probe-side scan hands up unchanged derives, from an
//! in-memory build, the [`KeySet`] of each such key — `[lo, hi]` over the
//! non-NULL build keys and a bitmap over it when that takes at most 1 MiB —
//! and leaves it for the scan before pulling the first probe vector. A
//! probe row outside the set cannot match, so the scan drops it before it
//! is decoded. LEFT and ANTI joins must see every probe row, and a spilled
//! build publishes nothing.

use crate::batch::{Batch, ExecVector};
use crate::mem::MemTracker;
use crate::morsel::{ExecStats, SharedBuild};
use crate::operators::RuntimeFilters;
use crate::spill::{batch_bytes, read_batch, write_batch, QueryEnv};
use crate::trace::TraceHandle;
use crate::vexpr::ExprEvaluator;
use std::sync::Arc;
use std::time::Instant;
use vw_common::waits::{WaitClass, WaitStats};
use vw_common::{Result, Schema, VwError};
use vw_plan::{Expr, JoinKind};
use vw_storage::{ColumnData, KeySet, SpillFile};

use super::hash_table::{hash_keys, null_key_mask, verify_keys, FlatTable};
use super::{concat_batches, empty_columns, lap, BoxedOperator, Operator};

/// Spill fan-out; partitions are chosen by the top 3 bits of the key hash.
const SPILL_PARTITIONS: usize = 8;

/// Hash join operator.
pub struct HashJoin {
    left: BoxedOperator,
    right: Option<BoxedOperator>,
    kind: JoinKind,
    /// (left key col, right key col) pairs.
    on: Vec<(usize, usize)>,
    residual: Option<ExprEvaluator>,
    out_schema: Schema,
    right_schema: Schema,
    build: Option<Arc<BuildData>>,
    /// When probing inside a morsel-parallel Exchange: the once-cell all
    /// workers share. The first worker to reach the join executes the build
    /// child; the rest drop theirs unexecuted and reuse the frozen result.
    shared: Option<Arc<SharedBuild>>,
    stats: Option<Arc<ExecStats>>,
    /// Whether *this* worker's instance executed the build (vs reusing a
    /// sibling worker's shared build) — surfaced by `EXPLAIN ANALYZE`.
    build_executed: bool,
    /// Where the finished build leaves its key sets for the probe side.
    probe_filters: Option<ProbeFilters>,
    /// The query's environment. Its tracker is the probe side's ledger
    /// (probe partitioning + loaded partitions); the trace gets build and
    /// build-wait spans and spill writes.
    env: QueryEnv,
    /// Probe progress against a spilled build (None until needed).
    grace: Option<GraceProbe>,
    /// Lanes of the probe vector in flight, reused across vectors.
    scratch: Scratch,
    prof: JoinProfile,
}

/// The probe-side scan's inbox for key sets, and the `(key, scan column)`
/// pairs to fill it with: `key` indexes `on`.
struct ProbeFilters {
    inbox: Arc<RuntimeFilters>,
    keys: Vec<(usize, usize)>,
}

/// Key hashes of one probe vector, its `(probe row, build row)` candidate
/// pairs and their key-equality verdicts.
#[derive(Default)]
struct Scratch {
    hashes: Vec<u64>,
    pi: Vec<u32>,
    bi: Vec<u32>,
    ok: Vec<bool>,
}

/// `EXPLAIN ANALYZE` figures: time building, matching (hash, chain walk,
/// verify) and assembling output (residual, gathers) — one sample per
/// `next()` step, taken only while profiling — and the shape of the tables
/// this instance built or loaded.
#[derive(Default)]
struct JoinProfile {
    build_ns: u64,
    probe_ns: u64,
    emit_ns: u64,
    ht_slots: u64,
    ht_max_chain: u64,
}

/// An in-memory build table: the build rows as dense columns plus the flat
/// hash table over their keys (entry id = build row).
struct MemTable {
    columns: Vec<ExecVector>,
    table: FlatTable,
}

impl MemTable {
    /// Hash dense `columns` on the right-side `on` keys; rows with a NULL key
    /// stay out of the table (they never match).
    fn build(columns: Vec<ExecVector>, rows: usize, on: &[(usize, usize)]) -> MemTable {
        let keys: Vec<&ExecVector> = on.iter().map(|&(_, rc)| &columns[rc]).collect();
        let mut hashes = Vec::with_capacity(rows);
        hash_keys(&keys, None, rows, &mut hashes);
        let table = FlatTable::build(hashes, null_key_mask(&keys).as_deref());
        MemTable { columns, table }
    }

    /// A table over no rows: LEFT/ANTI probes still surface their unmatched
    /// rows against it.
    fn empty(schema: &Schema) -> MemTable {
        MemTable::build(empty_columns(schema), 0, &[])
    }

    /// Heap bytes held, by capacity.
    fn heap_bytes(&self) -> usize {
        self.table.heap_bytes() + self.columns.iter().map(|c| c.heap_bytes()).sum::<usize>()
    }
}

enum BuildRepr {
    /// Fits in budget: one resident hash table (the fast path).
    Mem(MemTable),
    /// Spilled: build rows partitioned by key hash, NULL keys dropped.
    Spilled(Vec<SpillFile>),
}

/// Frozen build side of a hash join. Immutable once built, so probe workers
/// can share it behind an `Arc`; spilled partitions are read through `&self`.
/// Holds its memory reservation (`mem`: the build columns and the table's
/// arrays, by capacity) for as long as it lives.
pub struct BuildData {
    repr: BuildRepr,
    rows: u64,
    /// `(key, set)`: the key set of `on[key]`'s build column, for each key
    /// asked for whose column holds integers; none for a spilled build.
    filters: Vec<(usize, Arc<KeySet>)>,
    mem: MemTracker,
}

impl BuildData {
    /// An empty build side (matches nothing). For tests and placeholders.
    pub fn empty() -> BuildData {
        BuildData {
            repr: BuildRepr::Mem(MemTable::empty(&Schema::new(Vec::new()))),
            rows: 0,
            filters: Vec::new(),
            mem: MemTracker::detached(),
        }
    }

    /// Drain `right` and hash its rows on the `on` keys, reserving against
    /// `env`'s tracker and switching to hash-partitioned spill files under
    /// pressure — when a batch, or at the end the table over all of them,
    /// does not fit. An in-memory build also derives the key set of each
    /// `on` key listed in `filter_keys`.
    fn from_operator(
        right: &mut dyn Operator,
        on: &[(usize, usize)],
        filter_keys: &[usize],
        mut env: QueryEnv,
    ) -> Result<BuildData> {
        let key_cols: Vec<usize> = on.iter().map(|&(_, rc)| rc).collect();
        let mut pending: Vec<Batch> = Vec::new();
        let mut parts: Option<Vec<SpillFile>> = None;
        let mut rows_total = 0u64;
        // Go grace: partition everything resident, release its reservation.
        let mut spill_pending = |pending: &mut Vec<Batch>, env: &mut QueryEnv| {
            let files = parts.get_or_insert_with(|| {
                let d = env.spill_disk();
                let files = (0..SPILL_PARTITIONS).map(|_| SpillFile::new(d.clone()));
                files.collect()
            });
            for b in pending.drain(..) {
                let waits = env.waits.as_deref();
                spill_partitioned(&b, &key_cols, false, files, &mut env.mem, waits, None)?;
            }
            env.mem.release_all();
            Ok::<bool, VwError>(true)
        };
        let mut spilled = false;
        while let Some(b) = right.next()? {
            // The build side outlives the blocks it was read from: strings,
            // not codes over their dictionaries.
            let b = b.materialize();
            if b.rows == 0 {
                continue;
            }
            rows_total += b.rows as u64;
            let fits = !spilled && env.mem.try_grow(batch_bytes(&b));
            pending.push(b);
            if !fits {
                spilled = spill_pending(&mut pending, &mut env)?;
            }
        }
        // The table over the resident rows is the last thing that must fit.
        let rows: usize = pending.iter().map(|b| b.rows).sum();
        if rows > 0 && !env.mem.try_grow(FlatTable::bytes_for(rows)) {
            spill_pending(&mut pending, &mut env)?;
        }
        let repr = match parts {
            Some(files) => BuildRepr::Spilled(files),
            None if pending.is_empty() => BuildRepr::Mem(MemTable::empty(right.schema())),
            None => {
                let batch = concat_batches(pending, right.schema().len());
                let mt = MemTable::build(batch.columns, batch.rows, on);
                let mut held = env.mem.reserved() as usize;
                env.mem.resize(&mut held, mt.heap_bytes(), true);
                BuildRepr::Mem(mt)
            }
        };
        let mut filters = Vec::new();
        if let BuildRepr::Mem(mt) = &repr {
            for &k in filter_keys {
                if let Some(set) = key_set(&mt.columns[on[k].1], &mut env.mem) {
                    filters.push((k, Arc::new(set)));
                }
            }
        }
        Ok(BuildData {
            repr,
            rows: rows_total,
            filters,
            mem: env.mem,
        })
    }

    /// True if this build spilled to partition files.
    pub fn spilled(&self) -> bool {
        matches!(self.repr, BuildRepr::Spilled(_))
    }
}

/// The key set of a build key column: its non-NULL values, compared as i64
/// exactly as [`verify_keys`] compares integer keys. A bitmap when their
/// range fits [`KeySet::MAX_BITS`] values and `mem` grants its bytes, else
/// the bare range. `None` for a column of no integer type.
fn key_set(col: &ExecVector, mem: &mut MemTracker) -> Option<KeySet> {
    fn of<I: Iterator<Item = i64>>(keys: impl Fn() -> I, mem: &mut MemTracker) -> KeySet {
        let (lo, hi) = keys().fold((i64::MAX, i64::MIN), |(l, h), k| (l.min(k), h.max(k)));
        if lo > hi {
            return KeySet::empty();
        }
        match KeySet::bitmap_bytes(lo, hi) {
            Some(bytes) if mem.try_grow(bytes) => KeySet::bitmap(lo, hi, keys()),
            _ => KeySet::range(lo, hi),
        }
    }
    let present = |i: &usize| !col.is_null(*i);
    match &col.data {
        ColumnData::I32(v) => Some(of(
            || (0..v.len()).filter(present).map(|i| v[i] as i64),
            mem,
        )),
        ColumnData::I64(v) => Some(of(|| (0..v.len()).filter(present).map(|i| v[i]), mem)),
        _ => None,
    }
}

/// Route one dense batch into the hash partitions, chosen by the top bits of
/// the key hash. Rows with a NULL key match nothing: they are dropped, or —
/// `keep_null`, the probe side of LEFT/ANTI, which must still surface them —
/// ride along in partition 0.
fn spill_partitioned(
    b: &Batch,
    key_cols: &[usize],
    keep_null: bool,
    files: &mut [SpillFile],
    mem: &mut MemTracker,
    waits: Option<&WaitStats>,
    trace: Option<&TraceHandle>,
) -> Result<()> {
    let keys: Vec<&ExecVector> = key_cols.iter().map(|&c| &b.columns[c]).collect();
    let mut hashes = Vec::new();
    hash_keys(&keys, None, b.rows, &mut hashes);
    let nulls = null_key_mask(&keys);
    let mut part_rows: Vec<Vec<u32>> = vec![Vec::new(); SPILL_PARTITIONS];
    for (i, &h) in hashes.iter().enumerate() {
        if !nulls.as_ref().is_some_and(|n| n[i]) {
            part_rows[(h >> 61) as usize].push(i as u32);
        } else if keep_null {
            part_rows[0].push(i as u32);
        }
    }
    for (p, idx) in part_rows.iter().enumerate() {
        if idx.is_empty() {
            continue;
        }
        let sub = Batch::new(b.columns.iter().map(|c| c.gather(idx)).collect());
        let bytes = write_batch(&mut files[p], &sub, waits)?;
        mem.note_spill(bytes);
        if let Some(t) = trace {
            t.instant("spill write", "spill", Some(("bytes", bytes)));
        }
    }
    Ok(())
}

/// Progress of a partition-at-a-time probe against a spilled build.
struct GraceProbe {
    /// Probe rows partitioned by their own key hash (NULL keys → part 0).
    probe_parts: Vec<SpillFile>,
    /// Current partition (0..SPILL_PARTITIONS; == len means done).
    part: usize,
    /// Next probe chunk within the current partition.
    chunk: usize,
    /// The current partition's build table (force-reserved working unit).
    loaded: Option<MemTable>,
    loaded_bytes: usize,
}

/// Keep the pairs whose verdict in `keep` is true.
fn retain_pairs(pi: &mut Vec<u32>, bi: &mut Vec<u32>, keep: &[bool]) {
    for idx in [pi, bi] {
        let mut k = keep.iter();
        idx.retain(|_| *k.next().expect("one verdict per pair"));
    }
}

/// The selected rows of `probe` that do (`want`) or do not occur in `pi`.
fn rows_where(probe: &Batch, pi: &[u32], want: bool) -> Vec<u32> {
    let mut matched = vec![false; probe.rows];
    for &p in pi {
        matched[p as usize] = true;
    }
    let keep = |i: &u32| matched[*i as usize] == want;
    match &probe.sel {
        Some(s) => s.iter().copied().filter(keep).collect(),
        None => (0..probe.rows as u32).filter(keep).collect(),
    }
}

/// The probe columns at rows `idx` — moved out, not copied, when `idx` is
/// every row of a dense batch in order (each probe row matched exactly once:
/// the shape of a foreign-key join).
fn take_rows(probe: &mut Batch, idx: &[u32]) -> Vec<ExecVector> {
    let whole = probe.sel.is_none() && idx.len() == probe.rows;
    if whole && idx.iter().enumerate().all(|(k, &i)| i as usize == k) {
        return std::mem::take(&mut probe.columns);
    }
    probe.columns.iter().map(|c| c.gather(idx)).collect()
}

impl HashJoin {
    pub fn new(
        left: BoxedOperator,
        right: BoxedOperator,
        kind: JoinKind,
        on: Vec<(usize, usize)>,
        residual: Option<Expr>,
        naive_nulls: bool,
    ) -> Result<HashJoin> {
        if on.is_empty() {
            return Err(VwError::Plan("hash join needs at least one key".into()));
        }
        let left_schema = left.schema().clone();
        let right_schema = right.schema().clone();
        let out_schema = match kind {
            JoinKind::Semi | JoinKind::Anti => left_schema.clone(),
            JoinKind::Inner => left_schema.join(&right_schema),
            JoinKind::Left => {
                let mut fields: Vec<vw_common::Field> = left_schema.fields().to_vec();
                for f in right_schema.fields() {
                    let mut nf = f.clone();
                    nf.nullable = true;
                    fields.push(nf);
                }
                Schema::new(fields)
            }
        };
        // Residual is evaluated over the concatenated (left ++ right) schema
        // regardless of join kind.
        let combined = left_schema.join(&right_schema);
        let residual = residual
            .map(|e| ExprEvaluator::new(e, &combined, naive_nulls))
            .transpose()?;
        Ok(HashJoin {
            left,
            right: Some(right),
            kind,
            on,
            residual,
            out_schema,
            right_schema,
            build: None,
            shared: None,
            stats: None,
            build_executed: false,
            probe_filters: None,
            env: QueryEnv::default(),
            grace: None,
            scratch: Scratch::default(),
            prof: JoinProfile::default(),
        })
    }

    /// Share the build side through `slot` with the other Exchange workers.
    pub fn set_shared_build(&mut self, slot: Arc<SharedBuild>) {
        self.shared = Some(slot);
    }

    /// Leave, in the probe-side scan's `inbox`, the key set of each `(key,
    /// scan column)` pair once the build is done: `key` indexes `on`, and
    /// the scan produces `on[key]`'s probe column as its output column
    /// `scan column`. Only inner and semi joins take them: LEFT and ANTI
    /// joins must see every probe row.
    pub fn set_runtime_filters(&mut self, inbox: Arc<RuntimeFilters>, keys: Vec<(usize, usize)>) {
        if matches!(self.kind, JoinKind::Inner | JoinKind::Semi) {
            self.probe_filters = Some(ProbeFilters { inbox, keys });
        }
    }

    /// Record build executions in `stats` (observability for tests).
    pub fn set_stats(&mut self, stats: Arc<ExecStats>) {
        self.stats = Some(stats);
    }

    /// Run in the query's environment. The build side gets a tracker of
    /// its own on the same budget (it may outlive this worker's instance
    /// when shared across an Exchange).
    pub fn set_env(&mut self, env: QueryEnv) {
        self.env = env;
    }

    /// A lap clock, running only while profiling.
    fn clock(&self) -> Option<Instant> {
        self.env.waits.as_ref().map(|_| Instant::now())
    }

    /// Record the shape of a table this instance built or loaded.
    fn note_table(&mut self, mt: &MemTable) {
        self.prof.ht_slots = self.prof.ht_slots.max(mt.table.slots() as u64);
        if self.env.waits.is_some() {
            self.prof.ht_max_chain = self.prof.ht_max_chain.max(mt.table.max_chain());
        }
    }

    fn build_side(&mut self) -> Result<()> {
        let mut right = self.right.take().expect("build called twice");
        let on = self.on.clone();
        let filter_keys: Vec<usize> = match &self.probe_filters {
            Some(pf) => pf.keys.iter().map(|&(k, _)| k).collect(),
            None => Vec::new(),
        };
        let stats = self.stats.clone();
        let env = self.env.fork();
        let executed = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let executed_in = executed.clone();
        let make = move || {
            executed_in.store(true, std::sync::atomic::Ordering::Relaxed);
            if let Some(s) = &stats {
                s.note_build();
            }
            BuildData::from_operator(right.as_mut(), &on, &filter_keys, env)
        };
        let span = self.env.trace.as_ref().map(|t| t.start());
        let t0 = self.clock();
        let data = match &self.shared {
            Some(slot) => slot.clone().get_or_build(make)?,
            None => Arc::new(make()?),
        };
        self.build_executed = executed.load(std::sync::atomic::Ordering::Relaxed);
        if let (Some(w), Some(t0)) = (&self.env.waits, t0) {
            // Workers that arrived while a sibling built were *blocked*; the
            // executing worker's time is build compute, not a wait.
            let ns = t0.elapsed().as_nanos() as u64;
            if self.build_executed {
                self.prof.build_ns += ns;
            } else {
                w.record(WaitClass::BuildWait, ns);
            }
        }
        if let (true, BuildRepr::Mem(mt)) = (self.build_executed, &data.repr) {
            self.note_table(mt);
        }
        if let (Some(t), Some(start)) = (&self.env.trace, span) {
            // The same call site is a build on the executing worker and a
            // blocked wait on every worker that arrived while it ran.
            let name = if self.build_executed {
                "join build"
            } else {
                "build wait"
            };
            t.span_arg(name, "sched", start, Some(("rows", data.rows)));
            if self.build_executed && data.spilled() {
                t.instant(
                    "spill write",
                    "spill",
                    Some(("bytes", data.mem.spill_bytes())),
                );
            }
        }
        // Before the first probe vector is pulled: the scan has not run.
        if let Some(pf) = &self.probe_filters {
            for &(k, col) in &pf.keys {
                if let Some((_, set)) = data.filters.iter().find(|(fk, _)| *fk == k) {
                    pf.inbox.publish(col, set.clone());
                }
            }
        }
        self.build = Some(data);
        Ok(())
    }

    /// Verified `(probe row, build row)` pairs of one probe batch, left in
    /// the scratch lanes: ordered by probe row, a row's matches in ascending
    /// build-row order. Only the selected probe rows are hashed and probed.
    fn match_pairs(&mut self, probe: &Batch, mt: &MemTable) {
        let sc = &mut self.scratch;
        let keys: Vec<&ExecVector> = self.on.iter().map(|&(lc, _)| &probe.columns[lc]).collect();
        let sel = probe.sel.as_deref();
        hash_keys(&keys, sel, probe.rows, &mut sc.hashes);
        sc.pi.clear();
        sc.bi.clear();
        let skip = null_key_mask(&keys); // NULL keys never match
        mt.table
            .candidates(&sc.hashes, sel, skip.as_deref(), &mut sc.pi, &mut sc.bi);
        sc.ok.clear();
        sc.ok.resize(sc.pi.len(), true);
        for &(lc, rc) in &self.on {
            verify_keys(
                &probe.columns[lc],
                &sc.pi,
                &mt.columns[rc],
                &sc.bi,
                &mut sc.ok,
            );
        }
        if sc.ok.contains(&false) {
            retain_pairs(&mut sc.pi, &mut sc.bi, &sc.ok);
        }
    }

    /// Run one probe batch through match → residual → kind assembly.
    /// `Ok(None)` means this batch produced no output rows.
    fn emit_for_probe(&mut self, mut probe: Batch, mt: &MemTable) -> Result<Option<Batch>> {
        let mut clock = self.clock();
        self.match_pairs(&probe, mt);
        lap(&mut clock, &mut self.prof.probe_ns);
        let Scratch { pi, bi, .. } = &mut self.scratch;
        // Residual predicate filters candidate pairs.
        if let (Some(res), false) = (&self.residual, pi.is_empty()) {
            let left = probe.columns.iter().map(|c| c.gather(pi));
            let right = mt.columns.iter().map(|c| c.gather(bi));
            let v = res.eval(&Batch::new(left.chain(right).collect()))?;
            let ColumnData::Bool(vals) = &v.data else {
                return Err(VwError::Exec("residual must be boolean".into()));
            };
            let keep: Vec<bool> = (0..pi.len()).map(|k| vals[k] && !v.is_null(k)).collect();
            retain_pairs(pi, bi, &keep);
        }
        let rows = match self.kind {
            JoinKind::Inner => std::mem::take(pi),
            // Matched pairs, then the null-padded unmatched probe rows.
            JoinKind::Left => {
                let unmatched = rows_where(&probe, pi, false);
                let mut rows = std::mem::take(pi);
                rows.extend(unmatched);
                rows
            }
            JoinKind::Semi | JoinKind::Anti => rows_where(&probe, pi, self.kind == JoinKind::Semi),
        };
        let out = (!rows.is_empty()).then(|| {
            let mut cols = take_rows(&mut probe, &rows);
            if matches!(self.kind, JoinKind::Inner | JoinKind::Left) {
                for (c, f) in mt.columns.iter().zip(self.right_schema.fields()) {
                    let mut col = c.gather(bi);
                    if rows.len() > bi.len() {
                        col.extend_from(&ExecVector::all_null(f.ty, rows.len() - bi.len()), None);
                    }
                    cols.push(col);
                }
            }
            Batch::new(cols)
        });
        if self.kind == JoinKind::Inner || self.kind == JoinKind::Left {
            *pi = rows; // hand the allocation back to the scratch lanes
        }
        lap(&mut clock, &mut self.prof.emit_ns);
        Ok(out)
    }

    /// Drain the probe input into hash partitions aligned with the spilled
    /// build.
    fn init_grace(&mut self) -> Result<GraceProbe> {
        let d = self.env.spill_disk();
        let mut files: Vec<SpillFile> = (0..SPILL_PARTITIONS)
            .map(|_| SpillFile::new(d.clone()))
            .collect();
        let key_cols: Vec<usize> = self.on.iter().map(|&(lc, _)| lc).collect();
        let keep_null = matches!(self.kind, JoinKind::Left | JoinKind::Anti);
        while let Some(b) = self.left.next()? {
            let b = b.compact();
            if b.rows > 0 {
                let QueryEnv {
                    mem, trace, waits, ..
                } = &mut self.env;
                let (waits, trace) = (waits.as_deref(), trace.as_ref());
                spill_partitioned(&b, &key_cols, keep_null, &mut files, mem, waits, trace)?;
            }
        }
        Ok(GraceProbe {
            probe_parts: files,
            part: 0,
            chunk: 0,
            loaded: None,
            loaded_bytes: 0,
        })
    }

    /// Advance the partition-at-a-time probe: load build partition, stream
    /// its probe chunks, release, move to the next partition.
    fn grace_step(
        &mut self,
        g: &mut GraceProbe,
        build_files: &[SpillFile],
    ) -> Result<Option<Batch>> {
        loop {
            if g.part >= SPILL_PARTITIONS {
                return Ok(None);
            }
            if g.loaded.is_none() {
                let mut clock = self.clock();
                let f = &build_files[g.part];
                let chunks = (0..f.chunk_count())
                    .map(|ci| read_batch(f, ci, self.env.waits.as_deref()))
                    .collect::<Result<Vec<Batch>>>()?;
                let mt = if chunks.is_empty() {
                    MemTable::empty(&self.right_schema)
                } else {
                    let batch = concat_batches(chunks, self.right_schema.len());
                    MemTable::build(batch.columns, batch.rows, &self.on)
                };
                // One resident build partition is the join's minimal working
                // unit — reserve it unconditionally so every plan completes.
                g.loaded_bytes = mt.heap_bytes();
                self.env.mem.force_grow(g.loaded_bytes);
                self.note_table(&mt);
                g.loaded = Some(mt);
                g.chunk = 0;
                lap(&mut clock, &mut self.prof.build_ns);
            }
            if g.chunk >= g.probe_parts[g.part].chunk_count() {
                g.loaded = None;
                self.env.mem.shrink(g.loaded_bytes);
                g.loaded_bytes = 0;
                g.part += 1;
                continue;
            }
            let probe = read_batch(&g.probe_parts[g.part], g.chunk, self.env.waits.as_deref())?;
            g.chunk += 1;
            if probe.rows == 0 {
                continue;
            }
            let mt = g.loaded.as_ref().unwrap();
            if let Some(out) = self.emit_for_probe(probe, mt)? {
                return Ok(Some(out));
            }
        }
    }
}

impl Operator for HashJoin {
    fn schema(&self) -> &Schema {
        &self.out_schema
    }

    fn profile_extras(&self) -> Vec<(&'static str, u64)> {
        let mut ex = Vec::new();
        let mut peak = self.env.mem.peak();
        let mut spill_bytes = self.env.mem.spill_bytes();
        let mut spill_parts = 0u64;
        match &self.build {
            // Summed per plan node across workers: at dop=N with a shared
            // build, the profile shows builds=1, build_reused=N-1; the build
            // tracker's numbers are reported only by the executing worker.
            Some(b) if self.build_executed => {
                ex.push(("builds", 1));
                ex.push(("build_rows", b.rows));
                peak += b.mem.peak();
                spill_bytes += b.mem.spill_bytes();
                if let BuildRepr::Spilled(files) = &b.repr {
                    spill_parts = files.iter().filter(|f| !f.is_empty()).count() as u64;
                }
            }
            Some(_) => ex.push(("build_reused", 1)),
            None => {}
        }
        ex.push(("peak_bytes", peak));
        if spill_bytes > 0 {
            ex.push(("spill_parts", spill_parts));
            ex.push(("spill_bytes", spill_bytes));
        }
        let p = &self.prof;
        if p.ht_slots > 0 {
            ex.push(("ht_slots", p.ht_slots));
        }
        if self.env.waits.is_some() {
            ex.push(("ht_max_chain", p.ht_max_chain));
            ex.push(("build_ns", p.build_ns));
            ex.push(("probe_ns", p.probe_ns));
            ex.push(("emit_ns", p.emit_ns));
        }
        ex
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if self.build.is_none() {
            self.build_side()?;
        }
        let build = self.build.clone().unwrap();
        match &build.repr {
            BuildRepr::Mem(mt) => loop {
                let Some(probe) = self.left.next()? else {
                    return Ok(None);
                };
                if probe.is_empty() {
                    continue;
                }
                if let Some(out) = self.emit_for_probe(probe, mt)? {
                    return Ok(Some(out));
                }
            },
            BuildRepr::Spilled(files) => {
                if self.grace.is_none() {
                    self.grace = Some(self.init_grace()?);
                }
                let mut g = self.grace.take().unwrap();
                let out = self.grace_step(&mut g, files);
                self.grace = Some(g);
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{collect_rows, BatchSource};
    use vw_common::{DataType, Field, Value};
    use vw_plan::BinOp;

    fn orders() -> BoxedOperator {
        // (orderkey, custkey)
        let schema = Schema::new(vec![
            Field::new("orderkey", DataType::I64),
            Field::nullable("custkey", DataType::I64),
        ]);
        let rows = vec![
            vec![Value::I64(1), Value::I64(10)],
            vec![Value::I64(2), Value::I64(20)],
            vec![Value::I64(3), Value::I64(10)],
            vec![Value::I64(4), Value::Null],
            vec![Value::I64(5), Value::I64(99)],
        ];
        Box::new(BatchSource::from_rows(schema, &rows, 2).unwrap())
    }

    fn customers() -> BoxedOperator {
        // (custkey, name)
        let schema = Schema::new(vec![
            Field::new("custkey", DataType::I64),
            Field::new("name", DataType::Str),
        ]);
        let rows = vec![
            vec![Value::I64(10), Value::Str("alice".into())],
            vec![Value::I64(20), Value::Str("bob".into())],
            vec![Value::I64(30), Value::Str("carol".into())],
        ];
        Box::new(BatchSource::from_rows(schema, &rows, 10).unwrap())
    }

    fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        rows.sort_by(|a, b| {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| *o != std::cmp::Ordering::Equal)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        rows
    }

    #[test]
    fn inner_join_matches() {
        let mut j = HashJoin::new(
            orders(),
            customers(),
            JoinKind::Inner,
            vec![(1, 0)],
            None,
            false,
        )
        .unwrap();
        assert_eq!(j.schema().len(), 4);
        let rows = sorted(collect_rows(&mut j).unwrap());
        assert_eq!(rows.len(), 3); // orders 1, 2, 3 match
        assert_eq!(
            rows[0],
            vec![
                Value::I64(1),
                Value::I64(10),
                Value::I64(10),
                Value::Str("alice".into())
            ]
        );
    }

    #[test]
    fn left_join_pads_unmatched() {
        let mut j = HashJoin::new(
            orders(),
            customers(),
            JoinKind::Left,
            vec![(1, 0)],
            None,
            false,
        )
        .unwrap();
        let rows = sorted(collect_rows(&mut j).unwrap());
        assert_eq!(rows.len(), 5);
        // order 4 (null key) and order 5 (no match) padded with NULLs
        let padded: Vec<&Vec<Value>> = rows.iter().filter(|r| r[2] == Value::Null).collect();
        assert_eq!(padded.len(), 2);
        assert!(padded.iter().all(|r| r[3] == Value::Null));
        // right schema nullable in output
        assert!(j.schema().field(3).nullable);
    }

    #[test]
    fn semi_and_anti() {
        let mut s = HashJoin::new(
            orders(),
            customers(),
            JoinKind::Semi,
            vec![(1, 0)],
            None,
            false,
        )
        .unwrap();
        assert_eq!(s.schema().len(), 2);
        let rows = sorted(collect_rows(&mut s).unwrap());
        assert_eq!(
            rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
            vec![Value::I64(1), Value::I64(2), Value::I64(3)]
        );
        let mut a = HashJoin::new(
            orders(),
            customers(),
            JoinKind::Anti,
            vec![(1, 0)],
            None,
            false,
        )
        .unwrap();
        let rows = sorted(collect_rows(&mut a).unwrap());
        // NULL-key row and unmatched row both survive ANTI
        assert_eq!(
            rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
            vec![Value::I64(4), Value::I64(5)]
        );
    }

    #[test]
    fn duplicate_build_keys_fan_out() {
        let schema = Schema::new(vec![Field::new("k", DataType::I64)]);
        let left =
            Box::new(BatchSource::from_rows(schema.clone(), &[vec![Value::I64(1)]], 8).unwrap());
        let right_schema = Schema::new(vec![
            Field::new("k", DataType::I64),
            Field::new("n", DataType::I64),
        ]);
        let right = Box::new(
            BatchSource::from_rows(
                right_schema,
                &[
                    vec![Value::I64(1), Value::I64(100)],
                    vec![Value::I64(1), Value::I64(200)],
                ],
                8,
            )
            .unwrap(),
        );
        let mut j = HashJoin::new(left, right, JoinKind::Inner, vec![(0, 0)], None, false).unwrap();
        let rows = collect_rows(&mut j).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn residual_filters_pairs() {
        // join orders-customers but require orderkey > 1 via residual
        let residual = Expr::binary(BinOp::Gt, Expr::col(0), Expr::lit(Value::I64(1)));
        let mut j = HashJoin::new(
            orders(),
            customers(),
            JoinKind::Inner,
            vec![(1, 0)],
            Some(residual),
            false,
        )
        .unwrap();
        let rows = sorted(collect_rows(&mut j).unwrap());
        assert_eq!(rows.len(), 2); // orders 2 and 3
        assert_eq!(rows[0][0], Value::I64(2));
    }

    #[test]
    fn residual_in_semi_join() {
        let residual = Expr::binary(BinOp::Gt, Expr::col(0), Expr::lit(Value::I64(1)));
        let mut j = HashJoin::new(
            orders(),
            customers(),
            JoinKind::Semi,
            vec![(1, 0)],
            Some(residual),
            false,
        )
        .unwrap();
        let rows = sorted(collect_rows(&mut j).unwrap());
        assert_eq!(
            rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
            vec![Value::I64(2), Value::I64(3)]
        );
    }

    #[test]
    fn multi_key_join() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::I64),
            Field::new("b", DataType::Str),
        ]);
        let rows_l = vec![
            vec![Value::I64(1), Value::Str("x".into())],
            vec![Value::I64(1), Value::Str("y".into())],
        ];
        let rows_r = vec![
            vec![Value::I64(1), Value::Str("y".into())],
            vec![Value::I64(2), Value::Str("y".into())],
        ];
        let left = Box::new(BatchSource::from_rows(schema.clone(), &rows_l, 8).unwrap());
        let right = Box::new(BatchSource::from_rows(schema, &rows_r, 8).unwrap());
        let mut j = HashJoin::new(
            left,
            right,
            JoinKind::Inner,
            vec![(0, 0), (1, 1)],
            None,
            false,
        )
        .unwrap();
        let rows = collect_rows(&mut j).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][1], Value::Str("y".into()));
    }

    #[test]
    fn empty_build_side() {
        let schema = Schema::new(vec![Field::new("k", DataType::I64)]);
        let right = Box::new(BatchSource::from_rows(schema.clone(), &[], 8).unwrap());
        let left = Box::new(BatchSource::from_rows(schema, &[vec![Value::I64(1)]], 8).unwrap());
        let mut inner =
            HashJoin::new(left, right, JoinKind::Inner, vec![(0, 0)], None, false).unwrap();
        assert!(collect_rows(&mut inner).unwrap().is_empty());
    }

    // --- grace spill -----------------------------------------------------

    /// Probe side: 300 rows, keys 0..150 twice (so every key matches twice
    /// when present on the build side), a NULL key row, and keys ≥ 1000 that
    /// never match. ~One third of build keys have duplicates.
    fn spill_inputs() -> (BoxedOperator, BoxedOperator) {
        let lschema = Schema::new(vec![
            Field::new("lid", DataType::I64),
            Field::nullable("lkey", DataType::I64),
        ]);
        let rschema = Schema::new(vec![
            Field::nullable("rkey", DataType::I64),
            Field::new("tag", DataType::Str),
        ]);
        let mut lrows = Vec::new();
        for i in 0..300i64 {
            let key = match i % 30 {
                0 => Value::Null,
                1 => Value::I64(1000 + i), // unmatched
                _ => Value::I64(i % 150),
            };
            lrows.push(vec![Value::I64(i), key]);
        }
        let mut rrows = Vec::new();
        for k in 0..200i64 {
            let key = if k % 40 == 7 {
                Value::Null
            } else {
                Value::I64(k)
            };
            rrows.push(vec![key, Value::Str(format!("tag-{k:04}-padding-padding"))]);
            if k % 3 == 0 {
                rrows.push(vec![
                    Value::I64(k),
                    Value::Str(format!("dup-{k:04}-padding-padding")),
                ]);
            }
        }
        let left = Box::new(BatchSource::from_rows(lschema, &lrows, 32).unwrap());
        let right = Box::new(BatchSource::from_rows(rschema, &rrows, 32).unwrap());
        (left, right)
    }

    fn run_join(kind: JoinKind, residual: Option<Expr>, budget: Option<usize>) -> Vec<Vec<Value>> {
        let (left, right) = spill_inputs();
        let mut j = HashJoin::new(left, right, kind, vec![(1, 0)], residual, false).unwrap();
        if let Some(b) = budget {
            j.set_env(QueryEnv::bounded(b));
        }
        let rows = sorted(collect_rows(&mut j).unwrap());
        if budget.is_some() {
            assert!(
                j.build.as_ref().unwrap().spilled(),
                "tiny budget should force a grace build"
            );
        }
        rows
    }

    #[test]
    fn grace_join_matches_unbounded_all_kinds() {
        for kind in [
            JoinKind::Inner,
            JoinKind::Left,
            JoinKind::Semi,
            JoinKind::Anti,
        ] {
            let unbounded = run_join(kind, None, None);
            let spilled = run_join(kind, None, Some(2048));
            assert_eq!(spilled, unbounded, "kind {kind:?} diverged under spill");
            assert!(!unbounded.is_empty());
        }
    }

    #[test]
    fn grace_join_with_residual() {
        let residual = || Expr::binary(BinOp::Gt, Expr::col(0), Expr::lit(Value::I64(40)));
        let unbounded = run_join(JoinKind::Inner, Some(residual()), None);
        let spilled = run_join(JoinKind::Inner, Some(residual()), Some(2048));
        assert_eq!(spilled, unbounded);
        let semi_u = run_join(JoinKind::Semi, Some(residual()), None);
        let semi_s = run_join(JoinKind::Semi, Some(residual()), Some(2048));
        assert_eq!(semi_s, semi_u);
    }

    #[test]
    fn grace_join_reports_spill_in_profile() {
        let (left, right) = spill_inputs();
        let mut j = HashJoin::new(left, right, JoinKind::Inner, vec![(1, 0)], None, false).unwrap();
        j.set_env(QueryEnv::bounded(2048));
        let _ = collect_rows(&mut j).unwrap();
        let extras: std::collections::HashMap<_, _> = j.profile_extras().into_iter().collect();
        assert!(extras["spill_bytes"] > 0);
        assert!(extras["spill_parts"] > 0);
        assert!(extras["peak_bytes"] > 0);
    }
}
