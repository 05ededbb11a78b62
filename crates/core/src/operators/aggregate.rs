//! Vectorized hash aggregation, with the partial/final split used by the
//! Volcano parallelizer (see `vw_plan::rewrite::parallel`).
//!
//! A vector's group keys are mapped to a `gid` vector by the shared flat hash
//! table ([`GroupIndex`]: group ids dense in first-seen order, keys interned
//! in typed columns) and the `gid`s address the same [`Accumulators`] the
//! perfect-hash path addresses with composed key codes — one row of shared
//! COUNT/SUM/AVG lanes per group, updated in one pass per vector — so the
//! two paths differ only in how a slot is computed. Results leave as
//! columns gathered from the key and accumulator columns. A group key in
//! dictionary form is consumed as it comes on both paths: the perfect table
//! maps dictionary codes to its key codes through one small table per
//! dictionary, the generic table hashes each dictionary entry once and
//! stores a key's bytes when its group is born.
//! Aggregate arguments are evaluated vector-at-a-time with the batch's
//! selection vector, so the classic `Scan → Filter → Aggregate` pipeline
//! never materializes survivors; a column-reference argument is read from
//! the batch, not copied.
//!
//! Under a [`MemTracker`] budget the table **spills**: when reserving more
//! group state fails, every resident group is serialized as a
//! partial-aggregate row (group keys, per-aggregate partial value, hidden
//! AVG counts) into one of [`SPILL_PARTITIONS`] spill files chosen by the
//! top bits of the group hash, and the table restarts empty. A group's hash
//! is deterministic in its (normalized) key values, so every fragment of
//! one group lands in the same partition. At end of input the partitions
//! drain one at a time: fragments re-aggregate with the same combine
//! semantics the Final phase uses, then finish for the operator's own phase
//! — correct for Single, Partial and Final alike. The reservation is the
//! table's heap footprint by capacity (buckets, chains, hashes, interned
//! keys, accumulator columns), trued up after every vector.
//!
//! [`MemTracker`]: crate::mem::MemTracker

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

use crate::adapt::{AggFeedback, AggShapeKey};
use crate::batch::{Batch, ExecVector};
use crate::spill::{read_batch, write_batch, QueryEnv};
use crate::vexpr::ExprEvaluator;
use vw_common::{DataType, Field, Result, Schema, Value, VwError};
use vw_plan::plan::AggPhase;
use vw_plan::rewrite::parallel::partial_avg_count_columns;
use vw_plan::{AggExpr, AggFunc};
use vw_storage::SpillFile;

use super::hash_table::GroupIndex;
use super::perfect::{self, AccLayout, Accumulators, KeyCoderSpec, PerfectTable};
use super::{BoxedOperator, Operator};

/// Spill fan-out: partitions are selected by the top 3 bits of the group
/// hash, so re-spilled fragments of one group always meet again.
const SPILL_PARTITIONS: usize = 8;

/// The resident aggregation state of the generic path: the group directory
/// and one accumulator slot per group id.
struct GroupTable {
    groups: GroupIndex,
    accs: Accumulators,
    /// Scratch: the group id of each lane of the vector being absorbed.
    gids: Vec<u32>,
}

impl GroupTable {
    fn heap_bytes(&self) -> usize {
        self.groups.heap_bytes() + self.accs.heap_bytes() + self.gids.capacity() * 4
    }

    /// Fold rows `lanes` in: key columns to group ids, then one pass over
    /// the groups' accumulator rows. Returns `(lookup, update)` nanoseconds
    /// when `timed`.
    fn absorb(
        &mut self,
        keys: &[&ExecVector],
        lanes: &[u32],
        combine: bool,
        args: &[Option<&ExecVector>],
        hidden: &[Option<&ExecVector>],
        timed: bool,
    ) -> Result<(u64, u64)> {
        let t0 = timed.then(Instant::now);
        self.groups.find_or_insert(keys, lanes, &mut self.gids);
        if self.groups.len() > self.accs.len() {
            // In step with the bucket array: room until its next doubling.
            self.accs.resize(self.groups.table().capacity());
        }
        let t1 = timed.then(Instant::now);
        self.accs.fold(combine, &self.gids, lanes, args, hidden)?;
        Ok(match (t0, t1) {
            (Some(t0), Some(t1)) => ((t1 - t0).as_nanos() as u64, t1.elapsed().as_nanos() as u64),
            _ => (0, 0),
        })
    }

    /// Output rows of groups `ids` for `phase` (keys, finished aggregates,
    /// hidden AVG counts when emitting partials).
    fn batch(&self, ids: &[u32], phase: AggPhase) -> Batch {
        let keys = self.groups.keys().iter().map(|k| k.gather(ids));
        let mut out = Batch::new(keys.chain(self.accs.finish(ids, phase)).collect());
        out.rows = ids.len();
        out
    }
}

/// Hash aggregation operator.
pub struct HashAggregate {
    input: BoxedOperator,
    group_by: Vec<usize>,
    aggs: Vec<AggExpr>,
    arg_evals: Vec<Option<ExprEvaluator>>,
    /// The accumulator row both paths keep per group.
    layout: Arc<AccLayout>,
    phase: AggPhase,
    out_schema: Schema,
    in_schema: Schema,
    vector_size: usize,
    /// Columns in the (partial) input carrying hidden AVG counts:
    /// `(agg index, input column)`.
    hidden_in: Vec<(usize, usize)>,
    /// Indices (into `aggs`) of the AVG aggregates, in order.
    avg_idxs: Vec<usize>,
    /// The query's environment: table spills become trace events, and
    /// partial-aggregate spill I/O is blocked time.
    env: QueryEnv,
    /// Spill partitions, created on first pressure.
    partitions: Option<Vec<SpillFile>>,
    /// Partitions still to drain (popped from the back).
    drain: Vec<SpillFile>,
    done: bool,
    output: Vec<Batch>,
    /// Perfect-hash coder plan, when `enable_perfect` accepted the key set.
    perfect_specs: Option<Vec<KeyCoderSpec>>,
    /// The run completed entirely on the perfect-hash path.
    ran_perfect: bool,
    /// The perfect-hash path started but fell back to the generic table.
    perfect_fallback: bool,
    /// Cross-query aggregation-path feedback store and this aggregate's
    /// shape key, when the database attached one.
    feedback: Option<(Arc<AggFeedback>, AggShapeKey)>,
    /// Bytes reserved against the budget for the resident generic table.
    table_bytes: usize,
    /// `EXPLAIN ANALYZE` figures of the generic path.
    stats: TableStats,
}

/// Generic-path counters: groups emitted, the largest bucket array and the
/// bucket-array doublings over every table the run held (a spill restarts
/// the table); and (profiling on, both paths) time mapping keys to slots vs
/// updating accumulators, summed per vector.
#[derive(Default)]
struct TableStats {
    groups: u64,
    ht_slots: u64,
    ht_rehashes: u64,
    lookup_ns: u64,
    update_ns: u64,
}

impl HashAggregate {
    pub fn new(
        input: BoxedOperator,
        group_by: Vec<usize>,
        aggs: Vec<AggExpr>,
        phase: AggPhase,
        vector_size: usize,
        naive_nulls: bool,
    ) -> Result<HashAggregate> {
        let in_schema = input.schema().clone();
        let mut arg_evals = Vec::with_capacity(aggs.len());
        let mut arg_types = Vec::with_capacity(aggs.len());
        for a in &aggs {
            match &a.arg {
                Some(e) => {
                    let ev = ExprEvaluator::new(e.clone(), &in_schema, naive_nulls)?;
                    arg_types.push(Some(ev.output_type()));
                    arg_evals.push(Some(ev));
                }
                None => {
                    arg_evals.push(None);
                    arg_types.push(None);
                }
            }
        }
        // Partial rows come with NULLs whatever the input declared.
        let nullfree: Vec<bool> = aggs
            .iter()
            .map(|a| {
                phase != AggPhase::Final && a.arg.as_ref().is_some_and(|e| !e.nullable(&in_schema))
            })
            .collect();
        let layout = Arc::new(AccLayout::new(&aggs, &arg_types, &nullfree));
        let mut fields: Vec<Field> = group_by
            .iter()
            .map(|&g| in_schema.field(g).clone())
            .collect();
        for (a, ty) in aggs.iter().zip(&arg_types) {
            let out_ty = output_type(a.func, *ty, phase);
            fields.push(Field {
                name: a.name.clone(),
                ty: out_ty,
                nullable: true,
            });
        }
        if phase == AggPhase::Partial {
            for a in &aggs {
                if a.func == AggFunc::Avg {
                    fields.push(Field::new(format!("__{}_count", a.name), DataType::I64));
                }
            }
        }
        // For the Final phase, locate hidden count columns in the partial
        // input layout.
        let hidden_in = if phase == AggPhase::Final {
            partial_avg_count_columns(group_by.len(), &aggs)
        } else {
            Vec::new()
        };
        let avg_idxs: Vec<usize> = aggs
            .iter()
            .enumerate()
            .filter(|(_, a)| a.func == AggFunc::Avg)
            .map(|(i, _)| i)
            .collect();
        Ok(HashAggregate {
            input,
            group_by,
            aggs,
            arg_evals,
            layout,
            phase,
            out_schema: Schema::new(fields),
            in_schema,
            vector_size: vector_size.max(1),
            hidden_in,
            avg_idxs,
            env: QueryEnv::default(),
            partitions: None,
            drain: Vec::new(),
            done: false,
            output: Vec::new(),
            perfect_specs: None,
            ran_perfect: false,
            perfect_fallback: false,
            feedback: None,
            table_bytes: 0,
            stats: TableStats::default(),
        })
    }

    /// Run in the query's environment: its memory budget, its disk to
    /// spill to, its trace and the plan node's wait ledger.
    pub fn set_env(&mut self, env: QueryEnv) {
        self.env = env;
    }

    /// Allow the perfect-hash (direct-array) path when the group-key domain
    /// admits one. `hints[k]` is the folded MinMax range of group key `k`
    /// when it is a stored integer column with stats. Returns whether the
    /// path was armed; the run still falls back to the generic table if the
    /// observed data escapes the planned domain or the budget refuses the
    /// table.
    pub fn enable_perfect(&mut self, hints: &[Option<(i64, i64)>]) -> bool {
        let key_types: Vec<DataType> = self
            .group_by
            .iter()
            .map(|&g| self.in_schema.field(g).ty)
            .collect();
        match perfect::plan_specs(&key_types, hints) {
            Some(specs) => {
                self.perfect_specs = Some(specs);
                true
            }
            None => false,
        }
    }

    /// Report this aggregate's outcomes (path refusals/successes, observed
    /// group counts) into the cross-query feedback store under the given
    /// `(table, key columns)` shape key.
    pub fn set_agg_feedback(&mut self, fb: Arc<AggFeedback>, table: u64, keys: Vec<usize>) {
        self.feedback = Some((fb, (table, keys)));
    }

    fn feedback_refusal(&self) {
        if let Some((fb, (t, k))) = &self.feedback {
            fb.record_refusal(*t, k.clone());
        }
    }

    fn feedback_success(&self) {
        if let Some((fb, (t, k))) = &self.feedback {
            fb.record_success(*t, k.clone());
        }
    }

    fn feedback_groups(&self, groups: u64) {
        if let Some((fb, (t, k))) = &self.feedback {
            fb.record_groups(*t, k.clone(), groups);
        }
    }

    fn key_types(&self) -> Vec<DataType> {
        let types = self.group_by.iter();
        types.map(|&g| self.in_schema.field(g).ty).collect()
    }

    fn new_table(&self) -> GroupTable {
        GroupTable {
            groups: GroupIndex::new(&self.key_types()),
            accs: Accumulators::new(Arc::clone(&self.layout), 0),
            gids: Vec::new(),
        }
    }

    /// Fold rows `lanes` into `table`, then true the reservation up to the
    /// table's footprint. When the budget refuses the growth the whole table
    /// (this vector's groups included) is spilled — unless `force`: a
    /// draining partition is a minimal working unit and must stay resident.
    #[allow(clippy::too_many_arguments)]
    fn absorb(
        &mut self,
        table: &mut GroupTable,
        keys: &[&ExecVector],
        lanes: &[u32],
        combine: bool,
        args: &[Option<&ExecVector>],
        hidden: &[Option<&ExecVector>],
        force: bool,
    ) -> Result<()> {
        let timed = self.env.waits.is_some();
        let (lookup, update) = table.absorb(keys, lanes, combine, args, hidden, timed)?;
        self.stats.lookup_ns += lookup;
        self.stats.update_ns += update;
        let want = table.heap_bytes();
        if !self.env.mem.resize(&mut self.table_bytes, want, force) {
            self.spill_table(table)?;
        }
        Ok(())
    }

    fn run(&mut self) -> Result<()> {
        let mut table = self.new_table();
        let key_types = self.key_types();
        // `aggs[k]`'s hidden AVG count column in the (partial) input.
        let hidden_cols: Vec<Option<usize>> = (0..self.aggs.len())
            .map(|k| self.hidden_in.iter().find(|(ai, _)| *ai == k).map(|h| h.1))
            .collect();
        let combine = self.phase == AggPhase::Final;
        let mut identity: Vec<u32> = Vec::new();

        // Arm the direct-array table. A refused reservation means the
        // generic path from batch one.
        let mut pt: Option<PerfectTable> = self.perfect_specs.as_ref().and_then(|specs| {
            PerfectTable::try_new(specs, &key_types, &self.layout, &mut self.env.mem)
        });
        // A planned-but-refused table (budget said no) is a refusal the
        // feedback store should remember; never having planned one isn't.
        if pt.is_none() && self.perfect_specs.is_some() {
            self.feedback_refusal();
        }

        let timed = self.env.waits.is_some();
        while let Some(batch) = self.input.next()? {
            // Evaluate aggregate argument expressions with the selection; a
            // column reference is the batch's own vector.
            let vals: Vec<Option<Cow<ExecVector>>> = self
                .arg_evals
                .iter()
                .map(|ev| ev.as_ref().map(|e| e.eval_ref(&batch)).transpose())
                .collect::<Result<_>>()?;
            let args: Vec<Option<&ExecVector>> = vals.iter().map(|v| v.as_deref()).collect();
            if combine && args.iter().any(|a| a.is_none()) {
                return Err(VwError::Exec("final agg needs arg".into()));
            }
            if identity.len() < batch.rows {
                identity = (0..batch.rows as u32).collect();
            }

            let lanes = batch.sel.as_deref().unwrap_or(&identity[..batch.rows]);
            let keys: Vec<&ExecVector> = self.group_by.iter().map(|&g| &batch.columns[g]).collect();
            let hidden = hidden_refs(&hidden_cols, &batch);

            // Direct-array fast path: compose slots, accumulate, next batch.
            if let Some(t) = pt.as_mut() {
                if t.absorb(&keys, lanes, &args, self.phase, &hidden, timed)? {
                    continue;
                }
            }

            if let Some(t) = pt.take() {
                // Out-of-domain key: graceful fallback. Re-emit the resident
                // direct-array state as partial rows and merge them into the
                // generic table with combine semantics, then continue
                // generically.
                self.perfect_fallback = true;
                self.feedback_refusal();
                self.stats.lookup_ns += t.lookup_ns;
                self.stats.update_ns += t.update_ns;
                let partial = t.batch(&t.occupied_slots(), AggPhase::Partial);
                let reserved = t.reserved_bytes;
                drop(t);
                self.env.mem.shrink(reserved);
                self.merge_partial_batch(&mut table, &partial, false)?;
            }

            self.absorb(&mut table, &keys, lanes, combine, &args, &hidden, false)?;
        }

        // The whole input fit the direct-array domain: finish straight from
        // the flat accumulators (spilling can never have happened).
        if let Some(t) = pt.take() {
            self.ran_perfect = true;
            self.feedback_success();
            self.stats.lookup_ns += t.lookup_ns;
            self.stats.update_ns += t.update_ns;
            let slots = t.occupied_slots();
            let chunks = slots.chunks(self.vector_size);
            self.output = chunks.rev().map(|c| t.batch(c, self.phase)).collect();
            self.finish_scalar(slots.len())?;
            let reserved = t.reserved_bytes;
            drop(t);
            self.env.mem.shrink(reserved);
            return Ok(());
        }

        if self.partitions.is_some() {
            // Spilled at least once: flush the remainder and drain
            // partition-at-a-time from `next()`.
            if !table.groups.is_empty() {
                self.spill_table(&mut table)?;
            }
            let parts = self.partitions.take().unwrap();
            self.drain = parts.into_iter().filter(|f| !f.is_empty()).collect();
            self.drain.reverse(); // popped from the back in order
            return Ok(());
        }

        self.emit(&table);
        self.finish_scalar(table.groups.len())?;
        self.env.mem.shrink(std::mem::take(&mut self.table_bytes));
        Ok(())
    }

    /// Record how many groups an in-memory run produced and, for a scalar
    /// aggregate over no input, queue its one row: counts 0, every other
    /// aggregate NULL (and, emitting partials, hidden AVG counts 0). Slots
    /// exist only once a row arrives, so no accumulator holds this row.
    fn finish_scalar(&mut self, groups: usize) -> Result<()> {
        if groups == 0 && self.group_by.is_empty() {
            let count = |a: &AggExpr| matches!(a.func, AggFunc::Count | AggFunc::CountStar);
            let aggs = self.aggs.iter().map(|a| match count(a) {
                true => Value::I64(0),
                false => Value::Null,
            });
            let hidden = match self.phase {
                AggPhase::Partial => self.avg_idxs.len(),
                _ => 0,
            };
            let row: Vec<Value> = aggs
                .chain(std::iter::repeat_n(Value::I64(0), hidden))
                .collect();
            self.output
                .push(Batch::from_rows(&self.out_schema, &[row])?);
            self.stats.groups += 1;
        }
        self.feedback_groups(groups.max(usize::from(self.group_by.is_empty())) as u64);
        Ok(())
    }

    /// Queue every group of `table` as output batches of the operator's own
    /// phase, in group order, chunked at the vector size (`output` pops from
    /// the back).
    fn emit(&mut self, table: &GroupTable) {
        self.note_table(table);
        self.stats.groups += table.groups.len() as u64;
        let ids: Vec<u32> = (0..table.groups.len() as u32).collect();
        let chunks = ids.chunks(self.vector_size).rev();
        self.output
            .extend(chunks.map(|c| table.batch(c, self.phase)));
    }

    fn note_table(&mut self, table: &GroupTable) {
        let ht = table.groups.table();
        self.stats.ht_slots = self.stats.ht_slots.max(ht.slots() as u64);
        self.stats.ht_rehashes += ht.rehashes();
    }

    /// Write every resident group as a partial row into its hash partition,
    /// then restart the table empty and release its reservation.
    fn spill_table(&mut self, table: &mut GroupTable) -> Result<()> {
        let disk = self.env.spill_disk();
        let parts = self.partitions.get_or_insert_with(|| {
            let files = (0..SPILL_PARTITIONS).map(|_| SpillFile::new(disk.clone()));
            files.collect()
        });
        let mut part_ids: Vec<Vec<u32>> = vec![Vec::new(); SPILL_PARTITIONS];
        for (g, h) in table.groups.table().hashes().iter().enumerate() {
            part_ids[(h >> 61) as usize].push(g as u32);
        }
        let span = self.env.trace.as_ref().map(|t| t.start());
        let mut spilled = 0u64;
        for (p, ids) in part_ids
            .iter()
            .enumerate()
            .filter(|(_, ids)| !ids.is_empty())
        {
            let b = table.batch(ids, AggPhase::Partial);
            let bytes = write_batch(&mut parts[p], &b, self.env.waits.as_deref())?;
            self.env.mem.note_spill(bytes);
            spilled += bytes;
        }
        if let (Some(t), Some(start)) = (&self.env.trace, span) {
            t.span_arg("spill write", "spill", start, Some(("bytes", spilled)));
        }
        self.note_table(table);
        *table = self.new_table();
        self.env.mem.shrink(std::mem::take(&mut self.table_bytes));
        Ok(())
    }

    /// Merge one batch of partial-aggregate rows (the spill layout: keys,
    /// partial values, hidden AVG counts — whatever `phase` is) into `table` with
    /// combine semantics — exactly like the Final phase merges worker
    /// partials. `force` as in [`Self::absorb`].
    fn merge_partial_batch(
        &mut self,
        table: &mut GroupTable,
        batch: &Batch,
        force: bool,
    ) -> Result<()> {
        let (width, naggs) = (self.group_by.len(), self.aggs.len());
        let cols = &batch.columns;
        let keys: Vec<&ExecVector> = cols[..width].iter().collect();
        let args: Vec<Option<&ExecVector>> = cols[width..width + naggs].iter().map(Some).collect();
        // Hidden-count column per aggregate in the spill layout.
        let hidden: Vec<Option<&ExecVector>> = (0..naggs)
            .map(|k| self.avg_idxs.iter().position(|&a| a == k))
            .map(|pos| pos.map(|pos| &cols[width + naggs + pos]))
            .collect();
        let lanes: Vec<u32> = (0..batch.rows as u32).collect();
        self.absorb(table, &keys, &lanes, true, &args, &hidden, force)
    }

    /// Re-aggregate one spilled partition and queue its output batches.
    /// Only this partition is resident (the drain's minimal working unit).
    fn drain_partition(&mut self, file: SpillFile) -> Result<()> {
        let mut table = self.new_table();
        for c in 0..file.chunk_count() {
            let batch = read_batch(&file, c, self.env.waits.as_deref())?;
            self.merge_partial_batch(&mut table, &batch, true)?;
        }
        self.emit(&table);
        self.env.mem.shrink(std::mem::take(&mut self.table_bytes));
        Ok(())
    }
}

/// The hidden AVG count column of each aggregate in `batch` (`cols[k]` is its
/// position for aggregate `k`, if it has one).
fn hidden_refs<'a>(cols: &[Option<usize>], batch: &'a Batch) -> Vec<Option<&'a ExecVector>> {
    cols.iter().map(|c| c.map(|c| &batch.columns[c])).collect()
}

fn output_type(func: AggFunc, arg_ty: Option<DataType>, _phase: AggPhase) -> DataType {
    match func {
        AggFunc::CountStar | AggFunc::Count => DataType::I64,
        AggFunc::Avg => DataType::F64,
        AggFunc::Sum => match arg_ty {
            Some(DataType::F64) => DataType::F64,
            _ => DataType::I64,
        },
        AggFunc::Min | AggFunc::Max => arg_ty.unwrap_or(DataType::I64),
    }
}

impl Operator for HashAggregate {
    fn schema(&self) -> &Schema {
        &self.out_schema
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if !self.done {
            self.run()?;
            self.done = true;
        }
        loop {
            if let Some(b) = self.output.pop() {
                return Ok(Some(b));
            }
            let Some(file) = self.drain.pop() else {
                return Ok(None);
            };
            self.drain_partition(file)?;
        }
    }

    fn profile_extras(&self) -> Vec<(&'static str, u64)> {
        let mut ex = vec![("peak_bytes", self.env.mem.peak())];
        if self.done {
            if self.ran_perfect {
                ex.push(("agg_path_perfect", 1));
            } else {
                ex.push(("agg_path_generic", 1));
            }
            if self.perfect_fallback {
                ex.push(("agg_fallback", 1));
            }
            ex.push(("agg_accs", self.layout.width() as u64));
            let st = &self.stats;
            if !self.ran_perfect {
                ex.push(("groups", st.groups));
                ex.push(("ht_slots", st.ht_slots));
                ex.push(("ht_rehashes", st.ht_rehashes));
            }
            if self.env.waits.is_some() {
                ex.push(("lookup_ns", st.lookup_ns));
                ex.push(("update_ns", st.update_ns));
            }
        }
        if self.env.mem.spill_events() > 0 {
            ex.push(("spill_parts", self.env.mem.spill_events()));
            ex.push(("spill_bytes", self.env.mem.spill_bytes()));
        }
        ex
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{collect_rows, BatchSource};
    use vw_common::Value;
    use vw_plan::Expr;

    fn source(rows: Vec<Vec<Value>>) -> BoxedOperator {
        let schema = Schema::new(vec![
            Field::new("grp", DataType::Str),
            Field::nullable("x", DataType::I64),
            Field::new("f", DataType::F64),
        ]);
        Box::new(BatchSource::from_rows(schema, &rows, 3).unwrap())
    }

    fn rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::Str("a".into()), Value::I64(1), Value::F64(0.5)],
            vec![Value::Str("b".into()), Value::I64(2), Value::F64(1.0)],
            vec![Value::Str("a".into()), Value::I64(3), Value::F64(1.5)],
            vec![Value::Str("a".into()), Value::Null, Value::F64(2.0)],
            vec![Value::Str("b".into()), Value::I64(4), Value::F64(2.5)],
        ]
    }

    fn agg(func: AggFunc, arg: Option<Expr>, name: &str) -> AggExpr {
        AggExpr {
            func,
            arg,
            name: name.into(),
        }
    }

    fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
        rows
    }

    #[test]
    fn grouped_aggregates() {
        let mut op = HashAggregate::new(
            source(rows()),
            vec![0],
            vec![
                agg(AggFunc::CountStar, None, "n"),
                agg(AggFunc::Count, Some(Expr::col(1)), "nx"),
                agg(AggFunc::Sum, Some(Expr::col(1)), "sx"),
                agg(AggFunc::Avg, Some(Expr::col(1)), "ax"),
                agg(AggFunc::Min, Some(Expr::col(2)), "mn"),
                agg(AggFunc::Max, Some(Expr::col(2)), "mx"),
            ],
            AggPhase::Single,
            1024,
            false,
        )
        .unwrap();
        let out = sorted(collect_rows(&mut op).unwrap());
        assert_eq!(out.len(), 2);
        assert_eq!(
            out[0],
            vec![
                Value::Str("a".into()),
                Value::I64(3),
                Value::I64(2),
                Value::I64(4),
                Value::F64(2.0),
                Value::F64(0.5),
                Value::F64(2.0),
            ]
        );
        assert_eq!(
            out[1],
            vec![
                Value::Str("b".into()),
                Value::I64(2),
                Value::I64(2),
                Value::I64(6),
                Value::F64(3.0),
                Value::F64(1.0),
                Value::F64(2.5),
            ]
        );
    }

    #[test]
    fn f64_group_keys_fold_signed_zero_and_nan() {
        // Group by the f64 column: 0.0 and -0.0 are SQL-equal and must form
        // one group; the two distinct NaN payloads must form one group too.
        let payload_nan = f64::from_bits(0x7ff8_0000_0000_0001);
        let rows = vec![
            vec![Value::Str("a".into()), Value::I64(1), Value::F64(0.0)],
            vec![Value::Str("a".into()), Value::I64(2), Value::F64(-0.0)],
            vec![Value::Str("a".into()), Value::I64(3), Value::F64(f64::NAN)],
            vec![
                Value::Str("a".into()),
                Value::I64(4),
                Value::F64(payload_nan),
            ],
            vec![Value::Str("a".into()), Value::I64(5), Value::F64(1.0)],
        ];
        let mut op = HashAggregate::new(
            source(rows),
            vec![2],
            vec![agg(AggFunc::CountStar, None, "n")],
            AggPhase::Single,
            1024,
            false,
        )
        .unwrap();
        let mut out = collect_rows(&mut op).unwrap();
        out.sort_by(|a, b| a[1].total_cmp(&b[1]));
        assert_eq!(out.len(), 3, "expected 3 groups, got {:?}", out);
        // counts sorted: 1 (1.0), 2 (zero group), 2 (NaN group)
        let counts: Vec<Value> = out.iter().map(|r| r[1].clone()).collect();
        assert_eq!(counts, vec![Value::I64(1), Value::I64(2), Value::I64(2)]);
        // The zero group's emitted key is canonical +0.0.
        let zero = out
            .iter()
            .find(|r| matches!(r[0], Value::F64(f) if f == 0.0))
            .expect("zero group present");
        assert_eq!(zero[0], Value::F64(0.0), "key must be normalized to +0.0");
        assert_eq!(zero[1], Value::I64(2));
    }

    #[test]
    fn scalar_aggregate_empty_input() {
        let mut op = HashAggregate::new(
            source(vec![]),
            vec![],
            vec![
                agg(AggFunc::CountStar, None, "n"),
                agg(AggFunc::Sum, Some(Expr::col(1)), "s"),
            ],
            AggPhase::Single,
            1024,
            false,
        )
        .unwrap();
        let out = collect_rows(&mut op).unwrap();
        assert_eq!(out, vec![vec![Value::I64(0), Value::Null]]);
    }

    #[test]
    fn grouped_aggregate_empty_input_no_rows() {
        let mut op = HashAggregate::new(
            source(vec![]),
            vec![0],
            vec![agg(AggFunc::CountStar, None, "n")],
            AggPhase::Single,
            1024,
            false,
        )
        .unwrap();
        assert!(collect_rows(&mut op).unwrap().is_empty());
    }

    #[test]
    fn computed_argument_expressions() {
        // SUM(x * 2)
        let mut op = HashAggregate::new(
            source(rows()),
            vec![],
            vec![agg(
                AggFunc::Sum,
                Some(Expr::binary(
                    vw_plan::BinOp::Mul,
                    Expr::col(1),
                    Expr::lit(Value::I64(2)),
                )),
                "s2",
            )],
            AggPhase::Single,
            1024,
            false,
        )
        .unwrap();
        let out = collect_rows(&mut op).unwrap();
        assert_eq!(out, vec![vec![Value::I64(20)]]);
    }

    #[test]
    fn partial_final_roundtrip_equals_single() {
        let aggs = vec![
            agg(AggFunc::CountStar, None, "n"),
            agg(AggFunc::Sum, Some(Expr::col(1)), "s"),
            agg(AggFunc::Avg, Some(Expr::col(1)), "a"),
            agg(AggFunc::Min, Some(Expr::col(2)), "mn"),
        ];
        // Single-phase reference.
        let mut single = HashAggregate::new(
            source(rows()),
            vec![0],
            aggs.clone(),
            AggPhase::Single,
            1024,
            false,
        )
        .unwrap();
        let want = sorted(collect_rows(&mut single).unwrap());

        // Partial over two halves, then Final over the union.
        let all = rows();
        let (h1, h2) = all.split_at(2);
        let mut parts: Vec<Vec<Value>> = Vec::new();
        let mut partial_schema = None;
        for half in [h1.to_vec(), h2.to_vec()] {
            let mut p = HashAggregate::new(
                source(half),
                vec![0],
                aggs.clone(),
                AggPhase::Partial,
                1024,
                false,
            )
            .unwrap();
            partial_schema = Some(p.schema().clone());
            parts.extend(collect_rows(&mut p).unwrap());
        }
        let pschema = partial_schema.unwrap();
        assert_eq!(pschema.len(), 1 + 4 + 1); // group + aggs + hidden avg count
        let final_aggs: Vec<AggExpr> = aggs
            .iter()
            .enumerate()
            .map(|(i, a)| AggExpr {
                func: a.func,
                arg: Some(Expr::col(1 + i)),
                name: a.name.clone(),
            })
            .collect();
        let src = Box::new(BatchSource::from_rows(pschema, &parts, 2).unwrap());
        let mut fin =
            HashAggregate::new(src, vec![0], final_aggs, AggPhase::Final, 1024, false).unwrap();
        let got = sorted(collect_rows(&mut fin).unwrap());
        assert_eq!(got, want);
    }

    #[test]
    fn null_group_keys_form_one_group() {
        let schema = Schema::new(vec![
            Field::nullable("g", DataType::I64),
            Field::new("x", DataType::I64),
        ]);
        let rows = vec![
            vec![Value::Null, Value::I64(1)],
            vec![Value::I64(5), Value::I64(2)],
            vec![Value::Null, Value::I64(3)],
        ];
        let src = Box::new(BatchSource::from_rows(schema, &rows, 2).unwrap());
        let mut op = HashAggregate::new(
            src,
            vec![0],
            vec![agg(AggFunc::Sum, Some(Expr::col(1)), "s")],
            AggPhase::Single,
            1024,
            false,
        )
        .unwrap();
        let mut out = collect_rows(&mut op).unwrap();
        out.sort_by(|a, b| a[0].total_cmp(&b[0]));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], vec![Value::Null, Value::I64(4)]);
        assert_eq!(out[1], vec![Value::I64(5), Value::I64(2)]);
    }

    #[test]
    fn respects_selection_from_filter() {
        use crate::operators::VecFilter;
        let f = VecFilter::new(
            source(rows()),
            Expr::binary(vw_plan::BinOp::Gt, Expr::col(2), Expr::lit(Value::F64(0.9))),
            false,
        )
        .unwrap();
        let mut op = HashAggregate::new(
            Box::new(f),
            vec![],
            vec![agg(AggFunc::CountStar, None, "n")],
            AggPhase::Single,
            1024,
            false,
        )
        .unwrap();
        let out = collect_rows(&mut op).unwrap();
        assert_eq!(out, vec![vec![Value::I64(4)]]);
    }

    /// Spilling aggregation under a tiny budget produces exactly the same
    /// groups as the unbounded run, for every phase, AVG and NULLs included.
    #[test]
    fn spilled_aggregate_matches_unbounded_all_phases() {
        let schema = Schema::new(vec![
            Field::nullable("g", DataType::Str),
            Field::nullable("x", DataType::I64),
            Field::new("f", DataType::F64),
        ]);
        let data: Vec<Vec<Value>> = (0..800)
            .map(|i| {
                let g = if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Str(format!("g{}", i % 37))
                };
                let x = if i % 5 == 0 {
                    Value::Null
                } else {
                    Value::I64(i as i64)
                };
                vec![g, x, Value::F64((i % 13) as f64 * 0.25)]
            })
            .collect();
        let aggs = vec![
            agg(AggFunc::CountStar, None, "n"),
            agg(AggFunc::Count, Some(Expr::col(1)), "nx"),
            agg(AggFunc::Sum, Some(Expr::col(1)), "sx"),
            agg(AggFunc::Avg, Some(Expr::col(2)), "af"),
            agg(AggFunc::Min, Some(Expr::col(2)), "mn"),
            agg(AggFunc::Max, Some(Expr::col(1)), "mx"),
        ];
        for phase in [AggPhase::Single, AggPhase::Partial] {
            let src = Box::new(BatchSource::from_rows(schema.clone(), &data, 64).unwrap());
            let mut unbounded =
                HashAggregate::new(src, vec![0], aggs.clone(), phase, 32, false).unwrap();
            let want = sorted(collect_rows(&mut unbounded).unwrap());

            let src = Box::new(BatchSource::from_rows(schema.clone(), &data, 64).unwrap());
            let mut tiny =
                HashAggregate::new(src, vec![0], aggs.clone(), phase, 32, false).unwrap();
            tiny.set_env(QueryEnv::bounded(2048));
            let got = sorted(collect_rows(&mut tiny).unwrap());
            assert_eq!(got, want, "phase {:?}", phase);
            let extras: std::collections::BTreeMap<_, _> =
                tiny.profile_extras().into_iter().collect();
            assert!(extras["spill_parts"] > 0, "tiny budget must spill");
            assert!(extras["spill_bytes"] > 0);
        }
    }

    /// The Final phase also spills correctly: feed partials in, compare the
    /// finished output against the in-memory Final run.
    #[test]
    fn spilled_final_phase_matches() {
        let aggs = vec![
            agg(AggFunc::CountStar, None, "n"),
            agg(AggFunc::Avg, Some(Expr::col(1)), "a"),
        ];
        // Produce partial rows for many groups.
        let schema = Schema::new(vec![
            Field::new("g", DataType::I64),
            Field::nullable("x", DataType::I64),
        ]);
        let data: Vec<Vec<Value>> = (0..600)
            .map(|i| vec![Value::I64((i % 97) as i64), Value::I64(i as i64)])
            .collect();
        let src = Box::new(BatchSource::from_rows(schema, &data, 50).unwrap());
        let mut partial =
            HashAggregate::new(src, vec![0], aggs.clone(), AggPhase::Partial, 1024, false).unwrap();
        let pschema = partial.schema().clone();
        let partials = collect_rows(&mut partial).unwrap();
        let final_aggs: Vec<AggExpr> = aggs
            .iter()
            .enumerate()
            .map(|(i, a)| AggExpr {
                func: a.func,
                arg: Some(Expr::col(1 + i)),
                name: a.name.clone(),
            })
            .collect();

        let src = Box::new(BatchSource::from_rows(pschema.clone(), &partials, 64).unwrap());
        let mut unbounded =
            HashAggregate::new(src, vec![0], final_aggs.clone(), AggPhase::Final, 32, false)
                .unwrap();
        let want = sorted(collect_rows(&mut unbounded).unwrap());

        let src = Box::new(BatchSource::from_rows(pschema, &partials, 64).unwrap());
        let mut tiny =
            HashAggregate::new(src, vec![0], final_aggs, AggPhase::Final, 32, false).unwrap();
        tiny.set_env(QueryEnv::bounded(1024));
        let got = sorted(collect_rows(&mut tiny).unwrap());
        assert_eq!(got, want);
    }

    #[test]
    fn many_groups_chunk_output() {
        let schema = Schema::new(vec![Field::new("g", DataType::I64)]);
        let rows: Vec<Vec<Value>> = (0..100).map(|i| vec![Value::I64(i)]).collect();
        let src = Box::new(BatchSource::from_rows(schema, &rows, 7).unwrap());
        let mut op = HashAggregate::new(
            src,
            vec![0],
            vec![agg(AggFunc::CountStar, None, "n")],
            AggPhase::Single,
            16,
            false,
        )
        .unwrap();
        let mut batches = 0;
        let mut total = 0;
        while let Some(b) = op.next().unwrap() {
            batches += 1;
            total += b.len();
            assert!(b.len() <= 16);
        }
        assert_eq!(total, 100);
        assert!(batches >= 7);
    }
}
