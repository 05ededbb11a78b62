//! The ladder: one number per layer, measured on its own.
//!
//! Scan ladder: codec decode, block-cursor predicate, decode cache, `VecScan`
//! through scan-only plans, then whole-round effects (scale, profiling,
//! parallelism). Operator ladder: the public join, aggregate and sort
//! operators over in-memory batches. Write ladder: DML statements, commit,
//! WAL, PDT and checkpoint with nothing else running. Every rung runs in
//! every traced run, on the workload's loaded database, and each is a span.

use crate::data::{self, Facts, ScratchDir};
use crate::mixed;
use crate::stats::{geomean, median};
use crate::trace::Tracer;
use crate::verify;
use crate::workloads::{JOIN_AGG, NEW_ORDER_BASE, SCAN};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vw_bufman::DecodeCache;
use vw_common::rng::Xoshiro256;
use vw_common::{BlockId, DataType, Field, Result, Schema, TableId, Value, VwError};
use vw_core::batch::{Batch, ExecVector};
use vw_core::operators::{
    collect_rows, BatchSource, BoxedOperator, HashAggregate, HashJoin, TopN, VecSort,
};
use vw_core::{compile_plan, Database, Operator, Session};
use vw_plan::plan::AggPhase;
use vw_plan::{AggExpr, AggFunc, Expr, JoinKind, LogicalPlan, SortKey};
use vw_sql::CatalogView;
use vw_storage::compress::compress_with;
use vw_storage::{
    compress_data, decompress_data, ColumnData, CompressionScheme, Pred, PredOp, TableStorage,
};

const VECTOR: usize = 1024;

/// TPC-H Q19 as SQL text, for the `findings` note only.
const Q19_SQL: &str = "SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue \
    FROM lineitem, part WHERE p_partkey = l_partkey \
    AND l_shipmode IN ('AIR', 'REG AIR') AND l_shipinstruct = 'DELIVER IN PERSON' \
    AND ((p_brand = 'Brand#12' AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG') \
    AND l_quantity BETWEEN 1 AND 11 AND p_size BETWEEN 1 AND 5) \
    OR (p_brand = 'Brand#23' AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK') \
    AND l_quantity BETWEEN 10 AND 20 AND p_size BETWEEN 1 AND 10) \
    OR (p_brand = 'Brand#34' AND p_container IN ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG') \
    AND l_quantity BETWEEN 20 AND 30 AND p_size BETWEEN 1 AND 15))";
/// Time box of one micro rung.
const RUNG: Duration = Duration::from_millis(120);

pub struct Ladder<'a> {
    pub db: &'a Arc<Database>,
    pub session: &'a Session,
    pub tracer: &'a mut Tracer,
    pub metrics: Vec<(&'static str, f64)>,
    pub notes: Vec<String>,
}

/// Call `f` until `budget` has passed, `min` times or more; median seconds.
fn median_secs(min: usize, budget: Duration, mut f: impl FnMut() -> Result<()>) -> Result<f64> {
    let start = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < min || start.elapsed() < budget {
        let t = Instant::now();
        f()?;
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&secs))
}

fn ms_of(session: &Session, sql: &str) -> Result<f64> {
    let (result, ms) = crate::run::timed(session, sql);
    result.map(|_| ms)
}

/// Median latency of `sql` on each session, the sessions taking turns so
/// both see the same cache history.
fn interleaved_median_ms(sessions: [&Session; 2], sql: &str, reps: usize) -> Result<[f64; 2]> {
    let mut ms = [Vec::new(), Vec::new()];
    for _ in 0..reps {
        for (s, log) in sessions.iter().zip(ms.iter_mut()) {
            log.push(ms_of(s, sql)?);
        }
    }
    Ok([median(&ms[0]), median(&ms[1])])
}

/// Sum of the scan templates' latencies over one round, after one untimed
/// round to settle the caches.
fn scan_round_ms(session: &Session) -> Result<f64> {
    let mut total = 0.0;
    for timed in [false, true] {
        for t in SCAN {
            let ms = ms_of(session, t.sql)?;
            if timed {
                total += ms;
            }
        }
    }
    Ok(total)
}

fn table_id(db: &Database, name: &str) -> Result<TableId> {
    db.resolve_table(name)
        .map(|(id, _)| id)
        .ok_or_else(|| VwError::Catalog(format!("no table {}", name)))
}

fn pdt_entries(db: &Database, table: &str) -> Result<usize> {
    let ctx = db.exec_context(None)?;
    let pdt = &ctx.tables[&table_id(db, table)?].pdt;
    Ok(pdt.insert_count() + pdt.delete_count() + pdt.modify_count())
}

/// Compile and drain an optimized plan on the vectorized engine, counting
/// rows without turning them into values.
fn drain_rows(db: &Database, plan: &LogicalPlan) -> Result<usize> {
    let ctx = db.plan_exec_context(plan)?;
    drain(compile_plan(plan, &ctx)?)
}

fn drain(mut op: BoxedOperator) -> Result<usize> {
    let mut rows = 0;
    while let Some(batch) = op.next()? {
        rows += batch.len();
    }
    Ok(rows)
}

fn i64_batches(columns: &[&[i64]]) -> Vec<Batch> {
    let n = columns[0].len();
    (0..n)
        .step_by(VECTOR)
        .map(|from| {
            let to = (from + VECTOR).min(n);
            Batch::new(
                columns
                    .iter()
                    .map(|c| ExecVector::not_null(ColumnData::I64(c[from..to].to_vec())))
                    .collect(),
            )
        })
        .collect()
}

fn i64_schema(names: &[&str]) -> Schema {
    Schema::new(
        names
            .iter()
            .map(|n| Field::new(*n, DataType::I64))
            .collect(),
    )
}

impl Ladder<'_> {
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Run one rung inside its span.
    fn rung<T>(&mut self, span: &'static str, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let id = self.tracer.begin(span, None, 0);
        let out = f(self);
        self.tracer.end(id);
        out
    }

    /// Every rung, in ladder order. The write ladder changes the tables, so
    /// it comes last.
    pub fn climb(&mut self, scratch: &ScratchDir, facts: &Facts, seed: u64, sf: f64) -> Result<()> {
        self.rung("ladder.codec", |l| l.codecs())?;
        self.rung("ladder.cursor", |l| l.cursors())?;
        self.rung("ladder.decode_cache", |l| l.decode_cache())?;
        self.rung("ladder.vecscan", |l| l.vecscan(facts))?;
        self.rung("ladder.systab", |l| l.systab())?;
        self.rung("ladder.profile_overhead", |l| l.profile_overhead())?;
        self.rung("ladder.exchange", |l| l.exchange_and_spill())?;
        self.rung("ladder.findings", |l| l.findings())?;
        self.rung("ladder.scale", |l| l.scale(scratch, seed, sf))?;
        self.rung("ladder.operators", |l| l.operators(seed, sf))?;
        self.rung("ladder.write", |l| l.write(facts, seed))
    }

    fn with_lineitem<T>(&self, f: impl FnOnce(&TableStorage, &Schema) -> Result<T>) -> Result<T> {
        let ctx = self.db.exec_context(None)?;
        let provider = &ctx.tables[&table_id(self.db, "lineitem")?];
        let storage = provider.storage.read();
        let schema = storage.schema().clone();
        f(&storage, &schema)
    }

    /// `decompress_data` over the first row group of a real lineitem column,
    /// forced into each scheme; GB/s of decoded output.
    fn codecs(&mut self) -> Result<()> {
        use CompressionScheme::*;
        let rungs = [
            ("storage.codec.plain.decode_gbps", "l_partkey", Plain),
            ("storage.codec.pfor.decode_gbps", "l_partkey", Pfor),
            (
                "storage.codec.pfor_delta.decode_gbps",
                "l_orderkey",
                PforDelta,
            ),
            ("storage.codec.rle.decode_gbps", "l_orderkey", Rle),
            ("storage.codec.pdict.decode_gbps", "l_shipmode", Pdict),
        ];
        for (metric, column, scheme) in rungs {
            let (bytes, raw) = self.with_lineitem(|storage, schema| {
                let col = storage.read_column(0, schema.resolve(column)?)?.data;
                let bytes = if scheme == Pdict {
                    let (chosen, bytes) = compress_data(&col);
                    if chosen != Pdict {
                        return Err(VwError::Storage(format!(
                            "{} was not dictionary-encoded but {}",
                            column,
                            chosen.name()
                        )));
                    }
                    bytes
                } else {
                    compress_with(&col, scheme)
                };
                Ok((bytes, col.uncompressed_bytes()))
            })?;
            let secs = median_secs(5, RUNG, || {
                black_box(decompress_data(black_box(&bytes))?.len());
                Ok(())
            })?;
            self.put(metric, raw as f64 / secs / 1e9);
        }
        Ok(())
    }

    /// `BlockCursor` over real lineitem blocks as stored: predicates
    /// evaluated on the encoded form, and the decode of one vector slice.
    fn cursors(&mut self) -> Result<()> {
        use CompressionScheme::*;
        let preds = [
            (
                "storage.cursor.eval_pred.pfor_mrows_per_s",
                "l_partkey",
                Pfor,
                Pred::Cmp {
                    op: PredOp::Lt,
                    value: Value::I64(10_000),
                },
            ),
            (
                "storage.cursor.eval_pred.pdict_mrows_per_s",
                "l_shipmode",
                Pdict,
                Pred::InStr {
                    values: vec!["MAIL".into(), "SHIP".into()],
                    negated: false,
                },
            ),
            (
                "storage.cursor.eval_pred.plain_f64_mrows_per_s",
                "l_extendedprice",
                Plain,
                Pred::Cmp {
                    op: PredOp::Lt,
                    value: Value::F64(20_000.0),
                },
            ),
        ];
        for (metric, column, expected, pred) in preds {
            let mut rows = 0usize;
            let mut stored = expected;
            let mut passes = Vec::new();
            let start = Instant::now();
            while passes.len() < 3 || start.elapsed() < RUNG {
                // A fresh cursor per pass, as a scan opens one per block.
                let mut cursor = self.with_lineitem(|storage, schema| {
                    storage.read_column_cursor(0, schema.resolve(column)?)
                })?;
                stored = cursor.scheme();
                rows = cursor.n();
                let t = Instant::now();
                for from in (0..rows).step_by(VECTOR) {
                    black_box(
                        cursor
                            .eval_pred(&pred, from, (from + VECTOR).min(rows))?
                            .len(),
                    );
                }
                passes.push(t.elapsed().as_secs_f64());
            }
            if stored != expected {
                self.notes.push(format!(
                    "{}: {} is stored as {}, not {}",
                    metric,
                    column,
                    stored.name(),
                    expected.name()
                ));
            }
            self.put(metric, rows as f64 / median(&passes) / 1e6);
        }
        let mut cursor = self.with_lineitem(|storage, schema| {
            storage.read_column_cursor(0, schema.resolve("l_extendedprice")?)
        })?;
        let n = cursor.n();
        let slices = n.div_ceil(VECTOR) as f64;
        let secs = median_secs(3, RUNG, || {
            for from in (0..n).step_by(VECTOR) {
                black_box(cursor.decode_slice(from, (from + VECTOR).min(n))?.len());
            }
            Ok(())
        })?;
        self.put("storage.cursor.decode_slice_us", secs / slices * 1e6);
        Ok(())
    }

    /// `DecodeCache::get` on resident keys and `insert` into a full cache (so
    /// each insert evicts), with 8 KiB vector slices as scans cache them.
    fn decode_cache(&mut self) -> Result<()> {
        let capacity = self.db.config().decode_cache_bytes;
        let slice = Arc::new(self.with_lineitem(|storage, schema| {
            let mut cursor = storage.read_column_cursor(0, schema.resolve("l_extendedprice")?)?;
            let to = VECTOR.min(cursor.n());
            cursor.decode_slice(0, to)
        })?);
        let slots = capacity / (VECTOR * 8);
        let key = |i: usize| (BlockId::new(i as u64), 0u32, VECTOR as u32);
        let cache = DecodeCache::new(capacity);
        for i in 0..2 * slots {
            cache.insert(key(i), slice.clone());
        }
        let mut next = 2 * slots;
        let insert = median_secs(3, RUNG, || {
            for i in next..next + slots {
                cache.insert(key(i), slice.clone());
            }
            next += slots;
            Ok(())
        })?;
        // The most recent `slots / 2` keys are resident whatever the slot
        // overhead the cache charges.
        let first = next - slots / 2;
        let hit = median_secs(3, RUNG, || {
            for i in first..next {
                black_box(cache.get(&key(i)).is_some());
            }
            Ok(())
        })?;
        let stats = cache.stats();
        if stats.misses > 0 {
            self.notes.push(format!(
                "bufman.decode_cache.hit_us: {} of the timed lookups missed",
                stats.misses
            ));
        }
        self.put("bufman.decode_cache.insert_us", insert / slots as f64 * 1e6);
        self.put("bufman.decode_cache.hit_us", hit / (slots / 2) as f64 * 1e6);
        Ok(())
    }

    /// Scan-only plans through `compile_plan`: 1, 4 and 8 columns, 1% and
    /// 50% selectivity; and the Q6 scan's time per 1K-row vector.
    fn vecscan(&mut self, facts: &Facts) -> Result<()> {
        let plans = [
            ("core.vecscan.c1_mrows_per_s", "SELECT l_quantity FROM lineitem"),
            (
                "core.vecscan.c4_mrows_per_s",
                "SELECT l_quantity, l_extendedprice, l_discount, l_shipdate FROM lineitem",
            ),
            (
                "core.vecscan.c8_mrows_per_s",
                "SELECT l_quantity, l_extendedprice, l_discount, l_shipdate, l_orderkey, l_partkey, \
                 l_tax, l_returnflag FROM lineitem",
            ),
            // 200 of the 20000 part keys of SF 0.1.
            (
                "core.vecscan.sel1_mrows_per_s",
                "SELECT l_extendedprice FROM lineitem WHERE l_partkey <= 200",
            ),
            (
                "core.vecscan.sel50_mrows_per_s",
                "SELECT l_extendedprice FROM lineitem WHERE l_quantity <= 25",
            ),
        ];
        for (metric, sql) in plans {
            let plan = verify::optimized_plan(self.db, sql)?;
            let secs = median_secs(3, RUNG, || {
                drain_rows(self.db, &plan).map(|rows| {
                    black_box(rows);
                })
            })?;
            self.put(metric, facts.n_lineitem as f64 / secs / 1e6);
        }
        let mut us = Vec::new();
        for _ in 0..5 {
            self.session.execute(SCAN[1].sql)?;
            let profile = self.session.profile_last_query().ok_or_else(|| {
                VwError::Exec("profiling is on by default but Q6 left no profile".into())
            })?;
            let scan_ns: u128 = profile
                .nodes()
                .iter()
                .filter(|n| n.op_name() == "Scan")
                .map(|n| n.self_time().as_nanos())
                .sum();
            us.push(scan_ns as f64 / 1e3 / (facts.n_lineitem as f64 / VECTOR as f64));
        }
        self.put("core.vecscan.us_per_vector", median(&us));
        Ok(())
    }

    /// Materialising and counting `vw_queries`, the system table `short`
    /// reads.
    fn systab(&mut self) -> Result<()> {
        let mut us = Vec::new();
        for _ in 0..50 {
            us.push(ms_of(self.session, "SELECT COUNT(*) AS n FROM vw_queries")? * 1e3);
        }
        self.put("core.systab.query_us", median(&us));
        Ok(())
    }

    /// Scan rounds with profiling on, off, off, on. Whole rounds, so every
    /// round finds the caches as a full round left them, whatever its mode;
    /// the order cancels drift.
    fn profile_overhead(&mut self) -> Result<()> {
        let off = self.db.session();
        off.set_profiling(false);
        let (mut on_ms, mut off_ms) = (0.0, 0.0);
        for profiled in [true, false, false, true] {
            for t in SCAN {
                if profiled {
                    on_ms += ms_of(self.session, t.sql)?;
                } else {
                    off_ms += ms_of(&off, t.sql)?;
                }
            }
        }
        self.put("core.profile.overhead_pct", (on_ms / off_ms - 1.0) * 100.0);
        Ok(())
    }

    /// Q1 and Q18 at dop 2 against dop 1, and Q18 under a 4 MiB budget
    /// against unbounded memory.
    fn exchange_and_spill(&mut self) -> Result<()> {
        let dop2 = self.db.session();
        dop2.set_parallelism(2);
        let [one, two] = interleaved_median_ms([self.session, &dop2], SCAN[0].sql, 3)?;
        self.put("core.exchange.dop2_speedup_q1", one / two);
        let q18 = JOIN_AGG[4].sql;
        let [one, two] = interleaved_median_ms([self.session, &dop2], q18, 2)?;
        self.put("core.exchange.dop2_speedup_q18", one / two);
        let tight = self.db.session();
        tight.set_mem_budget(Some(4 << 20));
        let [unbounded, spilled] = interleaved_median_ms([self.session, &tight], q18, 2)?;
        self.put("core.spill.slowdown_q18", spilled / unbounded);
        Ok(())
    }

    /// Two facts the workloads are built on, as notes, not metrics: what
    /// back-to-back repetition hides (the same template three times in a row
    /// against its round-robin latency), and what the SQL front end costs on
    /// Q19 against the hand-built plan of `vw_tpch`.
    fn findings(&mut self) -> Result<()> {
        for t in [&SCAN[0], &SCAN[2]] {
            let mut in_a_row = Vec::new();
            for _ in 0..4 {
                in_a_row.push(ms_of(self.session, t.sql)?);
            }
            self.notes.push(format!(
                "{} back to back: median {:.1} ms over 3 repetitions after a first one \
                 (its round-robin median is in the untraced list below)",
                t.name,
                median(&in_a_row[1..])
            ));
        }
        let catalog = vw_tpch::TpchCatalog::new(|name| self.db.resolve_table(name))?;
        let (mut sql_ms, mut plan_ms) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            sql_ms.push(ms_of(self.session, Q19_SQL)?);
            let t = Instant::now();
            self.session.run_plan(vw_tpch::queries::q19(&catalog))?;
            plan_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        self.notes.push(format!(
            "q19 as SQL text {:.1} ms, as the hand-built plan {:.1} ms (medians of 3, taking turns)",
            median(&sql_ms),
            median(&plan_ms)
        ));
        Ok(())
    }

    /// A scan round at twice the scale over the same round here. 2.0 is
    /// linear; more means a cache stopped holding.
    fn scale(&mut self, scratch: &ScratchDir, seed: u64, sf: f64) -> Result<()> {
        let here = scan_round_ms(self.session)?;
        let double = {
            let db = data::new_database(scratch)?;
            data::load_tpch(&db, 2.0 * sf, seed)?;
            scan_round_ms(&db.session())?
        };
        crate::rss::trim_heap();
        self.put("core.scale.scan_round_ratio_sf02", double / here);
        Ok(())
    }

    /// `HashJoin`, `HashAggregate`, `VecSort` and `TopN` over in-memory
    /// batches the size of `orders` and `lineitem`: 150K build rows and 600K
    /// probe rows at SF 0.1.
    fn operators(&mut self, seed: u64, sf: f64) -> Result<()> {
        let (build_rows, probe_rows) = ((1.5e6 * sf) as usize, (6e6 * sf) as usize);
        let mut rng = Xoshiro256::seeded(seed ^ 0x6f70);
        let mut build_keys: Vec<i64> = (0..build_rows as i64).collect();
        rng.shuffle(&mut build_keys);
        let payload: Vec<i64> = (0..build_rows as i64).collect();
        let probe_keys: Vec<i64> = (0..probe_rows)
            .map(|_| rng.range_i64(0, build_rows as i64 - 1))
            .collect();
        let few_keys: Vec<i64> = probe_keys.iter().map(|k| k % 4).collect();
        let amounts: Vec<i64> = (0..probe_rows)
            .map(|_| rng.range_i64(1, 1_000_000))
            .collect();
        let build = i64_batches(&[&build_keys, &payload]);
        let probe = i64_batches(&[&probe_keys, &amounts]);
        let few = i64_batches(&[&few_keys, &amounts]);
        let source = |names: &[&str], batches: &[Batch]| -> BoxedOperator {
            Box::new(BatchSource::new(i64_schema(names), batches.to_vec()))
        };

        // The first call builds the table (and probes one vector); the rest
        // is probing.
        let (mut build_s, mut probe_s) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let mut join = HashJoin::new(
                source(&["pk", "pv"], &probe),
                source(&["bk", "bv"], &build),
                JoinKind::Inner,
                vec![(0, 0)],
                None,
                false,
            )?;
            let t = Instant::now();
            let mut rows = join.next()?.map_or(0, |b| b.len());
            build_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            rows += drain(Box::new(join))?;
            probe_s.push(t.elapsed().as_secs_f64());
            if rows != probe_rows {
                return Err(VwError::Exec(format!(
                    "join rung returned {} rows, not {}",
                    rows, probe_rows
                )));
            }
        }
        self.put(
            "core.join.build_mrows_per_s",
            build_rows as f64 / median(&build_s) / 1e6,
        );
        self.put(
            "core.join.probe_mrows_per_s",
            probe_rows as f64 / median(&probe_s) / 1e6,
        );

        let sum = || {
            vec![AggExpr {
                func: AggFunc::Sum,
                arg: Some(Expr::col(1)),
                name: "total".into(),
            }]
        };
        for (metric, batches, groups, perfect) in [
            (
                "core.aggregate.generic_mrows_per_s",
                &probe,
                build_rows,
                false,
            ),
            ("core.aggregate.perfect_mrows_per_s", &few, 4, true),
        ] {
            let mut secs = Vec::new();
            for _ in 0..3 {
                let mut agg = HashAggregate::new(
                    source(&["k", "v"], batches),
                    vec![0],
                    sum(),
                    AggPhase::Single,
                    VECTOR,
                    false,
                )?;
                if perfect && !agg.enable_perfect(&[Some((0, 3))]) {
                    self.notes.push(format!(
                        "{}: the perfect-hash path refused 4 integer groups",
                        metric
                    ));
                }
                let t = Instant::now();
                let rows = drain(Box::new(agg))?;
                secs.push(t.elapsed().as_secs_f64());
                // Not every one of the 150K keys need be drawn.
                if rows > groups || rows == 0 {
                    return Err(VwError::Exec(format!(
                        "{} produced {} groups",
                        metric, rows
                    )));
                }
            }
            self.put(metric, probe_rows as f64 / median(&secs) / 1e6);
        }

        let keys = || vec![SortKey::new(1, false), SortKey::new(0, true)];
        let mut secs = Vec::new();
        for _ in 0..2 {
            let sort = VecSort::new(source(&["k", "v"], &probe), keys(), VECTOR);
            let t = Instant::now();
            black_box(drain(Box::new(sort))?);
            secs.push(t.elapsed().as_secs_f64());
        }
        self.put(
            "core.sort.mrows_per_s",
            probe_rows as f64 / median(&secs) / 1e6,
        );
        let mut secs = Vec::new();
        for _ in 0..3 {
            let top = TopN::new(source(&["k", "v"], &probe), keys(), 0, 100, VECTOR);
            let t = Instant::now();
            black_box(drain(Box::new(top))?);
            secs.push(t.elapsed().as_secs_f64());
        }
        self.put(
            "core.topn.mrows_per_s",
            probe_rows as f64 / median(&secs) / 1e6,
        );
        Ok(())
    }

    /// One client, nothing else running: the cost of each write-path layer.
    fn write(&mut self, facts: &Facts, seed: u64) -> Result<()> {
        let db = self.db;
        let q6 = SCAN[1].sql;
        let q6_ms = |session: &Session| -> Result<f64> {
            let ms: Result<Vec<f64>> = (0..3).map(|_| ms_of(session, q6)).collect();
            Ok(median(&ms?))
        };
        // After mixed_rw's writer the tables carry deltas; the rung starts
        // from clean ones.
        if pdt_entries(db, "orders")? + pdt_entries(db, "lineitem")? > 0 {
            db.checkpoint("orders")?;
            db.checkpoint("lineitem")?;
        }
        let clean_ms = q6_ms(self.session)?;

        // Ten new orders: statement, commit and WAL cost per transaction.
        let mut rng = Xoshiro256::seeded(seed ^ 0x6c61_6464);
        let wal_before = std::fs::metadata(db.wal_path()).map_or(0, |m| m.len());
        let (mut insert_us, mut commit_us, mut user_bytes) = (Vec::new(), Vec::new(), 0usize);
        for i in 0..10 {
            // Keys no mixed_rw writer of this run can have used.
            let (order, lines) =
                mixed::new_order_rows(NEW_ORDER_BASE + 1_000_000 + i, &mut rng, facts);
            user_bytes += mixed::user_bytes(&order)
                + lines.iter().map(|l| mixed::user_bytes(l)).sum::<usize>();
            let mut txn = db.begin();
            let t = Instant::now();
            db.execute_in(&mut txn, &mixed::insert_sql("orders", &[order]))?;
            db.execute_in(&mut txn, &mixed::insert_sql("lineitem", &lines))?;
            insert_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            db.commit(txn)?;
            commit_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let wal_after = std::fs::metadata(db.wal_path()).map_or(0, |m| m.len());
        self.put("core.dml.insert_us", median(&insert_us));
        self.put("txn.commit_us", median(&commit_us));
        self.put(
            "txn.wal.bytes_per_user_byte",
            wal_after.saturating_sub(wal_before) as f64 / user_bytes as f64,
        );

        // Point UPDATE and DELETE as `mixed_rw` issues them, with what they
        // read to change one row.
        let disk_before = db.disk().stats();
        let mut update_ms = Vec::new();
        let mut changed = 0usize;
        for delta in ["+ 1", "- 1"] {
            let key = rng.range_i64(1, facts.n_orders);
            let t = Instant::now();
            db.execute(&format!(
                "UPDATE orders SET o_shippriority = o_shippriority {} WHERE o_orderkey = {}",
                delta, key
            ))?;
            update_ms.push(t.elapsed().as_secs_f64() * 1e3);
            changed += 1;
        }
        let read = db.disk().stats().since(&disk_before).bytes_read;
        self.put("core.dml.update_ms", median(&update_ms));
        self.put(
            "core.dml.kb_read_per_row_changed",
            read as f64 / 1024.0 / changed as f64,
        );
        let key = rng.range_i64(1, facts.n_orders);
        let t = Instant::now();
        db.execute(&format!("DELETE FROM lineitem WHERE l_orderkey = {}", key))?;
        self.put("core.dml.delete_ms", t.elapsed().as_secs_f64() * 1e3);

        self.put("pdt.dirty_scan_slowdown", q6_ms(self.session)? / clean_ms);

        let entries = pdt_entries(db, "orders")? + pdt_entries(db, "lineitem")?;
        self.put("pdt.entries_at_checkpoint", entries as f64);
        let disk_before = db.disk().stats();
        for (metric, table) in [
            ("txn.checkpoint.orders_ms", "orders"),
            ("txn.checkpoint.lineitem_ms", "lineitem"),
        ] {
            let t = Instant::now();
            db.checkpoint(table)?;
            self.put(metric, t.elapsed().as_secs_f64() * 1e3);
        }
        let written = db.disk().stats().since(&disk_before).bytes_written;
        self.put(
            "txn.checkpoint.bytes_rewritten_mb",
            written as f64 / (1u64 << 20) as f64,
        );

        // The layers below the statements, on their own.
        let wal_path = db.wal_path().with_extension("ladder");
        let mut wal = vw_txn::Wal::open(&wal_path)?;
        let ops = vec![(TableId::new(1), vec![0u8; 256])];
        let mut n = 0u64;
        let append = median_secs(200, Duration::from_millis(50), || {
            n += 1;
            wal.append_commit(vw_common::TxnId::new(n), &ops)
        });
        drop(wal);
        let _ = std::fs::remove_file(&wal_path);
        self.put("txn.wal.append_us", append? * 1e6);

        let rows = facts.n_orders as u64;
        let mut pdt = vw_pdt::Pdt::new(rows);
        let update = median_secs(2000, Duration::from_millis(50), || {
            pdt.modify_at(rng.next_below(rows), 7, Value::I64(1))
        })?;
        self.put("pdt.update_us", update * 1e6);
        Ok(())
    }

    /// The workload's statements on the three engines, from the same
    /// optimized plans: geometric means, and how many times faster the
    /// vectorized engine is than each baseline.
    pub fn baselines(&mut self, statements: &[String]) -> Result<()> {
        let id = self.tracer.begin("ladder.baselines", None, 0);
        let (mut row_ms, mut mat_ms, mut vec_ms) = (Vec::new(), Vec::new(), Vec::new());
        for sql in statements {
            let plan = verify::optimized_plan(self.db, sql)?;
            let t = Instant::now();
            black_box(verify::row_engine_rows(self.db, &plan)?.len());
            row_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let ctx = self.db.plan_exec_context(&plan)?;
            let t = Instant::now();
            let mut op = vw_baselines::compile_materialized(&plan, &ctx)?;
            black_box(collect_rows(op.as_mut())?.len());
            mat_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            let mut op = compile_plan(&plan, &ctx)?;
            black_box(collect_rows(op.as_mut())?.len());
            vec_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        self.tracer.end(id);
        let (row, mat, vec) = (geomean(&row_ms), geomean(&mat_ms), geomean(&vec_ms));
        self.put("baselines.row.geomean_ms", row);
        self.put("baselines.mat.geomean_ms", mat);
        self.put("baselines.ratio_vs_row", row / vec);
        self.put("baselines.ratio_vs_mat", mat / vec);
        self.notes.push(format!(
            "baselines: vectorized geomean {:.3} ms over the same {} plans",
            vec,
            statements.len()
        ));
        Ok(())
    }
}
