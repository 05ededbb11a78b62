//! The cross-compiler: `vw_plan::LogicalPlan` → vectorized operator trees.
//!
//! Plays the role of the Ingres→X100 cross-compiler [7]: the planner's
//! engine-neutral algebra comes in, a tree of `vw-core` operators comes out.
//! The same logical plans are also cross-compiled by the baseline engines in
//! `vw-baselines`, which is what makes the engine comparisons apples-to-
//! apples.

use crate::adapt::AggFeedback;
use crate::mem::{MemBudget, MemTracker};
use crate::morsel::{ExecStats, SharedExec};
use crate::operators::perfect;
use crate::operators::{
    BoxedOperator, Exchange, HashAggregate, HashJoin, MergeJoin, RuntimeFilters, TopN, VecFilter,
    VecLimit, VecProject, VecScan, VecSort,
};
use crate::profile::{OpProfile, ProfiledOp};
use crate::spill::QueryEnv;
use crate::trace::TraceHandle;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use vw_bufman::Abm;
use vw_common::config::EngineConfig;
use vw_common::metrics::{MetricsRegistry, LATENCY_BUCKETS_NS};
use vw_common::{Result, Schema, TableId, VwError};
use vw_plan::{Expr, LogicalPlan};
use vw_storage::block::MinMax;
use vw_storage::{SimDisk, TableStorage};

/// Everything the engine needs to scan one table: the stable columnar image
/// and the PDT snapshot to merge over it — one version of the table, as the
/// transaction manager hands it out.
pub type TableProvider = vw_txn::TableVersion;

/// Execution context: table resolution + engine configuration.
#[derive(Clone)]
pub struct ExecContext {
    pub tables: Arc<HashMap<TableId, TableProvider>>,
    pub config: EngineConfig,
    /// Shared morsel queues + join build slots when compiling inside an
    /// Exchange worker; `None` for serial compilation.
    pub shared: Option<Arc<SharedExec>>,
    /// Execution counters (morsels claimed, join builds executed).
    pub stats: Arc<ExecStats>,
    /// Profile node for the plan root being compiled in this context, when
    /// profiling is on. Must mirror the plan's shape ([`OpProfile::from_plan`]
    /// on the same plan). Exchange workers all carry `Arc`s to the same
    /// subtree, which is what merges dop>1 stats per plan node.
    pub profile: Option<Arc<OpProfile>>,
    /// Cooperative-scan buffer manager: when attached, every table scan a
    /// plan compiles to registers the blocks of its morsel queue when it
    /// plans the queue on its first `next()`, and fetches through it, so
    /// concurrent queries scanning the same table share disk bandwidth. A
    /// scan that never runs registers nothing; system tables are exempt —
    /// they live on private scratch disks.
    pub buffer: Option<Arc<Abm>>,
    /// Query-wide execution-memory budget. One instance per query, shared by
    /// every operator tracker and every Exchange worker (the context is
    /// cloned per worker, the `Arc` keeps the ledger global).
    pub mem: Arc<MemBudget>,
    /// Where spilling operators write their runs/partitions; `None` means
    /// each operator opens a private scratch SimDisk on first spill.
    pub spill_disk: Option<Arc<SimDisk>>,
    /// Per-worker trace timeline for this query, when profiling is on. The
    /// handle carries the recording thread's worker id (0 = coordinator);
    /// Exchange re-tags the clone it hands each worker thread.
    pub trace: Option<TraceHandle>,
    /// The database-wide metrics registry, when one is attached. Operators
    /// resolve their instruments once at compile time and never touch the
    /// registry lock while executing.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Cross-query aggregation-path feedback (observed group counts,
    /// perfect-hash refusals). Attached by the database to every query;
    /// `None` keeps the static path choice.
    pub agg_feedback: Option<Arc<AggFeedback>>,
    /// This context's Exchange worker index (0 for the coordinator / serial
    /// execution). Scans use it as their home lane in a partition-aware
    /// morsel queue.
    pub worker: usize,
}

impl ExecContext {
    pub fn new(tables: HashMap<TableId, TableProvider>, config: EngineConfig) -> ExecContext {
        let mem = Arc::new(MemBudget::from_config(&config));
        ExecContext {
            tables: Arc::new(tables),
            config,
            shared: None,
            stats: Arc::new(ExecStats::default()),
            profile: None,
            buffer: None,
            mem,
            spill_disk: None,
            trace: None,
            metrics: None,
            agg_feedback: None,
            worker: 0,
        }
    }

    /// The environment of a spilling operator at plan node `prof`: a fresh
    /// tracker charging this query's budget, the query's spill disk and
    /// trace, and the node's wait ledger when profiling.
    pub fn query_env(&self, prof: Option<&Arc<OpProfile>>) -> QueryEnv {
        QueryEnv {
            mem: MemTracker::new(self.mem.clone()),
            spill_disk: self.spill_disk.clone(),
            trace: self.trace.clone(),
            waits: prof.map(|p| p.waits().clone()),
        }
    }

    fn provider(&self, id: TableId) -> Result<&TableProvider> {
        self.tables
            .get(&id)
            .ok_or_else(|| VwError::Plan(format!("no table provider for {}", id)))
    }
}

/// Plan-position counters assigned during one compilation pass.
///
/// Every Exchange worker compiles an identical clone of the same plan in the
/// same preorder, so "the Nth scan of table T" and "the Nth join" denote the
/// same plan node on every thread — that makes them valid keys into the
/// worker-shared [`SharedExec`] registry without any cross-thread plan
/// analysis.
#[derive(Default)]
struct CompileState {
    scan_occurrence: HashMap<TableId, usize>,
    join_occurrence: usize,
    /// The runtime-filter inbox of each probe-side scan still to compile,
    /// by the address of its plan node.
    runtime_filters: HashMap<*const LogicalPlan, Arc<RuntimeFilters>>,
}

/// Compile a logical plan into a vectorized operator tree.
///
/// When `ctx.profile` is set (to a profile tree built from this very plan),
/// every operator is wrapped in a [`ProfiledOp`] recording into the profile
/// node at its plan position.
pub fn compile_plan(plan: &LogicalPlan, ctx: &ExecContext) -> Result<BoxedOperator> {
    let prof = ctx.profile.clone();
    compile_rec(plan, ctx, &mut CompileState::default(), prof.as_ref())
}

fn compile_rec(
    plan: &LogicalPlan,
    ctx: &ExecContext,
    state: &mut CompileState,
    prof: Option<&Arc<OpProfile>>,
) -> Result<BoxedOperator> {
    let naive = !ctx.config.rewrite_nulls;
    let vs = ctx.config.vector_size;
    // Profile node for the i-th plan child (same tree shape by construction).
    let child_prof = |i: usize| prof.map(|p| p.child(i));
    let op: BoxedOperator = match plan {
        LogicalPlan::Scan {
            table_id,
            schema,
            projection,
            filter,
            ..
        } => {
            let mut scan = compile_scan(ctx, state, *table_id, schema, projection, filter, prof)?;
            if let Some(inbox) = state.runtime_filters.remove(&(plan as *const _)) {
                scan.set_runtime_filters(inbox);
            }
            Box::new(scan)
        }
        LogicalPlan::Filter { input, predicate } => {
            let child = compile_rec(input, ctx, state, child_prof(0))?;
            Box::new(VecFilter::with_adaptivity(
                child,
                predicate.clone(),
                naive,
                true,
            )?)
        }
        LogicalPlan::Project { input, exprs } => {
            let child = compile_rec(input, ctx, state, child_prof(0))?;
            Box::new(VecProject::new(child, exprs.clone(), naive)?)
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            residual,
        } => {
            // Runtime filters: every probe key that the probe side's scan
            // hands up unchanged can get the key set of the finished build
            // (the join decides whether it does). The scan is compiled with
            // the left side, so its inbox goes first.
            let inbox = Arc::new(RuntimeFilters::default());
            let mut filter_keys = Vec::new();
            for (k, &(lc, _)) in on.iter().enumerate() {
                if let Some((scan, col)) = scan_column(left, lc) {
                    let scan = scan as *const LogicalPlan;
                    state.runtime_filters.insert(scan, inbox.clone());
                    filter_keys.push((k, col));
                }
            }
            let l = compile_rec(left, ctx, state, child_prof(0))?;
            // The build (right) side executes ONCE per Exchange: it compiles
            // serial (own state, no shared queues — its scans cover the whole
            // table) and the first worker to reach the join runs it; all
            // other workers share the frozen result through the build slot.
            let mut build_ctx = ctx.clone();
            build_ctx.shared = None;
            let r = compile_rec(
                right,
                &build_ctx,
                &mut CompileState::default(),
                child_prof(1),
            )?;
            let mut join = HashJoin::new(l, r, *kind, on.clone(), residual.clone(), naive)?;
            if let Some(shared) = &ctx.shared {
                let occ = state.join_occurrence;
                state.join_occurrence += 1;
                join.set_shared_build(shared.build_slot(occ));
            }
            join.set_stats(ctx.stats.clone());
            join.set_env(ctx.query_env(prof));
            if !filter_keys.is_empty() {
                join.set_runtime_filters(inbox, filter_keys);
            }
            Box::new(join)
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            phase,
        } => {
            let child = compile_rec(input, ctx, state, child_prof(0))?;
            let mut agg =
                HashAggregate::new(child, group_by.clone(), aggs.clone(), *phase, vs, naive)?;
            agg.set_env(ctx.query_env(prof));
            // Where a group key is a stored column handed up unchanged, its
            // zone maps bound the key domain: integer keys become eligible
            // for the direct-array path. Bool and low-cardinality string
            // keys are eligible without.
            let sources: Vec<Option<(TableId, usize)>> =
                group_by.iter().map(|&g| stored_column(input, g)).collect();
            let hints = sources
                .iter()
                .map(|src| {
                    let (table, col) = (*src)?;
                    int_key_hint(&ctx.provider(table).ok()?.storage, col)
                })
                .collect::<Vec<_>>();
            // The aggregation's shape across queries: the table and the
            // stored columns grouped on, whatever the projection above.
            let shape = sources
                .iter()
                .copied()
                .collect::<Option<Vec<_>>>()
                .filter(|keys| !keys.is_empty() && keys.iter().all(|k| k.0 == keys[0].0))
                .map(|keys| {
                    let cols: Vec<usize> = keys.iter().map(|k| k.1).collect();
                    (keys[0].0.as_u64(), cols)
                });
            // History veto: if this (table, key-set) has already refused the
            // perfect-hash path (budget) or blown past its domain, skip the
            // speculative attempt and go generic from batch one.
            let mut veto = false;
            if let (Some(fb), Some((table, cols))) = (&ctx.agg_feedback, shape) {
                veto = fb.veto_perfect(table, cols.clone(), perfect::MAX_SLOTS as u64);
                agg.set_agg_feedback(fb.clone(), table, cols);
            }
            if veto {
                // History overrode the static choice; surface it in the
                // profile so EXPLAIN ANALYZE (and the agg_path_switches_total
                // counter) can say why.
                if let Some(p) = prof {
                    p.add_extra("agg_adapt_veto", 1);
                }
            } else {
                agg.enable_perfect(&hints);
            }
            Box::new(agg)
        }
        LogicalPlan::MergeJoin { left, right, on } => {
            let l = compile_rec(left, ctx, state, child_prof(0))?;
            let r = compile_rec(right, ctx, state, child_prof(1))?;
            Box::new(MergeJoin::new(l, r, on.clone(), vs)?)
        }
        LogicalPlan::Sort { input, keys } => {
            let child = compile_rec(input, ctx, state, child_prof(0))?;
            let mut sort = VecSort::new(child, keys.clone(), vs);
            sort.set_env(ctx.query_env(prof));
            Box::new(sort)
        }
        LogicalPlan::Limit {
            input,
            offset,
            fetch,
        } => {
            // Top-N fusion: a Limit directly over a Sort keeps only the best
            // offset+fetch rows instead of sorting the whole input, whatever
            // that number. A Limit without a fetch (OFFSET alone) has no N
            // and outputs every row, so it stays a sort. The fused operator
            // compiles at the Limit's plan position (its `topn=1` extra
            // surfaces there); the Sort node stays in the plan but executes
            // as part of the fusion.
            if let LogicalPlan::Sort {
                input: sort_input,
                keys,
            } = &**input
            {
                if !keys.is_empty() && *fetch != u64::MAX {
                    let grandchild_prof = child_prof(0).map(|p| p.child(0));
                    let child = compile_rec(sort_input, ctx, state, grandchild_prof)?;
                    let mut topn = TopN::new(child, keys.clone(), *offset, *fetch, vs);
                    topn.set_env(ctx.query_env(prof));
                    return Ok(finish_op(Box::new(topn), ctx, prof));
                }
            }
            let child = compile_rec(input, ctx, state, child_prof(0))?;
            Box::new(VecLimit::new(child, *offset, *fetch))
        }
        LogicalPlan::Exchange { input, partitions } => {
            if ctx.shared.is_some() {
                return Err(VwError::Plan("nested Exchange".into()));
            }
            // Workers compile clones of the child plan; handing each the
            // *same* child profile subtree is what merges their stats per
            // plan node instead of per thread.
            let mut ex_ctx = ctx.clone();
            ex_ctx.profile = child_prof(0).cloned();
            Box::new(Exchange::new((**input).clone(), ex_ctx, *partitions)?)
        }
    };
    Ok(finish_op(op, ctx, prof))
}

/// Wrap a compiled operator in its profiling shim when profiling is on.
fn finish_op(op: BoxedOperator, ctx: &ExecContext, prof: Option<&Arc<OpProfile>>) -> BoxedOperator {
    match prof {
        Some(p) => {
            let mut wrapped = ProfiledOp::new(op, p.clone());
            if let Some(t) = &ctx.trace {
                wrapped.set_trace(t.clone());
            }
            if let Some(m) = &ctx.metrics {
                wrapped.set_histogram(m.histogram(
                    "operator_next_ns",
                    p.op_name(),
                    LATENCY_BUCKETS_NS,
                ));
            }
            Box::new(wrapped)
        }
        None => op,
    }
}

/// Compile one `LogicalPlan::Scan` node into a [`VecScan`]. The scan plans
/// its morsel queue when it first runs: the Exchange's shared one inside an
/// Exchange, a private one anywhere else.
fn compile_scan(
    ctx: &ExecContext,
    state: &mut CompileState,
    table_id: TableId,
    schema: &Schema,
    projection: &Option<Vec<usize>>,
    filter: &Option<Expr>,
    prof: Option<&Arc<OpProfile>>,
) -> Result<VecScan> {
    let provider = ctx.provider(table_id)?;
    let projection = match projection {
        Some(p) => p.clone(),
        None => (0..schema.len()).collect(),
    };
    let mut scan = VecScan::new(
        provider.storage.clone(),
        provider.pdt.clone(),
        projection,
        filter.clone(),
        ctx.config.vector_size,
        !ctx.config.rewrite_nulls,
        true,
    )?;
    if let Some(shared) = &ctx.shared {
        let occurrence = state.scan_occurrence.entry(table_id).or_insert(0);
        scan.set_exchange(shared.clone(), table_id, *occurrence, ctx.worker);
        *occurrence += 1;
    }
    // Cooperative scans: user tables read through the ABM when one is
    // attached; system tables are exempt (they live on scratch SimDisks the
    // ABM's disk handle knows nothing about).
    let abm = ctx.buffer.as_ref();
    if let Some(abm) = abm.filter(|_| !crate::systab::is_system_table(table_id)) {
        scan.set_buffer(abm.clone());
    }
    if let Some(t) = &ctx.trace {
        scan.set_trace(t.clone());
    }
    if let Some(p) = prof {
        // The node's WaitStats take the scan's and its coop handle's blocked
        // time: block I/O, slice decodes and morsel contention.
        scan.set_waits(p.waits().clone());
    }
    Ok(scan)
}

/// The scan, and its output column, that output column `col` of `plan`
/// hands up unchanged: through projections that pass it on as a plain
/// column reference (the shape the binder gives every `GROUP BY` of SQL
/// text) and through filters.
fn scan_column(plan: &LogicalPlan, col: usize) -> Option<(&LogicalPlan, usize)> {
    match plan {
        LogicalPlan::Scan { .. } => Some((plan, col)),
        LogicalPlan::Project { input, exprs } => match exprs.get(col)?.0 {
            Expr::Col(c) => scan_column(input, c),
            _ => None,
        },
        LogicalPlan::Filter { input, .. } => scan_column(input, col),
        _ => None,
    }
}

/// The stored column that output column `col` of `plan` hands up unchanged
/// (see [`scan_column`]).
fn stored_column(plan: &LogicalPlan, col: usize) -> Option<(TableId, usize)> {
    let (scan, col) = scan_column(plan, col)?;
    let LogicalPlan::Scan {
        table_id,
        projection,
        ..
    } = scan
    else {
        unreachable!("scan_column ends at a scan")
    };
    let stored = match projection {
        Some(p) => *p.get(col)?,
        None => col,
    };
    Some((*table_id, stored))
}

/// The `(min, max)` of an integer-typed stored column, folded from its
/// blocks' zone maps across every row group; `None` when any block's stats
/// are of another kind (not perfect-hash eligible on the value-range basis).
/// PDT-resident rows outside the range are handled by the aggregate's
/// runtime fallback.
fn int_key_hint(storage: &Arc<RwLock<TableStorage>>, col: usize) -> Option<(i64, i64)> {
    let st = storage.read();
    let mut acc: Option<(i64, i64)> = None;
    for gi in 0..st.group_count() {
        match st.group(gi).columns.get(col)?.minmax {
            MinMax::Int { min, max } => {
                acc = Some(match acc {
                    Some((lo, hi)) => (lo.min(min), hi.max(max)),
                    None => (min, max),
                });
            }
            // An all-NULL block reports no bounds but adds no values
            // outside whatever the other blocks report.
            MinMax::None => {}
            _ => return None,
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::collect_rows;
    use vw_common::{DataType, Field, Schema, Value};
    use vw_pdt::Pdt;
    use vw_plan::plan::AggPhase;
    use vw_plan::rewrite::parallelize;
    use vw_plan::{AggExpr, AggFunc, BinOp, Expr, JoinKind, SortKey};
    use vw_storage::{SimDisk, SimDiskConfig, TableBuilder};

    const LINEITEM: TableId = TableId(1);
    const PART: TableId = TableId(2);

    fn setup(n: usize) -> ExecContext {
        let disk = Arc::new(SimDisk::new(SimDiskConfig::default()));
        // lineitem-ish table
        let li_schema = Schema::new(vec![
            Field::new("partkey", DataType::I64),
            Field::new("quantity", DataType::I64),
            Field::new("price", DataType::F64),
            Field::new("flag", DataType::Str),
        ]);
        let mut b = TableBuilder::with_group_size(li_schema, disk.clone(), 64);
        for i in 0..n {
            b.push_row(vec![
                Value::I64((i % 20) as i64),
                Value::I64((i % 7 + 1) as i64),
                Value::F64((i % 100) as f64 / 2.0),
                Value::Str(if i % 2 == 0 { "A" } else { "R" }.into()),
            ])
            .unwrap();
        }
        let li = b.finish().unwrap();
        // part table
        let p_schema = Schema::new(vec![
            Field::new("partkey", DataType::I64),
            Field::new("name", DataType::Str),
        ]);
        let mut pb = TableBuilder::with_group_size(p_schema, disk, 64);
        for k in 0..20 {
            pb.push_row(vec![Value::I64(k), Value::Str(format!("part{}", k))])
                .unwrap();
        }
        let part = pb.finish().unwrap();
        let li_rows = li.n_rows();
        let p_rows = part.n_rows();
        let mut tables = HashMap::new();
        tables.insert(
            LINEITEM,
            TableProvider {
                storage: Arc::new(RwLock::new(li)),
                pdt: Arc::new(Pdt::new(li_rows)),
            },
        );
        tables.insert(
            PART,
            TableProvider {
                storage: Arc::new(RwLock::new(part)),
                pdt: Arc::new(Pdt::new(p_rows)),
            },
        );
        ExecContext::new(tables, EngineConfig::default())
    }

    fn li_scan(ctx: &ExecContext) -> LogicalPlan {
        let p = ctx.tables.get(&LINEITEM).unwrap();
        let schema = p.storage.read().schema().clone();
        LogicalPlan::scan("lineitem", LINEITEM, schema)
    }

    fn part_scan(ctx: &ExecContext) -> LogicalPlan {
        let p = ctx.tables.get(&PART).unwrap();
        let schema = p.storage.read().schema().clone();
        LogicalPlan::scan("part", PART, schema)
    }

    #[test]
    fn full_pipeline_filter_project_sort_limit() {
        let ctx = setup(500);
        let plan = li_scan(&ctx)
            .filter(Expr::binary(
                BinOp::Ge,
                Expr::col(1),
                Expr::lit(Value::I64(6)),
            ))
            .project(vec![
                (Expr::col(0), "pk"),
                (
                    Expr::binary(BinOp::Mul, Expr::col(2), Expr::lit(Value::F64(2.0))),
                    "dbl",
                ),
            ])
            .sort(vec![SortKey::desc(1)])
            .limit(0, 5);
        let mut op = compile_plan(&plan, &ctx).unwrap();
        let rows = collect_rows(op.as_mut()).unwrap();
        assert_eq!(rows.len(), 5);
        // sorted descending by dbl
        let d0 = rows[0][1].as_f64().unwrap();
        let d4 = rows[4][1].as_f64().unwrap();
        assert!(d0 >= d4);
    }

    #[test]
    fn join_and_aggregate() {
        let ctx = setup(200);
        // join lineitem to part, group by part name, count
        let plan = li_scan(&ctx)
            .join(part_scan(&ctx), JoinKind::Inner, vec![(0, 0)])
            .aggregate(
                vec![5], // part name (lineitem 4 cols + partkey, name)
                vec![AggExpr {
                    func: AggFunc::CountStar,
                    arg: None,
                    name: "n".into(),
                }],
            );
        let mut op = compile_plan(&plan, &ctx).unwrap();
        let rows = collect_rows(op.as_mut()).unwrap();
        assert_eq!(rows.len(), 20);
        let total: i64 = rows.iter().map(|r| r[1].as_i64().unwrap()).sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn parallel_plan_matches_serial() {
        let ctx = setup(600);
        let base = li_scan(&ctx)
            .filter(Expr::binary(
                BinOp::Eq,
                Expr::col(3),
                Expr::lit(Value::Str("A".into())),
            ))
            .aggregate(
                vec![1],
                vec![
                    AggExpr {
                        func: AggFunc::Sum,
                        arg: Some(Expr::col(2)),
                        name: "rev".into(),
                    },
                    AggExpr {
                        func: AggFunc::Avg,
                        arg: Some(Expr::col(2)),
                        name: "avg_rev".into(),
                    },
                    AggExpr {
                        func: AggFunc::CountStar,
                        arg: None,
                        name: "n".into(),
                    },
                ],
            )
            .sort(vec![SortKey::asc(0)]);
        let mut serial = compile_plan(&base, &ctx).unwrap();
        let want = collect_rows(serial.as_mut()).unwrap();

        let par = parallelize(base, 3);
        // sanity: the rewrite actually produced an Exchange
        assert!(format!("{}", par).contains("Exchange"));
        let mut op = compile_plan(&par, &ctx).unwrap();
        let got = collect_rows(op.as_mut()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn parallel_join_shares_single_build() {
        let ctx = setup(300);
        let base = li_scan(&ctx)
            .join(part_scan(&ctx), JoinKind::Inner, vec![(0, 0)])
            .aggregate(
                vec![],
                vec![AggExpr {
                    func: AggFunc::CountStar,
                    arg: None,
                    name: "n".into(),
                }],
            );
        let par = parallelize(base.clone(), 2);
        let mut op = compile_plan(&par, &ctx).unwrap();
        let got = collect_rows(op.as_mut()).unwrap();
        assert_eq!(got, vec![vec![Value::I64(300)]]);
        // The build side ran exactly once across both workers (shared slot),
        // not once per worker as with build replication.
        assert_eq!(ctx.stats.builds_executed(), 1);
        // Final/Partial markers present
        if let LogicalPlan::Aggregate { phase, .. } = &par {
            assert_eq!(*phase, AggPhase::Final);
        } else {
            panic!("expected final aggregate");
        }
    }

    #[test]
    fn exchange_without_aggregate_unions_rows() {
        let ctx = setup(100);
        let base = li_scan(&ctx).filter(Expr::binary(
            BinOp::Lt,
            Expr::col(1),
            Expr::lit(Value::I64(3)),
        ));
        let mut serial = compile_plan(&base, &ctx).unwrap();
        let mut want = collect_rows(serial.as_mut()).unwrap();
        let par = parallelize(base, 4);
        let mut op = compile_plan(&par, &ctx).unwrap();
        let mut got = collect_rows(op.as_mut()).unwrap();
        let key = |r: &Vec<Value>| (r[0].as_i64().unwrap(), r[2].as_f64().unwrap().to_bits());
        want.sort_by_key(key);
        got.sort_by_key(key);
        assert_eq!(got.len(), want.len());
        assert_eq!(got, want);
    }

    #[test]
    fn tiny_budget_spills_and_matches_unbounded() {
        let ctx = setup(5000);
        // part ⋈ lineitem puts the 5000-row side on the build, so the join
        // itself outgrows a 48 KiB budget; grouping on (quantity, price)
        // yields ~700 groups so the aggregation table outgrows it too.
        // Price values are multiples of 0.5, so f64 sums are exact under any
        // re-association (spill drains, dop>1 partials).
        let base = part_scan(&ctx)
            .join(li_scan(&ctx), JoinKind::Inner, vec![(0, 0)])
            .aggregate(
                vec![3, 4], // quantity, price
                vec![
                    AggExpr {
                        func: AggFunc::Sum,
                        arg: Some(Expr::col(4)),
                        name: "rev".into(),
                    },
                    AggExpr {
                        func: AggFunc::CountStar,
                        arg: None,
                        name: "n".into(),
                    },
                ],
            )
            .sort(vec![SortKey::asc(0), SortKey::desc(1)]);
        let mut unbounded = compile_plan(&base, &ctx).unwrap();
        let want = collect_rows(unbounded.as_mut()).unwrap();
        assert!(want.len() > 100);

        for dop in [1usize, 3] {
            let plan = if dop > 1 {
                parallelize(base.clone(), dop)
            } else {
                base.clone()
            };
            let mut tight = ctx.clone();
            tight.config.mem_budget_bytes = Some(48 << 10);
            tight.mem = Arc::new(MemBudget::from_config(&tight.config));
            let mut op = compile_plan(&plan, &tight).unwrap();
            let got = collect_rows(op.as_mut()).unwrap();
            assert_eq!(got, want, "dop {dop} diverged under 48 KiB budget");
            let stats = tight.mem.stats();
            assert!(stats.spill_bytes > 0, "dop {dop}: expected spilling");
            assert!(stats.peak > 0);
        }
    }

    #[test]
    fn nested_exchange_rejected() {
        let ctx = setup(10);
        let inner = LogicalPlan::Exchange {
            input: Box::new(li_scan(&ctx)),
            partitions: 2,
        };
        let outer = LogicalPlan::Exchange {
            input: Box::new(inner),
            partitions: 2,
        };
        let mut op = compile_plan(&outer, &ctx).unwrap();
        // The error surfaces on first next() from a worker thread.
        assert!(op.next().is_err());
    }

    #[test]
    fn error_in_worker_propagates() {
        let ctx = setup(50);
        // division by zero inside the parallel pipeline
        let bad = li_scan(&ctx).project(vec![(
            Expr::binary(
                BinOp::Div,
                Expr::lit(Value::I64(1)),
                Expr::lit(Value::I64(0)),
            ),
            "boom",
        )]);
        let par = LogicalPlan::Exchange {
            input: Box::new(bad),
            partitions: 2,
        };
        let mut op = compile_plan(&par, &ctx).unwrap();
        let mut saw_err = false;
        loop {
            match op.next() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => {
                    saw_err = true;
                    break;
                }
            }
        }
        assert!(saw_err);
        // The stream is poisoned: re-polling keeps returning the error, it
        // must never turn into a clean Ok(None) end-of-stream.
        assert!(op.next().is_err());
        assert!(op.next().is_err());
    }
}
