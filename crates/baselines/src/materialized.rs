//! The full-materialization (MonetDB-style, column-at-a-time) baseline.
//!
//! MonetDB's execution model — which X100 was built to replace (§I-A) —
//! processes one whole column operation at a time, materializing every
//! intermediate result in full. We reproduce that model by compiling the
//! plan with the *same* vectorized operators as `vw-core` but inserting a
//! **materialization barrier** between every pair of operators: the child's
//! entire output is drained into one giant dense batch before the parent
//! sees a single row. The arithmetic kernels are therefore identical to the
//! vectorized engine's; what differs is exactly what the paper says differs:
//! intermediates grow to full relation size, spilling out of cache and
//! costing allocation/memory bandwidth (experiment E3).

use vw_common::{Result, Schema, VwError};
use vw_core::batch::Batch;
use vw_core::compile::ExecContext;
use vw_core::operators::{
    drain_to_single_batch, BatchSource, BoxedOperator, HashAggregate, HashJoin, Operator,
    VecFilter, VecLimit, VecProject, VecScan, VecSort,
};
use vw_plan::{JoinKind, LogicalPlan};

/// Drains its child completely into one dense batch, then emits it once —
/// the materialization barrier.
struct Materializer {
    schema: Schema,
    child: Option<BoxedOperator>,
    batch: Option<Batch>,
}

impl Materializer {
    fn new(child: BoxedOperator) -> Materializer {
        Materializer {
            schema: child.schema().clone(),
            child: Some(child),
            batch: None,
        }
    }
}

impl Operator for Materializer {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if let Some(mut child) = self.child.take() {
            let batch = drain_to_single_batch(child.as_mut())?;
            if batch.rows > 0 || batch.columns.is_empty() {
                self.batch = Some(batch);
            }
        }
        Ok(self.batch.take())
    }
}

/// Compile a plan for the materialized engine: vw-core operators with a
/// barrier under each one. The scan itself also materializes whole-table
/// column images (vector size = entire input), matching column-at-a-time
/// processing.
pub fn compile_materialized(plan: &LogicalPlan, ctx: &ExecContext) -> Result<BoxedOperator> {
    // Whole-column "vectors": effectively unbounded vector size.
    let mut mat_ctx = ctx.clone();
    mat_ctx.config.vector_size = usize::MAX / 2;
    compile_rec(plan, &mat_ctx)
}

fn compile_rec(plan: &LogicalPlan, ctx: &ExecContext) -> Result<BoxedOperator> {
    let naive = !ctx.config.rewrite_nulls;
    let barrier = |op: BoxedOperator| -> BoxedOperator { Box::new(Materializer::new(op)) };
    Ok(match plan {
        LogicalPlan::Scan {
            table_id,
            schema,
            projection,
            filter,
            ..
        } => {
            let provider = ctx
                .tables
                .get(table_id)
                .ok_or_else(|| VwError::Plan(format!("no table provider for {}", table_id)))?;
            let projection = match projection {
                Some(p) => p.clone(),
                None => (0..schema.len()).collect(),
            };
            barrier(Box::new(VecScan::new(
                provider.storage.clone(),
                provider.pdt.clone(),
                projection,
                filter.clone(),
                ctx.config.vector_size,
                naive,
                false,
            )?))
        }
        LogicalPlan::Filter { input, predicate } => {
            let child = compile_rec(input, ctx)?;
            barrier(Box::new(VecFilter::new(child, predicate.clone(), naive)?))
        }
        LogicalPlan::Project { input, exprs } => {
            let child = compile_rec(input, ctx)?;
            barrier(Box::new(VecProject::new(child, exprs.clone(), naive)?))
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            residual,
        } => {
            let l = compile_rec(left, ctx)?;
            let r = compile_rec(right, ctx)?;
            let mut join = HashJoin::new(l, r, *kind, on.clone(), residual.clone(), naive)?;
            join.set_env(ctx.query_env(None));
            barrier(Box::new(join))
        }
        // The materialized baseline has no streaming merge join; an inner
        // hash join produces the same rows (order is irrelevant behind full
        // materialization barriers).
        LogicalPlan::MergeJoin { left, right, on } => {
            let l = compile_rec(left, ctx)?;
            let r = compile_rec(right, ctx)?;
            let mut join = HashJoin::new(l, r, JoinKind::Inner, on.clone(), None, naive)?;
            join.set_env(ctx.query_env(None));
            barrier(Box::new(join))
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            phase,
        } => {
            let child = compile_rec(input, ctx)?;
            let mut agg = HashAggregate::new(
                child,
                group_by.clone(),
                aggs.clone(),
                *phase,
                ctx.config.vector_size,
                naive,
            )?;
            agg.set_env(ctx.query_env(None));
            barrier(Box::new(agg))
        }
        LogicalPlan::Sort { input, keys } => {
            let child = compile_rec(input, ctx)?;
            let mut sort = VecSort::new(child, keys.clone(), ctx.config.vector_size);
            sort.set_env(ctx.query_env(None));
            barrier(Box::new(sort))
        }
        LogicalPlan::Limit {
            input,
            offset,
            fetch,
        } => {
            let child = compile_rec(input, ctx)?;
            barrier(Box::new(VecLimit::new(child, *offset, *fetch)))
        }
        LogicalPlan::Exchange { input, .. } => {
            // MonetDB-style engine runs serial here; execute the child.
            compile_rec(input, ctx)?
        }
    })
}

/// Test helper: wrap fixed batches in a materializer (exposes the barrier).
pub fn materialize_source(schema: Schema, batches: Vec<Batch>) -> BoxedOperator {
    Box::new(Materializer::new(Box::new(BatchSource::new(
        schema, batches,
    ))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::RwLock;
    use std::collections::HashMap;
    use std::sync::Arc;
    use vw_common::config::EngineConfig;
    use vw_common::{DataType, Field, TableId, Value};
    use vw_core::compile::{compile_plan, TableProvider};
    use vw_core::operators::collect_rows;
    use vw_pdt::Pdt;
    use vw_plan::{AggExpr, AggFunc, BinOp, Expr};
    use vw_storage::{SimDisk, SimDiskConfig, TableBuilder};

    fn setup(n: usize) -> (ExecContext, TableId, Schema) {
        let disk = Arc::new(SimDisk::new(SimDiskConfig::default()));
        let schema = Schema::new(vec![
            Field::new("k", DataType::I64),
            Field::new("v", DataType::F64),
        ]);
        let mut b = TableBuilder::with_group_size(schema.clone(), disk, 128);
        for i in 0..n {
            b.push_row(vec![Value::I64(i as i64), Value::F64(i as f64 * 0.5)])
                .unwrap();
        }
        let storage = b.finish().unwrap();
        let tid = TableId::new(1);
        let mut tables = HashMap::new();
        tables.insert(
            tid,
            TableProvider {
                storage: Arc::new(RwLock::new(storage)),
                pdt: Arc::new(Pdt::new(n as u64)),
            },
        );
        (
            ExecContext::new(tables, EngineConfig::default()),
            tid,
            schema,
        )
    }

    #[test]
    fn materialized_matches_vectorized() {
        let (ctx, tid, schema) = setup(500);
        let plan = LogicalPlan::scan("t", tid, schema)
            .filter(Expr::binary(
                BinOp::Gt,
                Expr::col(0),
                Expr::lit(Value::I64(100)),
            ))
            .aggregate(
                vec![],
                vec![
                    AggExpr {
                        func: AggFunc::CountStar,
                        arg: None,
                        name: "n".into(),
                    },
                    AggExpr {
                        func: AggFunc::Sum,
                        arg: Some(Expr::col(1)),
                        name: "s".into(),
                    },
                ],
            );
        let mut vec_op = compile_plan(&plan, &ctx).unwrap();
        let want = collect_rows(vec_op.as_mut()).unwrap();
        let mut mat_op = compile_materialized(&plan, &ctx).unwrap();
        let got = collect_rows(mat_op.as_mut()).unwrap();
        assert_eq!(got, want);
        assert_eq!(got[0][0], Value::I64(399));
    }

    #[test]
    fn barrier_emits_exactly_one_batch() {
        let (ctx, tid, schema) = setup(1000);
        let plan = LogicalPlan::scan("t", tid, schema);
        let mut op = compile_materialized(&plan, &ctx).unwrap();
        let first = op.next().unwrap().unwrap();
        assert_eq!(first.rows, 1000); // whole table in one batch
        assert!(op.next().unwrap().is_none());
    }

    #[test]
    fn exchange_degrades_to_serial() {
        let (ctx, tid, schema) = setup(50);
        let plan = LogicalPlan::Exchange {
            input: Box::new(LogicalPlan::scan("t", tid, schema)),
            partitions: 4,
        };
        let mut op = compile_materialized(&plan, &ctx).unwrap();
        let rows = collect_rows(op.as_mut()).unwrap();
        assert_eq!(rows.len(), 50);
    }
}
