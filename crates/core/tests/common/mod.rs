//! Shared helpers for the vw-core integration suites.

use vw_common::config::EngineConfig;
use vw_common::Value;
use vw_core::operators::{collect_rows, BoxedOperator, HashAggregate};
use vw_core::{compile_plan, Database};
use vw_plan::LogicalPlan;

/// Run `plan` as written (no optimizer) on the vectorized engine under
/// `config`, with an `Aggregate` root built on the generic hash table alone —
/// the operator as `compile_plan` builds it, minus the perfect-hash attempt.
/// Returns the rows and the bytes spilled.
pub fn run_generic(
    db: &Database,
    plan: &LogicalPlan,
    config: EngineConfig,
) -> (Vec<Vec<Value>>, u64) {
    let ctx = db.exec_context_with(None, config).unwrap();
    let mut op: BoxedOperator = match plan {
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            phase,
        } => {
            let child = compile_plan(input, &ctx).expect("compile");
            let mut agg = HashAggregate::new(
                child,
                group_by.clone(),
                aggs.clone(),
                *phase,
                ctx.config.vector_size,
                !ctx.config.rewrite_nulls,
            )
            .expect("aggregate");
            agg.set_env(ctx.query_env(None));
            Box::new(agg)
        }
        _ => compile_plan(plan, &ctx).expect("compile"),
    };
    let rows = collect_rows(op.as_mut()).expect("vectorized run");
    (rows, ctx.mem.stats().spill_bytes)
}
