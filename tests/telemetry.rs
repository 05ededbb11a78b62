//! Observability end-to-end: system tables in both engines, per-worker
//! trace export, metrics registry consistency.

mod common;

use common::*;
use vectorwise::engine::operators::collect_rows;
use vectorwise::engine::{compile_plan, validate_chrome_json};
use vectorwise::sql::{compile_sql, BoundStatement};
use vectorwise::tpch::all_queries;
use vectorwise::{Database, Value};

/// Bind a SQL query against the database's catalog (no execution).
fn bind_query(db: &Database, sql: &str) -> vectorwise::plan::LogicalPlan {
    match compile_sql(sql, db).expect("bind") {
        BoundStatement::Query(plan) => plan,
        other => panic!("expected a query, got {:?}", std::mem::discriminant(&other)),
    }
}

#[test]
fn vw_queries_counts_match_in_both_engines() {
    let db = Database::new().unwrap();
    db.execute("CREATE TABLE t (a BIGINT NOT NULL)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    db.execute("SELECT SUM(a) FROM t").unwrap();
    db.execute("SELECT COUNT(*) FROM t WHERE a > 1").unwrap();

    // Both engines must see the same history snapshot: bind once, build one
    // context (one materialization), run through both compilers.
    let plan = bind_query(&db, "SELECT COUNT(*) FROM vw_queries");
    let ctx = db.plan_exec_context(&plan).unwrap();

    let mut vec_op = compile_plan(&plan, &ctx).expect("vectorized compile");
    let vectorized = collect_rows(vec_op.as_mut()).expect("vectorized run");

    let mut mat_op =
        vectorwise::baselines::compile_materialized(&plan, &ctx).expect("materialized compile");
    let materialized = collect_rows(mat_op.as_mut()).expect("materialized run");

    assert_eq!(vectorized, materialized);
    assert_eq!(vectorized[0][0], Value::I64(2), "two session queries ran");

    // And through the ordinary SQL path the count keeps tracking queries.
    let r = db.execute("SELECT COUNT(*) FROM vw_queries").unwrap();
    assert_eq!(r.rows[0][0], Value::I64(2));
    let r = db.execute("SELECT COUNT(*) FROM vw_queries").unwrap();
    assert_eq!(r.rows[0][0], Value::I64(3));
}

#[test]
fn tpch_q1_dop4_trace_covers_all_workers() {
    let (db, cat) = tpch_db(0.01);
    db.set_parallelism(4);
    let q1 = all_queries(&cat)
        .into_iter()
        .find(|(n, _)| *n == 1)
        .map(|(_, plan)| plan)
        .expect("TPC-H Q1");
    let rows = db.run_plan(q1).expect("Q1 run").rows;
    assert!(!rows.is_empty());

    let json = db.export_trace().expect("trace recorded");
    let events = validate_chrome_json(&json).expect("valid chrome://tracing JSON");
    assert!(events > 0);

    let trace = db.last_trace().unwrap();
    let workers = trace.worker_ids();
    for w in 1..=4 {
        assert!(
            workers.contains(&w),
            "no trace events from worker {w}: saw {workers:?}"
        );
        assert!(
            trace
                .events()
                .iter()
                .any(|e| e.worker == w && e.dur_ns.is_some()),
            "worker {w} recorded no spans"
        );
    }
}

#[test]
fn every_system_table_is_queryable_after_a_workload() {
    let (db, cat) = tpch_db(0.002);
    db.set_parallelism(2);
    // `vw_cache` has one row per attached cache, and the ABM is the only one.
    db.enable_cooperative_scans(8 << 20);
    for (_, plan) in all_queries(&cat).into_iter().take(4) {
        db.run_plan(plan).expect("workload query");
    }
    for name in [
        "vw_queries",
        "vw_operator_stats",
        "vw_metrics",
        "vw_io",
        "vw_cache",
    ] {
        let r = db
            .execute(&format!("SELECT COUNT(*) FROM {}", name))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let n = match r.rows[0][0] {
            Value::I64(n) => n,
            ref other => panic!("{name}: unexpected count type {other:?}"),
        };
        assert!(n > 0, "{name} is empty after a workload");
    }
    // Registry sanity: morsel/build counters flowed in from the scheduler.
    let r = db
        .execute("SELECT value FROM vw_metrics WHERE name = 'morsels_claimed_total'")
        .unwrap();
    assert!(matches!(r.rows[0][0], Value::F64(v) if v > 0.0));
    // The flattened query-latency histogram counted the workload queries.
    let r = db
        .execute("SELECT value FROM vw_metrics WHERE name = 'query_wall_ns_count'")
        .unwrap();
    assert!(
        matches!(r.rows[0][0], Value::F64(v) if v >= 4.0),
        "histogram count missing or too low: {:?}",
        r.rows
    );
}
