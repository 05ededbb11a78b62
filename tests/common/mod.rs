//! Shared helpers for the integration test suites.
//!
//! Each integration test binary compiles this module separately and uses a
//! different subset of it.
#![allow(dead_code)]

use std::collections::HashMap;
use std::sync::Arc;
use vectorwise::engine::compile_plan;
use vectorwise::engine::operators::collect_rows;
use vectorwise::plan::LogicalPlan;
use vectorwise::sql::{compile_sql, BoundStatement};
use vectorwise::tpch::{tpch_schema, TpchCatalog, TpchGenerator, TPCH_TABLES};
use vectorwise::{Database, Value};

/// Load a full TPC-H database at the given scale factor.
pub fn tpch_db(sf: f64) -> (Database, TpchCatalog) {
    let db = Database::new().expect("db");
    let generator = TpchGenerator::new(sf);
    for table in TPCH_TABLES {
        let schema = tpch_schema(table).unwrap();
        db.create_table(table, schema).unwrap();
        db.bulk_load(table, generator.rows(table)).unwrap();
    }
    let cat = TpchCatalog::new(|name| {
        use vectorwise::sql::CatalogView;
        db.resolve_table(name)
    })
    .unwrap();
    (db, cat)
}

/// Bind a SQL query against the database's catalog (no execution).
pub fn bind_query(db: &Database, sql: &str) -> LogicalPlan {
    match compile_sql(sql, db).expect("bind") {
        BoundStatement::Query(plan) => plan,
        other => panic!("expected a query, got {:?}", std::mem::discriminant(&other)),
    }
}

/// Run a plan on the vectorized engine (optionally through the optimizer /
/// rewriter with the database's current config).
pub fn run_vectorized(db: &Database, plan: &LogicalPlan) -> Vec<Vec<Value>> {
    db.run_plan(plan.clone()).expect("vectorized run").rows
}

/// Run a raw (un-rewritten) plan on the vectorized engine.
pub fn run_vectorized_raw(db: &Database, plan: &LogicalPlan) -> Vec<Vec<Value>> {
    let ctx = db.exec_context(None).unwrap();
    let mut op = compile_plan(plan, &ctx).expect("compile");
    collect_rows(op.as_mut()).expect("run")
}

/// Run a plan on the tuple-at-a-time baseline.
pub fn run_row_engine(db: &Database, plan: &LogicalPlan) -> Vec<Vec<Value>> {
    let ctx = db.exec_context(None).unwrap();
    let tables: HashMap<_, _> = ctx
        .tables
        .iter()
        .map(|(id, p)| (*id, Arc::clone(&p.storage)))
        .collect();
    let mut op = vectorwise::baselines::compile_row(plan, &tables).expect("row compile");
    vectorwise::baselines::collect_row_engine(op.as_mut()).expect("row run")
}

/// Run a plan on the full-materialization baseline.
pub fn run_materialized(db: &Database, plan: &LogicalPlan) -> Vec<Vec<Value>> {
    let ctx = db.exec_context(None).unwrap();
    let mut op =
        vectorwise::baselines::compile_materialized(plan, &ctx).expect("materialized compile");
    collect_rows(op.as_mut()).expect("materialized run")
}

/// Canonicalize: sort rows with the total order so engine outputs compare
/// independent of tie order.
pub fn canonical(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b.iter()) {
            let o = x.total_cmp(y);
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        std::cmp::Ordering::Equal
    });
    rows
}

/// Approximate row-set equality: exact for non-floats, relative tolerance
/// for doubles (parallel plans sum in different orders).
pub fn assert_rows_match(tag: &str, got: &[Vec<Value>], want: &[Vec<Value>]) {
    assert_eq!(
        got.len(),
        want.len(),
        "{}: row count {} vs {}",
        tag,
        got.len(),
        want.len()
    );
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(g.len(), w.len(), "{}: row {} arity", tag, i);
        for (c, (gv, wv)) in g.iter().zip(w.iter()).enumerate() {
            let ok = match (gv, wv) {
                (Value::F64(a), Value::F64(b)) => {
                    let scale = a.abs().max(b.abs()).max(1.0);
                    (a - b).abs() <= scale * 1e-9
                }
                _ => gv == wv,
            };
            assert!(
                ok,
                "{}: row {} col {}: {} vs {}\n got: {:?}\nwant: {:?}",
                tag, i, c, gv, wv, g, w
            );
        }
    }
}
