//! Top-N differential suite: every `ORDER BY … LIMIT` compiles to the fused
//! `TopN`, whatever N, and must return exactly the rows a full sort under a
//! plain limit returns, and the rows the tuple-at-a-time engine returns.
//!
//! Each statement runs three ways and is compared byte for byte (doubles by
//! their bits):
//!
//! 1. as written, through `TopN`;
//! 2. without its `LIMIT`, through `VecSort`, then sliced to the limit —
//!    the Sort + Limit the fusion replaces;
//! 3. as written, on the row engine.
//!
//! The table is larger than the largest N tested below it, so the pool is
//! cut several times for small N and never for large N. The shapes:
//!
//! - N in {1, 10, 1023, 1024, 8192, 8193, 10 000, rows − 1, rows, rows + 1}
//!   with OFFSET 0 and 7, over input in random, best-first and worst-first
//!   order;
//! - a key with 13 values, so ties straddle every cut and first arrivals
//!   must win;
//! - strings that all share their 8-byte prefix, so every cut compares them
//!   in full;
//! - a nullable key whose first NULL arrives after the first cut, so the
//!   key layout widens after a bound exists;
//! - mixed ASC/DESC with NULLS FIRST/LAST, at dop 1 and 4;
//! - a memory budget too small for the pool, which takes the fallback.

use std::collections::HashMap;

use vw_baselines::{collect_row_engine, compile_row};
use vw_common::rng::Xoshiro256;
use vw_common::{DataType, Field, Schema, Value};
use vw_core::operators::{collect_rows, BatchSource, BoxedOperator, TopN, VecLimit, VecSort};
use vw_core::{Batch, Database};
use vw_plan::SortKey;
use vw_sql::{bind, parse_statement, BoundStatement};

const ROWS: usize = 12_000;

/// The first row whose `n` is NULL: after the first cut of every N below
/// 1500 (their pools are cut at max(2N, 1024) rows).
const FIRST_NULL: usize = 3_000;

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::I64),
        Field::new("k", DataType::I64),
        Field::new("s", DataType::Str),
        Field::new("x", DataType::F64),
        Field::nullable("n", DataType::I64),
    ])
}

/// `id` is the arrival order; `k` has 13 values; every `s` starts with
/// the same 8 bytes; `x` is random; `n` turns NULL on every fifth row from
/// [`FIRST_NULL`] on.
fn rows() -> Vec<Vec<Value>> {
    let mut r = Xoshiro256::seeded(33);
    (0..ROWS)
        .map(|i| {
            let n = match i >= FIRST_NULL && i % 5 == 0 {
                true => Value::Null,
                false => Value::I64((i % 101) as i64),
            };
            vec![
                Value::I64(i as i64),
                Value::I64(((i * 7919) % 13) as i64),
                Value::Str(format!("samepref{:04}", (i * 31) % 1000)),
                Value::F64((r.next_f64() * 2e6).round() / 100.0 - 1e4),
                n,
            ]
        })
        .collect()
}

fn database() -> Database {
    let db = Database::new().unwrap();
    db.create_table("t", schema()).unwrap();
    db.bulk_load("t", rows()).unwrap();
    db.analyze("t").unwrap();
    db
}

/// The statement on the tuple-at-a-time engine.
fn row_engine(db: &Database, sql: &str) -> Vec<Vec<Value>> {
    let BoundStatement::Query(plan) = bind(&parse_statement(sql).unwrap(), db).unwrap() else {
        panic!("not a query: {sql}")
    };
    let plan = db.optimize_plan(plan);
    let ctx = db.plan_exec_context(&plan).unwrap();
    let tables: HashMap<_, _> = ctx
        .tables
        .iter()
        .map(|(id, p)| (*id, p.storage.clone()))
        .collect();
    let mut op = compile_row(&plan, &tables).expect("row compile");
    collect_row_engine(op.as_mut()).expect("row run")
}

/// Byte-identical: doubles by their bits.
fn assert_same(got: &[Vec<Value>], want: &[Vec<Value>], what: &str) {
    let same = |a: &Value, b: &Value| match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (a, b) => a == b,
    };
    assert_eq!(got.len(), want.len(), "{what}: row count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.len() == w.len() && g.iter().zip(w).all(|(a, b)| same(a, b)),
            "{what}: row {i} is {g:?}, want {w:?}"
        );
    }
}

/// The `Limit` line of the statement's `EXPLAIN ANALYZE`.
fn limit_line(db: &Database, sql: &str) -> String {
    let plan = db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    let lines = plan.rows.iter().map(|r| r[0].to_string());
    let mut lines = lines.filter(|l| l.trim_start().starts_with("Limit"));
    lines
        .next()
        .unwrap_or_else(|| panic!("no Limit line for {sql}"))
}

/// Run `select … order by` with `LIMIT fetch OFFSET offset` three ways,
/// compare, and return the rows. Its sort keys must be output columns: a
/// hidden one puts a Project between the Limit and the Sort, which do not
/// fuse then.
fn check(db: &Database, select: &str, fetch: usize, offset: usize) -> Vec<Vec<Value>> {
    let sql = format!("{select} LIMIT {fetch} OFFSET {offset}");
    assert!(limit_line(db, &sql).contains("topn=1"), "{sql} is no Top-N");
    let got = db.execute(&sql).unwrap().rows;
    let all = db.execute(select).unwrap().rows;
    let from = offset.min(all.len());
    let sorted = &all[from..(from + fetch).min(all.len())];
    assert_same(&got, sorted, &format!("{sql} vs Sort + Limit"));
    assert_same(
        &got,
        &row_engine(db, &sql),
        &format!("{sql} vs the row engine"),
    );
    got
}

const NS: [usize; 10] = [
    1,
    10,
    1023,
    1024,
    8192,
    8193,
    10_000,
    ROWS - 1,
    ROWS,
    ROWS + 1,
];

#[test]
fn every_n_in_random_best_first_and_worst_first_order() {
    let db = database();
    let orders = ["ORDER BY x DESC, id", "ORDER BY id", "ORDER BY id DESC"];
    for order in orders {
        let select = format!("SELECT id, k, x FROM t {order}");
        for n in NS {
            for offset in [0, 7] {
                check(&db, &select, n, offset);
            }
        }
    }
}

#[test]
fn worst_first_input_doubles_the_threshold_instead_of_cutting() {
    let db = database();
    let line = limit_line(&db, "SELECT id FROM t ORDER BY id DESC LIMIT 10");
    // The first cut's bound rejects nothing after it: one cut, then the
    // final selection.
    for key in [
        "topn=1",
        "topn_cut_rows=0",
        "topn_cuts=2",
        "topn_pool_rows=10986",
    ] {
        assert!(line.contains(key), "{key} missing: {line}");
    }
    let line = limit_line(&db, "SELECT id FROM t ORDER BY id LIMIT 10");
    assert!(line.contains("topn_cut_rows=10976"), "best first: {line}");
}

#[test]
fn duplicate_keys_keep_first_arrivals_across_cuts() {
    let db = database();
    for order in ["ORDER BY k", "ORDER BY k DESC", "ORDER BY k, x DESC"] {
        let select = format!("SELECT k, id, x FROM t {order}");
        for n in [1, 10, 1023, 1500, 8193] {
            check(&db, &select, n, 7);
        }
    }
}

#[test]
fn string_keys_tied_on_their_prefix_compare_in_full() {
    let db = database();
    for order in [
        "ORDER BY s",
        "ORDER BY s DESC",
        "ORDER BY k, s DESC",
        "ORDER BY s, id DESC",
    ] {
        let select = format!("SELECT s, k, id FROM t {order}");
        for n in [1, 10, 1023, 1024, 8193] {
            check(&db, &select, n, 0);
        }
    }
}

#[test]
fn a_null_arriving_after_the_first_cut_widens_the_layout() {
    let db = database();
    for order in [
        "ORDER BY n, id",
        "ORDER BY n NULLS LAST, id DESC",
        "ORDER BY n DESC NULLS FIRST, k",
        "ORDER BY n DESC NULLS LAST, id",
    ] {
        let select = format!("SELECT n, id, k FROM t {order}");
        for n in [1, 10, 1023, 1024, 8192] {
            check(&db, &select, n, 7);
        }
    }
}

/// At dop 4 the plan is not the row engine's to run: the rows must equal
/// the serial run's (each key list ends in `id`, so the order is total) and
/// the parallel Sort + Limit's.
#[test]
fn mixed_directions_at_dop_1_and_4() {
    let db = database();
    let orders = [
        "ORDER BY k DESC, n NULLS FIRST, s, id",
        "ORDER BY n DESC NULLS LAST, x, id DESC",
        "ORDER BY s DESC, k, x DESC, id",
    ];
    for order in orders {
        let select = format!("SELECT id, k, s, x, n FROM t {order}");
        for n in [1, 10, 1023, 8193, ROWS + 1] {
            db.set_parallelism(1);
            let serial = check(&db, &select, n, 7);
            db.set_parallelism(4);
            let sql = format!("{select} LIMIT {n} OFFSET 7");
            let got = db.execute(&sql).unwrap().rows;
            assert_same(&got, &serial, &format!("{sql} at dop 4"));
            let all = db.execute(&select).unwrap().rows;
            let sorted = &all[7.min(all.len())..(7 + n).min(all.len())];
            assert_same(&got, sorted, &format!("{sql} at dop 4 vs Sort + Limit"));
        }
    }
}

#[test]
fn a_small_budget_takes_the_fallback_and_keeps_the_rows() {
    let db = database();
    let select = "SELECT id, k, s, x, n FROM t ORDER BY x, id DESC";
    let want: Vec<_> = db.execute(select).unwrap().rows[..10_000].to_vec();
    db.execute("SET memory_budget = '256KiB'").unwrap();
    let sql = format!("{select} LIMIT 10000");
    assert_same(&db.execute(&sql).unwrap().rows, &want, "under budget");
    assert!(limit_line(&db, &sql).contains("topn_fallback=1"));
    assert_same(&row_engine(&db, &sql), &want, "row engine");
}

/// The operator alone, against `VecSort` under `VecLimit`, over vectors of
/// several sizes: each vector is one admission step.
#[test]
fn operator_matches_sort_plus_limit() {
    let (schema, rows) = (schema(), rows());
    let source = |vector: usize| -> BoxedOperator {
        let batches = rows
            .chunks(vector)
            .map(|c| Batch::from_rows(&schema, c).unwrap());
        Box::new(BatchSource::new(schema.clone(), batches.collect()))
    };
    let key_sets = [
        vec![SortKey::desc(3)],
        vec![SortKey::asc(1), SortKey::desc(2)],
        vec![SortKey::desc(0)],
        vec![
            SortKey {
                col: 4,
                asc: true,
                nulls_first: false,
            },
            SortKey::asc(2),
        ],
    ];
    for keys in key_sets {
        for (vector, n, offset) in [(1024, 10, 0), (100, 1500, 7), (7, 40, 3), (1024, ROWS, 7)] {
            let mut sort = VecLimit::new(
                Box::new(VecSort::new(source(vector), keys.clone(), 1024)),
                offset as u64,
                n as u64,
            );
            let want = collect_rows(&mut sort).unwrap();
            let mut topn = TopN::new(source(vector), keys.clone(), offset as u64, n as u64, 1024);
            let got = collect_rows(&mut topn).unwrap();
            assert_same(
                &got,
                &want,
                &format!("{keys:?} n={n} offset={offset} vector={vector}"),
            );
        }
    }
}
