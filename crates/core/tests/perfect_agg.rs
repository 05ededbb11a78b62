//! Perfect-hash aggregation equivalence suite.
//!
//! The direct-array aggregation path (`operators::perfect`) must be
//! observationally identical to the generic hash path for every input it
//! accepts — including the inputs that make it bail out halfway. Each
//! property runs the same random aggregate twice, once on a `HashAggregate`
//! built without the perfect-hash attempt and once as the engine compiles
//! it, and compares rows:
//!
//! * random group keys (low-cardinality strings with NULLs, small ints,
//!   bools) under COUNT/SUM/MIN/MAX/AVG, at dop 1 and dop 4;
//! * f64 edge cases: ±0.0 and NaN flowing through SUM/AVG/MIN/MAX (dop 1,
//!   where accumulation order is deterministic);
//! * a 32 KiB execution-memory budget, which refuses the flat table's
//!   reservation and must degrade to the generic path, not fail;
//! * a key domain that blows past the perfect coder's string cap
//!   mid-stream, forcing the runtime fallback merge.
//!
//! Both paths fold into the same accumulator rows, so the last group of
//! tests compares them with the row engine instead, byte for byte: COUNT,
//! SUM and AVG sharing lanes over nullable and NULL-free arguments, a group
//! whose argument is all NULL, an integer SUM beside an AVG of the same
//! column, NULLs a LEFT JOIN or an IN list holding NULL makes, ±0.0 and NaN,
//! and more groups than the direct array holds — serial, at dop 4 and under
//! budgets that spill.

mod common;

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use vw_baselines::{collect_row_engine, compile_row};
use vw_common::rng::Xoshiro256;
use vw_common::{DataType, Field, Schema, Value};
use vw_core::operators::perfect;
use vw_core::Database;
use vw_plan::{AggExpr, AggFunc, Expr, LogicalPlan};

fn agg(func: AggFunc, col: Option<usize>, name: &str) -> AggExpr {
    AggExpr {
        func,
        arg: col.map(Expr::col),
        name: name.into(),
    }
}

/// NaN-tolerant row equality: both-NaN is equal, otherwise `==` (which
/// already treats -0.0 and +0.0 as equal, matching SQL semantics).
fn rows_equiv(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra.iter().zip(rb).all(|(va, vb)| match (va, vb) {
                    (Value::F64(x), Value::F64(y)) => (x.is_nan() && y.is_nan()) || x == y,
                    _ => va == vb,
                })
        })
}

fn sort_canonical(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| format!("{:?}", a).cmp(&format!("{:?}", b)));
    rows
}

/// The plan's rows from the generic hash table alone, serial.
fn generic(db: &Database, plan: &LogicalPlan) -> Vec<Vec<Value>> {
    sort_canonical(common::run_generic(db, plan, db.config()).0)
}

/// The plan's rows as the engine runs it at `dop`: the perfect-hash path
/// wherever the key domain and history allow it.
fn engine(db: &Database, plan: &LogicalPlan, dop: usize) -> Vec<Vec<Value>> {
    db.set_parallelism(dop);
    sort_canonical(db.run_plan(plan.clone()).expect("aggregate runs").rows)
}

fn load(db: &Database, schema: Schema, rows: Vec<Vec<Value>>) -> (vw_common::TableId, Schema) {
    let tid = db.create_table("t", schema.clone()).unwrap();
    db.bulk_load("t", rows).unwrap();
    (tid, schema)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn perfect_path_matches_generic(seed in 0u64..1_000_000) {
        let mut r = Xoshiro256::seeded(seed);
        let dict = ["AA", "BB", "CC", "DD", "EE", "FF"];
        let n = 800 + r.next_below(2500) as usize;
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|_| {
                vec![
                    if r.chance(0.06) {
                        Value::Null
                    } else {
                        Value::Str(dict[r.next_below(dict.len() as u64) as usize].into())
                    },
                    Value::I64(r.range_i64(3, 17)),
                    Value::Bool(r.chance(0.5)),
                    if r.chance(0.04) {
                        Value::Null
                    } else {
                        // Multiples of 0.25: f64-exact, so dop-4 combine
                        // order cannot perturb sums.
                        Value::F64(r.range_i64(-400, 400) as f64 / 4.0)
                    },
                    Value::I64(r.range_i64(-1000, 1000)),
                ]
            })
            .collect();
        let schema = Schema::new(vec![
            Field::nullable("g", DataType::Str),
            Field::new("h", DataType::I64),
            Field::new("b", DataType::Bool),
            Field::nullable("x", DataType::F64),
            Field::new("y", DataType::I64),
        ]);
        let db = Database::new().unwrap();
        let (tid, schema) = load(&db, schema, rows);
        // Random subset of the three key columns (possibly empty = scalar).
        let mut group_by = Vec::new();
        for k in 0..3usize {
            if r.chance(0.6) {
                group_by.push(k);
            }
        }
        let plan = LogicalPlan::scan("t", tid, schema).aggregate(
            group_by,
            vec![
                agg(AggFunc::CountStar, None, "n"),
                agg(AggFunc::Count, Some(3), "nx"),
                agg(AggFunc::Sum, Some(3), "sx"),
                agg(AggFunc::Sum, Some(4), "sy"),
                agg(AggFunc::Avg, Some(3), "ax"),
                agg(AggFunc::Min, Some(4), "mn"),
                agg(AggFunc::Max, Some(3), "mx"),
            ],
        );
        let want = generic(&db, &plan);
        for dop in [1usize, 4] {
            let got = engine(&db, &plan, dop);
            prop_assert!(
                rows_equiv(&got, &want),
                "dop={} perfect diverged:\n  got  {:?}\n  want {:?}",
                dop, got, want
            );
        }
    }

    #[test]
    fn f64_zero_and_nan_edges_match(seed in 0u64..1_000_000) {
        let mut r = Xoshiro256::seeded(seed ^ 0x5eed);
        let n = 200 + r.next_below(800) as usize;
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|_| {
                let x = match r.next_below(5) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f64::NAN,
                    3 => r.range_i64(-100, 100) as f64 / 4.0,
                    _ => return vec![
                        Value::Bool(r.chance(0.5)),
                        Value::Null,
                    ],
                };
                vec![Value::Bool(r.chance(0.5)), Value::F64(x)]
            })
            .collect();
        let schema = Schema::new(vec![
            Field::new("g", DataType::Bool),
            Field::nullable("x", DataType::F64),
        ]);
        let db = Database::new().unwrap();
        let (tid, schema) = load(&db, schema, rows);
        let plan = LogicalPlan::scan("t", tid, schema).aggregate(
            vec![0],
            vec![
                agg(AggFunc::Sum, Some(1), "s"),
                agg(AggFunc::Avg, Some(1), "a"),
                agg(AggFunc::Min, Some(1), "mn"),
                agg(AggFunc::Max, Some(1), "mx"),
            ],
        );
        let want = generic(&db, &plan);
        let got = engine(&db, &plan, 1);
        prop_assert!(
            rows_equiv(&got, &want),
            "NaN/±0.0 edges diverged:\n  got  {:?}\n  want {:?}",
            got, want
        );
    }
}

/// A 32 KiB execution budget cannot host the flat accumulator table for a
/// string×int key; the perfect path must decline its reservation and the
/// query must still answer correctly through the generic (spilling) path.
#[test]
fn tiny_budget_degrades_to_generic_and_matches() {
    let dict = ["a", "b", "c", "d", "e", "f", "g", "h"];
    let mut r = Xoshiro256::seeded(99);
    let rows: Vec<Vec<Value>> = (0..4000)
        .map(|_| {
            vec![
                Value::Str(dict[r.next_below(8) as usize].into()),
                Value::I64(r.range_i64(0, 30)),
                Value::F64(r.range_i64(0, 1000) as f64 / 4.0),
            ]
        })
        .collect();
    let schema = Schema::new(vec![
        Field::new("g", DataType::Str),
        Field::new("h", DataType::I64),
        Field::new("x", DataType::F64),
    ]);
    let db = Database::new().unwrap();
    let (tid, schema) = load(&db, schema, rows);
    let plan = LogicalPlan::scan("t", tid, schema).aggregate(
        vec![0, 1],
        vec![
            agg(AggFunc::CountStar, None, "n"),
            agg(AggFunc::Sum, Some(2), "s"),
            agg(AggFunc::Avg, Some(2), "a"),
        ],
    );
    let want = generic(&db, &plan);
    db.set_mem_budget(Some(32 * 1024));
    let got = engine(&db, &plan, 1);
    assert!(
        rows_equiv(&got, &want),
        "budgeted run diverged:\n  got  {:?}\n  want {:?}",
        got,
        want
    );
}

/// More distinct group strings than the perfect coder's per-key cap: the
/// flat table starts absorbing, hits an out-of-domain code mid-stream, and
/// must hand its partial state to the generic table without losing or
/// double-counting any group.
#[test]
fn over_cap_key_domain_falls_back_mid_stream() {
    let mut r = Xoshiro256::seeded(7);
    // First half uses 8 strings (absorbed by the flat table), second half
    // introduces 100 more (over the 32-distinct cap).
    let rows: Vec<Vec<Value>> = (0..6000)
        .map(|i| {
            let g = if i < 3000 {
                format!("g{}", r.next_below(8))
            } else {
                format!("g{}", r.next_below(100))
            };
            vec![Value::Str(g), Value::F64(r.range_i64(0, 100) as f64)]
        })
        .collect();
    let schema = Schema::new(vec![
        Field::new("g", DataType::Str),
        Field::nullable("x", DataType::F64),
    ]);
    let db = Database::new().unwrap();
    let (tid, schema) = load(&db, schema, rows);
    let plan = LogicalPlan::scan("t", tid, schema).aggregate(
        vec![0],
        vec![
            agg(AggFunc::CountStar, None, "n"),
            agg(AggFunc::Sum, Some(1), "s"),
            agg(AggFunc::Avg, Some(1), "a"),
        ],
    );
    let want = generic(&db, &plan);
    let got = engine(&db, &plan, 1);
    assert_eq!(got.len(), 100, "one row per distinct group");
    assert!(
        rows_equiv(&got, &want),
        "fallback run diverged:\n  got  {:?}\n  want {:?}",
        got,
        want
    );
    // The profile must admit what happened.
    let prof = db.profile_last_query().expect("profiling on by default");
    let extras: Vec<_> = prof
        .nodes()
        .into_iter()
        .filter(|n| n.op_name() == "Aggregate")
        .flat_map(|n| n.extras())
        .collect();
    assert!(
        extras.iter().any(|&(k, _)| k == "agg_fallback"),
        "fallback should be reported in extras: {:?}",
        extras
    );
}

/// Rows equal with doubles compared by their bits.
fn rows_identical(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    let same = |x: &Value, y: &Value| match (x, y) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        _ => x == y,
    };
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(ra, rb)| ra.len() == rb.len() && ra.iter().zip(rb).all(|(x, y)| same(x, y)))
}

/// The plan's rows from the row engine.
fn row_engine(db: &Database, plan: &LogicalPlan) -> Vec<Vec<Value>> {
    let ctx = db.exec_context(None).unwrap();
    let tables: HashMap<_, _> = ctx
        .tables
        .iter()
        .map(|(id, p)| (*id, Arc::clone(&p.storage)))
        .collect();
    let mut op = compile_row(plan, &tables).expect("row compile");
    sort_canonical(collect_row_engine(op.as_mut()).expect("row run"))
}

/// Every aggregate shape the shared lanes have: COUNT(*), and COUNT, SUM and
/// AVG over the nullable double `x`, the nullable integer `i` (an integer
/// SUM beside an f64 AVG) and the NULL-free integer `k`, plus MIN/MAX.
fn shared_lane_aggs(x: usize, i: usize, k: usize) -> Vec<AggExpr> {
    vec![
        agg(AggFunc::CountStar, None, "n"),
        agg(AggFunc::Count, Some(x), "nx"),
        agg(AggFunc::Sum, Some(x), "sx"),
        agg(AggFunc::Avg, Some(x), "ax"),
        agg(AggFunc::Sum, Some(i), "si"),
        agg(AggFunc::Avg, Some(i), "ai"),
        agg(AggFunc::Count, Some(i), "ni"),
        agg(AggFunc::Sum, Some(k), "sk"),
        agg(AggFunc::Avg, Some(k), "ak"),
        agg(AggFunc::Min, Some(x), "mnx"),
        agg(AggFunc::Max, Some(i), "mxi"),
    ]
}

/// `t(g, h, x, i, k)`: `g` a short string (group "none" has every `x` and
/// `i` NULL), `h` spread over 6 000 values, `x` a nullable multiple of 0.25
/// (exact sums in any order), `i` a nullable and `k` a NULL-free integer.
fn shared_lane_table(db: &Database, seed: u64) -> (vw_common::TableId, Schema) {
    let mut r = Xoshiro256::seeded(seed);
    let groups = ["a", "b", "c", "none"];
    let rows: Vec<Vec<Value>> = (0..12_000)
        .map(|_| {
            let g = groups[r.next_below(4) as usize];
            let none = g == "none";
            vec![
                Value::Str(g.into()),
                Value::I64(r.range_i64(0, 6_000)),
                if none || r.chance(0.1) {
                    Value::Null
                } else {
                    Value::F64(r.range_i64(-400, 400) as f64 / 4.0)
                },
                if none || r.chance(0.1) {
                    Value::Null
                } else {
                    Value::I64(r.range_i64(-1_000, 1_000))
                },
                Value::I64(r.range_i64(0, 50)),
            ]
        })
        .collect();
    let schema = Schema::new(vec![
        Field::new("g", DataType::Str),
        Field::new("h", DataType::I64),
        Field::nullable("x", DataType::F64),
        Field::nullable("i", DataType::I64),
        Field::new("k", DataType::I64),
    ]);
    load(db, schema, rows)
}

/// `plan` on the engine at dop 1 and 4 and under a 16 MiB and a 256 KiB
/// budget equals the row engine's rows byte for byte; with `spills`, the
/// 256 KiB run must have spilled.
fn assert_matches_row_engine(db: &Database, plan: &LogicalPlan, spills: bool) {
    let want = row_engine(db, plan);
    for (dop, budget) in [
        (1, None),
        (4, None),
        (1, Some(16 << 20)),
        (1, Some(256 << 10)),
    ] {
        db.set_mem_budget(budget);
        let got = engine(db, plan, dop);
        assert!(
            rows_identical(&got, &want),
            "dop {dop}, budget {budget:?} diverged from the row engine:\n  got  {got:?}\n  want {want:?}"
        );
        if spills && budget == Some(256 << 10) {
            let prof = db.profile_last_query().expect("profiling on by default");
            assert!(prof.mem.spill_bytes > 0, "the 256 KiB run should spill");
        }
    }
    db.set_mem_budget(None);
    db.set_parallelism(1);
}

/// Few groups (the direct array) and no groups (one slot), with a group
/// whose arguments are all NULL and with the scalar aggregate over no rows.
#[test]
fn shared_lanes_match_the_row_engine_on_the_direct_array() {
    let db = Database::new().unwrap();
    let (tid, schema) = shared_lane_table(&db, 11);
    let scan = || LogicalPlan::scan("t", tid, schema.clone());
    let by_g = scan().aggregate(vec![0], shared_lane_aggs(2, 3, 4));
    assert_matches_row_engine(&db, &by_g, false);
    let rows = engine(&db, &by_g, 1);
    let none = rows
        .iter()
        .find(|r| r[0] == Value::Str("none".into()))
        .unwrap();
    assert_eq!(
        &none[2..8],
        &[
            Value::I64(0),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
            Value::I64(0)
        ]
    );
    let scalar = scan().aggregate(vec![], shared_lane_aggs(2, 3, 4));
    assert_matches_row_engine(&db, &scalar, false);
    let nothing = Expr::binary(vw_plan::BinOp::Lt, Expr::col(1), Expr::lit(Value::I64(0)));
    let empty = scan()
        .filter(nothing)
        .aggregate(vec![], shared_lane_aggs(2, 3, 4));
    assert_matches_row_engine(&db, &empty, false);
}

/// More groups than the direct array holds: the generic table, which the
/// smallest budget makes spill and merge partial rows.
#[test]
fn shared_lanes_match_the_row_engine_on_the_generic_table() {
    let db = Database::new().unwrap();
    let (tid, schema) = shared_lane_table(&db, 12);
    let plan = LogicalPlan::scan("t", tid, schema).aggregate(vec![1], shared_lane_aggs(2, 3, 4));
    assert!(engine(&db, &plan, 1).len() > perfect::MAX_SLOTS);
    assert_matches_row_engine(&db, &plan, true);
}

/// A LEFT JOIN's unmatched rows bring NULLs into columns the joined table
/// declares NOT NULL; the aggregate above must count and sum them as NULLs.
#[test]
fn shared_lanes_count_left_join_nulls() {
    let db = Database::new().unwrap();
    let (tid, schema) = shared_lane_table(&db, 13);
    let u_schema = Schema::new(vec![
        Field::new("uh", DataType::I64),
        Field::new("y", DataType::F64),
        Field::new("j", DataType::I64),
    ]);
    let u_rows: Vec<Vec<Value>> = (0..6_000)
        .filter(|h| h % 3 != 0)
        .map(|h| {
            vec![
                Value::I64(h),
                Value::F64(h as f64 / 4.0),
                Value::I64(h % 17),
            ]
        })
        .collect();
    let uid = db.create_table("u", u_schema.clone()).unwrap();
    db.bulk_load("u", u_rows).unwrap();
    let joined = LogicalPlan::scan("t", tid, schema).join(
        LogicalPlan::scan("u", uid, u_schema),
        vw_plan::JoinKind::Left,
        vec![(1, 0)],
    );
    // t's five columns, then u's: y is column 6 and j column 7.
    let plan = joined.aggregate(vec![0], shared_lane_aggs(6, 7, 4));
    let rows = engine(&db, &plan, 1);
    assert!(
        rows.iter().all(|r| r[1].as_i64() > r[2].as_i64()),
        "some y are NULL"
    );
    assert_matches_row_engine(&db, &plan, false);
}

/// ±0.0 and NaN under shared SUM/AVG lanes, serial: the fold adds 0.0 for a
/// NULL, which must leave every sum's bits as the row engine has them.
#[test]
fn shared_lanes_keep_the_bits_of_signed_zero_and_nan() {
    let db = Database::new().unwrap();
    let mut r = Xoshiro256::seeded(5);
    // Group 0 sees only ±0.0 and NULLs, so its sums stay zeros.
    let rows: Vec<Vec<Value>> = (0..3_000)
        .map(|_| {
            let g = r.range_i64(0, 6);
            let x = match r.next_below(if g == 0 { 3 } else { 6 }) {
                0 => Value::F64(0.0),
                1 => Value::F64(-0.0),
                2 => Value::Null,
                3 => Value::F64(f64::NAN),
                _ => Value::F64(-(r.range_i64(0, 100) as f64) / 4.0),
            };
            vec![Value::I64(g), x]
        })
        .collect();
    let schema = Schema::new(vec![
        Field::new("g", DataType::I64),
        Field::nullable("x", DataType::F64),
    ]);
    let (tid, schema) = load(&db, schema, rows);
    let plan = LogicalPlan::scan("t", tid, schema).aggregate(
        vec![0],
        vec![
            agg(AggFunc::Sum, Some(1), "s"),
            agg(AggFunc::Avg, Some(1), "a"),
            agg(AggFunc::Count, Some(1), "n"),
            agg(AggFunc::CountStar, None, "rows"),
        ],
    );
    let want = row_engine(&db, &plan);
    let got = engine(&db, &plan, 1);
    assert!(
        rows_identical(&got, &want),
        "±0.0/NaN bits diverged:\n  got  {got:?}\n  want {want:?}"
    );
}

/// `k IN (1, NULL)` is NULL wherever `k` is not 1, though `k` is NOT NULL:
/// COUNT over it counts only the rows where `k` is 1, whether the test is
/// the aggregate's own argument or a column a projection computed.
#[test]
fn shared_lanes_count_nulls_an_in_list_makes() {
    let db = Database::new().unwrap();
    let (tid, schema) = shared_lane_table(&db, 14);
    let scan = || LogicalPlan::scan("t", tid, schema.clone());
    let in_list = |negated| Expr::InList {
        e: Box::new(Expr::col(4)),
        list: vec![Value::I64(1), Value::Null],
        negated,
    };
    let count = |arg: Expr, name: &str| AggExpr {
        func: AggFunc::Count,
        arg: Some(arg),
        name: name.into(),
    };
    let direct = scan().aggregate(
        vec![0],
        vec![
            count(in_list(false), "n_in"),
            count(in_list(true), "n_not_in"),
            agg(AggFunc::CountStar, None, "n"),
            agg(AggFunc::Sum, Some(4), "sk"),
            agg(AggFunc::Avg, Some(4), "ak"),
        ],
    );
    assert_matches_row_engine(&db, &direct, false);
    let projected = scan()
        .project(vec![
            (Expr::col(0), "g"),
            (in_list(false), "p"),
            (Expr::col(4), "k"),
        ])
        .aggregate(
            vec![0],
            vec![
                agg(AggFunc::Count, Some(1), "n_in"),
                agg(AggFunc::CountStar, None, "n"),
                agg(AggFunc::Sum, Some(2), "sk"),
                agg(AggFunc::Avg, Some(2), "ak"),
            ],
        );
    assert_matches_row_engine(&db, &projected, false);
    let rows = engine(&db, &projected, 1);
    assert!(
        rows.iter().all(|r| r[1].as_i64() < r[2].as_i64()),
        "COUNT(k IN (1, NULL)) counts only k = 1: {rows:?}"
    );
}
