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

mod common;

use proptest::prelude::*;
use vw_common::rng::Xoshiro256;
use vw_common::{DataType, Field, Schema, Value};
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
