//! Compressed-execution integration tests: predicate pushdown into the
//! lazy, codec-aware scan must be invisible to query results, and a
//! selective scan over clustered data must demonstrably avoid decoding.
//!
//! The property test compares three executions of the same predicate on
//! randomly generated tables whose column shapes drive every codec the
//! storage layer picks (sorted ints → PFOR-delta, small-domain ints → PFOR,
//! runs → RLE, low-cardinality strings → PDICT, near-unique strings →
//! plain, plus f64 and date columns with NULLs sprinkled in):
//!
//! 1. `Scan` with no filter + a vectorized `Filter` on top (the unpushed
//!    reference — predicate runs on decoded vectors);
//! 2. `Scan` with the predicate embedded (the lazy path — predicate runs
//!    on encoded data where the codec supports it);
//! 3. the same pushed scan under an Exchange at dop 4.
//!
//! The table is built by hand so that it has several small row groups, some
//! of them with pending PDT changes (those decode eagerly, beside clean
//! groups that stay encoded), and the engine's vector size is drawn from 1,
//! a non-divisor of the group size and the default.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use vw_common::config::EngineConfig;
use vw_common::rng::Xoshiro256;
use vw_common::{DataType, Field, Schema, TableId, Value};
use vw_core::compile::compile_plan;
use vw_core::operators::collect_rows;
use vw_core::{Database, ExecContext, TableProvider};
use vw_pdt::Pdt;
use vw_plan::rewrite::parallelize;
use vw_plan::{AggExpr, AggFunc, BinOp, Expr, LogicalPlan};
use vw_storage::{SimDisk, SimDiskConfig, TableBuilder};

/// Random table whose columns steer the codec chooser in different
/// directions. Column 0 is a strictly increasing key used to canonicalize
/// row order when comparing parallel runs.
fn gen_rows(r: &mut Xoshiro256, n: usize) -> Vec<Vec<Value>> {
    let dict = ["alpha", "bravo", "charlie", "delta"];
    let mut key = 0i64;
    let mut run_val = 0i64;
    (0..n)
        .map(|i| {
            key += 1 + r.range_i64(0, 2);
            if i % 97 == 0 {
                run_val = r.range_i64(0, 3);
            }
            vec![
                Value::I64(key),
                if r.chance(0.05) {
                    Value::Null
                } else {
                    Value::I64(r.range_i64(0, 15))
                },
                Value::I64(run_val),
                if r.chance(0.05) {
                    Value::Null
                } else {
                    Value::Str(dict[r.next_below(dict.len() as u64) as usize].to_string())
                },
                Value::Str(format!("u{:07}", r.next_below(1 << 40))),
                Value::F64(r.range_i64(-500, 500) as f64 / 8.0),
                Value::Date(8000 + r.range_i64(0, 400) as i32),
            ]
        })
        .collect()
}

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("sk", DataType::I64),
        Field::nullable("sm", DataType::I64),
        Field::new("rl", DataType::I64),
        Field::nullable("dc", DataType::Str),
        Field::new("us", DataType::Str),
        Field::new("f", DataType::F64),
        Field::new("dt", DataType::Date),
    ])
}

/// One random comparison on a random column, with the literal drawn from
/// the column's domain so selectivity varies across the whole range.
fn gen_pred(r: &mut Xoshiro256, n: usize) -> Expr {
    let ops = [
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ];
    let op = ops[r.next_below(ops.len() as u64) as usize];
    let dict = ["alpha", "bravo", "charlie", "delta", "echo"];
    let (col, lit) = match r.next_below(7) {
        0 => (0, Value::I64(r.range_i64(0, 2 * n as i64))),
        1 => (1, Value::I64(r.range_i64(-1, 16))),
        2 => (2, Value::I64(r.range_i64(0, 3))),
        3 => (
            3,
            Value::Str(dict[r.next_below(dict.len() as u64) as usize].to_string()),
        ),
        4 => (4, Value::Str(format!("u{:07}", r.next_below(1 << 40)))),
        5 => (5, Value::F64(r.range_i64(-500, 500) as f64 / 8.0)),
        // F64 literal against an int column exercises the float compare
        // path of the encoded evaluator.
        _ => {
            if r.chance(0.5) {
                (6, Value::Date(8000 + r.range_i64(-10, 410) as i32))
            } else {
                (1, Value::F64(r.range_i64(0, 30) as f64 / 2.0))
            }
        }
    };
    Expr::binary(op, Expr::col(col), Expr::lit(lit))
}

fn sort_canonical(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by_key(|row| match row[0] {
        Value::I64(k) => k,
        _ => i64::MIN,
    });
    rows
}

/// A conjunct the codec cursors cannot evaluate, so the scan keeps it as the
/// residual filter over whatever batch the pushed conjuncts leave.
fn gen_residual(r: &mut Xoshiro256) -> Expr {
    match r.next_below(3) {
        // column against column
        0 => Expr::binary(BinOp::Ne, Expr::col(1), Expr::col(2)),
        // arithmetic under the comparison
        1 => Expr::binary(
            BinOp::Gt,
            Expr::binary(BinOp::Add, Expr::col(1), Expr::col(2)),
            Expr::lit(Value::I64(r.range_i64(0, 12))),
        ),
        _ => Expr::Like {
            e: Box::new(Expr::col(4)),
            pattern: format!("u{}%", r.next_below(10)),
            negated: r.chance(0.3),
        },
    }
}

/// `sm < k` keeps about `k / 16` of the non-NULL rows of every vector: the
/// listed literals sit on both sides of the scan's one-in-two density rule,
/// so one run materializes sparse vectors dense and another keeps the
/// selection.
fn gen_density_pred(r: &mut Xoshiro256) -> Expr {
    let k = [1, 4, 7, 9, 12, 15][r.next_below(6) as usize];
    Expr::binary(BinOp::Lt, Expr::col(1), Expr::lit(Value::I64(k)))
}

const T: TableId = TableId(1);

/// The random table as `rows_per_group`-row groups, with deletes, modifies
/// and inserts pending against a random few of them (and sometimes an
/// append), behind a hand-built execution context.
fn gen_table(
    r: &mut Xoshiro256,
    n: usize,
    rows_per_group: usize,
    vector_size: usize,
) -> ExecContext {
    let disk = Arc::new(SimDisk::new(SimDiskConfig::default()));
    let mut b = TableBuilder::with_group_size(schema(), disk, rows_per_group);
    for row in gen_rows(r, n) {
        b.push_row(row).unwrap();
    }
    let storage = b.finish().unwrap();
    let mut pdt = Pdt::new(n as u64);
    let groups = n.div_ceil(rows_per_group);
    let fresh_row = |r: &mut Xoshiro256| {
        let mut row = gen_rows(r, 1).remove(0);
        row[0] = Value::I64(10_000_000 + r.range_i64(0, 1_000_000));
        row
    };
    for _ in 0..r.next_below(3) {
        // All three kinds of change inside one group; others stay clean.
        let g = r.next_below(groups as u64) as usize;
        let lo = (g * rows_per_group) as u64;
        let hi = ((g + 1) * rows_per_group).min(n) as u64;
        let sid = |r: &mut Xoshiro256| lo + r.next_below(hi - lo);
        if let Some(rid) = pdt.rid_of_sid(sid(r)) {
            pdt.modify_at(rid, 1, Value::I64(r.range_i64(0, 15)))
                .unwrap();
        }
        if let Some(rid) = pdt.rid_of_sid(sid(r)) {
            pdt.delete_at(rid).unwrap();
        }
        if let Some(rid) = pdt.rid_of_sid(sid(r)) {
            pdt.insert_at(rid, fresh_row(r)).unwrap();
        }
    }
    if r.chance(0.3) {
        let end = pdt.current_rows();
        pdt.insert_at(end, fresh_row(r)).unwrap();
    }
    let mut tables = HashMap::new();
    tables.insert(
        T,
        TableProvider {
            pdt: Arc::new(pdt),
            storage: Arc::new(parking_lot::RwLock::new(storage)),
        },
    );
    let config = EngineConfig {
        vector_size,
        ..EngineConfig::default()
    };
    ExecContext::new(tables, config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn pushed_predicate_matches_vectorized_filter(seed in 0u64..1_000_000) {
        let mut r = Xoshiro256::seeded(seed);
        let n = 1500 + r.next_below(2000) as usize;
        let rows_per_group = [600, 1000][r.next_below(2) as usize];
        // 1, a non-divisor of either group size, and the default.
        let vector_size = [1, 7, 1024][r.next_below(3) as usize];
        let mut pred = if r.chance(0.5) {
            gen_density_pred(&mut r)
        } else {
            gen_pred(&mut r, n)
        };
        if r.chance(0.4) {
            pred = Expr::and(pred, gen_pred(&mut r, n));
        }
        if r.chance(0.5) {
            pred = Expr::and(pred, gen_residual(&mut r));
        }
        let ctx = gen_table(&mut r, n, rows_per_group, vector_size);
        let schema = schema();

        // Reference: bare scan + vectorized filter (no pushdown).
        let unpushed = LogicalPlan::scan("t", T, schema.clone()).filter(pred.clone());
        let mut op = compile_plan(&unpushed, &ctx).unwrap();
        let want = collect_rows(op.as_mut()).unwrap();

        // Lazy path: same predicate embedded in the scan node.
        let pushed = LogicalPlan::Scan {
            table: "t".into(),
            table_id: T,
            schema,
            projection: None,
            filter: Some(pred.clone()),
        };
        let mut op = compile_plan(&pushed, &ctx).unwrap();
        let got = collect_rows(op.as_mut()).unwrap();
        prop_assert_eq!(
            &got,
            &want,
            "pushed scan diverged (pred {:?}, vector size {}, groups of {})",
            pred,
            vector_size,
            rows_per_group
        );

        // The same scan behind an Exchange: four workers on one morsel queue.
        let mut op = compile_plan(&parallelize(pushed, 4), &ctx).unwrap();
        let par = collect_rows(op.as_mut()).unwrap();
        prop_assert_eq!(
            sort_canonical(par),
            sort_canonical(want),
            "dop-4 run diverged (pred {:?}, vector size {}, groups of {})",
            pred,
            vector_size,
            rows_per_group
        );
    }
}

/// A scan keeps nothing between queries: the same statement twice decodes
/// the same number of column vectors, and the profile has no decoded-slice
/// cache to report.
#[test]
fn repeated_scan_decodes_the_same_vectors_again() {
    let db = Database::new().unwrap();
    let schema = Schema::new(vec![
        Field::new("k", DataType::I64),
        Field::new("v", DataType::I64),
        Field::new("tag", DataType::Str),
    ]);
    db.create_table("t", schema).unwrap();
    db.bulk_load(
        "t",
        (0..20_000i64).map(|i| {
            vec![
                Value::I64(i),
                Value::I64(i % 16),
                Value::Str(format!("t{}", i % 5)),
            ]
        }),
    )
    .unwrap();
    let decoded = |sql: &str| {
        db.execute(sql).unwrap();
        let prof = db.profile_last_query().expect("profiling is on by default");
        assert!(prof.decode.is_none());
        let scan = prof
            .nodes()
            .into_iter()
            .find(|node| node.op_name() == "Scan")
            .expect("scan node");
        let extras: std::collections::BTreeMap<_, _> = scan.extras().into_iter().collect();
        assert!(!extras.contains_key("cache_hits"));
        extras.get("vec_decoded").copied().unwrap_or(0)
    };
    // Sparse vectors (1 in 16 survives) and dense ones (15 in 16).
    for sql in [
        "SELECT SUM(k), COUNT(tag) FROM t WHERE v < 1",
        "SELECT SUM(k), COUNT(tag) FROM t WHERE v < 15",
    ] {
        let first = decoded(sql);
        assert!(first > 0, "{sql}: nothing decoded");
        assert_eq!(decoded(sql), first, "{sql}: second run decoded differently");
    }
}

/// Acceptance: on a clustered key, a selective predicate must let the scan
/// reject whole vectors in encoded form — decoded vectors < scanned
/// vectors, observable through the new profile counters.
#[test]
fn selective_scan_decodes_fewer_vectors_than_it_scans() {
    let db = Database::new().unwrap();
    let schema = Schema::new(vec![
        Field::new("k", DataType::I64),
        Field::new("payload", DataType::F64),
    ]);
    let tid = db.create_table("t", schema.clone()).unwrap();
    let n: i64 = 20_000;
    db.bulk_load(
        "t",
        (0..n).map(|i| vec![Value::I64(i), Value::F64(i as f64 * 0.25)]),
    )
    .unwrap();
    let plan = LogicalPlan::scan("t", tid, schema)
        .filter(Expr::binary(
            BinOp::Lt,
            Expr::col(0),
            Expr::lit(Value::I64(512)),
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
    let result = db.run_plan(plan).unwrap();
    assert_eq!(result.rows[0][0], Value::I64(512));

    let prof = db.profile_last_query().expect("profiling is on by default");
    let scan = prof
        .nodes()
        .into_iter()
        .find(|node| node.op_name() == "Scan")
        .expect("scan node");
    let extras: std::collections::BTreeMap<_, _> = scan.extras().into_iter().collect();
    let decoded = extras.get("vec_decoded").copied().unwrap_or(0);
    let skipped = extras.get("vec_skipped").copied().unwrap_or(0);
    // 20_000 rows / 1024-row vectors x 2 projected columns ≈ 40 column
    // vectors total; only the first vector of the key column (plus the
    // matching payload slice) should ever be decoded.
    assert!(skipped > 0, "no vectors skipped (decoded={})", decoded);
    assert!(
        decoded < decoded + skipped,
        "scan decoded every vector it covered"
    );
    assert!(
        decoded <= 4,
        "selective scan decoded {} column-vectors, expected at most 4",
        decoded
    );
}

/// Non-selective predicates must keep every row: the lazy scan degenerates
/// to decode-everything and the result matches a plain full scan.
#[test]
fn non_selective_pushdown_keeps_all_rows() {
    let db = Database::new().unwrap();
    let schema = Schema::new(vec![
        Field::new("k", DataType::I64),
        Field::new("v", DataType::I64),
    ]);
    let tid = db.create_table("t", schema.clone()).unwrap();
    db.bulk_load(
        "t",
        (0..5000i64).map(|i| vec![Value::I64(i), Value::I64(i % 7)]),
    )
    .unwrap();
    let plan = LogicalPlan::scan("t", tid, schema).filter(Expr::binary(
        BinOp::Ge,
        Expr::col(0),
        Expr::lit(Value::I64(0)),
    ));
    let rows = db.run_plan(plan).unwrap().rows;
    assert_eq!(rows.len(), 5000);
}
