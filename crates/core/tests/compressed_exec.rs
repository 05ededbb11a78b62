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

// ---------------------------------------------------------------------------
// Dictionary vectors through the operators: SQL text against the row engine.
// ---------------------------------------------------------------------------

use vw_baselines::{collect_row_engine, compile_row};
use vw_sql::{bind, parse_statement, BoundStatement, CatalogView};

const DICT_COLUMNS: &str = "k, g, d, e, u, v, q";

/// `f(k, g, d, e, u, v, q)`, range-partitioned four ways on `k` so that each
/// quarter of the key range is a row group of its own, and `dim(name, w,
/// tag)`, a small table to join with.
fn create_dict_tables(db: &Database, partitions: usize) {
    db.execute(&format!(
        "CREATE TABLE f (k BIGINT NOT NULL, g BIGINT, d VARCHAR, e VARCHAR NOT NULL, \
         u VARCHAR NOT NULL, v BIGINT NOT NULL, q DOUBLE NOT NULL) \
         PARTITION BY RANGE(k) PARTITIONS {partitions}"
    ))
    .unwrap();
    db.execute(
        "CREATE TABLE dim (name VARCHAR NOT NULL, w BIGINT NOT NULL, tag VARCHAR) \
         PARTITION BY RANGE(w) PARTITIONS 1",
    )
    .unwrap();
}

/// Words the dictionary column and the statements' literals draw from.
const WORDS: [&str; 12] = [
    "apple", "banana", "cherry", "date", "elder", "fig", "é", "𝄞x", "", "zeta", "omega", "uniq-00",
];

/// Row `k` of `n`. The dictionary column `d` has a domain of its own in each
/// quarter of the key range, so the four row groups' PDICT dictionaries
/// differ in content and — values being drawn at random — in order; the
/// third quarter's values are all different, so that block stays PLAIN; the
/// first and last quarters have NULLs.
fn dict_row(r: &mut Xoshiro256, k: usize, n: usize) -> Vec<Value> {
    let pick = |r: &mut Xoshiro256, words: &[&str]| {
        Value::Str(words[r.next_below(words.len() as u64) as usize].to_string())
    };
    let d = match 4 * k / n.max(1) {
        0 if r.chance(0.05) => Value::Null,
        0 => pick(r, &["apple", "banana", "cherry"]),
        1 => pick(r, &["cherry", "apple", "date", "elder"]),
        2 => Value::Str(format!("uniq-{k:05}")),
        _ if r.chance(0.2) => Value::Null,
        _ => pick(r, &["banana", "fig", "é", "𝄞x", ""]),
    };
    vec![
        Value::I64(k as i64),
        if r.chance(0.05) {
            Value::Null
        } else {
            Value::I64(r.range_i64(0, 4))
        },
        d,
        pick(r, &["A", "N", "R"]),
        Value::Str(format!("u{:06}", r.next_below(1_000_000))),
        Value::I64(r.range_i64(0, 100)),
        Value::F64(r.range_i64(-40, 40) as f64 / 4.0),
    ]
}

fn dim_rows() -> Vec<Vec<Value>> {
    let names = [
        "apple",
        "banana",
        "cherry",
        "date",
        "fig",
        "é",
        "zeta",
        "uniq-00700",
        "nobody",
    ];
    (0..27)
        .map(|i| {
            vec![
                Value::Str(names[i % names.len()].to_string()),
                Value::I64((i % 5) as i64),
                match i % 4 {
                    0 => Value::Null,
                    t => Value::Str(["red", "green", "blue"][t - 1].to_string()),
                },
            ]
        })
        .collect()
}

fn sql_literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Str(s) => format!("'{s}'"),
        Value::F64(x) => format!("{x:?}"),
        other => other.to_string(),
    }
}

/// A random predicate over the dictionary columns, alone or beside a
/// conjunct on an integer column (two cursors narrowing one list).
fn dict_predicate(r: &mut Xoshiro256) -> String {
    let word = |r: &mut Xoshiro256| WORDS[r.next_below(WORDS.len() as u64) as usize];
    let not = |r: &mut Xoshiro256| if r.chance(0.4) { "NOT " } else { "" };
    let p = match r.next_below(12) {
        0 => format!("d = '{}'", word(r)),
        1 => format!("d <> '{}'", word(r)),
        2 => format!("d < '{}'", word(r)),
        3 => format!("'{}' <= d", word(r)),
        4 => format!("d {}IN ('{}', '{}', 'nothing')", not(r), word(r), word(r)),
        // The four literal shapes, then the general matcher.
        5 => format!("d {}LIKE '{}'", not(r), word(r)),
        6 => format!(
            "d {}LIKE '{}%'",
            not(r),
            &word(r).chars().take(2).collect::<String>()
        ),
        7 => format!(
            "d {}LIKE '%{}'",
            not(r),
            ["rry", "e", "x", "0"][r.next_below(4) as usize]
        ),
        8 => format!(
            "d {}LIKE '%{}%'",
            not(r),
            ["an", "niq-0", "", "é"][r.next_below(4) as usize]
        ),
        9 => format!(
            "d {}LIKE '{}'",
            not(r),
            ["_pp%", "%a_a%", "uniq-0_7%", "_", "%_x"][r.next_below(5) as usize]
        ),
        10 => format!("d IS {}NULL", not(r)),
        _ => format!("e {}IN ('A', 'R')", not(r)),
    };
    match r.next_below(4) {
        0 => format!("{p} AND v < {}", r.range_i64(0, 100)),
        1 => format!("g = {} AND {p}", r.range_i64(0, 4)),
        2 => format!("{p} AND e <> 'N' AND k >= {}", r.range_i64(0, 900)),
        _ => p,
    }
}

/// A random statement and whether its `ORDER BY` fixes the whole order.
fn dict_statement(r: &mut Xoshiro256) -> (String, bool) {
    let p = dict_predicate(r);
    let case = "CASE WHEN d = 'apple' THEN 1 WHEN d LIKE 'b%' THEN 2 \
                WHEN d IN ('fig', 'é') THEN 3 WHEN d IS NULL THEN 4 ELSE 0 END";
    // A Top-N cut many times, or one whose N exceeds the matching rows.
    let limit = [7, 9000][r.next_below(2) as usize];
    match r.next_below(16) {
        0 => (format!("SELECT k, d, e FROM f WHERE {p}"), false),
        1 => (format!("SELECT COUNT(*), COUNT(d), MIN(d), MAX(d), SUM(v) FROM f WHERE {p}"), false),
        2 => (format!("SELECT k, {case} AS c, e FROM f WHERE {p}"), false),
        3 => (format!("SELECT SUM({case}), SUM(CASE WHEN e = 'A' THEN q ELSE 0.0 END) FROM f"), false),
        // Dictionary keys alone, two of them, and beside an integer key.
        4 => (format!("SELECT d, COUNT(*), SUM(v), SUM(q) FROM f WHERE {p} GROUP BY d"), false),
        5 => ("SELECT e, COUNT(*), MIN(d), MAX(d), COUNT(d), MIN(u) FROM f GROUP BY e".into(), false),
        6 => (format!("SELECT d, e, COUNT(*), SUM(q) FROM f WHERE {p} GROUP BY d, e"), false),
        7 => ("SELECT e, g, COUNT(*), SUM(v), MAX(d) FROM f GROUP BY e, g".into(), false),
        8 => (format!("SELECT g, d, COUNT(*) FROM f WHERE {p} GROUP BY g, d"), false),
        // Joins keyed on a dictionary column, and carrying them.
        9 => (format!("SELECT f.k, f.d, f.e, dim.tag, dim.w FROM f, dim WHERE f.d = dim.name AND dim.w < {}", r.range_i64(0, 5)), false),
        10 => ("SELECT dim.tag, f.e, COUNT(*), SUM(f.v) FROM f, dim WHERE f.d = dim.name GROUP BY dim.tag, f.e".into(), false),
        11 => (format!("SELECT f.k, f.d, dim.name, dim.tag FROM f, dim WHERE f.g = dim.w AND f.k < 60 AND {}", p.replace("d ", "f.d ").replace("(d", "(f.d")), false),
        12 => ("SELECT f.k, f.e, dim.tag FROM f LEFT JOIN dim ON f.d = dim.name WHERE f.k < 500".into(), false),
        13 => (format!("SELECT dim.name, dim.tag, f.d FROM dim, f WHERE dim.name = f.d AND f.v < {}", r.range_i64(0, 30)), false),
        14 => (format!("SELECT d, k FROM f WHERE {p} ORDER BY d, k LIMIT {limit}"), true),
        _ => (format!("SELECT e, d, k FROM f ORDER BY e DESC, d DESC, k LIMIT {limit}"), true),
    }
}

/// Byte-identical: doubles by their bits.
fn same_rows(got: &[Vec<Value>], want: &[Vec<Value>]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.len() == w.len()
                && g.iter().zip(w).all(|pair| match pair {
                    (Value::F64(a), Value::F64(b)) => a.to_bits() == b.to_bits(),
                    (a, b) => a == b,
                })
        })
}

fn sorted_rows(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    let render = |v: &Value| match v {
        Value::F64(x) => format!("F{:016x}", x.to_bits()),
        v => format!("{v:?}"),
    };
    rows.sort_by_cached_key(|r| r.iter().map(render).collect::<Vec<_>>());
    rows
}

/// The statement on the tuple-at-a-time engine, over clean tables.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random statements over dictionary columns — every comparison, `IN`,
    /// `LIKE` shape and `CASE` the evaluator decides per dictionary entry,
    /// `GROUP BY` on both aggregation paths, `MIN`/`MAX`/`COUNT`, joins in
    /// both directions, `ORDER BY` through Top-N and the full sort — are
    /// byte-identical to the row engine's answer at vector sizes 1/7/1024
    /// and dop 1/2/4, over row groups whose dictionaries differ, a group
    /// stored PLAIN, NULLs, groups with pending changes and an append tail.
    #[test]
    fn dictionary_statements_match_the_row_engine(seed in 0u64..1_000_000) {
        let mut r = Xoshiro256::seeded(seed);
        let n = 900 + r.next_below(900) as usize;
        let db = Database::new().unwrap();
        create_dict_tables(&db, 4);
        let mut model: Vec<Vec<Value>> = (0..n).map(|k| dict_row(&mut r, k, n)).collect();
        db.bulk_load("f", model.clone()).unwrap();
        db.bulk_load("dim", dim_rows()).unwrap();

        // Pending changes against a random few groups (none: every group
        // stays encoded), and sometimes an append tail. The model follows.
        for _ in 0..r.next_below(4) {
            let at = r.next_below(model.len() as u64) as usize;
            let k = model[at][0].as_i64().unwrap();
            match r.next_below(3) {
                0 => {
                    let word = WORDS[r.next_below(WORDS.len() as u64) as usize];
                    db.execute(&format!("UPDATE f SET d = '{word}' WHERE k = {k}")).unwrap();
                    model[at][2] = Value::Str(word.into());
                }
                1 => {
                    db.execute(&format!("UPDATE f SET v = v + 1 WHERE k = {k}")).unwrap();
                    model[at][5] = Value::I64(model[at][5].as_i64().unwrap() + 1);
                }
                _ => {
                    db.execute(&format!("DELETE FROM f WHERE k = {k}")).unwrap();
                    model.remove(at);
                }
            }
        }
        if r.chance(0.5) {
            let tail: Vec<Vec<Value>> = (0..1 + r.next_below(5) as usize)
                .map(|j| {
                    let mut row = dict_row(&mut r, 0, 1);
                    row[0] = Value::I64((n + j) as i64);
                    row
                })
                .collect();
            let tuples: Vec<String> = tail
                .iter()
                .map(|row| format!("({})", row.iter().map(sql_literal).collect::<Vec<_>>().join(", ")))
                .collect();
            db.execute(&format!("INSERT INTO f VALUES {}", tuples.join(", "))).unwrap();
            model.extend(tail);
        }
        let scanned = db.execute(&format!("SELECT {DICT_COLUMNS} FROM f")).unwrap().rows;
        prop_assert!(same_rows(&scanned, &model), "the model is not the table");

        // The same rows, clean and in one group, for the row engine.
        let reference = Database::new().unwrap();
        create_dict_tables(&reference, 1);
        reference.bulk_load("f", model.clone()).unwrap();
        reference.bulk_load("dim", dim_rows()).unwrap();

        let vector_sizes = [1, 7, 1024];
        for round in 0..10 {
            let (sql, ordered) = dict_statement(&mut r);
            reference.set_parallelism(1); // the row engine runs serial plans
            let want = row_engine(&reference, &sql);
            let want = if ordered { want } else { sorted_rows(want) };
            // Each dop at a vector size of its own, all three over the rounds.
            for (i, dop) in [1usize, 2, 4].into_iter().enumerate() {
                let vs = vector_sizes[(round + i) % 3];
                for side in [&db, &reference] {
                    side.set_vector_size(vs);
                    side.set_parallelism(dop);
                    let got = side.execute(&sql).unwrap().rows;
                    let got = if ordered { got } else { sorted_rows(got) };
                    prop_assert!(
                        same_rows(&got, &want),
                        "{} (vectors of {}, dop {}, {} table):\n got {:?}\nwant {:?}",
                        sql,
                        vs,
                        dop,
                        if std::ptr::eq(side, &db) { "changed" } else { "clean" },
                        got.iter().take(8).collect::<Vec<_>>(),
                        want.iter().take(8).collect::<Vec<_>>()
                    );
                }
            }
        }
    }
}

/// Extras of every profile node named `op`, summed by key.
fn extras_of(db: &Database, op: &str) -> std::collections::BTreeMap<&'static str, u64> {
    let prof = db.profile_last_query().expect("profiling is on by default");
    let mut sum = std::collections::BTreeMap::new();
    for node in prof.nodes().into_iter().filter(|n| n.op_name() == op) {
        for (k, v) in node.extras() {
            *sum.entry(k).or_insert(0) += v;
        }
    }
    sum
}

/// The path from encoded block to aggregate engages for SQL text: the scan
/// ships its PDICT columns as codes, the projection under the `GROUP BY`
/// hands them on, and the aggregate groups by them on the direct-array
/// path, integer keys included now that their zone maps are found through
/// the projection. A pushed `LIKE` is one encoded evaluation per vector.
#[test]
fn dictionary_vectors_reach_the_aggregate_from_sql_text() {
    let db = Database::new().unwrap();
    create_dict_tables(&db, 1);
    let mut r = Xoshiro256::seeded(3);
    let n = 5000;
    // The first quarter's domain throughout: one PDICT block per column.
    db.bulk_load("f", (0..n).map(|k| dict_row(&mut r, k % (n / 4), n)))
        .unwrap();
    let vectors = (n as u64).div_ceil(1024);

    // 4 x 6 groups, NULL keys included; the key domain (33 x 6 slots) fits
    // the direct array only because g's zone map bounds it.
    let rows = db
        .execute("SELECT d, g, COUNT(*), SUM(v), COUNT(e) FROM f GROUP BY d, g")
        .unwrap()
        .rows;
    assert_eq!(rows.len(), 24);
    let scan = extras_of(&db, "Scan");
    assert_eq!(scan["vec_coded"], 2 * vectors, "d and e travel as codes");
    assert_eq!(scan["vec_decoded"], 2 * vectors, "g and v are decoded");
    let agg = extras_of(&db, "Aggregate");
    assert_eq!(agg.get("agg_path_perfect"), Some(&1), "{agg:?}");

    let like = db
        .execute("SELECT COUNT(*) FROM f WHERE d LIKE '%an%' AND v < 50")
        .unwrap()
        .rows;
    let want = db
        .execute("SELECT COUNT(*) FROM f WHERE d = 'banana' AND v < 50")
        .unwrap()
        .rows;
    assert_eq!(like, want);
    let scan = extras_of(&db, "Scan");
    assert!(scan["enc_evals"] >= vectors, "{scan:?}");
    for step in ["pred_ns", "decode_ns", "residual_ns"] {
        assert!(scan.contains_key(step), "{step} missing from {scan:?}");
    }
    assert!(!scan.contains_key("fused_scan") && !agg.contains_key("fused_scan"));
}

/// A dictionary-keyed aggregate and a join keyed on (and carrying)
/// dictionary columns spill under a tight budget — whatever `VW_MEM_BUDGET`
/// the suite runs under — and answer as they do with memory to spare:
/// spill files and grace partitions hold strings, never codes.
#[test]
fn dictionary_keyed_aggregate_and_join_spill_correctly() {
    let db = Database::new().unwrap();
    create_dict_tables(&db, 4);
    let mut r = Xoshiro256::seeded(11);
    let n = 6000;
    db.bulk_load("f", (0..n).map(|k| dict_row(&mut r, k, n)))
        .unwrap();
    let schema = db.table_schema("f").unwrap();
    let (tid, _) = db.resolve_table("f").unwrap();
    let scan = || LogicalPlan::scan("f", tid, schema.clone());
    let count = AggExpr {
        func: AggFunc::CountStar,
        arg: None,
        name: "n".into(),
    };
    let max_d = AggExpr {
        func: AggFunc::Max,
        arg: Some(Expr::col(2)),
        name: "max_d".into(),
    };
    // One group per row: (d, k), with d the dictionary column.
    let aggregate = scan().aggregate(vec![2, 0], vec![count, max_d]);
    // Each row meets itself through (d, k); rows with a NULL d meet nothing.
    let join = LogicalPlan::Join {
        left: Box::new(scan()),
        right: Box::new(scan()),
        kind: vw_plan::JoinKind::Inner,
        on: vec![(2, 2), (0, 0)],
        residual: None,
    };
    for (plan, op) in [(aggregate, "Aggregate"), (join, "Join")] {
        db.set_mem_budget(None);
        let want = sorted_rows(db.run_plan(plan.clone()).unwrap().rows);
        assert!(want.len() > n / 2);
        db.set_mem_budget(Some(48 << 10));
        for dop in [1, 2] {
            db.set_parallelism(dop);
            let got = sorted_rows(db.run_plan(plan.clone()).unwrap().rows);
            assert!(same_rows(&got, &want), "{op} under 48 KiB at dop {dop}");
            let spilled = db.profile_last_query().unwrap().mem.spill_bytes;
            assert!(spilled > 0, "{op} at dop {dop}: 48 KiB must force a spill");
        }
        db.set_parallelism(1);
    }
}

/// A dictionary column with more distinct strings than the perfect-hash
/// coder takes (32): the first run starts on the direct array and falls back
/// to the generic table mid-stream; history then vetoes the direct array, so
/// the second run groups the dictionary vectors in the generic table from
/// the first vector — per-entry hashing, byte-wise verify and key interning.
/// Both answer as the row engine does, at every vector size and dop.
#[test]
fn wide_dictionary_group_by_takes_the_generic_table_and_matches_the_row_engine() {
    let db = Database::new().unwrap();
    db.execute(
        "CREATE TABLE w (k BIGINT NOT NULL, d VARCHAR, v BIGINT NOT NULL) \
         PARTITION BY RANGE(k) PARTITIONS 1",
    )
    .unwrap();
    let mut r = Xoshiro256::seeded(41);
    let n = 5000;
    db.bulk_load(
        "w",
        (0..n).map(|k| {
            let d = if r.chance(0.03) {
                Value::Null
            } else {
                Value::Str(format!("w{:02}", r.next_below(60)))
            };
            vec![Value::I64(k), d, Value::I64(r.range_i64(0, 100))]
        }),
    )
    .unwrap();
    let sql = "SELECT d, COUNT(*), SUM(v), MIN(k), MAX(d) FROM w GROUP BY d";
    let want = sorted_rows(row_engine(&db, sql));
    assert_eq!(want.len(), 61, "60 strings and NULL");
    for (run, path) in [(0, "agg_fallback"), (1, "agg_adapt_veto")] {
        let got = sorted_rows(db.execute(sql).unwrap().rows);
        assert!(same_rows(&got, &want), "run {run}: {got:?}");
        assert!(
            extras_of(&db, "Scan")["vec_coded"] > 0,
            "d travels as codes"
        );
        let agg = extras_of(&db, "Aggregate");
        assert!(
            agg.contains_key(path),
            "run {run} should report {path}: {agg:?}"
        );
    }
    for (vs, dop) in [(7, 1), (1024, 2), (64, 4)] {
        db.set_vector_size(vs);
        db.set_parallelism(dop);
        let got = sorted_rows(db.execute(sql).unwrap().rows);
        assert!(same_rows(&got, &want), "vectors of {vs}, dop {dop}");
    }
}

/// An integer `IN` list is pushed into the scan as a key set: the zone maps
/// of a clustered key skip the row groups that hold none of its keys, the
/// encoded blocks are tested against its bits, and the rows are the row
/// engine's — on BIGINT, INT and DATE columns with NULLs. Lists that must
/// stay residual (`NOT IN`, a NULL in the list, keys too far apart for a
/// bitmap) give the same rows.
#[test]
fn integer_in_lists_are_pushed_as_key_sets() {
    let db = Database::new().unwrap();
    db.execute(
        "CREATE TABLE t (k BIGINT NOT NULL, i INT, d DATE, v BIGINT NOT NULL) \
         ORDER BY (k) PARTITION BY RANGE(k) PARTITIONS 4",
    )
    .unwrap();
    let or_null = |i: i64, every: i64, v: Value| if i % every == 0 { Value::Null } else { v };
    db.bulk_load(
        "t",
        (0..8000i64).map(|k| {
            vec![
                Value::I64(k),
                or_null(k, 11, Value::I32((k % 97 - 40) as i32)),
                or_null(k, 13, Value::Date(9000 + (k % 400) as i32)),
                Value::I64(k % 5),
            ]
        }),
    )
    .unwrap();
    let run = |sql: &str| {
        let got = sorted_rows(db.execute(sql).unwrap().rows);
        let want = sorted_rows(row_engine(&db, sql));
        assert!(same_rows(&got, &want), "{sql}: {got:?} vs {want:?}");
        let scan = extras_of(&db, "Scan");
        let get = |k: &str| scan.get(k).copied().unwrap_or(0);
        (got.len(), get("pruned"), get("enc_evals"))
    };
    // The clustered key: only the first of four partitions holds a key.
    let (rows, pruned, evals) = run("SELECT k, v FROM t WHERE k IN (3, 17, 1999)");
    assert_eq!((rows, pruned), (3, 3));
    assert!(evals > 0);
    // The same test computed: nothing pushed, nothing pruned.
    let (rows, pruned, evals) = run("SELECT k, v FROM t WHERE k + 0 IN (3, 17, 1999)");
    assert_eq!((rows, pruned, evals), (3, 0, 0));
    for sql in [
        "SELECT k, i FROM t WHERE i IN (-3, 0, 56)",
        "SELECT k, d FROM t WHERE d IN (DATE '1994-08-23', DATE '1995-01-01')",
        "SELECT k, i FROM t WHERE i IN (5) AND v = 2",
    ] {
        let (rows, _, evals) = run(sql);
        assert!(rows > 0 && evals > 0, "{sql}");
    }
    for sql in [
        "SELECT k, i FROM t WHERE i NOT IN (1, 2)",
        "SELECT k, i FROM t WHERE i IN (1, NULL)",
        "SELECT k, v FROM t WHERE k IN (5, 100000000000)",
    ] {
        let (rows, _, _) = run(sql);
        assert!(rows > 0, "{sql}");
    }
}
