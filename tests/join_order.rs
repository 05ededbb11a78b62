//! The join enumerator against oracles that cannot share its mistakes.
//!
//! * Random join graphs run through the optimizer on the vectorized engine
//!   and *unoptimized* on the row engine: a wrong reorder, a lost predicate or
//!   a semi join moved where it changes rows shows as different results.
//! * TPC-H: comma-form Q5 against its explicit-JOIN form, and the plan shapes
//!   of Q9 and Q18 on analyzed tables.
//! * The sampled distinct counts `analyze` reports for TPC-H keys.

mod common;

use common::*;
use std::collections::HashSet;
use vectorwise::common::rng::Xoshiro256;
use vectorwise::plan::{JoinKind, LogicalPlan};
use vectorwise::sql::{compile_sql, BoundStatement};
use vectorwise::tpch::{tpch_schema, TpchGenerator, TPCH_TABLES};
use vectorwise::{Database, Value};

// ------------------------------------------------ random join graphs

/// `n` small tables `t0..tn` with nullable join keys `k0, k1` over a domain
/// of six values, so joins match often and NULL keys occur on every side.
fn random_tables(r: &mut Xoshiro256, n: usize) -> Database {
    let db = Database::new().unwrap();
    for t in 0..n {
        db.execute(&format!(
            "CREATE TABLE t{t} (k0 BIGINT, k1 BIGINT, v BIGINT, f DOUBLE NOT NULL)"
        ))
        .unwrap();
        let rows = 3 + r.next_below(25);
        let maybe = |r: &mut Xoshiro256, lo, hi| {
            if r.chance(0.1) {
                Value::Null
            } else {
                Value::I64(r.range_i64(lo, hi))
            }
        };
        let data: Vec<Vec<Value>> = (0..rows)
            .map(|_| {
                vec![
                    maybe(r, 0, 5),
                    maybe(r, 0, 5),
                    maybe(r, -20, 20),
                    Value::F64(r.range_i64(-400, 400) as f64 / 8.0),
                ]
            })
            .collect();
        db.bulk_load(&format!("t{t}"), data).unwrap();
        if r.chance(0.5) {
            db.analyze(&format!("t{t}")).unwrap();
        }
    }
    db
}

fn key(r: &mut Xoshiro256) -> &'static str {
    if r.chance(0.5) {
        "k0"
    } else {
        "k1"
    }
}

/// A query over `n` tables: a chain, star or cycle of equalities, written
/// comma-form or as a `JOIN … ON` chain (with one LEFT JOIN now and then),
/// plus scan filters, predicates across two tables and `[NOT] IN` subqueries.
fn random_query(r: &mut Xoshiro256, n: usize) -> String {
    // Edge i links table i to an earlier one; a cycle adds one more edge.
    let shape = r.next_below(3);
    let mut edges: Vec<(usize, usize)> = (1..n)
        .map(|i| match shape {
            0 => (i - 1, i),
            1 => (0, i),
            _ => (r.next_below(i as u64) as usize, i),
        })
        .collect();
    if n >= 3 && r.chance(0.5) {
        edges.push((0, n - 1));
    }
    let edges: Vec<String> = edges
        .iter()
        .map(|&(a, b)| format!("t{a}.{} = t{b}.{}", key(r), key(r)))
        .collect();
    let mut conds: Vec<String> = Vec::new();
    for t in 0..n {
        if r.chance(0.35) {
            conds.push(match r.next_below(4) {
                0 => format!("t{t}.v > {}", r.range_i64(-15, 15)),
                1 => format!("t{t}.f < {}", r.range_i64(-40, 40)),
                2 => format!("t{t}.v IS NULL"),
                _ => format!("t{t}.k1 <> {}", r.range_i64(0, 5)),
            });
        }
    }
    if n >= 2 && r.chance(0.5) {
        let (a, b) = (r.next_below(n as u64), r.next_below(n as u64));
        if a != b {
            conds.push(if r.chance(0.5) {
                format!("t{a}.v < t{b}.v")
            } else {
                format!("t{a}.f + t{b}.f > {}", r.range_i64(-30, 30))
            });
        }
    }
    if r.chance(0.5) {
        let (t, s) = (r.next_below(n as u64), r.next_below(n as u64));
        conds.push(format!(
            "t{t}.{} {}IN (SELECT k1 FROM t{s} WHERE v > {})",
            key(r),
            if r.chance(0.5) { "NOT " } else { "" },
            r.range_i64(-20, 10)
        ));
    }
    let cols: Vec<String> = (0..n)
        .map(|t| format!("t{t}.{}", ["k0", "k1", "v", "f"][r.next_below(4) as usize]))
        .collect();
    let from = if r.chance(0.5) {
        conds.extend(edges);
        (0..n)
            .map(|t| format!("t{t}"))
            .collect::<Vec<_>>()
            .join(", ")
    } else {
        // Table i joins on edge i - 1; a closing cycle edge filters.
        let mut from = String::from("t0");
        for (i, e) in edges.iter().enumerate() {
            if i + 1 < n {
                let left = if r.chance(0.15) { "LEFT " } else { "" };
                from.push_str(&format!(" {left}JOIN t{} ON {e}", i + 1));
            } else {
                conds.push(e.clone());
            }
        }
        from
    };
    let mut sql = format!("SELECT {} FROM {from}", cols.join(", "));
    if !conds.is_empty() {
        sql.push_str(&format!(" WHERE {}", conds.join(" AND ")));
    }
    sql
}

#[test]
fn reordered_joins_match_the_row_engine_on_the_bound_plan() {
    let cases = if cfg!(debug_assertions) { 60 } else { 400 };
    for seed in 0..cases {
        let mut r = Xoshiro256::seeded(0x5eed_0000 + seed);
        let n = 2 + r.next_below(6) as usize;
        let db = random_tables(&mut r, n);
        let sql = random_query(&mut r, n);
        let bound = match compile_sql(&sql, &db).unwrap() {
            BoundStatement::Query(p) => p,
            other => panic!("{other:?}"),
        };
        let want = canonical(run_row_engine(&db, &bound));
        for dop in [1, 4] {
            db.set_parallelism(dop);
            let got = canonical(db.execute(&sql).unwrap().rows);
            assert_rows_match(&format!("seed {seed} dop {dop}: {sql}"), &got, &want);
        }
    }
}

// ------------------------------------------------------------- TPC-H

const Q5_JOINS: &str = "SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue \
    FROM lineitem JOIN orders ON l_orderkey = o_orderkey \
    JOIN customer ON o_custkey = c_custkey \
    JOIN supplier ON l_suppkey = s_suppkey \
    JOIN nation ON s_nationkey = n_nationkey \
    JOIN region ON n_regionkey = r_regionkey \
    WHERE c_nationkey = s_nationkey AND r_name = 'ASIA' \
    AND o_orderdate >= DATE '1994-01-01' AND o_orderdate < DATE '1995-01-01' \
    GROUP BY n_name ORDER BY revenue DESC, n_name";

const Q5_COMMA: &str = "SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue \
    FROM customer, orders, lineitem, supplier, nation, region \
    WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_suppkey = s_suppkey \
    AND c_nationkey = s_nationkey AND s_nationkey = n_nationkey \
    AND n_regionkey = r_regionkey AND r_name = 'ASIA' \
    AND o_orderdate >= DATE '1994-01-01' AND o_orderdate < DATE '1995-01-01' \
    GROUP BY n_name ORDER BY revenue DESC, n_name";

const Q9: &str = "SELECT n_name AS nation, EXTRACT(YEAR FROM o_orderdate) AS o_year, \
    SUM(l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity) AS sum_profit \
    FROM part, supplier, lineitem, partsupp, orders, nation \
    WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey \
    AND ps_partkey = l_partkey AND p_partkey = l_partkey \
    AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey \
    AND p_name LIKE '%green%' \
    GROUP BY n_name, EXTRACT(YEAR FROM o_orderdate) ORDER BY nation, o_year DESC";

const Q18: &str = "SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, \
    SUM(l_quantity) AS sum_qty FROM customer, orders, lineitem \
    WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem GROUP BY l_orderkey \
    HAVING SUM(l_quantity) > 300) \
    AND c_custkey = o_custkey AND o_orderkey = l_orderkey \
    GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice \
    ORDER BY o_totalprice DESC, o_orderdate, o_orderkey LIMIT 100";

fn analyzed_tpch(sf: f64) -> (Database, vectorwise::tpch::TpchCatalog) {
    let (db, cat) = tpch_db(sf);
    for t in TPCH_TABLES {
        db.analyze(t).unwrap();
    }
    (db, cat)
}

fn optimized(db: &Database, sql: &str) -> LogicalPlan {
    match compile_sql(sql, db).unwrap() {
        BoundStatement::Query(p) => db.optimize_plan(p),
        other => panic!("{other:?}"),
    }
}

fn scans(p: &LogicalPlan, out: &mut Vec<String>) {
    if let LogicalPlan::Scan { table, .. } = p {
        out.push(table.clone());
    }
    for c in p.children() {
        scans(c, out);
    }
}

fn reads(p: &LogicalPlan, table: &str) -> bool {
    let mut t = Vec::new();
    scans(p, &mut t);
    t.iter().any(|t| t == table)
}

#[test]
fn comma_form_q5_matches_the_explicit_form_without_blowing_up() {
    let (db, _) = analyzed_tpch(0.01);
    let explicit = db.execute(Q5_JOINS).unwrap().rows;
    assert!(!explicit.is_empty());
    assert_rows_match(
        "comma-form Q5",
        &db.execute(Q5_COMMA).unwrap().rows,
        &explicit,
    );
    let lineitem = match db.execute("SELECT COUNT(*) FROM lineitem").unwrap().rows[0][0] {
        Value::I64(n) => n as u64,
        ref other => panic!("{other}"),
    };
    let text = db
        .execute(&format!("EXPLAIN ANALYZE {Q5_COMMA}"))
        .unwrap()
        .rows;
    let mut joins = 0;
    for line in text.iter().filter_map(|r| r[0].as_str()) {
        if !line.trim_start().starts_with("INNERJoin") {
            continue;
        }
        joins += 1;
        // "[x ms, y vec, N rows, …]"
        let rows: u64 = line
            .split(", ")
            .find_map(|part| part.strip_suffix(" rows"))
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no row count in {line}"));
        assert!(rows <= lineitem, "a join emits {rows} rows: {line}");
        assert!(line.contains("est_rows="), "{line}");
    }
    assert_eq!(joins, 5);
}

#[test]
fn q9_joins_part_first_and_q18_filters_orders_first() {
    let (db, cat) = analyzed_tpch(0.01);
    // Q9: the lowest join over lineitem brings in the filtered part table,
    // and no join builds on lineitem before part has filtered it.
    let plan = optimized(&db, Q9);
    fn check_builds(p: &LogicalPlan) {
        if let LogicalPlan::Join { right, .. } = p {
            assert!(
                !reads(right, "lineitem") || reads(right, "part"),
                "builds on lineitem's unfiltered pipeline"
            );
        }
        p.children().into_iter().for_each(check_builds);
    }
    check_builds(&plan);
    fn lowest_join_over<'a>(p: &'a LogicalPlan, table: &str) -> Option<&'a LogicalPlan> {
        let below = p
            .children()
            .into_iter()
            .find_map(|c| lowest_join_over(c, table));
        match p {
            LogicalPlan::Join { .. } if below.is_none() && reads(p, table) => Some(p),
            _ => below,
        }
    }
    let first = lowest_join_over(&plan, "lineitem").expect("a join over lineitem");
    let mut joined = Vec::new();
    scans(first, &mut joined);
    joined.sort();
    assert_eq!(joined, ["lineitem", "part"], "\n{}", plan.explain());

    // Q18: the IN-subquery's semi join sits directly on the orders scan.
    let plan = optimized(&db, Q18);
    fn semi_left(p: &LogicalPlan) -> Option<&LogicalPlan> {
        match p {
            LogicalPlan::Join {
                left,
                kind: JoinKind::Semi,
                ..
            } => Some(left),
            _ => p.children().into_iter().find_map(semi_left),
        }
    }
    let left = semi_left(&plan).expect("a semi join");
    assert!(
        matches!(left, LogicalPlan::Scan { table, .. } if table == "orders"),
        "\n{}",
        plan.explain()
    );
    let hand_built = run_vectorized(&db, &vectorwise::tpch::queries::q18(&cat, 300.0));
    assert_rows_match("Q18", &db.execute(Q18).unwrap().rows, &hand_built);
}

// ------------------------------------------------ sampled distinct counts

#[test]
fn tpch_key_distinct_counts_are_within_twice_the_truth() {
    // SF 0.1: lineitem spans ten row groups and analyze reads five of them.
    let sf = 0.1;
    for seed in [1, 7] {
        let db = Database::new().unwrap();
        let generator = TpchGenerator::with_seed(sf, seed);
        for table in TPCH_TABLES {
            let schema = tpch_schema(table).unwrap();
            let rows = generator.rows(table);
            let keys: Vec<(usize, String)> = schema
                .fields()
                .iter()
                .enumerate()
                .filter(|(_, f)| f.name.ends_with("key"))
                .map(|(i, f)| (i, f.name.clone()))
                .collect();
            let truth: Vec<usize> = keys
                .iter()
                .map(|&(i, _)| rows.iter().map(|r| &r[i]).collect::<HashSet<_>>().len())
                .collect();
            db.create_table(table, schema).unwrap();
            db.bulk_load(table, rows).unwrap();
            db.analyze(table).unwrap();
            let stats = db.table_stats(table).unwrap().expect("analyzed");
            for ((i, name), truth) in keys.iter().zip(truth) {
                let est = stats.cols[*i].n_distinct as f64;
                let ratio = est / truth as f64;
                assert!(
                    (0.5..=2.0).contains(&ratio),
                    "seed {seed} {name}: estimated {est}, true {truth}"
                );
            }
        }
    }
}
