//! The join enumerator against oracles that cannot share its mistakes.
//!
//! * Random join graphs run through the optimizer on the vectorized engine
//!   and *unoptimized* on the row engine: a wrong reorder, a lost predicate or
//!   a semi join moved where it changes rows shows as different results.
//!   Some tables span several row groups and vectors, and some carry pending
//!   inserts, updates and deletes, so the joins' runtime filters meet zone
//!   maps, dirty groups and the append tail.
//! * Runtime filters: which joins install them, what they skip, and that
//!   they change no row and teach the optimizer nothing false.
//! * TPC-H: comma-form Q5 against its explicit-JOIN form, and the plan shapes
//!   of Q9 and Q18 on analyzed tables.
//! * The sampled distinct counts `analyze` reports for TPC-H keys.

mod common;

use common::*;
use std::collections::{BTreeMap, HashSet};
use vectorwise::common::rng::Xoshiro256;
use vectorwise::plan::{JoinKind, LogicalPlan};
use vectorwise::sql::{compile_sql, BoundStatement};
use vectorwise::tpch::{tpch_schema, TpchGenerator, TPCH_TABLES};
use vectorwise::{Database, Value};

// ------------------------------------------------ random join graphs

/// `n` small tables `t0..tn` with nullable join keys `k0, k1` over a domain
/// of six values, so joins match often and NULL keys occur on every side.
/// Some tables are range-partitioned on `k0` (row groups of disjoint key
/// ranges, which a join's key set can rule out), some get pending changes
/// after the load (dirty groups, an append tail), and some databases use
/// vectors of a few rows.
fn random_tables(r: &mut Xoshiro256, n: usize) -> Database {
    let db = Database::new().unwrap();
    if r.chance(0.3) {
        db.set_vector_size(2 + r.next_below(4) as usize);
    }
    for t in 0..n {
        let layout = if r.chance(0.3) {
            " ORDER BY (k0) PARTITION BY RANGE(k0) PARTITIONS 3"
        } else {
            ""
        };
        db.execute(&format!(
            "CREATE TABLE t{t} (k0 BIGINT, k1 BIGINT, v BIGINT, f DOUBLE NOT NULL){layout}"
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
        if r.chance(0.3) {
            let k = |r: &mut Xoshiro256| r.range_i64(0, 5);
            for sql in [
                format!("UPDATE t{t} SET k0 = {} WHERE v > {}", k(r), k(r)),
                format!("UPDATE t{t} SET v = v + 1 WHERE k1 = {}", k(r)),
                format!("DELETE FROM t{t} WHERE v < {}", r.range_i64(-20, -10)),
                format!("INSERT INTO t{t} VALUES ({}, NULL, {}, 0.5)", k(r), k(r)),
                format!("INSERT INTO t{t} VALUES (NULL, {}, NULL, -1.5)", k(r)),
            ] {
                db.execute(&sql).unwrap();
            }
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
        let mut got = Vec::new();
        for dop in [1, 4] {
            db.set_parallelism(dop);
            got.push((dop, canonical(db.execute(&sql).unwrap().rows)));
        }
        // The row engine reads the stable images: fold the pending changes
        // in first.
        for t in 0..n {
            db.checkpoint(&format!("t{t}")).unwrap();
        }
        let want = canonical(run_row_engine(&db, &bound));
        for (dop, got) in got {
            assert_rows_match(&format!("seed {seed} dop {dop}: {sql}"), &got, &want);
        }
    }
}

// ------------------------------------------------------ runtime filters

/// `f`, the probe side: `n` rows, keys `fk` ascending over four range
/// partitions (row groups of disjoint key ranges), a NULL key every 50th
/// row (sorted first, into the first partition). `d`: every 10th key below
/// `n / 5`, so only `f`'s first partition holds keys of a join with it.
/// `g`: `f` with its keys as INT.
fn rtf_tables(n: i64) -> Database {
    let db = Database::new().unwrap();
    for ddl in [
        "CREATE TABLE f (fk BIGINT, fv BIGINT NOT NULL) \
         ORDER BY (fk) PARTITION BY RANGE(fk) PARTITIONS 4",
        "CREATE TABLE d (dk BIGINT, dv BIGINT NOT NULL)",
        "CREATE TABLE g (gk INT, gv BIGINT NOT NULL)",
    ] {
        db.execute(ddl).unwrap();
    }
    let key = |i: i64| {
        if i % 50 == 7 {
            Value::Null
        } else {
            Value::I64(i)
        }
    };
    db.bulk_load("f", (0..n).map(|i| vec![key(i), Value::I64(i % 13)]))
        .unwrap();
    let dim = (0..n / 5).step_by(10);
    db.bulk_load("d", dim.map(|i| vec![Value::I64(i), Value::I64(i % 7)]))
        .unwrap();
    let g = (0..n).map(|i| match key(i) {
        Value::I64(k) => vec![Value::I32(k as i32), Value::I64(i % 13)],
        null => vec![null, Value::I64(i % 13)],
    });
    db.bulk_load("g", g).unwrap();
    db
}

/// `sql` on the vectorized engine and, as the bound plan, on the row engine.
fn vectorized_and_row(db: &Database, sql: &str) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let got = canonical(db.execute(sql).unwrap().rows);
    let bound = match compile_sql(sql, db).unwrap() {
        BoundStatement::Query(p) => p,
        other => panic!("{other:?}"),
    };
    (got, canonical(run_row_engine(db, &bound)))
}

/// Extras of the last query's scans of `table`, summed over workers.
fn scan_extras(db: &Database, table: &str) -> BTreeMap<&'static str, u64> {
    let prof = db.profile_last_query().expect("profiling is on");
    let mut sum = BTreeMap::new();
    let label = format!("Scan {table} ");
    for node in prof
        .nodes()
        .into_iter()
        .filter(|n| n.label().starts_with(&label))
    {
        for (k, v) in node.extras() {
            *sum.entry(k).or_insert(0) += v;
        }
    }
    sum
}

#[test]
fn inner_and_semi_probes_take_runtime_filters_left_and_anti_do_not() {
    let db = rtf_tables(4000);
    for (sql, filtered) in [
        ("SELECT fk, fv, dv FROM f, d WHERE fk = dk", true),
        ("SELECT fk, fv FROM f WHERE fk IN (SELECT dk FROM d)", true),
        ("SELECT fk, fv, dv FROM f LEFT JOIN d ON fk = dk", false),
        (
            "SELECT fk, fv FROM f WHERE fk NOT IN (SELECT dk FROM d)",
            false,
        ),
    ] {
        let (got, want) = vectorized_and_row(&db, sql);
        assert_rows_match(sql, &got, &want);
        let f = scan_extras(&db, "f");
        assert_eq!(f.contains_key("rtf"), filtered, "{sql}: {f:?}");
        assert!(!scan_extras(&db, "d").contains_key("rtf"), "{sql}");
        if filtered {
            // The NULL keys and the keys no row of `d` has, the last three
            // partitions without reading them.
            assert_eq!(f["rtf_dropped"], 4000 - got.len() as u64, "{sql}");
            assert_eq!(f["pruned"], 3, "{sql}: {f:?}");
        }
    }
}

#[test]
fn an_empty_build_reads_no_block_of_the_probe_side() {
    let db = rtf_tables(4000);
    let ctx = db.exec_context(None).unwrap();
    let f = ctx
        .tables
        .values()
        .find(|p| p.storage.read().schema().field(0).name == "fk")
        .expect("table f")
        .storage
        .clone();
    // Skipped bytes on the disks holding `f`'s blocks.
    let skipped = || {
        let st = f.read();
        let parts = st.partition_disks();
        match parts.is_empty() {
            true => st.disk().stats().bytes_skipped,
            false => parts.iter().map(|d| d.stats().bytes_skipped).sum(),
        }
    };
    let table_bytes: u64 = {
        let st = f.read();
        (0..st.group_count())
            .flat_map(|g| st.group(g).columns.iter().map(|c| c.encoded_bytes as u64))
            .sum()
    };
    // No row of `d` passes, and its filter is not one zone maps decide.
    let sql = "SELECT fk, fv FROM f, d WHERE fk = dk AND dv * 2 > 100";
    let before = skipped();
    let (got, want) = vectorized_and_row(&db, sql);
    assert!(got.is_empty() && want.is_empty());
    let f_scan = scan_extras(&db, "f");
    assert_eq!(f_scan["rtf_dropped"], 4000, "{f_scan:?}");
    assert_eq!(f_scan["pruned"], 4, "{f_scan:?}");
    assert_eq!(f_scan["morsels"], 0, "{f_scan:?}");
    // `d` decodes every vector it reads, so it skips nothing on a disk it
    // shares with `f`.
    assert_eq!(skipped() - before, table_bytes);
}

#[test]
fn runtime_filters_drop_the_same_rows_at_every_dop() {
    let db = rtf_tables(20_000);
    let sql = "SELECT dv, COUNT(*), SUM(fv) FROM f, d WHERE fk = dk AND dv < 5 GROUP BY dv";
    let mut first = None;
    for dop in [1, 2, 4] {
        db.set_parallelism(dop);
        let (got, want) = vectorized_and_row(&db, sql);
        assert_rows_match(&format!("dop {dop}"), &got, &want);
        let f = scan_extras(&db, "f");
        assert_eq!(f["rtf"], dop as u64, "one per worker: {f:?}");
        let dropped = f["rtf_dropped"];
        match first {
            None => first = Some(dropped),
            Some(d) => assert_eq!(dropped, d, "dop {dop}"),
        }
    }
    assert!(first.unwrap() > 19_000);
}

/// INT keys against BIGINT ones compare as integers, as the join's key
/// check does (the row engine tells the two types apart, so the reference
/// is the same join over `f`, whose keys are BIGINT).
#[test]
fn an_int_probe_key_meets_a_bigint_build_key() {
    let db = rtf_tables(4000);
    let widen = |rows: Vec<Vec<Value>>| {
        let int = |v: Value| match v {
            Value::I32(k) => Value::I64(k as i64),
            v => v,
        };
        canonical(
            rows.into_iter()
                .map(|r| r.into_iter().map(int).collect())
                .collect(),
        )
    };
    for (sql, reference) in [
        (
            "SELECT gk, gv, dv FROM g, d WHERE gk = dk",
            "SELECT fk, fv, dv FROM f, d WHERE fk = dk",
        ),
        (
            "SELECT gk, gv FROM g WHERE gk IN (SELECT dk FROM d)",
            "SELECT fk, fv FROM f WHERE fk IN (SELECT dk FROM d)",
        ),
    ] {
        let want = widen(db.execute(reference).unwrap().rows);
        let got = widen(db.execute(sql).unwrap().rows);
        assert_eq!(got.len(), 80, "{sql}");
        assert_rows_match(sql, &got, &want);
        let g = scan_extras(&db, "g");
        assert_eq!(g["rtf"], 1, "{sql}: {g:?}");
        assert_eq!(g["rtf_dropped"], 3920, "{sql}: {g:?}");
    }
}

#[test]
fn a_spilled_build_publishes_no_runtime_filter() {
    let db = rtf_tables(4000);
    // A budget `d`'s 80 rows outgrow: the build goes grace.
    db.execute("SET memory_budget = '1KiB'").unwrap();
    let sql = "SELECT fk, fv, dv FROM f, d WHERE fk = dk";
    let (got, want) = vectorized_and_row(&db, sql);
    assert_eq!(got.len(), 80);
    assert_rows_match(sql, &got, &want);
    let prof = db.profile_last_query().unwrap();
    let join = prof
        .nodes()
        .into_iter()
        .find(|n| n.op_name() == "Join")
        .unwrap();
    let spilled = join
        .extras()
        .iter()
        .any(|&(k, v)| k == "spill_bytes" && v > 0);
    assert!(spilled, "the build did not spill:\n{}", prof.render());
    assert!(!scan_extras(&db, "f").contains_key("rtf"));
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

const Q3: &str = "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, \
    o_orderdate, o_shippriority FROM customer, orders, lineitem \
    WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey \
    AND l_orderkey = o_orderkey AND o_orderdate < DATE '1995-03-15' \
    AND l_shipdate > DATE '1995-03-15' \
    GROUP BY l_orderkey, o_orderdate, o_shippriority \
    ORDER BY revenue DESC, o_orderdate, l_orderkey LIMIT 10";

const Q10: &str = "SELECT c_custkey, c_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue, \
    c_acctbal, n_name, c_address, c_phone, c_comment \
    FROM customer, orders, lineitem, nation \
    WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey \
    AND o_orderdate >= DATE '1993-10-01' AND o_orderdate < DATE '1994-01-01' \
    AND l_returnflag = 'R' AND c_nationkey = n_nationkey \
    GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment \
    ORDER BY revenue DESC, c_custkey LIMIT 20";

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

/// Cardinality feedback sees a scan's rows before the runtime filters a
/// join put into it: repeating the join templates teaches the optimizer
/// nothing that moves a plan, and no correction for lineitem scanned whole
/// (which the filters cut to a few percent in Q5, Q9 and Q18). Every table
/// is one extent whatever `VW_PARTITIONS` says: over four partitions the
/// feedback on Q9's joins alone, runtime filters or none, moves its plan.
#[test]
fn runtime_filters_teach_the_optimizer_nothing_false() {
    use vectorwise::common::{RangePartitionSpec, TableLayout};
    let db = Database::new().unwrap();
    let generator = TpchGenerator::new(0.01);
    for table in TPCH_TABLES {
        let one_extent = TableLayout {
            order: Vec::new(),
            partition: Some(RangePartitionSpec {
                col: 0,
                partitions: 1,
            }),
        };
        db.create_table_with_layout(table, tpch_schema(table).unwrap(), one_extent)
            .unwrap();
        db.bulk_load(table, generator.rows(table)).unwrap();
        db.analyze(table).unwrap();
    }
    let templates = [Q3, Q5_JOINS, Q9, Q10, Q18];
    let explain = |sql: &str| {
        let rows = db.execute(&format!("EXPLAIN {sql}")).unwrap().rows;
        rows.iter()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let first: Vec<String> = templates.iter().map(|sql| explain(sql)).collect();
    for _ in 0..10 {
        for sql in templates {
            db.execute(sql).unwrap();
        }
    }
    // Lineitem scanned whole: the probe side of Q5's lowest join.
    fn whole_lineitem(p: &LogicalPlan) -> Option<&LogicalPlan> {
        match p {
            LogicalPlan::Scan {
                table,
                filter: None,
                ..
            } if table == "lineitem" => Some(p),
            _ => p.children().into_iter().find_map(whole_lineitem),
        }
    }
    let plan = optimized(&db, Q5_JOINS);
    let scan = whole_lineitem(&plan).expect("Q5 scans lineitem whole");
    let shape = format!("(shape {:016x})", vectorwise::plan::fingerprint(scan));
    for (sql, first) in templates.iter().zip(first) {
        assert_eq!(explain(sql), first, "the plan moved:\n{sql}");
        let text = db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap().rows;
        let lines: Vec<&str> = text.iter().filter_map(|r| r[0].as_str()).collect();
        let scans = lines.iter().filter(|l| l.contains("rtf=")).count();
        assert!(scans > 0, "no runtime filter in\n{}", lines.join("\n"));
        let feedback = lines.iter().find(|l| l.starts_with("vw_plan_feedback"));
        assert!(
            feedback.is_none_or(|l| !l.contains(&shape)),
            "a correction for lineitem scanned whole: {feedback:?}"
        );
    }
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
