//! Physical design: declared sort orders, range-partitioned storage and
//! order-aware streaming plans.
//!
//! The contract under test is strict: a table's physical design (ORDER BY,
//! PARTITION BY RANGE) is an *optimization hint*, never a semantics change.
//! Every query must return byte-identical results on an ordered/partitioned
//! layout and on the plain insertion-order single-disk layout, at any
//! parallelism — while serial plans get cheaper (dropped Sorts, streaming
//! MergeJoins) and range queries skip whole partitions (and their disks).

mod common;

use common::*;
use vectorwise::common::{RangePartitionSpec, SortSpec, TableLayout};
use vectorwise::sql::CatalogView;
use vectorwise::tpch::{all_queries, tpch_schema, TpchCatalog, TpchGenerator, TPCH_TABLES};
use vectorwise::{Database, Value};

const SF: f64 = 0.003;

/// Load TPC-H twice from the same generator: once with the trivial layout,
/// once with a declared physical design (big tables sorted on their join
/// key, lineitem + orders range-partitioned on it across 4 devices).
fn tpch_pair(sf: f64) -> (Database, Database, TpchCatalog) {
    let plain = Database::new().expect("plain db");
    let physical = Database::new().expect("physical db");
    for table in TPCH_TABLES {
        let schema = tpch_schema(table).unwrap();
        plain.create_table(table, schema.clone()).unwrap();
        let layout = declared_layout(table, &schema);
        physical
            .create_table_with_layout(table, schema, layout)
            .unwrap();
        let generator = TpchGenerator::new(sf);
        plain.bulk_load(table, generator.rows(table)).unwrap();
        let generator = TpchGenerator::new(sf);
        physical.bulk_load(table, generator.rows(table)).unwrap();
    }
    let cat = TpchCatalog::new(|name| plain.resolve_table(name)).unwrap();
    (plain, physical, cat)
}

fn declared_layout(table: &str, schema: &vectorwise::Schema) -> TableLayout {
    let key = |name: &str| schema.index_of(name).unwrap();
    match table {
        "lineitem" => TableLayout {
            order: vec![SortSpec::new(key("l_orderkey"), true)],
            partition: Some(RangePartitionSpec {
                col: key("l_orderkey"),
                partitions: 4,
            }),
        },
        "orders" => TableLayout {
            order: vec![SortSpec::new(key("o_orderkey"), true)],
            partition: Some(RangePartitionSpec {
                col: key("o_orderkey"),
                partitions: 4,
            }),
        },
        "customer" => TableLayout::ordered(vec![SortSpec::new(key("c_custkey"), true)]),
        _ => TableLayout::default(),
    }
}

/// Exact row-stream equality (order included). `total_cmp` instead of `==`
/// so float NaN/-0.0 cannot produce a spurious mismatch.
fn assert_identical(a: &[Vec<Value>], b: &[Vec<Value>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: row counts differ");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.len(), y.len(), "{what}: row {i} widths differ");
        for (c, (vx, vy)) in x.iter().zip(y.iter()).enumerate() {
            assert!(
                vx.total_cmp(vy) == std::cmp::Ordering::Equal,
                "{what}: row {i} col {c}: {vx:?} != {vy:?}"
            );
        }
    }
}

fn explain(db: &Database, sql: &str) -> String {
    db.execute(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e}"))
        .rows
        .into_iter()
        .map(|r| match &r[0] {
            Value::Str(s) => s.clone(),
            other => panic!("EXPLAIN row is not text: {other:?}"),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn all_tpch_queries_byte_identical_across_layouts() {
    let (plain, physical, cat) = tpch_pair(SF);
    // Serial plans must be byte-identical: the ordering pass only rewrites
    // when the rewritten plan streams the exact same rows in the exact same
    // order. At dop > 1 the layouts still agree row-for-row, but float
    // aggregates may differ in the last ULPs — partitioned storage draws
    // different row-group boundaries, so parallel partials combine in a
    // different order (the same tolerance every parallel suite here uses).
    // The second round reads the partitioned, ordered tables through the
    // cooperative-scan buffer manager: a serial scan's private queue still
    // hands out its row groups in storage order, which sort elision and
    // merge joins rely on.
    for coop in [false, true] {
        if coop {
            physical.enable_cooperative_scans(64 << 20);
        }
        for dop in [1usize, 4] {
            plain.set_parallelism(dop);
            physical.set_parallelism(dop);
            for (n, plan) in all_queries(&cat) {
                let a = run_vectorized(&plain, &plan);
                let b = run_vectorized(&physical, &plan);
                let what = format!("Q{n} dop={dop} cooperative scans {coop}");
                if dop == 1 {
                    assert_identical(&a, &b, &what);
                } else {
                    assert_rows_match(&what, &b, &a);
                }
            }
        }
    }
}

#[test]
fn redundant_sort_dropped_on_declared_order() {
    let (plain, physical, _) = tpch_pair(0.001);
    let sql = "EXPLAIN SELECT o_orderkey, o_totalprice FROM orders \
               WHERE o_totalprice > 0.0 ORDER BY o_orderkey";
    plain.set_parallelism(1);
    physical.set_parallelism(1);
    let baseline = explain(&plain, sql);
    assert!(
        baseline.contains("Sort"),
        "unordered layout must sort:\n{baseline}"
    );
    let ordered = explain(&physical, sql);
    assert!(
        !ordered.contains("Sort"),
        "declared order should elide the Sort:\n{ordered}"
    );
    // The streaming plan still returns the exact same rows.
    let q = "SELECT o_orderkey, o_totalprice FROM orders \
             WHERE o_totalprice > 0.0 ORDER BY o_orderkey";
    assert_identical(
        &plain.execute(q).unwrap().rows,
        &physical.execute(q).unwrap().rows,
        "sort-elision query",
    );
    // Parallel plans keep the Sort on both layouts (delivered order does not
    // survive morsel interleaving).
    physical.set_parallelism(4);
    let parallel = explain(&physical, sql);
    assert!(parallel.contains("Sort"), "dop>1 must keep the Sort");
}

#[test]
fn co_ordered_tables_join_with_streaming_merge() {
    let (plain, physical, _) = tpch_pair(0.001);
    let sql = "SELECT o_orderkey, l_extendedprice FROM orders, lineitem \
               WHERE o_orderkey = l_orderkey";
    plain.set_parallelism(1);
    physical.set_parallelism(1);
    let baseline = explain(&plain, &format!("EXPLAIN {sql}"));
    assert!(
        baseline.contains("Join") && !baseline.contains("MergeJoin"),
        "unordered layout should hash-join:\n{baseline}"
    );
    let merged = explain(&physical, &format!("EXPLAIN {sql}"));
    assert!(
        merged.contains("MergeJoin"),
        "co-ordered inputs should merge-join:\n{merged}"
    );
    assert_identical(
        &plain.execute(sql).unwrap().rows,
        &physical.execute(sql).unwrap().rows,
        "merge-join query",
    );
}

#[test]
fn range_predicate_prunes_partitions_and_their_disks() {
    let (plain, physical, _) = tpch_pair(SF);
    plain.set_parallelism(1);
    physical.set_parallelism(1);
    // Partition bounds are equal-count quantiles of l_orderkey, so a
    // predicate below the first internal bound rules out partitions 1..3.
    let sql = "SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_orderkey < 50";
    let analyzed = explain(&physical, &format!("EXPLAIN ANALYZE {sql}"));
    let pruned: u64 = analyzed
        .lines()
        .find_map(|l| {
            l.split([' ', ','])
                .find_map(|tok| tok.strip_prefix("partitions_pruned="))
                .map(|v| v.parse().unwrap())
        })
        .unwrap_or_else(|| panic!("no partitions_pruned counter in:\n{analyzed}"));
    assert!(
        pruned >= 2,
        "expected at least half of 4 partitions pruned, got {pruned}:\n{analyzed}"
    );
    // The avoided partitions' own devices recorded the skipped bytes.
    let io = physical
        .execute("SELECT disk, bytes_skipped FROM vw_io")
        .unwrap()
        .rows;
    let part_disks: Vec<(&str, i64)> = io
        .iter()
        .map(|r| match (&r[0], &r[1]) {
            (Value::Str(d), Value::I64(b)) => (d.as_str(), *b),
            other => panic!("unexpected vw_io row {other:?}"),
        })
        .filter(|(d, _)| d.starts_with("lineitem.p"))
        .collect();
    assert_eq!(part_disks.len(), 4, "one vw_io row per partition: {io:?}");
    assert!(
        part_disks.iter().filter(|(_, b)| *b > 0).count() >= 2,
        "pruned partitions should charge skipped bytes to their disks: {part_disks:?}"
    );
    // And the answer itself is unchanged by all that skipping.
    assert_identical(
        &plain.execute(sql).unwrap().rows,
        &physical.execute(sql).unwrap().rows,
        "pruning query",
    );
    // Skips decided while the scan runs land on the shard too, never on the
    // base device. Neither predicate is one the planner prunes with (string
    // IN-lists are decided per group when the scan opens it): the first is
    // outside every group's zone map, so each group is skipped unread; the
    // second is inside it but matches no row, so only the predicate column's
    // block is ever opened.
    let skipped_by_disk = || -> Vec<(String, i64)> {
        physical
            .execute("SELECT disk, bytes_skipped FROM vw_io")
            .unwrap()
            .rows
            .iter()
            .map(|r| match (&r[0], &r[1]) {
                (Value::Str(d), Value::I64(b)) => (d.clone(), *b),
                other => panic!("unexpected vw_io row {other:?}"),
            })
            .collect()
    };
    for in_list in ["'ZZZ'", "'AIRX'"] {
        let sql = format!(
            "SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_shipmode IN ({in_list})"
        );
        let before = skipped_by_disk();
        let rows = physical.execute(&sql).unwrap().rows;
        assert_identical(&plain.execute(&sql).unwrap().rows, &rows, "per-group skip");
        for ((disk, was), (_, now)) in before.iter().zip(skipped_by_disk()) {
            if disk.starts_with("lineitem.p") {
                assert!(now > *was, "{in_list}: {disk} recorded no skipped bytes");
            } else {
                assert_eq!(now, *was, "{in_list}: skip charged to {disk}");
            }
        }
    }
}

/// Checkpoint-under-churn property: an ORDER BY table stays value-identical
/// to a plain-layout table fed the same DML, across interleaved inserts,
/// deletes, updates and checkpoints — and once checkpointed, its scan
/// delivers the declared order with no Sort in the plan.
#[test]
fn checkpoint_under_churn_preserves_order_and_values() {
    let ordered = Database::new().unwrap();
    let plain = Database::new().unwrap();
    ordered
        .execute(
            "CREATE TABLE t (k BIGINT, v BIGINT) \
             ORDER BY (k) PARTITION BY RANGE(k) PARTITIONS 3",
        )
        .unwrap();
    plain
        .execute("CREATE TABLE t (k BIGINT, v BIGINT)")
        .unwrap();
    // Deterministic pseudo-random churn (LCG; no external deps).
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut next_v = 0i64;
    for round in 0..8 {
        for _ in 0..40 {
            let k = (rng() % 1000) as i64;
            next_v += 1;
            let stmt = format!("INSERT INTO t VALUES ({k}, {next_v})");
            ordered.execute(&stmt).unwrap();
            plain.execute(&stmt).unwrap();
        }
        let dk = (rng() % 1000) as i64;
        let del = format!("DELETE FROM t WHERE k = {dk}");
        ordered.execute(&del).unwrap();
        plain.execute(&del).unwrap();
        let (ulo, uhi) = ((rng() % 900) as i64, 100i64);
        let upd = format!(
            "UPDATE t SET v = v + 1000000 WHERE k >= {ulo} AND k < {}",
            ulo + uhi
        );
        ordered.execute(&upd).unwrap();
        plain.execute(&upd).unwrap();
        if round % 2 == 1 {
            ordered.checkpoint("t").unwrap();
            plain.checkpoint("t").unwrap();
        }
        // Same multiset of rows, checkpointed or not, serial or parallel.
        let q = "SELECT k, v FROM t ORDER BY k, v";
        for dop in [1usize, 3] {
            ordered.set_parallelism(dop);
            plain.set_parallelism(dop);
            assert_identical(
                &ordered.execute(q).unwrap().rows,
                &plain.execute(q).unwrap().rows,
                &format!("churn round {round} dop {dop}"),
            );
        }
    }
    // Settle: after a final checkpoint the PDT is empty again, so the
    // declared order is delivered physically and the Sort disappears.
    ordered.checkpoint("t").unwrap();
    ordered.set_parallelism(1);
    let plan = explain(&ordered, "EXPLAIN SELECT k, v FROM t ORDER BY k");
    assert!(
        !plan.contains("Sort"),
        "checkpointed ORDER BY table should scan in order:\n{plan}"
    );
    // The bare scan (no ORDER BY at all) really is sorted on k.
    let rows = ordered.execute("SELECT k FROM t").unwrap().rows;
    assert!(
        rows.windows(2)
            .all(|w| { matches!((&w[0][0], &w[1][0]), (Value::I64(a), Value::I64(b)) if a <= b) }),
        "physical scan order violates the declared ORDER BY"
    );
}

/// An un-checkpointed PDT suspends order-based rewrites: correctness first.
#[test]
fn dirty_pdt_suspends_sort_elision() {
    let db = Database::new().unwrap();
    db.execute("CREATE TABLE t (k BIGINT, v BIGINT) ORDER BY (k)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (5, 1)").unwrap();
    db.set_parallelism(1);
    let dirty = explain(&db, "EXPLAIN SELECT k FROM t ORDER BY k");
    assert!(
        dirty.contains("Sort"),
        "uncheckpointed churn must keep the Sort:\n{dirty}"
    );
    db.checkpoint("t").unwrap();
    let clean = explain(&db, "EXPLAIN SELECT k FROM t ORDER BY k");
    assert!(
        !clean.contains("Sort"),
        "after checkpoint the Sort is redundant again:\n{clean}"
    );
}
