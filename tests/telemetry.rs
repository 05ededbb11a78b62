//! Observability end-to-end: system tables in both engines, per-worker
//! trace export, metrics registry consistency.

mod common;

use common::*;
use vectorwise::engine::operators::collect_rows;
use vectorwise::engine::{compile_plan, validate_chrome_json};
use vectorwise::tpch::all_queries;
use vectorwise::{Database, Value};

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

/// Sums of the profile extras named `key` over every node called `op`.
fn extra_sum(profile: &vectorwise::engine::QueryProfile, op: &str, key: &str) -> u64 {
    profile
        .nodes()
        .into_iter()
        .filter(|n| n.op_name() == op)
        .flat_map(|n| n.extras())
        .filter(|(k, _)| *k == key)
        .map(|(_, v)| v)
        .sum()
}

/// TPC-H Q1 serial and at dop 4: its group keys (returnflag × linestatus)
/// fit the direct-array domain, so the perfect-hash path engages; the
/// profile's root reports the rows the client received; and without a
/// memory budget nothing spills.
#[test]
fn tpch_q1_profile_takes_the_perfect_path_at_dop_1_and_4() {
    let (db, cat) = tpch_db(0.01);
    let (_, q1) = all_queries(&cat).swap_remove(0);
    for dop in [1usize, 4] {
        db.set_parallelism(dop);
        let rows = db.run_plan(q1.clone()).expect("Q1 run").rows;
        let profile = db.profile_last_query().expect("profiling is on by default");
        assert_eq!(profile.dop, dop);
        assert_eq!(profile.root.rows_out(), rows.len() as u64, "dop {dop}");
        let perfect = extra_sum(&profile, "Aggregate", "agg_path_perfect");
        assert!(
            perfect >= 1,
            "Q1 at dop {dop} should aggregate on the direct array"
        );
        if profile.mem.limit.is_none() {
            assert_eq!(profile.mem.spill_bytes, 0, "Q1 at dop {dop} spilled");
        }
    }
}

/// `EXPLAIN ANALYZE` of TPC-H Q1 as SQL: the pre-aggregate Project has one
/// column per distinct argument (two keys, five arguments), the aggregate
/// keeps six accumulator lanes per group (five sums and the row count that
/// COUNT(*) and the three AVGs share), and the direct-array path splits its
/// time into key coding and accumulator update.
#[test]
fn tpch_q1_explain_shows_shared_accumulators_and_split_time() {
    let (db, _) = tpch_db(0.01);
    let q1 = "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, \
              SUM(l_extendedprice) AS sum_base_price, \
              SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, \
              SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, \
              AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, \
              AVG(l_discount) AS avg_disc, COUNT(*) AS count_order \
              FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' \
              GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus";
    let want = run_row_engine(&db, &bind_query(&db, q1));
    assert_eq!(db.execute(q1).unwrap().rows, want);
    let text: Vec<String> = db
        .execute(&format!("EXPLAIN ANALYZE {q1}"))
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].to_string())
        .collect();
    let at = text
        .iter()
        .position(|l| l.contains("Aggregate"))
        .expect("an Aggregate");
    let (agg, pre) = (&text[at], &text[at + 1]);
    assert!(agg.contains("agg_path_perfect=1"), "{agg}");
    assert!(agg.contains("agg_accs=6,"), "{agg}");
    let ns = |key: &str| {
        let from = agg
            .find(&format!("{key}="))
            .unwrap_or_else(|| panic!("{key} in {agg}"));
        let digits = agg[from + key.len() + 1..]
            .split(|c: char| !c.is_ascii_digit())
            .next();
        digits.unwrap().parse::<u64>().unwrap()
    };
    assert!(ns("lookup_ns") > 0 && ns("update_ns") > 0, "{agg}");
    assert!(pre.trim_start().starts_with("Project"), "{pre}");
    assert_eq!(pre.matches(" AS __").count(), 7, "{pre}");
}

/// A range over about 1% of `l_orderkey`, which ascends in load order: the
/// scan rejects most vectors in encoded form and decodes none of their
/// columns. When `VW_PARTITIONS` range-partitions every table on its first
/// column — `l_orderkey` here — whole partitions drop out before any zone
/// map is read.
#[test]
fn selective_orderkey_scan_skips_vectors_and_default_partitions() {
    let (db, _) = tpch_db(0.01);
    let sql = "SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_orderkey < 150";
    let want = run_row_engine(&db, &bind_query(&db, sql));
    assert_rows_match(sql, &db.execute(sql).unwrap().rows, &want);
    let profile = db.profile_last_query().expect("profiling is on by default");
    assert!(extra_sum(&profile, "Scan", "vec_skipped") > 0);
    if vectorwise::common::config::env_default_partitions().is_some() {
        let pruned = extra_sum(&profile, "Scan", "partitions_pruned");
        assert!(pruned > 0, "no partition pruned for l_orderkey < 150");
    }
}

/// `EXPLAIN ANALYZE` of the fused Top-N line. `vwbench`'s full sort (N =
/// 10 000 of about 60K lineitem rows, in random order of its key) cuts its
/// pool at least once, and its `Sort` node, fused into the `Limit`, has no
/// time of its own. Ordered by `l_orderkey` descending, the input, which
/// ascends in load order, arrives worst first: the first cut's bound
/// rejects nothing, so the pool raises its threshold instead of cutting
/// again — one cut, then the final selection.
#[test]
fn topn_explains_its_cuts_and_adapts_to_worst_first_input() {
    let (db, _) = tpch_db(0.01);
    let explain = |sql: &str| -> Vec<String> {
        let rows = db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap().rows;
        rows.iter().map(|r| r[0].to_string()).collect()
    };
    let extra = |line: &str, key: &str| -> u64 {
        let from = line
            .find(&format!(" {key}="))
            .unwrap_or_else(|| panic!("{key} in {line}"));
        let digits = line[from + key.len() + 2..].split(|c: char| !c.is_ascii_digit());
        digits.into_iter().next().unwrap().parse().unwrap()
    };
    let full_sort = "SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem \
                     ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber LIMIT 10000";
    let text = explain(full_sort);
    let limit = text
        .iter()
        .find(|l| l.starts_with("Limit"))
        .expect("a Limit");
    let sort = text
        .iter()
        .find(|l| l.trim_start().starts_with("Sort"))
        .expect("a Sort");
    assert_eq!(extra(limit, "topn"), 1, "{limit}");
    assert!(extra(limit, "topn_cuts") >= 1, "{limit}");
    assert!(extra(limit, "topn_pool_rows") < 30_000, "{limit}");
    assert!(sort.contains("[0.000 ms, 0 vec, 0 rows"), "{sort}");

    let worst_first = "SELECT l_orderkey, l_linenumber FROM lineitem \
                       ORDER BY l_orderkey DESC, l_linenumber DESC LIMIT 10000";
    let text = explain(worst_first);
    let limit = text
        .iter()
        .find(|l| l.starts_with("Limit"))
        .expect("a Limit");
    assert_eq!(extra(limit, "topn_cut_rows"), 0, "{limit}");
    assert!(extra(limit, "topn_cuts") <= 2, "{limit}");
    let want = run_row_engine(&db, &bind_query(&db, worst_first));
    assert_eq!(db.execute(worst_first).unwrap().rows, want);
}
