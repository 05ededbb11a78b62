//! Morsel-driven parallelism: determinism, skew balance, shared builds.
//!
//! Exchange workers pull row-group morsels from a shared work-stealing queue
//! and share a single hash-join build. These tests pin the correctness
//! contract: identical results at every degree of parallelism, exact-once
//! morsel coverage under extreme group-size skew, and build-once semantics.

mod common;

use common::{assert_rows_match, canonical, run_vectorized, tpch_db};
use std::collections::HashMap;
use std::sync::Arc;
use vectorwise::common::config::EngineConfig;
use vectorwise::common::TableId;
use vectorwise::engine::operators::collect_rows;
use vectorwise::engine::{compile_plan, ExecContext, TableProvider};
use vectorwise::pdt::Pdt;
use vectorwise::plan::rewrite::parallelize;
use vectorwise::plan::{AggExpr, AggFunc, BinOp, Expr, JoinKind, LogicalPlan};
use vectorwise::storage::{NullableColumn, SimDisk, SimDiskConfig, TableStorage};
use vectorwise::tpch::queries;
use vectorwise::{DataType, Field, Schema, Value};

/// TPC-H Q1 and Q6 must return identical rows at every dop; per-group F64
/// sums may differ only by float addition order (tolerance in
/// `assert_rows_match`).
#[test]
fn tpch_q1_q6_deterministic_across_dop() {
    let (db, cat) = tpch_db(0.01);
    for (name, plan) in [("q1", queries::q1(&cat)), ("q6", queries::q6(&cat))] {
        db.set_parallelism(1);
        let want = canonical(run_vectorized(&db, &plan));
        assert!(!want.is_empty(), "{}: serial run returned no rows", name);
        for dop in [2, 4, 8] {
            db.set_parallelism(dop);
            let got = canonical(run_vectorized(&db, &plan));
            assert_rows_match(&format!("{} dop={}", name, dop), &got, &want);
        }
    }
}

const SKEW: TableId = TableId(1);
const DIM: TableId = TableId(2);

fn i64_col(vals: impl Iterator<Item = i64>) -> NullableColumn {
    NullableColumn::from_values(DataType::I64, &vals.map(Value::I64).collect::<Vec<_>>()).unwrap()
}

/// A table with pathological group-size skew: one 3000-row group followed by
/// forty 50-row groups. Static `g % P` assignment would serialize the giant
/// group behind one worker; the morsel queue hands it to whoever is free.
fn skew_ctx() -> (ExecContext, usize, i64) {
    let disk = Arc::new(SimDisk::new(SimDiskConfig::default()));
    let schema = Schema::new(vec![
        Field::new("k", DataType::I64),
        Field::new("v", DataType::I64),
    ]);
    // Group size = giant chunk size so the first chunk stays ONE group.
    let mut storage = TableStorage::with_group_size(schema.clone(), disk.clone(), 3000);
    let mut next = 0i64;
    let chunk = |n: i64, next: &mut i64| {
        let lo = *next;
        *next += n;
        vec![i64_col((lo..*next).map(|i| i % 10)), i64_col(lo..*next)]
    };
    storage.append_chunk(&chunk(3000, &mut next)).unwrap();
    for _ in 0..40 {
        storage.append_chunk(&chunk(50, &mut next)).unwrap();
    }
    assert_eq!(storage.group_count(), 41);
    let n_rows = storage.n_rows() as usize;
    let total: i64 = (0..n_rows as i64).sum();

    // Small dimension table joined below.
    let dim_schema = Schema::new(vec![
        Field::new("k", DataType::I64),
        Field::new("tag", DataType::I64),
    ]);
    let mut dim = TableStorage::with_group_size(dim_schema, disk, 64);
    dim.append_chunk(&[i64_col(0..10), i64_col((0..10).map(|k| k * 100))])
        .unwrap();

    let mut tables = HashMap::new();
    tables.insert(
        SKEW,
        TableProvider {
            pdt: Arc::new(Pdt::new(storage.n_rows())),
            storage: Arc::new(parking_lot::RwLock::new(storage)),
        },
    );
    tables.insert(
        DIM,
        TableProvider {
            pdt: Arc::new(Pdt::new(dim.n_rows())),
            storage: Arc::new(parking_lot::RwLock::new(dim)),
        },
    );
    (
        ExecContext::new(tables, EngineConfig::default()),
        n_rows,
        total,
    )
}

fn skew_scan(ctx: &ExecContext) -> LogicalPlan {
    let schema = ctx.tables[&SKEW].storage.read().schema().clone();
    LogicalPlan::scan("skew", SKEW, schema)
}

fn dim_scan(ctx: &ExecContext) -> LogicalPlan {
    let schema = ctx.tables[&DIM].storage.read().schema().clone();
    LogicalPlan::scan("dim", DIM, schema)
}

fn count_sum(input: LogicalPlan, sum_col: usize) -> LogicalPlan {
    input.aggregate(
        vec![],
        vec![
            AggExpr {
                func: AggFunc::CountStar,
                arg: None,
                name: "n".into(),
            },
            AggExpr {
                func: AggFunc::Sum,
                arg: Some(Expr::col(sum_col)),
                name: "s".into(),
            },
        ],
    )
}

/// Under skew, every morsel is claimed exactly once and the result is exact
/// at every dop — no unit lost (a worker quitting early) or double-counted.
#[test]
fn skewed_groups_covered_exactly_once() {
    for dop in [1, 2, 4, 8] {
        let (ctx, n_rows, total) = skew_ctx();
        let plan = parallelize(count_sum(skew_scan(&ctx), 1), dop);
        let mut op = compile_plan(&plan, &ctx).unwrap();
        let rows = collect_rows(op.as_mut()).unwrap();
        assert_eq!(
            rows,
            vec![vec![Value::I64(n_rows as i64), Value::I64(total)]],
            "dop={}",
            dop
        );
        if dop > 1 {
            // 41 groups, no PDT appends, no filter pruning: 41 units total
            // across all workers, each claimed exactly once.
            assert_eq!(ctx.stats.morsels_claimed(), 41, "dop={}", dop);
        }
    }
}

/// The hash-join build side executes exactly once at dop=4 (shared build
/// slot), and the join result matches the serial plan.
#[test]
fn join_build_executes_once_at_dop_4() {
    let (ctx, n_rows, _) = skew_ctx();
    // skew ⋈ dim on k, then COUNT(*) + SUM(tag): every probe row matches.
    let base = count_sum(
        skew_scan(&ctx).join(dim_scan(&ctx), JoinKind::Inner, vec![(0, 0)]),
        3,
    );
    let mut serial = compile_plan(&base, &ctx).unwrap();
    let want = collect_rows(serial.as_mut()).unwrap();
    assert_eq!(want[0][0], Value::I64(n_rows as i64));

    let (ctx, _, _) = skew_ctx();
    let par = parallelize(
        count_sum(
            skew_scan(&ctx).join(dim_scan(&ctx), JoinKind::Inner, vec![(0, 0)]),
            3,
        ),
        4,
    );
    let mut op = compile_plan(&par, &ctx).unwrap();
    let got = collect_rows(op.as_mut()).unwrap();
    assert_eq!(got, want);
    assert_eq!(
        ctx.stats.builds_executed(),
        1,
        "build side must run once, not once per worker"
    );
}

/// Filters push work into the queue-construction path (zone-map pruning
/// happens once, when the queue is created): still exact at every dop.
#[test]
fn filtered_skew_scan_matches_serial() {
    let (ctx, _, _) = skew_ctx();
    let filtered = |ctx: &ExecContext| {
        count_sum(
            skew_scan(ctx).filter(Expr::binary(
                BinOp::Ge,
                Expr::col(1),
                Expr::lit(Value::I64(3500)),
            )),
            1,
        )
    };
    let mut serial = compile_plan(&filtered(&ctx), &ctx).unwrap();
    let want = collect_rows(serial.as_mut()).unwrap();
    for dop in [2, 4, 8] {
        let (ctx, _, _) = skew_ctx();
        let par = parallelize(filtered(&ctx), dop);
        let mut op = compile_plan(&par, &ctx).unwrap();
        let got = collect_rows(op.as_mut()).unwrap();
        assert_eq!(got, want, "dop={}", dop);
    }
}

/// Every scan plans its morsel queue once, when it first runs. Each Exchange
/// worker compiles its own copy of a join's build side, but only one runs
/// it, so the build-side scan's zone-map pruning — its `pruned` extra and
/// the bytes charged as skipped — is the same at every dop, with or without
/// the cooperative-scan buffer manager. A scan outside an Exchange claims
/// from a private queue, which never times a claim as a `morsel` wait.
#[test]
fn build_side_pruning_is_counted_once_at_every_dop() {
    use vectorwise::common::waits::WaitClass;
    const N: i64 = 300_000;
    let sql = "SELECT u.d, COUNT(*), SUM(t.b) FROM t, u \
               WHERE t.a = u.c AND u.c < 30000 GROUP BY u.d";
    let mut want = None;
    for coop in [false, true] {
        let db = vectorwise::Database::new().unwrap();
        db.execute("CREATE TABLE t (a BIGINT NOT NULL, b BIGINT NOT NULL)")
            .unwrap();
        db.execute("CREATE TABLE u (c BIGINT NOT NULL, d BIGINT NOT NULL)")
            .unwrap();
        // `t.a` is scattered, so zone maps prune nothing of `t`; `u.c`
        // ascends, so `u.c < 30000` prunes every row group of `u` but one.
        let t_rows = (0..N).map(|i| vec![Value::I64(i * 7919 % N), Value::I64(i)]);
        db.bulk_load("t", t_rows).unwrap();
        db.bulk_load("u", (0..N).map(|i| vec![Value::I64(i), Value::I64(i % 7)]))
            .unwrap();
        if coop {
            db.enable_cooperative_scans(64 << 20);
        }
        for dop in [1, 2, 4] {
            db.set_parallelism(dop);
            let rows = canonical(db.execute(sql).unwrap().rows);
            let profile = db.profile_last_query().unwrap();
            let build_scan = profile
                .nodes()
                .into_iter()
                .find(|n| n.label().starts_with("Scan u"))
                .expect("a scan of u");
            let pruned = build_scan
                .extras()
                .into_iter()
                .find(|(k, _)| *k == "pruned")
                .map_or(0, |(_, v)| v);
            let got = (rows, pruned, profile.disk.bytes_skipped);
            let tag = format!("dop {dop}, cooperative scans {coop}");
            assert!(got.1 > 0, "{tag}: nothing of u pruned");
            match &want {
                None => want = Some(got),
                Some(w) => assert_eq!(&got, w, "{tag}: rows, pruned, bytes skipped"),
            }
            if dop == 1 {
                assert_eq!(
                    profile.waits.count(WaitClass::Morsel),
                    0,
                    "{tag}: a private queue timed a claim"
                );
            }
        }
    }
}
