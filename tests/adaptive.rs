//! Adaptive execution must be a pure performance feature: micro-adaptive
//! conjunct reordering, history-corrected cardinalities and the self-tuning
//! aggregation path may change *how* a query runs, never *what* it returns.
//!
//! Three angles:
//! * a property test that adaptive conjunct ordering is byte-identical to the
//!   rows the statement selects, across NULL/NaN edge data, serial and
//!   parallel;
//! * all 22 TPC-H queries compared cold, history-warmed, and parallel against
//!   the tuple-at-a-time engine;
//! * an end-to-end check that accumulated history actually surfaces (the
//!   `vw_plan_feedback` EXPLAIN ANALYZE line and the metrics counter) and
//!   that the adaptive scan order really cuts predicate work.
mod common;

use std::sync::Arc;

use common::{assert_rows_match, canonical, run_row_engine, tpch_db};
use proptest::prelude::*;
use vectorwise::engine::OpProfile;
use vectorwise::tpch::{all_queries, TPCH_TABLES};
use vectorwise::{Database, Value};

/// Byte-identical row comparison: doubles compare by bit pattern, so NaN
/// equals NaN and `-0.0` differs from `0.0`. Stricter than
/// `common::assert_rows_match` — adaptive conjunct ordering never re-computes
/// a value, so no tolerance is owed.
fn assert_rows_bitwise(tag: &str, got: &[Vec<Value>], want: &[Vec<Value>]) {
    assert_eq!(got.len(), want.len(), "{}: row count", tag);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "{}: row {} arity", tag, i);
        for (c, (gv, wv)) in g.iter().zip(w).enumerate() {
            let ok = match (gv, wv) {
                (Value::F64(a), Value::F64(b)) => a.to_bits() == b.to_bits(),
                _ => gv == wv,
            };
            assert!(ok, "{}: row {} col {}: {:?} vs {:?}", tag, i, c, gv, wv);
        }
    }
}

/// The nullable double of a generated row: NULL, NaN or a number.
fn v_of(tag: u8, vraw: i64) -> Value {
    match tag {
        0 => Value::Null,
        1 => Value::F64(f64::NAN),
        _ => Value::F64((vraw - 500) as f64 / 10.0),
    }
}

/// A table with a nullable double column seeded with NULLs and NaNs, loaded
/// with a tiny vector size so the re-rank cadence triggers within a few
/// hundred rows. One extent whatever `VW_PARTITIONS` says, so a serial scan
/// returns the rows in load order.
fn filter_db(rows: &[(i64, u8, i64, i64)]) -> Database {
    let db = Database::new().unwrap();
    db.execute(
        "CREATE TABLE t (a BIGINT NOT NULL, v DOUBLE, b BIGINT NOT NULL) \
         PARTITION BY RANGE(a) PARTITIONS 1",
    )
    .unwrap();
    db.bulk_load(
        "t",
        rows.iter()
            .map(|&(a, tag, vraw, b)| vec![Value::I64(a), v_of(tag, vraw), Value::I64(b)]),
    )
    .unwrap();
    db.execute("SET vector_size = 16").unwrap();
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn adaptive_conjunct_order_is_byte_identical(
        rows in prop::collection::vec((0..100i64, 0..8u8, 0..1000i64, 0..100i64), 1..500),
        ka in 1..101i64,
        kb in 1..101i64,
    ) {
        let db = filter_db(&rows);
        // One query whose conjuncts drop the NULL/NaN rows (3VL: both fail
        // `v > -20`), one whose output still carries them. The rows each
        // must return, in load order, come straight from the generated data.
        let select = |row_of: &dyn Fn(i64, Value, i64) -> Option<Vec<Value>>| -> Vec<Vec<Value>> {
            rows.iter()
                .filter_map(|&(a, tag, vraw, b)| row_of(a, v_of(tag, vraw), b))
                .collect()
        };
        let queries = [
            (
                format!(
                    "SELECT a, v, b FROM t \
                     WHERE a < {} AND v > -20.0 AND b >= {} AND a + b < 150",
                    ka, kb
                ),
                select(&|a, v, b| {
                    let over = matches!(v, Value::F64(x) if x > -20.0);
                    (a < ka && over && b >= kb && a + b < 150)
                        .then(|| vec![Value::I64(a), v, Value::I64(b)])
                }),
            ),
            (
                format!("SELECT a, v FROM t WHERE a < {} AND b >= {}", ka, kb),
                select(&|a, v, b| (a < ka && b >= kb).then(|| vec![Value::I64(a), v])),
            ),
        ];
        for (sql, want) in &queries {
            for dop in [1usize, 4] {
                db.set_parallelism(dop);
                // Repeat runs let observed selectivities accumulate and the
                // conjunct order re-rank; every run must stay identical.
                for round in 0..3 {
                    let got = db.execute(sql).unwrap().rows;
                    let tag = format!("dop {} round {}: {}", dop, round, sql);
                    if dop == 1 {
                        // Filters preserve scan order: exact sequence match.
                        assert_rows_bitwise(&tag, &got, want);
                    } else {
                        assert_rows_bitwise(
                            &tag,
                            &canonical(got),
                            &canonical(want.clone()),
                        );
                    }
                }
            }
        }
    }
}

/// All 22 TPC-H queries, compared against the tuple-at-a-time engine: cold,
/// after history has accumulated, and at dop 4 with warm history. A
/// history-driven plan change (e.g. a flipped join build side) may re-order
/// float summation, so this uses the repo-standard tolerant comparator.
#[test]
fn tpch_results_stable_as_history_accumulates() {
    let (db, cat) = tpch_db(0.01);
    for table in TPCH_TABLES {
        db.analyze(table).unwrap();
    }
    let queries = all_queries(&cat);
    let reference: Vec<_> = queries
        .iter()
        .map(|(_, plan)| canonical(run_row_engine(&db, plan)))
        .collect();
    for (round, dop) in [(0, 1), (1, 1), (2, 4)] {
        db.set_parallelism(dop);
        for ((n, plan), want) in queries.iter().zip(&reference) {
            let got = canonical(db.run_plan(plan.clone()).unwrap().rows);
            assert_rows_match(&format!("Q{} round {} dop {}", n, round, dop), &got, want);
        }
    }
}

/// With no ANALYZE the static estimator works from defaults and grossly
/// overestimates a selective filter; repeated runs must teach the planner,
/// surface the correction in EXPLAIN ANALYZE and bump the metrics counter —
/// all without changing results.
#[test]
fn history_corrections_surface_in_explain_analyze() {
    let db = Database::new().unwrap();
    db.execute("CREATE TABLE big (a BIGINT NOT NULL, b BIGINT NOT NULL)")
        .unwrap();
    db.bulk_load(
        "big",
        (0..4000).map(|i| vec![Value::I64(i % 50), Value::I64(i)]),
    )
    .unwrap();
    db.execute("CREATE TABLE small (a BIGINT NOT NULL)")
        .unwrap();
    db.bulk_load("small", (0..40).map(|i| vec![Value::I64(i)]))
        .unwrap();
    // b < 10 keeps a = 0..=9, each of which `small` holds once.
    let q = "SELECT COUNT(*) FROM big, small WHERE big.a = small.a AND big.b < 10";
    let want = vec![vec![Value::I64(10)]];
    for _ in 0..4 {
        assert_eq!(db.execute(q).unwrap().rows, want, "history changed results");
    }
    let r = db.execute(&format!("EXPLAIN ANALYZE {}", q)).unwrap();
    let text: String = r
        .rows
        .iter()
        .map(|row| row[0].as_str().unwrap())
        .collect::<Vec<_>>()
        .join("\n");
    assert!(
        text.contains("vw_plan_feedback"),
        "no feedback line after warm history:\n{}",
        text
    );
    let m = db
        .execute("SELECT value FROM vw_metrics WHERE name = 'plan_corrections_total'")
        .unwrap();
    assert!(
        matches!(m.rows[0][0], Value::F64(v) if v >= 1.0),
        "plan_corrections_total not bumped: {:?}",
        m.rows
    );
}

/// The acceptance benchmark in miniature: a skewed conjunct pair written
/// cheap-first in the SQL text. The scan must learn to evaluate the
/// selective conjunct first, cutting predicate evaluations ≥1.3x below the
/// written order's (measured via the `enc_evals` profile counter, so it is
/// deterministic).
#[test]
fn adaptive_scan_order_cuts_predicate_work() {
    let db = Database::new().unwrap();
    // PARTITIONS 1 pins single-extent storage even under a VW_PARTITIONS
    // default: range-partitioning on `hot` would cluster its values so zone
    // maps drop the cheap conjunct statically — this benchmark measures the
    // *adaptive* reordering win, which needs the skew left in place.
    db.execute(
        "CREATE TABLE s (hot BIGINT NOT NULL, cold BIGINT NOT NULL)          PARTITION BY RANGE(hot) PARTITIONS 1",
    )
    .unwrap();
    // `hot <= 8` passes 90% of rows; `cold < 40` passes 1%.
    db.bulk_load(
        "s",
        (0..4000).map(|i| vec![Value::I64(i % 10), Value::I64(i)]),
    )
    .unwrap();
    db.execute("SET vector_size = 64").unwrap();
    let q = "SELECT COUNT(*) FROM s WHERE hot <= 8 AND cold < 40";
    fn enc_evals(n: &Arc<OpProfile>) -> u64 {
        let own: u64 = n
            .extras()
            .iter()
            .filter(|&&(k, _)| k == "enc_evals")
            .map(|&(_, v)| v)
            .sum();
        own + n.children().iter().map(enc_evals).sum::<u64>()
    }
    let r = db.execute(q).unwrap();
    assert_eq!(r.rows[0][0], Value::I64(36));
    let prof = db.profile_last_query().expect("profiling on by default");
    let adaptive = enc_evals(&prof.root);
    // In the written order both conjuncts run on every vector: `hot <= 8`
    // leaves some row of each one for `cold < 40` to test.
    let written = 2 * 4000u64.div_ceil(64);
    assert!(
        written as f64 >= 1.3 * adaptive as f64,
        "adaptive order did not cut predicate work: enc_evals {adaptive} vs {written} in the written order"
    );
}
