//! Memory-governance property tests: any query that spills under a tiny
//! memory budget must produce *exactly* the rows it produces unbounded.
//!
//! The generated data keeps every float a multiple of 0.25 so SUM/AVG are
//! exact under re-association — results compare with `==`, not a tolerance,
//! even though spill drains and parallel partials change evaluation order.

mod common;

use common::canonical;
use proptest::prelude::*;
use vectorwise::common::rng::Xoshiro256;
use vectorwise::plan::{AggExpr, AggFunc, Expr, JoinKind, LogicalPlan, SortKey};
use vectorwise::sql::CatalogView;
use vectorwise::{DataType, Database, Field, Schema, Value};

/// Small enough that join builds, aggregate tables and sort buffers on a
/// few thousand rows all overflow (ISSUE bound: ≤ 1 MiB).
const TIGHT_BUDGET: usize = 32 << 10;

/// Random fact (k, g, f, s) + dim (dk, tag) tables. NULLs in the group key,
/// the summed float and the string column; half the fact keys unmatched.
fn spill_db(seed: u64, fact_rows: usize, dim_rows: usize) -> Database {
    let mut r = Xoshiro256::seeded(seed);
    let db = Database::new().unwrap();
    db.create_table(
        "fact",
        Schema::new(vec![
            Field::new("k", DataType::I64),
            Field::nullable("g", DataType::I64),
            Field::nullable("f", DataType::F64),
            Field::nullable("s", DataType::Str),
        ]),
    )
    .unwrap();
    db.bulk_load(
        "fact",
        (0..fact_rows).map(|i| {
            vec![
                Value::I64(r.range_i64(0, 2 * dim_rows as i64)),
                if r.chance(0.1) {
                    Value::Null
                } else {
                    Value::I64(r.range_i64(0, 2048))
                },
                if r.chance(0.1) {
                    Value::Null
                } else {
                    // Exact quarters: sums re-associate without rounding.
                    Value::F64(r.range_i64(-4000, 4000) as f64 / 4.0)
                },
                if r.chance(0.1) {
                    Value::Null
                } else {
                    Value::Str(format!("s{}-{}", i % 7, r.next_below(100)))
                },
            ]
        }),
    )
    .unwrap();
    db.create_table(
        "dim",
        Schema::new(vec![
            Field::new("dk", DataType::I64),
            Field::new("tag", DataType::Str),
        ]),
    )
    .unwrap();
    db.bulk_load(
        "dim",
        (0..dim_rows).map(|i| {
            vec![
                Value::I64(i as i64),
                Value::Str(format!("tag-{}-padding", i % 97)),
            ]
        }),
    )
    .unwrap();
    db
}

fn scan(db: &Database, name: &str) -> LogicalPlan {
    let (tid, schema) = db.resolve_table(name).unwrap();
    LogicalPlan::scan(name, tid, schema)
}

fn agg(func: AggFunc, col: Option<usize>, name: &str) -> AggExpr {
    AggExpr {
        func,
        arg: col.map(Expr::col),
        name: name.into(),
    }
}

/// Run under the given budget/dop; return rows + spill bytes observed.
fn run(
    db: &Database,
    plan: &LogicalPlan,
    dop: usize,
    budget: Option<usize>,
) -> (Vec<Vec<Value>>, u64) {
    db.set_parallelism(dop);
    db.set_mem_budget(budget);
    let rows = db.run_plan(plan.clone()).expect("plan run").rows;
    let prof = db.profile_last_query().expect("profiling on by default");
    (rows, prof.mem.spill_bytes)
}

/// The output rows must be ordered by the sort keys (spilled runs merge back
/// into one totally ordered stream).
fn assert_sorted(rows: &[Vec<Value>], keys: &[SortKey]) {
    for w in rows.windows(2) {
        for k in keys {
            match w[0][k.col].total_cmp(&w[1][k.col]) {
                std::cmp::Ordering::Equal => continue,
                o => {
                    let ok = if k.asc {
                        o == std::cmp::Ordering::Less
                    } else {
                        o == std::cmp::Ordering::Greater
                    };
                    assert!(
                        ok,
                        "rows out of order on key {:?}: {:?} vs {:?}",
                        k, w[0], w[1]
                    );
                    break;
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Join → aggregate → sort, aggregate-only and sort-heavy plans produce
    /// identical rows at a 32 KiB budget (dop 1 and 4) as unbounded, and the
    /// budgeted serial runs actually spill.
    #[test]
    fn tiny_budget_matches_unbounded(
        seed in any::<u64>(),
        fact_rows in 2500usize..4000,
        dim_rows in 1200usize..2000,
    ) {
        let db = spill_db(seed, fact_rows, dim_rows);

        // fact ⋈ dim (build = dim) → SUM/AVG/COUNT by nullable g → ordered.
        let join_keys = vec![SortKey::asc(0)];
        let join_plan = scan(&db, "fact")
            .join(scan(&db, "dim"), JoinKind::Inner, vec![(0, 0)])
            .aggregate(
                vec![1],
                vec![
                    agg(AggFunc::Sum, Some(2), "sum_f"),
                    agg(AggFunc::Avg, Some(2), "avg_f"),
                    agg(AggFunc::Count, Some(3), "cnt_s"),
                    agg(AggFunc::CountStar, None, "n"),
                ],
            )
            .sort(join_keys.clone());

        // ~2048 groups straight off the fact table (NULL group included).
        let agg_plan = scan(&db, "fact").aggregate(
            vec![1],
            vec![
                agg(AggFunc::Sum, Some(2), "sum_f"),
                agg(AggFunc::Avg, Some(2), "avg_f"),
                agg(AggFunc::Min, Some(0), "min_k"),
                agg(AggFunc::CountStar, None, "n"),
            ],
        );

        // Left join keeps unmatched fact rows (NULL-padded) and sorts the
        // whole ~fact_rows stream: external merge sort territory at 32 KiB.
        let sort_keys = vec![SortKey::asc(0), SortKey::desc(2)];
        let sort_plan = scan(&db, "fact")
            .join(scan(&db, "dim"), JoinKind::Left, vec![(0, 0)])
            .sort(sort_keys.clone());

        for (plan, sorted_by, label) in [
            (&join_plan, Some(&join_keys), "join+agg+sort"),
            (&agg_plan, None, "aggregate"),
            (&sort_plan, Some(&sort_keys), "left-join+sort"),
        ] {
            let (want, base_spill) = run(&db, plan, 1, None);
            prop_assert_eq!(base_spill, 0, "{}: unbounded run must not spill", label);
            let want = canonical(want);
            for dop in [1usize, 4] {
                let (got, spill) = run(&db, plan, dop, Some(TIGHT_BUDGET));
                if dop == 1 {
                    prop_assert!(spill > 0, "{}: 32 KiB budget should force a spill", label);
                }
                if let Some(keys) = sorted_by {
                    assert_sorted(&got, keys);
                }
                prop_assert_eq!(
                    canonical(got),
                    want.clone(),
                    "{} at dop {} under budget diverged",
                    label,
                    dop
                );
            }
        }
    }
}

/// The extras `EXPLAIN ANALYZE` prints for the operators named `op`, summed
/// over the last query's plan nodes.
fn extras_of(db: &Database, op: &str) -> std::collections::HashMap<&'static str, u64> {
    let prof = db.profile_last_query().expect("profiling on by default");
    let nodes = prof.nodes().into_iter().filter(|n| n.op_name() == op);
    let mut sum = std::collections::HashMap::new();
    for (k, v) in nodes.flat_map(|n| n.extras()) {
        *sum.entry(k).or_insert(0) += v;
    }
    sum
}

/// Memory accounting is measured, not estimated: the aggregate's `peak_bytes`
/// is what its table asked the allocator for. The expected figure is built
/// here from the layout alone (DESIGN.md, "The flat hash table") and the two
/// counts the profile reports: `ht_slots` bucket heads of 4 bytes; per group a
/// 4-byte chain link, its 8-byte hash and its interned 8-byte key, in vectors
/// grown by doubling; and accumulator columns of `ht_slots / 2` slots (the
/// table's capacity before it next doubles) — SUM(i64) 8 + 1, COUNT(*) 8.
#[test]
fn aggregate_peak_bytes_is_the_tables_footprint() {
    const GROUPS: i64 = 150_000;
    let db = Database::new().unwrap();
    db.create_table(
        "t",
        Schema::new(vec![
            Field::new("k", DataType::I64),
            Field::new("v", DataType::I64),
        ]),
    )
    .unwrap();
    let rows = (0..2 * GROUPS).map(|i| vec![Value::I64(i * 7919 % GROUPS), Value::I64(i)]);
    db.bulk_load("t", rows).unwrap();
    db.set_mem_budget(None);
    let plan = scan(&db, "t").aggregate(
        vec![0],
        vec![
            agg(AggFunc::Sum, Some(1), "s"),
            agg(AggFunc::CountStar, None, "n"),
        ],
    );
    assert_eq!(db.run_plan(plan).unwrap().rows.len(), GROUPS as usize);
    let ex = extras_of(&db, "Aggregate");
    assert_eq!(ex["groups"], GROUPS as u64);
    let (slots, grown) = (ex["ht_slots"], ex["groups"].next_power_of_two());
    let allocated = slots * 4 + grown * (4 + 8 + 8) + slots / 2 * (8 + 1 + 8);
    let peak = ex["peak_bytes"];
    assert!(
        peak.abs_diff(allocated) * 10 <= allocated,
        "peak_bytes {peak} is not within 10% of the {allocated} bytes allocated"
    );
}

/// Everything a spilling join, aggregate and sort reserved — tables, key
/// buffers, resident partitions and runs — is handed back: the database-wide
/// ledger reads the same after the query as before it.
#[test]
fn ledger_returns_to_its_pre_query_value_after_spills() {
    let db = spill_db(7, 6000, 3000);
    let join = scan(&db, "fact").join(scan(&db, "dim"), JoinKind::Left, vec![(0, 0)]);
    let aggregate = scan(&db, "fact").aggregate(
        vec![1, 3],
        vec![
            agg(AggFunc::Avg, Some(2), "avg_f"),
            agg(AggFunc::Max, Some(3), "max_s"),
        ],
    );
    let sort = scan(&db, "fact").sort(vec![SortKey::desc(3), SortKey::asc(2)]);
    db.set_mem_budget(Some(TIGHT_BUDGET));
    let ledger = db.ledger();
    let before = ledger.reserved();
    for (plan, op) in [(join, "Join"), (aggregate, "Aggregate"), (sort, "Sort")] {
        for dop in [1, 4] {
            db.set_parallelism(dop);
            assert!(!db.run_plan(plan.clone()).unwrap().rows.is_empty());
            let spilled = db.profile_last_query().unwrap().mem.spill_bytes;
            assert!(dop > 1 || spilled > 0, "{op}: 32 KiB must force a spill");
            assert!(dop > 1 || extras_of(&db, op)["peak_bytes"] > 0);
            assert_eq!(ledger.reserved(), before, "{op} at dop {dop}");
        }
    }
}
