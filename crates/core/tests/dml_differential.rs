//! Differential tests of the positional write path: `UPDATE` and `DELETE`
//! run as a RID-emitting scan feeding batched PDT operations, checked
//! against the row-at-a-time loop they replaced.
//!
//! The oracle is a `Vec<Vec<Value>>` in RID order on which every statement
//! is replayed with `Expr::eval_row` over each row — bound from the same SQL
//! text by the same binder, so the two sides differ only in how they find
//! and change rows. After every statement the reported count (or the fact
//! that the statement failed, which must change nothing) and the table as
//! the transaction reads it must be identical, row for row and in order:
//! a scan delivers rows in RID order, so a RID the DML scan got wrong shows
//! as a change to the wrong row.
//!
//! Tables have NULLs, strings and the three numeric widths; half of them
//! are range-partitioned, which gives a few hundred rows several row groups
//! with disjoint zone maps, so predicates on the key prune groups, clean and
//! dirty. Statements run inside one transaction and across commits and
//! checkpoints, with predicates that hit clean groups, groups with pending
//! changes, the append tail and the transaction's own inserts, at vector
//! sizes 1, 7 and 1024.

use proptest::prelude::*;
use vw_common::rng::Xoshiro256;
use vw_common::{DataType, Result, Schema, Value, VwError};
use vw_core::Database;
use vw_plan::Expr;
use vw_sql::{bind, parse_statement, BoundStatement};
use vw_txn::Transaction;

const COLUMNS: &str = "k, i, b, f, s";

/// One storage extent, or four range partitions on the key. (Declared
/// either way, so that a `VW_PARTITIONS` default does not decide.)
fn create(db: &Database, partitioned: bool) {
    let partitions = if partitioned { 4 } else { 1 };
    db.execute(&format!(
        "CREATE TABLE t (k BIGINT NOT NULL, i INTEGER, b BIGINT, f DOUBLE, s VARCHAR) \
         PARTITION BY RANGE(k) PARTITIONS {partitions}"
    ))
    .unwrap();
}

fn random_row(r: &mut Xoshiro256, k: i64) -> Vec<Value> {
    let maybe = |r: &mut Xoshiro256, v: Value| if r.chance(0.15) { Value::Null } else { v };
    let i = Value::I32(r.range_i64(-3, 20) as i32);
    let b = Value::I64(r.range_i64(-1000, 1000));
    let f = Value::F64(r.range_i64(-40, 40) as f64 / 8.0);
    let s = Value::Str(["red", "green", "blue", "a longer one"][r.next_below(4) as usize].into());
    vec![
        Value::I64(k),
        maybe(r, i),
        maybe(r, b),
        maybe(r, f),
        maybe(r, s),
    ]
}

fn literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Str(s) => format!("'{s}'"),
        Value::F64(x) => format!("{x:?}"),
        other => other.to_string(),
    }
}

fn insert_sql(rows: &[Vec<Value>]) -> String {
    let tuples: Vec<String> = rows
        .iter()
        .map(|r| format!("({})", r.iter().map(literal).collect::<Vec<_>>().join(", ")))
        .collect();
    format!("INSERT INTO t VALUES {}", tuples.join(", "))
}

/// A predicate over keys around `0..keys`, or none.
fn random_predicate(r: &mut Xoshiro256, keys: i64) -> Option<String> {
    let k = r.range_i64(-5, keys + 30);
    let span = r.range_i64(0, keys / 3 + 2);
    Some(match r.next_below(14) {
        0 => return None,
        // Zone-map food: whole groups fall outside these.
        1 => format!("k < {k}"),
        2 => format!("k >= {k}"),
        3 => format!("k = {k}"),
        4 => format!("k >= {k} AND k < {}", k + span),
        5 => format!("k BETWEEN {k} AND {} AND i > 3", k + span),
        // Encoded predicates on other columns, with NULLs in them.
        6 => "s = 'green'".into(),
        7 => "s IN ('red', 'blue') AND f <= 1.5".into(),
        8 => "i IS NULL".into(),
        9 => format!("b > {}", r.range_i64(-1000, 1000)),
        // Nothing the scan can push.
        10 => format!("b + i > {} OR s IS NULL", r.range_i64(-500, 500)),
        11 => format!("NOT (f < 0.0) AND k <> {k}"),
        // Fails if any row has i = 0. (Beside a conjunct the scan pushes, it
        // would fail only if a row that conjunct keeps has, as in a SELECT.)
        12 => "100 / i > 10".into(),
        _ => format!("k >= {}", keys - span),
    })
}

fn random_assignments(r: &mut Xoshiro256) -> String {
    let one = |r: &mut Xoshiro256| -> &'static str {
        match r.next_below(16) {
            0 => "b = b + 1",
            1 => "i = i + 1",
            2 => "f = f * 2.0",
            3 => "s = 'blue'",
            4 => "s = NULL",
            5 => "i = NULL",
            // Each side reads the other's value from before the update.
            6 => "b = i, i = b",
            7 => "f = b, b = f",
            8 => "i = b / 100, b = i * 7",
            // I64 -> I32 does not always fit; 0 divides nothing.
            9 => "i = b * 3000000",
            10 => "b = 1000 / i",
            // The zone-mapped column: later predicates must still find
            // these rows in groups whose statistics say otherwise.
            11 => "k = k + 1000",
            12 => "k = k - 500, s = 'moved'",
            13 => "f = i",
            14 => "b = f",
            _ => "f = f + b, s = s",
        }
    };
    let first = one(r);
    if r.chance(0.2) {
        let second = one(r);
        // A column is assigned once per statement.
        let cols = |a: &str| -> Vec<char> {
            a.split(", ")
                .map(|p| p.chars().next().expect("an assignment"))
                .collect()
        };
        if cols(first).iter().all(|c| !cols(second).contains(c)) {
            return format!("{first}, {second}");
        }
    }
    first.into()
}

/// The statement's effect on the model: the loop `apply_update` and
/// `apply_delete` used to be. All or nothing, like a statement.
fn replay(db: &Database, sql: &str, schema: &Schema, model: &mut Vec<Vec<Value>>) -> Result<usize> {
    let selected = |p: &Option<Expr>, row: &[Value]| -> Result<bool> {
        Ok(match p {
            Some(p) => p.eval_row(row)? == Value::Bool(true),
            None => true,
        })
    };
    match bind(&parse_statement(sql)?, db)? {
        BoundStatement::Update {
            assignments,
            predicate,
            ..
        } => {
            let mut next = model.clone();
            let mut n = 0;
            for (row, out) in model.iter().zip(&mut next) {
                if !selected(&predicate, row)? {
                    continue;
                }
                for (col, e) in &assignments {
                    let v = e.eval_row(row)?;
                    let want = schema.field(*col).ty;
                    out[*col] = v
                        .cast_to(want)
                        .ok_or_else(|| VwError::Exec(format!("cannot store {} as {}", v, want)))?;
                }
                n += 1;
            }
            *model = next;
            Ok(n)
        }
        BoundStatement::Delete { predicate, .. } => {
            let mut keep = Vec::with_capacity(model.len());
            for row in model.iter() {
                keep.push(!selected(&predicate, row)?);
            }
            let before = model.len();
            let mut keep = keep.into_iter();
            model.retain(|_| keep.next().expect("one per row"));
            Ok(before - model.len())
        }
        BoundStatement::Insert { rows, .. } => {
            let n = rows.len();
            model.extend(rows);
            Ok(n)
        }
        _ => unreachable!("only DML is replayed"),
    }
}

fn table_in(db: &Database, txn: &mut Transaction) -> Vec<Vec<Value>> {
    db.execute_in(txn, &format!("SELECT {COLUMNS} FROM t"))
        .unwrap()
        .rows
}

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

/// Run `sql` on both sides and compare what it reports and what it leaves.
fn step(
    db: &Database,
    txn: &mut Transaction,
    sql: &str,
    schema: &Schema,
    model: &mut Vec<Vec<Value>>,
    log: &mut Vec<String>,
) {
    log.push(sql.to_string());
    let got = db.execute_in(txn, sql);
    let want = replay(db, sql, schema, model);
    match (&got, &want) {
        (Ok(r), Ok(n)) => assert_eq!(r.rows[0][0], Value::I64(*n as i64), "count of {log:#?}"),
        (Err(_), Err(_)) => {}
        _ => panic!(
            "{:?} but the model {:?}, after {log:#?}",
            got.map(|r| r.rows),
            want
        ),
    }
    assert_eq!(&table_in(db, txn), model, "table after {log:#?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dml_matches_the_row_at_a_time_model(seed in 0u64..1_000_000) {
        let mut r = Xoshiro256::seeded(seed);
        let db = Database::new().unwrap();
        let partitioned = r.chance(0.5);
        create(&db, partitioned);
        db.set_vector_size([1, 7, 1024][r.next_below(3) as usize]);
        let keys = r.range_i64(0, 240);
        db.bulk_load("t", (0..keys).map(|k| random_row(&mut r, k))).unwrap();
        let schema = db.table_schema("t").unwrap();
        prop_assert_eq!(schema.field(1).ty, DataType::I32);

        let mut txn = db.begin();
        let mut model = table_in(&db, &mut txn);
        let mut next_key = keys;
        let mut log = Vec::new();
        for _ in 0..r.range_i64(4, 14) {
            match r.next_below(10) {
                0..=3 => {
                    let set = random_assignments(&mut r);
                    let sql = match random_predicate(&mut r, keys) {
                        Some(p) => format!("UPDATE t SET {set} WHERE {p}"),
                        None => format!("UPDATE t SET {set}"),
                    };
                    step(&db, &mut txn, &sql, &schema, &mut model, &mut log);
                }
                4 | 5 => {
                    let sql = match random_predicate(&mut r, keys) {
                        Some(p) => format!("DELETE FROM t WHERE {p}"),
                        None => "DELETE FROM t".to_string(),
                    };
                    step(&db, &mut txn, &sql, &schema, &mut model, &mut log);
                }
                // The transaction's own inserts: the append tail.
                6 | 7 => {
                    let rows: Vec<Vec<Value>> = (0..r.range_i64(1, 6))
                        .map(|j| random_row(&mut r, next_key + j))
                        .collect();
                    next_key += rows.len() as i64;
                    step(&db, &mut txn, &insert_sql(&rows), &schema, &mut model, &mut log);
                }
                // Across commits: the changes move to the master PDT.
                8 => {
                    db.commit(txn).unwrap();
                    log.push("COMMIT".into());
                    txn = db.begin();
                    prop_assert_eq!(&table_in(&db, &mut txn), &model);
                }
                // And into the image. A partitioned table is bucketed again
                // by a checkpoint that folds inserts or key changes; a plain
                // one keeps its order.
                _ => {
                    db.commit(txn).unwrap();
                    db.checkpoint("t").unwrap();
                    log.push("COMMIT; CHECKPOINT".into());
                    txn = db.begin();
                    let now = table_in(&db, &mut txn);
                    if partitioned {
                        prop_assert_eq!(sorted(now.clone()), sorted(model), "after {:#?}", log);
                        model = now;
                    } else {
                        prop_assert_eq!(&now, &model, "after {:#?}", log);
                    }
                }
            }
        }
        // What the transaction saw is what it commits, and what recovers.
        db.commit(txn).unwrap();
        let committed = db.execute(&format!("SELECT {COLUMNS} FROM t")).unwrap().rows;
        prop_assert_eq!(&committed, &model);
        db.simulate_crash_and_recover().unwrap();
        let recovered = db.execute(&format!("SELECT {COLUMNS} FROM t")).unwrap().rows;
        prop_assert_eq!(&recovered, &model);
    }
}

/// The same on row groups of the real size: a plain table of two and a bit
/// groups, so unpartitioned zone maps, lazy (encoded) scans of clean groups
/// beside eager merges of dirty ones, and checkpoints that share, patch and
/// replace 64K-row groups.
#[test]
fn dml_matches_the_model_across_full_size_groups() {
    let mut r = Xoshiro256::seeded(7);
    let db = Database::new().unwrap();
    create(&db, false);
    let keys = 140_000;
    db.bulk_load("t", (0..keys).map(|k| random_row(&mut r, k)))
        .unwrap();
    let schema = db.table_schema("t").unwrap();
    let mut txn = db.begin();
    let mut model = table_in(&db, &mut txn);
    let mut log = Vec::new();
    let fresh: Vec<Vec<Value>> = (0..3).map(|j| random_row(&mut r, keys + j)).collect();
    for sql in [
        // One clean group, found through its zone map.
        "UPDATE t SET b = i, i = b / 100 WHERE k >= 70000 AND k < 70010",
        // The group is dirty now; its neighbours are not.
        "UPDATE t SET f = f + 1.0 WHERE k = 70005",
        "DELETE FROM t WHERE k >= 65530 AND k < 65540",
        "UPDATE t SET s = 'edge' WHERE k >= 65520 AND k < 65550",
        &insert_sql(&fresh),
        "UPDATE t SET k = k + 1000000 WHERE k >= 139990",
        // A key moved out of its group's range is still found.
        "DELETE FROM t WHERE k = 1139995",
        "UPDATE t SET i = 0 WHERE s = 'green' AND k < 300",
        // Fails in the first group, after rows of it matched.
        "UPDATE t SET b = 1000 / i WHERE k < 300",
        "DELETE FROM t WHERE s = 'red' AND b > 990",
    ] {
        step(&db, &mut txn, sql, &schema, &mut model, &mut log);
    }
    db.commit(txn).unwrap();
    db.checkpoint("t").unwrap();
    let mut txn = db.begin();
    assert_eq!(table_in(&db, &mut txn), model);
    step(
        &db,
        &mut txn,
        "UPDATE t SET b = b + 1 WHERE k >= 65000 AND k < 66000",
        &schema,
        &mut model,
        &mut log,
    );
    db.commit(txn).unwrap();
}

/// Whether a statement fails must not depend on an unrelated earlier write.
/// `x <> 0 AND 10 / x > 1` divides only what its first conjunct lets
/// through, whether the rows it meets sit in a clean group (conjuncts
/// narrowed on the encoded blocks), in a group an `UPDATE` of another
/// column has made dirty (decoded whole), or in the append tail; whichever
/// way round the conjuncts were written; before and after the conjunct
/// order is learned; and as a `Filter` above a join just the same.
#[test]
fn a_guarded_division_answers_the_same_clean_dirty_and_appended() {
    let db = Database::new().unwrap();
    db.execute(
        "CREATE TABLE t (k BIGINT NOT NULL, x BIGINT NOT NULL, s VARCHAR) \
         PARTITION BY RANGE(k) PARTITIONS 1",
    )
    .unwrap();
    // x = 0 on every fifth row; 10 / x > 1 for x in 1..=4.
    db.bulk_load(
        "t",
        (0..3000i64).map(|i| {
            vec![
                Value::I64(i),
                Value::I64(i % 5),
                Value::Str(format!("s{}", i % 7)),
            ]
        }),
    )
    .unwrap();
    db.execute("CREATE TABLE u (k BIGINT NOT NULL, z BIGINT NOT NULL)")
        .unwrap();
    db.bulk_load(
        "u",
        (0..4000i64).map(|i| vec![Value::I64(i), Value::I64(0)]),
    )
    .unwrap();
    let statements = [
        "SELECT COUNT(*) FROM t WHERE x <> 0 AND 10 / x > 1",
        "SELECT COUNT(*) FROM t WHERE 10 / x > 1 AND x <> 0",
        // Neither conjunct is one the scan's cursors evaluate.
        "SELECT COUNT(*) FROM t WHERE x + 0 <> 0 AND 10 / x > 1",
        // Both sides of a join: a Filter above it.
        "SELECT COUNT(*) FROM t, u WHERE t.k = u.k AND t.x + u.z <> 0 AND 10 / (t.x + u.z) > 1",
        "SELECT COUNT(*) FROM t, u WHERE t.k = u.k AND 10 / (t.x + u.z) > 1 AND t.x + u.z <> 0",
    ];
    let check = |want: i64, when: &str| {
        for vector_size in [7, 1024] {
            db.set_vector_size(vector_size);
            for sql in statements {
                // Twice: the second run starts from what the first learned.
                for _ in 0..2 {
                    let got = db.execute(sql).map(|r| r.rows[0][0].clone());
                    assert_eq!(
                        got.as_ref().ok(),
                        Some(&Value::I64(want)),
                        "{sql} ({when}, vectors of {vector_size}): {got:?}"
                    );
                }
            }
        }
    };
    check(2400, "clean");
    db.execute("UPDATE t SET s = 'zz' WHERE k = 5").unwrap();
    check(2400, "one dirty group");
    // The append tail, a zero among it.
    db.execute("INSERT INTO t VALUES (3000, 0, 'tail'), (3001, 2, 'tail'), (3002, 0, NULL)")
        .unwrap();
    check(2401, "dirty group and append tail");
    db.checkpoint("t").unwrap();
    check(2401, "checkpointed again");
    // Unguarded, the division meets the zeros, everywhere alike.
    assert!(db
        .execute("SELECT COUNT(*) FROM t WHERE 10 / x > 1")
        .is_err());
}
