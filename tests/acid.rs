//! ACID and concurrency integration tests: snapshot isolation, optimistic
//! conflict detection, WAL durability/recovery, checkpointing, and
//! query-during-update behaviour — §I-B's transactional machinery end to end.

mod common;

use std::sync::Arc;
use vectorwise::{Database, Value};

fn bank_db(accounts: i64) -> Database {
    let db = Database::new().unwrap();
    db.execute("CREATE TABLE accounts (id BIGINT NOT NULL, balance BIGINT NOT NULL)")
        .unwrap();
    db.bulk_load(
        "accounts",
        (0..accounts).map(|i| vec![Value::I64(i), Value::I64(100)]),
    )
    .unwrap();
    db
}

fn total_balance(db: &Database) -> i64 {
    db.execute("SELECT SUM(balance) FROM accounts")
        .unwrap()
        .rows[0][0]
        .as_i64()
        .unwrap()
}

#[test]
fn transfers_preserve_total_balance() {
    let db = bank_db(10);
    let initial = total_balance(&db);
    for i in 0..20 {
        let from = i % 10;
        let to = (i + 3) % 10;
        let mut t = db.begin();
        db.execute_in(
            &mut t,
            &format!(
                "UPDATE accounts SET balance = balance - 10 WHERE id = {}",
                from
            ),
        )
        .unwrap();
        db.execute_in(
            &mut t,
            &format!(
                "UPDATE accounts SET balance = balance + 10 WHERE id = {}",
                to
            ),
        )
        .unwrap();
        db.commit(t).unwrap();
    }
    assert_eq!(total_balance(&db), initial);
}

#[test]
fn aborted_transaction_leaves_no_trace() {
    let db = bank_db(4);
    let mut t = db.begin();
    db.execute_in(&mut t, "UPDATE accounts SET balance = 0")
        .unwrap();
    db.execute_in(&mut t, "DELETE FROM accounts WHERE id = 0")
        .unwrap();
    db.execute_in(&mut t, "INSERT INTO accounts VALUES (99, 1)")
        .unwrap();
    // Inside: changes visible.
    let r = db
        .execute_in(&mut t, "SELECT COUNT(*) FROM accounts")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::I64(4)); // 4 - 1 + 1
    db.abort(t);
    assert_eq!(total_balance(&db), 400);
    assert_eq!(
        db.execute("SELECT COUNT(*) FROM accounts").unwrap().rows[0][0],
        Value::I64(4)
    );
}

#[test]
fn readers_see_stable_snapshot_during_writes() {
    let db = bank_db(8);
    let reader = db.begin();
    db.execute("UPDATE accounts SET balance = 999").unwrap();
    // Snapshot still sees old values.
    let r = db
        .run_plan_in(
            {
                use vectorwise::sql::CatalogView;
                let (tid, schema) = db.resolve_table("accounts").unwrap();
                vectorwise::plan::LogicalPlan::scan("accounts", tid, schema)
            },
            Some(&reader),
        )
        .unwrap();
    assert!(r.rows.iter().all(|row| row[1] == Value::I64(100)));
    // Fresh query sees new values.
    let r2 = db.execute("SELECT MIN(balance) FROM accounts").unwrap();
    assert_eq!(r2.rows[0][0], Value::I64(999));
}

#[test]
fn write_write_conflicts_abort_exactly_one() {
    let db = bank_db(5);
    let mut a = db.begin();
    let mut b = db.begin();
    db.execute_in(&mut a, "UPDATE accounts SET balance = 1 WHERE id = 2")
        .unwrap();
    db.execute_in(&mut b, "UPDATE accounts SET balance = 2 WHERE id = 2")
        .unwrap();
    assert!(db.commit(a).is_ok());
    let err = db.commit(b).unwrap_err();
    assert_eq!(err.kind(), "txn_conflict");
    let r = db
        .execute("SELECT balance FROM accounts WHERE id = 2")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::I64(1));
}

#[test]
fn disjoint_writers_all_commit() {
    let db = Arc::new(bank_db(64));
    let mut handles = Vec::new();
    for w in 0..4i64 {
        let db = db.clone();
        handles.push(std::thread::spawn(move || {
            let mut commits = 0;
            for k in 0..8 {
                let id = w * 16 + k; // disjoint ranges → no conflicts
                let mut t = db.begin();
                db.execute_in(
                    &mut t,
                    &format!(
                        "UPDATE accounts SET balance = balance + 1 WHERE id = {}",
                        id
                    ),
                )
                .unwrap();
                if db.commit(t).is_ok() {
                    commits += 1;
                }
            }
            commits
        }));
    }
    let total: i32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, 32);
    assert_eq!(total_balance(&db), 64 * 100 + 32);
}

#[test]
fn contended_writers_serialize_correctly() {
    // All threads increment the same row with retries: final value must be
    // exactly the number of successful commits.
    let db = Arc::new(bank_db(1));
    let mut handles = Vec::new();
    for _ in 0..4 {
        let db = db.clone();
        handles.push(std::thread::spawn(move || {
            let mut committed = 0;
            for _ in 0..10 {
                loop {
                    let mut t = db.begin();
                    db.execute_in(
                        &mut t,
                        "UPDATE accounts SET balance = balance + 1 WHERE id = 0",
                    )
                    .unwrap();
                    match db.commit(t) {
                        Ok(()) => {
                            committed += 1;
                            break;
                        }
                        Err(e) => assert_eq!(e.kind(), "txn_conflict"),
                    }
                }
            }
            committed
        }));
    }
    let total: i64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, 40);
    let r = db
        .execute("SELECT balance FROM accounts WHERE id = 0")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::I64(100 + 40));
}

#[test]
fn recovery_replays_all_committed_work() {
    let db = bank_db(10);
    db.execute("UPDATE accounts SET balance = balance + 5 WHERE id < 5")
        .unwrap();
    db.execute("DELETE FROM accounts WHERE id = 9").unwrap();
    db.execute("INSERT INTO accounts VALUES (100, 777)")
        .unwrap();
    let before: Vec<_> = db
        .execute("SELECT id, balance FROM accounts ORDER BY id")
        .unwrap()
        .rows;
    db.simulate_crash_and_recover().unwrap();
    let after: Vec<_> = db
        .execute("SELECT id, balance FROM accounts ORDER BY id")
        .unwrap()
        .rows;
    assert_eq!(before, after);
}

#[test]
fn recovery_after_checkpoint_and_more_commits() {
    let db = bank_db(10);
    db.execute("UPDATE accounts SET balance = 0 WHERE id = 0")
        .unwrap();
    db.checkpoint("accounts").unwrap();
    db.execute("UPDATE accounts SET balance = 1 WHERE id = 1")
        .unwrap();
    db.execute("INSERT INTO accounts VALUES (50, 50)").unwrap();
    db.simulate_crash_and_recover().unwrap();
    let r = db
        .execute("SELECT id, balance FROM accounts WHERE id IN (0, 1, 50) ORDER BY id")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::I64(0), Value::I64(0)],
            vec![Value::I64(1), Value::I64(1)],
            vec![Value::I64(50), Value::I64(50)],
        ]
    );
}

#[test]
fn checkpoint_preserves_totals_and_allows_further_updates() {
    let db = bank_db(100);
    db.execute("UPDATE accounts SET balance = balance * 2 WHERE id < 50")
        .unwrap();
    let before = total_balance(&db);
    db.checkpoint("accounts").unwrap();
    assert_eq!(total_balance(&db), before);
    // further updates after checkpoint work
    db.execute("UPDATE accounts SET balance = balance + 1")
        .unwrap();
    assert_eq!(total_balance(&db), before + 100);
}

#[test]
fn many_small_commits_then_recover_matches_oracle() {
    let db = bank_db(20);
    let mut oracle: Vec<i64> = vec![100; 20];
    for i in 0..50i64 {
        let id = (i * 7) % 20;
        let delta = (i % 5) - 2;
        db.execute(&format!(
            "UPDATE accounts SET balance = balance + {} WHERE id = {}",
            delta, id
        ))
        .unwrap();
        oracle[id as usize] += delta;
    }
    db.simulate_crash_and_recover().unwrap();
    let rows = db
        .execute("SELECT id, balance FROM accounts ORDER BY id")
        .unwrap()
        .rows;
    for row in rows {
        let id = row[0].as_i64().unwrap() as usize;
        assert_eq!(row[1].as_i64().unwrap(), oracle[id], "account {}", id);
    }
}

#[test]
fn snapshot_query_sees_pdt_merged_updates() {
    // Mixed stable + delta reads through the vectorized scan.
    let db = bank_db(1000);
    db.execute("UPDATE accounts SET balance = 0 WHERE id < 10")
        .unwrap();
    db.execute("DELETE FROM accounts WHERE id >= 990").unwrap();
    db.execute("INSERT INTO accounts VALUES (5000, 123)")
        .unwrap();
    let r = db
        .execute("SELECT COUNT(*), SUM(balance) FROM accounts")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::I64(1000 - 10 + 1));
    assert_eq!(
        r.rows[0][1],
        Value::I64(1000 * 100 - 10 * 100 - 10 * 100 + 123)
    );
}

// ----------------------------------------------------------------------
// Table versions: per-table log positions, transactions and readers that
// span a checkpoint, statement atomicity, bulk DML.

fn two_table_db() -> Database {
    let db = Database::new().unwrap();
    for t in ["a", "b"] {
        db.execute(&format!("CREATE TABLE {t} (k BIGINT NOT NULL)"))
            .unwrap();
        db.bulk_load(t, (0..10).map(|i| vec![Value::I64(i)]))
            .unwrap();
    }
    db
}

fn count(db: &Database, table: &str) -> i64 {
    db.execute(&format!("SELECT COUNT(*) FROM {table}"))
        .unwrap()
        .rows[0][0]
        .as_i64()
        .unwrap()
}

/// Checkpointing one table must not discard the log records of another.
#[test]
fn checkpoint_of_one_table_keeps_the_log_of_another() {
    let db = two_table_db();
    db.execute("INSERT INTO b VALUES (100)").unwrap();
    db.execute("INSERT INTO a VALUES (100)").unwrap();
    db.checkpoint("a").unwrap();
    db.simulate_crash_and_recover().unwrap();
    assert_eq!((count(&db, "a"), count(&db, "b")), (11, 11));
    // And on: more commits, the other checkpoint, another crash.
    db.execute("INSERT INTO a VALUES (101)").unwrap();
    db.checkpoint("b").unwrap();
    db.execute("DELETE FROM b WHERE k = 0").unwrap();
    db.simulate_crash_and_recover().unwrap();
    assert_eq!((count(&db, "a"), count(&db, "b")), (12, 10));
}

/// A crash after the new image is installed but before the log is trimmed
/// finds records the image already contains: they are skipped, not applied
/// a second time.
#[test]
fn crash_between_image_install_and_log_trim_applies_nothing_twice() {
    let db = two_table_db();
    db.execute("INSERT INTO b VALUES (100)").unwrap();
    db.execute("INSERT INTO a VALUES (100)").unwrap();
    db.execute("UPDATE a SET k = k + 1000 WHERE k = 3").unwrap();
    let untrimmed = std::fs::read(db.wal_path()).unwrap();
    db.checkpoint("a").unwrap();
    assert!(std::fs::read(db.wal_path()).unwrap().len() < untrimmed.len());
    std::fs::write(db.wal_path(), untrimmed).unwrap();
    db.simulate_crash_and_recover().unwrap();
    assert_eq!((count(&db, "a"), count(&db, "b")), (11, 11));
    let moved = db.execute("SELECT COUNT(*) FROM a WHERE k = 1003").unwrap();
    assert_eq!(moved.rows[0][0], Value::I64(1));
}

/// One commit record, two tables, one of them checkpointed: its section is
/// contained in the image, the other table's still has to be replayed.
#[test]
fn multi_table_commit_survives_a_checkpoint_of_one_of_its_tables() {
    let db = two_table_db();
    let mut t = db.begin();
    db.execute_in(&mut t, "INSERT INTO a VALUES (100)").unwrap();
    db.execute_in(&mut t, "INSERT INTO b VALUES (100), (101)")
        .unwrap();
    db.commit(t).unwrap();
    db.checkpoint("a").unwrap();
    db.simulate_crash_and_recover().unwrap();
    assert_eq!((count(&db, "a"), count(&db, "b")), (11, 12));
    db.checkpoint("b").unwrap();
    db.simulate_crash_and_recover().unwrap();
    assert_eq!((count(&db, "a"), count(&db, "b")), (11, 12));
    assert_eq!(std::fs::read(db.wal_path()).unwrap().len(), 0);
}

/// A transaction whose snapshot predates a checkpoint keeps reading the
/// version it pinned — positions and all — and cannot commit into the new
/// one.
#[test]
fn transaction_spanning_a_checkpoint_reads_its_version_and_cannot_commit() {
    let db = Database::new().unwrap();
    db.execute("CREATE TABLE t (k BIGINT NOT NULL, v BIGINT NOT NULL)")
        .unwrap();
    db.bulk_load("t", (0..1000).map(|i| vec![Value::I64(i), Value::I64(0)]))
        .unwrap();
    let mut old = db.begin();
    db.execute("DELETE FROM t WHERE k < 10").unwrap();
    db.checkpoint("t").unwrap();
    let aborts = db.abort_count();
    // Either outcome is sound; addressing the new image with the old
    // snapshot's positions (an out-of-bounds panic, once) is not.
    match db.execute_in(&mut old, "UPDATE t SET v = 1 WHERE k = 500") {
        Ok(r) => {
            assert_eq!(r.rows[0][0], Value::I64(1));
            let seen = db
                .execute_in(&mut old, "SELECT COUNT(*), SUM(v), MIN(k) FROM t")
                .unwrap();
            assert_eq!(
                seen.rows[0],
                vec![Value::I64(1000), Value::I64(1), Value::I64(0)]
            );
        }
        Err(e) => assert_eq!(e.kind(), "txn_conflict"),
    }
    assert_eq!(db.commit(old).unwrap_err().kind(), "txn_conflict");
    assert_eq!(db.abort_count(), aborts + 1);
    let now = db.execute("SELECT COUNT(*), SUM(v) FROM t").unwrap();
    assert_eq!(now.rows[0], vec![Value::I64(990), Value::I64(0)]);
}

/// A statement that fails part-way leaves the transaction exactly as it
/// found it; the transaction's earlier statements still commit.
#[test]
fn failing_statement_leaves_the_transaction_untouched() {
    use vectorwise::sql::CatalogView;
    let db = Database::new().unwrap();
    db.execute("CREATE TABLE t (k BIGINT NOT NULL, small INTEGER NOT NULL)")
        .unwrap();
    db.bulk_load("t", (0..200).map(|i| vec![Value::I64(i), Value::I32(0)]))
        .unwrap();
    let (id, _) = db.resolve_table("t").unwrap();
    let mut t = db.begin();
    db.execute_in(&mut t, "INSERT INTO t VALUES (1000, 1)")
        .unwrap();
    db.execute_in(&mut t, "UPDATE t SET small = 7 WHERE k < 3")
        .unwrap();
    let before = t.effective_pdt(id).unwrap().entries().to_vec();
    assert_eq!(before.len(), 4);
    for failing in [
        // Fails on row 150 of 200: division by zero in an assignment...
        "UPDATE t SET small = 300 / (k - 150)",
        // ...the 201st, inserted, row does not fit the column...
        "UPDATE t SET small = k * 3000000",
        // ...and a predicate that fails while earlier rows matched.
        "DELETE FROM t WHERE 300 / (k - 150) > 0",
    ] {
        assert!(db.execute_in(&mut t, failing).is_err(), "{failing}");
        assert_eq!(t.effective_pdt(id).unwrap().entries(), before, "{failing}");
    }
    db.commit(t).unwrap();
    let r = db
        .execute("SELECT COUNT(*), SUM(small), MAX(k) FROM t")
        .unwrap();
    assert_eq!(
        r.rows[0],
        vec![Value::I64(201), Value::I64(3 * 7 + 1), Value::I64(1000)]
    );
}

/// Readers keep the version they started on while checkpoints swap images
/// underneath them and two writers commit to the same table: every result
/// is the aggregate of one snapshot, no row counted twice or missed.
#[test]
fn readers_keep_their_snapshot_across_checkpoints() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    // Scans have to be fast next to a checkpoint for the two to interleave
    // often; unoptimized builds make do with a smaller table.
    let base: i64 = if cfg!(debug_assertions) {
        150_000
    } else {
        1_000_000
    };
    const ROUNDS: i64 = 40;
    const BATCH: i64 = 100;
    let db = Database::new().unwrap();
    db.execute("CREATE TABLE t (k BIGINT NOT NULL, v BIGINT NOT NULL, w BIGINT NOT NULL)")
        .unwrap();
    db.bulk_load(
        "t",
        (0..base).map(|i| vec![Value::I64(i), Value::I64(0), Value::I64(0)]),
    )
    .unwrap();

    // Round j of the first writer appends BATCH rows with v = j; the second
    // writer's rows have w = 1. A snapshot holding rounds 1..=J and n rows
    // of the second writer therefore reads exactly
    // (base + BATCH*J + n, BATCH*J*(J+1)/2, J, n).
    let rounds_started = AtomicU64::new(0);
    let rounds_done = AtomicU64::new(0);
    let queries_started = AtomicU64::new(0);
    let reader_done = AtomicBool::new(false);
    let commit = |sql: &str| loop {
        match db.execute(sql) {
            Ok(_) => break,
            Err(e) => assert_eq!(e.kind(), "txn_conflict", "{sql}: {e}"),
        }
    };
    let (queries, straddled, singles, mixed) = std::thread::scope(|s| {
        let batches = s.spawn(|| {
            for j in 1..=ROUNDS {
                let rows: Vec<String> = (0..BATCH).map(|i| format!("({i}, {j}, 0)")).collect();
                rounds_started.store(j as u64, Ordering::SeqCst);
                commit(&format!("INSERT INTO t VALUES {}", rows.join(", ")));
                rounds_done.store(j as u64, Ordering::SeqCst);
                // Checkpoint right after a query has started, so that it
                // swaps the image while the query is scanning.
                let seen = queries_started.load(Ordering::SeqCst);
                while queries_started.load(Ordering::SeqCst) == seen {
                    if reader_done.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::yield_now();
                }
                db.checkpoint("t").unwrap();
            }
        });
        let singles = s.spawn(|| {
            let mut n = 0i64;
            while !reader_done.load(Ordering::SeqCst) {
                commit("INSERT INTO t VALUES (-1, 0, 1)");
                n += 1;
                // One commit per query: they land inside scans and beside
                // checkpoints without starving the other writer, whose
                // appends conflict with these.
                let seen = queries_started.load(Ordering::SeqCst);
                while queries_started.load(Ordering::SeqCst) == seen
                    && !reader_done.load(Ordering::SeqCst)
                {
                    std::thread::yield_now();
                }
            }
            n
        });
        let (mut queries, mut straddled) = (0u64, 0u64);
        // The first result that is not one snapshot's. (Reported after the
        // writers, which wait for this loop, have been let go.)
        let mut mixed = None;
        while !batches.is_finished() && mixed.is_none() {
            let lo = rounds_done.load(Ordering::SeqCst) as i64;
            queries_started.fetch_add(1, Ordering::SeqCst);
            let r = db
                .execute("SELECT COUNT(*), SUM(v), MAX(v), SUM(w) FROM t")
                .unwrap();
            let hi = rounds_started.load(Ordering::SeqCst) as i64;
            let got: Vec<i64> = r.rows[0].iter().map(|v| v.as_i64().unwrap()).collect();
            let (j, n) = (got[2], got[3]);
            let want = vec![base + BATCH * j + n, BATCH * j * (j + 1) / 2, j, n];
            if j < lo || j > hi || got != want {
                mixed = Some(format!(
                    "query {queries} read {got:?}: of one snapshot that is {want:?}, \
                     with round {j} in [{lo}, {hi}]"
                ));
            }
            queries += 1;
            straddled += (hi > lo) as u64;
        }
        reader_done.store(true, Ordering::SeqCst);
        batches.join().unwrap();
        (queries, straddled, singles.join().unwrap(), mixed)
    });
    assert_eq!(mixed, None);
    assert!(
        straddled > 0,
        "none of {queries} queries ran across a commit and checkpoint"
    );
    let r = db.execute("SELECT COUNT(*), SUM(w) FROM t").unwrap();
    assert_eq!(
        r.rows[0],
        vec![
            Value::I64(base + BATCH * ROUNDS + singles),
            Value::I64(singles)
        ]
    );
    // Every reader is gone: only the current image's blocks are left.
    db.checkpoint("t").unwrap();
    let ctx = db.exec_context(None).unwrap();
    let live: usize = ctx
        .tables
        .values()
        .map(|p| {
            let image = p.storage.read();
            image.group_count() * image.schema().len()
        })
        .sum();
    drop(ctx);
    assert_eq!(db.disk().block_count(), live);
}

/// Bulk DML is one scan and one pass over the PDT, not one PDT rebuild per
/// row: statements that took seconds (or never finished) take milliseconds.
/// Wall bounds are an order of magnitude above what an optimized build
/// needs, and only checked there.
#[cfg(not(debug_assertions))]
#[test]
fn bulk_dml_is_linear_in_the_rows_it_changes() {
    use std::time::{Duration, Instant};
    let db = Database::new().unwrap();
    db.execute("CREATE TABLE t (k BIGINT NOT NULL, v BIGINT NOT NULL)")
        .unwrap();
    let n = 1_000_000i64;
    db.bulk_load("t", (0..n).map(|i| vec![Value::I64(i), Value::I64(i % 7)]))
        .unwrap();
    let timed = |sql: &str, rows: i64, bound: Duration| {
        let t = Instant::now();
        let r = db.execute(sql).unwrap();
        let took = t.elapsed();
        assert_eq!(r.rows[0][0], Value::I64(rows), "{sql}");
        assert!(took < bound, "{sql} took {took:?}, bound {bound:?}");
    };
    timed(
        "UPDATE t SET v = v + 1 WHERE k < 40000",
        40_000,
        Duration::from_millis(1500),
    );
    timed(
        "DELETE FROM t WHERE k >= 500000 AND k < 530000",
        30_000,
        Duration::from_millis(1500),
    );
    let rows: Vec<String> = (0..20_000).map(|i| format!("({}, 1)", n + i)).collect();
    timed(
        &format!("INSERT INTO t VALUES {}", rows.join(", ")),
        20_000,
        Duration::from_secs(10),
    );
    let r = db.execute("SELECT COUNT(*), SUM(v) FROM t").unwrap();
    let sum_before: i64 = (0..n).map(|i| i % 7).sum();
    let deleted: i64 = (500_000..530_000).map(|i| i % 7).sum();
    assert_eq!(
        r.rows[0],
        vec![
            Value::I64(n - 30_000 + 20_000),
            Value::I64(sum_before + 40_000 - deleted + 20_000)
        ]
    );
    timed(
        "DELETE FROM t",
        n - 30_000 + 20_000,
        Duration::from_secs(60),
    );
    assert_eq!(count(&db, "t"), 0);
    db.checkpoint("t").unwrap();
    assert_eq!(count(&db, "t"), 0);
}
