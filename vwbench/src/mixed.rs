//! `mixed_rw`: an open-loop writer beside a closed-loop reader on one
//! database, two client threads on two cores.
//!
//! The writer's transactions are due at fixed instants whatever the system
//! does; each latency is timed from its due instant, so a stall (a DELETE
//! that rewrites a table image, a checkpoint) also counts against the
//! transactions queued behind it. The order of transaction kinds is a fixed
//! pattern, so every seed meets the same queueing; the seed picks the keys.

use crate::breakdown::Breakdown;
use crate::data::Facts;
use crate::stats::{mean, percentile, sorted, LatencyLog};
use crate::verify::Checks;
use crate::workloads::{MIXED_INV_LINES, MIXED_INV_PRIORITY, MIXED_READ, NEW_ORDER_BASE};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use vw_common::rng::Xoshiro256;
use vw_common::{Result, Value};
use vw_core::{Database, Session};

/// One transaction is due every period: 2.5 per second. At SF 0.1 a
/// transfer takes about 0.5 s, a delete 1.7 s and the checkpoint pair 2.2 s
/// beside the reader, so the writer is busy about half the time: stalls
/// queue a few transactions and the queue drains again.
pub const PERIOD: Duration = Duration::from_millis(400);
/// The shorter period of `--smoke` runs, which last about a second.
pub const PERIOD_SMOKE: Duration = Duration::from_millis(25);
/// Lines inserted with every new order.
pub const LINES_PER_NEW_ORDER: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnKind {
    /// INSERT one order and its four lines.
    NewOrder = 0,
    /// UPDATE two orders: +1 on one, -1 on the other.
    Transfer = 1,
    /// DELETE the lines of one generated order.
    Delete = 2,
}

pub const TXN_KINDS: [&str; 3] = ["txn_new_order", "txn_transfer", "txn_delete"];

/// Kind of the `i`-th transaction: of every 30, 25 new orders (83%), 4
/// transfers (13%) and 1 delete (3%), the heavy ones spread apart.
pub fn kind_of(i: usize) -> TxnKind {
    match i % 30 {
        2 | 9 | 16 | 23 => TxnKind::Transfer,
        27 => TxnKind::Delete,
        _ => TxnKind::NewOrder,
    }
}

/// Times of one open-loop operation, as offsets from the loop's start.
#[derive(Debug, Clone, Copy)]
pub struct OpTiming {
    pub due: Duration,
    pub start: Duration,
    pub end: Duration,
    /// The generator was idle when the operation came due. Only then is a
    /// late start the generator's own lateness; otherwise it is queueing
    /// behind earlier operations, which the latency already counts.
    pub idle_before: bool,
}

impl OpTiming {
    /// Due instant to completion.
    pub fn latency(&self) -> Duration {
        self.end.saturating_sub(self.due)
    }

    /// How late the generator itself started an operation it was free to
    /// start on time.
    pub fn generator_lateness(&self) -> Duration {
        if self.idle_before {
            self.start.saturating_sub(self.due)
        } else {
            Duration::ZERO
        }
    }
}

/// Run `n` operations, the `i`-th due at `i * period` after the start,
/// never earlier, and immediately when the previous ones ran past its due
/// instant.
pub fn run_open_loop(n: usize, period: Duration, mut op: impl FnMut(usize)) -> Vec<OpTiming> {
    let epoch = Instant::now();
    let mut timings = Vec::with_capacity(n);
    for i in 0..n {
        let due = period * i as u32;
        let idle_before = epoch.elapsed() < due;
        if idle_before {
            // Sleep most of the wait, then spin: a plain sleep overshoots by
            // a scheduler tick under load.
            if let Some(coarse) = due.checked_sub(epoch.elapsed() + Duration::from_micros(500)) {
                std::thread::sleep(coarse);
            }
            while epoch.elapsed() < due {
                std::hint::spin_loop();
            }
        }
        let start = epoch.elapsed();
        op(i);
        timings.push(OpTiming {
            due,
            start,
            end: epoch.elapsed(),
            idle_before,
        });
    }
    timings
}

/// What the writer knows it did; the end state of the database must match.
#[derive(Default)]
pub struct Model {
    pub new_orders: Vec<i64>,
    /// Expected `o_shippriority` of every order a transfer touched.
    pub priority: BTreeMap<i64, i64>,
    /// Generated orders whose lines were deleted, with how many lines.
    pub deleted: BTreeMap<i64, u64>,
}

fn sql_literal(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Date(_) => format!("DATE '{}'", v),
        other => other.to_string(),
    }
}

fn tuple_sql(row: &[Value]) -> String {
    let cells: Vec<String> = row.iter().map(sql_literal).collect();
    format!("({})", cells.join(", "))
}

/// Bytes of user data in a row: 8 per integer or double, 4 per date, the
/// length of a string.
pub fn user_bytes(row: &[Value]) -> usize {
    row.iter()
        .map(|v| match v {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::I32(_) | Value::Date(_) => 4,
            Value::I64(_) | Value::F64(_) => 8,
            Value::Str(s) => s.len(),
        })
        .sum()
}

/// The rows of new order `key`: one `orders` row and its `lineitem` rows.
pub fn new_order_rows(
    key: i64,
    rng: &mut Xoshiro256,
    facts: &Facts,
) -> (Vec<Value>, Vec<Vec<Value>>) {
    let date = |s: &str| Value::Date(vw_common::date::parse_date(s).expect("literal date"));
    let order = vec![
        Value::I64(key),
        Value::I64(rng.range_i64(1, facts.n_customers)),
        Value::Str("O".into()),
        Value::F64(rng.range_i64(1_000, 400_000) as f64),
        date("1998-08-02"),
        Value::Str("1-URGENT".into()),
        Value::Str("Clerk#000000001".into()),
        Value::I64(0),
        Value::Str("vwbench new order".into()),
    ];
    let lines = (1..=LINES_PER_NEW_ORDER as i64)
        .map(|line| {
            let qty = rng.range_i64(1, 50) as f64;
            vec![
                Value::I64(key),
                Value::I64(rng.range_i64(1, 1000)),
                Value::I64(rng.range_i64(1, 10)),
                Value::I64(line),
                Value::F64(qty),
                Value::F64(qty * 1000.0),
                Value::F64(0.05),
                Value::F64(0.02),
                Value::Str("N".into()),
                Value::Str("O".into()),
                date("1998-09-01"),
                date("1998-09-15"),
                date("1998-09-10"),
                Value::Str("NONE".into()),
                Value::Str("MAIL".into()),
                Value::Str("vwbench new order line".into()),
            ]
        })
        .collect();
    (order, lines)
}

pub fn insert_sql(table: &str, rows: &[Vec<Value>]) -> String {
    let tuples: Vec<String> = rows.iter().map(|r| tuple_sql(r)).collect();
    format!("INSERT INTO {} VALUES {}", table, tuples.join(", "))
}

/// The writer: issues transactions against the database and keeps the model.
pub struct Writer<'a> {
    db: &'a Database,
    facts: &'a Facts,
    rng: Xoshiro256,
    pub model: Model,
}

impl<'a> Writer<'a> {
    pub fn new(db: &'a Database, facts: &'a Facts, seed: u64) -> Writer<'a> {
        Writer {
            db,
            facts,
            rng: Xoshiro256::seeded(seed ^ 0x7772_6974_6572),
            model: Model::default(),
        }
    }

    /// Run transaction number `i` of kind `kind` to its commit.
    pub fn transact(&mut self, i: usize, kind: TxnKind) -> Result<()> {
        let mut txn = self.db.begin();
        match kind {
            TxnKind::NewOrder => {
                let key = NEW_ORDER_BASE + i as i64;
                let (order, lines) = new_order_rows(key, &mut self.rng, self.facts);
                self.db
                    .execute_in(&mut txn, &insert_sql("orders", &[order]))?;
                self.db
                    .execute_in(&mut txn, &insert_sql("lineitem", &lines))?;
                self.db.commit(txn)?;
                self.model.new_orders.push(key);
            }
            TxnKind::Transfer => {
                let from = self.rng.range_i64(1, self.facts.n_orders);
                let to = loop {
                    let k = self.rng.range_i64(1, self.facts.n_orders);
                    if k != from {
                        break k;
                    }
                };
                for (key, delta) in [(from, "- 1"), (to, "+ 1")] {
                    self.db.execute_in(
                        &mut txn,
                        &format!(
                            "UPDATE orders SET o_shippriority = o_shippriority {} WHERE o_orderkey = {}",
                            delta, key
                        ),
                    )?;
                }
                self.db.commit(txn)?;
                *self.model.priority.entry(from).or_insert(0) -= 1;
                *self.model.priority.entry(to).or_insert(0) += 1;
            }
            TxnKind::Delete => {
                let key = loop {
                    let k = self.rng.range_i64(1, self.facts.n_orders);
                    if !self.model.deleted.contains_key(&k) {
                        break k;
                    }
                };
                self.db.execute_in(
                    &mut txn,
                    &format!("DELETE FROM lineitem WHERE l_orderkey = {}", key),
                )?;
                self.db.commit(txn)?;
                self.model
                    .deleted
                    .insert(key, self.facts.lines_of_order[key as usize] as u64);
            }
        }
        Ok(())
    }
}

pub struct MixedOutcome {
    pub reads: LatencyLog,
    /// Wall time of the reader's loop, which ends with the round in which
    /// the writer committed its last transaction.
    pub read_wall_s: f64,
    /// Due-to-commit latency in ms of every transaction, by kind.
    pub txn_ms: [Vec<f64>; 3],
    pub writer_late_ms_max: f64,
    /// Wall of each checkpoint pair: (`orders`, `lineitem`), in ms.
    pub checkpoint_ms: Vec<(f64, f64)>,
    pub checks: Checks,
    pub model: Model,
}

fn first_i64(rows: &[Vec<Value>]) -> Option<i64> {
    rows.first()?.first()?.as_i64()
}

/// Run both clients for `n_txns` transactions. The writer checkpoints
/// `orders` and `lineitem` after half of them. With `harvest`, the reader
/// feeds every statement's `QueryProfile` into the breakdown.
pub fn run_mixed(
    db: &Database,
    session: &Session,
    facts: &Facts,
    seed: u64,
    n_txns: usize,
    period: Duration,
    mut harvest: Option<&mut Breakdown>,
) -> MixedOutcome {
    let writer_done = AtomicBool::new(false);
    let mut reads = LatencyLog::new(MIXED_READ.iter().map(|t| t.name).collect());
    let mut checks = Checks::default();
    let epoch = Instant::now();

    let (read_wall_s, written) = std::thread::scope(|scope| {
        let writer_thread = scope.spawn(|| {
            let mut writer = Writer::new(db, facts, seed);
            let mut checks = Checks::default();
            let mut checkpoint_ms = Vec::new();
            let timings = run_open_loop(n_txns, period, |i| {
                let kind = kind_of(i);
                checks.record(
                    writer
                        .transact(i, kind)
                        .map_err(|e| format!("{} #{}: {}", TXN_KINDS[kind as usize], i, e)),
                );
                // Back to back, no commit between: a checkpoint truncates
                // the whole WAL, so entries of another table still in its
                // PDT would not survive a crash.
                if i + 1 == n_txns / 2 {
                    let mut pair = [0.0; 2];
                    for (slot, table) in pair.iter_mut().zip(["orders", "lineitem"]) {
                        let t = Instant::now();
                        checks.record(
                            db.checkpoint(table)
                                .map(|_| ())
                                .map_err(|e| format!("checkpoint {}: {}", table, e)),
                        );
                        *slot = t.elapsed().as_secs_f64() * 1e3;
                    }
                    checkpoint_ms.push((pair[0], pair[1]));
                }
            });
            // Publishes the writer's commits to the reader's final round.
            writer_done.store(true, Ordering::Release);
            (writer, checks, checkpoint_ms, timings)
        });

        loop {
            if let Some(b) = harvest.as_deref_mut() {
                b.begin_round();
            }
            for (i, t) in MIXED_READ.iter().enumerate() {
                let start = Instant::now();
                let result = session.execute(t.sql);
                reads.record(i, start.elapsed().as_secs_f64() * 1e3);
                checks.record(match result {
                    Err(e) => Err(format!("{}: {}", t.name, e)),
                    Ok(r) if i == MIXED_INV_PRIORITY && first_i64(&r.rows) != Some(0) => {
                        Err(format!(
                            "SUM(o_shippriority) is {:?} in a reader snapshot, expected 0",
                            r.rows.first()
                        ))
                    }
                    Ok(r) if i == MIXED_INV_LINES && !r.is_empty() => Err(format!(
                        "{} inserted orders without exactly {} lines in a reader snapshot",
                        r.len(),
                        LINES_PER_NEW_ORDER
                    )),
                    Ok(_) => Ok(()),
                });
                if let (Some(b), Some(p)) = (harvest.as_deref_mut(), session.profile_last_query()) {
                    b.add(&p);
                }
            }
            if writer_done.load(Ordering::Acquire) {
                break;
            }
        }
        let read_wall_s = epoch.elapsed().as_secs_f64();
        (
            read_wall_s,
            writer_thread.join().expect("writer thread panicked"),
        )
    });

    let (writer, writer_checks, checkpoint_ms, timings) = written;
    checks.merge(writer_checks);
    let mut txn_ms: [Vec<f64>; 3] = Default::default();
    for (i, t) in timings.iter().enumerate() {
        txn_ms[kind_of(i) as usize].push(t.latency().as_secs_f64() * 1e3);
    }
    MixedOutcome {
        reads,
        read_wall_s,
        txn_ms,
        writer_late_ms_max: timings
            .iter()
            .map(|t| t.generator_lateness().as_secs_f64() * 1e3)
            .fold(0.0, f64::max),
        checkpoint_ms,
        checks,
        model: writer.model,
    }
}

impl MixedOutcome {
    /// Mean due-to-commit latency of each transaction kind, in ms. Mean, not
    /// median: about half the new orders come due during a stall and wait;
    /// the median of such a two-humped sample sits on the gap between the
    /// humps and jumps from run to run, and below a half it would not see
    /// the stalls at all. The mean moves smoothly with how long stalls last.
    pub fn kind_means(&self) -> [f64; 3] {
        [0, 1, 2].map(|k| mean(&self.txn_ms[k]))
    }

    /// 90th percentile of due-to-commit latency over all transactions.
    pub fn commit_p90_ms(&self) -> f64 {
        let all: Vec<f64> = self.txn_ms.iter().flatten().copied().collect();
        percentile(&sorted(&all), 0.9)
    }
}

/// The end state against the writer's model, and again after the
/// transaction state is rebuilt from the WAL alone: every acknowledged
/// commit must still be there.
pub fn verify_durable(db: &Database, session: &Session, facts: &Facts, model: &Model) -> Checks {
    let mut checks = verify_end_state(session, facts, model, "end state");
    match db.simulate_crash_and_recover() {
        Ok(()) => checks.merge(verify_end_state(
            session,
            facts,
            model,
            "after crash recovery",
        )),
        Err(e) => checks.fail(format!("crash recovery: {}", e)),
    }
    checks
}

/// Compare the database with the writer's model, through SQL.
fn verify_end_state(session: &Session, facts: &Facts, model: &Model, when: &str) -> Checks {
    let mut checks = Checks::default();
    let mut expect = |sql: String, want: i64| {
        checks.record(match session.execute(&sql) {
            Err(e) => Err(format!("{}: {}: {}", when, sql, e)),
            Ok(r) => match first_i64(&r.rows) {
                Some(got) if got == want => Ok(()),
                got => Err(format!(
                    "{}: {} gave {:?}, the model says {}",
                    when, sql, got, want
                )),
            },
        })
    };
    let n_new = model.new_orders.len() as i64;
    let deleted_lines: u64 = model.deleted.values().sum();
    expect("SELECT COUNT(*) FROM orders".into(), facts.n_orders + n_new);
    expect(
        "SELECT COUNT(*) FROM lineitem".into(),
        facts.n_lineitem as i64 + n_new * LINES_PER_NEW_ORDER as i64 - deleted_lines as i64,
    );
    expect(MIXED_READ[MIXED_INV_PRIORITY].sql.into(), 0);
    expect(
        format!(
            "SELECT COUNT(*) FROM orders WHERE o_orderkey >= {}",
            NEW_ORDER_BASE
        ),
        n_new,
    );
    expect(
        format!(
            "SELECT COUNT(*) FROM lineitem WHERE l_orderkey >= {}",
            NEW_ORDER_BASE
        ),
        n_new * LINES_PER_NEW_ORDER as i64,
    );
    for (key, want) in &model.priority {
        expect(
            format!(
                "SELECT o_shippriority FROM orders WHERE o_orderkey = {}",
                key
            ),
            *want,
        );
    }
    for key in model.deleted.keys() {
        expect(
            format!("SELECT COUNT(*) FROM lineitem WHERE l_orderkey = {}", key),
            0,
        );
    }
    checks.record(match session.execute(MIXED_READ[MIXED_INV_LINES].sql) {
        Err(e) => Err(format!("{}: {}", when, e)),
        Ok(r) if !r.is_empty() => Err(format!(
            "{}: {} inserted orders without exactly {} lines",
            when,
            r.len(),
            LINES_PER_NEW_ORDER
        )),
        Ok(_) => Ok(()),
    });
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_has_the_stated_mix() {
        let kinds: Vec<TxnKind> = (0..60).map(kind_of).collect();
        let count = |k| kinds.iter().filter(|x| **x == k).count();
        assert_eq!(count(TxnKind::NewOrder), 50);
        assert_eq!(count(TxnKind::Transfer), 8);
        assert_eq!(count(TxnKind::Delete), 2);
        // The same for every seed: kind_of takes no seed.
        assert_eq!(kind_of(27), TxnKind::Delete);
        assert_eq!(kind_of(30 + 2), TxnKind::Transfer);
    }

    #[test]
    fn open_loop_times_latency_from_the_due_instant() {
        // Operation 1 takes three periods. Operations 2 and 3 come due while
        // it runs, start late through no fault of the generator, and their
        // latency must include the wait. Bounds are loose: other tests load
        // the machine at the same time.
        let period = Duration::from_millis(50);
        let timings = run_open_loop(5, period, |i| {
            std::thread::sleep(if i == 1 {
                3 * period + Duration::from_millis(10)
            } else {
                Duration::from_millis(1)
            })
        });
        for (i, t) in timings.iter().enumerate() {
            assert_eq!(t.due, period * i as u32);
            assert!(
                t.start >= t.due,
                "operation {} started before it was due",
                i
            );
            assert!(t.end >= t.start);
        }
        // Due at 0 and run at once; the next one is waited for.
        assert!(!timings[0].idle_before && timings[1].idle_before);
        assert!(timings[1].generator_lateness() < period);
        // Queued behind operation 1: due at 100 ms, started after 210 ms.
        assert!(!timings[2].idle_before && !timings[3].idle_before);
        assert!(timings[2].start >= timings[1].end);
        assert!(timings[2].latency() >= period * 2);
        assert!(timings[2].latency() > timings[2].end - timings[2].start);
        assert_eq!(timings[2].generator_lateness(), Duration::ZERO);
        // The backlog drains in order.
        assert!(timings[3].start >= timings[2].end);
        assert!(timings[4].start >= timings[3].end);
    }

    #[test]
    fn insert_statements_quote_and_count_user_bytes() {
        let row = vec![
            Value::I64(7),
            Value::F64(2.5),
            Value::Date(vw_common::date::parse_date("1998-08-02").unwrap()),
            Value::Str("it's".into()),
        ];
        assert_eq!(
            insert_sql("t", &[row.clone(), row.clone()]),
            "INSERT INTO t VALUES (7, 2.5, DATE '1998-08-02', 'it''s'), (7, 2.5, DATE '1998-08-02', 'it''s')"
        );
        assert_eq!(user_bytes(&row), 8 + 8 + 4 + 4);
    }
}
