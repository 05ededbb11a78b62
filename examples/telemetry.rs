//! The observability surface: system tables, metrics and trace export.
//!
//! Runs a short workload at dop 4, then inspects it the way an operator
//! would — `SELECT ... FROM vw_queries` / `vw_operator_stats` / `vw_metrics`
//! / `vw_io` / `vw_cache`, and a chrome://tracing export of the per-worker
//! timeline. Doubles as the CI telemetry smoke: it asserts every system
//! table returns rows and that the exported trace JSON parses with spans
//! from every Exchange worker.
//!
//! ```sh
//! cargo run --release --example telemetry
//! ```

use vectorwise::engine::validate_chrome_json;
use vectorwise::{Database, Value};

fn main() -> Result<(), vectorwise::VwError> {
    let db = Database::new()?;
    db.execute("CREATE TABLE events (user_id BIGINT NOT NULL, kind BIGINT NOT NULL, amount DOUBLE NOT NULL)")?;
    db.bulk_load(
        "events",
        (0..500_000i64).map(|i| {
            vec![
                Value::I64(i % 10_000),
                Value::I64(i % 7),
                Value::F64((i % 500) as f64 * 0.5),
            ]
        }),
    )?;

    // A short mixed workload, parallel so the trace has several workers,
    // its scans sharing one cooperative buffer manager (`vw_cache`'s row).
    db.set_parallelism(4);
    db.enable_cooperative_scans(64 << 20);
    db.execute("SELECT kind, COUNT(*) AS n, SUM(amount) AS total FROM events GROUP BY kind")?;
    db.execute("SELECT COUNT(*) FROM events WHERE amount > 100.0")?;
    db.execute(
        "SELECT user_id, SUM(amount) AS s FROM events GROUP BY user_id ORDER BY s DESC LIMIT 5",
    )?;

    // -------------------------------------------------------- query history
    println!("== vw_queries: the session's query history ==");
    let r = db.execute(
        "SELECT query_id, wall_ms, rows, dop, peak_mem_bytes FROM vw_queries ORDER BY query_id",
    )?;
    print!("{}", r.format_table());
    assert!(
        r.rows.len() >= 3,
        "history should hold the workload queries"
    );

    // ------------------------------------------------------ operator stats
    println!("\n== vw_operator_stats: slowest operators across the session ==");
    let r = db
        .execute("SELECT op, time_ms, rows FROM vw_operator_stats ORDER BY time_ms DESC LIMIT 5")?;
    print!("{}", r.format_table());
    assert!(!r.rows.is_empty());

    // ------------------------------------------------------------- metrics
    println!("\n== vw_metrics: registry excerpt ==");
    let r = db.execute(
        "SELECT name, kind, value FROM vw_metrics \
         WHERE name = 'queries_total' OR name = 'morsels_claimed_total' \
            OR name = 'query_wall_ns_count' OR name = 'disk_reads'",
    )?;
    print!("{}", r.format_table());
    assert_eq!(r.rows.len(), 4, "expected the four selected metrics");

    println!("\n== vw_io / vw_cache ==");
    let io = db.execute("SELECT * FROM vw_io")?;
    print!("{}", io.format_table());
    assert_eq!(io.rows.len(), 1);
    let cache = db.execute("SELECT * FROM vw_cache")?;
    print!("{}", cache.format_table());
    assert!(!cache.rows.is_empty());

    // ------------------------------------------- wait attribution + event log
    // Re-run the heavy query under a 1ns slow-query threshold and a tiny
    // memory budget: it must surface in vw_log as a slow_query, its forced
    // sort/aggregate spills as spill events, and vw_waits must attribute
    // both the admission acquire and the spill I/O it was blocked on.
    println!("\n== vw_log / vw_waits under a tiny threshold and budget ==");
    db.execute("SET log_min_duration = 1")?;
    db.execute("SET memory_budget = '256KiB'")?;
    db.execute(
        "SELECT user_id, SUM(amount) AS s FROM events GROUP BY user_id ORDER BY s DESC LIMIT 5",
    )?;
    db.execute("SET memory_budget = unbounded")?;
    db.execute("SET log_min_duration = 'off'")?;

    let log = db.execute("SELECT severity, event, query_id, detail FROM vw_log")?;
    let tail: Vec<_> = log.rows.iter().rev().take(8).rev().cloned().collect();
    for row in &tail {
        println!(
            "  [{}] {:<14} q{} {}",
            row[0].as_str().unwrap_or("?"),
            row[1].as_str().unwrap_or("?"),
            row[2].as_i64().unwrap_or(0),
            row[3].as_str().unwrap_or("")
        );
    }
    let has_event = |name: &str| log.rows.iter().any(|r| r[1].as_str() == Some(name));
    assert!(
        has_event("slow_query"),
        "a 1ns log_min_duration must flag the query as slow"
    );
    assert!(
        has_event("spill"),
        "a 256KiB budget must make the sort/aggregate spill (and log it)"
    );

    let waits = db.execute("SELECT wait_class, wait_ms, wait_count FROM vw_waits")?;
    let class_ms = |class: &str| -> f64 {
        waits
            .rows
            .iter()
            .filter(|r| r[0].as_str() == Some(class))
            .map(|r| r[1].as_f64().unwrap_or(0.0))
            .sum()
    };
    println!(
        "vw_waits: admission {:.3}ms, spill_write {:.3}ms, spill_read {:.3}ms \
         across {} rows",
        class_ms("admission"),
        class_ms("spill_write"),
        class_ms("spill_read"),
        waits.rows.len()
    );
    assert!(
        class_ms("admission") > 0.0,
        "every query's admission acquire is attributed in vw_waits"
    );
    assert!(
        class_ms("spill_write") > 0.0,
        "the spilling query's blocked write time lands in vw_waits"
    );

    // drain_events is the tail -f API: a cursor past everything above means
    // a fresh query produces exactly its own events.
    let drained = db.drain_events();
    assert!(!drained.is_empty(), "undrained events were pending");
    assert!(db.drain_events().is_empty(), "drain cursor advanced");

    // --------------------------------------------------------- trace export
    println!("\n== per-worker trace (chrome://tracing JSON) ==");
    db.execute("SELECT kind, SUM(amount) FROM events GROUP BY kind")?;
    let json = db.export_trace().expect("profiling is on by default");
    let events = validate_chrome_json(&json).expect("trace JSON must parse");
    let trace = db.last_trace().expect("trace retained");
    let workers = trace.worker_ids();
    println!(
        "{} events from workers {:?} ({} bytes of JSON)",
        events,
        workers,
        json.len()
    );
    for w in 1..=4 {
        assert!(
            workers.contains(&w),
            "expected trace events from worker {w}, saw {workers:?}"
        );
    }
    if let Ok(path) = std::env::var("TRACE_OUT") {
        std::fs::write(&path, &json).expect("write trace");
        println!("wrote {} — open it in chrome://tracing or Perfetto", path);
    }

    // The TRACE statement returns the same document as SQL rows.
    let r = db.execute("TRACE SELECT COUNT(*) FROM events")?;
    let sql_json: String = r
        .rows
        .iter()
        .map(|row| row[0].as_str().unwrap())
        .collect::<Vec<_>>()
        .join("\n");
    validate_chrome_json(&sql_json).expect("TRACE output must parse");
    println!("TRACE statement returned {} JSON lines", r.rows.len());

    println!("\ntelemetry smoke OK");
    Ok(())
}
