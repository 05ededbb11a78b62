//! Time SQL statements on TPC-H and print each one's `EXPLAIN ANALYZE`: the
//! per-statement probe behind a performance change.
//!
//! ```sh
//! cargo run --release --example explain_sql -- [FILE] [--sf 0.1] [--seed 1] [--runs 10]
//! ```
//!
//! TPC-H is generated at `--sf` from `--seed`, bulk-loaded and analyzed as
//! `vwbench` loads it. `FILE` (default `examples/explain_sql.sql`) holds
//! statements separated by blank lines; each statement's first line is its
//! name. Every statement runs once to warm up, then `--runs` times in a
//! round-robin over the file; the median and minimum latency of each
//! follow, then its `EXPLAIN ANALYZE`.

use std::time::{Duration, Instant};
use vectorwise::tpch::{tpch_schema, TpchGenerator, TPCH_TABLES};
use vectorwise::{Database, VwError};

fn main() -> Result<(), VwError> {
    let (mut file, mut sf, mut seed, mut runs) =
        ("examples/explain_sql.sql".to_string(), 0.1, 1, 10);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            let v = args.next().unwrap_or_default();
            v.parse::<f64>()
                .map_err(|_| VwError::Plan(format!("{name} wants a number, got {v:?}")))
        };
        match arg.as_str() {
            "--sf" => sf = value("--sf")?,
            "--seed" => seed = value("--seed")? as u64,
            "--runs" => runs = (value("--runs")? as usize).max(1),
            _ => file = arg,
        }
    }
    let text = std::fs::read_to_string(&file)
        .map_err(|e| VwError::Plan(format!("cannot read {file}: {e}")))?;
    let statements: Vec<(&str, String)> = text
        .split("\n\n")
        .filter_map(|block| {
            let mut lines = block.lines().filter(|l| !l.trim().is_empty());
            let name = lines.next()?.trim();
            Some((name, lines.collect::<Vec<_>>().join("\n")))
        })
        .collect();

    let db = Database::new()?;
    let generator = TpchGenerator::with_seed(sf, seed);
    for table in TPCH_TABLES {
        db.create_table(
            table,
            tpch_schema(table).expect("every TPC-H table has a schema"),
        )?;
        db.bulk_load(table, generator.rows(table))?;
    }
    for table in TPCH_TABLES {
        db.analyze(table)?;
    }
    println!(
        "TPC-H SF {sf}, seed {seed}: {} statements from {file}, {runs} runs each",
        statements.len()
    );

    let mut times: Vec<Vec<Duration>> = vec![Vec::with_capacity(runs); statements.len()];
    for round in 0..=runs {
        for ((_, sql), t) in statements.iter().zip(&mut times) {
            let start = Instant::now();
            db.execute(sql)?;
            if round > 0 {
                t.push(start.elapsed());
            }
        }
    }
    for ((name, sql), t) in statements.iter().zip(&mut times) {
        t.sort();
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        println!(
            "\n== {name}: median {:.2} ms, min {:.2} ms",
            ms(t[t.len() / 2]),
            ms(t[0])
        );
        for row in db.execute(&format!("EXPLAIN ANALYZE {sql}"))?.rows {
            println!("{}", row[0]);
        }
    }
    Ok(())
}
