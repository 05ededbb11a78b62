//! Multi-core execution and cooperative scans.
//!
//! Shows (a) the rewriter's Volcano-style parallelization — Exchange
//! operators with partial/final aggregation — and (b) the Active Buffer
//! Manager sharing one disk pass between concurrent scans (§I-A/§I-B).
//!
//! ```sh
//! cargo run --release --example parallel_scan
//! ```

use std::sync::Arc;
use std::time::Instant;
use vectorwise::bufman::{Abm, LruPool};
use vectorwise::storage::{SimDisk, SimDiskConfig};
use vectorwise::{Database, Value};

fn main() -> Result<(), vectorwise::VwError> {
    // ---------------------------------------------------------------- part A
    println!("== A. the parallelize rewrite ==");
    let db = Database::new()?;
    db.execute("CREATE TABLE m (k BIGINT NOT NULL, grp BIGINT NOT NULL, x DOUBLE NOT NULL)")?;
    db.bulk_load(
        "m",
        (0..2_000_000i64).map(|i| {
            vec![
                Value::I64(i),
                Value::I64(i % 16),
                Value::F64((i % 1000) as f64 * 0.25),
            ]
        }),
    )?;
    let sql = "SELECT grp, SUM(x) AS total, AVG(x) AS mean, COUNT(*) AS n \
               FROM m WHERE k >= 250000 GROUP BY grp ORDER BY grp";

    println!("serial plan:");
    for row in &db.execute(&format!("EXPLAIN {}", sql))?.rows {
        println!("  {}", row[0]);
    }
    let t = Instant::now();
    let serial = db.execute(sql)?;
    let serial_t = t.elapsed();

    db.set_parallelism(4);
    println!("\nparallel plan (DOP 4) — Exchange + partial/final aggregation:");
    for row in &db.execute(&format!("EXPLAIN {}", sql))?.rows {
        println!("  {}", row[0]);
    }
    let t = Instant::now();
    let parallel = db.execute(sql)?;
    let parallel_t = t.elapsed();

    assert_eq!(serial.rows.len(), parallel.rows.len());
    println!(
        "\nidentical results; serial {:.2?} vs parallel {:.2?} \
         (wall-clock speedup needs >1 core; work is split 4 ways regardless)",
        serial_t, parallel_t
    );

    // ---------------------------------------------------------------- part B
    println!("\n== B. cooperative scans vs LRU ==");
    // A 'table' of 256 blocks on a simulated disk; buffer = 25% of it.
    let disk = Arc::new(SimDisk::new(SimDiskConfig::hdd()));
    let blocks: Vec<_> = (0..256)
        .map(|_| disk.write_block(vec![0u8; 64 * 1024]))
        .collect();
    let n_scans = 8;

    // LRU: each scan at its own offset re-reads everything.
    disk.reset_stats();
    let pool = Arc::new(LruPool::new(disk.clone(), 64 * 64 * 1024));
    let mut handles = Vec::new();
    for s in 0..n_scans {
        let pool = pool.clone();
        let blocks = blocks.clone();
        handles.push(std::thread::spawn(move || {
            // stagger starting offsets like real concurrent queries
            for i in 0..blocks.len() {
                let idx = (i + s * 32) % blocks.len();
                pool.read(blocks[idx]).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let lru = disk.stats();

    // ABM: relevance-ordered shared loading.
    disk.reset_stats();
    let abm = Abm::new(disk.clone(), 64 * 64 * 1024);
    let mut handles = Vec::new();
    for _ in 0..n_scans {
        let mut scan = abm.register_scan(blocks.clone());
        handles.push(std::thread::spawn(move || {
            let mut n = 0;
            while scan.next().unwrap().is_some() {
                n += 1;
            }
            n
        }));
    }
    for h in handles {
        assert_eq!(h.join().unwrap(), blocks.len());
    }
    let coop = disk.stats();

    println!(
        "{} concurrent full scans over {} blocks, buffer = 25% of table:",
        n_scans,
        blocks.len()
    );
    println!(
        "  LRU buffer manager : {:>5} disk reads, {:>7.3}s virtual I/O time",
        lru.reads,
        lru.virtual_read_ns as f64 / 1e9
    );
    println!(
        "  cooperative scans  : {:>5} disk reads, {:>7.3}s virtual I/O time  ({:.1}x less I/O)",
        coop.reads,
        coop.virtual_read_ns as f64 / 1e9,
        lru.reads as f64 / coop.reads as f64
    );
    println!(
        "  (ABM stats: {} loads, {} shared hits)",
        abm.stats().loads,
        abm.stats().shared_hits
    );

    Ok(())
}
