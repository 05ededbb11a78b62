//! Set-up: a fresh `Database` at engine defaults, TPC-H generated from the
//! seed, bulk-loaded and analyzed, plus the facts about the generated data
//! that output checks need.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vw_common::{Result, Value, VwError};
use vw_core::Database;
use vw_storage::SimDiskConfig;
use vw_tpch::{tpch_schema, TpchGenerator, TPCH_TABLES};

/// Scale factor of every measured run: 600K lineitem rows, about 64 MiB
/// encoded and 116 MiB raw, larger than the 32 MiB decode cache.
pub const SF: f64 = 0.1;
/// Scale factor of `--smoke` runs and of the bin's own tests.
pub const SF_SMOKE: f64 = 0.01;

/// What the harness knows about the generated data without asking the engine.
pub struct Facts {
    pub n_orders: i64,
    pub n_customers: i64,
    pub n_lineitem: u64,
    /// Lines of order `k` at index `k` (order keys are dense from 1).
    pub lines_of_order: Vec<u8>,
}

/// A directory inside the current directory (the checkout) for WAL files,
/// removed when dropped. `Database::new()` would put the WAL in the system
/// temp directory, outside the checkout.
pub struct ScratchDir {
    path: PathBuf,
    next: AtomicU64,
}

impl ScratchDir {
    pub fn create() -> Result<ScratchDir> {
        let path = PathBuf::from(".vwbench_run").join(std::process::id().to_string());
        std::fs::create_dir_all(&path)
            .map_err(|e| VwError::Exec(format!("cannot create {}: {}", path.display(), e)))?;
        Ok(ScratchDir {
            path,
            next: AtomicU64::new(0),
        })
    }

    fn wal_path(&self) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.path.join(format!("wal_{}", n))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // The parent stays only while another benchmark process uses it.
        let _ = std::fs::remove_dir(".vwbench_run");
    }
}

/// A fresh database at engine defaults (dop 1, profiling on, adaptivity on,
/// 32 MiB decode cache, WAL synced on commit, no ABM, unbounded memory).
pub fn new_database(scratch: &ScratchDir) -> Result<Arc<Database>> {
    Database::with_wal_and_disk(scratch.wal_path(), SimDiskConfig::default()).map(Arc::new)
}

/// Generate TPC-H at `sf` from `seed`, bulk-load and analyze every table.
/// Tables are generated one at a time and handed to the loader, so at most
/// one table's rows are alive in the harness.
pub fn load_tpch(db: &Database, sf: f64, seed: u64) -> Result<Facts> {
    let generator = TpchGenerator::with_seed(sf, seed);
    let mut facts = Facts {
        n_orders: 0,
        n_customers: 0,
        n_lineitem: 0,
        lines_of_order: Vec::new(),
    };
    for table in TPCH_TABLES {
        let schema = tpch_schema(table).expect("every TPC-H table has a schema");
        let rows = generator.rows(table);
        match *table {
            "customer" => facts.n_customers = rows.len() as i64,
            "orders" => {
                facts.n_orders = rows.len() as i64;
                facts.lines_of_order = vec![0; rows.len() + 1];
            }
            "lineitem" => {
                facts.n_lineitem = rows.len() as u64;
                for row in &rows {
                    if let Value::I64(k) = row[0] {
                        facts.lines_of_order[k as usize] += 1;
                    }
                }
            }
            _ => {}
        }
        db.create_table(table, schema)?;
        db.bulk_load(table, rows)?;
    }
    for table in TPCH_TABLES {
        db.analyze(table)?;
    }
    Ok(facts)
}

/// Encoded and raw bytes of all user tables' stable images.
pub fn storage_bytes(db: &Database) -> Result<(u64, u64)> {
    let ctx = db.exec_context(None)?;
    let (mut encoded, mut raw) = (0u64, 0u64);
    for provider in ctx.tables.values() {
        let storage = provider.storage.read();
        encoded += storage.encoded_bytes() as u64;
        raw += storage.raw_bytes() as u64;
    }
    Ok((encoded, raw))
}

/// The harness refuses to measure with engine switches set from outside:
/// every `VW_*` variable changes a default the rules of measurement fix.
pub fn engine_env_overrides() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("VW_"))
        .collect();
    names.sort();
    names
}
