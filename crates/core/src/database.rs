//! The `Database` facade — the integrated analytical DBMS.
//!
//! This is the layer that corresponds to the *product*: SQL comes in
//! (`vw-sql`), plans are optimized (`vw-plan::optimizer`), rewritten
//! (`vw-plan::rewrite`: constant folding, pushdown, parallelization),
//! cross-compiled ([`crate::compile`]) and executed by the vectorized engine
//! over PDT-merged columnar storage, under snapshot-isolated transactions
//! with a WAL (`vw-txn`).
//!
//! Queries run against an immutable snapshot — for every table the stable
//! image and the master PDT over it, pinned as a pair — so readers never
//! block writers, and a checkpoint never changes what a running query reads.

use crate::compile::{compile_plan, ExecContext, TableProvider};
use crate::events::{EventLog, LogEvent, Severity, EVENT_LOG_CAP};
use crate::mem::MemBudget;
use crate::operators::{collect_rows, Operator, VecScan};
use crate::profile::{OpProfile, QueryProfile, Timeline};
use crate::sched::{AdmissionStats, Scheduler};
use crate::session::Session;
use crate::systab;
use crate::trace::{TraceCollector, TraceHandle};
use crate::vexpr::ExprEvaluator;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vw_common::config::{EngineConfig, QUERY_HISTORY_MAX};
use vw_common::metrics::{Counter, Histogram, MetricsRegistry, LATENCY_BUCKETS_NS};
use vw_common::waits::{WaitClass, WaitSnapshot};
use vw_common::{DataType, Result, Schema, TableId, TableLayout, Value, VwError};
use vw_pdt::Pdt;
use vw_plan::{
    apply_interesting_orders, estimate_rows, estimate_rows_with, fingerprint, fold_constants,
    optimize_with_feedback, parallelize, prune_columns, push_down_filters, recordable,
    CardFeedback, Expr, LogicalPlan, TableStats,
};
use vw_sql::{bind, parse_statement, BoundStatement, CatalogView, SetScope};
use vw_storage::{SimDisk, SimDiskConfig, TableBuilder, TableStorage};
use vw_txn::{checkpoint_table, Transaction, TxnManager};

/// Admission waits at or above this emit an `admission_wait` event into the
/// structured log (shorter stalls still show in `vw_waits` and the timeline).
const ADMISSION_EVENT_THRESHOLD_NS: u64 = 1_000_000;

/// Rows [`Database::analyze`] samples per table (all of a smaller table).
/// Enough that a key column's repeats show in the singleton count the
/// distinct estimate rests on.
const ANALYZE_SAMPLE_ROWS: usize = 4096;

/// `k` distinct positions in `0..n`, ascending, drawn uniformly by selection
/// sampling from a generator seeded with `seed` (so `analyze` is repeatable).
fn sample_positions(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut rng = vw_common::rng::Xoshiro256::seeded(0x0061_6e61_6c79_7a65 ^ seed);
    let mut need = k.min(n);
    let mut picks = Vec::with_capacity(need);
    for i in 0..n {
        if need == 0 {
            break;
        }
        if rng.next_below((n - i) as u64) < need as u64 {
            picks.push(i);
            need -= 1;
        }
    }
    picks
}

/// Lifecycle marks accumulated before [`Database::run_query`] takes over:
/// the instant the statement arrived plus the parse/bind durations measured
/// around the SQL front-end. Plan-API entry points start the clock at
/// `run_query` entry with zero front-end phases.
#[derive(Clone, Copy)]
pub(crate) struct Lifecycle {
    epoch: Instant,
    parse_ns: u64,
    bind_ns: u64,
}

impl Lifecycle {
    /// A lifecycle starting now, with no SQL front-end phases (plan API).
    pub(crate) fn start() -> Lifecycle {
        Lifecycle {
            epoch: Instant::now(),
            parse_ns: 0,
            bind_ns: 0,
        }
    }
}

/// A query result: schema + row values.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    pub schema: Schema,
    pub rows: Vec<Vec<Value>>,
}

impl QueryResult {
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Single-value convenience accessor.
    pub fn value(&self, row: usize, col: usize) -> &Value {
        &self.rows[row][col]
    }

    /// Render as an aligned text table (examples, demos).
    pub fn format_table(&self) -> String {
        let headers: Vec<String> = self
            .schema
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {:w$} |", c, w = w));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&headers, &widths));
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{:-<w$}|", "", w = w + 2));
        }
        out.push('\n');
        for row in &rendered {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Catalog entry: what never changes about a table. Its data — the current
/// version — lives with the transaction manager.
struct TableEntry {
    id: TableId,
    schema: Schema,
    /// The declared sort order, when scanning the table's groups in storage
    /// order delivers it ([`TableLayout::delivers_declared_order`]).
    ordered_by: Option<Vec<vw_common::SortSpec>>,
}

/// One entry in the query-history ring buffer. Queryable through the
/// `vw_queries` system table; the attached profile (when profiling was on)
/// feeds `vw_operator_stats`.
#[derive(Clone)]
pub struct QueryRecord {
    /// Monotonic per-database query sequence number.
    pub id: u64,
    /// The SQL text, when the query arrived as SQL (plan-API runs have none).
    pub sql: Option<String>,
    /// End-to-end wall time (compile + execute + drain).
    pub wall: Duration,
    /// Rows returned to the client.
    pub rows: u64,
    /// Degree of parallelism the query ran at.
    pub dop: usize,
    /// Execution-memory high-water mark.
    pub peak_mem_bytes: u64,
    /// Bytes spilled by memory-governed operators.
    pub spill_bytes: u64,
    /// Id of the [`Session`] that ran the query (0 = no session; the
    /// database-level convenience API).
    pub session: u64,
    /// Lifecycle phase timeline; phases sum to `wall`. Recorded for every
    /// query (timing the six phase boundaries costs nothing per vector).
    pub timeline: Timeline,
    /// Per-class wait attribution (operator waits rolled up + admission).
    /// Only the admission class is populated when profiling was off.
    pub waits: WaitSnapshot,
    /// Per-operator profile, when profiling was on for this query.
    pub profile: Option<Arc<QueryProfile>>,
}

/// Everything one query execution produced: result rows plus the profile and
/// trace collected for *this* query (never another session's).
pub(crate) struct QueryOutcome {
    pub result: QueryResult,
    pub profile: Option<Arc<QueryProfile>>,
    pub trace: Option<Arc<TraceCollector>>,
}

/// Registry instruments the database folds per query. Resolved once at
/// construction so the per-query path never takes the registry lock.
struct CoreMetrics {
    queries: Arc<Counter>,
    rows_returned: Arc<Counter>,
    spill_bytes: Arc<Counter>,
    morsels_claimed: Arc<Counter>,
    join_builds: Arc<Counter>,
    query_wall: Arc<Histogram>,
    /// Conjunct-order changes made by micro-adaptive scans/filters.
    adapt_reorders: Arc<Counter>,
    /// Plan nodes whose cardinality estimate history corrected.
    plan_corrections: Arc<Counter>,
    /// Aggregation-path choices the feedback store overrode.
    agg_path_switches: Arc<Counter>,
    /// Queries evicted from the history ring (`vw_queries` drops).
    history_evicted: Arc<Counter>,
}

impl CoreMetrics {
    fn new(registry: &MetricsRegistry) -> CoreMetrics {
        CoreMetrics {
            queries: registry.counter("queries_total", ""),
            rows_returned: registry.counter("rows_returned_total", ""),
            spill_bytes: registry.counter("spill_bytes_total", ""),
            morsels_claimed: registry.counter("morsels_claimed_total", ""),
            join_builds: registry.counter("join_builds_total", ""),
            query_wall: registry.histogram("query_wall_ns", "", LATENCY_BUCKETS_NS),
            adapt_reorders: registry.counter("adapt_reorders_total", ""),
            plan_corrections: registry.counter("plan_corrections_total", ""),
            agg_path_switches: registry.counter("agg_path_switches_total", ""),
            history_evicted: registry.counter("history_evicted_total", ""),
        }
    }
}

/// The embedded analytical DBMS.
pub struct Database {
    disk: Arc<SimDisk>,
    tables: RwLock<HashMap<String, TableEntry>>,
    txn: RwLock<TxnManager>,
    stats: RwLock<HashMap<TableId, TableStats>>,
    config: RwLock<EngineConfig>,
    wal_path: PathBuf,
    next_table_id: AtomicU64,
    /// Profile of the most recently executed query (when profiling was on).
    last_profile: RwLock<Option<Arc<QueryProfile>>>,
    /// Optional cooperative-scan buffer manager whose hit/miss counters are
    /// included in query profiles (attached by benches that drive an ABM
    /// against this database's disk).
    buffer: RwLock<Option<Arc<vw_bufman::Abm>>>,
    /// Database-wide metrics registry: counters/gauges/histograms from every
    /// layer (operators, scheduler, caches, disk). Queryable via `vw_metrics`.
    metrics: Arc<MetricsRegistry>,
    /// Instruments folded per query, resolved once from `metrics`.
    core_metrics: CoreMetrics,
    /// Ring buffer of the most recent queries (`vw_queries`).
    history: Mutex<VecDeque<QueryRecord>>,
    next_query_id: AtomicU64,
    /// Trace timeline of the most recently profiled query
    /// ([`Database::export_trace`], the `TRACE` statement).
    last_trace: RwLock<Option<Arc<TraceCollector>>>,
    /// Database-wide memory ledger all concurrent queries reserve against
    /// (their per-query budgets chain onto it). Rebuilt when the global
    /// memory budget changes; in-flight queries keep the ledger they
    /// admitted under.
    ledger: RwLock<Arc<MemBudget>>,
    /// Admission scheduler gating query start on ledger headroom.
    sched: Arc<Scheduler>,
    next_session_id: AtomicU64,
    /// History-learned cardinality corrections keyed by normalized plan
    /// shape. Consulted at optimize time, fed after every profiled query.
    card_feedback: Mutex<CardFeedback>,
    /// Cross-query aggregation-path feedback (group counts, perfect-hash
    /// refusals), shared into running aggregates.
    agg_feedback: Arc<crate::adapt::AggFeedback>,
    /// Structured event log (`vw_log`, [`Database::drain_events`]).
    events: Arc<EventLog>,
}

static DB_COUNTER: AtomicU64 = AtomicU64::new(0);

impl Database {
    /// A fresh database with a default simulated disk and a WAL in the
    /// system temp directory.
    pub fn new() -> Result<Database> {
        let n = DB_COUNTER.fetch_add(1, Ordering::Relaxed);
        let wal = std::env::temp_dir().join(format!("vectorwise_{}_{}.wal", std::process::id(), n));
        // A fresh database must not replay a stale WAL from a previous
        // process that happened to share the path.
        let _ = std::fs::remove_file(&wal);
        Database::with_wal_and_disk(wal, SimDiskConfig::default())
    }

    /// Full control over WAL location and simulated-disk profile.
    pub fn with_wal_and_disk(wal_path: PathBuf, disk: SimDiskConfig) -> Result<Database> {
        let config = EngineConfig::default();
        let disk = Arc::new(SimDisk::new(disk));
        let metrics = Arc::new(MetricsRegistry::new());
        disk.register_metrics(&metrics);
        let core_metrics = CoreMetrics::new(&metrics);
        let sched = Arc::new(Scheduler::new());
        for (name, f) in [
            (
                "admission_admitted",
                (|s: &AdmissionStats| s.admitted) as fn(&AdmissionStats) -> u64,
            ),
            ("admission_waited", |s: &AdmissionStats| s.waited),
            ("admission_bypassed", |s: &AdmissionStats| s.bypassed),
            ("admission_peak_granted_bytes", |s: &AdmissionStats| {
                s.peak_granted
            }),
            ("admission_violations", |s: &AdmissionStats| s.violations),
        ] {
            let sched = sched.clone();
            metrics.register_polled(name, "", move || f(&sched.stats()) as f64);
        }
        let ledger = Arc::new(MemBudget::new(config.mem_budget_bytes));
        Ok(Database {
            disk,
            tables: RwLock::new(HashMap::new()),
            txn: RwLock::new(TxnManager::new(&wal_path)?),
            stats: RwLock::new(HashMap::new()),
            config: RwLock::new(config),
            wal_path,
            next_table_id: AtomicU64::new(1),
            last_profile: RwLock::new(None),
            buffer: RwLock::new(None),
            metrics,
            core_metrics,
            history: Mutex::new(VecDeque::new()),
            next_query_id: AtomicU64::new(1),
            last_trace: RwLock::new(None),
            ledger: RwLock::new(ledger),
            sched,
            next_session_id: AtomicU64::new(1),
            card_feedback: Mutex::new(CardFeedback::new()),
            agg_feedback: Arc::new(crate::adapt::AggFeedback::new()),
            events: Arc::new(EventLog::new(EVENT_LOG_CAP, true)),
        })
    }

    /// Open a client [`Session`]: per-session config and observability over
    /// this shared database. Sessions from any number of threads execute
    /// concurrently under admission control.
    pub fn session(self: &Arc<Self>) -> Arc<Session> {
        let id = self.next_session_id.fetch_add(1, Ordering::Relaxed);
        Session::new(self.clone(), id)
    }

    /// Snapshot of the admission scheduler's counters.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.sched.stats()
    }

    /// The database-wide admission ledger (tests, gauges).
    pub fn ledger(&self) -> Arc<MemBudget> {
        self.ledger.read().clone()
    }

    /// Swap the admission ledger to match the current global memory budget.
    /// In-flight queries keep reserving against the ledger they were
    /// admitted under; only new queries see the new one.
    fn rebuild_ledger(&self) {
        let bytes = self.config.read().mem_budget_bytes;
        *self.ledger.write() = Arc::new(MemBudget::new(bytes));
    }

    pub fn disk(&self) -> &Arc<SimDisk> {
        &self.disk
    }

    pub fn wal_path(&self) -> &std::path::Path {
        &self.wal_path
    }

    pub fn config(&self) -> EngineConfig {
        self.config.read().clone()
    }

    pub fn set_config(&self, config: EngineConfig) {
        *self.config.write() = config;
        self.rebuild_ledger();
    }

    /// Degree of parallelism used by the parallelize rewrite.
    pub fn set_parallelism(&self, dop: usize) {
        self.config.write().parallelism = dop.max(1);
    }

    pub fn set_vector_size(&self, vs: usize) {
        self.config.write().vector_size = vs.max(1);
    }

    /// Toggle the NULL-rewrite (experiment E8; on by default).
    pub fn set_rewrite_nulls(&self, on: bool) {
        self.config.write().rewrite_nulls = on;
    }

    /// Query-wide execution-memory budget for subsequent queries; `None`
    /// means unbounded (no spilling). Also reachable from SQL via
    /// `SET memory_budget = '16MiB'`.
    pub fn set_mem_budget(&self, bytes: Option<usize>) {
        self.config.write().mem_budget_bytes = bytes;
        self.rebuild_ledger();
    }

    /// Toggle per-operator profiling (on by default; the per-vector
    /// bookkeeping is amortized to noise). `EXPLAIN ANALYZE` profiles
    /// regardless of this setting.
    pub fn set_profiling(&self, on: bool) {
        self.config.write().profiling = on;
    }

    /// Attach a cooperative-scan buffer manager so its counters show up in
    /// query profiles (`EXPLAIN ANALYZE` "Buffer:" line) and in
    /// `vw_metrics`/`vw_cache`.
    pub fn attach_buffer_manager(&self, abm: Arc<vw_bufman::Abm>) {
        abm.register_metrics(&self.metrics);
        *self.buffer.write() = Some(abm);
    }

    /// Route table scans through an ABM cooperative buffer manager over this
    /// database's disk, so overlapping scans of the same table share one
    /// disk pass (bandwidth sharing — PAPER.md §cooperative scans). Returns
    /// the ABM for stats inspection.
    pub fn enable_cooperative_scans(&self, capacity_bytes: usize) -> Arc<vw_bufman::Abm> {
        let abm = vw_bufman::Abm::new(self.disk.clone(), capacity_bytes);
        self.attach_buffer_manager(abm.clone());
        abm
    }

    /// The per-operator profile of the most recently executed query, if
    /// profiling was enabled for it.
    pub fn profile_last_query(&self) -> Option<Arc<QueryProfile>> {
        self.last_profile.read().clone()
    }

    /// The database-wide metrics registry (also queryable as `vw_metrics`).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The retained query history, oldest first (also queryable as
    /// `vw_queries`).
    pub fn query_history(&self) -> Vec<QueryRecord> {
        self.history.lock().iter().cloned().collect()
    }

    /// The chrome://tracing JSON of the most recently profiled query, if any.
    /// Load it in `chrome://tracing` or Perfetto; also reachable from SQL as
    /// `TRACE <query>`.
    pub fn export_trace(&self) -> Option<String> {
        self.last_trace.read().as_ref().map(|c| c.to_chrome_json())
    }

    /// The trace collector of the most recently profiled query (tests,
    /// programmatic inspection).
    pub fn last_trace(&self) -> Option<Arc<TraceCollector>> {
        self.last_trace.read().clone()
    }

    /// The structured event log (also queryable as `vw_log`).
    pub fn events(&self) -> &Arc<EventLog> {
        &self.events
    }

    /// `tail -f`-style event drain: the typed events appended since the
    /// previous `drain_events` call (harnesses poll this between batches).
    pub fn drain_events(&self) -> Vec<LogEvent> {
        self.events.drain()
    }

    // ------------------------------------------------------------- catalog

    /// Create an empty table with the trivial physical layout (insertion
    /// order, single device).
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<TableId> {
        self.create_table_with_layout(name, schema, TableLayout::default())
    }

    /// Create an empty table with a declared physical design: sort order
    /// and/or range partitioning (`CREATE TABLE … ORDER BY … PARTITION BY
    /// RANGE …`). When the layout declares no partitioning, the
    /// `VW_PARTITIONS` environment default (if set) range-partitions the
    /// table on its leading sort column — or column 0 for unordered tables —
    /// so a whole workload can be flipped to partitioned storage without
    /// touching its DDL.
    pub fn create_table_with_layout(
        &self,
        name: &str,
        schema: Schema,
        mut layout: TableLayout,
    ) -> Result<TableId> {
        schema.check_unique_names()?;
        if name.starts_with("vw_") {
            return Err(VwError::Catalog(format!(
                "the 'vw_' prefix is reserved for system tables (cannot create '{}')",
                name
            )));
        }
        if layout.partition.is_none() {
            if let Some(n) = vw_common::config::env_default_partitions() {
                let col = layout.order.first().map_or(0, |s| s.col);
                layout.partition = Some(vw_common::RangePartitionSpec { col, partitions: n });
            }
        }
        let mut tables = self.tables.write();
        if tables.contains_key(name) {
            return Err(VwError::Catalog(format!("table '{}' already exists", name)));
        }
        let id = TableId::new(self.next_table_id.fetch_add(1, Ordering::Relaxed));
        let mut storage = TableStorage::new(schema.clone(), self.disk.clone());
        storage.set_name(name);
        let ordered_by = layout
            .delivers_declared_order()
            .then(|| layout.order.clone());
        if !layout.is_trivial() {
            storage.set_layout(layout)?;
        }
        self.txn.read().register_table(id, storage);
        let entry = TableEntry {
            id,
            schema,
            ordered_by,
        };
        tables.insert(name.to_string(), entry);
        Ok(id)
    }

    fn table_id(&self, name: &str) -> Result<TableId> {
        let tables = self.tables.read();
        let entry = tables
            .get(name)
            .ok_or_else(|| VwError::Catalog(format!("unknown table '{}'", name)))?;
        Ok(entry.id)
    }

    /// Bulk-load rows directly into stable storage (initial load path,
    /// bypassing the WAL — like any warehouse bulk loader). The table must
    /// be empty.
    pub fn bulk_load(&self, name: &str, rows: impl IntoIterator<Item = Vec<Value>>) -> Result<u64> {
        let id = self.table_id(name)?;
        let mgr = self.txn.read();
        let empty = mgr.current(id)?;
        if empty.storage.read().n_rows() != 0 || !empty.pdt.is_empty() {
            return Err(VwError::Invalid(format!(
                "bulk_load requires empty table '{}'",
                name
            )));
        }
        // `for_table` carries the declared layout (and partition shards)
        // into the loaded image, so the load lands sorted/partitioned.
        let mut builder = TableBuilder::for_table(empty.storage.read().fresh_like());
        let mut n = 0u64;
        for row in rows {
            builder.push_row(row)?;
            n += 1;
        }
        mgr.register_table(id, builder.finish()?);
        Ok(n)
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Current (stable + deltas) row count of a table.
    pub fn table_rows(&self, name: &str) -> Result<u64> {
        let id = self.table_id(name)?;
        Ok(self.txn.read().current_pdt(id)?.current_rows())
    }

    /// The schema of a table.
    pub fn table_schema(&self, name: &str) -> Result<Schema> {
        let tables = self.tables.read();
        let entry = tables
            .get(name)
            .ok_or_else(|| VwError::Catalog(format!("unknown table '{}'", name)))?;
        Ok(entry.schema.clone())
    }

    // ------------------------------------------------------------ execution

    /// Build an execution context from the current committed snapshot (or a
    /// transaction's view), with the database's current config.
    pub fn exec_context(&self, txn: Option<&Transaction>) -> Result<ExecContext> {
        self.exec_context_with(txn, self.config())
    }

    /// Build an execution context with an explicit config snapshot — the
    /// per-query path: the snapshot is taken once at admission, so a
    /// concurrent `SET` can never change dop/vector-size mid-plan.
    pub fn exec_context_with(
        &self,
        txn: Option<&Transaction>,
        config: EngineConfig,
    ) -> Result<ExecContext> {
        Ok(self.context_over(self.pin_versions(txn), config))
    }

    /// The version of every table a statement reads: the ones its
    /// transaction pinned at `begin`, or else the current ones, taken in the
    /// critical section a checkpoint installs its image in — so image and
    /// PDT always belong together, and stay the statement's to its end.
    fn pin_versions(&self, txn: Option<&Transaction>) -> HashMap<TableId, TableProvider> {
        match txn {
            Some(t) => t.views(),
            None => self.txn.read().versions(),
        }
    }

    fn context_over(
        &self,
        versions: HashMap<TableId, TableProvider>,
        config: EngineConfig,
    ) -> ExecContext {
        let mut ctx = ExecContext::new(versions, config);
        // Spilled runs/partitions share the database's disk, so spill I/O
        // shows up in the same `DiskStats` the profile already reports.
        ctx.spill_disk = Some(self.disk.clone());
        ctx.buffer = self.buffer.read().clone();
        ctx
    }

    /// Optimize + rewrite a logical plan per current config and stats.
    pub fn optimize_plan(&self, plan: LogicalPlan) -> LogicalPlan {
        self.optimize_plan_with(plan, &self.config())
    }

    /// Optimize + rewrite with an explicit config snapshot.
    ///
    /// Rewrites run *before* the optimizer: after constant folding and
    /// predicate pushdown the optimizer costs the same node shapes that
    /// execute, which is what lets history fingerprints recorded from
    /// executed plans match the shapes being costed here. The cost model
    /// multiplies in any history-learned correction factors — this is where
    /// a repeat query's join build side can flip.
    fn optimize_plan_with(&self, plan: LogicalPlan, config: &EngineConfig) -> LogicalPlan {
        let stats = self.stats.read().clone();
        let plan = fold_constants(plan);
        let plan = push_down_filters(plan);
        let plan = optimize_with_feedback(plan, &stats, Some(&self.card_feedback.lock()));
        let plan = prune_columns(plan);
        // Ordering-properties pass: serial plans only — at dop>1 the
        // Exchange re-partitions row order anyway, and keeping the plan
        // identical to the unordered layout's is what makes the two layouts
        // byte-compatible at any parallelism.
        let plan = if config.parallelism <= 1 {
            let delivered = self.delivered_orders();
            apply_interesting_orders(plan, &delivered, true)
        } else {
            plan
        };
        if config.parallelism > 1 {
            parallelize(plan, config.parallelism)
        } else {
            plan
        }
    }

    /// Declared sort orders that table scans actually deliver right now:
    /// tables whose layout survives partitioning (partitioned tables stay
    /// globally ordered only when partitioned on the leading sort column)
    /// and whose PDT holds no deltas (uncheckpointed churn breaks the
    /// invariant until the next checkpoint re-sorts).
    fn delivered_orders(&self) -> vw_plan::DeliveredOrders {
        let mut delivered = vw_plan::DeliveredOrders::new();
        let txn = self.txn.read();
        for entry in self.tables.read().values() {
            let Some(order) = &entry.ordered_by else {
                continue;
            };
            if txn.current_pdt(entry.id).is_ok_and(|p| p.is_empty()) {
                delivered.insert(entry.id, order.clone());
            }
        }
        delivered
    }

    /// Execute a logical plan against the committed snapshot.
    pub fn run_plan(&self, plan: LogicalPlan) -> Result<QueryResult> {
        self.run_plan_in(plan, None)
    }

    /// Execute a logical plan, optionally inside a transaction's view.
    pub fn run_plan_in(&self, plan: LogicalPlan, txn: Option<&Transaction>) -> Result<QueryResult> {
        self.run_query(plan, txn, false, None, self.config(), 0, Lifecycle::start())
            .map(|o| o.result)
    }

    /// Execute a plan under admission control, recording a per-operator
    /// [`QueryProfile`] when profiling is on in the config snapshot (or
    /// `force` is set, as for `EXPLAIN ANALYZE` and `TRACE`).
    ///
    /// `config` is the one snapshot this query runs with end to end — a
    /// concurrent `SET` cannot change dop/vector-size mid-plan. `session`
    /// attributes the query in the history ring (0 = none). The profile and
    /// trace are returned in the [`QueryOutcome`] (per-session slots are the
    /// caller's job); the database-global `last_profile`/`last_trace` slots
    /// are still written as a deprecated single-session convenience.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_query(
        &self,
        plan: LogicalPlan,
        txn: Option<&Transaction>,
        force: bool,
        sql: Option<&str>,
        config: EngineConfig,
        session: u64,
        lifecycle: Lifecycle,
    ) -> Result<QueryOutcome> {
        let query_id = self.next_query_id.fetch_add(1, Ordering::Relaxed);
        let plan = self.optimize_plan_with(plan, &config);
        // The corrections the feedback store actually applied to this plan
        // (for the metrics counter and the EXPLAIN ANALYZE feedback line).
        let corrections = self.card_feedback.lock().applicable(&plan);
        let schema = plan.schema()?;
        // Everything since the statement arrived that wasn't parse/bind is
        // the optimize phase (rewrites, feedback lookup, schema check).
        let optimize_ns = (lifecycle.epoch.elapsed().as_nanos() as u64)
            .saturating_sub(lifecycle.parse_ns + lifecycle.bind_ns);
        self.events.emit(
            Severity::Info,
            "query_start",
            query_id,
            session,
            match sql {
                Some(s) => vec![("sql", truncate_sql(s))],
                None => Vec::new(),
            },
        );
        // Admission: block until the global ledger has headroom for this
        // plan's estimate. The grant (scheduler bookkeeping, not a ledger
        // reservation) is declared before the context so it drops *after*
        // the operators have released their memory.
        let ledger = self.ledger.read().clone();
        let t_admit = Instant::now();
        let _grant = self
            .sched
            .admit(ledger.limit(), admission_want(&plan, ledger.limit()));
        let admission_ns = t_admit.elapsed().as_nanos() as u64;
        if admission_ns >= ADMISSION_EVENT_THRESHOLD_NS {
            self.events.emit(
                Severity::Warn,
                "admission_wait",
                query_id,
                session,
                vec![("wait_ms", format!("{:.3}", admission_ns as f64 / 1e6))],
            );
        }
        // Pinning the table versions is the one place a query meets a
        // checkpoint: it waits while one swaps its image in, never while one
        // builds it. That wait is the timeline's checkpoint phase.
        let t_pin = Instant::now();
        let versions = self.pin_versions(txn);
        let checkpoint_ns = t_pin.elapsed().as_nanos() as u64;
        let mut ctx = self.context_over(versions, config);
        if ledger.limit().is_some() {
            // Chain the per-query budget onto the shared ledger so
            // concurrent queries see each other's memory pressure.
            ctx.mem = Arc::new(MemBudget::chained(ctx.config.mem_budget_bytes, ledger));
        }
        ctx.agg_feedback = Some(self.agg_feedback.clone());
        let profiling = force || ctx.config.profiling;
        let root = profiling.then(|| OpProfile::from_plan(&plan));
        if let Some(root) = &root {
            let stats = self.stats.read();
            annotate_estimates(&plan, root, &stats, &self.card_feedback.lock());
        }
        ctx.profile = root.clone();
        ctx.metrics = Some(self.metrics.clone());
        // The trace rides the profiling switch: same amortization argument,
        // and `TRACE`/`EXPLAIN ANALYZE` force both on together. The epoch is
        // the instant the statement arrived, so the lifecycle phase spans
        // land at their true offsets ahead of the execution spans.
        let collector = profiling.then(|| Arc::new(TraceCollector::with_epoch(lifecycle.epoch)));
        if let Some(c) = &collector {
            c.set_meta(query_id, session);
            ctx.trace = Some(TraceHandle::new(c.clone(), 0));
        }
        let disk_before = self.disk.stats();
        let buf_before = self.buffer.read().as_ref().map(|a| a.stats());
        // The operators drop before the clock stops, which flushes the
        // profile extras of any a LIMIT cut short. A statement that fails
        // here still closes its `query_start` in the log.
        let executed = self
            .provide_system_tables(&plan, &mut ctx)
            .and_then(|()| compile_plan(&plan, &ctx))
            .and_then(|mut op| collect_rows(op.as_mut()));
        // Wall covers the full lifecycle (parse → drain); the execute phase
        // is the remainder after the five earlier phases, so the timeline
        // sums to wall exactly.
        let wall = lifecycle.epoch.elapsed();
        let wall_ms = wall.as_secs_f64() * 1e3;
        let rows = match executed {
            Ok(rows) => rows,
            Err(e) => {
                self.events.emit(
                    Severity::Warn,
                    "query_finish",
                    query_id,
                    session,
                    vec![
                        ("wall_ms", format!("{wall_ms:.3}")),
                        ("error", e.to_string()),
                    ],
                );
                return Err(e);
            }
        };
        let timeline = Timeline {
            parse_ns: lifecycle.parse_ns,
            bind_ns: lifecycle.bind_ns,
            optimize_ns,
            admission_ns,
            checkpoint_ns,
            execute_ns: (wall.as_nanos() as u64).saturating_sub(
                lifecycle.parse_ns + lifecycle.bind_ns + optimize_ns + admission_ns + checkpoint_ns,
            ),
        };
        if let Some(c) = &collector {
            // Lifecycle phase spans on the coordinator track: back-to-back
            // from the epoch, mirroring the Timeline line.
            let t = TraceHandle::new(c.clone(), 0);
            let mut at = 0u64;
            for (name, dur) in timeline.phases() {
                t.span_at(name, "phase", at, dur);
                at += dur;
            }
        }
        // Roll operator waits up per class and add the admission wait (which
        // happened before any operator existed).
        let mut waits = root.as_ref().map(|r| r.rollup_waits()).unwrap_or_default();
        waits.add(
            WaitClass::Admission,
            admission_ns,
            (admission_ns > 0) as u64,
        );
        let profile = root.map(|root| {
            Arc::new(QueryProfile {
                root,
                wall,
                dop: ctx.config.parallelism,
                query_id,
                session,
                morsels_claimed: ctx.stats.morsels_claimed(),
                builds_executed: ctx.stats.builds_executed(),
                disk: self.disk.stats().since(&disk_before),
                buffer: match (self.buffer.read().as_ref().map(|a| a.stats()), buf_before) {
                    (Some(now), Some(before)) => Some(now.since(&before)),
                    _ => None,
                },
                decode: None,
                mem: ctx.mem.stats(),
                plan_feedback: (!corrections.is_empty()).then(|| {
                    corrections
                        .iter()
                        .map(|c| {
                            format!("{} x{:.2} (shape {:016x})", c.node, c.factor, c.fingerprint)
                        })
                        .collect::<Vec<_>>()
                        .join(", ")
                }),
                timeline,
                waits,
            })
        });
        if let Some(p) = &profile {
            // Feed the history stores and fold adaptive counters into the
            // registry; profiled queries are the feedback loop's sensors.
            let stats = self.stats.read().clone();
            record_actuals(&plan, &p.root, &stats, &mut self.card_feedback.lock());
            let mut reorders = 0u64;
            let mut switches = 0u64;
            for n in p.nodes() {
                for (k, v) in n.extras() {
                    match k {
                        "adapt_reorders" => reorders += v,
                        "agg_adapt_veto" => switches += v,
                        _ => {}
                    }
                }
            }
            if reorders > 0 {
                self.core_metrics.adapt_reorders.add(reorders);
            }
            if switches > 0 {
                self.core_metrics.agg_path_switches.add(switches);
            }
            *self.last_profile.write() = Some(p.clone());
        }
        if !corrections.is_empty() {
            self.core_metrics
                .plan_corrections
                .add(corrections.len() as u64);
        }
        if let Some(c) = &collector {
            *self.last_trace.write() = Some(c.clone());
        }
        let mem = ctx.mem.stats();
        let m = &self.core_metrics;
        m.queries.inc();
        m.rows_returned.add(rows.len() as u64);
        m.spill_bytes.add(mem.spill_bytes);
        m.morsels_claimed.add(ctx.stats.morsels_claimed() as u64);
        m.join_builds.add(ctx.stats.builds_executed() as u64);
        m.query_wall.record(wall.as_nanos() as u64);
        self.events.emit(
            Severity::Info,
            "query_finish",
            query_id,
            session,
            vec![
                ("wall_ms", format!("{wall_ms:.3}")),
                ("rows", rows.len().to_string()),
            ],
        );
        if let Some(min) = ctx.config.log_min_duration_ns {
            if wall.as_nanos() as u64 >= min {
                self.events.emit(
                    Severity::Warn,
                    "slow_query",
                    query_id,
                    session,
                    match sql {
                        Some(s) => vec![
                            ("wall_ms", format!("{wall_ms:.3}")),
                            ("sql", truncate_sql(s)),
                        ],
                        None => vec![("wall_ms", format!("{wall_ms:.3}"))],
                    },
                );
            }
        }
        if mem.spill_events > 0 {
            self.events.emit(
                Severity::Warn,
                "spill",
                query_id,
                session,
                vec![
                    ("events", mem.spill_events.to_string()),
                    ("bytes", mem.spill_bytes.to_string()),
                ],
            );
        }
        if let Some(p) = &profile {
            let mut vetoes = 0u64;
            let mut fallbacks = 0u64;
            for n in p.nodes() {
                for (k, v) in n.extras() {
                    match k {
                        "agg_adapt_veto" => vetoes += v,
                        "agg_fallback" => fallbacks += v,
                        _ => {}
                    }
                }
            }
            if vetoes > 0 {
                self.events.emit(
                    Severity::Info,
                    "agg_veto",
                    query_id,
                    session,
                    vec![("count", vetoes.to_string())],
                );
            }
            if fallbacks > 0 {
                self.events.emit(
                    Severity::Info,
                    "agg_fallback",
                    query_id,
                    session,
                    vec![("count", fallbacks.to_string())],
                );
            }
        }
        for c in &corrections {
            self.events.emit(
                Severity::Info,
                "plan_correction",
                query_id,
                session,
                vec![
                    ("node", c.node.to_string()),
                    ("factor", format!("{:.2}", c.factor)),
                ],
            );
        }
        let record = QueryRecord {
            id: query_id,
            sql: sql.map(str::to_string),
            wall,
            rows: rows.len() as u64,
            dop: ctx.config.parallelism,
            peak_mem_bytes: mem.peak,
            spill_bytes: mem.spill_bytes,
            session,
            timeline,
            waits,
            profile: profile.clone(),
        };
        let mut history = self.history.lock();
        history.push_back(record);
        self.trim_history(&mut history);
        drop(history);
        Ok(QueryOutcome {
            result: QueryResult { schema, rows },
            profile,
            trace: collector,
        })
    }

    // -------------------------------------------------------- system tables

    /// Inject point-in-time providers for any `vw_` system tables the plan
    /// scans. Runs after optimization, before compilation, so both the
    /// serial and the Exchange-parallel paths (and the baseline engines, via
    /// [`Database::plan_exec_context`]) resolve them like ordinary tables.
    fn provide_system_tables(&self, plan: &LogicalPlan, ctx: &mut ExecContext) -> Result<()> {
        fn collect(plan: &LogicalPlan, out: &mut Vec<TableId>) {
            if let LogicalPlan::Scan { table_id, .. } = plan {
                if systab::is_system_table(*table_id) && !out.contains(table_id) {
                    out.push(*table_id);
                }
            }
            for c in plan.children() {
                collect(c, out);
            }
        }
        let mut ids = Vec::new();
        collect(plan, &mut ids);
        if ids.is_empty() {
            return Ok(());
        }
        let mut tables = (*ctx.tables).clone();
        for id in ids {
            let name = systab::system_table_name(id)
                .ok_or_else(|| VwError::Catalog(format!("unknown system table {}", id)))?;
            tables.insert(id, self.materialize_system_table(name)?);
        }
        ctx.tables = Arc::new(tables);
        Ok(())
    }

    /// A fully-compiled execution context for `plan` against the committed
    /// snapshot, system tables included — the entry point for running plans
    /// through the baseline engines (`compile_row`/`compile_materialized`)
    /// with the same table resolution as the vectorized engine.
    pub fn plan_exec_context(&self, plan: &LogicalPlan) -> Result<ExecContext> {
        let mut ctx = self.exec_context(None)?;
        self.provide_system_tables(plan, &mut ctx)?;
        Ok(ctx)
    }

    /// Materialize one system table as a point-in-time snapshot. Built on a
    /// private scratch disk so reading `vw_io` does not perturb the I/O
    /// counters it reports.
    fn materialize_system_table(&self, name: &str) -> Result<TableProvider> {
        let schema = systab::system_schema(name);
        let rows = match name {
            "vw_queries" => self.vw_queries_rows(),
            "vw_operator_stats" => self.vw_operator_stats_rows(),
            "vw_metrics" => self.vw_metrics_rows(),
            "vw_io" => self.vw_io_rows(),
            "vw_cache" => self.vw_cache_rows(),
            "vw_waits" => self.vw_waits_rows(),
            "vw_log" => self.vw_log_rows(),
            other => {
                return Err(VwError::Catalog(format!(
                    "unknown system table '{}'",
                    other
                )))
            }
        };
        let scratch = Arc::new(SimDisk::new(SimDiskConfig::default()));
        let storage = if rows.is_empty() {
            TableStorage::new(schema, scratch)
        } else {
            let mut builder = TableBuilder::new(schema, scratch);
            for row in rows {
                builder.push_row(row)?;
            }
            builder.finish()?
        };
        let n = storage.n_rows();
        Ok(TableProvider {
            storage: Arc::new(RwLock::new(storage)),
            pdt: Arc::new(Pdt::new(n)),
        })
    }

    fn vw_queries_rows(&self) -> Vec<Vec<Value>> {
        self.history
            .lock()
            .iter()
            .map(|q| {
                vec![
                    Value::I64(q.id as i64),
                    q.sql.clone().map(Value::Str).unwrap_or(Value::Null),
                    Value::F64(q.wall.as_secs_f64() * 1e3),
                    Value::I64(q.rows as i64),
                    Value::I64(q.dop as i64),
                    Value::I64(q.peak_mem_bytes as i64),
                    Value::I64(q.spill_bytes as i64),
                    Value::I64(q.session as i64),
                    Value::F64(q.timeline.parse_ns as f64 / 1e6),
                    Value::F64(q.timeline.bind_ns as f64 / 1e6),
                    Value::F64(q.timeline.optimize_ns as f64 / 1e6),
                    Value::F64(q.timeline.admission_ns as f64 / 1e6),
                    Value::F64(q.timeline.checkpoint_ns as f64 / 1e6),
                    Value::F64(q.timeline.execute_ns as f64 / 1e6),
                ]
            })
            .collect()
    }

    /// One row per query × wait class with nonzero time (oldest query first,
    /// classes in declaration order).
    fn vw_waits_rows(&self) -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        for q in self.history.lock().iter() {
            for class in vw_common::ALL_WAIT_CLASSES {
                let ns = q.waits.ns(class);
                if ns == 0 {
                    continue;
                }
                rows.push(vec![
                    Value::I64(q.id as i64),
                    Value::Str(class.name().to_string()),
                    Value::F64(ns as f64 / 1e6),
                    Value::I64(q.waits.count(class) as i64),
                ]);
            }
        }
        rows
    }

    fn vw_log_rows(&self) -> Vec<Vec<Value>> {
        self.events
            .snapshot()
            .into_iter()
            .map(|e| {
                let detail = if e.fields.is_empty() {
                    Value::Null
                } else {
                    Value::Str(e.detail())
                };
                vec![
                    Value::I64(e.seq as i64),
                    Value::F64(e.ts_ms),
                    Value::Str(e.severity.name().to_string()),
                    Value::Str(e.event.to_string()),
                    Value::I64(e.query_id as i64),
                    Value::I64(e.session as i64),
                    detail,
                ]
            })
            .collect()
    }

    fn vw_operator_stats_rows(&self) -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        for q in self.history.lock().iter() {
            let Some(profile) = &q.profile else { continue };
            for node in profile.nodes() {
                let extras = node.extras_full();
                let extras = if extras.is_empty() {
                    Value::Null
                } else {
                    Value::Str(
                        extras
                            .iter()
                            .map(|(k, v)| format!("{}={}", k, v))
                            .collect::<Vec<_>>()
                            .join(", "),
                    )
                };
                rows.push(vec![
                    Value::I64(q.id as i64),
                    Value::Str(node.op_name().to_string()),
                    Value::Str(node.label().to_string()),
                    Value::F64(node.time().as_secs_f64() * 1e3),
                    Value::I64(node.next_calls() as i64),
                    Value::I64(node.vectors() as i64),
                    Value::I64(node.rows_out() as i64),
                    extras,
                ]);
            }
        }
        rows
    }

    fn vw_metrics_rows(&self) -> Vec<Vec<Value>> {
        self.metrics
            .snapshot()
            .into_iter()
            .map(|s| {
                vec![
                    Value::Str(s.name),
                    Value::Str(s.label),
                    Value::Str(s.kind.to_string()),
                    Value::F64(s.value),
                ]
            })
            .collect()
    }

    /// One `vw_io` row per device: the main disk first, then every table
    /// partition shard (each shard has independent counters even though the
    /// family shares one block space).
    fn vw_io_rows(&self) -> Vec<Vec<Value>> {
        let mut disks: Vec<Arc<SimDisk>> = vec![self.disk.clone()];
        let mut images: Vec<_> = self.txn.read().images().into_iter().collect();
        images.sort_by_key(|(id, _)| *id);
        for (_, image) in images {
            disks.extend(image.read().partition_disks().iter().cloned());
        }
        disks
            .iter()
            .map(|disk| {
                let d = disk.stats();
                vec![
                    Value::Str(disk.label().to_string()),
                    Value::I64(d.reads as i64),
                    Value::I64(d.writes as i64),
                    Value::I64(d.bytes_read as i64),
                    Value::I64(d.bytes_written as i64),
                    Value::I64(d.bytes_skipped as i64),
                    Value::F64(d.virtual_read_ns as f64 / 1e6),
                ]
            })
            .collect()
    }

    fn vw_cache_rows(&self) -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        if let Some(abm) = self.buffer.read().as_ref() {
            let s = abm.stats();
            rows.push(vec![
                Value::Str("abm".to_string()),
                Value::I64(s.shared_hits as i64),
                Value::I64(s.loads as i64),
                Value::I64(0),
                Value::I64(0),
            ]);
        }
        rows
    }

    /// Execute one SQL statement (autocommit, no session).
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.execute_opts(sql, None)
    }

    /// Execute one SQL statement, optionally on behalf of a [`Session`]
    /// (which scopes config snapshots, `SET`, and profile/trace slots).
    pub(crate) fn execute_opts(&self, sql: &str, session: Option<&Session>) -> Result<QueryResult> {
        let (bound, lifecycle) = self.front_end(sql)?;
        // One config snapshot per statement, taken at admission.
        let config = session.map_or_else(|| self.config(), |s| s.config());
        let sid = session.map_or(0, |s| s.id());
        let store = |outcome: &QueryOutcome| {
            if let Some(s) = session {
                s.store_outcome(outcome.profile.clone(), outcome.trace.clone());
            }
        };
        match bound {
            BoundStatement::Query(plan) => {
                let outcome =
                    self.run_query(plan, None, false, Some(sql), config, sid, lifecycle)?;
                store(&outcome);
                Ok(outcome.result)
            }
            BoundStatement::Explain(plan) => {
                let optimized = self.optimize_plan_with(plan, &config);
                let text = optimized.explain();
                let schema = Schema::new(vec![vw_common::Field::new("plan", DataType::Str)]);
                let rows = text
                    .lines()
                    .map(|l| vec![Value::Str(l.to_string())])
                    .collect();
                Ok(QueryResult { schema, rows })
            }
            BoundStatement::ExplainAnalyze(plan) => {
                // Execute for real (profiling forced on) and return the
                // annotated plan tree instead of the result rows.
                let outcome =
                    self.run_query(plan, None, true, Some(sql), config, sid, lifecycle)?;
                store(&outcome);
                let profile = outcome
                    .profile
                    .expect("forced profiling always yields a profile");
                let schema = Schema::new(vec![vw_common::Field::new("plan", DataType::Str)]);
                let rows = profile
                    .render()
                    .lines()
                    .map(|l| vec![Value::Str(l.to_string())])
                    .collect();
                Ok(QueryResult { schema, rows })
            }
            BoundStatement::Trace(plan) => {
                // Execute for real with profiling (and thus tracing) forced
                // on; return the chrome://tracing JSON, one line per row, so
                // concatenating the rows reassembles the document. The JSON
                // comes from *this* query's collector — never a concurrent
                // session's.
                let outcome =
                    self.run_query(plan, None, true, Some(sql), config, sid, lifecycle)?;
                store(&outcome);
                let json = outcome
                    .trace
                    .as_ref()
                    .expect("forced profiling always records a trace")
                    .to_chrome_json();
                let schema = Schema::new(vec![vw_common::Field::new("trace", DataType::Str)]);
                let rows = json
                    .lines()
                    .map(|l| vec![Value::Str(l.to_string())])
                    .collect();
                Ok(QueryResult { schema, rows })
            }
            BoundStatement::CreateTable {
                name,
                schema,
                layout,
            } => {
                self.create_table_with_layout(&name, schema, layout)?;
                Ok(empty_result("created"))
            }
            dml @ (BoundStatement::Insert { .. }
            | BoundStatement::Update { .. }
            | BoundStatement::Delete { .. }) => {
                let mut txn = self.begin();
                let result = self.apply_dml(&mut txn, dml)?;
                self.commit(txn)?;
                Ok(result)
            }
            BoundStatement::Set { name, value, scope } => {
                let session = match (scope, session) {
                    // No session: plain SET has always been global here.
                    (SetScope::Global, _) | (SetScope::Default, None) => None,
                    (SetScope::Local, None) => {
                        return Err(VwError::Invalid(
                            "SET LOCAL requires a session (use Database::session())".into(),
                        ))
                    }
                    // With a session, plain SET scopes to the session.
                    (SetScope::Default | SetScope::Local, Some(s)) => Some(s),
                };
                self.apply_set(session, &name, &value)?;
                Ok(empty_result("set"))
            }
        }
    }

    /// Parse and bind one statement, timing both for the lifecycle timeline
    /// (`epoch` anchors the whole statement's timeline).
    fn front_end(&self, sql: &str) -> Result<(BoundStatement, Lifecycle)> {
        let mut lifecycle = Lifecycle::start();
        let stmt = parse_statement(sql)?;
        lifecycle.parse_ns = lifecycle.epoch.elapsed().as_nanos() as u64;
        let bound = bind(&stmt, self)?;
        lifecycle.bind_ns =
            (lifecycle.epoch.elapsed().as_nanos() as u64).saturating_sub(lifecycle.parse_ns);
        Ok((bound, lifecycle))
    }

    /// Apply `SET <name> = <value>` to a session's config, or with no
    /// session to the database's. The query-history ring is one per
    /// database, so its cap is global even from a session's `SET`.
    fn apply_set(&self, session: Option<&Session>, name: &str, value: &Value) -> Result<()> {
        if let Some(s) = session.filter(|_| name != "query_history") {
            return s.update_config(|c| set_option(c, name, value));
        }
        set_option(&mut self.config.write(), name, value)?;
        match name {
            "memory_budget" | "mem_budget" => self.rebuild_ledger(),
            "query_history" => self.trim_history(&mut self.history.lock()),
            _ => {}
        }
        Ok(())
    }

    /// Evict the oldest queries beyond the global `query_history` cap,
    /// counting each eviction.
    fn trim_history(&self, history: &mut VecDeque<QueryRecord>) {
        let cap = self.config.read().query_history.max(1);
        while history.len() > cap {
            history.pop_front();
            self.core_metrics.history_evicted.inc();
        }
    }

    /// Execute a SQL statement inside an open transaction (DML + queries).
    pub fn execute_in(&self, txn: &mut Transaction, sql: &str) -> Result<QueryResult> {
        let (bound, lifecycle) = self.front_end(sql)?;
        match bound {
            BoundStatement::Query(plan) => self
                .run_query(
                    plan,
                    Some(txn),
                    false,
                    Some(sql),
                    self.config(),
                    0,
                    lifecycle,
                )
                .map(|o| o.result),
            dml => self.apply_dml(txn, dml),
        }
    }

    /// INSERT, UPDATE or DELETE inside `txn`; the count of rows changed.
    fn apply_dml(&self, txn: &mut Transaction, stmt: BoundStatement) -> Result<QueryResult> {
        match stmt {
            BoundStatement::Insert { table, rows } => {
                check_writable(table)?;
                let n = rows.len();
                txn.append_many(table, rows)?;
                Ok(count_result("inserted", n))
            }
            BoundStatement::Update {
                table,
                assignments,
                predicate,
            } => {
                check_writable(table)?;
                let n = self.apply_update(txn, table, &assignments, predicate.as_ref())?;
                Ok(count_result("updated", n))
            }
            BoundStatement::Delete { table, predicate } => {
                check_writable(table)?;
                let n = self.apply_delete(txn, table, predicate.as_ref())?;
                Ok(count_result("deleted", n))
            }
            _ => Err(VwError::Txn(
                "only queries and DML are allowed inside a transaction".into(),
            )),
        }
    }

    /// The scan UPDATE and DELETE find their rows with: serial, over the
    /// version of the table the transaction sees, `predicate` pushed into it
    /// (zone maps, encoded predicates and sparse decode apply as for any
    /// query), producing only the columns `reads` names — and the RID of
    /// every row. Returns the scan and, for each storage column in `reads`,
    /// its position in the scan's output.
    fn dml_scan(
        &self,
        view: TableProvider,
        predicate: Option<&Expr>,
        mut reads: Vec<usize>,
        config: &EngineConfig,
    ) -> Result<(VecScan, impl Fn(usize) -> usize)> {
        if let Some(p) = predicate {
            p.columns(&mut reads);
        }
        reads.sort_unstable();
        reads.dedup();
        let projection = reads.clone();
        let slot = move |c: usize| reads.binary_search(&c).expect("a column the scan reads");
        let mut scan = VecScan::new(
            view.storage,
            view.pdt,
            projection,
            predicate.map(|p| p.remap_columns(&slot)),
            config.vector_size,
            !config.rewrite_nulls,
            true,
        )?;
        scan.set_emit_rids();
        Ok((scan, slot))
    }

    /// UPDATE by position: scan for the rows, evaluate the assignments a
    /// vector at a time against the rows as they are (every assignment sees
    /// the pre-update values), and only when the whole statement has
    /// evaluated hand positions and new values to the PDT in one batch — a
    /// statement that fails leaves the transaction as it found it.
    fn apply_update(
        &self,
        txn: &mut Transaction,
        table: TableId,
        assignments: &[(usize, Expr)],
        predicate: Option<&Expr>,
    ) -> Result<usize> {
        let config = self.config();
        let view = txn.view(table)?;
        let (cols, types): (Vec<u32>, Vec<DataType>) = {
            let storage = view.storage.read();
            assignments
                .iter()
                .map(|(c, _)| (*c as u32, storage.schema().field(*c).ty))
                .unzip()
        };
        let mut reads = Vec::new();
        for (_, e) in assignments {
            e.columns(&mut reads);
        }
        let (mut scan, slot) = self.dml_scan(view, predicate, reads, &config)?;
        let exprs = assignments
            .iter()
            .map(|(_, e)| {
                let e = e.remap_columns(&slot);
                ExprEvaluator::new(e, scan.schema(), !config.rewrite_nulls)
            })
            .collect::<Result<Vec<_>>>()?;
        let mut rids: Vec<u64> = Vec::new();
        let mut values: Vec<Vec<Value>> = Vec::new();
        while let Some(batch) = scan.next()? {
            let vectors = exprs
                .iter()
                .map(|e| e.eval(&batch))
                .collect::<Result<Vec<_>>>()?;
            for i in batch.positions() {
                let mut row = Vec::with_capacity(cols.len());
                for ((vector, expr), want) in vectors.iter().zip(&exprs).zip(&types) {
                    let v = vector.get_value(i, expr.output_type());
                    let stored = v
                        .cast_to(*want)
                        .ok_or_else(|| VwError::Exec(format!("cannot store {} as {}", v, want)))?;
                    row.push(stored);
                }
                rids.push(scan.rids()[i]);
                values.push(row);
            }
        }
        // The scan shares the transaction's PDT; writing it while that view
        // is held would copy it first.
        drop(scan);
        txn.modify_many(table, &rids, &cols, values)?;
        Ok(rids.len())
    }

    /// DELETE by position: the scan reads the predicate's columns only.
    fn apply_delete(
        &self,
        txn: &mut Transaction,
        table: TableId,
        predicate: Option<&Expr>,
    ) -> Result<usize> {
        let view = txn.view(table)?;
        let (mut scan, _) = self.dml_scan(view, predicate, Vec::new(), &self.config())?;
        let mut rids: Vec<u64> = Vec::new();
        while let Some(batch) = scan.next()? {
            rids.extend(batch.positions().map(|i| scan.rids()[i]));
        }
        drop(scan);
        txn.delete_many(table, &rids)?;
        Ok(rids.len())
    }

    // ---------------------------------------------------------- transactions

    /// Begin an explicit transaction.
    pub fn begin(&self) -> Transaction {
        self.txn.read().begin()
    }

    /// Commit (may fail with `TxnConflict` under optimistic CC).
    pub fn commit(&self, txn: Transaction) -> Result<()> {
        self.txn.read().commit(txn)
    }

    /// Abort.
    pub fn abort(&self, txn: Transaction) {
        self.txn.read().abort(txn)
    }

    pub fn commit_count(&self) -> u64 {
        self.txn.read().commit_count()
    }

    pub fn abort_count(&self) -> u64 {
        self.txn.read().abort_count()
    }

    // ---------------------------------------------------------- maintenance

    /// Fold a table's PDT into its stable storage: build the next image
    /// (rewriting only the column blocks the PDT touches), install it as the
    /// table's new version and trim the WAL of what it contains. Returns
    /// the stable row count.
    ///
    /// Queries running or starting meanwhile keep the version they pinned;
    /// they wait, if at all, for the swap ([`Timeline`]'s `checkpoint`
    /// phase). Commits to this table wait for the checkpoint.
    pub fn checkpoint(&self, name: &str) -> Result<u64> {
        let id = self.table_id(name)?;
        let t0 = Instant::now();
        let done = checkpoint_table(&self.txn.read(), id)?;
        self.events.emit(
            Severity::Info,
            "checkpoint",
            0,
            0,
            vec![
                ("table", name.to_string()),
                (
                    "wall_ms",
                    format!("{:.3}", t0.elapsed().as_secs_f64() * 1e3),
                ),
                ("blocks_total", done.image.blocks_total.to_string()),
                ("blocks_rewritten", done.image.blocks_rewritten.to_string()),
                ("bytes_written", done.image.bytes_written.to_string()),
                ("swap_wait_us", done.swap_wait.as_micros().to_string()),
            ],
        );
        Ok(done.rows)
    }

    /// Build optimizer statistics for a table from a sample of its stable
    /// image: four or five row groups spread over the table, and inside them
    /// the same pseudo-random rows of every column — a uniform sample of the
    /// groups read, [`ANALYZE_SAMPLE_ROWS`] rows in all. A stride would step
    /// over the runs of a clustered key and make every value look unique.
    pub fn analyze(&self, name: &str) -> Result<()> {
        let id = self.table_id(name)?;
        let version = self.txn.read().current(id)?;
        let storage = version.storage.read();
        let schema = storage.schema().clone();
        let n_rows = version.pdt.current_rows();
        let step = (storage.group_count() / 4).max(1);
        let groups: Vec<usize> = (0..storage.group_count()).step_by(step).collect();
        let rows_read: usize = groups.iter().map(|&g| storage.group(g).n_rows).sum();
        let rate = (ANALYZE_SAMPLE_ROWS as f64 / rows_read.max(1) as f64).min(1.0);
        // samples[c][k]: column c's values at the rows drawn from groups[k].
        let mut samples: Vec<Vec<Vec<Value>>> = vec![Vec::new(); schema.len()];
        for &g in &groups {
            let rows = storage.group(g).n_rows;
            let picks = sample_positions(rows, (rows as f64 * rate).round() as usize, g as u64);
            for (c, sample) in samples.iter_mut().enumerate() {
                let col = storage.read_column(g, c)?;
                let ty = schema.field(c).ty;
                sample.push(picks.iter().map(|&i| col.get_value(i, ty)).collect());
            }
        }
        let types: Vec<DataType> = schema.fields().iter().map(|f| f.ty).collect();
        let stats = TableStats::build(n_rows, rows_read as u64, &types, &samples);
        self.stats.write().insert(id, stats);
        Ok(())
    }

    /// The statistics [`Database::analyze`] last built for a table, if any.
    pub fn table_stats(&self, name: &str) -> Result<Option<TableStats>> {
        let id = self.table_id(name)?;
        Ok(self.stats.read().get(&id).cloned())
    }

    /// Simulate a crash: throw away all in-memory transaction state and
    /// recover it from the WAL over the stable images, which survive (on the
    /// SimDisk) with the log position each is current to.
    pub fn simulate_crash_and_recover(&self) -> Result<()> {
        let mut mgr = self.txn.write();
        *mgr = TxnManager::recover(&self.wal_path, &mgr.images())?;
        Ok(())
    }
}

// ------------------------------------------------------ SET value parsing

/// Apply one `SET` option to `config` (the database's or a session's).
fn set_option(config: &mut EngineConfig, name: &str, value: &Value) -> Result<()> {
    match name {
        "memory_budget" | "mem_budget" => config.mem_budget_bytes = set_byte_size(value)?,
        "parallelism" | "dop" => config.parallelism = set_usize(value)?,
        "vector_size" => config.vector_size = set_usize(value)?,
        "profiling" => config.profiling = set_bool(value)?,
        "rewrite_nulls" => config.rewrite_nulls = set_bool(value)?,
        "log_min_duration" => config.log_min_duration_ns = set_duration_ns(value)?,
        "query_history" => config.query_history = set_usize(value)?.min(QUERY_HISTORY_MAX),
        other => {
            return Err(VwError::Invalid(format!("unknown SET option '{}'", other)));
        }
    }
    Ok(())
}

/// Byte-size options accept integers (bytes) or strings ('16MiB');
/// 0, NULL, 'unbounded' and 'none' lift the memory budget.
fn set_byte_size(v: &Value) -> Result<Option<usize>> {
    match v {
        Value::Null => Ok(None),
        Value::I64(0) | Value::I32(0) => Ok(None),
        Value::I64(n) if *n > 0 => Ok(Some(*n as usize)),
        Value::I32(n) if *n > 0 => Ok(Some(*n as usize)),
        Value::Str(s) if s.eq_ignore_ascii_case("unbounded") => Ok(None),
        Value::Str(s) if s.eq_ignore_ascii_case("none") => Ok(None),
        Value::Str(s) => vw_common::config::parse_byte_size(s)
            .map(Some)
            .ok_or_else(|| VwError::Invalid(format!("cannot parse '{}' as a byte size", s))),
        other => Err(VwError::Invalid(format!(
            "expected a byte size, got {}",
            other
        ))),
    }
}

fn set_usize(v: &Value) -> Result<usize> {
    match v {
        Value::I64(n) if *n > 0 => Ok(*n as usize),
        Value::I32(n) if *n > 0 => Ok(*n as usize),
        other => Err(VwError::Invalid(format!(
            "expected a positive integer, got {}",
            other
        ))),
    }
}

fn set_bool(v: &Value) -> Result<bool> {
    match v {
        Value::Bool(b) => Ok(*b),
        Value::Str(s) if s.eq_ignore_ascii_case("on") => Ok(true),
        Value::Str(s) if s.eq_ignore_ascii_case("off") => Ok(false),
        Value::I64(n) => Ok(*n != 0),
        other => Err(VwError::Invalid(format!(
            "expected a boolean, got {}",
            other
        ))),
    }
}

/// Durations accept integers (nanoseconds) or strings with a unit
/// ('250ms', '1s'); 0, NULL and 'off' disable the threshold.
fn set_duration_ns(v: &Value) -> Result<Option<u64>> {
    match v {
        Value::Null => Ok(None),
        Value::I64(0) | Value::I32(0) => Ok(None),
        Value::I64(n) if *n > 0 => Ok(Some(*n as u64)),
        Value::I32(n) if *n > 0 => Ok(Some(*n as u64)),
        Value::Str(s) if s.eq_ignore_ascii_case("off") => Ok(None),
        Value::Str(s) => vw_common::config::parse_duration_ns(s)
            .map(Some)
            .ok_or_else(|| VwError::Invalid(format!("cannot parse '{}' as a duration", s))),
        other => Err(VwError::Invalid(format!(
            "expected a duration, got {}",
            other
        ))),
    }
}

/// Trim a SQL text for an event field: single line, at most ~80 chars.
fn truncate_sql(s: &str) -> String {
    let one_line: String = s.split_whitespace().collect::<Vec<_>>().join(" ");
    if one_line.len() <= 80 {
        one_line
    } else {
        let mut cut = 77;
        while !one_line.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}...", &one_line[..cut])
    }
}

/// Record observed cardinalities into the feedback store. The profile tree
/// is built from this very plan ([`OpProfile::from_plan`]), so the two trees
/// are walked in lockstep: each recordable node that actually ran pairs its
/// static estimate with the observed row count. Limit subtrees are skipped —
/// an early cut-off makes every downstream "actual" an artifact of the fetch
/// count, not of the data — and so are counts a join's runtime filters cut
/// short (see [`rows_without_runtime_filters`]).
fn record_actuals(
    plan: &LogicalPlan,
    prof: &Arc<OpProfile>,
    stats: &HashMap<TableId, TableStats>,
    fb: &mut CardFeedback,
) {
    if matches!(plan, LogicalPlan::Limit { .. }) {
        return;
    }
    if recordable(plan) && prof.next_calls() > 0 {
        if let Some(rows) = rows_without_runtime_filters(plan, prof) {
            fb.record(fingerprint(plan), estimate_rows(plan, stats), rows as f64);
        }
    }
    for (i, c) in plan.children().into_iter().enumerate() {
        record_actuals(c, prof.child(i), stats, fb);
    }
}

/// The rows a node would have produced without the runtime filters a join
/// put into the scan below it, which the optimizer knows nothing of. A scan
/// runs them after its own conjuncts, so that is what it emitted plus what
/// they dropped. `None` where that count is unknown: a filter above such a
/// scan never saw the rows they dropped.
fn rows_without_runtime_filters(plan: &LogicalPlan, prof: &OpProfile) -> Option<u64> {
    let extra = |key: &str| {
        let found = prof.extras().into_iter().find(|(k, _)| *k == key);
        found.map_or(0, |(_, v)| v)
    };
    match plan {
        LogicalPlan::Scan { .. } => Some(prof.rows_out() + extra("rtf_dropped")),
        LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. }
            if scan_has_runtime_filters(input, prof.child(0)) =>
        {
            None
        }
        _ => Some(prof.rows_out()),
    }
}

/// Did runtime filters run in the scan that `plan` reaches through filters
/// and projections?
fn scan_has_runtime_filters(plan: &LogicalPlan, prof: &OpProfile) -> bool {
    match plan {
        LogicalPlan::Scan { .. } => prof.extras().iter().any(|&(k, n)| k == "rtf" && n > 0),
        LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } => {
            scan_has_runtime_filters(input, prof.child(0))
        }
        _ => false,
    }
}

/// Give every Scan and Join node of the profile an `est_rows` extra: the
/// optimizer's cardinality estimate for it, to read against the actual
/// `rows` beside it.
fn annotate_estimates(
    plan: &LogicalPlan,
    prof: &OpProfile,
    stats: &HashMap<TableId, TableStats>,
    fb: &CardFeedback,
) {
    if matches!(
        plan,
        LogicalPlan::Scan { .. } | LogicalPlan::Join { .. } | LogicalPlan::MergeJoin { .. }
    ) {
        let est = estimate_rows_with(plan, stats, Some(fb));
        prof.add_extra("est_rows", est.round() as u64);
    }
    for (i, c) in plan.children().into_iter().enumerate() {
        annotate_estimates(c, prof.child(i), stats, fb);
    }
}

// --------------------------------------------------- admission estimation

/// True if the plan holds materialized state (hash tables, sort buffers).
fn plan_is_stateful(plan: &LogicalPlan) -> bool {
    if matches!(
        plan,
        LogicalPlan::Join { .. } | LogicalPlan::Aggregate { .. } | LogicalPlan::Sort { .. }
    ) {
        return true;
    }
    for c in plan.children() {
        if plan_is_stateful(c) {
            return true;
        }
    }
    false
}

/// Admission estimate for a plan under a bounded ledger: stateful plans
/// declare half the ledger, scan-only plans a sliver — coarse on purpose.
/// The force-reserve protocol means an underestimate degrades to spilling,
/// never to a failed query; the estimate only shapes *queueing*.
fn admission_want(plan: &LogicalPlan, limit: Option<u64>) -> u64 {
    let Some(limit) = limit else { return 0 };
    let share = if plan_is_stateful(plan) {
        limit / 2
    } else {
        limit / 16
    };
    share.max((64 << 10u64).min(limit)).clamp(1, limit)
}

/// DML targets must be user tables: the `vw_` system tables are read-only
/// point-in-time views.
fn check_writable(table: TableId) -> Result<()> {
    if systab::is_system_table(table) {
        return Err(VwError::Invalid(format!(
            "system table '{}' is read-only",
            systab::system_table_name(table).unwrap_or("vw_?")
        )));
    }
    Ok(())
}

fn empty_result(tag: &str) -> QueryResult {
    QueryResult {
        schema: Schema::new(vec![vw_common::Field::new(tag, DataType::I64)]),
        rows: vec![],
    }
}

fn count_result(tag: &str, n: usize) -> QueryResult {
    QueryResult {
        schema: Schema::new(vec![vw_common::Field::new(tag, DataType::I64)]),
        rows: vec![vec![Value::I64(n as i64)]],
    }
}

impl CatalogView for Database {
    fn resolve_table(&self, name: &str) -> Option<(TableId, Schema)> {
        let tables = self.tables.read();
        tables
            .get(name)
            .map(|e| (e.id, e.schema.clone()))
            .or_else(|| systab::system_table(name))
    }

    fn table_rows(&self, id: TableId) -> Option<u64> {
        if systab::is_system_table(id) {
            // Materialized fresh per query; no stable cardinality to report.
            return None;
        }
        self.txn
            .read()
            .current_pdt(id)
            .ok()
            .map(|p| p.current_rows())
    }
}

impl Drop for Database {
    fn drop(&mut self) {
        // best-effort cleanup of the WAL file for throwaway databases
        let _ = std::fs::remove_file(&self.wal_path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> Database {
        let db = Database::new().unwrap();
        db.execute(
            "CREATE TABLE items (id BIGINT NOT NULL, qty BIGINT NOT NULL, \
             price DOUBLE NOT NULL, tag VARCHAR)",
        )
        .unwrap();
        db.execute(
            "INSERT INTO items VALUES \
             (1, 5, 10.0, 'a'), (2, 3, 20.0, 'b'), (3, 8, 30.0, 'a'), \
             (4, 1, 40.0, NULL), (5, 9, 50.0, 'b')",
        )
        .unwrap();
        db
    }

    #[test]
    fn create_insert_select() {
        let db = sample_db();
        let r = db
            .execute("SELECT id, price FROM items WHERE qty >= 5 ORDER BY id")
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0], vec![Value::I64(1), Value::F64(10.0)]);
        assert_eq!(r.schema.field(1).name, "price");
    }

    #[test]
    fn aggregates_via_sql() {
        let db = sample_db();
        let r = db
            .execute(
                "SELECT tag, COUNT(*) AS n, SUM(price) AS total FROM items \
                 GROUP BY tag ORDER BY tag",
            )
            .unwrap();
        // NULL tag sorts first (nulls-first ordering)
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0][0], Value::Null);
        assert_eq!(
            r.rows[1],
            vec![Value::Str("a".into()), Value::I64(2), Value::F64(40.0)]
        );
        assert_eq!(r.rows[2][2], Value::F64(70.0));
    }

    #[test]
    fn update_and_delete() {
        let db = sample_db();
        let r = db
            .execute("UPDATE items SET price = price * 2 WHERE tag = 'a'")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::I64(2));
        let r = db.execute("SELECT SUM(price) FROM items").unwrap();
        assert_eq!(
            r.rows[0][0],
            Value::F64(10.0 + 20.0 + 30.0 + 40.0 + 50.0 + 40.0)
        );
        let r = db.execute("DELETE FROM items WHERE qty < 4").unwrap();
        assert_eq!(r.rows[0][0], Value::I64(2));
        assert_eq!(db.table_rows("items").unwrap(), 3);
        // deleted rows are gone from queries
        let r = db.execute("SELECT COUNT(*) FROM items").unwrap();
        assert_eq!(r.rows[0][0], Value::I64(3));
    }

    /// DML finds its rows with one serial scan whatever `SET dop` says.
    #[test]
    fn dml_runs_serially_at_any_dop() {
        let db = wide_db(2000); // k = i % 10, v = i
        db.execute("SET dop = 4").unwrap();
        let r = db.execute("UPDATE t SET k = -1 WHERE v < 100").unwrap();
        assert_eq!(r.rows[0][0], Value::I64(100));
        let r = db.execute("DELETE FROM t WHERE v >= 1900").unwrap();
        assert_eq!(r.rows[0][0], Value::I64(100));
        let r = db
            .execute("SELECT COUNT(*), MIN(k), MAX(v) FROM t")
            .unwrap();
        assert_eq!(
            r.rows[0],
            vec![Value::I64(1900), Value::I64(-1), Value::I64(1899)]
        );
    }

    #[test]
    fn updates_visible_through_scans_with_pdt_merge() {
        let db = sample_db();
        db.execute("UPDATE items SET tag = 'z' WHERE id = 1")
            .unwrap();
        let r = db.execute("SELECT tag FROM items WHERE id = 1").unwrap();
        assert_eq!(r.rows[0][0], Value::Str("z".into()));
    }

    #[test]
    fn explicit_transaction_isolation_and_conflict() {
        let db = sample_db();
        let mut t1 = db.begin();
        db.execute_in(&mut t1, "UPDATE items SET qty = 100 WHERE id = 2")
            .unwrap();
        // Own writes visible inside txn:
        let r = db
            .execute_in(&mut t1, "SELECT qty FROM items WHERE id = 2")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::I64(100));
        // Not visible outside:
        let r = db.execute("SELECT qty FROM items WHERE id = 2").unwrap();
        assert_eq!(r.rows[0][0], Value::I64(3));
        // Conflicting concurrent txn:
        let mut t2 = db.begin();
        db.execute_in(&mut t2, "UPDATE items SET qty = 200 WHERE id = 2")
            .unwrap();
        db.commit(t1).unwrap();
        let err = db.commit(t2).unwrap_err();
        assert_eq!(err.kind(), "txn_conflict");
        // Committed value is t1's.
        let r = db.execute("SELECT qty FROM items WHERE id = 2").unwrap();
        assert_eq!(r.rows[0][0], Value::I64(100));
    }

    #[test]
    fn checkpoint_then_query() {
        let db = sample_db();
        db.execute("DELETE FROM items WHERE id = 1").unwrap();
        db.execute("INSERT INTO items VALUES (6, 2, 60.0, 'c')")
            .unwrap();
        let before = db.execute("SELECT id FROM items ORDER BY id").unwrap();
        db.checkpoint("items").unwrap();
        let after = db.execute("SELECT id FROM items ORDER BY id").unwrap();
        assert_eq!(before.rows, after.rows);
        // PDT is empty post-checkpoint; data served purely from storage.
        assert_eq!(db.table_rows("items").unwrap(), 5);
    }

    #[test]
    fn crash_recovery_preserves_committed_only() {
        let db = sample_db();
        db.execute("UPDATE items SET qty = 77 WHERE id = 3")
            .unwrap();
        // an uncommitted transaction...
        let mut t = db.begin();
        db.execute_in(&mut t, "DELETE FROM items WHERE id = 5")
            .unwrap();
        // ...lost in the crash (never committed)
        db.simulate_crash_and_recover().unwrap();
        let r = db.execute("SELECT qty FROM items WHERE id = 3").unwrap();
        assert_eq!(r.rows[0][0], Value::I64(77));
        assert_eq!(db.table_rows("items").unwrap(), 5);
        drop(t);
    }

    #[test]
    fn explain_output() {
        let db = sample_db();
        let r = db
            .execute("EXPLAIN SELECT tag, COUNT(*) FROM items WHERE qty > 1 GROUP BY tag")
            .unwrap();
        let text: Vec<String> = r
            .rows
            .iter()
            .map(|row| row[0].as_str().unwrap().to_string())
            .collect();
        let joined = text.join("\n");
        assert!(joined.contains("Aggregate"), "{}", joined);
        assert!(joined.contains("Scan items"), "{}", joined);
        // filter was pushed into the scan
        assert!(joined.contains("filter="), "{}", joined);
    }

    /// A table big enough to produce several vectors and morsels.
    fn wide_db(n: i64) -> Database {
        let db = Database::new().unwrap();
        db.execute("CREATE TABLE t (k BIGINT NOT NULL, v BIGINT NOT NULL)")
            .unwrap();
        db.bulk_load("t", (0..n).map(|i| vec![Value::I64(i % 10), Value::I64(i)]))
            .unwrap();
        db
    }

    fn find_node<'a>(
        node: &'a Arc<crate::profile::OpProfile>,
        op: &str,
    ) -> Option<&'a Arc<crate::profile::OpProfile>> {
        if node.op_name() == op {
            return Some(node);
        }
        node.children().iter().find_map(|c| find_node(c, op))
    }

    #[test]
    fn explain_analyze_serial_reports_true_cardinalities() {
        let db = wide_db(600);
        let r = db
            .execute("EXPLAIN ANALYZE SELECT k, COUNT(*) AS n FROM t GROUP BY k")
            .unwrap();
        let text: String = r
            .rows
            .iter()
            .map(|row| row[0].as_str().unwrap())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("Query:"), "{}", text);
        assert!(text.contains("Scan t"), "{}", text);
        assert!(text.contains("rows"), "{}", text);
        let prof = db.profile_last_query().unwrap();
        assert_eq!(prof.dop, 1);
        // Root emits one row per group; the scan emits the whole table.
        assert_eq!(prof.root.rows_out(), 10);
        let scan = find_node(&prof.root, "Scan").unwrap();
        assert_eq!(scan.rows_out(), 600);
        assert!(scan.extras().iter().any(|&(k, _)| k == "morsels"));
    }

    #[test]
    fn explain_analyze_dop4_merges_worker_stats_per_node() {
        let db = wide_db(600);
        db.set_parallelism(4);
        let result = db
            .execute("SELECT k, COUNT(*) AS n FROM t GROUP BY k")
            .unwrap();
        assert_eq!(result.rows.len(), 10);
        db.execute("EXPLAIN ANALYZE SELECT k, COUNT(*) AS n FROM t GROUP BY k")
            .unwrap();
        let prof = db.profile_last_query().unwrap();
        assert_eq!(prof.dop, 4);
        // Per-node merge: the profile must report the query's true
        // cardinalities once, NOT dop × them (per-thread duplication).
        assert_eq!(prof.root.rows_out(), result.rows.len() as u64);
        let scan = find_node(&prof.root, "Scan").unwrap();
        assert_eq!(scan.rows_out(), 600, "scan rows duplicated across workers");
        let exchange = find_node(&prof.root, "Exchange").unwrap();
        assert_eq!(exchange.rows_out(), prof.root.rows_in());
        assert!(
            exchange.extras().contains(&("workers", 4)),
            "{:?}",
            exchange.extras()
        );
        // The exchange's child (partial agg) feeds exactly what it produced.
        assert!(prof.morsels_claimed > 0);
    }

    #[test]
    fn profiling_can_be_disabled() {
        let db = sample_db();
        db.set_profiling(false);
        db.execute("SELECT COUNT(*) FROM items").unwrap();
        assert!(db.profile_last_query().is_none());
        // EXPLAIN ANALYZE forces profiling regardless.
        db.execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM items")
            .unwrap();
        assert!(db.profile_last_query().is_some());
    }

    #[test]
    fn plain_queries_record_profile_by_default() {
        let db = sample_db();
        let r = db.execute("SELECT id FROM items WHERE qty >= 5").unwrap();
        let prof = db.profile_last_query().unwrap();
        assert_eq!(prof.root.rows_out(), r.rows.len() as u64);
        // The scan saw all 5 rows; the pushed-down filter selected 3 of them.
        let scan = find_node(&prof.root, "Scan").unwrap();
        assert_eq!(scan.rows_out(), 3);
    }

    #[test]
    fn parallel_config_changes_plan_not_results() {
        let db = sample_db();
        let serial = db
            .execute("SELECT tag, SUM(qty) FROM items GROUP BY tag ORDER BY tag")
            .unwrap();
        db.set_parallelism(3);
        let parallel = db
            .execute("SELECT tag, SUM(qty) FROM items GROUP BY tag ORDER BY tag")
            .unwrap();
        assert_eq!(serial.rows, parallel.rows);
        let explain = db
            .execute("EXPLAIN SELECT tag, SUM(qty) FROM items GROUP BY tag")
            .unwrap();
        let text: String = explain
            .rows
            .iter()
            .map(|r| r[0].as_str().unwrap())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("Exchange"), "{}", text);
    }

    #[test]
    fn analyze_feeds_optimizer() {
        let db = sample_db();
        db.analyze("items").unwrap();
        // build-side selection now has stats; just verify queries still work
        let r = db.execute("SELECT COUNT(*) FROM items").unwrap();
        assert_eq!(r.rows[0][0], Value::I64(5));
    }

    #[test]
    fn bulk_load_requires_empty_and_counts() {
        let db = Database::new().unwrap();
        db.execute("CREATE TABLE t (a BIGINT NOT NULL)").unwrap();
        let n = db
            .bulk_load("t", (0..100).map(|i| vec![Value::I64(i)]))
            .unwrap();
        assert_eq!(n, 100);
        assert_eq!(db.table_rows("t").unwrap(), 100);
        assert!(db.bulk_load("t", vec![vec![Value::I64(1)]]).is_err());
        let r = db.execute("SELECT SUM(a) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::I64(4950));
    }

    #[test]
    fn errors_surface_cleanly() {
        let db = sample_db();
        assert!(db.execute("SELECT nosuch FROM items").is_err());
        assert!(db.execute("SELECT * FROM nosuch").is_err());
        assert!(db.execute("CREATE TABLE items (a BIGINT)").is_err());
        assert_eq!(
            db.execute("SELECT 1 FROM items WHERE qty / 0 > 1")
                .unwrap_err()
                .kind(),
            "exec"
        );
    }

    #[test]
    fn format_table_renders() {
        let db = sample_db();
        let r = db
            .execute("SELECT id, tag FROM items ORDER BY id LIMIT 2")
            .unwrap();
        let text = r.format_table();
        assert!(text.contains("| id | tag |"), "{}", text);
        assert!(text.contains("| 1  | a   |"), "{}", text);
    }

    #[test]
    fn set_statement_governs_memory_budget() {
        let db = wide_db(4000);
        let q = "SELECT k, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k ORDER BY s DESC";
        let unbounded = db.execute(q).unwrap();
        db.execute("SET memory_budget = '32KiB'").unwrap();
        assert_eq!(db.config().mem_budget_bytes, Some(32 << 10));
        let tight = db.execute(q).unwrap();
        assert_eq!(tight.rows, unbounded.rows);
        let prof = db.profile_last_query().unwrap();
        assert_eq!(prof.mem.limit, Some(32 << 10));
        assert!(prof.mem.peak > 0);
        // EXPLAIN ANALYZE renders the memory line.
        let r = db.execute(&format!("EXPLAIN ANALYZE {}", q)).unwrap();
        let text: String = r
            .rows
            .iter()
            .map(|row| row[0].as_str().unwrap())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("Memory:"), "{}", text);
        assert!(text.contains("KiB budget"), "{}", text);
        // Lift the budget again (bare word works unquoted).
        db.execute("SET memory_budget = unbounded").unwrap();
        assert_eq!(db.config().mem_budget_bytes, None);
    }

    #[test]
    fn set_statement_other_options() {
        let db = sample_db();
        db.execute("SET parallelism = 3").unwrap();
        assert_eq!(db.config().parallelism, 3);
        db.execute("SET vector_size = 512").unwrap();
        assert_eq!(db.config().vector_size, 512);
        db.execute("SET profiling = off").unwrap();
        assert!(!db.config().profiling);
        db.execute("SET profiling = on").unwrap();
        // Scans decode into their own vectors: there is no cache to size.
        let err = db.execute("SET decode_cache = '1MiB'").unwrap_err();
        assert!(err.to_string().contains("unknown SET option"), "{}", err);
        // Adaptive execution, the aggregation path and the event log have
        // no switch: the names (folded to lower case like any identifier)
        // are as unknown as any other, globally and in a session.
        for set in [
            "SET ADAPTIVITY = off",
            "SET GLOBAL AGG_PATH = 'generic'",
            "SET EVENT_LOG = 'off'",
            "SET nosuch_option = 1",
        ] {
            let err = db.execute(set).unwrap_err();
            assert!(
                err.to_string().contains("unknown SET option"),
                "{set}: {err}"
            );
            let session = Arc::new(sample_db()).session();
            let err = session.execute(set).unwrap_err();
            assert!(
                err.to_string().contains("unknown SET option"),
                "{set}: {err}"
            );
        }
        assert!(db.execute("SET memory_budget = 'garbage'").is_err());
        // SET is session-level: rejected inside a transaction.
        let mut t = db.begin();
        assert!(db.execute_in(&mut t, "SET parallelism = 2").is_err());
        db.abort(t);
    }

    #[test]
    fn vw_queries_counts_session_queries() {
        let db = sample_db();
        db.execute("SELECT COUNT(*) FROM items").unwrap();
        db.execute("SELECT id FROM items WHERE qty >= 5").unwrap();
        // CREATE/INSERT are not queries; only the two SELECTs are in history.
        let r = db.execute("SELECT COUNT(*) FROM vw_queries").unwrap();
        assert_eq!(r.rows[0][0], Value::I64(2));
        // The count query recorded itself after running, so it shows up now.
        let r = db
            .execute("SELECT query_id, sql, rows FROM vw_queries ORDER BY query_id")
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(
            r.rows[0][1],
            Value::Str("SELECT COUNT(*) FROM items".into())
        );
        assert_eq!(r.rows[0][2], Value::I64(1));
        assert_eq!(db.query_history().len(), 4);
    }

    #[test]
    fn system_tables_are_schema_correct_and_populated() {
        let db = sample_db();
        db.execute("SELECT tag, SUM(price) FROM items GROUP BY tag")
            .unwrap();
        for &name in crate::systab::SYSTEM_TABLE_NAMES {
            let r = db.execute(&format!("SELECT * FROM {}", name)).unwrap();
            assert_eq!(
                r.schema,
                crate::systab::system_schema(name),
                "schema mismatch for {}",
                name
            );
        }
        let ops = db.execute("SELECT * FROM vw_operator_stats").unwrap();
        assert!(!ops.rows.is_empty());
        // The extras column renders operator counters; the GROUP BY above
        // must report which aggregation path it took.
        let agg = db
            .execute("SELECT extras FROM vw_operator_stats WHERE op = 'Aggregate'")
            .unwrap();
        assert!(
            agg.rows.iter().any(|r| r[0]
                .as_str()
                .is_some_and(|s| s.contains("agg_path_perfect") || s.contains("agg_path_generic"))),
            "aggregate extras should name the chosen path: {:?}",
            agg.rows
        );
        let metrics = db
            .execute("SELECT value FROM vw_metrics WHERE name = 'queries_total'")
            .unwrap();
        assert_eq!(metrics.rows.len(), 1);
        assert!(matches!(metrics.rows[0][0], Value::F64(v) if v >= 2.0));
        // One row per device: always the main disk, plus one per table range
        // partition when a partitioned layout is in force (VW_PARTITIONS).
        let io = db.execute("SELECT disk FROM vw_io").unwrap();
        assert!(!io.rows.is_empty());
        assert!(
            io.rows.iter().any(|r| r[0] == Value::Str("main".into())),
            "main disk missing from vw_io: {:?}",
            io.rows
        );
        // No ABM is attached to this database, so no cache has a row.
        let cache = db.execute("SELECT cache FROM vw_cache").unwrap();
        assert!(cache.rows.is_empty(), "{:?}", cache.rows);
    }

    #[test]
    fn system_tables_are_read_only_and_names_reserved() {
        let db = sample_db();
        let err = db
            .execute(
                "INSERT INTO vw_queries VALUES \
                 (1, 'x', 0.0, 0, 1, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)",
            )
            .unwrap_err();
        assert!(err.to_string().contains("read-only"), "{}", err);
        let err = db.execute("DELETE FROM vw_io").unwrap_err();
        assert!(err.to_string().contains("read-only"), "{}", err);
        let err = db.execute("CREATE TABLE vw_custom (a BIGINT)").unwrap_err();
        assert!(err.to_string().contains("reserved"), "{}", err);
    }

    #[test]
    fn trace_statement_returns_valid_chrome_json() {
        let db = sample_db();
        let r = db
            .execute("TRACE SELECT tag, COUNT(*) FROM items GROUP BY tag")
            .unwrap();
        assert_eq!(r.schema.field(0).name, "trace");
        let json: String = r
            .rows
            .iter()
            .map(|row| row[0].as_str().unwrap())
            .collect::<Vec<_>>()
            .join("\n");
        let n = crate::trace::validate_chrome_json(&json).expect("valid trace JSON");
        assert!(n > 0, "trace has no events");
        // export_trace returns the same timeline.
        assert_eq!(db.export_trace().unwrap(), json);
    }

    #[test]
    fn dop4_trace_has_spans_from_all_workers() {
        let db = wide_db(2000);
        db.set_parallelism(4);
        db.execute("SELECT k, SUM(v) FROM t GROUP BY k").unwrap();
        let trace = db.last_trace().unwrap();
        let workers = trace.worker_ids();
        for w in 1..=4 {
            assert!(
                workers.contains(&w),
                "no events from worker {w}: {workers:?}"
            );
        }
        let json = trace.to_chrome_json();
        crate::trace::validate_chrome_json(&json).expect("valid dop-4 trace");
        // Per-worker events carry spans (operator next() calls), not just
        // instants.
        for w in 1..=4 {
            assert!(
                trace
                    .events()
                    .iter()
                    .any(|e| e.worker == w && e.dur_ns.is_some()),
                "worker {w} recorded no spans"
            );
        }
    }

    #[test]
    fn profile_extras_key_order_is_deterministic_across_runs() {
        let db = wide_db(2000);
        db.set_parallelism(4);
        let q = "SELECT k, SUM(v) FROM t GROUP BY k";
        let keys_of = |p: &Arc<QueryProfile>| -> Vec<Vec<&'static str>> {
            p.nodes()
                .iter()
                .map(|n| n.extras().iter().map(|&(k, _)| k).collect())
                .collect()
        };
        db.execute(q).unwrap();
        let first = keys_of(&db.profile_last_query().unwrap());
        db.execute(q).unwrap();
        let second = keys_of(&db.profile_last_query().unwrap());
        assert_eq!(first, second, "extras key order changed between runs");
        for keys in &first {
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            assert_eq!(*keys, sorted, "extras keys not rendered in sorted order");
        }
    }

    #[test]
    fn query_history_is_a_ring_buffer() {
        let db = wide_db(50);
        let cap = vw_common::config::QUERY_HISTORY_DEFAULT;
        for _ in 0..(cap + 10) {
            db.execute("SELECT COUNT(*) FROM t").unwrap();
        }
        let history = db.query_history();
        assert_eq!(history.len(), cap);
        // Oldest entries were evicted: ids are contiguous and end at the
        // latest query.
        let first = history.first().unwrap().id;
        let last = history.last().unwrap().id;
        assert_eq!(last - first + 1, cap as u64);
        assert_eq!(last, (cap + 10) as u64);
    }

    #[test]
    fn set_query_history_resizes_ring_and_counts_evictions() {
        let db = wide_db(50);
        for _ in 0..10 {
            db.execute("SELECT COUNT(*) FROM t").unwrap();
        }
        // Shrinking trims oldest records immediately and counts them.
        db.execute("SET GLOBAL query_history = 4").unwrap();
        let history = db.query_history();
        assert_eq!(history.len(), 4);
        assert_eq!(history.last().unwrap().id, 10);
        let evicted = db
            .metrics()
            .snapshot()
            .into_iter()
            .find(|s| s.name == "history_evicted_total")
            .unwrap()
            .value;
        assert_eq!(evicted, 6.0);
        // The new cap governs subsequent inserts.
        for _ in 0..10 {
            db.execute("SELECT COUNT(*) FROM t").unwrap();
        }
        assert_eq!(db.query_history().len(), 4);
        // Out-of-range values clamp instead of erroring.
        db.execute("SET GLOBAL query_history = 99999999").unwrap();
        assert_eq!(db.config().query_history, QUERY_HISTORY_MAX);
    }

    #[test]
    fn transactional_inserts_then_scan_in_txn() {
        let db = sample_db();
        let mut t = db.begin();
        db.execute_in(&mut t, "INSERT INTO items VALUES (10, 1, 1.0, 'x')")
            .unwrap();
        let r = db.execute_in(&mut t, "SELECT COUNT(*) FROM items").unwrap();
        assert_eq!(r.rows[0][0], Value::I64(6));
        db.abort(t);
        let r = db.execute("SELECT COUNT(*) FROM items").unwrap();
        assert_eq!(r.rows[0][0], Value::I64(5));
    }

    #[test]
    fn session_set_scopes_config_per_session() {
        let db = Arc::new(sample_db());
        let s1 = db.session();
        let s2 = db.session();
        assert_ne!(s1.id(), s2.id());
        assert!(s1.id() > 0, "session ids start above the no-session 0");
        // Plain SET in a session is session-local.
        s1.execute("SET parallelism = 3").unwrap();
        assert_eq!(s1.config().parallelism, 3);
        assert_eq!(s2.config().parallelism, db.config().parallelism);
        assert_ne!(db.config().parallelism, 3);
        // SET LOCAL is explicit about the same thing.
        s2.execute("SET LOCAL vector_size = 512").unwrap();
        assert_eq!(s2.config().vector_size, 512);
        assert_ne!(s1.config().vector_size, 512);
        // SET GLOBAL from inside a session hits the database config but not
        // the other sessions' snapshots.
        s1.execute("SET GLOBAL profiling = off").unwrap();
        assert!(!db.config().profiling);
        assert!(s2.config().profiling);
        // Without a session, SET LOCAL has nothing to scope to.
        let err = db.execute("SET LOCAL parallelism = 2").unwrap_err();
        assert!(err.to_string().contains("requires a session"), "{}", err);
        // Session results match database results.
        let r = s1.execute("SELECT COUNT(*) FROM items").unwrap();
        assert_eq!(r.rows[0][0], Value::I64(5));
    }

    #[test]
    fn session_memory_budget_stays_local_but_global_resizes_ledger() {
        let db = Arc::new(sample_db());
        // The ledger starts at the process default (VW_MEM_BUDGET-sensitive).
        let initial = EngineConfig::default().mem_budget_bytes.map(|b| b as u64);
        let s = db.session();
        s.execute("SET memory_budget = '64KiB'").unwrap();
        assert_eq!(s.config().mem_budget_bytes, Some(64 << 10));
        // The shared admission ledger follows the GLOBAL config only.
        assert_eq!(db.ledger().limit(), initial);
        s.execute("SET GLOBAL memory_budget = '128KiB'").unwrap();
        assert_eq!(db.ledger().limit(), Some(128 << 10));
        assert_eq!(db.config().mem_budget_bytes, Some(128 << 10));
        // Session snapshot still holds its own value.
        assert_eq!(s.config().mem_budget_bytes, Some(64 << 10));
        db.execute("SET memory_budget = unbounded").unwrap();
        assert_eq!(db.ledger().limit(), None);
    }

    #[test]
    fn sessions_isolate_profiles_and_traces() {
        let db = Arc::new(sample_db());
        let s1 = db.session();
        let s2 = db.session();
        s1.execute("SELECT COUNT(*) FROM items").unwrap();
        s2.execute("SELECT id FROM items WHERE qty >= 5").unwrap();
        let p1 = s1.profile_last_query().unwrap();
        let p2 = s2.profile_last_query().unwrap();
        assert_eq!(p1.session, s1.id());
        assert_eq!(p2.session, s2.id());
        assert_ne!(p1.query_id, p2.query_id);
        // Each session's trace is tagged with its own (query, session) pair.
        let t1 = s1.last_trace().unwrap();
        assert_eq!(t1.meta(), Some((p1.query_id, s1.id())));
        let json = s2.export_trace().unwrap();
        assert!(
            json.contains(&format!("\"session\":{}", s2.id())),
            "{}",
            &json[..json.len().min(200)]
        );
        assert_eq!(s1.queries_run(), 1);
        assert_eq!(s2.queries_run(), 1);
    }

    #[test]
    fn vw_queries_attributes_sessions() {
        let db = Arc::new(sample_db());
        let s = db.session();
        db.execute("SELECT COUNT(*) FROM items").unwrap();
        s.execute("SELECT COUNT(*) FROM items").unwrap();
        let r = db
            .execute("SELECT session_id FROM vw_queries ORDER BY query_id")
            .unwrap();
        // First query ran sessionless (0), second under the session's id.
        assert_eq!(r.rows[0][0], Value::I64(0));
        assert_eq!(r.rows[1][0], Value::I64(s.id() as i64));
    }

    #[test]
    fn bounded_budget_queries_pass_admission() {
        let db = wide_db(2000);
        db.execute("SET memory_budget = '256KiB'").unwrap();
        let before = db.admission_stats();
        db.execute("SELECT k, SUM(v) AS s FROM t GROUP BY k ORDER BY s")
            .unwrap();
        let st = db.admission_stats();
        assert_eq!(st.admitted, before.admitted + 1);
        assert_eq!(st.violations, 0);
        assert!(st.peak_granted > 0, "bounded ledger grants real bytes");
        assert!(st.peak_granted <= 256 << 10);
        // All grants returned once the query finished.
        assert_eq!(db.sched.granted_now(), 0);
    }

    // ------------------------------------------------- lifecycle timelines

    #[test]
    fn timeline_phases_sum_to_wall_and_waits_fit_operator_time() {
        for dop in [1usize, 4] {
            let db = wide_db(4000);
            db.execute(&format!("SET GLOBAL parallelism = {dop}"))
                .unwrap();
            db.execute("SET GLOBAL profiling = on").unwrap();
            db.execute("SELECT k, SUM(v) FROM t WHERE v >= 10 GROUP BY k ORDER BY k")
                .unwrap();
            let p = db.profile_last_query().unwrap();
            let wall_ns = p.wall.as_nanos() as u64;
            let sum = p.timeline.total_ns();
            // The execute phase is defined as the remainder, so the phases
            // sum to wall exactly (well inside the 5% bound).
            assert!(
                sum.abs_diff(wall_ns) * 20 <= wall_ns.max(20),
                "dop {dop}: timeline sums to {sum} ns but wall is {wall_ns} ns"
            );
            // Every phase the statement actually went through is recorded.
            assert!(p.timeline.parse_ns > 0, "parse phase not timed");
            assert!(p.timeline.execute_ns > 0, "execute phase not timed");
            // Per operator: waits are timed strictly inside next() calls, so
            // compute (time - wait) + wait stays within 5% of operator time.
            for node in p.nodes() {
                let time = node.time().as_nanos() as u64;
                let wait = node.wait_ns();
                assert!(
                    wait * 100 <= time.max(1) * 105,
                    "dop {dop}: node {} waited {wait} ns of {time} ns",
                    node.label()
                );
                assert_eq!(
                    node.compute_ns() + wait,
                    time.max(wait),
                    "compute + wait must reassemble operator time"
                );
            }
        }
    }

    #[test]
    fn explain_analyze_prints_timeline_line() {
        let db = sample_db();
        let r = db
            .execute("EXPLAIN ANALYZE SELECT tag, COUNT(*) FROM items GROUP BY tag")
            .unwrap();
        let text: Vec<String> = r
            .rows
            .iter()
            .map(|row| match &row[0] {
                Value::Str(s) => s.clone(),
                other => other.to_string(),
            })
            .collect();
        let tl = text
            .iter()
            .find(|l| l.contains("Timeline:"))
            .expect("EXPLAIN ANALYZE must print a Timeline line");
        for phase in [
            "parse",
            "bind",
            "optimize",
            "admission",
            "checkpoint",
            "execute",
        ] {
            assert!(tl.contains(phase), "Timeline line missing {phase}: {tl}");
        }
    }

    #[test]
    fn vw_queries_timeline_columns_sum_to_wall() {
        let db = sample_db();
        db.execute("SELECT COUNT(*) FROM items").unwrap();
        let r = db
            .execute(
                "SELECT wall_ms, parse_ms, bind_ms, optimize_ms, admission_ms, \
                 checkpoint_ms, execute_ms FROM vw_queries",
            )
            .unwrap();
        let row = r.rows.first().expect("history row");
        let as_f = |v: &Value| match v {
            Value::F64(f) => *f,
            other => panic!("expected F64, got {other}"),
        };
        let wall = as_f(&row[0]);
        let sum: f64 = row[1..].iter().map(as_f).sum();
        assert!(
            (sum - wall).abs() <= wall * 0.05 + 1e-3,
            "phase columns sum to {sum} ms but wall is {wall} ms"
        );
    }

    #[test]
    fn vw_waits_attributes_admission_for_every_query() {
        let db = wide_db(500);
        db.execute("SELECT COUNT(*) FROM t").unwrap();
        let r = db
            .execute(
                "SELECT query_id, wait_class, wait_ms, wait_count FROM vw_waits \
                 WHERE wait_class = 'admission'",
            )
            .unwrap();
        // Admission is timed for every query (even an immediate grant takes
        // measurable ns), so the first query must have a row.
        assert!(
            !r.rows.is_empty(),
            "vw_waits has no admission rows: {:?}",
            r.rows
        );
        assert_eq!(r.rows[0][0], Value::I64(1));
        assert_eq!(r.rows[0][3], Value::I64(1));
    }

    #[test]
    fn trace_includes_lifecycle_phase_spans() {
        let db = sample_db();
        db.execute("TRACE SELECT tag, COUNT(*) FROM items GROUP BY tag")
            .unwrap();
        let trace = db.last_trace().unwrap();
        let events = trace.events();
        for phase in [
            "parse",
            "bind",
            "optimize",
            "admission",
            "checkpoint",
            "execute",
        ] {
            assert!(
                events.iter().any(|e| e.name == phase && e.cat == "phase"),
                "trace missing lifecycle span '{phase}'"
            );
        }
        // Phase spans are back-to-back from the epoch: they must all end
        // before or at wall, and start at the previous phase's end.
        let mut phases: Vec<_> = events.iter().filter(|e| e.cat == "phase").collect();
        phases.sort_by_key(|e| e.ts_ns);
        for w in phases.windows(2) {
            assert_eq!(w[0].ts_ns + w[0].dur_ns.unwrap_or(0), w[1].ts_ns);
        }
    }

    // --------------------------------------------------- structured events

    #[test]
    fn events_record_query_start_and_finish() {
        let db = sample_db();
        let before = db.events().len();
        db.execute("SELECT COUNT(*) FROM items").unwrap();
        let events = db.events().snapshot();
        assert!(events.len() > before);
        let start = events
            .iter()
            .find(|e| e.event == "query_start")
            .expect("query_start event");
        assert!(start.detail().contains("SELECT COUNT(*)"));
        let finish = events
            .iter()
            .find(|e| e.event == "query_finish")
            .expect("query_finish event");
        assert_eq!(finish.query_id, start.query_id);
        assert!(finish.detail().contains("rows=1"));
    }

    /// A statement that fails while it executes — after admission, so after
    /// its `query_start` — still logs the `query_finish` that closes it,
    /// with the error.
    #[test]
    fn failed_query_still_logs_its_finish() {
        let db = sample_db();
        let err = db
            .execute("SELECT qty / (qty - qty) FROM items")
            .unwrap_err();
        let events = db.events().snapshot();
        let start = events
            .iter()
            .rfind(|e| e.event == "query_start")
            .expect("query_start event");
        assert!(start.detail().contains("qty / (qty - qty)"), "{start:?}");
        let finish = events
            .iter()
            .find(|e| e.event == "query_finish" && e.query_id == start.query_id)
            .expect("the failed query's query_start is never closed");
        assert_eq!(finish.severity, Severity::Warn);
        let error = finish.fields.iter().find(|(k, _)| *k == "error");
        assert_eq!(
            error.map(|(_, v)| v.as_str()),
            Some(err.to_string().as_str())
        );
        // The database answers the next statement as usual.
        let r = db.execute("SELECT COUNT(*) FROM items").unwrap();
        assert_eq!(r.rows[0][0], Value::I64(5));
    }

    #[test]
    fn slow_query_event_fires_on_log_min_duration() {
        let db = sample_db();
        // 1 ns threshold: everything is slow.
        db.execute("SET GLOBAL log_min_duration = 1").unwrap();
        db.execute("SELECT COUNT(*) FROM items").unwrap();
        let slow: Vec<_> = db
            .events()
            .snapshot()
            .into_iter()
            .filter(|e| e.event == "slow_query")
            .collect();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].severity, Severity::Warn);
        assert!(slow[0].detail().contains("wall_ms="));
        // 'off' disables it again.
        db.execute("SET GLOBAL log_min_duration = 'off'").unwrap();
        db.execute("SELECT COUNT(*) FROM items").unwrap();
        let slow_after = db
            .events()
            .snapshot()
            .into_iter()
            .filter(|e| e.event == "slow_query")
            .count();
        assert_eq!(slow_after, 1, "threshold off must stop slow_query events");
    }

    #[test]
    fn spill_event_fires_under_tiny_budget() {
        let db = wide_db(20_000);
        db.execute("SET GLOBAL memory_budget = '64KiB'").unwrap();
        db.execute("SELECT k, v FROM t ORDER BY v").unwrap();
        let spills: Vec<_> = db
            .events()
            .snapshot()
            .into_iter()
            .filter(|e| e.event == "spill")
            .collect();
        assert!(!spills.is_empty(), "tiny budget must emit a spill event");
        assert!(spills[0].detail().contains("bytes="));
        // The same query shows spill waits in vw_waits when profiled.
        db.execute("SET GLOBAL profiling = on").unwrap();
        db.execute("SELECT k, v FROM t ORDER BY v").unwrap();
        let r = db
            .execute("SELECT wait_class FROM vw_waits WHERE wait_class = 'spill_write'")
            .unwrap();
        assert!(!r.rows.is_empty(), "profiled spill must appear in vw_waits");
    }

    #[test]
    fn vw_log_is_queryable_and_drain_tails() {
        let db = sample_db();
        db.execute("SELECT COUNT(*) FROM items").unwrap();
        let r = db
            .execute("SELECT seq, severity, event, query_id FROM vw_log ORDER BY seq")
            .unwrap();
        assert!(!r.rows.is_empty());
        assert_eq!(r.rows[0][1], Value::Str("info".into()));
        // drain() is a tail -f cursor: first call returns everything so far
        // (including the vw_log query's own events), the next only news.
        let drained = db.drain_events();
        assert!(!drained.is_empty());
        assert!(db.drain_events().is_empty());
        db.execute("SELECT COUNT(*) FROM items").unwrap();
        let tail = db.drain_events();
        assert!(tail.iter().any(|e| e.event == "query_finish"));
    }

    #[test]
    fn checkpoint_emits_event() {
        let db = sample_db();
        db.checkpoint("items").unwrap();
        db.execute("UPDATE items SET qty = qty + 1 WHERE id = 1")
            .unwrap();
        db.checkpoint("items").unwrap();
        let ev = db
            .events()
            .snapshot()
            .into_iter()
            .rfind(|e| e.event == "checkpoint")
            .expect("checkpoint event");
        assert!(ev.detail().contains("table=items"));
        // Of the row's group, only the updated column's block is rewritten.
        let field = |name: &str| {
            let (_, v) = ev.fields.iter().find(|(k, _)| *k == name).expect(name);
            v.parse::<u64>().expect(name)
        };
        let columns = db.table_schema("items").unwrap().len() as u64;
        let partitions = vw_common::config::env_default_partitions().unwrap_or(1) as u64;
        assert!(field("blocks_total") >= columns);
        assert!(field("blocks_total") <= columns * partitions);
        assert_eq!(field("blocks_rewritten"), 1);
        assert!(field("bytes_written") > 0);
        field("swap_wait_us");
    }
}
