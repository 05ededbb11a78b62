//! Client sessions over one shared [`Database`].
//!
//! A [`Session`] is a cheap per-client handle: it carries its own
//! [`EngineConfig`] (seeded from the database's at creation; `SET` without
//! `GLOBAL` mutates only this copy) and its own `last_profile`/`last_trace`
//! slots, so concurrent clients never observe each other's profiles, traces,
//! or config changes. Queries from any number of sessions run genuinely
//! concurrently — `Database` is `&self` throughout — gated by the database's
//! admission [`Scheduler`](crate::sched::Scheduler).
//!
//! Each query snapshots the session config once at submission; a concurrent
//! `SET parallelism`/`SET vector_size` (local or global) never changes an
//! in-flight plan.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use vw_common::config::EngineConfig;
use vw_common::Result;
use vw_plan::LogicalPlan;

use crate::database::{Database, QueryResult};
use crate::profile::QueryProfile;
use crate::trace::TraceCollector;

/// One client's handle onto a shared [`Database`]. Create with
/// [`Database::session`]; clone the `Arc` to share across threads (all
/// clones are the same session).
pub struct Session {
    db: Arc<Database>,
    id: u64,
    /// Session-scoped engine config; snapshot once per query.
    config: RwLock<EngineConfig>,
    /// Profile of this session's most recent profiled query.
    last_profile: RwLock<Option<Arc<QueryProfile>>>,
    /// Trace of this session's most recent profiled query.
    last_trace: RwLock<Option<Arc<TraceCollector>>>,
    /// Queries this session has run (attribution sanity checks, tests).
    queries_run: AtomicU64,
}

impl Session {
    pub(crate) fn new(db: Arc<Database>, id: u64) -> Arc<Session> {
        let config = db.config();
        Arc::new(Session {
            db,
            id,
            config: RwLock::new(config),
            last_profile: RwLock::new(None),
            last_trace: RwLock::new(None),
            queries_run: AtomicU64::new(0),
        })
    }

    /// This session's id (> 0; recorded in `vw_queries.session_id`).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The database this session talks to.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Snapshot of this session's config (what the next query will run with).
    pub fn config(&self) -> EngineConfig {
        self.config.read().clone()
    }

    /// Session-scoped degree of parallelism (`SET parallelism` equivalent).
    pub fn set_parallelism(&self, dop: usize) {
        self.config.write().parallelism = dop.max(1);
    }

    /// Session-scoped vector size.
    pub fn set_vector_size(&self, vs: usize) {
        self.config.write().vector_size = vs.max(1);
    }

    /// Session-scoped memory budget (`None` = unbounded). The database-wide
    /// admission ledger is *not* resized — use `SET GLOBAL memory_budget`
    /// or [`Database::set_mem_budget`] for that.
    pub fn set_mem_budget(&self, bytes: Option<usize>) {
        self.config.write().mem_budget_bytes = bytes;
    }

    /// Session-scoped profiling toggle.
    pub fn set_profiling(&self, on: bool) {
        self.config.write().profiling = on;
    }

    pub(crate) fn update_config<R>(&self, f: impl FnOnce(&mut EngineConfig) -> R) -> R {
        f(&mut self.config.write())
    }

    /// Execute one SQL statement in this session (autocommit).
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.db.execute_opts(sql, Some(self))
    }

    /// Execute a logical plan in this session.
    pub fn run_plan(&self, plan: LogicalPlan) -> Result<QueryResult> {
        let outcome = self.db.run_query(
            plan,
            None,
            false,
            None,
            self.config(),
            self.id,
            crate::database::Lifecycle::start(),
        )?;
        self.store_outcome(outcome.profile.clone(), outcome.trace.clone());
        Ok(outcome.result)
    }

    /// The profile of *this session's* most recent profiled query.
    pub fn profile_last_query(&self) -> Option<Arc<QueryProfile>> {
        self.last_profile.read().clone()
    }

    /// The trace collector of this session's most recent profiled query.
    pub fn last_trace(&self) -> Option<Arc<TraceCollector>> {
        self.last_trace.read().clone()
    }

    /// chrome://tracing JSON of this session's most recent profiled query.
    pub fn export_trace(&self) -> Option<String> {
        self.last_trace.read().as_ref().map(|c| c.to_chrome_json())
    }

    /// Number of queries this session has executed.
    pub fn queries_run(&self) -> u64 {
        self.queries_run.load(Ordering::Relaxed)
    }

    pub(crate) fn store_outcome(
        &self,
        profile: Option<Arc<QueryProfile>>,
        trace: Option<Arc<TraceCollector>>,
    ) {
        self.queries_run.fetch_add(1, Ordering::Relaxed);
        if let Some(p) = profile {
            *self.last_profile.write() = Some(p);
        }
        if let Some(t) = trace {
            *self.last_trace.write() = Some(t);
        }
    }
}
