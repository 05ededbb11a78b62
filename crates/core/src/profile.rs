//! Per-operator vectorized profiling.
//!
//! X100's observation (§I-A/§I-B of the paper) is that vector-at-a-time
//! execution makes detailed profiling essentially free: one timestamp pair
//! and a handful of counter increments per `next()` call are amortized over
//! a ~1K-tuple vector, so the engine can keep profiling always-on and expose
//! real per-operator breakdowns (`EXPLAIN ANALYZE`) instead of sampling.
//!
//! The design mirrors the plan: [`OpProfile`] is a tree of atomic counters
//! with exactly the shape of the optimized [`LogicalPlan`]. The compiler
//! wraps every physical operator in a [`ProfiledOp`] that records into the
//! profile node for its plan position. Exchange workers compile *clones* of
//! the same plan, but their `ExecContext` carries `Arc`s to the *same*
//! profile nodes — so dop>1 runs merge per plan node (atomic adds), never
//! per thread, and the profile of a parallel scan reports the table's true
//! cardinality rather than `dop ×` copies of it.

use crate::batch::Batch;
use crate::operators::{BoxedOperator, Operator};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vw_common::waits::{WaitSnapshot, WaitStats, ALL_WAIT_CLASSES};
use vw_common::{Result, Schema};
use vw_plan::LogicalPlan;

/// Profile counters for one plan node, shared (via `Arc`) by every worker
/// thread executing an instance of that node. All counters are monotonic
/// sums, so relaxed atomics are sufficient: the reader only looks after the
/// query has completed (workers joined).
pub struct OpProfile {
    label: String,
    op_name: &'static str,
    children: Vec<Arc<OpProfile>>,
    time_ns: AtomicU64,
    next_calls: AtomicU64,
    batches: AtomicU64,
    rows_out: AtomicU64,
    /// Operator-specific counters (morsels claimed, groups pruned, build
    /// reuse, …), flushed once per operator instance at end-of-stream.
    extras: Mutex<BTreeMap<&'static str, u64>>,
    /// Wait-state attribution for this node: blocked time inside `next()`
    /// (block I/O, decode, build waits, spill I/O, morsel starvation),
    /// shared by every worker instance like the counters above. Subtracting
    /// [`OpProfile::wait_ns`] from the inclusive time yields compute time.
    waits: Arc<WaitStats>,
}

impl OpProfile {
    /// Build a zeroed profile tree with the same shape as `plan`.
    pub fn from_plan(plan: &LogicalPlan) -> Arc<OpProfile> {
        Arc::new(OpProfile {
            label: plan.describe(),
            op_name: plan.op_name(),
            children: plan.children().into_iter().map(Self::from_plan).collect(),
            time_ns: AtomicU64::new(0),
            next_calls: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            rows_out: AtomicU64::new(0),
            extras: Mutex::new(BTreeMap::new()),
            waits: Arc::new(WaitStats::new()),
        })
    }

    /// The plan node's one-line description.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Short operator name ("Scan", "Join", …).
    pub fn op_name(&self) -> &'static str {
        self.op_name
    }

    pub fn children(&self) -> &[Arc<OpProfile>] {
        &self.children
    }

    /// Child profile node by plan-child index (panics if out of range: the
    /// profile tree is always built from the very plan being compiled).
    pub fn child(&self, i: usize) -> &Arc<OpProfile> {
        &self.children[i]
    }

    /// Total wall time spent inside this operator's `next()` calls,
    /// including its children (inclusive time). Summed across workers, so at
    /// dop>1 this can legitimately exceed the query's wall time.
    pub fn time(&self) -> Duration {
        Duration::from_nanos(self.time_ns.load(Ordering::Relaxed))
    }

    /// Exclusive time: inclusive time minus the children's inclusive time.
    pub fn self_time(&self) -> Duration {
        let kids: u64 = self
            .children
            .iter()
            .map(|c| c.time_ns.load(Ordering::Relaxed))
            .sum();
        Duration::from_nanos(self.time_ns.load(Ordering::Relaxed).saturating_sub(kids))
    }

    pub fn next_calls(&self) -> u64 {
        self.next_calls.load(Ordering::Relaxed)
    }

    /// Vectors (non-empty batches) produced.
    pub fn vectors(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    pub fn rows_out(&self) -> u64 {
        self.rows_out.load(Ordering::Relaxed)
    }

    /// Rows consumed = sum of the children's rows produced.
    pub fn rows_in(&self) -> u64 {
        self.children.iter().map(|c| c.rows_out()).sum()
    }

    /// Output/input row ratio as a percentage, if the node has input.
    pub fn selectivity(&self) -> Option<f64> {
        let rows_in = self.rows_in();
        (rows_in > 0).then(|| self.rows_out() as f64 * 100.0 / rows_in as f64)
    }

    /// Operator-specific counters, sorted by name.
    pub fn extras(&self) -> Vec<(&'static str, u64)> {
        self.extras.lock().iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// This node's wait accumulator (handed to operators at compile time).
    pub fn waits(&self) -> &Arc<WaitStats> {
        &self.waits
    }

    /// Total blocked nanoseconds inside this node's `next()` calls.
    pub fn wait_ns(&self) -> u64 {
        self.waits.total_ns()
    }

    /// Compute nanoseconds: inclusive time minus attributed waits. The two
    /// always satisfy `compute + wait == time` by construction (waits are
    /// timed strictly inside `next()` calls).
    pub fn compute_ns(&self) -> u64 {
        self.time_ns
            .load(Ordering::Relaxed)
            .saturating_sub(self.wait_ns())
    }

    /// Operator extras merged with the node's nonzero `wait_<class>_ns`
    /// counters, in one deterministic sorted order (for `EXPLAIN ANALYZE`
    /// and `vw_operator_stats`).
    pub fn extras_full(&self) -> Vec<(&'static str, u64)> {
        let mut m: BTreeMap<&'static str, u64> =
            self.extras.lock().iter().map(|(k, v)| (*k, *v)).collect();
        for c in ALL_WAIT_CLASSES {
            let ns = self.waits.ns(c);
            if ns > 0 {
                *m.entry(c.extra_key()).or_insert(0) += ns;
            }
        }
        m.into_iter().collect()
    }

    pub(crate) fn record_next(&self, elapsed: Duration, produced: Option<usize>) {
        self.time_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.next_calls.fetch_add(1, Ordering::Relaxed);
        if let Some(rows) = produced {
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.rows_out.fetch_add(rows as u64, Ordering::Relaxed);
        }
    }

    pub(crate) fn add_extra(&self, key: &'static str, n: u64) {
        *self.extras.lock().entry(key).or_insert(0) += n;
    }

    /// Roll this subtree's waits up into one per-class snapshot (used to
    /// build the query-level attribution for `vw_waits`).
    pub fn rollup_waits(&self) -> WaitSnapshot {
        let mut s = self.waits.snapshot();
        for c in &self.children {
            s.merge(&c.rollup_waits());
        }
        s
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&self.label);
        let ms = self.time().as_secs_f64() * 1e3;
        out.push_str(&format!(
            "  [{:.3} ms, {} vec, {} rows",
            ms,
            self.vectors(),
            self.rows_out()
        ));
        if let Some(pct) = self.selectivity() {
            out.push_str(&format!(", sel={:.1}%", pct));
        }
        for (k, v) in self.extras_full() {
            out.push_str(&format!(", {}={}", k, v));
        }
        out.push_str("]\n");
        for c in &self.children {
            c.render_into(depth + 1, out);
        }
    }
}

/// Transparent wrapper that times `next()` calls and counts vectors/rows
/// into the [`OpProfile`] node for this operator's plan position. At
/// end-of-stream (or on error) it flushes the wrapped operator's
/// [`Operator::profile_extras`] exactly once.
///
/// When a trace handle or a latency histogram is attached, each `next()`
/// additionally records a per-worker timeline span / a histogram sample —
/// both amortized over the vector like the timing itself.
pub struct ProfiledOp {
    inner: BoxedOperator,
    node: Arc<OpProfile>,
    flushed: bool,
    trace: Option<crate::trace::TraceHandle>,
    hist: Option<Arc<vw_common::Histogram>>,
}

impl ProfiledOp {
    pub fn new(inner: BoxedOperator, node: Arc<OpProfile>) -> ProfiledOp {
        ProfiledOp {
            inner,
            node,
            flushed: false,
            trace: None,
            hist: None,
        }
    }

    /// Record a timeline span per `next()` call into the query trace.
    pub fn set_trace(&mut self, trace: crate::trace::TraceHandle) {
        self.trace = Some(trace);
    }

    /// Record each `next()` duration into a registry latency histogram.
    pub fn set_histogram(&mut self, hist: Arc<vw_common::Histogram>) {
        self.hist = Some(hist);
    }
}

impl Operator for ProfiledOp {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        let span = self.trace.as_ref().map(|t| t.start());
        let t0 = Instant::now();
        let r = self.inner.next();
        let elapsed = t0.elapsed();
        let produced = match &r {
            Ok(Some(b)) => Some(b.len()),
            _ => None,
        };
        self.node.record_next(elapsed, produced);
        if let Some(h) = &self.hist {
            h.record(elapsed.as_nanos() as u64);
        }
        if let (Some(t), Some(start)) = (&self.trace, span) {
            t.span_arg(
                self.node.op_name(),
                "op",
                start,
                produced.map(|rows| ("rows", rows as u64)),
            );
        }
        if !self.flushed && !matches!(r, Ok(Some(_))) {
            self.flushed = true;
            for (k, v) in self.inner.profile_extras() {
                self.node.add_extra(k, v);
            }
        }
        r
    }
}

impl Drop for ProfiledOp {
    fn drop(&mut self) {
        // Operators that are dropped before reaching end-of-stream (LIMIT
        // cut-off, error unwind) still contribute their extras.
        if !self.flushed {
            self.flushed = true;
            for (k, v) in self.inner.profile_extras() {
                self.node.add_extra(k, v);
            }
        }
    }
}

/// Per-query lifecycle timeline: contiguous phases from the moment the SQL
/// text arrived to the last result row. Each phase is measured as the delta
/// between consecutive `Instant` marks on the query path, so the phases sum
/// to the recorded wall time *by construction* (no sampling, no gaps).
///
/// Queries entering through the plan API (no SQL text) have zero
/// parse/bind/optimize phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timeline {
    /// Lexing + parsing the SQL text.
    pub parse_ns: u64,
    /// Binding names / building the logical plan.
    pub bind_ns: u64,
    /// Rewrites, ordering, feedback corrections, parallelization.
    pub optimize_ns: u64,
    /// Blocked in the admission controller before execution could start.
    pub admission_ns: u64,
    /// Pinning the table versions the query reads: the one point where it
    /// can wait for a checkpoint, and then only for the swap that installs
    /// the new image, not for building it.
    pub checkpoint_ns: u64,
    /// Compile + execute + drain (everything after admission).
    pub execute_ns: u64,
}

impl Timeline {
    /// Phases in lifecycle order, with stable names (used by the
    /// `Timeline:` render line, chrome-trace spans and `vw_queries`).
    pub fn phases(&self) -> [(&'static str, u64); 6] {
        [
            ("parse", self.parse_ns),
            ("bind", self.bind_ns),
            ("optimize", self.optimize_ns),
            ("admission", self.admission_ns),
            ("checkpoint", self.checkpoint_ns),
            ("execute", self.execute_ns),
        ]
    }

    /// Sum of all phases (equals wall time by construction).
    pub fn total_ns(&self) -> u64 {
        self.phases().iter().map(|(_, ns)| ns).sum()
    }

    /// One-line rendering for `EXPLAIN ANALYZE`. Phases that are zero are
    /// still shown — a 0.000 admission phase is information, not noise.
    pub fn render(&self) -> String {
        let mut s = String::from("Timeline:");
        for (i, (name, ns)) in self.phases().into_iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(" {} {:.3} ms", name, ns as f64 / 1e6));
        }
        s
    }
}

/// The complete profile of one executed query: the per-operator tree plus
/// query-wide execution and I/O counters.
#[derive(Clone)]
pub struct QueryProfile {
    /// Per-operator counters, mirroring the optimized plan.
    pub root: Arc<OpProfile>,
    /// End-to-end wall time (compile + execute + drain).
    pub wall: Duration,
    /// Degree of parallelism the query ran at.
    pub dop: usize,
    /// The query's id in the history ring (`vw_queries.query_id`).
    pub query_id: u64,
    /// Id of the session that ran the query (0 = no session).
    pub session: u64,
    /// Morsels claimed from shared scan queues (0 for serial plans).
    pub morsels_claimed: usize,
    /// Hash-join builds actually executed (shared builds count once).
    pub builds_executed: usize,
    /// Simulated-disk I/O attributable to this query.
    pub disk: vw_storage::DiskStats,
    /// Buffer-manager counters for this query, when an ABM is attached to
    /// the database (cooperative-scan workloads).
    pub buffer: Option<vw_bufman::AbmStats>,
    /// Always `None`: scans decode into their own vectors, there is no
    /// decoded-slice cache to count. vwbench reads the field; retire it with
    /// the `bufman.decode_cache.*` rungs.
    pub decode: Option<vw_bufman::SliceCacheStats>,
    /// Execution-memory accounting: budget, high-water mark and spill volume
    /// for this query (all operators, all workers).
    pub mem: crate::mem::MemStats,
    /// History-learned cardinality corrections the optimizer applied to this
    /// plan, one human-readable entry per corrected node.
    pub plan_feedback: Option<String>,
    /// Lifecycle phase timeline (parse → bind → optimize → admission →
    /// checkpoint-interference → execute); phases sum to `wall`.
    pub timeline: Timeline,
    /// Query-wide wait attribution: all operator waits rolled up per class,
    /// plus the admission wait (which happens before any operator exists).
    pub waits: WaitSnapshot,
}

impl QueryProfile {
    /// Render the annotated plan tree, `EXPLAIN ANALYZE` style.
    pub fn render(&self) -> String {
        let mut s = format!(
            "Query: {:.3} ms, dop={}, {} rows, id={}",
            self.wall.as_secs_f64() * 1e3,
            self.dop,
            self.root.rows_out(),
            self.query_id
        );
        if self.session != 0 {
            s.push_str(&format!(", session={}", self.session));
        }
        if self.morsels_claimed > 0 || self.builds_executed > 0 {
            s.push_str(&format!(
                ", morsels={}, builds={}",
                self.morsels_claimed, self.builds_executed
            ));
        }
        s.push('\n');
        s.push_str(&self.timeline.render());
        s.push('\n');
        if self.waits.total_ns() > 0 {
            s.push_str("Waits:");
            let mut first = true;
            for c in ALL_WAIT_CLASSES {
                let ns = self.waits.ns(c);
                if ns == 0 {
                    continue;
                }
                if !first {
                    s.push(',');
                }
                first = false;
                s.push_str(&format!(
                    " {} {:.3} ms ({}x)",
                    c.name(),
                    ns as f64 / 1e6,
                    self.waits.count(c)
                ));
            }
            s.push('\n');
        }
        if self.disk.reads > 0 || self.disk.writes > 0 || self.disk.bytes_skipped > 0 {
            s.push_str(&format!(
                "I/O: {} reads ({} KiB), {} writes, {:.3} ms virtual read time",
                self.disk.reads,
                self.disk.bytes_read / 1024,
                self.disk.writes,
                self.disk.virtual_read_ns as f64 / 1e6
            ));
            if self.disk.bytes_skipped > 0 {
                s.push_str(&format!(", {} KiB skipped", self.disk.bytes_skipped / 1024));
            }
            s.push('\n');
        }
        if let Some(b) = &self.buffer {
            s.push_str(&format!(
                "Buffer: {} loads, {} shared hits\n",
                b.loads, b.shared_hits
            ));
        }
        if self.mem.peak > 0 || self.mem.limit.is_some() {
            let budget = match self.mem.limit {
                Some(l) => format!("{} KiB budget", l / 1024),
                None => "unbounded".to_string(),
            };
            s.push_str(&format!(
                "Memory: {} KiB peak ({})",
                self.mem.peak / 1024,
                budget
            ));
            if self.mem.spill_events > 0 {
                s.push_str(&format!(
                    ", spilled {} KiB in {} partitions/runs",
                    self.mem.spill_bytes / 1024,
                    self.mem.spill_events
                ));
            }
            s.push('\n');
        }
        if let Some(f) = &self.plan_feedback {
            s.push_str(&format!("vw_plan_feedback: {}\n", f));
        }
        self.root.render_into(0, &mut s);
        s
    }

    /// Flat preorder walk of the operator tree (for tabular dumps).
    pub fn nodes(&self) -> Vec<Arc<OpProfile>> {
        fn walk(n: &Arc<OpProfile>, out: &mut Vec<Arc<OpProfile>>) {
            out.push(n.clone());
            for c in n.children() {
                walk(c, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::BatchSource;
    use vw_common::{DataType, Field, Value};

    fn src(n: i64) -> (BoxedOperator, Schema) {
        let schema = Schema::new(vec![Field::new("x", DataType::I64)]);
        let rows: Vec<Vec<Value>> = (0..n).map(|i| vec![Value::I64(i)]).collect();
        (
            Box::new(BatchSource::from_rows(schema.clone(), &rows, 4).unwrap()),
            schema,
        )
    }

    #[test]
    fn profiled_op_counts_vectors_and_rows() {
        let plan = LogicalPlan::Scan {
            table: "t".into(),
            table_id: vw_common::TableId::new(1),
            schema: Schema::new(vec![Field::new("x", DataType::I64)]),
            projection: None,
            filter: None,
        };
        let node = OpProfile::from_plan(&plan);
        let (op, _) = src(10);
        let mut p = ProfiledOp::new(op, node.clone());
        let mut total = 0usize;
        while let Some(b) = p.next().unwrap() {
            total += b.len();
        }
        assert_eq!(total, 10);
        assert_eq!(node.rows_out(), 10);
        assert_eq!(node.vectors(), 3); // 4 + 4 + 2
        assert_eq!(node.next_calls(), 4); // 3 batches + end-of-stream
        assert!(node.selectivity().is_none()); // leaf: no input rows
    }

    #[test]
    fn merge_is_per_node_across_threads() {
        let plan = LogicalPlan::Scan {
            table: "t".into(),
            table_id: vw_common::TableId::new(1),
            schema: Schema::new(vec![Field::new("x", DataType::I64)]),
            projection: None,
            filter: None,
        };
        let node = OpProfile::from_plan(&plan);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let node = node.clone();
                s.spawn(move || {
                    let (op, _) = src(25);
                    let mut p = ProfiledOp::new(op, node);
                    while p.next().unwrap().is_some() {}
                });
            }
        });
        // 4 workers × 25 rows merge into one node's counters.
        assert_eq!(node.rows_out(), 100);
        assert_eq!(node.vectors(), 4 * 7);
    }
}
