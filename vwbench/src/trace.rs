//! The traced run's spans and the staged statement path.
//!
//! Every span is recorded here, in the benchmark, around a call into one
//! layer: name, start, end, the span that caused it and the statement it
//! belongs to. Spans stay in memory and are written once, at exit, as a
//! chrome trace. A layer's self time is its span minus its children.

use crate::json::Json;
use std::time::Instant;
use vw_common::{Result, Value, VwError};
use vw_core::operators::collect_rows;
use vw_core::{compile_plan, Database, OpProfile};
use vw_plan::LogicalPlan;
use vw_sql::{BoundStatement, CatalogView};

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Statement the span belongs to; 0 for ladder rungs.
    pub stmt: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, stmt: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            stmt,
        });
        self.spans.len() - 1
    }

    /// Close span `id` and return its duration in nanoseconds.
    pub fn end(&mut self, id: usize) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Run `f` inside a span and return its result with the span's duration.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        stmt: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.begin(name, parent, stmt);
        let out = f();
        let ns = self.end(id);
        (out, ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: duration minus the durations of its children.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Chrome trace (`chrome://tracing`, Perfetto): one complete event per
    /// span; `args` carries the span id, its parent, the statement and the
    /// self time.
    pub fn chrome_json(&self, workload: &str) -> Json {
        let own = self.self_ns();
        let mut events = vec![Json::obj(vec![
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(1.0)),
            (
                "args",
                Json::obj(vec![("name", Json::str(format!("vwbench {}", workload)))]),
            ),
        ])];
        for (id, s) in self.spans.iter().enumerate() {
            events.push(Json::obj(vec![
                ("name", Json::str(s.name)),
                ("cat", Json::str("vwbench")),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                (
                    "args",
                    Json::obj(vec![
                        ("id", Json::Num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("stmt", Json::Num(s.stmt as f64)),
                        ("self_us", Json::Num(own[id] as f64 / 1e3)),
                    ]),
                ),
            ]));
        }
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}

/// One statement taken through the engine's stages by hand, one span per
/// layer call.
pub struct Staged {
    pub parse_ns: u64,
    pub bind_ns: u64,
    pub optimize_ns: u64,
    pub compile_ns: u64,
    pub execute_ns: u64,
    pub rows: Vec<Vec<Value>>,
    /// Rows of the base tables the plan scans: the input the statement reads.
    pub input_tuples: u64,
}

impl Staged {
    pub fn total_ns(&self) -> u64 {
        self.parse_ns + self.bind_ns + self.optimize_ns + self.compile_ns + self.execute_ns
    }
}

/// The public pieces `Session::execute` is made of, called in its order:
/// parse, bind, optimize, compile (with a profile tree attached, as the
/// default configuration does), drain. What it leaves out is the lifecycle
/// around them: admission, the checkpoint gate, profile assembly, metrics,
/// events and the history ring.
pub fn staged_execute(
    db: &Database,
    tracer: &mut Tracer,
    stmt_id: u64,
    sql: &str,
) -> Result<Staged> {
    let root = tracer.begin("statement", None, stmt_id);
    let (stmt, parse_ns) = tracer.span("sql.parse", Some(root), stmt_id, || {
        vw_sql::parse_statement(sql)
    });
    let stmt = stmt?;
    let (bound, bind_ns) = tracer.span("sql.bind", Some(root), stmt_id, || vw_sql::bind(&stmt, db));
    let BoundStatement::Query(plan) = bound? else {
        return Err(VwError::Invalid(format!("not a query: {}", sql)));
    };
    let (plan, optimize_ns) = tracer.span("plan.optimize", Some(root), stmt_id, || {
        db.optimize_plan(plan)
    });
    let (op, compile_ns) = tracer.span("core.compile", Some(root), stmt_id, || {
        let mut ctx = db.plan_exec_context(&plan)?;
        ctx.profile = Some(OpProfile::from_plan(&plan));
        ctx.metrics = Some(db.metrics().clone());
        compile_plan(&plan, &ctx)
    });
    let mut op = op?;
    let (rows, execute_ns) = tracer.span("core.execute", Some(root), stmt_id, || {
        let rows = collect_rows(op.as_mut());
        drop(op);
        rows
    });
    tracer.end(root);
    Ok(Staged {
        parse_ns,
        bind_ns,
        optimize_ns,
        compile_ns,
        execute_ns,
        rows: rows?,
        input_tuples: input_tuples(db, &plan),
    })
}

fn input_tuples(db: &Database, plan: &LogicalPlan) -> u64 {
    let own = match plan {
        LogicalPlan::Scan { table_id, .. } => CatalogView::table_rows(db, *table_id).unwrap_or(0),
        _ => 0,
    };
    own + plan
        .children()
        .into_iter()
        .map(|c| input_tuples(db, c))
        .sum::<u64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new();
        let root = t.begin("statement", None, 7);
        let a = t.begin("sql.parse", Some(root), 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        let ((), b_ns) = t.span("core.execute", Some(root), 7, || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        let root_ns = t.end(root);
        let own = t.self_ns();
        let a_ns = t.spans()[a].end_ns - t.spans()[a].start_ns;
        assert!(a_ns >= 2_000_000 && b_ns >= 3_000_000);
        assert_eq!(own[root], root_ns - a_ns - b_ns);
        assert_eq!(own[a], a_ns);
        assert!(t.spans().iter().all(|s| s.stmt == 7));
        assert_eq!(t.spans()[2].parent, Some(root));
    }

    #[test]
    fn chrome_trace_is_valid_and_has_one_event_per_span() {
        let mut t = Tracer::new();
        let root = t.begin("statement", None, 1);
        t.span("sql.bind", Some(root), 1, || ());
        t.end(root);
        let text = t.chrome_json("scan").render();
        // The engine's own validator for its chrome traces; +1 for the
        // process-name record.
        assert_eq!(vw_core::validate_chrome_json(&text), Ok(3));
        let parsed = Json::parse(&text).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        let bind = &events[2];
        assert_eq!(bind.get("name").unwrap().as_str(), Some("sql.bind"));
        assert_eq!(bind.get("ph").unwrap().as_str(), Some("X"));
        let args = bind.get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(args.get("stmt").unwrap().as_f64(), Some(1.0));
    }
}
