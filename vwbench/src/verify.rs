//! Output checking: a result comparator and the tuple-at-a-time row engine
//! as an independent oracle over the same optimized plan.

use std::collections::HashMap;
use vw_common::{Result, Value, VwError};
use vw_core::Database;
use vw_plan::LogicalPlan;
use vw_sql::BoundStatement;

/// Relative tolerance on floats: engines add in different orders.
pub const FLOAT_TOLERANCE: f64 = 1e-9;

/// Attempts and failures of everything a run checks. An `Err`, a result
/// mismatch and a broken invariant each count as one failure.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub messages: Vec<String>,
}

impl Checks {
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, message: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    pub fn record(&mut self, outcome: std::result::Result<(), String>) {
        match outcome {
            Ok(()) => self.pass(),
            Err(m) => self.fail(m),
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }
}

/// Same row count, same order, every non-float value equal and every float
/// within [`FLOAT_TOLERANCE`] relative (scale at least 1).
pub fn rows_match(got: &[Vec<Value>], want: &[Vec<Value>]) -> std::result::Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} rows, expected {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g.len() != w.len() {
            return Err(format!(
                "row {}: {} columns, expected {}",
                i,
                g.len(),
                w.len()
            ));
        }
        for (c, (gv, wv)) in g.iter().zip(w).enumerate() {
            let same = match (gv, wv) {
                (Value::F64(a), Value::F64(b)) => {
                    (a - b).abs() <= a.abs().max(b.abs()).max(1.0) * FLOAT_TOLERANCE
                        || (a.is_nan() && b.is_nan())
                }
                // Structural equality: same type, same value, NULL == NULL.
                _ => gv == wv,
            };
            if !same {
                return Err(format!(
                    "row {} column {}: {} but expected {}",
                    i, c, gv, wv
                ));
            }
        }
    }
    Ok(())
}

/// Parse, bind and optimize a query the way `Session::execute` does, up to
/// the plan the engine would compile.
pub fn optimized_plan(db: &Database, sql: &str) -> Result<LogicalPlan> {
    let stmt = vw_sql::parse_statement(sql)?;
    match vw_sql::bind(&stmt, db)? {
        BoundStatement::Query(plan) => Ok(db.optimize_plan(plan)),
        _ => Err(VwError::Invalid(format!("not a query: {}", sql))),
    }
}

/// Run an optimized plan on the row engine. It reads stable storage only, so
/// the tables must be clean (bulk-loaded or checkpointed).
pub fn row_engine_rows(db: &Database, plan: &LogicalPlan) -> Result<Vec<Vec<Value>>> {
    let ctx = db.plan_exec_context(plan)?;
    let tables: HashMap<_, _> = ctx
        .tables
        .iter()
        .map(|(id, p)| (*id, p.storage.clone()))
        .collect();
    let mut op = vw_baselines::compile_row(plan, &tables)?;
    vw_baselines::collect_row_engine(op.as_mut())
}

/// Check `got` (what the engine returned for `sql`) against the row engine.
pub fn check_against_row_engine(
    db: &Database,
    sql: &str,
    got: &[Vec<Value>],
) -> std::result::Result<(), String> {
    let want = optimized_plan(db, sql)
        .and_then(|plan| row_engine_rows(db, &plan))
        .map_err(|e| format!("row engine failed: {}", e))?;
    rows_match(got, &want).map_err(|m| format!("differs from the row engine: {}", m))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(k: i64, f: f64, s: &str) -> Vec<Value> {
        vec![Value::I64(k), Value::F64(f), Value::Str(s.to_string())]
    }

    #[test]
    fn comparator_is_exact_on_keys_and_tolerant_on_floats() {
        let want = vec![row(1, 1000.0, "a"), row(2, 0.5, "b")];
        assert!(rows_match(&want, &want).is_ok());
        // Within 1e-9 relative.
        let near = vec![row(1, 1000.0 + 5e-7, "a"), row(2, 0.5 + 5e-10, "b")];
        assert!(rows_match(&near, &want).is_ok());
        // Beyond it.
        let far = vec![row(1, 1000.0 + 5e-6, "a"), row(2, 0.5, "b")];
        assert!(rows_match(&far, &want)
            .unwrap_err()
            .contains("row 0 column 1"));
        // Keys and strings are exact; order matters; counts matter.
        assert!(rows_match(&[row(1, 1000.0, "a"), row(3, 0.5, "b")], &want).is_err());
        assert!(rows_match(&[row(1, 1000.0, "a"), row(2, 0.5, "B")], &want).is_err());
        assert!(rows_match(&[row(2, 0.5, "b"), row(1, 1000.0, "a")], &want).is_err());
        assert!(rows_match(&want[..1], &want)
            .unwrap_err()
            .contains("1 rows, expected 2"));
    }

    #[test]
    fn comparator_handles_null_nan_and_type_differences() {
        let null = vec![vec![Value::Null]];
        assert!(rows_match(&null, &null).is_ok());
        assert!(rows_match(&null, &[vec![Value::I64(0)]]).is_err());
        let nan = vec![vec![Value::F64(f64::NAN)]];
        assert!(rows_match(&nan, &nan).is_ok());
        assert!(rows_match(&nan, &[vec![Value::F64(1.0)]]).is_err());
        assert!(rows_match(&[vec![Value::I64(1)]], &[vec![Value::Str("1".into())]]).is_err());
        assert!(rows_match(
            &[vec![Value::I64(1), Value::I64(2)]],
            &[vec![Value::I64(1)]]
        )
        .is_err());
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut c = Checks::default();
        c.pass();
        c.record(Ok(()));
        c.record(Err("boom".into()));
        let mut d = Checks::default();
        d.fail("bang".into());
        c.merge(d);
        assert_eq!((c.attempted, c.failed), (4, 2));
        assert_eq!(c.messages, vec!["boom".to_string(), "bang".to_string()]);
    }
}
