//! The vectorized projection: evaluates output expressions per batch.
//!
//! Compacts its input first (string-producing kernels want dense lanes), so
//! a `Filter → Project` pipeline materializes survivors exactly once. An
//! output that is a plain column reference is the input's vector itself,
//! moved out of the compacted batch once nothing else reads it: whatever
//! form it came in — a dictionary vector under a `GROUP BY` key, say — is
//! the form it leaves in.

use crate::batch::{Batch, ExecVector};
use crate::vexpr::ExprEvaluator;
use vw_common::{DataType, Field, Result, Schema, VwError};
use vw_plan::Expr;

use super::{BoxedOperator, Operator};

/// Projection operator.
pub struct VecProject {
    input: BoxedOperator,
    exprs: Vec<ExprEvaluator>,
    /// Per output that is a plain column reference: the input column, and
    /// whether this output is the last one to want it (the vector is moved)
    /// or an earlier one (it is copied). Computed outputs run first.
    passed: Vec<Option<(usize, bool)>>,
    schema: Schema,
}

impl VecProject {
    pub fn new(
        input: BoxedOperator,
        exprs: Vec<(Expr, String)>,
        naive_nulls: bool,
    ) -> Result<VecProject> {
        let in_schema = input.schema().clone();
        let mut evaluators = Vec::with_capacity(exprs.len());
        let mut fields = Vec::with_capacity(exprs.len());
        for (e, name) in exprs {
            let nullable = e.nullable(&in_schema);
            let ev = ExprEvaluator::new(e, &in_schema, naive_nulls)?;
            fields.push(Field {
                name,
                ty: ev.output_type(),
                nullable,
            });
            evaluators.push(ev);
        }
        let mut passed: Vec<Option<(usize, bool)>> = evaluators
            .iter()
            .map(|ev| match ev.expr() {
                Expr::Col(c) => Some((*c, false)),
                _ => None,
            })
            .collect();
        let mut taken = Vec::new();
        for (c, last) in passed.iter_mut().rev().flatten() {
            *last = !taken.contains(c);
            taken.push(*c);
        }
        Ok(VecProject {
            input,
            exprs: evaluators,
            passed,
            schema: Schema::new(fields),
        })
    }
}

impl Operator for VecProject {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        let Some(batch) = self.input.next()? else {
            return Ok(None);
        };
        let mut dense = batch.compact();
        let mut columns: Vec<Option<ExecVector>> = Vec::with_capacity(self.exprs.len());
        for (ev, passed) in self.exprs.iter().zip(&self.passed) {
            columns.push(match passed {
                None => Some(ev.eval(&dense)?),
                Some(_) => None,
            });
        }
        let missing = || VwError::Exec("projected column missing from the batch".into());
        for (out, passed) in columns.iter_mut().zip(&self.passed) {
            let Some((c, last)) = *passed else { continue };
            let col = dense.columns.get_mut(c).ok_or_else(missing)?;
            *out = Some(match last {
                true => std::mem::replace(col, ExecVector::empty(DataType::Bool)),
                false => col.clone(),
            });
        }
        let mut out = Batch::new(columns.into_iter().flatten().collect());
        out.rows = dense.rows; // zero-column projections keep row counts
        Ok(Some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{collect_rows, BatchSource, VecFilter};
    use vw_common::{DataType, Value};
    use vw_plan::BinOp;

    fn source() -> BoxedOperator {
        let schema = Schema::new(vec![
            Field::new("a", DataType::I64),
            Field::new("b", DataType::F64),
        ]);
        let rows: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![Value::I64(i), Value::F64(i as f64 / 2.0)])
            .collect();
        Box::new(BatchSource::from_rows(schema, &rows, 4).unwrap())
    }

    #[test]
    fn computes_expressions() {
        let mut p = VecProject::new(
            source(),
            vec![
                (
                    Expr::binary(BinOp::Mul, Expr::col(0), Expr::lit(Value::I64(10))),
                    "a10".into(),
                ),
                (Expr::col(1), "b".into()),
            ],
            false,
        )
        .unwrap();
        assert_eq!(p.schema().field(0).name, "a10");
        assert_eq!(p.schema().field(0).ty, DataType::I64);
        let rows = collect_rows(&mut p).unwrap();
        assert_eq!(rows[3], vec![Value::I64(30), Value::F64(1.5)]);
    }

    #[test]
    fn compacts_filtered_input() {
        let f = VecFilter::new(
            source(),
            Expr::binary(BinOp::Ge, Expr::col(0), Expr::lit(Value::I64(8))),
            false,
        )
        .unwrap();
        let mut p = VecProject::new(
            Box::new(f),
            vec![(
                Expr::binary(BinOp::Add, Expr::col(0), Expr::lit(Value::I64(1))),
                "a1".into(),
            )],
            false,
        )
        .unwrap();
        let rows = collect_rows(&mut p).unwrap();
        assert_eq!(rows, vec![vec![Value::I64(9)], vec![Value::I64(10)]]);
    }
}
