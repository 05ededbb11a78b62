//! The vectorized projection: evaluates output expressions per batch.
//!
//! Compacts its input first (string-producing kernels want dense lanes), so
//! a `Filter → Project` pipeline materializes survivors exactly once. An
//! output that is a plain column reference is the input's vector itself,
//! moved out of the compacted batch once nothing else reads it: whatever
//! form it came in — a dictionary vector under a `GROUP BY` key, say — is
//! the form it leaves in.
//!
//! An output that contains an earlier computed output as a subexpression
//! reads that output's vector instead of evaluating it again: Q1's
//! `price * (1 - disc) * (1 + tax)` multiplies the `price * (1 - disc)`
//! computed for the output before it. Each computed output is appended to
//! the batch as it is evaluated, and the later expression is compiled
//! against the widened batch with the subexpression replaced by a reference
//! to that column. The appended vector is the subexpression's value before
//! the output's final cast, exactly what evaluating it in place would give.

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
    /// Columns of the input.
    width: usize,
    schema: Schema,
}

impl VecProject {
    pub fn new(
        input: BoxedOperator,
        exprs: Vec<(Expr, String)>,
        naive_nulls: bool,
    ) -> Result<VecProject> {
        let in_schema = input.schema().clone();
        let width = in_schema.len();
        // Each computed output so far, and its type.
        let mut computed: Vec<(Expr, DataType)> = Vec::new();
        let mut evaluators = Vec::with_capacity(exprs.len());
        let mut fields = Vec::with_capacity(exprs.len());
        for (e, name) in exprs {
            let nullable = e.nullable(&in_schema);
            let ev = match e {
                Expr::Col(_) => ExprEvaluator::new(e, &in_schema, naive_nulls)?,
                _ => {
                    let reused = match naive_nulls {
                        true => e.clone(),
                        false => e.map_children(&mut |c| reuse(c, &computed, width)),
                    };
                    let ev = if reused == e {
                        ExprEvaluator::new(reused, &in_schema, naive_nulls)?
                    } else {
                        // The input's columns, then the computed outputs.
                        let earlier = computed.iter().map(|(_, ty)| Field::nullable("", *ty));
                        let widened = in_schema.fields().iter().cloned().chain(earlier);
                        ExprEvaluator::new(reused, &Schema::new(widened.collect()), naive_nulls)?
                    };
                    computed.push((e, ev.output_type()));
                    ev
                }
            };
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
            width,
            schema: Schema::new(fields),
        })
    }
}

/// `e` with every subexpression equal to computed output `j` (of the
/// `computed` so far) replaced by a reference to it, column `width + j`.
/// Column references and literals are left alone: reading them costs
/// nothing to begin with.
fn reuse(e: &Expr, computed: &[(Expr, DataType)], width: usize) -> Expr {
    let repeat = match e {
        Expr::Col(_) | Expr::Lit(_) => None,
        _ => computed.iter().position(|(c, _)| c == e),
    };
    match repeat {
        Some(j) => Expr::Col(width + j),
        None => e.map_children(&mut |c| reuse(c, computed, width)),
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
        if dense.columns.len() != self.width {
            return Err(VwError::Exec(format!(
                "projection input has {} columns, expected {}",
                dense.columns.len(),
                self.width
            )));
        }
        // Computed outputs first, each appended to the batch for the
        // outputs after it.
        for (ev, passed) in self.exprs.iter().zip(&self.passed) {
            if passed.is_none() {
                let v = ev.eval_unfinished(&dense)?;
                dense.columns.push(v);
            }
        }
        let take = |col: &mut ExecVector| std::mem::replace(col, ExecVector::empty(DataType::Bool));
        let mut columns: Vec<ExecVector> = Vec::with_capacity(self.exprs.len());
        let mut computed = self.width;
        for (ev, passed) in self.exprs.iter().zip(&self.passed) {
            columns.push(match *passed {
                Some((c, true)) => take(&mut dense.columns[c]),
                Some((c, false)) => dense.columns[c].clone(),
                None => {
                    computed += 1;
                    ev.finish(take(&mut dense.columns[computed - 1]), None)?
                }
            });
        }
        let mut out = Batch::new(columns);
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

    /// Outputs that repeat an earlier computed output as a subtree — at the
    /// top of a product, inside a CASE branch — read its vector, over NULL
    /// lanes and a filtered input, and equal evaluating each expression
    /// whole.
    #[test]
    fn repeated_subexpressions_read_the_earlier_output() {
        let schema = Schema::new(vec![
            Field::nullable("a", DataType::I64),
            Field::nullable("b", DataType::F64),
            Field::new("c", DataType::F64),
        ]);
        let rows: Vec<Vec<Value>> = (0..40)
            .map(|i| {
                vec![
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::I64(i)
                    },
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::F64(i as f64 * 1.5)
                    },
                    Value::F64((i % 4) as f64 / 10.0),
                ]
            })
            .collect();
        let input = || -> BoxedOperator {
            let src = Box::new(BatchSource::from_rows(schema.clone(), &rows, 16).unwrap());
            let keep = Expr::binary(BinOp::Lt, Expr::col(2), Expr::lit(Value::F64(0.25)));
            Box::new(VecFilter::new(src, keep, false).unwrap())
        };
        let f = |v: f64| Expr::lit(Value::F64(v));
        let disc = Expr::binary(
            BinOp::Mul,
            Expr::col(1),
            Expr::binary(BinOp::Sub, f(1.0), Expr::col(2)),
        );
        let plus_c = Expr::binary(BinOp::Add, f(1.0), Expr::col(2));
        let a1 = Expr::binary(BinOp::Add, Expr::col(0), Expr::lit(Value::I64(1)));
        let exprs = vec![
            (disc.clone(), "disc".to_string()),
            (
                Expr::binary(BinOp::Mul, disc.clone(), plus_c.clone()),
                "charge".into(),
            ),
            (
                Expr::Case {
                    whens: vec![(
                        Expr::binary(BinOp::Gt, Expr::col(0), Expr::lit(Value::I64(20))),
                        disc.clone(),
                    )],
                    otherwise: Some(Box::new(f(0.0))),
                },
                "case".into(),
            ),
            (Expr::col(0), "a".into()),
            (a1.clone(), "a1".into()),
            (
                Expr::binary(BinOp::Mul, a1, Expr::lit(Value::I64(2))),
                "a2".into(),
            ),
        ];
        let mut p = VecProject::new(input(), exprs.clone(), false).unwrap();
        // Input columns 0..3, then the computed outputs disc, charge, case, a1.
        assert_eq!(
            p.exprs[1].expr(),
            &Expr::binary(BinOp::Mul, Expr::col(3), plus_c)
        );
        let Expr::Case { whens, .. } = p.exprs[2].expr() else {
            panic!("CASE expected");
        };
        assert_eq!(whens[0].1, Expr::col(3));
        assert_eq!(
            p.exprs[5].expr(),
            &Expr::binary(BinOp::Mul, Expr::col(6), Expr::lit(Value::I64(2)))
        );
        let got = collect_rows(&mut p).unwrap();
        // Each expression on its own: nothing to reuse.
        let alone: Vec<Vec<Vec<Value>>> = exprs
            .into_iter()
            .map(|e| collect_rows(&mut VecProject::new(input(), vec![e], false).unwrap()).unwrap())
            .collect();
        let want: Vec<Vec<Value>> = (0..got.len())
            .map(|r| alone.iter().map(|rows| rows[r][0].clone()).collect())
            .collect();
        assert_eq!(got.len(), 30);
        assert!(got.iter().any(|r| r[1].is_null()) && got.iter().any(|r| r[4].is_null()));
        assert_eq!(got, want);
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
