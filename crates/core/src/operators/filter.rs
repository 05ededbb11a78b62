//! The vectorized filter: evaluates a boolean expression per batch and emits
//! a *selection vector* — no survivor copying (the X100 selection idiom).
//!
//! The predicate's top-level conjuncts are compiled separately and evaluated
//! as a chain: each conjunct refines the batch's selection vector, and an
//! empty selection short-circuits the rest. A conjunct therefore only sees
//! rows that survived the conjuncts before it — the same rule the scan's
//! pushed conjuncts follow — and the chain drops exactly the rows where any
//! conjunct is false or NULL, the set a single three-valued `AND` evaluation
//! keeps out. Conjuncts that can raise an error (a division, a cast) run
//! last, in plan order, so no reordering can make a statement fail that the
//! written order lets pass; an adaptive filter re-ranks the others by
//! observed cost and selectivity (see [`crate::adapt`]).

use crate::adapt::{
    encode_order, AdaptiveOrder, FILTER_RERANK_BATCHES, MAX_REPORTED_CONJUNCTS, PRED_EVAL_KEYS,
    PRED_PASS_KEYS,
};
use crate::batch::Batch;
use crate::vexpr::ExprEvaluator;
use std::time::Instant;
use vw_common::{Result, Schema};
use vw_plan::Expr;

use super::{BoxedOperator, Operator};

/// Filter operator.
pub struct VecFilter {
    input: BoxedOperator,
    /// Per-conjunct evaluators: those that cannot fail in plan order, then
    /// those that can, in plan order.
    conjuncts: Vec<ExprEvaluator>,
    adapt: AdaptiveOrder,
    schema: Schema,
}

impl VecFilter {
    pub fn new(input: BoxedOperator, predicate: Expr, naive_nulls: bool) -> Result<VecFilter> {
        Self::with_adaptivity(input, predicate, naive_nulls, false)
    }

    /// Like [`VecFilter::new`]; `adaptive` lets the order of the conjuncts
    /// follow what the filter observes of them, where there is more than
    /// one to order. The naive-NULL mode (experiment E8) keeps the static
    /// order — it exists to model an engine *without* these optimizations.
    pub fn with_adaptivity(
        input: BoxedOperator,
        predicate: Expr,
        naive_nulls: bool,
        adaptive: bool,
    ) -> Result<VecFilter> {
        let schema = input.schema().clone();
        let mut parts = Vec::new();
        vw_plan::rewrite::pushdown::split_conjunction(&predicate, &mut parts);
        // Stable: plan order on either side.
        parts.sort_by_key(|e| e.can_raise());
        let infallible = parts.iter().filter(|e| !e.can_raise()).count();
        let conjuncts = parts
            .into_iter()
            .map(|e| ExprEvaluator::new(e, &schema, naive_nulls))
            .collect::<Result<Vec<_>>>()?;
        let adaptive = adaptive && !naive_nulls && infallible > 1;
        let adapt = AdaptiveOrder::new(conjuncts.len(), FILTER_RERANK_BATCHES, adaptive)
            .pin_tail(infallible);
        Ok(VecFilter {
            input,
            conjuncts,
            adapt,
            schema,
        })
    }
}

impl Operator for VecFilter {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn profile_extras(&self) -> Vec<(&'static str, u64)> {
        let mut v = Vec::new();
        if self.adapt.enabled() {
            v.push(("adapt_order", encode_order(self.adapt.order())));
            if self.adapt.reorders() > 0 {
                v.push(("adapt_reorders", self.adapt.reorders()));
            }
            for (i, s) in self
                .adapt
                .stats()
                .iter()
                .enumerate()
                .take(MAX_REPORTED_CONJUNCTS)
            {
                if s.evals > 0 {
                    v.push((PRED_PASS_KEYS[i], (s.pass_rate() * 100.0).round() as u64));
                    v.push((PRED_EVAL_KEYS[i], s.evals));
                }
            }
        }
        v
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        while let Some(mut batch) = self.input.next()? {
            self.adapt.tick();
            let mut clock = self.adapt.enabled().then(Instant::now);
            for at in 0..self.conjuncts.len() {
                let cid = self.adapt.order()[at];
                let rows_in = batch.len();
                let kept = self.conjuncts[cid].narrow(&mut batch)?;
                let mut ns = 0;
                super::lap(&mut clock, &mut ns);
                self.adapt.observe(cid, rows_in, kept, ns);
                if kept == 0 {
                    break;
                }
            }
            if !batch.is_empty() {
                return Ok(Some(batch));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{collect_rows, BatchSource};
    use vw_common::{DataType, Field, Value};
    use vw_plan::BinOp;

    fn source() -> BoxedOperator {
        let schema = Schema::new(vec![
            Field::new("k", DataType::I64),
            Field::nullable("v", DataType::I64),
        ]);
        let rows: Vec<Vec<Value>> = (0..20)
            .map(|i| {
                vec![
                    Value::I64(i),
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::I64(i * 2)
                    },
                ]
            })
            .collect();
        Box::new(BatchSource::from_rows(schema, &rows, 6).unwrap())
    }

    #[test]
    fn basic_filtering() {
        let f = VecFilter::new(
            source(),
            Expr::binary(BinOp::Ge, Expr::col(0), Expr::lit(Value::I64(15))),
            false,
        )
        .unwrap();
        let mut f = f;
        let rows = collect_rows(&mut f).unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0][0], Value::I64(15));
    }

    #[test]
    fn null_predicate_rows_are_dropped() {
        // v > 0 is NULL where v is NULL → those rows dropped.
        let mut f = VecFilter::new(
            source(),
            Expr::binary(BinOp::Gt, Expr::col(1), Expr::lit(Value::I64(-1))),
            false,
        )
        .unwrap();
        let rows = collect_rows(&mut f).unwrap();
        assert_eq!(rows.len(), 16); // 20 - 4 nulls (i=0,5,10,15)
    }

    #[test]
    fn chained_filters_intersect_selections() {
        let f1 = VecFilter::new(
            source(),
            Expr::binary(BinOp::Ge, Expr::col(0), Expr::lit(Value::I64(5))),
            false,
        )
        .unwrap();
        let mut f2 = VecFilter::new(
            Box::new(f1),
            Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit(Value::I64(8))),
            false,
        )
        .unwrap();
        let rows = collect_rows(&mut f2).unwrap();
        assert_eq!(
            rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
            vec![Value::I64(5), Value::I64(6), Value::I64(7)]
        );
    }

    #[test]
    fn all_filtered_batches_are_skipped() {
        let mut f = VecFilter::new(
            source(),
            Expr::binary(BinOp::Gt, Expr::col(0), Expr::lit(Value::I64(100))),
            false,
        )
        .unwrap();
        assert!(f.next().unwrap().is_none());
    }

    #[test]
    fn non_boolean_predicate_errors() {
        let mut f = VecFilter::new(source(), Expr::col(0), false).unwrap();
        assert!(f.next().is_err());
    }

    /// Adaptive conjunct mode must drop exactly the rows the single-pass
    /// evaluation drops — including rows where a conjunct is NULL.
    #[test]
    fn adaptive_conjuncts_match_static_results() {
        let pred = Expr::and(
            // NULL where v is NULL → row dropped either way.
            Expr::binary(BinOp::Ge, Expr::col(1), Expr::lit(Value::I64(0))),
            Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit(Value::I64(17))),
        );
        let mut stat = VecFilter::new(source(), pred.clone(), false).unwrap();
        let want = collect_rows(&mut stat).unwrap();
        let mut adpt = VecFilter::with_adaptivity(source(), pred, false, true).unwrap();
        let got = collect_rows(&mut adpt).unwrap();
        assert_eq!(want, got);
        assert!(!want.is_empty());
        // Per-conjunct stats were observed and surfaced.
        let extras = adpt.profile_extras();
        assert!(extras.iter().any(|(k, _)| *k == "adapt_order"));
        assert!(extras.iter().any(|(k, _)| *k == "pred0_pass_pct"));
    }

    /// A single-conjunct predicate has nothing to order.
    #[test]
    fn single_conjunct_stays_static() {
        let pred = Expr::binary(BinOp::Ge, Expr::col(0), Expr::lit(Value::I64(3)));
        let f = VecFilter::with_adaptivity(source(), pred, false, true).unwrap();
        assert!(!f.adapt.enabled());
        assert!(f.profile_extras().is_empty());
    }

    /// A conjunct sees only the rows the conjuncts before it left, and one
    /// that can raise runs after those that cannot, however the predicate
    /// was written and whatever the filter has observed.
    #[test]
    fn fallible_conjuncts_run_last_on_the_survivors() {
        // 10 / k raises on the k = 0 row unless `k <> 0` went first.
        let div = Expr::binary(
            BinOp::Gt,
            Expr::binary(BinOp::Div, Expr::lit(Value::I64(10)), Expr::col(0)),
            Expr::lit(Value::I64(1)),
        );
        let nonzero = Expr::binary(BinOp::Ne, Expr::col(0), Expr::lit(Value::I64(0)));
        let small = Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit(Value::I64(19)));
        let written = [
            Expr::and(nonzero.clone(), Expr::and(div.clone(), small.clone())),
            Expr::and(div.clone(), Expr::and(small, nonzero)),
        ];
        for pred in written {
            for adaptive in [false, true] {
                let mut f =
                    VecFilter::with_adaptivity(source(), pred.clone(), false, adaptive).unwrap();
                let rows = collect_rows(&mut f).unwrap();
                // 10 / k > 1 for k in 1..=4 (integer division: 10 / 5 = 2 too).
                let ks: Vec<Value> = rows.iter().map(|r| r[0].clone()).collect();
                assert_eq!(ks, (1..=5).map(Value::I64).collect::<Vec<_>>());
                assert_eq!(
                    *f.adapt.order().last().unwrap(),
                    2,
                    "the division stays last"
                );
            }
        }
        // On its own the division meets the zero.
        let mut f = VecFilter::new(source(), div, false).unwrap();
        assert!(f.next().is_err());
    }
}
