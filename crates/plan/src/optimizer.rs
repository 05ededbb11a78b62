//! Cardinality estimation and cost-based join enumeration.
//!
//! Mirrors the division of labour in the product (§I-B): the front-end
//! optimizer (Ingres there, this module here) uses histogram statistics to
//! estimate cardinalities and decide join order and build sides before the
//! engine runs the plan, while rule-based rewriting happens separately in
//! [`crate::rewrite`].
//!
//! * **Estimates** ([`estimate_rows_with`]) — histogram selectivities for
//!   filters, join sizes from the distinct counts of the key columns traced to
//!   their base tables, semi-join and group counts from the same distinct
//!   counts, each node optionally corrected by execution history
//!   ([`crate::feedback`]). `EXPLAIN ANALYZE`, feedback recording and the
//!   enumerator all read this one function.
//! * **Join enumeration** ([`optimize_with_feedback`]) — semi/anti joins are
//!   first pushed onto the table they filter; then every region of inner
//!   joins is reordered by dynamic programming over its join graph (greedy
//!   pair-merging for very large regions), which also picks each join's build
//!   side. See the `joins` module for the region model and the cost.

mod joins;

use crate::expr::{BinOp, Expr, UnOp};
use crate::feedback::{self, CardFeedback};
use crate::plan::{JoinKind, LogicalPlan};
use crate::rewrite::pushdown::push_down_semi_joins;
use crate::stats::TableStats;
use std::collections::HashMap;
use vw_common::{Schema, TableId, Value};

/// Default selectivity guesses when histograms can't answer.
const DEFAULT_EQ_SEL: f64 = 0.05;
const DEFAULT_RANGE_SEL: f64 = 0.3;
const DEFAULT_OTHER_SEL: f64 = 0.5;

/// Estimate the selectivity of a predicate over a relation with `stats`.
/// `col_map` translates expression column indexes to stats column indexes
/// (identity for unprojected scans).
#[allow(clippy::only_used_in_recursion)]
pub fn selectivity(
    e: &Expr,
    schema: &Schema,
    stats: Option<&TableStats>,
    col_map: &dyn Fn(usize) -> Option<usize>,
) -> f64 {
    match e {
        Expr::Binary {
            op: BinOp::And,
            l,
            r,
        } => selectivity(l, schema, stats, col_map) * selectivity(r, schema, stats, col_map),
        Expr::Binary {
            op: BinOp::Or,
            l,
            r,
        } => {
            let a = selectivity(l, schema, stats, col_map);
            let b = selectivity(r, schema, stats, col_map);
            (a + b - a * b).min(1.0)
        }
        Expr::Unary { op: UnOp::Not, e } => 1.0 - selectivity(e, schema, stats, col_map),
        Expr::Binary { op, l, r } if op.is_comparison() => {
            // col <op> literal is the estimable shape.
            let (col, lit, op) = match (&**l, &**r) {
                (Expr::Col(i), Expr::Lit(v)) => (*i, v.clone(), *op),
                (Expr::Lit(v), Expr::Col(i)) => (*i, v.clone(), flip(*op)),
                _ => {
                    return match op {
                        BinOp::Eq => DEFAULT_EQ_SEL,
                        _ => DEFAULT_RANGE_SEL,
                    }
                }
            };
            estimate_cmp(col, op, &lit, stats, col_map)
        }
        Expr::InList { list, negated, .. } => {
            let s = (DEFAULT_EQ_SEL * list.len() as f64).min(1.0);
            if *negated {
                1.0 - s
            } else {
                s
            }
        }
        Expr::Like { negated, .. } => {
            if *negated {
                1.0 - 0.1
            } else {
                0.1
            }
        }
        Expr::Unary {
            op: UnOp::IsNull, ..
        } => 0.05,
        Expr::Unary {
            op: UnOp::IsNotNull,
            ..
        } => 0.95,
        Expr::Lit(Value::Bool(true)) => 1.0,
        Expr::Lit(Value::Bool(false)) => 0.0,
        _ => DEFAULT_OTHER_SEL,
    }
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

fn estimate_cmp(
    col: usize,
    op: BinOp,
    lit: &Value,
    stats: Option<&TableStats>,
    col_map: &dyn Fn(usize) -> Option<usize>,
) -> f64 {
    let Some(ts) = stats else {
        return if op == BinOp::Eq {
            DEFAULT_EQ_SEL
        } else {
            DEFAULT_RANGE_SEL
        };
    };
    let Some(sc) = col_map(col).and_then(|i| ts.cols.get(i)) else {
        return DEFAULT_RANGE_SEL;
    };
    let x = match lit
        .as_f64()
        .or_else(|| lit.as_i64().map(|v| v as f64))
        // Date-shaped string literals (`col < '1995-01-01'` without an
        // explicit DATE cast) still get the histogram path: Date columns
        // build histograms over their day numbers.
        .or_else(|| {
            lit.as_str()
                .and_then(vw_common::date::parse_date)
                .map(|d| d as f64)
        }) {
        Some(x) => x,
        None => {
            // Plain string literal: equality can use the distinct count,
            // but ranges (`name < 'M'`) have no histogram to consult —
            // use the default range selectivity, never an equality guess.
            let nd = sc.n_distinct.max(1) as f64;
            return match op {
                BinOp::Eq => 1.0 / nd,
                BinOp::Ne => 1.0 - 1.0 / nd,
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => DEFAULT_RANGE_SEL,
                _ => DEFAULT_OTHER_SEL,
            };
        }
    };
    match (&sc.histogram, op) {
        (Some(h), BinOp::Lt) => h.fraction_below(x),
        (Some(h), BinOp::Le) => h.fraction_below(x) + h.eq_selectivity(x, sc.n_distinct),
        (Some(h), BinOp::Gt) => 1.0 - h.fraction_below(x) - h.eq_selectivity(x, sc.n_distinct),
        (Some(h), BinOp::Ge) => 1.0 - h.fraction_below(x),
        (Some(h), BinOp::Eq) => h.eq_selectivity(x, sc.n_distinct),
        (Some(h), BinOp::Ne) => 1.0 - h.eq_selectivity(x, sc.n_distinct),
        (None, BinOp::Eq) => 1.0 / sc.n_distinct as f64,
        (None, BinOp::Ne) => 1.0 - 1.0 / sc.n_distinct as f64,
        _ => DEFAULT_RANGE_SEL,
    }
    .clamp(0.0, 1.0)
}

/// Estimate output cardinality of a plan.
pub fn estimate_rows(plan: &LogicalPlan, stats: &HashMap<TableId, TableStats>) -> f64 {
    estimate_rows_with(plan, stats, None)
}

/// Estimate output cardinality, multiplying in any history-learned
/// correction factor for this node's normalized shape (see
/// [`crate::feedback`]). `fb = None` reproduces the static estimate.
pub fn estimate_rows_with(
    plan: &LogicalPlan,
    stats: &HashMap<TableId, TableStats>,
    fb: Option<&CardFeedback>,
) -> f64 {
    let base = estimate_rows_static(plan, stats, fb);
    if let Some(fb) = fb {
        if feedback::recordable(plan) {
            if let Some(f) = fb.factor(feedback::fingerprint(plan)) {
                return (base * f).max(1.0);
            }
        }
    }
    base
}

fn estimate_rows_static(
    plan: &LogicalPlan,
    stats: &HashMap<TableId, TableStats>,
    fb: Option<&CardFeedback>,
) -> f64 {
    let est = |p: &LogicalPlan| estimate_rows_with(p, stats, fb);
    match plan {
        LogicalPlan::Scan {
            table_id,
            schema,
            projection,
            filter,
            ..
        } => {
            let ts = stats.get(table_id);
            let base = ts.map(|t| t.n_rows as f64).unwrap_or(1000.0);
            match filter {
                Some(f) => {
                    let proj = projection.clone();
                    let sel = selectivity(f, schema, ts, &|i| match &proj {
                        Some(p) => p.get(i).copied(),
                        None => Some(i),
                    });
                    base * sel
                }
                None => base,
            }
        }
        // Inner joins, and filters over them, are costed as one region.
        LogicalPlan::Join {
            kind: JoinKind::Inner,
            ..
        }
        | LogicalPlan::MergeJoin { .. } => joins::region_rows(plan, stats, fb),
        LogicalPlan::Filter { input, .. } if joins::in_region(input) => {
            joins::region_rows(plan, stats, fb)
        }
        LogicalPlan::Filter { input, predicate } => est(input) * conjunct_selectivity(predicate),
        LogicalPlan::Project { input, .. } => est(input),
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            residual,
        } => {
            let l = est(left);
            // A left row is matched when a right row has its keys and passes
            // the residual with it.
            let matched = || {
                let res = residual.as_ref().map_or(1.0, conjunct_selectivity);
                semi_fraction(left, right, on, stats, fb) * res
            };
            match kind {
                // At least one row: an estimate of zero makes every join
                // above it zero too.
                JoinKind::Semi => (l * matched()).max(1.0),
                JoinKind::Anti => (l * (1.0 - matched())).max(1.0),
                // Every left row of a LEFT join comes out at least once.
                _ => joins::pair_rows(left, right, on, residual, stats, fb).max(l),
            }
        }
        LogicalPlan::Aggregate {
            input, group_by, ..
        } => {
            let in_rows = est(input);
            if group_by.is_empty() {
                return 1.0;
            }
            // As many groups as key combinations, at most one per input row;
            // the square-root rule of thumb when a key has no statistics.
            let combos: Option<f64> = group_by
                .iter()
                .map(|&g| column_ndv(input, g, stats, fb))
                .product();
            match combos {
                Some(c) => c.min(in_rows).max(1.0),
                None => in_rows.sqrt().max(1.0),
            }
        }
        LogicalPlan::Sort { input, .. } | LogicalPlan::Exchange { input, .. } => est(input),
        LogicalPlan::Limit { input, fetch, .. } => est(input).min(*fetch as f64),
    }
}

/// Selectivity of a predicate with no statistics at hand: the product of its
/// conjuncts' default selectivities. Filters above scans and join residuals
/// are costed this way; the join enumerator costs each conjunct it places
/// with the same function.
fn conjunct_selectivity(e: &Expr) -> f64 {
    selectivity(e, &Schema::default(), None, &|i| Some(i))
}

/// Fraction of left rows a semi join keeps: distinct right keys over
/// distinct left keys, at most 1 (every right key is assumed to occur on the
/// left). One half when the left key has no statistics.
fn semi_fraction(
    left: &LogicalPlan,
    right: &LogicalPlan,
    on: &[(usize, usize)],
    stats: &HashMap<TableId, TableStats>,
    fb: Option<&CardFeedback>,
) -> f64 {
    let (l_rows, r_rows) = (
        estimate_rows_with(left, stats, fb),
        estimate_rows_with(right, stats, fb),
    );
    let (mut l_keys, mut r_keys) = (1.0, 1.0);
    for &(l, r) in on {
        let Some(d) = column_ndv(left, l, stats, fb) else {
            return 0.5;
        };
        l_keys *= d;
        r_keys *= column_ndv(right, r, stats, fb).unwrap_or(r_rows);
    }
    (r_keys.min(r_rows) / l_keys.min(l_rows).max(1.0)).min(1.0)
}

/// Distinct values of output column `col` of `plan`, traced through
/// projections, filters, joins and group keys to the base table's
/// statistics and capped by every node's estimated rows on the way up —
/// except inner joins, which pass their inputs' counts through so that a key
/// is costed by the leaf it comes from. `None` when the column is computed or
/// its table has no statistics.
fn column_ndv(
    plan: &LogicalPlan,
    col: usize,
    stats: &HashMap<TableId, TableStats>,
    fb: Option<&CardFeedback>,
) -> Option<f64> {
    let capped = |d: Option<f64>| d.map(|d| d.min(estimate_rows_with(plan, stats, fb)));
    match plan {
        LogicalPlan::Scan {
            table_id,
            projection,
            ..
        } => {
            let c = match projection {
                Some(p) => *p.get(col)?,
                None => col,
            };
            let ndv = stats.get(table_id)?.cols.get(c)?.n_distinct as f64;
            capped(Some(ndv))
        }
        LogicalPlan::Filter { input, .. } | LogicalPlan::Limit { input, .. } => {
            capped(column_ndv(input, col, stats, fb))
        }
        LogicalPlan::Sort { input, .. } | LogicalPlan::Exchange { input, .. } => {
            column_ndv(input, col, stats, fb)
        }
        LogicalPlan::Project { input, exprs } => match exprs.get(col)?.0 {
            Expr::Col(j) => capped(column_ndv(input, j, stats, fb)),
            _ => None,
        },
        LogicalPlan::Join {
            left, right, kind, ..
        } => {
            let lw = left.width();
            match kind {
                JoinKind::Semi | JoinKind::Anti => capped(column_ndv(left, col, stats, fb)),
                _ if col < lw => column_ndv(left, col, stats, fb),
                _ => column_ndv(right, col - lw, stats, fb),
            }
        }
        LogicalPlan::MergeJoin { left, right, .. } => {
            let lw = left.width();
            if col < lw {
                column_ndv(left, col, stats, fb)
            } else {
                column_ndv(right, col - lw, stats, fb)
            }
        }
        LogicalPlan::Aggregate {
            input, group_by, ..
        } => capped(column_ndv(input, *group_by.get(col)?, stats, fb)),
    }
}

/// Weight of a hash-join build row against a probe row in the enumerator's
/// cost: the operator ladder's `core.join.build_mrows_per_s` over
/// `probe_mrows_per_s`, 163 / 42 (SF 0.1, 2-core x86-64 host). Above 1, it
/// makes building on the smaller input the cheaper orientation of every
/// join, so the cost and the build-side rule agree.
const BUILD_ROW_WEIGHT: f64 = 163.0 / 42.0;

/// Cost-based plan optimization without execution history; see
/// [`optimize_with_feedback`].
pub fn optimize(plan: LogicalPlan, stats: &HashMap<TableId, TableStats>) -> LogicalPlan {
    optimize_with_feedback(plan, stats, None)
}

/// The optimizer pass: push every semi/anti join onto the input it filters,
/// then order each inner-join region and pick its build sides (see
/// the `joins` module). Cardinalities come from [`estimate_rows_with`], so a learned
/// history correction on a leaf can change the order and flip a build side
/// that static statistics chose.
pub fn optimize_with_feedback(
    plan: LogicalPlan,
    stats: &HashMap<TableId, TableStats>,
    fb: Option<&CardFeedback>,
) -> LogicalPlan {
    joins::reorder(push_down_semi_joins(plan), stats, fb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{ColStats, Histogram};
    use vw_common::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::I64),
            Field::new("b", DataType::I64),
        ])
    }

    fn stats_uniform_0_100() -> TableStats {
        let samples: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        TableStats {
            n_rows: 10_000,
            cols: vec![
                ColStats {
                    n_distinct: 101,
                    null_fraction: 0.0,
                    histogram: Histogram::build(&samples),
                },
                ColStats {
                    n_distinct: 10,
                    null_fraction: 0.0,
                    histogram: None,
                },
            ],
        }
    }

    #[test]
    fn histogram_selectivity() {
        let s = stats_uniform_0_100();
        let e = Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit(Value::I64(25)));
        let sel = selectivity(&e, &schema(), Some(&s), &|i| Some(i));
        assert!((sel - 0.25).abs() < 0.05, "sel {}", sel);
        // flipped literal side
        let e2 = Expr::binary(BinOp::Gt, Expr::lit(Value::I64(25)), Expr::col(0));
        let sel2 = selectivity(&e2, &schema(), Some(&s), &|i| Some(i));
        assert!((sel2 - 0.25).abs() < 0.05, "sel2 {}", sel2);
        // conjunction multiplies
        let e3 = Expr::and(e.clone(), Expr::eq(Expr::col(1), Expr::lit(Value::I64(3))));
        let sel3 = selectivity(&e3, &schema(), Some(&s), &|i| Some(i));
        assert!((sel3 - 0.25 * 0.1).abs() < 0.02, "sel3 {}", sel3);
        // out of range equality
        let e4 = Expr::eq(Expr::col(0), Expr::lit(Value::I64(500)));
        assert_eq!(selectivity(&e4, &schema(), Some(&s), &|i| Some(i)), 0.0);
    }

    #[test]
    fn row_estimates_flow() {
        let mut stats = HashMap::new();
        stats.insert(TableId::new(1), stats_uniform_0_100());
        let scan = LogicalPlan::Scan {
            table: "t".into(),
            table_id: TableId::new(1),
            schema: schema(),
            projection: None,
            filter: Some(Expr::binary(
                BinOp::Lt,
                Expr::col(0),
                Expr::lit(Value::I64(50)),
            )),
        };
        let rows = estimate_rows(&scan, &stats);
        assert!((rows - 5000.0).abs() < 600.0, "rows {}", rows);
        let agg = scan.clone().aggregate(vec![0], vec![]);
        assert!(estimate_rows(&agg, &stats) < rows);
        let lim = scan.limit(0, 10);
        assert_eq!(estimate_rows(&lim, &stats), 10.0);
    }

    #[test]
    fn build_side_swap() {
        let mut stats = HashMap::new();
        stats.insert(
            TableId::new(1),
            TableStats::unknown(10, 2), // small
        );
        stats.insert(TableId::new(2), TableStats::unknown(100_000, 2));
        let small = LogicalPlan::Scan {
            table: "small".into(),
            table_id: TableId::new(1),
            schema: schema(),
            projection: None,
            filter: None,
        };
        let big = LogicalPlan::Scan {
            table: "big".into(),
            table_id: TableId::new(2),
            schema: schema(),
            projection: None,
            filter: None,
        };
        // small ⋈ big: left tiny → swap so big streams, small builds.
        let join = small
            .clone()
            .join(big.clone(), JoinKind::Inner, vec![(0, 1)]);
        let opt = optimize(join.clone(), &stats);
        match &opt {
            LogicalPlan::Project { input, .. } => match &**input {
                LogicalPlan::Join { left, on, .. } => {
                    assert!(matches!(&**left, LogicalPlan::Scan { table, .. } if table == "big"));
                    assert_eq!(on, &vec![(1, 0)]);
                }
                other => panic!("{}", other.describe()),
            },
            other => panic!("{}", other.explain()),
        }
        // schema preserved
        assert_eq!(opt.schema().unwrap(), join.schema().unwrap());
        // big ⋈ small: already good → untouched
        let join2 = big.join(small, JoinKind::Inner, vec![(0, 1)]);
        let opt2 = optimize(join2.clone(), &stats);
        assert_eq!(opt2, join2);
    }

    #[test]
    fn string_range_predicates_use_range_default() {
        // `name < 'M'` on a string column: no histogram exists, so the
        // estimate must be the default range selectivity — not the
        // distinct-based equality guess (1/n_distinct would call a half-open
        // alphabet range as selective as an exact match).
        let s = stats_uniform_0_100();
        let sch = Schema::new(vec![
            Field::new("a", DataType::Str),
            Field::new("b", DataType::I64),
        ]);
        for op in [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge] {
            let e = Expr::binary(op, Expr::col(0), Expr::lit(Value::Str("M".into())));
            let sel = selectivity(&e, &sch, Some(&s), &|i| Some(i));
            assert_eq!(sel, DEFAULT_RANGE_SEL, "{:?}", op);
        }
        // Equality still uses the distinct count (col 0 has 101 distinct).
        let eq = Expr::eq(Expr::col(0), Expr::lit(Value::Str("M".into())));
        let sel = selectivity(&eq, &sch, Some(&s), &|i| Some(i));
        assert!((sel - 1.0 / 101.0).abs() < 1e-9, "sel {}", sel);
    }

    #[test]
    fn date_string_literals_hit_the_histogram() {
        // A Date column's histogram is over day numbers; a date-shaped
        // string literal should parse into that domain instead of falling
        // back to the flat default.
        let base = vw_common::date::parse_date("1995-01-01").unwrap();
        let samples: Vec<f64> = (0..1000).map(|i| (base + i) as f64).collect();
        let s = TableStats {
            n_rows: 1000,
            cols: vec![ColStats {
                n_distinct: 1000,
                null_fraction: 0.0,
                histogram: Histogram::build(&samples),
            }],
        };
        let e = Expr::binary(
            BinOp::Lt,
            Expr::col(0),
            Expr::lit(Value::Str("1995-04-11".into())), // day 100 of 1000
        );
        let sel = selectivity(&e, &schema(), Some(&s), &|i| Some(i));
        assert!((sel - 0.1).abs() < 0.03, "sel {}", sel);
    }

    #[test]
    fn zero_distinct_does_not_divide_by_zero() {
        let s = TableStats {
            n_rows: 10,
            cols: vec![ColStats {
                n_distinct: 0,
                null_fraction: 1.0,
                histogram: None,
            }],
        };
        let e = Expr::eq(Expr::col(0), Expr::lit(Value::Str("x".into())));
        let sel = selectivity(&e, &schema(), Some(&s), &|i| Some(i));
        assert!(sel.is_finite() && (0.0..=1.0).contains(&sel));
    }

    #[test]
    fn feedback_flips_build_side() {
        use crate::feedback::CardFeedback;
        // Statically both sides look equal → no swap.
        let mut stats = HashMap::new();
        stats.insert(TableId::new(1), TableStats::unknown(1000, 2));
        stats.insert(TableId::new(2), TableStats::unknown(1000, 2));
        let l = LogicalPlan::scan("l", TableId::new(1), schema());
        let r = LogicalPlan::scan("r", TableId::new(2), schema());
        let join = l.clone().join(r.clone(), JoinKind::Inner, vec![(0, 1)]);
        assert_eq!(optimize(join.clone(), &stats), join);
        // History says the left side actually produces ~30x fewer rows than
        // estimated; with the correction the optimizer now swaps.
        let mut fb = CardFeedback::new();
        let l_fp = crate::feedback::fingerprint(&l);
        fb.record(l_fp, 1000.0, 40.0);
        fb.record(l_fp, 1000.0, 40.0);
        let opt = optimize_with_feedback(join.clone(), &stats, Some(&fb));
        assert!(
            matches!(&opt, LogicalPlan::Project { input, .. }
                if matches!(&**input, LogicalPlan::Join { left, .. }
                    if matches!(&**left, LogicalPlan::Scan { table, .. } if table == "r"))),
            "expected history-corrected swap, got:\n{}",
            opt.explain()
        );
        // Without feedback the plan is untouched.
        assert_eq!(optimize_with_feedback(join.clone(), &stats, None), join);
    }

    /// A table `name` of `rows` rows whose column `i` holds `ndv[i]` distinct
    /// values spread evenly over 0..=100.
    fn table(id: u64, name: &str, rows: u64, ndv: &[u64]) -> (LogicalPlan, TableStats) {
        let samples: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        let schema = Schema::new(
            (0..ndv.len())
                .map(|i| Field::new(format!("{name}{i}"), DataType::I64))
                .collect(),
        );
        let cols = ndv
            .iter()
            .map(|&n| ColStats {
                n_distinct: n,
                null_fraction: 0.0,
                histogram: Histogram::build(&samples),
            })
            .collect();
        (
            LogicalPlan::scan(name, TableId::new(id), schema),
            TableStats { n_rows: rows, cols },
        )
    }

    /// E12's Q9 shape: a fact table, a 1 000-row dimension (supplier), a
    /// 25-row dimension behind it (nation) and a 5%-filtered dimension
    /// (part), joined in the binder's left-deep written order.
    fn star() -> (LogicalPlan, HashMap<TableId, TableStats>) {
        let (f, fs) = table(1, "fact", 600_000, &[1000, 20_000, 1000]);
        let (s, ss) = table(2, "supp", 1000, &[1000, 25]);
        let (n, ns) = table(3, "nation", 25, &[25, 25]);
        let (p, ps) = table(4, "part", 20_000, &[20_000, 101]);
        let stats = [(1, fs), (2, ss), (3, ns), (4, ps)]
            .into_iter()
            .map(|(id, s)| (TableId::new(id), s))
            .collect();
        let part = p.filter(Expr::binary(
            BinOp::Lt,
            Expr::col(1),
            Expr::lit(Value::I64(5)),
        ));
        let part = crate::rewrite::push_down_filters(part);
        // fact 0..3, supp 3..5, nation 5..7, part 7..9
        let plan = f
            .join(s, JoinKind::Inner, vec![(0, 0)])
            .join(n, JoinKind::Inner, vec![(4, 0)])
            .join(part, JoinKind::Inner, vec![(1, 0)]);
        (plan, stats)
    }

    fn tables(p: &LogicalPlan, out: &mut Vec<String>) {
        if let LogicalPlan::Scan { table, .. } = p {
            out.push(table.clone());
        }
        for c in p.children() {
            tables(c, out);
        }
    }

    fn has_table(p: &LogicalPlan, name: &str) -> bool {
        let mut t = Vec::new();
        tables(p, &mut t);
        t.iter().any(|t| t == name)
    }

    #[test]
    fn fact_pipeline_is_never_the_build_side() {
        let (plan, stats) = star();
        let opt = optimize(plan.clone(), &stats);
        fn check(p: &LogicalPlan) {
            if let LogicalPlan::Join { right, .. } = p {
                assert!(!has_table(right, "fact"), "builds on the fact pipeline");
            }
            p.children().into_iter().for_each(check);
        }
        check(&opt);
        // The filtered dimension meets the fact table first.
        let mut lowest = &opt;
        loop {
            match lowest {
                LogicalPlan::Project { input, .. } => lowest = input,
                LogicalPlan::Join { left, right, .. } => {
                    match [left, right].into_iter().find(|c| has_table(c, "fact")) {
                        Some(c) if matches!(&**c, LogicalPlan::Join { .. }) => lowest = c,
                        _ => break,
                    }
                }
                other => panic!("unexpected node:\n{}", other.explain()),
            }
        }
        let mut joined = Vec::new();
        tables(lowest, &mut joined);
        joined.sort();
        assert_eq!(joined, ["fact", "part"], "\n{}", opt.explain());
        assert_eq!(opt.schema().unwrap(), plan.schema().unwrap());
    }

    #[test]
    fn foreign_key_join_is_as_large_as_the_fact_side() {
        let (f, fs) = table(1, "fact", 600_000, &[1000, 20_000, 1000]);
        let (s, ss) = table(2, "supp", 1000, &[1000, 25]);
        let stats = HashMap::from([(TableId::new(1), fs), (TableId::new(2), ss)]);
        let join = f.join(s, JoinKind::Inner, vec![(0, 0)]);
        let rows = estimate_rows(&join, &stats);
        assert!((rows - 600_000.0).abs() < 1.0, "rows {rows}");
    }

    #[test]
    fn region_estimate_does_not_depend_on_the_join_order() {
        let (plan, stats) = star();
        let written = estimate_rows(&plan, &stats);
        let opt = optimize(plan.clone(), &stats);
        let reordered = estimate_rows(&opt, &stats);
        assert!(
            (written - reordered).abs() <= 1e-9 * written,
            "{written} vs {reordered}"
        );
        // Fact rows whose part survived the filter; supplier and nation keep
        // them all.
        let LogicalPlan::Join { right: part, .. } = &plan else {
            unreachable!()
        };
        let part_rows = estimate_rows(part, &stats);
        assert!((part_rows - 1000.0).abs() < 200.0, "part {part_rows}");
        let want = 600_000.0 * part_rows / 20_000.0;
        assert!((written - want).abs() < 1e-6 * want, "rows {written}");
        // The same numbers in every plan: deterministic.
        assert_eq!(opt, optimize(plan, &stats));
    }

    #[test]
    fn semi_and_anti_joins_use_key_counts() {
        let (plan, stats) = star();
        let LogicalPlan::Join { right: part, .. } = plan else {
            unreachable!()
        };
        let (f, _) = table(1, "fact", 600_000, &[1000, 20_000, 1000]);
        // The part keys that survive the filter, out of 20 000.
        let kept = 600_000.0 * estimate_rows(&part, &stats) / 20_000.0;
        let semi = f.clone().join(*part.clone(), JoinKind::Semi, vec![(1, 0)]);
        let anti = f.join(*part, JoinKind::Anti, vec![(1, 0)]);
        assert!((estimate_rows(&semi, &stats) - kept).abs() < 1e-6 * kept);
        assert!((estimate_rows(&anti, &stats) - (600_000.0 - kept)).abs() < 1e-6 * kept);
    }

    /// Q21's shape: lineitem anti-joined with itself on the order key, a
    /// supplier other than the row's own in the residual. Every key
    /// matches, so without the residual the estimate was zero rows, and
    /// zero again for every join above it.
    #[test]
    fn semi_and_anti_joins_fold_in_the_residual() {
        let (f, fs) = table(1, "fact", 600_000, &[150_000, 1000]);
        let (s, ss) = table(2, "supp", 1000, &[1000, 25]);
        let stats = HashMap::from([(TableId::new(1), fs), (TableId::new(2), ss)]);
        // fact 0..2, its copy 2..4: another supplier of the same order.
        let other_supplier = Expr::binary(BinOp::Ne, Expr::col(1), Expr::col(3));
        let join = |kind| LogicalPlan::Join {
            left: Box::new(f.clone()),
            right: Box::new(f.clone()),
            kind,
            on: vec![(0, 0)],
            residual: Some(other_supplier.clone()),
        };
        let res = conjunct_selectivity(&other_supplier);
        assert!(res > 0.0 && res < 1.0, "residual selectivity {res}");
        let anti = estimate_rows(&join(JoinKind::Anti), &stats);
        assert!(
            (anti - 600_000.0 * (1.0 - res)).abs() < 1e-6 * anti,
            "anti {anti}"
        );
        let semi = estimate_rows(&join(JoinKind::Semi), &stats);
        assert!((semi - 600_000.0 * res).abs() < 1e-6 * semi, "semi {semi}");
        let above = join(JoinKind::Anti).join(s, JoinKind::Inner, vec![(1, 0)]);
        assert!(estimate_rows(&above, &stats) >= 1.0);
        // Never below one row, even when every left row is matched.
        let all = f.clone().join(f.clone(), JoinKind::Anti, vec![(0, 0)]);
        assert_eq!(estimate_rows(&all, &stats), 1.0);
    }

    #[test]
    fn group_count_is_the_product_of_key_counts() {
        let (f, fs) = table(1, "fact", 600_000, &[1000, 20_000, 1000]);
        let stats = HashMap::from([(TableId::new(1), fs)]);
        let by = |keys: Vec<usize>| estimate_rows(&f.clone().aggregate(keys, vec![]), &stats);
        assert_eq!(by(vec![0]), 1000.0);
        // capped by the input rows
        assert_eq!(by(vec![0, 1]), 600_000.0);
        // a computed key has no statistics: the square-root rule
        let computed = f
            .clone()
            .project(vec![(
                Expr::binary(BinOp::Add, Expr::col(0), Expr::col(1)),
                "k",
            )])
            .aggregate(vec![0], vec![]);
        assert!((estimate_rows(&computed, &stats) - 600_000f64.sqrt()).abs() < 1e-6);
    }
}
