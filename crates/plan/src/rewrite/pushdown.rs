//! Predicate pushdown.
//!
//! Splits AND-conjunctions and pushes each conjunct as far down as its column
//! references allow: through Project (rewriting column refs to the underlying
//! expressions when they are pure column references), through the matching
//! side of a Join, and finally *into* Scan nodes where the storage layer can
//! apply zone-map pruning before reading blocks. Semi and anti joins (bound
//! from `IN (SELECT …)`) are pushed the same way, onto the input they filter
//! ([`push_down_semi_joins`]).

use crate::expr::{BinOp, Expr};
use crate::plan::{JoinKind, LogicalPlan};

/// Split an expression into its AND-ed conjuncts.
pub fn split_conjunction(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Binary {
            op: BinOp::And,
            l,
            r,
        } => {
            split_conjunction(l, out);
            split_conjunction(r, out);
        }
        other => out.push(other.clone()),
    }
}

/// AND a list of conjuncts back together (None for empty).
pub fn conjoin(mut parts: Vec<Expr>) -> Option<Expr> {
    let mut acc = parts.pop()?;
    while let Some(p) = parts.pop() {
        acc = Expr::and(p, acc);
    }
    Some(acc)
}

/// Push filters down as far as possible.
pub fn push_down_filters(plan: LogicalPlan) -> LogicalPlan {
    // First push within children.
    let children: Vec<LogicalPlan> = plan
        .children()
        .into_iter()
        .map(|c| push_down_filters(c.clone()))
        .collect();
    let node = plan.with_children(children);

    let LogicalPlan::Filter { input, predicate } = node else {
        return node;
    };
    let mut conjuncts = Vec::new();
    split_conjunction(&predicate, &mut conjuncts);
    push_conjuncts(*input, conjuncts)
}

/// Push a set of conjuncts onto `input`, wrapping leftovers in a Filter.
fn push_conjuncts(input: LogicalPlan, conjuncts: Vec<Expr>) -> LogicalPlan {
    match input {
        LogicalPlan::Scan {
            table,
            table_id,
            schema,
            projection,
            filter,
        } => {
            // All conjuncts land in the scan filter.
            let mut all = Vec::new();
            if let Some(f) = filter {
                split_conjunction(&f, &mut all);
            }
            all.extend(conjuncts);
            LogicalPlan::Scan {
                table,
                table_id,
                schema,
                projection,
                filter: conjoin(all),
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            // Merge into one filter and continue downward.
            let mut all = Vec::new();
            split_conjunction(&predicate, &mut all);
            all.extend(conjuncts);
            push_conjuncts(*input, all)
        }
        LogicalPlan::Project { input, exprs } => {
            // A conjunct can cross the projection iff every column it uses
            // projects a pure column reference.
            let mut pushable = Vec::new();
            let mut stuck = Vec::new();
            'next: for c in conjuncts {
                let mut cols = Vec::new();
                c.columns(&mut cols);
                for &i in &cols {
                    if !matches!(exprs.get(i).map(|(e, _)| e), Some(Expr::Col(_))) {
                        stuck.push(c);
                        continue 'next;
                    }
                }
                let remapped = c.remap_columns(&|i| match &exprs[i].0 {
                    Expr::Col(j) => *j,
                    _ => unreachable!(),
                });
                pushable.push(remapped);
            }
            let new_input = if pushable.is_empty() {
                *input
            } else {
                push_conjuncts(*input, pushable)
            };
            let projected = LogicalPlan::Project {
                input: Box::new(new_input),
                exprs,
            };
            match conjoin(stuck) {
                Some(p) => LogicalPlan::Filter {
                    input: Box::new(projected),
                    predicate: p,
                },
                None => projected,
            }
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            residual,
        } => {
            let left_width = left.schema().map(|s| s.len()).unwrap_or(0);
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut stuck = Vec::new();
            for c in conjuncts {
                let mut cols = Vec::new();
                c.columns(&mut cols);
                let all_left = cols.iter().all(|&i| i < left_width);
                let all_right = cols.iter().all(|&i| i >= left_width);
                if all_left {
                    to_left.push(c);
                } else if all_right
                    && matches!(kind, JoinKind::Inner | JoinKind::Semi | JoinKind::Anti)
                {
                    // For LEFT joins a right-side filter is not equivalent
                    // (it would drop padded rows), keep it above.
                    to_right.push(c.remap_columns(&|i| i - left_width));
                } else {
                    stuck.push(c);
                }
            }
            let new_left = if to_left.is_empty() {
                *left
            } else {
                push_conjuncts(*left, to_left)
            };
            let new_right = if to_right.is_empty() {
                *right
            } else {
                push_conjuncts(*right, to_right)
            };
            let joined = LogicalPlan::Join {
                left: Box::new(new_left),
                right: Box::new(new_right),
                kind,
                on,
                residual,
            };
            match conjoin(stuck) {
                Some(p) => LogicalPlan::Filter {
                    input: Box::new(joined),
                    predicate: p,
                },
                None => joined,
            }
        }
        // Blocking or order-sensitive operators: keep the filter above.
        other => match conjoin(conjuncts) {
            Some(p) => LogicalPlan::Filter {
                input: Box::new(other),
                predicate: p,
            },
            None => other,
        },
    }
}

/// Move every semi/anti join down onto the input that owns its left keys and
/// the left-side columns of its residual: below Filters, into either side of
/// an inner join, and into the preserved side of a LEFT join — never into a
/// LEFT join's nullable side. Whether a row survives depends only on that
/// row's own columns and the subquery, so the rows that come out are the
/// same; an `IN (SELECT …)` then filters its table before any join does, and
/// the join enumerator sees `table ⋉ subquery` as one small leaf.
pub fn push_down_semi_joins(plan: LogicalPlan) -> LogicalPlan {
    match plan.map_children(push_down_semi_joins) {
        LogicalPlan::Join {
            left,
            right,
            kind: kind @ (JoinKind::Semi | JoinKind::Anti),
            on,
            residual,
        } => sink_semi(*left, *right, kind, on, residual),
        other => other,
    }
}

/// Place the semi/anti join `left ⋉ right` as deep inside `left` as its
/// left-side columns allow.
fn sink_semi(
    left: LogicalPlan,
    right: LogicalPlan,
    kind: JoinKind,
    on: Vec<(usize, usize)>,
    residual: Option<Expr>,
) -> LogicalPlan {
    let lw = left.width();
    let mut cols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
    if let Some(r) = &residual {
        let mut rc = Vec::new();
        r.columns(&mut rc);
        cols.extend(rc.into_iter().filter(|&c| c < lw));
    }
    let stay = |left: LogicalPlan,
                right: LogicalPlan,
                on: Vec<(usize, usize)>,
                residual: Option<Expr>| LogicalPlan::Join {
        left: Box::new(left),
        right: Box::new(right),
        kind,
        on,
        residual,
    };
    match left {
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(sink_semi(*input, right, kind, on, residual)),
            predicate,
        },
        LogicalPlan::Join {
            left: a,
            right: b,
            kind: jk @ (JoinKind::Inner | JoinKind::Left),
            on: j_on,
            residual: j_res,
        } => {
            let aw = a.width();
            let (a, b) = if cols.iter().all(|&c| c < aw) {
                // The subquery's columns follow the new left input directly.
                let residual =
                    residual.map(|e| e.remap_columns(&|i| if i < lw { i } else { i - (lw - aw) }));
                (sink_semi(*a, right, kind, on, residual), *b)
            } else if jk == JoinKind::Inner && cols.iter().all(|&c| c >= aw) {
                let on = on.into_iter().map(|(l, r)| (l - aw, r)).collect();
                let residual = residual.map(|e| e.remap_columns(&|i| i - aw));
                (*a, sink_semi(*b, right, kind, on, residual))
            } else {
                let join = LogicalPlan::Join {
                    left: a,
                    right: b,
                    kind: jk,
                    on: j_on,
                    residual: j_res,
                };
                return stay(join, right, on, residual);
            };
            LogicalPlan::Join {
                left: Box::new(a),
                right: Box::new(b),
                kind: jk,
                on: j_on,
                residual: j_res,
            }
        }
        other => stay(other, right, on, residual),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_common::{DataType, Field, Schema, TableId, Value};

    fn scan(name: &str) -> LogicalPlan {
        LogicalPlan::scan(
            name,
            TableId::new(1),
            Schema::new(vec![
                Field::new("a", DataType::I64),
                Field::new("b", DataType::I64),
            ]),
        )
    }

    fn lt(col: usize, v: i64) -> Expr {
        Expr::binary(BinOp::Lt, Expr::col(col), Expr::lit(Value::I64(v)))
    }

    #[test]
    fn filter_fuses_into_scan() {
        let p = scan("t").filter(Expr::and(lt(0, 5), lt(1, 9)));
        let out = push_down_filters(p);
        match out {
            LogicalPlan::Scan {
                filter: Some(f), ..
            } => {
                let mut parts = Vec::new();
                split_conjunction(&f, &mut parts);
                assert_eq!(parts.len(), 2);
            }
            other => panic!("got:\n{}", other.explain()),
        }
    }

    #[test]
    fn filter_splits_across_join() {
        let p = scan("l")
            .join(scan("r"), JoinKind::Inner, vec![(0, 0)])
            // #0,#1 left; #2,#3 right; one conjunct per side + one cross
            .filter(Expr::and(
                Expr::and(lt(0, 5), lt(3, 9)),
                Expr::binary(BinOp::Lt, Expr::col(1), Expr::col(2)),
            ));
        let out = push_down_filters(p);
        // cross-side conjunct stays above the join
        match &out {
            LogicalPlan::Filter { input, predicate } => {
                let mut parts = Vec::new();
                split_conjunction(predicate, &mut parts);
                assert_eq!(parts.len(), 1);
                match &**input {
                    LogicalPlan::Join { left, right, .. } => {
                        assert!(matches!(
                            &**left,
                            LogicalPlan::Scan {
                                filter: Some(_),
                                ..
                            }
                        ));
                        match &**right {
                            LogicalPlan::Scan {
                                filter: Some(f), ..
                            } => {
                                // remapped from #3 to #1
                                assert_eq!(f, &lt(1, 9));
                            }
                            other => panic!("right: {:?}", other),
                        }
                    }
                    other => panic!("want join under filter, got {:?}", other.describe()),
                }
            }
            other => panic!("got:\n{}", other.explain()),
        }
    }

    #[test]
    fn left_join_right_filter_not_pushed() {
        let p = scan("l")
            .join(scan("r"), JoinKind::Left, vec![(0, 0)])
            .filter(lt(2, 5)); // right-side column
        let out = push_down_filters(p);
        assert!(matches!(out, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn filter_crosses_column_projection() {
        let p = scan("t")
            .project(vec![(Expr::col(1), "b"), (Expr::col(0), "a")])
            .filter(lt(0, 5)); // refers to projected #0 = underlying col 1
        let out = push_down_filters(p);
        match out {
            LogicalPlan::Project { input, .. } => match *input {
                LogicalPlan::Scan {
                    filter: Some(f), ..
                } => assert_eq!(f, lt(1, 5)),
                other => panic!("{:?}", other.describe()),
            },
            other => panic!("got:\n{}", other.explain()),
        }
    }

    #[test]
    fn filter_blocked_by_computed_projection() {
        let p = scan("t")
            .project(vec![(
                Expr::binary(BinOp::Add, Expr::col(0), Expr::col(1)),
                "s",
            )])
            .filter(lt(0, 5));
        let out = push_down_filters(p);
        assert!(matches!(out, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn stacked_filters_merge() {
        let p = scan("t").filter(lt(0, 5)).filter(lt(1, 9));
        let out = push_down_filters(p);
        match out {
            LogicalPlan::Scan {
                filter: Some(f), ..
            } => {
                let mut parts = Vec::new();
                split_conjunction(&f, &mut parts);
                assert_eq!(parts.len(), 2);
            }
            other => panic!("got:\n{}", other.explain()),
        }
    }

    #[test]
    fn conjoin_roundtrip() {
        let e = Expr::and(lt(0, 1), Expr::and(lt(1, 2), lt(0, 3)));
        let mut parts = Vec::new();
        split_conjunction(&e, &mut parts);
        assert_eq!(parts.len(), 3);
        let back = conjoin(parts).unwrap();
        let mut parts2 = Vec::new();
        split_conjunction(&back, &mut parts2);
        assert_eq!(parts2.len(), 3);
        assert!(conjoin(vec![]).is_none());
    }

    /// `l ⋈ r` (inner, on l.a = r.a) with a semi/anti join on `col` above it.
    fn semi_over(kind: JoinKind, join: JoinKind, col: usize) -> LogicalPlan {
        scan("l")
            .join(scan("r"), join, vec![(0, 0)])
            .join(scan("sub"), kind, vec![(col, 0)])
    }

    #[test]
    fn semi_join_moves_onto_the_table_it_filters() {
        // keys on the right input of the inner join
        let out = push_down_semi_joins(semi_over(JoinKind::Semi, JoinKind::Inner, 3));
        match &out {
            LogicalPlan::Join {
                kind: JoinKind::Inner,
                left,
                right,
                ..
            } => {
                assert!(matches!(&**left, LogicalPlan::Scan { table, .. } if table == "l"));
                match &**right {
                    LogicalPlan::Join {
                        kind: JoinKind::Semi,
                        left,
                        on,
                        ..
                    } => {
                        assert!(matches!(&**left, LogicalPlan::Scan { table, .. } if table == "r"));
                        assert_eq!(on, &vec![(1, 0)]);
                    }
                    other => panic!("{}", other.explain()),
                }
            }
            other => panic!("{}", other.explain()),
        }
        assert_eq!(
            out.schema().unwrap(),
            semi_over(JoinKind::Semi, JoinKind::Inner, 3)
                .schema()
                .unwrap()
        );
    }

    #[test]
    fn anti_join_stays_off_the_nullable_side() {
        // The preserved side of a LEFT join takes it ...
        let out = push_down_semi_joins(semi_over(JoinKind::Anti, JoinKind::Left, 1));
        assert!(matches!(
            &out,
            LogicalPlan::Join { kind: JoinKind::Left, left, .. }
                if matches!(&**left, LogicalPlan::Join { kind: JoinKind::Anti, .. })
        ));
        // ... the padded side does not.
        let plan = semi_over(JoinKind::Anti, JoinKind::Left, 3);
        assert_eq!(push_down_semi_joins(plan.clone()), plan);
    }

    #[test]
    fn semi_join_residual_follows_its_columns() {
        // residual: l.b < sub.b, i.e. #1 < #5 over (l ++ r) ++ sub
        let plan = LogicalPlan::Join {
            left: Box::new(scan("l").join(scan("r"), JoinKind::Inner, vec![(0, 0)])),
            right: Box::new(scan("sub")),
            kind: JoinKind::Semi,
            on: vec![(0, 0)],
            residual: Some(Expr::binary(BinOp::Lt, Expr::col(1), Expr::col(5))),
        };
        match push_down_semi_joins(plan) {
            LogicalPlan::Join { left, .. } => match *left {
                LogicalPlan::Join { residual, .. } => {
                    // over l ++ sub now: sub.b is #3
                    assert_eq!(
                        residual,
                        Some(Expr::binary(BinOp::Lt, Expr::col(1), Expr::col(3)))
                    )
                }
                other => panic!("{}", other.explain()),
            },
            other => panic!("{}", other.explain()),
        }
        // A residual reading both inner-join inputs keeps the join above them.
        let both = LogicalPlan::Join {
            left: Box::new(scan("l").join(scan("r"), JoinKind::Inner, vec![(0, 0)])),
            right: Box::new(scan("sub")),
            kind: JoinKind::Semi,
            on: vec![(0, 0)],
            residual: Some(Expr::binary(BinOp::Lt, Expr::col(3), Expr::col(5))),
        };
        assert_eq!(push_down_semi_joins(both.clone()), both);
    }
}
