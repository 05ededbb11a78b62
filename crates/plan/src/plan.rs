//! The logical algebra.
//!
//! This is the engine-neutral plan that all three executors cross-compile
//! from: the vectorized engine (`vw-core`), the tuple-at-a-time engine and
//! the full-materialization engine (`vw-baselines`). It corresponds to the
//! X100 algebra the Ingres cross-compiler emits in the real product [7].

use crate::expr::{AggExpr, Expr};
use std::fmt;
use vw_common::{DataType, Field, Result, Schema, TableId, VwError};

/// Join types supported by the planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    Inner,
    /// Left outer join: unmatched left rows padded with NULLs.
    Left,
    /// Left semi join: left rows with at least one match.
    Semi,
    /// Left anti join: left rows with no match.
    Anti,
}

impl JoinKind {
    pub fn name(self) -> &'static str {
        match self {
            JoinKind::Inner => "INNER",
            JoinKind::Left => "LEFT",
            JoinKind::Semi => "SEMI",
            JoinKind::Anti => "ANTI",
        }
    }
}

/// One ORDER BY key: output column index + direction + NULL placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    pub col: usize,
    pub asc: bool,
    /// Whether NULLs sort before non-NULLs. Defaults to the direction's
    /// historical behaviour (NULLs are the smallest value): FIRST when
    /// ascending, LAST when descending. `ORDER BY … NULLS FIRST/LAST`
    /// overrides it.
    pub nulls_first: bool,
}

impl SortKey {
    /// A key with the default NULL placement for its direction.
    pub fn new(col: usize, asc: bool) -> SortKey {
        SortKey {
            col,
            asc,
            nulls_first: asc,
        }
    }

    /// Ascending key, NULLS FIRST (the ascending default).
    pub fn asc(col: usize) -> SortKey {
        SortKey::new(col, true)
    }

    /// Descending key, NULLS LAST (the descending default).
    pub fn desc(col: usize) -> SortKey {
        SortKey::new(col, false)
    }

    /// True when the NULL placement is the default for the direction.
    pub fn default_nulls(&self) -> bool {
        self.nulls_first == self.asc
    }
}

/// A logical query plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Base-table scan with optional column projection (pushed down by the
    /// binder) and optional residual predicate (pushed down by the rewriter;
    /// executors may additionally use it for zone-map pruning).
    Scan {
        table: String,
        table_id: TableId,
        /// Full table schema.
        schema: Schema,
        /// Columns actually produced, in order (None = all).
        projection: Option<Vec<usize>>,
        /// Predicate over the *projected* schema.
        filter: Option<Expr>,
    },
    Filter {
        input: Box<LogicalPlan>,
        predicate: Expr,
    },
    Project {
        input: Box<LogicalPlan>,
        exprs: Vec<(Expr, String)>,
    },
    /// Hash join on equi-key pairs, with an optional residual filter over the
    /// concatenated (left ++ right) schema.
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        kind: JoinKind,
        on: Vec<(usize, usize)>,
        residual: Option<Expr>,
    },
    /// Streaming merge join on equi-key pairs: both inputs must deliver rows
    /// sorted ascending on their key columns (guaranteed by the ordering
    /// pass, which only plans this over declared-order scans). Inner joins
    /// only; spill-free and budget-light. Emission is probe-major (left
    /// stream order, each left row paired with its matches in right stream
    /// order — the hash join probes with the left input) so results are
    /// byte-identical to the hash join it replaces.
    MergeJoin {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        on: Vec<(usize, usize)>,
    },
    /// Group-by (possibly empty = scalar aggregate).
    Aggregate {
        input: Box<LogicalPlan>,
        group_by: Vec<usize>,
        aggs: Vec<AggExpr>,
        /// Set by the `parallelize` rewrite: this node combines partial
        /// states rather than raw rows.
        phase: AggPhase,
    },
    Sort {
        input: Box<LogicalPlan>,
        keys: Vec<SortKey>,
    },
    Limit {
        input: Box<LogicalPlan>,
        offset: u64,
        fetch: u64,
    },
    /// Volcano-style exchange: run `input` in `partitions` parallel workers
    /// (each worker sees a disjoint slice of every Scan below) and union the
    /// results. Inserted by the `parallelize` rewrite.
    Exchange {
        input: Box<LogicalPlan>,
        partitions: usize,
    },
}

/// Phase marker for parallel aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggPhase {
    /// Normal single-phase aggregation.
    Single,
    /// Produces partial states (runs inside an Exchange).
    Partial,
    /// Consumes partial states (runs above an Exchange).
    Final,
}

impl LogicalPlan {
    /// Output schema of this node.
    pub fn schema(&self) -> Result<Schema> {
        match self {
            LogicalPlan::Scan {
                schema, projection, ..
            } => Ok(match projection {
                Some(cols) => schema.project(cols),
                None => schema.clone(),
            }),
            LogicalPlan::Filter { input, .. } => input.schema(),
            LogicalPlan::Project { input, exprs } => {
                let in_schema = input.schema()?;
                let mut fields = Vec::with_capacity(exprs.len());
                for (e, name) in exprs {
                    fields.push(Field {
                        name: name.clone(),
                        ty: e.data_type(&in_schema)?,
                        nullable: e.nullable(&in_schema),
                    });
                }
                Ok(Schema::new(fields))
            }
            LogicalPlan::Join {
                left, right, kind, ..
            } => {
                let ls = left.schema()?;
                match kind {
                    JoinKind::Semi | JoinKind::Anti => Ok(ls),
                    JoinKind::Inner => Ok(ls.join(&right.schema()?)),
                    JoinKind::Left => {
                        // Right side becomes nullable.
                        let rs = right.schema()?;
                        let mut fields: Vec<Field> = ls.fields().to_vec();
                        for f in rs.fields() {
                            fields.push(Field {
                                name: f.name.clone(),
                                ty: f.ty,
                                nullable: true,
                            });
                        }
                        Ok(Schema::new(fields))
                    }
                }
            }
            LogicalPlan::MergeJoin { left, right, .. } => Ok(left.schema()?.join(&right.schema()?)),
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                phase,
            } => {
                let in_schema = input.schema()?;
                let mut fields = Vec::new();
                for &g in group_by {
                    if g >= in_schema.len() {
                        return Err(VwError::Plan(format!("group key #{} out of range", g)));
                    }
                    fields.push(in_schema.field(g).clone());
                }
                for a in aggs {
                    let ty = a.output_type(&in_schema)?;
                    fields.push(Field {
                        name: a.name.clone(),
                        ty,
                        nullable: true,
                    });
                }
                if *phase == AggPhase::Partial {
                    // Extra hidden count columns, one per AVG, appended so the
                    // Final phase can reconstruct the mean exactly.
                    for a in aggs {
                        if a.func == crate::expr::AggFunc::Avg {
                            fields.push(Field::new(format!("__{}_count", a.name), DataType::I64));
                        }
                    }
                }
                Ok(Schema::new(fields))
            }
            LogicalPlan::Sort { input, .. } => input.schema(),
            LogicalPlan::Limit { input, .. } => input.schema(),
            LogicalPlan::Exchange { input, .. } => input.schema(),
        }
    }

    /// Number of output columns (0 when the schema does not resolve).
    pub fn width(&self) -> usize {
        self.schema().map(|s| s.len()).unwrap_or(0)
    }

    /// Child nodes (0, 1 or 2).
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Exchange { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } | LogicalPlan::MergeJoin { left, right, .. } => {
                vec![left, right]
            }
        }
    }

    /// Rebuild this node with new children (same arity).
    pub fn with_children(&self, mut children: Vec<LogicalPlan>) -> LogicalPlan {
        match self {
            LogicalPlan::Scan { .. } => {
                assert!(children.is_empty());
                self.clone()
            }
            LogicalPlan::Filter { predicate, .. } => LogicalPlan::Filter {
                input: Box::new(children.remove(0)),
                predicate: predicate.clone(),
            },
            LogicalPlan::Project { exprs, .. } => LogicalPlan::Project {
                input: Box::new(children.remove(0)),
                exprs: exprs.clone(),
            },
            LogicalPlan::Join {
                kind, on, residual, ..
            } => {
                let left = children.remove(0);
                let right = children.remove(0);
                LogicalPlan::Join {
                    left: Box::new(left),
                    right: Box::new(right),
                    kind: *kind,
                    on: on.clone(),
                    residual: residual.clone(),
                }
            }
            LogicalPlan::MergeJoin { on, .. } => {
                let left = children.remove(0);
                let right = children.remove(0);
                LogicalPlan::MergeJoin {
                    left: Box::new(left),
                    right: Box::new(right),
                    on: on.clone(),
                }
            }
            LogicalPlan::Aggregate {
                group_by,
                aggs,
                phase,
                ..
            } => LogicalPlan::Aggregate {
                input: Box::new(children.remove(0)),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
                phase: *phase,
            },
            LogicalPlan::Sort { keys, .. } => LogicalPlan::Sort {
                input: Box::new(children.remove(0)),
                keys: keys.clone(),
            },
            LogicalPlan::Limit { offset, fetch, .. } => LogicalPlan::Limit {
                input: Box::new(children.remove(0)),
                offset: *offset,
                fetch: *fetch,
            },
            LogicalPlan::Exchange { partitions, .. } => LogicalPlan::Exchange {
                input: Box::new(children.remove(0)),
                partitions: *partitions,
            },
        }
    }

    /// Rebuild this node with `f` applied to each child, moving rather than
    /// cloning the node's own fields.
    pub fn map_children(self, mut f: impl FnMut(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
        let mut g = |b: Box<LogicalPlan>| Box::new(f(*b));
        match self {
            LogicalPlan::Scan { .. } => self,
            LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
                input: g(input),
                predicate,
            },
            LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
                input: g(input),
                exprs,
            },
            LogicalPlan::Join {
                left,
                right,
                kind,
                on,
                residual,
            } => LogicalPlan::Join {
                left: g(left),
                right: g(right),
                kind,
                on,
                residual,
            },
            LogicalPlan::MergeJoin { left, right, on } => LogicalPlan::MergeJoin {
                left: g(left),
                right: g(right),
                on,
            },
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                phase,
            } => LogicalPlan::Aggregate {
                input: g(input),
                group_by,
                aggs,
                phase,
            },
            LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
                input: g(input),
                keys,
            },
            LogicalPlan::Limit {
                input,
                offset,
                fetch,
            } => LogicalPlan::Limit {
                input: g(input),
                offset,
                fetch,
            },
            LogicalPlan::Exchange { input, partitions } => LogicalPlan::Exchange {
                input: g(input),
                partitions,
            },
        }
    }

    /// Short operator name (no arguments), for compact profile tables.
    pub fn op_name(&self) -> &'static str {
        match self {
            LogicalPlan::Scan { .. } => "Scan",
            LogicalPlan::Filter { .. } => "Filter",
            LogicalPlan::Project { .. } => "Project",
            LogicalPlan::Join { .. } => "Join",
            LogicalPlan::MergeJoin { .. } => "MergeJoin",
            LogicalPlan::Aggregate { .. } => "Aggregate",
            LogicalPlan::Sort { .. } => "Sort",
            LogicalPlan::Limit { .. } => "Limit",
            LogicalPlan::Exchange { .. } => "Exchange",
        }
    }

    /// One-line description of this node (no children).
    pub fn describe(&self) -> String {
        match self {
            LogicalPlan::Scan {
                table,
                projection,
                filter,
                ..
            } => {
                let mut s = format!("Scan {}", table);
                if let Some(p) = projection {
                    s.push_str(&format!(" cols={:?}", p));
                }
                if let Some(f) = filter {
                    s.push_str(&format!(" filter={}", f));
                }
                s
            }
            LogicalPlan::Filter { predicate, .. } => format!("Filter {}", predicate),
            LogicalPlan::Project { exprs, .. } => format!(
                "Project [{}]",
                exprs
                    .iter()
                    .map(|(e, n)| format!("{} AS {}", e, n))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            LogicalPlan::Join {
                kind, on, residual, ..
            } => {
                let mut s = format!(
                    "{}Join on {}",
                    kind.name(),
                    on.iter()
                        .map(|(l, r)| format!("l#{}=r#{}", l, r))
                        .collect::<Vec<_>>()
                        .join(" AND ")
                );
                if let Some(r) = residual {
                    s.push_str(&format!(" residual={}", r));
                }
                s
            }
            LogicalPlan::MergeJoin { on, .. } => format!(
                "MergeJoin on {}",
                on.iter()
                    .map(|(l, r)| format!("l#{}=r#{}", l, r))
                    .collect::<Vec<_>>()
                    .join(" AND ")
            ),
            LogicalPlan::Aggregate {
                group_by,
                aggs,
                phase,
                ..
            } => format!(
                "Aggregate{} by={:?} aggs=[{}]",
                match phase {
                    AggPhase::Single => "",
                    AggPhase::Partial => "(partial)",
                    AggPhase::Final => "(final)",
                },
                group_by,
                aggs.iter()
                    .map(|a| a.func.name().to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            LogicalPlan::Sort { keys, .. } => format!(
                "Sort [{}]",
                keys.iter()
                    .map(|k| {
                        let nulls = if k.default_nulls() {
                            ""
                        } else if k.nulls_first {
                            " NULLS FIRST"
                        } else {
                            " NULLS LAST"
                        };
                        format!("#{}{}{}", k.col, if k.asc { "" } else { " DESC" }, nulls)
                    })
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            LogicalPlan::Limit { offset, fetch, .. } => {
                format!("Limit offset={} fetch={}", offset, fetch)
            }
            LogicalPlan::Exchange { partitions, .. } => {
                format!("Exchange partitions={}", partitions)
            }
        }
    }

    /// Multi-line EXPLAIN rendering.
    pub fn explain(&self) -> String {
        fn walk(p: &LogicalPlan, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&p.describe());
            out.push('\n');
            for c in p.children() {
                walk(c, depth + 1, out);
            }
        }
        let mut s = String::new();
        walk(self, 0, &mut s);
        s
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

/// Builder helpers for hand-constructing plans (TPC-H queries, tests).
impl LogicalPlan {
    pub fn scan(table: &str, table_id: TableId, schema: Schema) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.to_string(),
            table_id,
            schema,
            projection: None,
            filter: None,
        }
    }

    pub fn filter(self, predicate: Expr) -> LogicalPlan {
        LogicalPlan::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    pub fn project(self, exprs: Vec<(Expr, &str)>) -> LogicalPlan {
        LogicalPlan::Project {
            input: Box::new(self),
            exprs: exprs.into_iter().map(|(e, n)| (e, n.to_string())).collect(),
        }
    }

    pub fn join(self, right: LogicalPlan, kind: JoinKind, on: Vec<(usize, usize)>) -> LogicalPlan {
        LogicalPlan::Join {
            left: Box::new(self),
            right: Box::new(right),
            kind,
            on,
            residual: None,
        }
    }

    pub fn aggregate(self, group_by: Vec<usize>, aggs: Vec<AggExpr>) -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: Box::new(self),
            group_by,
            aggs,
            phase: AggPhase::Single,
        }
    }

    pub fn sort(self, keys: Vec<SortKey>) -> LogicalPlan {
        LogicalPlan::Sort {
            input: Box::new(self),
            keys,
        }
    }

    pub fn limit(self, offset: u64, fetch: u64) -> LogicalPlan {
        LogicalPlan::Limit {
            input: Box::new(self),
            offset,
            fetch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggFunc, BinOp};
    use vw_common::Value;

    fn scan() -> LogicalPlan {
        LogicalPlan::scan(
            "t",
            TableId::new(1),
            Schema::new(vec![
                Field::new("a", DataType::I64),
                Field::nullable("b", DataType::F64),
                Field::new("c", DataType::Str),
            ]),
        )
    }

    #[test]
    fn scan_schema_and_projection() {
        let s = scan();
        assert_eq!(s.schema().unwrap().len(), 3);
        let p = LogicalPlan::Scan {
            table: "t".into(),
            table_id: TableId::new(1),
            schema: s.schema().unwrap(),
            projection: Some(vec![2, 0]),
            filter: None,
        };
        let ps = p.schema().unwrap();
        assert_eq!(ps.field(0).name, "c");
        assert_eq!(ps.field(1).name, "a");
    }

    #[test]
    fn project_schema_types() {
        let p = scan().project(vec![
            (Expr::binary(BinOp::Add, Expr::col(0), Expr::col(1)), "sum"),
            (Expr::lit(Value::I64(1)), "one"),
        ]);
        let s = p.schema().unwrap();
        assert_eq!(s.field(0).ty, DataType::F64);
        assert!(s.field(0).nullable); // b is nullable
        assert_eq!(s.field(1).ty, DataType::I64);
        assert!(!s.field(1).nullable);
    }

    #[test]
    fn join_schemas() {
        let l = scan();
        let r = scan();
        let inner = l.clone().join(r.clone(), JoinKind::Inner, vec![(0, 0)]);
        assert_eq!(inner.schema().unwrap().len(), 6);
        let semi = l.clone().join(r.clone(), JoinKind::Semi, vec![(0, 0)]);
        assert_eq!(semi.schema().unwrap().len(), 3);
        let left = l.join(r, JoinKind::Left, vec![(0, 0)]);
        let ls = left.schema().unwrap();
        assert_eq!(ls.len(), 6);
        assert!(ls.field(3).nullable); // right side forced nullable
        assert!(!ls.field(0).nullable);
    }

    #[test]
    fn aggregate_schema() {
        let a = scan().aggregate(
            vec![2],
            vec![
                AggExpr {
                    func: AggFunc::Sum,
                    arg: Some(Expr::col(0)),
                    name: "total".into(),
                },
                AggExpr {
                    func: AggFunc::CountStar,
                    arg: None,
                    name: "n".into(),
                },
            ],
        );
        let s = a.schema().unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.field(0).name, "c");
        assert_eq!(s.field(1).ty, DataType::I64);
        assert_eq!(s.field(2).name, "n");
        // bad group key
        let bad = scan().aggregate(vec![9], vec![]);
        assert!(bad.schema().is_err());
    }

    #[test]
    fn partial_aggregate_adds_avg_count_column() {
        let mut a = scan().aggregate(
            vec![],
            vec![AggExpr {
                func: AggFunc::Avg,
                arg: Some(Expr::col(0)),
                name: "m".into(),
            }],
        );
        if let LogicalPlan::Aggregate { phase, .. } = &mut a {
            *phase = AggPhase::Partial;
        }
        let s = a.schema().unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.field(1).name, "__m_count");
    }

    #[test]
    fn children_and_rebuild() {
        let p = scan()
            .filter(Expr::binary(
                BinOp::Gt,
                Expr::col(0),
                Expr::lit(Value::I64(5)),
            ))
            .limit(0, 10);
        assert_eq!(p.children().len(), 1);
        let rebuilt = p.with_children(vec![p.children()[0].clone()]);
        assert_eq!(rebuilt, p);
    }

    #[test]
    fn explain_renders_tree() {
        let p = scan()
            .filter(Expr::binary(
                BinOp::Gt,
                Expr::col(0),
                Expr::lit(Value::I64(5)),
            ))
            .aggregate(
                vec![],
                vec![AggExpr {
                    func: AggFunc::CountStar,
                    arg: None,
                    name: "n".into(),
                }],
            );
        let text = p.explain();
        assert!(text.contains("Aggregate"));
        assert!(text.contains("  Filter"));
        assert!(text.contains("    Scan t"));
    }
}
