//! The binder: name resolution, typing, aggregate analysis and plan
//! construction. AST in, engine-neutral `LogicalPlan` out.

use crate::ast::*;
use std::collections::HashMap;
use vw_common::{bind_err, DataType, Result, Schema, TableId, Value, VwError};
use vw_plan::rewrite::pushdown::{conjoin, split_conjunction};
use vw_plan::{AggExpr, AggFunc, BinOp, DatePart, Expr, JoinKind, LogicalPlan, SortKey, UnOp};

/// How the binder sees the catalog.
pub trait CatalogView {
    /// Resolve a table name to its id and schema.
    fn resolve_table(&self, name: &str) -> Option<(TableId, Schema)>;
    /// Current row count of a table; `None` = unknown.
    fn table_rows(&self, _id: TableId) -> Option<u64> {
        None
    }
}

/// A bound statement, ready for execution.
#[derive(Debug, Clone)]
pub enum BoundStatement {
    Query(LogicalPlan),
    Explain(LogicalPlan),
    /// `EXPLAIN ANALYZE`: execute the plan with profiling forced on and
    /// return the annotated tree.
    ExplainAnalyze(LogicalPlan),
    /// `TRACE`: execute the plan with tracing forced on and return the
    /// chrome://tracing JSON timeline.
    Trace(LogicalPlan),
    CreateTable {
        name: String,
        schema: Schema,
        /// Declared physical design (sort order, range partitioning).
        layout: vw_common::TableLayout,
    },
    Insert {
        table: TableId,
        rows: Vec<Vec<Value>>,
    },
    Update {
        table: TableId,
        assignments: Vec<(usize, Expr)>,
        predicate: Option<Expr>,
    },
    Delete {
        table: TableId,
        predicate: Option<Expr>,
    },
    /// Configuration: `SET [GLOBAL | LOCAL] <name> = <constant>`.
    Set {
        name: String,
        value: Value,
        scope: SetScope,
    },
}

/// Bind a parsed statement.
pub fn bind(stmt: &Statement, catalog: &dyn CatalogView) -> Result<BoundStatement> {
    match stmt {
        Statement::Select(s) => Ok(BoundStatement::Query(bind_select(s, catalog)?)),
        Statement::Explain(inner) => match bind(inner, catalog)? {
            BoundStatement::Query(p) => Ok(BoundStatement::Explain(p)),
            _ => Err(bind_err!("EXPLAIN supports only queries")),
        },
        Statement::ExplainAnalyze(inner) => match bind(inner, catalog)? {
            BoundStatement::Query(p) => Ok(BoundStatement::ExplainAnalyze(p)),
            _ => Err(bind_err!("EXPLAIN ANALYZE supports only queries")),
        },
        Statement::Trace(inner) => match bind(inner, catalog)? {
            BoundStatement::Query(p) => Ok(BoundStatement::Trace(p)),
            _ => Err(bind_err!("TRACE supports only queries")),
        },
        Statement::CreateTable {
            name,
            columns,
            order_by,
            partition_by,
        } => {
            let schema: Schema = columns
                .iter()
                .map(|c| vw_common::Field {
                    name: c.name.clone(),
                    ty: c.ty,
                    nullable: c.nullable,
                })
                .collect();
            schema.check_unique_names()?;
            if catalog.resolve_table(name).is_some() {
                return Err(VwError::Catalog(format!("table '{}' already exists", name)));
            }
            let mut layout = vw_common::TableLayout::default();
            for item in order_by {
                let col = match &item.expr {
                    AstExpr::Column(None, c) => schema.resolve(c)?,
                    _ => return Err(bind_err!("ORDER BY in CREATE TABLE takes column names")),
                };
                layout.order.push(vw_common::SortSpec {
                    col,
                    asc: item.asc,
                    nulls_first: item.nulls_first.unwrap_or(item.asc),
                });
            }
            if let Some(p) = partition_by {
                layout.partition = Some(vw_common::RangePartitionSpec {
                    col: schema.resolve(&p.column)?,
                    partitions: p.partitions,
                });
            }
            Ok(BoundStatement::CreateTable {
                name: name.clone(),
                schema,
                layout,
            })
        }
        Statement::Insert {
            table,
            columns,
            rows,
        } => bind_insert(table, columns, rows, catalog),
        Statement::Update {
            table,
            assignments,
            predicate,
        } => {
            let (tid, schema) = resolve(catalog, table)?;
            let scope = Scope::single(table, &schema);
            let mut bound_assign = Vec::new();
            for (col, e) in assignments {
                let idx = schema.resolve(col)?;
                let be = bind_scalar(e, &scope)?;
                let ety = be.data_type(&schema)?;
                if ety != schema.field(idx).ty
                    && ety.common_numeric(schema.field(idx).ty).is_none()
                    && !(ety == DataType::I32 && schema.field(idx).ty == DataType::Date)
                {
                    return Err(bind_err!(
                        "cannot assign {} to column '{}' of type {}",
                        ety,
                        col,
                        schema.field(idx).ty
                    ));
                }
                bound_assign.push((idx, be));
            }
            let predicate = predicate
                .as_ref()
                .map(|p| bind_predicate(p, &scope, &schema))
                .transpose()?;
            Ok(BoundStatement::Update {
                table: tid,
                assignments: bound_assign,
                predicate,
            })
        }
        Statement::Delete { table, predicate } => {
            let (tid, schema) = resolve(catalog, table)?;
            let scope = Scope::single(table, &schema);
            let predicate = predicate
                .as_ref()
                .map(|p| bind_predicate(p, &scope, &schema))
                .transpose()?;
            Ok(BoundStatement::Delete {
                table: tid,
                predicate,
            })
        }
        Statement::Set { name, value, scope } => {
            let bound = bind_scalar(value, &Scope::default())?;
            let value = bound
                .eval_row(&[])
                .map_err(|_| bind_err!("SET value must be a constant"))?;
            Ok(BoundStatement::Set {
                name: name.to_ascii_lowercase(),
                value,
                scope: *scope,
            })
        }
    }
}

fn resolve(catalog: &dyn CatalogView, name: &str) -> Result<(TableId, Schema)> {
    catalog
        .resolve_table(name)
        .ok_or_else(|| bind_err!("unknown table '{}'", name))
}

fn bind_insert(
    table: &str,
    columns: &[String],
    rows: &[Vec<AstExpr>],
    catalog: &dyn CatalogView,
) -> Result<BoundStatement> {
    let (tid, schema) = resolve(catalog, table)?;
    let col_indexes: Vec<usize> = if columns.is_empty() {
        (0..schema.len()).collect()
    } else {
        columns
            .iter()
            .map(|c| schema.resolve(c))
            .collect::<Result<_>>()?
    };
    let mut out = Vec::with_capacity(rows.len());
    let empty_scope = Scope::default();
    for row in rows {
        if row.len() != col_indexes.len() {
            return Err(bind_err!(
                "INSERT row has {} values, expected {}",
                row.len(),
                col_indexes.len()
            ));
        }
        let mut full = vec![Value::Null; schema.len()];
        for (e, &idx) in row.iter().zip(&col_indexes) {
            let bound = bind_scalar(e, &empty_scope)?;
            let v = bound
                .eval_row(&[])
                .map_err(|_| bind_err!("INSERT values must be constants"))?;
            let want = schema.field(idx).ty;
            let coerced = if v.is_null() {
                Value::Null
            } else {
                v.cast_to(want).ok_or_else(|| {
                    bind_err!(
                        "cannot store {} into column '{}'",
                        v,
                        schema.field(idx).name
                    )
                })?
            };
            full[idx] = coerced;
        }
        for (i, f) in schema.fields().iter().enumerate() {
            if full[i].is_null() && !f.nullable {
                return Err(bind_err!("column '{}' is NOT NULL", f.name));
            }
        }
        out.push(full);
    }
    Ok(BoundStatement::Insert {
        table: tid,
        rows: out,
    })
}

// ---------------------------------------------------------------- scopes

/// Name-resolution scope: ordered relations with their column offsets.
#[derive(Debug, Clone, Default)]
struct Scope {
    /// (qualifier, schema, base offset)
    relations: Vec<(String, Schema, usize)>,
    width: usize,
}

impl Scope {
    fn single(name: &str, schema: &Schema) -> Scope {
        let mut s = Scope::default();
        s.push(name, schema);
        s
    }

    fn push(&mut self, qualifier: &str, schema: &Schema) {
        self.relations
            .push((qualifier.to_string(), schema.clone(), self.width));
        self.width += schema.len();
    }

    fn merged(&self, other: &Scope) -> Scope {
        let mut s = self.clone();
        for (q, sch, _) in &other.relations {
            s.push(q, sch);
        }
        s
    }

    /// Resolve a (possibly qualified) column to (global index, type).
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let mut hit = None;
        for (q, schema, base) in &self.relations {
            if let Some(want) = qualifier {
                if q != want {
                    continue;
                }
            }
            if let Some(i) = schema.index_of(name) {
                if hit.is_some() {
                    return Err(bind_err!("ambiguous column '{}'", name));
                }
                hit = Some(base + i);
            }
        }
        hit.ok_or_else(|| match qualifier {
            Some(q) => bind_err!("column '{}.{}' not found", q, name),
            None => bind_err!("column '{}' not found", name),
        })
    }

    /// Combined schema of the scope.
    fn schema(&self) -> Schema {
        let mut fields = Vec::with_capacity(self.width);
        for (_, schema, _) in &self.relations {
            fields.extend(schema.fields().iter().cloned());
        }
        Schema::new(fields)
    }
}

// ------------------------------------------------------------- expressions

fn ast_binop(op: AstBinOp) -> BinOp {
    match op {
        AstBinOp::Add => BinOp::Add,
        AstBinOp::Sub => BinOp::Sub,
        AstBinOp::Mul => BinOp::Mul,
        AstBinOp::Div => BinOp::Div,
        AstBinOp::Eq => BinOp::Eq,
        AstBinOp::Ne => BinOp::Ne,
        AstBinOp::Lt => BinOp::Lt,
        AstBinOp::Le => BinOp::Le,
        AstBinOp::Gt => BinOp::Gt,
        AstBinOp::Ge => BinOp::Ge,
        AstBinOp::And => BinOp::And,
        AstBinOp::Or => BinOp::Or,
    }
}

/// Bind a scalar (non-aggregate) expression against a scope.
fn bind_scalar(e: &AstExpr, scope: &Scope) -> Result<Expr> {
    Ok(match e {
        AstExpr::Column(q, name) => Expr::Col(scope.resolve(q.as_deref(), name)?),
        AstExpr::Literal(v) => Expr::Lit(v.clone()),
        AstExpr::Binary { op, l, r } => Expr::binary(
            ast_binop(*op),
            bind_scalar(l, scope)?,
            bind_scalar(r, scope)?,
        ),
        AstExpr::Not(x) => Expr::not(bind_scalar(x, scope)?),
        AstExpr::Neg(x) => Expr::Unary {
            op: UnOp::Neg,
            e: Box::new(bind_scalar(x, scope)?),
        },
        AstExpr::IsNull { e, negated } => Expr::Unary {
            op: if *negated {
                UnOp::IsNotNull
            } else {
                UnOp::IsNull
            },
            e: Box::new(bind_scalar(e, scope)?),
        },
        AstExpr::Between { e, lo, hi, negated } => {
            let b = bind_scalar(e, scope)?;
            let both = Expr::and(
                Expr::binary(BinOp::Ge, b.clone(), bind_scalar(lo, scope)?),
                Expr::binary(BinOp::Le, b, bind_scalar(hi, scope)?),
            );
            if *negated {
                Expr::not(both)
            } else {
                both
            }
        }
        AstExpr::InList { e, list, negated } => {
            let vals: Result<Vec<Value>> = list
                .iter()
                .map(|x| {
                    bind_scalar(x, scope)?
                        .eval_row(&[])
                        .map_err(|_| bind_err!("IN list items must be constants"))
                })
                .collect();
            Expr::InList {
                e: Box::new(bind_scalar(e, scope)?),
                list: vals?,
                negated: *negated,
            }
        }
        AstExpr::InSubquery { .. } => {
            return Err(bind_err!(
                "IN (SELECT ...) is only supported as a top-level WHERE conjunct"
            ))
        }
        AstExpr::Like {
            e,
            pattern,
            negated,
        } => Expr::Like {
            e: Box::new(bind_scalar(e, scope)?),
            pattern: pattern.clone(),
            negated: *negated,
        },
        AstExpr::Case { whens, otherwise } => Expr::Case {
            whens: whens
                .iter()
                .map(|(c, t)| Ok((bind_scalar(c, scope)?, bind_scalar(t, scope)?)))
                .collect::<Result<_>>()?,
            otherwise: otherwise
                .as_ref()
                .map(|x| Ok::<_, VwError>(Box::new(bind_scalar(x, scope)?)))
                .transpose()?,
        },
        AstExpr::Cast { e, ty } => Expr::Cast(Box::new(bind_scalar(e, scope)?), *ty),
        AstExpr::Agg { .. } => {
            return Err(bind_err!(
                "aggregate functions are not allowed here (use GROUP BY context)"
            ))
        }
        AstExpr::Substring { e, start, len } => Expr::Substr {
            e: Box::new(bind_scalar(e, scope)?),
            start: *start,
            len: *len,
        },
        AstExpr::Extract { part, e } => Expr::Extract {
            part: match part {
                ExtractPart::Year => DatePart::Year,
                ExtractPart::Month => DatePart::Month,
            },
            e: Box::new(bind_scalar(e, scope)?),
        },
        AstExpr::AddMonths { e, months } => Expr::AddMonths {
            e: Box::new(bind_scalar(e, scope)?),
            months: *months,
        },
    })
}

/// Bind a predicate and type-check it as boolean.
fn bind_predicate(e: &AstExpr, scope: &Scope, schema: &Schema) -> Result<Expr> {
    let bound = bind_scalar(e, scope)?;
    let ty = bound.data_type(schema)?;
    if ty != DataType::Bool {
        return Err(bind_err!("predicate has type {}, expected BOOLEAN", ty));
    }
    Ok(bound)
}

// ------------------------------------------------------------------- FROM

struct FromResult {
    plan: LogicalPlan,
    scope: Scope,
}

/// Bind one TableRef (base table + its explicit join chain).
fn bind_table_ref(t: &TableRef, catalog: &dyn CatalogView) -> Result<FromResult> {
    let (tid, schema) = resolve(catalog, &t.name)?;
    let qualifier = t.alias.clone().unwrap_or_else(|| t.name.clone());
    let mut scope = Scope::single(&qualifier, &schema);
    let mut plan = LogicalPlan::scan(&t.name, tid, schema);
    for j in &t.joins {
        let (jid, jschema) = resolve(catalog, &j.table)?;
        let jq = j.alias.clone().unwrap_or_else(|| j.table.clone());
        let right_scope = Scope::single(&jq, &jschema);
        let combined = scope.merged(&right_scope);
        let on = bind_predicate(&j.on, &combined, &combined.schema())?;
        let left_width = scope.width;
        let (keys, residual) = split_join_condition(&on, left_width)?;
        if keys.is_empty() {
            return Err(bind_err!(
                "JOIN ON must contain at least one equality between the two sides"
            ));
        }
        let kind = match j.kind {
            AstJoinKind::Inner => JoinKind::Inner,
            AstJoinKind::Left => JoinKind::Left,
        };
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(LogicalPlan::scan(&j.table, jid, jschema)),
            kind,
            on: keys,
            residual,
        };
        scope = combined;
    }
    Ok(FromResult { plan, scope })
}

/// Split a bound ON condition into equi-key pairs and a residual.
#[allow(clippy::type_complexity)]
fn split_join_condition(
    on: &Expr,
    left_width: usize,
) -> Result<(Vec<(usize, usize)>, Option<Expr>)> {
    let mut conjuncts = Vec::new();
    split_conjunction(on, &mut conjuncts);
    let mut keys = Vec::new();
    let mut residual = Vec::new();
    for c in conjuncts {
        if let Expr::Binary {
            op: BinOp::Eq,
            l,
            r,
        } = &c
        {
            match (&**l, &**r) {
                (Expr::Col(a), Expr::Col(b)) if *a < left_width && *b >= left_width => {
                    keys.push((*a, *b - left_width));
                    continue;
                }
                (Expr::Col(a), Expr::Col(b)) if *b < left_width && *a >= left_width => {
                    keys.push((*b, *a - left_width));
                    continue;
                }
                _ => {}
            }
        }
        residual.push(c);
    }
    Ok((keys, conjoin(residual)))
}

// ----------------------------------------------------------------- SELECT

/// Bind a SELECT into a logical plan.
pub fn bind_select(stmt: &SelectStmt, catalog: &dyn CatalogView) -> Result<LogicalPlan> {
    if stmt.from.is_empty() {
        return Err(bind_err!("SELECT without FROM is not supported"));
    }
    // 1. FROM items.
    let mut parts: Vec<FromResult> = stmt
        .from
        .iter()
        .map(|t| bind_table_ref(t, catalog))
        .collect::<Result<_>>()?;

    // 2. WHERE conjuncts: pull out cross-relation equi predicates (comma-join
    //    conditions) and IN-subqueries; everything else filters later.
    let (mut plan, scope, mut filter_conjuncts, subqueries) = if parts.len() == 1 {
        let FromResult { plan, scope } = parts.pop().unwrap();
        let (filters, subs) = partition_where(stmt, &scope)?;
        (plan, scope, filters, subs)
    } else {
        bind_comma_joins(stmt, parts)?
    };

    // 3. IN-subqueries become semi/anti joins.
    for sub in subqueries {
        let sub_plan = bind_select(&sub.query, catalog)?;
        let sub_schema = sub_plan.schema()?;
        if sub_schema.len() != 1 {
            return Err(bind_err!("IN subquery must produce exactly one column"));
        }
        let key = match &sub.key {
            Expr::Col(i) => *i,
            _ => {
                return Err(bind_err!(
                    "left side of IN (SELECT ...) must be a plain column"
                ))
            }
        };
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(sub_plan),
            kind: if sub.negated {
                JoinKind::Anti
            } else {
                JoinKind::Semi
            },
            on: vec![(key, 0)],
            residual: None,
        };
    }

    // 4. Residual WHERE filter.
    if let Some(pred) = conjoin(std::mem::take(&mut filter_conjuncts)) {
        let schema = plan.schema()?;
        let ty = pred.data_type(&schema)?;
        if ty != DataType::Bool {
            return Err(bind_err!("WHERE has type {}, expected BOOLEAN", ty));
        }
        plan = plan.filter(pred);
    }

    // 5. SELECT list & aggregation.
    let has_agg = stmt
        .items
        .iter()
        .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
        || !stmt.group_by.is_empty()
        || stmt.having.is_some();

    // ORDER BY is handled inside the select binders (they can sort by
    // hidden, non-projected expressions); with DISTINCT the keys must come
    // from the output columns, so sorting happens after the distinct wrap.
    let order_inside = !stmt.distinct;
    let mut plan = if has_agg {
        bind_aggregate_select(stmt, plan, &scope, order_inside)?
    } else {
        bind_plain_select(stmt, plan, &scope, order_inside)?
    };

    // 6. DISTINCT (+ its output-only ORDER BY).
    if stmt.distinct {
        let n = plan.schema()?.len();
        plan = plan.aggregate((0..n).collect(), vec![]);
        if !stmt.order_by.is_empty() {
            let out_schema = plan.schema()?;
            let mut keys = Vec::new();
            for item in &stmt.order_by {
                let col = resolve_output_order_key(&item.expr, &out_schema)?
                    .ok_or_else(|| bind_err!("ORDER BY with DISTINCT must use output columns"))?;
                keys.push(SortKey {
                    col,
                    asc: item.asc,
                    nulls_first: item.nulls_first.unwrap_or(item.asc),
                });
            }
            plan = plan.sort(keys);
        }
    }

    // 8. LIMIT/OFFSET.
    if stmt.limit.is_some() || stmt.offset.is_some() {
        plan = plan.limit(stmt.offset.unwrap_or(0), stmt.limit.unwrap_or(u64::MAX));
    }
    Ok(plan)
}

struct SubqueryCond {
    key: Expr,
    query: SelectStmt,
    negated: bool,
}

/// Split WHERE into plain conjuncts and IN-subquery conditions.
fn partition_where(stmt: &SelectStmt, scope: &Scope) -> Result<(Vec<Expr>, Vec<SubqueryCond>)> {
    let mut filters = Vec::new();
    let mut subs = Vec::new();
    if let Some(w) = &stmt.selection {
        for c in split_ast_conjuncts(w) {
            match c {
                AstExpr::InSubquery { e, query, negated } => subs.push(SubqueryCond {
                    key: bind_scalar(&e, scope)?,
                    query: *query,
                    negated,
                }),
                other => filters.push(bind_scalar(&other, scope)?),
            }
        }
    }
    Ok((filters, subs))
}

fn split_ast_conjuncts(e: &AstExpr) -> Vec<AstExpr> {
    match e {
        AstExpr::Binary {
            op: AstBinOp::And,
            l,
            r,
        } => {
            let mut out = split_ast_conjuncts(l);
            out.extend(split_ast_conjuncts(r));
            out
        }
        other => vec![other.clone()],
    }
}

/// Comma-join binding: a left-deep tree whose keys are the WHERE equalities
/// between FROM items. The join order is the optimizer's to choose.
fn bind_comma_joins(
    stmt: &SelectStmt,
    parts: Vec<FromResult>,
) -> Result<(LogicalPlan, Scope, Vec<Expr>, Vec<SubqueryCond>)> {
    // Scope covering everything, in written order, for WHERE binding.
    let mut full_scope = Scope::default();
    for p in &parts {
        for (q, s, _) in &p.scope.relations {
            full_scope.push(q, s);
        }
    }
    let (bound_filters, subs) = partition_where(stmt, &full_scope)?;

    // Classify conjuncts: cross-relation equi-joins vs everything else.
    // Relation index of a global column in written order:
    let rel_of = |col: usize| -> usize {
        let mut acc = 0;
        for (i, p) in parts.iter().enumerate() {
            if col < acc + p.scope.width {
                return i;
            }
            acc += p.scope.width;
        }
        parts.len() - 1
    };
    let mut edges: Vec<(usize, usize, usize, usize)> = Vec::new(); // (relA, colA, relB, colB) global cols
    let mut rest: Vec<Expr> = Vec::new();
    for c in bound_filters {
        if let Expr::Binary {
            op: BinOp::Eq,
            l,
            r,
        } = &c
        {
            if let (Expr::Col(a), Expr::Col(b)) = (&**l, &**r) {
                let (ra, rb) = (rel_of(*a), rel_of(*b));
                if ra != rb {
                    edges.push((ra, *a, rb, *b));
                    continue;
                }
            }
        }
        rest.push(c);
    }

    // Written order, except that each next relation is the first one
    // connected to those already joined (the optimizer picks the real order).
    let mut order: Vec<usize> = vec![0];
    while order.len() < parts.len() {
        let next = (0..parts.len()).find(|i| {
            !order.contains(i)
                && edges.iter().any(|&(a, _, b, _)| {
                    (a == *i && order.contains(&b)) || (b == *i && order.contains(&a))
                })
        });
        match next {
            Some(i) => order.push(i),
            None => {
                return Err(bind_err!(
                    "cross join between FROM items is not supported (no join predicate)"
                ))
            }
        }
    }

    // Build the join tree in that order; maintain a map from written-order
    // global columns to current plan columns.
    let offsets: Vec<usize> = {
        let mut acc = 0;
        parts
            .iter()
            .map(|p| {
                let o = acc;
                acc += p.scope.width;
                o
            })
            .collect()
    };
    let mut col_map: HashMap<usize, usize> = HashMap::new();
    let mut joined: Vec<usize> = Vec::new();
    let mut plan: Option<LogicalPlan> = None;
    let mut scope = Scope::default();
    let mut parts: Vec<Option<FromResult>> = parts.into_iter().map(Some).collect();
    let mut used_edges = vec![false; edges.len()];
    for &rel in &order {
        let part = parts[rel].take().unwrap();
        let base = offsets[rel];
        let cur_width = scope.width;
        for i in 0..part.scope.width {
            col_map.insert(base + i, cur_width + i);
        }
        match plan.take() {
            None => {
                plan = Some(part.plan);
                scope = part.scope;
            }
            Some(left) => {
                // join keys: all unused edges between `joined` and `rel`
                // (at least one: `rel` was picked for being connected)
                let mut on = Vec::new();
                for (k, &(ra, ca, rb, cb)) in edges.iter().enumerate() {
                    if used_edges[k] {
                        continue;
                    }
                    let (rel_col, other_col) = if ra == rel && joined.contains(&rb) {
                        (ca, cb)
                    } else if rb == rel && joined.contains(&ra) {
                        (cb, ca)
                    } else {
                        continue;
                    };
                    // left key = already-joined side, right key = new rel
                    on.push((col_map[&other_col], rel_col - base));
                    used_edges[k] = true;
                }
                scope = scope.merged(&part.scope);
                plan = Some(LogicalPlan::Join {
                    left: Box::new(left),
                    right: Box::new(part.plan),
                    kind: JoinKind::Inner,
                    on,
                    residual: None,
                });
            }
        }
        joined.push(rel);
    }
    // Any edges left unused connect relations already joined (cycles in the
    // join graph): apply as filters.
    let mut rest_remapped: Vec<Expr> = rest
        .iter()
        .map(|e| e.remap_columns(&|i| col_map[&i]))
        .collect();
    for (k, &(_, ca, _, cb)) in edges.iter().enumerate() {
        if !used_edges[k] {
            rest_remapped.push(Expr::eq(Expr::col(col_map[&ca]), Expr::col(col_map[&cb])));
        }
    }
    // Remap subquery keys too.
    let subs = subs
        .into_iter()
        .map(|s| SubqueryCond {
            key: s.key.remap_columns(&|i| col_map[&i]),
            query: s.query,
            negated: s.negated,
        })
        .collect();
    Ok((plan.unwrap(), scope, rest_remapped, subs))
}

/// Resolve an ORDER BY key against the output schema: ordinal, alias or
/// plain output column name. `Ok(None)` = not an output key.
fn resolve_output_order_key(e: &AstExpr, out_schema: &Schema) -> Result<Option<usize>> {
    match e {
        AstExpr::Literal(Value::I64(n)) => {
            if *n >= 1 && (*n as usize) <= out_schema.len() {
                Ok(Some((*n - 1) as usize))
            } else {
                Err(bind_err!("ORDER BY ordinal {} out of range", n))
            }
        }
        AstExpr::Column(None, name) => Ok(out_schema.index_of(name)),
        _ => Ok(None),
    }
}

/// Shared ORDER BY machinery: resolve keys against the visible output, and
/// fall back to `bind_extra` for hidden sort expressions (standard SQL:
/// `SELECT id FROM t ORDER BY salary`). Hidden keys are appended to the
/// projection, sorted on, then stripped with a final projection.
fn apply_order_by(
    order_by: &[crate::ast::OrderItem],
    mut exprs: Vec<(Expr, String)>,
    input: LogicalPlan,
    bind_extra: &mut dyn FnMut(&AstExpr) -> Result<Expr>,
) -> Result<LogicalPlan> {
    let n_visible = exprs.len();
    let visible = Schema::new(
        exprs
            .iter()
            .map(|(_, n)| vw_common::Field::new(n.clone(), DataType::I64))
            .collect(),
    );
    let mut keys = Vec::new();
    for item in order_by {
        let col = match resolve_output_order_key(&item.expr, &visible)? {
            Some(c) => c,
            None => {
                let bound = bind_extra(&item.expr)?;
                match exprs.iter().position(|(e, _)| *e == bound) {
                    Some(c) => c,
                    None => {
                        exprs.push((bound, format!("__ord{}", exprs.len() - n_visible)));
                        exprs.len() - 1
                    }
                }
            }
        };
        keys.push(SortKey {
            col,
            asc: item.asc,
            nulls_first: item.nulls_first.unwrap_or(item.asc),
        });
    }
    let projected = LogicalPlan::Project {
        input: Box::new(input),
        exprs: exprs.clone(),
    };
    let sorted = projected.sort(keys);
    if exprs.len() > n_visible {
        // strip hidden sort columns
        let strip: Vec<(Expr, String)> = exprs[..n_visible]
            .iter()
            .enumerate()
            .map(|(i, (_, n))| (Expr::col(i), n.clone()))
            .collect();
        Ok(LogicalPlan::Project {
            input: Box::new(sorted),
            exprs: strip,
        })
    } else {
        Ok(sorted)
    }
}

/// Non-aggregate SELECT list.
fn bind_plain_select(
    stmt: &SelectStmt,
    plan: LogicalPlan,
    scope: &Scope,
    order_inside: bool,
) -> Result<LogicalPlan> {
    let in_schema = plan.schema()?;
    let mut exprs: Vec<(Expr, String)> = Vec::new();
    for (i, item) in stmt.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                for (c, f) in in_schema.fields().iter().enumerate() {
                    exprs.push((Expr::col(c), f.name.clone()));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let bound = bind_scalar(expr, scope)?;
                let name = output_name(expr, alias, i, &in_schema, &bound);
                exprs.push((bound, name));
            }
        }
    }
    if order_inside && !stmt.order_by.is_empty() {
        return apply_order_by(&stmt.order_by, exprs, plan, &mut |e| bind_scalar(e, scope));
    }
    // `SELECT *` with no other items and no sorting: pass through.
    if stmt.items.len() == 1 && matches!(stmt.items[0], SelectItem::Wildcard) {
        return Ok(plan);
    }
    Ok(LogicalPlan::Project {
        input: Box::new(plan),
        exprs,
    })
}

fn output_name(
    ast: &AstExpr,
    alias: &Option<String>,
    idx: usize,
    schema: &Schema,
    bound: &Expr,
) -> String {
    if let Some(a) = alias {
        return a.clone();
    }
    if let AstExpr::Column(_, name) = ast {
        return name.clone();
    }
    if let Expr::Col(i) = bound {
        return schema.field(*i).name.clone();
    }
    format!("col{}", idx + 1)
}

/// Aggregate SELECT: pre-project group keys and agg arguments, aggregate,
/// HAVING filter, post-project the final expressions.
fn bind_aggregate_select(
    stmt: &SelectStmt,
    plan: LogicalPlan,
    scope: &Scope,
    order_inside: bool,
) -> Result<LogicalPlan> {
    // Bind the GROUP BY expressions.
    let group_bound: Vec<(AstExpr, Expr)> = stmt
        .group_by
        .iter()
        .map(|g| Ok((g.clone(), bind_scalar(g, scope)?)))
        .collect::<Result<_>>()?;

    // Collect aggregates from SELECT items + HAVING.
    let mut aggs: Vec<(AstAggFunc, Option<Expr>)> = Vec::new();
    let mut collect = |e: &AstExpr| -> Result<()> { collect_aggs(e, scope, &mut aggs) };
    for item in &stmt.items {
        if let SelectItem::Expr { expr, .. } = item {
            collect(expr)?;
        } else {
            return Err(bind_err!("SELECT * cannot be combined with GROUP BY"));
        }
    }
    if let Some(h) = &stmt.having {
        collect(h)?;
    }
    for item in &stmt.order_by {
        // ORDER BY may reference aggregates not in the select list
        if item.expr.contains_aggregate() {
            collect(&item.expr)?;
        }
    }

    let k = group_bound.len();
    // Pre-projection: group keys then agg args (agg args may be None for
    // COUNT(*), which needs no input column).
    let mut pre: Vec<(Expr, String)> = Vec::new();
    for (i, (_, ge)) in group_bound.iter().enumerate() {
        pre.push((ge.clone(), format!("__g{}", i)));
    }
    // One column per distinct argument: aggregates over the same bound
    // expression read the same column.
    let mut agg_arg_cols: Vec<Option<usize>> = Vec::new();
    for (j, (_, arg)) in aggs.iter().enumerate() {
        let col = arg.as_ref().map(|a| {
            let earlier = pre[k..].iter().position(|(e, _)| e == a);
            earlier.map(|c| k + c).unwrap_or_else(|| {
                pre.push((a.clone(), format!("__a{j}")));
                pre.len() - 1
            })
        });
        agg_arg_cols.push(col);
    }
    // keep at least one column for COUNT(*)-only queries
    if pre.is_empty() {
        pre.push((Expr::lit(Value::I64(1)), "__one".into()));
    }
    let pre_plan = LogicalPlan::Project {
        input: Box::new(plan),
        exprs: pre,
    };

    let agg_exprs: Vec<AggExpr> = aggs
        .iter()
        .zip(&agg_arg_cols)
        .enumerate()
        .map(|(j, ((func, _), col))| AggExpr {
            func: map_agg_func(*func, col.is_none()),
            arg: col.map(Expr::Col),
            name: format!("__agg{}", j),
        })
        .collect();
    let mut plan = LogicalPlan::Aggregate {
        input: Box::new(pre_plan),
        group_by: (0..k).collect(),
        aggs: agg_exprs,
        phase: vw_plan::plan::AggPhase::Single,
    };

    // Post-aggregate context: columns are [groups..., aggs...].
    let post = PostAggCtx {
        groups: &group_bound,
        aggs: &aggs,
        scope,
        k,
    };
    if let Some(h) = &stmt.having {
        let pred = post.bind(h)?;
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: pred,
        };
    }
    // Final projection: the SELECT items.
    let agg_schema = plan.schema()?;
    let mut exprs: Vec<(Expr, String)> = Vec::new();
    for (i, item) in stmt.items.iter().enumerate() {
        let SelectItem::Expr { expr, alias } = item else {
            unreachable!()
        };
        let bound = post.bind(expr)?;
        let name = output_name(expr, alias, i, &agg_schema, &bound);
        exprs.push((bound, name));
    }
    if order_inside && !stmt.order_by.is_empty() {
        // hidden sort keys may be group expressions or aggregates
        return apply_order_by(&stmt.order_by, exprs, plan, &mut |e| post.bind(e));
    }
    Ok(LogicalPlan::Project {
        input: Box::new(plan),
        exprs,
    })
}

fn map_agg_func(f: AstAggFunc, star: bool) -> AggFunc {
    match f {
        AstAggFunc::Count => {
            if star {
                AggFunc::CountStar
            } else {
                AggFunc::Count
            }
        }
        AstAggFunc::Sum => AggFunc::Sum,
        AstAggFunc::Min => AggFunc::Min,
        AstAggFunc::Max => AggFunc::Max,
        AstAggFunc::Avg => AggFunc::Avg,
    }
}

/// Collect (deduplicated) aggregate calls.
fn collect_aggs(
    e: &AstExpr,
    scope: &Scope,
    out: &mut Vec<(AstAggFunc, Option<Expr>)>,
) -> Result<()> {
    match e {
        AstExpr::Agg { func, arg } => {
            let bound = arg.as_ref().map(|a| bind_scalar(a, scope)).transpose()?;
            if !out.iter().any(|(f, b)| f == func && b == &bound) {
                out.push((*func, bound));
            }
            Ok(())
        }
        AstExpr::Column(..) | AstExpr::Literal(_) => Ok(()),
        AstExpr::Binary { l, r, .. } => {
            collect_aggs(l, scope, out)?;
            collect_aggs(r, scope, out)
        }
        AstExpr::Not(x) | AstExpr::Neg(x) => collect_aggs(x, scope, out),
        AstExpr::IsNull { e, .. }
        | AstExpr::Like { e, .. }
        | AstExpr::Cast { e, .. }
        | AstExpr::Substring { e, .. }
        | AstExpr::Extract { e, .. }
        | AstExpr::AddMonths { e, .. } => collect_aggs(e, scope, out),
        AstExpr::Between { e, lo, hi, .. } => {
            collect_aggs(e, scope, out)?;
            collect_aggs(lo, scope, out)?;
            collect_aggs(hi, scope, out)
        }
        AstExpr::InList { e, list, .. } => {
            collect_aggs(e, scope, out)?;
            for x in list {
                collect_aggs(x, scope, out)?;
            }
            Ok(())
        }
        AstExpr::InSubquery { .. } => Err(bind_err!("subquery not allowed here")),
        AstExpr::Case { whens, otherwise } => {
            for (c, t) in whens {
                collect_aggs(c, scope, out)?;
                collect_aggs(t, scope, out)?;
            }
            if let Some(x) = otherwise {
                collect_aggs(x, scope, out)?;
            }
            Ok(())
        }
    }
}

/// Binds expressions in the post-aggregate context: group expressions map to
/// columns `0..k`, aggregate calls map to columns `k..k+m`, anything else
/// must be composed of those.
struct PostAggCtx<'a> {
    groups: &'a [(AstExpr, Expr)],
    aggs: &'a [(AstAggFunc, Option<Expr>)],
    scope: &'a Scope,
    k: usize,
}

impl PostAggCtx<'_> {
    fn bind(&self, e: &AstExpr) -> Result<Expr> {
        // A whole subtree equal to a GROUP BY expression → group column.
        for (i, (g_ast, _)) in self.groups.iter().enumerate() {
            if g_ast == e {
                return Ok(Expr::Col(i));
            }
        }
        match e {
            AstExpr::Agg { func, arg } => {
                let bound = arg
                    .as_ref()
                    .map(|a| bind_scalar(a, self.scope))
                    .transpose()?;
                let j = self
                    .aggs
                    .iter()
                    .position(|(f, b)| f == func && b == &bound)
                    .ok_or_else(|| bind_err!("aggregate not collected"))?;
                Ok(Expr::Col(self.k + j))
            }
            AstExpr::Literal(v) => Ok(Expr::Lit(v.clone())),
            AstExpr::Column(q, name) => {
                // A bare column must match a group expr (by bound index).
                let bound = Expr::Col(self.scope.resolve(q.as_deref(), name)?);
                for (i, (_, g_bound)) in self.groups.iter().enumerate() {
                    if *g_bound == bound {
                        return Ok(Expr::Col(i));
                    }
                }
                Err(bind_err!(
                    "column '{}' must appear in GROUP BY or inside an aggregate",
                    name
                ))
            }
            AstExpr::Binary { op, l, r } => {
                Ok(Expr::binary(ast_binop(*op), self.bind(l)?, self.bind(r)?))
            }
            AstExpr::Not(x) => Ok(Expr::not(self.bind(x)?)),
            AstExpr::Neg(x) => Ok(Expr::Unary {
                op: UnOp::Neg,
                e: Box::new(self.bind(x)?),
            }),
            AstExpr::IsNull { e, negated } => Ok(Expr::Unary {
                op: if *negated {
                    UnOp::IsNotNull
                } else {
                    UnOp::IsNull
                },
                e: Box::new(self.bind(e)?),
            }),
            AstExpr::Case { whens, otherwise } => Ok(Expr::Case {
                whens: whens
                    .iter()
                    .map(|(c, t)| Ok((self.bind(c)?, self.bind(t)?)))
                    .collect::<Result<_>>()?,
                otherwise: otherwise
                    .as_ref()
                    .map(|x| Ok::<_, VwError>(Box::new(self.bind(x)?)))
                    .transpose()?,
            }),
            AstExpr::Cast { e, ty } => Ok(Expr::Cast(Box::new(self.bind(e)?), *ty)),
            AstExpr::Between { e, lo, hi, negated } => {
                let b = self.bind(e)?;
                let both = Expr::and(
                    Expr::binary(BinOp::Ge, b.clone(), self.bind(lo)?),
                    Expr::binary(BinOp::Le, b, self.bind(hi)?),
                );
                Ok(if *negated { Expr::not(both) } else { both })
            }
            other => Err(bind_err!(
                "expression not supported above GROUP BY: {:?}",
                other
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use vw_common::Field;

    struct TestCatalog {
        tables: HashMap<String, (TableId, Schema)>,
    }

    impl TestCatalog {
        fn new() -> TestCatalog {
            let mut tables = HashMap::new();
            tables.insert(
                "lineitem".to_string(),
                (
                    TableId::new(1),
                    Schema::new(vec![
                        Field::new("orderkey", DataType::I64),
                        Field::new("quantity", DataType::I64),
                        Field::new("price", DataType::F64),
                        Field::new("shipdate", DataType::Date),
                        Field::new("flag", DataType::Str),
                    ]),
                ),
            );
            tables.insert(
                "orders".to_string(),
                (
                    TableId::new(2),
                    Schema::new(vec![
                        Field::new("orderkey", DataType::I64),
                        Field::new("custkey", DataType::I64),
                        Field::nullable("comment", DataType::Str),
                    ]),
                ),
            );
            tables.insert(
                "customer".to_string(),
                (
                    TableId::new(3),
                    Schema::new(vec![
                        Field::new("custkey", DataType::I64),
                        Field::new("name", DataType::Str),
                    ]),
                ),
            );
            TestCatalog { tables }
        }
    }

    impl CatalogView for TestCatalog {
        fn resolve_table(&self, name: &str) -> Option<(TableId, Schema)> {
            self.tables.get(name).cloned()
        }
    }

    fn bind_sql(sql: &str) -> Result<BoundStatement> {
        let stmt = parse_statement(sql)?;
        bind(&stmt, &TestCatalog::new())
    }

    fn plan_of(sql: &str) -> LogicalPlan {
        match bind_sql(sql).unwrap() {
            BoundStatement::Query(p) => p,
            other => panic!("{:?}", other),
        }
    }

    /// TPC-H Q1 pre-projects one column per distinct aggregate argument:
    /// AVG(l_quantity) and AVG(l_extendedprice) read the columns of the SUMs
    /// over the same expressions, so the Project under the Aggregate holds
    /// the two keys and five arguments, not seven.
    #[test]
    fn q1_pre_projection_has_one_column_per_distinct_argument() {
        struct Q1Catalog;
        impl CatalogView for Q1Catalog {
            fn resolve_table(&self, name: &str) -> Option<(TableId, Schema)> {
                let f = |n: &str, ty| Field::new(n, ty);
                let schema = Schema::new(vec![
                    f("l_quantity", DataType::F64),
                    f("l_extendedprice", DataType::F64),
                    f("l_discount", DataType::F64),
                    f("l_tax", DataType::F64),
                    f("l_returnflag", DataType::Str),
                    f("l_linestatus", DataType::Str),
                    f("l_shipdate", DataType::Date),
                ]);
                (name == "lineitem").then(|| (TableId::new(1), schema))
            }
        }
        let sql = "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, \
                   SUM(l_extendedprice) AS sum_base_price, \
                   SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, \
                   SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, \
                   AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, \
                   AVG(l_discount) AS avg_disc, COUNT(*) AS count_order \
                   FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' \
                   GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus";
        let BoundStatement::Query(plan) = bind(&parse_statement(sql).unwrap(), &Q1Catalog).unwrap()
        else {
            panic!("a query");
        };
        let mut nodes = vec![&plan];
        let (aggs, pre) = loop {
            let node = nodes.pop().expect("an Aggregate over a Project");
            match node {
                LogicalPlan::Aggregate { aggs, input, .. } => match input.as_ref() {
                    LogicalPlan::Project { exprs, .. } => break (aggs, exprs),
                    other => panic!("pre-projection expected, got {other:?}"),
                },
                other => nodes.extend(other.children()),
            }
        };
        let names: Vec<&str> = pre.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(
            names,
            ["__g0", "__g1", "__a0", "__a1", "__a2", "__a3", "__a6"]
        );
        let args: Vec<Option<Expr>> = aggs.iter().map(|a| a.arg.clone()).collect();
        let col = |c| Some(Expr::col(c));
        assert_eq!(
            args,
            [col(2), col(3), col(4), col(5), col(2), col(3), col(6), None]
        );
    }

    #[test]
    fn simple_projection_types() {
        let p = plan_of("SELECT orderkey, price * 2 AS dbl FROM lineitem");
        let s = p.schema().unwrap();
        assert_eq!(s.field(0).name, "orderkey");
        assert_eq!(s.field(1).name, "dbl");
        assert_eq!(s.field(1).ty, DataType::F64);
    }

    #[test]
    fn wildcard_passthrough() {
        let p = plan_of("SELECT * FROM orders");
        assert_eq!(p.schema().unwrap().len(), 3);
        assert!(matches!(p, LogicalPlan::Scan { .. }));
    }

    #[test]
    fn where_is_typed() {
        assert!(bind_sql("SELECT * FROM orders WHERE custkey").is_err());
        assert!(bind_sql("SELECT * FROM orders WHERE custkey = 5").is_ok());
        assert!(bind_sql("SELECT * FROM orders WHERE nosuch = 5").is_err());
    }

    #[test]
    fn qualified_and_ambiguous_names() {
        // both orders and customer have custkey
        assert!(
            bind_sql("SELECT custkey FROM orders o JOIN customer c ON o.custkey = c.custkey")
                .is_err()
        );
        assert!(bind_sql(
            "SELECT o.custkey FROM orders o JOIN customer c ON o.custkey = c.custkey"
        )
        .is_ok());
    }

    #[test]
    fn explicit_join_builds_keys() {
        let p = plan_of(
            "SELECT o.orderkey FROM orders o JOIN customer c ON o.custkey = c.custkey AND o.orderkey > 5",
        );
        let text = p.explain();
        assert!(text.contains("INNERJoin on l#1=r#0"), "{}", text);
        assert!(text.contains("residual"), "{}", text);
    }

    #[test]
    fn left_join_kind() {
        let p = plan_of(
            "SELECT o.orderkey FROM orders o LEFT JOIN customer c ON o.custkey = c.custkey",
        );
        assert!(p.explain().contains("LEFTJoin"));
    }

    #[test]
    fn comma_join_builds_in_written_order() {
        // Written order, except that each next item must connect to the ones
        // already joined: lineitem links only to orders, so it comes last.
        let p = plan_of(
            "SELECT l.orderkey FROM customer c, lineitem l, orders o \
             WHERE c.custkey = o.custkey AND o.orderkey = l.orderkey",
        );
        let text = p.explain();
        let pos = |t: &str| text.find(&format!("Scan {t}")).unwrap();
        assert!(pos("customer") < pos("orders"), "{}", text);
        assert!(pos("orders") < pos("lineitem"), "{}", text);
        assert!(text.contains("INNERJoin on l#0=r#1"), "{}", text);
        assert!(text.contains("INNERJoin on l#2=r#0"), "{}", text);
    }

    #[test]
    fn cross_join_rejected() {
        assert!(bind_sql("SELECT * FROM orders, customer").is_err());
    }

    #[test]
    fn aggregate_query_shape() {
        let p = plan_of(
            "SELECT flag, COUNT(*) AS n, SUM(price * quantity) AS rev \
             FROM lineitem WHERE quantity > 0 GROUP BY flag HAVING COUNT(*) > 1 \
             ORDER BY rev DESC LIMIT 5",
        );
        let text = p.explain();
        assert!(text.contains("Aggregate"), "{}", text);
        assert!(text.contains("Limit"), "{}", text);
        assert!(text.contains("Sort"), "{}", text);
        let s = p.schema().unwrap();
        assert_eq!(s.field(0).name, "flag");
        assert_eq!(s.field(1).name, "n");
        assert_eq!(s.field(2).name, "rev");
        assert_eq!(s.field(2).ty, DataType::F64);
    }

    #[test]
    fn group_by_expression() {
        let p = plan_of(
            "SELECT EXTRACT(YEAR FROM shipdate) AS yr, COUNT(*) FROM lineitem \
             GROUP BY EXTRACT(YEAR FROM shipdate) ORDER BY yr",
        );
        let s = p.schema().unwrap();
        assert_eq!(s.field(0).name, "yr");
        assert_eq!(s.field(0).ty, DataType::I32);
    }

    #[test]
    fn ungrouped_column_rejected() {
        assert!(bind_sql("SELECT flag, quantity, COUNT(*) FROM lineitem GROUP BY flag").is_err());
    }

    #[test]
    fn scalar_aggregate_without_group() {
        let p = plan_of("SELECT COUNT(*), AVG(price) FROM lineitem");
        let s = p.schema().unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.field(1).ty, DataType::F64);
    }

    #[test]
    fn distinct_becomes_group() {
        let p = plan_of("SELECT DISTINCT flag FROM lineitem");
        assert!(p.explain().contains("Aggregate"));
    }

    #[test]
    fn order_by_ordinal_and_name() {
        let p = plan_of("SELECT orderkey, custkey FROM orders ORDER BY 2 DESC, orderkey");
        match p {
            LogicalPlan::Sort { keys, .. } => {
                assert_eq!(keys[0].col, 1);
                assert!(!keys[0].asc);
                assert_eq!(keys[1].col, 0);
                assert!(keys[1].asc);
            }
            other => panic!("{}", other.explain()),
        }
        assert!(bind_sql("SELECT orderkey FROM orders ORDER BY 5").is_err());
    }

    #[test]
    fn in_subquery_binds_to_semi_join() {
        let p =
            plan_of("SELECT orderkey FROM orders WHERE custkey IN (SELECT custkey FROM customer)");
        assert!(p.explain().contains("SEMIJoin"), "{}", p.explain());
        let p = plan_of(
            "SELECT orderkey FROM orders WHERE custkey NOT IN (SELECT custkey FROM customer)",
        );
        assert!(p.explain().contains("ANTIJoin"), "{}", p.explain());
    }

    #[test]
    fn insert_binding() {
        match bind_sql("INSERT INTO customer (custkey, name) VALUES (1, 'x'), (2, 'y')").unwrap() {
            BoundStatement::Insert { rows, .. } => {
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0], vec![Value::I64(1), Value::Str("x".into())]);
            }
            other => panic!("{:?}", other),
        }
        // missing NOT NULL column
        assert!(bind_sql("INSERT INTO customer (custkey) VALUES (1)").is_err());
        // arity mismatch
        assert!(bind_sql("INSERT INTO customer (custkey, name) VALUES (1)").is_err());
        // type coercion failure
        assert!(bind_sql("INSERT INTO customer (custkey, name) VALUES ('abc', 'x')").is_err());
    }

    #[test]
    fn update_delete_binding() {
        match bind_sql("UPDATE orders SET comment = 'hi' WHERE orderkey = 3").unwrap() {
            BoundStatement::Update {
                assignments,
                predicate,
                ..
            } => {
                assert_eq!(assignments[0].0, 2);
                assert!(predicate.is_some());
            }
            other => panic!("{:?}", other),
        }
        match bind_sql("DELETE FROM orders WHERE custkey = 9").unwrap() {
            BoundStatement::Delete { predicate, .. } => assert!(predicate.is_some()),
            other => panic!("{:?}", other),
        }
        assert!(bind_sql("UPDATE orders SET nosuch = 1").is_err());
    }

    #[test]
    fn create_table_binding() {
        match bind_sql("CREATE TABLE newt (a BIGINT NOT NULL, b VARCHAR)").unwrap() {
            BoundStatement::CreateTable {
                name,
                schema,
                layout,
            } => {
                assert_eq!(name, "newt");
                assert!(!schema.field(0).nullable);
                assert!(schema.field(1).nullable);
                assert!(layout.is_trivial());
            }
            other => panic!("{:?}", other),
        }
        assert!(bind_sql("CREATE TABLE orders (a BIGINT)").is_err()); // exists
        assert!(bind_sql("CREATE TABLE d (a BIGINT, a BIGINT)").is_err()); // dup col
    }

    #[test]
    fn create_table_layout_binding() {
        match bind_sql(
            "CREATE TABLE li (k BIGINT, d DATE, v DOUBLE) \
             ORDER BY (d DESC NULLS LAST, k) PARTITION BY RANGE(d) PARTITIONS 3",
        )
        .unwrap()
        {
            BoundStatement::CreateTable { layout, .. } => {
                assert_eq!(layout.order.len(), 2);
                assert_eq!(layout.order[0].col, 1);
                assert!(!layout.order[0].asc);
                assert!(!layout.order[0].nulls_first);
                assert_eq!(layout.order[1].col, 0);
                assert!(layout.order[1].asc);
                assert!(layout.order[1].nulls_first); // default for ASC
                let p = layout.partition.unwrap();
                assert_eq!(p.col, 1);
                assert_eq!(p.partitions, 3);
            }
            other => panic!("{:?}", other),
        }
        // Unknown columns in the physical design are binder errors.
        assert!(bind_sql("CREATE TABLE z (a BIGINT) ORDER BY (nosuch)").is_err());
        assert!(
            bind_sql("CREATE TABLE z (a BIGINT) PARTITION BY RANGE(nosuch) PARTITIONS 2").is_err()
        );
    }

    #[test]
    fn order_by_nulls_placement_binds() {
        let plan = match bind_sql("SELECT custkey FROM orders ORDER BY custkey DESC NULLS FIRST") {
            Ok(BoundStatement::Query(p)) => p,
            other => panic!("{:?}", other),
        };
        fn find_sort(p: &LogicalPlan) -> Option<Vec<SortKey>> {
            if let LogicalPlan::Sort { keys, .. } = p {
                return Some(keys.clone());
            }
            p.children().into_iter().find_map(find_sort)
        }
        let keys = find_sort(&plan).expect("plan has a sort");
        assert_eq!(keys.len(), 1);
        assert!(!keys[0].asc);
        assert!(keys[0].nulls_first);
    }

    #[test]
    fn explain_binds() {
        assert!(matches!(
            bind_sql("EXPLAIN SELECT * FROM orders").unwrap(),
            BoundStatement::Explain(_)
        ));
        assert!(matches!(
            bind_sql("EXPLAIN ANALYZE SELECT * FROM orders").unwrap(),
            BoundStatement::ExplainAnalyze(_)
        ));
        // Only queries can be analyzed.
        assert!(bind_sql("EXPLAIN ANALYZE CREATE TABLE z (a BIGINT)").is_err());
    }

    #[test]
    fn between_and_date_arith() {
        let p = plan_of(
            "SELECT orderkey FROM lineitem WHERE shipdate BETWEEN DATE '1995-01-01' \
             AND DATE '1995-01-01' + INTERVAL '3' MONTH",
        );
        let text = p.explain();
        assert!(text.contains(">="));
        assert!(text.contains("<="));
    }
}
