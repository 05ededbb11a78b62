//! The vectorized expression evaluator.
//!
//! Compiles `vw_plan::Expr` trees onto the primitive kernels: one dispatch
//! per *vector* per node, tight loops inside. Two NULL modes (§I-B):
//!
//! * **rewritten** (default): kernels are NULL-oblivious; NULLs travel as
//!   separate indicator vectors combined with boolean algebra
//!   ([`crate::primitives::merge_nulls`], Kleene combination for AND/OR).
//!   This is the paper's two-column NULL representation.
//! * **naive** (experiment E8): a deliberately faithful model of what the
//!   paper says engines must otherwise do — interpret the expression
//!   row-at-a-time with a NULL check at every step
//!   (`vw_plan::Expr::eval_row` per tuple).
//!
//! CASE evaluates lazily per branch by *narrowing the selection vector* to
//! the lanes each branch owns — the vectorized equivalent of short-circuit
//! evaluation, and the reason a division inside an untaken branch never
//! faults.
//!
//! A string column may come in dictionary form (`ColumnData::Dict`, see
//! [`crate::batch`]). Comparisons with a literal, `IN`, `LIKE` and `IS
//! [NOT] NULL` — and so the `CASE WHEN` conditions built from them — decide
//! each dictionary entry once and fetch the verdicts by code ([`dict_lanes`]);
//! a bare column reference passes the vector on as it is; every other node
//! materializes its operand first.

use crate::batch::{Batch, ExecVector};
use crate::primitives as prim;
use std::borrow::Cow;
use std::cmp::Ordering;
use vw_common::date::{add_months, month_of, parse_date, year_of};
use vw_common::like::LikePattern;
use vw_common::{DataType, Result, Schema, Value, VwError};
use vw_plan::{BinOp, DatePart, Expr, UnOp};
use vw_storage::{ColumnData, DictColumn, StrColumn};

/// A bound, validated expression ready for vectorized evaluation.
pub struct ExprEvaluator {
    expr: Expr,
    schema: Schema,
    out_type: DataType,
    naive: bool,
}

impl ExprEvaluator {
    pub fn new(expr: Expr, schema: &Schema, naive: bool) -> Result<ExprEvaluator> {
        let out_type = expr.data_type(schema)?;
        Ok(ExprEvaluator {
            expr,
            schema: schema.clone(),
            out_type,
            naive,
        })
    }

    pub fn output_type(&self) -> DataType {
        self.out_type
    }

    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// Evaluate over the batch's selected lanes; output has the batch's
    /// physical length, with meaningful values at selected lanes.
    pub fn eval(&self, batch: &Batch) -> Result<ExecVector> {
        let v = self.eval_unfinished(batch)?;
        self.finish(v, batch.sel.as_deref())
    }

    /// [`Self::eval`] short of its last step, the cast to the output type:
    /// the vector this expression hands its parent when it is a subtree of
    /// a larger one. [`Self::finish`] completes it.
    pub fn eval_unfinished(&self, batch: &Batch) -> Result<ExecVector> {
        let sel = batch.sel.as_deref();
        if self.naive {
            eval_naive(&self.expr, &self.schema, batch, sel, self.out_type)
        } else {
            eval_rec(&self.expr, &self.schema, batch, sel)
        }
    }

    /// Cast an [`Self::eval_unfinished`] result to the output type.
    pub fn finish(&self, v: ExecVector, sel: Option<&[u32]>) -> Result<ExecVector> {
        coerce_to(v, self.out_type, sel)
    }

    /// [`Self::eval`], borrowing the batch's own vector when the expression
    /// is a bare column reference of the output's physical type: an
    /// aggregate's argument is read, never kept, so it need not be copied.
    pub fn eval_ref<'a>(&self, batch: &'a Batch) -> Result<Cow<'a, ExecVector>> {
        if let (Expr::Col(i), false) = (&self.expr, self.naive) {
            if let Some(v) = batch.columns.get(*i) {
                if physical_type(&v.data) == ColumnData::physical_type(self.out_type) {
                    return Ok(Cow::Borrowed(v));
                }
            }
        }
        self.eval(batch).map(Cow::Owned)
    }

    /// Evaluate with an explicit selection (operators with custom lanes).
    pub fn eval_with_sel(&self, batch: &Batch, sel: Option<&[u32]>) -> Result<ExecVector> {
        if self.naive {
            eval_naive(&self.expr, &self.schema, batch, sel, self.out_type)
        } else {
            let v = eval_rec(&self.expr, &self.schema, batch, sel)?;
            coerce_to(v, self.out_type, sel)
        }
    }
}

impl ExprEvaluator {
    /// One step of a conjunction: evaluate this (boolean) conjunct over the
    /// batch's selected rows and keep, in the batch's selection, those where
    /// it is true. Every conjunction in the engine — a scan's decoded units
    /// and residual, `VecFilter` — is a chain of these, so a conjunct only
    /// ever sees rows that survived the conjuncts before it. Returns the
    /// survivors' count.
    pub fn narrow(&self, batch: &mut Batch) -> Result<usize> {
        let v = self.eval(batch)?;
        let ColumnData::Bool(vals) = &v.data else {
            return Err(VwError::Exec(format!(
                "filter produced {}, expected booleans",
                v.data.type_name()
            )));
        };
        let mut sel = Vec::new();
        prim::sel_from_bool(vals, v.nulls.as_deref(), batch.sel.as_deref(), &mut sel);
        let kept = sel.len();
        batch.sel = (kept < batch.rows).then_some(sel);
        Ok(kept)
    }
}

/// The naive comparison path: build a row per selected lane and interpret.
fn eval_naive(
    e: &Expr,
    schema: &Schema,
    batch: &Batch,
    sel: Option<&[u32]>,
    out_type: DataType,
) -> Result<ExecVector> {
    let mut values: Vec<Value> = vec![Value::Null; batch.rows];
    let mut row: Vec<Value> = Vec::with_capacity(schema.len());
    let mut run = |i: usize| -> Result<()> {
        row.clear();
        for (c, f) in batch.columns.iter().zip(schema.fields()) {
            row.push(c.get_value(i, f.ty));
        }
        values[i] = e.eval_row(&row)?;
        Ok(())
    };
    match sel {
        Some(s) => {
            for &i in s {
                run(i as usize)?;
            }
        }
        None => {
            for i in 0..batch.rows {
                run(i)?;
            }
        }
    }
    // Coerce into the static output type.
    let coerced: Vec<Value> = values
        .into_iter()
        .map(|v| {
            if v.is_null() {
                Value::Null
            } else {
                v.cast_to(out_type).unwrap_or(Value::Null)
            }
        })
        .collect();
    ExecVector::from_values(out_type, &coerced)
}

/// The physical type a vector holds.
fn physical_type(data: &ColumnData) -> DataType {
    match data {
        ColumnData::Bool(_) => DataType::Bool,
        ColumnData::I32(_) => DataType::I32,
        ColumnData::I64(_) => DataType::I64,
        ColumnData::F64(_) => DataType::F64,
        ColumnData::Str(_) | ColumnData::Dict(_) => DataType::Str,
    }
}

/// Make sure the produced vector physically matches `ty` (e.g. arith on two
/// I32 columns runs on i64 kernels and narrows back here).
fn coerce_to(v: ExecVector, ty: DataType, sel: Option<&[u32]>) -> Result<ExecVector> {
    let want = ColumnData::physical_type(ty);
    if want == physical_type(&v.data) {
        return Ok(v);
    }
    match (&v.data, want) {
        (ColumnData::I64(x), DataType::I32) => {
            let mut out = Vec::new();
            // NULL lanes hold safe values that may overflow; only check
            // non-null selected lanes.
            match &v.nulls {
                None => prim::cast_i64_i32(x, sel, &mut out)?,
                Some(n) => {
                    let narrowed: Vec<u32> = match sel {
                        Some(s) => s.iter().copied().filter(|&i| !n[i as usize]).collect(),
                        None => (0..x.len() as u32).filter(|&i| !n[i as usize]).collect(),
                    };
                    prim::cast_i64_i32(x, Some(&narrowed), &mut out)?;
                }
            }
            Ok(ExecVector::new(ColumnData::I32(out), v.nulls))
        }
        (ColumnData::I32(x), DataType::I64) => {
            let mut out = Vec::new();
            prim::cast_i32_i64(x, sel, &mut out);
            Ok(ExecVector::new(ColumnData::I64(out), v.nulls))
        }
        (ColumnData::I32(x), DataType::F64) => {
            let mut out = Vec::new();
            prim::cast_i32_f64(x, sel, &mut out);
            Ok(ExecVector::new(ColumnData::F64(out), v.nulls))
        }
        (ColumnData::I64(x), DataType::F64) => {
            let mut out = Vec::new();
            prim::cast_i64_f64(x, sel, &mut out);
            Ok(ExecVector::new(ColumnData::F64(out), v.nulls))
        }
        (ColumnData::F64(x), DataType::I64) => {
            let mut out = Vec::new();
            let safe_sel = non_null_sel(sel, v.nulls.as_ref(), x.len());
            prim::cast_f64_i64(x, safe_sel.as_deref(), &mut out)?;
            Ok(ExecVector::new(ColumnData::I64(out), v.nulls))
        }
        (ColumnData::F64(x), DataType::I32) => {
            let mut wide = Vec::new();
            let safe_sel = non_null_sel(sel, v.nulls.as_ref(), x.len());
            prim::cast_f64_i64(x, safe_sel.as_deref(), &mut wide)?;
            let mut out = Vec::new();
            prim::cast_i64_i32(&wide, safe_sel.as_deref(), &mut out)?;
            Ok(ExecVector::new(ColumnData::I32(out), v.nulls))
        }
        _ => Err(VwError::Exec(format!(
            "cannot coerce {} to {}",
            physical_type(&v.data),
            ty
        ))),
    }
}

/// Borrow lanes as i64, casting i32/bool on demand.
fn as_i64_lanes<'a>(v: &'a ExecVector, sel: Option<&[u32]>) -> Result<Cow<'a, [i64]>> {
    match &v.data {
        ColumnData::I64(x) => Ok(Cow::Borrowed(x)),
        ColumnData::I32(x) => {
            let mut out = Vec::new();
            prim::cast_i32_i64(x, sel, &mut out);
            Ok(Cow::Owned(out))
        }
        ColumnData::Bool(x) => {
            let mut out = Vec::new();
            prim::cast_bool_i64(x, sel, &mut out);
            Ok(Cow::Owned(out))
        }
        other => Err(VwError::Exec(format!(
            "expected integer lanes, found {}",
            other.type_name()
        ))),
    }
}

/// Borrow lanes as f64, casting integers on demand.
fn as_f64_lanes<'a>(v: &'a ExecVector, sel: Option<&[u32]>) -> Result<Cow<'a, [f64]>> {
    match &v.data {
        ColumnData::F64(x) => Ok(Cow::Borrowed(x)),
        ColumnData::I64(x) => {
            let mut out = Vec::new();
            prim::cast_i64_f64(x, sel, &mut out);
            Ok(Cow::Owned(out))
        }
        ColumnData::I32(x) => {
            let mut out = Vec::new();
            prim::cast_i32_f64(x, sel, &mut out);
            Ok(Cow::Owned(out))
        }
        other => Err(VwError::Exec(format!(
            "expected numeric lanes, found {}",
            other.type_name()
        ))),
    }
}

fn bool_lanes(v: &ExecVector) -> Result<&[bool]> {
    match &v.data {
        ColumnData::Bool(x) => Ok(x),
        other => Err(VwError::Exec(format!(
            "expected boolean lanes, found {}",
            other.type_name()
        ))),
    }
}

fn is_float(v: &ExecVector) -> bool {
    matches!(v.data, ColumnData::F64(_))
}

fn is_str(v: &ExecVector) -> bool {
    matches!(v.data, ColumnData::Str(_))
}

/// Core recursive evaluation (rewritten-NULL mode).
fn eval_rec(e: &Expr, schema: &Schema, batch: &Batch, sel: Option<&[u32]>) -> Result<ExecVector> {
    match e {
        Expr::Col(i) => batch
            .columns
            .get(*i)
            .cloned()
            .ok_or_else(|| VwError::Exec(format!("batch has no column #{}", i))),
        Expr::Lit(v) => materialize_const(v, batch.rows),
        Expr::Cast(inner, ty) => {
            let v = eval_rec(inner, schema, batch, sel)?.materialize();
            cast_vector(v, *ty, sel)
        }
        Expr::Binary { op, l, r } => eval_binary(*op, l, r, schema, batch, sel),
        Expr::Unary { op, e } => {
            let v = eval_rec(e, schema, batch, sel)?;
            match op {
                UnOp::Not => {
                    let vals = bool_lanes(&v)?;
                    let mut out = Vec::new();
                    prim::bool_not(vals, sel, &mut out);
                    Ok(ExecVector::new(ColumnData::Bool(out), v.nulls))
                }
                UnOp::Neg => match &v.data {
                    ColumnData::I64(x) => {
                        let mut out = Vec::new();
                        prim::map_sub_i64_vc(0, x, sel, &mut out);
                        Ok(ExecVector::new(ColumnData::I64(out), v.nulls))
                    }
                    ColumnData::I32(x) => {
                        let wide = {
                            let mut out = Vec::new();
                            prim::cast_i32_i64(x, sel, &mut out);
                            out
                        };
                        let mut out = Vec::new();
                        prim::map_sub_i64_vc(0, &wide, sel, &mut out);
                        let mut narrow = Vec::new();
                        prim::cast_i64_i32(&out, sel, &mut narrow)?;
                        Ok(ExecVector::new(ColumnData::I32(narrow), v.nulls))
                    }
                    ColumnData::F64(x) => {
                        let mut out = Vec::new();
                        prim::map_sub_f64_vc(0.0, x, sel, &mut out);
                        Ok(ExecVector::new(ColumnData::F64(out), v.nulls))
                    }
                    other => Err(VwError::Exec(format!("negate {}", other.type_name()))),
                },
                UnOp::IsNull => {
                    let out = match &v.nulls {
                        Some(n) => n.clone(),
                        None => vec![false; v.len()],
                    };
                    Ok(ExecVector::not_null(ColumnData::Bool(out)))
                }
                UnOp::IsNotNull => {
                    let out = match &v.nulls {
                        Some(n) => n.iter().map(|&b| !b).collect(),
                        None => vec![true; v.len()],
                    };
                    Ok(ExecVector::not_null(ColumnData::Bool(out)))
                }
            }
        }
        Expr::Case { whens, otherwise } => eval_case(whens, otherwise, schema, batch, sel),
        Expr::Like {
            e,
            pattern,
            negated,
        } => {
            let v = eval_rec(e, schema, batch, sel)?;
            // Classified once per vector: most patterns never reach the
            // general matcher.
            let pattern = LikePattern::new(pattern);
            let test = |s: &[u8]| pattern.matches(s) != *negated;
            let out = match &v.data {
                ColumnData::Str(col) => {
                    let mut out = vec![false; col.len()];
                    prim::for_each_lane(sel, col.len(), |i| out[i] = test(col.get_bytes(i)));
                    out
                }
                ColumnData::Dict(d) => dict_lanes(d, sel, test),
                other => return Err(VwError::Exec(format!("LIKE on {}", other.type_name()))),
            };
            Ok(ExecVector::new(ColumnData::Bool(out), v.nulls))
        }
        Expr::InList { e, list, negated } => {
            let v = eval_rec(e, schema, batch, sel)?;
            eval_in_list(&v, list, *negated, sel)
        }
        Expr::Substr { e, start, len } => {
            let v = eval_rec(e, schema, batch, sel)?.materialize();
            let col = match &v.data {
                ColumnData::Str(s) => s,
                other => return Err(VwError::Exec(format!("SUBSTRING on {}", other.type_name()))),
            };
            // Full-length output; unselected lanes become "".
            let mut out = StrColumn::with_capacity(col.len(), col.bytes.len());
            let mut lane_vals: Vec<Option<String>> = vec![None; col.len()];
            prim::for_each_lane(sel, col.len(), |i| {
                lane_vals[i] = Some(vw_plan::expr::substr(col.get(i), *start, *len));
            });
            for lv in &lane_vals {
                out.push(lv.as_deref().unwrap_or(""));
            }
            Ok(ExecVector::new(ColumnData::Str(out), v.nulls))
        }
        Expr::Extract { part, e } => {
            let v = eval_rec(e, schema, batch, sel)?;
            let col = match &v.data {
                ColumnData::I32(x) => x,
                other => return Err(VwError::Exec(format!("EXTRACT from {}", other.type_name()))),
            };
            let mut out = vec![0i32; col.len()];
            prim::for_each_lane(sel, col.len(), |i| {
                out[i] = match part {
                    DatePart::Year => year_of(col[i]),
                    DatePart::Month => month_of(col[i]),
                };
            });
            Ok(ExecVector::new(ColumnData::I32(out), v.nulls))
        }
        Expr::AddMonths { e, months } => {
            let v = eval_rec(e, schema, batch, sel)?;
            let col = match &v.data {
                ColumnData::I32(x) => x,
                other => {
                    return Err(VwError::Exec(format!(
                        "interval add on {}",
                        other.type_name()
                    )))
                }
            };
            let mut out = vec![0i32; col.len()];
            prim::for_each_lane(sel, col.len(), |i| {
                out[i] = add_months(col[i], *months);
            });
            Ok(ExecVector::new(ColumnData::I32(out), v.nulls))
        }
        Expr::Placeholder => Err(VwError::Exec("placeholder expr".into())),
    }
}

fn materialize_const(v: &Value, rows: usize) -> Result<ExecVector> {
    Ok(match v {
        Value::Null => ExecVector::all_null(DataType::I64, rows),
        Value::Bool(b) => ExecVector::not_null(ColumnData::Bool(vec![*b; rows])),
        Value::I32(x) => ExecVector::not_null(ColumnData::I32(vec![*x; rows])),
        Value::I64(x) => ExecVector::not_null(ColumnData::I64(vec![*x; rows])),
        Value::F64(x) => ExecVector::not_null(ColumnData::F64(vec![*x; rows])),
        Value::Date(x) => ExecVector::not_null(ColumnData::I32(vec![*x; rows])),
        Value::Str(s) => {
            let mut col = StrColumn::with_capacity(rows, rows * s.len());
            for _ in 0..rows {
                col.push(s);
            }
            ExecVector::not_null(ColumnData::Str(col))
        }
    })
}

fn cast_vector(v: ExecVector, ty: DataType, sel: Option<&[u32]>) -> Result<ExecVector> {
    match (&v.data, ty) {
        // identity casts
        (ColumnData::I32(_), DataType::I32)
        | (ColumnData::I32(_), DataType::Date)
        | (ColumnData::I64(_), DataType::I64)
        | (ColumnData::F64(_), DataType::F64)
        | (ColumnData::Bool(_), DataType::Bool)
        | (ColumnData::Str(_), DataType::Str) => Ok(v),
        (ColumnData::Str(s), DataType::Date) => {
            let mut out = vec![0i32; s.len()];
            let mut bad = false;
            prim::for_each_lane(sel, s.len(), |i| match parse_date(s.get(i)) {
                Some(d) => out[i] = d,
                None => bad = true,
            });
            if bad {
                return Err(VwError::Exec("invalid date literal in cast".into()));
            }
            Ok(ExecVector::new(ColumnData::I32(out), v.nulls))
        }
        _ => coerce_to(v, ty, sel),
    }
}

fn eval_binary(
    op: BinOp,
    l: &Expr,
    r: &Expr,
    schema: &Schema,
    batch: &Batch,
    sel: Option<&[u32]>,
) -> Result<ExecVector> {
    if matches!(op, BinOp::And | BinOp::Or) {
        let lv = eval_rec(l, schema, batch, sel)?;
        let rv = eval_rec(r, schema, batch, sel)?;
        return eval_kleene(op, &lv, &rv, sel);
    }
    // A literal NULL operand makes every lane NULL (the other side is still
    // evaluated so its runtime errors are preserved).
    let lit_null = |e: &Expr| matches!(e, Expr::Lit(Value::Null));
    if lit_null(l) || lit_null(r) {
        let other = if lit_null(l) { r } else { l };
        let ov = eval_rec(other, schema, batch, sel)?;
        let n = batch.rows;
        let data = if op.is_comparison() {
            ColumnData::Bool(vec![false; n])
        } else if is_float(&ov) {
            ColumnData::F64(vec![0.0; n])
        } else {
            ColumnData::I64(vec![0; n])
        };
        return Ok(ExecVector::new(data, Some(vec![true; n])));
    }
    // Constant-operand fast path: column-vs-constant kernels avoid
    // materializing a literal vector per batch (the dominant shape in
    // pushed-down filters).
    if let Expr::Lit(c) = r {
        if !c.is_null() {
            let lv = eval_rec(l, schema, batch, sel)?;
            if let Some(out) = eval_binary_const(op, &lv, c, false, sel)? {
                return Ok(out);
            }
            let rv = materialize_const(c, batch.rows)?;
            return eval_binary_vectors(op, lv, rv, sel);
        }
    }
    if let Expr::Lit(c) = l {
        if !c.is_null() {
            let rv = eval_rec(r, schema, batch, sel)?;
            if let Some(out) = eval_binary_const(op, &rv, c, true, sel)? {
                return Ok(out);
            }
            let lv = materialize_const(c, batch.rows)?;
            return eval_binary_vectors(op, lv, rv, sel);
        }
    }
    let lv = eval_rec(l, schema, batch, sel)?;
    let rv = eval_rec(r, schema, batch, sel)?;
    eval_binary_vectors(op, lv, rv, sel)
}

/// Column ⊕ constant without materializing the constant. `flipped` means the
/// constant was on the left. Returns `None` when no specialized kernel fits
/// (caller falls back to the column-column path).
fn eval_binary_const(
    op: BinOp,
    col: &ExecVector,
    c: &Value,
    flipped: bool,
    sel: Option<&[u32]>,
) -> Result<Option<ExecVector>> {
    let nulls = col.nulls.clone();
    if op.is_comparison() {
        let mut out = Vec::new();
        // normalize: with the constant on the left, flip the comparison
        let op = if flipped { flip_cmp(op) } else { op };
        match (&col.data, c) {
            (ColumnData::Str(s), Value::Str(cv)) => {
                let (ord, eq_ok, ne_mode) = cmp_spec(op);
                prim::cmp_str_cv(s, cv, ord, eq_ok, ne_mode, sel, &mut out);
            }
            (ColumnData::Dict(d), Value::Str(cv)) => {
                let (want, eq_ok, ne_mode) = cmp_spec(op);
                // Byte order is string order for UTF-8.
                out = dict_lanes(d, sel, |s| match s.cmp(cv.as_bytes()) {
                    Ordering::Equal => !ne_mode && (eq_ok || want == Ordering::Equal),
                    ord => ne_mode || ord == want,
                });
            }
            (ColumnData::F64(_), _) | (_, Value::F64(_)) => {
                let Some(cf) = c.as_f64() else {
                    return Ok(None);
                };
                let a = as_f64_lanes(col, sel)?;
                match op {
                    BinOp::Eq => prim::cmp_eq_f64_cv(&a, &cf, sel, &mut out),
                    BinOp::Ne => prim::cmp_ne_f64_cv(&a, &cf, sel, &mut out),
                    BinOp::Lt => prim::cmp_lt_f64_cv(&a, &cf, sel, &mut out),
                    BinOp::Le => prim::cmp_le_f64_cv(&a, &cf, sel, &mut out),
                    BinOp::Gt => prim::cmp_gt_f64_cv(&a, &cf, sel, &mut out),
                    BinOp::Ge => prim::cmp_ge_f64_cv(&a, &cf, sel, &mut out),
                    _ => unreachable!(),
                }
            }
            _ => {
                let Some(ci) = c.as_i64() else {
                    return Ok(None);
                };
                let a = as_i64_lanes(col, sel)?;
                match op {
                    BinOp::Eq => prim::cmp_eq_i64_cv(&a, &ci, sel, &mut out),
                    BinOp::Ne => prim::cmp_ne_i64_cv(&a, &ci, sel, &mut out),
                    BinOp::Lt => prim::cmp_lt_i64_cv(&a, &ci, sel, &mut out),
                    BinOp::Le => prim::cmp_le_i64_cv(&a, &ci, sel, &mut out),
                    BinOp::Gt => prim::cmp_gt_i64_cv(&a, &ci, sel, &mut out),
                    BinOp::Ge => prim::cmp_ge_i64_cv(&a, &ci, sel, &mut out),
                    _ => unreachable!(),
                }
            }
        }
        return Ok(Some(ExecVector::new(ColumnData::Bool(out), nulls)));
    }
    // Arithmetic.
    let float = is_float(col) || matches!(c, Value::F64(_));
    if float {
        let Some(cf) = c.as_f64() else {
            return Ok(None);
        };
        let a = as_f64_lanes(col, sel)?;
        let mut out = Vec::new();
        match (op, flipped) {
            (BinOp::Add, _) => prim::map_add_f64_cv(&a, cf, sel, &mut out),
            (BinOp::Mul, _) => prim::map_mul_f64_cv(&a, cf, sel, &mut out),
            (BinOp::Sub, false) => prim::map_sub_f64_cv(&a, cf, sel, &mut out),
            (BinOp::Sub, true) => prim::map_sub_f64_vc(cf, &a, sel, &mut out),
            (BinOp::Div, false) => {
                let div_sel = non_null_sel(sel, nulls.as_ref(), a.len());
                prim::map_div_f64_cv(&a, cf, div_sel.as_deref(), &mut out)?
            }
            (BinOp::Div, true) => {
                let div_sel = non_null_sel(sel, nulls.as_ref(), a.len());
                prim::map_div_f64_vc(cf, &a, div_sel.as_deref(), &mut out)?
            }
            _ => unreachable!(),
        }
        return Ok(Some(ExecVector::new(ColumnData::F64(out), nulls)));
    }
    let Some(ci) = c.as_i64() else {
        return Ok(None);
    };
    let a = as_i64_lanes(col, sel)?;
    let mut out = Vec::new();
    match (op, flipped) {
        (BinOp::Add, _) => prim::map_add_i64_cv(&a, ci, sel, &mut out),
        (BinOp::Mul, _) => prim::map_mul_i64_cv(&a, ci, sel, &mut out),
        (BinOp::Sub, false) => prim::map_sub_i64_cv(&a, ci, sel, &mut out),
        (BinOp::Sub, true) => prim::map_sub_i64_vc(ci, &a, sel, &mut out),
        (BinOp::Div, false) => {
            let div_sel = non_null_sel(sel, nulls.as_ref(), a.len());
            prim::map_div_i64_cv(&a, ci, div_sel.as_deref(), &mut out)?
        }
        (BinOp::Div, true) => {
            let div_sel = non_null_sel(sel, nulls.as_ref(), a.len());
            prim::map_div_i64_vc(ci, &a, div_sel.as_deref(), &mut out)?
        }
        _ => unreachable!(),
    }
    Ok(Some(ExecVector::new(ColumnData::I64(out), nulls)))
}

fn flip_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

fn eval_binary_vectors(
    op: BinOp,
    lv: ExecVector,
    rv: ExecVector,
    sel: Option<&[u32]>,
) -> Result<ExecVector> {
    let (lv, rv) = (lv.materialize(), rv.materialize());
    let nulls = prim::merge_nulls(lv.nulls.as_ref(), rv.nulls.as_ref(), sel);
    if op.is_comparison() {
        let out = eval_comparison(op, &lv, &rv, sel)?;
        return Ok(ExecVector::new(ColumnData::Bool(out), nulls));
    }
    // Arithmetic: float domain if either side is float, else i64 domain.
    if is_float(&lv) || is_float(&rv) {
        let a = as_f64_lanes(&lv, sel)?;
        let b = as_f64_lanes(&rv, sel)?;
        let mut out = Vec::new();
        match op {
            BinOp::Add => prim::map_add_f64_cc(&a, &b, sel, &mut out),
            BinOp::Sub => prim::map_sub_f64_cc(&a, &b, sel, &mut out),
            BinOp::Mul => prim::map_mul_f64_cc(&a, &b, sel, &mut out),
            BinOp::Div => {
                // NULL lanes hold safe zeros: exclude them from the
                // fault-checked division.
                let div_sel = non_null_sel(sel, nulls.as_ref(), a.len());
                prim::map_div_f64_cc(&a, &b, div_sel.as_deref(), &mut out)?
            }
            _ => unreachable!(),
        }
        Ok(ExecVector::new(ColumnData::F64(out), nulls))
    } else {
        let a = as_i64_lanes(&lv, sel)?;
        let b = as_i64_lanes(&rv, sel)?;
        let mut out = Vec::new();
        match op {
            BinOp::Add => prim::map_add_i64_cc(&a, &b, sel, &mut out),
            BinOp::Sub => prim::map_sub_i64_cc(&a, &b, sel, &mut out),
            BinOp::Mul => prim::map_mul_i64_cc(&a, &b, sel, &mut out),
            BinOp::Div => {
                let div_sel = non_null_sel(sel, nulls.as_ref(), a.len());
                prim::map_div_i64_cc(&a, &b, div_sel.as_deref(), &mut out)?
            }
            _ => unreachable!(),
        }
        Ok(ExecVector::new(ColumnData::I64(out), nulls))
    }
}

/// Selection restricted to non-NULL lanes (always materializes when an
/// indicator exists).
fn non_null_sel(sel: Option<&[u32]>, nulls: Option<&Vec<bool>>, len: usize) -> Option<Vec<u32>> {
    match nulls {
        None => sel.map(|s| s.to_vec()),
        Some(n) => Some(match sel {
            Some(s) => s.iter().copied().filter(|&i| !n[i as usize]).collect(),
            None => (0..len as u32).filter(|&i| !n[i as usize]).collect(),
        }),
    }
}

fn eval_comparison(
    op: BinOp,
    lv: &ExecVector,
    rv: &ExecVector,
    sel: Option<&[u32]>,
) -> Result<Vec<bool>> {
    let mut out = Vec::new();
    if is_str(lv) || is_str(rv) {
        let (ls, rs) = match (&lv.data, &rv.data) {
            (ColumnData::Str(a), ColumnData::Str(b)) => (a, b),
            _ => {
                // mixed str/non-str only legal when one side is all-NULL
                let all_null =
                    |v: &ExecVector| v.nulls.as_ref().is_some_and(|n| n.iter().all(|&b| b));
                if all_null(lv) || all_null(rv) {
                    out.resize(lv.len().max(rv.len()), false);
                    return Ok(out);
                }
                return Err(VwError::Exec("string compared to non-string".into()));
            }
        };
        let (ord, eq_ok, ne_mode) = cmp_spec(op);
        prim::cmp_str_cc(ls, rs, ord, eq_ok, ne_mode, sel, &mut out);
        return Ok(out);
    }
    if is_float(lv) || is_float(rv) {
        let a = as_f64_lanes(lv, sel)?;
        let b = as_f64_lanes(rv, sel)?;
        match op {
            BinOp::Eq => prim::cmp_eq_f64_cc(&a, &b, sel, &mut out),
            BinOp::Ne => prim::cmp_ne_f64_cc(&a, &b, sel, &mut out),
            BinOp::Lt => prim::cmp_lt_f64_cc(&a, &b, sel, &mut out),
            BinOp::Le => prim::cmp_le_f64_cc(&a, &b, sel, &mut out),
            BinOp::Gt => prim::cmp_gt_f64_cc(&a, &b, sel, &mut out),
            BinOp::Ge => prim::cmp_ge_f64_cc(&a, &b, sel, &mut out),
            _ => unreachable!(),
        }
    } else {
        let a = as_i64_lanes(lv, sel)?;
        let b = as_i64_lanes(rv, sel)?;
        match op {
            BinOp::Eq => prim::cmp_eq_i64_cc(&a, &b, sel, &mut out),
            BinOp::Ne => prim::cmp_ne_i64_cc(&a, &b, sel, &mut out),
            BinOp::Lt => prim::cmp_lt_i64_cc(&a, &b, sel, &mut out),
            BinOp::Le => prim::cmp_le_i64_cc(&a, &b, sel, &mut out),
            BinOp::Gt => prim::cmp_gt_i64_cc(&a, &b, sel, &mut out),
            BinOp::Ge => prim::cmp_ge_i64_cc(&a, &b, sel, &mut out),
            _ => unreachable!(),
        }
    }
    Ok(out)
}

fn cmp_spec(op: BinOp) -> (Ordering, bool, bool) {
    match op {
        BinOp::Eq => (Ordering::Equal, false, false),
        BinOp::Ne => (Ordering::Equal, false, true),
        BinOp::Lt => (Ordering::Less, false, false),
        BinOp::Le => (Ordering::Less, true, false),
        BinOp::Gt => (Ordering::Greater, false, false),
        BinOp::Ge => (Ordering::Greater, true, false),
        _ => unreachable!(),
    }
}

/// Kleene AND/OR with indicator algebra:
/// AND is false if either side is definitively false; NULL if undecided.
fn eval_kleene(
    op: BinOp,
    lv: &ExecVector,
    rv: &ExecVector,
    sel: Option<&[u32]>,
) -> Result<ExecVector> {
    // Tolerate all-NULL operands of any physical type (e.g. a literal NULL
    // or an ELSE-less CASE): their lanes read as (false, null).
    let all_null_lanes = |v: &ExecVector| -> Option<Vec<bool>> {
        if !matches!(v.data, ColumnData::Bool(_))
            && v.nulls.as_ref().is_some_and(|n| n.iter().all(|&b| b))
        {
            Some(vec![false; v.len()])
        } else {
            None
        }
    };
    let la_owned = all_null_lanes(lv);
    let ra_owned = all_null_lanes(rv);
    let la: &[bool] = match &la_owned {
        Some(x) => x,
        None => bool_lanes(lv)?,
    };
    let ra: &[bool] = match &ra_owned {
        Some(x) => x,
        None => bool_lanes(rv)?,
    };
    debug_assert_eq!(la.len(), ra.len());
    let n = la.len();
    let mut vals = vec![false; n];
    let any_null = lv.nulls.is_some() || rv.nulls.is_some();
    let mut nulls = if any_null { vec![false; n] } else { Vec::new() };
    let ln = lv.nulls.as_deref();
    let rn = rv.nulls.as_deref();
    prim::for_each_lane(sel, n, |i| {
        let l_null = ln.is_some_and(|x| x[i]);
        let r_null = rn.is_some_and(|x| x[i]);
        let (v, is_null) = match op {
            BinOp::And => {
                let def_false = (!l_null && !la[i]) || (!r_null && !ra[i]);
                if def_false {
                    (false, false)
                } else if l_null || r_null {
                    (false, true)
                } else {
                    (true, false)
                }
            }
            BinOp::Or => {
                let def_true = (!l_null && la[i]) || (!r_null && ra[i]);
                if def_true {
                    (true, false)
                } else if l_null || r_null {
                    (false, true)
                } else {
                    (false, false)
                }
            }
            _ => unreachable!(),
        };
        vals[i] = v;
        if any_null {
            nulls[i] = is_null;
        }
    });
    Ok(ExecVector::new(
        ColumnData::Bool(vals),
        if any_null { Some(nulls) } else { None },
    ))
}

/// `out[i] = test(string i)` over the selected lanes of a dictionary vector:
/// every dictionary entry is decided once and the verdicts fetched by code —
/// unless the dictionary holds more entries than there are lanes to decide.
/// NULL lanes carry a valid code like any other; the caller's indicator
/// masks their verdict.
fn dict_lanes(d: &DictColumn, sel: Option<&[u32]>, test: impl Fn(&[u8]) -> bool) -> Vec<bool> {
    let n = d.len();
    let mut out = vec![false; n];
    let dict = d.dict();
    if dict.len() <= sel.map_or(n, |s| s.len()) {
        let verdicts: Vec<bool> = (0..dict.len()).map(|e| test(dict.get_bytes(e))).collect();
        let codes = d.codes();
        prim::for_each_lane(sel, n, |i| out[i] = verdicts[codes[i] as usize]);
    } else {
        prim::for_each_lane(sel, n, |i| out[i] = test(d.get_bytes(i)));
    }
    out
}

fn eval_in_list(
    v: &ExecVector,
    list: &[Value],
    negated: bool,
    sel: Option<&[u32]>,
) -> Result<ExecVector> {
    let n = v.len();
    let mut vals = vec![false; n];
    let list_has_null = list.iter().any(|x| x.is_null());
    let mut extra_null = vec![false; n];
    match &v.data {
        ColumnData::Str(col) => {
            let items: Vec<&str> = list.iter().filter_map(|x| x.as_str()).collect();
            prim::for_each_lane(sel, n, |i| {
                let s = col.get(i);
                let hit = items.contains(&s);
                vals[i] = hit != negated;
                if !hit && list_has_null {
                    extra_null[i] = true;
                }
            });
        }
        ColumnData::Dict(d) => {
            let items = list.iter().filter_map(|x| x.as_str()).map(str::as_bytes);
            let items: Vec<&[u8]> = items.collect();
            let hits = dict_lanes(d, sel, |s| items.contains(&s));
            prim::for_each_lane(sel, n, |i| {
                vals[i] = hits[i] != negated;
                extra_null[i] = !hits[i] && list_has_null;
            });
        }
        ColumnData::I64(_) | ColumnData::I32(_) | ColumnData::Bool(_) => {
            let lanes = as_i64_lanes(v, sel)?;
            let items: Vec<i64> = list.iter().filter_map(|x| x.as_i64()).collect();
            prim::for_each_lane(sel, n, |i| {
                let hit = items.contains(&lanes[i]);
                vals[i] = hit != negated;
                if !hit && list_has_null {
                    extra_null[i] = true;
                }
            });
        }
        ColumnData::F64(col) => {
            let items: Vec<f64> = list.iter().filter_map(|x| x.as_f64()).collect();
            prim::for_each_lane(sel, n, |i| {
                let hit = items.iter().any(|&it| it == col[i]);
                vals[i] = hit != negated;
                if !hit && list_has_null {
                    extra_null[i] = true;
                }
            });
        }
    }
    let mut nulls = v.nulls.clone();
    if list_has_null && extra_null.iter().any(|&b| b) {
        let mut merged = nulls.unwrap_or_else(|| vec![false; n]);
        for i in 0..n {
            merged[i] |= extra_null[i];
        }
        nulls = Some(merged);
    }
    Ok(ExecVector::new(ColumnData::Bool(vals), nulls))
}

/// Lazy CASE: route lanes to branches with narrowed selections.
fn eval_case(
    whens: &[(Expr, Expr)],
    otherwise: &Option<Box<Expr>>,
    schema: &Schema,
    batch: &Batch,
    sel: Option<&[u32]>,
) -> Result<ExecVector> {
    let n = batch.rows;
    // undecided lanes start as the incoming selection
    let mut undecided: Vec<u32> = match sel {
        Some(s) => s.to_vec(),
        None => (0..n as u32).collect(),
    };
    // (branch value vector, lanes it owns)
    let mut branch_results: Vec<(ExecVector, Vec<u32>)> = Vec::new();
    for (cond, value) in whens {
        if undecided.is_empty() {
            break;
        }
        let cv = eval_rec(cond, schema, batch, Some(&undecided))?;
        let cvals = bool_lanes(&cv)?;
        let cnulls = cv.nulls.as_deref();
        let mut taken = Vec::new();
        let mut rest = Vec::new();
        for &i in &undecided {
            let iu = i as usize;
            if cvals[iu] && !cnulls.is_some_and(|x| x[iu]) {
                taken.push(i);
            } else {
                rest.push(i);
            }
        }
        if !taken.is_empty() {
            let v = eval_rec(value, schema, batch, Some(&taken))?.materialize();
            branch_results.push((v, taken));
        }
        undecided = rest;
    }
    if let Some(e) = otherwise {
        if !undecided.is_empty() {
            let v = eval_rec(e, schema, batch, Some(&undecided))?.materialize();
            branch_results.push((v, undecided.clone()));
            undecided.clear();
        }
    }
    // Merge: remaining undecided lanes are NULL.
    merge_branches(branch_results, undecided, n)
}

fn merge_branches(
    branches: Vec<(ExecVector, Vec<u32>)>,
    null_lanes: Vec<u32>,
    n: usize,
) -> Result<ExecVector> {
    // Decide output physical type from the first branch; numeric branches
    // may disagree (i64 vs f64) — promote to f64 if any branch is float.
    let any_float = branches.iter().any(|(v, _)| is_float(v));
    let any_str = branches.iter().any(|(v, _)| is_str(v));
    let mut nulls = vec![false; n];
    for &i in &null_lanes {
        nulls[i as usize] = true;
    }
    // Lanes not covered by any branch or null list (unselected) stay at a
    // safe default and false indicator.
    if any_str {
        let mut lane_vals: Vec<Option<String>> = vec![None; n];
        for (v, lanes) in &branches {
            let col = match &v.data {
                ColumnData::Str(s) => s,
                _ => return Err(VwError::Exec("CASE branch type mismatch".into())),
            };
            for &i in lanes {
                let iu = i as usize;
                if v.is_null(iu) {
                    nulls[iu] = true;
                } else {
                    lane_vals[iu] = Some(col.get(iu).to_string());
                }
            }
        }
        let mut out = StrColumn::new();
        for lv in &lane_vals {
            out.push(lv.as_deref().unwrap_or(""));
        }
        let has_null = nulls.iter().any(|&b| b);
        return Ok(ExecVector::new(
            ColumnData::Str(out),
            if has_null { Some(nulls) } else { None },
        ));
    }
    if any_float {
        let mut out = vec![0.0f64; n];
        for (v, lanes) in &branches {
            let lanes_ref: &[u32] = lanes;
            let a = as_f64_lanes(v, Some(lanes_ref))?;
            for &i in lanes {
                let iu = i as usize;
                if v.is_null(iu) {
                    nulls[iu] = true;
                } else {
                    out[iu] = a[iu];
                }
            }
        }
        let has_null = nulls.iter().any(|&b| b);
        return Ok(ExecVector::new(
            ColumnData::F64(out),
            if has_null { Some(nulls) } else { None },
        ));
    }
    let mut out = vec![0i64; n];
    for (v, lanes) in &branches {
        let lanes_ref: &[u32] = lanes;
        let a = as_i64_lanes(v, Some(lanes_ref))?;
        for &i in lanes {
            let iu = i as usize;
            if v.is_null(iu) {
                nulls[iu] = true;
            } else {
                out[iu] = a[iu];
            }
        }
    }
    let has_null = nulls.iter().any(|&b| b);
    Ok(ExecVector::new(
        ColumnData::I64(out),
        if has_null { Some(nulls) } else { None },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_common::Field;
    use vw_plan::Expr as E;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::I64),
            Field::nullable("b", DataType::I64),
            Field::new("f", DataType::F64),
            Field::new("s", DataType::Str),
            Field::new("d", DataType::Date),
        ])
    }

    fn batch() -> Batch {
        let rows = vec![
            vec![
                Value::I64(1),
                Value::I64(10),
                Value::F64(0.5),
                Value::Str("AIR".into()),
                Value::Date(parse_date("1995-03-15").unwrap()),
            ],
            vec![
                Value::I64(2),
                Value::Null,
                Value::F64(1.5),
                Value::Str("SHIP".into()),
                Value::Date(parse_date("1996-07-01").unwrap()),
            ],
            vec![
                Value::I64(3),
                Value::I64(30),
                Value::F64(2.5),
                Value::Str("TRUCK".into()),
                Value::Date(parse_date("1997-11-20").unwrap()),
            ],
        ];
        Batch::from_rows(&schema(), &rows).unwrap()
    }

    /// Evaluate both modes and compare against the row-wise oracle.
    fn check(e: E, expected: Vec<Value>) {
        let s = schema();
        let b = batch();
        for naive in [false, true] {
            let ev = ExprEvaluator::new(e.clone(), &s, naive).unwrap();
            let out = ev.eval(&b).unwrap();
            let got: Vec<Value> = (0..b.rows)
                .map(|i| out.get_value(i, ev.output_type()))
                .collect();
            assert_eq!(got, expected, "naive={} expr={}", naive, e);
        }
    }

    #[test]
    fn arithmetic_with_nulls() {
        check(
            E::binary(vw_plan::BinOp::Add, E::col(0), E::col(1)),
            vec![Value::I64(11), Value::Null, Value::I64(33)],
        );
        check(
            E::binary(vw_plan::BinOp::Mul, E::col(0), E::col(2)),
            vec![Value::F64(0.5), Value::F64(3.0), Value::F64(7.5)],
        );
        check(
            E::binary(vw_plan::BinOp::Sub, E::lit(Value::I64(100)), E::col(0)),
            vec![Value::I64(99), Value::I64(98), Value::I64(97)],
        );
    }

    #[test]
    fn comparisons_and_kleene() {
        check(
            E::binary(vw_plan::BinOp::Ge, E::col(0), E::lit(Value::I64(2))),
            vec![Value::Bool(false), Value::Bool(true), Value::Bool(true)],
        );
        // b > 15 is NULL on row 1
        let b_gt = E::binary(vw_plan::BinOp::Gt, E::col(1), E::lit(Value::I64(15)));
        check(
            b_gt.clone(),
            vec![Value::Bool(false), Value::Null, Value::Bool(true)],
        );
        // (b > 15) OR (a = 2): NULL OR TRUE = TRUE
        check(
            E::or(b_gt.clone(), E::eq(E::col(0), E::lit(Value::I64(2)))),
            vec![Value::Bool(false), Value::Bool(true), Value::Bool(true)],
        );
        // (b > 15) AND (a = 2): NULL AND TRUE = NULL
        check(
            E::and(b_gt, E::eq(E::col(0), E::lit(Value::I64(2)))),
            vec![Value::Bool(false), Value::Null, Value::Bool(false)],
        );
    }

    #[test]
    fn string_predicates() {
        check(
            E::eq(E::col(3), E::lit(Value::Str("SHIP".into()))),
            vec![Value::Bool(false), Value::Bool(true), Value::Bool(false)],
        );
        check(
            E::Like {
                e: Box::new(E::col(3)),
                pattern: "%R%".into(),
                negated: false,
            },
            vec![Value::Bool(true), Value::Bool(false), Value::Bool(true)],
        );
        check(
            E::InList {
                e: Box::new(E::col(3)),
                list: vec![Value::Str("AIR".into()), Value::Str("TRUCK".into())],
                negated: false,
            },
            vec![Value::Bool(true), Value::Bool(false), Value::Bool(true)],
        );
        check(
            E::Substr {
                e: Box::new(E::col(3)),
                start: 1,
                len: 2,
            },
            vec![
                Value::Str("AI".into()),
                Value::Str("SH".into()),
                Value::Str("TR".into()),
            ],
        );
    }

    #[test]
    fn dates() {
        check(
            E::Extract {
                part: DatePart::Year,
                e: Box::new(E::col(4)),
            },
            vec![Value::I32(1995), Value::I32(1996), Value::I32(1997)],
        );
        check(
            E::binary(
                vw_plan::BinOp::Lt,
                E::col(4),
                E::lit(Value::Date(parse_date("1996-01-01").unwrap())),
            ),
            vec![Value::Bool(true), Value::Bool(false), Value::Bool(false)],
        );
        check(
            E::AddMonths {
                e: Box::new(E::col(4)),
                months: 1,
            },
            vec![
                Value::Date(parse_date("1995-04-15").unwrap()),
                Value::Date(parse_date("1996-08-01").unwrap()),
                Value::Date(parse_date("1997-12-20").unwrap()),
            ],
        );
    }

    #[test]
    fn case_is_lazy_per_lane() {
        // CASE WHEN a = 1 THEN 100 WHEN a = 2 THEN 1/(a-2) ELSE -1 END
        // The division would fault for a = 2 lanes... but those lanes never
        // reach it because the condition a=2 routes them, and 1/(a-2) is only
        // evaluated on lanes where a=2... that WOULD fault. Instead test
        // the true laziness: the division branch is guarded by a≠2.
        let div = E::binary(
            vw_plan::BinOp::Div,
            E::lit(Value::I64(10)),
            E::binary(vw_plan::BinOp::Sub, E::col(0), E::lit(Value::I64(2))),
        );
        let e = E::Case {
            whens: vec![
                (
                    E::eq(E::col(0), E::lit(Value::I64(2))),
                    E::lit(Value::I64(0)),
                ),
                (
                    E::binary(vw_plan::BinOp::Ge, E::col(0), E::lit(Value::I64(1))),
                    div,
                ),
            ],
            otherwise: Some(Box::new(E::lit(Value::I64(-1)))),
        };
        // a=1 → second branch 10/(1-2) = -10; a=2 → first branch 0;
        // a=3 → second branch 10/(3-2) = 10.
        check(e, vec![Value::I64(-10), Value::I64(0), Value::I64(10)]);
    }

    #[test]
    fn case_without_else_yields_null() {
        let e = E::Case {
            whens: vec![(
                E::eq(E::col(0), E::lit(Value::I64(1))),
                E::lit(Value::I64(7)),
            )],
            otherwise: None,
        };
        check(e, vec![Value::I64(7), Value::Null, Value::Null]);
    }

    #[test]
    fn is_null_and_not() {
        check(
            E::Unary {
                op: UnOp::IsNull,
                e: Box::new(E::col(1)),
            },
            vec![Value::Bool(false), Value::Bool(true), Value::Bool(false)],
        );
        check(
            E::Unary {
                op: UnOp::IsNotNull,
                e: Box::new(E::col(1)),
            },
            vec![Value::Bool(true), Value::Bool(false), Value::Bool(true)],
        );
        check(
            E::not(E::eq(E::col(0), E::lit(Value::I64(1)))),
            vec![Value::Bool(false), Value::Bool(true), Value::Bool(true)],
        );
    }

    #[test]
    fn respects_selection_vectors() {
        let s = schema();
        let b = batch();
        let selected = Batch::with_sel(b.columns.clone(), vec![0, 2]);
        // division by (a - 2): would fault at lane 1 (a=2), but lane 1 is
        // not selected.
        let e = E::binary(
            vw_plan::BinOp::Div,
            E::lit(Value::I64(10)),
            E::binary(vw_plan::BinOp::Sub, E::col(0), E::lit(Value::I64(2))),
        );
        let ev = ExprEvaluator::new(e, &s, false).unwrap();
        let out = ev.eval(&selected).unwrap();
        assert_eq!(out.get_value(0, DataType::I64), Value::I64(-10));
        assert_eq!(out.get_value(2, DataType::I64), Value::I64(10));
    }

    #[test]
    fn null_division_does_not_fault() {
        // b is NULL at lane 1; 1/b must be NULL there, not a fault, even
        // though the safe value under the NULL is 0.
        check(
            E::binary(vw_plan::BinOp::Div, E::lit(Value::I64(1)), E::col(1)),
            vec![Value::I64(0), Value::Null, Value::I64(0)],
        );
    }

    #[test]
    fn i32_narrowing_type_stability() {
        // EXTRACT returns I32; adding I32 literals must return I32 like the
        // row oracle does.
        let e = E::binary(
            vw_plan::BinOp::Add,
            E::Extract {
                part: DatePart::Year,
                e: Box::new(E::col(4)),
            },
            E::lit(Value::I32(1)),
        );
        check(
            e,
            vec![Value::I32(1996), Value::I32(1997), Value::I32(1998)],
        );
    }
}
