//! Scalar expressions and their reference evaluation semantics.
//!
//! Expressions are already *bound*: column references are positional indexes
//! into the input schema (the binder in `vw-sql` resolves names). The
//! row-at-a-time [`Expr::eval_row`] here is the semantic ground truth — it is
//! what the tuple-at-a-time baseline engine executes directly, and what the
//! vectorized kernels in `vw-core` are tested against.
//!
//! NULL semantics are SQL three-valued logic: comparisons and arithmetic
//! propagate NULL; `AND`/`OR` use Kleene logic; predicates accept a row only
//! when they evaluate to *true* (not NULL).

use std::fmt;
use vw_common::date::{add_months, month_of, year_of};
use vw_common::like::like_match;
use vw_common::{DataType, Result, Schema, Value, VwError};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    pub fn is_arithmetic(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div)
    }

    pub fn name(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Not,
    Neg,
    IsNull,
    IsNotNull,
}

/// Date fields for EXTRACT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatePart {
    Year,
    Month,
}

/// A bound scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Input column by position.
    Col(usize),
    Lit(Value),
    Cast(Box<Expr>, DataType),
    Binary {
        op: BinOp,
        l: Box<Expr>,
        r: Box<Expr>,
    },
    Unary {
        op: UnOp,
        e: Box<Expr>,
    },
    /// SQL CASE WHEN ... THEN ... [ELSE ...] END.
    Case {
        whens: Vec<(Expr, Expr)>,
        otherwise: Option<Box<Expr>>,
    },
    /// SQL LIKE with `%` and `_` wildcards.
    Like {
        e: Box<Expr>,
        pattern: String,
        negated: bool,
    },
    /// `e IN (v1, v2, ...)` over literal lists.
    InList {
        e: Box<Expr>,
        list: Vec<Value>,
        negated: bool,
    },
    /// SUBSTRING(e FROM start FOR len), 1-based start as in SQL.
    Substr {
        e: Box<Expr>,
        start: u32,
        len: u32,
    },
    /// EXTRACT(part FROM date-expr), yielding I32.
    Extract {
        part: DatePart,
        e: Box<Expr>,
    },
    /// date-expr + INTERVAL n MONTH (normalized by the binder).
    AddMonths {
        e: Box<Expr>,
        months: i32,
    },
    /// `e BETWEEN lo AND hi` is desugared by the binder; kept here only as
    /// documentation that no node exists for it.
    Placeholder,
}

impl Expr {
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    pub fn lit(v: Value) -> Expr {
        Expr::Lit(v)
    }

    pub fn binary(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary {
            op,
            l: Box::new(l),
            r: Box::new(r),
        }
    }

    pub fn and(l: Expr, r: Expr) -> Expr {
        Expr::binary(BinOp::And, l, r)
    }

    pub fn or(l: Expr, r: Expr) -> Expr {
        Expr::binary(BinOp::Or, l, r)
    }

    pub fn eq(l: Expr, r: Expr) -> Expr {
        Expr::binary(BinOp::Eq, l, r)
    }

    #[allow(clippy::should_implement_trait)]
    pub fn not(e: Expr) -> Expr {
        Expr::Unary {
            op: UnOp::Not,
            e: Box::new(e),
        }
    }

    /// All column indexes referenced by this expression.
    pub fn columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) => out.push(*i),
            Expr::Lit(_) | Expr::Placeholder => {}
            Expr::Cast(e, _)
            | Expr::Unary { e, .. }
            | Expr::Like { e, .. }
            | Expr::InList { e, .. }
            | Expr::Substr { e, .. }
            | Expr::Extract { e, .. }
            | Expr::AddMonths { e, .. } => e.columns(out),
            Expr::Binary { l, r, .. } => {
                l.columns(out);
                r.columns(out);
            }
            Expr::Case { whens, otherwise } => {
                for (c, t) in whens {
                    c.columns(out);
                    t.columns(out);
                }
                if let Some(e) = otherwise {
                    e.columns(out);
                }
            }
        }
    }

    /// Rewrite column indexes through `map` (used when pushing expressions
    /// past projections). `map[i] = new index of old column i`.
    pub fn remap_columns(&self, map: &dyn Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Col(i) => Expr::Col(map(*i)),
            e => e.map_children(&mut |c| c.remap_columns(map)),
        }
    }

    /// This node over its children rewritten by `f`.
    pub fn map_children(&self, f: &mut dyn FnMut(&Expr) -> Expr) -> Expr {
        let mut b = |e: &Expr| Box::new(f(e));
        match self {
            Expr::Col(_) | Expr::Lit(_) | Expr::Placeholder => self.clone(),
            Expr::Cast(e, t) => Expr::Cast(b(e), *t),
            Expr::Unary { op, e } => Expr::Unary { op: *op, e: b(e) },
            Expr::Binary { op, l, r } => Expr::Binary {
                op: *op,
                l: b(l),
                r: b(r),
            },
            Expr::Case { whens, otherwise } => Expr::Case {
                whens: whens.iter().map(|(c, t)| (f(c), f(t))).collect(),
                otherwise: otherwise.as_ref().map(|e| Box::new(f(e))),
            },
            Expr::Like {
                e,
                pattern,
                negated,
            } => Expr::Like {
                e: b(e),
                pattern: pattern.clone(),
                negated: *negated,
            },
            Expr::InList { e, list, negated } => Expr::InList {
                e: b(e),
                list: list.clone(),
                negated: *negated,
            },
            Expr::Substr { e, start, len } => Expr::Substr {
                e: b(e),
                start: *start,
                len: *len,
            },
            Expr::Extract { part, e } => Expr::Extract {
                part: *part,
                e: b(e),
            },
            Expr::AddMonths { e, months } => Expr::AddMonths {
                e: b(e),
                months: *months,
            },
        }
    }

    /// Static output type given the input schema.
    pub fn data_type(&self, input: &Schema) -> Result<DataType> {
        match self {
            Expr::Col(i) => {
                if *i >= input.len() {
                    return Err(VwError::Plan(format!("column #{} out of range", i)));
                }
                Ok(input.field(*i).ty)
            }
            Expr::Lit(v) => Ok(v.data_type().unwrap_or(DataType::I64)),
            Expr::Cast(_, t) => Ok(*t),
            Expr::Unary { op, e } => match op {
                UnOp::Not | UnOp::IsNull | UnOp::IsNotNull => Ok(DataType::Bool),
                UnOp::Neg => e.data_type(input),
            },
            Expr::Binary { op, l, r } => {
                if op.is_comparison() || matches!(op, BinOp::And | BinOp::Or) {
                    Ok(DataType::Bool)
                } else {
                    let lt = l.data_type(input)?;
                    let rt = r.data_type(input)?;
                    lt.common_numeric(rt).ok_or_else(|| {
                        VwError::Plan(format!("no numeric type for {} {} {}", lt, op.name(), rt))
                    })
                }
            }
            Expr::Case { whens, otherwise } => {
                let mut t: Option<DataType> = None;
                for (_, v) in whens {
                    let vt = v.data_type(input)?;
                    t = Some(match t {
                        None => vt,
                        Some(prev) if prev == vt => vt,
                        Some(prev) => prev.common_numeric(vt).ok_or_else(|| {
                            VwError::Plan("CASE branches have incompatible types".into())
                        })?,
                    });
                }
                if let Some(e) = otherwise {
                    let et = e.data_type(input)?;
                    t = Some(match t {
                        None => et,
                        Some(prev) if prev == et => et,
                        Some(prev) => prev.common_numeric(et).ok_or_else(|| {
                            VwError::Plan("CASE branches have incompatible types".into())
                        })?,
                    });
                }
                t.ok_or_else(|| VwError::Plan("empty CASE".into()))
            }
            Expr::Like { .. } | Expr::InList { .. } => Ok(DataType::Bool),
            Expr::Substr { .. } => Ok(DataType::Str),
            Expr::Extract { .. } => Ok(DataType::I32),
            Expr::AddMonths { .. } => Ok(DataType::Date),
            Expr::Placeholder => Err(VwError::Plan("placeholder expr".into())),
        }
    }

    /// Whether this expression can produce NULL over the input schema.
    pub fn nullable(&self, input: &Schema) -> bool {
        match self {
            Expr::Col(i) => input.field(*i).nullable,
            Expr::Lit(v) => v.is_null(),
            Expr::Cast(e, _) => e.nullable(input),
            Expr::Unary { op, e } => match op {
                UnOp::IsNull | UnOp::IsNotNull => false,
                _ => e.nullable(input),
            },
            Expr::Binary { l, r, .. } => l.nullable(input) || r.nullable(input),
            Expr::Case { whens, otherwise } => {
                whens.iter().any(|(_, v)| v.nullable(input))
                    || otherwise.as_ref().is_none_or(|e| e.nullable(input))
            }
            // `x IN (.., NULL, ..)` is NULL wherever `x` matches no item.
            Expr::InList { e, list, .. } => e.nullable(input) || list.iter().any(Value::is_null),
            Expr::Like { e, .. }
            | Expr::Substr { e, .. }
            | Expr::Extract { e, .. }
            | Expr::AddMonths { e, .. } => e.nullable(input),
            Expr::Placeholder => false,
        }
    }

    /// Reference (row-at-a-time) evaluation.
    pub fn eval_row(&self, row: &[Value]) -> Result<Value> {
        match self {
            Expr::Col(i) => row
                .get(*i)
                .cloned()
                .ok_or_else(|| VwError::Exec(format!("row has no column #{}", i))),
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Cast(e, t) => {
                let v = e.eval_row(row)?;
                v.cast_to(*t)
                    .ok_or_else(|| VwError::Exec(format!("cannot cast {} to {}", v, t)))
            }
            Expr::Unary { op, e } => {
                let v = e.eval_row(row)?;
                Ok(match op {
                    UnOp::IsNull => Value::Bool(v.is_null()),
                    UnOp::IsNotNull => Value::Bool(!v.is_null()),
                    UnOp::Not => match v {
                        Value::Null => Value::Null,
                        Value::Bool(b) => Value::Bool(!b),
                        other => {
                            return Err(VwError::Exec(format!("NOT of non-boolean {}", other)))
                        }
                    },
                    UnOp::Neg => match v {
                        Value::Null => Value::Null,
                        Value::I32(x) => Value::I32(-x),
                        Value::I64(x) => Value::I64(-x),
                        Value::F64(x) => Value::F64(-x),
                        other => {
                            return Err(VwError::Exec(format!("negate of non-numeric {}", other)))
                        }
                    },
                })
            }
            Expr::Binary { op, l, r } => eval_binary(*op, l, r, row),
            Expr::Case { whens, otherwise } => {
                for (c, t) in whens {
                    if c.eval_row(row)? == Value::Bool(true) {
                        return t.eval_row(row);
                    }
                }
                match otherwise {
                    Some(e) => e.eval_row(row),
                    None => Ok(Value::Null),
                }
            }
            Expr::Like {
                e,
                pattern,
                negated,
            } => {
                let v = e.eval_row(row)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Str(s) => {
                        let m = like_match(pattern.as_bytes(), s.as_bytes());
                        Ok(Value::Bool(m != *negated))
                    }
                    other => Err(VwError::Exec(format!("LIKE on non-string {}", other))),
                }
            }
            Expr::InList { e, list, negated } => {
                let v = e.eval_row(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    match v.sql_eq(item) {
                        Some(true) => return Ok(Value::Bool(!negated)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            Expr::Substr { e, start, len } => {
                let v = e.eval_row(row)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Str(s) => Ok(Value::Str(substr(&s, *start, *len))),
                    other => Err(VwError::Exec(format!("SUBSTRING on {}", other))),
                }
            }
            Expr::Extract { part, e } => {
                let v = e.eval_row(row)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Date(d) => Ok(Value::I32(match part {
                        DatePart::Year => year_of(d),
                        DatePart::Month => month_of(d),
                    })),
                    other => Err(VwError::Exec(format!("EXTRACT from {}", other))),
                }
            }
            Expr::AddMonths { e, months } => {
                let v = e.eval_row(row)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Date(d) => Ok(Value::Date(add_months(d, *months))),
                    other => Err(VwError::Exec(format!("interval add on {}", other))),
                }
            }
            Expr::Placeholder => Err(VwError::Exec("placeholder expr".into())),
        }
    }

    /// True iff the expression references no columns.
    pub fn is_constant(&self) -> bool {
        let mut cols = Vec::new();
        self.columns(&mut cols);
        cols.is_empty()
    }

    /// Can evaluating this expression fail on some row — a division, or a
    /// cast (narrowing, or parsing a string)? A conjunction evaluates such
    /// conjuncts last, over the rows the others left (DESIGN.md, "Compressed
    /// execution": the conjunct-order rule).
    pub fn can_raise(&self) -> bool {
        match self {
            Expr::Col(_) | Expr::Lit(_) => false,
            Expr::Cast(..) | Expr::Placeholder => true,
            Expr::Binary { op, l, r } => *op == BinOp::Div || l.can_raise() || r.can_raise(),
            Expr::Unary { e, .. }
            | Expr::Like { e, .. }
            | Expr::InList { e, .. }
            | Expr::Substr { e, .. }
            | Expr::Extract { e, .. }
            | Expr::AddMonths { e, .. } => e.can_raise(),
            Expr::Case { whens, otherwise } => {
                whens.iter().any(|(c, t)| c.can_raise() || t.can_raise())
                    || otherwise.as_ref().is_some_and(|e| e.can_raise())
            }
        }
    }
}

fn eval_binary(op: BinOp, l: &Expr, r: &Expr, row: &[Value]) -> Result<Value> {
    // Kleene AND/OR must not propagate NULL blindly.
    if matches!(op, BinOp::And | BinOp::Or) {
        let lv = l.eval_row(row)?;
        let rv = r.eval_row(row)?;
        let lb = match lv {
            Value::Null => None,
            Value::Bool(b) => Some(b),
            other => return Err(VwError::Exec(format!("boolean op on {}", other))),
        };
        let rb = match rv {
            Value::Null => None,
            Value::Bool(b) => Some(b),
            other => return Err(VwError::Exec(format!("boolean op on {}", other))),
        };
        return Ok(match (op, lb, rb) {
            (BinOp::And, Some(false), _) | (BinOp::And, _, Some(false)) => Value::Bool(false),
            (BinOp::And, Some(true), Some(true)) => Value::Bool(true),
            (BinOp::And, _, _) => Value::Null,
            (BinOp::Or, Some(true), _) | (BinOp::Or, _, Some(true)) => Value::Bool(true),
            (BinOp::Or, Some(false), Some(false)) => Value::Bool(false),
            (BinOp::Or, _, _) => Value::Null,
            _ => unreachable!(),
        });
    }
    let lv = l.eval_row(row)?;
    let rv = r.eval_row(row)?;
    if lv.is_null() || rv.is_null() {
        return Ok(Value::Null);
    }
    if op.is_comparison() {
        let ord = lv
            .sql_cmp(&rv)
            .ok_or_else(|| VwError::Exec(format!("cannot compare {} and {}", lv, rv)))?;
        use std::cmp::Ordering::*;
        let b = match op {
            BinOp::Eq => ord == Equal,
            BinOp::Ne => ord != Equal,
            BinOp::Lt => ord == Less,
            BinOp::Le => ord != Greater,
            BinOp::Gt => ord == Greater,
            BinOp::Ge => ord != Less,
            _ => unreachable!(),
        };
        return Ok(Value::Bool(b));
    }
    // Arithmetic: floats if either side is float, else integers.
    match (&lv, &rv) {
        (Value::F64(_), _) | (_, Value::F64(_)) => {
            let a = lv
                .as_f64()
                .ok_or_else(|| VwError::Exec(format!("arith on {}", lv)))?;
            let b = rv
                .as_f64()
                .ok_or_else(|| VwError::Exec(format!("arith on {}", rv)))?;
            let out = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => {
                    if b == 0.0 {
                        return Err(VwError::Exec("division by zero".into()));
                    }
                    a / b
                }
                _ => unreachable!(),
            };
            Ok(Value::F64(out))
        }
        _ => {
            let a = lv
                .as_i64()
                .ok_or_else(|| VwError::Exec(format!("arith on {}", lv)))?;
            let b = rv
                .as_i64()
                .ok_or_else(|| VwError::Exec(format!("arith on {}", rv)))?;
            let out = match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        return Err(VwError::Exec("division by zero".into()));
                    }
                    a.wrapping_div(b)
                }
                _ => unreachable!(),
            };
            // Stay in the narrower type when both inputs were I32.
            if matches!((&lv, &rv), (Value::I32(_), Value::I32(_))) && i32::try_from(out).is_ok() {
                Ok(Value::I32(out as i32))
            } else {
                Ok(Value::I64(out))
            }
        }
    }
}

/// SQL SUBSTRING on characters, 1-based.
pub fn substr(s: &str, start: u32, len: u32) -> String {
    let start = (start.max(1) - 1) as usize;
    s.chars().skip(start).take(len as usize).collect()
}

/// An aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    CountStar,
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::CountStar => "count(*)",
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }
}

/// One aggregate column of an Aggregate node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    pub func: AggFunc,
    /// Argument expression over the aggregate input (None for COUNT(*)).
    pub arg: Option<Expr>,
    /// Output column name.
    pub name: String,
}

impl AggExpr {
    pub fn output_type(&self, input: &Schema) -> Result<DataType> {
        match self.func {
            AggFunc::CountStar | AggFunc::Count => Ok(DataType::I64),
            AggFunc::Avg => Ok(DataType::F64),
            AggFunc::Sum => {
                let t = self
                    .arg
                    .as_ref()
                    .ok_or_else(|| VwError::Plan("SUM needs an argument".into()))?
                    .data_type(input)?;
                match t {
                    DataType::I32 | DataType::I64 => Ok(DataType::I64),
                    DataType::F64 => Ok(DataType::F64),
                    other => Err(VwError::Plan(format!("SUM over {}", other))),
                }
            }
            AggFunc::Min | AggFunc::Max => self
                .arg
                .as_ref()
                .ok_or_else(|| VwError::Plan("MIN/MAX needs an argument".into()))?
                .data_type(input),
        }
    }
}

impl fmt::Display for Expr {
    // Display is only used for EXPLAIN output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(i) => write!(f, "#{}", i),
            Expr::Lit(v) => write!(f, "{}", v),
            Expr::Cast(e, t) => write!(f, "CAST({} AS {})", e, t),
            Expr::Unary { op, e } => match op {
                UnOp::Not => write!(f, "NOT ({})", e),
                UnOp::Neg => write!(f, "-({})", e),
                UnOp::IsNull => write!(f, "({}) IS NULL", e),
                UnOp::IsNotNull => write!(f, "({}) IS NOT NULL", e),
            },
            Expr::Binary { op, l, r } => write!(f, "({} {} {})", l, op.name(), r),
            Expr::Case { whens, otherwise } => {
                write!(f, "CASE")?;
                for (c, t) in whens {
                    write!(f, " WHEN {} THEN {}", c, t)?;
                }
                if let Some(e) = otherwise {
                    write!(f, " ELSE {}", e)?;
                }
                write!(f, " END")
            }
            Expr::Like {
                e,
                pattern,
                negated,
            } => write!(
                f,
                "{} {}LIKE '{}'",
                e,
                if *negated { "NOT " } else { "" },
                pattern
            ),
            Expr::InList { e, list, negated } => {
                write!(f, "{} {}IN (", e, if *negated { "NOT " } else { "" })?;
                for (i, v) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", v)?;
                }
                write!(f, ")")
            }
            Expr::Substr { e, start, len } => {
                write!(f, "SUBSTRING({} FROM {} FOR {})", e, start, len)
            }
            Expr::Extract { part, e } => write!(
                f,
                "EXTRACT({} FROM {})",
                match part {
                    DatePart::Year => "YEAR",
                    DatePart::Month => "MONTH",
                },
                e
            ),
            Expr::AddMonths { e, months } => {
                write!(f, "({} + INTERVAL {} MONTH)", e, months)
            }
            Expr::Placeholder => write!(f, "?"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_common::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::I64),
            Field::nullable("b", DataType::I64),
            Field::new("s", DataType::Str),
            Field::new("d", DataType::Date),
            Field::new("f", DataType::F64),
        ])
    }

    fn row() -> Vec<Value> {
        vec![
            Value::I64(10),
            Value::Null,
            Value::Str("SHIP".into()),
            Value::Date(vw_common::date::parse_date("1995-06-17").unwrap()),
            Value::F64(0.5),
        ]
    }

    #[test]
    fn typing() {
        let s = schema();
        assert_eq!(
            Expr::binary(BinOp::Add, Expr::col(0), Expr::col(4))
                .data_type(&s)
                .unwrap(),
            DataType::F64
        );
        assert_eq!(
            Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit(Value::I64(3)))
                .data_type(&s)
                .unwrap(),
            DataType::Bool
        );
        assert!(Expr::binary(BinOp::Add, Expr::col(0), Expr::col(2))
            .data_type(&s)
            .is_err());
        assert!(Expr::col(9).data_type(&s).is_err());
        assert_eq!(
            Expr::Extract {
                part: DatePart::Year,
                e: Box::new(Expr::col(3))
            }
            .data_type(&s)
            .unwrap(),
            DataType::I32
        );
    }

    #[test]
    fn nullability() {
        let s = schema();
        assert!(!Expr::col(0).nullable(&s));
        assert!(Expr::col(1).nullable(&s));
        assert!(Expr::binary(BinOp::Add, Expr::col(0), Expr::col(1)).nullable(&s));
        assert!(!Expr::Unary {
            op: UnOp::IsNull,
            e: Box::new(Expr::col(1))
        }
        .nullable(&s));
        // CASE without ELSE can return NULL
        assert!(Expr::Case {
            whens: vec![(
                Expr::eq(Expr::col(0), Expr::lit(Value::I64(1))),
                Expr::lit(Value::I64(1))
            )],
            otherwise: None
        }
        .nullable(&s));
        // A NULL in an IN list makes the test NULL for a non-matching value.
        let in_list = |list: Vec<Value>| Expr::InList {
            e: Box::new(Expr::col(0)),
            list,
            negated: false,
        };
        assert!(!in_list(vec![Value::I64(1), Value::I64(2)]).nullable(&s));
        let with_null = in_list(vec![Value::I64(1), Value::Null]);
        assert!(with_null.nullable(&s));
        assert_eq!(with_null.eval_row(&row()).unwrap(), Value::Null);
    }

    #[test]
    fn arithmetic_and_comparison() {
        let r = row();
        let e = Expr::binary(
            BinOp::Mul,
            Expr::col(0),
            Expr::binary(BinOp::Sub, Expr::lit(Value::F64(1.0)), Expr::col(4)),
        );
        assert_eq!(e.eval_row(&r).unwrap(), Value::F64(5.0));
        let cmp = Expr::binary(BinOp::Ge, Expr::col(0), Expr::lit(Value::I32(10)));
        assert_eq!(cmp.eval_row(&r).unwrap(), Value::Bool(true));
        // div by zero errors
        let div = Expr::binary(BinOp::Div, Expr::col(0), Expr::lit(Value::I64(0)));
        assert!(div.eval_row(&r).is_err());
        // i32 arithmetic stays i32
        let e32 = Expr::binary(
            BinOp::Add,
            Expr::lit(Value::I32(3)),
            Expr::lit(Value::I32(4)),
        );
        assert_eq!(e32.eval_row(&[]).unwrap(), Value::I32(7));
    }

    #[test]
    fn null_propagation_and_kleene() {
        let r = row();
        let add_null = Expr::binary(BinOp::Add, Expr::col(0), Expr::col(1));
        assert_eq!(add_null.eval_row(&r).unwrap(), Value::Null);
        let cmp_null = Expr::binary(BinOp::Eq, Expr::col(1), Expr::lit(Value::I64(0)));
        assert_eq!(cmp_null.eval_row(&r).unwrap(), Value::Null);
        // NULL AND false = false; NULL AND true = NULL
        let null_b = Expr::binary(BinOp::Eq, Expr::col(1), Expr::col(1));
        let f = Expr::lit(Value::Bool(false));
        let t = Expr::lit(Value::Bool(true));
        assert_eq!(
            Expr::and(null_b.clone(), f.clone()).eval_row(&r).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            Expr::and(null_b.clone(), t.clone()).eval_row(&r).unwrap(),
            Value::Null
        );
        assert_eq!(
            Expr::or(null_b.clone(), t).eval_row(&r).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(Expr::or(null_b, f).eval_row(&r).unwrap(), Value::Null);
        // IS NULL
        let isn = Expr::Unary {
            op: UnOp::IsNull,
            e: Box::new(Expr::col(1)),
        };
        assert_eq!(isn.eval_row(&r).unwrap(), Value::Bool(true));
    }

    #[test]
    fn like_in_substr_extract_eval() {
        let r = row();
        let like = Expr::Like {
            e: Box::new(Expr::col(2)),
            pattern: "SH%".into(),
            negated: false,
        };
        assert_eq!(like.eval_row(&r).unwrap(), Value::Bool(true));
        let inl = Expr::InList {
            e: Box::new(Expr::col(2)),
            list: vec![Value::Str("AIR".into()), Value::Str("SHIP".into())],
            negated: false,
        };
        assert_eq!(inl.eval_row(&r).unwrap(), Value::Bool(true));
        let not_inl = Expr::InList {
            e: Box::new(Expr::col(2)),
            list: vec![Value::Str("AIR".into())],
            negated: true,
        };
        assert_eq!(not_inl.eval_row(&r).unwrap(), Value::Bool(true));
        let sub = Expr::Substr {
            e: Box::new(Expr::col(2)),
            start: 2,
            len: 2,
        };
        assert_eq!(sub.eval_row(&r).unwrap(), Value::Str("HI".into()));
        let yr = Expr::Extract {
            part: DatePart::Year,
            e: Box::new(Expr::col(3)),
        };
        assert_eq!(yr.eval_row(&r).unwrap(), Value::I32(1995));
        let am = Expr::AddMonths {
            e: Box::new(Expr::col(3)),
            months: 3,
        };
        assert_eq!(
            am.eval_row(&r).unwrap(),
            Value::Date(vw_common::date::parse_date("1995-09-17").unwrap())
        );
    }

    #[test]
    fn in_list_null_semantics() {
        // NULL IN (...) = NULL; x IN (y, NULL) with no match = NULL
        let inl = Expr::InList {
            e: Box::new(Expr::lit(Value::Null)),
            list: vec![Value::I64(1)],
            negated: false,
        };
        assert_eq!(inl.eval_row(&[]).unwrap(), Value::Null);
        let inl2 = Expr::InList {
            e: Box::new(Expr::lit(Value::I64(5))),
            list: vec![Value::I64(1), Value::Null],
            negated: false,
        };
        assert_eq!(inl2.eval_row(&[]).unwrap(), Value::Null);
        let inl3 = Expr::InList {
            e: Box::new(Expr::lit(Value::I64(1))),
            list: vec![Value::I64(1), Value::Null],
            negated: false,
        };
        assert_eq!(inl3.eval_row(&[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn case_eval() {
        let e = Expr::Case {
            whens: vec![
                (
                    Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit(Value::I64(5))),
                    Expr::lit(Value::Str("low".into())),
                ),
                (
                    Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit(Value::I64(50))),
                    Expr::lit(Value::Str("mid".into())),
                ),
            ],
            otherwise: Some(Box::new(Expr::lit(Value::Str("high".into())))),
        };
        assert_eq!(e.eval_row(&row()).unwrap(), Value::Str("mid".into()));
        assert_eq!(
            e.eval_row(&[Value::I64(1000)]).unwrap(),
            Value::Str("high".into())
        );
    }

    #[test]
    fn columns_and_remap() {
        let e = Expr::binary(
            BinOp::Add,
            Expr::col(2),
            Expr::binary(BinOp::Mul, Expr::col(0), Expr::col(2)),
        );
        let mut cols = Vec::new();
        e.columns(&mut cols);
        cols.sort_unstable();
        cols.dedup();
        assert_eq!(cols, vec![0, 2]);
        let remapped = e.remap_columns(&|i| i + 10);
        let mut cols2 = Vec::new();
        remapped.columns(&mut cols2);
        cols2.sort_unstable();
        cols2.dedup();
        assert_eq!(cols2, vec![10, 12]);
    }

    #[test]
    fn display_smoke() {
        let e = Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit(Value::I64(5)));
        assert_eq!(e.to_string(), "(#0 < 5)");
    }

    #[test]
    fn substr_edges() {
        assert_eq!(substr("hello", 1, 2), "he");
        assert_eq!(substr("hello", 5, 10), "o");
        assert_eq!(substr("hello", 6, 1), "");
        assert_eq!(substr("héllo", 2, 2), "él");
        assert_eq!(substr("x", 0, 1), "x"); // start clamps to 1
    }

    #[test]
    fn agg_expr_types() {
        let s = schema();
        let sum = AggExpr {
            func: AggFunc::Sum,
            arg: Some(Expr::col(0)),
            name: "s".into(),
        };
        assert_eq!(sum.output_type(&s).unwrap(), DataType::I64);
        let sumf = AggExpr {
            func: AggFunc::Sum,
            arg: Some(Expr::col(4)),
            name: "s".into(),
        };
        assert_eq!(sumf.output_type(&s).unwrap(), DataType::F64);
        let avg = AggExpr {
            func: AggFunc::Avg,
            arg: Some(Expr::col(0)),
            name: "a".into(),
        };
        assert_eq!(avg.output_type(&s).unwrap(), DataType::F64);
        let cnt = AggExpr {
            func: AggFunc::CountStar,
            arg: None,
            name: "c".into(),
        };
        assert_eq!(cnt.output_type(&s).unwrap(), DataType::I64);
        let minmax = AggExpr {
            func: AggFunc::Min,
            arg: Some(Expr::col(2)),
            name: "m".into(),
        };
        assert_eq!(minmax.output_type(&s).unwrap(), DataType::Str);
        let bad = AggExpr {
            func: AggFunc::Sum,
            arg: Some(Expr::col(2)),
            name: "x".into(),
        };
        assert!(bad.output_type(&s).is_err());
    }
}
