//! Scalar data types and self-describing values.
//!
//! The engine is columnar and strongly typed: a [`DataType`] tags whole
//! columns, and the boxed [`Value`] enum only appears at the edges (SQL
//! literals, query results, the tuple-at-a-time baseline engine). The hot
//! vectorized path never touches `Value`.

use crate::date::{format_date, parse_date};
use std::cmp::Ordering;
use std::fmt;

/// The scalar types the engine supports.
///
/// There is no decimal type: SQL `DECIMAL(p,s)` is `F64`. Storage keeps a
/// block of `F64` values that are all exact short decimals as scaled
/// integers (`d / 10^s`, bit for bit) in a PFOR frame, so money columns are
/// bit-packed on disk while every kernel above storage sees doubles. `Date`
/// is `i32` days since epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    I32,
    I64,
    F64,
    Date,
    Str,
}

impl DataType {
    /// Width in bytes of one value in uncompressed columnar form.
    /// Strings report the pointer-free average estimate used by the
    /// optimizer's cost model (actual storage is offset+bytes).
    pub fn byte_width(self) -> usize {
        match self {
            DataType::Bool => 1,
            DataType::I32 | DataType::Date => 4,
            DataType::I64 | DataType::F64 => 8,
            DataType::Str => 16,
        }
    }

    /// True for types on which SUM/AVG are defined.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::I32 | DataType::I64 | DataType::F64)
    }

    /// Name as it appears in SQL and in `EXPLAIN` output.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Bool => "BOOLEAN",
            DataType::I32 => "INTEGER",
            DataType::I64 => "BIGINT",
            DataType::F64 => "DOUBLE",
            DataType::Date => "DATE",
            DataType::Str => "VARCHAR",
        }
    }

    /// The type arithmetic between `self` and `other` produces, if any.
    pub fn common_numeric(self, other: DataType) -> Option<DataType> {
        use DataType::*;
        match (self, other) {
            (F64, x) | (x, F64) if x.is_numeric() => Some(F64),
            (I64, x) | (x, I64) if x.is_numeric() => Some(I64),
            (I32, I32) => Some(I32),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single self-describing scalar value, including SQL NULL.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    I32(i32),
    I64(i64),
    F64(f64),
    /// Days since 1970-01-01.
    Date(i32),
    Str(String),
}

impl Value {
    /// The type of this value, or `None` for NULL (NULL is typeless).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::I32(_) => Some(DataType::I32),
            Value::I64(_) => Some(DataType::I64),
            Value::F64(_) => Some(DataType::F64),
            Value::Date(_) => Some(DataType::Date),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Widen/convert this value to `ty` where SQL implicit casts allow it.
    pub fn cast_to(&self, ty: DataType) -> Option<Value> {
        match (self, ty) {
            (Value::Null, _) => Some(Value::Null),
            (Value::Bool(b), DataType::Bool) => Some(Value::Bool(*b)),
            (Value::I32(v), DataType::I32) => Some(Value::I32(*v)),
            (Value::I32(v), DataType::I64) => Some(Value::I64(*v as i64)),
            (Value::I32(v), DataType::F64) => Some(Value::F64(*v as f64)),
            (Value::I32(v), DataType::Date) => Some(Value::Date(*v)),
            (Value::I64(v), DataType::I64) => Some(Value::I64(*v)),
            (Value::I64(v), DataType::I32) => i32::try_from(*v).ok().map(Value::I32),
            (Value::I64(v), DataType::F64) => Some(Value::F64(*v as f64)),
            (Value::F64(v), DataType::F64) => Some(Value::F64(*v)),
            (Value::F64(v), DataType::I64) => {
                let r = v.round();
                // `i64::MAX as f64` rounds up to 2^63, so an inclusive upper
                // bound would admit 9223372036854775808.0 and let `as i64`
                // saturate; the upper bound must be exclusive. The lower bound
                // is fine: `i64::MIN as f64` is exactly -2^63.
                if r.is_finite() && r >= i64::MIN as f64 && r < 9_223_372_036_854_775_808.0 {
                    Some(Value::I64(r as i64))
                } else {
                    None
                }
            }
            (Value::F64(v), DataType::I32) => {
                let r = v.round();
                if r.is_finite() && (i32::MIN as f64..=i32::MAX as f64).contains(&r) {
                    Some(Value::I32(r as i32))
                } else {
                    None
                }
            }
            (Value::Date(v), DataType::Date) => Some(Value::Date(*v)),
            (Value::Str(s), DataType::Str) => Some(Value::Str(s.clone())),
            (Value::Str(s), DataType::Date) => parse_date(s).map(Value::Date),
            _ => None,
        }
    }

    /// Extract as i64 (integers and dates), for the row engine.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I32(v) => Some(*v as i64),
            Value::I64(v) => Some(*v),
            Value::Date(v) => Some(*v as i64),
            _ => None,
        }
    }

    /// Extract as f64 (any numeric), for the row engine.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::I32(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL comparison semantics: NULL compares as NULL (returns `None`);
    /// cross-numeric comparisons widen; strings compare bytewise.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Str(a), Str(b)) => Some(a.as_str().cmp(b.as_str())),
            (Date(a), Date(b)) => Some(a.cmp(b)),
            (F64(_), _) | (_, F64(_)) => {
                let a = self.as_f64()?;
                let b = other.as_f64()?;
                a.partial_cmp(&b)
            }
            _ => {
                let a = self.as_i64()?;
                let b = other.as_i64()?;
                Some(a.cmp(&b))
            }
        }
    }

    /// Total order for sorting: NULLs sort first, then by value; used by
    /// ORDER BY in the baseline engines and result comparison in tests.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        match (self.is_null(), other.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => self.sql_cmp(other).unwrap_or_else(|| {
                // SQL comparison is partial: NaN is incomparable to every
                // double (including itself), and mismatched types have no
                // order. Fall back to IEEE total order for float pairs and to
                // type tags otherwise, so sorting stays total.
                if let (Some(a), Some(b)) = (self.as_f64(), other.as_f64()) {
                    return a.total_cmp(&b);
                }
                let ta = self.data_type().map(|t| t.name()).unwrap_or("");
                let tb = other.data_type().map(|t| t.name()).unwrap_or("");
                ta.cmp(tb)
            }),
        }
    }

    /// SQL equality (NULL = anything is NULL, i.e. `None`).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// Canonical form for use as a grouping/join key. Structural
    /// equality/hashing on `Value` is bitwise for `F64`, which is wrong for
    /// SQL keys: `0.0` and `-0.0` are SQL-equal but have different bits, and
    /// NaN has many payloads. Key-building code normalizes values through
    /// this before hashing or comparing, rather than weakening the structural
    /// semantics everywhere else.
    pub fn normalize_key(&self) -> Value {
        match self {
            Value::F64(v) => Value::F64(normalize_key_f64(*v)),
            other => other.clone(),
        }
    }
}

/// Fold an f64 into its canonical grouping-key representative: `-0.0`
/// becomes `0.0` (SQL-equal values must share one group) and every NaN
/// payload becomes the one canonical quiet NaN so NaN groups with itself.
#[inline]
pub fn normalize_key_f64(v: f64) -> f64 {
    if v.is_nan() {
        f64::NAN
    } else if v == 0.0 {
        0.0
    } else {
        v
    }
}

/// Structural equality for tests and hash keys: NULL == NULL, f64 by bits.
impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (I32(a), I32(b)) => a == b,
            (I64(a), I64(b)) => a == b,
            (F64(a), F64(b)) => a.to_bits() == b.to_bits(),
            (Date(a), Date(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        use Value::*;
        match self {
            Null => state.write_u8(0),
            Bool(b) => {
                state.write_u8(1);
                state.write_u8(*b as u8);
            }
            I32(v) => {
                state.write_u8(2);
                state.write_i32(*v);
            }
            I64(v) => {
                state.write_u8(3);
                state.write_i64(*v);
            }
            F64(v) => {
                state.write_u8(4);
                state.write_u64(v.to_bits());
            }
            Date(v) => {
                state.write_u8(5);
                state.write_i32(*v);
            }
            Str(s) => {
                state.write_u8(6);
                state.write(s.as_bytes());
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{}", b),
            Value::I32(v) => write!(f, "{}", v),
            Value::I64(v) => write!(f, "{}", v),
            Value::F64(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{:.1}", v)
                } else {
                    write!(f, "{}", v)
                }
            }
            Value::Date(d) => f.write_str(&format_date(*d)),
            Value::Str(s) => f.write_str(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_properties() {
        assert!(DataType::I64.is_numeric());
        assert!(!DataType::Str.is_numeric());
        assert_eq!(DataType::Date.byte_width(), 4);
        assert_eq!(
            DataType::I32.common_numeric(DataType::F64),
            Some(DataType::F64)
        );
        assert_eq!(
            DataType::I32.common_numeric(DataType::I64),
            Some(DataType::I64)
        );
        assert_eq!(
            DataType::I32.common_numeric(DataType::I32),
            Some(DataType::I32)
        );
        assert_eq!(DataType::Str.common_numeric(DataType::I32), None);
        assert_eq!(DataType::Bool.name(), "BOOLEAN");
    }

    #[test]
    fn null_semantics() {
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.sql_cmp(&Value::I32(1)), None);
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
        // but structural equality treats NULL == NULL (needed by GROUP BY)
        assert_eq!(Value::Null, Value::Null);
        assert_eq!(Value::Null.total_cmp(&Value::I32(i32::MIN)), Ordering::Less);
    }

    #[test]
    fn cross_numeric_compare() {
        assert_eq!(Value::I32(3).sql_cmp(&Value::I64(4)), Some(Ordering::Less));
        assert_eq!(
            Value::F64(3.5).sql_cmp(&Value::I32(3)),
            Some(Ordering::Greater)
        );
        assert_eq!(Value::I64(5).sql_eq(&Value::I32(5)), Some(true));
        assert_eq!(
            Value::Str("a".into()).sql_cmp(&Value::Str("b".into())),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn casting() {
        assert_eq!(Value::I32(7).cast_to(DataType::I64), Some(Value::I64(7)));
        assert_eq!(Value::I64(7).cast_to(DataType::I32), Some(Value::I32(7)));
        assert_eq!(Value::I64(i64::MAX).cast_to(DataType::I32), None);
        assert_eq!(
            Value::Str("1995-01-01".into()).cast_to(DataType::Date),
            Some(Value::Date(crate::date::parse_date("1995-01-01").unwrap()))
        );
        assert_eq!(Value::Null.cast_to(DataType::I64), Some(Value::Null));
        assert_eq!(Value::Bool(true).cast_to(DataType::I64), None);
    }

    #[test]
    fn f64_to_int_cast_boundaries() {
        // 2^63 is exactly representable as f64 but NOT a valid i64.
        let two_pow_63 = 9_223_372_036_854_775_808.0f64;
        assert_eq!(Value::F64(two_pow_63).cast_to(DataType::I64), None);
        // i64::MAX as f64 rounds to 2^63, so it must also be rejected.
        assert_eq!(Value::F64(i64::MAX as f64).cast_to(DataType::I64), None);
        // The largest f64 strictly below 2^63 is valid.
        let below = 9_223_372_036_854_774_784.0f64;
        assert_eq!(
            Value::F64(below).cast_to(DataType::I64),
            Some(Value::I64(below as i64))
        );
        // -2^63 is exactly i64::MIN and must be accepted.
        assert_eq!(
            Value::F64(i64::MIN as f64).cast_to(DataType::I64),
            Some(Value::I64(i64::MIN))
        );
        assert_eq!(Value::F64(f64::NAN).cast_to(DataType::I64), None);
        assert_eq!(Value::F64(f64::INFINITY).cast_to(DataType::I64), None);
        // The i32 path is exact on both ends (i32 fits in f64's mantissa).
        assert_eq!(
            Value::F64(i32::MAX as f64).cast_to(DataType::I32),
            Some(Value::I32(i32::MAX))
        );
        assert_eq!(
            Value::F64(i32::MIN as f64).cast_to(DataType::I32),
            Some(Value::I32(i32::MIN))
        );
        assert_eq!(
            Value::F64(i32::MAX as f64 + 1.0).cast_to(DataType::I32),
            None
        );
    }

    #[test]
    fn key_normalization() {
        assert_eq!(normalize_key_f64(-0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(
            normalize_key_f64(f64::from_bits(0x7ff8_dead_beef_0001)).to_bits(),
            f64::NAN.to_bits()
        );
        assert_eq!(normalize_key_f64(1.5), 1.5);
        // Normalized values agree under structural (bitwise) equality/hash.
        assert_eq!(
            Value::F64(-0.0).normalize_key(),
            Value::F64(0.0).normalize_key()
        );
        assert_eq!(
            Value::F64(f64::NAN).normalize_key(),
            Value::F64(-f64::NAN).normalize_key()
        );
        // Non-float values pass through untouched.
        assert_eq!(Value::I64(3).normalize_key(), Value::I64(3));
        assert_eq!(Value::Null.normalize_key(), Value::Null);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::F64(2.0).to_string(), "2.0");
        assert_eq!(Value::F64(2.5).to_string(), "2.5");
        assert_eq!(
            Value::Date(crate::date::parse_date("1998-09-02").unwrap()).to_string(),
            "1998-09-02"
        );
    }

    #[test]
    fn hashing_matches_equality() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(Value::I64(1));
        s.insert(Value::Null);
        s.insert(Value::Null);
        assert_eq!(s.len(), 2);
        assert!(s.contains(&Value::I64(1)));
        // f64 NaN hashes consistently with bit equality
        let mut s2 = HashSet::new();
        s2.insert(Value::F64(f64::NAN));
        assert!(s2.contains(&Value::F64(f64::NAN)));
    }

    #[test]
    fn total_cmp_is_total_on_mixed_types() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::I32(1),
            Value::Str("x".into()),
            Value::F64(0.5),
            Value::F64(f64::NAN),
            Value::F64(f64::NEG_INFINITY),
            Value::F64(-0.0),
        ];
        // antisymmetry sanity: a<=b and b<=a implies a==b ordering-wise
        for a in &vals {
            for b in &vals {
                let ab = a.total_cmp(b);
                let ba = b.total_cmp(a);
                assert_eq!(ab, ba.reverse(), "{:?} vs {:?}", a, b);
            }
        }
        // transitivity: sorting must never see an ordering violation (NaN
        // used to compare Equal to every double via the type-tag fallback).
        let mut sorted = vals.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        for w in sorted.windows(3) {
            if w[0].total_cmp(&w[1]) == Ordering::Equal && w[1].total_cmp(&w[2]) == Ordering::Equal
            {
                assert_eq!(w[0].total_cmp(&w[2]), Ordering::Equal);
            }
        }
        assert_eq!(
            Value::F64(f64::NAN).total_cmp(&Value::F64(f64::NAN)),
            Ordering::Equal
        );
        assert_eq!(
            Value::F64(1.0).total_cmp(&Value::F64(f64::NAN)),
            Ordering::Less
        );
    }
}
