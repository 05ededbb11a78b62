//! Perfect-hash (direct-array) aggregation.
//!
//! When every GROUP BY key has a provably small domain — a PDICT-coded
//! string column, a boolean, or a narrow integer whose MinMax range is known
//! from the row-group zone maps — the group of a tuple can be *computed*
//! instead of *probed*: compose the per-key codes into one flat slot index
//! and address the accumulators directly. No hashing, no bucket chains, no
//! key comparisons on the hot path. This is the fixed-slot aggregation
//! array the "Fine-Tuning Data Structures" line of work recommends whenever
//! the observed key domain fits, and it is what makes Q1-shaped
//! aggregations (few groups, many tuples) cheap.
//!
//! The accumulators ([`Accumulators`], shared with the generic hash path)
//! keep a slot's COUNT/SUM/AVG state as one row of 8-byte lanes that
//! aggregates over the same input share ([`AccLayout`]), and fold a vector
//! into those rows in one pass, with a loop compiled for the row's width.
//! Q1's eight aggregates keep five sums and one count per group.
//!
//! The table is speculative: `absorb` computes the slots of a whole vector
//! *before* touching any accumulator, so the moment one value falls outside
//! its coder's domain the caller can fall back to the generic hash table by
//! re-emitting every occupied slot as a partial-aggregate row (the same
//! layout the spill machinery uses) and merging those rows with `combine`
//! semantics. Correctness never depends on the hints being right.

use std::cmp::Ordering;
use std::sync::Arc;
use std::time::Instant;

use vw_common::{DataType, Result, VwError};
use vw_plan::plan::AggPhase;
use vw_plan::{AggExpr, AggFunc};
use vw_storage::{ColumnData, StrColumn};

use super::f64_total_cmp;
use crate::batch::{Batch, ExecVector};
use crate::mem::MemTracker;

/// Hard cap on the flat accumulator array (slots, not bytes): beyond this
/// the generic hash table's cache behavior wins anyway.
pub const MAX_SLOTS: usize = 4096;

/// Distinct strings a tiny-string coder may assign (code 0 is NULL).
const STR_MAX_DISTINCT: usize = 32;

/// Compile-time plan for one key column's code domain. Every coder reserves
/// code 0 for NULL, so `cap` counts NULL plus the value domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyCoderSpec {
    /// String key expected to have few distinct values (PDICT-style); codes
    /// are assigned on first sight, capped at [`STR_MAX_DISTINCT`].
    TinyStr,
    /// Integer key with a known value range `[lo, lo + cap - 2]`.
    IntRange { lo: i64, cap: u16 },
    /// Boolean key: NULL / false / true.
    Bool,
}

impl KeyCoderSpec {
    fn cap(&self) -> u32 {
        match self {
            KeyCoderSpec::TinyStr => STR_MAX_DISTINCT as u32 + 1,
            KeyCoderSpec::IntRange { cap, .. } => *cap as u32,
            KeyCoderSpec::Bool => 3,
        }
    }
}

/// Decide whether a key set is perfect-hash eligible. `hints[k]` is the
/// folded MinMax range of key `k` when it is a stored integer column with
/// stats (`None` otherwise). Returns the coder plan, or `None` when any key
/// type is unsuitable or the composed slot count exceeds [`MAX_SLOTS`].
pub fn plan_specs(
    key_types: &[DataType],
    hints: &[Option<(i64, i64)>],
) -> Option<Vec<KeyCoderSpec>> {
    let mut specs = Vec::with_capacity(key_types.len());
    let mut slots: u64 = 1;
    for (k, &ty) in key_types.iter().enumerate() {
        let spec = match ty {
            DataType::Str => KeyCoderSpec::TinyStr,
            DataType::Bool => KeyCoderSpec::Bool,
            DataType::I32 | DataType::I64 | DataType::Date => {
                let (lo, hi) = hints.get(k).copied().flatten()?;
                let range = hi.checked_sub(lo)?;
                if !(0..=254).contains(&range) {
                    return None;
                }
                KeyCoderSpec::IntRange {
                    lo,
                    cap: range as u16 + 2,
                }
            }
            DataType::F64 => return None,
        };
        slots = slots.checked_mul(spec.cap() as u64)?;
        if slots > MAX_SLOTS as u64 {
            return None;
        }
        specs.push(spec);
    }
    Some(specs)
}

/// Runtime key→code mapper for one key column.
enum KeyCoder {
    TinyStr {
        /// Fast path for single-byte strings: code by leading byte
        /// (0 = unassigned).
        by_byte: Box<[u16; 256]>,
        /// Assigned strings; the code of `seen[i]` is `i + 1`.
        seen: Vec<Box<[u8]>>,
    },
    IntRange {
        lo: i64,
        cap: u16,
    },
    Bool,
}

impl KeyCoder {
    fn new(spec: KeyCoderSpec) -> KeyCoder {
        match spec {
            KeyCoderSpec::TinyStr => KeyCoder::TinyStr {
                by_byte: Box::new([0u16; 256]),
                seen: Vec::new(),
            },
            KeyCoderSpec::IntRange { lo, cap } => KeyCoder::IntRange { lo, cap },
            KeyCoderSpec::Bool => KeyCoder::Bool,
        }
    }

    /// Code for a non-null string, assigning a fresh code on first sight.
    /// `None` = distinct-value cap exceeded.
    fn code_str(&mut self, bytes: &[u8]) -> Option<u16> {
        let KeyCoder::TinyStr { by_byte, seen } = self else {
            return None;
        };
        if bytes.len() == 1 {
            let c = by_byte[bytes[0] as usize];
            if c != 0 {
                return Some(c);
            }
        } else {
            for (i, s) in seen.iter().enumerate() {
                if s.as_ref() == bytes {
                    return Some(i as u16 + 1);
                }
            }
        }
        if seen.len() >= STR_MAX_DISTINCT {
            return None;
        }
        seen.push(bytes.into());
        let code = seen.len() as u16;
        if bytes.len() == 1 {
            by_byte[bytes[0] as usize] = code;
        }
        Some(code)
    }

    /// Code for a non-null integer. `None` = outside the hinted range.
    fn code_int(&self, v: i64) -> Option<u16> {
        let KeyCoder::IntRange { lo, cap } = self else {
            return None;
        };
        let off = v.checked_sub(*lo)?;
        if off < 0 || off + 1 >= *cap as i64 {
            return None;
        }
        Some(off as u16 + 1)
    }

    /// The key column the listed codes stand for (code 0 = NULL).
    fn key_column(&self, codes: &[u32], ty: DataType) -> ExecVector {
        let nulls: Vec<bool> = codes.iter().map(|&c| c == 0).collect();
        let data = match self {
            KeyCoder::TinyStr { seen, .. } => {
                let mut out = StrColumn::with_capacity(codes.len(), codes.len() * 8);
                for &c in codes {
                    if c != 0 {
                        out.bytes.extend_from_slice(&seen[c as usize - 1]);
                    }
                    out.offsets.push(out.bytes.len() as u32);
                }
                ColumnData::Str(out)
            }
            KeyCoder::IntRange { lo, .. } => {
                let values = codes.iter().map(|&c| lo.wrapping_add(c as i64 - 1));
                match ty {
                    DataType::I32 | DataType::Date => {
                        ColumnData::I32(values.map(|v| v as i32).collect())
                    }
                    _ => ColumnData::I64(values.collect()),
                }
            }
            KeyCoder::Bool => ColumnData::Bool(codes.iter().map(|&c| c == 2).collect()),
        };
        ExecVector::new(data, nulls.contains(&true).then_some(nulls))
    }
}

/// Visit `(slot, value)` for every non-NULL lane of a typed value slice.
#[inline]
fn visit<T: Copy>(
    x: &[T],
    nulls: Option<&[bool]>,
    slots: &[u32],
    lanes: &[u32],
    mut f: impl FnMut(usize, T),
) {
    let pairs = slots.iter().zip(lanes);
    match nulls {
        None => pairs.for_each(|(&s, &i)| f(s as usize, x[i as usize])),
        Some(n) => pairs
            .filter(|(_, &i)| !n[i as usize])
            .for_each(|(&s, &i)| f(s as usize, x[i as usize])),
    }
}

/// [`visit`] over an integer-valued vector (bool/i32/date/i64), widened.
fn visit_i64(
    v: &ExecVector,
    slots: &[u32],
    lanes: &[u32],
    mut f: impl FnMut(usize, i64),
) -> Result<()> {
    let n = v.nulls.as_deref();
    match &v.data {
        ColumnData::I64(x) => visit(x, n, slots, lanes, f),
        ColumnData::I32(x) => visit(x, n, slots, lanes, |s, a| f(s, a as i64)),
        ColumnData::Bool(x) => visit(x, n, slots, lanes, |s, a| f(s, a as i64)),
        other => return Err(integer_aggregate_over(other)),
    }
    Ok(())
}

/// [`visit`] over a numeric vector, as doubles.
fn visit_f64(
    v: &ExecVector,
    slots: &[u32],
    lanes: &[u32],
    mut f: impl FnMut(usize, f64),
) -> Result<()> {
    let n = v.nulls.as_deref();
    match &v.data {
        ColumnData::F64(x) => visit(x, n, slots, lanes, f),
        ColumnData::I64(x) => visit(x, n, slots, lanes, |s, a| f(s, a as f64)),
        ColumnData::I32(x) => visit(x, n, slots, lanes, |s, a| f(s, a as f64)),
        other => return Err(numeric_aggregate_over(other)),
    }
    Ok(())
}

fn integer_aggregate_over(data: &ColumnData) -> VwError {
    VwError::Exec(format!("integer aggregate over {}", data.type_name()))
}

fn numeric_aggregate_over(data: &ColumnData) -> VwError {
    VwError::Exec(format!("numeric aggregate over {}", data.type_name()))
}

fn needs(what: &str) -> VwError {
    VwError::Exec(format!("aggregate needs {what}"))
}

/// One MIN/MAX aggregate's accumulators, struct-of-arrays over slots. NULL
/// inputs are skipped, the first of equal values is kept, and doubles are
/// ordered like `Value::total_cmp`.
enum AccCol {
    /// MIN/MAX over bool/i32/date/i64 (`ty`), widened to `i64`.
    BestI {
        best: Vec<i64>,
        seen: Vec<bool>,
        min: bool,
        ty: DataType,
    },
    BestF {
        best: Vec<f64>,
        seen: Vec<bool>,
        min: bool,
    },
    BestS {
        best: Vec<Option<Box<[u8]>>>,
        min: bool,
        /// Bytes of the strings held (memory accounting).
        bytes: usize,
    },
}

impl AccCol {
    fn new(func: AggFunc, arg_ty: Option<DataType>) -> AccCol {
        let min = func == AggFunc::Min;
        match arg_ty {
            Some(DataType::F64) => AccCol::BestF {
                best: Vec::new(),
                seen: Vec::new(),
                min,
            },
            Some(DataType::Str) => AccCol::BestS {
                best: Vec::new(),
                min,
                bytes: 0,
            },
            ty => AccCol::BestI {
                best: Vec::new(),
                seen: Vec::new(),
                min,
                ty: ty.unwrap_or(DataType::I64),
            },
        }
    }

    fn resize(&mut self, n: usize) {
        match self {
            AccCol::BestI { best, seen, .. } => {
                best.resize(n, 0);
                seen.resize(n, false);
            }
            AccCol::BestF { best, seen, .. } => {
                best.resize(n, 0.0);
                seen.resize(n, false);
            }
            AccCol::BestS { best, .. } => best.resize(n, None),
        }
    }

    /// Heap bytes held, by capacity.
    fn heap_bytes(&self) -> usize {
        match self {
            AccCol::BestI { best, seen, .. } => best.capacity() * 8 + seen.capacity(),
            AccCol::BestF { best, seen, .. } => best.capacity() * 8 + seen.capacity(),
            AccCol::BestS { best, bytes, .. } => best.capacity() * 16 + bytes,
        }
    }

    /// Fold one vector in: `slots[j]` is the slot of row `lanes[j]`. Partial
    /// MIN/MAX rows fold exactly like input rows.
    fn fold(&mut self, slots: &[u32], lanes: &[u32], v: &ExecVector) -> Result<()> {
        match self {
            AccCol::BestI {
                best, seen, min, ..
            } => {
                let min = *min;
                visit_i64(v, slots, lanes, |s, x| {
                    if !seen[s] || (if min { x < best[s] } else { x > best[s] }) {
                        best[s] = x;
                        seen[s] = true;
                    }
                })
            }
            AccCol::BestF { best, seen, min } => {
                let want = if *min {
                    Ordering::Less
                } else {
                    Ordering::Greater
                };
                visit_f64(v, slots, lanes, |s, x| {
                    if !seen[s] || f64_total_cmp(x, best[s]) == want {
                        best[s] = x;
                        seen[s] = true;
                    }
                })
            }
            AccCol::BestS { best, min, bytes } => {
                // The extremes outlive the vector, and its dictionary.
                let flat;
                let col = match &v.data {
                    ColumnData::Str(col) => col,
                    ColumnData::Dict(d) => {
                        flat = d.materialize();
                        &flat
                    }
                    _ => return Err(needs("a string argument")),
                };
                let want = if *min {
                    Ordering::Less
                } else {
                    Ordering::Greater
                };
                for (&s, &i) in slots.iter().zip(lanes) {
                    let (cur, x) = (&mut best[s as usize], col.get_bytes(i as usize));
                    if !v.is_null(i as usize) && cur.as_deref().is_none_or(|c| x.cmp(c) == want) {
                        *bytes += x.len();
                        *bytes -= cur.as_deref().map_or(0, |c| c.len());
                        *cur = Some(x.into());
                    }
                }
                Ok(())
            }
        }
    }

    /// The finished output column over slots `ids`.
    fn finish(&self, ids: &[u32]) -> ExecVector {
        match self {
            AccCol::BestI { best, seen, ty, .. } => match ty {
                DataType::Bool => column(ids, ColumnData::Bool, |s| best[s] != 0, |s| seen[s]),
                DataType::I32 | DataType::Date => {
                    column(ids, ColumnData::I32, |s| best[s] as i32, |s| seen[s])
                }
                _ => column(ids, ColumnData::I64, |s| best[s], |s| seen[s]),
            },
            AccCol::BestF { best, seen, .. } => {
                column(ids, ColumnData::F64, |s| best[s], |s| seen[s])
            }
            AccCol::BestS { best, .. } => {
                let mut out = StrColumn::with_capacity(ids.len(), ids.len() * 8);
                for &s in ids {
                    let bytes = best[s as usize].as_deref().unwrap_or_default();
                    out.bytes.extend_from_slice(bytes);
                    out.offsets.push(out.bytes.len() as u32);
                }
                let nulls: Vec<bool> = ids.iter().map(|&s| best[s as usize].is_none()).collect();
                ExecVector::new(ColumnData::Str(out), nulls.contains(&true).then_some(nulls))
            }
        }
    }
}

/// An output column over slots `ids`: `value(slot)`, NULL where `!valid(slot)`.
fn column<T>(
    ids: &[u32],
    data: impl Fn(Vec<T>) -> ColumnData,
    value: impl Fn(usize) -> T,
    valid: impl Fn(usize) -> bool,
) -> ExecVector {
    let nulls: Vec<bool> = ids.iter().map(|&s| !valid(s as usize)).collect();
    let values = ids.iter().map(|&s| value(s as usize)).collect();
    ExecVector::new(data(values), nulls.contains(&true).then_some(nulls))
}

/// What an accumulator lane adds for one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Feed {
    /// Aggregate `k`'s argument, 0 where it is NULL.
    Value(usize),
    /// 1 where aggregate `k`'s argument is not NULL.
    NotNull(usize),
    /// 1.
    Rows,
    /// Aggregate `k`'s hidden AVG count (partial-aggregate rows only).
    Hidden(usize),
}

/// One 8-byte lane of a group's accumulator row: an `f64` sum, or an `i64`
/// that is a wrapping integer sum or a count.
#[derive(Debug, Clone, Copy)]
struct Lane {
    float: bool,
    /// The lane's input when folding input rows,
    feed: Feed,
    /// and when combining partial-aggregate rows.
    merge: Feed,
}

/// Where aggregate `k`'s result is read from.
#[derive(Debug, Clone, Copy)]
enum Out {
    /// COUNT(*), COUNT(x): a count lane.
    Count(usize),
    /// SUM(x): a sum lane, NULL while the count lane of `x` is 0. A
    /// NULL-free `x` needs no count: a slot is only ever emitted once a row
    /// arrived in it.
    Sum { sum: usize, count: Option<usize> },
    /// AVG(x): an `f64` sum lane over the count lane of `x`.
    Avg { sum: usize, count: usize },
    /// MIN/MAX: a column of its own.
    Best(usize),
}

/// The accumulator row of one aggregate operator, planned once from its
/// aggregate list: COUNT, SUM and AVG become lanes of one row per group, and
/// aggregates that accumulate the same thing share a lane. SUM(x) and AVG(x)
/// share the sum when both add `x` as the same type; every aggregate over `x`
/// shares the count of `x`'s non-NULL values, which is the row count — the
/// lane COUNT(*) reads — when `x` is declared NULL-free. So a SUM needs no
/// `seen` flag: it is NULL exactly while its count is 0, and over a NULL-free
/// `x` it is never NULL (a scalar aggregate's row for no input is built
/// without accumulators). The lanes are kept in panels of at
/// most [`PANEL_F`] `f64` lanes followed by at most [`PANEL_I`] `i64` ones —
/// one panel but for very wide aggregate lists.
#[derive(Debug)]
pub struct AccLayout {
    /// Panel after panel.
    lanes: Vec<Lane>,
    panels: Vec<Panel>,
    outs: Vec<Out>,
    /// Function and argument type of each MIN/MAX column.
    bests: Vec<(AggFunc, Option<DataType>)>,
    /// Per aggregate: its argument is declared NULL-free, so its non-NULL
    /// values are counted by the row count and a NULL in it is an error.
    nullfree: Vec<bool>,
    /// The aggregates whose NULL-free argument a lane reads, one per
    /// distinct argument: each vector is checked to hold no NULL there.
    checked: Vec<usize>,
}

impl AccLayout {
    /// `arg_types[k]` is aggregate `k`'s argument type and `nullfree[k]`
    /// whether that argument is declared NULL-free.
    pub fn new(aggs: &[AggExpr], arg_types: &[Option<DataType>], nullfree: &[bool]) -> AccLayout {
        #[derive(PartialEq)]
        enum Key {
            /// The sum of aggregate `k`'s argument, as `f64` or not.
            Sum(usize, bool),
            /// The count of rows (`None`) or of aggregate `k`'s non-NULL
            /// argument values.
            Count(Option<usize>),
        }
        let mut keys: Vec<Key> = Vec::new();
        let mut lanes: Vec<Lane> = Vec::new();
        let mut lane = |key: Key, float: bool, feed: Feed| {
            keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                keys.push(key);
                lanes.push(Lane {
                    float,
                    feed,
                    merge: feed,
                });
                lanes.len() - 1
            })
        };
        let mut outs = Vec::with_capacity(aggs.len());
        let mut bests = Vec::new();
        let mut checked = Vec::new();
        for (k, a) in aggs.iter().enumerate() {
            // Aggregates with equal arguments read the first one's.
            let same_arg = |j: &usize| a.arg.is_some() && aggs[*j].arg == a.arg;
            let x = (0..k).find(same_arg).unwrap_or(k);
            let lanes_read = matches!(a.func, AggFunc::Count | AggFunc::Sum | AggFunc::Avg);
            if lanes_read && nullfree[k] && !checked.contains(&x) {
                checked.push(x);
            }
            let (count_key, count_feed) = match a.func == AggFunc::CountStar || nullfree[k] {
                true => (Key::Count(None), Feed::Rows),
                false => (Key::Count(Some(x)), Feed::NotNull(x)),
            };
            outs.push(match a.func {
                AggFunc::CountStar | AggFunc::Count => {
                    Out::Count(lane(count_key, false, count_feed))
                }
                AggFunc::Sum | AggFunc::Avg => {
                    let float = a.func == AggFunc::Avg || arg_types[k] == Some(DataType::F64);
                    let sum = lane(Key::Sum(x, float), float, Feed::Value(x));
                    match a.func {
                        AggFunc::Sum => Out::Sum {
                            sum,
                            count: (!nullfree[k]).then(|| lane(count_key, false, count_feed)),
                        },
                        _ => Out::Avg {
                            sum,
                            count: lane(count_key, false, count_feed),
                        },
                    }
                }
                AggFunc::Min | AggFunc::Max => {
                    bests.push((a.func, arg_types[k]));
                    Out::Best(bests.len() - 1)
                }
            });
        }
        // Combining partial rows, a lane reads one aggregate's partial
        // column: a sum the first SUM/AVG over it, a count an exact count
        // (COUNT's value, AVG's hidden count) when an aggregate has one, and
        // otherwise 1 per non-NULL partial SUM — the lane then only decides
        // whether that SUM is NULL.
        for (l, lane) in lanes.iter_mut().enumerate() {
            let exact = outs.iter().enumerate().find_map(|(k, o)| match *o {
                Out::Count(c) if c == l => Some(Feed::Value(k)),
                Out::Avg { count, .. } if count == l => Some(Feed::Hidden(k)),
                _ => None,
            });
            let other = outs.iter().enumerate().find_map(|(k, o)| match *o {
                Out::Sum { sum, .. } | Out::Avg { sum, .. } if sum == l => Some(Feed::Value(k)),
                Out::Sum { count, .. } if count == Some(l) => Some(Feed::NotNull(k)),
                _ => None,
            });
            lane.merge = exact.or(other).expect("every lane has a reader");
        }
        // Panels of up to PANEL_F f64 lanes then up to PANEL_I i64 lanes.
        let (floats, ints): (Vec<usize>, Vec<usize>) =
            (0..lanes.len()).partition(|&l| lanes[l].float);
        let npanels = floats
            .len()
            .div_ceil(PANEL_F)
            .max(ints.len().div_ceil(PANEL_I));
        let (mut panels, mut order) = (Vec::new(), Vec::<usize>::with_capacity(lanes.len()));
        for p in 0..npanels {
            let f = floats.chunks(PANEL_F).nth(p).unwrap_or_default();
            let i = ints.chunks(PANEL_I).nth(p).unwrap_or_default();
            panels.push(Panel {
                start: order.len(),
                width: f.len() + i.len(),
            });
            order.extend(f.iter().chain(i).copied());
        }
        let at = |l: usize| order.iter().position(|&o| o == l).expect("lane");
        for out in &mut outs {
            match out {
                Out::Count(c) => *c = at(*c),
                Out::Sum { sum, count } => (*sum, *count) = (at(*sum), count.map(at)),
                Out::Avg { sum, count } => (*sum, *count) = (at(*sum), at(*count)),
                Out::Best(_) => {}
            }
        }
        AccLayout {
            lanes: order.iter().map(|&l| lanes[l]).collect(),
            panels,
            outs,
            bests,
            nullfree: nullfree.to_vec(),
            checked,
        }
    }

    /// Accumulators per group: the row's lanes plus the MIN/MAX columns.
    pub fn width(&self) -> usize {
        self.lanes.len() + self.bests.len()
    }

    /// The panel holding lane `l`, and the lane's offset in its rows.
    fn place(&self, l: usize) -> (usize, usize) {
        let p = self
            .panels
            .iter()
            .rposition(|p| p.start <= l)
            .expect("lane");
        (p, l - self.panels[p].start)
    }
}

/// The accumulators of every aggregate of one operator, shared by the
/// perfect and the generic path: a slot is a composed key code on the
/// perfect path and a group id on the generic one, which is the only
/// difference between the two. A slot's COUNT/SUM/AVG state is one row of
/// [`AccLayout`] lanes (a row per panel), and a vector folds into each
/// panel in one pass over its `(slot, row)` pairs.
pub struct Accumulators {
    layout: Arc<AccLayout>,
    /// Per panel: `slots × width` lanes, row after row; an `f64` lane holds
    /// its bits.
    rows: Vec<Vec<u64>>,
    bests: Vec<AccCol>,
    slots: usize,
    /// Per-vector scratch, per lane: its input when that is not an `f64` or
    /// `i64` slice without NULLs already (converted, NULLs as 0); and ones.
    fbuf: Vec<Vec<f64>>,
    ibuf: Vec<Vec<i64>>,
    ones: Vec<i64>,
}

/// A lane's input for one vector.
#[derive(Clone, Copy)]
enum Src<'a> {
    F(&'a [f64]),
    I(&'a [i64]),
    /// The lane's scratch buffer.
    Buf,
}

impl Accumulators {
    pub fn new(layout: Arc<AccLayout>, slots: usize) -> Accumulators {
        let bests = layout.bests.iter().map(|&(f, ty)| AccCol::new(f, ty));
        let mut accs = Accumulators {
            bests: bests.collect(),
            rows: vec![Vec::new(); layout.panels.len()],
            fbuf: Vec::new(),
            ibuf: Vec::new(),
            layout,
            slots: 0,
            ones: Vec::new(),
        };
        accs.resize(slots);
        accs
    }

    /// Slots allocated.
    pub fn len(&self) -> usize {
        self.slots
    }

    pub fn is_empty(&self) -> bool {
        self.slots == 0
    }

    /// Grow to `slots` zeroed slots.
    pub fn resize(&mut self, slots: usize) {
        for (rows, panel) in self.rows.iter_mut().zip(&self.layout.panels) {
            rows.resize(slots * panel.width, 0);
        }
        self.bests.iter_mut().for_each(|c| c.resize(slots));
        self.slots = slots;
    }

    /// Heap bytes held, by capacity.
    pub fn heap_bytes(&self) -> usize {
        let bests: usize = self.bests.iter().map(|c| c.heap_bytes()).sum();
        let rows: usize = self.rows.iter().map(|r| r.capacity() * 8).sum();
        rows + bests
    }

    /// Fold one vector into every aggregate: `slots[j]` is the slot of row
    /// `lanes[j]`, `args[k]` the evaluated argument of aggregate `k`. With
    /// `combine`, rows are partial aggregates and `hidden[k]` is the AVG
    /// count column of aggregate `k`. Every lane of a slot receives its
    /// rows' inputs in row order, as the aggregates did one at a time.
    pub fn fold(
        &mut self,
        combine: bool,
        slots: &[u32],
        lanes: &[u32],
        args: &[Option<&ExecVector>],
        hidden: &[Option<&ExecVector>],
    ) -> Result<()> {
        let Accumulators {
            layout,
            rows,
            bests,
            fbuf,
            ibuf,
            ones,
            ..
        } = self;
        let arg = |k: usize| args[k].ok_or_else(|| needs("an argument"));
        for (k, out) in layout.outs.iter().enumerate() {
            if let Out::Best(b) = *out {
                bests[b].fold(slots, lanes, arg(k)?)?;
            }
        }
        // A NULL-free argument's values are counted by the row count, so a
        // NULL there would be miscounted: refuse it.
        for &k in layout.checked.iter().filter(|_| !combine) {
            let nulls = arg(k)?.nulls.as_deref();
            if nulls.is_some_and(|n| lanes.iter().any(|&i| n[i as usize])) {
                return Err(VwError::Exec(
                    "NULL in an aggregate argument declared NOT NULL".into(),
                ));
            }
        }
        let feed = |l: &Lane| if combine { l.merge } else { l.feed };
        let counted = |l: &Lane| matches!(feed(l), Feed::Rows | Feed::NotNull(_));
        if layout.lanes.iter().any(counted) {
            let n = lanes.iter().max().map_or(0, |&m| m as usize + 1);
            if ones.len() < n {
                ones.resize(n, 1);
            }
        }
        let ones: &[i64] = ones;
        if fbuf.len() < layout.lanes.len() {
            fbuf.resize_with(layout.lanes.len(), Vec::new);
            ibuf.resize_with(layout.lanes.len(), Vec::new);
        }
        for (panel, rows) in layout.panels.iter().zip(rows) {
            let at = panel.start..panel.start + panel.width;
            let mut srcs = [Src::Buf; PANEL_F + PANEL_I];
            for (src, l) in srcs.iter_mut().zip(at.clone()) {
                let feed = feed(&layout.lanes[l]);
                let v = match feed {
                    Feed::Value(k) | Feed::NotNull(k) => arg(k)?,
                    Feed::Hidden(k) => hidden[k].ok_or_else(|| needs("the partial AVG count"))?,
                    Feed::Rows => {
                        *src = Src::I(ones);
                        continue;
                    }
                };
                let mut nulls = v.nulls.as_deref();
                if let (false, Feed::Value(k)) = (combine, feed) {
                    if layout.nullfree[k] {
                        nulls = None; // checked above
                    }
                }
                let (len, fb, ib) = (v.len(), &mut fbuf[l], &mut ibuf[l]);
                let float = layout.lanes[l].float;
                *src = match (feed, &v.data, nulls) {
                    (Feed::NotNull(_), _, None) => Src::I(ones),
                    (Feed::NotNull(_), _, Some(n)) => fill(ib, len, lanes, None, |i| !n[i] as i64),
                    (_, ColumnData::F64(x), None) if float => Src::F(x),
                    (_, ColumnData::F64(x), n) if float => fill(fb, len, lanes, n, |i| x[i]),
                    (_, ColumnData::I64(x), n) if float => fill(fb, len, lanes, n, |i| x[i] as f64),
                    (_, ColumnData::I32(x), n) if float => fill(fb, len, lanes, n, |i| x[i] as f64),
                    (_, other, _) if float => return Err(numeric_aggregate_over(other)),
                    (_, ColumnData::I64(x), None) => Src::I(x),
                    (_, ColumnData::I64(x), n) => fill(ib, len, lanes, n, |i| x[i]),
                    (_, ColumnData::I32(x), n) => fill(ib, len, lanes, n, |i| x[i] as i64),
                    (_, ColumnData::Bool(x), n) => fill(ib, len, lanes, n, |i| x[i] as i64),
                    (_, other, _) => return Err(integer_aggregate_over(other)),
                };
            }
            let (mut fs, mut is) = ([&[][..]; PANEL_F], [&[][..]; PANEL_I]);
            let (mut nf, mut ni) = (0, 0);
            for (src, l) in srcs.into_iter().zip(at) {
                match src {
                    Src::F(x) => (fs[nf], nf) = (x, nf + 1),
                    Src::I(x) => (is[ni], ni) = (x, ni + 1),
                    Src::Buf if layout.lanes[l].float => (fs[nf], nf) = (&fbuf[l], nf + 1),
                    Src::Buf => (is[ni], ni) = (&ibuf[l], ni + 1),
                }
            }
            add_rows(rows, slots, lanes, &fs[..nf], &is[..ni]);
        }
        Ok(())
    }

    /// Output columns over slots `ids` for `phase`: one finished column per
    /// aggregate, then — emitting partials — the hidden AVG counts. With
    /// `phase == Partial` this is the spill/fallback layout after the keys.
    pub fn finish(&self, ids: &[u32], phase: AggPhase) -> Vec<ExecVector> {
        // Lane `l` of slot `s`.
        let lane = |l: usize| {
            let (p, o) = self.layout.place(l);
            let (rows, width) = (&self.rows[p], self.layout.panels[p].width);
            move |s: usize| rows[s * width + o]
        };
        let int = |l: usize| {
            let v = lane(l);
            move |s: usize| v(s) as i64
        };
        let float = |l: usize| {
            let v = lane(l);
            move |s: usize| f64::from_bits(v(s))
        };
        let some = |l: usize| {
            let v = lane(l);
            move |s: usize| v(s) != 0
        };
        let some_or_all = |l: Option<usize>| {
            let v = l.map(some);
            move |s: usize| v.as_ref().is_none_or(|v| v(s))
        };
        let outs = self.layout.outs.iter();
        let mut out: Vec<ExecVector> = outs
            .map(|o| match *o {
                Out::Count(c) => column(ids, ColumnData::I64, int(c), |_| true),
                Out::Sum { sum, count } if self.layout.lanes[sum].float => {
                    column(ids, ColumnData::F64, float(sum), some_or_all(count))
                }
                Out::Sum { sum, count } => {
                    column(ids, ColumnData::I64, int(sum), some_or_all(count))
                }
                // A partial AVG carries the raw sum; its count rides beside it.
                Out::Avg { sum, count } if phase == AggPhase::Partial => {
                    column(ids, ColumnData::F64, float(sum), some(count))
                }
                Out::Avg { sum, count } => {
                    let (sum_at, count_at) = (float(sum), int(count));
                    let avg = |s| sum_at(s) / count_at(s) as f64;
                    column(ids, ColumnData::F64, avg, some(count))
                }
                Out::Best(b) => self.bests[b].finish(ids),
            })
            .collect();
        if phase == AggPhase::Partial {
            for o in &self.layout.outs {
                if let Out::Avg { count, .. } = *o {
                    let count_at = int(count);
                    let counts = ids.iter().map(|&s| count_at(s as usize)).collect();
                    out.push(ExecVector::not_null(ColumnData::I64(counts)));
                }
            }
        }
        out
    }
}

/// `buf[i] = value(i)` at every lane `i`, 0 where `nulls` says NULL, in a
/// buffer at least as long as the vector; the lane then reads the buffer.
/// Entries at other positions are never read.
fn fill<T: Copy + Default>(
    buf: &mut Vec<T>,
    len: usize,
    lanes: &[u32],
    nulls: Option<&[bool]>,
    value: impl Fn(usize) -> T,
) -> Src<'static> {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    for &i in lanes {
        let i = i as usize;
        buf[i] = match nulls {
            Some(n) if n[i] => T::default(),
            _ => value(i),
        };
    }
    Src::Buf
}

/// Lanes of each type in one panel's rows.
const PANEL_F: usize = 8;
const PANEL_I: usize = 4;

/// A run of `width` consecutive lanes of the layout, its `f64` ones first,
/// kept as rows of their own.
#[derive(Debug)]
struct Panel {
    start: usize,
    width: usize,
}

/// The fold of one panel's lanes: for each `j` in order, add row
/// `lanes[j]`'s inputs to the accumulator row of slot `slots[j]` — the
/// `f64` lanes from `fs`, then the `i64` lanes from `is` (wrapping). An
/// `f64` lane's input is 0.0 where the argument is NULL, which leaves its
/// sum's bits as they were: a sum starts at +0.0, so it is never -0.0.
fn add_rows(acc: &mut [u64], slots: &[u32], lanes: &[u32], fs: &[&[f64]], is: &[&[i64]]) {
    fn ints<const F: usize>(
        acc: &mut [u64],
        slots: &[u32],
        lanes: &[u32],
        fs: &[&[f64]],
        is: &[&[i64]],
    ) {
        match is.len() {
            0 => fold::<F, 0>(acc, slots, lanes, fs, is),
            1 => fold::<F, 1>(acc, slots, lanes, fs, is),
            2 => fold::<F, 2>(acc, slots, lanes, fs, is),
            3 => fold::<F, 3>(acc, slots, lanes, fs, is),
            _ => fold::<F, 4>(acc, slots, lanes, fs, is),
        }
    }
    /// The loop, compiled for each panel shape: the row stride is a
    /// constant, the inputs are cut to one length that each row is checked
    /// against once, and the lane loops unroll.
    #[inline(never)]
    fn fold<const F: usize, const I: usize>(
        acc: &mut [u64],
        slots: &[u32],
        lanes: &[u32],
        fs: &[&[f64]],
        is: &[&[i64]],
    ) {
        let lens = fs.iter().map(|x| x.len()).chain(is.iter().map(|x| x.len()));
        let n = lens.min().unwrap_or(0);
        let fs: [&[f64]; F] = std::array::from_fn(|l| &fs[l][..n]);
        let is: [&[i64]; I] = std::array::from_fn(|l| &is[l][..n]);
        for (&s, &i) in slots.iter().zip(lanes) {
            let (row, i) = (s as usize * (F + I), i as usize);
            assert!(i < n);
            let (fr, ir) = acc[row..row + F + I].split_at_mut(F);
            for (a, x) in fr.iter_mut().zip(&fs) {
                *a = (f64::from_bits(*a) + x[i]).to_bits();
            }
            for (a, x) in ir.iter_mut().zip(&is) {
                *a = a.wrapping_add(x[i] as u64);
            }
        }
    }
    match fs.len() {
        0 => ints::<0>(acc, slots, lanes, fs, is),
        1 => ints::<1>(acc, slots, lanes, fs, is),
        2 => ints::<2>(acc, slots, lanes, fs, is),
        3 => ints::<3>(acc, slots, lanes, fs, is),
        4 => ints::<4>(acc, slots, lanes, fs, is),
        5 => ints::<5>(acc, slots, lanes, fs, is),
        6 => ints::<6>(acc, slots, lanes, fs, is),
        7 => ints::<7>(acc, slots, lanes, fs, is),
        _ => ints::<8>(acc, slots, lanes, fs, is),
    }
}

/// `slot_buf[j] += code(lanes[j]) * stride` for one key column, a NULL lane
/// coding 0. Returns `false` at the first lane that has no code.
#[inline]
fn add_codes(
    nulls: Option<&[bool]>,
    lanes: &[u32],
    stride: u32,
    slot_buf: &mut [u32],
    mut code: impl FnMut(usize) -> Option<u16>,
) -> bool {
    for (slot, &lane) in slot_buf.iter_mut().zip(lanes) {
        let i = lane as usize;
        let c = match nulls {
            Some(n) if n[i] => 0,
            _ => match code(i) {
                Some(c) => c,
                None => return false,
            },
        };
        *slot += c as u32 * stride;
    }
    true
}

/// The direct-array aggregation table.
pub struct PerfectTable {
    coders: Vec<KeyCoder>,
    key_types: Vec<DataType>,
    caps: Vec<u32>,
    /// `strides[k] = Π caps[..k]`; a tuple's slot is `Σ code_k · strides[k]`.
    strides: Vec<u32>,
    occupied: Vec<bool>,
    accs: Accumulators,
    /// Scratch: slot per lane of the batch being absorbed.
    slot_buf: Vec<u32>,
    /// Per key column: the dictionary code → key code table of the
    /// dictionary last seen there (a scan hands out the vectors of one block,
    /// hence one dictionary, in a row). `u16::MAX` marks an entry outside
    /// the coder's domain.
    remaps: Vec<Option<(Arc<StrColumn>, Vec<u16>)>>,
    /// Nanoseconds spent coding keys into slots and updating accumulators,
    /// summed over the vectors absorbed with `timed`.
    pub lookup_ns: u64,
    pub update_ns: u64,
    /// Bytes reserved against the memory budget at construction; the owner
    /// shrinks its tracker by this amount when the table is dropped.
    pub reserved_bytes: usize,
}

impl PerfectTable {
    /// Build a table for the planned specs, reserving its (fixed) footprint
    /// against the budget. `None` = the reservation failed; use the generic
    /// path.
    pub fn try_new(
        specs: &[KeyCoderSpec],
        key_types: &[DataType],
        layout: &Arc<AccLayout>,
        mem: &mut MemTracker,
    ) -> Option<PerfectTable> {
        debug_assert_eq!(specs.len(), key_types.len());
        let caps: Vec<u32> = specs.iter().map(|s| s.cap()).collect();
        let mut strides = Vec::with_capacity(caps.len());
        let mut slots: usize = 1;
        for &c in &caps {
            strides.push(slots as u32);
            slots = slots.checked_mul(c as usize)?;
        }
        if slots > MAX_SLOTS {
            return None;
        }
        let accs = Accumulators::new(Arc::clone(layout), slots);
        let reserved = slots + accs.heap_bytes() + 256;
        if !mem.try_grow(reserved) {
            return None;
        }
        Some(PerfectTable {
            coders: specs.iter().map(|&s| KeyCoder::new(s)).collect(),
            key_types: key_types.to_vec(),
            caps,
            strides,
            occupied: vec![false; slots],
            accs,
            slot_buf: Vec::new(),
            remaps: key_types.iter().map(|_| None).collect(),
            lookup_ns: 0,
            update_ns: 0,
            reserved_bytes: reserved,
        })
    }

    /// Absorb one batch. `keys[k]` is group key `k`'s column, `lanes` are the
    /// selected physical rows, `args[k]`/`hidden[k]` the evaluated argument
    /// (and hidden AVG count column, Final phase) of aggregate `k`. With
    /// `timed`, the two passes' times add to `lookup_ns` and `update_ns`.
    ///
    /// Returns `Ok(false)` — with **no accumulator or occupancy mutated for
    /// this batch** — when any lane's key falls outside the planned domain;
    /// the caller then falls back to the generic table.
    pub fn absorb(
        &mut self,
        keys: &[&ExecVector],
        lanes: &[u32],
        args: &[Option<&ExecVector>],
        phase: AggPhase,
        hidden: &[Option<&ExecVector>],
        timed: bool,
    ) -> Result<bool> {
        // Pass 1: compose every lane's slot before touching any state.
        let t0 = timed.then(Instant::now);
        let mut slot_buf = std::mem::take(&mut self.slot_buf);
        slot_buf.clear();
        slot_buf.resize(lanes.len(), 0);
        for (k, key) in keys.iter().enumerate() {
            let stride = self.strides[k];
            if !self.code_column(k, key, lanes, stride, &mut slot_buf) {
                self.slot_buf = slot_buf;
                return Ok(false);
            }
        }
        // Pass 2: commit occupancy and accumulate.
        let t1 = timed.then(Instant::now);
        for &s in &slot_buf {
            self.occupied[s as usize] = true;
        }
        let r = self
            .accs
            .fold(phase == AggPhase::Final, &slot_buf, lanes, args, hidden);
        self.slot_buf = slot_buf;
        if let (Some(t0), Some(t1)) = (t0, t1) {
            self.lookup_ns += (t1 - t0).as_nanos() as u64;
            self.update_ns += t1.elapsed().as_nanos() as u64;
        }
        r.map(|()| true)
    }

    /// Add key `k`'s contribution. Returns `false` when some lane is out of
    /// domain (fallback). A dictionary vector is coded through a table from
    /// dictionary codes to key codes, built once per dictionary.
    fn code_column(
        &mut self,
        k: usize,
        v: &ExecVector,
        lanes: &[u32],
        stride: u32,
        slot_buf: &mut [u32],
    ) -> bool {
        let (coder, nulls) = (&mut self.coders[k], v.nulls.as_deref());
        match &v.data {
            ColumnData::Str(col) => add_codes(nulls, lanes, stride, slot_buf, |i| {
                coder.code_str(col.get_bytes(i))
            }),
            ColumnData::Dict(col) => {
                let dict = col.dict();
                let remap = match &mut self.remaps[k] {
                    Some((known, remap)) if Arc::ptr_eq(known, dict) => remap,
                    slot => {
                        let entries = (0..dict.len()).map(|e| dict.get_bytes(e));
                        let remap = entries.map(|e| coder.code_str(e).unwrap_or(u16::MAX));
                        &mut slot.insert((Arc::clone(dict), remap.collect())).1
                    }
                };
                let codes = col.codes();
                add_codes(nulls, lanes, stride, slot_buf, |i| {
                    Some(remap[codes[i] as usize]).filter(|&c| c != u16::MAX)
                })
            }
            ColumnData::Bool(col) => {
                matches!(coder, KeyCoder::Bool)
                    && add_codes(nulls, lanes, stride, slot_buf, |i| Some(1 + col[i] as u16))
            }
            ColumnData::I64(col) => {
                add_codes(nulls, lanes, stride, slot_buf, |i| coder.code_int(col[i]))
            }
            ColumnData::I32(col) => add_codes(nulls, lanes, stride, slot_buf, |i| {
                coder.code_int(col[i] as i64)
            }),
            ColumnData::F64(_) => false,
        }
    }

    /// The occupied slots (groups), ascending.
    pub fn occupied_slots(&self) -> Vec<u32> {
        let slots = 0..self.occupied.len() as u32;
        slots.filter(|&s| self.occupied[s as usize]).collect()
    }

    /// Output rows of slots `ids` for `phase`: decoded group keys, finished
    /// aggregates, hidden AVG counts when emitting partials. With `phase ==
    /// Partial` the batch has the generic path's spill layout, which is how
    /// fallback hands resident state to the hash table.
    pub fn batch(&self, ids: &[u32], phase: AggPhase) -> Batch {
        let mut cols = Vec::with_capacity(self.coders.len());
        for (k, coder) in self.coders.iter().enumerate() {
            let code = |&s: &u32| (s / self.strides[k]) % self.caps[k];
            let codes: Vec<u32> = ids.iter().map(code).collect();
            cols.push(coder.key_column(&codes, self.key_types[k]));
        }
        cols.extend(self.accs.finish(ids, phase));
        let mut out = Batch::new(cols);
        out.rows = ids.len();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{MemBudget, MemTracker};
    use std::sync::Arc;
    use vw_common::{Field, Schema, Value};
    use vw_plan::Expr;

    /// Every occupied slot as rows of `(key, n[, s])`, sorted by key.
    fn rows(t: &PerfectTable, key: DataType, naggs: usize) -> Vec<Vec<Value>> {
        let mut fields = vec![Field::nullable("k", key)];
        fields.extend((0..naggs).map(|i| Field::nullable(format!("a{i}"), DataType::I64)));
        let batch = t.batch(&t.occupied_slots(), AggPhase::Single);
        let mut rows = batch.to_rows(&Schema::new(fields));
        rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
        rows
    }

    fn layout(aggs: &[AggExpr], arg_types: &[Option<DataType>]) -> Arc<AccLayout> {
        Arc::new(AccLayout::new(aggs, arg_types, &vec![false; aggs.len()]))
    }

    fn aggs() -> Vec<AggExpr> {
        vec![
            AggExpr {
                func: AggFunc::CountStar,
                arg: None,
                name: "n".into(),
            },
            AggExpr {
                func: AggFunc::Sum,
                arg: Some(Expr::col(1)),
                name: "s".into(),
            },
        ]
    }

    #[test]
    fn spec_planning_caps_domain() {
        // One tiny string key: 33 slots.
        let s = plan_specs(&[DataType::Str], &[None]).unwrap();
        assert_eq!(s, vec![KeyCoderSpec::TinyStr]);
        // Int key needs a hint.
        assert!(plan_specs(&[DataType::I64], &[None]).is_none());
        let s = plan_specs(&[DataType::I64], &[Some((5, 10))]).unwrap();
        assert_eq!(s, vec![KeyCoderSpec::IntRange { lo: 5, cap: 7 }]);
        // Too-wide range is rejected.
        assert!(plan_specs(&[DataType::I64], &[Some((0, 1000))]).is_none());
        // Composed domain beyond MAX_SLOTS is rejected: 33 * 33 * 33 > 4096.
        assert!(plan_specs(
            &[DataType::Str, DataType::Str, DataType::Str],
            &[None, None, None]
        )
        .is_none());
        // F64 keys never qualify.
        assert!(plan_specs(&[DataType::F64], &[None]).is_none());
        // No keys at all (scalar aggregate) → one-slot table.
        assert_eq!(plan_specs(&[], &[]), Some(vec![]));
    }

    #[test]
    fn absorb_and_rows_roundtrip() {
        let specs = plan_specs(&[DataType::Str], &[None]).unwrap();
        let aggs = aggs();
        let arg_types = vec![None, Some(DataType::I64)];
        let mut mem = MemTracker::new(Arc::new(MemBudget::new(None)));
        let mut t = PerfectTable::try_new(
            &specs,
            &[DataType::Str],
            &layout(&aggs, &arg_types),
            &mut mem,
        )
        .unwrap();
        let keys = ExecVector::not_null(ColumnData::Str(StrColumn::from_iter([
            "a", "b", "a", "a", "b",
        ])));
        let vals = ExecVector::not_null(ColumnData::I64(vec![1, 2, 3, 4, 5]));
        let lanes: Vec<u32> = (0..5).collect();
        let ok = t
            .absorb(
                &[&keys],
                &lanes,
                &[None, Some(&vals)],
                AggPhase::Single,
                &[None, None],
                false,
            )
            .unwrap();
        assert!(ok);
        assert_eq!(t.occupied_slots().len(), 2);
        assert_eq!(
            rows(&t, DataType::Str, 2),
            vec![
                vec![Value::Str("a".into()), Value::I64(3), Value::I64(8)],
                vec![Value::Str("b".into()), Value::I64(2), Value::I64(7)],
            ]
        );
    }

    #[test]
    fn out_of_domain_leaves_state_untouched() {
        let specs = plan_specs(&[DataType::I64], &[Some((0, 3))]).unwrap();
        let aggs = aggs();
        let arg_types = vec![None, Some(DataType::I64)];
        let mut mem = MemTracker::new(Arc::new(MemBudget::new(None)));
        let mut t = PerfectTable::try_new(
            &specs,
            &[DataType::I64],
            &layout(&aggs, &arg_types),
            &mut mem,
        )
        .unwrap();
        let good = ExecVector::not_null(ColumnData::I64(vec![0, 1, 2]));
        let vals = ExecVector::not_null(ColumnData::I64(vec![10, 20, 30]));
        let lanes: Vec<u32> = (0..3).collect();
        assert!(t
            .absorb(
                &[&good],
                &lanes,
                &[None, Some(&vals)],
                AggPhase::Single,
                &[None, None],
                false,
            )
            .unwrap());
        assert_eq!(t.occupied_slots().len(), 3);
        // A batch with one out-of-range key must not perturb anything.
        let bad = ExecVector::not_null(ColumnData::I64(vec![1, 99, 2]));
        assert!(!t
            .absorb(
                &[&bad],
                &lanes,
                &[None, Some(&vals)],
                AggPhase::Single,
                &[None, None],
                false,
            )
            .unwrap());
        assert_eq!(t.occupied_slots().len(), 3);
        let rows = rows(&t, DataType::I64, 2);
        let total: i64 = rows.iter().map(|r| r[1].as_i64().unwrap()).sum();
        assert_eq!(total, 3, "counts unchanged after rejected batch");
    }

    /// Dictionary keys are coded through one table per dictionary: the same
    /// word under different codes of two dictionaries is one group, a word
    /// first seen in the second dictionary a new one, and a dictionary with
    /// more entries than the coder has codes only matters once a row uses
    /// one of the entries left without.
    #[test]
    fn dictionary_keys_are_coded_per_dictionary() {
        use vw_storage::DictColumn;
        let dict_key = |words: &[String], codes: &[u32]| {
            let d = Arc::new(StrColumn::from_iter(words.iter().map(|w| w.as_str())));
            let col = DictColumn::new(codes.to_vec(), d).unwrap();
            ExecVector::new(ColumnData::Dict(col), None)
        };
        let words = |w: &[&str]| w.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let specs = plan_specs(&[DataType::Str], &[None]).unwrap();
        let aggs = aggs();
        let arg_types = vec![None, Some(DataType::I64)];
        let mut mem = MemTracker::new(Arc::new(MemBudget::new(None)));
        let mut t = PerfectTable::try_new(
            &specs,
            &[DataType::Str],
            &layout(&aggs, &arg_types),
            &mut mem,
        )
        .unwrap();
        let absorb = |t: &mut PerfectTable, key: &ExecVector, lanes: &[u32]| {
            let vals = ExecVector::not_null(ColumnData::I64(vec![1; key.len()]));
            t.absorb(
                &[key],
                lanes,
                &[None, Some(&vals)],
                AggPhase::Single,
                &[None, None],
                false,
            )
            .unwrap()
        };
        let first = dict_key(&words(&["a", "b", "c"]), &[0, 1, 2, 0]);
        assert!(absorb(&mut t, &first, &[0, 1, 2, 3]));
        // Another block: other codes for the same words, and a new word.
        let second = dict_key(&words(&["c", "d", "a"]), &[0, 1, 2, 2]);
        assert!(absorb(&mut t, &second, &[0, 1, 2, 3]));
        // Back to the first dictionary.
        assert!(absorb(&mut t, &first, &[1]));
        let count = |w: &str, n: i64| vec![Value::Str(w.into()), Value::I64(n), Value::I64(n)];
        assert_eq!(
            rows(&t, DataType::Str, 2),
            vec![count("a", 4), count("b", 2), count("c", 2), count("d", 1)]
        );
        // 40 more entries than the coder can hold: fine while rows use the
        // ones that got a code, a fallback (state untouched) when not.
        let many: Vec<String> = (0..40).map(|i| format!("w{i:02}")).collect();
        let wide = dict_key(&many, &(0..40).collect::<Vec<u32>>());
        assert!(absorb(&mut t, &wide, &[0, 5, 27]));
        assert!(!absorb(&mut t, &wide, &[0, 39]));
        assert_eq!(t.occupied_slots().len(), 4 + 3);
    }

    #[test]
    fn tiny_budget_rejects_table() {
        let specs = plan_specs(&[DataType::Str], &[None]).unwrap();
        let aggs = aggs();
        let arg_types = vec![None, Some(DataType::I64)];
        let mut mem = MemTracker::new(Arc::new(MemBudget::new(Some(64))));
        assert!(PerfectTable::try_new(
            &specs,
            &[DataType::Str],
            &layout(&aggs, &arg_types),
            &mut mem
        )
        .is_none());
    }

    #[test]
    fn null_keys_get_code_zero() {
        let specs = plan_specs(&[DataType::Str], &[None]).unwrap();
        let aggs = vec![AggExpr {
            func: AggFunc::CountStar,
            arg: None,
            name: "n".into(),
        }];
        let mut mem = MemTracker::new(Arc::new(MemBudget::new(None)));
        let mut t =
            PerfectTable::try_new(&specs, &[DataType::Str], &layout(&aggs, &[None]), &mut mem)
                .unwrap();
        let keys = ExecVector::new(
            ColumnData::Str(StrColumn::from_iter(["", "x", ""])),
            Some(vec![true, false, true]),
        );
        let lanes: Vec<u32> = (0..3).collect();
        assert!(t
            .absorb(&[&keys], &lanes, &[None], AggPhase::Single, &[None], false)
            .unwrap());
        assert_eq!(
            rows(&t, DataType::Str, 1),
            vec![
                vec![Value::Null, Value::I64(2)],
                vec![Value::Str("x".into()), Value::I64(1)],
            ]
        );
    }
}
