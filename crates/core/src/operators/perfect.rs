//! Perfect-hash (direct-array) aggregation.
//!
//! When every GROUP BY key has a provably small domain — a PDICT-coded
//! string column, a boolean, or a narrow integer whose MinMax range is known
//! from the row-group zone maps — the group of a tuple can be *computed*
//! instead of *probed*: compose the per-key codes into one flat slot index
//! and address a struct-of-arrays accumulator directly. No hashing, no
//! bucket chains, no key comparisons on the hot path. This is the
//! fixed-slot aggregation array the "Fine-Tuning Data Structures" line of
//! work recommends whenever the observed key domain fits, and it is what
//! makes Q1-shaped aggregations (few groups, many tuples) cheap.
//!
//! The table is speculative: `absorb` computes the slots of a whole vector
//! *before* touching any accumulator, so the moment one value falls outside
//! its coder's domain the caller can fall back to the generic hash table by
//! re-emitting every occupied slot as a partial-aggregate row (the same
//! layout the spill machinery uses) and merging those rows with `combine`
//! semantics. Correctness never depends on the hints being right.

use std::cmp::Ordering;
use std::sync::Arc;

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
        other => {
            return Err(VwError::Exec(format!(
                "integer aggregate over {}",
                other.type_name()
            )))
        }
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
        other => {
            return Err(VwError::Exec(format!(
                "numeric aggregate over {}",
                other.type_name()
            )))
        }
    }
    Ok(())
}

/// One aggregate's accumulators, struct-of-arrays over slots: a slot is a
/// composed key code on the perfect path and a group id on the generic one,
/// which is the only difference between the two. NULL inputs are skipped,
/// integer sums wrap, MIN/MAX keep the first of equal values and order
/// doubles like `Value::total_cmp`.
enum AccCol {
    Count(Vec<i64>),
    SumI {
        sum: Vec<i64>,
        seen: Vec<bool>,
    },
    SumF {
        sum: Vec<f64>,
        seen: Vec<bool>,
    },
    Avg {
        sum: Vec<f64>,
        count: Vec<i64>,
    },
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
        match (func, arg_ty) {
            (AggFunc::CountStar | AggFunc::Count, _) => AccCol::Count(Vec::new()),
            (AggFunc::Avg, _) => AccCol::Avg {
                sum: Vec::new(),
                count: Vec::new(),
            },
            (AggFunc::Sum, Some(DataType::F64)) => AccCol::SumF {
                sum: Vec::new(),
                seen: Vec::new(),
            },
            (AggFunc::Sum, _) => AccCol::SumI {
                sum: Vec::new(),
                seen: Vec::new(),
            },
            (_, Some(DataType::F64)) => AccCol::BestF {
                best: Vec::new(),
                seen: Vec::new(),
                min,
            },
            (_, Some(DataType::Str)) => AccCol::BestS {
                best: Vec::new(),
                min,
                bytes: 0,
            },
            (_, ty) => AccCol::BestI {
                best: Vec::new(),
                seen: Vec::new(),
                min,
                ty: ty.unwrap_or(DataType::I64),
            },
        }
    }

    fn resize(&mut self, n: usize) {
        match self {
            AccCol::Count(c) => c.resize(n, 0),
            AccCol::SumI { sum: v, seen } | AccCol::BestI { best: v, seen, .. } => {
                v.resize(n, 0);
                seen.resize(n, false);
            }
            AccCol::SumF { sum: v, seen } | AccCol::BestF { best: v, seen, .. } => {
                v.resize(n, 0.0);
                seen.resize(n, false);
            }
            AccCol::Avg { sum, count } => {
                sum.resize(n, 0.0);
                count.resize(n, 0);
            }
            AccCol::BestS { best, .. } => best.resize(n, None),
        }
    }

    /// Heap bytes held, by capacity.
    fn heap_bytes(&self) -> usize {
        match self {
            AccCol::Count(c) => c.capacity() * 8,
            AccCol::SumI { sum: v, seen } | AccCol::BestI { best: v, seen, .. } => {
                v.capacity() * 8 + seen.capacity()
            }
            AccCol::SumF { sum: v, seen } | AccCol::BestF { best: v, seen, .. } => {
                v.capacity() * 8 + seen.capacity()
            }
            AccCol::Avg { sum, count } => (sum.capacity() + count.capacity()) * 8,
            AccCol::BestS { best, bytes, .. } => best.capacity() * 16 + bytes,
        }
    }

    /// Fold one vector in: `slots[j]` is the slot of row `lanes[j]`. With
    /// `combine` the rows are partial aggregates (Final phase, spill drain,
    /// perfect-to-generic fallback) and `hidden` carries the AVG counts.
    fn fold(
        &mut self,
        combine: bool,
        slots: &[u32],
        lanes: &[u32],
        arg: Option<&ExecVector>,
        hidden: Option<&ExecVector>,
    ) -> Result<()> {
        let need = |what: &str| VwError::Exec(format!("aggregate needs {what}"));
        if let (AccCol::Count(n), false) = (&mut *self, combine) {
            // COUNT(*) and COUNT(x): rows, or rows where x is not NULL.
            match arg.and_then(|v| v.nulls.as_deref()) {
                None => slots.iter().for_each(|&s| n[s as usize] += 1),
                Some(nulls) => visit(nulls, Some(nulls), slots, lanes, |s, _| n[s] += 1),
            }
            return Ok(());
        }
        let v = arg.ok_or_else(|| need("an argument"))?;
        match self {
            AccCol::Count(n) => visit_i64(v, slots, lanes, |s, x| n[s] += x),
            AccCol::SumI { sum, seen } => visit_i64(v, slots, lanes, |s, x| {
                sum[s] = sum[s].wrapping_add(x);
                seen[s] = true;
            }),
            AccCol::SumF { sum, seen } => visit_f64(v, slots, lanes, |s, x| {
                sum[s] += x;
                seen[s] = true;
            }),
            AccCol::Avg { sum, count } => {
                if combine {
                    // A partial AVG is NULL exactly when its count is 0.
                    let hc = hidden.ok_or_else(|| need("the partial AVG count"))?;
                    visit_i64(hc, slots, lanes, |s, c| count[s] += c)?;
                    visit_f64(v, slots, lanes, |s, x| sum[s] += x)
                } else {
                    visit_f64(v, slots, lanes, |s, x| {
                        sum[s] += x;
                        count[s] += 1;
                    })
                }
            }
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
                    _ => return Err(need("a string argument")),
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
    fn finish(&self, ids: &[u32], phase: AggPhase) -> ExecVector {
        fn col<T>(
            ids: &[u32],
            data: impl Fn(Vec<T>) -> ColumnData,
            value: impl Fn(usize) -> T,
            valid: impl Fn(usize) -> bool,
        ) -> ExecVector {
            let nulls: Vec<bool> = ids.iter().map(|&s| !valid(s as usize)).collect();
            let values = ids.iter().map(|&s| value(s as usize)).collect();
            ExecVector::new(data(values), nulls.contains(&true).then_some(nulls))
        }
        match self {
            AccCol::Count(n) => col(ids, ColumnData::I64, |s| n[s], |_| true),
            AccCol::SumI { sum, seen } => col(ids, ColumnData::I64, |s| sum[s], |s| seen[s]),
            AccCol::SumF { sum, seen } => col(ids, ColumnData::F64, |s| sum[s], |s| seen[s]),
            // A partial AVG carries the raw sum; its count rides beside it.
            AccCol::Avg { sum, count } if phase == AggPhase::Partial => {
                col(ids, ColumnData::F64, |s| sum[s], |s| count[s] != 0)
            }
            AccCol::Avg { sum, count } => col(
                ids,
                ColumnData::F64,
                |s| sum[s] / count[s] as f64,
                |s| count[s] != 0,
            ),
            AccCol::BestI { best, seen, ty, .. } => match ty {
                DataType::Bool => col(ids, ColumnData::Bool, |s| best[s] != 0, |s| seen[s]),
                DataType::I32 | DataType::Date => {
                    col(ids, ColumnData::I32, |s| best[s] as i32, |s| seen[s])
                }
                _ => col(ids, ColumnData::I64, |s| best[s], |s| seen[s]),
            },
            AccCol::BestF { best, seen, .. } => col(ids, ColumnData::F64, |s| best[s], |s| seen[s]),
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

/// The accumulator columns of every aggregate of one operator, shared by the
/// perfect and the generic path.
pub struct Accumulators {
    cols: Vec<AccCol>,
    slots: usize,
}

impl Accumulators {
    pub fn new(aggs: &[AggExpr], arg_types: &[Option<DataType>], slots: usize) -> Accumulators {
        let cols = aggs.iter().zip(arg_types);
        let mut accs = Accumulators {
            cols: cols.map(|(a, ty)| AccCol::new(a.func, *ty)).collect(),
            slots: 0,
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
        self.cols.iter_mut().for_each(|c| c.resize(slots));
        self.slots = slots;
    }

    /// Heap bytes held, by capacity.
    pub fn heap_bytes(&self) -> usize {
        self.cols.iter().map(|c| c.heap_bytes()).sum()
    }

    /// Fold one vector into every aggregate: `slots[j]` is the slot of row
    /// `lanes[j]`, `args[k]` the evaluated argument of aggregate `k`. With
    /// `combine`, rows are partial aggregates and `hidden[k]` is the AVG
    /// count column of aggregate `k`.
    pub fn fold(
        &mut self,
        combine: bool,
        slots: &[u32],
        lanes: &[u32],
        args: &[Option<&ExecVector>],
        hidden: &[Option<&ExecVector>],
    ) -> Result<()> {
        for (k, acc) in self.cols.iter_mut().enumerate() {
            acc.fold(combine, slots, lanes, args[k], hidden[k])?;
        }
        Ok(())
    }

    /// Output columns over slots `ids` for `phase`: one finished column per
    /// aggregate, then — emitting partials — the hidden AVG counts. With
    /// `phase == Partial` this is the spill/fallback layout after the keys.
    pub fn finish(&self, ids: &[u32], phase: AggPhase) -> Vec<ExecVector> {
        let mut out: Vec<ExecVector> = self.cols.iter().map(|c| c.finish(ids, phase)).collect();
        if phase == AggPhase::Partial {
            for c in &self.cols {
                if let AccCol::Avg { count, .. } = c {
                    let counts = ids.iter().map(|&s| count[s as usize]).collect();
                    out.push(ExecVector::not_null(ColumnData::I64(counts)));
                }
            }
        }
        out
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
    /// Bytes reserved against the memory budget at construction; the owner
    /// shrinks its tracker by this amount when the table is dropped.
    pub reserved_bytes: usize,
}

impl PerfectTable {
    /// Build a table for the planned specs, reserving its (fixed) footprint
    /// against the budget. `None` = the reservation failed; use the generic
    /// path. With no group keys the single slot 0 is pre-occupied, which
    /// reproduces the scalar-aggregate-over-empty-input row.
    pub fn try_new(
        specs: &[KeyCoderSpec],
        key_types: &[DataType],
        aggs: &[AggExpr],
        arg_types: &[Option<DataType>],
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
        let accs = Accumulators::new(aggs, arg_types, slots);
        let reserved = slots + accs.heap_bytes() + 256;
        if !mem.try_grow(reserved) {
            return None;
        }
        let mut occupied = vec![false; slots];
        if key_types.is_empty() {
            occupied[0] = true;
        }
        Some(PerfectTable {
            coders: specs.iter().map(|&s| KeyCoder::new(s)).collect(),
            key_types: key_types.to_vec(),
            caps,
            strides,
            occupied,
            accs,
            slot_buf: Vec::new(),
            remaps: key_types.iter().map(|_| None).collect(),
            reserved_bytes: reserved,
        })
    }

    /// Absorb one batch. `keys[k]` is group key `k`'s column, `lanes` are the
    /// selected physical rows, `args[k]`/`hidden[k]` the evaluated argument
    /// (and hidden AVG count column, Final phase) of aggregate `k`.
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
    ) -> Result<bool> {
        // Pass 1: compose every lane's slot before touching any state.
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
        for &s in &slot_buf {
            self.occupied[s as usize] = true;
        }
        let r = self
            .accs
            .fold(phase == AggPhase::Final, &slot_buf, lanes, args, hidden);
        self.slot_buf = slot_buf;
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
        let mut t =
            PerfectTable::try_new(&specs, &[DataType::Str], &aggs, &arg_types, &mut mem).unwrap();
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
        let mut t =
            PerfectTable::try_new(&specs, &[DataType::I64], &aggs, &arg_types, &mut mem).unwrap();
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
        let mut t =
            PerfectTable::try_new(&specs, &[DataType::Str], &aggs, &arg_types, &mut mem).unwrap();
        let absorb = |t: &mut PerfectTable, key: &ExecVector, lanes: &[u32]| {
            let vals = ExecVector::not_null(ColumnData::I64(vec![1; key.len()]));
            t.absorb(
                &[key],
                lanes,
                &[None, Some(&vals)],
                AggPhase::Single,
                &[None, None],
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
        assert!(
            PerfectTable::try_new(&specs, &[DataType::Str], &aggs, &arg_types, &mut mem).is_none()
        );
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
            PerfectTable::try_new(&specs, &[DataType::Str], &aggs, &[None], &mut mem).unwrap();
        let keys = ExecVector::new(
            ColumnData::Str(StrColumn::from_iter(["", "x", ""])),
            Some(vec![true, false, true]),
        );
        let lanes: Vec<u32> = (0..3).collect();
        assert!(t
            .absorb(&[&keys], &lanes, &[None], AggPhase::Single, &[None],)
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
