//! Block cursors: the one decoder of the block format, with vector-granular
//! decode and predicate evaluation on encoded data.
//!
//! A [`BlockCursor`] parses the NULL indicator, the block header and the
//! codec state once, and then decodes any range of values on demand. A
//! whole-block read — `decompress_data`, `decode_block`,
//! `TableStorage::read_column` — is its full-range decode
//! ([`BlockCursor::decode_all`]); a scan decodes one ~1K-row vector slice at
//! a time ([`BlockCursor::decode_slice`]), so a selective scan never
//! materializes vectors it is about to discard. [`BlockCursor::eval_pred`]
//! goes further and evaluates simple predicates directly on the encoded
//! form:
//!
//! - **PFOR**: the literal is translated into delta space once
//!   (`lit - base`); packed deltas are compared as unsigned ints without
//!   reconstructing values, and the rare exceptions are patched afterwards.
//!   A DOUBLE block of exact decimals is such a frame over its scaled
//!   integers `d = v·10^scale`: a float literal first becomes the integer
//!   bound on `d` that selects the same rows (`int_space`), and only what a
//!   scan materializes is divided back into doubles.
//! - **RLE**: one comparison per run, emitting selection ranges in O(runs).
//! - **PDICT**: string equality/IN/range predicates are rewritten into
//!   dictionary-code space once per block (a bitmap over codes); each value
//!   then costs a bit-packed code load and one bitmap probe.
//!
//! - **PLAIN strings**: compared, and `LIKE`-matched, in place over the
//!   block's bytes; a `%lit%` pattern is searched over the whole vector's
//!   contiguous byte range at once and the hits mapped back to rows.
//! - **Key sets** ([`Pred::InSet`]): membership of an integer column in a
//!   [`KeySet`] — a range, or a bitmap over it — is tested on PFOR's packed
//!   deltas (the frame's distance to the set's `lo` added once), per run on
//!   RLE and in place on PLAIN blocks.
//!
//! A conjunction narrows one candidate list: the first conjunct of a vector
//! goes through [`BlockCursor::eval_pred`], every later one through
//! [`BlockCursor::narrow`], which visits only the positions still in the list
//! (or, while the list is dense, evaluates the whole vector into a mask and
//! filters the list by it). [`BlockCursor::vector`] then materializes what
//! survived, a PDICT block as codes over its dictionary.
//!
//! [`Pred::decide`] additionally lets callers skip a block (or drop a
//! predicate) when the catalog MinMax already decides it.

use crate::block::{MinMax, PruneOp};
use crate::column::{ColumnData, DictColumn, NullableColumn, StrColumn};
use crate::compress::bitpack::{packed_len, unpack_at, unpack_into, unpack_range};
use crate::compress::{
    decimal_value, pow10, CompressionScheme, PHYS_BOOL, PHYS_F64, PHYS_I32, PHYS_I64, PHYS_STR,
};
use std::cmp::Ordering;
use std::ops::Deref;
use std::sync::Arc;
use vw_common::like::{find, LikePattern, LikeShape};
use vw_common::{BitVec, Result, Value, VwError};

fn err(msg: &str) -> VwError {
    VwError::Storage(format!("corrupt block: {}", msg))
}

fn type_err(col: &str) -> VwError {
    VwError::Storage(format!("predicate value type mismatch on {} column", col))
}

/// Comparison operator of a pushed-down predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl PredOp {
    /// Does `ord = value.cmp(literal)` satisfy this operator?
    #[inline]
    fn matches_ord(self, ord: Ordering) -> bool {
        match self {
            PredOp::Eq => ord == Ordering::Equal,
            PredOp::Ne => ord != Ordering::Equal,
            PredOp::Lt => ord == Ordering::Less,
            PredOp::Le => ord != Ordering::Greater,
            PredOp::Gt => ord == Ordering::Greater,
            PredOp::Ge => ord != Ordering::Less,
        }
    }

    /// IEEE float comparison (NaN never matches except through `Ne`),
    /// mirroring the vectorized comparison kernels.
    #[inline]
    fn matches_f64(self, a: f64, b: f64) -> bool {
        match self {
            PredOp::Eq => a == b,
            PredOp::Ne => a != b,
            PredOp::Lt => a < b,
            PredOp::Le => a <= b,
            PredOp::Gt => a > b,
            PredOp::Ge => a >= b,
        }
    }
}

/// A predicate simple enough to push into the scan and evaluate inside the
/// codec cursor: `col <op> literal`, a string IN-list, `[NOT] LIKE` with a
/// literal pattern, or membership of an integer column in a [`KeySet`].
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    Cmp { op: PredOp, value: Value },
    InStr { values: Vec<String>, negated: bool },
    Like { pattern: LikePattern, negated: bool },
    InSet(Arc<KeySet>),
}

impl Pred {
    /// Does a non-NULL string satisfy this predicate? An error for a
    /// comparison whose literal is no string.
    #[inline]
    fn matches_str(&self, s: &[u8]) -> Result<bool> {
        Ok(match self {
            Pred::Cmp { op, value } => {
                let l = value.as_str().ok_or_else(|| type_err("str"))?;
                // Byte order is string order for UTF-8.
                op.matches_ord(s.cmp(l.as_bytes()))
            }
            Pred::InStr { values, negated } => values.iter().any(|v| v.as_bytes() == s) != *negated,
            Pred::Like { pattern, negated } => pattern.matches(s) != *negated,
            Pred::InSet(_) => return Err(type_err("str")),
        })
    }
}

/// A set of integer keys, compared as i64 whatever the column's width: the
/// range `[lo, hi]` and, when present, a bitmap with one bit per value of
/// it. Without a bitmap every value of the range is a member. It is what a
/// finished hash-join build knows of its keys (a superset of them when their
/// range is too wide for a bitmap), and what an integer `IN` list is.
#[derive(Clone, PartialEq, Eq)]
pub struct KeySet {
    lo: i64,
    /// `hi - lo` as an unsigned distance.
    span: u64,
    bits: Option<Box<[u64]>>,
}

impl std::fmt::Debug for KeySet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeySet")
            .field("lo", &self.lo)
            .field("hi", &self.hi())
            .field("bitmap", &self.bits.is_some())
            .finish()
    }
}

impl KeySet {
    /// Widest range a bitmap is made for: 8 Mbit, 1 MiB.
    pub const MAX_BITS: u64 = 8 << 20;

    /// The empty set: the one value of `[0, 0]`, its bit clear.
    pub fn empty() -> KeySet {
        KeySet {
            lo: 0,
            span: 0,
            bits: Some(vec![0].into_boxed_slice()),
        }
    }

    /// Every value of `[lo, hi]` (`lo <= hi`).
    pub fn range(lo: i64, hi: i64) -> KeySet {
        debug_assert!(lo <= hi);
        KeySet {
            lo,
            span: hi.wrapping_sub(lo) as u64,
            bits: None,
        }
    }

    /// Heap bytes of a bitmap over `[lo, hi]`, or `None` when the range is
    /// wider than [`KeySet::MAX_BITS`] values.
    pub fn bitmap_bytes(lo: i64, hi: i64) -> Option<usize> {
        let span = hi.wrapping_sub(lo) as u64;
        (lo <= hi && span < Self::MAX_BITS).then(|| (span / 64 + 1) as usize * 8)
    }

    /// Exactly `keys`, every one inside `[lo, hi]`, a range
    /// [`KeySet::bitmap_bytes`] accepts.
    pub fn bitmap(lo: i64, hi: i64, keys: impl Iterator<Item = i64>) -> KeySet {
        let words = KeySet::bitmap_bytes(lo, hi).expect("range within the bitmap cap") / 8;
        let mut bits = vec![0u64; words].into_boxed_slice();
        for k in keys {
            debug_assert!((lo..=hi).contains(&k));
            let i = k.wrapping_sub(lo) as u64;
            bits[(i >> 6) as usize] |= 1 << (i & 63);
        }
        KeySet {
            lo,
            span: hi.wrapping_sub(lo) as u64,
            bits: Some(bits),
        }
    }

    /// Exactly the values of `keys`, or `None` when their range is too wide
    /// for a bitmap.
    pub fn exact(keys: &[i64]) -> Option<KeySet> {
        let (Some(&lo), Some(&hi)) = (keys.iter().min(), keys.iter().max()) else {
            return Some(KeySet::empty());
        };
        KeySet::bitmap_bytes(lo, hi)?;
        Some(KeySet::bitmap(lo, hi, keys.iter().copied()))
    }

    fn hi(&self) -> i64 {
        self.lo.wrapping_add(self.span as i64)
    }

    /// Is `v` a member?
    #[inline]
    pub fn contains(&self, v: i64) -> bool {
        self.hit((v as u64).wrapping_sub(self.lo as u64))
    }

    /// Is the value at distance `k` above `lo` a member?
    #[inline(always)]
    fn hit(&self, k: u64) -> bool {
        match &self.bits {
            Some(bits) => bit_at(bits, k),
            None => k <= self.span,
        }
    }

    /// What the set says of a block whose values lie in `[min, max]`:
    /// `None` when no member lies there, `Some(true)` when every value
    /// there is one, `Some(false)` otherwise.
    fn cover(&self, min: i64, max: i64) -> Option<bool> {
        let (lo, hi) = (self.lo.max(min), self.hi().min(max));
        if lo > hi {
            return None;
        }
        let whole = lo == min && hi == max;
        let Some(bits) = &self.bits else {
            return Some(whole);
        };
        let (a, b) = (
            lo.wrapping_sub(self.lo) as u64,
            hi.wrapping_sub(self.lo) as u64,
        );
        // Bits `a..=b`, a word at a time.
        let (mut any, mut all) = (false, true);
        for w in a >> 6..=b >> 6 {
            let from = if w == a >> 6 { a & 63 } else { 0 };
            let to = if w == b >> 6 { b & 63 } else { 63 };
            let mask = (u64::MAX >> (63 - to)) & (u64::MAX << from);
            let got = bits[w as usize] & mask;
            any |= got != 0;
            all &= got == mask;
        }
        any.then_some(whole && all)
    }
}

/// Bit `k` of a key set's bitmap. The bits past its range are clear and
/// the words past its end read as clear, so this is also the range check.
#[inline(always)]
fn bit_at(bits: &[u64], k: u64) -> bool {
    let word = usize::try_from(k >> 6).ok().and_then(|i| bits.get(i));
    let word = word.map_or(0, |w| *w);
    (word >> (k & 63)) & 1 != 0
}

impl Pred {
    /// Decide the predicate for a whole block from its zone map, if possible.
    ///
    /// `Some(false)`: no row can match — skip the block without reading it.
    /// `Some(true)`: every row matches (only claimed when the block has no
    /// NULLs, since NULL rows never match) — the predicate can be dropped.
    /// `None`: must be evaluated row by row.
    pub fn decide(&self, mm: &MinMax, has_nulls: bool) -> Option<bool> {
        match self {
            Pred::Cmp { op, value } => {
                let may = |p: PruneOp| mm.may_match(p, value);
                let all_false = match op {
                    PredOp::Eq => !may(PruneOp::Eq),
                    PredOp::Lt => !may(PruneOp::Lt),
                    PredOp::Le => !may(PruneOp::Le),
                    PredOp::Gt => !may(PruneOp::Gt),
                    PredOp::Ge => !may(PruneOp::Ge),
                    // all values equal the literal <=> none below and none above
                    PredOp::Ne => !may(PruneOp::Lt) && !may(PruneOp::Gt),
                };
                if all_false {
                    return Some(false);
                }
                if !has_nulls {
                    let all_true = match op {
                        PredOp::Eq => !may(PruneOp::Lt) && !may(PruneOp::Gt),
                        PredOp::Ne => !may(PruneOp::Eq),
                        PredOp::Lt => !may(PruneOp::Ge),
                        PredOp::Le => !may(PruneOp::Gt),
                        PredOp::Gt => !may(PruneOp::Le),
                        PredOp::Ge => !may(PruneOp::Lt),
                    };
                    if all_true {
                        return Some(true);
                    }
                }
                None
            }
            Pred::InStr { values, negated } => {
                if !*negated
                    && values
                        .iter()
                        .all(|s| !mm.may_match(PruneOp::Eq, &Value::Str(s.clone())))
                {
                    return Some(false);
                }
                None
            }
            // What a pattern admits is not a range of the string order.
            Pred::Like { .. } => None,
            Pred::InSet(set) => {
                let MinMax::Int { min, max } = mm else {
                    return None;
                };
                match set.cover(*min, *max) {
                    None => Some(false),
                    Some(true) if !has_nulls => Some(true),
                    Some(_) => None,
                }
            }
        }
    }
}

/// `$run!(test)` with `test` the closure `|d| base + d ∈ set` over packed
/// values `d` of a frame whose values sit `off = base - set.lo` above the
/// set's `lo`: whether the set has a bitmap is matched once, outside the
/// per-value loop `$run` expands to.
macro_rules! match_set {
    ($set:expr, $off:expr, $run:ident) => {{
        let (span, off) = ($set.span, $off);
        match &$set.bits {
            Some(bits) => $run!(|d: u64| bit_at(bits, d.wrapping_add(off))),
            None => $run!(|d: u64| d.wrapping_add(off) <= span),
        }
    }};
}

/// The positions of `vals` in `set`, like [`select_where`], with the set's
/// shape matched once outside the loop.
fn select_set(vals: impl ExactSizeIterator<Item = i64>, set: &KeySet) -> Vec<u32> {
    macro_rules! run {
        ($test:expr) => {{
            let test = $test;
            select_where(vals, |v| test(v as u64))
        }};
    }
    match_set!(set, (set.lo as u64).wrapping_neg(), run)
}

/// Keep the candidates whose `value(p)` is in `set`, like [`retain_where`],
/// with the set's shape matched once outside the loop.
fn retain_set(cands: &mut Vec<u32>, set: &KeySet, value: impl Fn(usize) -> i64) {
    macro_rules! run {
        ($test:expr) => {{
            let test = $test;
            retain_where(cands, |p| test(value(p) as u64))
        }};
    }
    match_set!(set, (set.lo as u64).wrapping_neg(), run)
}

/// `$run!(test)` with `test` the closure `|v| v <op> $lit`: the operator is
/// matched once, outside the per-value loop `$run` expands to.
macro_rules! match_op {
    ($op:expr, $lit:expr, $run:ident) => {
        match $op {
            PredOp::Eq => $run!(|v| v == $lit),
            PredOp::Ne => $run!(|v| v != $lit),
            PredOp::Lt => $run!(|v| v < $lit),
            PredOp::Le => $run!(|v| v <= $lit),
            PredOp::Gt => $run!(|v| v > $lit),
            PredOp::Ge => $run!(|v| v >= $lit),
        }
    };
}

/// [`BlockCursor::narrow`] over bit-packed values (PFOR deltas, PDICT codes)
/// has two ways to test the candidates of a vector: unpack each one by
/// random access, or unpack the whole vector in one sequential pass into a
/// mask and filter the list by it. The pass costs the same whatever the
/// list holds — about what random access costs for two candidates in three —
/// so it wins once at least this share of the vector's rows, in percent, is
/// still a candidate: by a quarter when all are (EXPERIMENTS.md E14 has the
/// sweep over PFOR and PDICT blocks of lineitem).
const DENSE_PCT: usize = 67;

/// Parsed PFOR frame: everything needed to decode any sub-range.
struct Frame {
    base: i64,
    width: u32,
    /// Absolute `[start, end)` of the packed section within the block bytes.
    packed: (usize, usize),
    exc_pos: Vec<u32>,
    exc_val: Vec<i64>,
    /// `10^scale` of a DOUBLE block of scaled integers, whose value `d`
    /// decodes to `d / pow10`; `None` for an integer column.
    pow10: Option<f64>,
    /// The double of every packed value of a decimal frame at most
    /// [`TABLE_WIDTH`] bits wide, made on its first whole-slice decode: a
    /// lookup instead of a division per value.
    table: Option<Box<[f64; 1 << TABLE_WIDTH]>>,
}

/// Widest decimal frame [`Frame::table`] is made for (256 doubles).
const TABLE_WIDTH: u32 = 8;

impl Frame {
    /// `lit` translated into delta space, to compare packed deltas with as
    /// unsigned ints. `Err(all)` when it lies outside the packed domain:
    /// every non-exception value then compares the same way, `all`.
    fn delta_literal(&self, op: PredOp, lit: i64) -> std::result::Result<u64, bool> {
        let t = lit as i128 - self.base as i128;
        let limit: i128 = if self.width == 64 {
            u64::MAX as i128
        } else {
            (1i128 << self.width) - 1
        };
        if (0..=limit).contains(&t) {
            return Ok(t as u64);
        }
        Err(match op {
            PredOp::Eq => false,
            PredOp::Ne => true,
            PredOp::Lt | PredOp::Le => t > limit,
            PredOp::Gt | PredOp::Ge => t < 0,
        })
    }

    /// The packed deltas `[from, to)`, in a buffer of their own that the
    /// values they decode to can take over in place.
    fn deltas(&self, bytes: &[u8], from: usize, to: usize) -> Vec<u64> {
        let mut deltas = vec![0; to - from];
        unpack_into(
            &bytes[self.packed.0..self.packed.1],
            from,
            self.width,
            &mut deltas,
        );
        deltas
    }

    /// Index range into `exc_pos` / `exc_val` of the exceptions positioned
    /// in `[from, to)`.
    fn exceptions_in(&self, from: usize, to: usize) -> (usize, usize) {
        (
            self.exc_pos.partition_point(|&p| (p as usize) < from),
            self.exc_pos.partition_point(|&p| (p as usize) < to),
        )
    }
}

struct DictState {
    dict: Arc<StrColumn>,
    /// Absolute offset of the packed codes within the block bytes.
    codes_start: usize,
    width: u32,
    /// Per-predicate bitmap over dictionary codes, built once per block.
    pred_sets: Vec<(Pred, Vec<bool>)>,
    /// `(conjunct id, index into pred_sets)`: a scan names its conjuncts,
    /// so finding a set again compares no predicate.
    by_conjunct: Vec<(usize, usize)>,
}

impl DictState {
    /// The packed codes of a block of `n` values.
    fn codes<'a>(&self, bytes: &'a [u8], n: usize) -> &'a [u8] {
        &bytes[self.codes_start..self.codes_start + packed_len(n, self.width)]
    }

    /// The values `from + sel[i]`, or all of `[from, to)`, as codes over
    /// the dictionary, each checked against it.
    fn vector(
        &self,
        bytes: &[u8],
        n: usize,
        from: usize,
        to: usize,
        sel: Option<&[u32]>,
    ) -> Result<DictColumn> {
        let packed = self.codes(bytes, n);
        // Code widths are at most 32 bits (checked when the block opened).
        let codes: Vec<u32> = match sel {
            Some(sel) => sel
                .iter()
                .map(|&p| unpack_at(packed, from + p as usize, self.width) as u32)
                .collect(),
            None => {
                let mut codes = vec![0u32; to - from];
                unpack_range(packed, from, to, self.width, |i, c| codes[i] = c as u32);
                codes
            }
        };
        DictColumn::new(codes, Arc::clone(&self.dict)).ok_or_else(|| err("pdict code"))
    }

    /// The bitmap over dictionary codes of `pred`, built on first use.
    fn code_set(&mut self, conjunct: Option<usize>, pred: &Pred) -> Result<&[bool]> {
        let known = conjunct.and_then(|c| self.by_conjunct.iter().find(|(id, _)| *id == c));
        let at = match known {
            Some(&(_, at)) => at,
            None => {
                let at = match self.pred_sets.iter().position(|(p, _)| p == pred) {
                    Some(at) => at,
                    None => {
                        let set = build_code_set(&self.dict, pred)?;
                        self.pred_sets.push((pred.clone(), set));
                        self.pred_sets.len() - 1
                    }
                };
                if let Some(c) = conjunct {
                    self.by_conjunct.push((c, at));
                }
                at
            }
        };
        debug_assert!(self.pred_sets[at].0 == *pred, "one predicate per id");
        Ok(&self.pred_sets[at].1)
    }
}

/// Where a PLAIN string block keeps its string bytes and its offsets array
/// (absolute offsets into the block).
#[derive(Clone, Copy)]
struct StrLayout {
    str_start: usize,
    offs_start: usize,
}

impl StrLayout {
    fn over(self, bytes: &[u8]) -> PlainStrs<'_> {
        PlainStrs {
            bytes,
            str_start: self.str_start,
            offs_start: self.offs_start,
        }
    }
}

/// The strings of a PLAIN string block, read in place.
#[derive(Clone, Copy)]
struct PlainStrs<'a> {
    bytes: &'a [u8],
    str_start: usize,
    offs_start: usize,
}

impl<'a> PlainStrs<'a> {
    /// Where string `i` starts within the string bytes (`n` = their end).
    /// Offsets ascend and stay inside the bytes: checked at open.
    #[inline]
    fn off(&self, i: usize) -> usize {
        u32::from_le_bytes(fixed_at(self.bytes, self.offs_start, i)) as usize
    }

    #[inline]
    fn get(&self, i: usize) -> &'a [u8] {
        &self.bytes[self.str_start + self.off(i)..self.str_start + self.off(i + 1)]
    }
}

/// Element `idx` of an array of `N`-byte values starting at byte `base`.
#[inline]
fn fixed_at<const N: usize>(bytes: &[u8], base: usize, idx: usize) -> [u8; N] {
    let at = base + idx * N;
    bytes[at..at + N].try_into().unwrap()
}

enum State {
    Bool(BitVec),
    PlainInt {
        width: usize,
    },
    PlainF64,
    PlainStr(StrLayout),
    Rle {
        vals: Vec<[u8; 8]>,
        /// Cumulative run starts; `starts.len() == vals.len() + 1`.
        starts: Vec<usize>,
    },
    Pfor(Frame),
    PforDelta {
        frame: Frame,
        run: DeltaRun,
    },
    Pdict(DictState),
}

/// Where a PFOR-DELTA cursor stands in its prefix sum.
#[derive(Default)]
struct DeltaRun {
    /// Prefix-sum resume point: `acc` is the running value through delta
    /// `pos - 1`. `ck` checkpoints the start of the last slice so that a
    /// slice decoded again does not re-walk the prefix.
    pos: usize,
    acc: i64,
    ck: Option<(usize, i64)>,
    /// `(from, values)` of the slice a predicate was last evaluated on: the
    /// decode of the same vector that usually follows takes them.
    last: Option<(usize, Vec<i64>)>,
}

impl DeltaRun {
    /// Values `[from, to)`, kept as the last slice.
    fn slice(&mut self, frame: &Frame, bytes: &[u8], from: usize, to: usize) -> &[i64] {
        if !self.holds(from, to) {
            let vals = delta_values(frame, bytes, self, from, to);
            self.last = Some((from, vals));
        }
        &self.last.as_ref().expect("the slice was just kept").1
    }

    /// Values `[from, to)`, taking the last slice when it is that one.
    fn take(&mut self, frame: &Frame, bytes: &[u8], from: usize, to: usize) -> Vec<i64> {
        match self.holds(from, to) {
            true => self.last.take().expect("holds the slice").1,
            false => delta_values(frame, bytes, self, from, to),
        }
    }

    fn holds(&self, from: usize, to: usize) -> bool {
        matches!(&self.last, Some((f, v)) if *f == from && v.len() == to - from)
    }
}

impl State {
    /// `10^scale` of a DOUBLE block of scaled integers.
    fn decimal(&self) -> Option<f64> {
        match self {
            State::Pfor(frame) | State::PforDelta { frame, .. } => frame.pow10,
            _ => None,
        }
    }
}

/// A positioned decoder over one encoded column block: the bytes as stored
/// (shared with the buffer pool, the default) or a borrowed payload.
pub struct BlockCursor<B = Arc<Vec<u8>>> {
    bytes: B,
    n: usize,
    phys: u8,
    scheme: CompressionScheme,
    body: usize,
    nulls: Option<BitVec>,
    state: State,
    /// Scratch of [`BlockCursor::narrow`]'s dense path: one verdict per row
    /// of the vector in hand.
    mask: Vec<bool>,
}

/// The bytes under a cursor, borrowed from the field alone so that the
/// codec state can be borrowed mutably beside them.
fn raw<B: Deref<Target: AsRef<[u8]>>>(bytes: &B) -> &[u8] {
    (**bytes).as_ref()
}

impl<B> std::fmt::Debug for BlockCursor<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCursor")
            .field("n", &self.n)
            .field("scheme", &self.scheme)
            .field("phys", &self.phys)
            .field("has_nulls", &self.nulls.is_some())
            .finish()
    }
}

impl<B: Deref<Target: AsRef<[u8]>>> BlockCursor<B> {
    /// Parse the block framing and codec header without decoding values.
    /// Accepts exactly the payloads produced by `encode_block`.
    pub fn new(bytes: B) -> Result<Self> {
        Self::open(bytes, true)
    }

    /// Parse the NULL indicator (unless `bytes` is a payload of
    /// `compress_data`, which has none), the block header and the codec
    /// state; every check a decode relies on is made here.
    pub(crate) fn open(bytes: B, indicator: bool) -> Result<Self> {
        let b = raw(&bytes);
        let (nulls, off) = match (indicator, b.first()) {
            (false, _) => (None, 0),
            (true, None) => return Err(VwError::Storage("empty block".into())),
            (true, Some(1)) => {
                let (bits, used) = BitVec::from_bytes(&b[1..])
                    .ok_or_else(|| VwError::Storage("corrupt null indicator".into()))?;
                (Some(bits), 1 + used)
            }
            (true, Some(_)) => (None, 1),
        };
        if b.len() < off + 6 {
            return Err(err("short header"));
        }
        let phys = b[off];
        let scheme = CompressionScheme::from_u8(b[off + 1]).ok_or_else(|| err("bad scheme"))?;
        let n = u32::from_le_bytes(b[off + 2..off + 6].try_into().unwrap()) as usize;
        if nulls.as_ref().is_some_and(|bits| bits.len() != n) {
            return Err(VwError::Storage("indicator/data length mismatch".into()));
        }
        let body = off + 6;
        let state = parse_state(b, body, phys, scheme, n)?;
        Ok(BlockCursor {
            bytes,
            n,
            phys,
            scheme,
            body,
            nulls,
            state,
            mask: Vec::new(),
        })
    }

    /// Decode the whole block: what every whole-block read is. The NULL
    /// indicator parsed at open is handed over as it is.
    pub fn decode_all(mut self) -> Result<NullableColumn> {
        let nulls = self.nulls.take();
        let data = self.decode_slice(0, self.n)?.data;
        Ok(NullableColumn::new(data, nulls).normalize())
    }

    /// Values in the block.
    pub fn n(&self) -> usize {
        self.n
    }

    pub fn scheme(&self) -> CompressionScheme {
        self.scheme
    }

    pub fn has_nulls(&self) -> bool {
        self.nulls.is_some()
    }

    /// Decode values `[from, to)` into a column chunk with its indicator.
    pub fn decode_slice(&mut self, from: usize, to: usize) -> Result<NullableColumn> {
        if from > to || to > self.n {
            return Err(err("slice out of range"));
        }
        let bytes = raw(&self.bytes);
        let phys = self.phys;
        let data = match &mut self.state {
            State::Bool(bits) => ColumnData::Bool((from..to).map(|i| bits.get(i)).collect()),
            State::PlainInt { width: 4 } => ColumnData::I32(
                bytes[self.body + from * 4..self.body + to * 4]
                    .chunks_exact(4)
                    .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ),
            State::PlainInt { .. } => ColumnData::I64(
                bytes[self.body + from * 8..self.body + to * 8]
                    .chunks_exact(8)
                    .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ),
            State::PlainF64 => ColumnData::F64(
                bytes[self.body + from * 8..self.body + to * 8]
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ),
            State::PlainStr(layout) => {
                let strs = layout.over(bytes);
                let (base, end) = (strs.off(from), strs.off(to));
                let offs = &bytes[layout.offs_start + from * 4..layout.offs_start + to * 4 + 4];
                ColumnData::Str(StrColumn {
                    offsets: offs
                        .chunks_exact(4)
                        .map(|c| u32::from_le_bytes(c.try_into().unwrap()) - base as u32)
                        .collect(),
                    bytes: bytes[strs.str_start + base..strs.str_start + end].to_vec(),
                })
            }
            State::Rle { vals, starts } => {
                let runs = (&vals[..], &starts[..]);
                match phys {
                    PHYS_F64 => ColumnData::F64(rle_slice(runs, from, to, f64::from_le_bytes)),
                    _ => int_data(phys, rle_slice(runs, from, to, i64::from_le_bytes))?,
                }
            }
            State::Pfor(f) => frame_column(f, bytes, phys, from, to)?,
            State::PforDelta { frame, run } => {
                frame_data(frame, phys, run.take(frame, bytes, from, to))?
            }
            State::Pdict(d) => {
                ColumnData::Str(d.vector(bytes, self.n, from, to, None)?.materialize())
            }
        };
        Ok(NullableColumn::new(data, self.nulls_at(from, to, None)).normalize())
    }

    /// The NULL indicator of positions `from + sel[i]`, or of all of
    /// `[from, to)`; `None` when the block has no NULLs.
    fn nulls_at(&self, from: usize, to: usize, sel: Option<&[u32]>) -> Option<BitVec> {
        self.nulls.as_ref().map(|b| match sel {
            Some(sel) => sel.iter().map(|&p| b.get(from + p as usize)).collect(),
            None => b.slice(from, to),
        })
    }

    /// Decode only the positions `from + sel[i]` of `[from, to)`, in the
    /// order `sel` lists them: what a scan materializes when its pushed
    /// predicates left few survivors in the vector. Equal to `decode_slice`
    /// followed by a gather, but PLAIN, PFOR and PDICT blocks are read by
    /// random access, so the cost follows `sel.len()` and not `to - from`;
    /// PFOR-DELTA gathers from the slice its predicate was evaluated on (or
    /// decodes it), RLE and boolean blocks decode the slice and gather.
    pub fn decode_selected(
        &mut self,
        from: usize,
        to: usize,
        sel: &[u32],
    ) -> Result<NullableColumn> {
        if from > to || to > self.n {
            return Err(err("slice out of range"));
        }
        if sel.iter().any(|&p| p as usize >= to - from) {
            return Err(err("selected position out of range"));
        }
        let bytes = raw(&self.bytes);
        let at = |p: &u32| from + *p as usize;
        let data = match &mut self.state {
            State::PlainInt { width: 4 } => ColumnData::I32(
                sel.iter()
                    .map(|p| i32::from_le_bytes(fixed_at(bytes, self.body, at(p))))
                    .collect(),
            ),
            State::PlainInt { .. } => ColumnData::I64(
                sel.iter()
                    .map(|p| i64::from_le_bytes(fixed_at(bytes, self.body, at(p))))
                    .collect(),
            ),
            State::PlainF64 => ColumnData::F64(
                sel.iter()
                    .map(|p| f64::from_le_bytes(fixed_at(bytes, self.body, at(p))))
                    .collect(),
            ),
            State::PlainStr(layout) => {
                let strs = layout.over(bytes);
                let mut out = StrColumn::with_capacity(sel.len(), 0);
                for p in sel {
                    // Offsets and UTF-8 were validated when the block opened.
                    out.bytes.extend_from_slice(strs.get(at(p)));
                    out.offsets.push(out.bytes.len() as u32);
                }
                ColumnData::Str(out)
            }
            State::Pfor(f) => frame_selected(f, bytes, self.phys, from, to, sel)?,
            State::PforDelta { frame, run } => {
                let vals = run.slice(frame, bytes, from, to);
                let wide = sel.iter().map(|&p| vals[p as usize]).collect();
                frame_data(frame, self.phys, wide)?
            }
            State::Pdict(d) => {
                ColumnData::Str(d.vector(bytes, self.n, from, to, Some(sel))?.materialize())
            }
            State::Bool(_) | State::Rle { .. } => {
                return Ok(self.decode_slice(from, to)?.gather(sel));
            }
        };
        Ok(NullableColumn::new(data, self.nulls_at(from, to, Some(sel))).normalize())
    }

    /// Evaluate a predicate over values `[from, to)` directly on the encoded
    /// data where the codec allows it, decoding internally otherwise.
    /// Returns matching positions relative to `from`, ascending, with NULL
    /// positions excluded (SQL: NULL never satisfies a comparison).
    pub fn eval_pred(&mut self, pred: &Pred, from: usize, to: usize) -> Result<Vec<u32>> {
        if from > to || to > self.n {
            return Err(err("slice out of range"));
        }
        let phys = self.phys;
        let int_pred;
        let (pred, ints) = match int_space(phys, self.state.decimal(), pred) {
            IntSpace::Values(p) => (p, None),
            IntSpace::Ints(op, lit) => {
                int_pred = Pred::Cmp {
                    op,
                    value: Value::I64(lit),
                };
                (&int_pred, Some((op, lit)))
            }
            IntSpace::Empty => return Ok(Vec::new()),
            IntSpace::All => {
                let all = (0..(to - from) as u32).collect();
                return Ok(filter_nulls(&self.nulls, from, all));
            }
        };
        let bytes = raw(&self.bytes);
        let on_encoded = match (&mut self.state, pred, ints) {
            (State::Pfor(f), _, Some((op, lit))) => Some(pfor_eval(f, bytes, op, lit, from, to)),
            (State::PforDelta { frame, run }, _, Some((op, lit))) => {
                let vals = run.slice(frame, bytes, from, to);
                Some(select_ints(vals.iter().copied(), op, lit))
            }
            (State::Pfor(f), Pred::InSet(set), _) if f.pow10.is_none() => {
                Some(pfor_set_eval(f, bytes, set, from, to))
            }
            (State::PforDelta { frame, run }, Pred::InSet(set), _) if frame.pow10.is_none() => {
                let vals = run.slice(frame, bytes, from, to);
                Some(select_set(vals.iter().copied(), set))
            }
            (State::PlainInt { width }, Pred::InSet(set), _) => {
                let (body, w) = (self.body, *width);
                let ints = bytes[body + from * w..body + to * w].chunks_exact(w);
                Some(if w == 4 {
                    let ints = ints.map(|c| i32::from_le_bytes(c.try_into().unwrap()) as i64);
                    select_set(ints, set)
                } else {
                    let ints = ints.map(|c| i64::from_le_bytes(c.try_into().unwrap()));
                    select_set(ints, set)
                })
            }
            (State::Rle { vals, starts }, Pred::Cmp { .. } | Pred::InSet(_), _) => {
                Some(rle_eval(vals, starts, phys, pred, from, to)?)
            }
            (State::Pdict(d), _, _) => Some(pdict_eval(d, bytes, self.n, pred, from, to)?),
            (State::PlainF64, Pred::Cmp { op, value }, _) if value.as_f64().is_some() => {
                let lit = value.as_f64().unwrap();
                Some(plain_f64_eval(bytes, self.body, *op, lit, from, to))
            }
            (State::PlainStr(layout), _, _) => {
                Some(plain_str_eval(layout.over(bytes), pred, from, to)?)
            }
            _ => None,
        };
        let raw = match on_encoded {
            Some(sel) => sel,
            None => self.eval_generic(pred, from, to)?,
        };
        Ok(filter_nulls(&self.nulls, from, raw))
    }

    /// The later conjuncts of a conjunction: keep the positions of `cands`
    /// — ascending, relative to `from`, as [`BlockCursor::eval_pred`] returns
    /// them — whose value satisfies `pred`, so that the list afterwards is
    /// `eval_pred(pred, from, to)` intersected with the list before. Only
    /// the candidates are visited: PLAIN, PFOR and PDICT values by random
    /// access (or, while the list is dense, one sequential pass over the
    /// vector into a mask), RLE by walking the runs beside the list;
    /// PFOR-DELTA and boolean blocks decode the slice first. `conjunct`
    /// names the predicate for this cursor's lifetime (a PDICT block finds
    /// its code set again by it) and must always come with the same `pred`.
    pub fn narrow(
        &mut self,
        conjunct: usize,
        pred: &Pred,
        from: usize,
        to: usize,
        cands: &mut Vec<u32>,
    ) -> Result<()> {
        if from > to || to > self.n {
            return Err(err("slice out of range"));
        }
        let n = to - from;
        if cands.iter().any(|&p| p as usize >= n) {
            return Err(err("candidate position out of range"));
        }
        let phys = self.phys;
        let int_pred;
        let (pred, ints) = match int_space(phys, self.state.decimal(), pred) {
            IntSpace::Values(p) => (p, None),
            IntSpace::Ints(op, lit) => {
                int_pred = Pred::Cmp {
                    op,
                    value: Value::I64(lit),
                };
                (&int_pred, Some((op, lit)))
            }
            IntSpace::Empty => {
                cands.clear();
                return Ok(());
            }
            IntSpace::All => {
                drop_nulls(&self.nulls, from, cands);
                return Ok(());
            }
        };
        let bytes = raw(&self.bytes);
        let body = self.body;
        // Unpacking the whole vector costs the same however few candidates
        // are left; see `DENSE_PCT`.
        let dense = cands.len() * 100 >= n * DENSE_PCT;
        let mask = &mut self.mask;
        let on_encoded = match (&mut self.state, pred, ints) {
            (State::Pfor(f), _, Some((op, lit))) => {
                pfor_narrow(f, bytes, op, lit, from, to, cands, dense.then_some(mask));
                true
            }
            (State::PforDelta { frame, run }, _, Some((op, lit))) => {
                let vals = run.slice(frame, bytes, from, to);
                macro_rules! run {
                    ($test:expr) => {{
                        let test = $test;
                        retain_where(cands, |p| test(vals[p]))
                    }};
                }
                match_op!(op, lit, run);
                true
            }
            (State::Pfor(f), Pred::InSet(set), _) if f.pow10.is_none() => {
                pfor_set_narrow(f, bytes, set, from, to, cands, dense.then_some(mask));
                true
            }
            (State::PforDelta { frame, run }, Pred::InSet(set), _) if frame.pow10.is_none() => {
                let vals = run.slice(frame, bytes, from, to);
                retain_set(cands, set, |p| vals[p]);
                true
            }
            (State::PlainInt { width: 4 }, Pred::InSet(set), _) => {
                retain_set(cands, set, |p| {
                    i32::from_le_bytes(fixed_at(bytes, body, from + p)) as i64
                });
                true
            }
            (State::PlainInt { .. }, Pred::InSet(set), _) => {
                retain_set(cands, set, |p| {
                    i64::from_le_bytes(fixed_at(bytes, body, from + p))
                });
                true
            }
            (State::Rle { vals, starts }, Pred::Cmp { .. } | Pred::InSet(_), _) => {
                rle_narrow(vals, starts, phys, pred, from, cands)?;
                true
            }
            (State::Pdict(d), _, _) => {
                let codes = d.codes(bytes, self.n);
                let width = d.width;
                let set = d.code_set(Some(conjunct), pred)?;
                // A code outside the dictionary is remembered, not branched on.
                let mut corrupt = false;
                let mut hit = |c: u64| match set.get(c as usize) {
                    Some(&m) => m,
                    None => {
                        corrupt = true;
                        false
                    }
                };
                if dense {
                    mask.clear();
                    mask.resize(n, false);
                    unpack_range(codes, from, to, width, |i, c| mask[i] = hit(c));
                    retain_where(cands, |p| mask[p]);
                } else {
                    retain_where(cands, |p| hit(unpack_at(codes, from + p, width)));
                }
                if corrupt {
                    return Err(err("pdict code"));
                }
                true
            }
            (State::PlainF64, Pred::Cmp { op, value }, _) if value.as_f64().is_some() => {
                let lit = value.as_f64().unwrap();
                macro_rules! run {
                    ($test:expr) => {{
                        let test = $test;
                        retain_where(cands, |p| {
                            test(f64::from_le_bytes(fixed_at(bytes, body, from + p)))
                        })
                    }};
                }
                match_op!(*op, lit, run);
                true
            }
            (State::PlainInt { width }, _, Some((op, lit))) => {
                let narrow = *width == 4;
                macro_rules! run {
                    ($test:expr) => {{
                        let test = $test;
                        if narrow {
                            retain_where(cands, |p| {
                                test(i32::from_le_bytes(fixed_at(bytes, body, from + p)) as i64)
                            })
                        } else {
                            retain_where(cands, |p| {
                                test(i64::from_le_bytes(fixed_at(bytes, body, from + p)))
                            })
                        }
                    }};
                }
                match_op!(op, lit, run);
                true
            }
            (State::PlainStr(layout), _, _) => {
                let strs = layout.over(bytes);
                retain_checked(cands, |p| pred.matches_str(strs.get(from + p)))?;
                true
            }
            _ => false,
        };
        if !on_encoded {
            let col = self.decode_slice(from, to)?;
            retain_checked(cands, |p| value_matches(&col.data, p, pred))?;
        }
        drop_nulls(&self.nulls, from, cands);
        Ok(())
    }

    /// What a scan materializes of one vector: the positions `from + sel[i]`
    /// as [`BlockCursor::decode_selected`] returns them, or without a list
    /// all of `[from, to)` as [`BlockCursor::decode_slice`] does — except
    /// that a PDICT block comes back in dictionary form, its codes checked
    /// against the dictionary, and no string is built.
    pub fn vector(
        &mut self,
        from: usize,
        to: usize,
        sel: Option<&[u32]>,
    ) -> Result<NullableColumn> {
        let State::Pdict(d) = &self.state else {
            return match sel {
                Some(sel) => self.decode_selected(from, to, sel),
                None => self.decode_slice(from, to),
            };
        };
        if from > to || to > self.n {
            return Err(err("slice out of range"));
        }
        if sel.is_some_and(|s| s.iter().any(|&p| p as usize >= to - from)) {
            return Err(err("selected position out of range"));
        }
        let data = d.vector(raw(&self.bytes), self.n, from, to, sel)?;
        let nulls = self.nulls_at(from, to, sel);
        Ok(NullableColumn::new(ColumnData::Dict(data), nulls).normalize())
    }

    /// Fallback: decode the slice and compare value by value. Still
    /// vector-granular — PFOR-DELTA keeps its resume checkpoint so the
    /// materializing `decode_slice` that usually follows is cheap.
    fn eval_generic(&mut self, pred: &Pred, from: usize, to: usize) -> Result<Vec<u32>> {
        let col = self.decode_slice(from, to)?;
        // Integers against an integer literal — a PLAIN integer column —
        // compare without a branch per value; the caller drops NULL
        // positions.
        if let Pred::Cmp { op, value } = pred {
            match (&col.data, value.as_i64()) {
                (ColumnData::I64(v), Some(lit)) => {
                    return Ok(select_ints(v.iter().copied(), *op, lit))
                }
                (ColumnData::I32(v), Some(lit)) => {
                    return Ok(select_ints(v.iter().map(|&x| x as i64), *op, lit))
                }
                _ => {}
            }
        }
        let mut sel = Vec::new();
        for i in 0..col.len() {
            if col.is_null(i) {
                continue;
            }
            if value_matches(&col.data, i, pred)? {
                sel.push(i as u32);
            }
        }
        Ok(sel)
    }
}

fn parse_state(
    bytes: &[u8],
    body: usize,
    phys: u8,
    scheme: CompressionScheme,
    n: usize,
) -> Result<State> {
    use CompressionScheme as S;
    let b = &bytes[body..];
    match (phys, scheme) {
        (PHYS_BOOL, S::Plain) => {
            let (bits, _) = BitVec::from_bytes(b).ok_or_else(|| err("bitmap"))?;
            if bits.len() != n {
                return Err(err("bitmap length"));
            }
            Ok(State::Bool(bits))
        }
        (PHYS_I32 | PHYS_I64, S::Plain) => {
            let width = if phys == PHYS_I32 { 4 } else { 8 };
            if b.len() < n * width {
                return Err(err("plain ints"));
            }
            Ok(State::PlainInt { width })
        }
        (PHYS_I32 | PHYS_I64 | PHYS_F64, S::Rle) => parse_rle(b, n),
        (PHYS_I32 | PHYS_I64 | PHYS_F64, S::Pfor | S::PforDelta) => {
            // A DOUBLE frame is preceded by its decimal scale.
            let (pow10, at) = match phys {
                PHYS_F64 => {
                    let scale = *b.first().ok_or_else(|| err("decimal scale"))?;
                    (Some(pow10(scale).ok_or_else(|| err("decimal scale"))?), 1)
                }
                _ => (None, 0),
            };
            let frame = Frame {
                pow10,
                ..parse_frame(&b[at..], body + at, n)?
            };
            Ok(match scheme {
                S::Pfor => State::Pfor(frame),
                _ => State::PforDelta {
                    frame,
                    run: DeltaRun::default(),
                },
            })
        }
        (PHYS_F64, S::Plain) => {
            if b.len() < n * 8 {
                return Err(err("plain f64"));
            }
            Ok(State::PlainF64)
        }
        (PHYS_STR, S::Pdict) => parse_dict(b, body, n),
        (PHYS_STR, S::Plain) => parse_plain_str(b, body, n),
        _ => Err(err("bad scheme for physical type")),
    }
}

fn parse_frame(b: &[u8], body: usize, n: usize) -> Result<Frame> {
    if b.len() < 13 {
        return Err(err("pfor header"));
    }
    let base = i64::from_le_bytes(b[0..8].try_into().unwrap());
    let width = b[8] as u32;
    if width > 64 {
        return Err(err("pfor width"));
    }
    let n_exc = u32::from_le_bytes(b[9..13].try_into().unwrap()) as usize;
    let plen = packed_len(n, width);
    if b.len() < 13 + plen + n_exc * 12 {
        return Err(err("pfor body"));
    }
    let pos_start = 13 + plen;
    let val_start = pos_start + n_exc * 4;
    let mut exc_pos = Vec::with_capacity(n_exc);
    let mut exc_val = Vec::with_capacity(n_exc);
    let mut prev: Option<u32> = None;
    for i in 0..n_exc {
        let p = u32::from_le_bytes(
            b[pos_start + i * 4..pos_start + i * 4 + 4]
                .try_into()
                .unwrap(),
        );
        // The encoder emits positions strictly ascending; range slicing
        // relies on it, so reject anything else as corrupt.
        if p as usize >= n || prev.is_some_and(|q| q >= p) {
            return Err(err("pfor exceptions"));
        }
        prev = Some(p);
        exc_pos.push(p);
        exc_val.push(i64::from_le_bytes(
            b[val_start + i * 8..val_start + i * 8 + 8]
                .try_into()
                .unwrap(),
        ));
    }
    Ok(Frame {
        base,
        width,
        packed: (body + 13, body + 13 + plen),
        exc_pos,
        exc_val,
        pow10: None,
        table: None,
    })
}

fn parse_rle(b: &[u8], n: usize) -> Result<State> {
    if b.len() < 4 {
        return Err(err("rle header"));
    }
    let n_runs = u32::from_le_bytes(b[0..4].try_into().unwrap()) as usize;
    if b.len() < 4 + n_runs * 12 {
        return Err(err("rle body"));
    }
    let mut vals = Vec::with_capacity(n_runs);
    let mut starts = Vec::with_capacity(n_runs + 1);
    starts.push(0usize);
    let mut total = 0usize;
    for i in 0..n_runs {
        let s = 4 + i * 12;
        vals.push(b[s..s + 8].try_into().unwrap());
        total += u32::from_le_bytes(b[s + 8..s + 12].try_into().unwrap()) as usize;
        starts.push(total);
    }
    if total != n {
        return Err(err("rle length"));
    }
    Ok(State::Rle { vals, starts })
}

fn parse_dict(b: &[u8], body: usize, n: usize) -> Result<State> {
    if b.len() < 8 {
        return Err(err("pdict header"));
    }
    let n_dict = u32::from_le_bytes(b[0..4].try_into().unwrap()) as usize;
    let dict_bytes_len = u32::from_le_bytes(b[4..8].try_into().unwrap()) as usize;
    let mut off = 8;
    if b.len() < off + dict_bytes_len + (n_dict + 1) * 4 + 1 {
        return Err(err("pdict body"));
    }
    let dict_bytes = &b[off..off + dict_bytes_len];
    off += dict_bytes_len;
    let mut offsets = Vec::with_capacity(n_dict + 1);
    for i in 0..=n_dict {
        offsets
            .push(u32::from_le_bytes(b[off + i * 4..off + i * 4 + 4].try_into().unwrap()) as usize);
    }
    off += (n_dict + 1) * 4;
    let width = b[off] as u32;
    off += 1;
    if width > 32 || b.len() < off + packed_len(n, width) {
        return Err(err("pdict codes"));
    }
    let mut dict = StrColumn::with_capacity(n_dict, dict_bytes_len);
    for c in 0..n_dict {
        if offsets[c] > offsets[c + 1] || offsets[c + 1] > dict_bytes.len() {
            return Err(err("pdict offsets"));
        }
        dict.push(
            std::str::from_utf8(&dict_bytes[offsets[c]..offsets[c + 1]])
                .map_err(|_| err("pdict utf8"))?,
        );
    }
    Ok(State::Pdict(DictState {
        dict: Arc::new(dict),
        codes_start: body + off,
        width,
        pred_sets: Vec::new(),
        by_conjunct: Vec::new(),
    }))
}

fn parse_plain_str(b: &[u8], body: usize, n: usize) -> Result<State> {
    if b.len() < 4 {
        return Err(err("plain str header"));
    }
    let nbytes = u32::from_le_bytes(b[0..4].try_into().unwrap()) as usize;
    let need = 4 + nbytes + (n + 1) * 4;
    if b.len() < need {
        return Err(err("plain str body"));
    }
    let obase = 4 + nbytes;
    let mut prev = 0u32;
    for i in 0..=n {
        let o = u32::from_le_bytes(b[obase + i * 4..obase + i * 4 + 4].try_into().unwrap());
        if o < prev || o as usize > nbytes {
            return Err(err("str offsets"));
        }
        prev = o;
    }
    std::str::from_utf8(&b[4..4 + nbytes]).map_err(|_| err("utf8"))?;
    Ok(State::PlainStr(StrLayout {
        str_start: body + 4,
        offs_start: body + 4 + nbytes,
    }))
}

/// Widened i64 values back to their physical column type.
fn int_data(phys: u8, wide: Vec<i64>) -> Result<ColumnData> {
    if phys == PHYS_I32 {
        let mut fits = true;
        let narrow = wide
            .iter()
            .map(|&v| {
                fits &= v as i32 as i64 == v;
                v as i32
            })
            .collect();
        if !fits {
            return Err(err("i32 overflow"));
        }
        Ok(ColumnData::I32(narrow))
    } else {
        Ok(ColumnData::I64(wide))
    }
}

/// Values `[from, to)` of the runs `(vals, starts)`, each run's value
/// converted once and repeated.
fn rle_slice<T: Copy>(
    (vals, starts): (&[[u8; 8]], &[usize]),
    from: usize,
    to: usize,
    value: impl Fn([u8; 8]) -> T,
) -> Vec<T> {
    let mut out = Vec::with_capacity(to - from);
    if from == to {
        return out;
    }
    let mut r = starts.partition_point(|&s| s <= from) - 1;
    while r < vals.len() && starts[r] < to {
        let v = value(vals[r]);
        for _ in starts[r].max(from)..starts[r + 1].min(to) {
            out.push(v);
        }
        r += 1;
    }
    out
}

/// Decode frame values `[from, to)`: unpack the delta range, add the base,
/// patch exceptions.
fn frame_values(f: &Frame, bytes: &[u8], from: usize, to: usize) -> Vec<i64> {
    // In place; wrapping: a width-64 delta reaches past `i64::MAX - base`.
    let mut vals: Vec<i64> = f
        .deltas(bytes, from, to)
        .into_iter()
        .map(|d| f.base.wrapping_add(d as i64))
        .collect();
    let (lo, hi) = f.exceptions_in(from, to);
    for k in lo..hi {
        vals[f.exc_pos[k] as usize - from] = f.exc_val[k];
    }
    vals
}

/// Can every packed (non-exception) value of the frame be narrowed to i32?
/// Decided once per frame from `base` and `width`.
fn frame_fits_i32(f: &Frame) -> bool {
    f.width < 32 && f.base >= i32::MIN as i64 && f.base + ((1i64 << f.width) - 1) <= i32::MAX as i64
}

/// Frame values in the column's physical type: a decimal frame's scaled
/// integers as their doubles.
fn frame_data(f: &Frame, phys: u8, wide: Vec<i64>) -> Result<ColumnData> {
    match f.pow10 {
        // In place: the doubles reuse the integers' allocation.
        Some(p) => Ok(ColumnData::F64(
            wide.into_iter().map(|d| decimal_value(d, p)).collect(),
        )),
        None => int_data(phys, wide),
    }
}

/// Frame values `[from, to)` in the column's physical type. A decimal frame
/// narrow enough looks every delta up in its table of doubles, and an i32
/// column whose frame fits i32 narrows, each in one pass over the deltas
/// with only the patched exceptions checked; otherwise every value is
/// widened, patched and then converted.
fn frame_column(
    f: &mut Frame,
    bytes: &[u8],
    phys: u8,
    from: usize,
    to: usize,
) -> Result<ColumnData> {
    if let Some(p) = f.pow10.filter(|_| f.width <= TABLE_WIDTH) {
        let deltas = f.deltas(bytes, from, to);
        let base = f.base;
        let table = f.table.get_or_insert_with(|| {
            Box::new(std::array::from_fn(|d| {
                decimal_value(base.wrapping_add(d as i64), p)
            }))
        });
        // A delta is below 2^width ≤ 2^TABLE_WIDTH: the cast loses nothing.
        let mut vals: Vec<f64> = deltas
            .into_iter()
            .map(|d| table[d as u8 as usize])
            .collect();
        let (lo, hi) = f.exceptions_in(from, to);
        for k in lo..hi {
            vals[f.exc_pos[k] as usize - from] = decimal_value(f.exc_val[k], p);
        }
        return Ok(ColumnData::F64(vals));
    }
    if phys != PHYS_I32 || !frame_fits_i32(f) {
        let wide = frame_values(f, bytes, from, to);
        return frame_data(f, phys, wide);
    }
    let mut vals: Vec<i32> = f
        .deltas(bytes, from, to)
        .into_iter()
        .map(|d| (f.base + d as i64) as i32)
        .collect();
    let (lo, hi) = f.exceptions_in(from, to);
    for k in lo..hi {
        vals[f.exc_pos[k] as usize - from] =
            i32::try_from(f.exc_val[k]).map_err(|_| err("i32 overflow"))?;
    }
    Ok(ColumnData::I32(vals))
}

/// Frame values at positions `from + sel[i]`, by random access into the
/// packed deltas; exceptions inside `[from, to)` are looked up per position.
fn frame_selected(
    f: &Frame,
    bytes: &[u8],
    phys: u8,
    from: usize,
    to: usize,
    sel: &[u32],
) -> Result<ColumnData> {
    let packed = &bytes[f.packed.0..f.packed.1];
    let (lo, hi) = f.exceptions_in(from, to);
    let exc_pos = &f.exc_pos[lo..hi];
    let value_at = |i: usize| f.base.wrapping_add(unpack_at(packed, i, f.width) as i64);
    let wide = if exc_pos.is_empty() {
        sel.iter().map(|&p| value_at(from + p as usize)).collect()
    } else {
        sel.iter()
            .map(|&p| {
                let i = from + p as usize;
                match exc_pos.binary_search(&(i as u32)) {
                    Ok(k) => f.exc_val[lo + k],
                    Err(_) => value_at(i),
                }
            })
            .collect()
    };
    frame_data(f, phys, wide)
}

/// Decode PFOR-DELTA values `[from, to)`, resuming the prefix sum from the
/// cursor position (or its checkpoint) when possible.
fn delta_values(
    frame: &Frame,
    bytes: &[u8],
    run: &mut DeltaRun,
    from: usize,
    to: usize,
) -> Vec<i64> {
    let DeltaRun { pos, acc, ck, .. } = run;
    if from == to {
        return Vec::new();
    }
    if from < *pos {
        (*pos, *acc) = match *ck {
            Some((ci, ca)) if ci <= from => (ci, ca),
            _ => (0, 0),
        };
    }
    if *pos < from {
        let skipped = frame_values(frame, bytes, *pos, from);
        *acc = skipped.into_iter().fold(*acc, i64::wrapping_add);
    }
    *ck = Some((from, *acc));
    // The deltas become the values in place.
    let mut vals = frame_values(frame, bytes, from, to);
    for v in &mut vals {
        *acc = acc.wrapping_add(*v);
        *v = *acc;
    }
    *pos = to;
    vals
}

/// Positions of the values passing `test`, ascending, built without a branch
/// per value: every index is written and the output cursor advances by the
/// test's result.
#[inline(always)]
fn select_where<T>(
    vals: impl ExactSizeIterator<Item = T>,
    mut test: impl FnMut(T) -> bool,
) -> Vec<u32> {
    let mut out = vec![0u32; vals.len()];
    let mut k = 0usize;
    for (i, v) in vals.enumerate() {
        out[k] = i as u32;
        k += test(v) as usize;
    }
    out.truncate(k);
    out
}

/// `select_where(v <op> lit)` with the operator matched once, outside the
/// per-value loop.
fn select_ints(vals: impl ExactSizeIterator<Item = i64>, op: PredOp, lit: i64) -> Vec<u32> {
    match op {
        PredOp::Eq => select_where(vals, |v| v == lit),
        PredOp::Ne => select_where(vals, |v| v != lit),
        PredOp::Lt => select_where(vals, |v| v < lit),
        PredOp::Le => select_where(vals, |v| v <= lit),
        PredOp::Gt => select_where(vals, |v| v > lit),
        PredOp::Ge => select_where(vals, |v| v >= lit),
    }
}

/// Positions of `[from, to)` whose packed value passes `test`, relative to
/// `from`; branch-free like [`select_where`]. `skip` lists ascending
/// absolute positions (PFOR exceptions) whose packed value means nothing;
/// `skip_matches(k)` decides the `k`-th of them instead.
#[inline(always)]
fn select_packed(
    packed: &[u8],
    width: u32,
    from: usize,
    to: usize,
    skip: &[u32],
    skip_matches: impl Fn(usize) -> bool,
    mut test: impl FnMut(u64) -> bool,
) -> Vec<u32> {
    let mut out = vec![0u32; to - from];
    let mut k = 0usize;
    let mut start = from;
    for (e, &p) in skip.iter().enumerate() {
        let p = p as usize;
        unpack_range(packed, start, p, width, |i, v| {
            out[k] = (start - from + i) as u32;
            k += test(v) as usize;
        });
        out[k] = (p - from) as u32;
        k += skip_matches(e) as usize;
        start = p + 1;
    }
    unpack_range(packed, start, to, width, |i, v| {
        out[k] = (start - from + i) as u32;
        k += test(v) as usize;
    });
    out.truncate(k);
    out
}

/// PFOR predicate in delta space: translate the literal once, compare packed
/// deltas as unsigned ints, decide exceptions with a real i64 compare.
fn pfor_eval(f: &Frame, bytes: &[u8], op: PredOp, lit: i64, from: usize, to: usize) -> Vec<u32> {
    let (lo, hi) = f.exceptions_in(from, to);
    let exc_pos = &f.exc_pos[lo..hi];
    let exc_matches = |k: usize| op.matches_ord(f.exc_val[lo + k].cmp(&lit));
    let tu = match f.delta_literal(op, lit) {
        Ok(tu) => tu,
        Err(all) => {
            // No unpack needed at all.
            let rel = |p: usize| (p - from) as u32;
            let mut sel = Vec::with_capacity(if all { to - from } else { exc_pos.len() });
            let mut start = from;
            for (k, &p) in exc_pos.iter().enumerate() {
                if all {
                    sel.extend(rel(start)..rel(p as usize));
                }
                if exc_matches(k) {
                    sel.push(rel(p as usize));
                }
                start = p as usize + 1;
            }
            if all {
                sel.extend(rel(start)..rel(to));
            }
            return sel;
        }
    };
    let packed = &bytes[f.packed.0..f.packed.1];
    // The operator is matched once, outside the per-value loop.
    macro_rules! run {
        ($test:expr) => {
            select_packed(packed, f.width, from, to, exc_pos, exc_matches, $test)
        };
    }
    match_op!(op, tu, run)
}

/// [`BlockCursor::narrow`] in delta space. With `mask` the whole vector is
/// unpacked once into it and the list filtered by it (the dense path);
/// without, each candidate's delta is unpacked on its own. Exceptions are
/// decided with a real i64 compare either way.
#[allow(clippy::too_many_arguments)]
fn pfor_narrow(
    f: &Frame,
    bytes: &[u8],
    op: PredOp,
    lit: i64,
    from: usize,
    to: usize,
    cands: &mut Vec<u32>,
    mask: Option<&mut Vec<bool>>,
) {
    let (lo, hi) = f.exceptions_in(from, to);
    let exc_pos = &f.exc_pos[lo..hi];
    let exc_matches = |k: usize| op.matches_ord(f.exc_val[lo + k].cmp(&lit));
    let exception_at = |p: usize| exc_pos.binary_search(&((from + p) as u32));
    let tu = match f.delta_literal(op, lit) {
        Ok(tu) => tu,
        Err(all) => {
            match (exc_pos.is_empty(), all) {
                (true, true) => {}
                (true, false) => cands.clear(),
                _ => retain_where(cands, |p| exception_at(p).map_or(all, exc_matches)),
            }
            return;
        }
    };
    let packed = &bytes[f.packed.0..f.packed.1];
    if let Some(mask) = mask {
        mask.clear();
        mask.resize(to - from, false);
        macro_rules! run {
            ($test:expr) => {{
                let test = $test;
                unpack_range(packed, from, to, f.width, |i, d| mask[i] = test(d))
            }};
        }
        match_op!(op, tu, run);
        for (k, &p) in exc_pos.iter().enumerate() {
            mask[p as usize - from] = exc_matches(k);
        }
        retain_where(cands, |p| mask[p]);
    } else if exc_pos.is_empty() {
        macro_rules! run {
            ($test:expr) => {{
                let test = $test;
                retain_where(cands, |p| test(unpack_at(packed, from + p, f.width)))
            }};
        }
        match_op!(op, tu, run);
    } else {
        macro_rules! run {
            ($test:expr) => {{
                let test = $test;
                retain_where(cands, |p| match exception_at(p) {
                    Ok(k) => exc_matches(k),
                    Err(_) => test(unpack_at(packed, from + p, f.width)),
                })
            }};
        }
        match_op!(op, tu, run);
    }
}

/// Membership of PFOR values in a key set, tested on the packed deltas:
/// the frame's distance to the set's `lo` is added to each delta once, no
/// value is reconstructed. Exceptions are tested as values.
fn pfor_set_eval(f: &Frame, bytes: &[u8], set: &KeySet, from: usize, to: usize) -> Vec<u32> {
    let (lo, hi) = f.exceptions_in(from, to);
    let exc_pos = &f.exc_pos[lo..hi];
    let exc_matches = |k: usize| set.contains(f.exc_val[lo + k]);
    let packed = &bytes[f.packed.0..f.packed.1];
    let off = (f.base as u64).wrapping_sub(set.lo as u64);
    macro_rules! run {
        ($test:expr) => {
            select_packed(packed, f.width, from, to, exc_pos, exc_matches, $test)
        };
    }
    match_set!(set, off, run)
}

/// [`BlockCursor::narrow`] by a key set on the packed deltas, dense (one
/// pass into `mask`) or by random access, like [`pfor_narrow`].
fn pfor_set_narrow(
    f: &Frame,
    bytes: &[u8],
    set: &KeySet,
    from: usize,
    to: usize,
    cands: &mut Vec<u32>,
    mask: Option<&mut Vec<bool>>,
) {
    let (lo, hi) = f.exceptions_in(from, to);
    let exc_pos = &f.exc_pos[lo..hi];
    let exc_matches = |k: usize| set.contains(f.exc_val[lo + k]);
    let packed = &bytes[f.packed.0..f.packed.1];
    let off = (f.base as u64).wrapping_sub(set.lo as u64);
    if let Some(mask) = mask {
        mask.clear();
        mask.resize(to - from, false);
        macro_rules! run {
            ($test:expr) => {{
                let test = $test;
                unpack_range(packed, from, to, f.width, |i, d| mask[i] = test(d))
            }};
        }
        match_set!(set, off, run);
        for (k, &p) in exc_pos.iter().enumerate() {
            mask[p as usize - from] = exc_matches(k);
        }
        retain_where(cands, |p| mask[p]);
    } else {
        let exception_at = |p: usize| exc_pos.binary_search(&((from + p) as u32));
        macro_rules! run {
            ($test:expr) => {{
                let test = $test;
                retain_where(cands, |p| match exception_at(p) {
                    Ok(k) => exc_matches(k),
                    Err(_) => test(unpack_at(packed, from + p, f.width)),
                })
            }};
        }
        match_set!(set, off, run);
    }
}

/// A predicate over the strings `[from, to)` of a PLAIN block, in place. A
/// substring pattern is searched for over the vector's whole byte range —
/// the strings lie back to back — and each hit is mapped to its row through
/// the offsets; a hit that runs over the end of its row is no match.
fn plain_str_eval(strs: PlainStrs<'_>, pred: &Pred, from: usize, to: usize) -> Result<Vec<u32>> {
    let (needle, negated) = match pred {
        Pred::Like { pattern, negated }
            if pattern.shape() == LikeShape::Contains && !pattern.literal().is_empty() =>
        {
            (pattern.literal(), *negated)
        }
        _ => {
            let mut bad = None;
            let sel = select_where(from..to, |i| {
                pred.matches_str(strs.get(i)).unwrap_or_else(|e| {
                    bad.get_or_insert(e);
                    false
                })
            });
            return bad.map_or(Ok(sel), Err);
        }
    };
    let (lo, hi) = (strs.off(from), strs.off(to));
    let hay = &strs.bytes[strs.str_start + lo..strs.str_start + hi];
    let mut sel = Vec::new();
    // `next`: the first row not yet decided; a negated pattern selects the
    // rows the search passes over.
    let (mut row, mut next, mut at) = (from, from, 0usize);
    while let Some(q) = find(hay, needle, at) {
        while strs.off(row + 1) <= lo + q {
            row += 1;
        }
        let row_end = strs.off(row + 1);
        if lo + q + needle.len() > row_end {
            at = q + 1;
            continue;
        }
        if negated {
            sel.extend((next - from) as u32..(row - from) as u32);
        } else {
            sel.push((row - from) as u32);
        }
        next = row + 1;
        at = row_end - lo;
    }
    if negated {
        sel.extend((next - from) as u32..(to - from) as u32);
    }
    Ok(sel)
}

/// RLE predicate: one test per run, O(runs) selection output.
fn rle_eval(
    vals: &[[u8; 8]],
    starts: &[usize],
    phys: u8,
    pred: &Pred,
    from: usize,
    to: usize,
) -> Result<Vec<u32>> {
    let mut sel = Vec::new();
    if from == to {
        return Ok(sel);
    }
    let mut r = starts.partition_point(|&s| s <= from) - 1;
    while r < vals.len() && starts[r] < to {
        let lo = starts[r].max(from);
        let hi = starts[r + 1].min(to);
        if lo < hi && rle_matches(vals[r], phys, pred)? {
            sel.extend((lo - from) as u32..(hi - from) as u32);
        }
        r += 1;
    }
    Ok(sel)
}

/// Does the value of one run satisfy a comparison or set predicate?
fn rle_matches(run: [u8; 8], phys: u8, pred: &Pred) -> Result<bool> {
    match (phys, pred) {
        (PHYS_F64, Pred::Cmp { op, value }) => {
            let b = value.as_f64().ok_or_else(|| type_err("f64"))?;
            Ok(op.matches_f64(f64::from_le_bytes(run), b))
        }
        (PHYS_I32 | PHYS_I64, Pred::Cmp { op, value }) => {
            int_matches(i64::from_le_bytes(run), *op, value)
        }
        (PHYS_I32 | PHYS_I64, Pred::InSet(set)) => Ok(set.contains(i64::from_le_bytes(run))),
        (PHYS_F64, _) => Err(type_err("f64")),
        _ => Err(err("rle physical type")),
    }
}

/// [`BlockCursor::narrow`] over runs: the list and the runs both ascend, so
/// one walk serves both and each run met is compared once.
fn rle_narrow(
    vals: &[[u8; 8]],
    starts: &[usize],
    phys: u8,
    pred: &Pred,
    from: usize,
    cands: &mut Vec<u32>,
) -> Result<()> {
    let Some(&first) = cands.first() else {
        return Ok(());
    };
    // The run holding the first candidate; `starts` ends with the block's
    // length, which every candidate is below.
    let mut r = starts.partition_point(|&s| s <= from + first as usize) - 1;
    let mut verdict = rle_matches(vals[r], phys, pred);
    retain_checked(cands, |p| {
        if starts[r + 1] <= from + p {
            while starts[r + 1] <= from + p {
                r += 1;
            }
            verdict = rle_matches(vals[r], phys, pred);
        }
        verdict.clone()
    })
}

/// PDICT predicate: rewrite into code space once per (block, predicate),
/// then probe the bitmap per bit-packed code.
fn pdict_eval(
    d: &mut DictState,
    bytes: &[u8],
    n: usize,
    pred: &Pred,
    from: usize,
    to: usize,
) -> Result<Vec<u32>> {
    let (codes, width) = (d.codes(bytes, n), d.width);
    let set = d.code_set(None, pred)?;
    // The bitmap answers every predicate shape, so the loop has no operator
    // to match; a code outside the dictionary is remembered, not branched on.
    let mut corrupt = false;
    let sel = select_packed(
        codes,
        width,
        from,
        to,
        &[],
        |_| false,
        |c| match set.get(c as usize) {
            Some(&m) => m,
            None => {
                corrupt = true;
                false
            }
        },
    );
    if corrupt {
        return Err(err("pdict code"));
    }
    Ok(sel)
}

fn build_code_set(dict: &StrColumn, pred: &Pred) -> Result<Vec<bool>> {
    (0..dict.len())
        .map(|i| pred.matches_str(dict.get_bytes(i)))
        .collect()
}

/// A predicate as the kernels take it. A comparison on a block of integers
/// — an integer column, or a DOUBLE block of scaled decimals — becomes one
/// on those integers, so the packed fast paths apply and the fallback
/// compares ints instead of converting every value to f64.
enum IntSpace<'a> {
    /// Not a comparison on integers: the predicate over the decoded values.
    Values(&'a Pred),
    /// `<op> lit` over the block's integers.
    Ints(PredOp, i64),
    /// No value can match (e.g. `x = 24.5` on integers).
    Empty,
    /// Every non-NULL value matches (e.g. `x != 24.5` on integers).
    All,
}

/// Translate `pred` into integer space for a column of physical type `phys`,
/// given `10^scale` when the block holds a decimal frame. An integer column
/// takes an integer literal as it is; a float literal `l` against values
/// `v = d / 10^scale` (scale 0 for an integer column) becomes a bound on
/// `d`. Division by `10^scale` is correctly rounded and so monotone in `d`:
/// `v >= l` holds exactly for `d` from the smallest `d` whose value is
/// `>= l`, found from `round(l·10^scale)` by checking its neighbours. The
/// literal is the `f64` the PLAIN kernel compares with, so a decimal block
/// selects the rows a PLAIN block of the same values does.
fn int_space(phys: u8, decimal: Option<f64>, pred: &Pred) -> IntSpace<'_> {
    let Pred::Cmp { op, value } = pred else {
        return IntSpace::Values(pred);
    };
    let (l, p) = match (phys, value, decimal) {
        (PHYS_I32 | PHYS_I64, Value::F64(l), _) => (*l, 1.0),
        (PHYS_I32 | PHYS_I64, v, _) => {
            return v
                .as_i64()
                .map_or(IntSpace::Values(pred), |lit| IntSpace::Ints(*op, lit))
        }
        (PHYS_F64, v, Some(p)) if v.as_f64().is_some() => (v.as_f64().unwrap(), p),
        _ => return IntSpace::Values(pred),
    };
    // NaN, and literals whose scaled value is near or past ±2^53, where the
    // rounding below loses exactness: rare enough to compare as floats.
    if l.is_nan() || l.abs() * p >= 9.0e15 {
        return IntSpace::Values(pred);
    }
    let passes = |d: i64, strict: bool| {
        let v = decimal_value(d, p);
        if strict {
            v > l
        } else {
            v >= l
        }
    };
    // The smallest `d` whose value is `>= l` (`> l` when `strict`).
    let bound = |strict: bool| {
        let mut d = (l * p).round() as i64;
        while passes(d - 1, strict) {
            d -= 1;
        }
        while !passes(d, strict) {
            d += 1;
        }
        d
    };
    let (ge, gt) = (bound(false), bound(true));
    match op {
        PredOp::Ge => IntSpace::Ints(PredOp::Ge, ge),
        PredOp::Gt => IntSpace::Ints(PredOp::Ge, gt),
        PredOp::Lt => IntSpace::Ints(PredOp::Lt, ge),
        PredOp::Le => IntSpace::Ints(PredOp::Lt, gt),
        PredOp::Eq if ge == gt => IntSpace::Empty,
        PredOp::Ne if ge == gt => IntSpace::All,
        PredOp::Eq | PredOp::Ne if gt == ge + 1 => IntSpace::Ints(*op, ge),
        // Several integers round to `l`: only next to ±2^53 / 10^scale.
        PredOp::Eq | PredOp::Ne => IntSpace::Values(pred),
    }
}

/// Compare a plain (uncompressed) f64 body against a literal without
/// materializing the slice: branchless cursor-advance over the raw bytes.
fn plain_f64_eval(
    bytes: &[u8],
    body: usize,
    op: PredOp,
    lit: f64,
    from: usize,
    to: usize,
) -> Vec<u32> {
    let vals = bytes[body + from * 8..body + to * 8]
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()));
    // The operator is matched once, outside the per-value loop.
    macro_rules! run {
        ($test:expr) => {
            select_where(vals, $test)
        };
    }
    match_op!(op, lit, run)
}

fn value_matches(data: &ColumnData, i: usize, pred: &Pred) -> Result<bool> {
    match (data, pred) {
        (ColumnData::I32(v), Pred::Cmp { op, value }) => int_matches(v[i] as i64, *op, value),
        (ColumnData::I64(v), Pred::Cmp { op, value }) => int_matches(v[i], *op, value),
        (ColumnData::F64(v), Pred::Cmp { op, value }) => {
            let b = value.as_f64().ok_or_else(|| type_err("f64"))?;
            Ok(op.matches_f64(v[i], b))
        }
        (ColumnData::I32(v), Pred::InSet(set)) => Ok(set.contains(v[i] as i64)),
        (ColumnData::I64(v), Pred::InSet(set)) => Ok(set.contains(v[i])),
        (ColumnData::Str(s), p) => p.matches_str(s.get_bytes(i)),
        _ => Err(type_err(data.type_name())),
    }
}

fn int_matches(v: i64, op: PredOp, value: &Value) -> Result<bool> {
    match value.as_i64() {
        Some(l) => Ok(op.matches_ord(v.cmp(&l))),
        None => {
            let b = value.as_f64().ok_or_else(|| type_err("int"))?;
            Ok(op.matches_f64(v as f64, b))
        }
    }
}

/// Keep the candidates that pass `test`, in place and in order, without a
/// branch per candidate.
#[inline(always)]
fn retain_where(cands: &mut Vec<u32>, mut test: impl FnMut(usize) -> bool) {
    let mut k = 0usize;
    for j in 0..cands.len() {
        let p = cands[j];
        cands[k] = p;
        k += test(p as usize) as usize;
    }
    cands.truncate(k);
}

/// [`retain_where`] with a test that can fail: the first error is returned
/// (the list is then meaningless).
fn retain_checked(cands: &mut Vec<u32>, mut test: impl FnMut(usize) -> Result<bool>) -> Result<()> {
    let mut bad = None;
    retain_where(cands, |p| {
        test(p).unwrap_or_else(|e| {
            bad.get_or_insert(e);
            false
        })
    });
    bad.map_or(Ok(()), Err)
}

/// Drop the candidates whose value is NULL.
fn drop_nulls(nulls: &Option<BitVec>, from: usize, cands: &mut Vec<u32>) {
    if let Some(b) = nulls {
        retain_where(cands, |p| !b.get(from + p));
    }
}

fn filter_nulls(nulls: &Option<BitVec>, from: usize, sel: Vec<u32>) -> Vec<u32> {
    match nulls {
        None => sel,
        Some(b) => sel
            .into_iter()
            .filter(|&i| !b.get(from + i as usize))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{decode_block, encode_block};
    use crate::compress::compress_with;
    use crate::compress::tests::decimal_shaped;
    use vw_common::rng::Xoshiro256;
    use vw_common::DataType;

    fn cursor_of(col: &NullableColumn) -> (BlockCursor, CompressionScheme) {
        let (bytes, scheme) = encode_block(col);
        (BlockCursor::new(Arc::new(bytes)).unwrap(), scheme)
    }

    /// Wrap a forced-scheme payload in the no-nulls block framing.
    fn forced_block(col: &ColumnData, scheme: CompressionScheme) -> Vec<u8> {
        let mut out = vec![0u8];
        out.extend_from_slice(&compress_with(col, scheme));
        out
    }

    fn expected_slice(col: &NullableColumn, from: usize, to: usize) -> NullableColumn {
        let data = col.data.slice(from, to);
        let nulls = col
            .nulls
            .as_ref()
            .map(|b| (from..to).map(|i| b.get(i)).collect::<BitVec>());
        NullableColumn::new(data, nulls).normalize()
    }

    fn check_slices(col: &NullableColumn, cur: &mut BlockCursor) {
        let n = col.len();
        let mut r = Xoshiro256::seeded(n as u64);
        let step = (n / 7).max(1);
        let mut from = 0;
        while from < n {
            let to = (from + step).min(n);
            assert_eq!(
                cur.decode_slice(from, to).unwrap(),
                expected_slice(col, from, to)
            );
            check_selected(col, cur, &mut r, from, to);
            from = to;
        }
        // out-of-order and overlapping accesses
        for (a, b) in [(0, n), (n / 2, n), (0, n / 2), (n / 3, 2 * n / 3), (n, n)] {
            assert_eq!(cur.decode_slice(a, b).unwrap(), expected_slice(col, a, b));
            check_selected(col, cur, &mut r, a, b);
        }
    }

    /// `decode_selected` ≡ `decode_slice` then gather, for the empty, single,
    /// last-position and full selections of `[from, to)` and random
    /// ascending ones at three densities; a position at `to - from` is an
    /// error.
    fn check_selected(
        col: &NullableColumn,
        cur: &mut BlockCursor,
        r: &mut Xoshiro256,
        from: usize,
        to: usize,
    ) {
        let len = (to - from) as u32;
        let mut sels: Vec<Vec<u32>> = vec![vec![], (0..len).collect()];
        if len > 0 {
            sels.push(vec![r.next_below(len as u64) as u32]);
            sels.push(vec![len - 1]);
            for keep in [0.02, 0.3, 0.8] {
                sels.push((0..len).filter(|_| r.chance(keep)).collect());
            }
        }
        let full = expected_slice(col, from, to);
        for sel in sels {
            let want = full.gather(&sel);
            assert_eq!(
                cur.decode_selected(from, to, &sel).unwrap(),
                want,
                "range {}..{} sel {:?}",
                from,
                to,
                sel
            );
            assert_eq!(flat(cur.vector(from, to, Some(&sel)).unwrap()), want);
        }
        assert_eq!(flat(cur.vector(from, to, None).unwrap()), full);
        assert!(cur.decode_selected(from, to, &[len]).is_err());
        assert!(cur.vector(from, to, Some(&[len])).is_err());
    }

    /// A scan's vector with a dictionary column turned into its strings; a
    /// PDICT block must have come in dictionary form.
    fn flat(v: NullableColumn) -> NullableColumn {
        NullableColumn::new(v.data.materialize(), v.nulls)
    }

    fn naive_sel(col: &NullableColumn, pred: &Pred, from: usize, to: usize) -> Vec<u32> {
        (from..to)
            .filter(|&i| !col.is_null(i) && value_matches(&col.data, i, pred).unwrap())
            .map(|i| (i - from) as u32)
            .collect()
    }

    fn check_preds(col: &NullableColumn, cur: &mut BlockCursor, preds: &[Pred]) {
        let n = col.len();
        for pred in preds {
            for (a, b) in [(0, n), (n / 3, 2 * n / 3), (n / 2, n / 2 + 1), (0, 1)] {
                let (a, b) = (a.min(n), b.min(n).max(a.min(n)));
                let want = naive_sel(col, pred, a, b);
                assert_eq!(
                    cur.eval_pred(pred, a, b).unwrap(),
                    want,
                    "pred {:?} range {}..{}",
                    pred,
                    a,
                    b
                );
                check_narrow(cur, pred, a, b, &want);
            }
        }
    }

    /// `narrow` from a candidate list ≡ `eval_pred` intersected with it:
    /// the empty, full, first- and last-position lists and random ascending
    /// ones on both sides of the dense cross-over. `hits` is what
    /// `eval_pred` returns for the range.
    fn check_narrow(cur: &mut BlockCursor, pred: &Pred, from: usize, to: usize, hits: &[u32]) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // A conjunct id names one predicate for a cursor's lifetime, and the
        // tests put many predicates to one cursor.
        static NEXT_ID: AtomicUsize = AtomicUsize::new(0);
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let len = (to - from) as u32;
        let mut r = Xoshiro256::seeded(id as u64 ^ len as u64);
        let mut lists: Vec<Vec<u32>> = vec![vec![], (0..len).collect()];
        if len > 0 {
            lists.push(vec![0]);
            lists.push(vec![len - 1]);
            for keep in [0.03, 0.3, 0.55, 0.9] {
                lists.push((0..len).filter(|_| r.chance(keep)).collect());
            }
        }
        for cands in lists {
            let want: Vec<u32> = cands
                .iter()
                .copied()
                .filter(|p| hits.binary_search(p).is_ok())
                .collect();
            let mut got = cands.clone();
            cur.narrow(id, pred, from, to, &mut got).unwrap();
            assert_eq!(
                got, want,
                "pred {:?} range {}..{} candidates {:?}",
                pred, from, to, cands
            );
        }
        assert!(cur.narrow(id, pred, from, to, &mut vec![len]).is_err());
    }

    fn int_preds(lit: i64) -> Vec<Pred> {
        all_ops(Value::I64(lit))
    }

    #[test]
    fn pfor_delta_slices_and_preds() {
        let col =
            NullableColumn::not_null(ColumnData::I64((0..4000).map(|i| 100 + i * 3).collect()));
        let (mut cur, scheme) = cursor_of(&col);
        assert_eq!(scheme, CompressionScheme::PforDelta);
        check_slices(&col, &mut cur);
        check_preds(&col, &mut cur, &int_preds(100 + 1999 * 3));
        // checkpoint path: eval then decode of the same vector, repeatedly
        for from in [1024usize, 0, 2048, 2048, 512] {
            let to = (from + 1024).min(col.len());
            let sel = cur.eval_pred(&int_preds(6000)[2], from, to).unwrap();
            let naive = naive_sel(&col, &int_preds(6000)[2], from, to);
            assert_eq!(sel, naive);
            assert_eq!(
                cur.decode_slice(from, to).unwrap(),
                expected_slice(&col, from, to)
            );
        }
    }

    #[test]
    fn pfor_slices_and_code_space_preds() {
        let mut r = Xoshiro256::seeded(11);
        let values: Vec<i64> = (0..3000)
            .map(|_| {
                if r.chance(0.02) {
                    r.range_i64(i64::MIN / 2, i64::MAX / 2)
                } else {
                    r.range_i64(500, 900)
                }
            })
            .collect();
        let col = NullableColumn::not_null(ColumnData::I64(values));
        let bytes = forced_block(&col.data, CompressionScheme::Pfor);
        assert_eq!(decode_block(&bytes).unwrap(), col);
        let mut cur = BlockCursor::new(Arc::new(bytes)).unwrap();
        assert_eq!(cur.scheme(), CompressionScheme::Pfor);
        check_slices(&col, &mut cur);
        // literals inside, below, and above the packed domain
        for lit in [700, 499, 901, i64::MIN, i64::MAX, 500, 900] {
            check_preds(&col, &mut cur, &int_preds(lit));
        }
    }

    #[test]
    fn pfor_all_exception_block() {
        // Hand-built frame: width 0, every value an exception — the extreme
        // end of the patching path.
        let n = 200usize;
        let vals: Vec<i64> = (0..n as i64).map(|i| i * 1_000_003 - 7).collect();
        let mut blk = vec![0u8, PHYS_I64, 2]; // no nulls, i64, scheme=Pfor
        blk.extend_from_slice(&(n as u32).to_le_bytes());
        blk.extend_from_slice(&0i64.to_le_bytes()); // base
        blk.push(0); // width
        blk.extend_from_slice(&(n as u32).to_le_bytes()); // n_exc
        for i in 0..n as u32 {
            blk.extend_from_slice(&i.to_le_bytes());
        }
        for v in &vals {
            blk.extend_from_slice(&v.to_le_bytes());
        }
        let col = NullableColumn::not_null(ColumnData::I64(vals));
        assert_eq!(decode_block(&blk).unwrap(), col);
        let mut cur = BlockCursor::new(Arc::new(blk)).unwrap();
        check_slices(&col, &mut cur);
        check_preds(&col, &mut cur, &int_preds(100 * 1_000_003 - 7));
    }

    #[test]
    fn rle_single_run_and_run_length_one() {
        // single run covering the whole block
        let col = NullableColumn::not_null(ColumnData::I64(vec![42; 513]));
        let bytes = forced_block(&col.data, CompressionScheme::Rle);
        let mut cur = BlockCursor::new(Arc::new(bytes)).unwrap();
        assert_eq!(cur.scheme(), CompressionScheme::Rle);
        check_slices(&col, &mut cur);
        check_preds(&col, &mut cur, &int_preds(42));
        check_preds(&col, &mut cur, &int_preds(41));
        // every run has length 1
        let col = NullableColumn::not_null(ColumnData::I64((0..97).map(|i| i * 11).collect()));
        let bytes = forced_block(&col.data, CompressionScheme::Rle);
        let mut cur = BlockCursor::new(Arc::new(bytes)).unwrap();
        check_slices(&col, &mut cur);
        check_preds(&col, &mut cur, &int_preds(44));
    }

    #[test]
    fn rle_f64_preds() {
        let vals: Vec<f64> = (0..900).map(|i| (i / 100) as f64 * 0.05).collect();
        let col = NullableColumn::not_null(ColumnData::F64(vals));
        let (mut cur, scheme) = cursor_of(&col);
        assert_eq!(scheme, CompressionScheme::Rle);
        check_slices(&col, &mut cur);
        let preds: Vec<Pred> = [PredOp::Eq, PredOp::Lt, PredOp::Ge]
            .iter()
            .map(|&op| Pred::Cmp {
                op,
                value: Value::F64(0.15),
            })
            .collect();
        check_preds(&col, &mut cur, &preds);
    }

    #[test]
    fn pdict_code_space_preds() {
        let domain = ["AIR", "RAIL", "SHIP", "TRUCK", "MAIL"];
        let col = NullableColumn::not_null(ColumnData::Str(StrColumn::from_iter(
            (0..2000).map(|i| domain[(i * 7) % domain.len()]),
        )));
        let (mut cur, scheme) = cursor_of(&col);
        assert_eq!(scheme, CompressionScheme::Pdict);
        check_slices(&col, &mut cur);
        let mut preds: Vec<Pred> = [PredOp::Eq, PredOp::Ne, PredOp::Lt, PredOp::Ge]
            .iter()
            .map(|&op| Pred::Cmp {
                op,
                value: Value::Str("RAIL".into()),
            })
            .collect();
        preds.push(Pred::InStr {
            values: vec!["AIR".into(), "MAIL".into()],
            negated: false,
        });
        preds.push(Pred::InStr {
            values: vec!["AIR".into(), "NOPE".into()],
            negated: true,
        });
        check_preds(&col, &mut cur, &preds);
        // code-set cache: one entry per distinct predicate
        let State::Pdict(d) = &cur.state else {
            panic!()
        };
        assert_eq!(d.pred_sets.len(), preds.len());
    }

    #[test]
    fn pdict_code_width_at_dict_size_boundaries() {
        for (n_dict, expect_width) in [(1usize, 0u32), (255, 8), (256, 8), (65536, 16)] {
            let reps = if n_dict >= 65536 { 2 } else { 40 };
            let strings: Vec<String> = (0..n_dict)
                .flat_map(|d| std::iter::repeat_n(format!("val{:05}", d), reps))
                .collect();
            let col = StrColumn::from_iter(strings.iter().map(|s| s.as_str()));
            let ncol = NullableColumn::not_null(ColumnData::Str(col));
            let (mut cur, scheme) = cursor_of(&ncol);
            assert_eq!(scheme, CompressionScheme::Pdict, "dict size {}", n_dict);
            let State::Pdict(d) = &cur.state else {
                panic!()
            };
            assert_eq!(d.width, expect_width, "dict size {}", n_dict);
            assert_eq!(d.dict.len(), n_dict);
            let n = ncol.len();
            assert_eq!(
                cur.decode_slice(n - 3, n).unwrap(),
                expected_slice(&ncol, n - 3, n)
            );
            let pred = Pred::Cmp {
                op: PredOp::Eq,
                value: Value::Str("val00000".into()),
            };
            let hi = (reps + 1).min(n);
            assert_eq!(
                cur.eval_pred(&pred, 0, hi).unwrap(),
                naive_sel(&ncol, &pred, 0, hi)
            );
        }
    }

    #[test]
    fn plain_str_and_bool_and_i32() {
        let uniq: Vec<String> = (0..300)
            .map(|i| format!("unique-{}-{}", i, i * 31))
            .collect();
        let col = NullableColumn::not_null(ColumnData::Str(StrColumn::from_iter(
            uniq.iter().map(|s| s.as_str()),
        )));
        let (mut cur, scheme) = cursor_of(&col);
        assert_eq!(scheme, CompressionScheme::Plain);
        check_slices(&col, &mut cur);
        let pred = Pred::Cmp {
            op: PredOp::Gt,
            value: Value::Str("unique-2".into()),
        };
        check_preds(&col, &mut cur, &[pred]);

        let col = NullableColumn::not_null(ColumnData::Bool((0..77).map(|i| i % 3 == 0).collect()));
        let (mut cur, _) = cursor_of(&col);
        check_slices(&col, &mut cur);

        let col = NullableColumn::not_null(ColumnData::I32(vec![-5, 0, 7, i32::MIN, i32::MAX]));
        let bytes = forced_block(&col.data, CompressionScheme::Plain);
        let mut cur = BlockCursor::new(Arc::new(bytes)).unwrap();
        check_slices(&col, &mut cur);
        check_preds(&col, &mut cur, &int_preds(0));
    }

    #[test]
    fn nulls_are_excluded_and_sliced() {
        let vals: Vec<Value> = (0..500)
            .map(|i| {
                if i % 4 == 0 {
                    Value::Null
                } else {
                    Value::I64((i % 13) as i64)
                }
            })
            .collect();
        let col = NullableColumn::from_values(DataType::I64, &vals).unwrap();
        let (mut cur, _) = cursor_of(&col);
        assert!(cur.has_nulls());
        check_slices(&col, &mut cur);
        check_preds(&col, &mut cur, &int_preds(6));
    }

    #[test]
    fn f64_plain_preds_including_int_literal() {
        let col = NullableColumn::not_null(ColumnData::F64(
            (0..400).map(|i| i as f64 * 0.25 - 20.0).collect(),
        ));
        let bytes = forced_block(&col.data, CompressionScheme::Plain);
        let mut cur = BlockCursor::new(Arc::new(bytes)).unwrap();
        assert_eq!(cur.scheme(), CompressionScheme::Plain);
        check_slices(&col, &mut cur);
        let preds: Vec<Pred> = vec![
            Pred::Cmp {
                op: PredOp::Lt,
                value: Value::F64(5.25),
            },
            Pred::Cmp {
                op: PredOp::Ge,
                value: Value::I64(3),
            },
        ];
        check_preds(&col, &mut cur, &preds);
    }

    fn all_ops(value: Value) -> Vec<Pred> {
        [
            PredOp::Eq,
            PredOp::Ne,
            PredOp::Lt,
            PredOp::Le,
            PredOp::Gt,
            PredOp::Ge,
        ]
        .iter()
        .map(|&op| Pred::Cmp {
            op,
            value: value.clone(),
        })
        .collect()
    }

    /// A PFOR block built by hand: `deltas[i]` packed at `width` bits over
    /// `base`, except at the listed exception positions, which store 0 and
    /// carry their value in the exception list. Returns the block and the
    /// column it must decode to.
    fn hand_pfor(
        phys: u8,
        nulls: Option<&BitVec>,
        base: i64,
        width: u32,
        deltas: &[u64],
        exceptions: &[(u32, i64)],
    ) -> (Vec<u8>, ColumnData) {
        let n = deltas.len();
        let mut packed_in = deltas.to_vec();
        let mut vals: Vec<i64> = deltas
            .iter()
            .map(|&d| (base as i128 + d as i128) as i64)
            .collect();
        for &(p, v) in exceptions {
            packed_in[p as usize] = 0;
            vals[p as usize] = v;
        }
        let mut blk = match nulls {
            Some(b) => {
                let mut out = vec![1u8];
                out.extend_from_slice(&b.to_bytes());
                out
            }
            None => vec![0u8],
        };
        blk.extend_from_slice(&[phys, 2]); // scheme = Pfor
        blk.extend_from_slice(&(n as u32).to_le_bytes());
        blk.extend_from_slice(&base.to_le_bytes());
        blk.push(width as u8);
        blk.extend_from_slice(&(exceptions.len() as u32).to_le_bytes());
        blk.extend_from_slice(&crate::compress::bitpack::pack(&packed_in, width));
        for (p, _) in exceptions {
            blk.extend_from_slice(&p.to_le_bytes());
        }
        for (_, v) in exceptions {
            blk.extend_from_slice(&v.to_le_bytes());
        }
        let data = if phys == PHYS_I32 {
            ColumnData::I32(vals.iter().map(|&v| v as i32).collect())
        } else {
            ColumnData::I64(vals)
        };
        (blk, data)
    }

    /// Every packed width that changes the unpack path (0, 1, the widest
    /// that fits an i32 frame, the last single-load width, the first
    /// residue-loop width, 64) × no, some and only exceptions × NULLs:
    /// slices, selections and all six operators with literals below, inside
    /// and above the packed domain and on exception values.
    #[test]
    fn pfor_widths_exceptions_and_nulls() {
        let mut r = Xoshiro256::seeded(5);
        let n = 700usize;
        for width in [0u32, 1, 31, 56, 57, 64] {
            for exc_share in [0.0, 0.07, 1.0] {
                for with_nulls in [false, true] {
                    let limit = if width == 64 {
                        u64::MAX
                    } else {
                        (1u64 << width) - 1
                    };
                    let base: i64 = if width == 64 { i64::MIN } else { -1000 };
                    let deltas: Vec<u64> = (0..n)
                        .map(|i| match i % 3 {
                            0 => 0,
                            1 => limit,
                            _ => r.next_u64() & limit,
                        })
                        .collect();
                    let mut exceptions: Vec<(u32, i64)> = Vec::new();
                    for p in 0..n as u32 {
                        if r.chance(exc_share) {
                            exceptions.push((p, r.range_i64(i64::MIN / 2, i64::MAX / 2)));
                        }
                    }
                    let nulls: Option<BitVec> =
                        with_nulls.then(|| (0..n).map(|i| i % 5 == 2).collect());
                    let (blk, data) =
                        hand_pfor(PHYS_I64, nulls.as_ref(), base, width, &deltas, &exceptions);
                    let col = NullableColumn::new(data, nulls);
                    let tag = format!("width {} exceptions {}", width, exceptions.len());
                    assert_eq!(decode_block(&blk).unwrap(), col, "{}", tag);
                    let mut cur = BlockCursor::new(Arc::new(blk)).unwrap();
                    check_slices(&col, &mut cur);
                    let top = (base as i128 + limit as i128) as i64;
                    let mut lits = vec![base, top, i64::MIN, i64::MAX, 0];
                    lits.extend([base.checked_sub(1), top.checked_add(1)].iter().flatten());
                    lits.push((base as i128 + (deltas[2] as i128)) as i64);
                    lits.extend(exceptions.iter().take(2).map(|&(_, v)| v));
                    for lit in lits {
                        check_preds(&col, &mut cur, &all_ops(Value::I64(lit)));
                    }
                }
            }
        }
    }

    /// An i32 column narrows per frame when `base` and `width` allow it and
    /// per value when they do not; either way a value outside i32 is an
    /// error, whether it comes packed or as an exception.
    #[test]
    fn pfor_i32_narrowing_keeps_its_overflow_checks() {
        let deltas: Vec<u64> = (0..300u64).map(|i| i % 128).collect();
        // Fits: checked once for the frame.
        let (blk, data) = hand_pfor(PHYS_I32, None, i32::MAX as i64 - 127, 7, &deltas, &[]);
        let col = NullableColumn::not_null(data);
        let mut cur = BlockCursor::new(Arc::new(blk)).unwrap();
        check_slices(&col, &mut cur);
        check_preds(&col, &mut cur, &all_ops(Value::I64(i32::MAX as i64 - 3)));
        // The frame could overflow but no value does: checked per value.
        let small: Vec<u64> = (0..300u64).map(|i| i % 100).collect();
        let (blk, data) = hand_pfor(PHYS_I32, None, i32::MAX as i64 - 100, 7, &small, &[]);
        let col = NullableColumn::not_null(data);
        let mut cur = BlockCursor::new(Arc::new(blk)).unwrap();
        check_slices(&col, &mut cur);
        // One packed value overflows.
        let (blk, _) = hand_pfor(PHYS_I32, None, i32::MAX as i64 - 100, 7, &deltas, &[]);
        let mut cur = BlockCursor::new(Arc::new(blk)).unwrap();
        assert!(cur.decode_slice(0, 300).is_err());
        assert!(cur.decode_selected(0, 300, &[101]).is_err());
        assert!(cur.decode_selected(0, 300, &[100]).is_ok());
        // An exception overflows a frame that fits.
        let (blk, _) = hand_pfor(PHYS_I32, None, 0, 7, &deltas, &[(9, i32::MAX as i64 + 1)]);
        let mut cur = BlockCursor::new(Arc::new(blk)).unwrap();
        assert!(cur.decode_slice(0, 300).is_err());
        assert!(cur.decode_selected(0, 300, &[9]).is_err());
        assert!(cur.decode_slice(10, 300).is_ok());
    }

    #[test]
    fn plain_and_rle_blocks_of_every_physical_type() {
        let mut r = Xoshiro256::seeded(17);
        let n = 900usize;
        let nulls: BitVec = (0..n).map(|i| i % 7 == 3).collect();
        let i64s: Vec<i64> = (0..n).map(|_| r.range_i64(-40, 40)).collect();
        let runs: Vec<i64> = (0..n).map(|i| (i / 37) as i64 % 5 - 2).collect();
        for (data, scheme) in [
            (ColumnData::I64(i64s.clone()), CompressionScheme::Plain),
            (
                ColumnData::I32(i64s.iter().map(|&v| v as i32).collect()),
                CompressionScheme::Plain,
            ),
            (ColumnData::I64(runs.clone()), CompressionScheme::Rle),
            (
                ColumnData::I32(runs.iter().map(|&v| v as i32).collect()),
                CompressionScheme::Rle,
            ),
            (ColumnData::I64(i64s.clone()), CompressionScheme::PforDelta),
        ] {
            for with_nulls in [false, true] {
                let mut blk = match with_nulls {
                    true => {
                        let mut out = vec![1u8];
                        out.extend_from_slice(&nulls.to_bytes());
                        out
                    }
                    false => vec![0u8],
                };
                blk.extend_from_slice(&compress_with(&data, scheme));
                let col = NullableColumn::new(data.clone(), with_nulls.then(|| nulls.clone()));
                let mut cur = BlockCursor::new(Arc::new(blk)).unwrap();
                assert_eq!(cur.scheme(), scheme);
                check_slices(&col, &mut cur);
                for lit in [-41, -40, 0, 1, 39, 40, i64::MIN, i64::MAX] {
                    check_preds(&col, &mut cur, &all_ops(Value::I64(lit)));
                }
                check_preds(&col, &mut cur, &all_ops(Value::F64(0.5)));
            }
        }
        // f64: plain, and RLE over runs; NaN sits in the data, never in a
        // pushed literal.
        let mut f: Vec<f64> = (0..n).map(|i| (i % 50) as f64 * 0.5 - 3.0).collect();
        f[11] = f64::NAN;
        let plain = NullableColumn::new(ColumnData::F64(f), Some(nulls.clone()));
        let (mut cur, scheme) = cursor_of(&plain);
        assert_eq!(scheme, CompressionScheme::Plain);
        check_nan_aware_slices(&plain, &mut cur);
        for lit in [-3.5, -3.0, 2.25, 21.5, 22.0] {
            check_preds(&plain, &mut cur, &all_ops(Value::F64(lit)));
        }
        let bools = NullableColumn::new(
            ColumnData::Bool((0..n).map(|i| i % 3 == 0).collect()),
            Some(nulls),
        );
        let (mut cur, _) = cursor_of(&bools);
        check_slices(&bools, &mut cur);
    }

    /// `check_slices` for a column holding NaN, which `assert_eq!` on the
    /// decoded columns cannot compare: bit patterns instead.
    fn check_nan_aware_slices(col: &NullableColumn, cur: &mut BlockCursor) {
        let bits = |c: &NullableColumn| match &c.data {
            ColumnData::F64(v) => (
                v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                c.nulls.clone(),
            ),
            _ => panic!("f64 column expected"),
        };
        let n = col.len();
        let mut r = Xoshiro256::seeded(3);
        for (a, b) in [(0, n), (5, 40), (n - 1, n), (n, n)] {
            let full = expected_slice(col, a, b);
            assert_eq!(bits(&cur.decode_slice(a, b).unwrap()), bits(&full));
            let sel: Vec<u32> = (0..(b - a) as u32).filter(|_| r.chance(0.4)).collect();
            assert_eq!(
                bits(&cur.decode_selected(a, b, &sel).unwrap()),
                bits(&full.gather(&sel))
            );
        }
    }

    #[test]
    fn pdict_dictionary_sizes_selections_and_corrupt_codes() {
        for n_dict in [1usize, 255, 256, 65536] {
            let reps = if n_dict >= 65536 { 2 } else { 5 };
            let strings: Vec<String> = (0..n_dict * reps)
                .map(|i| format!("val{:05}", (i * 7 + i / 3) % n_dict))
                .collect();
            let nulls: BitVec = (0..strings.len()).map(|i| i % 11 == 4).collect();
            let col = NullableColumn::new(
                ColumnData::Str(StrColumn::from_iter(strings.iter().map(|s| s.as_str()))),
                Some(nulls),
            );
            let (mut cur, scheme) = cursor_of(&col);
            assert_eq!(scheme, CompressionScheme::Pdict, "dict size {}", n_dict);
            let n = col.len();
            let mut r = Xoshiro256::seeded(n_dict as u64);
            for (a, b) in [(0, n.min(1024)), (n - n.min(700), n), (n / 2, n / 2 + 1)] {
                assert_eq!(cur.decode_slice(a, b).unwrap(), expected_slice(&col, a, b));
                check_selected(&col, &mut cur, &mut r, a, b);
            }
            let mut preds = all_ops(Value::Str("val00000".into()));
            preds.extend(all_ops(Value::Str(format!("val{:05}", n_dict / 2))));
            preds.extend(all_ops(Value::Str("zzz".into())));
            preds.push(Pred::InStr {
                values: vec!["val00000".into(), "nope".into()],
                negated: false,
            });
            check_preds(&col, &mut cur, &preds);
        }
        // Three entries need two bits, so code 3 is outside the dictionary.
        let domain = ["a", "bb", "ccc"];
        let col = NullableColumn::not_null(ColumnData::Str(StrColumn::from_iter(
            (0..64).map(|i| domain[i % 3]),
        )));
        let (mut bytes, scheme) = encode_block(&col);
        assert_eq!(scheme, CompressionScheme::Pdict);
        *bytes.last_mut().unwrap() = 0xFF; // positions 60..64 now hold code 3
        let mut cur = BlockCursor::new(Arc::new(bytes)).unwrap();
        let eq_a = &all_ops(Value::Str("a".into()))[0];
        assert_eq!(
            cur.decode_slice(0, 60).unwrap(),
            expected_slice(&col, 0, 60)
        );
        assert!(cur.decode_slice(0, 64).is_err());
        assert!(cur.decode_selected(0, 64, &[5, 61]).is_err());
        assert!(cur.decode_selected(0, 64, &[5, 59]).is_ok());
        assert!(cur.eval_pred(eq_a, 32, 64).is_err());
        assert!(cur.eval_pred(eq_a, 0, 60).is_ok());
        assert!(cur.vector(0, 64, None).is_err());
        assert!(cur.vector(0, 64, Some(&[5, 61])).is_err());
        assert!(cur.vector(0, 64, Some(&[5, 59])).is_ok());
        // Narrowing meets the bad code on the dense and on the sparse path.
        assert!(cur.narrow(0, eq_a, 32, 64, &mut (0..32).collect()).is_err());
        assert!(cur.narrow(0, eq_a, 32, 64, &mut vec![1, 30]).is_err());
        assert!(cur.narrow(0, eq_a, 32, 64, &mut vec![1, 27]).is_ok());
    }

    #[test]
    fn empty_block_and_bad_ranges() {
        let col = NullableColumn::not_null(ColumnData::I64(vec![]));
        let (mut cur, _) = cursor_of(&col);
        assert_eq!(cur.n(), 0);
        assert_eq!(cur.decode_slice(0, 0).unwrap().len(), 0);
        assert!(cur.decode_slice(0, 1).is_err());
        let col = NullableColumn::not_null(ColumnData::I64(vec![1, 2, 3]));
        let (mut cur, _) = cursor_of(&col);
        assert!(cur.decode_slice(2, 1).is_err());
        assert!(cur.eval_pred(&int_preds(1)[0], 0, 4).is_err());
        assert!(cur.decode_selected(2, 1, &[]).is_err());
        assert!(cur.decode_selected(0, 4, &[0]).is_err());
        assert!(cur.decode_selected(1, 3, &[2]).is_err());
        assert!(cur.decode_selected(1, 3, &[1]).is_ok());
    }

    #[test]
    fn corrupt_blocks_error_not_panic() {
        let col = NullableColumn::not_null(ColumnData::I64((0..100).collect()));
        let (bytes, _) = encode_block(&col);
        assert!(BlockCursor::new(Arc::new(bytes[..bytes.len() - 1].to_vec())).is_err());
        assert!(BlockCursor::new(Arc::new(vec![])).is_err());
        let mut bad = bytes.clone();
        bad[2] = 99; // scheme byte (after the 1-byte null flag)
        assert!(BlockCursor::new(Arc::new(bad)).is_err());
    }

    /// A block of `col` in `scheme` (`None`: the encoder's choice, the only
    /// way to a string or boolean block), with the NULL framing by hand.
    fn block_of(col: &NullableColumn, scheme: Option<CompressionScheme>) -> Vec<u8> {
        let Some(scheme) = scheme else {
            return encode_block(col).0;
        };
        let mut blk = match &col.nulls {
            Some(b) => {
                let mut out = vec![1u8];
                out.extend_from_slice(&b.to_bytes());
                out
            }
            None => vec![0u8],
        };
        blk.extend_from_slice(&compress_with(&col.data, scheme));
        blk
    }

    /// Words the random strings are made of: a needle, its two halves (so a
    /// pair of neighbouring rows can spell it across their boundary), ASCII
    /// that repeats, and two- and four-byte characters.
    const WORDS: [&str; 9] = ["special", "spe", "cial", "a", "b", "ab", "é", "𝄞", " "];

    fn like(pattern: &str, negated: bool) -> Pred {
        Pred::Like {
            pattern: LikePattern::new(pattern),
            negated,
        }
    }

    /// How many shapes [`random_column`] draws from.
    const COLUMN_KINDS: u64 = 12;

    /// A random column of one of the shapes the encoder tells apart, the
    /// scheme to force on it, and predicates of every kind its type takes.
    fn random_column(
        r: &mut Xoshiro256,
        n: usize,
    ) -> (ColumnData, Option<CompressionScheme>, Vec<Pred>) {
        use CompressionScheme::*;
        let small: Vec<i64> = (0..n).map(|_| r.range_i64(-30, 30)).collect();
        let narrow = |v: &[i64]| ColumnData::I32(v.iter().map(|&x| x as i32).collect());
        let mut int_preds = all_ops(Value::I64(r.range_i64(-31, 31)));
        int_preds.extend(all_ops(Value::F64(r.range_i64(-62, 62) as f64 / 2.0)));
        let words = |r: &mut Xoshiro256, most: u64| -> String {
            (0..r.next_below(most + 1))
                .map(|_| WORDS[r.next_below(WORDS.len() as u64) as usize])
                .collect()
        };
        match r.next_below(COLUMN_KINDS) {
            0 => (ColumnData::I64(small), Some(Plain), int_preds),
            1 => (narrow(&small), Some(Plain), int_preds),
            2 | 3 => {
                // A few values far outside the frame become exceptions.
                let mut v = small;
                for x in v.iter_mut() {
                    if r.chance(0.03) {
                        *x = r.range_i64(-1_000_000, 1_000_000);
                    }
                }
                match r.chance(0.5) {
                    true => (ColumnData::I64(v), Some(Pfor), int_preds),
                    false => (narrow(&v), Some(Pfor), int_preds),
                }
            }
            4 => {
                let mut acc = -20i64;
                let sorted = (0..n).map(|_| {
                    acc += r.range_i64(0, 1);
                    acc
                });
                (
                    ColumnData::I64(sorted.collect()),
                    Some(PforDelta),
                    int_preds,
                )
            }
            5 => {
                let mut v = 0;
                let runs = (0..n).map(|_| {
                    if r.chance(0.02) {
                        v = r.range_i64(-30, 30);
                    }
                    v
                });
                (ColumnData::I64(runs.collect()), Some(Rle), int_preds)
            }
            6 => {
                let mut v = 0.0;
                let runs: Vec<f64> = (0..n)
                    .map(|_| {
                        if r.chance(0.03) {
                            v = r.range_i64(-8, 8) as f64 / 4.0;
                        }
                        v
                    })
                    .collect();
                (ColumnData::F64(runs), None, all_ops(Value::F64(0.5)))
            }
            7 => {
                let v = (0..n).map(|_| r.range_i64(-40, 40) as f64 / 8.0).collect();
                let lit = r.range_i64(-40, 40) as f64 / 8.0;
                (ColumnData::F64(v), None, all_ops(Value::F64(lit)))
            }
            8 => {
                let v = (0..n).map(|_| r.chance(0.4)).collect();
                // No predicate is pushed to a boolean column; the decoding
                // fallback still answers, here with a type error.
                (ColumnData::Bool(v), None, Vec::new())
            }
            11 => {
                // Decimals of any scale as PLAIN doubles or as a frame of
                // their scaled integers, against float and integer literals.
                let v = decimal_shaped(r, n, 0.0);
                let lit = v[r.next_below(n as u64) as usize];
                let mut preds = all_ops(Value::F64(lit));
                preds.extend(all_ops(Value::F64(f64::from_bits(lit.to_bits() + 1))));
                preds.extend(all_ops(Value::I64(lit.round() as i64)));
                let scheme = [Plain, Pfor, PforDelta][r.next_below(3) as usize];
                (ColumnData::F64(v), Some(scheme), preds)
            }
            kind => {
                // 9: a small domain, dictionary-coded; 10: long strings with
                // a unique tail, stored plain.
                let domain: Vec<String> = (0..12).map(|_| words(r, 3)).collect();
                let strings: Vec<String> = (0..n)
                    .map(|i| match kind {
                        9 => domain[r.next_below(domain.len() as u64) as usize].clone(),
                        _ if r.chance(0.5) => format!("{}{}", words(r, 5), i),
                        _ => words(r, 5),
                    })
                    .collect();
                let lit = strings[r.next_below(n as u64) as usize].clone();
                let mut preds = all_ops(Value::Str(lit.clone()));
                for negated in [false, true] {
                    preds.push(Pred::InStr {
                        values: vec![lit.clone(), "nope".into(), words(r, 2)],
                        negated,
                    });
                    let head: String = lit.chars().take(2).collect();
                    let tail: String = lit
                        .chars()
                        .skip(lit.chars().count().saturating_sub(2))
                        .collect();
                    for pattern in [
                        lit.clone(),
                        format!("{head}%"),
                        format!("%{tail}"),
                        "%special%".to_string(),
                        format!("%{}%", words(r, 2)),
                        "%".to_string(),
                        format!("_{}%", tail),
                        format!("%{}_%{}", head, tail),
                    ] {
                        preds.push(like(&pattern, negated));
                    }
                }
                let col = StrColumn::from_iter(strings.iter().map(|s| s.as_str()));
                (ColumnData::Str(col), None, preds)
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Every codec × physical type × NULL density × predicate kind, over
        /// vectors that include the last, partial one of the block:
        /// `eval_pred` is the row-at-a-time answer, `narrow` from any
        /// candidate list is `eval_pred` intersected with the list, and the
        /// scan's `vector` is the decoded slice.
        #[test]
        fn narrowing_equals_eval_pred_on_the_candidates(seed in 0u64..1_000_000) {
            let mut r = Xoshiro256::seeded(seed);
            let n = 1 + r.next_below(2600) as usize;
            let (data, scheme, preds) = random_column(&mut r, n);
            let null_share = [0.0, 0.05, 0.6][r.next_below(3) as usize];
            let nulls: BitVec = (0..n).map(|_| r.chance(null_share)).collect();
            let col = NullableColumn::new(data, Some(nulls)).normalize();
            let mut cur = BlockCursor::new(Arc::new(block_of(&col, scheme))).unwrap();
            if let Some(s) = scheme {
                proptest::prop_assert_eq!(cur.scheme(), s);
            }
            let vs = [1024, 300][r.next_below(2) as usize];
            for from in (0..n).step_by(vs) {
                let to = (from + vs).min(n);
                check_selected(&col, &mut cur, &mut r, from, to);
                for pred in &preds {
                    let want = naive_sel(&col, pred, from, to);
                    proptest::prop_assert_eq!(
                        &cur.eval_pred(pred, from, to).unwrap(),
                        &want,
                        "{:?} on {:?} rows {}..{}",
                        pred,
                        cur.scheme(),
                        from,
                        to
                    );
                    check_narrow(&mut cur, pred, from, to, &want);
                }
            }
        }
    }

    /// A substring that only exists across the boundary of two rows is in
    /// neither; one row holding it twice is selected once; empty rows and
    /// NULL rows among the hits do not shift the mapping.
    #[test]
    fn substring_hits_map_to_their_rows() {
        let rows = [
            "spe",
            "cial",
            "",
            "special",
            "",
            "",
            "xspecialspecial",
            "specia",
            "l",
            "a special b",
        ];
        let mut long: Vec<String> = rows.iter().map(|s| s.to_string()).collect();
        // Unique tails keep the block PLAIN.
        long.extend((0..40).map(|i| format!("filler row number {i} spe")));
        let nulls: BitVec = (0..long.len()).map(|i| i == 3).collect();
        let col = NullableColumn::new(
            ColumnData::Str(StrColumn::from_iter(long.iter().map(|s| s.as_str()))),
            Some(nulls),
        );
        let (mut cur, scheme) = cursor_of(&col);
        assert_eq!(scheme, CompressionScheme::Plain);
        let n = col.len();
        assert_eq!(
            cur.eval_pred(&like("%special%", false), 0, n).unwrap(),
            vec![6, 9]
        );
        let not: Vec<u32> = (0..n as u32).filter(|p| ![3, 6, 9].contains(p)).collect();
        assert_eq!(cur.eval_pred(&like("%special%", true), 0, n).unwrap(), not);
        assert_eq!(
            cur.eval_pred(&like("%special%", false), 7, n).unwrap(),
            vec![2]
        );
        let mut preds = vec![];
        for negated in [false, true] {
            for p in ["%special%", "%spe", "spe%", "%l%", "%e%c%", "_", "%", ""] {
                preds.push(like(p, negated));
            }
        }
        check_preds(&col, &mut cur, &preds);
    }

    /// Literals around the values of a decimal block of scale `e`: values it
    /// holds, the doubles on either side of them, points between two of its
    /// decimals and a decimal one scale finer, integers; the signed zeros,
    /// the infinities, NaN, the integer extremes, and numbers either side of
    /// where the translation stops (`9e15 / 10^e`) and of `2^53 / 10^e`.
    fn literals_around(r: &mut Xoshiro256, values: &[f64], e: u8) -> Vec<Value> {
        let p = 10f64.powi(e as i32);
        let mut lits: Vec<Value> = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN]
            .into_iter()
            .chain([8.99e15, 9.01e15, 2f64.powi(53), -2f64.powi(53)].map(|x| x / p))
            .map(Value::F64)
            .collect();
        lits.extend([i64::MIN, i64::MAX, 0].map(Value::I64));
        for _ in 0..2 {
            let v = values[r.next_below(values.len() as u64) as usize];
            let toward_zero = match v == 0.0 {
                true => -f64::from_bits(1),
                false => f64::from_bits(v.to_bits() - 1),
            };
            let near = [
                v,
                f64::from_bits(v.to_bits() + 1),
                toward_zero,
                v + 0.5 / p,
                v - 0.5 / p,
                v + 0.1 / p,
            ];
            lits.extend(near.map(Value::F64));
            lits.extend([v.round() as i64, v.floor() as i64 + 1].map(Value::I64));
        }
        lits
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Decimals of any scale stored as a frame of scaled integers — the
        /// encoder's choice, PFOR or PFOR-DELTA — decode to the bits of the
        /// same values stored PLAIN, a selection equal to the slice then a
        /// gather; and `eval_pred` and `narrow` (sparse and dense) of every
        /// operator and literal select exactly what the PLAIN-f64 kernel
        /// selects.
        #[test]
        fn decimal_frames_select_what_plain_doubles_select(seed in 0u64..1_000_000) {
            use CompressionScheme::*;
            let mut r = Xoshiro256::seeded(seed);
            let n = 1 + r.next_below(2600) as usize;
            let values = decimal_shaped(&mut r, n, 0.0);
            let (e, _) = crate::compress::tests::reference_scale(&values).unwrap();
            let null_share = [0.0, 0.05, 0.6][r.next_below(3) as usize];
            let nulls: BitVec = (0..n).map(|_| r.chance(null_share)).collect();
            let col = NullableColumn::new(ColumnData::F64(values.clone()), Some(nulls)).normalize();
            let open = |s| BlockCursor::new(Arc::new(block_of(&col, s))).unwrap();
            let mut plain = open(Some(Plain));
            let mut frames = [open(None), open(Some(Pfor)), open(Some(PforDelta))];
            proptest::prop_assert_eq!(frames[1].scheme(), Pfor);
            proptest::prop_assert_eq!(frames[2].scheme(), PforDelta);
            let preds: Vec<Pred> = literals_around(&mut r, &values, e)
                .into_iter()
                .flat_map(all_ops)
                .collect();
            let bits = |c: NullableColumn| match c.data {
                ColumnData::F64(v) => (v.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), c.nulls),
                _ => panic!("f64 column expected"),
            };
            let vs = [1024, 300][r.next_below(2) as usize];
            for from in (0..n).step_by(vs) {
                let to = (from + vs).min(n);
                let sel: Vec<u32> = (0..(to - from) as u32).filter(|_| r.chance(0.3)).collect();
                let slice = plain.decode_slice(from, to).unwrap();
                let gathered = bits(slice.gather(&sel));
                let slice = bits(slice);
                for cur in frames.iter_mut() {
                    proptest::prop_assert_eq!(&bits(cur.decode_slice(from, to).unwrap()), &slice);
                    let picked = cur.decode_selected(from, to, &sel).unwrap();
                    proptest::prop_assert_eq!(&bits(picked), &gathered);
                    let vector = cur.vector(from, to, Some(&sel)).unwrap();
                    proptest::prop_assert_eq!(&bits(vector), &gathered);
                }
                for pred in &preds {
                    let want = plain.eval_pred(pred, from, to).unwrap();
                    for cur in frames.iter_mut() {
                        proptest::prop_assert_eq!(
                            &cur.eval_pred(pred, from, to).unwrap(),
                            &want,
                            "{:?} on {:?} rows {}..{}",
                            pred,
                            cur.scheme(),
                            from,
                            to
                        );
                        check_narrow(cur, pred, from, to, &want);
                    }
                }
            }
        }
    }

    /// A decimal frame's scale byte must name a scale the encoder writes.
    #[test]
    fn decimal_scale_byte_is_checked() {
        let col = NullableColumn::not_null(ColumnData::F64(
            (0..500).map(|i| (i * 31 % 700) as f64 / 100.0).collect(),
        ));
        let (bytes, scheme) = encode_block(&col);
        assert_eq!(scheme, CompressionScheme::PforDelta);
        // No nulls flag, then the 6-byte header, then the scale.
        assert_eq!(bytes[7], 2);
        for scale in 0..=u8::MAX {
            let mut bad = bytes.clone();
            bad[7] = scale;
            let opened = BlockCursor::new(Arc::new(bad.clone()));
            assert_eq!(opened.is_ok(), scale <= crate::compress::MAX_SCALE);
            assert_eq!(
                decode_block(&bad).is_ok(),
                scale <= crate::compress::MAX_SCALE
            );
        }
    }

    /// Truncated at any length and with any byte changed, a block of any
    /// codec either fails to open or answers every entry point with a value
    /// or an error — it never panics or reads out of bounds.
    #[test]
    fn truncated_and_corrupt_blocks_never_panic() {
        let mut r = Xoshiro256::seeded(29);
        let n = 700;
        let exercise = |bytes: Vec<u8>, preds: &[Pred]| {
            let Ok(mut cur) = BlockCursor::new(Arc::new(bytes)) else {
                return;
            };
            let n = cur.n().min(4 * n);
            for (from, to) in [(0, n), (n / 2, n)] {
                let _ = cur.decode_slice(from, to);
                let _ = cur.vector(from, to, None);
                let sparse: Vec<u32> = (0..(to - from) as u32).step_by(9).collect();
                let _ = cur.decode_selected(from, to, &sparse);
                let _ = cur.vector(from, to, Some(&sparse));
                for (id, pred) in preds.iter().enumerate() {
                    let _ = cur.eval_pred(pred, from, to);
                    let _ = cur.narrow(id, pred, from, to, &mut sparse.clone());
                    let _ = cur.narrow(id, pred, from, to, &mut (0..(to - from) as u32).collect());
                }
            }
        };
        for kind in 0..COLUMN_KINDS {
            // `random_column` draws its kind first: retry until it is ours.
            let (data, scheme, preds) = loop {
                let mut probe = Xoshiro256::seeded(r.next_u64());
                if probe.clone().next_below(COLUMN_KINDS) == kind {
                    break random_column(&mut probe, n);
                }
            };
            let nulls: BitVec = (0..n).map(|i| i % 13 == 5).collect();
            let col = NullableColumn::new(data, Some(nulls));
            let good = block_of(&col, scheme);
            for len in 0..good.len().min(400) {
                exercise(good[..len].to_vec(), &preds);
            }
            for len in (0..good.len()).step_by(97) {
                exercise(good[..len].to_vec(), &preds);
            }
            for _ in 0..400 {
                let mut bad = good.clone();
                let at = r.next_below(bad.len().min(600) as u64) as usize;
                bad[at] ^= 1 << r.next_below(8);
                exercise(bad, &preds);
                let mut bad = good.clone();
                let at = r.next_below(bad.len() as u64) as usize;
                bad[at] = r.next_u64() as u8;
                exercise(bad, &preds);
            }
        }
    }

    #[test]
    fn decide_from_zone_maps() {
        let mm = MinMax::Int { min: 10, max: 30 };
        let eq = |v: i64| Pred::Cmp {
            op: PredOp::Eq,
            value: Value::I64(v),
        };
        assert_eq!(eq(5).decide(&mm, false), Some(false));
        assert_eq!(eq(20).decide(&mm, false), None);
        let ge10 = Pred::Cmp {
            op: PredOp::Ge,
            value: Value::I64(10),
        };
        assert_eq!(ge10.decide(&mm, false), Some(true));
        assert_eq!(ge10.decide(&mm, true), None); // nulls block the all-true claim
        let lt10 = Pred::Cmp {
            op: PredOp::Lt,
            value: Value::I64(10),
        };
        assert_eq!(lt10.decide(&mm, false), Some(false));
        let constant = MinMax::Int { min: 7, max: 7 };
        assert_eq!(eq(7).decide(&constant, false), Some(true));
        assert_eq!(eq(7).decide(&constant, true), None);
        let ne7 = Pred::Cmp {
            op: PredOp::Ne,
            value: Value::I64(7),
        };
        assert_eq!(ne7.decide(&constant, false), Some(false));
        let smm = MinMax::Str {
            min: "b".into(),
            max: "d".into(),
        };
        let instr = Pred::InStr {
            values: vec!["x".into(), "a".into()],
            negated: false,
        };
        assert_eq!(instr.decide(&smm, false), Some(false));
        let instr_hit = Pred::InStr {
            values: vec!["c".into()],
            negated: false,
        };
        assert_eq!(instr_hit.decide(&smm, false), None);
        assert_eq!(eq(1).decide(&MinMax::None, false), None);
    }

    /// Membership in a key set, on every integer scheme (PFOR with
    /// exceptions, PFOR-DELTA, RLE, PLAIN; i32 and i64; with NULLs), is a
    /// lookup per value through `eval_pred` and `narrow` alike: bitmap sets,
    /// bare ranges, the empty set and a range over all of i64.
    #[test]
    fn key_sets_on_every_integer_scheme() {
        use std::collections::HashSet;
        let mut r = Xoshiro256::seeded(28);
        let n = 3000;
        let pfor: Vec<i64> = (0..n)
            .map(|_| {
                if r.chance(0.02) {
                    r.range_i64(i64::MIN / 2, i64::MAX / 2)
                } else {
                    r.range_i64(500, 900)
                }
            })
            .collect();
        let sorted: Vec<i64> = (0..n as i64).map(|i| 100 + i * 3).collect();
        let runs: Vec<i64> = (0..n as i64).map(|i| i / 97 * 5).collect();
        let small: Vec<i64> = (0..n).map(|_| r.range_i64(-50, 50)).collect();
        let with_nulls = |vals: &[i64], ty: DataType, r: &mut Xoshiro256| {
            let vals: Vec<Value> = vals
                .iter()
                .map(|&v| match (r.chance(0.1), ty) {
                    (true, _) => Value::Null,
                    (false, DataType::I32) => Value::I32(v as i32),
                    _ => Value::I64(v),
                })
                .collect();
            NullableColumn::from_values(ty, &vals).unwrap()
        };
        use CompressionScheme::*;
        let cols = [
            (
                NullableColumn::not_null(ColumnData::I64(pfor.clone())),
                Pfor,
            ),
            (with_nulls(&pfor, DataType::I64, &mut r), Pfor),
            (NullableColumn::not_null(ColumnData::I64(sorted)), PforDelta),
            (NullableColumn::not_null(ColumnData::I64(runs.clone())), Rle),
            (with_nulls(&runs, DataType::I64, &mut r), Rle),
            (with_nulls(&small, DataType::I32, &mut r), Pfor),
            (with_nulls(&small, DataType::I32, &mut r), Plain),
            (with_nulls(&pfor, DataType::I64, &mut r), Plain),
        ];
        // Sets, each with the membership test it must agree with.
        let picked: Vec<i64> = (0..200).map(|_| r.range_i64(-60, 1000)).collect();
        let exc = pfor
            .iter()
            .copied()
            .find(|v| !(500..=900).contains(v))
            .unwrap();
        let keys: HashSet<i64> = picked.iter().copied().chain([exc]).collect();
        type Member<'a> = Box<dyn Fn(i64) -> bool + 'a>;
        let sets: Vec<(KeySet, Member)> = vec![
            (
                KeySet::exact(&picked).unwrap(),
                Box::new(|v| picked.contains(&v)),
            ),
            (KeySet::exact(&[exc]).unwrap(), Box::new(move |v| v == exc)),
            (KeySet::empty(), Box::new(|_| false)),
            (
                KeySet::range(550, 700),
                Box::new(|v| (550..=700).contains(&v)),
            ),
            (KeySet::range(i64::MIN, i64::MAX), Box::new(|_| true)),
            (KeySet::range(-5, 5), Box::new(|v| (-5..=5).contains(&v))),
        ];
        assert!(KeySet::exact(&[0, KeySet::MAX_BITS as i64]).is_none());
        assert!(keys
            .iter()
            .all(|&k| KeySet::exact(&picked).unwrap().contains(k) == picked.contains(&k)));
        for (col, scheme) in &cols {
            let bytes = block_of(col, Some(*scheme));
            let mut cur = BlockCursor::new(Arc::new(bytes)).unwrap();
            assert_eq!(cur.scheme(), *scheme);
            for (set, member) in &sets {
                let pred = Pred::InSet(Arc::new(set.clone()));
                for (a, b) in [(0, n), (n / 3, 2 * n / 3), (n / 2, n / 2 + 1), (5, 5)] {
                    let value = |i: usize| match &col.data {
                        ColumnData::I32(v) => v[i] as i64,
                        ColumnData::I64(v) => v[i],
                        _ => unreachable!(),
                    };
                    let want: Vec<u32> = (a..b)
                        .filter(|&i| !col.is_null(i) && member(value(i)))
                        .map(|i| (i - a) as u32)
                        .collect();
                    let got = cur.eval_pred(&pred, a, b).unwrap();
                    assert_eq!(got, want, "{:?} {:?} {}..{}", scheme, set, a, b);
                    check_narrow(&mut cur, &pred, a, b, &want);
                }
            }
        }
        // Strings and doubles hold no keys.
        let strs = NullableColumn::not_null(ColumnData::Str(StrColumn::from_iter(["a", "b"])));
        let (mut cur, _) = cursor_of(&strs);
        let pred = Pred::InSet(Arc::new(KeySet::range(0, 1)));
        assert!(cur.eval_pred(&pred, 0, 2).is_err());
        let dbl = NullableColumn::not_null(ColumnData::F64(vec![0.5, 1.0]));
        let (mut cur, _) = cursor_of(&dbl);
        assert!(cur.eval_pred(&pred, 0, 2).is_err());
    }

    /// A zone map decides a key set from its bits: no member in the block's
    /// range skips it, a range of members only (and no NULL) drops it.
    #[test]
    fn key_sets_decide_from_zone_maps() {
        let mm = |min, max| MinMax::Int { min, max };
        // Members 100..=163 and 300, over a bitmap spanning several words.
        let keys: Vec<i64> = (100..164).chain([300]).collect();
        let set = Pred::InSet(Arc::new(KeySet::exact(&keys).unwrap()));
        assert_eq!(set.decide(&mm(0, 99), false), Some(false));
        assert_eq!(set.decide(&mm(164, 299), false), Some(false));
        assert_eq!(set.decide(&mm(301, 1000), false), Some(false));
        assert_eq!(set.decide(&mm(99, 100), false), None);
        assert_eq!(set.decide(&mm(100, 163), false), Some(true));
        assert_eq!(set.decide(&mm(110, 150), true), None);
        assert_eq!(set.decide(&mm(120, 300), false), None);
        assert_eq!(set.decide(&mm(300, 300), false), Some(true));
        assert_eq!(set.decide(&MinMax::None, false), None);
        let empty = Pred::InSet(Arc::new(KeySet::empty()));
        assert_eq!(empty.decide(&mm(i64::MIN, i64::MAX), false), Some(false));
        let range = Pred::InSet(Arc::new(KeySet::range(10, 20)));
        assert_eq!(range.decide(&mm(12, 20), false), Some(true));
        assert_eq!(range.decide(&mm(12, 21), false), None);
        assert_eq!(range.decide(&mm(21, 30), false), Some(false));
        let all = Pred::InSet(Arc::new(KeySet::range(i64::MIN, i64::MAX)));
        assert_eq!(all.decide(&mm(i64::MIN, i64::MAX), false), Some(true));
    }
}
