//! Vectorized sort over **normalized keys**. Each row's ORDER BY columns are
//! encoded once into a fixed number of `u64` words whose plain unsigned
//! comparison is the requested order ([`KeyLayout`]): direction and NULL
//! placement are folded in, doubles order like `Value::total_cmp` (`-0.0` as
//! `0.0`, NaNs by IEEE total order), strings contribute an 8-byte prefix and
//! are compared in full only on a prefix tie. The words travel with the row
//! number, so sorting is one in-place `sort_unstable` over small arrays, and
//! stable on input order.
//!
//! Under a [`MemTracker`] budget [`VecSort`] becomes an **external merge
//! sort**: input batches accumulate until the budget pressures, at which
//! point the buffered rows are sorted into a *run* and spilled (run = a spill
//! file of sorted chunks). At end of input, zero runs means the in-memory
//! path ran; otherwise the runs are k-way merged with one resident chunk per
//! run (the minimal working unit, force-reserved), comparing the same keys.
//! Runs partition the input sequentially and ties prefer the lower run index,
//! so the merge reproduces the in-memory sort's input-order tiebreak exactly.

use std::cmp::Ordering;
use std::ops::Range;
use std::time::Instant;

use crate::batch::{Batch, ExecVector};
use crate::mem::MemTracker;
use crate::spill::{batch_bytes, read_batch, write_batch, QueryEnv};
use vw_common::waits::WaitStats;
use vw_common::{DataType, Result, Schema};
use vw_plan::SortKey;
use vw_storage::{ColumnData, SpillFile};

use super::{concat_batches, empty_columns, lap, BatchSource, BoxedOperator, Operator, VecLimit};

/// The bits of a key-buffer row's last word that hold its row number.
const ROW: u64 = u32::MAX as u64;

/// A bit field inside a key: `word`, and the left shift of its lowest bit.
#[derive(Clone, Copy)]
struct Field {
    word: usize,
    shift: u32,
}

/// One ORDER BY column's place in the key: an optional 1-bit NULL flag, then
/// the value field.
struct KeyPart {
    key: SortKey,
    flag: Option<Field>,
    value: Field,
    /// Mask of the value field's width (applied inverted for DESC).
    mask: u64,
}

/// How rows are encoded into comparable words. Fields are packed in ORDER BY
/// order from the top bit of word 0 and never straddle a word; per type:
///
/// | column | bits | encoding (ascending) |
/// |---|---|---|
/// | NULL flag (only if the column can hold NULLs) | 1 | NULLS FIRST: 0 = NULL; NULLS LAST: 1 = NULL; a NULL's value field is 0 |
/// | bool | 1 | the bit |
/// | i32 / date | 32 | sign bit flipped |
/// | i64 | 64 | sign bit flipped |
/// | f64 | 64 | `-0.0` → `0.0`; sign bit flipped if positive, all bits if negative |
/// | string | 64 | first 8 bytes, big-endian, zero-padded; ties need the full compare |
///
/// DESC inverts the value field. A key is `words` words. Buffers carry each
/// row's number after its key, so equal keys keep input order: in the low
/// 32 bits of the last key word when the fields leave them free, else in
/// one more word.
pub(crate) struct KeyLayout {
    parts: Vec<KeyPart>,
    words: usize,
    /// Whether row numbers ride in the last key word.
    packed: bool,
    /// `(word after a string prefix, its key index)`: comparison must stop
    /// there for the full string compare before looking further.
    str_ends: Vec<(usize, usize)>,
}

impl KeyLayout {
    /// Layout for `keys` over `schema`; key `i` gets a NULL flag iff
    /// `flagged[i]`.
    fn new(keys: &[SortKey], schema: &Schema, flagged: &[bool]) -> KeyLayout {
        let mut bit = 0usize; // next free bit, counted from the top of word 0
        let mut place = |bits: usize| {
            if bit % 64 + bits > 64 {
                bit = bit.next_multiple_of(64);
            }
            bit += bits;
            Field {
                word: (bit - 1) / 64,
                shift: ((64 - bit % 64) % 64) as u32,
            }
        };
        let (mut parts, mut str_ends) = (Vec::new(), Vec::new());
        for (i, key) in keys.iter().enumerate() {
            let flag = flagged[i].then(|| place(1));
            let bits = match ColumnData::physical_type(schema.field(key.col).ty) {
                DataType::Bool => 1,
                DataType::I32 => 32,
                _ => 64,
            };
            let value = place(bits);
            if schema.field(key.col).ty == DataType::Str {
                str_ends.push((value.word + 1, i));
            }
            parts.push(KeyPart {
                key: *key,
                flag,
                value,
                mask: u64::MAX >> (64 - bits),
            });
        }
        KeyLayout {
            parts,
            words: bit.div_ceil(64),
            packed: bit.next_multiple_of(64) - bit >= 32,
            str_ends,
        }
    }

    /// This layout with row numbers in a word of their own: a merge
    /// compares key words alone across runs.
    fn unpacked(self) -> KeyLayout {
        KeyLayout {
            packed: false,
            ..self
        }
    }

    /// Words per row in a key buffer: the key, then the row number unless
    /// the key holds it.
    fn stride(&self) -> usize {
        self.words + !self.packed as usize
    }

    /// The row number of key-buffer row `k`.
    fn row(&self, k: &[u64]) -> usize {
        (k[self.stride() - 1] & ROW) as usize
    }

    fn set_row(&self, k: &mut [u64], row: usize) {
        let w = &mut k[self.stride() - 1];
        *w = *w & !ROW | row as u64;
    }

    /// Bytes of the key buffer and the `u32` row order a sort of `rows` rows
    /// holds.
    fn sort_bytes(&self, rows: usize) -> usize {
        rows * (self.stride() * 8 + 4)
    }

    /// Words a comparison with a bound settles alone: up to the end of the
    /// first string prefix, whose tie needs the full strings.
    fn decided(&self) -> usize {
        self.str_ends.first().map_or(self.words, |e| e.0)
    }

    /// Append to `out` the key-buffer rows of rows `rows` of `cols`, each
    /// numbered by its row.
    fn encode(&self, cols: &[ExecVector], rows: Range<usize>, out: &mut Vec<u64>) {
        self.encode_rows(cols, rows.len(), |i| rows.start + i, out);
    }

    /// Append to `out` the key-buffer rows of the `n` rows `at(0..n)` of
    /// `cols`, each numbered by its row.
    fn encode_rows<F>(&self, cols: &[ExecVector], n: usize, at: F, out: &mut Vec<u64>)
    where
        F: Fn(usize) -> usize + Copy,
    {
        let s = self.stride();
        let base = out.len();
        out.resize(base + n * s, 0);
        let out = &mut out[base..];
        self.fill(cols, at, s, self.words, out);
        for (i, k) in out.chunks_exact_mut(s).enumerate() {
            self.set_row(k, at(i));
        }
    }

    /// Overwrite `out` with word 0 alone of the keys of the `n` rows
    /// `at(0..n)` of `cols`, one word per row.
    fn encode_lead<F>(&self, cols: &[ExecVector], n: usize, at: F, out: &mut Vec<u64>)
    where
        F: Fn(usize) -> usize + Copy,
    {
        out.clear();
        out.resize(n, 0);
        self.fill(cols, at, 1, 1, out);
    }

    /// Write the key fields that lie in words `0..words` of rows `at(i)` of
    /// `cols` into the zeroed rows of `stride` words of `out`, each key
    /// column's type matched once.
    fn fill<F>(&self, cols: &[ExecVector], at: F, stride: usize, words: usize, out: &mut [u64])
    where
        F: Fn(usize) -> usize + Copy,
    {
        let prefix = |s: &[u8]| {
            let mut prefix = [0u8; 8];
            prefix[..s.len().min(8)].copy_from_slice(&s[..s.len().min(8)]);
            u64::from_be_bytes(prefix)
        };
        for p in &self.parts {
            // A flag precedes its value, so it is in range when the value is.
            if p.flag.unwrap_or(p.value).word >= words {
                continue;
            }
            let col = &cols[p.key.col];
            let inv = if p.key.asc { 0 } else { p.mask };
            let out = Rows {
                out: &mut *out,
                stride,
                at,
                value: p.value.word < words,
            };
            match &col.data {
                ColumnData::Bool(v) => out.put(p, col, |r| v[r] as u64 ^ inv),
                ColumnData::I32(v) => out.put(p, col, |r| (v[r] as u32 ^ 0x8000_0000) as u64 ^ inv),
                ColumnData::I64(v) => out.put(p, col, |r| v[r] as u64 ^ (1 << 63) ^ inv),
                ColumnData::F64(v) => out.put(p, col, |r| {
                    let b = (if v[r] == 0.0 { 0.0 } else { v[r] }).to_bits();
                    (if b >> 63 == 1 { !b } else { b | 1 << 63 }) ^ inv
                }),
                ColumnData::Str(v) => out.put(p, col, |r| prefix(v.get_bytes(r)) ^ inv),
                ColumnData::Dict(v) => out.put(p, col, |r| prefix(v.get_bytes(r)) ^ inv),
            }
        }
    }

    /// Order of two buffer rows (key words, then row number). `tie(key)`
    /// settles the string key `key` whose prefixes (and NULL flags) tied.
    fn cmp_rows(&self, a: &[u64], b: &[u64], tie: impl Fn(usize) -> Ordering) -> Ordering {
        let mut from = 0;
        for &(end, key) in &self.str_ends {
            let ord = a[from..end].cmp(&b[from..end]).then_with(|| tie(key));
            if ord != Ordering::Equal {
                return ord;
            }
            from = end;
        }
        a[from..].cmp(&b[from..])
    }

    /// The full compare behind a string prefix tie: row `i` of `a` against
    /// row `j` of `b` (same batch or not) on key `key`. The NULL flags tied
    /// too, so the rows are both NULL or both not.
    fn str_tie(
        &self,
        key: usize,
        a: &[ExecVector],
        i: usize,
        b: &[ExecVector],
        j: usize,
    ) -> Ordering {
        let k = &self.parts[key].key;
        let (a, b) = (&a[k.col], &b[k.col]);
        let (ColumnData::Str(x), ColumnData::Str(y), false) = (&a.data, &b.data, a.is_null(i))
        else {
            return Ordering::Equal;
        };
        let ord = x.get_bytes(i).cmp(y.get_bytes(j));
        if k.asc {
            ord
        } else {
            ord.reverse()
        }
    }

    /// Sort the rows of a key buffer over `cols` in place: by key, then row
    /// number.
    fn sort(&self, keys: &mut [u64], cols: &[ExecVector]) {
        self.arrange(keys, cols, None);
    }

    /// Select in place: row `nth` of the key buffer becomes the one a sort
    /// would put there, rows before it its betters, rows after it the rest.
    fn select(&self, keys: &mut [u64], cols: &[ExecVector], nth: usize) {
        self.arrange(keys, cols, Some(nth));
    }

    /// Sort a key buffer, or select its row `nth`. Keys of up to four words
    /// are ordered as fixed-size arrays.
    fn arrange(&self, keys: &mut [u64], cols: &[ExecVector], nth: Option<usize>) {
        fn arrange_n<const N: usize>(
            layout: &KeyLayout,
            keys: &mut [u64],
            cols: &[ExecVector],
            nth: Option<usize>,
        ) {
            let (rows, _) = keys.as_chunks_mut::<N>();
            if layout.str_ends.is_empty() {
                return match nth {
                    None => rows.sort_unstable(),
                    Some(k) => select_nth(rows, k, Ord::cmp),
                };
            }
            let cmp = |a: &[u64; N], b: &[u64; N]| {
                let (i, j) = (layout.row(a), layout.row(b));
                layout.cmp_rows(a, b, |key| layout.str_tie(key, cols, i, cols, j))
            };
            match nth {
                None => rows.sort_unstable_by(cmp),
                Some(k) => select_nth(rows, k, cmp),
            }
        }
        match self.stride() {
            2 => arrange_n::<2>(self, keys, cols, nth),
            3 => arrange_n::<3>(self, keys, cols, nth),
            4 => arrange_n::<4>(self, keys, cols, nth),
            5 => arrange_n::<5>(self, keys, cols, nth),
            s => {
                // Wider keys: order row positions, then permute the buffer.
                let row = |i: &u32| &keys[*i as usize * s..][..s];
                let mut order: Vec<u32> = (0..(keys.len() / s) as u32).collect();
                let cmp = |i: &u32, j: &u32| {
                    let (a, b) = (row(i), row(j));
                    let tie = |key| self.str_tie(key, cols, self.row(a), cols, self.row(b));
                    self.cmp_rows(a, b, tie)
                };
                match nth {
                    None => order.sort_unstable_by(cmp),
                    Some(k) => select_nth(&mut order, k, cmp),
                }
                let sorted: Vec<u64> = order.iter().flat_map(|i| row(i).iter().copied()).collect();
                keys.copy_from_slice(&sorted);
            }
        }
    }
}

/// `select_nth_unstable_by(k, cmp)`, narrowed first when it keeps few of
/// many: one partition around a pivot from an even sample, ranked so that
/// about `2(k + 1)` rows fall at or below it, passes over the rows once
/// where a quickselect passes several times. Should fewer than `k + 1` rows
/// fall there, the whole (reordered) slice is selected.
fn select_nth<T: Copy>(rows: &mut [T], k: usize, cmp: impl Fn(&T, &T) -> Ordering) {
    const SAMPLE: usize = 1024;
    let len = rows.len();
    if len / 8 > k + 1 && len >= 4 * SAMPLE {
        let step = len / SAMPLE;
        let mut sample: Vec<T> = (0..SAMPLE).map(|i| rows[i * step]).collect();
        let rank = ((k + 1) * 2 * SAMPLE / len + 8).min(SAMPLE - 1);
        let pivot = *sample.select_nth_unstable_by(rank, &cmp).1;
        let mut below = 0;
        for i in 0..len {
            if cmp(&rows[i], &pivot) != Ordering::Greater {
                rows.swap(below, i);
                below += 1;
            }
        }
        if below > k {
            rows[..below].select_nth_unstable_by(k, cmp);
            return;
        }
    }
    rows.select_nth_unstable_by(k, cmp);
}

/// Rows of `stride` words being filled with one key column's fields, row
/// `i` from source row `at(i)`; `value` says whether the value field lies in
/// range too, or only the NULL flag.
struct Rows<'a, F> {
    out: &'a mut [u64],
    stride: usize,
    at: F,
    value: bool,
}

impl<F: Fn(usize) -> usize + Copy> Rows<'_, F> {
    fn put(self, p: &KeyPart, col: &ExecVector, val: impl Fn(usize) -> u64) {
        let Rows {
            out,
            stride,
            at,
            value,
        } = self;
        let rows = out.chunks_exact_mut(stride).enumerate();
        let rows = rows.map(|(i, k)| (at(i), k));
        let Some(flag) = p.flag else {
            debug_assert!(!col.nulls.as_ref().is_some_and(|n| n.contains(&true)));
            return rows.for_each(|(r, k)| k[p.value.word] |= val(r) << p.value.shift);
        };
        let (null_bit, value_bit) = if p.key.nulls_first { (0, 1) } else { (1, 0) };
        for (r, k) in rows {
            if col.is_null(r) {
                k[flag.word] |= null_bit << flag.shift;
            } else {
                k[flag.word] |= value_bit << flag.shift;
                if value {
                    k[p.value.word] |= val(r) << p.value.shift;
                }
            }
        }
    }
}

/// Which key columns of `cols` hold a NULL (and so need a flag bit).
fn nullable_keys(keys: &[SortKey], cols: &[ExecVector]) -> Vec<bool> {
    let has_null = |k: &SortKey| {
        cols[k.col]
            .nulls
            .as_ref()
            .is_some_and(|n| n.contains(&true))
    };
    keys.iter().map(has_null).collect()
}

/// `EXPLAIN ANALYZE` figures of the sort operators: widest key in bytes, and
/// (profiling only) time encoding keys vs sorting them, one sample per batch
/// or run.
#[derive(Default)]
struct SortProfile {
    key_bytes: u64,
    encode_ns: u64,
    sort_ns: u64,
}

impl SortProfile {
    fn extras(&self, timed: bool, ex: &mut Vec<(&'static str, u64)>) {
        ex.push(("key_bytes", self.key_bytes));
        if timed {
            ex.push(("encode_ns", self.encode_ns));
            ex.push(("sort_ns", self.sort_ns));
        }
    }
}

/// Sort operator.
pub struct VecSort {
    input: BoxedOperator,
    keys: Vec<SortKey>,
    schema: Schema,
    vector_size: usize,
    /// The query's environment: run spills become trace events, and their
    /// reads and writes blocked time.
    env: QueryEnv,
    state: State,
    prof: SortProfile,
}

enum State {
    Pending,
    InMem(Sorted),
    Merge(MergeState),
}

/// Rows and their row numbers in output order, from `pos` on. Chunks are
/// gathered as they are pulled, so a LIMIT above pays for what it takes.
struct Sorted {
    cols: Vec<ExecVector>,
    order: Vec<u32>,
    pos: usize,
}

impl Sorted {
    fn next_chunk(&mut self, vector_size: usize) -> Option<Batch> {
        let chunk = &self.order[self.pos..(self.pos + vector_size).min(self.order.len())];
        self.pos += chunk.len();
        let cols = self.cols.iter().map(|c| c.gather(chunk));
        (!chunk.is_empty()).then(|| Batch::new(cols.collect()))
    }
}

impl VecSort {
    pub fn new(input: BoxedOperator, keys: Vec<SortKey>, vector_size: usize) -> VecSort {
        let schema = input.schema().clone();
        VecSort {
            input,
            keys,
            schema,
            vector_size: vector_size.max(1),
            env: QueryEnv::default(),
            state: State::Pending,
            prof: SortProfile::default(),
        }
    }

    /// Run in the query's environment: its memory budget, its disk to
    /// spill to, its trace and the plan node's wait ledger.
    pub fn set_env(&mut self, env: QueryEnv) {
        self.env = env;
    }

    /// The layout of a sort over `batches`: a NULL flag only on the key
    /// columns that hold a NULL in one of them.
    fn layout_for(&self, batches: &[Batch]) -> KeyLayout {
        let mut flagged = vec![false; self.keys.len()];
        for b in batches {
            let nullable = nullable_keys(&self.keys, &b.columns);
            flagged.iter_mut().zip(nullable).for_each(|(f, n)| *f |= n);
        }
        KeyLayout::new(&self.keys, &self.schema, &flagged)
    }

    /// `batch`'s row numbers in output order — encode its rows, number them
    /// `0..`, sort — the shared kernel of the in-memory and the run path.
    fn sorted_order(&mut self, batch: &Batch, layout: &KeyLayout) -> Vec<u32> {
        let mut clock = self.env.waits.as_ref().map(|_| Instant::now());
        let s = layout.stride();
        let mut keys = Vec::new();
        layout.encode(&batch.columns, 0..batch.rows, &mut keys);
        lap(&mut clock, &mut self.prof.encode_ns);
        layout.sort(&mut keys, &batch.columns);
        lap(&mut clock, &mut self.prof.sort_ns);
        self.prof.key_bytes = self.prof.key_bytes.max(layout.words as u64 * 8);
        keys.chunks_exact(s).map(|k| layout.row(k) as u32).collect()
    }

    /// Sort the buffered batches into one run and spill it. The run's key
    /// buffer is part of the minimal working unit.
    fn flush_run(&mut self, pending: &mut Vec<Batch>, runs: &mut Vec<SpillFile>) -> Result<()> {
        let span = self.env.trace.as_ref().map(|t| t.start());
        let layout = self.layout_for(pending);
        let batch = concat_batches(std::mem::take(pending), self.schema.len());
        self.env.mem.force_grow(layout.sort_bytes(batch.rows));
        let order = self.sorted_order(&batch, &layout);
        let mut file = SpillFile::new(self.env.spill_disk());
        for chunk in order.chunks(self.vector_size) {
            let chunk = Batch::new(batch.columns.iter().map(|c| c.gather(chunk)).collect());
            write_batch(&mut file, &chunk, self.env.waits.as_deref())?;
        }
        self.env.mem.note_spill(file.bytes());
        if let (Some(t), Some(start)) = (&self.env.trace, span) {
            t.span_arg("spill write", "spill", start, Some(("bytes", file.bytes())));
        }
        self.env.mem.release_all();
        runs.push(file);
        Ok(())
    }

    fn run(&mut self) -> Result<State> {
        let mut pending: Vec<Batch> = Vec::new();
        let mut runs: Vec<SpillFile> = Vec::new();
        while let Some(b) = self.input.next()? {
            let b = b.materialize();
            if b.rows == 0 {
                continue;
            }
            let bytes = batch_bytes(&b);
            if !self.env.mem.try_grow(bytes) {
                if !pending.is_empty() {
                    self.flush_run(&mut pending, &mut runs)?;
                }
                if !self.env.mem.try_grow(bytes) {
                    // A single input batch larger than the whole budget is
                    // the minimal working unit — take it anyway.
                    self.env.mem.force_grow(bytes);
                }
            }
            pending.push(b);
        }
        let rows: usize = pending.iter().map(|b| b.rows).sum();
        let layout = self.layout_for(&pending);
        if runs.is_empty() && self.env.mem.try_grow(layout.sort_bytes(rows)) {
            // Never pressured, key buffer included: the in-memory sort.
            let batch = match pending.is_empty() {
                true => Batch::new(empty_columns(&self.schema)),
                false => concat_batches(pending, self.schema.len()),
            };
            let order = self.sorted_order(&batch, &layout);
            let held =
                batch.columns.iter().map(|c| c.heap_bytes()).sum::<usize>() + order.capacity() * 4;
            let mut reserved = self.env.mem.reserved() as usize;
            self.env.mem.resize(&mut reserved, held, true);
            return Ok(State::InMem(Sorted {
                cols: batch.columns,
                order,
                pos: 0,
            }));
        }
        if !pending.is_empty() {
            self.flush_run(&mut pending, &mut runs)?;
        }
        let layout =
            KeyLayout::new(&self.keys, &self.schema, &vec![true; self.keys.len()]).unpacked();
        let QueryEnv { mem, waits, .. } = &mut self.env;
        let cursors = runs
            .into_iter()
            .map(|file| RunCursor::open(file, &layout, mem, waits.as_deref()))
            .collect::<Result<Vec<_>>>()?;
        Ok(State::Merge(MergeState { layout, cursors }))
    }
}

/// A run's current row: its chunk's columns, its position there, its key.
type RunRow<'a> = (&'a [ExecVector], usize, &'a [u64]);

/// One sorted run being merged: the resident chunk, its keys and a read
/// position.
struct RunCursor {
    file: SpillFile,
    next_chunk: usize,
    batch: Option<Batch>,
    keys: Vec<u64>,
    pos: usize,
    resident_bytes: usize,
}

impl RunCursor {
    fn open(
        file: SpillFile,
        layout: &KeyLayout,
        mem: &mut MemTracker,
        waits: Option<&WaitStats>,
    ) -> Result<RunCursor> {
        let mut c = RunCursor {
            file,
            next_chunk: 0,
            batch: None,
            keys: Vec::new(),
            pos: 0,
            resident_bytes: 0,
        };
        c.load_next(layout, mem, waits)?;
        Ok(c)
    }

    fn load_next(
        &mut self,
        layout: &KeyLayout,
        mem: &mut MemTracker,
        waits: Option<&WaitStats>,
    ) -> Result<()> {
        self.batch = None;
        self.keys.clear();
        let mut resident = 0;
        if self.next_chunk < self.file.chunk_count() {
            let b = read_batch(&self.file, self.next_chunk, waits)?;
            self.next_chunk += 1;
            layout.encode(&b.columns, 0..b.rows, &mut self.keys);
            resident = batch_bytes(&b) + self.keys.capacity() * 8;
            self.pos = 0;
            self.batch = Some(b);
        }
        // One chunk per run is the merge's minimal working unit.
        mem.resize(&mut self.resident_bytes, resident, true);
        Ok(())
    }

    /// The current row: its chunk's columns, position and key words.
    fn current(&self, layout: &KeyLayout) -> Option<RunRow<'_>> {
        let b = self.batch.as_ref()?;
        Some((
            &b.columns,
            self.pos,
            &self.keys[self.pos * layout.stride()..][..layout.words],
        ))
    }
}

struct MergeState {
    /// Every key flagged: chunks of different runs must encode alike.
    layout: KeyLayout,
    cursors: Vec<RunCursor>,
}

impl MergeState {
    /// The run whose current row comes next. The lower run index wins ties
    /// (`min_by` keeps the first minimum): runs hold sequential input
    /// segments, so this preserves stability.
    fn pick(&self) -> Option<usize> {
        let rows = self.cursors.iter().enumerate();
        let rows = rows.filter_map(|(ci, cur)| Some((ci, cur.current(&self.layout)?)));
        let next = rows.min_by(|(_, a), (_, b)| {
            let tie = |key| self.layout.str_tie(key, a.0, a.1, b.0, b.1);
            self.layout.cmp_rows(a.2, b.2, tie)
        });
        next.map(|(ci, _)| ci)
    }

    /// Emit the next merged output batch. Consecutive picks from one run's
    /// chunk are copied with one gather per column.
    fn next_batch(
        &mut self,
        schema: &Schema,
        vector_size: usize,
        mem: &mut MemTracker,
        waits: Option<&WaitStats>,
    ) -> Result<Option<Batch>> {
        fn copy_rows(out: &mut [ExecVector], from: &RunCursor, lanes: &mut Vec<u32>) {
            if let Some(chunk) = &from.batch {
                for (o, c) in out.iter_mut().zip(&chunk.columns) {
                    o.extend_from(c, Some(lanes));
                }
            }
            lanes.clear();
        }
        let mut out = empty_columns(schema);
        let mut rows = 0;
        // Rows `lanes` of cursor `from`'s chunk are picked but not yet copied.
        let (mut from, mut lanes) = (0, Vec::new());
        while rows < vector_size {
            let Some(ci) = self.pick() else {
                break;
            };
            if ci != from {
                copy_rows(&mut out, &self.cursors[from], &mut lanes);
                from = ci;
            }
            let cur = &mut self.cursors[ci];
            lanes.push(cur.pos as u32);
            cur.pos += 1;
            rows += 1;
            if cur.batch.as_ref().is_some_and(|b| cur.pos == b.rows) {
                copy_rows(&mut out, cur, &mut lanes);
                cur.load_next(&self.layout, mem, waits)?;
            }
        }
        copy_rows(&mut out, &self.cursors[from], &mut lanes);
        if rows == 0 {
            return Ok(None);
        }
        let mut b = Batch::new(out);
        b.rows = rows;
        Ok(Some(b))
    }
}

impl Operator for VecSort {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if matches!(self.state, State::Pending) {
            self.state = self.run()?;
        }
        match &mut self.state {
            State::Pending => unreachable!(),
            State::InMem(sorted) => Ok(sorted.next_chunk(self.vector_size)),
            State::Merge(m) => m.next_batch(
                &self.schema,
                self.vector_size,
                &mut self.env.mem,
                self.env.waits.as_deref(),
            ),
        }
    }

    fn profile_extras(&self) -> Vec<(&'static str, u64)> {
        let mut ex = vec![("peak_bytes", self.env.mem.peak())];
        if self.env.mem.spill_events() > 0 {
            ex.push(("spill_runs", self.env.mem.spill_events()));
            ex.push(("spill_bytes", self.env.mem.spill_bytes()));
        }
        self.prof.extras(self.env.waits.is_some(), &mut ex);
        ex
    }
}

/// Top-N: the fused form of `Limit(offset, fetch)` over `Sort(keys)`, at
/// any `N = offset + fetch`. It keeps a pool of candidate rows — columns in
/// arrival order plus their key-buffer rows, numbered by pool position.
///
/// - **Cuts select, they do not sort.** When the pool reaches its
///   threshold (2N rows, at least 1024), `select_nth_unstable` moves the N
///   best rows to the front; the N-th becomes the *bound*. One sweep puts
///   the kept rows back in arrival order, so equal keys keep the first
///   arrivals and the kept rows are exactly what a full stable sort would
///   emit first. Only the final pool, cut to N, is sorted.
/// - **Word 0 decides first.** An arriving row is compared with the bound
///   on key word 0 alone; only a tie there encodes the rest of its key, and
///   only a row that can still beat the bound is copied into the pool.
/// - **The threshold adapts to input order.** A cut pays for itself by the
///   rows its bound rejects. When the bound has rejected less than a
///   quarter of the rows offered since the last cut — input that arrives
///   worst first, such as `ORDER BY <clustered key> DESC` — the pool doubles
///   its threshold instead of cutting again, so that shape costs about one
///   selection over the buffered input.
///
/// Memory-safe: the pool is charged to the query's [`MemTracker`]; if the
/// reservation fails the operator falls back to a full external [`VecSort`]
/// (fed the pooled rows plus the rest of the input) under [`VecLimit`],
/// preserving exact output equivalence.
pub struct TopN {
    input: Option<BoxedOperator>,
    keys: Vec<SortKey>,
    schema: Schema,
    vector_size: usize,
    offset: u64,
    fetch: u64,
    /// `offset + fetch`, saturating.
    n: usize,
    /// The query's environment, handed on whole to the fallback sort.
    env: QueryEnv,
    state: TopNState,
    fell_back: bool,
    prof: SortProfile,
    /// Input rows the bound rejected before they were copied.
    cut_rows: u64,
    /// Selections that cut the pool back to N rows, the final one included.
    cuts: u64,
    /// Largest pool, in rows.
    pool_rows: u64,
}

enum TopNState {
    Pending,
    InMem(Sorted),
    Fallback(BoxedOperator),
}

/// Top-N's candidate rows: `cols` in arrival order, `keys` the key-buffer
/// rows of the first of them, numbered by pool position. The rows admitted
/// since the last cut get theirs when the pool is next cut, in one piece.
struct Pool {
    cols: Vec<ExecVector>,
    keys: Vec<u64>,
    layout: KeyLayout,
    flagged: Vec<bool>,
    /// Pool position of the N-th best row at the last cut: every arriving
    /// row must beat its key.
    bound: Option<usize>,
    /// Rows the pool may hold before it is cut.
    threshold: usize,
    /// Rows offered since the last cut, and how many of them the bound
    /// rejected.
    offered: usize,
    rejected: usize,
}

impl Pool {
    fn rows(&self) -> usize {
        self.cols.first().map_or(0, |c| c.len())
    }

    /// Bytes held, counting the keys the rows since the last cut will get.
    fn heap_bytes(&self) -> usize {
        let cols = self.cols.iter().map(|c| c.heap_bytes()).sum::<usize>();
        let unencoded = self.rows() - self.keys.len() / self.layout.stride();
        cols + (self.keys.capacity() + unencoded * self.layout.stride()) * 8
    }

    /// Give key columns that turn out to hold NULLs in `cols` a flag bit:
    /// the pool's keys, the bound's among them, are re-encoded under the
    /// wider layout.
    fn widen(&mut self, keys: &[SortKey], schema: &Schema, cols: &[ExecVector]) {
        let nullable = nullable_keys(keys, cols);
        if nullable.iter().zip(&self.flagged).all(|(&n, &f)| f || !n) {
            return;
        }
        let flagged = self.flagged.iter_mut().zip(nullable);
        flagged.for_each(|(f, n)| *f |= n);
        let encoded = self.keys.len() / self.layout.stride();
        self.layout = KeyLayout::new(keys, schema, &self.flagged);
        self.keys.clear();
        self.layout.encode(&self.cols, 0..encoded, &mut self.keys);
    }

    /// Encode the keys of the rows admitted since the last cut.
    fn encode_rest(&mut self) {
        let (s, rows) = (self.layout.stride(), self.rows());
        let from = self.keys.len() / s;
        self.keys.reserve_exact((rows - from) * s);
        self.layout.encode(&self.cols, from..rows, &mut self.keys);
    }

    /// Keep the best `n` rows, in arrival order, and make the N-th the bound.
    fn cut(&mut self, n: usize) {
        self.encode_rest();
        let s = self.layout.stride();
        self.layout.select(&mut self.keys, &self.cols, n - 1);
        let nth = self.layout.row(&self.keys[(n - 1) * s..]);
        // slot[position] = the kept key row of the row at that position.
        let mut slot = vec![u32::MAX; self.rows()];
        for (i, k) in self.keys[..n * s].chunks_exact(s).enumerate() {
            slot[self.layout.row(k)] = i as u32;
        }
        let kept = (0..slot.len() as u32).filter(|&r| slot[r as usize] != u32::MAX);
        let order: Vec<u32> = kept.collect();
        let mut keys = vec![0; n * s];
        for (at, (k, &r)) in keys.chunks_exact_mut(s).zip(&order).enumerate() {
            let from = slot[r as usize] as usize * s;
            k.copy_from_slice(&self.keys[from..][..s]);
            self.layout.set_row(k, at);
            if r as usize == nth {
                self.bound = Some(at);
            }
        }
        self.keys = keys;
        self.cols = self.cols.iter().map(|c| c.gather(&order)).collect();
        (self.offered, self.rejected) = (0, 0);
    }

    /// The pool positions of the best `n` rows, in output order. The one
    /// full sort: of at most `n` rows.
    fn finish(&mut self, n: usize) -> Vec<u32> {
        self.encode_rest();
        let s = self.layout.stride();
        if self.rows() > n {
            self.layout.select(&mut self.keys, &self.cols, n - 1);
            self.keys.truncate(n * s);
        }
        self.layout.sort(&mut self.keys, &self.cols);
        let rows = self.keys.chunks_exact(s);
        rows.map(|k| self.layout.row(k) as u32).collect()
    }
}

/// Buffers [`TopN`] reuses from one input vector to the next.
#[derive(Default)]
struct Scratch {
    /// Key word 0 of each arriving row.
    lead: Vec<u64>,
    /// The rows that may still beat the bound.
    lanes: Vec<u32>,
    /// Rows tied with the bound on word 0, and their full keys.
    ties: Vec<u32>,
    tie_keys: Vec<u64>,
    /// The bound's key words.
    bound: Vec<u64>,
}

impl Scratch {
    fn heap_bytes(&self) -> usize {
        let words = self.lead.capacity() + self.tie_keys.capacity() + self.bound.capacity();
        words * 8 + (self.lanes.capacity() + self.ties.capacity()) * 4
    }

    /// Fill `lanes` with the rows among the `n` rows `at(0..n)` of `cols`
    /// that can still beat `bound`, or return `true` when all of them can.
    /// A later row loses a full tie with the bound, and only a tie on a
    /// string prefix leaves the comparison open.
    fn survivors<F>(&mut self, layout: &KeyLayout, cols: &[ExecVector], n: usize, at: F) -> bool
    where
        F: Fn(usize) -> usize + Copy,
    {
        let Scratch {
            lead,
            lanes,
            ties,
            tie_keys,
            bound,
        } = self;
        let (decided, open) = (layout.decided(), !layout.str_ends.is_empty());
        layout.encode_lead(cols, n, at, lead);
        // A tie on word 0 is settled by the words after it, if there are.
        let (b0, tie_kept) = (bound[0], decided > 1 || open);
        if lead.iter().all(|&w| w < b0) {
            return true;
        }
        lanes.resize(n, 0);
        let (mut kept, mut tied) = (0, 0);
        for (i, &w) in lead.iter().enumerate() {
            lanes[kept] = i as u32;
            kept += (w < b0 || (w == b0 && tie_kept)) as usize;
            tied += (w == b0) as usize;
        }
        lanes.truncate(kept);
        if decided > 1 && tied > 0 {
            ties.clear();
            let tie_rows = lanes.iter().filter(|&&i| lead[i as usize] == b0);
            ties.extend(tie_rows.map(|&i| at(i as usize) as u32));
            tie_keys.clear();
            layout.encode_rows(cols, ties.len(), |j| ties[j] as usize, tie_keys);
            let mut tie_keys = tie_keys.chunks_exact_mut(layout.stride());
            lanes.retain(|&i| {
                if lead[i as usize] != b0 {
                    return true;
                }
                let k = tie_keys.next().expect("one key per tie");
                layout.set_row(k, 0);
                match k[..decided].cmp(&bound[..decided]) {
                    Ordering::Less => true,
                    Ordering::Equal => open,
                    Ordering::Greater => false,
                }
            });
        }
        lanes.iter_mut().for_each(|l| *l = at(*l as usize) as u32);
        false
    }
}

impl TopN {
    pub fn new(
        input: BoxedOperator,
        keys: Vec<SortKey>,
        offset: u64,
        fetch: u64,
        vector_size: usize,
    ) -> TopN {
        let schema = input.schema().clone();
        let n = usize::try_from(offset.saturating_add(fetch)).unwrap_or(usize::MAX);
        TopN {
            input: Some(input),
            keys,
            schema,
            vector_size: vector_size.max(1),
            offset,
            fetch,
            n,
            env: QueryEnv::default(),
            state: TopNState::Pending,
            fell_back: false,
            prof: SortProfile::default(),
            cut_rows: 0,
            cuts: 0,
            pool_rows: 0,
        }
    }

    /// Run in the query's environment; the fallback sort inherits it.
    pub fn set_env(&mut self, env: QueryEnv) {
        self.env = env;
    }

    /// Append to the pool the rows of `b` that can still make the cut, then
    /// cut the pool or raise its threshold if it is full.
    fn admit(&mut self, pool: &mut Pool, b: &Batch, scratch: &mut Scratch) {
        let mut clock = self.env.waits.as_ref().map(|_| Instant::now());
        pool.widen(&self.keys, &self.schema, &b.columns);
        let s = pool.layout.stride();
        let lanes = match (pool.bound, &b.sel) {
            (None, sel) => sel.as_deref(),
            (Some(at), sel) => {
                scratch.bound.clear();
                scratch.bound.extend_from_slice(&pool.keys[at * s..][..s]);
                pool.layout.set_row(&mut scratch.bound, 0);
                let all = match sel {
                    None => scratch.survivors(&pool.layout, &b.columns, b.rows, |i| i),
                    Some(sel) => {
                        let at = |i: usize| sel[i] as usize;
                        scratch.survivors(&pool.layout, &b.columns, sel.len(), at)
                    }
                };
                if all {
                    sel.as_deref()
                } else {
                    Some(&scratch.lanes[..])
                }
            }
        };
        let admitted = lanes.map_or(b.rows, |l| l.len());
        let rejected = b.len() - admitted;
        for (p, c) in pool.cols.iter_mut().zip(&b.columns) {
            p.extend_from(c, lanes);
        }
        (pool.offered, pool.rejected) = (pool.offered + b.len(), pool.rejected + rejected);
        self.cut_rows += rejected as u64;
        self.pool_rows = self.pool_rows.max(pool.rows() as u64);
        lap(&mut clock, &mut self.prof.encode_ns);
        if pool.rows() >= pool.threshold {
            if pool.bound.is_some() && pool.rejected * 4 < pool.offered {
                // The last bound barely rejects: the input is arriving worst
                // first, and cutting again would buy nothing.
                pool.threshold = pool.threshold.saturating_mul(2);
            } else {
                pool.cut(self.n);
                self.cuts += 1;
                lap(&mut clock, &mut self.prof.sort_ns);
            }
        }
    }

    fn run(&mut self) -> Result<TopNState> {
        let mut input = self.input.take().expect("TopN input consumed twice");
        let flagged = vec![false; self.keys.len()];
        let mut pool = Pool {
            cols: empty_columns(&self.schema),
            keys: Vec::new(),
            layout: KeyLayout::new(&self.keys, &self.schema, &flagged),
            flagged,
            bound: None,
            threshold: self.n.saturating_mul(2).max(1024),
            offered: 0,
            rejected: 0,
        };
        let (mut scratch, mut held) = (Scratch::default(), 0usize);
        while let Some(b) = input.next()? {
            if b.is_empty() || self.n == 0 {
                continue;
            }
            self.admit(&mut pool, &b, &mut scratch);
            let want = pool.heap_bytes() + scratch.heap_bytes();
            if self.env.mem.resize(&mut held, want, false) {
                continue;
            }
            // Budget pressure: hand the pool and the rest of the input to an
            // external sort (equal keys are pooled in arrival order, so its
            // stable order is the same).
            self.env.mem.shrink(held);
            self.fell_back = true;
            let pooled = Box::new(BatchSource::new(
                self.schema.clone(),
                vec![Batch::new(std::mem::take(&mut pool.cols))],
            ));
            let chained: BoxedOperator = Box::new(ChainOp {
                schema: self.schema.clone(),
                first: Some(pooled),
                rest: input,
            });
            let mut sort = VecSort::new(chained, self.keys.clone(), self.vector_size);
            sort.set_env(self.env.hand_over());
            let limited = VecLimit::new(Box::new(sort), self.offset, self.fetch);
            return Ok(TopNState::Fallback(Box::new(limited)));
        }
        let mut clock = self.env.waits.as_ref().map(|_| Instant::now());
        self.cuts += (pool.rows() > self.n) as u64;
        let order = pool.finish(self.n);

        lap(&mut clock, &mut self.prof.sort_ns);
        self.prof.key_bytes = pool.layout.words as u64 * 8;
        let pos = usize::try_from(self.offset).map_or(order.len(), |o| o.min(order.len()));
        Ok(TopNState::InMem(Sorted {
            cols: pool.cols,
            order,
            pos,
        }))
    }
}

/// Emit a buffered prefix, then drain an inner operator (TopN's fallback
/// feed: the rows it had already absorbed, followed by the rest of the
/// input stream).
struct ChainOp {
    schema: Schema,
    first: Option<BoxedOperator>,
    rest: BoxedOperator,
}

impl Operator for ChainOp {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if let Some(f) = &mut self.first {
            if let Some(b) = f.next()? {
                return Ok(Some(b));
            }
            self.first = None;
        }
        self.rest.next()
    }
}

impl Operator for TopN {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if matches!(self.state, TopNState::Pending) {
            self.state = self.run()?;
        }
        match &mut self.state {
            TopNState::Pending => unreachable!(),
            TopNState::InMem(sorted) => Ok(sorted.next_chunk(self.vector_size)),
            TopNState::Fallback(op) => op.next(),
        }
    }

    fn profile_extras(&self) -> Vec<(&'static str, u64)> {
        let mut ex = vec![("topn", 1u64)];
        if self.fell_back {
            ex.push(("topn_fallback", 1));
        } else {
            ex.push(("peak_bytes", self.env.mem.peak()));
        }
        ex.push(("topn_cut_rows", self.cut_rows));
        ex.push(("topn_cuts", self.cuts));
        ex.push(("topn_pool_rows", self.pool_rows));
        self.prof.extras(self.env.waits.is_some(), &mut ex);
        ex
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{collect_rows, BatchSource};
    use vw_common::{DataType, Field, Value};

    fn source() -> BoxedOperator {
        let schema = Schema::new(vec![
            Field::new("a", DataType::I64),
            Field::nullable("s", DataType::Str),
        ]);
        let rows = vec![
            vec![Value::I64(3), Value::Str("c".into())],
            vec![Value::I64(1), Value::Str("b".into())],
            vec![Value::I64(1), Value::Null],
            vec![Value::I64(2), Value::Str("a".into())],
        ];
        Box::new(BatchSource::from_rows(schema, &rows, 2).unwrap())
    }

    #[test]
    fn single_key_ascending() {
        let mut s = VecSort::new(source(), vec![SortKey::asc(0)], 1024);
        let rows = collect_rows(&mut s).unwrap();
        let keys: Vec<Value> = rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(
            keys,
            vec![Value::I64(1), Value::I64(1), Value::I64(2), Value::I64(3)]
        );
    }

    #[test]
    fn multi_key_with_nulls_first() {
        let mut s = VecSort::new(source(), vec![SortKey::asc(0), SortKey::asc(1)], 1024);
        let rows = collect_rows(&mut s).unwrap();
        // a=1 group: NULL sorts before "b"
        assert_eq!(rows[0], vec![Value::I64(1), Value::Null]);
        assert_eq!(rows[1], vec![Value::I64(1), Value::Str("b".into())]);
    }

    #[test]
    fn descending() {
        let mut s = VecSort::new(source(), vec![SortKey::desc(0)], 1024);
        let rows = collect_rows(&mut s).unwrap();
        assert_eq!(rows[0][0], Value::I64(3));
        assert_eq!(rows[3][0], Value::I64(1));
    }

    #[test]
    fn chunked_output_preserves_order() {
        let schema = Schema::new(vec![Field::new("x", DataType::I64)]);
        let rows: Vec<Vec<Value>> = (0..50).rev().map(|i| vec![Value::I64(i)]).collect();
        let src = Box::new(BatchSource::from_rows(schema, &rows, 8).unwrap());
        let mut s = VecSort::new(src, vec![SortKey::asc(0)], 7);
        let out = collect_rows(&mut s).unwrap();
        let keys: Vec<i64> = out
            .iter()
            .map(|r| match r[0] {
                Value::I64(k) => k,
                _ => panic!(),
            })
            .collect();
        assert_eq!(keys, (0..50).collect::<Vec<i64>>());
    }

    #[test]
    fn empty_input() {
        let schema = Schema::new(vec![Field::new("x", DataType::I64)]);
        let src = Box::new(BatchSource::from_rows(schema, &[], 8).unwrap());
        let mut s = VecSort::new(src, vec![SortKey::asc(0)], 8);
        assert!(s.next().unwrap().is_none());
    }

    /// External sort under a tiny budget matches the in-memory sort exactly,
    /// including the stable input-order tiebreak on duplicate keys.
    #[test]
    fn external_sort_matches_in_memory() {
        let schema = Schema::new(vec![
            Field::new("k", DataType::I64),
            Field::nullable("v", DataType::Str),
        ]);
        let rows: Vec<Vec<Value>> = (0..500)
            .map(|i| {
                let k = (i * 37) % 11;
                let v = if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Str(format!("v{}", i))
                };
                vec![Value::I64(k), v]
            })
            .collect();
        let keys = vec![SortKey::asc(0)];

        let src = Box::new(BatchSource::from_rows(schema.clone(), &rows, 32).unwrap());
        let mut unbounded = VecSort::new(src, keys.clone(), 64);
        let want = collect_rows(&mut unbounded).unwrap();

        let src = Box::new(BatchSource::from_rows(schema, &rows, 32).unwrap());
        let mut tiny = VecSort::new(src, keys, 64);
        tiny.set_env(QueryEnv::bounded(2048));
        let got = collect_rows(&mut tiny).unwrap();

        assert_eq!(got, want, "spilled sort must match in-memory sort exactly");
        let extras: std::collections::BTreeMap<_, _> = tiny.profile_extras().into_iter().collect();
        assert!(extras["spill_runs"] >= 2, "tiny budget must produce runs");
        assert!(extras["spill_bytes"] > 0);
    }

    /// Descending + multi-key external merge also matches.
    #[test]
    fn external_sort_multi_key_desc() {
        let schema = Schema::new(vec![
            Field::nullable("a", DataType::I64),
            Field::new("b", DataType::F64),
        ]);
        let rows: Vec<Vec<Value>> = (0..300)
            .map(|i| {
                let a = if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::I64((i % 5) as i64)
                };
                vec![a, Value::F64((i % 17) as f64 * 0.25)]
            })
            .collect();
        let keys = vec![SortKey::desc(0), SortKey::asc(1)];
        let src = Box::new(BatchSource::from_rows(schema.clone(), &rows, 16).unwrap());
        let mut unbounded = VecSort::new(src, keys.clone(), 50);
        let want = collect_rows(&mut unbounded).unwrap();

        let src = Box::new(BatchSource::from_rows(schema, &rows, 16).unwrap());
        let mut tiny = VecSort::new(src, keys, 50);
        tiny.set_env(QueryEnv::bounded(1024));
        let got = collect_rows(&mut tiny).unwrap();
        assert_eq!(got, want);
    }

    fn topn_rows() -> (Schema, Vec<Vec<Value>>) {
        let schema = Schema::new(vec![
            Field::nullable("k", DataType::I64),
            Field::new("v", DataType::Str),
        ]);
        let rows: Vec<Vec<Value>> = (0..400)
            .map(|i| {
                let k = if i % 19 == 0 {
                    Value::Null
                } else {
                    Value::I64((i * 31) % 13)
                };
                vec![k, Value::Str(format!("r{}", i))]
            })
            .collect();
        (schema, rows)
    }

    fn sort_then_limit(
        schema: Schema,
        rows: &[Vec<Value>],
        keys: Vec<SortKey>,
        offset: u64,
        fetch: u64,
    ) -> Vec<Vec<Value>> {
        let src = Box::new(BatchSource::from_rows(schema, rows, 32).unwrap());
        let sort = VecSort::new(src, keys, 64);
        let mut lim = VecLimit::new(Box::new(sort), offset, fetch);
        collect_rows(&mut lim).unwrap()
    }

    /// TopN matches Sort+Limit exactly, including the stable tiebreak on
    /// duplicate keys and offset handling.
    #[test]
    fn topn_matches_sort_plus_limit() {
        let (schema, rows) = topn_rows();
        for (keys, offset, fetch) in [
            (vec![SortKey::asc(0)], 0u64, 25u64),
            (vec![SortKey::desc(0)], 7, 40),
            (vec![SortKey::asc(0)], 390, 50), // offset past most of the input
        ] {
            let want = sort_then_limit(schema.clone(), &rows, keys.clone(), offset, fetch);
            let src = Box::new(BatchSource::from_rows(schema.clone(), &rows, 32).unwrap());
            let mut topn = TopN::new(src, keys.clone(), offset, fetch, 64);
            let got = collect_rows(&mut topn).unwrap();
            assert_eq!(
                got, want,
                "keys={:?} offset={} fetch={}",
                keys, offset, fetch
            );
            let extras: std::collections::BTreeMap<_, _> =
                topn.profile_extras().into_iter().collect();
            assert_eq!(extras["topn"], 1);
            assert!(!extras.contains_key("topn_fallback"));
        }
    }

    /// NULLS LAST keys flow through TopN's comparator too.
    #[test]
    fn topn_respects_nulls_last() {
        let (schema, rows) = topn_rows();
        let keys = vec![SortKey {
            col: 0,
            asc: true,
            nulls_first: false,
        }];
        let want = sort_then_limit(schema.clone(), &rows, keys.clone(), 0, 395);
        let src = Box::new(BatchSource::from_rows(schema, &rows, 32).unwrap());
        let mut topn = TopN::new(src, keys, 0, 395, 64);
        let got = collect_rows(&mut topn).unwrap();
        assert_eq!(got, want);
        assert!(got.iter().take(300).all(|r| r[0] != Value::Null));
    }

    /// Under a budget too small for the heap buffer, TopN falls back to the
    /// external sort + limit pipeline and still matches exactly.
    #[test]
    fn topn_fallback_under_budget_matches() {
        let (schema, rows) = topn_rows();
        let keys = vec![SortKey::asc(0)];
        let want = sort_then_limit(schema.clone(), &rows, keys.clone(), 5, 30);
        let src = Box::new(BatchSource::from_rows(schema, &rows, 32).unwrap());
        let mut topn = TopN::new(src, keys, 5, 30, 64);
        topn.set_env(QueryEnv::bounded(512));
        let got = collect_rows(&mut topn).unwrap();
        assert_eq!(got, want, "fallback path must match sort+limit");
        let extras: std::collections::BTreeMap<_, _> = topn.profile_extras().into_iter().collect();
        assert_eq!(extras["topn_fallback"], 1);
    }

    /// A string key's 8-byte prefix decides nothing among rows that share
    /// it: sort, merge and the Top-N cut-off all fall through to the full
    /// compare (ASC and DESC, string as last and as first key).
    #[test]
    fn string_prefix_ties_use_the_full_compare() {
        let schema = Schema::new(vec![
            Field::new("k", DataType::I64),
            Field::nullable("s", DataType::Str),
        ]);
        let rows: Vec<Vec<Value>> = (0..3000)
            .map(|i| {
                let s = match i % 97 {
                    0 => Value::Null,
                    1 => Value::Str("commonpr".into()),
                    _ => Value::Str(format!("commonprefix-{:04}", (i * 7919) % 3000)),
                };
                vec![Value::I64((i % 3) as i64), s]
            })
            .collect();
        for keys in [
            vec![SortKey::asc(0), SortKey::asc(1)],
            vec![SortKey::desc(1), SortKey::asc(0)],
        ] {
            let mut want = rows.clone();
            want.sort_by(|a, b| {
                let ord = |k: &SortKey| {
                    let o = a[k.col].total_cmp(&b[k.col]);
                    if k.asc {
                        o
                    } else {
                        o.reverse()
                    }
                };
                keys.iter()
                    .map(ord)
                    .find(|o| o.is_ne())
                    .unwrap_or(Ordering::Equal)
            });
            let src = || Box::new(BatchSource::from_rows(schema.clone(), &rows, 100).unwrap());
            let mut topn = TopN::new(src(), keys.clone(), 0, 40, 64);
            assert_eq!(collect_rows(&mut topn).unwrap(), want[..40], "{keys:?}");
            let mut tiny = VecSort::new(src(), keys.clone(), 64);
            tiny.set_env(QueryEnv::bounded(16 << 10));
            assert_eq!(collect_rows(&mut tiny).unwrap(), want, "{keys:?}");
        }
    }

    /// fetch = 0 and empty input are both fine.
    #[test]
    fn topn_degenerate_cases() {
        let schema = Schema::new(vec![Field::new("x", DataType::I64)]);
        let src = Box::new(BatchSource::from_rows(schema.clone(), &[], 8).unwrap());
        let mut empty = TopN::new(src, vec![SortKey::asc(0)], 0, 10, 8);
        assert!(collect_rows(&mut empty).unwrap().is_empty());

        let rows: Vec<Vec<Value>> = (0..20).map(|i| vec![Value::I64(i)]).collect();
        let src = Box::new(BatchSource::from_rows(schema, &rows, 8).unwrap());
        let mut zero = TopN::new(src, vec![SortKey::asc(0)], 0, 0, 8);
        assert!(collect_rows(&mut zero).unwrap().is_empty());
    }
}
