//! Streaming merge join for inputs that both arrive sorted on the join key
//! (declared table order, or an explicit upstream sort). Spill-free: the only
//! buffered state is the current right-side duplicate group, so memory is
//! bounded by the largest key group instead of the whole build side.
//!
//! Emission order is **left-major** — each left row in stream order, paired
//! with its matching right rows in right-stream order — which is exactly the
//! order [`super::HashJoin`] produces for an inner join (probe = left, build
//! chains = right input order). The ordering pass only swaps a hash join for
//! a merge join in serial plans, and this order match keeps the results
//! byte-identical.
//!
//! SQL NULL semantics: a NULL key matches nothing; NULL-keyed rows are
//! skipped on both sides (they sort first under the ascending NULLS FIRST
//! orders the planner requires, so the skip happens up front per batch).

use crate::batch::Batch;
use vw_common::{Result, Schema, VwError};

use super::{lanes_cmp, BoxedOperator, Operator};

/// Inner merge join over two key-ordered inputs.
pub struct MergeJoin {
    left: BoxedOperator,
    right: BoxedOperator,
    /// (left key col, right key col) pairs; both inputs ascend on these.
    on: Vec<(usize, usize)>,
    out_schema: Schema,
    vector_size: usize,
    /// Current left batch (dense) and cursor into it.
    lbatch: Option<Batch>,
    lpos: usize,
    ldone: bool,
    /// Current right batch (dense) and cursor into it.
    rbatch: Option<Batch>,
    rpos: usize,
    rdone: bool,
    /// Buffered right rows sharing the current join key (dense batch).
    group: Option<Batch>,
    /// Pending output pairs: indexes into the current left batch / group.
    pairs_l: Vec<u32>,
    pairs_g: Vec<u32>,
    /// Assembled output batches not yet handed out.
    out: std::collections::VecDeque<Batch>,
    rows_out: u64,
    groups: u64,
}

impl MergeJoin {
    pub fn new(
        left: BoxedOperator,
        right: BoxedOperator,
        on: Vec<(usize, usize)>,
        vector_size: usize,
    ) -> Result<MergeJoin> {
        if on.is_empty() {
            return Err(VwError::Plan("merge join needs at least one key".into()));
        }
        let out_schema = left.schema().join(right.schema());
        Ok(MergeJoin {
            left,
            right,
            on,
            out_schema,
            vector_size: vector_size.max(1),
            lbatch: None,
            lpos: 0,
            ldone: false,
            rbatch: None,
            rpos: 0,
            rdone: false,
            group: None,
            pairs_l: Vec::new(),
            pairs_g: Vec::new(),
            out: std::collections::VecDeque::new(),
            rows_out: 0,
            groups: 0,
        })
    }

    /// Gather the pending pairs into one output batch. Must run before the
    /// left batch or the group they index into is replaced.
    fn flush_pairs(&mut self) {
        if self.pairs_l.is_empty() {
            return;
        }
        let lb = self.lbatch.as_ref().expect("pairs without left batch");
        let g = self.group.as_ref().expect("pairs without group");
        let mut cols = Vec::with_capacity(self.out_schema.len());
        for c in &lb.columns {
            cols.push(c.gather(&self.pairs_l));
        }
        for c in &g.columns {
            cols.push(c.gather(&self.pairs_g));
        }
        self.rows_out += self.pairs_l.len() as u64;
        self.pairs_l.clear();
        self.pairs_g.clear();
        self.out.push_back(Batch::new(cols));
    }

    /// True if row `i` of `b` has a NULL in any of the side's key columns.
    fn null_key(b: &Batch, i: usize, keys: impl Iterator<Item = usize>) -> bool {
        for c in keys {
            if b.columns[c].is_null(i) {
                return true;
            }
        }
        false
    }

    /// Position the left cursor on the next non-NULL-keyed row; pulls new
    /// batches (flushing pending pairs first) as needed. False = exhausted.
    fn ensure_left(&mut self) -> Result<bool> {
        loop {
            if self.ldone {
                return Ok(false);
            }
            if let Some(b) = &self.lbatch {
                if self.lpos < b.rows {
                    let on = &self.on;
                    if Self::null_key(b, self.lpos, on.iter().map(|&(lc, _)| lc)) {
                        self.lpos += 1;
                        continue;
                    }
                    return Ok(true);
                }
            }
            // Rotating the left batch invalidates pending pair indexes.
            self.flush_pairs();
            match self.left.next()? {
                Some(b) => {
                    self.lbatch = Some(b.materialize());
                    self.lpos = 0;
                }
                None => {
                    self.ldone = true;
                    self.lbatch = None;
                    return Ok(false);
                }
            }
        }
    }

    /// Same for the right cursor. Pending pairs index the *group*, not the
    /// right batch, so no flush is needed here.
    fn ensure_right(&mut self) -> Result<bool> {
        loop {
            if self.rdone {
                return Ok(false);
            }
            if let Some(b) = &self.rbatch {
                if self.rpos < b.rows {
                    let on = &self.on;
                    if Self::null_key(b, self.rpos, on.iter().map(|&(_, rc)| rc)) {
                        self.rpos += 1;
                        continue;
                    }
                    return Ok(true);
                }
            }
            match self.right.next()? {
                Some(b) => {
                    self.rbatch = Some(b.materialize());
                    self.rpos = 0;
                }
                None => {
                    self.rdone = true;
                    self.rbatch = None;
                    return Ok(false);
                }
            }
        }
    }

    /// Compare the current left row against row `gi` of `g` on the join keys.
    fn cmp_left_group(&self, g: &Batch, gi: usize) -> std::cmp::Ordering {
        let lb = self.lbatch.as_ref().unwrap();
        for &(lc, rc) in &self.on {
            let ord = lanes_cmp(&lb.columns[lc], self.lpos, &g.columns[rc], gi);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    }

    /// Compare the current left row against the current right row.
    fn cmp_left_right(&self) -> std::cmp::Ordering {
        let lb = self.lbatch.as_ref().unwrap();
        let rb = self.rbatch.as_ref().unwrap();
        for &(lc, rc) in &self.on {
            let ord = lanes_cmp(&lb.columns[lc], self.lpos, &rb.columns[rc], self.rpos);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    }

    /// Collect every right row equal (on the keys) to the current left row
    /// into one dense group batch, consuming them from the right stream.
    fn collect_group(&mut self) -> Result<()> {
        let mut parts: Vec<Batch> = Vec::new();
        loop {
            if !self.ensure_right()? {
                break;
            }
            // Gather the run of equal-keyed rows inside this right batch.
            let mut idx: Vec<u32> = Vec::new();
            loop {
                if self.cmp_left_right() != std::cmp::Ordering::Equal {
                    break;
                }
                idx.push(self.rpos as u32);
                self.rpos += 1;
                let rb = self.rbatch.as_ref().unwrap();
                if self.rpos >= rb.rows {
                    break;
                }
                let on = &self.on;
                if Self::null_key(rb, self.rpos, on.iter().map(|&(_, rc)| rc)) {
                    // NULL keys sort first ascending; seeing one mid-stream
                    // still just means "not part of this group".
                    break;
                }
            }
            if idx.is_empty() {
                break;
            }
            let rb = self.rbatch.as_ref().unwrap();
            let ended_inside = self.rpos < rb.rows;
            parts.push(Batch::new(
                rb.columns.iter().map(|c| c.gather(&idx)).collect(),
            ));
            if ended_inside {
                break; // group ended within this batch
            }
            // Batch exhausted mid-group: the group may continue in the next.
        }
        let ncols = self.out_schema.len() - self.lbatch.as_ref().unwrap().columns.len();
        self.group = Some(super::concat_batches(parts, ncols));
        self.groups += 1;
        Ok(())
    }

    /// Advance the merge until at least one output batch is ready or both
    /// streams are exhausted.
    fn step(&mut self) -> Result<()> {
        while self.out.is_empty() {
            if !self.ensure_left()? {
                self.flush_pairs();
                return Ok(());
            }
            if let Some(g) = self.group.take() {
                match self.cmp_left_group(&g, 0) {
                    std::cmp::Ordering::Less => {
                        self.group = Some(g);
                        self.lpos += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        for gi in 0..g.rows as u32 {
                            self.pairs_l.push(self.lpos as u32);
                            self.pairs_g.push(gi);
                        }
                        self.group = Some(g);
                        self.lpos += 1;
                        if self.pairs_l.len() >= self.vector_size {
                            self.flush_pairs();
                        }
                    }
                    std::cmp::Ordering::Greater => {
                        // Left moved past the group key: retire the group.
                        self.group = Some(g);
                        self.flush_pairs();
                        self.group = None;
                    }
                }
                continue;
            }
            if !self.ensure_right()? {
                // No right rows left and no live group: nothing on the left
                // can match anymore.
                self.flush_pairs();
                return Ok(());
            }
            match self.cmp_left_right() {
                std::cmp::Ordering::Less => self.lpos += 1,
                std::cmp::Ordering::Greater => self.rpos += 1,
                std::cmp::Ordering::Equal => self.collect_group()?,
            }
        }
        Ok(())
    }
}

impl Operator for MergeJoin {
    fn schema(&self) -> &Schema {
        &self.out_schema
    }

    fn next(&mut self) -> Result<Option<Batch>> {
        if self.out.is_empty() {
            self.step()?;
        }
        Ok(self.out.pop_front())
    }

    fn profile_extras(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("merge_join", 1),
            ("rows_out", self.rows_out),
            ("key_groups", self.groups),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{collect_rows, BatchSource, HashJoin};
    use vw_common::{DataType, Field, Value};
    use vw_plan::JoinKind;

    fn batches(rows: &[Vec<Value>], schema: Schema, vs: usize) -> BoxedOperator {
        Box::new(BatchSource::from_rows(schema, rows, vs).unwrap())
    }

    fn lschema() -> Schema {
        Schema::new(vec![
            Field::nullable("lk", DataType::I64),
            Field::new("lv", DataType::Str),
        ])
    }

    fn rschema() -> Schema {
        Schema::new(vec![
            Field::nullable("rk", DataType::I64),
            Field::new("rv", DataType::I64),
        ])
    }

    /// Sorted inputs with NULLs first, duplicates on both sides, and keys
    /// unique to each side.
    fn inputs(vs_l: usize, vs_r: usize) -> (BoxedOperator, BoxedOperator) {
        let mut l = vec![
            vec![Value::Null, Value::Str("ln".into())],
            vec![Value::I64(1), Value::Str("a".into())],
            vec![Value::I64(1), Value::Str("b".into())],
            vec![Value::I64(2), Value::Str("c".into())],
            vec![Value::I64(4), Value::Str("d".into())],
            vec![Value::I64(7), Value::Str("e".into())],
        ];
        for i in 0..40 {
            l.push(vec![Value::I64(10 + i / 4), Value::Str(format!("x{i}"))]);
        }
        let mut r = vec![
            vec![Value::Null, Value::I64(-1)],
            vec![Value::I64(1), Value::I64(100)],
            vec![Value::I64(1), Value::I64(101)],
            vec![Value::I64(1), Value::I64(102)],
            vec![Value::I64(3), Value::I64(300)],
            vec![Value::I64(4), Value::I64(400)],
        ];
        for i in 0..30 {
            r.push(vec![Value::I64(10 + i / 3), Value::I64(1000 + i)]);
        }
        (batches(&l, lschema(), vs_l), batches(&r, rschema(), vs_r))
    }

    /// The reference: what the hash join (probe = left) emits for the same
    /// inputs, in its exact row order.
    fn hash_reference(vs_l: usize, vs_r: usize) -> Vec<Vec<Value>> {
        let (l, r) = inputs(vs_l, vs_r);
        let mut hj = HashJoin::new(l, r, JoinKind::Inner, vec![(0, 0)], None, false).unwrap();
        collect_rows(&mut hj).unwrap()
    }

    #[test]
    fn matches_hash_join_row_order_exactly() {
        for &(vl, vr, vs) in &[(3usize, 4usize, 8usize), (64, 64, 1024), (1, 1, 2)] {
            let want = hash_reference(vl, vr);
            let (l, r) = inputs(vl, vr);
            let mut mj = MergeJoin::new(l, r, vec![(0, 0)], vs).unwrap();
            let got = collect_rows(&mut mj).unwrap();
            assert_eq!(got, want, "vl={vl} vr={vr} vs={vs}");
            assert!(!got.is_empty());
        }
    }

    #[test]
    fn group_spanning_batch_boundary() {
        // Right group of key 1 split across batches of 2.
        let want = hash_reference(2, 2);
        let (l, r) = inputs(2, 2);
        let mut mj = MergeJoin::new(l, r, vec![(0, 0)], 4).unwrap();
        assert_eq!(collect_rows(&mut mj).unwrap(), want);
    }

    #[test]
    fn null_keys_match_nothing() {
        let (l, r) = inputs(8, 8);
        let mut mj = MergeJoin::new(l, r, vec![(0, 0)], 16).unwrap();
        let rows = collect_rows(&mut mj).unwrap();
        assert!(rows.iter().all(|row| row[0] != Value::Null));
    }

    #[test]
    fn disjoint_and_empty_inputs() {
        let l = batches(&[vec![Value::I64(1), Value::Str("a".into())]], lschema(), 4);
        let r = batches(&[], rschema(), 4);
        let mut mj = MergeJoin::new(l, r, vec![(0, 0)], 4).unwrap();
        assert!(collect_rows(&mut mj).unwrap().is_empty());

        let l = batches(&[vec![Value::I64(1), Value::Str("a".into())]], lschema(), 4);
        let r = batches(&[vec![Value::I64(2), Value::I64(5)]], rschema(), 4);
        let mut mj = MergeJoin::new(l, r, vec![(0, 0)], 4).unwrap();
        assert!(collect_rows(&mut mj).unwrap().is_empty());
    }

    #[test]
    fn multi_key_merge() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::I64),
            Field::new("b", DataType::I64),
        ]);
        let lrows: Vec<Vec<Value>> = vec![
            vec![Value::I64(1), Value::I64(1)],
            vec![Value::I64(1), Value::I64(2)],
            vec![Value::I64(2), Value::I64(1)],
        ];
        let rrows: Vec<Vec<Value>> = vec![
            vec![Value::I64(1), Value::I64(2)],
            vec![Value::I64(2), Value::I64(1)],
            vec![Value::I64(2), Value::I64(2)],
        ];
        let l = batches(&lrows, schema.clone(), 2);
        let r = batches(&rrows, schema.clone(), 2);
        let mut mj = MergeJoin::new(l, r, vec![(0, 0), (1, 1)], 4).unwrap();
        let got = collect_rows(&mut mj).unwrap();

        let l = batches(&lrows, schema.clone(), 2);
        let r = batches(&rrows, schema, 2);
        let mut hj =
            HashJoin::new(l, r, JoinKind::Inner, vec![(0, 0), (1, 1)], None, false).unwrap();
        let want = collect_rows(&mut hj).unwrap();
        assert_eq!(got, want);
        assert_eq!(got.len(), 2);
    }
}
