//! PAX-grouped table storage.
//!
//! A table is a sequence of *row groups*; within a group every column is
//! stored as its own compressed block, and the blocks of one group describe
//! the same row range — the hybrid PAX/DSM layout of §I-A [3]: column-wise
//! I/O and compression, row-group-wise locality so a scan needing k columns
//! touches k co-located blocks per group.
//!
//! `TableStorage` is the *stable* image of a table: immutable once built.
//! All updates go through PDTs (`vw-pdt`) layered on top by the transaction
//! system; a checkpoint derives the next image from the current one with
//! [`TableStorage::next_image`], sharing every block it does not rewrite.

use crate::block::{encode_block, BlockLease, ColumnBlock, MinMax, PruneOp};
use crate::column::NullableColumn;
use crate::cursor::BlockCursor;
use crate::simdisk::SimDisk;
use std::cmp::Ordering;
use std::sync::Arc;
use vw_common::config::BLOCK_VALUES;
use vw_common::{BlockId, Result, Schema, TableLayout, Value, VwError};

/// One row group: per-column blocks covering the same row range.
#[derive(Debug, Clone)]
pub struct RowGroup {
    /// Rows in this group.
    pub n_rows: usize,
    /// First row's position within the table (stable coordinates).
    pub start_row: u64,
    /// One entry per schema column.
    pub columns: Vec<ColumnBlock>,
}

/// The immutable stable image of one table.
///
/// When the table declares a [`TableLayout`], the stable image *maintains*
/// it: every rebuild (bulk load finish, checkpoint) re-sorts rows on the
/// declared order and re-buckets them into range partitions, each partition's
/// row groups living on its own [`SimDisk`] shard. Between rebuilds, updates
/// accumulate in PDTs and may locally violate the order — the planner only
/// trusts the declared order while the master PDT is empty.
pub struct TableStorage {
    schema: Schema,
    /// Table name, used only to contextualize error messages.
    name: String,
    disk: Arc<SimDisk>,
    rows_per_group: usize,
    row_groups: Vec<RowGroup>,
    n_rows: u64,
    layout: TableLayout,
    /// One disk shard per range partition; empty when unpartitioned (all
    /// groups live on `disk`).
    part_disks: Vec<Arc<SimDisk>>,
    /// Contiguous group-index range `[start, end)` of each partition.
    /// Recomputed at every rebuild; empty when unpartitioned.
    part_extents: Vec<(usize, usize)>,
    /// Exclusive upper bound of each partition's key range (`None` =
    /// unbounded). Partition `p` holds rows with
    /// `bounds[p-1] <= key < bounds[p]`; NULL keys land in partition 0.
    part_bounds: Vec<Option<Value>>,
    /// Position of the last log record folded into this image: recovery
    /// replays only this table's record sections past it.
    checkpoint_lsn: u64,
}

/// What a checkpoint does to one row group of the current image when it
/// builds the next one ([`TableStorage::next_image`]).
pub enum GroupEdit {
    /// No change: the next image shares every block of the group.
    Keep,
    /// Same rows, new values in some columns: only the listed
    /// `(column, values)` are re-encoded, the other blocks are shared.
    Patch(Vec<(usize, NullableColumn)>),
    /// The row set changed: all columns are re-encoded from these values
    /// (no rows = the group is dropped).
    Replace(Vec<NullableColumn>),
}

/// How much of an image [`TableStorage::next_image`] had to write.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImageStats {
    /// Column blocks of the new image.
    pub blocks_total: usize,
    /// Of those, blocks encoded and written for it (the rest are shared).
    pub blocks_rewritten: usize,
    /// Encoded bytes of the written blocks.
    pub bytes_written: usize,
}

impl TableStorage {
    /// An empty table with the default group size.
    pub fn new(schema: Schema, disk: Arc<SimDisk>) -> Self {
        Self::with_group_size(schema, disk, BLOCK_VALUES)
    }

    /// An empty table with an explicit rows-per-group (tests, benches).
    pub fn with_group_size(schema: Schema, disk: Arc<SimDisk>, rows_per_group: usize) -> Self {
        assert!(rows_per_group > 0);
        TableStorage {
            schema,
            name: String::new(),
            disk,
            rows_per_group,
            row_groups: Vec::new(),
            n_rows: 0,
            layout: TableLayout::default(),
            part_disks: Vec::new(),
            part_extents: Vec::new(),
            part_bounds: Vec::new(),
            checkpoint_lsn: 0,
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Set the table name used in error context (survives rebuilds).
    pub fn set_name(&mut self, name: &str) {
        self.name = name.to_string();
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn disk(&self) -> &Arc<SimDisk> {
        &self.disk
    }

    pub fn layout(&self) -> &TableLayout {
        &self.layout
    }

    /// Declare the physical design. Creates one disk shard per range
    /// partition and, if the table already holds rows, reorganizes the
    /// stable image in place.
    pub fn set_layout(&mut self, layout: TableLayout) -> Result<()> {
        for s in &layout.order {
            if s.col >= self.schema.len() {
                return Err(VwError::Storage(format!(
                    "ORDER BY column {} out of range for '{}'",
                    s.col, self.name
                )));
            }
        }
        if let Some(p) = &layout.partition {
            if p.col >= self.schema.len() {
                return Err(VwError::Storage(format!(
                    "PARTITION BY column {} out of range for '{}'",
                    p.col, self.name
                )));
            }
            if p.partitions == 0 {
                return Err(VwError::Storage("PARTITIONS must be >= 1".into()));
            }
        }
        self.layout = layout;
        let nparts = self.layout.partition_count();
        self.part_disks = if nparts > 1 {
            let base = if self.name.is_empty() {
                "table"
            } else {
                &self.name
            };
            (0..nparts)
                .map(|p| self.disk.shard(format!("{}.p{}", base, p)))
                .collect()
        } else {
            Vec::new()
        };
        self.part_extents.clear();
        self.part_bounds.clear();
        if self.n_rows > 0 {
            let cols = read_all_columns(self)?;
            self.rebuild_from_chunks(&[cols])?;
        }
        Ok(())
    }

    /// Number of range partitions (1 when unpartitioned).
    pub fn partition_count(&self) -> usize {
        if self.part_disks.is_empty() {
            1
        } else {
            self.part_disks.len()
        }
    }

    /// The partition column, when range-partitioned.
    pub fn partition_col(&self) -> Option<usize> {
        if self.part_disks.is_empty() {
            None
        } else {
            self.layout.partition.as_ref().map(|p| p.col)
        }
    }

    /// Group-index range `[start, end)` of partition `p`.
    pub fn partition_extent(&self, p: usize) -> (usize, usize) {
        if self.part_disks.is_empty() {
            (0, self.row_groups.len())
        } else {
            self.part_extents.get(p).copied().unwrap_or((0, 0))
        }
    }

    /// The device holding partition `p`'s row groups.
    pub fn partition_disk(&self, p: usize) -> &Arc<SimDisk> {
        self.part_disks.get(p).unwrap_or(&self.disk)
    }

    /// All partition shards (empty when unpartitioned).
    pub fn partition_disks(&self) -> &[Arc<SimDisk>] {
        &self.part_disks
    }

    /// The partition a row group belongs to (0 when unpartitioned).
    pub fn partition_of_group(&self, g: usize) -> usize {
        self.part_extents
            .iter()
            .position(|&(s, e)| g >= s && g < e)
            .unwrap_or(0)
    }

    fn disk_for_group(&self, g: usize) -> &Arc<SimDisk> {
        if self.part_disks.is_empty() {
            &self.disk
        } else {
            &self.part_disks[self.partition_of_group(g)]
        }
    }

    /// Whether partition `p` can contain rows satisfying
    /// `partition_col <op> bound`, judged from its range bounds alone.
    /// Conservative: `true` unless the whole key range is excluded. An
    /// empty partition never matches.
    pub fn partition_may_match(&self, p: usize, op: PruneOp, bound: &Value) -> bool {
        let (s, e) = self.partition_extent(p);
        if s == e {
            return false;
        }
        if self.part_disks.is_empty() {
            return true;
        }
        let lower = if p == 0 {
            &None
        } else {
            self.part_bounds.get(p - 1).unwrap_or(&None)
        };
        let upper = self.part_bounds.get(p).unwrap_or(&None);
        // Keys in partition p satisfy lower <= key < upper.
        let above_lower = |v: &Value| lower.as_ref().is_none_or(|l| v.total_cmp(l).is_ge());
        let below_upper = |v: &Value| upper.as_ref().is_none_or(|u| v.total_cmp(u).is_lt());
        match op {
            PruneOp::Eq => above_lower(bound) && below_upper(bound),
            // Some key < bound possible iff the partition starts below it.
            PruneOp::Lt => lower.as_ref().is_none_or(|l| l.total_cmp(bound).is_lt()),
            PruneOp::Le => lower.as_ref().is_none_or(|l| l.total_cmp(bound).is_le()),
            // Some key >= bound possible iff bound is below the upper bound.
            PruneOp::Gt | PruneOp::Ge => below_upper(bound),
        }
    }

    /// An empty table with this table's schema, devices and layout —
    /// the starting point for a reload that must preserve physical design.
    pub fn fresh_like(&self) -> TableStorage {
        TableStorage {
            schema: self.schema.clone(),
            name: self.name.clone(),
            disk: self.disk.clone(),
            rows_per_group: self.rows_per_group,
            row_groups: Vec::new(),
            n_rows: 0,
            layout: self.layout.clone(),
            part_disks: self.part_disks.clone(),
            part_extents: Vec::new(),
            part_bounds: Vec::new(),
            checkpoint_lsn: self.checkpoint_lsn,
        }
    }

    /// Log position this image is current to (0 = nothing folded yet).
    pub fn checkpoint_lsn(&self) -> u64 {
        self.checkpoint_lsn
    }

    /// Stamp the image with the position of the last log record it contains.
    pub fn set_checkpoint_lsn(&mut self, lsn: u64) {
        self.checkpoint_lsn = lsn;
    }

    pub fn n_rows(&self) -> u64 {
        self.n_rows
    }

    pub fn group_count(&self) -> usize {
        self.row_groups.len()
    }

    pub fn group(&self, g: usize) -> &RowGroup {
        &self.row_groups[g]
    }

    pub fn groups(&self) -> &[RowGroup] {
        &self.row_groups
    }

    pub fn rows_per_group(&self) -> usize {
        self.rows_per_group
    }

    /// Total encoded bytes across all blocks (compression accounting).
    pub fn encoded_bytes(&self) -> usize {
        self.row_groups
            .iter()
            .flat_map(|g| g.columns.iter())
            .map(|c| c.encoded_bytes)
            .sum()
    }

    /// Total uncompressed bytes the stored values would occupy.
    pub fn raw_bytes(&self) -> usize {
        self.row_groups
            .iter()
            .flat_map(|g| g.columns.iter())
            .map(|c| c.raw_bytes)
            .sum()
    }

    /// Attach (table, column, row-group) coordinates to a codec error.
    fn block_context(&self, group: usize, col: usize, e: VwError) -> VwError {
        let col_name = self
            .schema
            .fields()
            .get(col)
            .map(|f| f.name.as_str())
            .unwrap_or("?");
        VwError::Storage(format!(
            "table '{}', column '{}', row-group {}: {}",
            self.name, col_name, group, e
        ))
    }

    /// Append one chunk of columns as row groups, splitting at the group
    /// size. All columns must have identical, non-zero length.
    pub fn append_chunk(&mut self, columns: &[NullableColumn]) -> Result<()> {
        self.append_chunk_on(columns, self.disk.clone())
    }

    /// Append a chunk whose blocks go to `disk` (a partition shard).
    fn append_chunk_on(&mut self, columns: &[NullableColumn], disk: Arc<SimDisk>) -> Result<()> {
        if columns.len() != self.schema.len() {
            return Err(VwError::Storage(format!(
                "chunk has {} columns, table has {}",
                columns.len(),
                self.schema.len()
            )));
        }
        let n = columns.first().map_or(0, |c| c.len());
        if columns.iter().any(|c| c.len() != n) {
            return Err(VwError::Storage("ragged chunk".into()));
        }
        let mut from = 0;
        while from < n {
            let to = (from + self.rows_per_group).min(n);
            let blocks = columns
                .iter()
                .map(|col| {
                    let piece = NullableColumn::new(
                        col.data.slice(from, to),
                        col.nulls
                            .as_ref()
                            .map(|b| (from..to).map(|i| b.get(i)).collect()),
                    );
                    write_column_block(piece, &disk)
                })
                .collect();
            self.row_groups.push(RowGroup {
                n_rows: to - from,
                start_row: self.n_rows,
                columns: blocks,
            });
            self.n_rows += (to - from) as u64;
            from = to;
        }
        Ok(())
    }

    /// The column block metadata at `(group, col)`, bounds-checked.
    fn block_at(&self, group: usize, col: usize) -> Result<&ColumnBlock> {
        let g = self
            .row_groups
            .get(group)
            .ok_or_else(|| VwError::Storage(format!("no row group {}", group)))?;
        g.columns
            .get(col)
            .ok_or_else(|| VwError::Storage(format!("no column {}", col)))
    }

    /// Block id of one column of one row group. Cooperative scans use this
    /// to register a scan's block set with the buffer manager and to fetch
    /// blocks through it instead of straight off the disk.
    pub fn column_block_id(&self, group: usize, col: usize) -> Result<BlockId> {
        Ok(self.block_at(group, col)?.block_id())
    }

    /// Read and decode one column of one row group from its disk.
    pub fn read_column(&self, group: usize, col: usize) -> Result<NullableColumn> {
        self.decode_column(group, col, None)
    }

    /// Decode one column block whole from `fetched` bytes, or else off its
    /// disk; an error opening or decoding it names the block.
    pub fn decode_column(
        &self,
        group: usize,
        col: usize,
        fetched: Option<Arc<Vec<u8>>>,
    ) -> Result<NullableColumn> {
        self.column_cursor(group, col, fetched)?
            .decode_all()
            .map_err(|e| self.block_context(group, col, e))
    }

    /// Read one column block and open a lazy [`BlockCursor`] over it. The
    /// compressed-execution scan path uses this to decode vector slices on
    /// demand and evaluate predicates on the encoded form.
    pub fn read_column_cursor(&self, group: usize, col: usize) -> Result<BlockCursor> {
        self.column_cursor(group, col, None)
    }

    /// Open a [`BlockCursor`] over one column block's `fetched` bytes (e.g.
    /// through the buffer manager), or else over the block read off its
    /// disk. Its row count is checked before anything is decoded.
    pub fn column_cursor(
        &self,
        group: usize,
        col: usize,
        fetched: Option<Arc<Vec<u8>>>,
    ) -> Result<BlockCursor> {
        let bytes = match fetched {
            Some(bytes) => bytes,
            None => {
                let id = self.block_at(group, col)?.block_id();
                self.disk_for_group(group).read_block(id)?
            }
        };
        let cursor = BlockCursor::new(bytes).map_err(|e| self.block_context(group, col, e))?;
        if cursor.n() != self.row_groups[group].n_rows {
            return Err(self.block_context(
                group,
                col,
                VwError::Storage("block row-count mismatch".into()),
            ));
        }
        Ok(cursor)
    }

    /// Row groups whose zone map may satisfy `col <op> bound`.
    pub fn groups_matching(&self, col: usize, op: PruneOp, bound: &Value) -> Vec<usize> {
        self.row_groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g.columns[col].minmax.may_match(op, bound))
            .map(|(i, _)| i)
            .collect()
    }

    /// Read a full row by stable position (point lookups in tests/examples;
    /// deliberately slow — the engine never uses it).
    pub fn read_row(&self, row: u64) -> Result<Vec<Value>> {
        let g = self
            .row_groups
            .iter()
            .position(|g| row >= g.start_row && row < g.start_row + g.n_rows as u64)
            .ok_or_else(|| VwError::Storage(format!("row {} out of range", row)))?;
        let off = (row - self.row_groups[g].start_row) as usize;
        let mut out = Vec::with_capacity(self.schema.len());
        for c in 0..self.schema.len() {
            let col = self.read_column(g, c)?;
            out.push(col.get_value(off, self.schema.field(c).ty));
        }
        Ok(out)
    }

    /// Replace the whole stable image with new chunks (checkpoint, bulk
    /// load). Old blocks are freed from their disks. When the table declares
    /// a [`TableLayout`], the new image is reorganized to honour it: rows
    /// are stably sorted on the declared order and bucketed into range
    /// partitions whose bounds are recomputed as equal-count quantiles of
    /// the partition key.
    pub fn rebuild_from_chunks(&mut self, chunks: &[Vec<NullableColumn>]) -> Result<()> {
        // Dropped (and its blocks freed) once the new image is written.
        let _old = std::mem::take(&mut self.row_groups);
        self.n_rows = 0;
        self.part_extents.clear();
        self.part_bounds.clear();
        let total: usize = chunks
            .iter()
            .map(|c| c.first().map_or(0, |col| col.len()))
            .sum();
        if self.layout.is_trivial() || total == 0 {
            for chunk in chunks {
                self.append_chunk(chunk)?;
            }
        } else {
            let cols: Vec<NullableColumn> = if chunks.len() == 1 {
                chunks[0].clone()
            } else {
                (0..self.schema.len())
                    .map(|c| {
                        let parts: Vec<NullableColumn> =
                            chunks.iter().map(|ch| ch[c].clone()).collect();
                        concat_columns(self.schema.field(c).ty, &parts)
                    })
                    .collect::<Result<_>>()?
            };
            self.reorganize(cols)?;
        }
        Ok(())
    }

    /// Build the next image of this table from this one, by column block.
    ///
    /// `edit(g)` says what happens to row group `g`; `tail` holds rows
    /// appended behind the last group. Groups keep their boundaries (an
    /// edited group that outgrew the group size is split, an emptied one is
    /// dropped), and the tail is folded into a partial last group before it
    /// is split at the group size — so as long as no group changes its row
    /// count the result is, block for block, the image a full rebuild of the
    /// same rows would write. Declared sort orders and partition bounds are
    /// carried over, not re-established: the caller only takes this path
    /// for changes that cannot move a row.
    pub fn next_image(
        &self,
        mut edit: impl FnMut(usize) -> Result<GroupEdit>,
        mut tail: Option<Vec<NullableColumn>>,
    ) -> Result<(TableStorage, ImageStats)> {
        let mut out = self.fresh_like();
        out.part_bounds = self.part_bounds.clone();
        let (mut shared_blocks, mut shared_bytes) = (0usize, 0usize);
        let last = self.row_groups.len().checked_sub(1);
        for p in 0..self.partition_count() {
            let (start, end) = self.partition_extent(p);
            let first_out = out.row_groups.len();
            let disk = self.partition_disk(p).clone();
            for g in start..end {
                let src = &self.row_groups[g];
                let mut e = edit(g)?;
                // A partial last group takes the appended rows in.
                if Some(g) == last && tail.is_some() {
                    let rows = match &e {
                        GroupEdit::Replace(cols) => cols.first().map_or(0, |c| c.len()),
                        _ => src.n_rows,
                    };
                    if rows > 0 && rows < self.rows_per_group {
                        let cols = self.edited_columns(g, e)?;
                        let tail = tail.take().expect("checked above");
                        e = GroupEdit::Replace(
                            cols.into_iter()
                                .zip(tail)
                                .enumerate()
                                .map(|(c, (a, b))| concat_columns(self.schema.field(c).ty, &[a, b]))
                                .collect::<Result<_>>()?,
                        );
                    }
                }
                match e {
                    GroupEdit::Replace(cols) => out.append_chunk_on(&cols, disk.clone())?,
                    GroupEdit::Keep | GroupEdit::Patch(_) => {
                        let mut columns = src.columns.clone();
                        if let GroupEdit::Patch(patched) = e {
                            for (c, col) in patched {
                                if col.len() != src.n_rows {
                                    return Err(VwError::Storage(format!(
                                        "patched column has {} rows, group {} has {}",
                                        col.len(),
                                        g,
                                        src.n_rows
                                    )));
                                }
                                columns[c] = write_column_block(col, &disk);
                            }
                        }
                        for (new, old) in columns.iter().zip(&src.columns) {
                            if new.block_id() == old.block_id() {
                                shared_blocks += 1;
                                shared_bytes += old.encoded_bytes;
                            }
                        }
                        out.row_groups.push(RowGroup {
                            n_rows: src.n_rows,
                            start_row: out.n_rows,
                            columns,
                        });
                        out.n_rows += src.n_rows as u64;
                    }
                }
            }
            if p + 1 == self.partition_count() {
                if let Some(tail) = tail.take() {
                    out.append_chunk_on(&tail, disk)?;
                }
            }
            if !self.part_disks.is_empty() {
                out.part_extents.push((first_out, out.row_groups.len()));
            }
        }
        let blocks_total = out.row_groups.len() * self.schema.len();
        let stats = ImageStats {
            blocks_total,
            blocks_rewritten: blocks_total - shared_blocks,
            bytes_written: out.encoded_bytes() - shared_bytes,
        };
        Ok((out, stats))
    }

    /// All columns of group `g` as `edit` leaves them, decoded.
    fn edited_columns(&self, g: usize, edit: GroupEdit) -> Result<Vec<NullableColumn>> {
        let mut patched = match edit {
            GroupEdit::Replace(cols) => return Ok(cols),
            GroupEdit::Keep => Vec::new(),
            GroupEdit::Patch(p) => p,
        };
        (0..self.schema.len())
            .map(|c| match patched.iter().position(|(pc, _)| *pc == c) {
                Some(i) => Ok(patched.swap_remove(i).1),
                None => self.read_column(g, c),
            })
            .collect()
    }

    /// Rewrite full-table columns in declared order, bucketed by range
    /// partition. Stable throughout: ties keep their input order, and
    /// bucketing keeps each bucket's rows in sorted order, so reorganizing
    /// already-conforming data is the identity permutation.
    fn reorganize(&mut self, cols: Vec<NullableColumn>) -> Result<()> {
        let n = cols.first().map_or(0, |c| c.len());
        let value_at =
            |c: usize, i: usize| -> Value { cols[c].get_value(i, self.schema.field(c).ty) };

        // 1. Stable sort on the declared order.
        let mut idx: Vec<usize> = (0..n).collect();
        if !self.layout.order.is_empty() {
            let keys: Vec<Vec<Value>> = self
                .layout
                .order
                .iter()
                .map(|s| (0..n).map(|i| value_at(s.col, i)).collect())
                .collect();
            idx.sort_by(|&a, &b| {
                for (s, kv) in self.layout.order.iter().zip(&keys) {
                    let (x, y) = (&kv[a], &kv[b]);
                    // NULL placement is absolute (NULLS FIRST/LAST), not
                    // relative to the sort direction.
                    let ord = match (x.is_null(), y.is_null()) {
                        (true, true) => Ordering::Equal,
                        (true, false) => {
                            if s.nulls_first {
                                Ordering::Less
                            } else {
                                Ordering::Greater
                            }
                        }
                        (false, true) => {
                            if s.nulls_first {
                                Ordering::Greater
                            } else {
                                Ordering::Less
                            }
                        }
                        (false, false) => {
                            let o = x.total_cmp(y);
                            if s.asc {
                                o
                            } else {
                                o.reverse()
                            }
                        }
                    };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
        }

        // 2. Bucket rows into range partitions on equal-count quantile
        // bounds of the partition key (`Value::total_cmp` puts NULLs below
        // every value, so NULL keys land in partition 0).
        let nparts = if self.part_disks.is_empty() {
            1
        } else {
            self.part_disks.len()
        };
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); nparts];
        if nparts > 1 {
            let pcol = self.layout.partition.as_ref().map(|p| p.col).unwrap_or(0);
            let pkeys: Vec<Value> = (0..n).map(|i| value_at(pcol, i)).collect();
            let mut by_key: Vec<usize> = (0..n).collect();
            by_key.sort_by(|&a, &b| pkeys[a].total_cmp(&pkeys[b]));
            let mut bounds: Vec<Value> = Vec::new();
            for p in 1..nparts {
                let v = pkeys[by_key[p * n / nparts]].clone();
                let is_new = !v.is_null()
                    && bounds
                        .last()
                        .is_none_or(|b: &Value| b.total_cmp(&v).is_lt());
                if is_new {
                    bounds.push(v);
                }
            }
            for &i in &idx {
                let p = bounds
                    .iter()
                    .position(|b| pkeys[i].total_cmp(b).is_lt())
                    .unwrap_or(bounds.len());
                buckets[p].push(i);
            }
            self.part_bounds = (0..nparts).map(|p| bounds.get(p).cloned()).collect();
        } else {
            buckets[0] = idx;
        }

        // 3. Materialize each partition on its own device.
        for (p, bucket) in buckets.into_iter().enumerate() {
            let start = self.row_groups.len();
            if !bucket.is_empty() {
                let part_cols: Vec<NullableColumn> = (0..self.schema.len())
                    .map(|c| {
                        let ty = self.schema.field(c).ty;
                        let vals: Vec<Value> =
                            bucket.iter().map(|&i| cols[c].get_value(i, ty)).collect();
                        NullableColumn::from_values(ty, &vals)
                    })
                    .collect::<Result<_>>()?;
                let disk = self.partition_disk(p).clone();
                self.append_chunk_on(&part_cols, disk)?;
            }
            if !self.part_disks.is_empty() {
                self.part_extents.push((start, self.row_groups.len()));
            }
        }
        Ok(())
    }
}

/// Encode one column of one row group and store it on `disk`.
fn write_column_block(piece: NullableColumn, disk: &Arc<SimDisk>) -> ColumnBlock {
    let piece = piece.normalize();
    let minmax = MinMax::from_column(&piece);
    let raw_bytes = piece.data.uncompressed_bytes();
    let (bytes, scheme) = encode_block(&piece);
    let encoded_bytes = bytes.len();
    ColumnBlock {
        block: BlockLease::write(disk, bytes),
        n_values: piece.len(),
        scheme,
        minmax,
        has_nulls: piece.nulls.is_some(),
        encoded_bytes,
        raw_bytes,
    }
}

/// Row-at-a-time loader that buffers rows and flushes PAX groups.
pub struct TableBuilder {
    table: TableStorage,
    buffer: Vec<Vec<Value>>,
}

impl TableBuilder {
    pub fn new(schema: Schema, disk: Arc<SimDisk>) -> Self {
        TableBuilder {
            table: TableStorage::new(schema, disk),
            buffer: Vec::new(),
        }
    }

    pub fn with_group_size(schema: Schema, disk: Arc<SimDisk>, rows_per_group: usize) -> Self {
        TableBuilder {
            table: TableStorage::with_group_size(schema, disk, rows_per_group),
            buffer: Vec::new(),
        }
    }

    /// Build into a prepared (typically [`TableStorage::fresh_like`]) table,
    /// preserving its declared layout and partition devices.
    pub fn for_table(table: TableStorage) -> Self {
        TableBuilder {
            table,
            buffer: Vec::new(),
        }
    }

    /// Buffer one row; flushes a group when full.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.table.schema.len() {
            return Err(VwError::Storage(format!(
                "row has {} values, schema has {}",
                row.len(),
                self.table.schema.len()
            )));
        }
        for (v, f) in row.iter().zip(self.table.schema.fields()) {
            if v.is_null() && !f.nullable {
                return Err(VwError::Storage(format!(
                    "NULL in non-nullable column '{}'",
                    f.name
                )));
            }
        }
        self.buffer.push(row);
        if self.buffer.len() >= self.table.rows_per_group {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let schema = self.table.schema.clone();
        let mut columns = Vec::with_capacity(schema.len());
        for (c, f) in schema.fields().iter().enumerate() {
            let vals: Vec<Value> = self.buffer.iter().map(|r| r[c].clone()).collect();
            columns.push(NullableColumn::from_values(f.ty, &vals)?);
        }
        self.buffer.clear();
        self.table.append_chunk(&columns)
    }

    /// Flush remaining rows and return the finished table. Tables with a
    /// declared layout are reorganized (sorted, range-bucketed) as the final
    /// step, so a fresh load always conforms to its physical design.
    pub fn finish(mut self) -> Result<TableStorage> {
        self.flush()?;
        if !self.table.layout.is_trivial() && self.table.n_rows > 0 {
            let cols = read_all_columns(&self.table)?;
            self.table.rebuild_from_chunks(&[cols])?;
        }
        Ok(self.table)
    }
}

/// Convenience: read every column of every group into memory as one big
/// chunk per column (tests, checkpoint, the materialized baseline engine).
pub fn read_all_columns(table: &TableStorage) -> Result<Vec<NullableColumn>> {
    let ncols = table.schema().len();
    let mut out: Vec<Vec<NullableColumn>> = vec![Vec::new(); ncols];
    for g in 0..table.group_count() {
        for (c, parts) in out.iter_mut().enumerate() {
            parts.push(table.read_column(g, c)?);
        }
    }
    out.into_iter()
        .enumerate()
        .map(|(c, parts)| concat_columns(table.schema().field(c).ty, &parts))
        .collect()
}

/// Concatenate column chunks of the same logical type.
pub fn concat_columns(ty: vw_common::DataType, parts: &[NullableColumn]) -> Result<NullableColumn> {
    let mut out = NullableColumn::empty(ty);
    for p in parts {
        if p.data.type_name() != out.data.type_name() {
            return Err(VwError::Storage(format!(
                "cannot concatenate a {} chunk into a {} column",
                p.data.type_name(),
                ty
            )));
        }
        out.extend_from_range(p, 0, p.len());
    }
    Ok(out.normalize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnData;
    use crate::simdisk::SimDiskConfig;
    use vw_common::{BitVec, DataType, Field};

    fn disk() -> Arc<SimDisk> {
        Arc::new(SimDisk::new(SimDiskConfig::default()))
    }

    fn lineitem_like_schema() -> Schema {
        Schema::new(vec![
            Field::new("orderkey", DataType::I64),
            Field::new("quantity", DataType::I64),
            Field::new("shipdate", DataType::Date),
            Field::nullable("comment", DataType::Str),
        ])
    }

    fn build_rows(n: usize) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| {
                vec![
                    Value::I64(i as i64),
                    Value::I64((i % 50) as i64 + 1),
                    Value::Date(8000 + (i / 10) as i32),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Str(format!("c{}", i % 3))
                    },
                ]
            })
            .collect()
    }

    #[test]
    fn build_and_read_back() {
        let mut b = TableBuilder::with_group_size(lineitem_like_schema(), disk(), 100);
        let rows = build_rows(250);
        for r in rows.clone() {
            b.push_row(r).unwrap();
        }
        let t = b.finish().unwrap();
        assert_eq!(t.n_rows(), 250);
        assert_eq!(t.group_count(), 3); // 100 + 100 + 50
        assert_eq!(t.group(2).n_rows, 50);
        assert_eq!(t.group(1).start_row, 100);
        // point reads match
        for probe in [0u64, 99, 100, 249] {
            assert_eq!(t.read_row(probe).unwrap(), rows[probe as usize]);
        }
        assert!(t.read_row(250).is_err());
        // column reads match
        let col = t.read_column(1, 1).unwrap();
        assert_eq!(col.len(), 100);
        assert_eq!(col.get_value(0, DataType::I64), Value::I64(1)); // row 100: 100 % 50 + 1
    }

    #[test]
    fn nulls_survive_storage() {
        let mut b = TableBuilder::with_group_size(lineitem_like_schema(), disk(), 64);
        for r in build_rows(128) {
            b.push_row(r).unwrap();
        }
        let t = b.finish().unwrap();
        let col = t.read_column(0, 3).unwrap();
        assert!(col.is_null(0)); // i % 7 == 0
        assert!(!col.is_null(1));
        assert!(col.is_null(7));
        assert_eq!(col.get_value(1, DataType::Str), Value::Str("c1".into()));
    }

    #[test]
    fn rejects_bad_rows() {
        let mut b = TableBuilder::new(lineitem_like_schema(), disk());
        assert!(b.push_row(vec![Value::I64(1)]).is_err());
        // NULL into non-nullable
        assert!(b
            .push_row(vec![
                Value::Null,
                Value::I64(1),
                Value::Date(1),
                Value::Null
            ])
            .is_err());
    }

    #[test]
    fn zone_map_pruning() {
        let mut b = TableBuilder::with_group_size(lineitem_like_schema(), disk(), 100);
        for r in build_rows(1000) {
            b.push_row(r).unwrap();
        }
        let t = b.finish().unwrap();
        // orderkey is 0..999 in order; groups of 100.
        let hits = t.groups_matching(0, PruneOp::Lt, &Value::I64(150));
        assert_eq!(hits, vec![0, 1]);
        let hits = t.groups_matching(0, PruneOp::Eq, &Value::I64(555));
        assert_eq!(hits, vec![5]);
        let hits = t.groups_matching(0, PruneOp::Ge, &Value::I64(900));
        assert_eq!(hits, vec![9]);
        // quantity cycles everywhere: no pruning possible
        let hits = t.groups_matching(1, PruneOp::Eq, &Value::I64(25));
        assert_eq!(hits.len(), 10);
    }

    #[test]
    fn read_all_and_concat() {
        let mut b = TableBuilder::with_group_size(lineitem_like_schema(), disk(), 77);
        let rows = build_rows(200);
        for r in rows.clone() {
            b.push_row(r).unwrap();
        }
        let t = b.finish().unwrap();
        let cols = read_all_columns(&t).unwrap();
        assert_eq!(cols.len(), 4);
        assert_eq!(cols[0].len(), 200);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(&cols[3].get_value(i, DataType::Str), &row[3]);
        }
    }

    #[test]
    fn rebuild_replaces_and_frees() {
        let d = disk();
        let mut b = TableBuilder::with_group_size(lineitem_like_schema(), d.clone(), 50);
        for r in build_rows(100) {
            b.push_row(r).unwrap();
        }
        let mut t = b.finish().unwrap();
        let blocks_before = d.block_count();
        assert_eq!(blocks_before, 2 * 4);
        // rebuild with half the rows
        let rows = build_rows(50);
        let mut cols = Vec::new();
        for (c, f) in t.schema().fields().iter().enumerate() {
            let vals: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
            cols.push(NullableColumn::from_values(f.ty, &vals).unwrap());
        }
        t.rebuild_from_chunks(&[cols]).unwrap();
        assert_eq!(t.n_rows(), 50);
        assert_eq!(t.group_count(), 1);
        assert_eq!(d.block_count(), 4);
        assert_eq!(t.read_row(10).unwrap(), rows[10]);
    }

    fn columns_of(rows: &[Vec<Value>]) -> Vec<NullableColumn> {
        lineitem_like_schema()
            .fields()
            .iter()
            .enumerate()
            .map(|(c, f)| {
                let vals: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
                NullableColumn::from_values(f.ty, &vals).unwrap()
            })
            .collect()
    }

    fn block_ids(t: &TableStorage) -> Vec<Vec<BlockId>> {
        t.groups()
            .iter()
            .map(|g| g.columns.iter().map(|c| c.block_id()).collect())
            .collect()
    }

    /// Encoded bytes of every block, in (group, column) order.
    fn image_bytes(t: &TableStorage) -> Vec<Vec<u8>> {
        block_ids(t)
            .into_iter()
            .flatten()
            .map(|id| t.disk().read_block(id).unwrap().to_vec())
            .collect()
    }

    #[test]
    fn next_image_shares_patches_and_folds_the_tail_like_a_rebuild() {
        let d = disk();
        let mut b = TableBuilder::with_group_size(lineitem_like_schema(), d.clone(), 100);
        let mut rows = build_rows(250);
        for r in rows.clone() {
            b.push_row(r).unwrap();
        }
        let t = b.finish().unwrap();
        // Group 1: quantity of its row 5 becomes 999; 70 rows are appended.
        rows[105][1] = Value::I64(999);
        let mut quantity = t.read_column(1, 1).unwrap();
        match &mut quantity.data {
            ColumnData::I64(v) => v[5] = 999,
            _ => unreachable!(),
        }
        let tail: Vec<Vec<Value>> = (0..70)
            .map(|i| {
                vec![
                    Value::I64(1000 + i),
                    Value::I64(1),
                    Value::Date(9000),
                    Value::Null,
                ]
            })
            .collect();
        rows.extend(tail.clone());
        let mut patch = Some(quantity);
        let (next, stats) = t
            .next_image(
                |g| {
                    Ok(if g == 1 {
                        GroupEdit::Patch(vec![(1, patch.take().unwrap())])
                    } else {
                        GroupEdit::Keep
                    })
                },
                Some(columns_of(&tail)),
            )
            .unwrap();
        // 250 + 70 rows: the partial third group (50) takes the tail in and
        // splits at the group size.
        assert_eq!(next.n_rows(), 320);
        let sizes: Vec<usize> = next.groups().iter().map(|g| g.n_rows).collect();
        assert_eq!(sizes, vec![100, 100, 100, 20]);
        let starts: Vec<u64> = next.groups().iter().map(|g| g.start_row).collect();
        assert_eq!(starts, vec![0, 100, 200, 300]);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(&next.read_row(i as u64).unwrap(), row, "row {}", i);
        }
        // Group 0 is shared whole, group 1 but for the patched column.
        let (old, new) = (block_ids(&t), block_ids(&next));
        assert_eq!(old[0], new[0]);
        for c in 0..4 {
            assert_eq!(old[1][c] == new[1][c], c != 1, "column {}", c);
        }
        assert_eq!(
            stats,
            ImageStats {
                blocks_total: 16,
                blocks_rewritten: 1 + 2 * 4,
                bytes_written: next.encoded_bytes()
                    - next
                        .group(0)
                        .columns
                        .iter()
                        .map(|c| c.encoded_bytes)
                        .sum::<usize>()
                    - [0, 2, 3]
                        .iter()
                        .map(|&c| next.group(1).columns[c].encoded_bytes)
                        .sum::<usize>(),
            }
        );
        // The same rows loaded from scratch give the same bytes.
        let mut b = TableBuilder::with_group_size(lineitem_like_schema(), disk(), 100);
        for r in rows {
            b.push_row(r).unwrap();
        }
        assert_eq!(image_bytes(&next), image_bytes(&b.finish().unwrap()));
        // Blocks live as long as an image refers to them.
        let live = d.block_count();
        assert_eq!(live, 3 * 4 + 9);
        drop(t);
        assert_eq!(d.block_count(), 16);
        drop(next);
        assert_eq!(d.block_count(), 0);
    }

    #[test]
    fn next_image_replaces_splits_and_drops_groups() {
        let d = disk();
        let mut b = TableBuilder::with_group_size(lineitem_like_schema(), d.clone(), 50);
        let rows = build_rows(150);
        for r in rows.clone() {
            b.push_row(r).unwrap();
        }
        let t = b.finish().unwrap();
        // Group 0 grows to 70 rows, group 1 loses all of its rows.
        let grown: Vec<Vec<Value>> = rows[..50].iter().chain(&rows[..20]).cloned().collect();
        let (next, stats) = t
            .next_image(
                |g| {
                    Ok(match g {
                        0 => GroupEdit::Replace(columns_of(&grown)),
                        1 => GroupEdit::Replace(columns_of(&[])),
                        _ => GroupEdit::Keep,
                    })
                },
                None,
            )
            .unwrap();
        let sizes: Vec<usize> = next.groups().iter().map(|g| g.n_rows).collect();
        assert_eq!(sizes, vec![50, 20, 50]);
        assert_eq!(next.n_rows(), 120);
        assert_eq!(next.group(2).start_row, 70);
        assert_eq!(next.read_row(60).unwrap(), rows[10]);
        assert_eq!(next.read_row(119).unwrap(), rows[149]);
        assert_eq!(block_ids(&t)[2], block_ids(&next)[2]);
        assert_eq!((stats.blocks_total, stats.blocks_rewritten), (12, 8));
        // Emptying the table leaves an image without groups.
        let (empty, stats) = next
            .next_image(|_| Ok(GroupEdit::Replace(columns_of(&[]))), None)
            .unwrap();
        assert_eq!((empty.n_rows(), empty.group_count()), (0, 0));
        assert_eq!(stats, ImageStats::default());
    }

    #[test]
    fn compression_kicks_in_on_real_shapes() {
        let mut b = TableBuilder::with_group_size(lineitem_like_schema(), disk(), 10_000);
        for r in build_rows(10_000) {
            b.push_row(r).unwrap();
        }
        let t = b.finish().unwrap();
        // orderkey sorted ints + dates near-sorted + tiny string domain:
        // stored size must be far below the naive 8+8+4+~2 bytes/row.
        let naive = 10_000 * (8 + 8 + 4 + 2);
        assert!(
            t.encoded_bytes() * 3 < naive,
            "encoded {} vs naive {}",
            t.encoded_bytes(),
            naive
        );
    }

    #[test]
    fn lazy_cursor_matches_eager_read() {
        let rows = build_rows(250);
        let mut b = TableBuilder::with_group_size(lineitem_like_schema(), disk(), 100);
        for r in rows.clone() {
            b.push_row(r).unwrap();
        }
        let t = b.finish().unwrap();
        for g in 0..t.group_count() {
            let start = t.group(g).start_row as usize;
            for c in 0..t.schema().len() {
                let ty = t.schema().field(c).ty;
                let whole = t.read_column(g, c).unwrap();
                let mut cur = t.read_column_cursor(g, c).unwrap();
                let n = cur.n();
                assert_eq!(n, t.group(g).n_rows);
                assert_eq!(whole.len(), n);
                let mid = n / 2;
                let halves = [
                    cur.decode_slice(0, mid).unwrap(),
                    cur.decode_slice(mid, n).unwrap(),
                ];
                for (i, row) in rows[start..start + n].iter().enumerate() {
                    let sliced = match i < mid {
                        true => halves[0].get_value(i, ty),
                        false => halves[1].get_value(i - mid, ty),
                    };
                    assert_eq!(sliced, row[c], "group {} col {} row {}", g, c, i);
                    assert_eq!(
                        whole.get_value(i, ty),
                        row[c],
                        "group {} col {} row {}",
                        g,
                        c,
                        i
                    );
                }
            }
        }
    }

    /// A block cut short, and blocks claiming more values than their row
    /// group holds — a width-0 PFOR frame whose header claims `u32::MAX`
    /// values, a run of `u32::MAX` values in a block of 100 — are storage
    /// errors naming the block. The claims are refused before anything is
    /// decoded: decoding first would allocate for what the block claims.
    #[test]
    fn decode_errors_carry_block_coordinates() {
        use crate::compress::{compress_with, CompressionScheme};
        let d = disk();
        let mut b = TableBuilder::with_group_size(lineitem_like_schema(), d.clone(), 100);
        for r in build_rows(100) {
            b.push_row(r).unwrap();
        }
        let mut t = b.finish().unwrap();
        t.set_name("lineitem");
        // Corrupt the quantity block of group 0 on disk.
        let blk = t.group(0).columns[1].block_id();
        let cut = d.read_block(blk).unwrap()[..2].to_vec();
        let quantity = ColumnData::I64(vec![7; 100]);
        // Framing: the NULL flag, then phys, scheme and `n` at bytes 3..7.
        let mut pfor = vec![0u8];
        pfor.extend(compress_with(&quantity, CompressionScheme::Pfor));
        assert_eq!(pfor[1 + 6 + 8], 0, "a width-0 frame");
        pfor[3..7].copy_from_slice(&u32::MAX.to_le_bytes());
        // One run: its length is the block's last four bytes.
        let mut rle = vec![0u8];
        rle.extend(compress_with(&quantity, CompressionScheme::Rle));
        let at = rle.len() - 4;
        rle[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        for bytes in [cut, pfor, rle] {
            d.overwrite_block(blk, bytes).unwrap();
            let msg = match t.read_column(0, 1) {
                Err(VwError::Storage(msg)) => msg,
                other => panic!("expected a storage error, got {:?}", other),
            };
            assert!(msg.contains("'lineitem'"), "msg: {}", msg);
            assert!(msg.contains("'quantity'"), "msg: {}", msg);
            assert!(msg.contains("row-group 0"), "msg: {}", msg);
            let msg = t.read_column_cursor(0, 1).unwrap_err().to_string();
            assert!(msg.contains("'quantity'"), "msg: {}", msg);
        }
    }

    /// Every physical type in every scheme `compress_with` can force on it,
    /// with and without NULLs, at 0, 1, 1 023 and 65 536 values: a payload
    /// decodes through `decompress_data` to the values encoded, and a stored
    /// block through `read_column` to the values with their NULLs.
    #[test]
    fn every_scheme_decodes_whole_blocks_to_what_was_encoded() {
        use crate::column::StrColumn;
        use crate::compress::{compress_with, decompress_data, CompressionScheme as S};
        use std::collections::BTreeSet;
        use vw_common::rng::Xoshiro256;
        let d = disk();
        let mut seen = BTreeSet::new();
        for n in [0usize, 1, 1023, 65_536] {
            let mut r = Xoshiro256::seeded(n as u64);
            // Short runs of small values, now and then an outlier: every
            // scheme applies, and PFOR has exceptions to patch.
            let ints: Vec<i64> = (0..n)
                .map(|i| match r.chance(0.01) {
                    true => r.next_u64() as i32 as i64,
                    false => (i / 5 % 40) as i64 - 20,
                })
                .collect();
            let modes = ["AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"];
            let unique: Vec<String> = (0..n).map(|i| format!("comment {}", i * 7919)).collect();
            let columns = [
                (
                    DataType::Bool,
                    ColumnData::Bool(ints.iter().map(|&v| v > 0).collect()),
                ),
                (
                    DataType::I32,
                    ColumnData::I32(ints.iter().map(|&v| v as i32).collect()),
                ),
                (
                    DataType::I64,
                    ColumnData::I64(ints.iter().map(|&v| v << 20).collect()),
                ),
                (
                    DataType::F64,
                    ColumnData::F64(ints.iter().map(|&v| v as f64 / 100.0).collect()),
                ),
                (
                    DataType::Str,
                    ColumnData::Str(StrColumn::from_iter(
                        ints.iter()
                            .map(|&v| modes[v.unsigned_abs() as usize % modes.len()]),
                    )),
                ),
                (
                    DataType::Str,
                    ColumnData::Str(StrColumn::from_iter(unique.iter().map(|s| s.as_str()))),
                ),
            ];
            for (ty, col) in &columns {
                for scheme in [S::Plain, S::Rle, S::Pfor, S::PforDelta, S::Pdict] {
                    let payload = compress_with(col, scheme);
                    seen.insert((ty.name(), S::from_u8(payload[1]).unwrap().name()));
                    assert_eq!(
                        &decompress_data(&payload).unwrap(),
                        col,
                        "{} {:?} n {}",
                        ty,
                        scheme,
                        n
                    );
                    for with_nulls in [false, true] {
                        let nulls = with_nulls
                            .then(|| (0..n).map(|i| i == 0 || r.chance(0.2)).collect::<BitVec>());
                        let want = NullableColumn::new(col.clone(), nulls.clone()).normalize();
                        let mut block = match &want.nulls {
                            Some(bits) => [vec![1], bits.to_bytes()].concat(),
                            None => vec![0],
                        };
                        block.extend_from_slice(&payload);
                        let mut t = TableStorage::new(
                            Schema::new(vec![Field::nullable("v", *ty)]),
                            d.clone(),
                        );
                        t.row_groups.push(RowGroup {
                            n_rows: n,
                            start_row: 0,
                            columns: vec![ColumnBlock {
                                encoded_bytes: block.len(),
                                block: BlockLease::write(&d, block),
                                n_values: n,
                                scheme,
                                minmax: MinMax::None,
                                has_nulls: want.nulls.is_some(),
                                raw_bytes: 0,
                            }],
                        });
                        let tag = format!("{} {:?} n {} nulls {}", ty, scheme, n, with_nulls);
                        assert_eq!(t.read_column(0, 0).unwrap(), want, "{}", tag);
                    }
                }
            }
        }
        // The forcing took effect wherever a scheme applies.
        let ints = [S::Plain, S::Rle, S::Pfor, S::PforDelta];
        let want: BTreeSet<_> = [
            (DataType::Bool, &[S::Plain][..]),
            (DataType::I32, &ints),
            (DataType::I64, &ints),
            (DataType::F64, &ints),
            (DataType::Str, &[S::Plain, S::Pdict]),
        ]
        .iter()
        .flat_map(|(ty, schemes)| schemes.iter().map(|s| (ty.name(), s.name())))
        .collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn raw_bytes_accounts_uncompressed_size() {
        let mut b = TableBuilder::with_group_size(lineitem_like_schema(), disk(), 100);
        for r in build_rows(200) {
            b.push_row(r).unwrap();
        }
        let t = b.finish().unwrap();
        // 200 rows: two i64 cols (8B), one date (4B), strings ("c0".. = 2B
        // each, +4B offsets, +4B for the extra offset per block).
        assert!(t.raw_bytes() > 200 * (8 + 8 + 4 + 2));
        assert!(t.raw_bytes() < 200 * 40);
        assert!(t.encoded_bytes() < t.raw_bytes());
    }

    fn shuffled_rows(n: usize) -> Vec<Vec<Value>> {
        // Deterministic shuffle of build_rows(n) (LCG step over the index).
        let rows = build_rows(n);
        (0..n).map(|i| rows[(i * 73 + 19) % n].clone()).collect()
    }

    #[test]
    fn declared_order_sorts_on_load_and_rebuild() {
        use vw_common::SortSpec;
        let mut t = TableStorage::with_group_size(lineitem_like_schema(), disk(), 50);
        t.set_name("t");
        t.set_layout(TableLayout::ordered(vec![SortSpec::new(0, true)]))
            .unwrap();
        let mut b = TableBuilder::for_table(t);
        for r in shuffled_rows(200) {
            b.push_row(r).unwrap();
        }
        let t = b.finish().unwrap();
        assert_eq!(t.n_rows(), 200);
        for i in 0..200u64 {
            assert_eq!(t.read_row(i).unwrap()[0], Value::I64(i as i64));
        }
        // A rebuild from shuffled chunks re-sorts too (checkpoint path).
        let rows = shuffled_rows(100);
        let mut cols = Vec::new();
        for (c, f) in lineitem_like_schema().fields().iter().enumerate() {
            let vals: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
            cols.push(NullableColumn::from_values(f.ty, &vals).unwrap());
        }
        let mut t = t;
        t.rebuild_from_chunks(&[cols]).unwrap();
        for i in 0..100u64 {
            assert_eq!(t.read_row(i).unwrap()[0], Value::I64(i as i64));
        }
    }

    #[test]
    fn descending_order_and_nulls_last() {
        use vw_common::SortSpec;
        let schema = Schema::new(vec![Field::nullable("v", DataType::I64)]);
        let mut t = TableStorage::with_group_size(schema, disk(), 10);
        t.set_layout(TableLayout::ordered(vec![SortSpec {
            col: 0,
            asc: false,
            nulls_first: false,
        }]))
        .unwrap();
        let mut b = TableBuilder::for_table(t);
        for v in [Value::Null, Value::I64(3), Value::I64(9), Value::I64(1)] {
            b.push_row(vec![v]).unwrap();
        }
        let t = b.finish().unwrap();
        let got: Vec<Value> = (0..4).map(|i| t.read_row(i).unwrap()[0].clone()).collect();
        assert_eq!(
            got,
            vec![Value::I64(9), Value::I64(3), Value::I64(1), Value::Null]
        );
    }

    #[test]
    fn range_partitions_spread_groups_over_shards() {
        use vw_common::{RangePartitionSpec, SortSpec};
        let d = disk();
        let mut t = TableStorage::with_group_size(lineitem_like_schema(), d.clone(), 25);
        t.set_name("li");
        t.set_layout(TableLayout {
            order: vec![SortSpec::new(0, true)],
            partition: Some(RangePartitionSpec {
                col: 0,
                partitions: 4,
            }),
        })
        .unwrap();
        let mut b = TableBuilder::for_table(t);
        for r in shuffled_rows(400) {
            b.push_row(r).unwrap();
        }
        let t = b.finish().unwrap();
        assert_eq!(t.partition_count(), 4);
        assert_eq!(t.partition_col(), Some(0));
        // Equal-count split of 0..399: 100 rows = 4 groups per partition.
        let mut seen = 0;
        for p in 0..4 {
            let (s, e) = t.partition_extent(p);
            assert_eq!(e - s, 4, "partition {}", p);
            assert!(t.partition_disk(p).label().starts_with("li.p"));
            // Each shard holds exactly its partition's blocks.
            assert!(t.partition_disk(p).stats().writes >= 16);
            for g in s..e {
                assert_eq!(t.partition_of_group(g), p);
                seen += t.group(g).n_rows;
            }
        }
        assert_eq!(seen, 400);
        // Rows are globally sorted (partition col == leading order col).
        for i in 0..400u64 {
            assert_eq!(t.read_row(i).unwrap()[0], Value::I64(i as i64));
        }
        // Range pruning over partition bounds.
        assert!(t.partition_may_match(0, PruneOp::Lt, &Value::I64(50)));
        assert!(!t.partition_may_match(1, PruneOp::Lt, &Value::I64(50)));
        assert!(!t.partition_may_match(3, PruneOp::Lt, &Value::I64(50)));
        assert!(t.partition_may_match(3, PruneOp::Ge, &Value::I64(350)));
        assert!(!t.partition_may_match(0, PruneOp::Ge, &Value::I64(350)));
        assert!(t.partition_may_match(2, PruneOp::Eq, &Value::I64(250)));
        assert!(!t.partition_may_match(1, PruneOp::Eq, &Value::I64(250)));
        // Pruned partitions' reads never touch other shards: read a row
        // from partition 3 and check p0's read counter is unchanged.
        let before = t.partition_disk(0).stats().reads;
        t.read_row(399).unwrap();
        assert_eq!(t.partition_disk(0).stats().reads, before);
    }

    #[test]
    fn partitioned_rebuild_frees_old_shard_blocks() {
        use vw_common::{RangePartitionSpec, SortSpec};
        let d = disk();
        let mut t = TableStorage::with_group_size(lineitem_like_schema(), d.clone(), 25);
        t.set_layout(TableLayout {
            order: vec![SortSpec::new(0, true)],
            partition: Some(RangePartitionSpec {
                col: 0,
                partitions: 2,
            }),
        })
        .unwrap();
        let mut b = TableBuilder::for_table(t);
        for r in build_rows(100) {
            b.push_row(r).unwrap();
        }
        let mut t = b.finish().unwrap();
        // Shared family block map: main sees all live blocks.
        let live = d.block_count();
        assert_eq!(live, 4 * 4); // 4 groups x 4 columns
        let rows = build_rows(50);
        let mut cols = Vec::new();
        for (c, f) in t.schema().fields().iter().enumerate() {
            let vals: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
            cols.push(NullableColumn::from_values(f.ty, &vals).unwrap());
        }
        t.rebuild_from_chunks(&[cols]).unwrap();
        assert_eq!(t.n_rows(), 50);
        assert_eq!(d.block_count(), 2 * 4);
        for i in 0..50u64 {
            assert_eq!(t.read_row(i).unwrap()[0], Value::I64(i as i64));
        }
    }

    #[test]
    fn set_layout_reorganizes_existing_rows() {
        use vw_common::SortSpec;
        let mut b = TableBuilder::with_group_size(lineitem_like_schema(), disk(), 50);
        for r in shuffled_rows(120) {
            b.push_row(r).unwrap();
        }
        let mut t = b.finish().unwrap();
        assert_ne!(t.read_row(0).unwrap()[0], Value::I64(0));
        t.set_layout(TableLayout::ordered(vec![SortSpec::new(0, true)]))
            .unwrap();
        for i in 0..120u64 {
            assert_eq!(t.read_row(i).unwrap()[0], Value::I64(i as i64));
        }
        assert!(t
            .set_layout(TableLayout::ordered(vec![SortSpec::new(9, true)]))
            .is_err());
    }

    #[test]
    fn empty_table() {
        let t = TableStorage::new(lineitem_like_schema(), disk());
        assert_eq!(t.n_rows(), 0);
        assert_eq!(t.group_count(), 0);
        assert!(t.read_row(0).is_err());
        let b = TableBuilder::new(lineitem_like_schema(), disk());
        let t = b.finish().unwrap();
        assert_eq!(t.n_rows(), 0);
    }
}
