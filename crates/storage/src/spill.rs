//! Spill files: temporary on-"disk" storage for operator state that exceeds
//! the execution-memory budget.
//!
//! A [`SpillFile`] is an append-only sequence of *chunks*; each chunk is one
//! dense columnar batch serialized into a single [`SimDisk`] block, so spill
//! I/O flows through the same virtual-disk accounting as table scans and
//! shows up in `DiskStats` / `EXPLAIN ANALYZE` for free. Chunks can be read
//! back in any order (grace-join probes read partition-at-a-time; external
//! sort merges runs front-to-back) through `&self`, so a spilled structure
//! can be shared across Exchange workers.
//!
//! The encoding is a plain little-endian columnar dump — spill data is
//! written once and read once, so codec work (PDICT/RLE/PFOR) would cost
//! more than the bandwidth it saves at SimDisk's modelled 500 MB/s:
//!
//! ```text
//! chunk := u32 n_rows, u32 n_cols, col*
//! col   := u8 type_tag, u8 has_nulls, [null bits: ceil(n_rows/8)],
//!          values (Bool: packed bits; I32/I64/F64: fixed LE;
//!                  Str: per row u32 len + bytes)
//! ```
//!
//! Dropping a `SpillFile` frees its blocks.

use std::sync::Arc;

use vw_common::{Result, VwError};

use crate::column::{ColumnData, StrColumn};
use crate::simdisk::SimDisk;
use vw_common::BlockId;

/// Borrowed view of one column to spill: dense data plus an optional
/// validity vector (`false` = NULL), both of the chunk's row count.
pub struct SpillCol<'a> {
    pub data: &'a ColumnData,
    pub nulls: Option<&'a [bool]>,
}

/// One decoded column read back from a spill chunk.
pub type SpilledCol = (ColumnData, Option<Vec<bool>>);

/// An append-only spill file backed by SimDisk blocks (one per chunk).
pub struct SpillFile {
    disk: Arc<SimDisk>,
    chunks: Vec<BlockId>,
    bytes: u64,
    rows: u64,
}

impl SpillFile {
    pub fn new(disk: Arc<SimDisk>) -> Self {
        SpillFile {
            disk,
            chunks: Vec::new(),
            bytes: 0,
            rows: 0,
        }
    }

    /// Serialize one dense chunk and append it; returns its encoded size.
    pub fn append_chunk(&mut self, cols: &[SpillCol], rows: usize) -> Result<u64> {
        let buf = encode_chunk(cols, rows)?;
        let len = buf.len() as u64;
        self.chunks.push(self.disk.write_block(buf));
        self.bytes += len;
        self.rows += rows as u64;
        Ok(len)
    }

    /// Read chunk `i` back; returns the columns and the chunk's row count.
    pub fn read_chunk(&self, i: usize) -> Result<(Vec<SpilledCol>, usize)> {
        let block = self.disk.read_block(self.chunks[i])?;
        decode_chunk(&block)
    }

    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Total encoded bytes written.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Total rows across all chunks.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        for id in self.chunks.drain(..) {
            self.disk.free_block(id);
        }
    }
}

const TAG_BOOL: u8 = 0;
const TAG_I32: u8 = 1;
const TAG_I64: u8 = 2;
const TAG_F64: u8 = 3;
const TAG_STR: u8 = 4;

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_bits(buf: &mut Vec<u8>, bits: impl ExactSizeIterator<Item = bool>) {
    let n = bits.len();
    let start = buf.len();
    buf.resize(start + n.div_ceil(8), 0);
    for (i, b) in bits.enumerate() {
        if b {
            buf[start + i / 8] |= 1 << (i % 8);
        }
    }
}

fn encode_chunk(cols: &[SpillCol], rows: usize) -> Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(
        64 + cols
            .iter()
            .map(|c| c.data.uncompressed_bytes())
            .sum::<usize>(),
    );
    push_u32(&mut buf, rows as u32);
    push_u32(&mut buf, cols.len() as u32);
    for col in cols {
        debug_assert_eq!(col.data.len(), rows, "spill chunks must be dense");
        let (tag, _) = tag_of(col.data);
        buf.push(tag);
        match col.nulls {
            Some(nulls) => {
                debug_assert_eq!(nulls.len(), rows);
                buf.push(1);
                push_bits(&mut buf, nulls.iter().copied());
            }
            None => buf.push(0),
        }
        match col.data {
            ColumnData::Bool(v) => push_bits(&mut buf, v.iter().copied()),
            ColumnData::I32(v) => {
                for x in v {
                    buf.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::I64(v) => {
                for x in v {
                    buf.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::F64(v) => {
                for x in v {
                    buf.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::Str(s) => push_strs(&mut buf, s),
            // A spill file holds strings: it outlives the block whose
            // dictionary the codes index.
            ColumnData::Dict(d) => push_strs(&mut buf, &d.materialize()),
        }
    }
    Ok(buf)
}

fn push_strs(buf: &mut Vec<u8>, s: &StrColumn) {
    for i in 0..s.len() {
        let b = s.get_bytes(i);
        push_u32(buf, b.len() as u32);
        buf.extend_from_slice(b);
    }
}

fn tag_of(data: &ColumnData) -> (u8, &'static str) {
    match data {
        ColumnData::Bool(_) => (TAG_BOOL, "bool"),
        ColumnData::I32(_) => (TAG_I32, "i32"),
        ColumnData::I64(_) => (TAG_I64, "i64"),
        ColumnData::F64(_) => (TAG_F64, "f64"),
        ColumnData::Str(_) | ColumnData::Dict(_) => (TAG_STR, "str"),
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(VwError::Exec("truncated spill chunk".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn bits(&mut self, n: usize) -> Result<Vec<bool>> {
        let raw = self.take(n.div_ceil(8))?;
        Ok((0..n).map(|i| raw[i / 8] & (1 << (i % 8)) != 0).collect())
    }
}

fn decode_chunk(buf: &[u8]) -> Result<(Vec<SpilledCol>, usize)> {
    let mut r = Reader { buf, pos: 0 };
    let rows = r.u32()? as usize;
    let ncols = r.u32()? as usize;
    let mut cols = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let tag = r.u8()?;
        let has_nulls = r.u8()? != 0;
        let nulls = if has_nulls { Some(r.bits(rows)?) } else { None };
        let data = match tag {
            TAG_BOOL => ColumnData::Bool(r.bits(rows)?),
            TAG_I32 => {
                let raw = r.take(rows * 4)?;
                ColumnData::I32(
                    raw.chunks_exact(4)
                        .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
                        .collect(),
                )
            }
            TAG_I64 => {
                let raw = r.take(rows * 8)?;
                ColumnData::I64(
                    raw.chunks_exact(8)
                        .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
                        .collect(),
                )
            }
            TAG_F64 => {
                let raw = r.take(rows * 8)?;
                ColumnData::F64(
                    raw.chunks_exact(8)
                        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                        .collect(),
                )
            }
            TAG_STR => {
                let mut s = StrColumn::new();
                for _ in 0..rows {
                    let len = r.u32()? as usize;
                    let raw = r.take(len)?;
                    s.push(
                        std::str::from_utf8(raw)
                            .map_err(|_| VwError::Exec("corrupt spill string".into()))?,
                    );
                }
                ColumnData::Str(s)
            }
            other => {
                return Err(VwError::Exec(format!("bad spill column tag {other}")));
            }
        };
        cols.push((data, nulls));
    }
    Ok((cols, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simdisk::SimDiskConfig;

    fn disk() -> Arc<SimDisk> {
        Arc::new(SimDisk::new(SimDiskConfig::default()))
    }

    #[test]
    fn roundtrip_all_types() {
        let d = disk();
        let mut f = SpillFile::new(d.clone());
        let bools = ColumnData::Bool(vec![true, false, true]);
        let i32s = ColumnData::I32(vec![-1, 0, i32::MAX]);
        let i64s = ColumnData::I64(vec![i64::MIN, 7, i64::MAX]);
        let f64s = ColumnData::F64(vec![0.5, -0.0, f64::NAN]);
        let strs = ColumnData::Str(StrColumn::from_iter(["", "héllo", "x"]));
        let nulls = vec![true, false, true];
        let cols = [
            SpillCol {
                data: &bools,
                nulls: None,
            },
            SpillCol {
                data: &i32s,
                nulls: Some(&nulls),
            },
            SpillCol {
                data: &i64s,
                nulls: None,
            },
            SpillCol {
                data: &f64s,
                nulls: Some(&nulls),
            },
            SpillCol {
                data: &strs,
                nulls: None,
            },
        ];
        let written = f.append_chunk(&cols, 3).unwrap();
        assert!(written > 0);
        assert_eq!(f.bytes(), written);
        assert_eq!(f.rows(), 3);
        assert_eq!(f.chunk_count(), 1);

        let (back, rows) = f.read_chunk(0).unwrap();
        assert_eq!(rows, 3);
        assert_eq!(back.len(), 5);
        assert_eq!(back[0].0, bools);
        assert_eq!(back[1].0, i32s);
        assert_eq!(back[1].1.as_deref(), Some(&nulls[..]));
        assert_eq!(back[2].0, i64s);
        match (&back[3].0, &f64s) {
            (ColumnData::F64(a), ColumnData::F64(b)) => {
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "bit-exact f64 roundtrip");
                }
            }
            _ => unreachable!(),
        }
        match &back[4].0 {
            ColumnData::Str(s) => {
                assert_eq!(s.iter().collect::<Vec<_>>(), vec!["", "héllo", "x"]);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn multiple_chunks_random_access() {
        let d = disk();
        let mut f = SpillFile::new(d.clone());
        for k in 0..5i64 {
            let col = ColumnData::I64(vec![k, k + 10]);
            f.append_chunk(
                &[SpillCol {
                    data: &col,
                    nulls: None,
                }],
                2,
            )
            .unwrap();
        }
        assert_eq!(f.chunk_count(), 5);
        assert_eq!(f.rows(), 10);
        // Read out of order.
        for k in [3usize, 0, 4, 1, 2] {
            let (cols, rows) = f.read_chunk(k).unwrap();
            assert_eq!(rows, 2);
            assert_eq!(cols[0].0, ColumnData::I64(vec![k as i64, k as i64 + 10]));
        }
    }

    #[test]
    fn spill_io_hits_disk_stats_and_drop_frees() {
        let d = disk();
        let before = d.stats();
        let blocks_before = d.block_count();
        {
            let mut f = SpillFile::new(d.clone());
            let col = ColumnData::I64((0..100).collect());
            f.append_chunk(
                &[SpillCol {
                    data: &col,
                    nulls: None,
                }],
                100,
            )
            .unwrap();
            let _ = f.read_chunk(0).unwrap();
            let mid = d.stats().since(&before);
            assert_eq!(mid.writes, 1);
            assert_eq!(mid.reads, 1);
            assert!(mid.bytes_written >= 800);
        }
        assert_eq!(d.block_count(), blocks_before, "drop frees spill blocks");
    }

    #[test]
    fn zero_column_chunk() {
        // Aggregates with no group keys never spill zero-column rows, but the
        // codec should still hold up.
        let d = disk();
        let mut f = SpillFile::new(d);
        f.append_chunk(&[], 7).unwrap();
        let (cols, rows) = f.read_chunk(0).unwrap();
        assert!(cols.is_empty());
        assert_eq!(rows, 7);
    }
}
