//! The write-ahead log.
//!
//! Redo-only: a record is written for each *committed* transaction (there is
//! nothing to undo under optimistic CC — aborted transactions never touch
//! shared state). Records are length-prefixed and CRC-32 protected; recovery
//! stops cleanly at the first torn or corrupt record, which models a crash
//! mid-write.
//!
//! On-disk framing:
//! ```text
//! [len: u32 LE][crc32(payload): u32 LE][payload: len bytes]
//! ```
//! Payload: `[kind: u8][lsn: u64][txn_id: u64][n_tables: u32]` then per table
//! `[table_id: u64][ops_len: u32][ops bytes]` (see `vw_pdt::serialize_ops`).
//!
//! Every record carries its *position* (`lsn`), counted from 1 in append
//! order and never reused, trimmed log or not. A table image remembers the
//! position it is current to, so recovery replays a table's section of a
//! record only when the record lies past that image — whatever else the
//! file still holds. That is what lets a checkpoint of one table trim its
//! own sections ([`Wal::retain`]) and leave every other table's in place.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use vw_common::{Result, TableId, TxnId, VwError};

const KIND_COMMIT: u8 = 1;

/// One recovered WAL record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Position of the record in the log.
    pub lsn: u64,
    pub txn_id: TxnId,
    /// Per-table serialized op lists (still encoded; the manager decodes).
    pub tables: Vec<(TableId, Vec<u8>)>,
}

fn crc_table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        t
    })
}

/// CRC-32 (IEEE 802.3).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = crc_table();
    let mut c = !0u32;
    for &b in bytes {
        c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// An append-only write-ahead log backed by a file.
pub struct Wal {
    path: PathBuf,
    writer: BufWriter<File>,
    records_written: u64,
    /// Position of the last record appended (0 = none yet).
    last_lsn: u64,
}

/// One framed record: length, checksum, payload.
fn encode_record(lsn: u64, txn_id: TxnId, tables: &[(TableId, Vec<u8>)]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(64);
    payload.push(KIND_COMMIT);
    payload.extend_from_slice(&lsn.to_le_bytes());
    payload.extend_from_slice(&txn_id.as_u64().to_le_bytes());
    payload.extend_from_slice(&(tables.len() as u32).to_le_bytes());
    for (tid, ops) in tables {
        payload.extend_from_slice(&tid.as_u64().to_le_bytes());
        payload.extend_from_slice(&(ops.len() as u32).to_le_bytes());
        payload.extend_from_slice(ops);
    }
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

impl Wal {
    /// Open (appending) or create the log at `path`. Positions continue
    /// after the last record already in the file.
    pub fn open(path: impl AsRef<Path>) -> Result<Wal> {
        let path = path.as_ref().to_path_buf();
        let last_lsn = Wal::replay(&path)?.last().map_or(0, |r| r.lsn);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Wal {
            path,
            writer: BufWriter::new(file),
            records_written: 0,
            last_lsn,
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Position of the last record appended.
    pub fn last_lsn(&self) -> u64 {
        self.last_lsn
    }

    /// Never hand out a position at or below `floor`: after a trim the file
    /// may no longer show how far the log once reached, but the images
    /// checkpointed from it do.
    pub fn advance_lsn(&mut self, floor: u64) {
        self.last_lsn = self.last_lsn.max(floor);
    }

    /// Append a commit record at the next position; durable once this
    /// returns (every commit flushes, modelling an fsync).
    pub fn append_commit(&mut self, txn_id: TxnId, tables: &[(TableId, Vec<u8>)]) -> Result<()> {
        self.writer
            .write_all(&encode_record(self.last_lsn + 1, txn_id, tables))?;
        self.writer.flush()?;
        self.last_lsn += 1;
        self.records_written += 1;
        Ok(())
    }

    /// Trim the log to the table sections `needed(lsn, table)` still wants —
    /// those no image contains yet — dropping records left without any. The
    /// kept records go to a new file that then replaces the log, so a crash
    /// at any point leaves either the old log or the new one, and both
    /// recover to the same state: what is dropped here is exactly what
    /// recovery skips.
    pub fn retain(&mut self, needed: impl Fn(u64, TableId) -> bool) -> Result<()> {
        self.writer.flush()?;
        let mut records = Wal::replay(&self.path)?;
        let mut trimmed = false;
        for r in &mut records {
            let sections = r.tables.len();
            r.tables.retain(|(tid, _)| needed(r.lsn, *tid));
            trimmed |= r.tables.len() < sections || sections == 0;
        }
        if !trimmed {
            return Ok(());
        }
        records.retain(|r| !r.tables.is_empty());
        if records.is_empty() {
            return self.truncate();
        }
        let tmp = self.path.with_extension("trim");
        let mut file = File::create(&tmp)?;
        for r in &records {
            file.write_all(&encode_record(r.lsn, r.txn_id, &r.tables))?;
        }
        file.sync_all()?;
        std::fs::rename(&tmp, &self.path)?;
        let dir = self.path.parent().filter(|d| !d.as_os_str().is_empty());
        File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
        let file = OpenOptions::new().append(true).open(&self.path)?;
        self.writer = BufWriter::new(file);
        Ok(())
    }

    /// Empty the log (every record in it is contained in some image).
    /// Positions keep counting.
    pub fn truncate(&mut self) -> Result<()> {
        self.writer.flush()?;
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&self.path)?;
        self.writer = BufWriter::new(file);
        self.records_written = 0;
        Ok(())
    }

    /// Read all complete, uncorrupted records from a log file. A torn tail
    /// (partial final record or CRC mismatch) ends replay without error —
    /// that transaction never acknowledged its commit.
    pub fn replay(path: impl AsRef<Path>) -> Result<Vec<WalRecord>> {
        let mut bytes = Vec::new();
        match File::open(path.as_ref()) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(vec![]),
            Err(e) => return Err(e.into()),
        }
        let mut records = Vec::new();
        let mut pos = 0usize;
        while pos + 8 <= bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
            let start = pos + 8;
            let end = match start.checked_add(len) {
                Some(e) if e <= bytes.len() => e,
                _ => break, // torn tail
            };
            let payload = &bytes[start..end];
            if crc32(payload) != crc {
                break; // corrupt tail
            }
            match Self::parse_payload(payload) {
                Ok(rec) => records.push(rec),
                Err(_) => break,
            }
            pos = end;
        }
        Ok(records)
    }

    fn parse_payload(p: &[u8]) -> Result<WalRecord> {
        let corrupt = || VwError::Wal("bad record payload".into());
        if p.first() != Some(&KIND_COMMIT) {
            return Err(corrupt());
        }
        let mut pos = 1usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
            let s = p.get(*pos..*pos + n).ok_or_else(corrupt)?;
            *pos += n;
            Ok(s)
        };
        let lsn = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        let txn_id = TxnId::new(u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()));
        let n_tables = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        let mut tables = Vec::with_capacity(n_tables);
        for _ in 0..n_tables {
            let tid = TableId::new(u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()));
            let ops_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
            let ops = take(&mut pos, ops_len)?.to_vec();
            tables.push((tid, ops));
        }
        if pos != p.len() {
            return Err(corrupt());
        }
        Ok(WalRecord {
            lsn,
            txn_id,
            tables,
        })
    }
}

#[cfg(test)]
pub(crate) fn temp_wal_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("vw_wal_{}_{}_{}.log", tag, std::process::id(), n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn append_and_replay() {
        let path = temp_wal_path("roundtrip");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append_commit(TxnId::new(1), &[(TableId::new(7), vec![1, 2, 3])])
                .unwrap();
            wal.append_commit(
                TxnId::new(2),
                &[(TableId::new(7), vec![4]), (TableId::new(8), vec![])],
            )
            .unwrap();
        }
        let recs = Wal::replay(&path).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].txn_id, TxnId::new(1));
        assert_eq!(recs[0].tables, vec![(TableId::new(7), vec![1, 2, 3])]);
        assert_eq!(recs[1].tables.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_missing_file_is_empty() {
        let recs = Wal::replay("/nonexistent/definitely/not/here.log").unwrap();
        assert!(recs.is_empty());
    }

    #[test]
    fn torn_tail_is_ignored() {
        let path = temp_wal_path("torn");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append_commit(TxnId::new(1), &[(TableId::new(1), vec![9; 100])])
                .unwrap();
            wal.append_commit(TxnId::new(2), &[(TableId::new(1), vec![8; 100])])
                .unwrap();
        }
        // Chop the file mid-record 2.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 30]).unwrap();
        let recs = Wal::replay(&path).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].txn_id, TxnId::new(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let path = temp_wal_path("crc");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append_commit(TxnId::new(1), &[(TableId::new(1), vec![1])])
                .unwrap();
            wal.append_commit(TxnId::new(2), &[(TableId::new(1), vec![2])])
                .unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one byte inside the first record's payload.
        let idx = 10;
        bytes[idx] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let recs = Wal::replay(&path).unwrap();
        assert!(recs.is_empty()); // first record corrupt → nothing replayed
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncate_empties_log() {
        let path = temp_wal_path("trunc");
        let mut wal = Wal::open(&path).unwrap();
        wal.append_commit(TxnId::new(1), &[]).unwrap();
        wal.truncate().unwrap();
        assert_eq!(Wal::replay(&path).unwrap().len(), 0);
        wal.append_commit(TxnId::new(2), &[]).unwrap();
        let recs = Wal::replay(&path).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].txn_id, TxnId::new(2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn positions_count_on_across_reopen_and_truncate() {
        let path = temp_wal_path("lsn");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append_commit(TxnId::new(7), &[]).unwrap();
            wal.append_commit(TxnId::new(3), &[]).unwrap();
            assert_eq!(wal.last_lsn(), 2);
        }
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.last_lsn(), 2);
        wal.append_commit(TxnId::new(9), &[]).unwrap();
        let lsns: Vec<u64> = Wal::replay(&path).unwrap().iter().map(|r| r.lsn).collect();
        assert_eq!(lsns, vec![1, 2, 3]);
        wal.truncate().unwrap();
        wal.append_commit(TxnId::new(1), &[]).unwrap();
        assert_eq!(Wal::replay(&path).unwrap()[0].lsn, 4);
        // What the file no longer shows, the caller can restore.
        drop(wal);
        std::fs::remove_file(&path).unwrap();
        let mut wal = Wal::open(&path).unwrap();
        wal.advance_lsn(4);
        wal.advance_lsn(2);
        wal.append_commit(TxnId::new(2), &[]).unwrap();
        assert_eq!(Wal::replay(&path).unwrap()[0].lsn, 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retain_trims_sections_not_records_others_need() {
        let path = temp_wal_path("retain");
        let (a, b) = (TableId::new(1), TableId::new(2));
        let mut wal = Wal::open(&path).unwrap();
        wal.append_commit(TxnId::new(1), &[(a, vec![1])]).unwrap();
        wal.append_commit(TxnId::new(2), &[(a, vec![2]), (b, vec![20])])
            .unwrap();
        wal.append_commit(TxnId::new(3), &[(b, vec![30])]).unwrap();
        wal.append_commit(TxnId::new(4), &[(a, vec![4])]).unwrap();
        // Table `a` is checkpointed at position 2.
        wal.retain(|lsn, t| t == b || lsn > 2).unwrap();
        let recs = Wal::replay(&path).unwrap();
        let shape: Vec<_> = recs.iter().map(|r| (r.lsn, r.tables.clone())).collect();
        assert_eq!(
            shape,
            vec![
                (2, vec![(b, vec![20])]),
                (3, vec![(b, vec![30])]),
                (4, vec![(a, vec![4])]),
            ]
        );
        assert_eq!(recs[0].txn_id, TxnId::new(2));
        assert!(!path.with_extension("trim").exists());
        // Appends go on behind the trimmed log, at the next position.
        wal.append_commit(TxnId::new(5), &[(b, vec![50])]).unwrap();
        let lsns: Vec<u64> = Wal::replay(&path).unwrap().iter().map(|r| r.lsn).collect();
        assert_eq!(lsns, vec![2, 3, 4, 5]);
        // Needing everything rewrites nothing; needing nothing empties.
        let before = std::fs::read(&path).unwrap();
        wal.retain(|_, _| true).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), before);
        wal.retain(|_, _| false).unwrap();
        assert_eq!(Wal::replay(&path).unwrap().len(), 0);
        wal.append_commit(TxnId::new(6), &[(a, vec![6])]).unwrap();
        assert_eq!(Wal::replay(&path).unwrap()[0].lsn, 6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_appends() {
        let path = temp_wal_path("reopen");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append_commit(TxnId::new(1), &[]).unwrap();
        }
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append_commit(TxnId::new(2), &[]).unwrap();
        }
        assert_eq!(Wal::replay(&path).unwrap().len(), 2);
        std::fs::remove_file(&path).ok();
    }
}
