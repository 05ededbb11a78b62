//! Run-length encoding for integer and float columns.
//!
//! Wins on low-cardinality clustered data (flags, status codes, and the
//! all-constant columns TPC-H is full of). Floats are run-compared by bit
//! pattern so NaNs round-trip exactly.
//!
//! Wire layout: `[n_runs: u32 LE] ([value: 8 bytes LE][run_len: u32 LE])*`

/// Encode i64 runs.
pub fn rle_encode_i64(values: &[i64]) -> Vec<u8> {
    encode_raw(values.iter().map(|v| v.to_le_bytes()))
}

/// Encode f64 runs (bit-pattern equality).
pub fn rle_encode_f64(values: &[f64]) -> Vec<u8> {
    encode_raw(values.iter().map(|v| v.to_le_bytes()))
}

fn encode_raw(values: impl Iterator<Item = [u8; 8]>) -> Vec<u8> {
    let mut runs: Vec<([u8; 8], u32)> = Vec::new();
    for v in values {
        match runs.last_mut() {
            Some((last, count)) if *last == v => *count += 1,
            _ => runs.push((v, 1)),
        }
    }
    let mut out = Vec::with_capacity(4 + runs.len() * 12);
    out.extend_from_slice(&(runs.len() as u32).to_le_bytes());
    for (v, count) in runs {
        out.extend_from_slice(&v);
        out.extend_from_slice(&count.to_le_bytes());
    }
    out
}

/// Encoded size without materializing (for the scheme chooser).
pub fn rle_size_i64(values: &[i64]) -> usize {
    size_of_runs(values.iter().map(|&v| v as u64))
}

/// [`rle_size_i64`] for f64 runs (bit-pattern equality).
pub fn rle_size_f64(values: &[f64]) -> usize {
    size_of_runs(values.iter().map(|v| v.to_bits()))
}

fn size_of_runs(values: impl Iterator<Item = u64>) -> usize {
    let mut runs = 0usize;
    let mut last: Option<u64> = None;
    for v in values {
        if last != Some(v) {
            runs += 1;
            last = Some(v);
        }
    }
    4 + runs * 12
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnData;
    use crate::compress::tests::decode_body;
    use crate::compress::{CompressionScheme, PHYS_F64, PHYS_I64};

    /// Runs read back through the block cursor, as a block of `n` values.
    fn read(phys: u8, runs: &[u8], n: usize) -> Option<ColumnData> {
        decode_body(phys, CompressionScheme::Rle, n, runs).ok()
    }

    fn read_i64(runs: &[u8], n: usize) -> Option<Vec<i64>> {
        match read(PHYS_I64, runs, n)? {
            ColumnData::I64(v) => Some(v),
            _ => None,
        }
    }

    #[test]
    fn roundtrip_runs() {
        let values = vec![5i64, 5, 5, 7, 7, 5, 9, 9, 9, 9];
        let enc = rle_encode_i64(&values);
        assert_eq!(read_i64(&enc, values.len()).unwrap(), values);
        assert_eq!(rle_size_i64(&values), enc.len());
    }

    #[test]
    fn constant_column() {
        let values = vec![1i64; 100_000];
        let enc = rle_encode_i64(&values);
        assert_eq!(enc.len(), 16); // header + one run
        assert_eq!(read_i64(&enc, values.len()).unwrap(), values);
    }

    #[test]
    fn no_runs_worst_case() {
        let values: Vec<i64> = (0..100).collect();
        let enc = rle_encode_i64(&values);
        assert_eq!(enc.len(), 4 + 100 * 12);
        assert_eq!(read_i64(&enc, 100).unwrap(), values);
    }

    #[test]
    fn f64_including_nan() {
        let values = vec![1.5f64, 1.5, f64::NAN, f64::NAN, -0.0, 0.0];
        let enc = rle_encode_f64(&values);
        let Some(ColumnData::F64(back)) = read(PHYS_F64, &enc, values.len()) else {
            panic!("f64 runs decoded to another type");
        };
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // NaN == NaN by bits, -0.0 != 0.0 by bits: 4 runs.
        assert_eq!(enc.len(), 4 + 4 * 12);
    }

    #[test]
    fn count_mismatch_rejected() {
        let enc = rle_encode_i64(&[1, 1, 2]);
        assert!(read_i64(&enc, 4).is_none());
        assert!(read_i64(&enc, 2).is_none());
        assert!(read_i64(&enc[..enc.len() - 1], 3).is_none());
    }

    #[test]
    fn empty() {
        let enc = rle_encode_i64(&[]);
        assert_eq!(read_i64(&enc, 0).unwrap(), Vec::<i64>::new());
    }
}
