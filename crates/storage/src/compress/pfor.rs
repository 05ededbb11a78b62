//! PFOR and PFOR-DELTA — Patched Frame-Of-Reference compression.
//!
//! The scheme from "Super-Scalar RAM-CPU Cache Compression" (Zukowski et al.,
//! ICDE 2006 — reference [2] of the Vectorwise paper): subtract a per-block
//! base from every value, bit-pack the differences at a width chosen so that
//! the vast majority fit, and *patch* the rare values that don't ("exceptions")
//! from a separate list after the branch-free unpack loop. PFOR-DELTA applies
//! the same idea to consecutive differences, which crushes sorted or
//! near-sorted columns (dates, surrogate keys).
//!
//! The frame base is chosen from low-percentile candidates, not the raw
//! minimum, so a few extreme negative outliers become exceptions instead of
//! blowing up the packed width for the whole block.
//!
//! Wire layout (after the generic block header):
//! ```text
//! [base:    i64 LE]          frame of reference (or delta base, for DELTA)
//! [width:   u8]              packed bit width
//! [n_exc:   u32 LE]          exception count
//! [packed:  ceil(n*width/8)] bit-packed (value - base), 0 at exception slots
//! [exc_pos: n_exc * u32 LE]
//! [exc_val: n_exc * i64 LE]  original values
//! ```

use super::bitpack::{bits_needed, pack, packed_len};

/// Cost in bytes of one exception entry (position + value).
const EXC_COST: usize = 4 + 8;

/// Effective bit width of `v` relative to `base`; `None` when `v < base`
/// (always an exception — wrapping could alias a small delta).
#[inline]
fn delta_of(v: i64, base: i64) -> Option<u64> {
    if v < base {
        None
    } else {
        Some((v as i128 - base as i128) as u64)
    }
}

/// Best packed width and its total cost for the deltas of `values` vs `base`.
fn best_width_cost(values: &[i64], base: i64) -> (u32, usize) {
    // hist[w] = values needing exactly w bits; hist[65] = below-base values
    // that are exceptions at every width.
    let mut hist = [0usize; 66];
    for &v in values {
        match delta_of(v, base) {
            Some(d) => hist[bits_needed(d) as usize] += 1,
            None => hist[65] += 1,
        }
    }
    let mut best_w = 64;
    let mut best_cost = usize::MAX;
    let mut exceptions = hist[65];
    for w in (0..=64u32).rev() {
        let cost = packed_len(values.len(), w) + exceptions * EXC_COST;
        if cost < best_cost {
            best_cost = cost;
            best_w = w;
        }
        exceptions += hist[w as usize];
    }
    (best_w, best_cost)
}

/// Pick the frame-of-reference base: evaluate the exact cost of the global
/// minimum and of a few low percentiles (from a sample) and keep the best.
fn choose_base(values: &[i64]) -> i64 {
    if values.is_empty() {
        return 0;
    }
    let mut sample: Vec<i64> = if values.len() <= 1024 {
        values.to_vec()
    } else {
        values
            .iter()
            .step_by(values.len() / 1024)
            .copied()
            .collect()
    };
    sample.sort_unstable();
    let pct = |p: usize| sample[(sample.len() - 1) * p / 100];
    let mut candidates = [sample[0], pct(1), pct(5), pct(25), pct(50)];
    candidates.sort_unstable();
    let mut best_base = candidates[0];
    let mut best_cost = usize::MAX;
    let mut prev = None;
    for &b in &candidates {
        if prev == Some(b) {
            continue;
        }
        prev = Some(b);
        let (_, cost) = best_width_cost(values, b);
        if cost < best_cost {
            best_cost = cost;
            best_base = b;
        }
    }
    best_base
}

fn encode_frame(values: &[i64], out: &mut Vec<u8>) {
    let base = choose_base(values);
    let (width, _) = best_width_cost(values, base);
    let limit: u64 = if width == 64 {
        u64::MAX
    } else if width == 0 {
        0
    } else {
        (1u64 << width) - 1
    };
    let mut exc_pos: Vec<u32> = Vec::new();
    let mut exc_val: Vec<i64> = Vec::new();
    let packed_input: Vec<u64> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| match delta_of(v, base) {
            Some(d) if d <= limit => d,
            _ => {
                exc_pos.push(i as u32);
                exc_val.push(v);
                0
            }
        })
        .collect();
    out.extend_from_slice(&base.to_le_bytes());
    out.push(width as u8);
    out.extend_from_slice(&(exc_pos.len() as u32).to_le_bytes());
    out.extend_from_slice(&pack(&packed_input, width));
    for p in &exc_pos {
        out.extend_from_slice(&p.to_le_bytes());
    }
    for v in &exc_val {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Encode with plain PFOR.
pub fn pfor_encode(values: &[i64]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame(values, &mut out);
    out
}

/// Encode with PFOR-DELTA: PFOR over consecutive differences.
///
/// Differences use wrapping arithmetic so the transform is bijective even at
/// the i64 domain edges (the PFOR layer patches any wrapped difference as an
/// exception if it does not pack well).
pub fn pfor_delta_encode(values: &[i64]) -> Vec<u8> {
    let mut deltas = Vec::with_capacity(values.len());
    let mut prev = 0i64;
    for &v in values {
        deltas.push(v.wrapping_sub(prev));
        prev = v;
    }
    let mut out = Vec::new();
    encode_frame(&deltas, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnData;
    use crate::compress::tests::decode_body;
    use crate::compress::{CompressionScheme, PHYS_I64};
    use vw_common::rng::Xoshiro256;

    /// A frame read back through the block cursor, as an I64 block of `n`.
    fn read(scheme: CompressionScheme, frame: &[u8], n: usize) -> Option<Vec<i64>> {
        match decode_body(PHYS_I64, scheme, n, frame) {
            Ok(ColumnData::I64(v)) => Some(v),
            _ => None,
        }
    }

    fn pfor_read(frame: &[u8], n: usize) -> Option<Vec<i64>> {
        read(CompressionScheme::Pfor, frame, n)
    }

    fn delta_read(frame: &[u8], n: usize) -> Option<Vec<i64>> {
        read(CompressionScheme::PforDelta, frame, n)
    }

    #[test]
    fn roundtrip_uniform_small_range() {
        let mut r = Xoshiro256::seeded(1);
        let values: Vec<i64> = (0..5000).map(|_| r.range_i64(1000, 1255)).collect();
        let enc = pfor_encode(&values);
        // 256-value range => 8-bit packing ≈ n bytes, far below 8n.
        assert!(enc.len() < values.len() * 2, "enc {} bytes", enc.len());
        assert_eq!(pfor_read(&enc, values.len()).unwrap(), values);
    }

    #[test]
    fn exceptions_are_patched() {
        let mut r = Xoshiro256::seeded(2);
        // 99% small, 1% huge outliers (both signs) — the PFOR sweet spot.
        let values: Vec<i64> = (0..10_000)
            .map(|_| {
                if r.chance(0.01) {
                    r.range_i64(i64::MIN / 2, i64::MAX / 2)
                } else {
                    r.range_i64(0, 100)
                }
            })
            .collect();
        let enc = pfor_encode(&values);
        // ~7 bits/value + ~100 exceptions * 12B ≈ 10 KB, far below plain 80 KB.
        assert!(enc.len() < values.len() * 2, "enc {} bytes", enc.len());
        assert_eq!(pfor_read(&enc, values.len()).unwrap(), values);
    }

    #[test]
    fn negative_outliers_do_not_ruin_the_frame() {
        // All values in [0,100] except one i64::MIN: base must stay near 0
        // and the outlier becomes a below-base exception.
        let mut values: Vec<i64> = (0..1000).map(|i| i % 100).collect();
        values[500] = i64::MIN;
        let enc = pfor_encode(&values);
        assert!(enc.len() < 1200, "enc {} bytes", enc.len());
        assert_eq!(pfor_read(&enc, values.len()).unwrap(), values);
    }

    #[test]
    fn delta_crushes_sorted_data() {
        let values: Vec<i64> = (0..10_000i64).map(|i| 1_000_000 + i * 3).collect();
        let plain = pfor_encode(&values);
        let delta = pfor_delta_encode(&values);
        assert_eq!(delta_read(&delta, values.len()).unwrap(), values);
        assert!(
            delta.len() * 4 < plain.len(),
            "delta {} vs pfor {}",
            delta.len(),
            plain.len()
        );
    }

    #[test]
    fn extremes_roundtrip() {
        let values = vec![i64::MIN, i64::MAX, 0, -1, 1, i64::MIN, i64::MAX];
        assert_eq!(
            pfor_read(&pfor_encode(&values), values.len()).unwrap(),
            values
        );
        assert_eq!(
            delta_read(&pfor_delta_encode(&values), values.len()).unwrap(),
            values
        );
    }

    #[test]
    fn adversarial_alias_case() {
        // base likely i64::MAX-ish candidates vs i64::MIN values: the wrapped
        // delta would alias to 1 if below-base values were not forced to be
        // exceptions.
        let values = vec![i64::MAX, i64::MIN, i64::MAX, i64::MIN];
        assert_eq!(
            pfor_read(&pfor_encode(&values), values.len()).unwrap(),
            values
        );
    }

    #[test]
    fn constant_column_is_tiny() {
        let values = vec![42i64; 10_000];
        let enc = pfor_encode(&values);
        // width 0: header only.
        assert!(enc.len() <= 16, "enc {} bytes", enc.len());
        assert_eq!(pfor_read(&enc, values.len()).unwrap(), values);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(pfor_read(&pfor_encode(&[]), 0).unwrap(), Vec::<i64>::new());
        assert_eq!(pfor_read(&pfor_encode(&[7]), 1).unwrap(), vec![7]);
        assert_eq!(delta_read(&pfor_delta_encode(&[-7]), 1).unwrap(), vec![-7]);
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let enc = pfor_encode(&[1, 2, 3, 1000]);
        assert!(pfor_read(&enc[..enc.len() - 1], 4).is_none());
        assert!(pfor_read(&[], 4).is_none());
    }

    #[test]
    fn width_chooser_balances_exceptions() {
        // All values need 10 bits except 1% needing 60: best width must be
        // 10 (not 60), paying the exceptions.
        let mut values: Vec<i64> = vec![1023; 1000];
        for i in 0..10 {
            values[i * 100] = 1 << 59;
        }
        let (w, _) = best_width_cost(&values, 0);
        assert_eq!(w, 10, "chose {}", w);
    }

    #[test]
    fn random_roundtrip_stress() {
        let mut r = Xoshiro256::seeded(9);
        for trial in 0..20 {
            let n = (r.next_below(500) + 1) as usize;
            let values: Vec<i64> = (0..n)
                .map(|_| match r.next_below(4) {
                    0 => r.next_u64() as i64,
                    1 => r.range_i64(-100, 100),
                    2 => r.range_i64(i64::MIN, i64::MIN + 1000),
                    _ => r.range_i64(i64::MAX - 1000, i64::MAX),
                })
                .collect();
            assert_eq!(
                pfor_read(&pfor_encode(&values), n).unwrap(),
                values,
                "pfor trial {}",
                trial
            );
            assert_eq!(
                delta_read(&pfor_delta_encode(&values), n).unwrap(),
                values,
                "delta trial {}",
                trial
            );
        }
    }
}
