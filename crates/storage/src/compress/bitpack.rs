//! Fixed-width bit packing: the physical layer under PFOR and PDICT.
//!
//! Values are packed LSB-first into a little-endian byte stream. Width 0 is
//! legal (all values are zero — common after frame-of-reference) and encodes
//! to zero bytes.

/// Number of bytes `n` values of `width` bits occupy.
pub fn packed_len(n: usize, width: u32) -> usize {
    (n * width as usize).div_ceil(8)
}

/// Minimum width able to represent `v`.
#[inline]
pub fn bits_needed(v: u64) -> u32 {
    64 - v.leading_zeros()
}

/// Pack `values` (each must fit in `width` bits) into bytes.
pub fn pack(values: &[u64], width: u32) -> Vec<u8> {
    assert!(width <= 64);
    let mut out = vec![0u8; packed_len(values.len(), width)];
    if width == 0 {
        return out;
    }
    let mut bitpos = 0usize;
    for &v in values {
        debug_assert!(width == 64 || v < (1u64 << width), "value exceeds width");
        let byte = bitpos / 8;
        let shift = (bitpos % 8) as u32;
        // Write up to 64+7 bits as a u128 across at most 9 bytes.
        let chunk = (v as u128) << shift;
        let nbytes = (shift + width).div_ceil(8) as usize;
        for i in 0..nbytes {
            out[byte + i] |= (chunk >> (8 * i)) as u8;
        }
        bitpos += width as usize;
    }
    out
}

/// Values `from..from + out.len()` of `width` bits from `bytes`, into `out`,
/// without touching the preceding packed data: every PFOR and PDICT decode
/// and every predicate on packed values runs through here, a ~1K-value
/// vector slice out of a 64K-value block at a time, so it must be nearly
/// free relative to I/O (§I-A).
///
/// Each width up to 56 has a kernel of its own ([`unpack_width`]); one
/// `match` per call picks it. Wider values, which only pathological frames
/// have, are read one at a time.
pub fn unpack_into(bytes: &[u8], from: usize, width: u32, out: &mut [u64]) {
    assert!(width <= 64);
    if width == 0 {
        out.fill(0);
        return;
    }
    assert!(
        bytes.len() >= packed_len(from + out.len(), width),
        "truncated packed data"
    );
    macro_rules! dispatch {
        ($($w:literal)*) => {
            match width {
                $($w => unpack_width::<$w>(bytes, from, out),)*
                _ => unpack_each(bytes, from, width, out),
            }
        };
    }
    dispatch!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28
        29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56);
}

/// [`unpack_into`] for one width `W` ≤ 56. Eight values of `W` bits fill
/// exactly `W` bytes, so a group of eight starts on a byte boundary and
/// value `j` of it lies at the constant byte `j·W/8` and bit `j·W%8`: one
/// unaligned 64-bit load, a constant shift and a mask each (a value starts
/// at most 7 bits into its first byte, so it never leaves the loaded word).
/// The values before the first group boundary, and the groups whose last
/// load would run past `bytes`, are read one at a time.
fn unpack_width<const W: usize>(bytes: &[u8], from: usize, out: &mut [u64]) {
    let head = ((8 - from % 8) % 8).min(out.len());
    let first = (from + head) / 8 * W;
    // Group `g` reads bytes up to `first + (g + 1)·W + 8`.
    let fit = bytes.len().saturating_sub(first + 8) / W;
    let groups = ((out.len() - head) / 8).min(fit);
    let (head_out, rest) = out.split_at_mut(head);
    let (body, tail) = rest.split_at_mut(groups * 8);
    unpack_each(bytes, from, W as u32, head_out);
    for (g, group) in body.chunks_exact_mut(8).enumerate() {
        let at = first + g * W;
        let window = &bytes[at..at + W + 8];
        let mask = (1u64 << W) - 1;
        for (j, o) in group.iter_mut().enumerate() {
            let bit = j * W;
            let word = u64::from_le_bytes(window[bit / 8..bit / 8 + 8].try_into().unwrap());
            *o = (word >> (bit % 8)) & mask;
        }
    }
    unpack_each(bytes, from + head + groups * 8, W as u32, tail);
}

/// [`unpack_into`] one value at a time. Kept out of line: the kernels call
/// it for at most a few values, and inlined it would be specialised, and
/// unrolled, once per width.
#[inline(never)]
fn unpack_each(bytes: &[u8], from: usize, width: u32, out: &mut [u64]) {
    for (i, o) in out.iter_mut().enumerate() {
        *o = unpack_at(bytes, from + i, width);
    }
}

/// Visit values `from..to` of `width` bits from `bytes`, in order, as
/// `f(i, value)` with `i` counting from 0: [`unpack_into`] a stack buffer
/// at a time, so the kernels are instantiated once per width and never per
/// caller.
#[inline(always)]
pub fn unpack_range(
    bytes: &[u8],
    from: usize,
    to: usize,
    width: u32,
    mut f: impl FnMut(usize, u64),
) {
    assert!(from <= to);
    let mut buf = [0u64; 256];
    let mut at = from;
    while at < to {
        // Chunks end on group boundaries, so only the first has a head.
        let k = (to - at).min(buf.len() - at % 8);
        unpack_into(bytes, at, width, &mut buf[..k]);
        for (j, &v) in buf[..k].iter().enumerate() {
            f(at - from + j, v);
        }
        at += k;
    }
}

/// Value `idx` of `width` bits from `bytes`: random access for the scans'
/// selection-aware decode, which visits only the surviving positions.
#[inline]
pub fn unpack_at(bytes: &[u8], idx: usize, width: u32) -> u64 {
    assert!(width <= 64);
    if width == 0 {
        return 0;
    }
    assert!(
        bytes.len() >= packed_len(idx + 1, width),
        "truncated packed data"
    );
    let bit = idx * width as usize;
    let rest = &bytes[bit >> 3..];
    if width <= 56 {
        if let Some(window) = rest.first_chunk::<8>() {
            return (u64::from_le_bytes(*window) >> (bit & 7)) & ((1u64 << width) - 1);
        }
    }
    // A value spans at most 7 + 64 bits: nine bytes, zero-padded at the end.
    let mut buf = [0u8; 16];
    let take = rest.len().min(9);
    buf[..take].copy_from_slice(&rest[..take]);
    let mask: u128 = if width == 64 {
        u64::MAX as u128
    } else {
        (1u128 << width) - 1
    };
    ((u128::from_le_bytes(buf) >> (bit & 7)) & mask) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unpack `n` values of `width` bits from `bytes`.
    fn unpack(bytes: &[u8], n: usize, width: u32) -> Vec<u64> {
        let mut out = vec![0; n];
        unpack_into(bytes, 0, width, &mut out);
        out
    }

    fn collect_range(bytes: &[u8], from: usize, to: usize, width: u32) -> Vec<u64> {
        let mut out = vec![0u64; to - from];
        unpack_range(bytes, from, to, width, |i, v| out[i] = v);
        out
    }

    #[test]
    fn roundtrip_all_widths() {
        for width in 0..=64u32 {
            let max = if width == 64 {
                u64::MAX
            } else if width == 0 {
                0
            } else {
                (1u64 << width) - 1
            };
            let values: Vec<u64> = (0..100u64)
                .map(|i| (i.wrapping_mul(0x9e3779b97f4a7c15)) & max)
                .collect();
            let packed = pack(&values, width);
            assert_eq!(packed.len(), packed_len(values.len(), width));
            let back = unpack(&packed, values.len(), width);
            assert_eq!(back, values, "width {}", width);
        }
    }

    #[test]
    fn width_zero_is_free() {
        let packed = pack(&[0, 0, 0], 0);
        assert!(packed.is_empty());
        assert_eq!(unpack(&[], 3, 0), vec![0, 0, 0]);
    }

    #[test]
    fn odd_counts_and_boundaries() {
        // 3-bit values crossing byte boundaries.
        let values: Vec<u64> = vec![7, 0, 5, 2, 1, 6, 3, 4, 7, 7, 0];
        let packed = pack(&values, 3);
        assert_eq!(packed.len(), (11usize * 3).div_ceil(8));
        assert_eq!(unpack(&packed, 11, 3), values);
    }

    #[test]
    fn bits_needed_cases() {
        assert_eq!(bits_needed(0), 0);
        assert_eq!(bits_needed(1), 1);
        assert_eq!(bits_needed(255), 8);
        assert_eq!(bits_needed(256), 9);
        assert_eq!(bits_needed(u64::MAX), 64);
    }

    #[test]
    fn empty_input() {
        assert!(pack(&[], 13).is_empty());
        assert!(unpack(&[], 0, 13).is_empty());
    }

    #[test]
    fn unpack_range_matches_unpack_at_all_widths() {
        for width in 0..=64u32 {
            let max = if width == 64 {
                u64::MAX
            } else if width == 0 {
                0
            } else {
                (1u64 << width) - 1
            };
            let values: Vec<u64> = (0..137u64)
                .map(|i| (i.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(11)) & max)
                .collect();
            let packed = pack(&values, width);
            // Odd offsets exercise every partial-leading-byte skip.
            for (from, to) in [(0, 137), (1, 137), (7, 100), (63, 64), (99, 99), (136, 137)] {
                assert_eq!(
                    collect_range(&packed, from, to, width),
                    &values[from..to],
                    "width {} range {}..{}",
                    width,
                    from,
                    to
                );
            }
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(unpack_at(&packed, i, width), v, "width {} at {}", width, i);
            }
        }
    }

    /// Value `idx` of `width` bits, gathered one bit at a time.
    fn bit_by_bit(bytes: &[u8], idx: usize, width: u32) -> u64 {
        (0..width as usize).fold(0, |v, k| {
            let bit = idx * width as usize + k;
            v | (((bytes[bit / 8] >> (bit % 8)) & 1) as u64) << k
        })
    }

    /// Every width, counts around the eight-value group, random ranges and
    /// ranges ending within the last bytes of the buffer — exactly the
    /// packed bytes, or followed by unrelated ones (as a frame's exception
    /// list follows its packed values): each kernel equals the bit-by-bit
    /// reference.
    #[test]
    fn kernels_match_bit_by_bit_reference() {
        let mut r = vw_common::rng::Xoshiro256::seeded(13);
        for width in 0..=64u32 {
            let mask = u64::MAX.checked_shr(64 - width).unwrap_or(0);
            for n in [0usize, 1, 7, 8, 9, 63, 65, 300, 1031] {
                let values: Vec<u64> = (0..n).map(|_| r.next_u64() & mask).collect();
                let packed = pack(&values, width);
                let mut ranges = vec![(0, n)];
                for _ in 0..12 {
                    let a = r.next_below(n as u64 + 1) as usize;
                    ranges.push((a, r.range_i64(a as i64, n as i64) as usize));
                }
                for back in 0..10 {
                    ranges.push((n.saturating_sub(back), n));
                    ranges.push((n.saturating_sub(back + 9), n.saturating_sub(back)));
                }
                for trailing in [0usize, 1, 7, 8] {
                    let mut bytes = packed.clone();
                    bytes.extend((0..trailing).map(|_| r.next_u64() as u8));
                    for &(a, b) in &ranges {
                        let want: Vec<u64> = (a..b).map(|i| bit_by_bit(&bytes, i, width)).collect();
                        assert_eq!(want, &values[a..b], "reference, width {}", width);
                        let mut got = vec![u64::MAX; b - a];
                        unpack_into(&bytes, a, width, &mut got);
                        assert_eq!(got, want, "width {} range {}..{} of {}", width, a, b, n);
                    }
                }
            }
        }
    }

    #[test]
    fn unpack_range_every_offset_width_3() {
        let values: Vec<u64> = (0..50).map(|i| i % 8).collect();
        let packed = pack(&values, 3);
        for from in 0..values.len() {
            for to in from..=values.len() {
                assert_eq!(
                    collect_range(&packed, from, to, 3),
                    &values[from..to],
                    "{}..{}",
                    from,
                    to
                );
            }
        }
    }
}
