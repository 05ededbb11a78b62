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

/// Unpack `n` values of `width` bits from `bytes`.
///
/// Streams through the input with one 64-bit load per 8 bytes, keeping a
/// 128-bit residue buffer — ~10x faster than per-value byte gathering, which
/// matters because decompression sits on every scan's critical path (§I-A:
/// decompression must be nearly free relative to I/O).
pub fn unpack(bytes: &[u8], n: usize, width: u32) -> Vec<u64> {
    assert!(width <= 64);
    if width == 0 {
        return vec![0; n];
    }
    assert!(bytes.len() >= packed_len(n, width), "truncated packed data");
    let mask: u128 = if width == 64 {
        u64::MAX as u128
    } else {
        (1u128 << width) - 1
    };
    let mut out = Vec::with_capacity(n);
    let mut buf: u128 = 0;
    let mut bits: u32 = 0;
    let mut pos = 0usize;
    for _ in 0..n {
        while bits < width {
            if pos + 8 <= bytes.len() {
                let w = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
                buf |= (w as u128) << bits;
                bits += 64;
                pos += 8;
            } else if pos < bytes.len() {
                buf |= (bytes[pos] as u128) << bits;
                bits += 8;
                pos += 1;
            } else {
                // trailing padding bits are zero by construction
                bits = width;
            }
        }
        out.push((buf & mask) as u64);
        buf >>= width;
        bits -= width;
    }
    out
}

/// Visit values `from..to` of `width` bits from `bytes`, in order, as
/// `f(i, value)` with `i` counting from 0, without touching the preceding
/// packed data: the lazy-scan cursors decode and compare one ~1K-value
/// vector slice out of a 64K-value block through this.
///
/// Widths up to 56 take one unaligned 64-bit load, a shift and a mask per
/// value (a value starts at most 7 bits into its first byte, so it never
/// leaves the loaded word); the last few values, whose 8-byte window would
/// run past `bytes`, load through a zero-padded copy. Wider values keep the
/// 128-bit residue buffer of [`unpack`].
#[inline(always)]
pub fn unpack_range(
    bytes: &[u8],
    from: usize,
    to: usize,
    width: u32,
    mut f: impl FnMut(usize, u64),
) {
    assert!(width <= 64);
    assert!(from <= to);
    if width == 0 {
        for i in 0..to - from {
            f(i, 0);
        }
        return;
    }
    assert!(
        bytes.len() >= packed_len(to, width),
        "truncated packed data"
    );
    let w = width as usize;
    if width <= 56 {
        let mask = (1u64 << width) - 1;
        // Value `v` starts in byte `v * w / 8`; its window fits while that
        // byte is at most `len - 8`, i.e. for `v < ceil((len - 7) * 8 / w)`.
        let fit = if bytes.len() >= 8 {
            ((bytes.len() - 7) * 8).div_ceil(w)
        } else {
            0
        };
        let fast_to = to.min(fit).max(from);
        let mut bit = from * w;
        for i in 0..fast_to - from {
            let byte = bit >> 3;
            let word = u64::from_le_bytes(bytes[byte..byte + 8].try_into().unwrap());
            f(i, (word >> (bit & 7)) & mask);
            bit += w;
        }
        for i in fast_to - from..to - from {
            let rest = &bytes[bit >> 3..];
            let mut buf = [0u8; 8];
            let take = rest.len().min(8);
            buf[..take].copy_from_slice(&rest[..take]);
            f(i, (u64::from_le_bytes(buf) >> (bit & 7)) & mask);
            bit += w;
        }
        return;
    }
    let start_bit = from * w;
    let mut pos = start_bit / 8;
    let skip = (start_bit % 8) as u32;
    let mask: u128 = if width == 64 {
        u64::MAX as u128
    } else {
        (1u128 << width) - 1
    };
    // Prime the residue with the partial leading byte, pre-shifted so the
    // first value's low bit sits at bit 0.
    let mut buf: u128 = 0;
    let mut bits: u32 = 0;
    if skip > 0 {
        buf = (bytes[pos] >> skip) as u128;
        bits = 8 - skip;
        pos += 1;
    }
    for i in 0..to - from {
        while bits < width {
            if pos + 8 <= bytes.len() {
                let w = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
                buf |= (w as u128) << bits;
                bits += 64;
                pos += 8;
            } else if pos < bytes.len() {
                buf |= (bytes[pos] as u128) << bits;
                bits += 8;
                pos += 1;
            } else {
                bits = width;
            }
        }
        f(i, (buf & mask) as u64);
        buf >>= width;
        bits -= width;
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
