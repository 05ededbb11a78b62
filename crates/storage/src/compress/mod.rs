//! Per-block lightweight compression with a cost-based scheme chooser.
//!
//! §I-A of the paper: the X100 engine became so fast that storage had to keep
//! up, leading to the PFOR compression family [2]. Decompression must be
//! nearly free relative to I/O, so every codec here is a branch-light linear
//! pass. Each block independently picks the cheapest scheme for its data —
//! real Vectorwise does the same, which is why a sorted date column ends up
//! PFOR-DELTA while the `l_comment` column stays plain.

pub mod bitpack;
pub mod pdict;
pub mod pfor;
pub mod rle;

use crate::column::{ColumnData, StrColumn};
use vw_common::{Result, VwError};

/// Identifies how a block payload is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompressionScheme {
    /// Raw little-endian values.
    Plain,
    /// Run-length encoding.
    Rle,
    /// Patched frame-of-reference.
    Pfor,
    /// PFOR over consecutive deltas.
    PforDelta,
    /// Per-block string dictionary with bit-packed codes.
    Pdict,
}

impl CompressionScheme {
    fn to_u8(self) -> u8 {
        match self {
            CompressionScheme::Plain => 0,
            CompressionScheme::Rle => 1,
            CompressionScheme::Pfor => 2,
            CompressionScheme::PforDelta => 3,
            CompressionScheme::Pdict => 4,
        }
    }

    pub(crate) fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => CompressionScheme::Plain,
            1 => CompressionScheme::Rle,
            2 => CompressionScheme::Pfor,
            3 => CompressionScheme::PforDelta,
            4 => CompressionScheme::Pdict,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            CompressionScheme::Plain => "PLAIN",
            CompressionScheme::Rle => "RLE",
            CompressionScheme::Pfor => "PFOR",
            CompressionScheme::PforDelta => "PFOR-DELTA",
            CompressionScheme::Pdict => "PDICT",
        }
    }
}

// Physical type tags in the block header (shared with the lazy cursor).
pub(crate) const PHYS_BOOL: u8 = 0;
pub(crate) const PHYS_I32: u8 = 1;
pub(crate) const PHYS_I64: u8 = 2;
pub(crate) const PHYS_F64: u8 = 3;
pub(crate) const PHYS_STR: u8 = 4;

fn header(phys: u8, scheme: CompressionScheme, n: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(6);
    out.push(phys);
    out.push(scheme.to_u8());
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out
}

fn plain_encode_i64_like(values: &[i64], width: usize, out: &mut Vec<u8>) {
    for &v in values {
        out.extend_from_slice(&v.to_le_bytes()[..width]);
    }
}

/// Compress a column chunk, choosing the cheapest scheme by trial.
/// Returns the chosen scheme and the full self-describing payload.
pub fn compress_data(col: &ColumnData) -> (CompressionScheme, Vec<u8>) {
    match col {
        ColumnData::Bool(v) => {
            // Bit-packed bitmap; no scheme competition worth having.
            let bits: vw_common::BitVec = v.iter().copied().collect();
            let mut out = header(PHYS_BOOL, CompressionScheme::Plain, v.len());
            out.extend_from_slice(&bits.to_bytes());
            (CompressionScheme::Plain, out)
        }
        ColumnData::I32(v) => {
            let wide: Vec<i64> = v.iter().map(|&x| x as i64).collect();
            compress_ints(PHYS_I32, &wide, 4)
        }
        ColumnData::I64(v) => compress_ints(PHYS_I64, v, 8),
        ColumnData::F64(v) => {
            let rle = rle::rle_encode_f64(v);
            if rle.len() < v.len() * 8 {
                let mut out = header(PHYS_F64, CompressionScheme::Rle, v.len());
                out.extend_from_slice(&rle);
                (CompressionScheme::Rle, out)
            } else {
                let mut out = header(PHYS_F64, CompressionScheme::Plain, v.len());
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
                (CompressionScheme::Plain, out)
            }
        }
        ColumnData::Str(s) => match pdict::pdict_encode(s) {
            Some(enc) => {
                let mut out = header(PHYS_STR, CompressionScheme::Pdict, s.len());
                out.extend_from_slice(&enc);
                (CompressionScheme::Pdict, out)
            }
            None => {
                let mut out = header(PHYS_STR, CompressionScheme::Plain, s.len());
                out.extend_from_slice(&(s.bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(&s.bytes);
                for o in &s.offsets {
                    out.extend_from_slice(&o.to_le_bytes());
                }
                (CompressionScheme::Plain, out)
            }
        },
        // Stored blocks carry their own dictionary, built from the strings.
        ColumnData::Dict(d) => compress_data(&ColumnData::Str(d.materialize())),
    }
}

/// Force a specific scheme (benchmark ablations). Falls back to `Plain` if
/// the scheme does not apply to the column's physical type.
pub fn compress_with(col: &ColumnData, scheme: CompressionScheme) -> Vec<u8> {
    match (col, scheme) {
        (ColumnData::I32(v), s) => {
            let wide: Vec<i64> = v.iter().map(|&x| x as i64).collect();
            encode_ints_as(PHYS_I32, &wide, 4, s)
        }
        (ColumnData::I64(v), s) => encode_ints_as(PHYS_I64, v, 8, s),
        _ => compress_data(col).1,
    }
}

fn encode_ints_as(phys: u8, values: &[i64], width: usize, scheme: CompressionScheme) -> Vec<u8> {
    let scheme = match scheme {
        CompressionScheme::Pdict => CompressionScheme::Plain,
        s => s,
    };
    let mut out = header(phys, scheme, values.len());
    match scheme {
        CompressionScheme::Plain => plain_encode_i64_like(values, width, &mut out),
        CompressionScheme::Rle => out.extend_from_slice(&rle::rle_encode_i64(values)),
        CompressionScheme::Pfor => out.extend_from_slice(&pfor::pfor_encode(values)),
        CompressionScheme::PforDelta => out.extend_from_slice(&pfor::pfor_delta_encode(values)),
        CompressionScheme::Pdict => unreachable!(),
    }
    out
}

fn compress_ints(phys: u8, values: &[i64], plain_width: usize) -> (CompressionScheme, Vec<u8>) {
    let plain_size = values.len() * plain_width;
    let pfor = pfor::pfor_encode(values);
    let pfor_delta = pfor::pfor_delta_encode(values);
    let rle_size = rle::rle_size_i64(values);

    let mut best = (CompressionScheme::Plain, plain_size);
    if pfor.len() < best.1 {
        best = (CompressionScheme::Pfor, pfor.len());
    }
    if pfor_delta.len() < best.1 {
        best = (CompressionScheme::PforDelta, pfor_delta.len());
    }
    if rle_size < best.1 {
        best = (CompressionScheme::Rle, rle_size);
    }

    let mut out = header(phys, best.0, values.len());
    match best.0 {
        CompressionScheme::Plain => plain_encode_i64_like(values, plain_width, &mut out),
        CompressionScheme::Pfor => out.extend_from_slice(&pfor),
        CompressionScheme::PforDelta => out.extend_from_slice(&pfor_delta),
        CompressionScheme::Rle => out.extend_from_slice(&rle::rle_encode_i64(values)),
        CompressionScheme::Pdict => unreachable!(),
    }
    (best.0, out)
}

fn err(msg: &str) -> VwError {
    VwError::Storage(format!("corrupt block: {}", msg))
}

/// Decompress a payload produced by [`compress_data`] / [`compress_with`].
pub fn decompress_data(bytes: &[u8]) -> Result<ColumnData> {
    if bytes.len() < 6 {
        return Err(err("short header"));
    }
    let phys = bytes[0];
    let scheme = CompressionScheme::from_u8(bytes[1]).ok_or_else(|| err("bad scheme"))?;
    let n = u32::from_le_bytes(bytes[2..6].try_into().unwrap()) as usize;
    let body = &bytes[6..];
    match phys {
        PHYS_BOOL => {
            let (bits, _) = vw_common::BitVec::from_bytes(body).ok_or_else(|| err("bitmap"))?;
            if bits.len() != n {
                return Err(err("bitmap length"));
            }
            Ok(ColumnData::Bool(bits.iter().collect()))
        }
        PHYS_I32 | PHYS_I64 => {
            let width = if phys == PHYS_I32 { 4 } else { 8 };
            let wide: Vec<i64> = match scheme {
                CompressionScheme::Plain => {
                    if body.len() < n * width {
                        return Err(err("plain ints"));
                    }
                    (0..n)
                        .map(|i| {
                            let mut buf = [0u8; 8];
                            buf[..width].copy_from_slice(&body[i * width..(i + 1) * width]);
                            let mut v = i64::from_le_bytes(buf);
                            // sign-extend 4-byte values
                            if width == 4 {
                                v = (v as i32) as i64;
                            }
                            v
                        })
                        .collect()
                }
                CompressionScheme::Rle => {
                    rle::rle_decode_i64(body, n).ok_or_else(|| err("rle ints"))?
                }
                CompressionScheme::Pfor => pfor::pfor_decode(body, n).ok_or_else(|| err("pfor"))?,
                CompressionScheme::PforDelta => {
                    pfor::pfor_delta_decode(body, n).ok_or_else(|| err("pfor-delta"))?
                }
                CompressionScheme::Pdict => return Err(err("pdict on ints")),
            };
            if phys == PHYS_I32 {
                let narrow: Option<Vec<i32>> =
                    wide.iter().map(|&v| i32::try_from(v).ok()).collect();
                Ok(ColumnData::I32(narrow.ok_or_else(|| err("i32 overflow"))?))
            } else {
                Ok(ColumnData::I64(wide))
            }
        }
        PHYS_F64 => {
            let vals = match scheme {
                CompressionScheme::Plain => {
                    if body.len() < n * 8 {
                        return Err(err("plain f64"));
                    }
                    (0..n)
                        .map(|i| f64::from_le_bytes(body[i * 8..i * 8 + 8].try_into().unwrap()))
                        .collect()
                }
                CompressionScheme::Rle => {
                    rle::rle_decode_f64(body, n).ok_or_else(|| err("rle f64"))?
                }
                _ => return Err(err("bad f64 scheme")),
            };
            Ok(ColumnData::F64(vals))
        }
        PHYS_STR => match scheme {
            CompressionScheme::Pdict => Ok(ColumnData::Str(
                pdict::pdict_decode(body, n).ok_or_else(|| err("pdict"))?,
            )),
            CompressionScheme::Plain => {
                if body.len() < 4 {
                    return Err(err("plain str header"));
                }
                let nbytes = u32::from_le_bytes(body[0..4].try_into().unwrap()) as usize;
                let need = 4 + nbytes + (n + 1) * 4;
                if body.len() < need {
                    return Err(err("plain str body"));
                }
                let bytes_part = body[4..4 + nbytes].to_vec();
                let mut offsets = Vec::with_capacity(n + 1);
                let obase = 4 + nbytes;
                for i in 0..=n {
                    offsets.push(u32::from_le_bytes(
                        body[obase + i * 4..obase + i * 4 + 4].try_into().unwrap(),
                    ));
                }
                // Validate offsets are monotone and in range.
                let mut prev = 0u32;
                for &o in &offsets {
                    if o < prev || o as usize > bytes_part.len() {
                        return Err(err("str offsets"));
                    }
                    prev = o;
                }
                let col = StrColumn {
                    offsets,
                    bytes: bytes_part,
                };
                std::str::from_utf8(&col.bytes).map_err(|_| err("utf8"))?;
                Ok(ColumnData::Str(col))
            }
            _ => Err(err("bad str scheme")),
        },
        _ => Err(err("bad physical type")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_common::rng::Xoshiro256;

    fn roundtrip(col: &ColumnData) -> CompressionScheme {
        let (scheme, bytes) = compress_data(col);
        let back = decompress_data(&bytes).unwrap();
        assert_eq!(&back, col);
        scheme
    }

    #[test]
    fn ints_choose_sensible_schemes() {
        // sorted keys → PFOR-DELTA
        let keys = ColumnData::I64((0..10_000).collect());
        assert_eq!(roundtrip(&keys), CompressionScheme::PforDelta);
        // small range uniform → PFOR
        let mut r = Xoshiro256::seeded(3);
        let qty = ColumnData::I64((0..10_000).map(|_| r.range_i64(1, 50)).collect());
        assert_eq!(roundtrip(&qty), CompressionScheme::Pfor);
        // constant → RLE or width-0 PFOR, either way tiny and exact
        let c = ColumnData::I64(vec![9; 10_000]);
        let (_, bytes) = compress_data(&c);
        assert!(bytes.len() < 64);
        assert_eq!(decompress_data(&bytes).unwrap(), c);
        // adversarial full-range randoms → no scheme loses to plain badly
        let rnd = ColumnData::I64((0..1000).map(|_| r.next_u64() as i64).collect());
        let (_, bytes) = compress_data(&rnd);
        assert!(bytes.len() <= 1000 * 8 + 64);
        assert_eq!(decompress_data(&bytes).unwrap(), rnd);
    }

    #[test]
    fn i32_roundtrip_with_sign() {
        let col = ColumnData::I32(vec![-5, 0, 7, i32::MIN, i32::MAX]);
        roundtrip(&col);
        // plain-forced path as well
        let bytes = compress_with(&col, CompressionScheme::Plain);
        assert_eq!(decompress_data(&bytes).unwrap(), col);
    }

    #[test]
    fn dates_compress_with_delta() {
        // near-sorted dates (TPC-H shipdate pattern)
        let mut r = Xoshiro256::seeded(4);
        let col = ColumnData::I32(
            (0..50_000)
                .map(|i| 8000 + (i / 20) + r.range_i64(0, 3) as i32)
                .collect(),
        );
        let (scheme, bytes) = compress_data(&col);
        assert!(matches!(
            scheme,
            CompressionScheme::Pfor | CompressionScheme::PforDelta
        ));
        assert!(
            bytes.len() * 4 < 50_000 * 4,
            "ratio too low: {}",
            bytes.len()
        );
        assert_eq!(decompress_data(&bytes).unwrap(), col);
    }

    #[test]
    fn strings_low_and_high_cardinality() {
        let flags = ColumnData::Str(crate::column::StrColumn::from_iter((0..5000).map(|i| {
            if i % 2 == 0 {
                "A"
            } else {
                "R"
            }
        })));
        assert_eq!(roundtrip(&flags), CompressionScheme::Pdict);
        let uniq: Vec<String> = (0..500)
            .map(|i| format!("comment text {}", i * 37))
            .collect();
        let comments = ColumnData::Str(crate::column::StrColumn::from_iter(
            uniq.iter().map(|s| s.as_str()),
        ));
        assert_eq!(roundtrip(&comments), CompressionScheme::Plain);
    }

    #[test]
    fn bools_and_floats() {
        let b = ColumnData::Bool((0..777).map(|i| i % 3 == 0).collect());
        roundtrip(&b);
        let f = ColumnData::F64((0..500).map(|i| i as f64 * 0.25).collect());
        assert_eq!(roundtrip(&f), CompressionScheme::Plain);
        let fc = ColumnData::F64(vec![1.5; 10_000]);
        assert_eq!(roundtrip(&fc), CompressionScheme::Rle);
    }

    #[test]
    fn forced_schemes_roundtrip() {
        let col = ColumnData::I64(vec![100, 101, 102, 103, 5000, 104]);
        for s in [
            CompressionScheme::Plain,
            CompressionScheme::Rle,
            CompressionScheme::Pfor,
            CompressionScheme::PforDelta,
        ] {
            let bytes = compress_with(&col, s);
            assert_eq!(decompress_data(&bytes).unwrap(), col, "scheme {:?}", s);
        }
    }

    #[test]
    fn corrupt_inputs_error_not_panic() {
        let (_, bytes) = compress_data(&ColumnData::I64(vec![1, 2, 3]));
        assert!(decompress_data(&bytes[..3]).is_err());
        assert!(decompress_data(&[]).is_err());
        let mut bad = bytes.clone();
        bad[1] = 99; // invalid scheme
        assert!(decompress_data(&bad).is_err());
        let mut bad2 = bytes.clone();
        bad2[0] = 42; // invalid phys type
        assert!(decompress_data(&bad2).is_err());
    }

    #[test]
    fn empty_columns() {
        roundtrip(&ColumnData::I64(vec![]));
        roundtrip(&ColumnData::Str(crate::column::StrColumn::new()));
        roundtrip(&ColumnData::Bool(vec![]));
        roundtrip(&ColumnData::F64(vec![]));
    }
}
