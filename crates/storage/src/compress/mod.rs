//! Per-block lightweight compression with a cost-based scheme chooser.
//!
//! §I-A of the paper: the X100 engine became so fast that storage had to keep
//! up, leading to the PFOR compression family [2]. Decompression must be
//! nearly free relative to I/O, so every codec here is a branch-light linear
//! pass. Each block independently picks the cheapest scheme for its data —
//! real Vectorwise does the same, which is why a sorted date column ends up
//! PFOR-DELTA while the `l_comment` column stays plain.
//!
//! This module holds the encoders, the scheme chooser and the wire layouts;
//! decoding, [`decompress_data`] included, is the block cursor's alone.
//!
//! A DOUBLE block whose values are all exact short decimals (`DECIMAL` maps
//! onto DOUBLE, so money and quantities are) is stored as the integers
//! `d = v·10^e` in a PFOR or PFOR-DELTA frame behind one scale byte, and
//! decodes to the very same bits as `d / 10^e`.

pub mod bitpack;
pub mod pdict;
pub mod pfor;
pub mod rle;

use crate::column::ColumnData;
use crate::cursor::BlockCursor;
use vw_common::Result;

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

/// The largest decimal scale a DOUBLE block is tried at as scaled integers:
/// money, rates and quantities need two, and millionths cover the rest.
pub const MAX_SCALE: u8 = 6;

/// `10^e` for every scale `e`, each exact as a double.
const POW10: [f64; MAX_SCALE as usize + 1] = [1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6];

/// `10^scale`, or `None` for a scale no encoder writes.
pub(crate) fn pow10(scale: u8) -> Option<f64> {
    POW10.get(scale as usize).copied()
}

/// The double a scaled integer stands for at scale `e`, given `10^e`.
#[inline(always)]
pub(crate) fn decimal_value(d: i64, pow10: f64) -> f64 {
    d as f64 / pow10
}

/// The smallest scale `e` at which every value is `d / 10^e` for an integer
/// `|d| ≤ 2^53` — bit for bit, through the same division the decoder does —
/// and those integers. Comparing bits instead of values rejects `-0.0`,
/// NaN, the infinities, subnormals and products a ULP off a decimal without
/// a case of their own.
fn decimal_scale(values: &[f64]) -> Option<(u8, Vec<i64>)> {
    let mut ints = Vec::with_capacity(values.len());
    'scale: for (e, &p) in POW10.iter().enumerate() {
        ints.clear();
        for &v in values {
            // Saturating: NaN becomes 0 and fails the bit check, the
            // infinities fail the bound.
            let d = (v * p).round() as i64;
            if d.unsigned_abs() > 1 << 53 || decimal_value(d, p).to_bits() != v.to_bits() {
                continue 'scale;
            }
            ints.push(d);
        }
        return Some((e as u8, ints));
    }
    None
}

/// A DOUBLE block as scaled integers: the scale byte and a PFOR or
/// PFOR-DELTA frame (`scheme`, or the smaller one), without the block
/// header. `None` when some value is no exact short decimal.
fn decimal_frame(
    values: &[f64],
    scheme: Option<CompressionScheme>,
) -> Option<(CompressionScheme, Vec<u8>)> {
    let (scale, ints) = decimal_scale(values)?;
    let (scheme, frame) = match scheme {
        Some(CompressionScheme::Pfor) => (CompressionScheme::Pfor, pfor::pfor_encode(&ints)),
        Some(_) => (CompressionScheme::PforDelta, pfor::pfor_delta_encode(&ints)),
        None => match choose_ints(&ints, 8) {
            (s @ (CompressionScheme::Pfor | CompressionScheme::PforDelta), frame) => (s, frame),
            // The same runs or bytes as the doubles themselves: no gain.
            _ => return None,
        },
    };
    let mut body = Vec::with_capacity(1 + frame.len());
    body.push(scale);
    body.extend_from_slice(&frame);
    Some((scheme, body))
}

/// The decimal scale of a payload from [`compress_data`] that holds a DOUBLE
/// block as scaled integers; `None` for every other payload.
pub fn decimal_scale_of(payload: &[u8]) -> Option<u8> {
    let scheme = CompressionScheme::from_u8(*payload.get(1)?)?;
    match (payload[0], scheme) {
        (PHYS_F64, CompressionScheme::Pfor | CompressionScheme::PforDelta) => {
            payload.get(6).copied()
        }
        _ => None,
    }
}

/// A DOUBLE block as raw values or as runs, without the block header.
fn f64_body(values: &[f64], scheme: CompressionScheme) -> Vec<u8> {
    match scheme {
        CompressionScheme::Rle => rle::rle_encode_f64(values),
        _ => {
            let mut out = Vec::with_capacity(values.len() * 8);
            for x in values {
                out.extend_from_slice(&x.to_le_bytes());
            }
            out
        }
    }
}

/// A payload: the block header, then `body`.
fn with_header(phys: u8, scheme: CompressionScheme, n: usize, body: &[u8]) -> Vec<u8> {
    let mut out = header(phys, scheme, n);
    out.extend_from_slice(body);
    out
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
            let (plain, runs) = (v.len() * 8, rle::rle_size_f64(v));
            let (scheme, body) = match decimal_frame(v, None) {
                Some((s, frame)) if frame.len() < plain.min(runs) => (s, frame),
                _ => {
                    let s = match runs < plain {
                        true => CompressionScheme::Rle,
                        false => CompressionScheme::Plain,
                    };
                    (s, f64_body(v, s))
                }
            };
            (scheme, with_header(PHYS_F64, scheme, v.len(), &body))
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

/// Force a specific scheme (benchmark ablations). Falls back to the
/// encoder's choice if the scheme does not apply to the column: PFOR and
/// PFOR-DELTA take a DOUBLE block only when its values are exact decimals.
pub fn compress_with(col: &ColumnData, scheme: CompressionScheme) -> Vec<u8> {
    use CompressionScheme as S;
    match (col, scheme) {
        (ColumnData::I32(v), s) => {
            let wide: Vec<i64> = v.iter().map(|&x| x as i64).collect();
            encode_ints_as(PHYS_I32, &wide, 4, s)
        }
        (ColumnData::I64(v), s) => encode_ints_as(PHYS_I64, v, 8, s),
        (ColumnData::F64(v), s @ (S::Plain | S::Rle)) => {
            with_header(PHYS_F64, s, v.len(), &f64_body(v, s))
        }
        (ColumnData::F64(v), s @ (S::Pfor | S::PforDelta)) => match decimal_frame(v, Some(s)) {
            Some((s, body)) => with_header(PHYS_F64, s, v.len(), &body),
            None => compress_data(col).1,
        },
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
    let (scheme, body) = choose_ints(values, plain_width);
    (scheme, with_header(phys, scheme, values.len(), &body))
}

/// The smallest encoding of `values` (stored `plain_width` bytes each when
/// PLAIN), without the block header.
fn choose_ints(values: &[i64], plain_width: usize) -> (CompressionScheme, Vec<u8>) {
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

    let body = match best.0 {
        CompressionScheme::Plain => {
            let mut out = Vec::with_capacity(plain_size);
            plain_encode_i64_like(values, plain_width, &mut out);
            out
        }
        CompressionScheme::Pfor => pfor,
        CompressionScheme::PforDelta => pfor_delta,
        CompressionScheme::Rle => rle::rle_encode_i64(values),
        CompressionScheme::Pdict => unreachable!(),
    };
    (best.0, body)
}

/// Decompress a payload produced by [`compress_data`] / [`compress_with`]:
/// the block cursor's full-range decode, reading the payload in place.
pub fn decompress_data(bytes: &[u8]) -> Result<ColumnData> {
    Ok(BlockCursor::open(bytes, false)?.decode_all()?.data)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use vw_common::rng::Xoshiro256;

    /// Decode `body` as the payload of a block of `n` values of `phys`
    /// stored as `scheme`.
    pub(crate) fn decode_body(
        phys: u8,
        scheme: CompressionScheme,
        n: usize,
        body: &[u8],
    ) -> Result<ColumnData> {
        decompress_data(&with_header(phys, scheme, n, body))
    }

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
        // Exact decimals become a scaled frame: quarter steps at scale 2
        // delta-code to width 0, a constant packs smaller than its one run.
        let f = ColumnData::F64((0..500).map(|i| i as f64 * 0.25).collect());
        assert_eq!(roundtrip(&f), CompressionScheme::PforDelta);
        let fc = ColumnData::F64(vec![1.5; 10_000]);
        assert_eq!(roundtrip(&fc), CompressionScheme::Pfor);
        // Other doubles keep PLAIN and RLE.
        let roots = ColumnData::F64((0..500).map(|i| (i as f64).sqrt()).collect());
        assert_eq!(roundtrip(&roots), CompressionScheme::Plain);
        let root_runs = ColumnData::F64(vec![2f64.sqrt(); 10_000]);
        assert_eq!(roundtrip(&root_runs), CompressionScheme::Rle);
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

    /// The encoder's decision worked out the slow way: the smallest scale
    /// at which every value is `d / 10^e` bit for bit with `|d| ≤ 2^53`,
    /// and those integers.
    pub(crate) fn reference_scale(values: &[f64]) -> Option<(u8, Vec<i64>)> {
        (0..=MAX_SCALE).find_map(|e| {
            let p = 10f64.powi(e as i32);
            let ints: Option<Vec<i64>> = values
                .iter()
                .map(|&v| {
                    // An integer has no sign bit: `-0.0` comes back as `0.0`.
                    let d = (v * p).round() as i64;
                    (d.unsigned_abs() <= 1 << 53 && (d as f64 / p).to_bits() == v.to_bits())
                        .then_some(d)
                })
                .collect();
            ints.map(|d| (e, d))
        })
    }

    /// Doubles shaped like stored decimals — `k / 10^e` at one random scale,
    /// negatives, now and then `k` next to `±2^53` — with a share `odd`
    /// replaced by what must keep a block out of a frame: `-0.0`, NaN
    /// payloads, the infinities, subnormals, a decimal one ULP off, past
    /// 2^53, any bits. The rest are exact decimals at that scale: a `k` whose
    /// quotient does not give it back (rounding error near 2^53 reaches a
    /// unit) is shrunk until it does.
    pub(crate) fn decimal_shaped(r: &mut Xoshiro256, n: usize, odd: f64) -> Vec<f64> {
        let p = 10f64.powi(r.next_below(MAX_SCALE as u64 + 1) as i32);
        let span = [100i64, 100_000, 1 << 53][r.next_below(3) as usize];
        let edge = 1i64 << 53;
        let exact = |v: f64| {
            let d = (v * p).round() as i64;
            d.unsigned_abs() <= 1 << 53 && (d as f64 / p).to_bits() == v.to_bits()
        };
        (0..n)
            .map(|_| {
                let mut k = match r.chance(0.02) {
                    true => [edge, -edge, edge - 1, 1 - edge][r.next_below(4) as usize],
                    false => r.range_i64(-span, span),
                };
                while !exact(k as f64 / p) {
                    k /= 2;
                }
                let v = k as f64 / p;
                if !r.chance(odd) {
                    return v;
                }
                match r.next_below(7) {
                    0 => -0.0,
                    1 => f64::from_bits(0x7ff0_0000_0000_0001 | (r.next_u64() >> 13) << 1),
                    2 => [f64::INFINITY, f64::NEG_INFINITY][r.next_below(2) as usize],
                    3 => f64::from_bits(1 + r.next_below((1 << 52) - 1)),
                    4 => f64::from_bits(v.to_bits() ^ 1),
                    5 => (edge + 2) as f64 / p,
                    _ => f64::from_bits(r.next_u64()),
                }
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// A DOUBLE block decodes to the bits it was given, and is a scaled
        /// frame exactly when every value is an exact decimal and the frame
        /// (scale byte included) is smaller than PLAIN and RLE: then at the
        /// smallest such scale, as the smaller of PFOR and PFOR-DELTA.
        #[test]
        fn decimal_frames_roundtrip_bit_exact_and_win_only_when_smaller(seed in 0u64..1_000_000) {
            let mut r = Xoshiro256::seeded(seed);
            let n = r.next_below(3000) as usize;
            let values: Vec<f64> = match r.next_below(4) {
                0 => (0..n).map(|_| f64::from_bits(r.next_u64())).collect(),
                1 => decimal_shaped(&mut r, n, 0.0),
                _ => {
                    let odd = [0.0005, 0.01, 0.3][r.next_below(3) as usize];
                    decimal_shaped(&mut r, n, odd)
                }
            };
            let col = ColumnData::F64(values.clone());
            let (scheme, bytes) = compress_data(&col);
            let ColumnData::F64(back) = decompress_data(&bytes).unwrap() else {
                panic!("f64 block decoded to another type");
            };
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&back), bits(&values));
            let plain_or_runs = (n * 8).min(rle::rle_size_f64(&values));
            let frame = reference_scale(&values).and_then(|(e, d)| {
                let (p, pd) = (pfor::pfor_encode(&d), pfor::pfor_delta_encode(&d));
                let (s, len) = match pd.len() < p.len() {
                    true => (CompressionScheme::PforDelta, pd.len()),
                    false => (CompressionScheme::Pfor, p.len()),
                };
                (1 + len < plain_or_runs).then_some((s, e))
            });
            match frame {
                Some((s, e)) => {
                    proptest::prop_assert_eq!(scheme, s);
                    proptest::prop_assert_eq!(decimal_scale_of(&bytes), Some(e));
                }
                None => {
                    proptest::prop_assert!(matches!(
                        scheme,
                        CompressionScheme::Plain | CompressionScheme::Rle
                    ));
                    proptest::prop_assert_eq!(decimal_scale_of(&bytes), None);
                }
            }
            // Forced schemes decode to the same bits.
            for s in [CompressionScheme::Pfor, CompressionScheme::PforDelta, CompressionScheme::Plain] {
                let ColumnData::F64(back) = decompress_data(&compress_with(&col, s)).unwrap() else {
                    panic!("f64 block decoded to another type");
                };
                proptest::prop_assert_eq!(bits(&back), bits(&values));
            }
        }
    }

    /// Money at scale 2, quantities at scale 0, a third decimal, and the
    /// largest scale; one value past it keeps the block PLAIN.
    #[test]
    fn decimal_scales_are_the_smallest_exact_one() {
        let scale_of = |v: Vec<f64>| decimal_scale_of(&compress_data(&ColumnData::F64(v)).1);
        let mut r = Xoshiro256::seeded(8);
        let cents: Vec<f64> = (0..4000)
            .map(|_| r.range_i64(0, 10_000) as f64 / 100.0)
            .collect();
        assert_eq!(scale_of(cents), Some(2));
        assert_eq!(
            scale_of((0..4000).map(|i| (i % 50 + 1) as f64).collect()),
            Some(0)
        );
        assert_eq!(
            scale_of((0..4000).map(|i| i as f64 / 1000.0).collect()),
            Some(3)
        );
        let millionths: Vec<f64> = (0..4000)
            .map(|i| (i * 7919 % 100_003) as f64 / 1e6)
            .collect();
        assert_eq!(scale_of(millionths.clone()), Some(MAX_SCALE));
        let mut finer = millionths;
        finer[1234] = 1.0 / 1e7;
        assert_eq!(scale_of(finer), None);
    }

    /// A scale byte no encoder writes, and a frame cut short at any length,
    /// are errors.
    #[test]
    fn corrupt_decimal_frames_are_errors() {
        let col = ColumnData::F64((0..300).map(|i| (i * 37 % 1000) as f64 / 100.0).collect());
        for scheme in [CompressionScheme::Pfor, CompressionScheme::PforDelta] {
            let bytes = compress_with(&col, scheme);
            assert_eq!(bytes[1], scheme.to_u8());
            assert_eq!(decompress_data(&bytes).unwrap(), col);
            let mut bad = bytes.clone();
            for scale in [MAX_SCALE + 1, 0xFF] {
                bad[6] = scale;
                assert!(decompress_data(&bad).is_err());
            }
            for len in 0..bytes.len() {
                assert!(decompress_data(&bytes[..len]).is_err(), "length {}", len);
            }
        }
    }
}
