//! PDICT — dictionary compression for string columns.
//!
//! From the same compression family as PFOR [2]: distinct strings go into a
//! per-block dictionary and each value becomes a bit-packed code. TPC-H is
//! full of tiny-domain strings (flags, modes, priorities) where this is a
//! 10-50x win; high-cardinality comment columns fall back to plain.
//!
//! Wire layout:
//! ```text
//! [n_dict:   u32 LE]
//! [dict_bytes_len: u32 LE][dict bytes][dict offsets: (n_dict+1) * u32 LE]
//! [width: u8][packed codes]
//! ```

use super::bitpack::{bits_needed, pack, packed_len};
use crate::column::StrColumn;
use std::collections::HashMap;

/// Encode a string column with a per-block dictionary.
/// Returns `None` when the dictionary would not be smaller than plain
/// (the caller then keeps plain encoding).
pub fn pdict_encode(col: &StrColumn) -> Option<Vec<u8>> {
    let n = col.len();
    let mut dict_index: HashMap<&str, u32> = HashMap::new();
    let mut dict: Vec<&str> = Vec::new();
    let mut codes: Vec<u64> = Vec::with_capacity(n);
    for s in col.iter() {
        let next = dict.len() as u32;
        let code = *dict_index.entry(s).or_insert_with(|| {
            dict.push(s);
            next
        });
        codes.push(code as u64);
    }
    let width = bits_needed(dict.len().saturating_sub(1) as u64);
    let dict_bytes: usize = dict.iter().map(|s| s.len()).sum();
    let encoded_size = 4 + 4 + dict_bytes + (dict.len() + 1) * 4 + 1 + packed_len(n, width);
    let plain_size = col.bytes.len() + col.offsets.len() * 4;
    if encoded_size >= plain_size {
        return None;
    }
    let mut out = Vec::with_capacity(encoded_size);
    out.extend_from_slice(&(dict.len() as u32).to_le_bytes());
    out.extend_from_slice(&(dict_bytes as u32).to_le_bytes());
    let mut offsets: Vec<u32> = Vec::with_capacity(dict.len() + 1);
    offsets.push(0);
    for s in &dict {
        out.extend_from_slice(s.as_bytes());
        offsets.push(*offsets.last().unwrap() + s.len() as u32);
    }
    for o in &offsets {
        out.extend_from_slice(&o.to_le_bytes());
    }
    out.push(width as u8);
    out.extend_from_slice(&pack(&codes, width));
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnData;
    use crate::compress::tests::decode_body;
    use crate::compress::{CompressionScheme, PHYS_STR};

    /// A PDICT body read back through the block cursor, as a block of `n`.
    fn read(body: &[u8], n: usize) -> Option<StrColumn> {
        match decode_body(PHYS_STR, CompressionScheme::Pdict, n, body) {
            Ok(ColumnData::Str(s)) => Some(s),
            _ => None,
        }
    }

    fn low_card_column(n: usize) -> StrColumn {
        let domain = ["AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"];
        StrColumn::from_iter((0..n).map(|i| domain[(i * 7 + i / 3) % domain.len()]))
    }

    #[test]
    fn roundtrip_low_cardinality() {
        let col = low_card_column(5000);
        let enc = pdict_encode(&col).expect("should compress");
        let plain = col.bytes.len() + col.offsets.len() * 4;
        assert!(
            enc.len() * 4 < plain,
            "enc {} vs plain {}",
            enc.len(),
            plain
        );
        let back = read(&enc, col.len()).unwrap();
        assert_eq!(back, col);
    }

    #[test]
    fn high_cardinality_declines() {
        let col = StrColumn::from_iter(
            (0..1000)
                .map(|i| format!("unique-string-number-{}", i))
                .collect::<Vec<_>>()
                .iter()
                .map(|s| s.as_str()),
        );
        assert!(pdict_encode(&col).is_none());
    }

    #[test]
    fn single_distinct_value_width_zero() {
        let col = StrColumn::from_iter(std::iter::repeat_n("N", 1000));
        let enc = pdict_encode(&col).unwrap();
        assert!(enc.len() < 32, "enc {}", enc.len());
        assert_eq!(read(&enc, 1000).unwrap(), col);
    }

    #[test]
    fn empty_strings_and_unicode() {
        let col = StrColumn::from_iter(["", "ü", "", "ü", "", "ü", "", "ü", "", "ü"]);
        let enc = pdict_encode(&col).unwrap();
        assert_eq!(read(&enc, col.len()).unwrap(), col);
    }

    #[test]
    fn truncated_fails() {
        let col = low_card_column(100);
        let enc = pdict_encode(&col).unwrap();
        assert!(read(&enc[..enc.len() - 1], 100).is_none());
        assert!(read(&[], 100).is_none());
        // wrong n: more codes than packed data holds may still decode if
        // packed_len allows, but must never panic
        let _ = read(&enc, 99);
    }
}
