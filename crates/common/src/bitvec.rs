//! A compact bit vector.
//!
//! Used for NULL indicator columns in storage (one bit per value on disk; the
//! execution engine widens them to byte vectors for branch-free kernels) and
//! for visibility masks in the buffer manager.

/// Growable bit vector backed by `u64` words.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    pub fn new() -> Self {
        BitVec::default()
    }

    /// A bit vector of `len` bits, all set to `value`.
    pub fn filled(len: usize, value: bool) -> Self {
        let nwords = len.div_ceil(64);
        let mut words = vec![if value { !0u64 } else { 0 }; nwords];
        // Clear the tail bits beyond `len` so count_ones stays exact.
        if value && !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        BitVec { words, len }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn get(&self, idx: usize) -> bool {
        debug_assert!(idx < self.len);
        (self.words[idx / 64] >> (idx % 64)) & 1 == 1
    }

    #[inline]
    pub fn set(&mut self, idx: usize, value: bool) {
        debug_assert!(idx < self.len);
        let w = &mut self.words[idx / 64];
        let mask = 1u64 << (idx % 64);
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        if value {
            let idx = self.len - 1;
            self.words[idx / 64] |= 1u64 << (idx % 64);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True iff any bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Bits `[from, to)` as a bit vector of their own, copied a word at a
    /// time: how a block cursor hands out the NULL indicator of a vector.
    pub fn slice(&self, from: usize, to: usize) -> BitVec {
        assert!(from <= to && to <= self.len, "bit slice out of range");
        let len = to - from;
        let (first, shift) = (from / 64, from % 64);
        let mut words: Vec<u64> = (first..first + len.div_ceil(64))
            .map(|w| match shift {
                0 => self.words[w],
                s => self.words[w] >> s | self.words.get(w + 1).map_or(0, |&h| h << (64 - s)),
            })
            .collect();
        if let Some(last) = words.last_mut().filter(|_| !len.is_multiple_of(64)) {
            *last &= (1u64 << (len % 64)) - 1;
        }
        BitVec { words, len }
    }

    /// Iterator over all bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Iterator over the indexes of set bits.
    pub fn iter_ones(&self) -> OnesIter<'_> {
        OnesIter {
            bv: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// In-place OR with another bit vector of identical length.
    pub fn union_with(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "BitVec length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Serialize to little-endian bytes (used by storage and the WAL).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.words.len() * 8);
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserialize from [`to_bytes`] output. Returns bytes consumed.
    pub fn from_bytes(bytes: &[u8]) -> Option<(BitVec, usize)> {
        if bytes.len() < 8 {
            return None;
        }
        let len = u64::from_le_bytes(bytes[0..8].try_into().ok()?) as usize;
        let nwords = len.div_ceil(64);
        let need = 8 + nwords * 8;
        if bytes.len() < need {
            return None;
        }
        let mut words = Vec::with_capacity(nwords);
        for i in 0..nwords {
            let s = 8 + i * 8;
            words.push(u64::from_le_bytes(bytes[s..s + 8].try_into().ok()?));
        }
        Some((BitVec { words, len }, need))
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut bv = BitVec::new();
        for b in iter {
            bv.push(b);
        }
        bv
    }
}

/// Iterator over indexes of set bits, word at a time.
pub struct OnesIter<'a> {
    bv: &'a BitVec,
    word_idx: usize,
    current: u64,
}

impl Iterator for OnesIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                let idx = self.word_idx * 64 + bit;
                return if idx < self.bv.len { Some(idx) } else { None };
            }
            self.word_idx += 1;
            if self.word_idx >= self.bv.words.len() {
                return None;
            }
            self.current = self.bv.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_set() {
        let mut bv = BitVec::new();
        for i in 0..200 {
            bv.push(i % 3 == 0);
        }
        assert_eq!(bv.len(), 200);
        for i in 0..200 {
            assert_eq!(bv.get(i), i % 3 == 0, "bit {}", i);
        }
        bv.set(1, true);
        assert!(bv.get(1));
        bv.set(0, false);
        assert!(!bv.get(0));
    }

    #[test]
    fn filled_respects_tail() {
        let bv = BitVec::filled(70, true);
        assert_eq!(bv.len(), 70);
        assert_eq!(bv.count_ones(), 70);
        let bv0 = BitVec::filled(70, false);
        assert_eq!(bv0.count_ones(), 0);
        assert!(!bv0.any());
        assert!(bv.any());
        // exact multiple of 64
        let bv64 = BitVec::filled(64, true);
        assert_eq!(bv64.count_ones(), 64);
        // empty
        assert_eq!(BitVec::filled(0, true).count_ones(), 0);
    }

    #[test]
    fn ones_iterator() {
        let bv: BitVec = (0..300).map(|i| i % 67 == 0).collect();
        let ones: Vec<usize> = bv.iter_ones().collect();
        assert_eq!(ones, vec![0, 67, 134, 201, 268]);
        let none = BitVec::filled(100, false);
        assert_eq!(none.iter_ones().count(), 0);
        let all = BitVec::filled(130, true);
        assert_eq!(all.iter_ones().count(), 130);
        assert_eq!(all.iter_ones().last(), Some(129));
    }

    #[test]
    fn union() {
        let mut a: BitVec = (0..100).map(|i| i % 2 == 0).collect();
        let b: BitVec = (0..100).map(|i| i % 3 == 0).collect();
        a.union_with(&b);
        for i in 0..100 {
            assert_eq!(a.get(i), i % 2 == 0 || i % 3 == 0);
        }
    }

    #[test]
    fn serialization_roundtrip() {
        let bv: BitVec = (0..157).map(|i| (i * 7) % 13 < 4).collect();
        let bytes = bv.to_bytes();
        let (back, used) = BitVec::from_bytes(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, bv);
        // Truncated input fails cleanly.
        assert!(BitVec::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(BitVec::from_bytes(&[]).is_none());
    }

    #[test]
    fn slices_match_bit_by_bit_copies() {
        let bv: BitVec = (0..300).map(|i| (i * 11) % 7 < 3).collect();
        for from in [0, 1, 5, 63, 64, 65, 127, 200, 300] {
            for to in [from, from + 1, from + 63, from + 64, from + 130, 300] {
                if to > 300 {
                    continue;
                }
                let want: BitVec = (from..to).map(|i| bv.get(i)).collect();
                assert_eq!(bv.slice(from, to), want, "[{}, {})", from, to);
            }
        }
    }

    #[test]
    fn iter_matches_get() {
        let bv: BitVec = (0..77).map(|i| i % 5 == 1).collect();
        let via_iter: Vec<bool> = bv.iter().collect();
        let via_get: Vec<bool> = (0..77).map(|i| bv.get(i)).collect();
        assert_eq!(via_iter, via_get);
    }
}
