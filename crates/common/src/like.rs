//! SQL `LIKE`: the one matcher behind the row interpreter
//! (`Expr::eval_row`), the vectorized evaluator and the block cursors.
//!
//! `%` matches any run of characters and `_` exactly one *character* — one
//! UTF-8 scalar value, as `SUBSTRING` counts them. Patterns and strings are
//! valid UTF-8 (patterns come from SQL text, stored strings are validated
//! when a block is opened), so everything here works on bytes: a literal
//! character of the pattern can only match at a character boundary of the
//! string, and the two places that step *over* a character (`_`, and `%`
//! giving up one more) read its length off its first byte.
//!
//! [`LikePattern`] classifies a pattern once — most patterns in analytical
//! SQL are a literal with `%` at either end — so the common shapes are an
//! equality, prefix, suffix or substring test and never enter the general
//! matcher. [`find`] is the substring search under the last of those; the
//! cursors also run it over a whole vector's contiguous string bytes.
//! Several literals between `%` alone (`%special%requests%`) are a chain of
//! those tests: each literal is found leftmost after the previous one
//! ends, which is exact when no `_` is involved — a match further left
//! never leaves less room for the literals after it.

/// Bytes of the UTF-8 scalar value that starts with `lead`.
#[inline]
fn char_len(lead: u8) -> usize {
    match lead {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xFF => 4,
        _ => 1,
    }
}

/// The general matcher: does `s` match `pattern`? Two pointers, backtracking
/// to the last `%`, which then absorbs one more character.
pub fn like_match(pattern: &[u8], s: &[u8]) -> bool {
    let (mut p, mut i) = (0usize, 0usize);
    // Position of the last `%` seen and the string position it absorbs up to.
    let mut star: Option<(usize, usize)> = None;
    while i < s.len() {
        match pattern.get(p) {
            Some(b'_') => {
                p += 1;
                i += char_len(s[i]);
            }
            Some(b'%') => {
                star = Some((p, i));
                p += 1;
            }
            Some(&b) if b == s[i] => {
                p += 1;
                i += 1;
            }
            _ => match star {
                Some((sp, si)) => {
                    let next = si + char_len(s[si]);
                    star = Some((sp, next));
                    p = sp + 1;
                    i = next;
                }
                None => return false,
            },
        }
    }
    pattern[p.min(pattern.len())..].iter().all(|&b| b == b'%')
}

/// What a pattern asks of a string, with `lit` free of wildcards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LikeShape {
    /// `lit`
    Exact,
    /// `lit%`
    Prefix,
    /// `%lit`
    Suffix,
    /// `%lit%`
    Contains,
    /// Two or more literals separated by `%`, with or without `%` at either
    /// end: `a%b`, `%special%requests%`.
    Segments,
    /// Anything with `_`.
    General,
}

/// A `LIKE` pattern classified by shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LikePattern {
    pattern: String,
    shape: LikeShape,
    /// Byte range of the literal within `pattern`.
    lit: (usize, usize),
    /// [`LikeShape::Segments`]: byte ranges of the literals, in order.
    segs: Vec<(usize, usize)>,
}

impl LikePattern {
    pub fn new(pattern: &str) -> LikePattern {
        let pat = pattern.as_bytes();
        // Runs of `%` at either end equal one `%`.
        let lead = pat.iter().take_while(|&&b| b == b'%').count();
        let (shape, lit) = if lead == pat.len() {
            // Empty pattern: only "" matches. All `%`: everything does.
            let shape = match pat.is_empty() {
                true => LikeShape::Exact,
                false => LikeShape::Contains,
            };
            (shape, (0, 0))
        } else {
            let trail = pat.iter().rev().take_while(|&&b| b == b'%').count();
            let lit = (lead, pat.len() - trail);
            if pat.contains(&b'_') {
                (LikeShape::General, (0, pat.len()))
            } else if pat[lit.0..lit.1].contains(&b'%') {
                (LikeShape::Segments, (0, pat.len()))
            } else {
                let shape = match (lead > 0, trail > 0) {
                    (false, false) => LikeShape::Exact,
                    (false, true) => LikeShape::Prefix,
                    (true, false) => LikeShape::Suffix,
                    (true, true) => LikeShape::Contains,
                };
                (shape, lit)
            }
        };
        let mut segs = Vec::new();
        if shape == LikeShape::Segments {
            let mut at = 0;
            for part in pat.split(|&b| b == b'%') {
                if !part.is_empty() {
                    segs.push((at, at + part.len()));
                }
                at += part.len() + 1;
            }
        }
        LikePattern {
            pattern: pattern.to_string(),
            shape,
            lit,
            segs,
        }
    }

    pub fn shape(&self) -> LikeShape {
        self.shape
    }

    /// The wildcard-free literal of the four one-literal shapes; the whole
    /// pattern for [`LikeShape::Segments`] and [`LikeShape::General`].
    pub fn literal(&self) -> &[u8] {
        &self.pattern.as_bytes()[self.lit.0..self.lit.1]
    }

    #[inline]
    pub fn matches(&self, s: &[u8]) -> bool {
        let lit = self.literal();
        match self.shape {
            LikeShape::Exact => s == lit,
            LikeShape::Prefix => s.starts_with(lit),
            LikeShape::Suffix => s.ends_with(lit),
            LikeShape::Contains => find(s, lit, 0).is_some(),
            LikeShape::Segments => self.segments_match(s),
            LikeShape::General => like_match(lit, s),
        }
    }

    /// [`LikeShape::Segments`]: an anchored first literal is a prefix, an
    /// anchored last literal a suffix past the middle ones, and each middle
    /// literal is found leftmost from where the one before it ended.
    fn segments_match(&self, s: &[u8]) -> bool {
        let pat = self.pattern.as_bytes();
        let lit = |&(from, to): &(usize, usize)| &pat[from..to];
        let mut segs = &self.segs[..];
        let mut at = 0;
        if pat[0] != b'%' {
            let (first, rest) = segs.split_first().expect("two or more literals");
            if !s.starts_with(lit(first)) {
                return false;
            }
            (segs, at) = (rest, first.1 - first.0);
        }
        let mut last = None;
        if pat[pat.len() - 1] != b'%' {
            let (end, rest) = segs.split_last().expect("two or more literals");
            (segs, last) = (rest, Some(lit(end)));
        }
        for seg in segs {
            match find(s, lit(seg), at) {
                Some(q) => at = q + (seg.1 - seg.0),
                None => return false,
            }
        }
        last.is_none_or(|end| s.len() >= at + end.len() && s.ends_with(end))
    }
}

const LO: u64 = 0x0101_0101_0101_0101;
const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;

/// `0x80` in every byte of the result whose byte in `x` is zero, nothing
/// anywhere else. No byte's sum reaches its neighbour (`0x7F + 0x7F`), so
/// the arithmetic never overflows.
#[inline]
fn zero_bytes(x: u64) -> u64 {
    !(((x & LOW7) + LOW7) | x | LOW7)
}

/// First occurrence of `needle` in `hay` that starts at `from` or later.
///
/// Eight positions at a time: two overlapping 64-bit loads are compared with
/// the needle's first and second byte in every byte lane at once, and only
/// positions where both agree are compared in full. The few positions at
/// the end that two loads cannot cover are checked one by one.
pub fn find(hay: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    let Some((&first, rest)) = needle.split_first() else {
        return (from <= hay.len()).then_some(from);
    };
    // One past the last position a match can start at.
    let end = (hay.len() + 1).checked_sub(needle.len())?;
    let (b0, b1) = (LO * first as u64, rest.first().map(|&b| LO * b as u64));
    let word = |at: usize| u64::from_le_bytes(*hay[at..].first_chunk::<8>().expect("a whole word"));
    let mut p = from;
    while p + 9 <= hay.len() {
        let mut hits = zero_bytes(word(p) ^ b0);
        if let Some(b1) = b1 {
            hits &= zero_bytes(word(p + 1) ^ b1);
        }
        while hits != 0 {
            let q = p + (hits.trailing_zeros() / 8) as usize;
            if q < end && hay[q + 1..q + needle.len()] == *rest {
                return Some(q);
            }
            hits &= hits - 1;
        }
        p += 8;
    }
    (p..end).find(|&q| hay[q] == first && hay[q + 1..q + needle.len()] == *rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_patterns() {
        assert!(like_match(b"%SHIP%", b"AIR SHIPMENT"));
        assert!(like_match(b"SHIP", b"SHIP"));
        assert!(!like_match(b"SHIP", b"SHIPS"));
        assert!(like_match(b"SH_P", b"SHIP"));
        assert!(!like_match(b"SH_P", b"SHOP2"));
        assert!(like_match(b"%", b""));
        assert!(like_match(b"%%", b"x"));
        assert!(like_match(b"a%b%c", b"aXXbYYc"));
        assert!(!like_match(b"a%b%c", b"aXXbYY"));
        assert!(like_match(
            b"%special%requests%",
            b"the special deposit requests"
        ));
        // A wildcard of the pattern is never a literal of the string.
        assert!(like_match(b"%a", b"%b a"));
    }

    /// `_` is one character whatever its width, like `SUBSTRING` counts.
    #[test]
    fn underscore_consumes_one_character() {
        for one in ["x", "é", "€", "𝄞"] {
            assert!(like_match(b"_", one.as_bytes()), "{one}");
            assert!(!like_match(b"__", one.as_bytes()), "{one}");
            assert!(like_match(b"a_b", format!("a{one}b").as_bytes()));
            assert!(like_match(b"%_", format!("zz{one}").as_bytes()));
            assert!(like_match(b"_%", one.as_bytes()));
        }
        assert!(like_match(b"__", "é𝄞".as_bytes()));
        assert!(!like_match(b"_", "é𝄞".as_bytes()));
        assert!(!like_match(b"_", b""));
    }

    #[test]
    fn like_patterns_classify_by_shape() {
        use LikeShape::*;
        let shape = |p: &str| {
            let lp = LikePattern::new(p);
            (
                lp.shape(),
                String::from_utf8(lp.literal().to_vec()).unwrap(),
            )
        };
        assert_eq!(shape("%special%"), (Contains, "special".into()));
        assert_eq!(shape("%%special%%"), (Contains, "special".into()));
        assert_eq!(shape("PROMO%"), (Prefix, "PROMO".into()));
        assert_eq!(shape("%BRASS"), (Suffix, "BRASS".into()));
        assert_eq!(shape("SHIP"), (Exact, "SHIP".into()));
        assert_eq!(shape(""), (Exact, "".into()));
        assert_eq!(shape("%"), (Contains, "".into()));
        assert_eq!(shape("%%"), (Contains, "".into()));
        assert_eq!(shape("a%b"), (Segments, "a%b".into()));
        assert_eq!(shape("%a%b%"), (Segments, "%a%b%".into()));
        assert_eq!(shape("%a%%b"), (Segments, "%a%%b".into()));
        assert_eq!(shape("a%_b"), (General, "a%_b".into()));
        assert_eq!(shape("SH_P"), (General, "SH_P".into()));
        assert_eq!(shape("%_"), (General, "%_".into()));
    }

    /// Segments match greedily, leftmost, and never overlap.
    #[test]
    fn segments_never_overlap() {
        let matches = |p: &str, s: &str| LikePattern::new(p).matches(s.as_bytes());
        assert!(!matches("%aa%aa%", "aaa"));
        assert!(matches("%aa%aa%", "aaaa"));
        assert!(!matches("ab%ba", "aba"));
        assert!(matches("ab%ba", "abba"));
        assert!(matches(
            "%special%requests%",
            "the special deposit requests"
        ));
        assert!(!matches("%special%requests%", "requests special"));
        assert!(matches("é%𝄞%é", "é𝄞é"));
        assert!(!matches("é%é", "é"));
        assert!(matches("a%b%c", "abc"));
        assert!(!matches("a%b%c", "acb"));
    }

    #[test]
    fn find_resumes_and_handles_the_edges() {
        let hay = b"abcabcabc__abcab";
        assert_eq!(find(hay, b"abc", 0), Some(0));
        assert_eq!(find(hay, b"abc", 1), Some(3));
        assert_eq!(find(hay, b"abc", 7), Some(11));
        assert_eq!(find(hay, b"abc", 12), None);
        assert_eq!(find(hay, b"b", 14), Some(15));
        assert_eq!(find(hay, b"", 16), Some(16));
        assert_eq!(find(hay, b"", 17), None);
        assert_eq!(find(b"ab", b"abc", 0), None);
        assert_eq!(find(b"", b"a", 0), None);
        assert_eq!(find(hay, hay, 0), Some(0));
        assert_eq!(find(hay, b"abcab", 9), Some(11));
    }

    /// Pieces the property tests draw patterns and strings from: both
    /// wildcards, ASCII that repeats (so partial matches and backtracking
    /// happen), and two- and four-byte UTF-8.
    const LIKE_PIECES: [&str; 8] = ["%", "_", "a", "b", "ab", "é", "𝄞", " "];

    fn from_pieces(picks: &[usize]) -> String {
        picks.iter().map(|&i| LIKE_PIECES[i]).collect()
    }

    /// LIKE over characters, by the textbook recursion.
    fn oracle(p: &[char], s: &[char]) -> bool {
        match p.split_first() {
            None => s.is_empty(),
            Some(('%', rest)) => (0..=s.len()).any(|k| oracle(rest, &s[k..])),
            Some(('_', rest)) => !s.is_empty() && oracle(rest, &s[1..]),
            Some((c, rest)) => s.first() == Some(c) && oracle(rest, &s[1..]),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4000))]

        /// Whatever shape the classifier picks, it answers as `like_match`
        /// does. Strings draw from the wildcard-free pieces only.
        #[test]
        fn classified_like_equals_like_match(
            pattern in proptest::collection::vec(0usize..LIKE_PIECES.len(), 0..7),
            string in proptest::collection::vec(2usize..LIKE_PIECES.len(), 0..9),
        ) {
            let (pattern, string) = (from_pieces(&pattern), from_pieces(&string));
            proptest::prop_assert_eq!(
                LikePattern::new(&pattern).matches(string.as_bytes()),
                like_match(pattern.as_bytes(), string.as_bytes()),
                "pattern {:?} string {:?}",
                pattern,
                string
            );
        }

        /// `like_match` against the character-wise oracle; here the strings
        /// hold `%` and `_` too, which only ever match themselves.
        #[test]
        fn like_match_equals_the_character_oracle(
            pattern in proptest::collection::vec(0usize..LIKE_PIECES.len(), 0..7),
            string in proptest::collection::vec(0usize..LIKE_PIECES.len(), 0..9),
        ) {
            let (pattern, string) = (from_pieces(&pattern), from_pieces(&string));
            let (p, s): (Vec<char>, Vec<char>) = (pattern.chars().collect(), string.chars().collect());
            proptest::prop_assert_eq!(
                like_match(pattern.as_bytes(), string.as_bytes()),
                oracle(&p, &s),
                "pattern {:?} string {:?}",
                pattern,
                string
            );
        }

        /// `find` against a window-by-window search, from every start.
        #[test]
        fn find_equals_the_window_search(
            hay in proptest::collection::vec(2usize..LIKE_PIECES.len(), 0..24),
            needle in proptest::collection::vec(2usize..LIKE_PIECES.len(), 0..4),
        ) {
            let (hay, needle) = (from_pieces(&hay), from_pieces(&needle));
            let (hay, needle) = (hay.as_bytes(), needle.as_bytes());
            for from in 0..=hay.len() + 1 {
                let want = (from..=hay.len())
                    .find(|&q| hay[q..].starts_with(needle));
                proptest::prop_assert_eq!(find(hay, needle, from), want, "from {}", from);
            }
        }
    }
}
