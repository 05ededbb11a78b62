//! SQL tokenizer.
//!
//! Keywords are recognized case-insensitively; identifiers are lowercased
//! (the dialect is case-insensitive, unquoted-only). String literals use
//! single quotes with `''` escaping.

use vw_common::{Result, VwError};

/// One token with its source position (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub pos: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Keyword (uppercased) — only words in [`KEYWORDS`] become keywords.
    Keyword(String),
    /// Identifier (lowercased).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (unescaped).
    Str(String),
    // punctuation / operators
    LParen,
    RParen,
    Comma,
    Dot,
    Semicolon,
    Star,
    Plus,
    Minus,
    Slash,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Eof,
}

/// Reserved words of the dialect.
pub const KEYWORDS: &[&str] = &[
    "SELECT",
    "FROM",
    "WHERE",
    "GROUP",
    "BY",
    "HAVING",
    "ORDER",
    "LIMIT",
    "OFFSET",
    "AS",
    "AND",
    "OR",
    "NOT",
    "NULL",
    "IS",
    "IN",
    "LIKE",
    "BETWEEN",
    "CASE",
    "WHEN",
    "THEN",
    "ELSE",
    "END",
    "JOIN",
    "INNER",
    "LEFT",
    "OUTER",
    "ON",
    "DISTINCT",
    "ASC",
    "DESC",
    "CREATE",
    "TABLE",
    "INSERT",
    "INTO",
    "VALUES",
    "UPDATE",
    "SET",
    "DELETE",
    "EXPLAIN",
    "ANALYZE",
    "TRACE",
    "CAST",
    "DATE",
    "INTERVAL",
    "YEAR",
    "MONTH",
    "DAY",
    "EXTRACT",
    "SUBSTRING",
    "FOR",
    "TRUE",
    "FALSE",
    "INTEGER",
    "INT",
    "BIGINT",
    "DOUBLE",
    "FLOAT",
    "VARCHAR",
    "TEXT",
    "BOOLEAN",
    "DECIMAL",
    "COUNT",
    "SUM",
    "MIN",
    "MAX",
    "AVG",
    "EXISTS",
    "ANALYZE",
    "CHECKPOINT",
    "PRIMARY",
    "KEY",
    "PARTITION",
    "PARTITIONS",
    "RANGE",
    "NULLS",
    "FIRST",
    "LAST",
];

/// Tokenize SQL text.
pub fn tokenize(sql: &str) -> Result<Vec<Token>> {
    let bytes = sql.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let err = |pos: usize, msg: &str| VwError::Parse(format!("{} at byte {}", msg, pos));
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
            }
            b'-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // line comment
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'(' => {
                tokens.push(Token {
                    kind: TokenKind::LParen,
                    pos: i,
                });
                i += 1;
            }
            b')' => {
                tokens.push(Token {
                    kind: TokenKind::RParen,
                    pos: i,
                });
                i += 1;
            }
            b',' => {
                tokens.push(Token {
                    kind: TokenKind::Comma,
                    pos: i,
                });
                i += 1;
            }
            b'.' => {
                tokens.push(Token {
                    kind: TokenKind::Dot,
                    pos: i,
                });
                i += 1;
            }
            b';' => {
                tokens.push(Token {
                    kind: TokenKind::Semicolon,
                    pos: i,
                });
                i += 1;
            }
            b'*' => {
                tokens.push(Token {
                    kind: TokenKind::Star,
                    pos: i,
                });
                i += 1;
            }
            b'+' => {
                tokens.push(Token {
                    kind: TokenKind::Plus,
                    pos: i,
                });
                i += 1;
            }
            b'-' => {
                tokens.push(Token {
                    kind: TokenKind::Minus,
                    pos: i,
                });
                i += 1;
            }
            b'/' => {
                tokens.push(Token {
                    kind: TokenKind::Slash,
                    pos: i,
                });
                i += 1;
            }
            b'=' => {
                tokens.push(Token {
                    kind: TokenKind::Eq,
                    pos: i,
                });
                i += 1;
            }
            b'<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token {
                        kind: TokenKind::LtEq,
                        pos: i,
                    });
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    tokens.push(Token {
                        kind: TokenKind::NotEq,
                        pos: i,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Lt,
                        pos: i,
                    });
                    i += 1;
                }
            }
            b'>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token {
                        kind: TokenKind::GtEq,
                        pos: i,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Gt,
                        pos: i,
                    });
                    i += 1;
                }
            }
            b'!' if i + 1 < bytes.len() && bytes[i + 1] == b'=' => {
                tokens.push(Token {
                    kind: TokenKind::NotEq,
                    pos: i,
                });
                i += 2;
            }
            b'\'' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                // The literal is copied as UTF-8 slices of the source between
                // quotes: a quote is ASCII, so it never falls inside a
                // multi-byte character and every slice boundary is valid.
                let mut run = i;
                loop {
                    if i >= bytes.len() {
                        return Err(err(start, "unterminated string literal"));
                    }
                    if bytes[i] != b'\'' {
                        i += 1;
                        continue;
                    }
                    s.push_str(&sql[run..i]);
                    if i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                        s.push('\'');
                        i += 2;
                        run = i;
                    } else {
                        i += 1;
                        break;
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Str(s),
                    pos: start,
                });
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && i + 1 < bytes.len()
                    && bytes[i + 1].is_ascii_digit()
                {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let mut j = i + 1;
                    if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                        j += 1;
                    }
                    if j < bytes.len() && bytes[j].is_ascii_digit() {
                        is_float = true;
                        i = j;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &sql[start..i];
                let kind = if is_float {
                    TokenKind::Float(text.parse().map_err(|_| err(start, "bad float literal"))?)
                } else {
                    TokenKind::Int(text.parse().map_err(|_| err(start, "bad int literal"))?)
                };
                tokens.push(Token { kind, pos: start });
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &sql[start..i];
                let upper = word.to_ascii_uppercase();
                let kind = if KEYWORDS.contains(&upper.as_str()) {
                    TokenKind::Keyword(upper)
                } else {
                    TokenKind::Ident(word.to_ascii_lowercase())
                };
                tokens.push(Token { kind, pos: start });
            }
            other => {
                return Err(err(i, &format!("unexpected character '{}'", other as char)));
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        pos: bytes.len(),
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        tokenize(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_and_idents() {
        let ks = kinds("SELECT foo FROM Bar_Tab");
        assert_eq!(
            ks,
            vec![
                TokenKind::Keyword("SELECT".into()),
                TokenKind::Ident("foo".into()),
                TokenKind::Keyword("FROM".into()),
                TokenKind::Ident("bar_tab".into()),
                TokenKind::Eof,
            ]
        );
        // case-insensitive keywords
        assert_eq!(kinds("select")[0], TokenKind::Keyword("SELECT".into()));
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("42")[0], TokenKind::Int(42));
        assert_eq!(kinds("3.25")[0], TokenKind::Float(3.25));
        assert_eq!(kinds("1e3")[0], TokenKind::Float(1000.0));
        assert_eq!(kinds("2.5e-1")[0], TokenKind::Float(0.25));
        // trailing dot is a Dot token, not a float
        assert_eq!(
            kinds("1.a"),
            vec![
                TokenKind::Int(1),
                TokenKind::Dot,
                TokenKind::Ident("a".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(kinds("'hi'")[0], TokenKind::Str("hi".into()));
        assert_eq!(kinds("'it''s'")[0], TokenKind::Str("it's".into()));
        assert_eq!(kinds("''")[0], TokenKind::Str("".into()));
        assert!(tokenize("'unterminated").is_err());
    }

    /// Literals keep their multi-byte characters: two-, three- and four-byte
    /// UTF-8, beside an escaped quote, and the error for a literal that never
    /// closes still names the opening quote.
    #[test]
    fn non_ascii_string_literals_survive() {
        assert_eq!(kinds("'é'")[0], TokenKind::Str("é".into()));
        assert_eq!(kinds("'𝄞'")[0], TokenKind::Str("𝄞".into()));
        assert_eq!(kinds("'n''é'")[0], TokenKind::Str("n'é".into()));
        assert_eq!(
            kinds("SELECT '€uro', 'x'")[1..4],
            [
                TokenKind::Str("€uro".into()),
                TokenKind::Comma,
                TokenKind::Str("x".into())
            ]
        );
        let e = tokenize("SELECT 'é𝄞 never closed").unwrap_err();
        assert!(e.to_string().contains("at byte 7"), "{}", e);
    }

    #[test]
    fn operators() {
        let ks = kinds("a <= b <> c >= d != e < f > g = h");
        assert!(ks.contains(&TokenKind::LtEq));
        assert!(ks.contains(&TokenKind::GtEq));
        assert_eq!(ks.iter().filter(|k| **k == TokenKind::NotEq).count(), 2);
    }

    #[test]
    fn comments_skipped() {
        let ks = kinds("SELECT -- a comment\n 1");
        assert_eq!(
            ks,
            vec![
                TokenKind::Keyword("SELECT".into()),
                TokenKind::Int(1),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn bad_char_errors() {
        assert!(tokenize("SELECT ¤").is_err());
        assert!(tokenize("a ! b").is_err());
    }

    #[test]
    fn positions_recorded() {
        let ts = tokenize("SELECT x").unwrap();
        assert_eq!(ts[0].pos, 0);
        assert_eq!(ts[1].pos, 7);
    }
}
