//! SQL lexer: hand-written, byte-offset-reporting.
//!
//! `tokenize_spanned` is the real lexer: every token carries the
//! byte offset where it starts in the original SQL text, and every
//! error is a typed [`ParseError`] pointing at the offending byte.
//! [`tokenize`] is the span-dropping convenience wrapper.

use super::{ParseError, ParseErrorKind, SqlError};

/// SQL tokens.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword (stored lower-cased; keywords are matched
    /// case-insensitively by the parser).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Decimal literal, pre-scaled by 100 (storage convention:
    /// `0.07` lexes as `Decimal(7)`).
    Decimal(i64),
    /// Single-quoted string literal.
    Str(String),
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `.` (qualified names)
    Dot,
    /// `;`
    Semi,
}

/// One lexed token plus the byte offset where it starts in the SQL
/// text (what the parser reports in its [`ParseError`]s).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Spanned {
    /// The token.
    pub tok: Token,
    /// Byte offset of the token's first character.
    pub offset: usize,
}

/// Tokenize a SQL string, dropping spans (compatibility wrapper).
pub fn tokenize(sql: &str) -> Result<Vec<Token>, SqlError> {
    Ok(tokenize_spanned(sql)
        .map_err(SqlError::Lex)?
        .into_iter()
        .map(|s| s.tok)
        .collect())
}

/// Tokenize a SQL string into byte-offset-spanned tokens.
pub(crate) fn tokenize_spanned(sql: &str) -> Result<Vec<Spanned>, ParseError> {
    let b: Vec<(usize, char)> = sql.char_indices().collect();
    let peek = |i: usize| b.get(i).map(|&(_, c)| c);
    let mut i = 0;
    let mut out: Vec<Spanned> = Vec::new();
    while i < b.len() {
        let (off, c) = b[i];
        let mut push1 = |tok: Token| {
            out.push(Spanned { tok, offset: off });
        };
        match c {
            c if c.is_whitespace() => i += 1,
            ',' => {
                push1(Token::Comma);
                i += 1;
            }
            '(' => {
                push1(Token::LParen);
                i += 1;
            }
            ')' => {
                push1(Token::RParen);
                i += 1;
            }
            '*' => {
                push1(Token::Star);
                i += 1;
            }
            '+' => {
                push1(Token::Plus);
                i += 1;
            }
            '-' => {
                // Line comment `--`.
                if peek(i + 1) == Some('-') {
                    while i < b.len() && b[i].1 != '\n' {
                        i += 1;
                    }
                } else {
                    push1(Token::Minus);
                    i += 1;
                }
            }
            '/' => {
                push1(Token::Slash);
                i += 1;
            }
            '.' => {
                push1(Token::Dot);
                i += 1;
            }
            ';' => {
                push1(Token::Semi);
                i += 1;
            }
            '=' => {
                push1(Token::Eq);
                i += 1;
            }
            '!' => {
                if peek(i + 1) == Some('=') {
                    push1(Token::Ne);
                    i += 2;
                } else {
                    return Err(ParseError::new(off, ParseErrorKind::UnexpectedChar('!')));
                }
            }
            '<' => match peek(i + 1) {
                Some('=') => {
                    push1(Token::Le);
                    i += 2;
                }
                Some('>') => {
                    push1(Token::Ne);
                    i += 2;
                }
                _ => {
                    push1(Token::Lt);
                    i += 1;
                }
            },
            '>' => {
                if peek(i + 1) == Some('=') {
                    push1(Token::Ge);
                    i += 2;
                } else {
                    push1(Token::Gt);
                    i += 1;
                }
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    match peek(i) {
                        None => {
                            // Point at the opening quote, where the
                            // unclosed literal starts.
                            return Err(ParseError::new(off, ParseErrorKind::UnterminatedString));
                        }
                        Some('\'') => {
                            // Doubled quote = escaped quote.
                            if peek(i + 1) == Some('\'') {
                                s.push('\'');
                                i += 2;
                            } else {
                                i += 1;
                                break;
                            }
                        }
                        Some(c) => {
                            s.push(c);
                            i += 1;
                        }
                    }
                }
                out.push(Spanned {
                    tok: Token::Str(s),
                    offset: off,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len() && b[i].1.is_ascii_digit() {
                    i += 1;
                }
                if i < b.len() && b[i].1 == '.' && peek(i + 1).is_some_and(|c| c.is_ascii_digit()) {
                    // Decimal: scale by 100 (two fraction digits max).
                    let whole: i64 = b[start..i]
                        .iter()
                        .map(|&(_, c)| c)
                        .collect::<String>()
                        .parse()
                        .map_err(|_| ParseError::new(off, ParseErrorKind::NumberOutOfRange))?;
                    i += 1; // '.'
                    let fstart = i;
                    while i < b.len() && b[i].1.is_ascii_digit() {
                        i += 1;
                    }
                    let frac_str: String = b[fstart..i].iter().map(|&(_, c)| c).collect();
                    if frac_str.len() > 2 {
                        return Err(ParseError::new(off, ParseErrorKind::DecimalPrecision));
                    }
                    let mut frac: i64 = frac_str.parse().unwrap_or(0);
                    if frac_str.len() == 1 {
                        frac *= 10;
                    }
                    push1(Token::Decimal(whole * 100 + frac));
                } else {
                    let n: i64 = b[start..i]
                        .iter()
                        .map(|&(_, c)| c)
                        .collect::<String>()
                        .parse()
                        .map_err(|_| ParseError::new(off, ParseErrorKind::NumberOutOfRange))?;
                    push1(Token::Int(n));
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && (b[i].1.is_alphanumeric() || b[i].1 == '_') {
                    i += 1;
                }
                push1(Token::Ident(
                    b[start..i]
                        .iter()
                        .map(|&(_, c)| c)
                        .collect::<String>()
                        .to_lowercase(),
                ));
            }
            other => return Err(ParseError::new(off, ParseErrorKind::UnexpectedChar(other))),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_tokens() {
        let t = tokenize("SELECT a, b FROM t WHERE x >= 10 AND y <> 'it''s'").unwrap();
        assert!(t.contains(&Token::Ident("select".into())));
        assert!(t.contains(&Token::Ge));
        assert!(t.contains(&Token::Ne));
        assert!(t.contains(&Token::Str("it's".into())));
        assert!(t.contains(&Token::Int(10)));
    }

    #[test]
    fn decimals_scale_to_hundredths() {
        let t = tokenize("0.07 1.5 2.25").unwrap();
        assert_eq!(
            t,
            vec![Token::Decimal(7), Token::Decimal(150), Token::Decimal(225)]
        );
    }

    #[test]
    fn too_many_fraction_digits_rejected() {
        let e = tokenize_spanned("x = 0.071").unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::DecimalPrecision);
        assert_eq!(e.offset, 4, "points at the start of the literal");
        assert!(matches!(tokenize("0.071"), Err(SqlError::Lex(_))));
    }

    #[test]
    fn comments_skipped() {
        let t = tokenize("SELECT -- comment here\n 1").unwrap();
        assert_eq!(t, vec![Token::Ident("select".into()), Token::Int(1)]);
    }

    #[test]
    fn unterminated_string_rejected() {
        let e = tokenize_spanned("x = 'abc").unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::UnterminatedString);
        assert_eq!(e.offset, 4, "points at the opening quote");
        assert!(matches!(tokenize("'abc"), Err(SqlError::Lex(_))));
    }

    #[test]
    fn unexpected_character_reports_its_byte_offset() {
        let e = tokenize_spanned("select @").unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::UnexpectedChar('@'));
        assert_eq!(e.offset, 7);
        // Offsets are *byte* offsets: a multi-byte char before the
        // error shifts it by its UTF-8 width.
        let e = tokenize_spanned("'é' @").unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::UnexpectedChar('@'));
        assert_eq!(e.offset, 5, "é is two bytes plus two quotes and a space");
    }

    #[test]
    fn integer_overflow_is_a_typed_error() {
        let e = tokenize_spanned("99999999999999999999").unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::NumberOutOfRange);
        assert_eq!(e.offset, 0);
    }

    #[test]
    fn spans_track_token_starts() {
        let t = tokenize_spanned("SELECT a FROM t").unwrap();
        let offsets: Vec<usize> = t.iter().map(|s| s.offset).collect();
        assert_eq!(offsets, vec![0, 7, 9, 14]);
    }

    #[test]
    fn operators() {
        let t = tokenize("a < b <= c > d >= e = f != g").unwrap();
        assert_eq!(
            t.iter()
                .filter(|t| matches!(
                    t,
                    Token::Lt | Token::Le | Token::Gt | Token::Ge | Token::Eq | Token::Ne
                ))
                .count(),
            6
        );
    }
}
