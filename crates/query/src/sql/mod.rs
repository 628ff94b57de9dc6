//! SQL front-end: lexer, parser, binder and a generic planner.
//!
//! The paper's clients submit SQL over JDBC; this module gives ecoDB a
//! real statement path: `SELECT`-`FROM`-`WHERE`-`GROUP BY`-`ORDER BY`-
//! `LIMIT` over the TPC-H catalog, with implicit (comma + `WHERE`
//! equality) joins planned greedily by estimated cardinality. TPC-H Q5
//! as published parses and plans directly (see the tests).
//!
//! Conventions: the storage layer keeps money in integer cents and
//! percentages in integer hundredths, so SQL literals follow suit
//! (`l_discount <= 7` means 7 %). Decimal literals are scaled by 100
//! (`0.07` ⇒ 7). Dates are written `DATE '1994-01-01'`.

pub mod ast;
pub mod dml;
pub mod lexer;
pub mod parser;
pub mod plan;

pub use ast::{
    BinOp, DeleteStmt, InsertStmt, SelectItem, SelectStmt, SqlExpr, Statement, UpdateStmt,
};
pub use dml::{execute_dml, DmlOutcome};
pub use lexer::{tokenize, Token};
pub use parser::{parse_select, parse_statement};
pub use plan::plan_select;

/// Where and how lexing or parsing failed: a typed reason plus the
/// byte offset into the original SQL text where it was detected, so a
/// client can point at the offending character instead of grepping a
/// prose message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset into the SQL string (equals the string's length
    /// when the input ended too early).
    pub offset: usize,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

impl ParseError {
    /// An error of `kind` detected at byte `offset`.
    pub fn new(offset: usize, kind: ParseErrorKind) -> Self {
        Self { offset, kind }
    }
}

/// The ways lexing or parsing can fail.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseErrorKind {
    /// A character no SQL token can start with.
    UnexpectedChar(char),
    /// A string literal with no closing quote.
    UnterminatedString,
    /// An integer literal that overflows `i64`.
    NumberOutOfRange,
    /// A decimal literal with more than two fraction digits (storage
    /// keeps money and percentages in integer hundredths).
    DecimalPrecision,
    /// A malformed `DATE 'YYYY-MM-DD'` literal.
    BadDate(String),
    /// The parser required one construct and saw another.
    Unexpected {
        /// What the grammar required here.
        expected: String,
        /// The token actually found (or "end of input").
        found: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            ParseErrorKind::UnexpectedChar(c) => write!(f, "unexpected character {c:?}")?,
            ParseErrorKind::UnterminatedString => write!(f, "unterminated string literal")?,
            ParseErrorKind::NumberOutOfRange => write!(f, "integer literal out of range")?,
            ParseErrorKind::DecimalPrecision => write!(
                f,
                "decimal has more than 2 fraction digits (storage keeps hundredths)"
            )?,
            ParseErrorKind::BadDate(s) => write!(f, "bad date literal {s:?}")?,
            ParseErrorKind::Unexpected { expected, found } => {
                write!(f, "expected {expected}, found {found}")?
            }
        }
        write!(f, " at byte {}", self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Errors from the SQL path.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// Lexical error, with the byte offset of the offending character.
    Lex(ParseError),
    /// Parse error, with the byte offset of the offending token.
    Parse(ParseError),
    /// Binder/planner error (unknown table/column, unsupported shape).
    Bind(String),
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlError::Lex(e) => write!(f, "lexical error: {e}"),
            SqlError::Parse(e) => write!(f, "parse error: {e}"),
            SqlError::Bind(m) => write!(f, "binding error: {m}"),
        }
    }
}

impl std::error::Error for SqlError {}

/// Parse and plan a SQL `SELECT` against a catalog in one step.
pub fn compile(catalog: &eco_storage::Catalog, sql: &str) -> Result<crate::ops::BoxedOp, SqlError> {
    let stmt = parse_select(sql)?;
    plan_select(catalog, &stmt)
}
