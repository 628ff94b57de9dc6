//! Recursive-descent SQL parser.
//!
//! Every error is a typed [`ParseError`]: what the grammar required,
//! what was found, and the byte offset of the offending token in the
//! original SQL text (the end of the string when input ran out).
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! stmt     := select | CREATE INDEX name ON name '(' name ')'
//!           | INSERT INTO name ['(' name (',' name)* ')']
//!             VALUES row (',' row)*         where row := '(' or_expr (',' or_expr)* ')'
//!           | UPDATE name SET name '=' or_expr (',' name '=' or_expr)* [WHERE or_expr]
//!           | DELETE FROM name [WHERE or_expr]
//! select   := SELECT items FROM name (',' name)*
//!             [WHERE or_expr] [GROUP BY name (',' name)*]
//!             [ORDER BY key (',' key)*] [LIMIT int] [';']
//! items    := '*' | item (',' item)*
//! item     := or_expr [AS ident | ident]
//! or_expr  := and_expr (OR and_expr)*
//! and_expr := not_expr (AND not_expr)*
//! not_expr := NOT not_expr | cmp
//! cmp      := add ((=|<>|<|<=|>|>=) add
//!           | BETWEEN add AND add | IN '(' add (',' add)* ')')?
//! add      := mul (('+'|'-') mul)*
//! mul      := atom (('*'|'/') atom)*
//! atom     := int | decimal | string | DATE string | '(' or_expr ')'
//!           | SUM|COUNT|MIN|MAX|AVG '(' (or_expr | '*') ')'
//!           | ident ['.' ident]
//! ```

use super::ast::{
    BinOp, DeleteStmt, InsertStmt, OrderKey, SelectItem, SelectStmt, SqlExpr, Statement, UpdateStmt,
};
use super::lexer::{tokenize_spanned, Spanned, Token};
use super::{ParseError, ParseErrorKind, SqlError};
use crate::expr::AggFunc;
use eco_tpch::Date;

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// Byte length of the SQL text — the offset reported when the
    /// input ends before the grammar is satisfied.
    end: usize,
}

/// Parse one `SELECT` statement.
pub fn parse_select(sql: &str) -> Result<SelectStmt, SqlError> {
    let mut p = Parser {
        toks: tokenize_spanned(sql).map_err(SqlError::Lex)?,
        pos: 0,
        end: sql.len(),
    };
    let stmt = p.select()?;
    p.eat_if(&Token::Semi);
    if !p.at_end() {
        return Err(p.err("end of input"));
    }
    Ok(stmt)
}

/// Parse one statement: a `SELECT`, `CREATE INDEX name ON table
/// (column)`, or one of the DML forms (`INSERT`/`UPDATE`/`DELETE`).
pub fn parse_statement(sql: &str) -> Result<Statement, SqlError> {
    let mut p = Parser {
        toks: tokenize_spanned(sql).map_err(SqlError::Lex)?,
        pos: 0,
        end: sql.len(),
    };
    let stmt = if p.peek_keyword("create") {
        p.create_index()?
    } else if p.peek_keyword("insert") {
        p.insert()?
    } else if p.peek_keyword("update") {
        p.update()?
    } else if p.peek_keyword("delete") {
        p.delete()?
    } else {
        Statement::Select(p.select()?)
    };
    p.eat_if(&Token::Semi);
    if !p.at_end() {
        return Err(p.err("end of input"));
    }
    Ok(stmt)
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Byte offset of the current token (end of text when exhausted).
    fn offset(&self) -> usize {
        self.toks.get(self.pos).map_or(self.end, |s| s.offset)
    }

    /// A typed "expected X, found Y" error anchored at the current
    /// token's byte offset.
    fn err(&self, expected: impl Into<String>) -> SqlError {
        SqlError::Parse(ParseError::new(
            self.offset(),
            ParseErrorKind::Unexpected {
                expected: expected.into(),
                found: self
                    .peek()
                    .map_or("end of input".to_string(), |t| format!("{t:?}")),
            },
        ))
    }

    fn eat_if(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn keyword(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s == kw {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.keyword(kw) {
            Ok(())
        } else {
            Err(self.err(kw.to_uppercase()))
        }
    }

    fn expect(&mut self, t: Token) -> Result<(), SqlError> {
        if self.eat_if(&t) {
            Ok(())
        } else {
            Err(self.err(format!("{t:?}")))
        }
    }

    fn ident(&mut self) -> Result<String, SqlError> {
        if let Some(Token::Ident(s)) = self.peek() {
            let s = s.clone();
            self.pos += 1;
            Ok(s)
        } else {
            Err(self.err("identifier"))
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s == kw)
    }

    /// `CREATE INDEX name ON table '(' column ')'`.
    fn create_index(&mut self) -> Result<Statement, SqlError> {
        self.expect_keyword("create")?;
        self.expect_keyword("index")?;
        let name = self.ident()?;
        self.expect_keyword("on")?;
        let table = self.ident()?;
        self.expect(Token::LParen)?;
        let column = self.ident()?;
        self.expect(Token::RParen)?;
        Ok(Statement::CreateIndex {
            name,
            table,
            column,
        })
    }

    /// `INSERT INTO table ['(' cols ')'] VALUES '(' exprs ')' (',' '(' exprs ')')*`.
    fn insert(&mut self) -> Result<Statement, SqlError> {
        self.expect_keyword("insert")?;
        self.expect_keyword("into")?;
        let table = self.ident()?;
        let mut columns = Vec::new();
        if self.eat_if(&Token::LParen) {
            columns.push(self.ident()?);
            while self.eat_if(&Token::Comma) {
                columns.push(self.ident()?);
            }
            self.expect(Token::RParen)?;
        }
        self.expect_keyword("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect(Token::LParen)?;
            let mut row = vec![self.or_expr()?];
            while self.eat_if(&Token::Comma) {
                row.push(self.or_expr()?);
            }
            self.expect(Token::RParen)?;
            rows.push(row);
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert(InsertStmt {
            table,
            columns,
            rows,
        }))
    }

    /// `UPDATE table SET col '=' expr (',' col '=' expr)* [WHERE pred]`.
    fn update(&mut self) -> Result<Statement, SqlError> {
        self.expect_keyword("update")?;
        let table = self.ident()?;
        self.expect_keyword("set")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(Token::Eq)?;
            sets.push((col, self.or_expr()?));
            if !self.eat_if(&Token::Comma) {
                break;
            }
        }
        let where_clause = if self.keyword("where") {
            Some(self.or_expr()?)
        } else {
            None
        };
        Ok(Statement::Update(UpdateStmt {
            table,
            sets,
            where_clause,
        }))
    }

    /// `DELETE FROM table [WHERE pred]`.
    fn delete(&mut self) -> Result<Statement, SqlError> {
        self.expect_keyword("delete")?;
        self.expect_keyword("from")?;
        let table = self.ident()?;
        let where_clause = if self.keyword("where") {
            Some(self.or_expr()?)
        } else {
            None
        };
        Ok(Statement::Delete(DeleteStmt {
            table,
            where_clause,
        }))
    }

    fn select(&mut self) -> Result<SelectStmt, SqlError> {
        self.expect_keyword("select")?;

        let mut items = Vec::new();
        if self.eat_if(&Token::Star) {
            items.push(SelectItem::Star);
        } else {
            loop {
                let expr = self.or_expr()?;
                let alias = if self.keyword("as") {
                    Some(self.ident()?)
                } else if let Some(Token::Ident(s)) = self.peek() {
                    // Bare alias, as long as it's not a clause keyword.
                    if !matches!(s.as_str(), "from" | "where" | "group" | "order" | "limit") {
                        Some(self.ident()?)
                    } else {
                        None
                    }
                } else {
                    None
                };
                items.push(SelectItem::Expr { expr, alias });
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
        }

        self.expect_keyword("from")?;
        let mut from = vec![self.ident()?];
        while self.eat_if(&Token::Comma) {
            from.push(self.ident()?);
        }

        let where_clause = if self.keyword("where") {
            Some(self.or_expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.keyword("group") {
            self.expect_keyword("by")?;
            group_by.push(self.ident()?);
            while self.eat_if(&Token::Comma) {
                group_by.push(self.ident()?);
            }
        }

        let mut order_by = Vec::new();
        if self.keyword("order") {
            self.expect_keyword("by")?;
            loop {
                let name = self.ident()?;
                let desc = if self.keyword("desc") {
                    true
                } else {
                    self.keyword("asc");
                    false
                };
                order_by.push(OrderKey { name, desc });
                if !self.eat_if(&Token::Comma) {
                    break;
                }
            }
        }

        let limit = if self.keyword("limit") {
            match self.peek() {
                Some(&Token::Int(n)) if n >= 0 => {
                    self.pos += 1;
                    Some(n as usize)
                }
                _ => return Err(self.err("LIMIT count")),
            }
        } else {
            None
        };

        Ok(SelectStmt {
            items,
            from,
            where_clause,
            group_by,
            order_by,
            limit,
        })
    }

    fn or_expr(&mut self) -> Result<SqlExpr, SqlError> {
        let mut lhs = self.and_expr()?;
        while self.keyword("or") {
            let rhs = self.and_expr()?;
            lhs = SqlExpr::Binary(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<SqlExpr, SqlError> {
        let mut lhs = self.not_expr()?;
        while self.peek_keyword("and") {
            self.keyword("and");
            let rhs = self.not_expr()?;
            lhs = SqlExpr::Binary(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<SqlExpr, SqlError> {
        if self.keyword("not") {
            Ok(SqlExpr::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp()
        }
    }

    fn cmp(&mut self) -> Result<SqlExpr, SqlError> {
        let lhs = self.add()?;
        let op = match self.peek() {
            Some(Token::Eq) => Some(BinOp::Eq),
            Some(Token::Ne) => Some(BinOp::Ne),
            Some(Token::Lt) => Some(BinOp::Lt),
            Some(Token::Le) => Some(BinOp::Le),
            Some(Token::Gt) => Some(BinOp::Gt),
            Some(Token::Ge) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.add()?;
            return Ok(SqlExpr::Binary(op, Box::new(lhs), Box::new(rhs)));
        }
        if self.keyword("between") {
            let lo = self.add()?;
            self.expect_keyword("and")?;
            let hi = self.add()?;
            return Ok(SqlExpr::Between(Box::new(lhs), Box::new(lo), Box::new(hi)));
        }
        if self.keyword("in") {
            self.expect(Token::LParen)?;
            let mut list = vec![self.add()?];
            while self.eat_if(&Token::Comma) {
                list.push(self.add()?);
            }
            self.expect(Token::RParen)?;
            return Ok(SqlExpr::InList(Box::new(lhs), list));
        }
        Ok(lhs)
    }

    fn add(&mut self) -> Result<SqlExpr, SqlError> {
        let mut lhs = self.mul()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.mul()?;
            lhs = SqlExpr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn mul(&mut self) -> Result<SqlExpr, SqlError> {
        let mut lhs = self.atom()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.atom()?;
            lhs = SqlExpr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn atom(&mut self) -> Result<SqlExpr, SqlError> {
        if self.at_end() {
            return Err(self.err("expression"));
        }
        match self.next() {
            Some(Token::Int(n)) => Ok(SqlExpr::Int(n)),
            Some(Token::Decimal(n)) => Ok(SqlExpr::Decimal(n)),
            Some(Token::Str(s)) => Ok(SqlExpr::Str(s)),
            Some(Token::LParen) => {
                let e = self.or_expr()?;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(id)) => match id.as_str() {
                "date" => {
                    let off = self.offset();
                    match self.next() {
                        Some(Token::Str(s)) => parse_date(&s, off).map(SqlExpr::DateLit),
                        _ => {
                            self.pos = self.pos.saturating_sub(1);
                            Err(self.err("date string after DATE"))
                        }
                    }
                }
                "sum" | "count" | "min" | "max" | "avg" => {
                    let func = match id.as_str() {
                        "sum" => AggFunc::Sum,
                        "count" => AggFunc::Count,
                        "min" => AggFunc::Min,
                        "max" => AggFunc::Max,
                        _ => AggFunc::Avg,
                    };
                    self.expect(Token::LParen)?;
                    if func == AggFunc::Count && self.eat_if(&Token::Star) {
                        self.expect(Token::RParen)?;
                        return Ok(SqlExpr::CountStar);
                    }
                    let inner = self.or_expr()?;
                    self.expect(Token::RParen)?;
                    Ok(SqlExpr::Agg(func, Box::new(inner)))
                }
                _ => {
                    if self.eat_if(&Token::Dot) {
                        let col = self.ident()?;
                        Ok(SqlExpr::Column {
                            table: Some(id),
                            name: col,
                        })
                    } else {
                        Ok(SqlExpr::Column {
                            table: None,
                            name: id,
                        })
                    }
                }
            },
            _ => {
                // Un-consume the unusable token so the error points at
                // it rather than past it.
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expression"))
            }
        }
    }
}

/// Parse `YYYY-MM-DD`. `offset` is the byte position of the date
/// string literal, carried into the error.
fn parse_date(s: &str, offset: usize) -> Result<Date, SqlError> {
    let bad = || {
        SqlError::Parse(ParseError::new(
            offset,
            ParseErrorKind::BadDate(s.to_string()),
        ))
    };
    let parts: Vec<&str> = s.split('-').collect();
    if parts.len() != 3 {
        return Err(bad());
    }
    let y: i32 = parts[0].parse().map_err(|_| bad())?;
    let m: u32 = parts[1].parse().map_err(|_| bad())?;
    let d: u32 = parts[2].parse().map_err(|_| bad())?;
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return Err(bad());
    }
    Ok(Date::from_ymd(y, m, d))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The expression and alias of a non-`*` select item.
    fn expr_item(item: &SelectItem) -> (&SqlExpr, Option<&str>) {
        match item {
            SelectItem::Expr { expr, alias } => (expr, alias.as_deref()),
            SelectItem::Star => panic!("expected an expression item, found `*`"),
        }
    }

    #[test]
    fn parses_simple_select() {
        let s = parse_select("SELECT l_orderkey FROM lineitem WHERE l_quantity = 17").unwrap();
        assert_eq!(s.from, vec!["lineitem"]);
        assert_eq!(s.items.len(), 1);
        assert!(s.where_clause.is_some());
        assert!(s.group_by.is_empty() && s.order_by.is_empty() && s.limit.is_none());
    }

    #[test]
    fn parses_star() {
        let s = parse_select("select * from region;").unwrap();
        assert_eq!(s.items, vec![SelectItem::Star]);
    }

    #[test]
    fn parses_q5_shape() -> Result<(), SqlError> {
        let s = parse_select(
            "SELECT n_name, SUM(l_extendedprice * (100 - l_discount) / 100) AS revenue \
             FROM customer, orders, lineitem, supplier, nation, region \
             WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey \
               AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey \
               AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey \
               AND r_name = 'ASIA' \
               AND o_orderdate >= DATE '1994-01-01' \
               AND o_orderdate < DATE '1995-01-01' \
             GROUP BY n_name ORDER BY revenue DESC",
        )?;
        assert_eq!(s.from.len(), 6);
        assert_eq!(s.group_by, vec!["n_name"]);
        assert_eq!(s.order_by.len(), 1);
        assert!(s.order_by[0].desc);
        let (expr, alias) = expr_item(&s.items[1]);
        assert_eq!(alias, Some("revenue"));
        assert!(expr.has_aggregate());
        Ok(())
    }

    #[test]
    fn precedence_and_parens() {
        let a = parse_select("SELECT a + b * c FROM t").unwrap();
        let b = parse_select("SELECT a + (b * c) FROM t").unwrap();
        assert_eq!(a.items, b.items);
        let c = parse_select("SELECT (a + b) * c FROM t").unwrap();
        assert_ne!(a.items, c.items);
    }

    #[test]
    fn between_and_in() {
        let s = parse_select(
            "SELECT * FROM lineitem WHERE l_discount BETWEEN 5 AND 7 AND l_quantity IN (1, 2, 3)",
        )
        .unwrap();
        let w = s.where_clause.unwrap();
        let mut cols = Vec::new();
        w.columns(&mut cols);
        assert!(cols.contains(&"l_discount".to_string()));
        assert!(cols.contains(&"l_quantity".to_string()));
    }

    #[test]
    fn qualified_columns() -> Result<(), SqlError> {
        let s = parse_select("SELECT lineitem.l_orderkey FROM lineitem")?;
        let (expr, _) = expr_item(&s.items[0]);
        assert_eq!(
            expr,
            &SqlExpr::Column {
                table: Some("lineitem".into()),
                name: "l_orderkey".into()
            }
        );
        Ok(())
    }

    #[test]
    fn count_star_and_decimal() -> Result<(), SqlError> {
        let s = parse_select("SELECT COUNT(*) FROM lineitem WHERE l_discount <= 0.07")?;
        let (expr, _) = expr_item(&s.items[0]);
        assert_eq!(expr, &SqlExpr::CountStar);
        // 0.07 scaled to hundredths.
        let w = format!("{:?}", s.where_clause.unwrap());
        assert!(w.contains("Decimal(7)"), "{w}");
        Ok(())
    }

    #[test]
    fn star_item_is_a_typed_error_not_a_panic() {
        // `*` parses; where the planner needs expressions it is a typed
        // bind error.
        let s = parse_select("SELECT * FROM t").unwrap();
        assert_eq!(s.items, vec![SelectItem::Star]);
        let db = eco_tpch::TpchGenerator::new(0.001).generate();
        let cat = eco_storage::load_tpch(&db, eco_storage::EngineKind::Memory, 0);
        let grouped = parse_select("SELECT * FROM nation GROUP BY n_name").unwrap();
        let mut mixed = parse_select("SELECT n_name FROM nation").unwrap();
        mixed.items.push(SelectItem::Star);
        for (stmt, want) in [
            (grouped, "invalid with GROUP BY"),
            (mixed, "cannot be mixed"),
        ] {
            let Err(err) = super::super::plan_select(&cat, &stmt) else {
                panic!("{want}: planned")
            };
            assert!(
                matches!(err, SqlError::Bind(ref m) if m.contains(want)),
                "{err}"
            );
        }
    }

    #[test]
    fn errors_carry_byte_offsets() {
        // Wrong keyword: offset of the offending token.
        let Err(SqlError::Parse(e)) = parse_select("SELECT a FRM t") else {
            panic!("expected a parse error")
        };
        assert_eq!(e.offset, 13, "FRM parses as a bare alias; 't' offends");
        // Input ends too early: offset == byte length of the text.
        let sql = "SELECT a FROM";
        let Err(SqlError::Parse(e)) = parse_select(sql) else {
            panic!("expected a parse error")
        };
        assert_eq!(e.offset, sql.len());
        assert!(matches!(
            e.kind,
            ParseErrorKind::Unexpected { ref found, .. } if found == "end of input"
        ));
        // Trailing input: offset of the first surplus token.
        let Err(SqlError::Parse(e)) = parse_select("SELECT a FROM t WHERE x = 1 2") else {
            panic!("expected a parse error")
        };
        assert_eq!(e.offset, 28);
        // Bad date: offset of the string literal, kind carries it.
        let Err(SqlError::Parse(e)) = parse_select("SELECT DATE '1994-13-01' FROM t") else {
            panic!("expected a parse error")
        };
        assert_eq!(e.offset, 12);
        assert_eq!(e.kind, ParseErrorKind::BadDate("1994-13-01".into()));
    }

    #[test]
    fn error_paths() {
        assert!(parse_select("FROM t").is_err());
        assert!(parse_select("SELECT a FROM").is_err());
        assert!(parse_select("SELECT a FROM t WHERE").is_err());
        assert!(parse_select("SELECT a FROM t LIMIT x").is_err());
        assert!(parse_select("SELECT a FROM t extra junk").is_err());
        assert!(parse_select("SELECT DATE 'not-a-date' FROM t").is_err());
        assert!(parse_select("SELECT a FROM t WHERE d = DATE '1994-13-01'").is_err());
    }

    #[test]
    fn malformed_inputs_return_parse_errors() {
        // Every one of these must produce Err(SqlError::…), never a
        // panic inside the lexer/parser.
        let malformed = [
            "",
            "SELECT",
            "SELECT FROM t",
            "SELECT SUM( FROM t",
            "SELECT SUM(a FROM t",
            "SELECT a FROM t WHERE x BETWEEN 1",
            "SELECT a FROM t WHERE x BETWEEN 1 OR 2",
            "SELECT a FROM t WHERE x IN",
            "SELECT a FROM t WHERE x IN ()",
            "SELECT a FROM t WHERE x IN (1, 2",
            "SELECT t. FROM t",
            "SELECT (a + b FROM t",
            "SELECT a FROM t GROUP BY",
            "SELECT a FROM t ORDER BY",
            "SELECT a FROM t LIMIT -3",
            "SELECT a, FROM t",
            "SELECT DATE FROM t",
            "SELECT a FROM t WHERE NOT",
        ];
        for sql in malformed {
            let r = parse_select(sql);
            assert!(r.is_err(), "{sql:?} parsed as {r:?}");
        }
    }

    #[test]
    fn parses_create_index_and_routes_selects() {
        let s = parse_statement("CREATE INDEX ix_li_qty ON lineitem (l_quantity);").unwrap();
        assert_eq!(
            s,
            Statement::CreateIndex {
                name: "ix_li_qty".into(),
                table: "lineitem".into(),
                column: "l_quantity".into(),
            }
        );
        let s = parse_statement("SELECT a FROM t").unwrap();
        assert!(matches!(s, Statement::Select(_)));
        for bad in [
            "CREATE",
            "CREATE INDEX",
            "CREATE INDEX i",
            "CREATE INDEX i ON",
            "CREATE INDEX i ON t",
            "CREATE INDEX i ON t (",
            "CREATE INDEX i ON t (c",
            "CREATE INDEX i ON t (c) junk",
            "CREATE TABLE t (c)",
        ] {
            assert!(parse_statement(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn parses_dml_statements() {
        let s =
            parse_statement("INSERT INTO region (r_regionkey, r_name) VALUES (5, 'X'), (6, 'Y');")
                .unwrap();
        let Statement::Insert(i) = s else {
            panic!("expected insert")
        };
        assert_eq!(i.table, "region");
        assert_eq!(i.columns, vec!["r_regionkey", "r_name"]);
        assert_eq!(i.rows.len(), 2);
        assert_eq!(i.rows[1], vec![SqlExpr::Int(6), SqlExpr::Str("Y".into())]);

        let s = parse_statement("UPDATE t SET a = a + 1, b = 'x' WHERE k < 3").unwrap();
        let Statement::Update(u) = s else {
            panic!("expected update")
        };
        assert_eq!(u.sets.len(), 2);
        assert_eq!(u.sets[1].0, "b");
        assert!(u.where_clause.is_some());

        let s = parse_statement("DELETE FROM t").unwrap();
        let Statement::Delete(d) = s else {
            panic!("expected delete")
        };
        assert_eq!(d.table, "t");
        assert!(d.where_clause.is_none());

        for bad in [
            "INSERT",
            "INSERT INTO",
            "INSERT INTO t",
            "INSERT INTO t VALUES",
            "INSERT INTO t VALUES (",
            "INSERT INTO t VALUES ()",
            "INSERT INTO t (a, ) VALUES (1)",
            "INSERT INTO t VALUES (1), junk",
            "UPDATE",
            "UPDATE t",
            "UPDATE t SET",
            "UPDATE t SET a",
            "UPDATE t SET a = ",
            "DELETE",
            "DELETE FROM",
            "DELETE t WHERE x = 1",
        ] {
            assert!(parse_statement(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn order_by_asc_desc_and_limit() {
        let s = parse_select("SELECT a, b FROM t ORDER BY a ASC, b DESC LIMIT 10").unwrap();
        assert!(!s.order_by[0].desc);
        assert!(s.order_by[1].desc);
        assert_eq!(s.limit, Some(10));
    }
}
