//! SQL abstract syntax.

use crate::expr::AggFunc;
use eco_tpch::Date;

/// Binary operators (comparison, boolean, arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// A SQL scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    /// Column reference (bare TPC-H names are globally unique; an
    /// optional `table.` qualifier is accepted and checked).
    Column {
        /// Optional table qualifier.
        table: Option<String>,
        /// Column name.
        name: String,
    },
    /// Integer literal.
    Int(i64),
    /// Decimal literal pre-scaled to hundredths.
    Decimal(i64),
    /// String literal.
    Str(String),
    /// `DATE 'YYYY-MM-DD'` literal.
    DateLit(Date),
    /// Binary operation.
    Binary(BinOp, Box<SqlExpr>, Box<SqlExpr>),
    /// `NOT expr`.
    Not(Box<SqlExpr>),
    /// `expr BETWEEN lo AND hi` (inclusive).
    Between(Box<SqlExpr>, Box<SqlExpr>, Box<SqlExpr>),
    /// `expr IN (v1, v2, ...)`.
    InList(Box<SqlExpr>, Vec<SqlExpr>),
    /// Aggregate call, e.g. `SUM(expr)`.
    Agg(AggFunc, Box<SqlExpr>),
    /// `COUNT(*)`.
    CountStar,
}

impl SqlExpr {
    /// Bare column reference.
    pub fn col(name: &str) -> SqlExpr {
        SqlExpr::Column {
            table: None,
            name: name.to_string(),
        }
    }

    /// True when the expression contains an aggregate call.
    pub(crate) fn has_aggregate(&self) -> bool {
        match self {
            SqlExpr::Agg(..) | SqlExpr::CountStar => true,
            SqlExpr::Binary(_, l, r) => l.has_aggregate() || r.has_aggregate(),
            SqlExpr::Not(e) => e.has_aggregate(),
            SqlExpr::Between(a, b, c) => {
                a.has_aggregate() || b.has_aggregate() || c.has_aggregate()
            }
            SqlExpr::InList(e, list) => {
                e.has_aggregate() || list.iter().any(SqlExpr::has_aggregate)
            }
            _ => false,
        }
    }

    /// Collect every column name referenced.
    pub fn columns(&self, out: &mut Vec<String>) {
        match self {
            SqlExpr::Column { name, .. } => out.push(name.clone()),
            SqlExpr::Binary(_, l, r) => {
                l.columns(out);
                r.columns(out);
            }
            SqlExpr::Not(e) | SqlExpr::Agg(_, e) => e.columns(out),
            SqlExpr::Between(a, b, c) => {
                a.columns(out);
                b.columns(out);
                c.columns(out);
            }
            SqlExpr::InList(e, list) => {
                e.columns(out);
                for l in list {
                    l.columns(out);
                }
            }
            _ => {}
        }
    }
}

/// One item in the `SELECT` list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Star,
    /// `expr [AS alias]`
    Expr {
        /// The expression.
        expr: SqlExpr,
        /// Optional output name.
        alias: Option<String>,
    },
}

/// An `ORDER BY` key: output column name + direction.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Output column (select alias or column name).
    pub name: String,
    /// Descending when true.
    pub desc: bool,
}

/// A parsed SQL statement: a query, one of the DDL forms, or a DML
/// mutation (write-ahead logged; ledger schema v5).
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `SELECT ...`
    Select(SelectStmt),
    /// `CREATE INDEX name ON table (column)` — builds a B-tree
    /// secondary index (ledger schema v4; disk tables only).
    CreateIndex {
        /// Index name.
        name: String,
        /// Indexed table.
        table: String,
        /// Indexed column (single-column indexes only).
        column: String,
    },
    /// `INSERT INTO table [(cols)] VALUES (...), ...`
    Insert(InsertStmt),
    /// `UPDATE table SET col = expr, ... [WHERE pred]`
    Update(UpdateStmt),
    /// `DELETE FROM table [WHERE pred]`
    Delete(DeleteStmt),
}

/// A parsed `INSERT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertStmt {
    /// Target table.
    pub table: String,
    /// Explicit column list; empty means schema order.
    pub columns: Vec<String>,
    /// One expression row per `VALUES` tuple.
    pub rows: Vec<Vec<SqlExpr>>,
}

/// A parsed `UPDATE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStmt {
    /// Target table.
    pub table: String,
    /// `SET` assignments, in statement order.
    pub sets: Vec<(String, SqlExpr)>,
    /// Optional row filter; `None` updates every row.
    pub where_clause: Option<SqlExpr>,
}

/// A parsed `DELETE` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteStmt {
    /// Target table.
    pub table: String,
    /// Optional row filter; `None` deletes every row.
    pub where_clause: Option<SqlExpr>,
}

/// A parsed `SELECT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// Select list.
    pub items: Vec<SelectItem>,
    /// Table names in `FROM` (comma list; joins come from `WHERE`).
    pub from: Vec<String>,
    /// `WHERE` predicate.
    pub where_clause: Option<SqlExpr>,
    /// `GROUP BY` column names.
    pub group_by: Vec<String>,
    /// `ORDER BY` keys.
    pub order_by: Vec<OrderKey>,
    /// `LIMIT`.
    pub limit: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_detection() {
        let plain = SqlExpr::Binary(
            BinOp::Add,
            Box::new(SqlExpr::col("a")),
            Box::new(SqlExpr::Int(1)),
        );
        assert!(!plain.has_aggregate());
        let agg = SqlExpr::Binary(
            BinOp::Mul,
            Box::new(SqlExpr::Agg(AggFunc::Sum, Box::new(SqlExpr::col("a")))),
            Box::new(SqlExpr::Int(2)),
        );
        assert!(agg.has_aggregate());
        assert!(SqlExpr::CountStar.has_aggregate());
    }

    #[test]
    fn column_collection() {
        let e = SqlExpr::Between(
            Box::new(SqlExpr::col("x")),
            Box::new(SqlExpr::col("lo")),
            Box::new(SqlExpr::Int(5)),
        );
        let mut cols = Vec::new();
        e.columns(&mut cols);
        assert_eq!(cols, vec!["x", "lo"]);
    }
}
