//! Values, tuples and schemas.
//!
//! The type system is deliberately small — exactly what TPC-H needs:
//! 64-bit integers (keys, quantities, fixed-point money in cents),
//! strings, calendar dates (day offsets) and single characters (status
//! flags). Comparisons between values of the same type are total, which
//! the expression evaluator relies on.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit integer (also fixed-point money in cents).
    Int,
    /// Variable-length string.
    Str,
    /// Calendar date as days since the TPC-H epoch.
    Date,
    /// Single character (status flags).
    Char,
    /// Boolean (expression results; no TPC-H column uses it).
    Bool,
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// Integer / money.
    Int(i64),
    /// String (shared — tuples are copied freely during execution).
    Str(Arc<str>),
    /// Date as a day offset.
    Date(i32),
    /// Single character.
    Char(char),
    /// Boolean (produced by predicates).
    Bool(bool),
}

impl Value {
    /// Type of this value.
    pub fn column_type(&self) -> ColumnType {
        match self {
            Value::Int(_) => ColumnType::Int,
            Value::Str(_) => ColumnType::Str,
            Value::Date(_) => ColumnType::Date,
            Value::Char(_) => ColumnType::Char,
            Value::Bool(_) => ColumnType::Bool,
        }
    }

    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Date payload, if this is a `Date`.
    pub fn as_date(&self) -> Option<i32> {
        match self {
            Value::Date(d) => Some(*d),
            _ => None,
        }
    }

    /// Boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Approximate stored width in bytes (drives scan byte accounting).
    pub(crate) fn width_bytes(&self) -> u64 {
        match self {
            Value::Int(_) => 8,
            Value::Str(s) => 2 + s.len() as u64,
            Value::Date(_) => 4,
            Value::Char(_) => 1,
            Value::Bool(_) => 1,
        }
    }

    /// Total order within a type; `None` across types.
    pub fn partial_cmp_typed(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            (Value::Char(a), Value::Char(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

/// Honours the formatter's width, fill and alignment (`{:<12}`).
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => fmt::Display::fmt(i, f),
            Value::Str(s) => f.pad(s),
            Value::Date(d) => f.pad(&format!("@{d}")),
            Value::Char(c) => fmt::Display::fmt(c, f),
            Value::Bool(b) => fmt::Display::fmt(b, f),
        }
    }
}

/// A tuple: one row of values.
pub type Tuple = Vec<Value>;

/// Stored width of a tuple in bytes.
pub fn tuple_width(t: &Tuple) -> u64 {
    2 + t.iter().map(Value::width_bytes).sum::<u64>()
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (lower-case TPC-H convention, e.g. `l_quantity`).
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
}

/// An ordered set of columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Schema from `(name, type)` pairs.
    pub fn new(cols: &[(&str, ColumnType)]) -> Self {
        let columns = cols
            .iter()
            .map(|(n, t)| Column {
                name: (*n).to_string(),
                ty: *t,
            })
            .collect();
        Self { columns }
    }

    /// Columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Index of a column by name, panicking with a useful message if
    /// absent (planner-internal use where absence is a bug).
    pub fn expect_index(&self, name: &str) -> usize {
        self.index_of(name)
            .unwrap_or_else(|| panic!("no column named {name:?} in schema {:?}", self.names()))
    }

    /// All column names.
    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Concatenate two schemas (join output).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        Schema { columns }
    }

    /// Project a subset of columns by index.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema {
            columns: indices.iter().map(|&i| self.columns[i].clone()).collect(),
        }
    }

    /// Validate a tuple against this schema.
    pub fn check(&self, t: &Tuple) -> bool {
        t.len() == self.columns.len()
            && t.iter()
                .zip(&self.columns)
                .all(|(v, c)| v.column_type() == c.ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(&[
            ("id", ColumnType::Int),
            ("name", ColumnType::Str),
            ("d", ColumnType::Date),
            ("flag", ColumnType::Char),
        ])
    }

    #[test]
    fn display_honours_width_and_alignment() {
        assert_eq!(format!("{:<9}|", Value::str("PERU")), "PERU     |");
        assert_eq!(format!("{:>6}|", Value::Int(-42)), "   -42|");
        assert_eq!(format!("{}", Value::Date(3)), "@3");
    }

    #[test]
    fn index_lookup() {
        let s = schema();
        assert_eq!(s.index_of("name"), Some(1));
        assert_eq!(s.index_of("nope"), None);
        assert_eq!(s.expect_index("flag"), 3);
        assert_eq!(s.arity(), 4);
    }

    #[test]
    #[should_panic(expected = "no column named")]
    fn expect_index_panics_with_context() {
        schema().expect_index("missing");
    }

    #[test]
    fn tuple_check() {
        let s = schema();
        let good: Tuple = vec![
            Value::Int(1),
            Value::str("x"),
            Value::Date(10),
            Value::Char('A'),
        ];
        let bad: Tuple = vec![
            Value::Int(1),
            Value::Int(2),
            Value::Date(10),
            Value::Char('A'),
        ];
        assert!(s.check(&good));
        assert!(!s.check(&bad));
        assert!(!s.check(&good[..3].to_vec()));
    }

    #[test]
    fn value_ordering_within_types() {
        assert_eq!(
            Value::Int(1).partial_cmp_typed(&Value::Int(2)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::str("b").partial_cmp_typed(&Value::str("a")),
            Some(Ordering::Greater)
        );
        assert_eq!(Value::Int(1).partial_cmp_typed(&Value::str("a")), None);
    }

    #[test]
    fn join_and_project() {
        let a = Schema::new(&[("x", ColumnType::Int)]);
        let b = Schema::new(&[("y", ColumnType::Str)]);
        let j = a.join(&b);
        assert_eq!(j.arity(), 2);
        assert_eq!(j.names(), vec!["x", "y"]);
        let p = j.project(&[1]);
        assert_eq!(p.names(), vec!["y"]);
    }

    #[test]
    fn widths() {
        assert_eq!(Value::Int(5).width_bytes(), 8);
        assert_eq!(Value::str("abc").width_bytes(), 5);
        let t: Tuple = vec![Value::Int(1), Value::str("ab")];
        assert_eq!(tuple_width(&t), 2 + 8 + 4);
    }
}
