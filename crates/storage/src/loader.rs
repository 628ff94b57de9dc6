//! Load a TPC-H database into a catalog, under either engine profile —
//! from the in-memory generator ([`load_tpch`]) or from dbgen-style
//! pipe-delimited `.tbl` text ([`parse_tbl`] / [`load_tbl`]).
//!
//! Schemas follow TPC-H column naming; money is `Int` cents, dates are
//! `Date` day offsets (see `eco-tpch::rows` for the conventions).
//!
//! The text path never panics on malformed input: a truncated file, a
//! record with the wrong field count, or an unparsable field comes
//! back as a typed [`LoadError`] carrying the table name and 1-based
//! line number, and the catalog is left without the broken table.

use eco_tpch::TpchDb;

use crate::catalog::Catalog;
use crate::heap::HeapTable;
use crate::intern::Interner;
use crate::value::{Column, ColumnType as T, Schema, Tuple, Value};

/// Which storage profile to load into (the paper's two systems).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// MySQL-memory-engine profile: all tables in heap storage.
    Memory,
    /// Commercial-disk-DBMS profile: all tables paged behind the pool.
    Disk,
}

impl EngineKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Memory => "memory",
            EngineKind::Disk => "disk",
        }
    }
}

/// Schema of the `region` table.
pub fn region_schema() -> Schema {
    Schema::new(&[
        ("r_regionkey", T::Int),
        ("r_name", T::Str),
        ("r_comment", T::Str),
    ])
}

/// Schema of the `nation` table.
pub fn nation_schema() -> Schema {
    Schema::new(&[
        ("n_nationkey", T::Int),
        ("n_name", T::Str),
        ("n_regionkey", T::Int),
        ("n_comment", T::Str),
    ])
}

/// Schema of the `supplier` table.
pub fn supplier_schema() -> Schema {
    Schema::new(&[
        ("s_suppkey", T::Int),
        ("s_name", T::Str),
        ("s_address", T::Str),
        ("s_nationkey", T::Int),
        ("s_phone", T::Str),
        ("s_acctbal", T::Int),
        ("s_comment", T::Str),
    ])
}

/// Schema of the `customer` table.
pub fn customer_schema() -> Schema {
    Schema::new(&[
        ("c_custkey", T::Int),
        ("c_name", T::Str),
        ("c_address", T::Str),
        ("c_nationkey", T::Int),
        ("c_phone", T::Str),
        ("c_acctbal", T::Int),
        ("c_mktsegment", T::Str),
        ("c_comment", T::Str),
    ])
}

/// Schema of the `part` table.
pub fn part_schema() -> Schema {
    Schema::new(&[
        ("p_partkey", T::Int),
        ("p_name", T::Str),
        ("p_mfgr", T::Str),
        ("p_brand", T::Str),
        ("p_type", T::Str),
        ("p_size", T::Int),
        ("p_container", T::Str),
        ("p_retailprice", T::Int),
        ("p_comment", T::Str),
    ])
}

/// Schema of the `partsupp` table.
pub fn partsupp_schema() -> Schema {
    Schema::new(&[
        ("ps_partkey", T::Int),
        ("ps_suppkey", T::Int),
        ("ps_availqty", T::Int),
        ("ps_supplycost", T::Int),
        ("ps_comment", T::Str),
    ])
}

/// Schema of the `orders` table.
pub fn orders_schema() -> Schema {
    Schema::new(&[
        ("o_orderkey", T::Int),
        ("o_custkey", T::Int),
        ("o_orderstatus", T::Char),
        ("o_totalprice", T::Int),
        ("o_orderdate", T::Date),
        ("o_orderpriority", T::Str),
        ("o_clerk", T::Str),
        ("o_shippriority", T::Int),
        ("o_comment", T::Str),
    ])
}

/// Schema of the `lineitem` table.
pub fn lineitem_schema() -> Schema {
    Schema::new(&[
        ("l_orderkey", T::Int),
        ("l_partkey", T::Int),
        ("l_suppkey", T::Int),
        ("l_linenumber", T::Int),
        ("l_quantity", T::Int),
        ("l_extendedprice", T::Int),
        ("l_discount", T::Int),
        ("l_tax", T::Int),
        ("l_returnflag", T::Char),
        ("l_linestatus", T::Char),
        ("l_shipdate", T::Date),
        ("l_commitdate", T::Date),
        ("l_receiptdate", T::Date),
        ("l_shipinstruct", T::Str),
        ("l_shipmode", T::Str),
        ("l_comment", T::Str),
    ])
}

// The row builders intern their string columns, numbered in schema
// order: the repeats of `l_shipmode`, `o_clerk`, `p_type` and the like
// share one `Arc<str>` per distinct value on either profile, and a
// column that does not repeat stops being looked up after a few hundred
// rows (see `crate::intern`).

fn region_rows(db: &TpchDb) -> impl Iterator<Item = Tuple> + '_ {
    let mut strs: [Interner; 2] = Default::default();
    db.region.iter().map(move |r| {
        vec![
            Value::Int(r.r_regionkey),
            Value::Str(strs[0].intern(&r.r_name)),
            Value::Str(strs[1].intern(&r.r_comment)),
        ]
    })
}

fn nation_rows(db: &TpchDb) -> impl Iterator<Item = Tuple> + '_ {
    let mut strs: [Interner; 2] = Default::default();
    db.nation.iter().map(move |n| {
        vec![
            Value::Int(n.n_nationkey),
            Value::Str(strs[0].intern(&n.n_name)),
            Value::Int(n.n_regionkey),
            Value::Str(strs[1].intern(&n.n_comment)),
        ]
    })
}

fn supplier_rows(db: &TpchDb) -> impl Iterator<Item = Tuple> + '_ {
    let mut strs: [Interner; 4] = Default::default();
    db.supplier.iter().map(move |s| {
        vec![
            Value::Int(s.s_suppkey),
            Value::Str(strs[0].intern(&s.s_name)),
            Value::Str(strs[1].intern(&s.s_address)),
            Value::Int(s.s_nationkey),
            Value::Str(strs[2].intern(&s.s_phone)),
            Value::Int(s.s_acctbal),
            Value::Str(strs[3].intern(&s.s_comment)),
        ]
    })
}

fn customer_rows(db: &TpchDb) -> impl Iterator<Item = Tuple> + '_ {
    let mut strs: [Interner; 5] = Default::default();
    db.customer.iter().map(move |c| {
        vec![
            Value::Int(c.c_custkey),
            Value::Str(strs[0].intern(&c.c_name)),
            Value::Str(strs[1].intern(&c.c_address)),
            Value::Int(c.c_nationkey),
            Value::Str(strs[2].intern(&c.c_phone)),
            Value::Int(c.c_acctbal),
            Value::Str(strs[3].intern(&c.c_mktsegment)),
            Value::Str(strs[4].intern(&c.c_comment)),
        ]
    })
}

fn part_rows(db: &TpchDb) -> impl Iterator<Item = Tuple> + '_ {
    let mut strs: [Interner; 6] = Default::default();
    db.part.iter().map(move |p| {
        vec![
            Value::Int(p.p_partkey),
            Value::Str(strs[0].intern(&p.p_name)),
            Value::Str(strs[1].intern(&p.p_mfgr)),
            Value::Str(strs[2].intern(&p.p_brand)),
            Value::Str(strs[3].intern(&p.p_type)),
            Value::Int(p.p_size),
            Value::Str(strs[4].intern(&p.p_container)),
            Value::Int(p.p_retailprice),
            Value::Str(strs[5].intern(&p.p_comment)),
        ]
    })
}

fn partsupp_rows(db: &TpchDb) -> impl Iterator<Item = Tuple> + '_ {
    let mut strs: [Interner; 1] = Default::default();
    db.partsupp.iter().map(move |ps| {
        vec![
            Value::Int(ps.ps_partkey),
            Value::Int(ps.ps_suppkey),
            Value::Int(ps.ps_availqty),
            Value::Int(ps.ps_supplycost),
            Value::Str(strs[0].intern(&ps.ps_comment)),
        ]
    })
}

fn orders_rows(db: &TpchDb) -> impl Iterator<Item = Tuple> + '_ {
    let mut strs: [Interner; 3] = Default::default();
    db.orders.iter().map(move |o| {
        vec![
            Value::Int(o.o_orderkey),
            Value::Int(o.o_custkey),
            Value::Char(o.o_orderstatus),
            Value::Int(o.o_totalprice),
            Value::Date(o.o_orderdate.0),
            Value::Str(strs[0].intern(&o.o_orderpriority)),
            Value::Str(strs[1].intern(&o.o_clerk)),
            Value::Int(o.o_shippriority),
            Value::Str(strs[2].intern(&o.o_comment)),
        ]
    })
}

fn lineitem_rows(db: &TpchDb) -> impl Iterator<Item = Tuple> + '_ {
    let mut strs: [Interner; 3] = Default::default();
    db.lineitem.iter().map(move |l| {
        vec![
            Value::Int(l.l_orderkey),
            Value::Int(l.l_partkey),
            Value::Int(l.l_suppkey),
            Value::Int(l.l_linenumber),
            Value::Int(l.l_quantity),
            Value::Int(l.l_extendedprice),
            Value::Int(l.l_discount),
            Value::Int(l.l_tax),
            Value::Char(l.l_returnflag),
            Value::Char(l.l_linestatus),
            Value::Date(l.l_shipdate.0),
            Value::Date(l.l_commitdate.0),
            Value::Date(l.l_receiptdate.0),
            Value::Str(strs[0].intern(&l.l_shipinstruct)),
            Value::Str(strs[1].intern(&l.l_shipmode)),
            Value::Str(strs[2].intern(&l.l_comment)),
        ]
    })
}

/// Register `rows` as table `name` under the given engine profile,
/// consuming them one at a time: heap tables push straight into their
/// columns, paged tables pack pages as the rows arrive.
fn add_table(
    cat: &mut Catalog,
    kind: EngineKind,
    name: &str,
    schema: Schema,
    rows: impl Iterator<Item = Tuple>,
) {
    match kind {
        EngineKind::Memory => cat.add_memory_table(name, HeapTable::from_tuples(schema, rows)),
        EngineKind::Disk => cat.add_disk_table(name, schema, rows),
    }
}

/// Load a TPC-H database into a fresh catalog under the given engine
/// profile. `pool_pages` sizes the buffer pool (ignored by the memory
/// engine, which never touches it). Tables load one after the other,
/// each streamed from the source rows, so no table ever exists as a
/// vector of tuples on the way in.
pub fn load_tpch(db: &TpchDb, kind: EngineKind, pool_pages: usize) -> Catalog {
    let mut cat = Catalog::new(pool_pages);
    let c = &mut cat;
    add_table(c, kind, "region", region_schema(), region_rows(db));
    add_table(c, kind, "nation", nation_schema(), nation_rows(db));
    add_table(c, kind, "supplier", supplier_schema(), supplier_rows(db));
    add_table(c, kind, "customer", customer_schema(), customer_rows(db));
    add_table(c, kind, "part", part_schema(), part_rows(db));
    add_table(c, kind, "partsupp", partsupp_schema(), partsupp_rows(db));
    add_table(c, kind, "orders", orders_schema(), orders_rows(db));
    add_table(c, kind, "lineitem", lineitem_schema(), lineitem_rows(db));
    cat
}

/// Why loading a pipe-delimited `.tbl` text table failed. Every
/// variant carries the table name and the 1-based line number of the
/// offending record, so a bad or cut-short dump is reported instead of
/// panicking mid-load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The input ended mid-record: a non-empty line without the
    /// dbgen-style terminating `|` (the signature of a truncated file).
    Truncated {
        /// Table being loaded.
        table: String,
        /// 1-based line number of the cut-off record.
        line: usize,
    },
    /// A record had the wrong number of fields for the table's schema.
    WrongArity {
        /// Table being loaded.
        table: String,
        /// 1-based line number.
        line: usize,
        /// Fields the schema requires.
        want: usize,
        /// Fields the record actually had.
        got: usize,
    },
    /// A field failed to parse as its column's type.
    BadField {
        /// Table being loaded.
        table: String,
        /// 1-based line number.
        line: usize,
        /// Column whose value was malformed.
        column: String,
        /// The raw field text.
        value: String,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Truncated { table, line } => write!(
                f,
                "table {table:?} line {line}: record is truncated (no terminating '|')"
            ),
            LoadError::WrongArity {
                table,
                line,
                want,
                got,
            } => write!(
                f,
                "table {table:?} line {line}: expected {want} fields, found {got}"
            ),
            LoadError::BadField {
                table,
                line,
                column,
                value,
            } => write!(
                f,
                "table {table:?} line {line}: column {column:?} cannot parse {value:?}"
            ),
        }
    }
}

impl std::error::Error for LoadError {}

/// Parse dbgen-style `.tbl` text (`field|field|...|` per line, one
/// trailing `|` per record) against a schema. Money columns are
/// integer cents, dates are `YYYY-MM-DD`, `Char` columns are exactly
/// one character, `Bool` columns are `true`/`false`.
pub fn parse_tbl(table: &str, schema: &Schema, text: &str) -> Result<Vec<Tuple>, LoadError> {
    let mut tuples = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        if raw.is_empty() {
            continue;
        }
        let body = raw.strip_suffix('|').ok_or_else(|| LoadError::Truncated {
            table: table.to_string(),
            line,
        })?;
        let fields: Vec<&str> = if body.is_empty() {
            Vec::new()
        } else {
            body.split('|').collect()
        };
        if fields.len() != schema.arity() {
            return Err(LoadError::WrongArity {
                table: table.to_string(),
                line,
                want: schema.arity(),
                got: fields.len(),
            });
        }
        let mut tuple = Vec::with_capacity(fields.len());
        for (col, field) in schema.columns().iter().zip(&fields) {
            tuple.push(parse_field(table, line, col, field)?);
        }
        tuples.push(tuple);
    }
    Ok(tuples)
}

fn parse_field(table: &str, line: usize, col: &Column, field: &str) -> Result<Value, LoadError> {
    let bad = || LoadError::BadField {
        table: table.to_string(),
        line,
        column: col.name.clone(),
        value: field.to_string(),
    };
    match col.ty {
        T::Int => field.parse::<i64>().map(Value::Int).map_err(|_| bad()),
        T::Str => Ok(Value::str(field)),
        T::Date => parse_tbl_date(field).map(Value::Date).ok_or_else(bad),
        T::Char => {
            let mut chars = field.chars();
            match (chars.next(), chars.next()) {
                (Some(c), None) => Ok(Value::Char(c)),
                _ => Err(bad()),
            }
        }
        T::Bool => match field {
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            _ => Err(bad()),
        },
    }
}

/// Parse `YYYY-MM-DD` into the storage day offset.
fn parse_tbl_date(s: &str) -> Option<i32> {
    let mut it = s.split('-');
    let y: i32 = it.next()?.parse().ok()?;
    let m: u32 = it.next()?.parse().ok()?;
    let d: u32 = it.next()?.parse().ok()?;
    if it.next().is_some() || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some(eco_tpch::Date::from_ymd(y, m, d).0)
}

/// Parse `.tbl` text and register the table in `cat` under the given
/// engine profile. On error nothing is added — the catalog never holds
/// a half-loaded table.
pub fn load_tbl(
    cat: &mut Catalog,
    name: &str,
    schema: Schema,
    text: &str,
    kind: EngineKind,
) -> Result<(), LoadError> {
    let tuples = parse_tbl(name, &schema, text)?;
    add_table(cat, kind, name, schema, tuples.into_iter());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_tpch::TpchGenerator;

    #[test]
    fn loads_all_eight_tables_both_engines() {
        let db = TpchGenerator::new(0.001).generate();
        for kind in [EngineKind::Memory, EngineKind::Disk] {
            let cat = load_tpch(&db, kind, 1024);
            assert_eq!(cat.len(), 8, "{kind:?}");
            assert_eq!(cat.expect("lineitem").len(), db.lineitem.len());
            assert_eq!(cat.expect("orders").len(), db.orders.len());
            assert_eq!(cat.expect("region").len(), 5);
            assert_eq!(cat.expect("nation").len(), 25);
        }
    }

    #[test]
    fn schemas_match_tuples() {
        let db = TpchGenerator::new(0.001).generate();
        let cat = load_tpch(&db, EngineKind::Memory, 0);
        for name in cat.names() {
            let t = cat.expect(&name);
            if let crate::catalog::TableData::Memory(h) = &t.data {
                for tup in h.rows().take(10) {
                    assert!(t.schema().check(&tup), "{name} tuple fails schema");
                }
            }
        }
    }

    #[test]
    fn tbl_text_roundtrips_the_region_table() {
        let text = "0|AFRICA|lar deposits|\n\
                    1|AMERICA|hs use ironic requests|\n\
                    2|ASIA|ges. thinly even pinto beans|\n";
        for kind in [EngineKind::Memory, EngineKind::Disk] {
            let mut cat = Catalog::new(1024);
            load_tbl(&mut cat, "region", region_schema(), text, kind)
                .unwrap_or_else(|e| panic!("{e}"));
            let t = cat.expect("region");
            assert_eq!(t.len(), 3, "{kind:?}");
        }
        let tuples = parse_tbl("region", &region_schema(), text).unwrap();
        assert_eq!(tuples[2][0], Value::Int(2));
        assert_eq!(tuples[2][1], Value::str("ASIA"));
    }

    #[test]
    fn truncated_tbl_is_a_typed_error_not_a_panic() {
        // The file is cut mid-record: the final line lost its
        // terminating '|' (and part of its last field).
        let text = "0|AFRICA|lar deposits|\n1|AMERICA|hs use iron";
        let err = parse_tbl("region", &region_schema(), text).unwrap_err();
        assert_eq!(
            err,
            LoadError::Truncated {
                table: "region".into(),
                line: 2
            }
        );
        // A failed load leaves the catalog without the table.
        let mut cat = Catalog::new(1024);
        let r = load_tbl(
            &mut cat,
            "region",
            region_schema(),
            text,
            EngineKind::Memory,
        );
        assert!(r.is_err());
        assert!(cat.get("region").is_none());
        assert_eq!(cat.len(), 0);
    }

    #[test]
    fn short_records_report_arity_with_line_numbers() {
        // Line 2 lost a field but kept its terminator.
        let text = "0|AFRICA|lar deposits|\n1|AMERICA|\n";
        let err = parse_tbl("region", &region_schema(), text).unwrap_err();
        assert_eq!(
            err,
            LoadError::WrongArity {
                table: "region".into(),
                line: 2,
                want: 3,
                got: 2
            }
        );
    }

    #[test]
    fn malformed_fields_name_the_column() {
        // o_orderdate is not a date; errors point at column and line.
        let text = "1|7|O|17288106|not-a-date|5-LOW|Clerk#000000951|0|egular courts|\n";
        let err = parse_tbl("orders", &orders_schema(), text).unwrap_err();
        assert_eq!(
            err,
            LoadError::BadField {
                table: "orders".into(),
                line: 1,
                column: "o_orderdate".into(),
                value: "not-a-date".into()
            }
        );
        // A bad integer likewise.
        let text = "x|AFRICA|lar deposits|\n";
        let err = parse_tbl("region", &region_schema(), text).unwrap_err();
        assert!(matches!(
            err,
            LoadError::BadField { ref column, .. } if column == "r_regionkey"
        ));
        // Char columns must be exactly one character.
        let text = "1|7|OPEN|17288106|1996-01-02|5-LOW|Clerk#000000951|0|egular courts|\n";
        let err = parse_tbl("orders", &orders_schema(), text).unwrap_err();
        assert!(matches!(
            err,
            LoadError::BadField { ref column, .. } if column == "o_orderstatus"
        ));
    }

    #[test]
    fn generated_rows_survive_a_tbl_round_trip() {
        // Dump the generated region+nation tables as .tbl text, parse
        // them back, and compare tuples exactly.
        let db = TpchGenerator::new(0.001).generate();
        let mem = load_tpch(&db, EngineKind::Memory, 0);
        for name in ["region", "nation"] {
            let t = mem.expect(name);
            let crate::catalog::TableData::Memory(h) = &t.data else {
                panic!("memory expected")
            };
            let mut text = String::new();
            for tup in h.rows() {
                for v in &tup {
                    match v {
                        Value::Int(n) => text.push_str(&n.to_string()),
                        Value::Str(s) => text.push_str(s),
                        Value::Char(c) => text.push(*c),
                        Value::Bool(b) => text.push_str(if *b { "true" } else { "false" }),
                        Value::Date(d) => {
                            let (y, m, dd) = eco_tpch::Date(*d).to_ymd();
                            text.push_str(&format!("{y:04}-{m:02}-{dd:02}"));
                        }
                    }
                    text.push('|');
                }
                text.push('\n');
            }
            let parsed = parse_tbl(name, t.schema(), &text).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(h.rows().collect::<Vec<_>>(), parsed, "{name} round trip");
        }
    }

    #[test]
    fn disk_engine_roundtrips_tuples() {
        let db = TpchGenerator::new(0.001).generate();
        let mem = load_tpch(&db, EngineKind::Memory, 0);
        let disk = load_tpch(&db, EngineKind::Disk, 4096);
        let m = mem.expect("lineitem");
        let d = disk.expect("lineitem");
        let crate::catalog::TableData::Memory(h) = &m.data else {
            panic!("memory expected")
        };
        let crate::catalog::TableData::Disk(dt) = &d.data else {
            panic!("disk expected")
        };
        let mut from_disk = Vec::new();
        for p in 0..dt.num_pages() {
            from_disk.extend(dt.read_page(p).tuples().iter().cloned());
        }
        assert_eq!(
            h.rows().collect::<Vec<_>>(),
            from_disk,
            "page roundtrip must preserve tuples"
        );
    }
}
