//! Load a TPC-H database into a catalog, under either engine profile —
//! straight from the generator's stream ([`load_generated`]) or from
//! stored rows ([`load_tpch`]).
//!
//! Schemas follow TPC-H column naming; money is `Int` cents, dates are
//! `Date` day offsets (see `eco-tpch::rows` for the conventions).
//!
//! # The TPC-H load path
//!
//! A load is one pass over a stream of source rows, each lent to the
//! loader for one call ([`TpchSink`]): the generator's own scratch rows
//! ([`TpchGenerator::stream`]), or a [`TpchDb`]'s stored ones
//! ([`TpchDb::stream`]). Each table has a field listing that hands a
//! row's fields, in schema order, to that table's builder — typed
//! `int`/`str`/`date`/`char` writes, no row ever becomes a tuple or a
//! `Vec<Value>`. There are two builders, one per profile:
//!
//! * the memory engine's pushes each value onto its typed column
//!   (a string's bytes onto its column's arena) and sums the stored
//!   width the `Value::width_bytes` rule gives, producing the
//!   [`HeapTable`];
//! * the disk engine's writes each row's payload in the page format's
//!   exact bytes into one reused buffer and packs it as the row ends,
//!   producing the [`DiskTable`]'s pages.
//!
//! Both sources reach the same builders, so [`load_generated`] and
//! [`load_tpch`] of the generated rows land on identical catalogs
//! (`tests/prop_invariants.rs` holds them to it).
//!
//! [`DiskTable`]: crate::disk_table::DiskTable

use eco_tpch::{
    Customer, Date, Lineitem, Nation, Order, Part, PartSupp, Region, Supplier, TpchDb,
    TpchGenerator, TpchSink,
};

use crate::catalog::Catalog;
use crate::column::{ColumnChunk, ColumnData, DataChunk};
use crate::disk_table::Packer;
use crate::heap::HeapTable;
use crate::page;
use crate::value::{ColumnType as T, Schema};

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
pub(crate) fn region_schema() -> Schema {
    Schema::new(&[
        ("r_regionkey", T::Int),
        ("r_name", T::Str),
        ("r_comment", T::Str),
    ])
}

/// Schema of the `nation` table.
pub(crate) fn nation_schema() -> Schema {
    Schema::new(&[
        ("n_nationkey", T::Int),
        ("n_name", T::Str),
        ("n_regionkey", T::Int),
        ("n_comment", T::Str),
    ])
}

/// Schema of the `supplier` table.
pub(crate) fn supplier_schema() -> Schema {
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
pub(crate) fn customer_schema() -> Schema {
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
pub(crate) fn part_schema() -> Schema {
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
pub(crate) fn partsupp_schema() -> Schema {
    Schema::new(&[
        ("ps_partkey", T::Int),
        ("ps_suppkey", T::Int),
        ("ps_availqty", T::Int),
        ("ps_supplycost", T::Int),
        ("ps_comment", T::Str),
    ])
}

/// Schema of the `orders` table.
pub(crate) fn orders_schema() -> Schema {
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
pub(crate) fn lineitem_schema() -> Schema {
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

// --- the TPC-H load path ---------------------------------------------------

/// A table under construction: its field listing (one [`TpchSink`]
/// method of [`Tables`]) writes each row's values in schema order, then
/// ends the row; the finished table is registered in a catalog.
trait FieldSink {
    fn new(schema: Schema) -> Self;
    /// Make room for about `rows` more rows, if there is room to make.
    fn reserve(&mut self, _rows: usize) {}
    fn int(&mut self, v: i64);
    fn str(&mut self, v: &str);
    fn date(&mut self, v: Date);
    fn char(&mut self, v: char);
    fn end_row(&mut self);
    fn register(self, cat: &mut Catalog, name: &str);
}

/// The memory profile's table builder: one typed column per schema
/// column, each value pushed as its type (a string's bytes onto its
/// column's arena, [`crate::column::StrColumn`]: no allocation per
/// value), and the table's stored bytes summed as the values arrive,
/// by `Value::width_bytes` — what [`crate::value::tuple_width`] adds
/// up for the row the columns hold.
struct ColumnSink {
    schema: Schema,
    columns: Vec<ColumnData>,
    /// Column the next value goes to.
    at: usize,
    bytes: u64,
    /// Rows the source said to expect.
    expected: usize,
}

/// Rows a [`ColumnSink`] takes before it sizes its string columns for
/// the rest at their mean length so far: one allocation, not doublings.
const SAMPLE_ROWS: usize = 64;

impl ColumnSink {
    /// The column the next value goes to; it adds `width` stored bytes.
    fn next(&mut self, width: u64) -> &mut ColumnData {
        self.bytes += width;
        self.at += 1;
        &mut self.columns[self.at - 1]
    }
}

/// A field listing wrote a value of another type than its schema's.
fn mismatch(col: &ColumnData, ty: T) -> ! {
    panic!("cannot push a {ty:?} into a {:?} column", col.column_type())
}

impl FieldSink for ColumnSink {
    fn new(schema: Schema) -> Self {
        Self {
            columns: schema
                .columns()
                .iter()
                .map(|c| ColumnData::empty(c.ty))
                .collect(),
            schema,
            at: 0,
            bytes: 0,
            expected: 0,
        }
    }
    fn reserve(&mut self, rows: usize) {
        self.expected = self.columns.first().map_or(0, ColumnData::len) + rows;
        self.columns.iter_mut().for_each(|c| c.reserve(rows));
    }
    fn int(&mut self, v: i64) {
        match self.next(8) {
            ColumnData::Int(c) => c.push(v),
            c => mismatch(c, T::Int),
        }
    }
    fn str(&mut self, v: &str) {
        match self.next(2 + v.len() as u64) {
            ColumnData::Str(c) => c.push(v),
            c => mismatch(c, T::Str),
        }
    }
    fn date(&mut self, v: Date) {
        match self.next(4) {
            ColumnData::Date(c) => c.push(v.0),
            c => mismatch(c, T::Date),
        }
    }
    fn char(&mut self, v: char) {
        match self.next(1) {
            ColumnData::Char(c) => c.push(v),
            c => mismatch(c, T::Char),
        }
    }
    fn end_row(&mut self) {
        debug_assert_eq!(self.at, self.columns.len(), "short row");
        self.at = 0;
        // The row header `tuple_width` counts on top of the values.
        self.bytes += 2;
        if self.columns[0].len() == SAMPLE_ROWS {
            let rest = self.expected.saturating_sub(SAMPLE_ROWS);
            self.columns.iter_mut().for_each(|c| c.reserve(rest));
        }
    }
    fn register(self, cat: &mut Catalog, name: &str) {
        let columns = DataChunk::new(self.columns.into_iter().map(ColumnChunk::new).collect());
        cat.add_memory_table(
            name,
            HeapTable::from_columns(self.schema, columns, self.bytes),
        );
    }
}

/// The disk profile's table builder: each row serialized into one
/// reused payload buffer, byte for byte what
/// [`crate::page::serialize_tuple`] writes for the row, and packed into
/// pages as it ends — the pages [`DiskTable::load`] would pack.
///
/// [`DiskTable::load`]: crate::disk_table::DiskTable::load
struct PageSink {
    schema: Schema,
    packer: Packer,
    /// The arity header, then the current row's values.
    payload: Vec<u8>,
}

impl FieldSink for PageSink {
    fn new(schema: Schema) -> Self {
        Self {
            payload: (schema.arity() as u16).to_le_bytes().to_vec(),
            schema,
            packer: Packer::default(),
        }
    }
    fn int(&mut self, v: i64) {
        page::put_int(&mut self.payload, v);
    }
    fn str(&mut self, v: &str) {
        page::put_str(&mut self.payload, v);
    }
    fn date(&mut self, v: Date) {
        page::put_date(&mut self.payload, v.0);
    }
    fn char(&mut self, v: char) {
        page::put_char(&mut self.payload, v);
    }
    fn end_row(&mut self) {
        self.packer.push(&self.payload);
        self.payload.truncate(2);
    }
    fn register(self, cat: &mut Catalog, name: &str) {
        cat.add_disk_pages(name, self.schema, self.packer.finish());
    }
}

type SchemaFn = fn() -> Schema;

/// The TPC-H tables with their schemas, in the order they are
/// registered (which numbers the disk profile's table ids).
const TABLES: [(&str, SchemaFn); 8] = [
    ("region", region_schema),
    ("nation", nation_schema),
    ("supplier", supplier_schema),
    ("customer", customer_schema),
    ("part", part_schema),
    ("partsupp", partsupp_schema),
    ("orders", orders_schema),
    ("lineitem", lineitem_schema),
];

/// The eight TPC-H tables under construction, in [`TABLES`] order. As
/// a [`TpchSink`] its row methods are the tables' field listings: each
/// hands a lent source row's fields, in schema order, to that table's
/// builder — no row becomes a tuple.
struct Tables<B>([B; 8]);

impl<B: FieldSink> Tables<B> {
    fn new() -> Self {
        Self(TABLES.map(|(_, schema)| B::new(schema())))
    }

    fn register(self, cat: &mut Catalog) {
        for ((name, _), table) in TABLES.into_iter().zip(self.0) {
            table.register(cat, name);
        }
    }
}

impl<B: FieldSink> TpchSink for Tables<B> {
    fn reserve(&mut self, table: &str, rows: usize) {
        if let Some(i) = TABLES.iter().position(|(name, _)| *name == table) {
            self.0[i].reserve(rows);
        }
    }

    fn region(&mut self, r: &Region) {
        let f = &mut self.0[0];
        f.int(r.r_regionkey);
        f.str(&r.r_name);
        f.str(&r.r_comment);
        f.end_row();
    }

    fn nation(&mut self, n: &Nation) {
        let f = &mut self.0[1];
        f.int(n.n_nationkey);
        f.str(&n.n_name);
        f.int(n.n_regionkey);
        f.str(&n.n_comment);
        f.end_row();
    }

    fn supplier(&mut self, s: &Supplier) {
        let f = &mut self.0[2];
        f.int(s.s_suppkey);
        f.str(&s.s_name);
        f.str(&s.s_address);
        f.int(s.s_nationkey);
        f.str(&s.s_phone);
        f.int(s.s_acctbal);
        f.str(&s.s_comment);
        f.end_row();
    }

    fn customer(&mut self, c: &Customer) {
        let f = &mut self.0[3];
        f.int(c.c_custkey);
        f.str(&c.c_name);
        f.str(&c.c_address);
        f.int(c.c_nationkey);
        f.str(&c.c_phone);
        f.int(c.c_acctbal);
        f.str(&c.c_mktsegment);
        f.str(&c.c_comment);
        f.end_row();
    }

    fn part(&mut self, p: &Part) {
        let f = &mut self.0[4];
        f.int(p.p_partkey);
        f.str(&p.p_name);
        f.str(&p.p_mfgr);
        f.str(&p.p_brand);
        f.str(&p.p_type);
        f.int(p.p_size);
        f.str(&p.p_container);
        f.int(p.p_retailprice);
        f.str(&p.p_comment);
        f.end_row();
    }

    fn partsupp(&mut self, ps: &PartSupp) {
        let f = &mut self.0[5];
        f.int(ps.ps_partkey);
        f.int(ps.ps_suppkey);
        f.int(ps.ps_availqty);
        f.int(ps.ps_supplycost);
        f.str(&ps.ps_comment);
        f.end_row();
    }

    fn order(&mut self, o: &Order) {
        let f = &mut self.0[6];
        f.int(o.o_orderkey);
        f.int(o.o_custkey);
        f.char(o.o_orderstatus);
        f.int(o.o_totalprice);
        f.date(o.o_orderdate);
        f.str(&o.o_orderpriority);
        f.str(&o.o_clerk);
        f.int(o.o_shippriority);
        f.str(&o.o_comment);
        f.end_row();
    }

    fn lineitem(&mut self, l: &Lineitem) {
        let f = &mut self.0[7];
        f.int(l.l_orderkey);
        f.int(l.l_partkey);
        f.int(l.l_suppkey);
        f.int(l.l_linenumber);
        f.int(l.l_quantity);
        f.int(l.l_extendedprice);
        f.int(l.l_discount);
        f.int(l.l_tax);
        f.char(l.l_returnflag);
        f.char(l.l_linestatus);
        f.date(l.l_shipdate);
        f.date(l.l_commitdate);
        f.date(l.l_receiptdate);
        f.str(&l.l_shipinstruct);
        f.str(&l.l_shipmode);
        f.str(&l.l_comment);
        f.end_row();
    }
}

/// A fresh catalog (a pool of `pool_pages` pages, which the memory
/// engine never touches) holding the eight tables `feed` streams in,
/// built under `kind`'s profile.
fn load(kind: EngineKind, pool_pages: usize, feed: impl FnOnce(&mut dyn TpchSink)) -> Catalog {
    fn build<B: FieldSink>(cat: &mut Catalog, feed: impl FnOnce(&mut dyn TpchSink)) {
        let mut tables = Tables::<B>::new();
        feed(&mut tables);
        tables.register(cat);
    }
    let mut cat = Catalog::new(pool_pages);
    match kind {
        EngineKind::Memory => build::<ColumnSink>(&mut cat, feed),
        EngineKind::Disk => build::<PageSink>(&mut cat, feed),
    }
    cat
}

/// Load a generated TPC-H database into a fresh catalog under the given
/// engine profile: one pass of `generator`'s stream
/// ([`TpchGenerator::stream`]) straight into typed columns or packed
/// pages. No source row outlives its own field listing, and no
/// [`TpchDb`] is built. The catalog is [`load_tpch`]'s of
/// `generator.generate()`, value for value and page for page.
pub fn load_generated(generator: &TpchGenerator, kind: EngineKind, pool_pages: usize) -> Catalog {
    load(kind, pool_pages, |sink| generator.stream(sink))
}

/// Load stored TPC-H rows into a fresh catalog under the given engine
/// profile. `pool_pages` sizes the buffer pool (ignored by the memory
/// engine, which never touches it). The rows take the same path as
/// [`load_generated`]'s stream, so no table ever exists as a vector of
/// tuples on the way in.
pub fn load_tpch(db: &TpchDb, kind: EngineKind, pool_pages: usize) -> Catalog {
    load(kind, pool_pages, |sink| db.stream(sink))
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
            from_disk.extend(
                dt.read_page_checked(p)
                    .expect("read")
                    .0
                    .tuples()
                    .iter()
                    .cloned(),
            );
        }
        assert_eq!(
            h.rows().collect::<Vec<_>>(),
            from_disk,
            "page roundtrip must preserve tuples"
        );
    }
}
