//! The generator: a seeded, scale-factor-parameterized `dbgen`
//! equivalent producing all eight tables.
//!
//! Cardinalities follow the spec: `region` 5, `nation` 25, `supplier`
//! SF×10 000, `customer` SF×150 000, `part` SF×200 000, `partsupp`
//! 4/part, `orders` SF×1 500 000, `lineitem` 1–7 per order (≈ SF×6 M).
//! Each table draws from its own seeded RNG stream so tables are
//! individually reproducible regardless of generation order.
//!
//! # One stream
//!
//! [`TpchGenerator::stream`] is the generator. It hands every row to a
//! [`TpchSink`], table by table, lent for that one call: each table
//! refills one scratch row, its strings cleared and rewritten in place,
//! so past the first rows a table costs no allocation per row. `orders`
//! and `lineitem` come out together (an order's status and total price
//! are its lines'), each order's lines before the order. No table is
//! kept to feed another: `partsupp` needs only the part keys, and a
//! line's price is the spec's retail-price formula of its part key.
//!
//! Storage loads straight from this stream (`eco_storage::loader`), so
//! no generated row outlives its call. [`TpchGenerator::generate`] is
//! the same stream collected by clone into a [`TpchDb`], for readers
//! that want the rows themselves; [`TpchDb::stream`] replays such a
//! collection into any sink, in the same order per table.

use std::fmt::{self, Write};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dates::{self, Date};
use crate::rows::*;
use crate::text;

/// A fully generated TPC-H database.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TpchDb {
    /// Scale factor the database was generated at.
    pub scale: f64,
    /// REGION table.
    pub region: Vec<Region>,
    /// NATION table.
    pub nation: Vec<Nation>,
    /// SUPPLIER table.
    pub supplier: Vec<Supplier>,
    /// CUSTOMER table.
    pub customer: Vec<Customer>,
    /// PART table.
    pub part: Vec<Part>,
    /// PARTSUPP table.
    pub partsupp: Vec<PartSupp>,
    /// ORDERS table.
    pub orders: Vec<Order>,
    /// LINEITEM table.
    pub lineitem: Vec<Lineitem>,
}

impl TpchDb {
    /// Hand every stored row to `sink`, each table's rows in order.
    pub fn stream<S: TpchSink + ?Sized>(&self, sink: &mut S) {
        fn each<T, S: TpchSink + ?Sized>(
            s: &mut S,
            name: &str,
            rows: &[T],
            f: impl Fn(&mut S, &T),
        ) {
            s.reserve(name, rows.len());
            rows.iter().for_each(|r| f(s, r));
        }
        each(sink, "region", &self.region, S::region);
        each(sink, "nation", &self.nation, S::nation);
        each(sink, "supplier", &self.supplier, S::supplier);
        each(sink, "customer", &self.customer, S::customer);
        each(sink, "part", &self.part, S::part);
        each(sink, "partsupp", &self.partsupp, S::partsupp);
        each(sink, "orders", &self.orders, S::order);
        each(sink, "lineitem", &self.lineitem, S::lineitem);
    }
}

/// Where [`TpchGenerator::stream`] sends its rows: one method per
/// table, each row lent for the call only (the generator rewrites it
/// for the next one).
pub trait TpchSink {
    /// About `rows` rows of `table` (its name, `"region"` to
    /// `"lineitem"`) are about to arrive: a sink that stores them can
    /// make room first; the default does nothing. The generator
    /// announces each table before its rows, `lineitem` with an estimate
    /// a little above the likely count.
    fn reserve(&mut self, table: &str, rows: usize) {
        let _ = (table, rows);
    }
    /// One `region` row.
    fn region(&mut self, row: &Region);
    /// One `nation` row.
    fn nation(&mut self, row: &Nation);
    /// One `supplier` row.
    fn supplier(&mut self, row: &Supplier);
    /// One `customer` row.
    fn customer(&mut self, row: &Customer);
    /// One `part` row.
    fn part(&mut self, row: &Part);
    /// One `partsupp` row.
    fn partsupp(&mut self, row: &PartSupp);
    /// One `orders` row (after its lines).
    fn order(&mut self, row: &Order);
    /// One `lineitem` row.
    fn lineitem(&mut self, row: &Lineitem);
}

/// Collecting is cloning each lent row.
impl TpchSink for TpchDb {
    fn reserve(&mut self, table: &str, rows: usize) {
        match table {
            "region" => self.region.reserve(rows),
            "nation" => self.nation.reserve(rows),
            "supplier" => self.supplier.reserve(rows),
            "customer" => self.customer.reserve(rows),
            "part" => self.part.reserve(rows),
            "partsupp" => self.partsupp.reserve(rows),
            "orders" => self.orders.reserve(rows),
            "lineitem" => self.lineitem.reserve(rows),
            _ => {}
        }
    }
    fn region(&mut self, row: &Region) {
        self.region.push(row.clone());
    }
    fn nation(&mut self, row: &Nation) {
        self.nation.push(row.clone());
    }
    fn supplier(&mut self, row: &Supplier) {
        self.supplier.push(row.clone());
    }
    fn customer(&mut self, row: &Customer) {
        self.customer.push(row.clone());
    }
    fn part(&mut self, row: &Part) {
        self.part.push(row.clone());
    }
    fn partsupp(&mut self, row: &PartSupp) {
        self.partsupp.push(row.clone());
    }
    fn order(&mut self, row: &Order) {
        self.orders.push(row.clone());
    }
    fn lineitem(&mut self, row: &Lineitem) {
        self.lineitem.push(row.clone());
    }
}

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct TpchGenerator {
    /// Scale factor (1.0 = the paper's commercial-DBMS experiments;
    /// 0.125 = its MySQL experiments; 0.5 = its QED experiments).
    pub scale: f64,
    /// Base seed; tables derive their streams from it.
    pub seed: u64,
}

impl Default for TpchGenerator {
    fn default() -> Self {
        Self {
            scale: 0.01,
            seed: 0x00EC0DB,
        }
    }
}

fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale).round() as usize).max(1)
}

/// Spec formula: (90000 + (partkey mod 200001)/10 + 100·(partkey mod 1000)) / 100.
fn retail_price(partkey: i64) -> i64 {
    90_000 + (partkey % 200_001) / 10 + 100 * (partkey % 1_000)
}

/// Overwrite `buf` with `s`, keeping its allocation.
fn set(buf: &mut String, s: &str) {
    buf.clear();
    buf.push_str(s);
}

/// Overwrite `buf` with formatted `args`, keeping its allocation.
fn set_fmt(buf: &mut String, args: fmt::Arguments<'_>) {
    buf.clear();
    // Writing into a `String` cannot fail.
    let _ = buf.write_fmt(args);
}

impl TpchGenerator {
    /// Generator at a scale factor with the default seed.
    pub fn new(scale: f64) -> Self {
        assert!(scale > 0.0, "scale factor must be positive");
        Self {
            scale,
            ..Self::default()
        }
    }

    /// Generator with an explicit seed.
    pub fn with_seed(scale: f64, seed: u64) -> Self {
        Self { scale, seed }
    }

    fn rng_for(&self, table: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ table)
    }

    /// Generate the full database: [`Self::stream`] collected by clone.
    pub fn generate(&self) -> TpchDb {
        let mut db = TpchDb {
            scale: self.scale,
            ..TpchDb::default()
        };
        self.stream(&mut db);
        db
    }

    /// Generate every table into `sink` (see the [module docs](self)).
    pub fn stream<S: TpchSink + ?Sized>(&self, sink: &mut S) {
        self.gen_region(sink);
        self.gen_nation(sink);
        self.gen_supplier(sink);
        self.gen_customer(sink);
        self.gen_part(sink);
        self.gen_partsupp(sink);
        self.gen_orders_lineitem(sink);
    }

    fn gen_region<S: TpchSink + ?Sized>(&self, sink: &mut S) {
        let mut rng = self.rng_for(1);
        sink.reserve("region", text::REGIONS.len());
        let mut row = Region::default();
        for (i, name) in text::REGIONS.iter().enumerate() {
            row.r_regionkey = i as i64;
            set(&mut row.r_name, name);
            text::comment_into(&mut rng, 4, &mut row.r_comment);
            sink.region(&row);
        }
    }

    fn gen_nation<S: TpchSink + ?Sized>(&self, sink: &mut S) {
        let mut rng = self.rng_for(2);
        sink.reserve("nation", text::NATIONS.len());
        let mut row = Nation::default();
        for (i, (name, region)) in text::NATIONS.iter().enumerate() {
            row.n_nationkey = i as i64;
            set(&mut row.n_name, name);
            row.n_regionkey = *region;
            text::comment_into(&mut rng, 5, &mut row.n_comment);
            sink.nation(&row);
        }
    }

    fn gen_supplier<S: TpchSink + ?Sized>(&self, sink: &mut S) {
        let mut rng = self.rng_for(3);
        let n = scaled(10_000, self.scale);
        sink.reserve("supplier", n);
        let mut row = Supplier::default();
        for k in 1..=n as i64 {
            let nation = rng.gen_range(0..25i64);
            row.s_suppkey = k;
            set_fmt(&mut row.s_name, format_args!("Supplier#{k:09}"));
            text::address_into(&mut rng, &mut row.s_address);
            row.s_nationkey = nation;
            text::phone_into(&mut rng, nation, &mut row.s_phone);
            row.s_acctbal = rng.gen_range(-99_999..=999_999);
            text::comment_into(&mut rng, 6, &mut row.s_comment);
            sink.supplier(&row);
        }
    }

    fn gen_customer<S: TpchSink + ?Sized>(&self, sink: &mut S) {
        let mut rng = self.rng_for(4);
        let n = scaled(150_000, self.scale);
        sink.reserve("customer", n);
        let mut row = Customer::default();
        for k in 1..=n as i64 {
            let nation = rng.gen_range(0..25i64);
            row.c_custkey = k;
            set_fmt(&mut row.c_name, format_args!("Customer#{k:09}"));
            text::address_into(&mut rng, &mut row.c_address);
            row.c_nationkey = nation;
            text::phone_into(&mut rng, nation, &mut row.c_phone);
            row.c_acctbal = rng.gen_range(-99_999..=999_999);
            let segment = text::SEGMENTS[rng.gen_range(0..text::SEGMENTS.len())];
            set(&mut row.c_mktsegment, segment);
            text::comment_into(&mut rng, 8, &mut row.c_comment);
            sink.customer(&row);
        }
    }

    fn gen_part<S: TpchSink + ?Sized>(&self, sink: &mut S) {
        let mut rng = self.rng_for(5);
        let n = scaled(200_000, self.scale);
        sink.reserve("part", n);
        let mut row = Part::default();
        for k in 1..=n as i64 {
            let mfgr = rng.gen_range(1..=5);
            let brand = mfgr * 10 + rng.gen_range(1..=5);
            row.p_partkey = k;
            set_fmt(
                &mut row.p_name,
                format_args!(
                    "{} {}",
                    text::COLORS[rng.gen_range(0..text::COLORS.len())],
                    text::COLORS[rng.gen_range(0..text::COLORS.len())]
                ),
            );
            set_fmt(&mut row.p_mfgr, format_args!("Manufacturer#{mfgr}"));
            set_fmt(&mut row.p_brand, format_args!("Brand#{brand}"));
            set_fmt(
                &mut row.p_type,
                format_args!(
                    "{} {} {}",
                    text::TYPE_SYLLABLE_1[rng.gen_range(0..text::TYPE_SYLLABLE_1.len())],
                    text::TYPE_SYLLABLE_2[rng.gen_range(0..text::TYPE_SYLLABLE_2.len())],
                    text::TYPE_SYLLABLE_3[rng.gen_range(0..text::TYPE_SYLLABLE_3.len())]
                ),
            );
            row.p_size = rng.gen_range(1..=50);
            set_fmt(
                &mut row.p_container,
                format_args!(
                    "{} {}",
                    text::CONTAINER_1[rng.gen_range(0..text::CONTAINER_1.len())],
                    text::CONTAINER_2[rng.gen_range(0..text::CONTAINER_2.len())]
                ),
            );
            row.p_retailprice = retail_price(k);
            text::comment_into(&mut rng, 3, &mut row.p_comment);
            sink.part(&row);
        }
    }

    fn gen_partsupp<S: TpchSink + ?Sized>(&self, sink: &mut S) {
        let mut rng = self.rng_for(6);
        let n_part = scaled(200_000, self.scale) as i64;
        let n_supp = scaled(10_000, self.scale) as i64;
        // Deterministic spread in the spirit of the spec's permutation:
        // stride `⌊S/4⌋` keeps the four suppliers of a part distinct for
        // any supplier count ≥ 4 (the spec formula only guarantees this
        // at full-scale supplier counts), and the `(partkey−1)/S` offset
        // rotates the pattern across partkey ranges.
        let stride = (n_supp / 4).max(1);
        sink.reserve("partsupp", 4 * n_part as usize);
        let mut row = PartSupp::default();
        for partkey in 1..=n_part {
            for i in 0..4i64 {
                row.ps_partkey = partkey;
                row.ps_suppkey = (partkey - 1 + i * stride + (partkey - 1) / n_supp) % n_supp + 1;
                row.ps_availqty = rng.gen_range(1..=9_999);
                row.ps_supplycost = rng.gen_range(100..=100_000);
                text::comment_into(&mut rng, 6, &mut row.ps_comment);
                sink.partsupp(&row);
            }
        }
    }

    fn gen_orders_lineitem<S: TpchSink + ?Sized>(&self, sink: &mut S) {
        let mut rng = self.rng_for(7);
        let n_orders = scaled(1_500_000, self.scale);
        let n_supp = scaled(10_000, self.scale) as i64;
        let n_cust = scaled(150_000, self.scale) as i64;
        let n_part = scaled(200_000, self.scale) as i64;
        let window_days = dates::end_date().0 - dates::start_date().0 + 1;
        let order_window = window_days - 151;
        let current = Date::from_ymd(1995, 6, 17); // spec CURRENTDATE
        sink.reserve("orders", n_orders);
        // 1–7 lines per order: mean 4, standard deviation 2 per order,
        // so 4·n + 8·√n is four deviations above the likely total.
        let lines = 4 * n_orders + 8 * (n_orders as f64).sqrt() as usize;
        sink.reserve("lineitem", lines);

        let mut order = Order::default();
        let mut line = Lineitem::default();
        for k in 1..=n_orders as i64 {
            let custkey = rng.gen_range(1..=n_cust);
            let orderdate = Date(rng.gen_range(0..order_window));
            let n_lines = rng.gen_range(1..=7);
            let mut total = 0i64;
            let mut all_f = true;
            let mut all_o = true;

            for ln in 1..=n_lines {
                let partkey = rng.gen_range(1..=n_part);
                let quantity = rng.gen_range(1..=50i64);
                let extended = quantity * retail_price(partkey);
                let shipdate = orderdate.plus_days(rng.gen_range(1..=121));
                let receiptdate = shipdate.plus_days(rng.gen_range(1..=30));
                let returnflag = if receiptdate <= current {
                    if rng.gen_bool(0.5) {
                        'R'
                    } else {
                        'A'
                    }
                } else {
                    'N'
                };
                let linestatus = if shipdate > current { 'O' } else { 'F' };
                if linestatus == 'O' {
                    all_f = false;
                } else {
                    all_o = false;
                }
                total += extended;
                line.l_orderkey = k;
                line.l_partkey = partkey;
                line.l_suppkey = (partkey % n_supp) + 1;
                line.l_linenumber = ln;
                line.l_quantity = quantity;
                line.l_extendedprice = extended;
                line.l_discount = rng.gen_range(0..=10);
                line.l_tax = rng.gen_range(0..=8);
                line.l_returnflag = returnflag;
                line.l_linestatus = linestatus;
                line.l_shipdate = shipdate;
                line.l_commitdate = orderdate.plus_days(rng.gen_range(30..=90));
                line.l_receiptdate = receiptdate;
                let instruct = text::INSTRUCTIONS[rng.gen_range(0..text::INSTRUCTIONS.len())];
                set(&mut line.l_shipinstruct, instruct);
                set(
                    &mut line.l_shipmode,
                    text::MODES[rng.gen_range(0..text::MODES.len())],
                );
                text::comment_into(&mut rng, 3, &mut line.l_comment);
                sink.lineitem(&line);
            }

            order.o_orderkey = k;
            order.o_custkey = custkey;
            order.o_orderstatus = if all_f {
                'F'
            } else if all_o {
                'O'
            } else {
                'P'
            };
            order.o_totalprice = total;
            order.o_orderdate = orderdate;
            let priority = text::PRIORITIES[rng.gen_range(0..text::PRIORITIES.len())];
            set(&mut order.o_orderpriority, priority);
            set_fmt(
                &mut order.o_clerk,
                format_args!("Clerk#{:09}", rng.gen_range(1..=scaled(1_000, self.scale))),
            );
            order.o_shippriority = 0;
            text::comment_into(&mut rng, 6, &mut order.o_comment);
            sink.order(&order);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_db() -> TpchDb {
        TpchGenerator::new(0.002).generate()
    }

    #[test]
    fn cardinalities_scale() {
        let db = small_db();
        assert_eq!(db.region.len(), 5);
        assert_eq!(db.nation.len(), 25);
        assert_eq!(db.supplier.len(), 20);
        assert_eq!(db.customer.len(), 300);
        assert_eq!(db.part.len(), 400);
        assert_eq!(db.partsupp.len(), 1600);
        assert_eq!(db.orders.len(), 3000);
        // 1..=7 lines per order, mean 4.
        let per_order = db.lineitem.len() as f64 / db.orders.len() as f64;
        assert!((3.5..4.5).contains(&per_order), "lines/order {per_order}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = TpchGenerator::with_seed(0.001, 42).generate();
        let b = TpchGenerator::with_seed(0.001, 42).generate();
        assert_eq!(a.lineitem, b.lineitem);
        assert_eq!(a.orders, b.orders);
        assert_eq!(a.customer, b.customer);
    }

    #[test]
    fn different_seeds_differ() {
        let a = TpchGenerator::with_seed(0.001, 1).generate();
        let b = TpchGenerator::with_seed(0.001, 2).generate();
        assert_ne!(a.lineitem, b.lineitem);
    }

    #[test]
    fn foreign_keys_valid() {
        let db = small_db();
        let n_cust = db.customer.len() as i64;
        let n_supp = db.supplier.len() as i64;
        let n_part = db.part.len() as i64;
        for o in &db.orders {
            assert!((1..=n_cust).contains(&o.o_custkey));
        }
        for l in &db.lineitem {
            assert!((1..=db.orders.len() as i64).contains(&l.l_orderkey));
            assert!((1..=n_part).contains(&l.l_partkey));
            assert!((1..=n_supp).contains(&l.l_suppkey));
        }
        for s in &db.supplier {
            assert!((0..25).contains(&s.s_nationkey));
        }
        for ps in &db.partsupp {
            assert!((1..=n_supp).contains(&ps.ps_suppkey));
            assert!((1..=n_part).contains(&ps.ps_partkey));
        }
    }

    #[test]
    fn quantity_is_uniform_1_to_50() {
        // The QED workload depends on l_quantity being uniform over 50
        // values (2 % selectivity each, paper §4).
        let db = TpchGenerator::new(0.01).generate();
        let mut counts = [0usize; 51];
        for l in &db.lineitem {
            assert!((1..=50).contains(&l.l_quantity));
            counts[l.l_quantity as usize] += 1;
        }
        let expect = db.lineitem.len() as f64 / 50.0;
        for (q, &count) in counts.iter().enumerate().skip(1) {
            let dev = (count as f64 - expect).abs() / expect;
            assert!(dev < 0.35, "quantity {q}: {count} vs {expect}");
        }
    }

    #[test]
    fn order_dates_leave_ship_window() {
        let db = small_db();
        let end = dates::end_date();
        for l in &db.lineitem {
            assert!(l.l_shipdate > db.orders[(l.l_orderkey - 1) as usize].o_orderdate);
            assert!(l.l_receiptdate > l.l_shipdate);
            assert!(l.l_receiptdate <= end, "receipt {}", l.l_receiptdate);
        }
    }

    #[test]
    fn totalprice_is_sum_of_extended() {
        let db = small_db();
        let mut sums = vec![0i64; db.orders.len() + 1];
        for l in &db.lineitem {
            sums[l.l_orderkey as usize] += l.l_extendedprice;
        }
        for o in &db.orders {
            assert_eq!(o.o_totalprice, sums[o.o_orderkey as usize]);
        }
    }

    #[test]
    fn line_prices_follow_their_parts_retail_price() {
        // The stream keeps no `part` table for `lineitem`: both read the
        // spec formula of the part key.
        let db = small_db();
        for l in &db.lineitem {
            let part = &db.part[(l.l_partkey - 1) as usize];
            assert_eq!(l.l_extendedprice, l.l_quantity * part.p_retailprice);
        }
    }

    #[test]
    fn stored_rows_replay_as_they_were_generated() {
        let db = small_db();
        let mut replayed = TpchDb {
            scale: db.scale,
            ..TpchDb::default()
        };
        db.stream(&mut replayed);
        assert_eq!(replayed, db);
    }

    #[test]
    fn partsupp_suppliers_distinct_per_part() {
        let db = small_db();
        for chunk in db.partsupp.chunks(4) {
            let mut keys: Vec<i64> = chunk.iter().map(|ps| ps.ps_suppkey).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(
                keys.len(),
                4,
                "part {} suppliers collide",
                chunk[0].ps_partkey
            );
        }
    }

    #[test]
    #[should_panic]
    fn zero_scale_rejected() {
        let _ = TpchGenerator::new(0.0);
    }
}
