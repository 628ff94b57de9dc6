//! Row types for the eight TPC-H tables.
//!
//! Money values are fixed-point cents in `i64` (TPC-H decimals have two
//! fraction digits); percentages (`l_discount`, `l_tax`) are basis
//! points out of 100 in `i64` (e.g. `7` = 0.07). Dates are
//! [`crate::Date`] day offsets.

use crate::dates::Date;

/// `REGION` — 5 rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Region {
    /// Primary key, 0..5.
    pub r_regionkey: i64,
    /// Region name (`"ASIA"`, ...).
    pub r_name: String,
    /// Filler comment.
    pub r_comment: String,
}

/// `NATION` — 25 rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Nation {
    /// Primary key, 0..25.
    pub n_nationkey: i64,
    /// Nation name.
    pub n_name: String,
    /// FK → region.
    pub n_regionkey: i64,
    /// Filler comment.
    pub n_comment: String,
}

/// `SUPPLIER` — SF × 10 000 rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Supplier {
    /// Primary key, 1-based.
    pub s_suppkey: i64,
    /// `Supplier#<key>`.
    pub s_name: String,
    /// Street address.
    pub s_address: String,
    /// FK → nation, uniform.
    pub s_nationkey: i64,
    /// Phone with nation country code.
    pub s_phone: String,
    /// Account balance, cents in [-999.99, 9999.99].
    pub s_acctbal: i64,
    /// Filler comment.
    pub s_comment: String,
}

/// `CUSTOMER` — SF × 150 000 rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Customer {
    /// Primary key, 1-based.
    pub c_custkey: i64,
    /// `Customer#<key>`.
    pub c_name: String,
    /// Street address.
    pub c_address: String,
    /// FK → nation, uniform.
    pub c_nationkey: i64,
    /// Phone with nation country code.
    pub c_phone: String,
    /// Account balance, cents.
    pub c_acctbal: i64,
    /// Market segment.
    pub c_mktsegment: String,
    /// Filler comment.
    pub c_comment: String,
}

/// `PART` — SF × 200 000 rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Part {
    /// Primary key, 1-based.
    pub p_partkey: i64,
    /// Colour-pool name.
    pub p_name: String,
    /// `Manufacturer#N`, N in 1..=5.
    pub p_mfgr: String,
    /// `Brand#MN`.
    pub p_brand: String,
    /// Three-syllable type.
    pub p_type: String,
    /// Size 1..=50.
    pub p_size: i64,
    /// Container description.
    pub p_container: String,
    /// Retail price, cents (spec formula).
    pub p_retailprice: i64,
    /// Filler comment.
    pub p_comment: String,
}

/// `PARTSUPP` — 4 rows per part.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PartSupp {
    /// FK → part.
    pub ps_partkey: i64,
    /// FK → supplier (spec permutation formula).
    pub ps_suppkey: i64,
    /// Available quantity 1..=9999.
    pub ps_availqty: i64,
    /// Supply cost, cents in [1.00, 1000.00].
    pub ps_supplycost: i64,
    /// Filler comment.
    pub ps_comment: String,
}

/// `ORDERS` — SF × 1 500 000 rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Order {
    /// Primary key (sparse in spec; dense here — no experiment reads key gaps).
    pub o_orderkey: i64,
    /// FK → customer.
    pub o_custkey: i64,
    /// 'F', 'O' or 'P'.
    pub o_orderstatus: char,
    /// Sum of line prices, cents.
    pub o_totalprice: i64,
    /// Uniform in the data window minus 151 days.
    pub o_orderdate: Date,
    /// Priority string.
    pub o_orderpriority: String,
    /// `Clerk#<n>`.
    pub o_clerk: String,
    /// Always 0.
    pub o_shippriority: i64,
    /// Filler comment.
    pub o_comment: String,
}

/// `LINEITEM` — 1..=7 rows per order (≈ SF × 6 000 000 rows).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Lineitem {
    /// FK → orders.
    pub l_orderkey: i64,
    /// FK → part.
    pub l_partkey: i64,
    /// FK → supplier (a supplier of that part).
    pub l_suppkey: i64,
    /// 1-based position within the order.
    pub l_linenumber: i64,
    /// Quantity: uniform integer 1..=50 — the QED workload's predicate
    /// column (each value ⇒ 2 % selectivity, paper §4).
    pub l_quantity: i64,
    /// quantity × part retail price, cents.
    pub l_extendedprice: i64,
    /// Discount in hundredths: 0..=10 (0 % – 10 %).
    pub l_discount: i64,
    /// Tax in hundredths: 0..=8.
    pub l_tax: i64,
    /// 'R', 'A' or 'N'.
    pub l_returnflag: char,
    /// 'O' or 'F'.
    pub l_linestatus: char,
    /// Order date + 1..=121 days.
    pub l_shipdate: Date,
    /// Order date + 30..=90 days.
    pub l_commitdate: Date,
    /// Ship date + 1..=30 days.
    pub l_receiptdate: Date,
    /// Instruction string.
    pub l_shipinstruct: String,
    /// Mode string.
    pub l_shipmode: String,
    /// Filler comment.
    pub l_comment: String,
}

impl Lineitem {
    /// Revenue contribution used by Q5: `extendedprice × (1 − discount)`,
    /// in cents (rounded down).
    pub fn revenue_cents(&self) -> i64 {
        self.l_extendedprice * (100 - self.l_discount) / 100
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn revenue_formula() {
        let li = Lineitem {
            l_orderkey: 1,
            l_partkey: 1,
            l_suppkey: 1,
            l_linenumber: 1,
            l_quantity: 10,
            l_extendedprice: 10_000, // $100.00
            l_discount: 7,           // 7 %
            l_tax: 2,
            l_returnflag: 'N',
            l_linestatus: 'O',
            l_shipdate: Date(100),
            l_commitdate: Date(120),
            l_receiptdate: Date(110),
            l_shipinstruct: "NONE".into(),
            l_shipmode: "AIR".into(),
            l_comment: "x".into(),
        };
        assert_eq!(li.revenue_cents(), 9_300); // $93.00
    }
}
