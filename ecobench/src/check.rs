//! Output checks: every result the workloads read back is compared
//! with an independent fold over the generated source rows
//! (`EcoDb::source`), never with another run of the engine. Checks
//! run outside the timed regions.

use std::collections::{BTreeMap, HashMap, HashSet};

use eco_storage::{Tuple, Value};
use eco_tpch::{Lineitem, TpchDb};

use crate::gen::Olap;

pub type Check = Result<(), String>;

fn expect_rows(what: &str, got: &[Tuple], want: &[Tuple]) -> Check {
    if got == want {
        return Ok(());
    }
    let at = got.iter().zip(want).position(|(g, w)| g != w);
    Err(match at {
        Some(i) => format!("{what}: row {i} is {:?}, expected {:?}", got[i], want[i]),
        None => format!("{what}: {} rows, expected {}", got.len(), want.len()),
    })
}

/// A `lineitem` source row as the stored tuple.
pub fn lineitem_tuple(l: &Lineitem) -> Tuple {
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
        Value::str(&l.l_shipinstruct),
        Value::str(&l.l_shipmode),
        Value::str(&l.l_comment),
    ]
}

/// Rows of an analytic statement against a fold over the source.
pub fn olap(src: &TpchDb, q: &Olap, rows: &[Tuple]) -> Check {
    match q {
        Olap::Q1 { cutoff } => {
            // (sum_qty, sum_base, sum_disc, sum_charge, sum_discount, count)
            let mut groups: BTreeMap<(char, char), [i64; 6]> = BTreeMap::new();
            for l in src.lineitem.iter().filter(|l| l.l_shipdate <= *cutoff) {
                let g = groups.entry((l.l_returnflag, l.l_linestatus)).or_default();
                g[0] += l.l_quantity;
                g[1] += l.l_extendedprice;
                g[2] += l.l_extendedprice * (100 - l.l_discount) / 100;
                g[3] += l.l_extendedprice * (100 - l.l_discount) * (100 + l.l_tax) / 10_000;
                g[4] += l.l_discount;
                g[5] += 1;
            }
            let want: Vec<Tuple> = groups
                .into_iter()
                .map(|((rf, ls), g)| {
                    let ints = [
                        g[0],
                        g[1],
                        g[2],
                        g[3],
                        g[0] / g[5],
                        g[1] / g[5],
                        g[4] / g[5],
                        g[5],
                    ];
                    [Value::Char(rf), Value::Char(ls)]
                        .into_iter()
                        .chain(ints.into_iter().map(Value::Int))
                        .collect()
                })
                .collect();
            expect_rows("Q1", rows, &want)
        }
        Olap::Q3 { segment, cut } => {
            let customers: HashSet<i64> = src
                .customer
                .iter()
                .filter(|c| c.c_mktsegment == *segment)
                .map(|c| c.c_custkey)
                .collect();
            let orders: HashMap<i64, (i32, i64)> = src
                .orders
                .iter()
                .filter(|o| o.o_orderdate < *cut && customers.contains(&o.o_custkey))
                .map(|o| (o.o_orderkey, (o.o_orderdate.0, o.o_shippriority)))
                .collect();
            let mut revenue: HashMap<i64, i64> = HashMap::new();
            for l in src.lineitem.iter().filter(|l| l.l_shipdate > *cut) {
                if orders.contains_key(&l.l_orderkey) {
                    *revenue.entry(l.l_orderkey).or_insert(0) += l.revenue_cents();
                }
            }
            // Ties on (revenue, date) may come back in any order, so
            // compare the sort keys in order and each row with its group.
            let mut keys: Vec<(i64, i32)> =
                revenue.iter().map(|(k, r)| (-r, orders[k].0)).collect();
            keys.sort_unstable();
            keys.truncate(10);
            if rows.len() != keys.len() {
                return Err(format!("Q3: {} rows, expected {}", rows.len(), keys.len()));
            }
            for (row, (neg_rev, date)) in rows.iter().zip(keys) {
                let key = row[0].as_int().unwrap_or(-1);
                let group = orders.get(&key).zip(revenue.get(&key));
                let want = group.map(|((d, prio), rev)| {
                    vec![
                        Value::Int(key),
                        Value::Int(*rev),
                        Value::Date(*d),
                        Value::Int(*prio),
                    ]
                });
                if want.as_ref() != Some(row)
                    || row[1] != Value::Int(-neg_rev)
                    || row[2] != Value::Date(date)
                {
                    return Err(format!(
                        "Q3: row {row:?}, expected group {want:?} at revenue {}",
                        -neg_rev
                    ));
                }
            }
            Ok(())
        }
        Olap::Q5 { region, year } => {
            let params = eco_tpch::Q5Params::new(region, *year);
            let want: Vec<Tuple> = eco_query::plans::q5_reference(src, &params)
                .into_iter()
                .map(|(nation, rev)| vec![Value::str(nation), Value::Int(rev)])
                .collect();
            // Equal revenues may come back in either order.
            let sorted = |rows: &[Tuple]| {
                let mut v = rows.to_vec();
                v.sort_by_key(|r| {
                    (
                        std::cmp::Reverse(r[1].as_int()),
                        r[0].as_str().map(str::to_string),
                    )
                });
                v
            };
            let descending = rows
                .windows(2)
                .all(|w| w[0][1].as_int() >= w[1][1].as_int());
            if !descending {
                return Err("Q5: rows are not in descending revenue order".to_string());
            }
            expect_rows("Q5", &sorted(rows), &sorted(&want))
        }
        Olap::Q6 {
            year,
            discount,
            max_qty,
        } => {
            let from = eco_tpch::Date::year_start(*year);
            let to = eco_tpch::Date::year_start(year + 1);
            let sum: i64 = src
                .lineitem
                .iter()
                .filter(|l| l.l_shipdate >= from && l.l_shipdate < to)
                .filter(|l| (discount - 1..=discount + 1).contains(&l.l_discount))
                .filter(|l| l.l_quantity < *max_qty)
                .map(|l| l.l_extendedprice * l.l_discount / 100)
                .sum();
            expect_rows("Q6", rows, &[vec![Value::Int(sum)]])
        }
    }
}

/// Full `lineitem` tuples grouped by one integer column, in table
/// order — what index probes (`l_orderkey`) and merged or solo
/// selections (`l_quantity`) must return.
pub struct LineitemOracle {
    column: &'static str,
    rows: HashMap<i64, Vec<Tuple>>,
}

impl LineitemOracle {
    pub fn new(src: &TpchDb, column: &'static str, key: fn(&Lineitem) -> i64) -> Self {
        let mut rows: HashMap<i64, Vec<Tuple>> = HashMap::new();
        for l in &src.lineitem {
            rows.entry(key(l)).or_default().push(lineitem_tuple(l));
        }
        Self { column, rows }
    }

    pub fn by_orderkey(src: &TpchDb) -> Self {
        Self::new(src, "l_orderkey", |l| l.l_orderkey)
    }

    pub fn by_quantity(src: &TpchDb) -> Self {
        Self::new(src, "l_quantity", |l| l.l_quantity)
    }

    /// Rows of `SELECT * FROM lineitem WHERE column BETWEEN lo AND hi`.
    pub fn expect(&self, lo: i64, hi: i64, rows: &[Tuple]) -> Check {
        let want: Vec<Tuple> = (lo..=hi)
            .filter_map(|k| self.rows.get(&k))
            .flatten()
            .cloned()
            .collect();
        expect_rows(&format!("{} in {lo}..={hi}", self.column), rows, &want)
    }
}

/// `SELECT o_orderkey, o_totalprice FROM orders` against the
/// generator's model of the table.
pub fn orders_state(what: &str, model: &BTreeMap<i64, i64>, rows: &[Tuple]) -> Check {
    let mut got: Vec<(i64, i64)> = rows
        .iter()
        .map(|r| (r[0].as_int().unwrap_or(-1), r[1].as_int().unwrap_or(-1)))
        .collect();
    got.sort_unstable();
    let want: Vec<(i64, i64)> = model.iter().map(|(k, p)| (*k, *p)).collect();
    if got == want {
        return Ok(());
    }
    let missing = want.iter().find(|w| got.binary_search(w).is_err());
    let extra = got.iter().find(|g| want.binary_search(g).is_err());
    Err(format!(
        "{what}: orders has {} rows, the model {}; first missing {missing:?}, first unexpected {extra:?}",
        got.len(),
        want.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_tpch::TpchGenerator;

    #[test]
    fn a_corrupted_row_fails_its_check() {
        let src = TpchGenerator::new(0.001).generate();
        let q = Olap::Q6 {
            year: 1994,
            discount: 6,
            max_qty: 24,
        };
        let sum: i64 = src
            .lineitem
            .iter()
            .filter(|l| {
                l.l_shipdate.to_ymd().0 == 1994
                    && (5..=7).contains(&l.l_discount)
                    && l.l_quantity < 24
            })
            .map(|l| l.l_extendedprice * l.l_discount / 100)
            .sum();
        assert_eq!(olap(&src, &q, &[vec![Value::Int(sum)]]), Ok(()));
        let err = olap(&src, &q, &[vec![Value::Int(sum + 1)]]).unwrap_err();
        assert!(err.contains("Q6"), "{err}");

        let oracle = LineitemOracle::by_orderkey(&src);
        let key = src.lineitem[0].l_orderkey;
        let mut rows: Vec<Tuple> = src
            .lineitem
            .iter()
            .filter(|l| l.l_orderkey == key)
            .map(lineitem_tuple)
            .collect();
        assert_eq!(oracle.expect(key, key, &rows), Ok(()));
        rows[0][4] = Value::Int(-1);
        assert!(oracle.expect(key, key, &rows).is_err());
        assert!(oracle.expect(key, key, &[]).is_err());

        let model: BTreeMap<i64, i64> = [(1, 10), (2, 20)].into();
        let row = |k, p| vec![Value::Int(k), Value::Int(p)];
        assert_eq!(orders_state("t", &model, &[row(2, 20), row(1, 10)]), Ok(()));
        assert!(orders_state("t", &model, &[row(1, 10), row(2, 21)]).is_err());
        assert!(orders_state("t", &model, &[row(1, 10)]).is_err());
    }
}
