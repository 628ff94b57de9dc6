//! Hand-built physical plans for the paper's queries (plus Q1/Q3/Q6
//! used in extension studies). The paper's own experiments are
//! index-free, so the canonical plans use scans + hash joins only;
//! [`orderkey_range_plan_indexed`], added with ledger schema v4, swaps
//! in an [`IxScan`] access path for the scan-vs-probe energy studies,
//! and returns `None` when the catalog carries no suitable index —
//! index-free runs never change shape.
//!
//! Column positions are resolved by name through each intermediate
//! schema (TPC-H column names are globally unique), so join reordering
//! does not silently break expressions.

use std::sync::Arc;

use eco_storage::{Catalog, Tuple, Value};
use eco_tpch::{Q5Params, QedQuery};

use crate::expr::{AggFunc, ArithOp, CmpOp, Expr};
use crate::ops::{
    AggSpec, BoxedOp, Filter, HashAggregate, HashJoin, IxBound, IxScan, Limit, SeqScan, Sort,
    SortKey,
};

/// `extendedprice × (100 − discount) / 100` over the given column
/// positions — Q3/Q5's revenue expression in integer cents.
pub(crate) fn revenue_expr(ep_col: usize, disc_col: usize) -> Expr {
    Expr::arith(
        ArithOp::Div,
        Expr::arith(
            ArithOp::Mul,
            Expr::col(ep_col),
            Expr::arith(ArithOp::Sub, Expr::int(100), Expr::col(disc_col)),
        ),
        Expr::int(100),
    )
}

fn scan(catalog: &Catalog, table: &str) -> BoxedOp {
    Box::new(SeqScan::new(catalog.expect(table)))
}

fn idx(op: &BoxedOp, name: &str) -> usize {
    op.schema().expect_index(name)
}

/// TPC-H Q5: local supplier volume.
///
/// ```sql
/// SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
/// FROM customer, orders, lineitem, supplier, nation, region
/// WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
///   AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
///   AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
///   AND r_name = :region
///   AND o_orderdate >= :from AND o_orderdate < :to
/// GROUP BY n_name ORDER BY revenue DESC
/// ```
///
/// Join order (small → large, hash build on the small side):
/// region → nation → customer → orders(σ date) → lineitem → supplier.
pub fn q5_plan(catalog: &Catalog, params: &Q5Params) -> BoxedOp {
    // σ(r_name = :region) region
    let region = Box::new(Filter::new(
        scan(catalog, "region"),
        Expr::cmp(
            CmpOp::Eq,
            Expr::col(catalog.expect("region").schema().expect_index("r_name")),
            Expr::str(&params.region),
        ),
    )) as BoxedOp;

    // ⋈ nation
    let nation = scan(catalog, "nation");
    let j1 = Box::new(HashJoin::new(
        region,
        nation,
        vec![0], // r_regionkey (resolved below for clarity in later joins)
        vec![catalog
            .expect("nation")
            .schema()
            .expect_index("n_regionkey")],
    )) as BoxedOp;

    // ⋈ customer
    let customer = scan(catalog, "customer");
    let c_nationkey = customer.schema().expect_index("c_nationkey");
    let j2 = Box::new(HashJoin::new_keyed(
        j1.into_keyed("n_nationkey"),
        customer,
        vec![c_nationkey],
    )) as BoxedOp;

    // ⋈ σ(date) orders
    let orders_scan = scan(catalog, "orders");
    let o_orderdate = orders_scan.schema().expect_index("o_orderdate");
    let o_custkey = orders_scan.schema().expect_index("o_custkey");
    let orders = Box::new(Filter::new(
        orders_scan,
        Expr::And(vec![
            Expr::cmp(
                CmpOp::Ge,
                Expr::col(o_orderdate),
                Expr::date(params.date_from.0),
            ),
            Expr::cmp(
                CmpOp::Lt,
                Expr::col(o_orderdate),
                Expr::date(params.date_to.0),
            ),
        ]),
    )) as BoxedOp;
    let j3 = Box::new(HashJoin::new_keyed(
        j2.into_keyed("c_custkey"),
        orders,
        vec![o_custkey],
    )) as BoxedOp;

    // ⋈ lineitem
    let lineitem = scan(catalog, "lineitem");
    let l_orderkey = lineitem.schema().expect_index("l_orderkey");
    let j4 = Box::new(HashJoin::new_keyed(
        j3.into_keyed("o_orderkey"),
        lineitem,
        vec![l_orderkey],
    )) as BoxedOp;

    // ⋈ supplier on (s_suppkey = l_suppkey, s_nationkey = c_nationkey)
    let supplier = scan(catalog, "supplier");
    let s_suppkey = supplier.schema().expect_index("s_suppkey");
    let s_nationkey = supplier.schema().expect_index("s_nationkey");
    let l_suppkey = idx(&j4, "l_suppkey");
    let c_nationkey_j4 = idx(&j4, "c_nationkey");
    let j5 = Box::new(HashJoin::new(
        supplier,
        j4,
        vec![s_suppkey, s_nationkey],
        vec![l_suppkey, c_nationkey_j4],
    )) as BoxedOp;

    // GROUP BY n_name, SUM(revenue)
    let n_name = idx(&j5, "n_name");
    let ep = idx(&j5, "l_extendedprice");
    let disc = idx(&j5, "l_discount");
    let agg = Box::new(HashAggregate::new(
        j5,
        vec![n_name],
        vec![AggSpec {
            func: AggFunc::Sum,
            input: revenue_expr(ep, disc),
            name: "revenue".to_string(),
        }],
    )) as BoxedOp;

    // ORDER BY revenue DESC
    let rev = idx(&agg, "revenue");
    Box::new(Sort::new(agg, vec![SortKey::desc(rev)]))
}

/// Helper: re-key a boxed operator by a named column (returns the same
/// operator; the key index is what the caller needs).
trait KeyedExt {
    fn into_keyed(self, key: &str) -> KeyedOp;
}

/// An operator whose column `key` has been resolved; used as a hash
/// join build side with `vec![0]`-style positional keys replaced by the
/// resolved index.
struct KeyedOp {
    op: BoxedOp,
    key_idx: usize,
}

impl KeyedExt for BoxedOp {
    fn into_keyed(self, key: &str) -> KeyedOp {
        let key_idx = self.schema().expect_index(key);
        KeyedOp { op: self, key_idx }
    }
}

impl HashJoin {
    /// Join with a named build key (internal plan-builder convenience).
    fn new_keyed(build: KeyedOp, probe: BoxedOp, probe_keys: Vec<usize>) -> Self {
        let k = build.key_idx;
        HashJoin::new(build.op, probe, vec![k], probe_keys)
    }
}

/// A deliberately inferior Q5 plan: joins `lineitem ⋈ orders` *before*
/// any filtering, producing the largest possible intermediate result.
/// Used by the energy-aware plan-choice studies (paper §2: "considering
/// the effect of different query plans for the energy versus response
/// time tradeoff").
pub fn q5_plan_late_filter(catalog: &Catalog, params: &Q5Params) -> BoxedOp {
    // orders ⋈ lineitem with no date pushdown.
    let orders = scan(catalog, "orders");
    let lineitem = scan(catalog, "lineitem");
    let l_orderkey = lineitem.schema().expect_index("l_orderkey");
    let j1 = Box::new(HashJoin::new_keyed(
        orders.into_keyed("o_orderkey"),
        lineitem,
        vec![l_orderkey],
    )) as BoxedOp;

    // Date filter only now, over the fat intermediate.
    let od = idx(&j1, "o_orderdate");
    let filtered = Box::new(Filter::new(
        j1,
        Expr::And(vec![
            Expr::cmp(CmpOp::Ge, Expr::col(od), Expr::date(params.date_from.0)),
            Expr::cmp(CmpOp::Lt, Expr::col(od), Expr::date(params.date_to.0)),
        ]),
    )) as BoxedOp;

    // ⋈ customer.
    let customer = scan(catalog, "customer");
    let c_custkey = customer.schema().expect_index("c_custkey");
    let j2 = Box::new(HashJoin::new_keyed(
        filtered.into_keyed("o_custkey"),
        customer,
        vec![c_custkey],
    )) as BoxedOp;

    // ⋈ supplier on (l_suppkey, c_nationkey).
    let supplier = scan(catalog, "supplier");
    let s_suppkey = supplier.schema().expect_index("s_suppkey");
    let s_nationkey = supplier.schema().expect_index("s_nationkey");
    let l_suppkey = idx(&j2, "l_suppkey");
    let c_nationkey = idx(&j2, "c_nationkey");
    let j3 = Box::new(HashJoin::new(
        supplier,
        j2,
        vec![s_suppkey, s_nationkey],
        vec![l_suppkey, c_nationkey],
    )) as BoxedOp;

    // ⋈ nation ⋈ region, filtering the region name last.
    let nation = scan(catalog, "nation");
    let n_nationkey = nation.schema().expect_index("n_nationkey");
    let j4 = Box::new(HashJoin::new_keyed(
        j3.into_keyed("s_nationkey"),
        nation,
        vec![n_nationkey],
    )) as BoxedOp;
    // Swap: nation-side first would be better; keep it probe-heavy.
    let region = scan(catalog, "region");
    let r_regionkey = region.schema().expect_index("r_regionkey");
    let j5 = Box::new(HashJoin::new_keyed(
        j4.into_keyed("n_regionkey"),
        region,
        vec![r_regionkey],
    )) as BoxedOp;
    let r_name = idx(&j5, "r_name");
    let filtered = Box::new(Filter::new(
        j5,
        Expr::cmp(CmpOp::Eq, Expr::col(r_name), Expr::str(&params.region)),
    )) as BoxedOp;

    let n_name = idx(&filtered, "n_name");
    let ep = idx(&filtered, "l_extendedprice");
    let disc = idx(&filtered, "l_discount");
    let agg = Box::new(HashAggregate::new(
        filtered,
        vec![n_name],
        vec![AggSpec {
            func: AggFunc::Sum,
            input: revenue_expr(ep, disc),
            name: "revenue".to_string(),
        }],
    )) as BoxedOp;
    let rev = idx(&agg, "revenue");
    Box::new(Sort::new(agg, vec![SortKey::desc(rev)]))
}

/// TPC-H Q5 as SQL text (compiles through the SQL front-end).
pub fn q5_sql(params: &Q5Params) -> String {
    format!(
        "SELECT n_name, SUM(l_extendedprice * (100 - l_discount) / 100) AS revenue \
         FROM customer, orders, lineitem, supplier, nation, region \
         WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey \
           AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey \
           AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey \
           AND r_name = '{}' \
           AND o_orderdate >= DATE '{}' AND o_orderdate < DATE '{}' \
         GROUP BY n_name ORDER BY revenue DESC",
        params.region,
        params.date_from.iso(),
        params.date_to.iso()
    )
}

/// TPC-H Q6: forecast revenue change (single-table scan + scalar agg).
pub fn q6_plan(catalog: &Catalog, year: i32, discount_pct: i64, max_qty: i64) -> BoxedOp {
    let li = scan(catalog, "lineitem");
    let shipdate = li.schema().expect_index("l_shipdate");
    let disc = li.schema().expect_index("l_discount");
    let qty = li.schema().expect_index("l_quantity");
    let ep = li.schema().expect_index("l_extendedprice");
    let from = eco_tpch::Date::year_start(year);
    let to = eco_tpch::Date::year_start(year + 1);
    let filtered = Box::new(Filter::new(
        li,
        Expr::And(vec![
            Expr::cmp(CmpOp::Ge, Expr::col(shipdate), Expr::date(from.0)),
            Expr::cmp(CmpOp::Lt, Expr::col(shipdate), Expr::date(to.0)),
            Expr::cmp(CmpOp::Ge, Expr::col(disc), Expr::int(discount_pct - 1)),
            Expr::cmp(CmpOp::Le, Expr::col(disc), Expr::int(discount_pct + 1)),
            Expr::cmp(CmpOp::Lt, Expr::col(qty), Expr::int(max_qty)),
        ]),
    )) as BoxedOp;
    Box::new(HashAggregate::new(
        filtered,
        vec![],
        vec![AggSpec {
            func: AggFunc::Sum,
            input: Expr::arith(
                ArithOp::Div,
                Expr::arith(ArithOp::Mul, Expr::col(ep), Expr::col(disc)),
                Expr::int(100),
            ),
            name: "revenue".to_string(),
        }],
    ))
}

/// TPC-H Q1: pricing summary report (single-table, grouped aggregates).
pub fn q1_plan(catalog: &Catalog, delta_days: i32) -> BoxedOp {
    let li = scan(catalog, "lineitem");
    let shipdate = li.schema().expect_index("l_shipdate");
    let rf = li.schema().expect_index("l_returnflag");
    let ls = li.schema().expect_index("l_linestatus");
    let qty = li.schema().expect_index("l_quantity");
    let ep = li.schema().expect_index("l_extendedprice");
    let disc = li.schema().expect_index("l_discount");
    let tax = li.schema().expect_index("l_tax");
    let cutoff = eco_tpch::Date::from_ymd(1998, 12, 1).plus_days(-delta_days);
    let filtered = Box::new(Filter::new(
        li,
        Expr::cmp(CmpOp::Le, Expr::col(shipdate), Expr::date(cutoff.0)),
    )) as BoxedOp;
    // charge = ep·(100−disc)·(100+tax)/10000
    let charge = Expr::arith(
        ArithOp::Div,
        Expr::arith(
            ArithOp::Mul,
            Expr::arith(
                ArithOp::Mul,
                Expr::col(ep),
                Expr::arith(ArithOp::Sub, Expr::int(100), Expr::col(disc)),
            ),
            Expr::arith(ArithOp::Add, Expr::int(100), Expr::col(tax)),
        ),
        Expr::int(10_000),
    );
    let agg = Box::new(HashAggregate::new(
        filtered,
        vec![rf, ls],
        vec![
            AggSpec {
                func: AggFunc::Sum,
                input: Expr::col(qty),
                name: "sum_qty".into(),
            },
            AggSpec {
                func: AggFunc::Sum,
                input: Expr::col(ep),
                name: "sum_base_price".into(),
            },
            AggSpec {
                func: AggFunc::Sum,
                input: revenue_expr(ep, disc),
                name: "sum_disc_price".into(),
            },
            AggSpec {
                func: AggFunc::Sum,
                input: charge,
                name: "sum_charge".into(),
            },
            AggSpec {
                func: AggFunc::Avg,
                input: Expr::col(qty),
                name: "avg_qty".into(),
            },
            AggSpec {
                func: AggFunc::Avg,
                input: Expr::col(ep),
                name: "avg_price".into(),
            },
            AggSpec {
                func: AggFunc::Avg,
                input: Expr::col(disc),
                name: "avg_disc".into(),
            },
            AggSpec {
                func: AggFunc::Count,
                input: Expr::col(qty),
                name: "count_order".into(),
            },
        ],
    )) as BoxedOp;
    let rf_out = idx(&agg, "l_returnflag");
    let ls_out = idx(&agg, "l_linestatus");
    Box::new(Sort::new(
        agg,
        vec![SortKey::asc(rf_out), SortKey::asc(ls_out)],
    ))
}

/// TPC-H Q3: shipping priority (customer ⋈ orders ⋈ lineitem, top-10).
pub fn q3_plan(catalog: &Catalog, segment: &str, cut: eco_tpch::Date) -> BoxedOp {
    let customer = scan(catalog, "customer");
    let c_mktsegment = customer.schema().expect_index("c_mktsegment");
    let cust = Box::new(Filter::new(
        customer,
        Expr::cmp(CmpOp::Eq, Expr::col(c_mktsegment), Expr::str(segment)),
    )) as BoxedOp;

    let orders_scan = scan(catalog, "orders");
    let o_orderdate = orders_scan.schema().expect_index("o_orderdate");
    let o_custkey = orders_scan.schema().expect_index("o_custkey");
    let orders = Box::new(Filter::new(
        orders_scan,
        Expr::cmp(CmpOp::Lt, Expr::col(o_orderdate), Expr::date(cut.0)),
    )) as BoxedOp;
    let j1 = Box::new(HashJoin::new_keyed(
        cust.into_keyed("c_custkey"),
        orders,
        vec![o_custkey],
    )) as BoxedOp;

    let lineitem = scan(catalog, "lineitem");
    let l_orderkey = lineitem.schema().expect_index("l_orderkey");
    let l_shipdate = lineitem.schema().expect_index("l_shipdate");
    let li = Box::new(Filter::new(
        lineitem,
        Expr::cmp(CmpOp::Gt, Expr::col(l_shipdate), Expr::date(cut.0)),
    )) as BoxedOp;
    let j2 = Box::new(HashJoin::new_keyed(
        j1.into_keyed("o_orderkey"),
        li,
        vec![l_orderkey],
    )) as BoxedOp;

    let okey = idx(&j2, "o_orderkey");
    let odate = idx(&j2, "o_orderdate");
    let oprio = idx(&j2, "o_shippriority");
    let ep = idx(&j2, "l_extendedprice");
    let disc = idx(&j2, "l_discount");
    let agg = Box::new(HashAggregate::new(
        j2,
        vec![okey, odate, oprio],
        vec![AggSpec {
            func: AggFunc::Sum,
            input: revenue_expr(ep, disc),
            name: "revenue".into(),
        }],
    )) as BoxedOp;
    let rev = idx(&agg, "revenue");
    let odate_out = idx(&agg, "o_orderdate");
    let sorted = Box::new(Sort::new(
        agg,
        vec![SortKey::desc(rev), SortKey::asc(odate_out)],
    )) as BoxedOp;
    Box::new(Limit::new(sorted, 10))
}

/// The QED unit query: `SELECT * FROM lineitem WHERE l_quantity = :v`.
pub fn selection_plan(catalog: &Catalog, query: &QedQuery) -> BoxedOp {
    let li = scan(catalog, "lineitem");
    let qty = li.schema().expect_index("l_quantity");
    Box::new(Filter::new(li, Expr::col_eq_int(qty, query.quantity)))
}

/// σ(l_orderkey BETWEEN lo AND hi) over lineitem, by sequential scan.
///
/// lineitem is generated in orderkey order, so a key range selects a
/// *contiguous* band of pages. That makes this plan and
/// [`orderkey_range_plan_indexed`] the canonical scan-vs-probe
/// crossover knob — the indexed variant touches only the band (as
/// random-priced index I/O) while this plan streams every page.
pub fn orderkey_range_plan(catalog: &Catalog, lo: i64, hi: i64) -> BoxedOp {
    let li = scan(catalog, "lineitem");
    let key = li.schema().expect_index("l_orderkey");
    Box::new(Filter::new(
        li,
        Expr::And(vec![
            Expr::cmp(CmpOp::Ge, Expr::col(key), Expr::int(lo)),
            Expr::cmp(CmpOp::Le, Expr::col(key), Expr::int(hi)),
        ]),
    ))
}

/// Index variant of [`orderkey_range_plan`]: one B-tree range probe on
/// `lineitem.l_orderkey`. `None` without the index.
pub fn orderkey_range_plan_indexed(catalog: &Catalog, lo: i64, hi: i64) -> Option<BoxedOp> {
    let entry = catalog.index_on("lineitem", "l_orderkey")?;
    Some(Box::new(IxScan::range(
        catalog.expect("lineitem"),
        Arc::clone(&entry.index),
        IxBound::Inclusive(Value::Int(lo)),
        IxBound::Inclusive(Value::Int(hi)),
    )))
}

/// Reference evaluation of Q5 directly over generated rows — an
/// executor-independent oracle for correctness tests.
pub fn q5_reference(db: &eco_tpch::TpchDb, params: &Q5Params) -> Vec<(String, i64)> {
    use std::collections::HashMap;
    let region_key = db
        .region
        .iter()
        .find(|r| r.r_name == params.region)
        .map(|r| r.r_regionkey);
    let Some(region_key) = region_key else {
        return Vec::new();
    };
    let nations: HashMap<i64, &str> = db
        .nation
        .iter()
        .filter(|n| n.n_regionkey == region_key)
        .map(|n| (n.n_nationkey, n.n_name.as_str()))
        .collect();
    let cust_nation: HashMap<i64, i64> = db
        .customer
        .iter()
        .filter(|c| nations.contains_key(&c.c_nationkey))
        .map(|c| (c.c_custkey, c.c_nationkey))
        .collect();
    let order_custnation: HashMap<i64, i64> = db
        .orders
        .iter()
        .filter(|o| o.o_orderdate >= params.date_from && o.o_orderdate < params.date_to)
        .filter_map(|o| cust_nation.get(&o.o_custkey).map(|&n| (o.o_orderkey, n)))
        .collect();
    let supp_nation: HashMap<i64, i64> = db
        .supplier
        .iter()
        .map(|s| (s.s_suppkey, s.s_nationkey))
        .collect();
    let mut rev: HashMap<&str, i64> = HashMap::new();
    for l in &db.lineitem {
        let Some(&cn) = order_custnation.get(&l.l_orderkey) else {
            continue;
        };
        let Some(&sn) = supp_nation.get(&l.l_suppkey) else {
            continue;
        };
        if sn != cn {
            continue;
        }
        let name = nations[&cn];
        *rev.entry(name).or_insert(0) += l.revenue_cents();
    }
    let mut out: Vec<(String, i64)> = rev.into_iter().map(|(n, v)| (n.to_string(), v)).collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

/// Project Q5-plan output rows into `(nation, revenue)` pairs for
/// comparison against [`q5_reference`].
pub fn q5_rows_to_pairs(rows: &[Tuple]) -> Vec<(String, i64)> {
    rows.iter()
        .map(|t| {
            (
                t[0].as_str().expect("n_name string").to_string(),
                t[1].as_int().expect("revenue int"),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExecCtx;
    use crate::exec::execute;
    use eco_storage::{load_tpch, EngineKind};
    use eco_tpch::TpchGenerator;

    fn setup() -> (eco_tpch::TpchDb, Catalog) {
        let db = TpchGenerator::new(0.005).generate();
        let cat = load_tpch(&db, EngineKind::Memory, 0);
        (db, cat)
    }

    #[test]
    fn q5_matches_reference_oracle() {
        let (db, cat) = setup();
        for params in [Q5Params::new("ASIA", 1994), Q5Params::new("AMERICA", 1996)] {
            let mut plan = q5_plan(&cat, &params);
            let mut ctx = ExecCtx::new();
            let rows = execute(plan.as_mut(), &mut ctx);
            let got = q5_rows_to_pairs(&rows);
            let want = q5_reference(&db, &params);
            // Compare as multisets keyed by nation (sort order ties may
            // differ when revenues are equal).
            let mut got_sorted = got.clone();
            got_sorted.sort();
            let mut want_sorted = want.clone();
            want_sorted.sort();
            assert_eq!(got_sorted, want_sorted, "{params:?}");
            // Revenue-descending order.
            for w in got.windows(2) {
                assert!(w[0].1 >= w[1].1);
            }
        }
    }

    #[test]
    fn q5_output_schema() {
        let (_, cat) = setup();
        let plan = q5_plan(&cat, &Q5Params::new("ASIA", 1994));
        assert_eq!(plan.schema().names(), vec!["n_name", "revenue"]);
    }

    #[test]
    fn q6_sums_discounted_revenue() {
        let (db, cat) = setup();
        let mut plan = q6_plan(&cat, 1994, 6, 24);
        let mut ctx = ExecCtx::new();
        let rows = execute(plan.as_mut(), &mut ctx);
        assert_eq!(rows.len(), 1);
        let got = rows[0][0].as_int().unwrap();
        let from = eco_tpch::Date::year_start(1994);
        let to = eco_tpch::Date::year_start(1995);
        let want: i64 = db
            .lineitem
            .iter()
            .filter(|l| {
                l.l_shipdate >= from
                    && l.l_shipdate < to
                    && (5..=7).contains(&l.l_discount)
                    && l.l_quantity < 24
            })
            .map(|l| l.l_extendedprice * l.l_discount / 100)
            .sum();
        assert_eq!(got, want);
    }

    #[test]
    fn q1_groups_by_flags() {
        let (db, cat) = setup();
        let mut plan = q1_plan(&cat, 90);
        let mut ctx = ExecCtx::new();
        let rows = execute(plan.as_mut(), &mut ctx);
        assert!(!rows.is_empty() && rows.len() <= 6, "{} groups", rows.len());
        // Count column equals a direct count.
        let cutoff = eco_tpch::Date::from_ymd(1998, 12, 1).plus_days(-90);
        let want: i64 = db
            .lineitem
            .iter()
            .filter(|l| l.l_shipdate <= cutoff)
            .count() as i64;
        let got: i64 = rows
            .iter()
            .map(|t| t.last().unwrap().as_int().unwrap())
            .sum();
        assert_eq!(got, want);
    }

    #[test]
    fn q3_returns_top_10_by_revenue() {
        let (_, cat) = setup();
        let mut plan = q3_plan(&cat, "BUILDING", eco_tpch::Date::from_ymd(1995, 3, 15));
        let mut ctx = ExecCtx::new();
        let rows = execute(plan.as_mut(), &mut ctx);
        assert!(rows.len() <= 10);
        let revs: Vec<i64> = rows.iter().map(|t| t[3].as_int().unwrap()).collect();
        for w in revs.windows(2) {
            assert!(w[0] >= w[1], "descending revenue");
        }
    }

    #[test]
    fn selection_plan_selects_only_quantity() {
        let (db, cat) = setup();
        let q = QedQuery { quantity: 17 };
        let mut plan = selection_plan(&cat, &q);
        let mut ctx = ExecCtx::new();
        let rows = execute(plan.as_mut(), &mut ctx);
        let want = db.lineitem.iter().filter(|l| l.l_quantity == 17).count();
        assert_eq!(rows.len(), want);
        let qty = cat.expect("lineitem").schema().expect_index("l_quantity");
        for t in &rows {
            assert_eq!(t[qty].as_int(), Some(17));
        }
    }

    #[test]
    fn nonexistent_region_yields_empty() {
        let (_, cat) = setup();
        let mut plan = q5_plan(&cat, &Q5Params::new("ATLANTIS", 1994));
        let mut ctx = ExecCtx::new();
        assert!(execute(plan.as_mut(), &mut ctx).is_empty());
    }
}

#[cfg(test)]
mod late_filter_tests {
    use super::*;
    use crate::context::ExecCtx;
    use crate::exec::execute;
    use eco_simhw::trace::PhaseKind;
    use eco_storage::{load_tpch, EngineKind};
    use eco_tpch::TpchGenerator;

    #[test]
    fn late_filter_plan_gives_same_answer_with_more_work() {
        let db = TpchGenerator::new(0.004).generate();
        let cat = load_tpch(&db, EngineKind::Memory, 0);
        let params = Q5Params::new("ASIA", 1994);

        let mut good = q5_plan(&cat, &params);
        let mut gctx = ExecCtx::new();
        let good_rows = execute(good.as_mut(), &mut gctx);

        let mut bad = q5_plan_late_filter(&cat, &params);
        let mut bctx = ExecCtx::new();
        let bad_rows = execute(bad.as_mut(), &mut bctx);

        let mut a = q5_rows_to_pairs(&good_rows);
        a.sort();
        let mut b = q5_rows_to_pairs(&bad_rows);
        b.sort();
        assert_eq!(a, b, "plans must agree on the answer");
        let machine = eco_simhw::Machine::paper_sut();
        let busy_s = |ctx: &mut ExecCtx| {
            machine.stock_busy_seconds(&ctx.take_phase(PhaseKind::Execute, "q5"))
        };
        let (bad_s, good_s) = (busy_s(&mut bctx), busy_s(&mut gctx));
        assert!(
            bad_s > 1.5 * good_s,
            "late filtering must do much more work: {bad_s} s vs {good_s} s busy"
        );
    }

    #[test]
    fn q5_sql_text_compiles_and_matches_hand_plan() {
        let db = TpchGenerator::new(0.004).generate();
        let cat = load_tpch(&db, EngineKind::Memory, 0);
        let params = Q5Params::new("AMERICA", 1996);
        let mut sql_plan = crate::sql::compile(&cat, &q5_sql(&params)).expect("compiles");
        let mut sctx = ExecCtx::new();
        let sql_rows = execute(sql_plan.as_mut(), &mut sctx);
        let mut hand = q5_plan(&cat, &params);
        let mut hctx = ExecCtx::new();
        let hand_rows = execute(hand.as_mut(), &mut hctx);
        let mut a = q5_rows_to_pairs(&sql_rows);
        a.sort();
        let mut b = q5_rows_to_pairs(&hand_rows);
        b.sort();
        assert_eq!(a, b);
    }
}
