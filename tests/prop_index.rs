//! Property tests for B-tree secondary indexes (ledger schema v4).
//!
//! Three invariants, checked over random tables × key distributions ×
//! point/range probes:
//!
//! 1. **Same rows**: an [`IxScan`] point/range probe returns rows
//!    bit-identical to the `Filter`-over-`SeqScan` plan — including
//!    order, since sorted row ids make the index path emit in table
//!    order.
//! 2. **Index-free ledgers untouched**: creating an index leaves the
//!    scan plan's full energy ledger bit-identical, with every v4
//!    class (index I/O, `NodeSearch`) zero — pre-v4 figures are
//!    reproduced byte for byte.
//! 3. **Probes price as index I/O**: a cold probe charges
//!    `index_ios`/`index_bytes` and `NodeSearch`, and never charges
//!    sequential or plain-random disk traffic.

use proptest::prelude::*;

use ecodb::query::context::ExecCtx;
use ecodb::query::exec::ExecEngine;
use ecodb::query::expr::{CmpOp, Expr};
use ecodb::query::ops::{BoxedOp, Filter, IxBound, IxScan, SeqScan};
use ecodb::simhw::trace::OpClass;
use ecodb::storage::{Catalog, ColumnType, Schema, Tuple, Value};

fn table_schema() -> Schema {
    Schema::new(&[("k", ColumnType::Int), ("p", ColumnType::Str)])
}

/// Deterministic pseudo-random rows: an int key drawn from `span`
/// distinct values (plus a slow drift every `run` rows, so keys come
/// duplicated, clustered and scattered) and a wide string payload.
fn make_tuples(n: usize, span: i64, run: usize) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            let mix = (i as u64).wrapping_mul(0x9e37_79b9).rotate_left(13);
            vec![
                Value::Int((mix as i64).rem_euclid(span) + (i / run) as i64),
                Value::str(format!("payload-{i}-{mix}")),
            ]
        })
        .collect()
}

fn load(tuples: &[Tuple]) -> Catalog {
    let mut cat = Catalog::new(1 << 20);
    cat.add_disk_table("t", table_schema(), tuples);
    cat
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn index_probes_match_scans_and_leave_base_ledgers_alone(
        n in 1usize..400,
        span in prop_oneof![Just(4i64), Just(50), Just(10_000)],
        run in 1usize..40,
        lo in -20i64..10_060,
        width in 0i64..60,
        point in any::<bool>(),
    ) {
        let tuples = make_tuples(n, span, run);
        let (lo, hi) = if point { (lo, lo) } else { (lo, lo + width) };

        let scan_plan = |cat: &Catalog| -> BoxedOp {
            let scan = SeqScan::new(cat.expect("t"));
            Box::new(Filter::new(
                Box::new(scan),
                Expr::And(vec![
                    Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(lo)),
                    Expr::cmp(CmpOp::Le, Expr::col(0), Expr::int(hi)),
                ]),
            ))
        };

        // Reference: a cold scan on an index-free catalog.
        let before = load(&tuples);
        let mut ctx_before = ExecCtx::new();
        let scan_rows = ExecEngine::Scalar.execute(scan_plan(&before).as_mut(), &mut ctx_before);

        // The same catalog shape WITH an index: the scan plan's ledger
        // must not move, and every v4 class must stay zero.
        let indexed = load(&tuples);
        let entry = indexed.create_index("ix_t_k", "t", "k").expect("disk table");
        let mut ctx_after = ExecCtx::new();
        let scan_rows_after = ExecEngine::Scalar.execute(scan_plan(&indexed).as_mut(), &mut ctx_after);
        prop_assert_eq!(&scan_rows_after, &scan_rows);
        ctx_before.ledger.assert_same(&ctx_after.ledger, "scan plan before/after CREATE INDEX");
        ctx_after.ledger.assert_same(&ctx_after.ledger.without_schema(4), "v4 classes on a scan");

        // The probe: same rows in the same (table) order, charged as v4
        // index I/O — never as sequential or plain-random traffic.
        indexed.pool().flush();
        let mut ix = if point {
            IxScan::point(
                indexed.expect("t"),
                std::sync::Arc::clone(&entry.index),
                Value::Int(lo),
            )
        } else {
            IxScan::range(
                indexed.expect("t"),
                std::sync::Arc::clone(&entry.index),
                IxBound::Inclusive(Value::Int(lo)),
                IxBound::Inclusive(Value::Int(hi)),
            )
        };
        let mut ictx = ExecCtx::new();
        let ix_rows = ExecEngine::Scalar.execute(&mut ix, &mut ictx);
        prop_assert_eq!(&ix_rows, &scan_rows, "index path must return the scan's rows");
        prop_assert_eq!(ictx.ledger.disk.sequential_bytes, 0, "probes never charge sequential I/O");
        prop_assert_eq!(ictx.ledger.disk.random_ios, 0, "probes ledger as index, not random, I/O");
        prop_assert!(ictx.ledger.cpu.count(OpClass::NodeSearch) > 0, "descent must bill NodeSearch");
        if !ix_rows.is_empty() {
            prop_assert!(ictx.ledger.disk.index_ios > 0, "a cold matching probe must read pages");
        }
    }
}
