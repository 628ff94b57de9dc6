//! The chunking contract of the context-dispatched driver:
//! [`execute`] under a columnar context must produce **identical result
//! rows** and **bit-identical energy ledgers** — op-class counts, memory
//! stream bytes, random accesses and disk I/O — to the tuple-at-a-time
//! scalar oracle, at every `ExecCtx::batch_size` (the rows per columnar
//! chunk), for TPC-H Q1/Q3/Q5/Q6 on both storage engines, cold and warm.
//!
//! `tests/integration_columnar.rs` pins the same contract through
//! `ExecEngine` at the usual chunk sizes; this file goes through the
//! flag-driven dispatcher and the extremes: one-row chunks, a small
//! power of two, and chunks larger than the default. The
//! paper-reproduction figures are priced from the ledger, so any drift
//! here silently corrupts them.

use std::sync::OnceLock;

use ecodb::query::context::ExecCtx;
use ecodb::query::exec::{execute, execute_scalar};
use ecodb::query::ops::BoxedOp;
use ecodb::query::plans;
use ecodb::simhw::{DiskWork, OpClass};
use ecodb::storage::{load_tpch, Catalog, EngineKind, Tuple};
use ecodb::tpch::{Q5Params, TpchDb, TpchGenerator};

const SCALE: f64 = 0.003;

/// Chunk sizes the columnar runs use: the degenerate one-row chunk, a
/// size that divides nothing in the data, and one above the default.
const CHUNK_SIZES: [usize; 3] = [1, 64, 4096];

fn source_db() -> &'static TpchDb {
    static DB: OnceLock<TpchDb> = OnceLock::new();
    DB.get_or_init(|| TpchGenerator::new(SCALE).generate())
}

fn fresh_catalog(engine: EngineKind) -> Catalog {
    // A roomy pool: cold runs charge the full read once, warm runs are
    // I/O-free — deterministically, for scalar and columnar alike.
    load_tpch(source_db(), engine, 1 << 20)
}

fn columnar_ctx(chunk_size: usize) -> ExecCtx {
    ExecCtx::new()
        .with_batch_size(chunk_size)
        .with_columnar(true)
}

fn assert_ledgers_equal(a: &ExecCtx, b: &ExecCtx, what: &str) {
    b.ledger.assert_same(&a.ledger, what);
    assert_eq!(a.pred_evals, b.pred_evals, "{what}: pred_evals differ");
}

/// Run `mk`'s plan cold then warm on a fresh catalog through the
/// dispatcher; return rows and ledgers for both runs.
fn run_twice(
    engine: EngineKind,
    mk: &dyn Fn(&Catalog) -> BoxedOp,
    mut ctx_of: impl FnMut() -> ExecCtx,
) -> [(Vec<Tuple>, ExecCtx); 2] {
    let catalog = fresh_catalog(engine);
    [(); 2].map(|_| {
        let mut plan = mk(&catalog);
        let mut ctx = ctx_of();
        let rows = execute(plan.as_mut(), &mut ctx);
        (rows, ctx)
    })
}

fn check_query(name: &str, mk: &dyn Fn(&Catalog) -> BoxedOp) {
    for engine in [EngineKind::Memory, EngineKind::Disk] {
        // The baseline: a fresh context is not columnar, so the
        // dispatcher runs the tuple-at-a-time oracle.
        let scalar = run_twice(engine, mk, ExecCtx::new);

        for chunk_size in CHUNK_SIZES {
            let columnar = run_twice(engine, mk, || columnar_ctx(chunk_size));
            for (pass, label) in [(0, "cold"), (1, "warm")] {
                let what = format!("{name}/{engine:?}/{label}/chunk={chunk_size}");
                assert_eq!(columnar[pass].0, scalar[pass].0, "{what}: rows differ");
                assert_ledgers_equal(&columnar[pass].1, &scalar[pass].1, &what);
            }
        }

        // Sanity: the workload actually exercised the ledger.
        assert!(
            scalar[0].1.ledger.cpu.count(OpClass::TupleFetch) > 0,
            "{name}: no fetches"
        );
        if engine == EngineKind::Disk {
            assert!(
                scalar[0].1.ledger.disk.total_bytes() > 0,
                "{name}: cold disk run charged no I/O"
            );
            assert!(
                scalar[1].1.ledger.disk == DiskWork::none(),
                "{name}: warm disk run still paid I/O"
            );
        }
    }
}

#[test]
fn q1_scalar_batch_identical() {
    check_query("Q1", &|cat| plans::q1_plan(cat, 90));
}

#[test]
fn q3_scalar_batch_identical() {
    check_query("Q3", &|cat| {
        plans::q3_plan(cat, "BUILDING", ecodb::tpch::Date::from_ymd(1995, 3, 15))
    });
}

#[test]
fn q5_scalar_batch_identical() {
    check_query("Q5", &|cat| {
        plans::q5_plan(cat, &Q5Params::new("ASIA", 1994))
    });
}

#[test]
fn q6_scalar_batch_identical() {
    check_query("Q6", &|cat| plans::q6_plan(cat, 1994, 6, 24));
}

/// The QED merged scan (shared-scan MQO path) obeys the same contract.
#[test]
fn merged_selection_scalar_batch_identical() {
    use ecodb::query::mqo::MergedSelection;
    let queries = ecodb::tpch::qed_workload(8);
    for engine in [EngineKind::Memory, EngineKind::Disk] {
        let run = |ctx: ExecCtx| {
            let catalog = fresh_catalog(engine);
            let mut merged = MergedSelection::new(&catalog, &queries);
            let mut ctx = ctx;
            let rows = merged.run(&mut ctx);
            (rows, ctx)
        };
        let (rows_s, ctx_s) = run(ExecCtx::new());
        for chunk_size in CHUNK_SIZES {
            let (rows_c, ctx_c) = run(columnar_ctx(chunk_size));
            let what = format!("QED/{engine:?}/chunk={chunk_size}");
            assert_eq!(rows_c, rows_s, "{what}: rows differ");
            assert_ledgers_equal(&ctx_c, &ctx_s, &what);
        }
    }
}

/// Early termination: a LIMIT over a streaming (non-blocking) pipeline
/// must consume — and charge — exactly as much of its input at every
/// chunk size as the scalar oracle does, and stop the scan early.
#[test]
fn limit_over_streaming_pipeline_identical() {
    use ecodb::query::expr::{CmpOp, Expr};
    use ecodb::query::ops::{Filter, Limit, SeqScan};

    for engine in [EngineKind::Memory, EngineKind::Disk] {
        let mk = |cat: &Catalog| -> BoxedOp {
            let scan = Box::new(SeqScan::new(cat.expect("lineitem")));
            let qty = cat.expect("lineitem").schema().expect_index("l_quantity");
            let filtered = Box::new(Filter::new(
                scan,
                Expr::cmp(CmpOp::Lt, Expr::col(qty), Expr::int(10)),
            ));
            Box::new(Limit::new(filtered, 25))
        };

        let catalog = fresh_catalog(engine);
        let mut sctx = ExecCtx::new();
        let rows_s = execute_scalar(mk(&catalog).as_mut(), &mut sctx);

        for chunk_size in CHUNK_SIZES {
            let catalog = fresh_catalog(engine);
            let mut cctx = columnar_ctx(chunk_size);
            let rows_c = execute(mk(&catalog).as_mut(), &mut cctx);
            let what = format!("limit/{engine:?}/chunk={chunk_size}");
            assert_eq!(rows_c, rows_s, "{what}: rows differ");
            assert_ledgers_equal(&cctx, &sctx, &what);
        }
        assert_eq!(rows_s.len(), 25);
        // The scan must have stopped early: fewer fetches than rows.
        let fetched = sctx.ledger.cpu.count(OpClass::TupleFetch);
        let total = source_db().lineitem.len() as u64;
        assert!(
            fetched < total,
            "limit failed to stop the scan: {fetched}/{total}"
        );
    }
}
