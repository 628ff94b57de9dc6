//! The columnar contract: scalar and columnar execution must produce
//! **identical result rows** and **bit-identical energy
//! ledgers** — op-class counts, memory stream bytes, random accesses
//! and disk I/O — for TPC-H Q1/Q3/Q5/Q6 and the QED merged scan, on
//! both storage engines, cold and warm, serial and morsel-parallel,
//! across chunk sizes. The paper-reproduction figures are priced from
//! the ledger, so any drift here silently corrupts them.

use std::sync::OnceLock;

use ecodb::core::server::{EcoDb, EngineProfile, Query};
use ecodb::query::context::ExecCtx;
use ecodb::query::exec::{execute, execute_columnar, execute_scalar, ExecEngine};
use ecodb::query::ops::BoxedOp;
use ecodb::query::plans;
use ecodb::simhw::{DiskWork, OpClass};
use ecodb::storage::{load_tpch, Catalog, EngineKind, Tuple};
use ecodb::tpch::{Q5Params, TpchDb, TpchGenerator};

const SCALE: f64 = 0.003;

fn source_db() -> &'static TpchDb {
    static DB: OnceLock<TpchDb> = OnceLock::new();
    DB.get_or_init(|| TpchGenerator::new(SCALE).generate())
}

fn fresh_catalog(engine: EngineKind) -> Catalog {
    // A roomy pool: cold runs charge the full read once, warm runs are
    // I/O-free — deterministically, for every execution engine alike.
    load_tpch(source_db(), engine, 1 << 20)
}

fn assert_ledgers_equal(a: &ExecCtx, b: &ExecCtx, what: &str) {
    b.ledger.assert_same(&a.ledger, what);
    assert_eq!(a.pred_evals, b.pred_evals, "{what}: pred_evals differ");
}

/// Run `mk`'s plan cold then warm on a fresh catalog under the given
/// engine; return rows and ledgers for both runs.
fn run_twice(
    engine: EngineKind,
    mk: &dyn Fn(&Catalog) -> BoxedOp,
    mut ctx_of: impl FnMut() -> ExecCtx,
    exec: ExecEngine,
) -> [(Vec<Tuple>, ExecCtx); 2] {
    let catalog = fresh_catalog(engine);
    [(); 2].map(|_| {
        let mut plan = mk(&catalog);
        let mut ctx = ctx_of();
        let rows = exec.execute(plan.as_mut(), &mut ctx);
        (rows, ctx)
    })
}

fn check_query(name: &str, mk: &dyn Fn(&Catalog) -> BoxedOp) {
    for engine in [EngineKind::Memory, EngineKind::Disk] {
        // The baseline: a genuinely tuple-at-a-time pipeline.
        let scalar = run_twice(engine, mk, ExecCtx::new, ExecEngine::Scalar);

        // Columnar execution at several chunkings, including sizes that
        // do not divide the table and the default.
        for chunk_size in [3, 257, 1024] {
            let columnar = run_twice(
                engine,
                mk,
                || ExecCtx::new().with_batch_size(chunk_size),
                ExecEngine::Columnar,
            );
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
fn q1_columnar_scalar_identical() {
    check_query("Q1", &|cat| plans::q1_plan(cat, 90));
}

#[test]
fn q3_columnar_scalar_identical() {
    check_query("Q3", &|cat| {
        plans::q3_plan(cat, "BUILDING", ecodb::tpch::Date::from_ymd(1995, 3, 15))
    });
}

#[test]
fn q5_columnar_scalar_identical() {
    check_query("Q5", &|cat| {
        plans::q5_plan(cat, &Q5Params::new("ASIA", 1994))
    });
}

#[test]
fn q6_columnar_scalar_identical() {
    check_query("Q6", &|cat| plans::q6_plan(cat, 1994, 6, 24));
}

/// `MIN`/`MAX` over string columns: the columnar accumulator compares
/// each cell where it lies in its column's arena and builds a `Value`
/// only for a new extreme; rows and whole ledgers must equal the
/// scalar oracle's, which compares materialized values.
#[test]
fn min_max_over_string_columns_columnar_scalar_identical() {
    let sql = [
        "SELECT l_returnflag, MIN(l_shipmode), MAX(l_shipmode), MIN(l_comment), \
         MAX(l_comment) FROM lineitem GROUP BY l_returnflag",
        "SELECT c_mktsegment, MIN(c_name), MAX(c_name) FROM customer GROUP BY c_mktsegment",
        "SELECT MIN(c_name), MAX(c_address) FROM customer",
    ];
    for q in sql {
        check_query(q, &|cat| ecodb::query::sql::compile(cat, q).expect(q));
    }
    // The extremes are the source's, not just the oracle's.
    let modes = source_db().lineitem.iter().map(|l| l.l_shipmode.as_str());
    let (lo, hi) = (modes.clone().min(), modes.max());
    let catalog = fresh_catalog(EngineKind::Memory);
    let mut plan = ecodb::query::sql::compile(
        &catalog,
        "SELECT MIN(l_shipmode), MAX(l_shipmode) FROM lineitem",
    )
    .expect("compiles");
    let rows = execute_columnar(plan.as_mut(), &mut ExecCtx::new().with_columnar(true));
    let want = [lo, hi].map(|s| ecodb::storage::Value::str(s.expect("rows")));
    assert_eq!(rows, vec![want.to_vec()]);
}

/// Columnar execution composes with morsel-driven parallelism: the
/// merged ledger and rows stay bit-identical to serial scalar execution
/// at every worker count, cold and warm, on both storage engines.
#[test]
fn parallel_columnar_identical_to_scalar() {
    type PlanFn = fn(&Catalog) -> BoxedOp;
    let queries: [(&str, PlanFn); 3] = [
        ("q1", |cat| plans::q1_plan(cat, 90)),
        ("q5", |cat| {
            plans::q5_plan(cat, &Q5Params::new("ASIA", 1994))
        }),
        ("q6", |cat| plans::q6_plan(cat, 1994, 6, 24)),
    ];
    for engine in [EngineKind::Memory, EngineKind::Disk] {
        for (name, mk) in queries {
            let cat = fresh_catalog(engine);
            let mut sctx = ExecCtx::new();
            let cold_rows = execute_scalar(mk(&cat).as_mut(), &mut sctx);
            let mut wctx = ExecCtx::new();
            let warm_rows = execute_scalar(mk(&cat).as_mut(), &mut wctx);

            for workers in [1usize, 2, 4] {
                let cat = fresh_catalog(engine);
                let mut cold_par = ExecCtx::new().with_columnar(true).with_workers(workers);
                let rows = execute(mk(&cat).as_mut(), &mut cold_par);
                let what = format!("{name}/{engine:?}/cold/workers={workers}");
                assert_eq!(rows, cold_rows, "{what}: rows differ");
                assert_ledgers_equal(&cold_par, &sctx, &what);

                let mut warm_par = ExecCtx::new().with_columnar(true).with_workers(workers);
                let rows = execute(mk(&cat).as_mut(), &mut warm_par);
                let what = format!("{name}/{engine:?}/warm/workers={workers}");
                assert_eq!(rows, warm_rows, "{what}: rows differ");
                assert_ledgers_equal(&warm_par, &wctx, &what);
            }
        }
    }
}

/// The disk profile's columnar mirror decodes column by column and
/// grows statement by statement. On one database Q6 decodes four
/// `lineitem` columns, and Q1, Q3, Q5 and a `SELECT *` selection each
/// decode what they read on top; every statement's rows and ledger
/// equal the scalar oracle's over the same statement history, serial
/// and at 2 and 4 workers (whose morsel clones carry the scans' column
/// masks). Serially the result is also checked as it comes out of the
/// driver: a view of the final chunks.
#[test]
fn a_disk_mirror_grown_statement_by_statement_matches_the_scalar_oracle() {
    use ecodb::query::exec::execute_rows;
    use ecodb::storage::TableData;

    type PlanFn = fn(&Catalog) -> BoxedOp;
    let statements: [(&str, PlanFn); 5] = [
        ("Q6", |cat| plans::q6_plan(cat, 1994, 6, 24)),
        ("Q1", |cat| plans::q1_plan(cat, 90)),
        ("Q3", |cat| {
            plans::q3_plan(cat, "BUILDING", ecodb::tpch::Date::from_ymd(1995, 3, 15))
        }),
        ("Q5", |cat| {
            plans::q5_plan(cat, &Q5Params::new("ASIA", 1994))
        }),
        ("SELECT *", |cat| {
            plans::selection_plan(cat, &ecodb::tpch::QedQuery { quantity: 7 })
        }),
    ];
    let lineitem_decoded = |cat: &Catalog| {
        let table = cat.expect("lineitem");
        let TableData::Disk(disk) = &table.data else {
            panic!("a disk table");
        };
        let none = vec![false; table.schema().arity()];
        let mirror = disk.columnar_with(&none);
        mirror.decoded().iter().filter(|&&d| d).count()
    };
    let oracle = fresh_catalog(EngineKind::Disk);
    let want: Vec<(Vec<Tuple>, ExecCtx)> = (statements.iter())
        .map(|(_, mk)| {
            let mut ctx = ExecCtx::new();
            (execute_scalar(mk(&oracle).as_mut(), &mut ctx), ctx)
        })
        .collect();
    assert!(want.iter().all(|(rows, _)| !rows.is_empty()));
    for workers in [1usize, 2, 4] {
        let cat = fresh_catalog(EngineKind::Disk);
        for ((name, mk), (rows, ctx)) in statements.iter().zip(&want) {
            let what = format!("{name}/workers={workers}");
            let mut got = ExecCtx::new().with_columnar(true).with_workers(workers);
            let view = execute_rows(mk(&cat).as_mut(), &mut got);
            assert_eq!(view, *rows, "{what}: rows differ");
            if workers == 1 {
                assert!(!view.is_decoded(), "{what}: the comparison decoded");
                assert_eq!(view.tuples(), rows, "{what}: decoded rows differ");
            }
            assert_ledgers_equal(&got, ctx, &what);
            if *name == "Q6" {
                assert_eq!(lineitem_decoded(&cat), 4, "{what}: Q6 reads 4 columns");
            }
        }
        assert_eq!(
            lineitem_decoded(&cat),
            16,
            "workers={workers}: SELECT * reads all"
        );
    }
}

/// The QED merged scan (MultiFilter) obeys the same contract, in both
/// short-circuit and exhaustive OR mode — the disjoint fast path and
/// the fan-out path both route through the columnar selection machinery.
#[test]
fn merged_selection_columnar_identical() {
    use ecodb::query::mqo::MergedSelection;
    let queries = ecodb::tpch::qed_workload(8);
    for engine in [EngineKind::Memory, EngineKind::Disk] {
        for short_circuit in [true, false] {
            let run = |columnar: bool, chunk_size: usize| {
                let catalog = fresh_catalog(engine);
                let mut merged = MergedSelection::new(&catalog, &queries);
                let mut ctx = if short_circuit {
                    ExecCtx::new()
                } else {
                    ExecCtx::exhaustive()
                }
                .with_batch_size(chunk_size)
                .with_columnar(columnar);
                let rows = merged.run(&mut ctx);
                (rows, ctx)
            };
            let (rows_s, ctx_s) = run(false, 1);
            for chunk_size in [7, 1024] {
                let (rows_c, ctx_c) = run(true, chunk_size);
                let what = format!("QED/{engine:?}/sc={short_circuit}/chunk={chunk_size}");
                assert_eq!(rows_c, rows_s, "{what}: rows differ");
                assert_ledgers_equal(&ctx_c, &ctx_s, &what);
            }
        }
    }
}

/// A LIMIT over a streaming pipeline keeps scalar-exact stream
/// consumption under the columnar driver (the limit pulls its child
/// tuple-at-a-time in every engine), and under both drivers it stops
/// the scan early.
#[test]
fn limit_over_streaming_pipeline_columnar_identical() {
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
        assert_eq!(rows_s.len(), 25);

        let catalog = fresh_catalog(engine);
        let mut cctx = ExecCtx::new();
        let rows_c = execute_columnar(mk(&catalog).as_mut(), &mut cctx);
        let what = format!("limit/{engine:?}/columnar");
        assert_eq!(rows_c, rows_s, "{what}: rows differ");
        assert_ledgers_equal(&cctx, &sctx, &what);

        // The scan stopped early: fewer fetches than rows.
        let total = source_db().lineitem.len() as u64;
        for (driver, ctx) in [("scalar", &sctx), ("columnar", &cctx)] {
            let fetched = ctx.ledger.cpu.count(OpClass::TupleFetch);
            assert!(
                fetched < total,
                "{engine:?}/{driver}: limit failed to stop the scan: {fetched}/{total}"
            );
        }
    }
}

/// Columnar is what `EcoDb` runs unless a test asks for an oracle.
#[test]
fn default_engine_is_columnar() {
    for profile in [EngineProfile::MemoryEngine, EngineProfile::CommercialDisk] {
        assert_eq!(EcoDb::tpch(profile, 0.002).engine(), ExecEngine::Columnar);
        assert_eq!(
            EcoDb::tpch_seeded(profile, 0.002, 7).engine(),
            ExecEngine::Columnar
        );
    }
}

/// The engine knob on the server facade: identical rows and identical
/// work traces (hence identical priced figures) under both engines —
/// the default and the oracle.
#[test]
fn ecodb_engine_knob_produces_identical_traces() {
    let mk = || EcoDb::tpch(EngineProfile::MemoryEngine, 0.002);
    let default_db = mk();
    let q1 = Query::Q1 { delta_days: 90 };
    let (rows_d, trace_d) = default_db.trace(&q1, 1).unwrap();
    for engine in [ExecEngine::Scalar, ExecEngine::Columnar] {
        let db = mk().with_engine(engine);
        assert_eq!(db.engine(), engine);
        let (rows, trace) = db.trace(&q1, 1).unwrap();
        assert_eq!(rows, rows_d, "{engine:?}: rows differ");
        trace_d[0]
            .total()
            .assert_same(&trace[0].total(), format_args!("{engine:?}"));
    }

    // The QED path honors the knob too.
    let queries = ecodb::tpch::qed_workload(5);
    let (split_d, qtrace_d) = default_db
        .try_trace_merged_selection(&queries, true)
        .unwrap();
    let oracle = mk().with_engine(ExecEngine::Scalar);
    let (split, qtrace) = oracle.try_trace_merged_selection(&queries, true).unwrap();
    assert_eq!(split, split_d);
    qtrace_d.total().assert_same(&qtrace.total(), "QED oracle");
}
