//! Morsel-driven parallel execution: result rows and the merged energy
//! ledger must be **bit-identical** to serial execution at every worker
//! count, on both storage engines, cold and warm — the invariant every
//! reproduction figure rests on. Plus: per-core trace splits partition
//! the total exactly, and the multi-core machine model prices them
//! sanely.

use std::sync::OnceLock;

use ecodb::core::server::{EcoDb, EngineProfile, Query};
use ecodb::query::context::ExecCtx;
use ecodb::query::exec::execute;
use ecodb::query::ops::BoxedOp;
use ecodb::query::plans;
use ecodb::simhw::machine::MachineConfig;
use ecodb::simhw::trace::{DiskWork, Ledger, WorkTrace};
use ecodb::storage::{load_tpch, Catalog, EngineKind, Tuple};
use ecodb::tpch::{q5_workload, TpchDb, TpchGenerator};

const SCALE: f64 = 0.01;

fn mem_db() -> &'static EcoDb {
    static DB: OnceLock<EcoDb> = OnceLock::new();
    DB.get_or_init(|| EcoDb::tpch(EngineProfile::MemoryEngine, SCALE))
}

fn source_db() -> &'static TpchDb {
    static DB: OnceLock<TpchDb> = OnceLock::new();
    DB.get_or_init(|| TpchGenerator::new(0.004).generate())
}

/// A roomy, reread-free pool (like `integration_columnar.rs`): cold
/// runs charge the full read once, warm runs are I/O-free — so ledgers
/// are comparable across runs without warm-reread counter offsets.
fn fresh_catalog(engine: EngineKind) -> Catalog {
    load_tpch(source_db(), engine, 1 << 20)
}

type PlanFn = fn(&Catalog) -> BoxedOp;

fn q1(cat: &Catalog) -> BoxedOp {
    plans::q1_plan(cat, 90)
}

fn q3(cat: &Catalog) -> BoxedOp {
    plans::q3_plan(cat, "BUILDING", ecodb::tpch::Date::from_ymd(1995, 3, 15))
}

fn q5(cat: &Catalog) -> BoxedOp {
    plans::q5_plan(cat, &ecodb::tpch::Q5Params::new("ASIA", 1994))
}

fn q6(cat: &Catalog) -> BoxedOp {
    plans::q6_plan(cat, 1994, 6, 24)
}

fn selection(cat: &Catalog) -> BoxedOp {
    plans::selection_plan(cat, &ecodb::tpch::QedQuery { quantity: 17 })
}

const QUERIES: [(&str, PlanFn); 5] = [
    ("q1", q1),
    ("q3", q3),
    ("q5", q5),
    ("q6", q6),
    ("selection", selection),
];

fn assert_ledgers_equal(name: &str, workers: usize, par: &ExecCtx, ser: &ExecCtx) {
    ser.ledger
        .assert_same(&par.ledger, format_args!("{name} workers={workers}"));
    assert_eq!(
        par.pred_evals, ser.pred_evals,
        "{name} workers={workers}: pred evals"
    );
}

#[test]
fn parallel_ledger_bit_identical_memory_engine() {
    let cat = fresh_catalog(EngineKind::Memory);
    for (name, plan_fn) in QUERIES {
        let mut serial_ctx = ExecCtx::new();
        let serial_rows = execute(plan_fn(&cat).as_mut(), &mut serial_ctx);
        for workers in [1usize, 2, 3, 4, 8] {
            let mut ctx = ExecCtx::new().with_workers(workers);
            let rows = execute(plan_fn(&cat).as_mut(), &mut ctx);
            assert_eq!(rows, serial_rows, "{name} workers={workers}: rows");
            assert_ledgers_equal(name, workers, &ctx, &serial_ctx);
        }
    }
}

#[test]
fn parallel_ledger_bit_identical_across_morsel_sizes() {
    let cat = fresh_catalog(EngineKind::Memory);
    let mut serial_ctx = ExecCtx::new();
    let serial_rows = execute(q6(&cat).as_mut(), &mut serial_ctx);
    for morsel_rows in [64usize, 1000, 4096, 1 << 20] {
        let mut ctx = ExecCtx::new().with_morsel_rows(morsel_rows).with_workers(4);
        let rows = execute(q6(&cat).as_mut(), &mut ctx);
        assert_eq!(rows, serial_rows, "morsel_rows={morsel_rows}");
        assert_ledgers_equal("q6", 4, &ctx, &serial_ctx);
    }
}

#[test]
fn parallel_ledger_bit_identical_disk_engine_cold_and_warm() {
    for (name, plan_fn) in QUERIES {
        // Serial cold + warm on a fresh pool.
        let cat = fresh_catalog(EngineKind::Disk);
        let mut cold_serial = ExecCtx::new();
        let cold_rows = execute(plan_fn(&cat).as_mut(), &mut cold_serial);
        let mut warm_serial = ExecCtx::new();
        let warm_rows = execute(plan_fn(&cat).as_mut(), &mut warm_serial);
        assert_eq!(cold_rows, warm_rows);
        assert!(
            cold_serial.ledger.disk.total_bytes() > 0,
            "{name}: cold serial hit disk"
        );
        assert!(
            warm_serial.ledger.disk == DiskWork::none(),
            "{name}: warm serial I/O-free"
        );

        for workers in [2usize, 4] {
            // Parallel cold + warm on its own fresh pool.
            let cat = fresh_catalog(EngineKind::Disk);
            let mut cold_par = ExecCtx::new().with_workers(workers);
            let rows = execute(plan_fn(&cat).as_mut(), &mut cold_par);
            assert_eq!(rows, cold_rows, "{name} cold workers={workers}");
            assert_ledgers_equal(&format!("{name} cold"), workers, &cold_par, &cold_serial);

            let mut warm_par = ExecCtx::new().with_workers(workers);
            let rows = execute(plan_fn(&cat).as_mut(), &mut warm_par);
            assert_eq!(rows, warm_rows, "{name} warm workers={workers}");
            assert_ledgers_equal(&format!("{name} warm"), workers, &warm_par, &warm_serial);
        }
    }
}

/// The Q5 workload through `EcoDb::trace` on `workers` cores: each
/// statement's rows, and each core's traces concatenated.
fn q5_workload_cores(db: &EcoDb, workers: usize) -> (Vec<Vec<Tuple>>, Vec<WorkTrace>) {
    let mut cores = vec![WorkTrace::new(); workers];
    let rows = q5_workload().into_iter().map(|p| {
        let (rows, traces) = db.trace(&Query::Q5(&p), workers).unwrap();
        for (core, t) in cores.iter_mut().zip(traces) {
            core.extend(t);
        }
        rows.into_tuples()
    });
    (rows.collect(), cores)
}

#[test]
fn core_traces_partition_the_serial_trace_exactly() {
    let db = mem_db();
    let (serial_rows, serial_trace) = db.trace_q5_workload();
    for workers in [1usize, 2, 4, 8] {
        let (rows, core_traces) = q5_workload_cores(db, workers);
        assert_eq!(rows, serial_rows, "workers={workers}");
        assert_eq!(core_traces.len(), workers);
        let merged: Ledger = core_traces.iter().map(WorkTrace::total).sum();
        serial_trace
            .total()
            .assert_same(&merged, format_args!("workers={workers}"));
        // Repeatability: static morsel assignment makes the per-core
        // split itself deterministic, not just the merged totals.
        let (_, again) = q5_workload_cores(db, workers);
        for (a, b) in core_traces.iter().zip(&again) {
            a.total()
                .assert_same(&b.total(), format_args!("workers={workers}: stable split"));
        }
    }
}

#[test]
fn multicore_pricing_is_sane_and_faster_with_more_cores() {
    let db = mem_db();
    let (serial_rows, serial_trace) = db.trace_q5_workload();
    let serial = db.price(&serial_trace, MachineConfig::stock());
    let mut prev_elapsed = f64::INFINITY;
    for workers in [1usize, 2, 4, 8] {
        let (rows, core_traces) = q5_workload_cores(db, workers);
        assert_eq!(rows, serial_rows, "workers={workers}");
        let m = db
            .multicore(workers)
            .measure_uniform(&core_traces, &MachineConfig::stock());
        assert!(m.elapsed_s > 0.0 && m.cpu_joules > 0.0 && m.wall_joules > m.cpu_joules);
        assert!(
            m.elapsed_s <= prev_elapsed * 1.0001,
            "workers={workers}: more cores never cost simulated makespan"
        );
        prev_elapsed = m.elapsed_s;
        if workers == 1 {
            // One core reproduces the single-core pricing closely.
            assert!((m.elapsed_s - serial.elapsed_s).abs() < 1e-9);
            assert!((m.cpu_joules - serial.cpu_joules).abs() < 1e-6 * serial.cpu_joules);
        }
        if workers == 4 {
            let speedup = serial.elapsed_s / m.elapsed_s;
            assert!(speedup > 2.0, "4 simulated cores: {speedup}x");
        }
    }
}

#[test]
fn limit_over_streaming_pipeline_keeps_scalar_exact_consumption() {
    // A Limit directly over a scan→filter pipeline: parallel execution
    // must consume (and charge) exactly as much of the stream as serial.
    use ecodb::query::expr::{CmpOp, Expr};
    use ecodb::query::ops::{Filter, Limit, SeqScan};
    let db = mem_db();
    let table = db.catalog().expect("lineitem");
    let qty = table.schema().expect_index("l_quantity");
    let mk = || -> BoxedOp {
        let scan = Box::new(SeqScan::new(std::sync::Arc::clone(&table)));
        let filt = Box::new(Filter::new(
            scan,
            Expr::cmp(CmpOp::Ge, Expr::col(qty), Expr::int(10)),
        ));
        Box::new(Limit::new(filt, 25))
    };
    let mut serial_ctx = ExecCtx::new();
    let serial_rows = execute(mk().as_mut(), &mut serial_ctx);
    assert_eq!(serial_rows.len(), 25);
    for workers in [2usize, 8] {
        let mut ctx = ExecCtx::new().with_workers(workers);
        let rows = execute(mk().as_mut(), &mut ctx);
        assert_eq!(rows, serial_rows);
        assert_ledgers_equal("limit-pipeline", workers, &ctx, &serial_ctx);
    }
}

#[test]
fn exchange_and_gather_merge_compose_into_plans() {
    use ecodb::query::ops::{Exchange, GatherMerge, Sort, SortKey};
    let db = mem_db();

    // Exchange over the Q6 filter pipeline, Sort over a GatherMerge.
    let table = db.catalog().expect("lineitem");
    let qty = table.schema().expect_index("l_quantity");
    let mk_filtered = || -> BoxedOp {
        use ecodb::query::expr::{CmpOp, Expr};
        use ecodb::query::ops::{Filter, SeqScan};
        let scan = Box::new(SeqScan::new(std::sync::Arc::clone(&table)));
        Box::new(Filter::new(
            scan,
            Expr::cmp(CmpOp::Eq, Expr::col(qty), Expr::int(17)),
        ))
    };

    let mut serial_ctx = ExecCtx::new();
    let mut serial_plan = Sort::new(mk_filtered(), vec![SortKey::asc(0)]);
    let serial_rows = execute(&mut serial_plan, &mut serial_ctx);

    for workers in [2usize, 4] {
        let mut ctx = ExecCtx::new().with_workers(workers);
        let gathered = Box::new(GatherMerge::new(mk_filtered())) as BoxedOp;
        let mut plan = Sort::new(gathered, vec![SortKey::asc(0)]);
        let rows = execute(&mut plan, &mut ctx);
        assert_eq!(rows, serial_rows, "workers={workers}");
        assert_ledgers_equal("sort-over-gather", workers, &ctx, &serial_ctx);

        let mut ctx2 = ExecCtx::new().with_workers(workers);
        let mut ex = Exchange::new(mk_filtered());
        let ex_rows = execute(&mut ex, &mut ctx2);
        assert_eq!(ex_rows.len(), serial_rows.len());
    }
}
