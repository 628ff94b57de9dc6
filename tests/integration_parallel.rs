//! Morsel-driven parallel execution: the columnar engine's result rows
//! and merged energy ledger must be **bit-identical** to the serial
//! scalar oracle's at every worker count, on both storage engines, cold
//! and warm, behind a pool that holds the tables or one that evicts —
//! the invariant every reproduction figure rests on. Plus: per-core
//! trace splits partition the total exactly and repeat exactly on both
//! profiles, a failing page read fails a parallel scan as it fails the
//! serial one, and the multi-core machine model prices them sanely.

mod support;

use ecodb::core::server::{EcoDb, EngineProfile, Query};
use ecodb::query::context::ExecCtx;
use ecodb::query::error::ExecError;
use ecodb::query::exec::ExecEngine;
use ecodb::query::ops::BoxedOp;
use ecodb::simhw::fault::{FaultPlan, PageFault};
use ecodb::simhw::machine::MachineConfig;
use ecodb::simhw::trace::{Ledger, PricingMode, WorkTrace};
use ecodb::storage::bufferpool::EXTENT_PAGES;
use ecodb::storage::disk_table::IoError;
use ecodb::storage::{Catalog, Tuple};
use ecodb::tpch::q5_workload;
use support::{check, Axes, Storage, TPCH_PLANS};

const SCALE: f64 = 0.01;

/// The scale the plan-level checks load: small enough to load a fresh
/// disk catalog per run.
const PLAN_SCALE: f64 = 0.004;

/// The columnar engine at `workers` against the serial scalar oracle,
/// one pass on `storage`.
fn worker_axes(storage: Storage, workers: &[usize]) -> Axes {
    Axes {
        storage: vec![storage],
        workers: workers.to_vec(),
        ..Axes::default()
    }
}

#[test]
fn parallel_ledger_bit_identical_memory_engine() {
    let axes = worker_axes(Storage::Memory(PLAN_SCALE), &[1, 2, 3, 4, 8]);
    for (name, plan) in TPCH_PLANS {
        check(name, &plan, &axes);
    }
}

#[test]
fn parallel_ledger_bit_identical_across_morsel_sizes() {
    let axes = Axes {
        morsel_rows: vec![64, 1000, 4096, 1 << 20],
        ..worker_axes(Storage::Memory(PLAN_SCALE), &[4])
    };
    check("Q6", &support::Q6, &axes);
}

/// Behind a pool that holds the tables, and behind one of 64 pages
/// that evicts: parallel scans read their pages in serial order, so
/// hits, misses and evictions fall where they fall serially.
#[test]
fn parallel_ledger_bit_identical_disk_engine_cold_and_warm() {
    let axes = Axes {
        storage: vec![Storage::Disk(PLAN_SCALE), Storage::DiskPool(PLAN_SCALE, 64)],
        passes: 2,
        ..worker_axes(Storage::Disk(PLAN_SCALE), &[2, 4])
    };
    for (name, plan) in TPCH_PLANS {
        let oracle = check(name, &plan, &axes);
        assert_eq!(oracle[0].0, oracle[1].0, "{name}: cold and warm rows");
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

/// On both profiles, each run from a flushed pool (a no-op on the
/// memory engine); the disk profile's periodic warm re-read is in play.
#[test]
fn core_traces_partition_the_serial_trace_exactly() {
    for profile in [EngineProfile::MemoryEngine, EngineProfile::CommercialDisk] {
        let db = support::db(profile, SCALE, PricingMode::Raw, ExecEngine::Columnar);
        q5_core_traces_partition_the_serial_trace(db);
        if profile == EngineProfile::CommercialDisk {
            warm_q6_core_traces_repeat_exactly(db);
        }
    }
}

fn q5_core_traces_partition_the_serial_trace(db: &EcoDb) {
    db.flush_cache();
    let (serial_rows, serial_trace) = db.trace_q5_workload();
    for workers in [1usize, 2, 4, 8] {
        db.flush_cache();
        let (rows, core_traces) = q5_workload_cores(db, workers);
        assert_eq!(rows, serial_rows, "workers={workers}");
        assert_eq!(core_traces.len(), workers);
        let merged: Ledger = core_traces.iter().map(WorkTrace::total).sum();
        serial_trace
            .total()
            .assert_same(&merged, format_args!("workers={workers}"));
        // Repeatability: static morsel assignment makes the per-core
        // split itself deterministic, not just the merged totals.
        db.flush_cache();
        let (_, again) = q5_workload_cores(db, workers);
        for (a, b) in core_traces.iter().zip(&again) {
            a.total()
                .assert_same(&b.total(), format_args!("workers={workers}: stable split"));
        }
    }
}

/// Twenty repeats of a flush, a cold Q6 and twelve warm ones give one
/// set of per-core traces at 2 and at 4 workers: the pool's warm
/// re-reads (one per 2500 hits) land on the core whose page read
/// tripped them in serial order, whatever the threads' timing.
fn warm_q6_core_traces_repeat_exactly(db: &EcoDb) {
    let q6 = Query::Q6 {
        year: 1994,
        discount_pct: 6,
        max_qty: 24,
    };
    for workers in [2, 4] {
        let mut seen: Vec<Vec<Vec<WorkTrace>>> = Vec::new();
        for _ in 0..20 {
            db.flush_cache();
            let run: Vec<Vec<WorkTrace>> = (0..13)
                .map(|_| db.trace(&q6, workers).expect("fault-free").1)
                .collect();
            if !seen.contains(&run) {
                seen.push(run);
            }
        }
        assert_eq!(
            seen.len(),
            1,
            "{workers} workers: distinct per-core trace sets"
        );
        let warm: Ledger = seen[0][1..].iter().flatten().map(WorkTrace::total).sum();
        assert!(warm.disk.random_ios > 0, "the warm runs charge re-reads");
    }
}

/// Two permanently unreadable `lineitem` pages in different morsels,
/// the later one in a morsel of a lower-numbered worker: a 4-worker Q6
/// fails with the serial run's error — the first faulting page in page
/// order — and charges what the serial columnar run charges.
#[test]
fn a_parallel_scan_fails_at_the_first_faulting_page_in_page_order() {
    let cat = support::disk_catalog(PLAN_SCALE);
    let lineitem = cat.expect("lineitem");
    let table = support::disk(&lineitem);
    // One extent a morsel (`morsel_rows` 1), so morsel m is extent m
    // and worker m % 4 owns it.
    let morsel = |page: u64| page / u64::from(EXTENT_PAGES);
    let (plan, first) = (0..)
        .map(|seed| FaultPlan::new(seed, 10_000))
        .find_map(|plan| {
            let permanent: Vec<u64> = (plan
                .faults_in_table(table.table_id(), table.num_pages() as u64))
            .into_iter()
            .filter(|(_, f)| *f == PageFault::Permanent)
            .map(|(page, _)| page)
            .collect();
            match permanent[..] {
                [a, b] if morsel(b) % 4 < morsel(a) % 4 => Some((plan, a)),
                _ => None,
            }
        })
        .expect("some seed faults two lineitem pages permanently");
    cat.pool().set_fault_plan(plan);
    let run = |engine: ExecEngine, workers: usize| {
        cat.pool().flush();
        let mut ctx = ExecCtx::new().with_workers(workers).with_morsel_rows(1);
        engine.execute(support::Q6(&cat).as_mut(), &mut ctx);
        ctx
    };
    let want = ExecError::Io(IoError::Permanent {
        table: table.table_id(),
        page: first as u32,
    });
    let serial = run(ExecEngine::Columnar, 1);
    assert_eq!(
        run(ExecEngine::Scalar, 1).error(),
        Some(&want),
        "scalar oracle"
    );
    assert_eq!(serial.error(), Some(&want), "serial columnar");
    let parallel = run(ExecEngine::Columnar, 4);
    assert_eq!(parallel.error(), Some(&want), "4 workers");
    serial.ledger.assert_same(&parallel.ledger, "4 workers");
}

#[test]
fn multicore_pricing_is_sane_and_faster_with_more_cores() {
    let db = support::memory_db(SCALE);
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

/// A Limit directly over a scan→filter pipeline: parallel execution
/// must consume (and charge) exactly as much of the stream as serial.
#[test]
fn limit_over_streaming_pipeline_keeps_scalar_exact_consumption() {
    use ecodb::query::expr::{CmpOp, Expr};
    use ecodb::query::ops::{Filter, Limit, SeqScan};
    let plan = |cat: &Catalog| -> BoxedOp {
        let table = cat.expect("lineitem");
        let qty = table.schema().expect_index("l_quantity");
        let filt = Box::new(Filter::new(
            Box::new(SeqScan::new(table)),
            Expr::cmp(CmpOp::Ge, Expr::col(qty), Expr::int(10)),
        ));
        Box::new(Limit::new(filt, 25))
    };
    let axes = worker_axes(Storage::Memory(SCALE), &[2, 8]);
    let oracle = check("limit-pipeline", &plan, &axes);
    assert_eq!(oracle[0].0.len(), 25);
}

/// `Sort` over a partitionable child gathers it morsel-parallel, in
/// morsel order: rows and ledger (its `SortCmp` count depends on input
/// order) equal the serial scalar oracle's.
#[test]
fn sort_over_a_morsel_parallel_child_matches_serial() {
    use ecodb::query::expr::{CmpOp, Expr};
    use ecodb::query::ops::{Filter, SeqScan, Sort, SortKey};
    let plan = |cat: &Catalog| -> BoxedOp {
        let table = cat.expect("lineitem");
        let qty = table.schema().expect_index("l_quantity");
        let filtered = Box::new(Filter::new(
            Box::new(SeqScan::new(table)),
            Expr::cmp(CmpOp::Eq, Expr::col(qty), Expr::int(17)),
        ));
        Box::new(Sort::new(filtered, vec![SortKey::asc(0)]))
    };
    let axes = worker_axes(Storage::Memory(SCALE), &[2, 4]);
    check("sort-over-filter", &plan, &axes);
}
