//! Morsel-driven parallel execution vs single-threaded execution, both
//! columnar, over TPC-H Q1/Q5/Q6 on the memory engine — the wall-clock payoff of
//! `exec::execute_parallel`, whose merged energy ledger is bit-identical
//! to serial execution at every worker count
//! (`tests/integration_parallel.rs`).
//!
//! Prints an explicit speedup summary first (median of several timed
//! runs per worker count), then registers the individual criterion
//! benchmarks. Speedups track the host's physical core count: on a
//! single-core container expect ~1.0x; the CI `bench-smoke` job records
//! the multi-core numbers as `BENCH_parallel_scaling.json`.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use eco_bench::bench_db_memory;
use eco_core::server::EcoDb;
use eco_query::context::ExecCtx;
use eco_query::exec::execute_parallel;
use eco_query::ops::BoxedOp;
use eco_query::plans;
use std::hint::black_box;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

type PlanFn = fn(&EcoDb) -> BoxedOp;

fn q1(db: &EcoDb) -> BoxedOp {
    plans::q1_plan(db.catalog(), 90)
}

fn q5(db: &EcoDb) -> BoxedOp {
    plans::q5_plan(db.catalog(), &eco_tpch::Q5Params::new("ASIA", 1994))
}

fn q6(db: &EcoDb) -> BoxedOp {
    plans::q6_plan(db.catalog(), 1994, 6, 24)
}

const QUERIES: [(&str, PlanFn); 3] = [("q1", q1), ("q5", q5), ("q6", q6)];

fn run(db: &EcoDb, plan_fn: PlanFn, workers: usize) -> usize {
    let mut plan = plan_fn(db);
    let mut ctx = ExecCtx::new().with_columnar(true);
    execute_parallel(plan.as_mut(), &mut ctx, workers).len()
}

fn median_time(mut f: impl FnMut() -> usize, samples: usize) -> Duration {
    black_box(f()); // warm-up
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn speedup_report(db: &EcoDb) {
    println!("== morsel-driven parallel execution (memory engine) ==");
    for (name, plan_fn) in QUERIES {
        let base = median_time(|| run(db, plan_fn, 1), 7);
        print!("{name}: 1w {:>9.3} ms ", base.as_secs_f64() * 1e3);
        for workers in &WORKER_COUNTS[1..] {
            let t = median_time(|| run(db, plan_fn, *workers), 7);
            print!(
                " {workers}w {:>9.3} ms ({:.2}x)",
                t.as_secs_f64() * 1e3,
                base.as_secs_f64() / t.as_secs_f64()
            );
        }
        println!();
    }
}

fn bench(c: &mut Criterion) {
    let db = bench_db_memory();
    speedup_report(&db);

    let mut g = c.benchmark_group("exec_parallel_scaling");
    g.sample_size(10);
    for (name, plan_fn) in QUERIES {
        for workers in WORKER_COUNTS {
            g.bench_function(format!("{name}/workers={workers}"), |b| {
                b.iter(|| black_box(run(&db, plan_fn, workers)))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
