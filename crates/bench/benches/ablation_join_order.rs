//! Ablation: energy-aware plan choice — the same Q5 under two join
//! orders (filter pushdown vs late filtering) priced in joules (paper
//! §2's "query-level" opportunity).

use criterion::{criterion_group, criterion_main, Criterion};
use eco_bench::bench_db_memory;
use eco_core::advisor::rank_plans_by_energy;
use eco_query::plans;
use eco_simhw::machine::MachineConfig;
use eco_tpch::Q5Params;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let db = bench_db_memory();
    let params = Q5Params::new("ASIA", 1994);
    let ranked = rank_plans_by_energy(
        &db,
        vec![
            ("pushdown", plans::q5_plan(db.catalog(), &params)),
            (
                "late-filter",
                plans::q5_plan_late_filter(db.catalog(), &params),
            ),
        ],
        MachineConfig::stock(),
    );
    println!("Ablation: Q5 join-order energy comparison");
    for p in &ranked {
        println!(
            "  {:<12}: {:.4} s, {:.3} J, EDP {:.4}",
            p.name,
            p.seconds,
            p.cpu_joules,
            p.edp()
        );
    }
    println!();

    let mut g = c.benchmark_group("ablation_join_order");
    g.sample_size(10);
    g.bench_function("pushdown_plan", |b| {
        b.iter(|| {
            let mut plan = plans::q5_plan(db.catalog(), &params);
            let mut ctx = eco_query::context::ExecCtx::new();
            black_box(eco_query::exec::execute_columnar(plan.as_mut(), &mut ctx))
        })
    });
    g.bench_function("late_filter_plan", |b| {
        b.iter(|| {
            let mut plan = plans::q5_plan_late_filter(db.catalog(), &params);
            let mut ctx = eco_query::context::ExecCtx::new();
            black_box(eco_query::exec::execute_columnar(plan.as_mut(), &mut ctx))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
