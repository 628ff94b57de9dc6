//! Ablation: short-circuit vs exhaustive disjunction evaluation in the
//! QED merged scan (`docs/ARCHITECTURE.md`, "The merged QED scan":
//! short-circuiting is what produces the sublinear growth — and hence
//! the diminishing returns — in Fig 6).

use criterion::{criterion_group, criterion_main, Criterion};
use eco_bench::bench_db_memory;
use eco_core::qed::run_qed;
use eco_simhw::machine::MachineConfig;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let db = bench_db_memory();
    println!("Ablation: QED disjunction evaluation (batch 40)");
    for (name, sc) in [("short-circuit", true), ("exhaustive", false)] {
        let o = run_qed(&db, 40, MachineConfig::stock(), sc);
        println!(
            "  {name:14}: E ratio {:.3}, resp ratio {:.3}, EDP ratio {:.3}",
            o.energy_ratio, o.response_ratio, o.edp_ratio
        );
    }
    println!();

    let mut g = c.benchmark_group("ablation_qed");
    g.sample_size(10);
    g.bench_function("short_circuit", |b| {
        b.iter(|| black_box(db.trace_merged_selection(&eco_tpch::qed_workload(40), true)))
    });
    g.bench_function("exhaustive", |b| {
        b.iter(|| black_box(db.trace_merged_selection(&eco_tpch::qed_workload(40), false)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
