//! Ablation: load-dependent voltage droop.
//!
//! The droop term is the mechanism behind the commercial-vs-MySQL
//! savings gap (`eco_simhw::calib::DROOP_AT_FULL_LOAD`). This bench
//! prints the medium-voltage energy ratio at both utilization extremes
//! and measures the pricing path.

use criterion::{criterion_group, criterion_main, Criterion};
use eco_bench::{bench_db_commercial, bench_db_memory};
use eco_simhw::cpu::{CpuConfig, VoltageSetting};
use eco_simhw::machine::MachineConfig;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let pvc = MachineConfig::with_cpu(CpuConfig::underclocked(0.05, VoltageSetting::Medium));

    println!("Ablation: voltage droop (5% UC / medium, energy ratio vs stock)");
    for (name, db) in [
        ("commercial (low util)", bench_db_commercial()),
        ("mysql-memory (high util)", bench_db_memory()),
    ] {
        if name.starts_with("commercial") {
            db.warm_up();
        }
        let (_, trace) = db.trace_q5_workload();
        let stock = db.price(&trace, MachineConfig::stock());
        let m = db.price(&trace, pvc);
        println!(
            "  {name:26}: util {:.2}, E ratio {:.3}, busy V {:.3}",
            stock.utilization,
            m.cpu_joules / stock.cpu_joules,
            m.busy_voltage_v
        );
    }
    println!();

    let db = bench_db_memory();
    let (_, trace) = db.trace_q5_workload();
    c.bench_function("ablation_droop/price_pvc_setting", |b| {
        b.iter(|| black_box(db.price(black_box(&trace), pvc)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
