//! Quickstart: open a TPC-H database, run a query, and trade energy for
//! performance with one PVC setting.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use ecodb::core::server::{EcoDb, EngineProfile, Query};
use ecodb::simhw::trace::WorkTrace;
use ecodb::simhw::{CpuConfig, MachineConfig, VoltageSetting};
use ecodb::tpch::Q5Params;

fn main() {
    // A MySQL-memory-engine-style database at TPC-H scale factor 0.01.
    let db = EcoDb::tpch(EngineProfile::MemoryEngine, 0.01);

    // Execute TPC-H Q5 (region ASIA, orders from 1994) once, on one
    // worker: the rows and the work trace every price is computed from.
    let params = Q5Params::new("ASIA", 1994);
    let (rows, traces) = db.trace(&Query::Q5(&params), 1).expect("fault-free");
    let trace: WorkTrace = traces.into_iter().collect();
    let stock = db.price(&trace, MachineConfig::stock());
    println!("Q5(ASIA, 1994) at stock:");
    for row in rows.tuples() {
        println!(
            "  {:<12} revenue ${:.2}",
            row[0],
            row[1].as_int().unwrap() as f64 / 100.0
        );
    }
    println!(
        "  -> {:.1} ms, {:.3} J CPU ({:.1} W avg)\n",
        stock.elapsed_s * 1e3,
        stock.cpu_joules,
        stock.avg_cpu_w
    );

    // The paper's setting A: 5 % FSB underclock + medium voltage
    // downgrade. The same trace, priced again: same answer, fewer joules.
    let setting_a = MachineConfig::with_cpu(CpuConfig::underclocked(0.05, VoltageSetting::Medium));
    let pvc = db.price(&trace, setting_a);
    assert!(pvc.cpu_joules < stock.cpu_joules, "PVC saves CPU energy");
    assert!(pvc.elapsed_s > stock.elapsed_s, "and costs time");
    println!(
        "Same query under PVC setting A (5% underclock, medium voltage):\n  -> {:.1} ms (+{:.1}%), {:.3} J CPU ({:.1}% energy saved)",
        pvc.elapsed_s * 1e3,
        (pvc.elapsed_s / stock.elapsed_s - 1.0) * 100.0,
        pvc.cpu_joules,
        (1.0 - pvc.cpu_joules / stock.cpu_joules) * 100.0
    );

    // Morsel-parallel on four workers: the same rows, one trace per core.
    let (par_rows, core_traces) = db.trace(&Query::Q5(&params), 4).expect("fault-free");
    assert_eq!(par_rows, rows, "same answer on every worker count");
    let par = db
        .multicore(4)
        .measure_uniform(&core_traces, &MachineConfig::stock());
    println!(
        "Same query on 4 cores at stock:\n  -> {:.1} ms, {:.3} J CPU",
        par.elapsed_s * 1e3,
        par.cpu_joules
    );
}
