//! Component-level energy: the Table-1 power breakdown, per-component
//! joules for a workload, and the paper's 1 Hz sensor methodology vs
//! exact integration.
//!
//! ```text
//! cargo run --example energy_breakdown --release
//! ```

use ecodb::core::experiments;
use ecodb::core::server::{EcoDb, EngineProfile};
use ecodb::simhw::MachineConfig;

fn main() {
    // Table 1: wall power as the machine is built up.
    println!("{}", experiments::table1_report());

    // Where does the energy go during the Q5 workload?
    let db = EcoDb::tpch(EngineProfile::CommercialDisk, 0.01);
    db.warm_up();
    let (_, trace) = db.trace_q5_workload();
    let m = &db.price(&trace, MachineConfig::stock());
    println!("Q5 workload ({:.2} s wall):", m.elapsed_s);
    println!(
        "  CPU    {:>8.2} J  ({:.1} W avg, utilization {:.0}%)",
        m.cpu_joules,
        m.avg_cpu_w,
        m.utilization * 100.0
    );
    println!("  DRAM   {:>8.2} J", m.dram_joules);
    println!("  disk   {:>8.2} J", m.disk_joules);
    println!(
        "  wall   {:>8.2} J  ({:.1} W avg, incl. PSU losses)",
        m.wall_joules, m.avg_wall_w
    );
    println!(
        "  CPU share of wall energy: {:.0}%  (paper §3.2 observes ≈25%)",
        m.cpu_joules / m.wall_joules * 100.0
    );

    // The paper measured CPU joules by sampling a GUI at ~1 Hz.
    let err = (m.cpu_joules_epu - m.cpu_joules).abs() / m.cpu_joules;
    println!(
        "\nEPU-sensor methodology: sampled {:.2} J vs exact {:.2} J ({:.2}% error)",
        m.cpu_joules_epu,
        m.cpu_joules,
        err * 100.0
    );
}
