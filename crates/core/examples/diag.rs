//! Calibration diagnostic: prints the raw numbers behind every
//! headline experiment at one glance (used when tuning
//! `eco-simhw::calib` constants; its module docs state the
//! calibration policy).
//!
//! ```text
//! cargo run -p eco-core --example diag --release
//! ```

use eco_core::experiments;
use eco_core::qed::run_qed_sweep;
use eco_core::server::{EcoDb, EngineProfile};
use eco_simhw::machine::MachineConfig;

fn main() {
    let scale = 0.004;
    // warm/cold
    let wc = experiments::warm_cold(scale);
    println!(
        "warm: {:.3}s cpu {:.1}J disk {:.1}J",
        wc.warm.seconds, wc.warm.cpu_joules, wc.warm.disk_joules
    );
    println!(
        "cold: {:.3}s cpu {:.1}J disk {:.1}J",
        wc.cold.seconds, wc.cold.cpu_joules, wc.cold.disk_joules
    );

    // profiles utilization
    for p in [EngineProfile::MemoryEngine, EngineProfile::CommercialDisk] {
        let db = EcoDb::tpch(p, scale);
        if p == EngineProfile::CommercialDisk {
            db.warm_up();
        }
        let m = db.price(&db.trace_q5_workload().1, MachineConfig::stock());
        println!(
            "{}: {:.3}s util {:.2} cpuW {:.1} cpuJ {:.1} diskJ {:.1}",
            p.name(),
            m.elapsed_s,
            m.utilization,
            m.avg_cpu_w,
            m.cpu_joules,
            m.disk_joules
        );
    }

    // QED
    let db = EcoDb::tpch(EngineProfile::MemoryEngine, scale);
    for o in run_qed_sweep(&db, &[35, 40, 45, 50], MachineConfig::stock(), true) {
        let k = o.batch_size;
        println!("qed k={k}: E {:.3} resp {:.3} edp {:.3} (seq avg {:.4}s qed avg {:.4}s; seq J {:.1} qed J {:.1})",
            o.energy_ratio, o.response_ratio, o.edp_ratio,
            o.sequential.avg_response_s, o.qed.avg_response_s,
            o.sequential.cpu_joules, o.qed.cpu_joules);
    }

    // PVC figs
    let f1 = experiments::fig1(scale);
    println!("{}", experiments::pvc_report("fig1 commercial", &f1));
    let f3 = experiments::fig3(scale);
    println!("{}", experiments::pvc_report("fig3 mysql", &f3));
}
