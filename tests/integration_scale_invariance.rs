//! Scale-invariance: the reproduction's *ratios* (the actual targets —
//! see "Reproduction targets" in README.md and the `repro` binary) must
//! not depend on the TPC-H scale factor. The
//! paper measured SF 1.0/0.125/0.5 on hardware; we run smaller scales,
//! so this property is what makes those runs representative.

use ecodb::core::pvc::PvcSweep;
use ecodb::core::qed::run_qed;
use ecodb::core::server::{EcoDb, EngineProfile};
use ecodb::simhw::machine::MachineConfig;
use ecodb::simhw::VoltageSetting;

fn pvc_ratios(scale: f64) -> Vec<(f64, f64, f64)> {
    let db = EcoDb::tpch(EngineProfile::MemoryEngine, scale);
    let (_, trace) = db.trace_q5_workload();
    let sweep = PvcSweep::paper_grid(db.machine(), &trace);
    sweep
        .points_for(VoltageSetting::Medium)
        .iter()
        .map(|p| (p.energy_ratio, p.time_ratio, p.edp_ratio))
        .collect()
}

#[test]
fn pvc_ratios_are_scale_free() {
    let small = pvc_ratios(0.002);
    let large = pvc_ratios(0.008);
    for (s, l) in small.iter().zip(&large) {
        assert!((s.0 - l.0).abs() < 0.03, "energy ratio: {s:?} vs {l:?}");
        assert!((s.1 - l.1).abs() < 0.03, "time ratio: {s:?} vs {l:?}");
        assert!((s.2 - l.2).abs() < 0.05, "EDP ratio: {s:?} vs {l:?}");
    }
}

#[test]
fn qed_ratios_are_scale_free() {
    let run = |scale: f64| {
        let db = EcoDb::tpch(EngineProfile::MemoryEngine, scale);
        run_qed(&db, 40, MachineConfig::stock(), true)
    };
    let small = run(0.002);
    let large = run(0.008);
    assert!(
        (small.energy_ratio - large.energy_ratio).abs() < 0.04,
        "{} vs {}",
        small.energy_ratio,
        large.energy_ratio
    );
    assert!(
        (small.response_ratio - large.response_ratio).abs() < 0.06,
        "{} vs {}",
        small.response_ratio,
        large.response_ratio
    );
}

#[test]
fn absolute_costs_scale_linearly() {
    let measure = |scale: f64| {
        let db = EcoDb::tpch(EngineProfile::MemoryEngine, scale);
        db.price(&db.trace_q5_workload().1, MachineConfig::stock())
    };
    let a = measure(0.002);
    let b = measure(0.008);
    let time_factor = b.elapsed_s / a.elapsed_s;
    let energy_factor = b.cpu_joules / a.cpu_joules;
    // 4× the data ⇒ roughly 4× the work (generator rounding and
    // per-query fixed costs allow slack).
    assert!(
        (2.8..5.2).contains(&time_factor),
        "time factor {time_factor}"
    );
    assert!(
        (2.8..5.2).contains(&energy_factor),
        "energy factor {energy_factor}"
    );
}
