//! Cross-crate integration: both storage engines, all four queries,
//! answers checked against independent oracles over the generated rows.

use ecodb::core::server::{EcoDb, EngineProfile};
use ecodb::query::plans;
use ecodb::simhw::{DiskWork, MachineConfig};

const SCALE: f64 = 0.004;

#[test]
fn q5_answers_match_reference_on_both_engines() {
    let mem = EcoDb::tpch(EngineProfile::MemoryEngine, SCALE);
    let disk = EcoDb::tpch(EngineProfile::CommercialDisk, SCALE);
    for region in ["ASIA", "AMERICA"] {
        for year in [1993, 1995, 1997] {
            let a = mem.run_q5(region, year, MachineConfig::stock());
            let b = disk.run_q5(region, year, MachineConfig::stock());
            assert_eq!(a.rows, b.rows, "{region}/{year}");
            let got = plans::q5_rows_to_pairs(&a.rows);
            let want = plans::q5_reference(mem.source(), &ecodb::tpch::Q5Params::new(region, year));
            let mut g = got.clone();
            g.sort();
            let mut w = want.clone();
            w.sort();
            assert_eq!(g, w, "{region}/{year} oracle mismatch");
        }
    }
}

#[test]
fn full_workload_is_deterministic() {
    let db = EcoDb::tpch(EngineProfile::MemoryEngine, SCALE);
    let a = db.run_q5_workload(MachineConfig::stock());
    let b = db.run_q5_workload(MachineConfig::stock());
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.measurement.cpu_joules, b.measurement.cpu_joules);
    assert_eq!(a.measurement.elapsed_s, b.measurement.elapsed_s);
}

#[test]
fn ten_q5_variants_do_equal_work() {
    // The paper relies on TPC-H uniformity: "all ten queries in the
    // workload perform the same amount of work".
    let db = EcoDb::tpch(EngineProfile::MemoryEngine, 0.01);
    let times: Vec<f64> = ecodb::tpch::q5_workload()
        .iter()
        .map(|p| {
            let (_, trace) = db.trace_q5(p);
            db.price(&trace, MachineConfig::stock()).elapsed_s
        })
        .collect();
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    for t in &times {
        assert!(
            (t - mean).abs() / mean < 0.20,
            "variant deviates: {t} vs mean {mean}"
        );
    }
}

#[test]
fn q1_q3_q6_agree_across_engines() {
    let mem = EcoDb::tpch(EngineProfile::MemoryEngine, SCALE);
    let disk = EcoDb::tpch(EngineProfile::CommercialDisk, SCALE);
    assert_eq!(mem.trace_q1(90).0, disk.trace_q1(90).0);
    let cut = ecodb::tpch::Date::from_ymd(1995, 3, 15);
    assert_eq!(
        mem.trace_q3("BUILDING", cut).0,
        disk.trace_q3("BUILDING", cut).0
    );
    assert_eq!(mem.trace_q6(1994, 6, 24).0, disk.trace_q6(1994, 6, 24).0);
}

#[test]
fn disk_engine_charges_io_memory_engine_does_not() {
    let mem = EcoDb::tpch(EngineProfile::MemoryEngine, SCALE);
    let disk = EcoDb::tpch(EngineProfile::CommercialDisk, SCALE);
    disk.flush_cache();
    let (_, mt) = mem.trace_q5(&ecodb::tpch::Q5Params::new("ASIA", 1994));
    let (_, dt) = disk.trace_q5(&ecodb::tpch::Q5Params::new("ASIA", 1994));
    assert_eq!(mt.total_disk(), DiskWork::none());
    assert!(dt.total_disk().total_bytes() > 0);
}
