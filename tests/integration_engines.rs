//! Cross-crate integration: both storage engines, all four queries,
//! answers checked against independent oracles over the generated rows.

mod support;

use ecodb::core::server::{EcoDb, EngineProfile, Query};
use ecodb::query::plans;
use ecodb::simhw::{DiskWork, MachineConfig};
use ecodb::tpch::Q5Params;

const SCALE: f64 = 0.004;

#[test]
fn q5_answers_match_reference_on_both_engines() {
    let mem = support::memory_db(SCALE);
    let disk = EcoDb::tpch(EngineProfile::CommercialDisk, SCALE);
    for region in ["ASIA", "AMERICA"] {
        for year in [1993, 1995, 1997] {
            let params = Q5Params::new(region, year);
            let (a, _) = mem.trace(&Query::Q5(&params), 1).unwrap();
            let (b, _) = disk.trace(&Query::Q5(&params), 1).unwrap();
            assert_eq!(a, b, "{region}/{year}");
            let got = plans::q5_rows_to_pairs(&a);
            let want = plans::q5_reference(mem.source(), &params);
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
    let db = support::memory_db(SCALE);
    let (a_rows, a) = db.trace_q5_workload();
    let (b_rows, b) = db.trace_q5_workload();
    assert_eq!(a_rows, b_rows);
    assert_eq!(a, b, "identical traces, so identical joules and seconds");
}

#[test]
fn ten_q5_variants_do_equal_work() {
    // The paper relies on TPC-H uniformity: "all ten queries in the
    // workload perform the same amount of work".
    let db = EcoDb::tpch(EngineProfile::MemoryEngine, 0.01);
    let times: Vec<f64> = ecodb::tpch::q5_workload()
        .iter()
        .map(|p| {
            let (_, traces) = db.trace(&Query::Q5(p), 1).unwrap();
            db.price(&traces[0], MachineConfig::stock()).elapsed_s
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
    let mem = support::memory_db(SCALE);
    let disk = EcoDb::tpch(EngineProfile::CommercialDisk, SCALE);
    let (segment, cut) = ("BUILDING", ecodb::tpch::Date::from_ymd(1995, 3, 15));
    let (year, discount_pct, max_qty) = (1994, 6, 24);
    let q6 = Query::Q6 {
        year,
        discount_pct,
        max_qty,
    };
    for q in [Query::Q1 { delta_days: 90 }, Query::Q3 { segment, cut }, q6] {
        let rows = |db: &EcoDb| db.trace(&q, 1).unwrap().0;
        assert_eq!(rows(mem), rows(&disk), "{q:?}");
    }
}

#[test]
fn disk_engine_charges_io_memory_engine_does_not() {
    let mem = support::memory_db(SCALE);
    let disk = EcoDb::tpch(EngineProfile::CommercialDisk, SCALE);
    disk.flush_cache();
    let params = Q5Params::new("ASIA", 1994);
    let (_, mt) = mem.trace(&Query::Q5(&params), 1).unwrap();
    let (_, dt) = disk.trace(&Query::Q5(&params), 1).unwrap();
    assert_eq!(mt[0].total_disk(), DiskWork::none());
    assert!(dt[0].total_disk().total_bytes() > 0);
}
