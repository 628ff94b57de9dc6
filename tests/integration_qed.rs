//! Cross-crate integration: the QED pipeline — correctness, trade-off
//! shapes, interaction with PVC, and the workload manager.

mod support;

use ecodb::core::qed::{run_qed, run_qed_sweep, QedOutcome, QedScheme, WorkloadManager};
use ecodb::simhw::{CpuConfig, MachineConfig, VoltageSetting};
use ecodb::tpch::qed_workload;

const SCALE: f64 = 0.004;

#[test]
fn fig6_shape_full() {
    let db = support::memory_db(SCALE);
    let outcomes = run_qed_sweep(db, &[35, 40, 45, 50], MachineConfig::stock(), true);
    for o in &outcomes {
        assert!(o.results_match, "batch {}", o.batch_size);
        assert!((0.4..0.8).contains(&o.energy_ratio), "E {}", o.energy_ratio);
        assert!(o.response_ratio > 1.0, "resp {}", o.response_ratio);
        assert!(o.edp_ratio < 1.0, "EDP {}", o.edp_ratio);
    }
    // Trends: energy and EDP improve with batch size; response ratio
    // declines (Fig 6's left-upward march toward the largest batch).
    for w in outcomes.windows(2) {
        assert!(w[1].energy_ratio < w[0].energy_ratio);
        assert!(w[1].edp_ratio < w[0].edp_ratio);
        assert!(w[1].response_ratio < w[0].response_ratio);
    }
}

/// Every field of an outcome, floats by their bits.
fn bits(o: &QedOutcome) -> (usize, [[u64; 5]; 2], [u64; 3], bool) {
    let scheme = |s: &QedScheme| {
        assert_eq!(s.batch_size, o.batch_size);
        [
            s.total_seconds,
            s.cpu_joules,
            s.avg_response_s,
            s.first_response_s,
            s.last_response_s,
        ]
        .map(f64::to_bits)
    };
    (
        o.batch_size,
        [scheme(&o.sequential), scheme(&o.qed)],
        [o.energy_ratio, o.response_ratio, o.edp_ratio].map(f64::to_bits),
        o.results_match,
    )
}

/// The sweep shares the baseline's execution, nothing else: on the
/// memory engine (history-free traces) it is four `run_qed` calls, to
/// the last bit of every figure.
#[test]
fn a_sweep_equals_its_single_runs_bit_for_bit() {
    let db = support::memory_db(SCALE);
    let sizes = [35, 40, 45, 50];
    for short_circuit in [true, false] {
        let sweep = run_qed_sweep(db, &sizes, MachineConfig::stock(), short_circuit);
        assert_eq!(sweep.len(), sizes.len());
        for (swept, &k) in sweep.iter().zip(&sizes) {
            let single = run_qed(db, k, MachineConfig::stock(), short_circuit);
            assert!(single.results_match, "batch {k}");
            assert_eq!(bits(swept), bits(&single), "batch {k} sc={short_circuit}");
        }
    }
    // Sizes in any order, repeats allowed; none gives none.
    let odd = run_qed_sweep(db, &[12, 3, 12], MachineConfig::stock(), true);
    assert_eq!(
        odd.iter().map(|o| o.batch_size).collect::<Vec<_>>(),
        [12, 3, 12]
    );
    assert_eq!(bits(&odd[0]), bits(&odd[2]));
    assert!(run_qed_sweep(db, &[], MachineConfig::stock(), true).is_empty());
}

#[test]
fn qed_composes_with_pvc() {
    // Extension: run the QED batch *under* a PVC setting — the savings
    // multiply (the paper treats the mechanisms as complementary).
    let db = support::memory_db(SCALE);
    let stock = run_qed(db, 40, MachineConfig::stock(), true);
    let pvc = run_qed(
        db,
        40,
        MachineConfig::with_cpu(CpuConfig::underclocked(0.05, VoltageSetting::Medium)),
        true,
    );
    assert!(pvc.results_match);
    assert!(
        pvc.qed.cpu_joules < stock.qed.cpu_joules,
        "PVC should reduce QED's absolute joules further"
    );
    assert!(pvc.qed.avg_response_s > stock.qed.avg_response_s);
}

#[test]
fn small_batches_also_work() {
    let db = support::memory_db(SCALE);
    for k in [2, 5, 10] {
        let o = run_qed(db, k, MachineConfig::stock(), true);
        assert!(o.results_match, "batch {k}");
        assert!(o.energy_ratio < 1.0, "batch {k} saves energy");
    }
}

#[test]
fn exhaustive_evaluation_still_correct_but_costlier() {
    let db = support::memory_db(SCALE);
    let sc = run_qed(db, 30, MachineConfig::stock(), true);
    let ex = run_qed(db, 30, MachineConfig::stock(), false);
    assert!(sc.results_match && ex.results_match);
    assert!(
        ex.qed.cpu_joules > sc.qed.cpu_joules,
        "exhaustive disjunction must cost more"
    );
}

#[test]
fn workload_manager_feeds_qed_end_to_end() {
    let db = support::memory_db(SCALE);
    let mut wm = WorkloadManager::new(8);
    let mut batches = Vec::new();
    for q in qed_workload(24) {
        if let Some(b) = wm.submit(q) {
            batches.push(b);
        }
    }
    assert_eq!(batches.len(), 3);
    for batch in &batches {
        let (split, _) = db.try_trace_merged_selection(batch, true).unwrap();
        assert_eq!(split.len(), 8);
        let total: usize = split.iter().map(|rows| rows.len()).sum();
        assert!(total > 0, "every batch selects some rows");
    }
}

#[test]
fn per_query_energy_drops_even_though_batch_runs_longer() {
    let db = support::memory_db(SCALE);
    let o = run_qed(db, 45, MachineConfig::stock(), true);
    assert!(o.qed.joules_per_query() < o.sequential.joules_per_query());
    assert!(o.qed.total_seconds < o.sequential.total_seconds);
}
