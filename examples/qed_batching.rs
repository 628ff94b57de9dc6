//! QED batching: delay queries in an admission queue, merge each batch
//! with multi-query optimization, and trade response time for energy
//! (paper §4 / Fig 6).
//!
//! ```text
//! cargo run --example qed_batching --release
//! ```

use ecodb::core::advisor::{choose_qed_batch, Sla};
use ecodb::core::qed::{run_qed_sweep, WorkloadManager};
use ecodb::core::server::{EcoDb, EngineProfile};
use ecodb::simhw::MachineConfig;
use ecodb::tpch::qed_workload;

fn main() {
    let db = EcoDb::tpch(EngineProfile::MemoryEngine, 0.01);

    // The admission queue in action: queries arrive one by one; the
    // workload manager releases a batch when the threshold is reached.
    let mut manager = WorkloadManager::new(10);
    let mut released = None;
    for q in qed_workload(10) {
        released = manager.submit(q);
    }
    let batch = released.expect("threshold reached");
    println!(
        "admission queue released a batch of {} queries\n",
        batch.len()
    );

    // The paper's Fig 6 sweep: batch sizes 35..50.
    println!("batch   E ratio   avg-resp ratio   per-query EDP ratio");
    for o in run_qed_sweep(&db, &[35, 40, 45, 50], MachineConfig::stock(), true) {
        assert!(o.results_match);
        println!(
            "{:>5}   {:>7.3}   {:>14.3}   {:>19.3}",
            o.batch_size, o.energy_ratio, o.response_ratio, o.edp_ratio
        );
    }

    // Advisor: largest batch whose estimated response degradation fits
    // the SLA (larger batches always save more energy).
    for slack in [5.0, 10.0, 25.0] {
        match choose_qed_batch(db.catalog(), db.machine(), 50, Sla::slack_pct(slack), true) {
            Some(e) => println!(
                "\nSLA +{slack}% -> batch {} (est. E ratio {:.3}, est. resp ratio {:.3})",
                e.batch_size, e.energy_ratio, e.response_ratio
            ),
            None => println!("\nSLA +{slack}% -> batching not worthwhile; run sequentially"),
        }
    }
}
