//! The eco-server front door: 1 000 concurrent sessions served with
//! online QED batching, energy-aware admission, and open-system
//! pricing — joules/query vs the no-batching baseline, with the
//! per-session ledger identity checked at the end.
//!
//! ```text
//! cargo run --example serve --release
//! ```

use ecodb::core::server::{EcoDb, EngineProfile};
use ecodb::server::{
    plan_admission, replay_serial, session_workload, AdmissionConfig, EcoServer, ServerConfig,
};

fn main() {
    let db = EcoDb::tpch(EngineProfile::MemoryEngine, 0.005);

    // The advisor walks the QED estimate curve and picks the knee.
    let plan = plan_admission(&db, &AdmissionConfig::default());
    println!(
        "advisor knee: batch threshold {}, shed above backlog {}\n",
        plan.threshold, plan.max_backlog
    );

    // 1 000 sessions offered faster than the unbatched server drains
    // them (saturating load), predicates drawn from the 1..=50 domain.
    let requests = session_workload(1_000, 50_000.0, 0xEC0);
    let workers = 2;

    println!("mode        qps      mJ/query   avg-resp ms   queue ms   dispatches");
    let mut reports = Vec::new();
    for (name, threshold) in [("unbatched", 1), ("online QED", plan.threshold)] {
        let cfg = ServerConfig::batched(workers, threshold);
        let report = EcoServer::new(&db, cfg).serve(&requests);
        assert_eq!(report.served, requests.len());
        println!(
            "{:<10} {:>6.0}   {:>9.4}   {:>11.2}   {:>8.2}   {:>10}",
            name,
            report.queries_per_second(),
            report.joules_per_query() * 1e3,
            report.avg_response_s() * 1e3,
            report.avg_queue_delay_s() * 1e3,
            report.dispatches.len()
        );
        reports.push(report);
    }

    let gain = reports[0].joules_per_query() / reports[1].joules_per_query();
    println!("\nonline QED batching: {gain:.2}x fewer joules per query at equal offered load");

    // The invariant that makes the numbers trustworthy: per-session
    // forked ledgers merge back to the server ledger, and the server
    // ledger is bit-identical to a serial replay of the same merged
    // statements.
    for report in &reports {
        assert!(report.ledger_identity(), "session fork/merge must be exact");
        let replay = replay_serial(&db, &report.dispatches, workers, true);
        assert_eq!(report.ledger, replay, "serve must equal serial replay");
    }
    println!("ledger identity: per-session merge == server == serial replay ✓");
}
