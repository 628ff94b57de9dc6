//! Deterministic fault injection: a session mix served over the
//! commercial-disk profile while a seeded `FaultPlan` corrupts page
//! reads, then the same mix replayed fault-free.
//!
//! Shows the robustness contract end to end:
//!
//! * transient faults retry with exponential backoff, priced into the
//!   explicitly versioned schema-v2 ledger classes (`retry_ios`,
//!   `retry_bytes`, `backoff_ns`);
//! * a permanent fault fails only the sessions whose batch touched the
//!   bad page, with a typed `ServerError::Io` — the server never
//!   panics, and sustained fault pressure widens the batch threshold
//!   instead of crashing;
//! * once the plan is cleared, the ledger carries zero retry/backoff
//!   charges again — fault-free runs stay bit-identical.
//!
//! ```text
//! cargo run --example fault_injection --release
//! ```

use ecodb::core::server::{EcoDb, EngineProfile};
use ecodb::core::ServerError;
use ecodb::server::{session_workload, EcoServer, ServeReport, ServerConfig, SessionOutcome};
use ecodb::simhw::fault::FaultPlan;

fn show(name: &str, report: &ServeReport) {
    println!(
        "{name:<22} served {:>2}, failed {:>2}, io_failed {:>2}, degraded={:<5} \
         retry_ios {:>3}, backoff {:>8} ns, {:.4} mJ/query",
        report.served,
        report.failed,
        report.io_failed,
        report.degraded,
        report.ledger.disk.retry_ios,
        report.ledger.backoff_ns,
        report.joules_per_query() * 1e3,
    );
}

fn main() {
    let db = EcoDb::tpch(EngineProfile::CommercialDisk, 0.002);
    let requests = session_workload(12, 500.0, 0xFA17);
    let cfg = ServerConfig::batched(2, 3);

    // Transient-only plan: every fault retries to completion, and the
    // retries are charged to the schema-v2 ledger classes.
    db.set_fault_plan(FaultPlan::new(3, 20_000));
    db.flush_cache(); // faults fire on buffer-pool misses
    let transient = EcoServer::new(&db, cfg).serve(&requests);
    show("transient faults", &transient);
    assert_eq!(transient.served, requests.len());

    // Saturated plan: permanent faults fail their owning sessions with
    // a typed error; admission degrades instead of panicking.
    db.set_fault_plan(FaultPlan::new(77, 1_000_000));
    db.flush_cache();
    let stormy = EcoServer::new(&db, cfg).serve(&requests);
    show("saturated faults", &stormy);
    for outcome in &stormy.outcomes {
        if let SessionOutcome::Rejected { error, .. } = outcome {
            assert!(matches!(error, ServerError::Io(_)), "rejections are typed");
        }
    }

    // Clear the plan: service recovers in full and the v2 classes drop
    // back to zero — the fault-free ledger is bit-identical again.
    db.set_fault_plan(FaultPlan::none());
    db.flush_cache();
    let clean = EcoServer::new(&db, cfg).serve(&requests);
    show("fault-free replay", &clean);
    assert_eq!(clean.served, requests.len());
    assert_eq!(
        clean.ledger.without_schema(2),
        clean.ledger,
        "no v2 (retry, backoff) charges"
    );
    assert!(clean.ledger_identity(), "session fork/merge stays exact");

    println!("\ntyped errors, priced retries, bit-identical fault-free ledgers ✓");
}
