//! # eco-server — the concurrent multi-session front door
//!
//! The paper's QED mechanism (§4) delays queries into an admission
//! queue, merges compatible ones, and trades response time for joules.
//! `eco-core::qed` reproduces that *offline*: a fixed batch, replayed
//! one statement at a time. This crate is the *online* counterpart the
//! ROADMAP's north star ("serve heavy traffic from millions of users")
//! calls for: thousands of concurrent sessions submit statements over
//! time, and QED aggregation, MQO scan sharing, and energy-aware
//! admission all happen against live arrivals.
//!
//! ## The pipeline
//!
//! 1. **Sessions** ([`session`]) submit [`Statement`]s as timed
//!    [`Request`]s. Selections are batchable; ad-hoc SQL runs solo.
//! 2. **Admission** ([`admission`]) picks the batching operating point
//!    from the advisor's cost model (the knee of the Fig 6 curve) and
//!    sheds arrivals past the backlog cap with a typed
//!    [`ServerError`](eco_core::ServerError) — one bad or surplus
//!    statement never takes down the scheduler.
//! 3. **Batching** ([`batcher`]) queues selections through the *same*
//!    [`WorkloadManager`](eco_core::qed::WorkloadManager) policy as the
//!    offline replay, then deduplicates predicates (the short-circuit
//!    merged scan needs disjoint arms; duplicate demand is where online
//!    batching beats the offline figures).
//! 4. **Scheduling** ([`scheduler`]) dispatches merged batches onto the
//!    morsel-parallel columnar executor through the one shared
//!    `MergedSelection` path, prices the run end-to-end on the
//!    open-system machine model
//!    ([`eco_simhw::opensys`]), and splits rows, response
//!    times and exact ledger shares back per session.
//!
//! ## Queueing semantics: response time vs accumulation time
//!
//! The offline §4 accounting (see `eco-core::qed`) follows the paper:
//! batch *accumulation* time is free ("we do not count the time that it
//! takes for the database to collect a batch of queries"), and query
//! *i* of *k* responds at `gap + exec + (i/k)·split`.
//!
//! Online, a served client experiences the queue, so this crate counts
//! it. For each completed request:
//!
//! * **queue delay** = dispatch − arrival: time spent accumulating in
//!   the batcher (bounded by the threshold and the delay budget) plus
//!   any wait for the machine to come free;
//! * **response time** = completion − arrival: queue delay plus the
//!   merged execution. This is the open-system quantity reported by
//!   [`ServeReport::avg_response_s`] and is deliberately *not*
//!   comparable to the offline `avg_response_s`, which starts the
//!   clock at dispatch.
//!
//! Between bursts the machine is not free either: idle gaps are priced
//! (governor halt residency, DRAM/disk floors, PSU) by
//! [`OpenSystemRun`](eco_simhw::opensys::OpenSystemRun), so
//! joules-per-query comparisons include the cost of waiting for a batch
//! to form.
//!
//! ## The ledger-identity invariant, extended
//!
//! Every figure in this repository is guarded by bit-identical energy
//! ledgers across execution modes (scalar = columnar = parallel). The
//! server extends that to concurrency, in two exact
//! equalities enforced by tests:
//!
//! * the merge of all per-session forked ledgers (each an exact share,
//!   [`Ledger::exact_share`](eco_simhw::trace::Ledger::exact_share),
//!   of its dispatch's ledger) equals the server's summed ledger
//!   ([`ServeReport::ledger_identity`]), and
//! * the server's summed ledger equals a *serial replay* of the same
//!   dispatched statements ([`scheduler::replay_serial`]).

pub mod admission;
pub mod batcher;
pub mod scheduler;
pub mod session;

pub use admission::{plan_admission, AdmissionConfig, AdmissionPlan};
pub use batcher::{Dispatch, DispatchKind};
pub use scheduler::{replay_serial, EcoServer, ServeReport, ServerConfig};
pub use session::{Request, SessionId, SessionOutcome, Statement};

use eco_simhw::opensys::ArrivalSchedule;
use eco_tpch::QedQuery;

/// A deterministic multi-session selection workload: `sessions`
/// one-statement sessions arriving as a Poisson process at `rate_qps`,
/// each drawing an `l_quantity` predicate uniformly from the paper's
/// 1..=50 domain. Seeded — the same seed always produces the same
/// requests, which is what lets a serve run be replayed for the
/// ledger-identity checks.
pub fn session_workload(sessions: usize, rate_qps: f64, seed: u64) -> Vec<Request> {
    let arrivals = ArrivalSchedule::poisson(sessions, rate_qps, seed);
    let mut state = seed ^ 0xD6E8_FEB8_6659_FD93;
    arrivals
        .times()
        .iter()
        .enumerate()
        .map(|(i, &arrival_s)| {
            let quantity = (splitmix64(&mut state) % 50 + 1) as i64;
            Request {
                session: SessionId(i as u64),
                arrival_s,
                statement: Statement::Selection(QedQuery { quantity }),
            }
        })
        .collect()
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_workload_is_deterministic_and_in_domain() {
        let a = session_workload(200, 100.0, 7);
        let b = session_workload(200, 100.0, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
        for (i, r) in a.iter().enumerate() {
            assert_eq!(r.session, SessionId(i as u64));
            let q = r
                .statement
                .selection()
                .expect("workload is selections only");
            assert!((1..=50).contains(&q.quantity));
        }
        // Arrivals are sorted.
        assert!(a.windows(2).all(|w| w[1].arrival_s >= w[0].arrival_s));
        // Duplicate predicates exist — the batcher's dedup has work to
        // do (200 uniform draws from 50 values collide w.h.p.).
        let distinct: std::collections::BTreeSet<i64> = a
            .iter()
            .map(|r| {
                r.statement
                    .selection()
                    .expect("workload is selections only")
                    .quantity
            })
            .collect();
        assert!(distinct.len() < a.len());
    }

    #[test]
    fn non_selection_statements_are_typed_rejections_not_panics() {
        use eco_core::ServerError;
        let stmt = Statement::Sql("DELETE FROM region".to_string());
        let err = stmt.selection().expect_err("SQL never batches");
        assert!(matches!(err, ServerError::NotSelection { .. }));
        // The error carries the offending statement for the session log.
        assert!(err.to_string().contains("DELETE FROM region"));
    }
}
