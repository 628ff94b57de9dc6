//! Property test `concurrent_ledger_identity`: for random session
//! counts, arrival orders and batch thresholds, the merged
//! multi-session ledger equals the serial ledger of the same merged
//! statements — on both engine profiles, cold and warm, replayed under
//! the serving engine (columnar, `EcoDb`'s default) and under the
//! scalar oracle.

mod support;

use proptest::prelude::*;

use ecodb::core::server::{EcoDb, EngineProfile};
use ecodb::query::exec::ExecEngine;
use ecodb::server::{replay_serial, EcoServer, Request, ServerConfig, SessionId, Statement};
use ecodb::simhw::trace::PricingMode;
use ecodb::tpch::QedQuery;
use support::Rng;

const ENGINES: [ExecEngine; 2] = [ExecEngine::Columnar, ExecEngine::Scalar];

/// The scale-0.002 database of one profile under `engine`: the server
/// under test runs the columnar one, both replay its transcript.
fn db(on_disk_profile: bool, engine: ExecEngine) -> &'static EcoDb {
    let profile =
        [EngineProfile::MemoryEngine, EngineProfile::CommercialDisk][usize::from(on_disk_profile)];
    support::db(profile, 0.002, PricingMode::Raw, engine)
}

/// Derive a random-but-deterministic session workload from one seed:
/// arbitrary arrival order (gaps from microseconds to tens of
/// milliseconds, with ties) and arbitrary predicates.
fn workload_from_seed(seed: u64, sessions: usize) -> Vec<Request> {
    let mut rng = Rng(seed);
    let mut t = 0.0;
    (0..sessions)
        .map(|i| {
            // ~1/8 of arrivals tie with the previous one.
            if !rng.next().is_multiple_of(8) {
                t += rng.below(20_000) as f64 * 1e-6;
            }
            Request {
                session: SessionId(i as u64),
                arrival_s: t,
                statement: Statement::Selection(QedQuery {
                    quantity: (rng.below(50) + 1) as i64,
                }),
            }
        })
        .collect()
}

/// Restore the buffer pool to a reproducible starting state.
fn reset(db: &EcoDb, warm: bool) {
    db.flush_cache();
    if warm {
        db.warm_up();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole invariant: concurrent multi-session serving forks a
    /// ledger per session; merging the per-session ledgers reproduces
    /// the server's summed ledger, and the server's summed ledger is
    /// bit-identical to executing the same merged statements serially.
    #[test]
    fn concurrent_ledger_identity(
        seed in any::<u64>(),
        sessions in 1usize..=24,
        threshold in 1usize..=8,
        workers in 1usize..=3,
        on_disk_profile in any::<bool>(),
        warm in any::<bool>(),
    ) {
        let db = db(on_disk_profile, ExecEngine::Columnar);
        let requests = workload_from_seed(seed, sessions);
        let cfg = ServerConfig::batched(workers, threshold);

        reset(db, warm);
        let report = EcoServer::new(db, cfg).serve(&requests);
        prop_assert_eq!(report.served, sessions, "every session completes");

        // Fork/merge exactness: per-session shares sum to the whole.
        prop_assert_eq!(
            report.merged_session_ledger(),
            report.ledger.clone(),
            "merged per-session ledgers != server ledger"
        );
        prop_assert_eq!(report.session_ledgers.len(), sessions);

        // Serve vs serial replay of the same merged statements, from
        // the same pool state: bit-identical, whichever engine replays.
        for engine in ENGINES {
            let replayer = self::db(on_disk_profile, engine);
            reset(replayer, warm);
            let replay = replay_serial(replayer, &report.dispatches, workers, true);
            prop_assert_eq!(&report.ledger, &replay, "serve != {:?} serial replay", engine);
        }
    }
}
