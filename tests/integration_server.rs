//! End-to-end tests of the concurrent multi-session server: online QED
//! batching beats no-batching admission by ≥2x joules/query at 1k
//! sessions, ledgers stay bit-identical to serial replay, and admission
//! control degrades gracefully; group commit shares one fsync per
//! group and at least halves joules/txn.

mod support;

use ecodb::core::server::{EcoDb, EngineProfile, Query, ServerError};
use ecodb::query::exec::ExecEngine;
use ecodb::server::{
    plan_admission, replay_serial, session_workload, AdmissionConfig, EcoServer, Request,
    ServeReport, ServerConfig, SessionId, SessionOutcome, Statement,
};
use ecodb::simhw::trace::PricingMode;

const SCALE: f64 = 0.002;
/// Saturating offered load: arrivals land faster than even the
/// unbatched server drains them, so both admission modes compare at
/// equal (over-)offered load with the machine never idle.
const RATE_QPS: f64 = 50_000.0;
const SEED: u64 = 0xEC0;

/// The memory-profile database under the scalar oracle (the servers
/// under test share `support::memory_db`, columnar: serving reads
/// change nothing in it).
fn oracle() -> &'static EcoDb {
    let profile = EngineProfile::MemoryEngine;
    support::db(profile, SCALE, PricingMode::Raw, ExecEngine::Scalar)
}

fn serve(db: &EcoDb, sessions: usize, threshold: usize) -> ServeReport {
    let requests = session_workload(sessions, RATE_QPS, SEED);
    let cfg = ServerConfig::batched(2, threshold);
    EcoServer::new(db, cfg).serve(&requests)
}

#[test]
fn online_qed_batching_halves_joules_per_query_at_1k_sessions() {
    let db = support::memory_db(SCALE);
    let plan = plan_admission(db, &AdmissionConfig::default());
    let threshold = plan.threshold.max(32);

    let unbatched = serve(db, 1000, 1);
    let batched = serve(db, 1000, threshold);

    assert_eq!(unbatched.served, 1000);
    assert_eq!(batched.served, 1000);

    // Acceptance criterion: ≥2x joules/query at equal offered load.
    let cpu_gain = unbatched.joules_per_query() / batched.joules_per_query();
    assert!(
        cpu_gain >= 2.0,
        "CPU joules/query gain {cpu_gain:.2} < 2.0 (unbatched {}, batched {})",
        unbatched.joules_per_query(),
        batched.joules_per_query()
    );
    let wall_gain = unbatched.wall_joules_per_query() / batched.wall_joules_per_query();
    assert!(wall_gain >= 2.0, "wall joules/query gain {wall_gain:.2}");

    // Batching also lifts throughput (fewer scans, fewer round trips).
    assert!(batched.queries_per_second() > unbatched.queries_per_second());

    // The price: queueing delay. Batched responses include real
    // accumulation time; unbatched queries never wait on a batch.
    assert!(batched.avg_queue_delay_s() >= 0.0);

    // Both runs' summed ledgers are bit-identical to serial replays of
    // their own dispatch transcripts (memory engine: pool is stateless,
    // no reset needed between serve and replay).
    for report in [&unbatched, &batched] {
        assert!(report.ledger_identity());
        let replay = replay_serial(db, &report.dispatches, 2, true);
        assert_eq!(report.ledger, replay);
    }
    // ...and to a replay under the oracle engine, which runs serial
    // whatever the worker count: summed ledgers agree.
    let replay = replay_serial(oracle(), &batched.dispatches, 2, true);
    assert_eq!(batched.ledger, replay);
}

#[test]
fn every_session_gets_its_own_correct_rows_out_of_merged_batches() {
    let db = support::memory_db(SCALE);
    let requests = session_workload(128, RATE_QPS, SEED ^ 1);
    let report = EcoServer::new(db, ServerConfig::batched(2, 16)).serve(&requests);
    assert_eq!(report.served, 128);
    let oracle = oracle();
    for (r, o) in requests.iter().zip(&report.outcomes) {
        let SessionOutcome::Completed { rows, .. } = o else {
            panic!("expected completion, got {o:?}")
        };
        let ecodb::server::Statement::Selection(q) = &r.statement else {
            unreachable!()
        };
        let (want, _) = oracle.trace(&Query::Selection(q), 1).unwrap();
        assert_eq!(rows, &want);
    }
}

#[test]
fn advisor_planned_admission_batches_and_sheds_under_overload() {
    let db = support::memory_db(SCALE);
    let plan = plan_admission(db, &AdmissionConfig::default());
    let cfg = ServerConfig::batched(2, 1).with_admission(&plan);
    assert_eq!(cfg.threshold, plan.threshold);
    assert_eq!(cfg.max_backlog, plan.max_backlog);

    // Overload far past the backlog cap in one burst: the cap sheds
    // the excess with a typed error; everyone else completes.
    let mut requests = session_workload(plan.max_backlog + 50, 1e9, SEED ^ 2);
    for r in &mut requests {
        r.arrival_s = 0.0;
    }
    // Threshold dispatches interleave with arrivals, so exact shed
    // counts depend on the plan; the invariants do not.
    let report = EcoServer::new(db, cfg).serve(&requests);
    assert_eq!(report.served + report.shed, requests.len());
    assert!(report.served >= plan.max_backlog, "queued work completes");
    let shed_errors = report
        .outcomes
        .iter()
        .filter(|o| {
            matches!(
                o,
                SessionOutcome::Rejected {
                    error: ServerError::Shed { .. },
                    ..
                }
            )
        })
        .count();
    assert_eq!(shed_errors, report.shed);
}

#[test]
fn disk_profile_ledger_identity_cold_and_warm() {
    let db = &EcoDb::tpch(EngineProfile::CommercialDisk, SCALE);
    let requests = session_workload(60, RATE_QPS, SEED ^ 3);
    let cfg = ServerConfig::batched(2, 8);

    // Cold: both serve and replay start from a flushed pool.
    db.flush_cache();
    let cold = EcoServer::new(db, cfg).serve(&requests);
    assert!(cold.ledger_identity());
    db.flush_cache();
    let cold_replay = replay_serial(db, &cold.dispatches, 2, true);
    assert_eq!(cold.ledger, cold_replay, "cold serve vs cold replay");

    // Warm: both start from an identically pre-warmed pool.
    db.flush_cache();
    db.warm_up();
    let warm = EcoServer::new(db, cfg).serve(&requests);
    assert!(warm.ledger_identity());
    db.flush_cache();
    db.warm_up();
    let warm_replay = replay_serial(db, &warm.dispatches, 2, true);
    assert_eq!(warm.ledger, warm_replay, "warm serve vs warm replay");

    // Cold does strictly more disk work.
    assert!(cold.ledger.disk.total_bytes() > warm.ledger.disk.total_bytes());

    // Two workers scan each merged batch. Enough sessions for the
    // pool's warm re-reads (one per 2500 hits) to fall inside those
    // scans: repeated from a flushed pool, the priced per-core split
    // is the same to the bit.
    let requests = session_workload(400, RATE_QPS, SEED ^ 5);
    let serve = || {
        db.flush_cache();
        EcoServer::new(db, cfg).serve(&requests)
    };
    let hits = db.catalog().pool().stats().hits;
    let first = serve();
    let hits = db.catalog().pool().stats().hits - hits;
    assert!(hits > 2 * 2500, "{hits} pool hits: re-reads are charged");
    for repeat in 1..20 {
        assert_eq!(serve().measurement, first.measurement, "repeat {repeat}");
    }
}

#[test]
fn open_system_pricing_charges_idle_between_sparse_arrivals() {
    let db = support::memory_db(SCALE);
    // Sparse arrivals (10 qps): the machine idles between dispatches.
    let requests = session_workload(10, 10.0, SEED ^ 4);
    let report = EcoServer::new(db, ServerConfig::unbatched(2)).serve(&requests);
    assert_eq!(report.served, 10);
    assert!(
        report.measurement.idle_s > 0.5,
        "sparse load must idle, got {}",
        report.measurement.idle_s
    );
    // Idle time dominates the makespan but not the energy-per-busy-
    // second: average wall power sits near the idle floor, well below
    // a busy machine's draw.
    assert!(report.measurement.makespan_s > report.measurement.busy_window_s * 10.0);
}

/// Regression: a comparison between values of different types used to
/// panic inside the columnar comparison kernel — on the fallible path,
/// so one session's statement took `serve` down — and as a join key it
/// scanned and hashed both tables to return nothing. All three shapes
/// are bind errors now; under `serve` only the offending session fails.
#[test]
fn type_mismatched_sql_is_a_bind_error_not_a_panic() {
    use ecodb::query::sql::SqlError;
    use ecodb::server::{Request, SessionId, Statement};

    let db = support::memory_db(SCALE);
    let mismatched = [
        "SELECT COUNT(*) AS n FROM orders WHERE o_orderkey = 'abc'",
        "SELECT COUNT(*) AS n FROM orders WHERE o_orderdate = o_orderkey",
        "SELECT COUNT(*) AS n FROM orders, lineitem WHERE o_orderdate = l_orderkey",
    ];
    for sql in mismatched {
        match db.try_trace_sql(sql) {
            Err(ServerError::Sql(SqlError::Bind(msg))) => {
                assert!(msg.contains("cannot compare"), "{sql}: {msg}");
            }
            other => panic!("{sql}: expected a bind error, got {other:?}"),
        }
    }

    let sql = |session, arrival_s, text: &str| Request {
        session: SessionId(session),
        arrival_s,
        statement: Statement::Sql(text.to_string()),
    };
    let requests = vec![
        sql(0, 0.0, "SELECT COUNT(*) AS n FROM orders"),
        sql(1, 1e-4, mismatched[0]),
        sql(2, 2e-4, "SELECT COUNT(*) AS n FROM lineitem"),
    ];
    let report = EcoServer::new(db, ServerConfig::batched(2, 2)).serve(&requests);
    assert_eq!((report.served, report.failed), (2, 1));
    assert!(matches!(
        &report.outcomes[1],
        SessionOutcome::Rejected {
            error: ServerError::Sql(SqlError::Bind(_)),
            ..
        }
    ));
    assert!(report.outcomes[0].is_completed() && report.outcomes[2].is_completed());
}

/// Group commit (ledger schema v5) on the commercial-disk profile at
/// scale 0.01: 64 sessions each `INSERT` one fresh region row, arriving
/// at 1M qps (faster than fsyncs complete), served at commit thresholds
/// 1/2/4/8/16 on a fresh database each. Every point serves all 64, keeps
/// per-session ledger identity, fsyncs exactly `ceil(64 / threshold)`
/// times and equals a serial replay of its transcript on another fresh
/// database; threshold 8 costs at least 2x fewer wall joules/txn than
/// per-statement durability (threshold 1).
#[test]
fn group_commit_fsyncs_once_per_group_and_halves_joules_per_txn() {
    const SESSIONS: usize = 64;
    const RATE_QPS: f64 = 1_000_000.0;
    let requests: Vec<Request> = (0..SESSIONS)
        .map(|i| {
            let key = 1000 + i;
            Request {
                session: SessionId(i as u64),
                arrival_s: i as f64 / RATE_QPS,
                statement: Statement::Sql(format!(
                    "INSERT INTO region VALUES ({key}, 'W{key}', 'group commit')"
                )),
            }
        })
        .collect();
    let fresh = || EcoDb::tpch(EngineProfile::CommercialDisk, 0.01);

    const THRESHOLDS: [usize; 5] = [1, 2, 4, 8, 16];
    let joules_per_txn = THRESHOLDS.map(|commit_threshold| {
        let mut cfg = ServerConfig::batched(2, 4);
        cfg.commit_threshold = commit_threshold;
        let report = EcoServer::new(&fresh(), cfg).serve(&requests);
        assert_eq!(report.served, SESSIONS, "threshold {commit_threshold}");
        assert!(report.ledger_identity(), "threshold {commit_threshold}");
        assert_eq!(
            report.ledger.disk.log_ios,
            (SESSIONS as u64).div_ceil(commit_threshold as u64),
            "threshold {commit_threshold}: one fsync per group"
        );
        let replay = replay_serial(&fresh(), &report.dispatches, 2, cfg.short_circuit);
        report.ledger.assert_same(
            &replay,
            format_args!("threshold {commit_threshold}: serve vs replay"),
        );
        report.wall_joules_per_query()
    });
    let (per_statement, grouped) = (joules_per_txn[0], joules_per_txn[3]);
    let gain = per_statement / grouped;
    assert!(
        gain >= 2.0,
        "group-commit joules/txn gain {gain:.2} < 2 (per-statement {per_statement} J, \
         threshold {} {grouped} J)",
        THRESHOLDS[3]
    );
}
