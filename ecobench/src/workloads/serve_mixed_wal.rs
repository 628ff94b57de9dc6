//! `serve_mixed_wal`: reads and writes through the server on the
//! commercial-disk profile, with an index on `orders(o_orderkey)`. A
//! round is one `serve` of 60 batchable selections, 16 DML statements
//! on `orders` (10 INSERT, 3 UPDATE, 3 DELETE by key) and 16 indexed
//! point reads, with group commit at the default threshold — an open
//! loop at 2 000 requests per simulated second. It uses the server and
//! the storage engine differently from `serve_qed` and
//! `disk_cold_probe`: the commit batcher instead of the read batcher;
//! WAL append, fsync, apply and index upkeep instead of scans. The
//! run's last epoch ends with an injected fsync failure, a recovery,
//! and a check that exactly the acknowledged writes survived.
//!
//! One crash and one recovery per database: ROADMAP item 5b records
//! that a second crash/recover epoch loses the first.
//!
//! The engine runs with one worker here. On the disk profile a
//! two-worker merged scan charges the buffer pool's periodic warm
//! re-read to whichever worker happens to hit it, so the per-core
//! traces — and through them the simulated joules and makespan (seen
//! moving 0.6 %) — would depend on host thread scheduling. The
//! parallel engine is `serve_qed`'s business.

use eco_core::{EcoDb, EngineProfile};
use eco_server::{EcoServer, ServeReport, ServerConfig, SessionOutcome};
use eco_simhw::fault::{FaultPlan, WalCrash};
use eco_storage::Value;

use super::{absorb_report, open_db, planned_config, Size, WORKERS};
use crate::check::{self, Check, LineitemOracle};
use crate::gen::{mixed_round, Mix, MixedOp, OrdersModel, Rng};
use crate::layers::{self, ScratchDb};
use crate::runner::{RoundOut, Sizes, Workload};
use crate::trace::Tracer;

const INDEX: (&str, &str, &str) = ("orders_orderkey", "orders", "o_orderkey");
/// Simulated arrival rate, requests per second.
const RATE: f64 = 2_000.0;
const MIX: Mix = Mix {
    selections: 60,
    inserts: 10,
    updates: 3,
    deletes: 3,
    reads: 16,
};
/// The round served into the injected fsync failure: DML only.
const CRASH_MIX: Mix = Mix {
    selections: 0,
    reads: 0,
    ..MIX
};
const ORDERS_STATE: &str = "SELECT o_orderkey, o_totalprice FROM orders";

pub struct ServeMixedWal {
    seed: u64,
    size: Size,
    rng: Rng,
    db: Option<EcoDb>,
    config: Option<ServerConfig>,
    model: Option<OrdersModel>,
    /// Traced run only: the lockstep copy the shadow calls mutate.
    scratch: Option<ScratchDb>,
    oracle: Option<LineitemOracle>,
}

impl ServeMixedWal {
    pub fn new(seed: u64, size: Size) -> Self {
        Self {
            seed,
            size,
            rng: Rng::new(seed, 4),
            db: None,
            config: None,
            model: None,
            scratch: None,
            oracle: None,
        }
    }

    /// Every request completed, and completed with the right answer.
    fn check_report(&mut self, report: &ServeReport, ops: &[MixedOp], verify: bool) -> Check {
        let db = self.db.as_ref().ok_or("round before setup")?;
        if !report.ledger_identity() {
            return Err("per-session ledgers do not sum to the server's ledger".to_string());
        }
        for (op, outcome) in ops.iter().zip(&report.outcomes) {
            let SessionOutcome::Completed { rows, .. } = outcome else {
                return Err(format!("{op:?} did not complete: {outcome:?}"));
            };
            let ok = match op {
                MixedOp::Selection { quantity } => {
                    if verify {
                        self.oracle
                            .get_or_insert_with(|| LineitemOracle::by_quantity(db.source()))
                            .expect(*quantity, *quantity, rows)?;
                    }
                    true
                }
                MixedOp::Insert { .. } | MixedOp::Update { .. } | MixedOp::Delete { .. } => {
                    *rows == [vec![Value::Int(1)]]
                }
                MixedOp::PointRead { key, price } => {
                    *rows == [vec![Value::Int(*key), Value::Int(*price)]]
                }
            };
            if !ok {
                return Err(format!("{op:?} returned {rows:?}"));
            }
        }
        Ok(())
    }

    fn check_orders(&self, what: &str) -> Check {
        let db = self.db.as_ref().ok_or("finish before setup")?;
        let model = self.model.as_ref().ok_or("finish before setup")?;
        let (rows, _) = db.try_trace_sql(ORDERS_STATE).map_err(|e| e.to_string())?;
        check::orders_state(what, &model.live, &rows)
    }

    /// Arm an fsync failure on the first or second group commit to
    /// come, serve one round of DML into it, recover, and require the
    /// table to hold exactly what was acknowledged.
    fn crash_and_recover(&mut self, t: &mut Tracer) -> Check {
        let db = self.db.as_mut().ok_or("finish before setup")?;
        let model = self.model.as_mut().ok_or("finish before setup")?;
        let config = self.config.ok_or("finish before setup")?;
        let failing_fsync = db.wal_fsyncs() + self.rng.range(0, 1) as u64;
        db.set_fault_plan(FaultPlan::none().with_wal_crash(WalCrash::FsyncFailure {
            fsync: failing_fsync,
        }));
        let (requests, ops) = mixed_round(&mut self.rng, model, CRASH_MIX, RATE, false);
        let report = EcoServer::new(db, config).serve(&requests);
        let mut acknowledged = 0;
        for (op, outcome) in ops.iter().zip(&report.outcomes) {
            if outcome.is_completed() {
                model.apply(op);
                acknowledged += 1;
            }
        }
        if acknowledged == ops.len() || !db.wal_crashed() {
            return Err("the injected fsync failure never fired".to_string());
        }

        let image = if t.enabled() {
            db.wal_image()
        } else {
            Vec::new()
        };
        let span = t.begin("core.recover");
        let recovered = db.recover();
        t.end(span);
        recovered.map_err(|e| format!("recover: {e}"))?;
        if t.enabled() {
            layers::shadow_recover(db, &image, INDEX, span, t);
        }
        self.check_orders("after crash and recovery")
    }
}

impl Workload for ServeMixedWal {
    fn sizes(&self) -> Sizes {
        // 8 rounds x 92 requests = 736 simulated response samples.
        self.size.sizes(Sizes {
            epochs: 3,
            warmup_rounds: 1,
            sim_rounds: 8,
        })
    }

    fn setup(&mut self, t: &mut Tracer) -> Check {
        self.db = None;
        self.scratch = None;
        self.rng = Rng::new(self.seed, 4);
        let db = open_db(EngineProfile::CommercialDisk, self.size.scale(), t);
        t.span("storage.index_build", || {
            db.try_trace_sql(&format!(
                "CREATE INDEX {} ON {} ({})",
                INDEX.0, INDEX.1, INDEX.2
            ))
        })
        .map_err(|e| format!("CREATE INDEX: {e}"))?;
        self.config = Some(planned_config(&db, WORKERS, t));
        self.model = Some(OrdersModel::new(
            db.source()
                .orders
                .iter()
                .map(|o| (o.o_orderkey, o.o_totalprice)),
        ));
        if t.enabled() {
            self.scratch = Some(ScratchDb::open(&db, INDEX.0, INDEX.1, INDEX.2, t));
        }
        self.db = Some(db);
        Ok(())
    }

    fn round(&mut self, verify: bool, t: &mut Tracer) -> Result<RoundOut, String> {
        let model = self.model.as_mut().ok_or("round before setup")?;
        let (requests, ops) = mixed_round(&mut self.rng, model, MIX, RATE, true);
        let db = self.db.as_ref().ok_or("round before setup")?;
        let server = EcoServer::new(db, self.config.ok_or("round before setup")?);

        t.round_begin();
        let span = t.begin("server.serve");
        let report = server.serve(&requests);
        t.end(span);
        let host_ns = t.round_end();

        let mut out = RoundOut {
            host_ns,
            ..RoundOut::default()
        };
        absorb_report(&report, &mut out, t);
        t.count("rounds", 1.0);
        t.count("txns", (MIX.inserts + MIX.updates + MIX.deletes) as f64);
        if t.enabled() {
            layers::shadow_merged(db, &report.dispatches, WORKERS, span, t);
            if let Some(scratch) = self.scratch.as_mut() {
                scratch.shadow_sql(db, &report.dispatches, span, t);
            }
        }
        self.check_report(&report, &ops, verify)?;
        Ok(out)
    }

    fn finish(&mut self, last: bool, t: &mut Tracer) -> Check {
        self.check_orders("after the last round")?;
        if last {
            self.crash_and_recover(t)?;
        }
        Ok(())
    }
}
