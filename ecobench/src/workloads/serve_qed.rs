//! `serve_qed`: the paper's QED mechanism online, on the memory-engine
//! profile. A round serves three batches of 100 one-statement
//! selection sessions through `EcoServer::serve`, with Poisson
//! arrivals at 25, 250 and 25 000 requests per simulated second — an
//! open loop in simulated time, driven from one host thread. At the
//! admission plan's threshold of 50 the three rates give deadline
//! drains, threshold fills and a saturated machine. Scheduler,
//! batcher, predicate dedup, the merged scan (one engine worker), row
//! fan-out and the ledger split do the work.

use eco_core::{EcoDb, EngineProfile};
use eco_server::{EcoServer, Request, ServerConfig, SessionOutcome, Statement};

use super::{absorb_report, open_db, planned_config, Size, WORKERS};
use crate::check::{Check, LineitemOracle};
use crate::gen::{selection_sessions, Rng};
use crate::layers;
use crate::runner::{RoundOut, Sizes, Workload};
use crate::trace::Tracer;

/// Simulated arrival rates, requests per second.
const RATES: [f64; 3] = [25.0, 250.0, 25_000.0];
const SESSIONS: usize = 100;

pub struct ServeQed {
    seed: u64,
    size: Size,
    rng: Rng,
    db: Option<EcoDb>,
    config: Option<ServerConfig>,
    oracle: Option<LineitemOracle>,
}

impl ServeQed {
    pub fn new(seed: u64, size: Size) -> Self {
        Self {
            seed,
            size,
            rng: Rng::new(seed, 3),
            db: None,
            config: None,
            oracle: None,
        }
    }
}

impl Workload for ServeQed {
    fn sizes(&self) -> Sizes {
        // 8 rounds x 300 sessions = 2400 simulated response samples:
        // Poisson arrivals make a single round's joules per request
        // move by several percent from seed to seed.
        self.size.sizes(Sizes {
            epochs: 3,
            warmup_rounds: 1,
            sim_rounds: 8,
        })
    }

    fn setup(&mut self, t: &mut Tracer) -> Check {
        self.db = None;
        self.rng = Rng::new(self.seed, 3);
        let db = open_db(EngineProfile::MemoryEngine, self.size.scale(), t);
        self.config = Some(planned_config(&db, WORKERS, t));
        self.db = Some(db);
        Ok(())
    }

    fn round(&mut self, verify: bool, t: &mut Tracer) -> Result<RoundOut, String> {
        let db = self.db.as_ref().ok_or("round before setup")?;
        let server = EcoServer::new(db, self.config.ok_or("round before setup")?);
        let batches: Vec<Vec<Request>> = RATES
            .iter()
            .map(|rate| selection_sessions(&mut self.rng, SESSIONS, *rate))
            .collect();

        t.round_begin();
        let mut served = Vec::with_capacity(batches.len());
        for requests in &batches {
            let span = t.begin("server.serve");
            let report = server.serve(requests);
            t.end(span);
            served.push((report, span));
        }
        let host_ns = t.round_end();

        let mut out = RoundOut {
            host_ns,
            ..RoundOut::default()
        };
        for ((report, span), requests) in served.iter().zip(&batches) {
            absorb_report(report, &mut out, t);
            if verify {
                if !report.ledger_identity() {
                    return Err("per-session ledgers do not sum to the server's ledger".to_string());
                }
                let oracle = self
                    .oracle
                    .get_or_insert_with(|| LineitemOracle::by_quantity(db.source()));
                for (request, outcome) in requests.iter().zip(&report.outcomes) {
                    let (Statement::Selection(q), SessionOutcome::Completed { rows, .. }) =
                        (&request.statement, outcome)
                    else {
                        return Err(format!(
                            "session {:?} did not complete: {outcome:?}",
                            request.session
                        ));
                    };
                    oracle.expect(q.quantity, q.quantity, rows)?;
                }
            }
            if t.enabled() {
                layers::shadow_merged(db, &report.dispatches, WORKERS, *span, t);
            }
        }
        t.count("rounds", 1.0);
        Ok(out)
    }
}
