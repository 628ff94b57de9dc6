//! `olap_warm`: TPC-H Q1, Q3, Q5 and Q6 as SQL text on the
//! memory-engine profile. The query layer — lexer, parser, planner,
//! operators — does nearly all the work; there is no storage I/O, no
//! server and no WAL, so an engine or planner change must move this
//! workload and a storage or server change must not.

use eco_core::{EcoDb, EngineProfile};

use super::{open_db, sql_op, Size};
use crate::check::{self, Check};
use crate::gen::{Olap, Rng};
use crate::layers;
use crate::runner::{RoundOut, Sizes, Workload};
use crate::trace::Tracer;

pub struct OlapWarm {
    seed: u64,
    size: Size,
    rng: Rng,
    db: Option<EcoDb>,
}

impl OlapWarm {
    pub fn new(seed: u64, size: Size) -> Self {
        Self {
            seed,
            size,
            rng: Rng::new(seed, 1),
            db: None,
        }
    }
}

impl Workload for OlapWarm {
    fn sizes(&self) -> Sizes {
        // 25 rounds x 8 statements = 200 simulated response samples,
        // ten of them beyond the 95th percentile.
        self.size.sizes(Sizes {
            epochs: 3,
            warmup_rounds: 2,
            sim_rounds: 25,
        })
    }

    fn setup(&mut self, t: &mut Tracer) -> Check {
        self.db = None; // free the old database before building the next
        self.rng = Rng::new(self.seed, 1);
        self.db = Some(open_db(EngineProfile::MemoryEngine, self.size.scale(), t));
        Ok(())
    }

    /// Each of the four queries twice, with fresh parameters.
    fn round(&mut self, verify: bool, t: &mut Tracer) -> Result<RoundOut, String> {
        let db = self.db.as_ref().ok_or("round before setup")?;
        let rng = &mut self.rng;
        let queries: Vec<Olap> = (0..2)
            .flat_map(|_| [Olap::q1(rng), Olap::q3(rng), Olap::q5(rng), Olap::q6(rng)])
            .collect();
        let texts: Vec<String> = queries.iter().map(Olap::sql).collect();

        t.round_begin();
        let mut done = Vec::with_capacity(texts.len());
        for sql in &texts {
            done.push(sql_op(db, sql, t)?);
        }
        let host_ns = t.round_end();

        for ((q, sql), d) in queries.iter().zip(&texts).zip(&done) {
            if verify {
                check::olap(db.source(), q, &d.rows)?;
            }
            if t.enabled() {
                layers::shadow_select(db, sql, q.exec_span(), d.span, t);
            }
        }
        Ok(RoundOut {
            host_ns,
            attempted: done.len() as u64,
            failed: 0,
            sims: done.iter().map(|d| d.sim).collect(),
        })
    }
}
