//! `disk_cold_probe`: the storage read path on the commercial-disk
//! profile. A round flushes the buffer pool, scans `lineitem` cold
//! (Q6), runs 200 point and 20 range selections on the indexed
//! `l_orderkey` (the planner picks `IxScan`), and scans again warm.
//! Buffer-pool misses, page decode with checksum verify and B-tree
//! descents dominate. `EcoDb` sizes its pool to hold everything and
//! offers no way to shrink it, so "larger than the cache" is modelled
//! by the flush.

use eco_core::{EcoDb, EngineProfile};

use super::{open_db, sql_op, Size};
use crate::check::{self, Check, LineitemOracle};
use crate::gen::{key_probes, Olap, Rng};
use crate::layers;
use crate::runner::{RoundOut, Sizes, Workload};
use crate::trace::Tracer;

const POINTS: usize = 200;
const RANGES: usize = 20;
/// Pages the traced run reads cold, one span each, per round.
const COLD_PAGES: usize = 32;

pub struct DiskColdProbe {
    seed: u64,
    size: Size,
    rng: Rng,
    db: Option<EcoDb>,
    /// Built on the first verified round; the source rows are the same
    /// in every epoch.
    oracle: Option<LineitemOracle>,
}

impl DiskColdProbe {
    pub fn new(seed: u64, size: Size) -> Self {
        Self {
            seed,
            size,
            rng: Rng::new(seed, 2),
            db: None,
            oracle: None,
        }
    }
}

impl Workload for DiskColdProbe {
    fn sizes(&self) -> Sizes {
        // 5 rounds x 222 statements = 1110 simulated response samples.
        self.size.sizes(Sizes {
            epochs: 3,
            warmup_rounds: 2,
            sim_rounds: 5,
        })
    }

    fn setup(&mut self, t: &mut Tracer) -> Check {
        self.db = None;
        self.rng = Rng::new(self.seed, 2);
        let db = open_db(EngineProfile::CommercialDisk, self.size.scale(), t);
        t.span("storage.index_build", || {
            db.try_trace_sql("CREATE INDEX li_orderkey ON lineitem (l_orderkey)")
        })
        .map_err(|e| format!("CREATE INDEX: {e}"))?;
        if t.enabled() {
            let (disk, raw) = layers::space(&db, "lineitem");
            t.set("space_disk_bytes", disk as f64);
            t.set("space_raw_bytes", raw as f64);
        }
        self.db = Some(db);
        Ok(())
    }

    fn round(&mut self, verify: bool, t: &mut Tracer) -> Result<RoundOut, String> {
        let db = self.db.as_ref().ok_or("round before setup")?;
        let q6 = Olap::q6(&mut self.rng);
        let q6_sql = q6.sql();
        let max_key = db.source().orders.len() as i64;
        let probes = key_probes(&mut self.rng, max_key, POINTS, RANGES);
        let probe_sql: Vec<String> = probes.iter().map(|p| p.sql()).collect();
        let pool_before = if t.enabled() {
            layers::pool_counts(db)
        } else {
            (0, 0)
        };

        t.round_begin();
        t.span("core.flush_cache", || db.flush_cache());
        let cold = sql_op(db, &q6_sql, t)?;
        let mut probed = Vec::with_capacity(probes.len());
        for sql in &probe_sql {
            probed.push(sql_op(db, sql, t)?);
        }
        let warm = sql_op(db, &q6_sql, t)?;
        let host_ns = t.round_end();

        // Cheap checks on every round: the scan saw the same rows cold
        // and warm, and only the cold one went to disk sequentially.
        if cold.rows != warm.rows {
            return Err(format!(
                "Q6 cold {:?} differs from warm {:?}",
                cold.rows, warm.rows
            ));
        }
        let (cold_seq, warm_seq) = (
            cold.trace.total_disk().sequential_bytes,
            warm.trace.total_disk().sequential_bytes,
        );
        if cold_seq == 0 || warm_seq != 0 {
            return Err(format!(
                "sequential disk bytes: cold scan {cold_seq} (want > 0), warm scan {warm_seq} (want 0)"
            ));
        }
        if verify {
            check::olap(db.source(), &q6, &cold.rows)?;
            let oracle = self
                .oracle
                .get_or_insert_with(|| LineitemOracle::by_orderkey(db.source()));
            for (p, d) in probes.iter().zip(&probed) {
                oracle.expect(p.lo, p.hi, &d.rows)?;
            }
        }
        if t.enabled() {
            let pool_after = layers::pool_counts(db);
            t.count("pool_hits", (pool_after.0 - pool_before.0) as f64);
            t.count("pool_misses", (pool_after.1 - pool_before.1) as f64);
            t.count("rounds", 1.0);
            t.count("probes", probes.len() as f64);
            layers::shadow_select(db, &q6_sql, q6.exec_span(), warm.span, t);
            for ((p, sql), d) in probes.iter().zip(&probe_sql).zip(&probed) {
                let exec = layers::shadow_select(db, sql, "query.exec_selection", d.span, t);
                layers::shadow_index_probe(db, "lineitem", "l_orderkey", p, exec, t);
            }
            // `orders` was flushed at the top of the round and nothing
            // in the round reads it, so its pages are cold here.
            layers::shadow_cold_page_reads(db, "orders", COLD_PAGES, t);
        }
        let mut sims = vec![cold.sim];
        sims.extend(probed.iter().map(|d| d.sim));
        sims.push(warm.sim);
        Ok(RoundOut {
            host_ns,
            attempted: sims.len() as u64,
            failed: 0,
            sims,
        })
    }
}
