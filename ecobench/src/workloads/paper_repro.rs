//! `paper_repro`: the researcher's path. A round regenerates fig1,
//! fig3, fig6 and the warm/cold table through
//! `eco_core::experiments` — TPC-H generation and load, the hand-built
//! Q5 plans, the PVC sweep, the offline QED replay and
//! `Machine::measure`, which no other workload stresses — and it is
//! the only place the paper's headline numbers are checked.
//!
//! The figures take nothing but a scale factor, so that is what the
//! seed draws: 0.01 give or take one percent (the reproduction is
//! scale-free; see `tests/integration_scale_invariance.rs`).

use eco_core::experiments::{fig1, fig3, fig6, warm_cold, PvcFigure};
use eco_core::{EngineProfile, QedOutcome};

use super::Size;
use crate::check::Check;
use crate::gen::Rng;
use crate::layers;
use crate::runner::{OpSim, RoundOut, Sizes, Workload};
use crate::trace::Tracer;

/// The paper's headline numbers, in percent: energy saved and time (or
/// response) lost by PVC on the commercial DBMS, PVC on MySQL, and QED
/// at batch size 50.
const PAPER: [f64; 6] = [49.0, 3.0, 20.0, 6.0, 54.0, 43.0];
/// The per-layer metrics that carry them, in the same order.
const HEADLINE_METRICS: [&str; 6] = [
    "core.pvc_commercial_energy_saving_pct",
    "core.pvc_commercial_time_penalty_pct",
    "core.pvc_mysql_energy_saving_pct",
    "core.pvc_mysql_time_penalty_pct",
    "core.qed_energy_saving_pct",
    "core.qed_response_penalty_pct",
];
/// Largest mean gap to the paper, in percentage points, the
/// reproduction may show (10.9 at the commit that added this file).
const MAX_GAP_PTS: f64 = 15.0;

pub struct PaperRepro {
    size: Size,
    scale: f64,
}

impl PaperRepro {
    pub fn new(seed: u64, size: Size) -> Self {
        let jitter = (Rng::new(seed, 5).unit() - 0.5) * 0.02;
        Self {
            size,
            scale: size.scale() * (1.0 + jitter),
        }
    }
}

/// Energy saved and time lost, in percent, at 5 % underclock and
/// medium voltage.
fn pvc_headline(fig: &PvcFigure) -> Result<[f64; 2], String> {
    let p = fig
        .points
        .iter()
        .find(|p| p.underclock == 0.05 && p.voltage == "medium")
        .ok_or("no 5 % / medium point in the PVC figure")?;
    Ok([(1.0 - p.energy_ratio) * 100.0, (p.time_ratio - 1.0) * 100.0])
}

fn qed_headline(outcomes: &[QedOutcome]) -> Result<[f64; 2], String> {
    let o = outcomes
        .iter()
        .find(|o| o.batch_size == 50)
        .ok_or("no batch of 50 in fig6")?;
    Ok([
        (1.0 - o.energy_ratio) * 100.0,
        (o.response_ratio - 1.0) * 100.0,
    ])
}

impl Workload for PaperRepro {
    fn sizes(&self) -> Sizes {
        // One op per figure: 4 simulated samples, identical each round.
        self.size.sizes(Sizes {
            epochs: 3,
            warmup_rounds: 1,
            sim_rounds: 1,
        })
    }

    /// The figures build their own databases; the warm-up round is all
    /// the set-up there is.
    fn setup(&mut self, _t: &mut Tracer) -> Check {
        Ok(())
    }

    fn round(&mut self, verify: bool, t: &mut Tracer) -> Result<RoundOut, String> {
        let scale = self.scale;
        t.round_begin();
        let s1 = t.begin("core.fig1");
        let f1 = fig1(scale);
        t.end(s1);
        let s3 = t.begin("core.fig3");
        let f3 = fig3(scale);
        t.end(s3);
        let s6 = t.begin("core.fig6");
        let f6 = fig6(scale);
        t.end(s6);
        let wc = t.span("core.warm_cold", || warm_cold(scale));
        let host_ns = t.round_end();

        // Simulated cost of a figure: the CPU (and, warm/cold, disk)
        // joules and the seconds of its workload at stock settings.
        let sims = vec![
            OpSim {
                joules: f1.stock_joules,
                response_s: f1.stock_seconds,
            },
            OpSim {
                joules: f3.stock_joules,
                response_s: f3.stock_seconds,
            },
            OpSim {
                joules: f6.iter().map(|o| o.sequential.cpu_joules).sum(),
                response_s: f6.iter().map(|o| o.sequential.total_seconds).sum(),
            },
            OpSim {
                joules: wc.warm.cpu_joules
                    + wc.warm.disk_joules
                    + wc.cold.cpu_joules
                    + wc.cold.disk_joules,
                response_s: wc.warm.seconds + wc.cold.seconds,
            },
        ];

        let [e1, t1] = pvc_headline(&f1)?;
        let [e3, t3] = pvc_headline(&f3)?;
        let [e6, t6] = qed_headline(&f6)?;
        let headline = [e1, t1, e3, t3, e6, t6];
        let gap = headline
            .iter()
            .zip(PAPER)
            .map(|(h, p)| (h - p).abs())
            .sum::<f64>()
            / 6.0;
        if verify {
            if let Some(o) = f6.iter().find(|o| !o.results_match) {
                return Err(format!(
                    "fig6: QED rows differ from sequential at batch {}",
                    o.batch_size
                ));
            }
            if gap > MAX_GAP_PTS {
                return Err(format!(
                    "headline numbers {headline:?} are {gap:.1} points from the paper's {PAPER:?}"
                ));
            }
        }
        if t.enabled() {
            for (metric, v) in HEADLINE_METRICS.into_iter().zip(headline) {
                t.set(metric, v);
            }
            t.set("core.paper_gap_pts", gap);
            layers::shadow_pvc_figure(EngineProfile::CommercialDisk, scale, s1, t);
            layers::shadow_pvc_figure(EngineProfile::MemoryEngine, scale, s3, t);
            layers::shadow_qed_figure(scale, s6, t);
        }
        Ok(RoundOut {
            host_ns,
            attempted: sims.len() as u64,
            failed: 0,
            sims,
        })
    }
}
