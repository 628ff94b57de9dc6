//! Energy-aware admission control: pick the batching operating point
//! from the advisor's cost model, and shed load past the backlog cap.
//!
//! The paper's Fig 6 shows per-query energy falling with batch size at
//! *diminishing* returns. Online, the server must pick a threshold
//! without executing anything, so admission planning walks the
//! advisor's [`estimate_qed`] curve and stops growing the batch at the
//! configurable **knee**: the first size whose *marginal* per-query
//! energy-ratio improvement drops below `knee_marginal`. Past the knee,
//! extra batching buys almost no joules but keeps degrading the first
//! query's response time, so admitting more delay is wasted.
//!
//! The second control is the **backlog cap**: queueing is how QED
//! accumulates batches, but an unbounded queue under overload grows
//! response times without bound. Arrivals that would push the backlog
//! past `max_backlog` are shed with a typed
//! [`ServerError::Shed`](eco_core::ServerError) — the session sees a
//! clean rejection, the server keeps running.

use eco_core::advisor::{estimate_qed, QedEstimate};
use eco_core::EcoDb;

/// Tunables for admission planning.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Largest batch size to consider (the paper stops at 50, the size
    /// of the `l_quantity` domain).
    pub max_batch: usize,
    /// Knee: stop growing the threshold when the marginal per-query
    /// energy-ratio gain of one more queued query falls below this.
    pub knee_marginal: f64,
    /// Backlog cap as a multiple of the chosen threshold.
    pub backlog_factor: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            max_batch: 50,
            knee_marginal: 0.002,
            backlog_factor: 4,
        }
    }
}

/// The planned admission operating point.
#[derive(Debug, Clone)]
pub struct AdmissionPlan {
    /// Chosen batch threshold (≥ 1).
    pub threshold: usize,
    /// Queue length above which arrivals are shed.
    pub max_backlog: usize,
    /// The estimate curve that was walked (for reports / debugging).
    pub curve: Vec<QedEstimate>,
}

/// Walk the advisor's QED estimate curve and choose the knee-point
/// threshold for `db`. Entirely model-driven: no statement executes.
pub fn plan_admission(db: &EcoDb, cfg: &AdmissionConfig) -> AdmissionPlan {
    assert!(cfg.max_batch >= 1, "max batch must be at least 1");
    assert!(cfg.backlog_factor >= 1, "backlog factor must be at least 1");
    let mut curve = Vec::new();
    let mut threshold = 1;
    let mut prev_ratio = 1.0; // batch of 1: per-query energy ratio is 1 by definition
    for k in 2..=cfg.max_batch {
        let est = estimate_qed(db.catalog(), db.machine(), k, true);
        let marginal = prev_ratio - est.energy_ratio;
        prev_ratio = est.energy_ratio;
        curve.push(est);
        if marginal < cfg.knee_marginal {
            break;
        }
        threshold = k;
    }
    AdmissionPlan {
        threshold,
        max_backlog: threshold * cfg.backlog_factor,
        curve,
    }
}

/// Should a new arrival be shed given the current backlog?
pub(crate) fn should_shed(pending: usize, max_backlog: usize) -> bool {
    pending >= max_backlog
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_core::EngineProfile;

    #[test]
    fn knee_sits_between_one_and_max_batch() {
        let db = EcoDb::tpch(EngineProfile::MemoryEngine, 0.002);
        let plan = plan_admission(&db, &AdmissionConfig::default());
        assert!(plan.threshold >= 2, "batching must be worth something");
        assert!(plan.threshold <= 50);
        assert_eq!(plan.max_backlog, plan.threshold * 4);
        // The walked curve is monotone decreasing in energy ratio.
        for w in plan.curve.windows(2) {
            assert!(w[1].energy_ratio <= w[0].energy_ratio + 1e-12);
        }
    }

    #[test]
    fn a_blunt_knee_stops_batching_early() {
        let db = EcoDb::tpch(EngineProfile::MemoryEngine, 0.002);
        let greedy = plan_admission(&db, &AdmissionConfig::default());
        let blunt = plan_admission(
            &db,
            &AdmissionConfig {
                knee_marginal: 0.05,
                ..AdmissionConfig::default()
            },
        );
        assert!(
            blunt.threshold <= greedy.threshold,
            "a higher knee must not choose a larger batch ({} vs {})",
            blunt.threshold,
            greedy.threshold
        );
    }

    #[test]
    fn shedding_trips_at_the_cap() {
        assert!(!should_shed(3, 4));
        assert!(should_shed(4, 4));
        assert!(should_shed(5, 4));
    }
}
