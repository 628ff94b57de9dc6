//! The analytical QED response-time model (paper §4: "A simple
//! analytical model can be used to capture these effects in more
//! detail, and can be used to consider the impact on SLAs").
//!
//! Fitted from a handful of measured batch sizes, the model gives
//! closed-form per-position response times for both schemes, from which
//! deadline/percentile SLAs can be evaluated without further runs:
//!
//! * sequential: query `i` of a back-to-back batch completes at
//!   `i · (g + t₁)`;
//! * QED: the batch runs as one statement of duration
//!   `g + t_merged(k) ≈ g + a + b·k`, after which the splitter returns
//!   result sets in order, `s·k` total: query `i` responds at
//!   `g + a + b·k + (i/k)·s·k`.
//!
//! Nothing in the engine or the reproduced figures reads it: it lives
//! with its one caller, `tests/integration_extensions.rs`.

use ecodb::core::server::{EcoDb, Query};
use ecodb::simhw::machine::MachineConfig;
use ecodb::tpch::qed_workload;

/// Fitted QED timing model (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QedModel {
    /// Client round-trip gap per statement.
    pub gap_s: f64,
    /// Sequential per-query service time t₁.
    pub t_single_s: f64,
    /// Merged-execution intercept `a` (scan + parse floor).
    pub merged_base_s: f64,
    /// Merged-execution slope `b` per batched query.
    pub merged_per_query_s: f64,
    /// Split time per batched query `s`.
    pub split_per_query_s: f64,
}

impl QedModel {
    /// Fit the model by measuring a single query plus two merged batch
    /// sizes (least measurements that pin the line).
    pub fn fit(db: &EcoDb, k_lo: usize, k_hi: usize) -> Self {
        assert!(k_lo >= 2 && k_hi > k_lo && k_hi <= 50);
        let cfg = MachineConfig::stock();

        let (_, single) = db.trace(&Query::Selection(&qed_workload(1)[0]), 1).unwrap();
        let sm = db.price(&single[0], cfg);
        let gap_s = sm.phases[0].elapsed_s;
        let t_single_s = sm.phases[1].elapsed_s;

        let measure = |k: usize| -> (f64, f64) {
            let (_, trace) = db
                .try_trace_merged_selection(&qed_workload(k), true)
                .unwrap();
            let m = db.price(&trace, cfg);
            // phases: [gap, merged exec, split]
            (m.phases[1].elapsed_s, m.phases[2].elapsed_s)
        };
        let (exec_lo, split_lo) = measure(k_lo);
        let (exec_hi, split_hi) = measure(k_hi);

        let merged_per_query_s = (exec_hi - exec_lo) / (k_hi - k_lo) as f64;
        let merged_base_s = exec_lo - merged_per_query_s * k_lo as f64;
        let split_per_query_s = (split_lo / k_lo as f64 + split_hi / k_hi as f64) / 2.0;

        Self {
            gap_s,
            t_single_s,
            merged_base_s: merged_base_s.max(0.0),
            merged_per_query_s: merged_per_query_s.max(0.0),
            split_per_query_s: split_per_query_s.max(0.0),
        }
    }

    /// Merged-statement execution time for batch size `k`.
    pub fn merged_exec_s(&self, k: usize) -> f64 {
        self.merged_base_s + self.merged_per_query_s * k as f64
    }

    /// Sequential response of query `i` (1-based) in a batch.
    pub fn sequential_response_s(&self, i: usize) -> f64 {
        i as f64 * (self.gap_s + self.t_single_s)
    }

    /// QED response of query `i` (1-based) in a batch of `k`.
    pub fn qed_response_s(&self, i: usize, k: usize) -> f64 {
        assert!(i >= 1 && i <= k);
        self.gap_s + self.merged_exec_s(k) + self.split_per_query_s * i as f64
    }

    /// Average response ratio (QED / sequential) for batch size `k`.
    pub fn avg_response_ratio(&self, k: usize) -> f64 {
        let kf = k as f64;
        let seq_avg = (kf + 1.0) / 2.0 * (self.gap_s + self.t_single_s);
        let qed_avg =
            self.gap_s + self.merged_exec_s(k) + self.split_per_query_s * (kf + 1.0) / 2.0;
        qed_avg / seq_avg
    }

    /// Degradation of the first query in the batch (the worst case the
    /// paper calls out): `qed_response(1) / sequential_response(1)`.
    pub fn first_query_degradation(&self, k: usize) -> f64 {
        self.qed_response_s(1, k) / self.sequential_response_s(1)
    }

    /// Fraction of the batch meeting a response deadline, per scheme.
    pub fn deadline_fractions(&self, k: usize, deadline_s: f64) -> (f64, f64) {
        let seq = (1..=k)
            .filter(|&i| self.sequential_response_s(i) <= deadline_s)
            .count() as f64
            / k as f64;
        let qed = (1..=k)
            .filter(|&i| self.qed_response_s(i, k) <= deadline_s)
            .count() as f64
            / k as f64;
        (seq, qed)
    }

    /// Largest batch size (≤ `max_k`) whose `percentile` fraction of
    /// queries still meets `deadline_s` under QED. `None` when even a
    /// batch of 2 misses it.
    pub fn max_batch_for_deadline(
        &self,
        max_k: usize,
        deadline_s: f64,
        percentile: f64,
    ) -> Option<usize> {
        assert!((0.0..=1.0).contains(&percentile));
        (2..=max_k.min(50))
            .rev()
            .find(|&k| self.deadline_fractions(k, deadline_s).1 >= percentile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecodb::core::qed::run_qed;
    use ecodb::core::server::EngineProfile;

    fn model() -> (EcoDb, QedModel) {
        let db = EcoDb::tpch(EngineProfile::MemoryEngine, 0.004);
        let m = QedModel::fit(&db, 10, 40);
        (db, m)
    }

    #[test]
    fn fitted_parameters_are_positive_and_ordered() {
        let (_, m) = model();
        assert!(m.t_single_s > 0.0);
        assert!(m.gap_s > 0.0);
        assert!(m.merged_per_query_s > 0.0);
        assert!(m.split_per_query_s > 0.0);
        // A merged batch of k is much cheaper than k singles.
        assert!(m.merged_exec_s(40) < 40.0 * m.t_single_s);
    }

    #[test]
    fn model_predicts_measured_response_ratio() {
        let (db, m) = model();
        for k in [20usize, 35, 50] {
            let predicted = m.avg_response_ratio(k);
            let measured = run_qed(&db, k, MachineConfig::stock(), true).response_ratio;
            let rel = (predicted - measured).abs() / measured;
            assert!(
                rel < 0.10,
                "k={k}: model {predicted:.3} vs measured {measured:.3}"
            );
        }
    }

    #[test]
    fn response_positions_are_monotone() {
        let (_, m) = model();
        for k in [10usize, 30] {
            for i in 1..k {
                assert!(m.qed_response_s(i, k) < m.qed_response_s(i + 1, k));
                assert!(m.sequential_response_s(i) < m.sequential_response_s(i + 1));
            }
        }
    }

    #[test]
    fn first_query_degradation_grows_with_batch_size() {
        // Paper: "the degradation in response time for the first query
        // increases as the batch size increases."
        let (_, m) = model();
        let d20 = m.first_query_degradation(20);
        let d40 = m.first_query_degradation(40);
        assert!(d40 > d20, "{d40} vs {d20}");
        assert!(d20 > 1.0, "the first query always degrades");
    }

    #[test]
    fn deadline_fractions_behave() {
        let (_, m) = model();
        let k = 30;
        // A deadline past the merged completion admits everything.
        let generous = m.qed_response_s(k, k) + 1.0;
        assert_eq!(m.deadline_fractions(k, generous), (1.0, 1.0));
        // A deadline before the merged statement finishes admits no QED
        // query but some sequential ones.
        let tight = m.gap_s + m.merged_exec_s(k) * 0.5;
        let (seq, qed) = m.deadline_fractions(k, tight);
        assert_eq!(qed, 0.0);
        assert!(seq > 0.0);
    }

    #[test]
    fn sla_batch_choice() {
        let (_, m) = model();
        // Deadline that batch 10's last query meets comfortably.
        let deadline = m.qed_response_s(10, 10) * 1.05;
        let k = m
            .max_batch_for_deadline(50, deadline, 1.0)
            .expect("some batch fits");
        assert!(k >= 10, "at least batch 10 fits, got {k}");
        // Impossible deadline.
        assert_eq!(m.max_batch_for_deadline(50, 0.0, 0.5), None);
    }
}
