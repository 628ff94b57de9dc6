//! Power measurement instruments.
//!
//! The paper measures CPU power through the ASUS EPU on-board sensor,
//! *sampled graphically about once per second* from the 6-Engine GUI,
//! and reports joules as `average sampled watts × workload runtime`
//! (§3.1). We keep both the exact integral of the simulated power
//! timeline and the 1 Hz sampled estimate, so the paper's measurement
//! methodology is itself reproducible (and its error is testable — see
//! the `sampling` target of `repro`).

use crate::calib;

/// A piecewise-constant power timeline: ordered `(seconds, watts)`
/// segments.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct PowerTimeline {
    segments: Vec<(f64, f64)>,
}

impl PowerTimeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a segment of `seconds` at `watts`. Zero-length segments
    /// are dropped.
    pub fn push(&mut self, seconds: f64, watts: f64) {
        assert!(seconds >= 0.0, "negative duration");
        assert!(watts >= 0.0, "negative power");
        if seconds > 0.0 {
            self.segments.push((seconds, watts));
        }
    }

    /// Total duration, seconds.
    pub(crate) fn duration_s(&self) -> f64 {
        self.segments.iter().map(|(s, _)| s).sum()
    }

    /// Exact energy: the integral of power over time, joules.
    pub(crate) fn exact_joules(&self) -> f64 {
        self.segments.iter().map(|(s, w)| s * w).sum()
    }

    /// Instantaneous power at time `t` seconds from the start.
    pub(crate) fn power_at(&self, t: f64) -> f64 {
        let mut acc = 0.0;
        for &(s, w) in &self.segments {
            acc += s;
            if t < acc {
                return w;
            }
        }
        self.segments.last().map(|&(_, w)| w).unwrap_or(0.0)
    }

    /// The paper's estimate: sample the display at a fixed period
    /// (midpoint sampling, quantized to the GUI's resolution), average
    /// the samples, multiply by the runtime. Short runs relative to the
    /// period are the worst case — which is why the paper builds 10-query
    /// workloads "usually many minutes long" (§3.1).
    pub(crate) fn sampled_joules(&self, period_s: f64, quantum_w: f64) -> f64 {
        assert!(period_s > 0.0);
        let d = self.duration_s();
        if d <= 0.0 {
            return 0.0;
        }
        let mut t = period_s / 2.0;
        let mut sum = 0.0;
        let mut n = 0u64;
        while t < d {
            let w = self.power_at(t);
            let q = if quantum_w > 0.0 {
                (w / quantum_w).round() * quantum_w
            } else {
                w
            };
            sum += q;
            n += 1;
            t += period_s;
        }
        if n == 0 {
            // Run shorter than one sample period: the GUI shows one
            // reading; use the midpoint.
            return self.power_at(d / 2.0) * d;
        }
        (sum / n as f64) * d
    }

    /// Sampled estimate with the paper's instrument parameters (1 Hz,
    /// 0.1 W display quantum).
    pub(crate) fn epu_joules(&self) -> f64 {
        self.sampled_joules(calib::EPU_SAMPLE_PERIOD_S, calib::EPU_QUANTUM_W)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_integration() {
        let mut t = PowerTimeline::new();
        t.push(2.0, 10.0);
        t.push(3.0, 20.0);
        assert!((t.exact_joules() - 80.0).abs() < 1e-12);
        assert!((t.duration_s() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn power_at_picks_correct_segment() {
        let mut t = PowerTimeline::new();
        t.push(1.0, 5.0);
        t.push(1.0, 7.0);
        assert_eq!(t.power_at(0.5), 5.0);
        assert_eq!(t.power_at(1.5), 7.0);
        assert_eq!(t.power_at(99.0), 7.0);
    }

    #[test]
    fn sampling_converges_for_long_runs() {
        // A long alternating workload: the 1 Hz estimate should be
        // within a few percent of the exact integral.
        // Segment period is incommensurate with the 1 Hz sampling so
        // the samples dephase; a commensurate period would alias (a
        // real hazard of the paper's methodology; `repro`'s `sampling`
        // target prints the error on the Q5 workload).
        let mut t = PowerTimeline::new();
        for _ in 0..300 {
            t.push(0.73, 30.0);
            t.push(0.34, 12.0);
        }
        let exact = t.exact_joules();
        let est = t.epu_joules();
        assert!(
            (est - exact).abs() / exact < 0.05,
            "exact {exact}, sampled {est}"
        );
    }

    #[test]
    fn sampling_handles_sub_period_runs() {
        let mut t = PowerTimeline::new();
        t.push(0.4, 25.0);
        let est = t.epu_joules();
        assert!((est - 10.0).abs() < 0.2, "estimate {est}");
    }

    #[test]
    fn zero_length_segments_ignored() {
        let mut t = PowerTimeline::new();
        t.push(0.0, 100.0);
        assert_eq!(t.duration_s(), 0.0);
        assert_eq!(t.exact_joules(), 0.0);
    }

    #[test]
    #[should_panic]
    fn negative_power_rejected() {
        let mut t = PowerTimeline::new();
        t.push(1.0, -5.0);
    }
}
