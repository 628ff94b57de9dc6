//! Energy metrics: the Energy-Delay Product, operating points and
//! iso-EDP curves.
//!
//! The paper (§3.3–3.4) compares settings by plotting energy ratio
//! against response-time ratio relative to the stock setting, overlays
//! the curve of constant EDP (`energy_ratio × time_ratio = 1`) and
//! calls points *below* that curve "interesting" — they save a larger
//! percentage of energy than they give up in response time.

use eco_simhw::machine::{Machine, MachineConfig, Measurement};
use eco_simhw::multicore::MultiCoreMeasurement;

/// Energy-Delay Product: `joules × seconds`. Lower is better.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Edp(pub f64);

impl Edp {
    /// EDP from energy and delay.
    pub fn new(joules: f64, seconds: f64) -> Self {
        Edp(joules * seconds)
    }

    /// Ratio of this EDP over a baseline.
    pub fn ratio(self, baseline: Edp) -> f64 {
        assert!(baseline.0 > 0.0, "baseline EDP must be positive");
        self.0 / baseline.0
    }
}

/// One measured operating point of a workload under a machine setting.
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    /// Human-readable setting label (e.g. `"5% UC / medium"`).
    pub label: String,
    /// The machine configuration measured.
    pub config: MachineConfig,
    /// Workload response time, seconds.
    pub seconds: f64,
    /// CPU energy, joules (the paper's primary metric).
    pub cpu_joules: f64,
    /// Whole-system wall energy, joules.
    pub wall_joules: f64,
}

impl OperatingPoint {
    /// Build from a measurement.
    pub fn from_measurement(
        label: impl Into<String>,
        config: MachineConfig,
        m: &Measurement,
    ) -> Self {
        Self {
            label: label.into(),
            config,
            seconds: m.elapsed_s,
            cpu_joules: m.cpu_joules,
            wall_joules: m.wall_joules,
        }
    }

    /// Build from a multi-core measurement (cores axis: the same
    /// ratios/EDP algebra applies to the barrier makespan and summed
    /// per-core energy).
    pub fn from_multicore(
        label: impl Into<String>,
        config: MachineConfig,
        m: &MultiCoreMeasurement,
    ) -> Self {
        Self {
            label: label.into(),
            config,
            seconds: m.elapsed_s,
            cpu_joules: m.cpu_joules,
            wall_joules: m.wall_joules,
        }
    }

    /// CPU-energy EDP of this point.
    pub fn edp(&self) -> Edp {
        Edp::new(self.cpu_joules, self.seconds)
    }

    /// Energy ratio vs a baseline point (< 1 saves energy).
    pub fn energy_ratio(&self, base: &OperatingPoint) -> f64 {
        self.cpu_joules / base.cpu_joules
    }

    /// Time ratio vs a baseline point (> 1 is slower).
    pub fn time_ratio(&self, base: &OperatingPoint) -> f64 {
        self.seconds / base.seconds
    }

    /// Wall-energy ratio vs a baseline point.
    pub fn wall_energy_ratio(&self, base: &OperatingPoint) -> f64 {
        self.wall_joules / base.wall_joules
    }

    /// EDP ratio vs a baseline (< 1 is a net win; the paper reports
    /// these as "EDP −47 %" etc.).
    pub fn edp_ratio(&self, base: &OperatingPoint) -> f64 {
        self.edp().ratio(base.edp())
    }

    /// True when this point is *below* the iso-EDP curve through the
    /// baseline — the paper's "interesting" region.
    pub fn is_interesting(&self, base: &OperatingPoint) -> bool {
        self.edp_ratio(base) < 1.0
    }
}

/// The iso-EDP curve through the baseline, sampled at the given energy
/// ratios: `time_ratio = 1 / energy_ratio` (so that `E·T` is constant).
pub fn iso_edp_curve(energy_ratios: &[f64]) -> Vec<(f64, f64)> {
    energy_ratios
        .iter()
        .map(|&e| {
            assert!(e > 0.0, "energy ratio must be positive");
            (e, 1.0 / e)
        })
        .collect()
}

/// Euclidean distance from a `(energy_ratio, time_ratio)` point to the
/// iso-EDP curve (numerically minimized) — the paper reads EDP off
/// Fig 2 as "the shortest distance from the data point to the EDP
/// curve".
pub fn distance_to_iso_edp(energy_ratio: f64, time_ratio: f64) -> f64 {
    // Minimize (e-x)² + (t-1/x)² over x > 0 by dense sampling + local
    // refinement (robust, and this is a reporting aid, not a hot path).
    let f = |x: f64| {
        let dx = energy_ratio - x;
        let dy = time_ratio - 1.0 / x;
        (dx * dx + dy * dy).sqrt()
    };
    let mut best_x = energy_ratio.max(0.05);
    let mut best = f(best_x);
    let mut lo = 0.05;
    let mut hi = 4.0;
    for _ in 0..4 {
        let n = 200;
        for i in 0..=n {
            let x = lo + (hi - lo) * i as f64 / n as f64;
            let d = f(x);
            if d < best {
                best = d;
                best_x = x;
            }
        }
        let w = (hi - lo) / n as f64;
        lo = (best_x - 2.0 * w).max(1e-3);
        hi = best_x + 2.0 * w;
    }
    best
}

/// Convenience: measure a trace under several configurations and
/// return operating points (first entry is the baseline/stock run).
pub fn sweep_operating_points(
    machine: &Machine,
    trace: &eco_simhw::trace::WorkTrace,
    configs: &[(String, MachineConfig)],
) -> Vec<OperatingPoint> {
    configs
        .iter()
        .map(|(label, cfg)| {
            let m = machine.measure(trace, cfg);
            OperatingPoint::from_measurement(label.clone(), *cfg, &m)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(label: &str, s: f64, j: f64) -> OperatingPoint {
        OperatingPoint {
            label: label.into(),
            config: MachineConfig::stock(),
            seconds: s,
            cpu_joules: j,
            wall_joules: j * 2.5,
        }
    }

    #[test]
    fn edp_and_ratios() {
        let base = point("stock", 48.5, 1228.7);
        let a = point("A", 50.0, 627.0); // ≈ the paper's setting A
        assert!((a.energy_ratio(&base) - 0.51).abs() < 0.01);
        assert!((a.time_ratio(&base) - 1.031).abs() < 0.01);
        assert!(a.edp_ratio(&base) < 0.55);
        assert!(a.is_interesting(&base));
    }

    #[test]
    fn worse_point_is_not_interesting() {
        let base = point("stock", 10.0, 100.0);
        let bad = point("bad", 20.0, 90.0); // 2× time for 10 % energy
        assert!(!bad.is_interesting(&base));
    }

    #[test]
    fn iso_curve_has_unit_product() {
        for (e, t) in iso_edp_curve(&[0.25, 0.5, 1.0, 2.0]) {
            assert!((e * t - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn distance_zero_on_curve_positive_off() {
        assert!(distance_to_iso_edp(0.5, 2.0) < 1e-3);
        assert!(distance_to_iso_edp(1.0, 1.0) < 1e-3);
        let below = distance_to_iso_edp(0.5, 1.0); // saves energy, mild slowdown
        assert!(below > 0.1, "clearly off-curve point: {below}");
    }

    #[test]
    #[should_panic(expected = "baseline EDP must be positive")]
    fn zero_baseline_rejected() {
        let _ = Edp(1.0).ratio(Edp(0.0));
    }

    #[test]
    fn sweep_measures_each_config_in_order() {
        use eco_simhw::cpu::{CpuConfig, VoltageSetting};
        use eco_simhw::trace::{OpClass, Phase, WorkTrace};

        let machine = Machine::paper_sut();
        let mut trace = WorkTrace::new();
        let mut p = Phase::execute("w");
        p.ledger.cpu.add(OpClass::PredEval, 2_000_000);
        trace.push(p);

        let configs = vec![
            ("stock".to_string(), MachineConfig::stock()),
            (
                "eco".to_string(),
                MachineConfig::with_cpu(CpuConfig::underclocked(0.05, VoltageSetting::Medium)),
            ),
        ];
        let points = sweep_operating_points(&machine, &trace, &configs);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].label, "stock");
        assert!(points[1].cpu_joules < points[0].cpu_joules);
        assert!(points[1].seconds > points[0].seconds);
        assert!(points[1].is_interesting(&points[0]));
    }
}
