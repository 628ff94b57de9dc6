//! Energy metrics: the Energy-Delay Product, operating points and
//! iso-EDP curves.
//!
//! The paper (§3.3–3.4) compares settings by plotting energy ratio
//! against response-time ratio relative to the stock setting, overlays
//! the curve of constant EDP (`energy_ratio × time_ratio = 1`) and
//! calls points *below* that curve "interesting" — they save a larger
//! percentage of energy than they give up in response time.

use eco_simhw::machine::{MachineConfig, Measurement};

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
    pub(crate) fn from_measurement(
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
pub(crate) fn iso_edp_curve(energy_ratios: &[f64]) -> Vec<(f64, f64)> {
    energy_ratios
        .iter()
        .map(|&e| {
            assert!(e > 0.0, "energy ratio must be positive");
            (e, 1.0 / e)
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
    #[should_panic(expected = "baseline EDP must be positive")]
    fn zero_baseline_rejected() {
        let _ = Edp(1.0).ratio(Edp(0.0));
    }
}
