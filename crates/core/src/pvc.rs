//! PVC — Processor Voltage/frequency Control (paper §3).
//!
//! PVC explores the grid of FSB-underclock × voltage-downgrade settings
//! for a workload, producing the operating-point plots of Figs 1–3, and
//! compares the observed EDP against the paper's theoretical model
//! `EDP ∝ V²/F` (Fig 4). The execute-once/price-many design makes the
//! sweep cheap: the workload runs once, then each setting is priced on
//! the same trace.

use eco_simhw::cpu::{CpuConfig, VoltageSetting};
use eco_simhw::machine::{Machine, MachineConfig};
use eco_simhw::trace::WorkTrace;

use crate::metrics::OperatingPoint;

/// The paper's voltage downgrades.
pub const PAPER_VOLTAGES: [VoltageSetting; 2] = [VoltageSetting::Small, VoltageSetting::Medium];

/// One measured PVC setting.
#[derive(Debug, Clone)]
pub struct PvcSweepPoint {
    /// FSB underclock fraction.
    pub underclock: f64,
    /// Voltage setting.
    pub voltage: VoltageSetting,
    /// The measured operating point.
    pub point: OperatingPoint,
    /// CPU-energy ratio vs stock.
    pub energy_ratio: f64,
    /// Response-time ratio vs stock.
    pub time_ratio: f64,
    /// EDP ratio vs stock (< 1 is a win).
    pub edp_ratio: f64,
    /// Wall-energy ratio vs stock (the paper notes the whole-system
    /// effect is smaller, e.g. −6 % wall for −49 % CPU).
    pub wall_energy_ratio: f64,
}

/// A full PVC sweep of one workload trace.
#[derive(Debug, Clone)]
pub struct PvcSweep {
    /// The stock (baseline) operating point.
    pub stock: OperatingPoint,
    /// All non-stock settings measured.
    pub points: Vec<PvcSweepPoint>,
}

impl PvcSweep {
    /// Sweep `trace` over the cartesian grid `underclocks × voltages`.
    pub fn run(
        machine: &Machine,
        trace: &WorkTrace,
        underclocks: &[f64],
        voltages: &[VoltageSetting],
    ) -> Self {
        let stock_cfg = MachineConfig::stock();
        let stock_m = machine.measure(trace, &stock_cfg);
        let stock = OperatingPoint::from_measurement("stock", stock_cfg, &stock_m);

        let mut points = Vec::new();
        for &v in voltages {
            for &u in underclocks {
                if u == 0.0 && v == VoltageSetting::Stock {
                    continue;
                }
                let cfg = MachineConfig::with_cpu(CpuConfig::underclocked(u, v));
                let m = machine.measure(trace, &cfg);
                let point = OperatingPoint::from_measurement(cfg.cpu.label(), cfg, &m);
                points.push(PvcSweepPoint {
                    underclock: u,
                    voltage: v,
                    energy_ratio: point.energy_ratio(&stock),
                    time_ratio: point.time_ratio(&stock),
                    edp_ratio: point.edp_ratio(&stock),
                    wall_energy_ratio: point.wall_energy_ratio(&stock),
                    point,
                });
            }
        }
        Self { stock, points }
    }

    /// The paper's grid: {5, 10, 15 %} × {small, medium}.
    pub fn paper_grid(machine: &Machine, trace: &WorkTrace) -> Self {
        Self::run(machine, trace, &[0.05, 0.10, 0.15], &PAPER_VOLTAGES)
    }

    /// Points for one voltage setting, ordered by underclock.
    pub fn points_for(&self, voltage: VoltageSetting) -> Vec<&PvcSweepPoint> {
        let mut v: Vec<&PvcSweepPoint> = self
            .points
            .iter()
            .filter(|p| p.voltage == voltage)
            .collect();
        v.sort_by(|a, b| a.underclock.partial_cmp(&b.underclock).expect("no NaN"));
        v
    }

    /// The setting with the lowest EDP (may be none if every point is
    /// worse than stock — then stock wins).
    pub fn best_edp(&self) -> Option<&PvcSweepPoint> {
        self.points
            .iter()
            .filter(|p| p.edp_ratio < 1.0)
            .min_by(|a, b| a.edp_ratio.partial_cmp(&b.edp_ratio).expect("no NaN"))
    }

    /// The most energy-saving setting whose slowdown stays within the
    /// SLA (`time_ratio ≤ max_time_ratio`).
    pub(crate) fn best_energy_under_sla(&self, max_time_ratio: f64) -> Option<&PvcSweepPoint> {
        self.points
            .iter()
            .filter(|p| p.time_ratio <= max_time_ratio)
            .min_by(|a, b| a.energy_ratio.partial_cmp(&b.energy_ratio).expect("no NaN"))
    }
}

/// The paper's theoretical EDP model (§3.4): with power `C·V²·F` and
/// time `∝ 1/F`, `EDP = power × time² ∝ V²/F`. Returns the model value
/// *normalized to the stock setting* for comparability with observed
/// EDP ratios (Fig 4 plots the two on separate axes; normalizing makes
/// the shapes directly overlayable).
pub(crate) fn theoretical_edp_ratio(
    machine: &Machine,
    config: &CpuConfig,
    utilization: f64,
) -> f64 {
    let spec = &machine.cpu_spec;
    let stock = CpuConfig::stock();
    let model = |cfg: &CpuConfig| {
        let p = cfg.active_top_pstate(spec);
        let v = cfg.effective_voltage(p, utilization);
        let f = cfg.top_freq_hz(spec);
        v * v / f
    };
    model(config) / model(&stock)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_simhw::trace::{OpClass, Phase};

    fn workload_trace() -> WorkTrace {
        let mut t = WorkTrace::new();
        for i in 0..4 {
            let mut p = Phase::execute(format!("q{i}"));
            p.ledger.cpu.add(OpClass::PredEval, 4_000_000);
            p.ledger.cpu.add(OpClass::TupleFetch, 4_000_000);
            p.ledger.mem_stream_bytes = 200 << 20;
            t.push(p);
            t.push(Phase::client_gap(30_000_000));
        }
        t
    }

    #[test]
    fn sweep_covers_grid_and_ratios_are_sane() {
        let machine = Machine::paper_sut();
        let sweep = PvcSweep::paper_grid(&machine, &workload_trace());
        assert_eq!(sweep.points.len(), 6);
        for p in &sweep.points {
            assert!(p.energy_ratio > 0.0 && p.energy_ratio < 1.0, "{p:?}");
            assert!(p.time_ratio > 1.0, "underclocking must cost time: {p:?}");
            // Wall savings are smaller than CPU savings (paper §3.3).
            assert!(p.wall_energy_ratio > p.energy_ratio);
        }
    }

    #[test]
    fn five_percent_is_edp_optimal_on_the_grid() {
        // Paper: "underclocking beyond 5% actually worsens the EDP!"
        let machine = Machine::paper_sut();
        let sweep = PvcSweep::paper_grid(&machine, &workload_trace());
        for v in PAPER_VOLTAGES {
            let pts = sweep.points_for(v);
            assert_eq!(pts.len(), 3);
            assert!(pts[0].edp_ratio < pts[1].edp_ratio, "{v:?} 5% vs 10%");
            assert!(pts[1].edp_ratio < pts[2].edp_ratio, "{v:?} 10% vs 15%");
        }
        let best = sweep.best_edp().expect("a winning point exists");
        assert!((best.underclock - 0.05).abs() < 1e-9);
        assert_eq!(best.voltage, VoltageSetting::Medium);
    }

    #[test]
    fn medium_beats_small_at_same_underclock() {
        let machine = Machine::paper_sut();
        let sweep = PvcSweep::paper_grid(&machine, &workload_trace());
        let small = sweep.points_for(VoltageSetting::Small);
        let medium = sweep.points_for(VoltageSetting::Medium);
        for (s, m) in small.iter().zip(&medium) {
            assert!(m.energy_ratio < s.energy_ratio);
            assert!(m.edp_ratio < s.edp_ratio);
        }
    }

    #[test]
    fn sla_selection_respects_time_bound() {
        let machine = Machine::paper_sut();
        let sweep = PvcSweep::paper_grid(&machine, &workload_trace());
        let strict = sweep.best_energy_under_sla(1.0);
        assert!(strict.is_none(), "nothing beats stock time");
        let relaxed = sweep
            .best_energy_under_sla(1.10)
            .expect("a setting fits a 10% slack");
        assert!(relaxed.time_ratio <= 1.10);
        // The chosen point saves real energy.
        assert!(relaxed.energy_ratio < 0.9);
    }

    #[test]
    fn theoretical_edp_rises_with_underclock_at_fixed_voltage() {
        // V constant, F falling ⇒ V²/F rising — the §3.4 explanation of
        // why deep underclocking loses.
        let machine = Machine::paper_sut();
        let util = 0.9;
        let r5 = theoretical_edp_ratio(
            &machine,
            &CpuConfig::underclocked(0.05, VoltageSetting::Medium),
            util,
        );
        let r10 = theoretical_edp_ratio(
            &machine,
            &CpuConfig::underclocked(0.10, VoltageSetting::Medium),
            util,
        );
        let r15 = theoretical_edp_ratio(
            &machine,
            &CpuConfig::underclocked(0.15, VoltageSetting::Medium),
            util,
        );
        assert!(r5 < r10 && r10 < r15);
        // And the downgrade makes all of them beat stock.
        assert!(r5 < 1.0);
    }

    #[test]
    fn observed_edp_tracks_theoretical_shape() {
        // Fig 4's claim: the observed EDP "closely matches" V²/F in
        // shape. Check rank agreement across the sweep.
        let machine = Machine::paper_sut();
        let sweep = PvcSweep::paper_grid(&machine, &workload_trace());
        let util = 0.9;
        for v in PAPER_VOLTAGES {
            let pts = sweep.points_for(v);
            let theory: Vec<f64> = pts
                .iter()
                .map(|p| {
                    theoretical_edp_ratio(&machine, &CpuConfig::underclocked(p.underclock, v), util)
                })
                .collect();
            for w in theory.windows(2) {
                assert!(w[0] < w[1], "theory must be monotone");
            }
            for w in pts.windows(2) {
                assert!(w[0].edp_ratio < w[1].edp_ratio, "observed must be monotone");
            }
        }
    }
}
