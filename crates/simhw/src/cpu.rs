//! CPU model: p-states, FSB-derived frequency, voltage settings.
//!
//! Paper §3 distinguishes two knobs and the distinction matters:
//!
//! * **P-state capping** truncates the multiplier list; frequency drops
//!   in coarse `multiplier × FSB` steps and the FSB (and hence memory)
//!   is untouched.
//! * **Underclocking** lowers the FSB itself: every p-state slows by
//!   the same fraction, granularity is fine, and memory slows too
//!   (memory clock is an FSB multiple on the Northbridge).
//!
//! PVC (paper §3.3) uses underclocking plus BIOS voltage downgrades.

use crate::calib;

/// BIOS voltage setting (paper §3.3: stock, "small" and "medium"
/// downgrades; ASUS PC Probe II reported both downgrades stable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VoltageSetting {
    /// No downgrade: the board's (generous) stock VID.
    #[default]
    Stock,
    /// Small downgrade.
    Small,
    /// Medium downgrade.
    Medium,
}

impl VoltageSetting {
    /// Configured downgrade below VID, in volts.
    pub(crate) fn downgrade_v(self) -> f64 {
        match self {
            VoltageSetting::Stock => 0.0,
            VoltageSetting::Small => calib::VDROP_SMALL,
            VoltageSetting::Medium => calib::VDROP_MEDIUM,
        }
    }

    /// Display name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            VoltageSetting::Stock => "stock",
            VoltageSetting::Small => "small",
            VoltageSetting::Medium => "medium",
        }
    }
}

/// One processor performance state: a multiplier plus the VID the part
/// requests at that multiplier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PState {
    /// CPU multiplier applied to the FSB.
    pub multiplier: f64,
    /// Requested core voltage at this p-state, before downgrades.
    pub vid: f64,
}

/// Static description of the processor.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    /// Stock FSB frequency, Hz.
    pub stock_fsb_hz: f64,
    /// Available p-states, lowest multiplier first.
    pub pstates: Vec<PState>,
    /// Core count.
    pub cores: usize,
    /// Effective switching capacitance per core (farads).
    pub ceff_per_core: f64,
    /// Leakage coefficient (watts per volt²).
    pub k_leak: f64,
    /// Uncore coefficient (watts per volt² at stock FSB).
    pub k_uncore: f64,
}

impl Default for CpuSpec {
    fn default() -> Self {
        Self::e8500()
    }
}

impl CpuSpec {
    /// The paper's processor: Intel Core2-Duo E8500.
    pub fn e8500() -> Self {
        let n = calib::MULTIPLIERS.len();
        let pstates = calib::MULTIPLIERS
            .iter()
            .enumerate()
            .map(|(i, &m)| PState {
                multiplier: m,
                // VID interpolates linearly across the multiplier range.
                vid: calib::VID_MIN
                    + (calib::VID_MAX - calib::VID_MIN) * (i as f64) / ((n - 1) as f64),
            })
            .collect();
        Self {
            stock_fsb_hz: calib::STOCK_FSB_HZ,
            pstates,
            cores: calib::N_CORES,
            ceff_per_core: calib::CEFF_PER_CORE,
            k_leak: calib::K_LEAK,
            k_uncore: calib::K_UNCORE,
        }
    }

    /// Highest p-state (top multiplier).
    pub fn top_pstate(&self) -> PState {
        *self.pstates.last().expect("spec has at least one p-state")
    }

    /// Lowest p-state (SpeedStep floor).
    pub fn bottom_pstate(&self) -> PState {
        *self.pstates.first().expect("spec has at least one p-state")
    }

    /// The p-state with the highest multiplier not exceeding `cap`.
    /// Models traditional p-state capping (paper §3's foil to
    /// underclocking). Falls back to the bottom p-state if the cap is
    /// below every multiplier.
    pub(crate) fn capped_top(&self, cap: f64) -> PState {
        self.pstates
            .iter()
            .rev()
            .find(|p| p.multiplier <= cap)
            .copied()
            .unwrap_or_else(|| self.bottom_pstate())
    }
}

/// A concrete clocking/voltage configuration of the CPU — one point in
/// the PVC search space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuConfig {
    /// FSB underclock fraction `u` in `[0, 1)`: FSB runs at
    /// `stock · (1 − u)` (paper evaluates u ∈ {0, 5 %, 10 %, 15 %}).
    pub underclock: f64,
    /// BIOS voltage setting.
    pub voltage: VoltageSetting,
    /// Optional multiplier cap (traditional p-state power management).
    /// `None` leaves all p-states available — the property the paper
    /// highlights as underclocking's advantage.
    pub multiplier_cap: Option<f64>,
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self::stock()
    }
}

impl CpuConfig {
    /// Stock setting: no underclock, no downgrade, no cap.
    pub fn stock() -> Self {
        Self {
            underclock: 0.0,
            voltage: VoltageSetting::Stock,
            multiplier_cap: None,
        }
    }

    /// Underclocked configuration (fraction, e.g. `0.05` for 5 %).
    pub fn underclocked(u: f64, voltage: VoltageSetting) -> Self {
        assert!(
            (0.0..1.0).contains(&u),
            "underclock fraction {u} out of range"
        );
        Self {
            underclock: u,
            voltage,
            multiplier_cap: None,
        }
    }

    /// P-state-capped configuration at stock FSB.
    pub fn capped(cap: f64, voltage: VoltageSetting) -> Self {
        Self {
            underclock: 0.0,
            voltage,
            multiplier_cap: Some(cap),
        }
    }

    /// Effective FSB under this configuration, Hz.
    pub(crate) fn fsb_hz(&self, spec: &CpuSpec) -> f64 {
        spec.stock_fsb_hz * (1.0 - self.underclock)
    }

    /// The top p-state available under this configuration.
    pub fn active_top_pstate(&self, spec: &CpuSpec) -> PState {
        match self.multiplier_cap {
            Some(cap) => spec.capped_top(cap),
            None => spec.top_pstate(),
        }
    }

    /// Peak core frequency under this configuration, Hz.
    pub fn top_freq_hz(&self, spec: &CpuSpec) -> f64 {
        self.fsb_hz(spec) * self.active_top_pstate(spec).multiplier
    }

    /// Effective core voltage at a p-state under this configuration,
    /// accounting for load-line droop: under sustained load the
    /// regulator gives back part of the configured downgrade
    /// (`utilization` in `[0, 1]` is the workload's CPU-busy fraction).
    pub fn effective_voltage(&self, pstate: PState, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        let droop_return = calib::DROOP_AT_FULL_LOAD * u;
        let effective_drop = self.voltage.downgrade_v() * (1.0 - droop_return);
        (pstate.vid - effective_drop).max(0.75)
    }

    /// Short human-readable label, e.g. `"5% UC / medium"`.
    pub fn label(&self) -> String {
        let uc = format!("{:.0}% UC", self.underclock * 100.0);
        match self.multiplier_cap {
            Some(cap) => format!("cap x{cap} / {} / {}", self.voltage.name(), uc),
            None => {
                if self.underclock == 0.0 && self.voltage == VoltageSetting::Stock {
                    "stock".to_string()
                } else {
                    format!("{uc} / {}", self.voltage.name())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8500_stock_frequency_is_3_16_ghz() {
        let spec = CpuSpec::e8500();
        let f = CpuConfig::stock().top_freq_hz(&spec);
        assert!((f - 3.1635e9).abs() < 1e7, "stock freq {f}");
    }

    #[test]
    fn underclocking_scales_all_pstates() {
        let spec = CpuSpec::e8500();
        let cfg = CpuConfig::underclocked(0.05, VoltageSetting::Medium);
        assert!((cfg.fsb_hz(&spec) - 0.95 * calib::STOCK_FSB_HZ).abs() < 1.0);
        // All multipliers remain available.
        assert_eq!(cfg.active_top_pstate(&spec).multiplier, 9.5);
        let stock = CpuConfig::stock().top_freq_hz(&spec);
        assert!((cfg.top_freq_hz(&spec) - 0.95 * stock).abs() < 1e6);
    }

    #[test]
    fn capping_truncates_multipliers_but_keeps_fsb() {
        // Paper §3's example: capping at 7 on a 333 MHz FSB gives 2.33 GHz.
        let spec = CpuSpec::e8500();
        let cfg = CpuConfig::capped(7.0, VoltageSetting::Stock);
        assert_eq!(cfg.active_top_pstate(&spec).multiplier, 7.0);
        let f = cfg.top_freq_hz(&spec);
        assert!(
            (f - 7.0 * calib::STOCK_FSB_HZ).abs() < 1.0,
            "capped freq {f}"
        );
    }

    #[test]
    fn capped_top_falls_back_to_bottom() {
        let spec = CpuSpec::e8500();
        assert_eq!(spec.capped_top(1.0).multiplier, 6.0);
    }

    #[test]
    fn medium_downgrade_lowers_voltage_more_than_small() {
        let spec = CpuSpec::e8500();
        let p = spec.top_pstate();
        let stock = CpuConfig::stock().effective_voltage(p, 0.5);
        let small = CpuConfig::underclocked(0.05, VoltageSetting::Small).effective_voltage(p, 0.5);
        let medium =
            CpuConfig::underclocked(0.05, VoltageSetting::Medium).effective_voltage(p, 0.5);
        assert!(stock > small && small > medium);
    }

    #[test]
    fn droop_reduces_downgrade_under_load() {
        // The CPU-bound workload sees a smaller effective downgrade
        // (mechanism behind MySQL's smaller savings, Fig 3 vs Fig 2).
        let spec = CpuSpec::e8500();
        let p = spec.top_pstate();
        let cfg = CpuConfig::underclocked(0.05, VoltageSetting::Medium);
        let light = cfg.effective_voltage(p, 0.3);
        let heavy = cfg.effective_voltage(p, 1.0);
        assert!(heavy > light, "droop must raise voltage under load");
    }

    #[test]
    fn vid_interpolates_monotonically() {
        let spec = CpuSpec::e8500();
        for w in spec.pstates.windows(2) {
            assert!(w[0].vid < w[1].vid);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_underclock() {
        let _ = CpuConfig::underclocked(1.5, VoltageSetting::Stock);
    }
}
