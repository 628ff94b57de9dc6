//! CPU package power model and the Table-1 system power breakdown.
//!
//! The CPU model follows the paper's own §3.4 law — dynamic power
//! `C·V²·F` — extended with the two voltage-scaled, time-proportional
//! terms (leakage and uncore) that a `C·V²·F`-only model lacks. Those
//! terms are what make *deep* underclocking counterproductive: dynamic
//! energy per instruction is frequency-independent, but leakage joules
//! accrue over the (longer) runtime.

use crate::calib;
use crate::cpu::{CpuConfig, CpuSpec, PState};
use crate::psu::PsuSpec;

/// CPU package power model.
#[derive(Debug, Clone, Default)]
pub struct CpuPowerModel {
    /// Processor this model prices.
    pub spec: CpuSpec,
}

impl CpuPowerModel {
    /// Model for a given processor.
    pub fn new(spec: CpuSpec) -> Self {
        Self { spec }
    }

    /// Dynamic power of one core at voltage `v`, frequency `f_hz` and
    /// switching activity `activity`, watts.
    pub(crate) fn core_dynamic_w(&self, v: f64, f_hz: f64, activity: f64) -> f64 {
        self.spec.ceff_per_core * v * v * f_hz * activity.clamp(0.0, 1.0)
    }

    /// Package leakage at voltage `v`, watts (frequency-independent).
    pub(crate) fn leakage_w(&self, v: f64) -> f64 {
        self.spec.k_leak * v * v
    }

    /// Uncore/bus-interface power at voltage `v` and FSB `fsb_hz`, watts.
    pub(crate) fn uncore_w(&self, v: f64, fsb_hz: f64) -> f64 {
        self.spec.k_uncore * v * v * (fsb_hz / calib::STOCK_FSB_HZ)
    }

    /// Package power with one core executing at `activity` and the
    /// remaining cores halted, at p-state `p` under `cfg`, with the
    /// workload's CPU utilization (for voltage droop), watts.
    pub fn package_busy_w(
        &self,
        cfg: &CpuConfig,
        p: PState,
        utilization: f64,
        activity: f64,
    ) -> f64 {
        let v = cfg.effective_voltage(p, utilization);
        let f = cfg.fsb_hz(&self.spec) * p.multiplier;
        let busy_core = self.core_dynamic_w(v, f, activity);
        let halted = (self.spec.cores - 1) as f64 * self.core_dynamic_w(v, f, calib::HALT_ACTIVITY);
        busy_core + halted + self.leakage_w(v) + self.uncore_w(v, cfg.fsb_hz(&self.spec))
    }

    /// Package power with *all* cores halted at p-state `p`, watts.
    pub fn package_halt_w(&self, cfg: &CpuConfig, p: PState, utilization: f64) -> f64 {
        let v = cfg.effective_voltage(p, utilization);
        let f = cfg.fsb_hz(&self.spec) * p.multiplier;
        let halted = self.spec.cores as f64 * self.core_dynamic_w(v, f, calib::HALT_ACTIVITY);
        halted + self.leakage_w(v) + self.uncore_w(v, cfg.fsb_hz(&self.spec))
    }

    /// Package power sitting at the BIOS: halted at the top p-state,
    /// stock configuration, no load (the state of Table 1's +CPU row).
    pub(crate) fn bios_idle_w(&self) -> f64 {
        let cfg = CpuConfig::stock();
        self.package_halt_w(&cfg, self.spec.top_pstate(), 0.0)
    }
}

/// A component included in a Table-1-style incremental build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// Motherboard (powered).
    Mobo,
    /// CPU with stock fan, idling at the BIOS.
    Cpu,
    /// One 1 GB DDR3 DIMM.
    Dimm,
    /// Discrete GPU.
    Gpu,
}

/// One row of the system power breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownRow {
    /// Row label (mirrors the paper's Table 1).
    pub label: String,
    /// Whether the system is powered on.
    pub sys_on: bool,
    /// Measured wall power, watts.
    pub wall_w: f64,
}

/// Reproduce the paper's Table 1: wall power as the machine is built up
/// component by component (no disk, no OS — exactly the paper's §3.2
/// methodology).
pub fn table1_breakdown(cpu: &CpuPowerModel, psu: &PsuSpec) -> Vec<BreakdownRow> {
    let stages: [(&str, &[Component]); 6] = [
        ("PSU + MOBO (sys off)", &[]),
        ("PSU + MOBO", &[Component::Mobo]),
        ("+ CPU", &[Component::Mobo, Component::Cpu]),
        (
            "+ 1G RAM",
            &[Component::Mobo, Component::Cpu, Component::Dimm],
        ),
        (
            "+ 2G RAM",
            &[
                Component::Mobo,
                Component::Cpu,
                Component::Dimm,
                Component::Dimm,
            ],
        ),
        (
            "+ GPU (full system)",
            &[
                Component::Mobo,
                Component::Cpu,
                Component::Dimm,
                Component::Dimm,
                Component::Gpu,
            ],
        ),
    ];

    stages
        .iter()
        .enumerate()
        .map(|(i, (label, comps))| {
            let sys_on = i > 0;
            let wall_w = if !sys_on {
                psu.standby_power_w()
            } else {
                let dc: f64 = comps.iter().map(|c| component_dc_w(*c, cpu)).sum();
                psu.wall_power_w(dc)
            };
            BreakdownRow {
                label: label.to_string(),
                sys_on,
                wall_w,
            }
        })
        .collect()
}

/// DC draw of one component in the BIOS-idle build-up state, watts.
pub(crate) fn component_dc_w(c: Component, cpu: &CpuPowerModel) -> f64 {
    match c {
        Component::Mobo => calib::MOBO_DC_W,
        Component::Cpu => cpu.bios_idle_w(),
        Component::Dimm => calib::DIMM_IDLE_W + calib::MEM_CTRL_ACTIVE_W / calib::N_DIMMS as f64,
        Component::Gpu => calib::GPU_DC_W,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::VoltageSetting;

    fn model() -> CpuPowerModel {
        CpuPowerModel::new(CpuSpec::e8500())
    }

    #[test]
    fn dynamic_power_follows_cv2f() {
        let m = model();
        let p1 = m.core_dynamic_w(1.0, 1.0e9, 1.0);
        assert!((m.core_dynamic_w(2.0, 1.0e9, 1.0) / p1 - 4.0).abs() < 1e-9);
        assert!((m.core_dynamic_w(1.0, 2.0e9, 1.0) / p1 - 2.0).abs() < 1e-9);
        assert!((m.core_dynamic_w(1.0, 1.0e9, 0.5) / p1 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn busy_exceeds_halt_exceeds_bottom_halt() {
        let m = model();
        let cfg = CpuConfig::stock();
        let top = m.spec.top_pstate();
        let bottom = m.spec.bottom_pstate();
        let busy = m.package_busy_w(&cfg, top, 1.0, 1.0);
        let halt_top = m.package_halt_w(&cfg, top, 0.0);
        let halt_bottom = m.package_halt_w(&cfg, bottom, 0.0);
        assert!(busy > halt_top, "busy {busy} vs halt {halt_top}");
        assert!(halt_top > halt_bottom);
    }

    #[test]
    fn voltage_downgrade_reduces_package_power() {
        let m = model();
        let top = m.spec.top_pstate();
        let stock = m.package_busy_w(&CpuConfig::stock(), top, 0.5, 0.9);
        let medium = m.package_busy_w(
            &CpuConfig::underclocked(0.05, VoltageSetting::Medium),
            top,
            0.5,
            0.9,
        );
        assert!(medium < stock * 0.75, "medium {medium} vs stock {stock}");
    }

    #[test]
    fn table1_shape_matches_paper() {
        // Paper Table 1: 9.2 / 20.1 / 49.7 / 54.0 / 55.7 / 69.3 W.
        let rows = table1_breakdown(&model(), &PsuSpec::default());
        assert_eq!(rows.len(), 6);
        let targets = [9.2, 20.1, 49.7, 54.0, 55.7, 69.3];
        for (row, target) in rows.iter().zip(targets) {
            let rel = (row.wall_w - target).abs() / target;
            assert!(
                rel < 0.15,
                "{}: modeled {:.1} W vs paper {:.1} W",
                row.label,
                row.wall_w,
                target
            );
        }
        // Strictly increasing build-up.
        for w in rows.windows(2) {
            assert!(w[1].wall_w > w[0].wall_w);
        }
        // CPU more than doubles the powered-on draw (paper §3.2).
        assert!(rows[2].wall_w > 2.0 * rows[1].wall_w);
    }

    #[test]
    fn bios_idle_cpu_in_plausible_range() {
        let w = model().bios_idle_w();
        assert!(w > 12.0 && w < 30.0, "BIOS-idle CPU {w} W");
    }
}
