//! The machine: assembles CPU, memory, disk and PSU models and prices a
//! [`WorkTrace`] under a [`MachineConfig`].
//!
//! Separating *what the software did* (the trace) from *what the
//! hardware charged for it* (this module) is what makes a PVC sweep
//! cheap and deterministic: execute once, measure under every
//! voltage/frequency setting.

use crate::calib;
use crate::cpu::{CpuConfig, CpuSpec};
use crate::disk::DiskSpec;
use crate::dvfs::Governor;
use crate::mem::MemSpec;
use crate::meter::PowerTimeline;
use crate::power::CpuPowerModel;
use crate::psu::PsuSpec;
use crate::trace::{Phase, PhaseKind, WorkTrace};

/// Everything configurable about the machine for one run: the PVC
/// setting plus the DVFS governor.
#[derive(Debug, Clone, Copy, Default)]
pub struct MachineConfig {
    /// CPU clocking/voltage configuration (the PVC knob).
    pub cpu: CpuConfig,
    /// DVFS governor (SpeedStep stays enabled in the paper).
    pub governor: Governor,
}

impl MachineConfig {
    /// Stock machine configuration.
    pub fn stock() -> Self {
        Self::default()
    }

    /// Configuration with the given CPU setting and a demand governor.
    pub fn with_cpu(cpu: CpuConfig) -> Self {
        Self {
            cpu,
            governor: Governor::default(),
        }
    }
}

/// Per-phase measurement detail.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseMeasurement {
    /// Phase label (copied from the trace).
    pub label: String,
    /// Phase kind.
    pub kind: PhaseKind,
    /// Wall-clock seconds.
    pub elapsed_s: f64,
    /// Seconds the CPU was executing (incl. memory stalls).
    pub busy_s: f64,
    /// Seconds waiting on the disk.
    pub disk_s: f64,
    /// CPU package joules.
    pub cpu_joules: f64,
}

/// The result of pricing one trace under one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Total wall-clock time, seconds.
    pub elapsed_s: f64,
    /// CPU package energy, joules (exact integral — what the EPU sensor
    /// approximates).
    pub cpu_joules: f64,
    /// CPU energy as the paper would have measured it: 1 Hz sampled,
    /// average × runtime.
    pub cpu_joules_epu: f64,
    /// DRAM energy, joules.
    pub dram_joules: f64,
    /// Disk energy across both rails, joules (incl. idle floor).
    pub disk_joules: f64,
    /// Wall (meter) energy, joules.
    pub wall_joules: f64,
    /// CPU-busy seconds.
    pub busy_s: f64,
    /// CPU utilization: busy / elapsed.
    pub utilization: f64,
    /// Average CPU package power, watts.
    pub avg_cpu_w: f64,
    /// Average wall power, watts.
    pub avg_wall_w: f64,
    /// Effective core voltage during busy execution, volts.
    pub busy_voltage_v: f64,
    /// Peak core frequency under the configuration, Hz.
    pub top_freq_hz: f64,
    /// Per-phase detail.
    pub phases: Vec<PhaseMeasurement>,
}

impl Measurement {
    /// Energy-delay product on CPU joules (the paper's headline metric):
    /// `joules × seconds`.
    pub fn edp(&self) -> f64 {
        self.cpu_joules * self.elapsed_s
    }
}

/// Internal: frequency-dependent timing of one phase.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseTiming {
    cpu_s: f64,
    stall_s: f64,
    disk_s: f64,
    disk_joules_active: f64,
    gap_s: f64,
    backoff_s: f64,
    /// Cycle-weighted mean switching activity of the phase's CPU work.
    activity: f64,
}

impl PhaseTiming {
    fn busy_s(&self) -> f64 {
        self.cpu_s + self.stall_s
    }
    fn elapsed_s(&self) -> f64 {
        self.busy_s() + self.disk_s + self.gap_s + self.backoff_s
    }
}

/// The simulated system under test.
#[derive(Debug, Clone, Default)]
pub struct Machine {
    /// Processor specification.
    pub cpu_spec: CpuSpec,
    /// Memory specification.
    pub mem: MemSpec,
    /// Disk specification.
    pub disk: DiskSpec,
    /// Power supply specification.
    pub psu: PsuSpec,
}

impl Machine {
    /// The paper's system under test (§3.1).
    pub fn paper_sut() -> Self {
        Self::default()
    }

    /// CPU power model for this machine.
    pub(crate) fn cpu_power(&self) -> CpuPowerModel {
        CpuPowerModel::new(self.cpu_spec.clone())
    }

    /// Price a trace under a configuration.
    pub fn measure(&self, trace: &WorkTrace, config: &MachineConfig) -> Measurement {
        let u = config.cpu.underclock;
        let cpu_model = self.cpu_power();
        let top_freq = config.cpu.top_freq_hz(&self.cpu_spec);

        // Pass 1: timing (voltage-independent).
        let timings: Vec<PhaseTiming> = trace
            .phases()
            .iter()
            .map(|p| self.phase_timing(p, config, top_freq))
            .collect();

        let busy_s: f64 = timings.iter().map(|t| t.busy_s()).sum();
        let elapsed_s: f64 = timings.iter().map(|t| t.elapsed_s()).sum();
        let per_s = |x: f64| if elapsed_s > 0.0 { x / elapsed_s } else { 0.0 };
        let utilization = per_s(busy_s).clamp(0.0, 1.0);

        // Pass 2: power, with droop-adjusted voltage from utilization.
        let top_p = config.cpu.active_top_pstate(&self.cpu_spec);
        let bottom_p = self.cpu_spec.bottom_pstate();
        let busy_voltage = config.cpu.effective_voltage(top_p, utilization);

        let mut cpu_tl = PowerTimeline::new();
        let mut dram_joules = 0.0;
        let mut disk_active_joules = 0.0;
        let mut phases_out = Vec::with_capacity(trace.len());

        for (phase, t) in trace.phases().iter().zip(&timings) {
            let mut phase_cpu_j = 0.0;

            // Busy interval.
            if t.busy_s() > 0.0 {
                let act = (t.cpu_s * t.activity + t.stall_s * calib::STALL_ACTIVITY) / t.busy_s();
                let w = cpu_model.package_busy_w(&config.cpu, top_p, utilization, act);
                cpu_tl.push(t.busy_s(), w);
                phase_cpu_j += w * t.busy_s();
                // DRAM active in proportion to the stall share.
                let bw_util = (t.stall_s / t.busy_s()).clamp(0.0, 1.0);
                dram_joules += self.mem.power_w(bw_util, u) * t.busy_s();
            }

            // Idle intervals: disk waits, client gaps, and retry
            // backoff (the v2 "backoff halt residency" charge class —
            // the CPU halts through it like a gap), split across
            // p-states by the governor.
            let idle_s = t.disk_s + t.gap_s + t.backoff_s;
            if idle_s > 0.0 {
                let res = config.governor.idle_residency(idle_s);
                let w_top = cpu_model.package_halt_w(&config.cpu, top_p, utilization);
                let w_bot = cpu_model.package_halt_w(&config.cpu, bottom_p, utilization);
                if res.top_s > 0.0 {
                    cpu_tl.push(res.top_s, w_top);
                    phase_cpu_j += w_top * res.top_s;
                }
                if res.bottom_s > 0.0 {
                    cpu_tl.push(res.bottom_s, w_bot);
                    phase_cpu_j += w_bot * res.bottom_s;
                }
                dram_joules += self.mem.power_w(0.0, u) * idle_s;
            }

            disk_active_joules += t.disk_joules_active;

            phases_out.push(PhaseMeasurement {
                label: phase.label.clone(),
                kind: phase.kind,
                elapsed_s: t.elapsed_s(),
                busy_s: t.busy_s(),
                disk_s: t.disk_s,
                cpu_joules: phase_cpu_j,
            });
        }

        let cpu_joules = cpu_tl.exact_joules();
        let cpu_joules_epu = cpu_tl.epu_joules();

        // Disk: active costs already priced; idle floor for the rest of
        // the run (the drive spins throughout).
        let disk_busy_s: f64 = timings.iter().map(|t| t.disk_s).sum();
        let disk_joules =
            disk_active_joules + self.disk.idle_power_w() * (elapsed_s - disk_busy_s).max(0.0);

        // Wall power: DC sum of all components through the PSU,
        // averaged over the run (fine for energy; per-segment wall
        // detail is not needed by any experiment).
        let wall_joules = if elapsed_s > 0.0 {
            let dc_avg = cpu_joules / elapsed_s
                + dram_joules / elapsed_s
                + disk_joules / elapsed_s
                + calib::MOBO_DC_W
                + calib::GPU_DC_W;
            self.psu.wall_power_w(dc_avg) * elapsed_s
        } else {
            0.0
        };

        Measurement {
            elapsed_s,
            cpu_joules,
            cpu_joules_epu,
            dram_joules,
            disk_joules,
            wall_joules,
            busy_s,
            utilization,
            avg_cpu_w: per_s(cpu_joules),
            avg_wall_w: per_s(wall_joules),
            busy_voltage_v: busy_voltage,
            top_freq_hz: top_freq,
            phases: phases_out,
        }
    }

    /// Busy (CPU + memory-stall) seconds a phase would take at stock
    /// settings. Used to size frequency-*independent* intervals (client
    /// round trips, think time) proportionally to the work they follow.
    pub fn stock_busy_seconds(&self, phase: &Phase) -> f64 {
        let cfg = MachineConfig::stock();
        let t = self.phase_timing(phase, &cfg, cfg.cpu.top_freq_hz(&self.cpu_spec));
        t.busy_s()
    }

    /// Prices the phase ledger's role sums, never a ledger field.
    fn phase_timing(&self, phase: &Phase, config: &MachineConfig, top_freq: f64) -> PhaseTiming {
        let u = config.cpu.underclock;
        let s = phase.ledger.role_sums();
        let cpu_s = s.cycles / top_freq;
        let mem_raw = self.mem.stream_time_s(s.stream_bytes, u)
            + self.mem.random_time_s(s.random_accesses, u);
        let stall_s = mem_raw * (1.0 - calib::MEM_OVERLAP);
        let dcost = self.disk.cost(s.seeks, s.seq_bytes, s.burst_bytes);
        PhaseTiming {
            cpu_s,
            stall_s,
            disk_s: dcost.busy_s,
            disk_joules_active: dcost.busy_joules(),
            gap_s: s.gap_nanos as f64 * 1e-9,
            backoff_s: s.backoff_nanos as f64 * 1e-9,
            activity: s.mean_activity(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::VoltageSetting;
    use crate::trace::{
        ChargeClass, DiskWork, Ledger, OpClass, PriceRole, CHARGE_CLASSES, N_CHARGE_CLASSES,
    };

    fn cpu_heavy_trace(scale: u64) -> WorkTrace {
        let mut t = WorkTrace::new();
        let mut p = Phase::execute("cpu");
        p.ledger.cpu.add(OpClass::PredEval, 2_000_000 * scale);
        p.ledger.cpu.add(OpClass::TupleFetch, 2_000_000 * scale);
        p.ledger.mem_stream_bytes = 64 << 20;
        t.push(p);
        t
    }

    fn mixed_trace() -> WorkTrace {
        let mut t = WorkTrace::new();
        let mut p = Phase::execute("q");
        p.ledger.cpu.add(OpClass::PredEval, 3_000_000);
        p.ledger.mem_stream_bytes = 256 << 20;
        p.ledger.disk = DiskWork {
            sequential_bytes: 256 << 20,
            random_ios: 500,
            random_bytes: 500 * 8192,
            ..DiskWork::none()
        };
        t.push(p);
        t.push(Phase::client_gap(50_000_000)); // 50 ms
        t
    }

    #[test]
    fn underclocking_slows_and_downgrade_saves() {
        let m = Machine::paper_sut();
        let trace = cpu_heavy_trace(4);
        let stock = m.measure(&trace, &MachineConfig::stock());
        let pvc = m.measure(
            &trace,
            &MachineConfig::with_cpu(CpuConfig::underclocked(0.05, VoltageSetting::Medium)),
        );
        assert!(pvc.elapsed_s > stock.elapsed_s, "underclock must be slower");
        assert!(
            pvc.cpu_joules < stock.cpu_joules,
            "downgrade must save energy: {} vs {}",
            pvc.cpu_joules,
            stock.cpu_joules
        );
    }

    #[test]
    fn energy_rises_again_with_deep_underclock() {
        // Paper Fig 1: settings B and C (10/15 %) consume *more* energy
        // than setting A (5 %) at the same voltage downgrade.
        let m = Machine::paper_sut();
        let trace = cpu_heavy_trace(4);
        let e = |u: f64| {
            m.measure(
                &trace,
                &MachineConfig::with_cpu(CpuConfig::underclocked(u, VoltageSetting::Medium)),
            )
            .cpu_joules
        };
        let (e5, e10, e15) = (e(0.05), e(0.10), e(0.15));
        assert!(e10 > e5, "10% ({e10}) must exceed 5% ({e5})");
        assert!(e15 > e10, "15% ({e15}) must exceed 10% ({e10})");
    }

    #[test]
    fn edp_optimum_at_shallow_underclock() {
        let m = Machine::paper_sut();
        let trace = cpu_heavy_trace(4);
        let edp = |u: f64| {
            m.measure(
                &trace,
                &MachineConfig::with_cpu(CpuConfig::underclocked(u, VoltageSetting::Medium)),
            )
            .edp()
        };
        let stock = m.measure(&trace, &MachineConfig::stock()).edp();
        assert!(edp(0.05) < stock, "5% must beat stock EDP");
        assert!(edp(0.05) < edp(0.10));
        assert!(edp(0.10) < edp(0.15));
    }

    #[test]
    fn utilization_and_components_sane() {
        let m = Machine::paper_sut();
        let meas = m.measure(&mixed_trace(), &MachineConfig::stock());
        assert!(meas.utilization > 0.0 && meas.utilization < 1.0);
        assert!(meas.cpu_joules > 0.0);
        assert!(meas.dram_joules > 0.0);
        assert!(meas.disk_joules > 0.0);
        assert!(meas.wall_joules > meas.cpu_joules + meas.dram_joules + meas.disk_joules);
        assert_eq!(meas.phases.len(), 2);
        let phase_sum: f64 = meas.phases.iter().map(|p| p.elapsed_s).sum();
        assert!((phase_sum - meas.elapsed_s).abs() < 1e-9);
        let phase_cpu: f64 = meas.phases.iter().map(|p| p.cpu_joules).sum();
        assert!((phase_cpu - meas.cpu_joules).abs() / meas.cpu_joules < 1e-9);
    }

    #[test]
    fn epu_estimate_tracks_exact_for_long_runs() {
        let m = Machine::paper_sut();
        let trace = cpu_heavy_trace(64);
        let meas = m.measure(&trace, &MachineConfig::stock());
        assert!(meas.elapsed_s > 2.0, "need a multi-second run");
        let rel = (meas.cpu_joules_epu - meas.cpu_joules).abs() / meas.cpu_joules;
        assert!(rel < 0.05, "EPU estimate off by {rel}");
    }

    #[test]
    fn empty_trace_measures_zero() {
        let m = Machine::paper_sut();
        let meas = m.measure(&WorkTrace::new(), &MachineConfig::stock());
        assert_eq!(meas.elapsed_s, 0.0);
        assert_eq!(meas.cpu_joules, 0.0);
        assert_eq!(meas.wall_joules, 0.0);
    }

    #[test]
    fn trace_scaling_scales_energy_linearly() {
        let m = Machine::paper_sut();
        let m1 = m.measure(&cpu_heavy_trace(1), &MachineConfig::stock());
        let m4 = m.measure(&cpu_heavy_trace(4), &MachineConfig::stock());
        // 4× ops and ~same activity: close to 4× time and energy
        // (mem bytes fixed, so not exactly — allow 20 %).
        assert!((m4.elapsed_s / m1.elapsed_s - 4.0).abs() < 0.9);
        assert!((m4.cpu_joules / m1.cpu_joules - 4.0).abs() < 0.9);
    }

    #[test]
    fn pstate_cap_is_coarser_than_underclock() {
        // Paper §3: capping to 7 drops frequency by ~26 %; underclocking
        // 5 % drops it 5 % — finer granularity, all states retained.
        let m = Machine::paper_sut();
        let spec = &m.cpu_spec;
        let cap = CpuConfig::capped(7.0, VoltageSetting::Stock);
        let uc = CpuConfig::underclocked(0.05, VoltageSetting::Stock);
        assert!(cap.top_freq_hz(spec) < uc.top_freq_hz(spec));
    }

    #[test]
    fn backoff_prices_exactly_like_a_client_gap() {
        // Backoff halt residency (ledger schema v2) is gap-like idle:
        // same governor residency split, same halt watts.
        let m = Machine::paper_sut();
        let cfg = MachineConfig::stock();
        let mut gap_trace = WorkTrace::new();
        gap_trace.push(Phase::client_gap(30_000_000));
        let mut backoff_trace = WorkTrace::new();
        let mut p = Phase::execute("retrying");
        p.ledger.backoff_ns = 30_000_000;
        backoff_trace.push(p);
        let g = m.measure(&gap_trace, &cfg);
        let b = m.measure(&backoff_trace, &cfg);
        assert_eq!(g.elapsed_s, b.elapsed_s);
        assert_eq!(g.cpu_joules, b.cpu_joules);
    }

    /// The pricing property of `CHARGE_CLASSES`: one unit of a class
    /// moves the measurement, at stock and under PVC, iff its role is
    /// not `Counted`, and `log_ios` is the one `Counted` class (an
    /// fsync never seeks); moving counts between two classes of one
    /// role (other than `Cycles`, which reads each op's own
    /// calibration) never changes the price.
    #[test]
    fn every_class_prices_by_its_role() {
        let m = Machine::paper_sut();
        let pvc = MachineConfig::with_cpu(CpuConfig::underclocked(0.05, VoltageSetting::Medium));
        let price = |counts: [u64; N_CHARGE_CLASSES]| {
            let mut trace = WorkTrace::new();
            let mut p = Phase::execute("q");
            p.ledger = Ledger::from_counts(counts);
            trace.push(p);
            [MachineConfig::stock(), pvc].map(|cfg| m.measure(&trace, &cfg))
        };
        let nothing = price([0; N_CHARGE_CLASSES]);
        // Every class in play, so every role sum is too.
        let base: [u64; N_CHARGE_CLASSES] = std::array::from_fn(|i| 1_000 + 37 * i as u64);
        let at_base = price(base);
        for (i, r) in CHARGE_CLASSES.iter().enumerate() {
            let mut one = [0; N_CHARGE_CLASSES];
            one[i] = 1;
            let counted = r.price == PriceRole::Counted;
            assert_eq!(counted, r.class == ChargeClass::LogIos, "{}", r.name);
            assert_eq!(price(one) == nothing, counted, "{}", r.name);
            let same_role = CHARGE_CLASSES
                .iter()
                .enumerate()
                .filter(|(j, q)| *j != i && q.price == r.price && r.price != PriceRole::Cycles);
            for (j, q) in same_role {
                for n in [1, 40, 900] {
                    let mut shifted = base;
                    shifted[i] -= n;
                    shifted[j] += n;
                    assert_eq!(price(shifted), at_base, "{} -> {}: {n}", r.name, q.name);
                }
            }
        }
    }

    #[test]
    fn disk_wait_lowers_avg_cpu_power() {
        let m = Machine::paper_sut();
        let cfg = MachineConfig::stock();
        let busy = m.measure(&cpu_heavy_trace(4), &cfg);
        let mixed = m.measure(&mixed_trace(), &cfg);
        assert!(mixed.avg_cpu_w < busy.avg_cpu_w);
    }
}
