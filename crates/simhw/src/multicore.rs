//! Multi-core machine: N CPU cores, each with its own DVFS governor and
//! power timeline, over shared DRAM, disk and PSU.
//!
//! The paper measures a single-socket machine; production deployments
//! run a query across many cores, each with its own SpeedStep governor.
//! This module prices *per-core* [`WorkTrace`]s — one trace per worker,
//! produced by the morsel-driven parallel executor in `eco-query` —
//! under per-core [`MachineConfig`]s:
//!
//! * **CPU**: each core is an independent [`Machine`] pricing of its own
//!   trace (own governor, own exact-integral power timeline). Cores that
//!   finish before the slowest core halt for the remaining *idle tail*,
//!   split across p-states by that core's governor — exactly how the
//!   single-core model prices disk waits and client gaps.
//! * **DRAM / disk**: shared rails. Each per-core measurement carries its
//!   own idle-floor integral, so the shared floor is re-based: charged
//!   once over the barrier makespan, plus every core's activity *above*
//!   the floor.
//! * **PSU**: the summed DC draw of all components feeds the shared
//!   efficiency curve — N busy cores push the supply up its load curve,
//!   which is why per-core energy is not simply `single-core ÷ N`.
//!
//! With one core and the core's own trace, [`MultiCoreMachine::measure`]
//! reproduces [`Machine::measure`] exactly (enforced by tests), so the
//! multi-core model is a strict generalization.
//!
//! The FSB (and therefore the underclock setting) is shared by all
//! cores on a socket, so per-core configs may differ in voltage and
//! p-state cap but must agree on `underclock`; `measure` asserts this.

use crate::calib;
use crate::machine::{Machine, MachineConfig, Measurement};
use crate::trace::WorkTrace;

/// A machine with `cores` identical CPU cores sharing memory, disk and
/// power supply.
#[derive(Debug, Clone)]
pub struct MultiCoreMachine {
    /// The per-core hardware model (CPU spec) plus the shared
    /// memory/disk/PSU specs.
    pub machine: Machine,
    /// Number of cores.
    pub cores: usize,
}

/// The result of pricing per-core traces on a [`MultiCoreMachine`].
#[derive(Debug, Clone)]
pub struct MultiCoreMeasurement {
    /// Per-core single-core measurements (each over its own trace only;
    /// the aggregate fields below re-base the shared rails).
    pub per_core: Vec<Measurement>,
    /// Barrier makespan: the slowest core's elapsed time, seconds.
    pub elapsed_s: f64,
    /// Total CPU package energy across all cores, including the halt
    /// energy of cores idling in the tail, joules.
    pub cpu_joules: f64,
    /// Shared-DRAM energy, joules (idle floor charged once).
    pub dram_joules: f64,
    /// Shared-disk energy, joules (idle floor charged once).
    pub disk_joules: f64,
    /// Wall energy through the shared PSU, joules.
    pub wall_joules: f64,
    /// Summed CPU-busy seconds across cores.
    pub busy_s: f64,
    /// Aggregate utilization: `busy_s / (cores × elapsed_s)`.
    pub utilization: f64,
    /// Average wall power, watts.
    pub avg_wall_w: f64,
}

impl MultiCoreMeasurement {
    /// Energy-delay product on CPU joules, `joules × seconds`.
    pub fn edp(&self) -> f64 {
        self.cpu_joules * self.elapsed_s
    }
}

impl MultiCoreMachine {
    /// The paper's system under test scaled out to `cores` cores.
    pub fn paper_sut(cores: usize) -> Self {
        assert!(cores >= 1, "need at least one core");
        Self {
            machine: Machine::paper_sut(),
            cores,
        }
    }

    /// Price one trace per core under one config per core. Traces and
    /// configs must both have exactly `cores` entries, and all configs
    /// must share the same (socket-wide) underclock setting.
    pub fn measure(&self, traces: &[WorkTrace], configs: &[MachineConfig]) -> MultiCoreMeasurement {
        assert_eq!(traces.len(), self.cores, "one trace per core");
        assert_eq!(configs.len(), self.cores, "one config per core");
        let u = configs[0].cpu.underclock;
        assert!(
            configs.iter().all(|c| c.cpu.underclock == u),
            "the FSB is shared: all cores must agree on the underclock"
        );

        let m = &self.machine;
        let per_core: Vec<Measurement> = traces
            .iter()
            .zip(configs)
            .map(|(t, c)| m.measure(t, c))
            .collect();
        let elapsed_s = per_core.iter().map(|mm| mm.elapsed_s).fold(0.0, f64::max);
        let busy_s: f64 = per_core.iter().map(|mm| mm.busy_s).sum();

        // CPU: per-core integrals plus the halt energy of the idle tail
        // each faster core spends waiting at the barrier.
        let cpu_model = m.cpu_power();
        let bottom_p = m.cpu_spec.bottom_pstate();
        let mut cpu_joules = 0.0;
        for (mm, cfg) in per_core.iter().zip(configs) {
            cpu_joules += mm.cpu_joules;
            let tail = elapsed_s - mm.elapsed_s;
            if tail > 0.0 {
                let top_p = cfg.cpu.active_top_pstate(&m.cpu_spec);
                let res = cfg.governor.idle_residency(tail);
                cpu_joules += res.top_s * cpu_model.package_halt_w(&cfg.cpu, top_p, mm.utilization);
                cpu_joules +=
                    res.bottom_s * cpu_model.package_halt_w(&cfg.cpu, bottom_p, mm.utilization);
            }
        }

        // DRAM: shared DIMMs. Each per-core measurement includes the
        // idle floor over its own elapsed time; charge the floor once
        // over the makespan plus every core's activity above it.
        let dram_idle_w = m.mem.power_w(0.0, u);
        let dram_joules = dram_idle_w * elapsed_s
            + per_core
                .iter()
                .map(|mm| (mm.dram_joules - dram_idle_w * mm.elapsed_s).max(0.0))
                .sum::<f64>();

        // Disk: shared spindle, same re-basing (active I/O energy is
        // additive; the idle floor spins once for the whole makespan).
        let disk_idle_w = m.disk.idle_power_w();
        let disk_joules = disk_idle_w * elapsed_s
            + per_core
                .iter()
                .map(|mm| {
                    let disk_busy: f64 = mm.phases.iter().map(|p| p.disk_s).sum();
                    (mm.disk_joules - disk_idle_w * (mm.elapsed_s - disk_busy)).max(0.0)
                        - disk_idle_w * disk_busy
                })
                .map(|active| active.max(0.0))
                .sum::<f64>();

        // PSU: summed DC draw of every component through the shared
        // efficiency curve.
        let wall_joules = if elapsed_s > 0.0 {
            let dc_avg = (cpu_joules + dram_joules + disk_joules) / elapsed_s
                + calib::MOBO_DC_W
                + calib::GPU_DC_W;
            m.psu.wall_power_w(dc_avg) * elapsed_s
        } else {
            0.0
        };

        let denom = self.cores as f64 * elapsed_s;
        MultiCoreMeasurement {
            per_core,
            elapsed_s,
            cpu_joules,
            dram_joules,
            disk_joules,
            wall_joules,
            busy_s,
            utilization: if denom > 0.0 {
                (busy_s / denom).clamp(0.0, 1.0)
            } else {
                0.0
            },
            avg_wall_w: if elapsed_s > 0.0 {
                wall_joules / elapsed_s
            } else {
                0.0
            },
        }
    }

    /// Price per-core traces with the same config on every core.
    pub fn measure_uniform(
        &self,
        traces: &[WorkTrace],
        config: &MachineConfig,
    ) -> MultiCoreMeasurement {
        self.measure(traces, &vec![*config; self.cores])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{CpuConfig, VoltageSetting};
    use crate::trace::{OpClass, Phase};

    fn work_trace(ops: u64) -> WorkTrace {
        let mut t = WorkTrace::new();
        let mut p = Phase::execute("w");
        p.ledger.cpu.add(OpClass::PredEval, ops);
        p.ledger.cpu.add(OpClass::TupleFetch, ops);
        p.ledger.mem_stream_bytes = 32 << 20;
        t.push(p);
        t
    }

    fn split_trace(ops: u64, cores: usize) -> Vec<WorkTrace> {
        (0..cores).map(|_| work_trace(ops / cores as u64)).collect()
    }

    #[test]
    fn one_core_reproduces_single_core_machine() {
        let mc = MultiCoreMachine::paper_sut(1);
        let trace = work_trace(4_000_000);
        let cfg = MachineConfig::stock();
        let single = mc.machine.measure(&trace, &cfg);
        let multi = mc.measure_uniform(std::slice::from_ref(&trace), &cfg);
        assert!((multi.elapsed_s - single.elapsed_s).abs() < 1e-12);
        assert!((multi.cpu_joules - single.cpu_joules).abs() < 1e-9);
        assert!((multi.dram_joules - single.dram_joules).abs() < 1e-9);
        assert!((multi.disk_joules - single.disk_joules).abs() < 1e-9);
        assert!((multi.wall_joules - single.wall_joules).abs() < 1e-6);
    }

    #[test]
    fn four_cores_cut_makespan_but_draw_more_wall_power() {
        let serial_m = MultiCoreMachine::paper_sut(1);
        let cfg = MachineConfig::stock();
        let serial = serial_m.machine.measure(&work_trace(8_000_000), &cfg);

        let mc = MultiCoreMachine::paper_sut(4);
        let multi = mc.measure_uniform(&split_trace(8_000_000, 4), &cfg);
        let speedup = serial.elapsed_s / multi.elapsed_s;
        assert!(
            speedup > 3.0 && speedup <= 4.0 + 1e-9,
            "near-linear simulated scaling, got {speedup}"
        );
        assert!(
            multi.avg_wall_w > serial.avg_wall_w,
            "4 busy cores draw more"
        );
        // Wall energy for the same total work should not quadruple.
        assert!(multi.wall_joules < 2.0 * serial.wall_joules);
    }

    #[test]
    fn straggler_sets_the_makespan_and_idle_cores_halt_cheaply() {
        let mc = MultiCoreMachine::paper_sut(2);
        let cfg = MachineConfig::stock();
        let traces = vec![work_trace(8_000_000), work_trace(1_000_000)];
        let multi = mc.measure_uniform(&traces, &cfg);
        assert!((multi.elapsed_s - multi.per_core[0].elapsed_s).abs() < 1e-12);
        // The idle tail adds energy at halt power — well below the
        // fast core's busy power.
        let tail_j = multi.cpu_joules - multi.per_core[0].cpu_joules - multi.per_core[1].cpu_joules;
        let tail_s = multi.elapsed_s - multi.per_core[1].elapsed_s;
        assert!(tail_j > 0.0 && tail_s > 0.0);
        let tail_w = tail_j / tail_s;
        let busy_w = multi.per_core[1].cpu_joules / multi.per_core[1].elapsed_s;
        assert!(tail_w < busy_w, "halt {tail_w} W !< busy {busy_w} W");
    }

    #[test]
    fn per_core_pstate_cap_slows_only_the_capped_core() {
        let mc = MultiCoreMachine::paper_sut(2);
        let traces = split_trace(8_000_000, 2);
        let stock = MachineConfig::stock();
        let capped = MachineConfig::with_cpu(CpuConfig::capped(7.0, VoltageSetting::Stock));
        let multi = mc.measure(&traces, &[stock, capped]);
        assert!(
            multi.per_core[1].elapsed_s > multi.per_core[0].elapsed_s,
            "capped core must be slower"
        );
        // Makespan follows the capped core.
        assert!((multi.elapsed_s - multi.per_core[1].elapsed_s).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "FSB is shared")]
    fn mismatched_underclock_rejected() {
        let mc = MultiCoreMachine::paper_sut(2);
        let traces = split_trace(1_000_000, 2);
        let a = MachineConfig::stock();
        let b = MachineConfig::with_cpu(CpuConfig::underclocked(0.05, VoltageSetting::Stock));
        let _ = mc.measure(&traces, &[a, b]);
    }

    #[test]
    fn empty_traces_measure_zero() {
        let mc = MultiCoreMachine::paper_sut(3);
        let traces = vec![WorkTrace::new(), WorkTrace::new(), WorkTrace::new()];
        let m = mc.measure_uniform(&traces, &MachineConfig::stock());
        assert_eq!(m.elapsed_s, 0.0);
        assert_eq!(m.cpu_joules, 0.0);
        assert_eq!(m.wall_joules, 0.0);
    }
}
