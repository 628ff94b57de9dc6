//! Open-system multicore model: served traffic priced end-to-end.
//!
//! [`MultiCoreMachine::measure`] is a *closed-system* model: all work is
//! present at time zero, the measurement ends when the slowest core
//! crosses the barrier. A server is an **open system**: queries arrive
//! over time on an [`ArrivalSchedule`], the machine alternates between
//! *bursts* (a dispatched batch runs on the cores) and *idle gaps*
//! (the queue is empty or still accumulating toward a batch threshold),
//! and the idle gaps are not free — each core halts through its
//! governor's p-state step-down, the DRAM and disk floors keep drawing,
//! and the PSU sits at the inefficient bottom of its load curve.
//!
//! [`OpenSystemRun`] is the accumulator the eco-server scheduler drives:
//! call [`burst`](OpenSystemRun::burst) for each dispatched batch (one
//! trace per core, priced exactly like a closed-system
//! [`MultiCoreMachine::measure_uniform`] call) and
//! [`idle`](OpenSystemRun::idle) for each gap between bursts, then
//! [`finish`](OpenSystemRun::finish) for the end-to-end
//! [`OpenSystemMeasurement`]. Because bursts are priced by the *same*
//! closed-system code path, the busy-window energy of an open-system run
//! is bit-identical to measuring the same traces back to back — the
//! open model only *adds* the idle-tail residency between bursts.
//!
//! Arrival schedules are fully deterministic: `uniform` spaces arrivals
//! evenly; `poisson` draws exponential inter-arrival gaps from a seeded
//! splitmix64 generator, so the same seed always yields the same trace
//! of arrivals (a requirement for the ledger-identity invariant that
//! guards every reproduced figure).

use crate::calib;
use crate::machine::MachineConfig;
use crate::multicore::{MultiCoreMachine, MultiCoreMeasurement};
use crate::trace::WorkTrace;

/// Deterministic arrival times (seconds from run start) for an open
/// system, sorted nondecreasing.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalSchedule {
    times: Vec<f64>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform deviate in `(0, 1]` — never zero, so `ln` is finite.
fn unit_open(state: &mut u64) -> f64 {
    ((splitmix64(state) >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

impl ArrivalSchedule {
    /// `n` arrivals evenly spaced at `rate_qps` queries per second; the
    /// first arrival is at time zero.
    pub fn uniform(n: usize, rate_qps: f64) -> Self {
        assert!(rate_qps > 0.0, "arrival rate must be positive");
        let gap = 1.0 / rate_qps;
        Self {
            times: (0..n).map(|i| i as f64 * gap).collect(),
        }
    }

    /// `n` arrivals with exponential inter-arrival gaps of mean
    /// `1/rate_qps` (a Poisson process), drawn deterministically from
    /// `seed`. The first arrival is at time zero so runs start promptly.
    pub fn poisson(n: usize, rate_qps: f64, seed: u64) -> Self {
        assert!(rate_qps > 0.0, "arrival rate must be positive");
        let mut state = seed;
        let mut t = 0.0;
        let times = (0..n)
            .map(|i| {
                if i > 0 {
                    t += -unit_open(&mut state).ln() / rate_qps;
                }
                t
            })
            .collect();
        Self { times }
    }

    /// Arrival instants, seconds, sorted nondecreasing.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when the schedule has no arrivals.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }
}

/// The priced energy of one idle gap between bursts: every core halted
/// through its governor's p-state step-down, the shared DRAM and disk
/// floors, and the PSU at the bottom of its load curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdleMeasurement {
    /// Gap length, seconds.
    pub seconds: f64,
    /// Summed halt energy of all cores, joules.
    pub cpu_joules: f64,
    /// Shared-DRAM idle-floor energy, joules.
    pub dram_joules: f64,
    /// Shared-disk idle-floor energy, joules.
    pub disk_joules: f64,
    /// Wall energy through the PSU, joules.
    pub wall_joules: f64,
}

impl MultiCoreMachine {
    /// Price an idle gap of `seconds` with every core halted under
    /// `config` — the open-system analogue of the idle-tail pricing in
    /// [`MultiCoreMachine::measure`], applied machine-wide: each core's
    /// governor splits the gap across halt p-states, the shared DRAM
    /// and disk floors are charged once, and the summed DC idle draw
    /// goes through the PSU efficiency curve.
    pub(crate) fn price_idle(&self, seconds: f64, config: &MachineConfig) -> IdleMeasurement {
        assert!(seconds >= 0.0, "idle gap must be nonnegative");
        let m = &self.machine;
        if seconds == 0.0 {
            return IdleMeasurement {
                seconds: 0.0,
                cpu_joules: 0.0,
                dram_joules: 0.0,
                disk_joules: 0.0,
                wall_joules: 0.0,
            };
        }

        let cpu_model = m.cpu_power();
        let top_p = config.cpu.active_top_pstate(&m.cpu_spec);
        let bottom_p = m.cpu_spec.bottom_pstate();
        let res = config.governor.idle_residency(seconds);
        let per_core = res.top_s * cpu_model.package_halt_w(&config.cpu, top_p, 0.0)
            + res.bottom_s * cpu_model.package_halt_w(&config.cpu, bottom_p, 0.0);
        let cpu_joules = per_core * self.cores as f64;

        let dram_joules = m.mem.power_w(0.0, config.cpu.underclock) * seconds;
        let disk_joules = m.disk.idle_power_w() * seconds;

        let dc_avg =
            (cpu_joules + dram_joules + disk_joules) / seconds + calib::MOBO_DC_W + calib::GPU_DC_W;
        let wall_joules = m.psu.wall_power_w(dc_avg) * seconds;

        IdleMeasurement {
            seconds,
            cpu_joules,
            dram_joules,
            disk_joules,
            wall_joules,
        }
    }
}

/// End-to-end measurement of an open-system serving run: the busy
/// window (sum of burst makespans, priced by the closed-system model)
/// plus every idle gap between bursts.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenSystemMeasurement {
    /// Number of dispatched bursts.
    pub bursts: usize,
    /// Summed burst makespans, seconds.
    pub busy_window_s: f64,
    /// Summed idle-gap time, seconds.
    pub idle_s: f64,
    /// Total served time: `busy_window_s + idle_s`, seconds.
    pub makespan_s: f64,
    /// Total CPU package energy (busy + halt), joules.
    pub cpu_joules: f64,
    /// Total shared-DRAM energy, joules.
    pub dram_joules: f64,
    /// Total shared-disk energy, joules.
    pub disk_joules: f64,
    /// Total wall energy through the PSU, joules.
    pub wall_joules: f64,
}

impl OpenSystemMeasurement {
    /// Average wall power over the whole run, watts.
    pub fn avg_wall_w(&self) -> f64 {
        if self.makespan_s > 0.0 {
            self.wall_joules / self.makespan_s
        } else {
            0.0
        }
    }
}

/// Accumulator for one open-system serving run. The scheduler drives it
/// burst by burst; pricing is incremental so the scheduler can advance
/// its virtual clock by each burst's makespan as it goes.
#[derive(Debug, Clone)]
pub struct OpenSystemRun<'a> {
    machine: &'a MultiCoreMachine,
    config: MachineConfig,
    bursts: usize,
    busy_window_s: f64,
    idle_s: f64,
    cpu_joules: f64,
    dram_joules: f64,
    disk_joules: f64,
    wall_joules: f64,
}

impl<'a> OpenSystemRun<'a> {
    /// Start a run on `machine` with one uniform `config` for all cores.
    pub fn new(machine: &'a MultiCoreMachine, config: MachineConfig) -> Self {
        Self {
            machine,
            config,
            bursts: 0,
            busy_window_s: 0.0,
            idle_s: 0.0,
            cpu_joules: 0.0,
            dram_joules: 0.0,
            disk_joules: 0.0,
            wall_joules: 0.0,
        }
    }

    /// Price one dispatched burst (one trace per core, exactly as
    /// [`MultiCoreMachine::measure_uniform`]) and fold it into the run.
    /// Returns the burst measurement so the caller can advance its
    /// virtual clock by `elapsed_s` and compute per-query response
    /// times.
    pub fn burst(&mut self, core_traces: &[WorkTrace]) -> MultiCoreMeasurement {
        let m = self.machine.measure_uniform(core_traces, &self.config);
        self.bursts += 1;
        self.busy_window_s += m.elapsed_s;
        self.cpu_joules += m.cpu_joules;
        self.dram_joules += m.dram_joules;
        self.disk_joules += m.disk_joules;
        self.wall_joules += m.wall_joules;
        m
    }

    /// Price an idle gap between bursts and fold it into the run.
    pub fn idle(&mut self, seconds: f64) -> IdleMeasurement {
        let m = self.machine.price_idle(seconds, &self.config);
        self.idle_s += m.seconds;
        self.cpu_joules += m.cpu_joules;
        self.dram_joules += m.dram_joules;
        self.disk_joules += m.disk_joules;
        self.wall_joules += m.wall_joules;
        m
    }

    /// Close the run.
    pub fn finish(self) -> OpenSystemMeasurement {
        OpenSystemMeasurement {
            bursts: self.bursts,
            busy_window_s: self.busy_window_s,
            idle_s: self.idle_s,
            makespan_s: self.busy_window_s + self.idle_s,
            cpu_joules: self.cpu_joules,
            dram_joules: self.dram_joules,
            disk_joules: self.disk_joules,
            wall_joules: self.wall_joules,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{OpClass, Phase};

    fn work_trace(ops: u64) -> WorkTrace {
        let mut t = WorkTrace::new();
        let mut p = Phase::execute("w");
        p.ledger.cpu.add(OpClass::PredEval, ops);
        p.ledger.cpu.add(OpClass::TupleFetch, ops);
        p.ledger.mem_stream_bytes = 8 << 20;
        t.push(p);
        t
    }

    #[test]
    fn single_burst_matches_closed_system() {
        let mc = MultiCoreMachine::paper_sut(4);
        let cfg = MachineConfig::stock();
        let traces: Vec<WorkTrace> = (0..4).map(|_| work_trace(1_000_000)).collect();

        let closed = mc.measure_uniform(&traces, &cfg);
        let mut run = OpenSystemRun::new(&mc, cfg);
        let burst = run.burst(&traces);
        let open = run.finish();

        assert_eq!(burst.elapsed_s, closed.elapsed_s);
        assert_eq!(open.cpu_joules, closed.cpu_joules);
        assert_eq!(open.dram_joules, closed.dram_joules);
        assert_eq!(open.disk_joules, closed.disk_joules);
        assert_eq!(open.wall_joules, closed.wall_joules);
        assert_eq!(open.idle_s, 0.0);
        assert_eq!(open.makespan_s, closed.elapsed_s);
    }

    #[test]
    fn idle_gaps_add_floor_energy_below_busy_power() {
        let mc = MultiCoreMachine::paper_sut(2);
        let cfg = MachineConfig::stock();
        let traces: Vec<WorkTrace> = (0..2).map(|_| work_trace(2_000_000)).collect();

        let mut busy_only = OpenSystemRun::new(&mc, cfg);
        busy_only.burst(&traces);
        busy_only.burst(&traces);
        let busy = busy_only.finish();

        let mut with_gap = OpenSystemRun::new(&mc, cfg);
        with_gap.burst(&traces);
        let idle = with_gap.idle(5.0);
        with_gap.burst(&traces);
        let gapped = with_gap.finish();

        // The gap adds exactly its own floor energy on every rail.
        assert!((gapped.wall_joules - busy.wall_joules - idle.wall_joules).abs() < 1e-9);
        assert!((gapped.makespan_s - busy.makespan_s - 5.0).abs() < 1e-12);
        assert!(idle.cpu_joules > 0.0 && idle.wall_joules > 0.0);

        // Idle wall power sits well below busy wall power.
        let idle_w = idle.wall_joules / idle.seconds;
        let busy_w = busy.wall_joules / busy.makespan_s;
        assert!(idle_w < busy_w, "idle {idle_w} W !< busy {busy_w} W");
    }

    #[test]
    fn zero_length_idle_is_free() {
        let mc = MultiCoreMachine::paper_sut(2);
        let m = mc.price_idle(0.0, &MachineConfig::stock());
        assert_eq!(m.wall_joules, 0.0);
        assert_eq!(m.cpu_joules, 0.0);
    }

    #[test]
    fn uniform_schedule_spaces_arrivals_evenly() {
        let s = ArrivalSchedule::uniform(5, 10.0);
        assert_eq!(s.len(), 5);
        assert_eq!(s.times()[0], 0.0);
        for w in s.times().windows(2) {
            assert!((w[1] - w[0] - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn poisson_schedule_is_deterministic_and_has_roughly_the_right_rate() {
        let a = ArrivalSchedule::poisson(2_000, 50.0, 42);
        let b = ArrivalSchedule::poisson(2_000, 50.0, 42);
        assert_eq!(a, b, "same seed must reproduce the same arrivals");
        let c = ArrivalSchedule::poisson(2_000, 50.0, 43);
        assert_ne!(a, c, "different seeds must differ");

        assert!(a.times().windows(2).all(|w| w[1] >= w[0]));
        // Mean inter-arrival ≈ 1/rate (law of large numbers, loose bound).
        let span = a.times()[a.len() - 1] - a.times()[0];
        let mean_gap = span / (a.len() - 1) as f64;
        assert!(
            (mean_gap - 0.02).abs() < 0.004,
            "mean gap {mean_gap} far from 1/50"
        );
    }

    #[test]
    fn empty_run_measures_zero() {
        let mc = MultiCoreMachine::paper_sut(1);
        let run = OpenSystemRun::new(&mc, MachineConfig::stock());
        let m = run.finish();
        assert_eq!(m.bursts, 0);
        assert_eq!(m.wall_joules, 0.0);
        assert_eq!(m.makespan_s, 0.0);
    }
}
