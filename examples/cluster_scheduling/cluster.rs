//! Cluster-level ("global") energy techniques — the other half of the
//! paper's taxonomy (§1: global techniques "change some aspect of how
//! the entire system is managed"; §2: "scheduling and using techniques
//! to turn entire servers off when not required").
//!
//! A deterministic discrete-event simulation of a small DB cluster:
//! queries arrive on a fixed schedule, a placement policy routes each
//! to a server, idle servers may be put to sleep and woken on demand
//! (paying a wake latency). Energy integrates per-server busy/idle/
//! sleep residencies using power levels taken from the machine model.
//!
//! It touches no engine, ledger or reproduced figure: it lives with
//! this example, and `tests/integration_extensions.rs` includes the
//! same file to run its tests. Each of the two reads part of it.
#![allow(dead_code)]

use ecodb::simhw::machine::{Machine, MachineConfig};
use ecodb::simhw::power::CpuPowerModel;

/// Per-server power levels, watts (derived from the machine model via
/// [`ServerPower::from_machine`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerPower {
    /// Executing a query.
    pub busy_w: f64,
    /// Powered on, idle.
    pub idle_w: f64,
    /// Asleep (suspend-to-RAM class).
    pub sleep_w: f64,
}

impl ServerPower {
    /// Derive busy/idle levels from the simulated machine (wall power
    /// for one server box) and a sleep level.
    pub fn from_machine(machine: &Machine, config: &MachineConfig) -> Self {
        let cpu = CpuPowerModel::new(machine.cpu_spec.clone());
        let top = machine.cpu_spec.top_pstate();
        let bottom = machine.cpu_spec.bottom_pstate();
        let busy_cpu = cpu.package_busy_w(&config.cpu, top, 1.0, 0.85);
        let idle_cpu = cpu.package_halt_w(&config.cpu, bottom, 0.0);
        let fixed = machine.mem.idle_power_w()
            + machine.disk.idle_power_w()
            + ecodb::simhw::calib::MOBO_DC_W
            + ecodb::simhw::calib::GPU_DC_W;
        Self {
            busy_w: machine.psu.wall_power_w(busy_cpu + fixed + 3.0),
            idle_w: machine.psu.wall_power_w(idle_cpu + fixed),
            sleep_w: machine.psu.standby_power_w() + 2.0,
        }
    }
}

/// Placement / power-management policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Spread load round-robin; every server stays powered on.
    AllOnRoundRobin,
    /// Pack load onto the fewest servers (first server whose queue is
    /// shortest among the awake ones, preferring lower indexes); sleep
    /// a server once it has been idle for `idle_timeout_s`, wake on
    /// demand paying `wake_latency_s`.
    Consolidate {
        /// Idle seconds before a server sleeps.
        idle_timeout_s: f64,
        /// Seconds to wake a sleeping server.
        wake_latency_s: f64,
    },
}

/// One incoming query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Arrival time, seconds from simulation start.
    pub arrival_s: f64,
    /// Service time, seconds.
    pub service_s: f64,
}

/// Build a deterministic open arrival stream: `n` jobs at a fixed
/// inter-arrival spacing.
pub fn uniform_stream(n: usize, inter_arrival_s: f64, service_s: f64) -> Vec<Job> {
    (0..n)
        .map(|i| Job {
            arrival_s: i as f64 * inter_arrival_s,
            service_s,
        })
        .collect()
}

/// Simulation result.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOutcome {
    /// Total wall energy across servers, joules.
    pub energy_j: f64,
    /// Mean response time (completion − arrival), seconds.
    pub avg_response_s: f64,
    /// Maximum response time, seconds.
    pub max_response_s: f64,
    /// Simulation horizon (last completion), seconds.
    pub horizon_s: f64,
    /// Per-server busy seconds.
    pub busy_s: Vec<f64>,
    /// Per-server sleep seconds.
    pub sleep_s: Vec<f64>,
}

impl ClusterOutcome {
    /// Per-query energy, joules.
    pub fn joules_per_query(&self, n_jobs: usize) -> f64 {
        self.energy_j / n_jobs.max(1) as f64
    }
}

#[derive(Debug, Clone, Copy)]
struct ServerState {
    /// Time the server finishes its current work queue.
    free_at: f64,
    /// Whether the server is asleep at `free_at` + timeout logic.
    asleep_since: Option<f64>,
    busy_s: f64,
    sleep_s: f64,
    last_active: f64,
}

/// Run the simulation.
pub fn simulate(
    n_servers: usize,
    power: ServerPower,
    policy: Policy,
    jobs: &[Job],
) -> ClusterOutcome {
    assert!(n_servers >= 1, "need at least one server");
    assert!(!jobs.is_empty(), "need at least one job");
    let mut servers = vec![
        ServerState {
            free_at: 0.0,
            asleep_since: match policy {
                // Consolidation starts with only server 0 awake.
                Policy::Consolidate { .. } => Some(0.0),
                Policy::AllOnRoundRobin => None,
            },
            busy_s: 0.0,
            sleep_s: 0.0,
            last_active: 0.0,
        };
        n_servers
    ];
    if let Policy::Consolidate { .. } = policy {
        servers[0].asleep_since = None;
    }

    let mut responses = Vec::with_capacity(jobs.len());
    let mut rr = 0usize;

    for job in jobs {
        // Apply sleep transitions up to this arrival (consolidation).
        if let Policy::Consolidate { idle_timeout_s, .. } = policy {
            for s in servers.iter_mut() {
                if s.asleep_since.is_none() {
                    let idle_start = s.free_at.max(s.last_active);
                    if job.arrival_s > idle_start + idle_timeout_s {
                        s.asleep_since = Some(idle_start + idle_timeout_s);
                    }
                }
            }
            // Never let every server sleep: keep the most recently
            // active one awake.
            if servers.iter().all(|s| s.asleep_since.is_some()) {
                let keep = servers
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| {
                        a.last_active.partial_cmp(&b.last_active).expect("no NaN")
                    })
                    .map(|(i, _)| i)
                    .expect("non-empty");
                let s = &mut servers[keep];
                if let Some(since) = s.asleep_since.take() {
                    s.sleep_s += (job.arrival_s - since).max(0.0);
                }
            }
        }

        let (idx, wake_penalty) = match policy {
            Policy::AllOnRoundRobin => {
                let i = rr % n_servers;
                rr += 1;
                (i, 0.0)
            }
            Policy::Consolidate { wake_latency_s, .. } => {
                // Prefer an awake server that is free (or soonest free);
                // wake the next sleeping one only if every awake server
                // is backlogged past the wake latency.
                let awake_best = servers
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.asleep_since.is_none())
                    .min_by(|(_, a), (_, b)| a.free_at.partial_cmp(&b.free_at).expect("no NaN"))
                    .map(|(i, s)| (i, s.free_at));
                let sleeping = servers.iter().position(|s| s.asleep_since.is_some());
                match (awake_best, sleeping) {
                    (Some((i, free_at)), Some(j)) if free_at > job.arrival_s + wake_latency_s => {
                        // Waking is faster than waiting in line.
                        let s = &mut servers[j];
                        if let Some(since) = s.asleep_since.take() {
                            s.sleep_s += (job.arrival_s - since).max(0.0);
                        }
                        let _ = i;
                        (j, wake_latency_s)
                    }
                    (Some((i, _)), _) => (i, 0.0),
                    (None, Some(j)) => {
                        let s = &mut servers[j];
                        if let Some(since) = s.asleep_since.take() {
                            s.sleep_s += (job.arrival_s - since).max(0.0);
                        }
                        (j, wake_latency_s)
                    }
                    (None, None) => unreachable!("some server is always awake"),
                }
            }
        };

        let s = &mut servers[idx];
        let start = (job.arrival_s + wake_penalty).max(s.free_at);
        let done = start + job.service_s;
        s.busy_s += job.service_s;
        s.free_at = done;
        s.last_active = done;
        responses.push(done - job.arrival_s);
    }

    let horizon = servers
        .iter()
        .map(|s| s.free_at)
        .fold(0.0_f64, f64::max)
        .max(jobs.last().expect("non-empty").arrival_s);

    // Close out sleep residencies at the horizon.
    let mut energy = 0.0;
    let mut busy_out = Vec::with_capacity(n_servers);
    let mut sleep_out = Vec::with_capacity(n_servers);
    for s in servers.iter_mut() {
        if let Some(since) = s.asleep_since.take() {
            s.sleep_s += (horizon - since).max(0.0);
        }
        let idle = (horizon - s.busy_s - s.sleep_s).max(0.0);
        energy += s.busy_s * power.busy_w + idle * power.idle_w + s.sleep_s * power.sleep_w;
        busy_out.push(s.busy_s);
        sleep_out.push(s.sleep_s);
    }

    ClusterOutcome {
        energy_j: energy,
        avg_response_s: responses.iter().sum::<f64>() / responses.len() as f64,
        max_response_s: responses.iter().copied().fold(0.0, f64::max),
        horizon_s: horizon,
        busy_s: busy_out,
        sleep_s: sleep_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn power() -> ServerPower {
        ServerPower::from_machine(&Machine::paper_sut(), &MachineConfig::stock())
    }

    #[test]
    fn power_levels_ordered() {
        let p = power();
        assert!(p.busy_w > p.idle_w, "{p:?}");
        assert!(p.idle_w > p.sleep_w, "{p:?}");
        assert!(p.sleep_w > 0.0);
    }

    #[test]
    fn consolidation_saves_energy_at_low_load() {
        // Data centers "typically operate at low loads most of the
        // time" (§2): at 10 % load, sleeping idle servers must win.
        let p = power();
        let jobs = uniform_stream(200, 1.0, 0.1); // 10 % offered load per server-second
        let all_on = simulate(4, p, Policy::AllOnRoundRobin, &jobs);
        let consolidated = simulate(
            4,
            p,
            Policy::Consolidate {
                idle_timeout_s: 2.0,
                wake_latency_s: 0.5,
            },
            &jobs,
        );
        assert!(
            consolidated.energy_j < 0.6 * all_on.energy_j,
            "consolidation: {} vs all-on {}",
            consolidated.energy_j,
            all_on.energy_j
        );
        // The energy is bought with (bounded) extra latency.
        assert!(consolidated.avg_response_s >= all_on.avg_response_s);
    }

    #[test]
    fn consolidation_uses_fewer_servers() {
        let p = power();
        let jobs = uniform_stream(100, 0.5, 0.05);
        let c = simulate(
            4,
            p,
            Policy::Consolidate {
                idle_timeout_s: 5.0,
                wake_latency_s: 0.5,
            },
            &jobs,
        );
        let active = c.busy_s.iter().filter(|&&b| b > 0.0).count();
        assert_eq!(active, 1, "light load fits one server: {:?}", c.busy_s);
        assert!(c.sleep_s.iter().skip(1).all(|&s| s > 0.0));
    }

    #[test]
    fn high_load_wakes_extra_servers() {
        let p = power();
        // Offered load ≈ 2 server-equivalents.
        let jobs = uniform_stream(400, 0.05, 0.1);
        let c = simulate(
            4,
            p,
            Policy::Consolidate {
                idle_timeout_s: 5.0,
                wake_latency_s: 0.2,
            },
            &jobs,
        );
        let active = c.busy_s.iter().filter(|&&b| b > 0.0).count();
        assert!(active >= 2, "load needs ≥2 servers: {:?}", c.busy_s);
        // Throughput is preserved: all work got done.
        let total_busy: f64 = c.busy_s.iter().sum();
        assert!((total_busy - 400.0 * 0.1).abs() < 1e-6);
    }

    #[test]
    fn round_robin_balances() {
        let p = power();
        let jobs = uniform_stream(100, 0.5, 0.1);
        let o = simulate(4, p, Policy::AllOnRoundRobin, &jobs);
        for b in &o.busy_s {
            assert!((b - 2.5).abs() < 1e-9, "{:?}", o.busy_s);
        }
        assert_eq!(o.sleep_s.iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn responses_account_for_queueing() {
        let p = power();
        // One server, overloaded: responses must grow.
        let jobs = uniform_stream(10, 0.1, 0.5);
        let o = simulate(1, p, Policy::AllOnRoundRobin, &jobs);
        assert!(o.max_response_s > 3.0, "{}", o.max_response_s);
        assert!(o.avg_response_s > o.max_response_s / 3.0);
    }

    #[test]
    fn energy_is_positive_and_scales_with_horizon() {
        let p = power();
        let short = simulate(
            2,
            p,
            Policy::AllOnRoundRobin,
            &uniform_stream(10, 0.2, 0.05),
        );
        let long = simulate(
            2,
            p,
            Policy::AllOnRoundRobin,
            &uniform_stream(100, 0.2, 0.05),
        );
        assert!(long.energy_j > short.energy_j);
        assert!(short.energy_j > 0.0);
    }
}
