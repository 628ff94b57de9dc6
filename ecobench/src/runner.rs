//! Runs one workload: epochs of set-up, warm-up and timed rounds, the
//! determinism check across epochs, and the two metric tables.
//!
//! A run has several *epochs*, each on a freshly built database with
//! the generator re-seeded, so set-up time is sampled several times
//! and the simulated numbers of an epoch's first rounds must repeat
//! bit for bit in the next one. Every epoch runs its `sim_rounds`
//! first rounds whatever the clock says — the simulated metrics and
//! exact counters come from exactly those, which is what makes them a
//! function of the seed alone — and then keeps running rounds until
//! its share of `--seconds` is used up.
//!
//! Host times are *calibrated*: the speed probe (`calib.rs`) is timed
//! before set-up and between rounds, and every host time of an epoch
//! is divided by the epoch's speed factor, so a spell in which the
//! shared box runs a fifth slower does not read as a slower program.
//! Rounds whose outputs get the full checks are not timed: checking
//! leaves the caches cold for the next round.

use std::time::Instant;

use crate::calib::{Probe, REFERENCE_NS};
use crate::check::Check;
use crate::metrics::{median, percentile};
use crate::trace::{alloc_totals, Tracer};

/// Simulated cost of one op at `MachineConfig::stock()`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpSim {
    pub joules: f64,
    pub response_s: f64,
}

/// What one timed round did.
#[derive(Debug, Clone, Default)]
pub struct RoundOut {
    pub host_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    pub sims: Vec<OpSim>,
}

/// How many times a workload sets up and how many rounds always run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub epochs: usize,
    /// Untimed rounds after each set-up (they count as set-up time).
    pub warmup_rounds: usize,
    /// Rounds every epoch runs regardless of the clock.
    pub sim_rounds: usize,
}

pub trait Workload {
    fn sizes(&self) -> Sizes;
    /// Build fresh state: database, indexes, admission plan, and the
    /// generator back at the start of its sequence.
    fn setup(&mut self, t: &mut Tracer) -> Check;
    /// Run the next round of the sequence. `verify` asks for the full
    /// output checks (outside the timed region).
    fn round(&mut self, verify: bool, t: &mut Tracer) -> Result<RoundOut, String>;
    /// End of an epoch: final-state checks. `last` marks the run's
    /// final epoch, where destructive checks (crash, recover) go.
    fn finish(&mut self, _last: bool, _t: &mut Tracer) -> Check {
        Ok(())
    }
}

/// Everything one run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Calibrated set-up seconds of every epoch.
    pub setup_s: Vec<f64>,
    /// Calibrated host milliseconds of every timed round, all epochs,
    /// and the ops those rounds completed.
    pub round_ms: Vec<f64>,
    pub timed_ops: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Per-op simulated costs of the first epoch's `sim_rounds` rounds.
    pub sims: Vec<OpSim>,
    /// Median host microseconds of the speed probe over the run.
    pub probe_us: f64,
    /// Traced runs only: `(ops, calibrated host seconds)` of the
    /// untraced and the traced epoch, the traced epoch's speed factor,
    /// calibrated process CPU seconds per untraced round, and
    /// `(allocations, bytes, ops)` inside traced op spans.
    pub untraced: (u64, f64),
    pub traced: (u64, f64),
    pub traced_speed: f64,
    pub cpu_s_per_round: f64,
    pub allocs: (u64, u64, u64),
}

/// A round that was run: what it did, and whether its host time counts
/// (it does not when the round's outputs got the full checks).
struct Round {
    out: RoundOut,
    timed: bool,
}

struct Epoch {
    setup_s: f64,
    rounds: Vec<Round>,
    /// Host nanoseconds of every probe sample taken in the epoch.
    probe_ns: Vec<f64>,
    /// Process CPU seconds, and allocations and bytes requested inside
    /// traced op spans, over the timed rounds.
    cpu_s: f64,
    allocs: (u64, u64),
}

fn run_epoch(
    w: &mut dyn Workload,
    budget_s: f64,
    verify: bool,
    last: bool,
    t: &mut Tracer,
) -> Result<Epoch, String> {
    let sizes = w.sizes();
    let mut probe = Probe::new();
    let mut probe_ns = vec![probe.sample(), probe.sample()];
    let begin = Instant::now();
    let setup = t.begin_aside("setup");
    w.setup(t)?;
    t.end(setup);
    for _ in 0..sizes.warmup_rounds {
        w.round(false, t)?;
    }
    let setup_s = begin.elapsed().as_secs_f64();

    let begin = Instant::now();
    let cpu_begin = process_cpu_s();
    let alloc_begin = alloc_totals();
    let mut rounds: Vec<Round> = Vec::new();
    let mut probe_due_ns = 0;
    loop {
        // One probe sample for every `PROBE_EVERY_NS` of round time.
        probe_due_ns += rounds.last().map_or(PROBE_EVERY_NS, |r| r.out.host_ns);
        let probes = (probe_due_ns / PROBE_EVERY_NS).min(PROBES_MAX);
        probe_due_ns -= (probes * PROBE_EVERY_NS).min(probe_due_ns);
        probe_ns.extend((0..probes).map(|_| probe.sample()));
        let always = rounds.len() < sizes.sim_rounds;
        if !always {
            // Start a round only if a typical one still fits.
            let typical: Vec<f64> = rounds.iter().map(|r| r.out.host_ns as f64 / 1e9).collect();
            if begin.elapsed().as_secs_f64() + median(&typical) > budget_s {
                break;
            }
        }
        t.set_counting(always);
        let checked = verify && always;
        rounds.push(Round {
            out: w.round(checked, t)?,
            timed: !checked,
        });
    }
    t.set_counting(false);
    let cpu_s = process_cpu_s() - cpu_begin;
    let alloc_end = alloc_totals();
    w.finish(last, t)?;
    Ok(Epoch {
        setup_s,
        rounds,
        probe_ns,
        cpu_s,
        allocs: (alloc_end.0 - alloc_begin.0, alloc_end.1 - alloc_begin.1),
    })
}

/// Round time per probe sample (a sample takes about 2 ms), and the
/// most samples taken between two rounds.
const PROBE_EVERY_NS: u64 = 130_000_000;
const PROBES_MAX: u64 = 8;

impl Epoch {
    /// How much slower than the reference box at its usual speed the
    /// box ran during this epoch (above 1: slower).
    fn speed(&self) -> f64 {
        median(&self.probe_ns) / REFERENCE_NS
    }

    fn timed(&self) -> impl Iterator<Item = &RoundOut> {
        self.rounds.iter().filter(|r| r.timed).map(|r| &r.out)
    }

    /// Ops completed in the timed rounds and their calibrated seconds.
    fn ops_and_seconds(&self) -> (u64, f64) {
        let ops = self.timed().map(|r| r.attempted - r.failed).sum();
        let ns: u64 = self.timed().map(|r| r.host_ns).sum();
        (ops, ns as f64 / 1e9 / self.speed())
    }
}

fn sims_of(epoch: &Epoch, sim_rounds: usize) -> Vec<OpSim> {
    epoch.rounds[..sim_rounds]
        .iter()
        .flat_map(|r| r.out.sims.iter().copied())
        .collect()
}

/// Run `w` for about `seconds` seconds of timed rounds. With `tracer`
/// off this is the end-to-end run: `sizes().epochs` epochs. With it on,
/// a quarter of the time goes to one untraced epoch (the reference for
/// the tracing overhead) and the rest to one traced epoch.
pub fn run(w: &mut dyn Workload, seconds: f64, tracer: &mut Tracer) -> Result<Outcome, String> {
    let sizes = w.sizes();
    let mut out = Outcome::default();
    let mut epochs = Vec::new();
    if tracer.enabled() {
        let mut off = Tracer::new(false);
        epochs.push(run_epoch(w, seconds / 4.0, false, false, &mut off)?);
        epochs.push(run_epoch(w, seconds * 3.0 / 4.0, false, true, tracer)?);
        out.untraced = epochs[0].ops_and_seconds();
        out.traced = epochs[1].ops_and_seconds();
        out.traced_speed = epochs[1].speed();
        out.cpu_s_per_round = epochs[0].cpu_s / epochs[0].speed() / epochs[0].rounds.len() as f64;
        out.allocs = (epochs[1].allocs.0, epochs[1].allocs.1, out.traced.0);
    } else {
        for e in 0..sizes.epochs {
            let budget = seconds / sizes.epochs as f64;
            epochs.push(run_epoch(w, budget, e == 0, e + 1 == sizes.epochs, tracer)?);
        }
    }
    out.sims = sims_of(&epochs[0], sizes.sim_rounds);
    // Shadow calls move buffer-pool state, so a traced epoch's simulated
    // numbers are its own; only untraced epochs must repeat.
    let repeats = if tracer.enabled() { &[] } else { &epochs[1..] };
    for (e, epoch) in repeats.iter().enumerate() {
        let sims = sims_of(epoch, sizes.sim_rounds);
        if sims != out.sims {
            let at = sims.iter().zip(&out.sims).position(|(a, b)| a != b);
            return Err(format!(
                "simulated costs of epoch {} differ from epoch 0 on the same inputs (first at op {at:?}: {:?} vs {:?})",
                e + 1,
                at.map(|i| sims[i]),
                at.map(|i| out.sims[i])
            ));
        }
    }
    for epoch in &epochs {
        let speed = epoch.speed();
        out.setup_s.push(epoch.setup_s / speed);
        out.round_ms
            .extend(epoch.timed().map(|r| r.host_ns as f64 / 1e6 / speed));
        out.timed_ops += epoch.ops_and_seconds().0;
        for r in &epoch.rounds {
            out.attempted += r.out.attempted;
            out.failed += r.out.failed;
        }
    }
    let probe_ns: Vec<f64> = epochs
        .iter()
        .flat_map(|e| e.probe_ns.iter().copied())
        .collect();
    out.probe_us = median(&probe_ns) / 1e3;
    Ok(out)
}

impl Outcome {
    /// The end-to-end metrics, in `metrics::END_TO_END` order.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let host_s: f64 = self.round_ms.iter().sum::<f64>() / 1e3;
        let joules: f64 = self.sims.iter().map(|s| s.joules).sum();
        let response_ms: Vec<f64> = self.sims.iter().map(|s| s.response_s * 1e3).collect();
        vec![
            ("setup_s", median(&self.setup_s)),
            ("ops_per_s", self.timed_ops as f64 / host_s),
            ("sim_joules_per_op", joules / self.sims.len() as f64),
            ("sim_response_ms_p50", median(&response_ms)),
            ("sim_response_ms_p95", percentile(&response_ms, 95.0)),
            ("peak_rss_mb", peak_rss_mb()),
        ]
    }

    /// The per-layer metrics the runner itself measures; the rest come
    /// from the tracer's spans and counters (see `report.rs`).
    pub fn host_layer(&self) -> Vec<(&'static str, f64)> {
        let rate = |(ops, s): (u64, f64)| if s > 0.0 { ops as f64 / s } else { 0.0 };
        let (allocs, bytes, ops) = self.allocs;
        let per_op = |v: u64| if ops > 0 { v as f64 / ops as f64 } else { 0.0 };
        vec![
            ("alloc.count_per_op", per_op(allocs)),
            ("alloc.mb_per_op", per_op(bytes) / 1e6),
            ("host.round_ms_p50", median(&self.round_ms)),
            ("host.round_ms_p95", percentile(&self.round_ms, 95.0)),
            ("host.probe_us", self.probe_us),
            ("host.cpu_s_per_round", self.cpu_s_per_round),
            (
                "trace.overhead_pct",
                (1.0 - rate(self.traced) / rate(self.untraced)) * 100.0,
            ),
        ]
    }
}

/// User + system CPU seconds of this process, all threads
/// (`/proc/self/stat` fields 14 and 15, in 100 Hz ticks); 0 where
/// `/proc` is missing.
fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; count from its ')'.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
