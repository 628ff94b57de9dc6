//! Calibration constants for the simulated hardware.
//!
//! Every tuned number in the model lives here, with a note tying it to
//! the data point in Lang & Patel (CIDR 2009) that motivates it. The
//! calibration targets are *shapes* — who wins, trend directions,
//! crossover locations — not the paper's absolute joules.
//!
//! System under test (paper §3.1): ASUS P5Q3 Deluxe, Intel Core2-Duo
//! E8500 (333 MHz FSB, top multiplier 9.5 ⇒ 3.16 GHz), 2×1 GB DDR3,
//! GeForce 8400GS, WD Caviar SE16 320 GB SATA, Corsair VX450W PSU.

use crate::trace::N_OP_CLASSES;

// ---------------------------------------------------------------------------
// CPU clocking (paper §3: p-states, FSB underclocking)
// ---------------------------------------------------------------------------

/// Stock front-side bus frequency in Hz (E8500: 333 MHz quad-pumped base).
pub(crate) const STOCK_FSB_HZ: f64 = 333.0e6;

/// Available CPU multipliers, lowest p-state first (E8500 supports
/// half-multipliers; SpeedStep floor is 6.0, top is 9.5).
pub(crate) const MULTIPLIERS: [f64; 5] = [6.0, 7.0, 8.0, 9.0, 9.5];

/// Core VID at the lowest multiplier (volts). Intel 45 nm mobile/desktop
/// VID floor region.
pub(crate) const VID_MIN: f64 = 1.000;

/// Core VID at the top multiplier (volts). The board runs the E8500
/// with headroom near the top of its VID range, which is what makes the
/// BIOS "voltage downgrade" settings so effective (paper Fig 1: −49 %
/// CPU energy at 5 % underclock + medium downgrade).
pub(crate) const VID_MAX: f64 = 1.3625;

/// BIOS "small" voltage downgrade, volts below VID (paper §3.3).
pub(crate) const VDROP_SMALL: f64 = 0.210;

/// BIOS "medium" voltage downgrade, volts below VID (paper §3.3).
pub(crate) const VDROP_MEDIUM: f64 = 0.420;

/// Load-line droop compensation: fraction of the configured downgrade
/// that the voltage regulator gives back under sustained load
/// ("CPU loadline: light", paper §3.3). This is the mechanism by which
/// the CPU-bound MySQL memory-engine workload (util ≈ 1) sees a smaller
/// effective downgrade — and therefore smaller savings (paper Fig 3
/// vs Fig 2: −20 % vs −49 %).
pub const DROOP_AT_FULL_LOAD: f64 = 0.70;

// ---------------------------------------------------------------------------
// CPU power (paper §3.4: P = C·V²·F; plus leakage & idle states)
// ---------------------------------------------------------------------------

/// Effective switching capacitance per core, farads. Chosen so one core
/// at full activity, stock V/F draws ≈ 17 W dynamic: with both static
/// terms below, package power for a single-threaded DB workload averages
/// in the mid-20 W range (paper §3.3: 1228.7 J / 48.5 s ≈ 25.3 W).
pub(crate) const CEFF_PER_CORE: f64 = 5.6e-9;

/// Number of cores (E8500 is a dual-core part; the DB workload in the
/// paper is effectively single-threaded, the second core idles).
pub(crate) const N_CORES: usize = 2;

/// Leakage coefficient: P_leak = K_LEAK · V² (whole package, watts at
/// V in volts). ≈ 45 nm-era leakage ≈ 30 % of package power; the
/// V²-scaled, *time-proportional* term is what makes deep underclocking
/// lose (paper §3.4: EDP worsens beyond 5 %).
pub(crate) const K_LEAK: f64 = 4.6;

/// Uncore/chipset-interface power coefficient: P_uncore = K_UNCORE·V²·F_fsb/STOCK_FSB.
pub(crate) const K_UNCORE: f64 = 2.6;

/// Switching activity of a halted (C1) core relative to full activity.
pub(crate) const HALT_ACTIVITY: f64 = 0.18;

/// Switching activity of a core stalled on memory (spinning in the
/// load/store path, prefetchers active) relative to full activity.
pub(crate) const STALL_ACTIVITY: f64 = 0.34;

// ---------------------------------------------------------------------------
// Per-op-class cycle costs and switching activity
// ---------------------------------------------------------------------------
// Cycle weights are per-operation, frequency-independent. Activity
// factors express how hard each class drives the core: interpreted
// predicate evaluation saturates the pipeline; row copies stall on
// memory. Indexed by `OpClass as usize`:
//   [TupleFetch, PredEval, HashBuild, HashProbe, Arith, AggUpdate,
//    ResultEmit, Parse, SortCmp, RowCopy, SplitRoute, DictLookup,
//    NodeSearch, LogRecord]

/// Cycles per operation for each [`crate::trace::OpClass`].
pub(crate) const OP_CYCLES: [f64; N_OP_CLASSES] = [
    60.0,   // TupleFetch: row pointer advance + header decode
    60.0,   // PredEval: interpreted expression-tree evaluation (MySQL Item-style)
    120.0,  // HashBuild
    90.0,   // HashProbe
    10.0,   // Arith
    35.0,   // AggUpdate
    3000.0, // ResultEmit: row materialization into the wire/result buffer
    2200.0, // Parse: per statement token
    45.0,   // SortCmp
    1800.0, // RowCopy: client-side (JDBC-style) row materialization
    800.0,  // SplitRoute: QED split bookkeeping per result row
    4.0,    // DictLookup: one dictionary id translation (array index, L1-resident)
    70.0,   // NodeSearch: one B-tree binary-search step (key compare + slot pick)
    150.0,  // LogRecord: serialize one WAL record + FNV checksum its payload
];

/// Switching-activity factor per [`crate::trace::OpClass`].
pub(crate) const OP_ACTIVITY: [f64; N_OP_CLASSES] = [
    0.72, // TupleFetch
    1.00, // PredEval (tight compute loop)
    0.85, // HashBuild
    0.62, // HashProbe (latency bound)
    0.95, // Arith
    0.90, // AggUpdate
    0.48, // ResultEmit (copy/stream bound)
    0.80, // Parse
    0.88, // SortCmp
    0.40, // RowCopy (memory streaming in the client)
    0.45, // SplitRoute
    0.80, // DictLookup (tight indexed loads, cache-resident dictionary)
    0.65, // NodeSearch (branchy compares, latency-bound page pointer chases)
    0.45, // LogRecord (buffer formatting + streaming checksum, copy-bound)
];

// ---------------------------------------------------------------------------
// Memory system (DDR3 on the Northbridge; clock is an FSB multiple,
// so underclocking slows DRAM too — paper §3)
// ---------------------------------------------------------------------------

/// Sustained stream bandwidth at stock FSB, bytes/second (DDR3-1333
/// single channel effective).
pub(crate) const MEM_BW_STOCK: f64 = 6.4e9;

/// Random-access latency at stock FSB, nanoseconds.
pub(crate) const MEM_LAT_STOCK_NS: f64 = 75.0;

/// Superlinearity exponent for memory time under FSB underclocking:
/// effective memory time scales as (1/(1−u))^MEM_CONTENTION_EXP.
/// > 1 models queueing at the memory controller as its service rate
/// > drops; this is what makes response time (and hence leakage joules)
/// > grow faster than 1/F and the EDP optimum land at the shallow 5 %
/// > setting (paper Figs 1–4).
pub(crate) const MEM_CONTENTION_EXP: f64 = 1.5;

/// Fraction of memory time that overlaps with CPU compute
/// (out-of-order window hides part of the stalls).
pub(crate) const MEM_OVERLAP: f64 = 0.30;

/// DC power of the memory controller path when memory is active, watts.
pub(crate) const MEM_CTRL_ACTIVE_W: f64 = 1.9;

/// DC power per DIMM, idle, watts (paper Table 1: +1 GB ≈ 4.3 W wall
/// incl. controller, second +1 GB ≈ 1.7 W wall; "about 6 W for 2 DIMMs").
pub(crate) const DIMM_IDLE_W: f64 = 1.15;

/// Extra DC power per DIMM at full stream bandwidth, watts.
pub(crate) const DIMM_ACTIVE_EXTRA_W: f64 = 2.1;

/// DIMMs installed in the system under test.
pub(crate) const N_DIMMS: usize = 2;

// ---------------------------------------------------------------------------
// Disk (WD Caviar SE16; paper §3.5 and Fig 5)
// ---------------------------------------------------------------------------

/// Sustained sequential transfer rate, bytes/second. Fig 5(a): the
/// sequential curve is flat regardless of read size.
pub(crate) const DISK_SEQ_RATE: f64 = 78.0e6;

/// Average random service overhead per access (short-stroke seek +
/// rotational latency), seconds. Together with the in-block burst rate
/// below this reproduces Fig 5's random-throughput ratios
/// (≈1.88× / 3.5× / 6× for 8/16/32 KB vs 4 KB).
pub(crate) const DISK_RAND_OVERHEAD_S: f64 = 6.0e-3;

/// Effective transfer rate *within* a random access, bytes/second
/// (includes head settle and request issue overhead, hence far below
/// the sequential streaming rate).
pub(crate) const DISK_RAND_BURST_RATE: f64 = 10.0e6;

/// 5 V rail: electronics idle current, amps.
pub(crate) const DISK_5V_IDLE_A: f64 = 0.28;
/// 5 V rail: extra current while transferring, amps.
pub(crate) const DISK_5V_XFER_EXTRA_A: f64 = 0.42;
/// 12 V rail: spindle idle current, amps.
pub(crate) const DISK_12V_IDLE_A: f64 = 0.25;
/// 12 V rail: extra current while seeking, amps.
pub(crate) const DISK_12V_SEEK_EXTRA_A: f64 = 0.52;

// Paper §3.5 anchor: warm Q5 workload (48.5 s) drew 214.7 J from the
// disk ⇒ ≈ 4.4 W average, i.e. essentially the idle floor:
// 5·0.28 + 12·0.25 = 4.4 W. ✓

// ---------------------------------------------------------------------------
// Other board components (paper Table 1)
// ---------------------------------------------------------------------------

/// Wall power with the system off (PSU standby + board standby), watts.
/// Paper Table 1 row 1: 9.2 W.
pub(crate) const WALL_STANDBY_W: f64 = 9.2;

/// Motherboard DC draw when powered on, watts.
pub const MOBO_DC_W: f64 = 7.6;

/// CPU package DC draw sitting in the BIOS (halted at top p-state,
/// stock voltage) — the state in which Table 1's +CPU row was measured.
/// Derived, not a constant: see `power::bios_idle_cpu_w()`.
pub const GPU_DC_W: f64 = 12.3;

/// PSU rated output, watts (Corsair VX450W).
pub(crate) const PSU_RATED_W: f64 = 450.0;

/// PSU efficiency curve anchors as (load_fraction, efficiency).
/// Paper §3.2 estimates ≈ 83 % efficiency near 20 % load (per the
/// Enermax-style curves it cites).
pub(crate) const PSU_EFF_CURVE: [(f64, f64); 5] = [
    (0.02, 0.58),
    (0.05, 0.68),
    (0.10, 0.78),
    (0.20, 0.83),
    (0.50, 0.86),
];

// ---------------------------------------------------------------------------
// Measurement instruments (paper §3.1)
// ---------------------------------------------------------------------------

/// EPU sensor refresh period, seconds (the paper sampled the 6-Engine
/// GUI "about" once per second).
pub(crate) const EPU_SAMPLE_PERIOD_S: f64 = 1.0;

/// Watt quantization of the sensor readout (the GUI displays tenths).
pub(crate) const EPU_QUANTUM_W: f64 = 0.1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multipliers_sorted_ascending() {
        for w in MULTIPLIERS.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn activities_in_unit_interval() {
        for a in OP_ACTIVITY {
            assert!(a > 0.0 && a <= 1.0);
        }
    }

    #[test]
    fn cycles_positive() {
        for c in OP_CYCLES {
            assert!(c > 0.0);
        }
    }

    #[test]
    fn psu_curve_monotone_in_load() {
        for w in PSU_EFF_CURVE.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn disk_idle_floor_matches_paper_warm_run() {
        // Paper §3.5: 214.7 J over ~48.5 s ⇒ ~4.4 W.
        let idle_w = 5.0 * DISK_5V_IDLE_A + 12.0 * DISK_12V_IDLE_A;
        assert!((idle_w - 4.4).abs() < 0.1, "idle disk power {idle_w} W");
    }

    #[test]
    fn voltage_downgrades_stay_above_vid_floor_region() {
        // Medium downgrade from VID_MAX must stay at a physically
        // plausible operating voltage for a 45 nm part.
        const { assert!(VID_MAX - VDROP_MEDIUM > 0.9) };
        const { assert!(VDROP_SMALL < VDROP_MEDIUM) };
    }
}
