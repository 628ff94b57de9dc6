//! Hard-disk model with per-rail power accounting.
//!
//! The paper (§3.5) instruments the drive's 5 V (electronics) and 12 V
//! (spindle + actuator) supply lines separately, and studies:
//!
//! * warm vs. cold workload runs (disk joules vs. CPU joules);
//! * random vs. sequential reads of 4/8/16/32 KB blocks (Fig 5):
//!   sequential throughput and energy/KB are flat in block size;
//!   random throughput rises just *under* proportionally with block
//!   size (≈ 1.88× / 3.5× / 6× for 8/16/32 KB relative to 4 KB).

use crate::calib;

/// Access pattern for a raw-disk experiment (Fig 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// Stream from the current head position.
    Sequential,
    /// Reposition (seek + rotate) before every block.
    Random,
}

impl AccessPattern {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AccessPattern::Sequential => "sequential",
            AccessPattern::Random => "random",
        }
    }
}

/// Time and per-rail energy of a disk activity.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DiskCost {
    /// Busy time, seconds (the CPU idles while waiting).
    pub busy_s: f64,
    /// Seconds of that time spent repositioning (seek + rotation).
    pub seek_s: f64,
    /// Seconds spent transferring data.
    pub transfer_s: f64,
    /// Energy drawn from the 5 V rail during the busy time, joules.
    pub joules_5v: f64,
    /// Energy drawn from the 12 V rail during the busy time, joules.
    pub joules_12v: f64,
}

impl DiskCost {
    /// Total busy-time energy across both rails, joules. Idle-floor
    /// energy for the rest of a run is added by the machine model.
    pub(crate) fn busy_joules(&self) -> f64 {
        self.joules_5v + self.joules_12v
    }
}

/// Drive specification (defaults model the paper's WD Caviar SE16).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskSpec {
    /// Sustained sequential rate, bytes/s.
    pub seq_rate: f64,
    /// Mean random service overhead (seek + rotation), seconds.
    pub rand_overhead_s: f64,
    /// In-block burst transfer rate for random accesses, bytes/s.
    pub rand_burst_rate: f64,
    /// 5 V rail idle current, A.
    pub idle_5v_a: f64,
    /// 5 V rail extra current while transferring, A.
    pub xfer_5v_extra_a: f64,
    /// 12 V rail idle current, A.
    pub idle_12v_a: f64,
    /// 12 V rail extra current while seeking, A.
    pub seek_12v_extra_a: f64,
}

impl Default for DiskSpec {
    fn default() -> Self {
        Self {
            seq_rate: calib::DISK_SEQ_RATE,
            rand_overhead_s: calib::DISK_RAND_OVERHEAD_S,
            rand_burst_rate: calib::DISK_RAND_BURST_RATE,
            idle_5v_a: calib::DISK_5V_IDLE_A,
            xfer_5v_extra_a: calib::DISK_5V_XFER_EXTRA_A,
            idle_12v_a: calib::DISK_12V_IDLE_A,
            seek_12v_extra_a: calib::DISK_12V_SEEK_EXTRA_A,
        }
    }
}

impl DiskSpec {
    /// Idle power across both rails, watts. Matches the paper's warm-run
    /// floor of ≈ 4.4 W (214.7 J / 48.5 s).
    pub fn idle_power_w(&self) -> f64 {
        5.0 * self.idle_5v_a + 12.0 * self.idle_12v_a
    }

    /// Cost of `seeks` random repositionings, `seq_bytes` streamed at
    /// the sequential rate and `burst_bytes` transferred at the random
    /// in-block burst rate — a ledger's `DiskSeek`, `DiskSeqBytes` and
    /// `DiskBurstBytes` role sums.
    pub fn cost(&self, seeks: u64, seq_bytes: u64, burst_bytes: u64) -> DiskCost {
        let seq_xfer = seq_bytes as f64 / self.seq_rate;
        let seek_s = seeks as f64 * self.rand_overhead_s;
        let burst_xfer = burst_bytes as f64 / self.rand_burst_rate;
        self.cost_parts(seek_s, seq_xfer + burst_xfer)
    }

    /// Cost of reading `total_bytes` in `block` -byte requests under the
    /// given pattern — the raw-disk experiment of Fig 5.
    pub(crate) fn access_cost(
        &self,
        pattern: AccessPattern,
        total_bytes: u64,
        block: u64,
    ) -> DiskCost {
        assert!(block > 0, "block size must be positive");
        match pattern {
            AccessPattern::Sequential => self.cost(0, total_bytes, 0),
            AccessPattern::Random => self.cost(total_bytes.div_ceil(block), 0, total_bytes),
        }
    }

    /// Throughput of an access experiment, bytes/s.
    pub fn throughput(&self, pattern: AccessPattern, total_bytes: u64, block: u64) -> f64 {
        let c = self.access_cost(pattern, total_bytes, block);
        if c.busy_s <= 0.0 {
            return 0.0;
        }
        total_bytes as f64 / c.busy_s
    }

    /// Busy-time energy per KB retrieved, joules/KB (Fig 5(b)). The
    /// paper's per-KB figures are for the active experiment, so the
    /// idle floor during the busy window is included (the drive draws
    /// its idle currents whether or not it is also seeking).
    pub fn energy_per_kb(&self, pattern: AccessPattern, total_bytes: u64, block: u64) -> f64 {
        let c = self.access_cost(pattern, total_bytes, block);
        c.busy_joules() / (total_bytes as f64 / 1024.0)
    }

    fn cost_parts(&self, seek_s: f64, transfer_s: f64) -> DiskCost {
        let busy_s = seek_s + transfer_s;
        // Idle currents flow throughout; extras flow during their phase.
        let joules_5v = 5.0 * (self.idle_5v_a * busy_s + self.xfer_5v_extra_a * transfer_s);
        let joules_12v = 12.0 * (self.idle_12v_a * busy_s + self.seek_12v_extra_a * seek_s);
        DiskCost {
            busy_s,
            seek_s,
            transfer_s,
            joules_5v,
            joules_12v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1 << 30;

    #[test]
    fn sequential_throughput_flat_in_block_size() {
        // Fig 5(a): "sequential access throughput is constant regardless
        // of the read size."
        let d = DiskSpec::default();
        let total = (16u64) * GB / 10; // 1.6 GB like the paper
        let t4 = d.throughput(AccessPattern::Sequential, total, 4 << 10);
        let t32 = d.throughput(AccessPattern::Sequential, total, 32 << 10);
        assert!((t4 - t32).abs() / t4 < 1e-9);
        assert!((t4 - d.seq_rate).abs() / d.seq_rate < 0.01);
    }

    #[test]
    fn random_throughput_ratios_match_fig5() {
        // Fig 5: 8/16/32 KB improve random throughput by ≈ 1.88× / 3.5× /
        // 6× over 4 KB — "close but does not exactly follow" 2×/4×/8×.
        let d = DiskSpec::default();
        let total = (16u64) * GB / 10;
        let t4 = d.throughput(AccessPattern::Random, total, 4 << 10);
        let r8 = d.throughput(AccessPattern::Random, total, 8 << 10) / t4;
        let r16 = d.throughput(AccessPattern::Random, total, 16 << 10) / t4;
        let r32 = d.throughput(AccessPattern::Random, total, 32 << 10) / t4;
        assert!((1.7..1.99).contains(&r8), "8K ratio {r8}");
        assert!((3.0..3.95).contains(&r16), "16K ratio {r16}");
        assert!((5.0..7.0).contains(&r32), "32K ratio {r32}");
        // Strictly below the ideal doubling at each step.
        assert!(r8 < 2.0 && r16 < 4.0 && r32 < 8.0);
    }

    #[test]
    fn sequential_more_energy_efficient_than_random() {
        // Fig 5(b): "Sequential access is more energy efficient per KB
        // than random access, primarily because it is faster!"
        let d = DiskSpec::default();
        let total = GB / 4;
        for block in [4u64 << 10, 8 << 10, 16 << 10, 32 << 10] {
            let es = d.energy_per_kb(AccessPattern::Sequential, total, block);
            let er = d.energy_per_kb(AccessPattern::Random, total, block);
            assert!(er > es, "block {block}: random {er} vs sequential {es}");
        }
    }

    #[test]
    fn random_energy_per_kb_falls_with_block_size() {
        let d = DiskSpec::default();
        let total = GB / 4;
        let e4 = d.energy_per_kb(AccessPattern::Random, total, 4 << 10);
        let e8 = d.energy_per_kb(AccessPattern::Random, total, 8 << 10);
        let e32 = d.energy_per_kb(AccessPattern::Random, total, 32 << 10);
        assert!(e4 > e8 && e8 > e32);
    }

    #[test]
    fn sequential_energy_per_kb_flat() {
        let d = DiskSpec::default();
        let total = GB / 4;
        let e4 = d.energy_per_kb(AccessPattern::Sequential, total, 4 << 10);
        let e32 = d.energy_per_kb(AccessPattern::Sequential, total, 32 << 10);
        assert!((e4 - e32).abs() / e4 < 1e-9);
    }

    #[test]
    fn idle_floor_matches_warm_run() {
        let d = DiskSpec::default();
        assert!((d.idle_power_w() - 4.4).abs() < 0.1);
    }

    #[test]
    fn cost_additivity() {
        let d = DiskSpec::default();
        let ca = d.cost(100, 10 << 20, 100 * 8192);
        let cb = d.cost(50, 5 << 20, 50 * 8192);
        let cab = d.cost(150, 15 << 20, 150 * 8192);
        assert!((cab.busy_s - (ca.busy_s + cb.busy_s)).abs() < 1e-9);
        assert!((cab.busy_joules() - (ca.busy_joules() + cb.busy_joules())).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_block_rejected() {
        let d = DiskSpec::default();
        let _ = d.access_cost(AccessPattern::Random, 1 << 20, 0);
    }
}
