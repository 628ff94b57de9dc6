//! DDR3 memory model.
//!
//! The memory clock is a multiple of the FSB (paper §3: "Main memory is
//! on the Northbridge, and its operating frequency is a multiple of the
//! FSB"), so underclocking slows DRAM along with the CPU. Two effects
//! follow and both matter to the PVC results:
//!
//! 1. memory-bound time grows when underclocked — superlinearly, via a
//!    contention factor, because the controller's service rate drops
//!    while the request stream does not thin;
//! 2. DRAM power drops slightly (lower clock, fewer transfers/s),
//!    which the paper notes as a side benefit of underclocking.

use crate::calib;

/// Memory subsystem specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemSpec {
    /// Stream bandwidth at stock FSB, bytes/s.
    pub stream_bw_stock: f64,
    /// Random access latency at stock FSB, seconds.
    pub random_latency_stock_s: f64,
    /// Number of DIMMs installed.
    pub dimms: usize,
}

impl Default for MemSpec {
    fn default() -> Self {
        Self {
            stream_bw_stock: calib::MEM_BW_STOCK,
            random_latency_stock_s: calib::MEM_LAT_STOCK_NS * 1e-9,
            dimms: calib::N_DIMMS,
        }
    }
}

impl MemSpec {
    /// Contention multiplier for memory time at underclock fraction `u`:
    /// `(1/(1-u))^MEM_CONTENTION_EXP`. Equals 1 at stock and grows
    /// superlinearly — the queueing term behind the paper's observation
    /// that the time penalty "overwhelms any CPU power gains" beyond
    /// 5 % underclocking (§3.4).
    pub(crate) fn contention_factor(&self, underclock: f64) -> f64 {
        assert!((0.0..1.0).contains(&underclock));
        (1.0 / (1.0 - underclock)).powf(calib::MEM_CONTENTION_EXP)
    }

    /// Time to stream `bytes` through memory at underclock `u`, seconds.
    pub(crate) fn stream_time_s(&self, bytes: u64, underclock: f64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        let base = bytes as f64 / self.stream_bw_stock;
        base * self.contention_factor(underclock)
    }

    /// Time for `accesses` latency-bound random accesses at underclock `u`.
    pub(crate) fn random_time_s(&self, accesses: u64, underclock: f64) -> f64 {
        if accesses == 0 {
            return 0.0;
        }
        accesses as f64 * self.random_latency_stock_s * self.contention_factor(underclock)
    }

    /// DC power of the memory subsystem, watts.
    ///
    /// `bw_utilization` in `[0,1]` is the fraction of peak stream
    /// bandwidth in use; `underclock` scales the active component with
    /// the clock (lower clock ⇒ fewer transfers ⇒ less switching).
    pub(crate) fn power_w(&self, bw_utilization: f64, underclock: f64) -> f64 {
        let util = bw_utilization.clamp(0.0, 1.0);
        let clock_scale = 1.0 - underclock;
        let idle = self.dimms as f64 * calib::DIMM_IDLE_W;
        let active = self.dimms as f64 * calib::DIMM_ACTIVE_EXTRA_W * util * clock_scale
            + calib::MEM_CTRL_ACTIVE_W * util * clock_scale;
        idle + active
    }

    /// Idle DC power, watts.
    pub fn idle_power_w(&self) -> f64 {
        self.power_w(0.0, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_is_one_at_stock_and_grows() {
        let m = MemSpec::default();
        assert!((m.contention_factor(0.0) - 1.0).abs() < 1e-12);
        let c5 = m.contention_factor(0.05);
        let c10 = m.contention_factor(0.10);
        let c15 = m.contention_factor(0.15);
        assert!(c5 > 1.0 && c10 > c5 && c15 > c10);
        // Superlinear: growth from 10→15 % exceeds growth from 5→10 %.
        assert!(c15 - c10 > c10 - c5);
    }

    #[test]
    fn stream_time_scales_with_bytes() {
        let m = MemSpec::default();
        let t1 = m.stream_time_s(1 << 20, 0.0);
        let t2 = m.stream_time_s(2 << 20, 0.0);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
        assert_eq!(m.stream_time_s(0, 0.0), 0.0);
    }

    #[test]
    fn underclock_slows_memory() {
        let m = MemSpec::default();
        assert!(m.stream_time_s(1 << 24, 0.10) > m.stream_time_s(1 << 24, 0.0));
        assert!(m.random_time_s(1000, 0.10) > m.random_time_s(1000, 0.0));
    }

    #[test]
    fn dram_power_drops_when_underclocked() {
        // Paper §3: "underclocking also slows the main memory, which in
        // turn reduces the amount of energy consumed by main memory."
        let m = MemSpec::default();
        assert!(m.power_w(0.8, 0.15) < m.power_w(0.8, 0.0));
    }

    #[test]
    fn idle_power_near_table1_ram_rows() {
        // Table 1: two DIMMs draw ≈ 6 W at the wall incl. controller;
        // the DC idle floor should be a couple of watts.
        let m = MemSpec::default();
        let p = m.idle_power_w();
        assert!(p > 1.5 && p < 4.0, "idle DRAM power {p} W");
    }
}
