//! A SpeedStep-like DVFS governor.
//!
//! The paper leaves Intel SpeedStep enabled ("we allowed Intel
//! Speedstep to act freely", §3.1), so the CPU transitions to lower
//! p-states on its own when idle or waiting on the disk. Underclocking
//! deliberately preserves this: *all* multiplier steps stay available,
//! just on a slower base clock (§3) — unlike p-state capping, which
//! removes the upper steps.

/// How long the governor dwells at the top p-state after work ends
/// before stepping down, seconds (demand-based switching hysteresis).
pub(crate) const STEP_DOWN_DWELL_S: f64 = 2.0e-3;

/// Governor policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GovernorPolicy {
    /// Demand-driven (SpeedStep-like): top state when busy, bottom
    /// state when idle past the dwell window.
    #[default]
    Demand,
    /// Pinned to the top available p-state (a "performance" governor).
    Performance,
}

/// Residency of an idle interval across p-states.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct IdleResidency {
    /// Seconds spent halted at the top p-state (pre-step-down dwell).
    pub top_s: f64,
    /// Seconds spent halted at the bottom p-state.
    pub bottom_s: f64,
}

/// The governor: maps execution context to p-states.
#[derive(Debug, Clone, Copy, Default)]
pub struct Governor {
    /// Active policy.
    pub policy: GovernorPolicy,
}

impl Governor {
    /// Governor with the given policy.
    pub fn new(policy: GovernorPolicy) -> Self {
        Self { policy }
    }

    /// Split an idle interval (disk wait or client gap) into top-state
    /// and bottom-state residency. Short gaps never see the step-down;
    /// long waits spend almost everything at the bottom state.
    pub(crate) fn idle_residency(&self, idle_s: f64) -> IdleResidency {
        assert!(idle_s >= 0.0);
        match self.policy {
            GovernorPolicy::Performance => IdleResidency {
                top_s: idle_s,
                bottom_s: 0.0,
            },
            GovernorPolicy::Demand => {
                let top = idle_s.min(STEP_DOWN_DWELL_S);
                IdleResidency {
                    top_s: top,
                    bottom_s: idle_s - top,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_gap_stays_at_top_state() {
        let g = Governor::default();
        let r = g.idle_residency(1.0e-3);
        assert_eq!(r.top_s, 1.0e-3);
        assert_eq!(r.bottom_s, 0.0);
    }

    #[test]
    fn long_wait_mostly_bottom_state() {
        let g = Governor::default();
        let r = g.idle_residency(1.0);
        assert!(r.bottom_s > 0.99);
        assert!((r.top_s - STEP_DOWN_DWELL_S).abs() < 1e-12);
    }

    #[test]
    fn performance_policy_never_steps_down() {
        let g = Governor::new(GovernorPolicy::Performance);
        let r = g.idle_residency(5.0);
        assert_eq!(r.bottom_s, 0.0);
        assert_eq!(r.top_s, 5.0);
    }

    #[test]
    fn residency_conserves_time() {
        let g = Governor::default();
        for idle in [0.0, 1e-4, 1e-2, 3.7] {
            let r = g.idle_residency(idle);
            assert!((r.top_s + r.bottom_s - idle).abs() < 1e-12);
        }
    }
}
