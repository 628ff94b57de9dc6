//! Deterministic fault injection: a seeded schedule of disk read
//! faults the simulated storage stack consumes.
//!
//! ## Fault model
//!
//! A [`FaultPlan`] is a *pure function* `(seed, table, page) →
//! Option<PageFault>`: whether a given page read faults, and how, is
//! decided by hashing the plan seed with the page's identity through
//! splitmix64. No interior state, no ordering dependence — the same
//! plan always injects the same faults, regardless of execution
//! engine, worker count, or arrival interleaving. That is what lets a
//! chaos test replay a faulted run and demand bit-identical ledgers.
//!
//! Three fault classes model what a real drive does to a DBMS:
//!
//! * [`PageFault::Transient`] — the read fails (media retry, bus CRC
//!   error, checksum mismatch on the wire) a bounded number of times,
//!   then succeeds. The reader re-reads with exponential backoff.
//! * [`PageFault::Permanent`] — the page is unrecoverable: every
//!   attempt fails (a genuinely corrupted sector). After the retry
//!   budget is exhausted the error surfaces as a typed I/O error.
//! * [`PageFault::Stall`] — the read succeeds first try but only
//!   after an extra service delay (drive-internal recovery, thermal
//!   recalibration). Priced as backoff idle time.
//!
//! ## Retry/backoff policy and pricing
//!
//! The storage layer (`eco-storage`) verifies a per-page checksum on
//! every buffer-pool miss and retries failed attempts up to
//! [`MAX_READ_RETRIES`] times, sleeping [`BACKOFF_BASE_NS`]` << attempt`
//! between attempts (bounded exponential backoff). Each failed
//! attempt's re-read is charged to the **retry random I/O** ledger
//! class and each backoff sleep to **backoff halt residency** — the
//! v2 ledger classes (see [schema versions](crate::trace#ledger-schema-versions)),
//! which are exactly zero when no fault fires, so fault-free runs
//! stay bit-identical to every v1 figure.

/// Maximum re-read attempts after a failed page read before the error
/// is reported as permanent.
pub const MAX_READ_RETRIES: u32 = 4;

/// Backoff before retry attempt `n` (0-based): `BACKOFF_BASE_NS << n`
/// nanoseconds. With [`MAX_READ_RETRIES`] = 4 the total worst-case
/// backoff is 15 × 50 µs = 750 µs per page.
pub const BACKOFF_BASE_NS: u64 = 50_000;

/// Total backoff idle time for `failures` failed attempts, nanoseconds.
pub fn backoff_ns_for(failures: u32) -> u64 {
    (0..failures).map(|n| BACKOFF_BASE_NS << n).sum()
}

/// How a particular page read faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageFault {
    /// The first `failures` attempts fail (1 ≤ `failures` ≤
    /// [`MAX_READ_RETRIES`]), then the read succeeds.
    Transient {
        /// Failed attempts before success.
        failures: u32,
    },
    /// Every attempt fails; the retry budget is exhausted and the read
    /// errors out.
    Permanent,
    /// The read succeeds first try after an extra `ns` of service
    /// delay.
    Stall {
        /// Extra delay, nanoseconds.
        ns: u64,
    },
}

/// How the final, partially-written log record looks after a crash
/// that interrupts an append (ledger schema v5 write path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornTail {
    /// The crash lands exactly on a record boundary: the tail is clean.
    None,
    /// The crash truncates the final record inside its fixed-size
    /// header (length prefix + checksum), leaving fewer header bytes
    /// than a complete header needs.
    MidHeader,
    /// The crash truncates the final record inside its payload: the
    /// header is intact but promises more bytes than survive.
    MidPayload,
}

/// A deterministic crash point on the mutating write path. Like page
/// faults, crash points are data, not control flow: the WAL consults
/// the plan and reports a typed error at the scheduled moment, so the
/// same plan always kills the same workload at the same record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalCrash {
    /// The process dies after `records` log records have been appended;
    /// the on-disk image ends with the fsynced prefix plus a torn
    /// fragment of whatever was appended but not yet synced, shaped by
    /// `torn`.
    KillAfterRecords {
        /// Appends that complete before the kill.
        records: u64,
        /// Shape of the final, partially-written record.
        torn: TornTail,
    },
    /// The `fsync`-th sync call (0-based) fails: the pending tail never
    /// reaches stable storage and the in-flight transactions abort with
    /// a typed error instead of becoming durable.
    FsyncFailure {
        /// Index of the failing sync call.
        fsync: u64,
    },
}

/// A seeded, deterministic schedule of page read faults.
///
/// Construction fixes the seed and the per-read fault rate; whether a
/// given `(table, page)` faults is a pure hash of the three. Fault
/// kind shares within the faulting fraction: 70 % transient, 15 %
/// permanent, 15 % stall. A plan may also carry one [`WalCrash`]
/// point for the mutating write path (schema v5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Faulting page reads per million, in `[0, 1_000_000]`.
    rate_ppm: u32,
    /// Demote permanent faults to worst-case transients (see
    /// [`FaultPlan::recoverable`]).
    recoverable_only: bool,
    /// Scheduled crash on the write-ahead-log path, if any.
    wal_crash: Option<WalCrash>,
}

impl FaultPlan {
    /// A plan injecting faults into `rate_ppm` per million page reads
    /// (clamped to 1 000 000), keyed by `seed`.
    pub fn new(seed: u64, rate_ppm: u32) -> Self {
        Self {
            seed,
            rate_ppm: rate_ppm.min(1_000_000),
            recoverable_only: false,
            wal_crash: None,
        }
    }

    /// The same plan with a scheduled write-path crash point installed.
    pub fn with_wal_crash(mut self, crash: WalCrash) -> Self {
        self.wal_crash = Some(crash);
        self
    }

    /// The scheduled write-path crash point, if any.
    pub fn wal_crash(&self) -> Option<WalCrash> {
        self.wal_crash
    }

    /// The same plan with every [`PageFault::Permanent`] draw demoted
    /// to a worst-case transient (`failures = `[`MAX_READ_RETRIES`]):
    /// every read still succeeds within the retry budget, at maximum
    /// retry and backoff cost. Transient and stall draws are
    /// untouched.
    ///
    /// This is how the priced cost of fault pressure is observed: a
    /// single permanent fault on a scanned table fails every query that
    /// touches it, so retry random I/O plus backoff halt residency are
    /// only visible on plans where service completes
    /// (`tests/prop_lazy_frames.rs` runs such plans).
    pub fn recoverable(mut self) -> Self {
        self.recoverable_only = true;
        self
    }

    /// A plan that never faults.
    pub fn none() -> Self {
        Self::new(0, 0)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's fault rate, parts per million of page reads.
    pub fn rate_ppm(&self) -> u32 {
        self.rate_ppm
    }

    /// True when this plan can never inject a fault — no page faults
    /// and no scheduled write-path crash.
    pub fn is_none(&self) -> bool {
        self.rate_ppm == 0 && self.wal_crash.is_none()
    }

    /// The fault (if any) injected into reads of `page` in `table`.
    /// Pure: same inputs, same answer, forever.
    pub fn fault_for(&self, table: u32, page: u64) -> Option<PageFault> {
        if self.rate_ppm == 0 {
            return None;
        }
        let mut state = self
            .seed
            .wrapping_mul(0x2545_F491_4F6C_DD1D)
            .wrapping_add((table as u64) << 32)
            .wrapping_add(page);
        let draw = splitmix64(&mut state);
        if draw % 1_000_000 >= self.rate_ppm as u64 {
            return None;
        }
        // Kind draw, independent of the rate draw.
        let kind = splitmix64(&mut state) % 100;
        Some(if kind < 70 {
            let failures = (splitmix64(&mut state) % MAX_READ_RETRIES as u64) as u32 + 1;
            PageFault::Transient { failures }
        } else if kind < 85 {
            if self.recoverable_only {
                PageFault::Transient {
                    failures: MAX_READ_RETRIES,
                }
            } else {
                PageFault::Permanent
            }
        } else {
            let ns = 100_000 + splitmix64(&mut state) % 900_000; // 0.1–1 ms
            PageFault::Stall { ns }
        })
    }

    /// Enumerate the faults this plan injects into the first `pages`
    /// pages of `table` — what a full cold scan of the table would
    /// encounter. Used by tests to compute the exact expected retry
    /// charge.
    pub fn faults_in_table(&self, table: u32, pages: u64) -> Vec<(u64, PageFault)> {
        (0..pages)
            .filter_map(|p| self.fault_for(table, p).map(|f| (p, f)))
            .collect()
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_pure_function_of_seed_and_page() {
        let a = FaultPlan::new(42, 200_000);
        let b = FaultPlan::new(42, 200_000);
        for table in [1u32, 2, 9] {
            for page in 0..500u64 {
                assert_eq!(a.fault_for(table, page), b.fault_for(table, page));
            }
        }
    }

    #[test]
    fn none_plan_never_faults() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        for page in 0..10_000u64 {
            assert_eq!(p.fault_for(1, page), None);
        }
    }

    #[test]
    fn rate_controls_fault_density() {
        let pages = 20_000u64;
        let low = FaultPlan::new(7, 10_000).faults_in_table(1, pages).len();
        let high = FaultPlan::new(7, 300_000).faults_in_table(1, pages).len();
        assert!(low > 0, "1% of {pages} pages should fault");
        assert!(high > low * 5, "30% rate ({high}) vs 1% rate ({low})");
        // Saturated plan faults every page.
        let all = FaultPlan::new(7, 1_000_000).faults_in_table(1, pages);
        assert_eq!(all.len() as u64, pages);
    }

    #[test]
    fn different_seeds_fault_different_pages() {
        let a = FaultPlan::new(1, 50_000).faults_in_table(1, 10_000);
        let b = FaultPlan::new(2, 50_000).faults_in_table(1, 10_000);
        assert_ne!(a, b);
    }

    #[test]
    fn transient_failures_respect_the_retry_budget() {
        let plan = FaultPlan::new(99, 1_000_000);
        for (_, fault) in plan.faults_in_table(3, 5_000) {
            if let PageFault::Transient { failures } = fault {
                assert!((1..=MAX_READ_RETRIES).contains(&failures));
            }
        }
    }

    #[test]
    fn recoverable_plans_demote_permanents_and_nothing_else() {
        let base = FaultPlan::new(11, 1_000_000);
        let soft = base.recoverable();
        for page in 0..5_000u64 {
            match (base.fault_for(1, page), soft.fault_for(1, page)) {
                (Some(PageFault::Permanent), got) => assert_eq!(
                    got,
                    Some(PageFault::Transient {
                        failures: MAX_READ_RETRIES
                    })
                ),
                (other, got) => assert_eq!(got, other),
            }
        }
        assert!(base
            .faults_in_table(1, 5_000)
            .iter()
            .any(|(_, f)| matches!(f, PageFault::Permanent)));
        assert!(!soft
            .faults_in_table(1, 5_000)
            .iter()
            .any(|(_, f)| matches!(f, PageFault::Permanent)));
    }

    #[test]
    fn wal_crash_points_ride_along_without_touching_page_faults() {
        let base = FaultPlan::new(5, 120_000);
        let crash = base.with_wal_crash(WalCrash::KillAfterRecords {
            records: 7,
            torn: TornTail::MidPayload,
        });
        assert_eq!(base.wal_crash(), None);
        assert_eq!(
            crash.wal_crash(),
            Some(WalCrash::KillAfterRecords {
                records: 7,
                torn: TornTail::MidPayload,
            })
        );
        // Page-fault draws are untouched by the crash point.
        for page in 0..2_000u64 {
            assert_eq!(base.fault_for(1, page), crash.fault_for(1, page));
        }
        // A crash point alone makes the plan non-trivial even with a
        // zero page-fault rate.
        let crash_only = FaultPlan::none().with_wal_crash(WalCrash::FsyncFailure { fsync: 0 });
        assert!(!crash_only.is_none());
        assert!(FaultPlan::none().is_none());
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        assert_eq!(backoff_ns_for(0), 0);
        assert_eq!(backoff_ns_for(1), BACKOFF_BASE_NS);
        assert_eq!(backoff_ns_for(2), 3 * BACKOFF_BASE_NS);
        assert_eq!(backoff_ns_for(4), 15 * BACKOFF_BASE_NS);
    }
}
