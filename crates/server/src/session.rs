//! Sessions, statements and per-session energy ledgers.
//!
//! A *session* is one client connection submitting statements over
//! time. The server executes merged batches on behalf of many sessions
//! at once, so energy attribution needs a rule: each dispatched batch's
//! ledger (op-class counts, memory traffic, disk work, round-trip gap)
//! is split **exactly** across its member sessions — integer counts are
//! divided with the remainder spread over the first members — so the
//! sum of all per-session ledgers reproduces the server's summed ledger
//! *bit for bit*. This extends the ledger-identity invariant that
//! guards every reproduced figure (scalar = columnar = parallel) to
//! the concurrent-session axis.

use eco_core::ServerError;
use eco_simhw::trace::{CpuWork, DiskWork, WorkTrace, ALL_OP_CLASSES};
use eco_storage::RowSet;
use eco_tpch::QedQuery;

/// Identifies one client session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

/// A statement a session can submit.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A single-predicate `l_quantity` selection — the QED unit; the
    /// scheduler may delay and merge it with other sessions' selections.
    Selection(QedQuery),
    /// Ad-hoc SQL; executes alone (never merged). A malformed string
    /// comes back as a typed [`ServerError`] to its session only. DML
    /// statements additionally stage write-ahead-log records whose
    /// fsync rides the group commit (see the scheduler).
    Sql(String),
}

impl Statement {
    /// The predicate of a batchable selection, or a typed
    /// [`ServerError::NotSelection`] for anything else — the accessor
    /// batch-path consumers use instead of panicking on the variant.
    pub fn selection(&self) -> Result<&QedQuery, ServerError> {
        match self {
            Statement::Selection(q) => Ok(q),
            Statement::Sql(sql) => Err(ServerError::NotSelection {
                statement: format!("{sql:?}"),
            }),
        }
    }
}

/// One arrival: a session submitting a statement at a point in time.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The submitting session.
    pub session: SessionId,
    /// Arrival instant, seconds from run start.
    pub arrival_s: f64,
    /// The submitted statement.
    pub statement: Statement,
}

/// What happened to one request.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionOutcome {
    /// The statement executed; the session got its rows.
    Completed {
        /// The submitting session.
        session: SessionId,
        /// This session's result rows. Out of a merged batch they are a
        /// view of the dispatch's scan, shared with every member of the
        /// dispatch and decoded on first read (see [`RowSet`]).
        rows: RowSet,
        /// When the statement arrived, seconds.
        arrival_s: f64,
        /// When its batch was dispatched, seconds.
        dispatch_s: f64,
        /// Open-system response time: completion − arrival. Unlike the
        /// offline §4 accounting, this *includes* batch-accumulation
        /// and queueing delay (see the crate docs).
        response_s: f64,
        /// Time spent waiting before dispatch: dispatch − arrival.
        queue_delay_s: f64,
    },
    /// The statement was rejected (shed by admission control, or
    /// malformed) without executing; the server kept running.
    Rejected {
        /// The submitting session.
        session: SessionId,
        /// When the statement arrived, seconds.
        arrival_s: f64,
        /// Why it was rejected.
        error: ServerError,
    },
}

impl SessionOutcome {
    /// The session this outcome belongs to.
    pub fn session(&self) -> SessionId {
        match self {
            SessionOutcome::Completed { session, .. } => *session,
            SessionOutcome::Rejected { session, .. } => *session,
        }
    }

    /// True when the statement executed.
    pub fn is_completed(&self) -> bool {
        matches!(self, SessionOutcome::Completed { .. })
    }
}

/// A summed energy ledger: every bit-identity-bearing count from a set
/// of [`WorkTrace`]s, with exact integer arithmetic throughout.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LedgerTotals {
    /// Op-class counts.
    pub cpu: CpuWork,
    /// Bytes streamed through DRAM.
    pub mem_stream_bytes: u64,
    /// Random DRAM accesses.
    pub mem_random_accesses: u64,
    /// Disk work.
    pub disk: DiskWork,
    /// Client round-trip gap nanoseconds.
    pub gap_ns: u64,
    /// Fault-retry backoff halt residency, nanoseconds (ledger schema
    /// v2). Zero on every fault-free run.
    pub backoff_ns: u64,
}

impl LedgerTotals {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold a set of per-core traces into this ledger.
    pub fn absorb_traces(&mut self, traces: &[WorkTrace]) {
        for trace in traces {
            for phase in trace.phases() {
                self.cpu.merge(&phase.cpu);
                self.mem_stream_bytes += phase.mem_stream_bytes;
                self.mem_random_accesses += phase.mem_random_accesses;
                self.disk.merge(&phase.disk);
                self.gap_ns += phase.gap_ns;
                self.backoff_ns += phase.backoff_ns;
            }
        }
    }

    /// The summed ledger of a set of per-core traces.
    pub fn from_traces(traces: &[WorkTrace]) -> Self {
        let mut t = Self::new();
        t.absorb_traces(traces);
        t
    }

    /// Fold another ledger into this one.
    pub fn merge(&mut self, other: &LedgerTotals) {
        self.cpu.merge(&other.cpu);
        self.mem_stream_bytes += other.mem_stream_bytes;
        self.mem_random_accesses += other.mem_random_accesses;
        self.disk.merge(&other.disk);
        self.gap_ns += other.gap_ns;
        self.backoff_ns += other.backoff_ns;
    }

    /// Member `i`'s exact share of this ledger split over `k` members:
    /// each count `c` contributes `c / k`, with the remainder `c % k`
    /// spread one unit each over members `0..c % k`. Summing the shares
    /// of all `k` members reproduces this ledger exactly — no count is
    /// lost or invented, which is what keeps the merged multi-session
    /// ledger bit-identical to the server's summed ledger.
    pub fn exact_share(&self, i: usize, k: usize) -> LedgerTotals {
        assert!(k >= 1, "need at least one member");
        assert!(i < k, "member index out of range");
        let split = |c: u64| exact_split(c, i as u64, k as u64);
        let mut cpu = CpuWork::new();
        for class in ALL_OP_CLASSES {
            cpu.add(class, split(self.cpu.count(class)));
        }
        let mut disk = DiskWork::none();
        disk.sequential_bytes = split(self.disk.sequential_bytes);
        disk.random_ios = split(self.disk.random_ios);
        disk.random_bytes = split(self.disk.random_bytes);
        disk.retry_ios = split(self.disk.retry_ios);
        disk.retry_bytes = split(self.disk.retry_bytes);
        disk.index_ios = split(self.disk.index_ios);
        disk.index_bytes = split(self.disk.index_bytes);
        disk.log_ios = split(self.disk.log_ios);
        disk.log_bytes = split(self.disk.log_bytes);
        LedgerTotals {
            cpu,
            mem_stream_bytes: split(self.mem_stream_bytes),
            mem_random_accesses: split(self.mem_random_accesses),
            disk,
            gap_ns: split(self.gap_ns),
            backoff_ns: split(self.backoff_ns),
        }
    }
}

/// `c/k` plus one unit for the first `c % k` members — sums to `c`.
fn exact_split(c: u64, i: u64, k: u64) -> u64 {
    c / k + u64::from(i < c % k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_simhw::trace::{OpClass, Phase};

    fn sample_totals() -> LedgerTotals {
        let mut p = Phase::execute("x");
        p.cpu.add(OpClass::PredEval, 1_000_003);
        p.cpu.add(OpClass::TupleFetch, 7);
        p.cpu.add(OpClass::Parse, 13);
        p.mem_stream_bytes = 65_537;
        p.mem_random_accesses = 11;
        p.disk.sequential_bytes = 4_099;
        p.disk.random_ios = 5;
        p.disk.retry_ios = 3;
        p.disk.retry_bytes = 3 * 8192;
        p.disk.index_ios = 9;
        p.disk.index_bytes = 9 * 8192 + 1;
        p.disk.log_ios = 2;
        p.disk.log_bytes = 3 * 8192;
        p.backoff_ns = 123_457;
        let mut t = WorkTrace::new();
        t.push(Phase::client_gap(999_999_999));
        t.push(p);
        LedgerTotals::from_traces(std::slice::from_ref(&t))
    }

    #[test]
    fn exact_shares_sum_back_to_the_whole() {
        let totals = sample_totals();
        for k in [1usize, 2, 3, 7, 64] {
            let mut sum = LedgerTotals::new();
            for i in 0..k {
                sum.merge(&totals.exact_share(i, k));
            }
            assert_eq!(sum, totals, "k={k}");
        }
    }

    #[test]
    fn shares_differ_by_at_most_one_unit() {
        let totals = sample_totals();
        let k = 7;
        let shares: Vec<u64> = (0..k)
            .map(|i| totals.exact_share(i, k).cpu.count(OpClass::PredEval))
            .collect();
        let max = *shares.iter().max().unwrap();
        let min = *shares.iter().min().unwrap();
        assert!(max - min <= 1, "shares {shares:?}");
    }

    #[test]
    fn selection_accessor_types_non_batchable_statements() {
        let sel = Statement::Selection(QedQuery { quantity: 3 });
        assert_eq!(sel.selection().expect("selection").quantity, 3);
        let sql = Statement::Sql("INSERT INTO region VALUES (9, 'x', 'y')".to_string());
        let err = sql.selection().expect_err("SQL is not batchable");
        assert!(matches!(err, ServerError::NotSelection { .. }));
        assert!(err.to_string().contains("not a batchable selection"));
    }

    #[test]
    fn merge_is_componentwise_addition() {
        let a = sample_totals();
        let mut b = LedgerTotals::new();
        b.merge(&a);
        b.merge(&a);
        assert_eq!(b.cpu.count(OpClass::PredEval), 2 * 1_000_003);
        assert_eq!(b.mem_stream_bytes, 2 * 65_537);
        assert_eq!(b.gap_ns, 2 * 999_999_999);
    }
}
