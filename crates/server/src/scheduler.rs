//! The deterministic session scheduler: a discrete-event serve loop
//! that admits arrivals, accumulates QED batches, dispatches merged
//! statements onto the morsel-parallel executor, prices the whole run
//! on the open-system machine model, and splits results and energy
//! back per session.
//!
//! ## Determinism and the replay transcript
//!
//! The loop is single-threaded and event-ordered: arrivals are
//! processed in (time, input-index) order, deadline drains fire at
//! exact virtual instants, and every dispatch is appended to a
//! transcript. [`replay_serial`] re-executes that transcript serially
//! through the *same* shared `MergedSelection` path and must reproduce
//! the server's summed ledger **bit for bit** — the concurrent-session
//! extension of the scalar = columnar = parallel invariant.
//! (Callers comparing a serve run against its replay must restore the
//! buffer pool to the same starting state first — `flush_cache`, plus
//! `warm_up` for warm comparisons — because the disk profile's
//! warm-reread counter is stateful.)

use std::collections::BTreeMap;

use eco_core::{EcoDb, ServerError};
use eco_simhw::machine::MachineConfig;
use eco_simhw::opensys::{OpenSystemMeasurement, OpenSystemRun};
use eco_simhw::trace::{Ledger, WorkTrace};

use crate::admission::should_shed;
use crate::batcher::{
    dedup_batch, CommitBatcher, Dispatch, DispatchKind, OnlineBatcher, Pending, PendingCommit,
};
use crate::session::{Request, SessionId, SessionOutcome, Statement};

/// Scheduler tunables.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Cores the merged statements run across (morsel-parallel).
    pub workers: usize,
    /// QED batch threshold; 1 disables batching (every selection
    /// dispatches alone — the admission baseline).
    pub threshold: usize,
    /// Delay budget: the oldest queued selection is never held longer
    /// than this before a forced drain.
    pub max_delay_s: f64,
    /// Backlog cap: arrivals finding this many selections already
    /// queued are shed with [`ServerError::Shed`].
    pub max_backlog: usize,
    /// Machine configuration bursts and idle gaps are priced under.
    pub machine: MachineConfig,
    /// Short-circuit the merged scan's disjoint predicates (the QED
    /// default) or evaluate exhaustively.
    pub short_circuit: bool,
    /// Fault-pressure degradation: after this many *consecutive*
    /// I/O-failed merged dispatches, the effective batch threshold is
    /// doubled — fewer, larger dispatches amortize retry-priced I/O and
    /// push more arrivals into the backlog cap's shedding path — until
    /// a dispatch succeeds again. `usize::MAX` disables degradation.
    pub fault_pressure_limit: usize,
    /// Group-commit threshold: DML statements stage their write-ahead
    /// log records without fsyncing, and durability acks batch through
    /// the *same* `WorkloadManager` threshold/deadline policy the read
    /// path uses for QED — one block-rounded fsync covers the whole
    /// group (the delay budget is [`ServerConfig::max_delay_s`], shared
    /// with the read batcher). `1` disables grouping: every DML
    /// statement fsyncs inside its own trace — the per-statement-
    /// durability baseline that
    /// `group_commit_fsyncs_once_per_group_and_halves_joules_per_txn`
    /// (`tests/integration_server.rs`) compares against.
    pub commit_threshold: usize,
}

impl ServerConfig {
    /// Online QED batching at `threshold` across `workers` cores;
    /// 1 s delay budget, no backlog cap.
    pub fn batched(workers: usize, threshold: usize) -> Self {
        Self {
            workers,
            threshold,
            max_delay_s: 1.0,
            max_backlog: usize::MAX,
            machine: MachineConfig::stock(),
            short_circuit: true,
            fault_pressure_limit: 3,
            commit_threshold: 8,
        }
    }

    /// The no-batching baseline: every selection dispatches alone.
    pub fn unbatched(workers: usize) -> Self {
        Self::batched(workers, 1)
    }

    /// Adopt an advisor-planned admission operating point.
    pub fn with_admission(mut self, plan: &crate::admission::AdmissionPlan) -> Self {
        self.threshold = plan.threshold;
        self.max_backlog = plan.max_backlog;
        self
    }
}

/// Everything a serve run produced.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// One outcome per input request, in input order.
    pub outcomes: Vec<SessionOutcome>,
    /// The replayable dispatch transcript, in dispatch order.
    pub dispatches: Vec<Dispatch>,
    /// End-to-end open-system pricing (bursts + idle gaps).
    pub measurement: OpenSystemMeasurement,
    /// The server's summed ledger over every dispatched statement.
    pub ledger: Ledger,
    /// Per-session forked ledgers (exact shares of each dispatch).
    pub session_ledgers: BTreeMap<SessionId, Ledger>,
    /// Requests that completed.
    pub served: usize,
    /// Requests shed by admission control.
    pub shed: usize,
    /// Requests rejected as malformed.
    pub failed: usize,
    /// Dispatches that failed with a typed I/O error (injected or real
    /// storage faults). Their member sessions are counted in `failed`.
    pub io_failed: usize,
    /// True when sustained fault pressure tripped degraded mode at any
    /// point during the run (see [`ServerConfig::fault_pressure_limit`]).
    pub degraded: bool,
}

impl ServeReport {
    /// CPU joules per completed query.
    pub fn joules_per_query(&self) -> f64 {
        if self.served > 0 {
            self.measurement.cpu_joules / self.served as f64
        } else {
            0.0
        }
    }

    /// Wall joules per completed query.
    pub fn wall_joules_per_query(&self) -> f64 {
        if self.served > 0 {
            self.measurement.wall_joules / self.served as f64
        } else {
            0.0
        }
    }

    /// Completed queries per second of served makespan.
    pub fn queries_per_second(&self) -> f64 {
        if self.measurement.makespan_s > 0.0 {
            self.served as f64 / self.measurement.makespan_s
        } else {
            0.0
        }
    }

    /// Mean open-system response time over completed queries.
    pub fn avg_response_s(&self) -> f64 {
        let (sum, n) = self.fold_completed(|r, _| r);
        if n > 0 {
            sum / n as f64
        } else {
            0.0
        }
    }

    /// Mean queueing (accumulation) delay over completed queries.
    pub fn avg_queue_delay_s(&self) -> f64 {
        let (sum, n) = self.fold_completed(|_, q| q);
        if n > 0 {
            sum / n as f64
        } else {
            0.0
        }
    }

    fn fold_completed(&self, pick: impl Fn(f64, f64) -> f64) -> (f64, usize) {
        let mut sum = 0.0;
        let mut n = 0;
        for o in &self.outcomes {
            if let SessionOutcome::Completed {
                response_s,
                queue_delay_s,
                ..
            } = o
            {
                sum += pick(*response_s, *queue_delay_s);
                n += 1;
            }
        }
        (sum, n)
    }

    /// Merge all per-session ledgers back together. Equal to
    /// [`ServeReport::ledger`] by construction — exposed so tests can
    /// enforce it.
    pub fn merged_session_ledger(&self) -> Ledger {
        self.session_ledgers.values().sum()
    }

    /// True when the per-session fork/merge round trip is exact.
    pub fn ledger_identity(&self) -> bool {
        self.merged_session_ledger() == self.ledger
    }
}

/// The eco-server: a database plus scheduler tunables.
#[derive(Debug)]
pub struct EcoServer<'a> {
    db: &'a EcoDb,
    cfg: ServerConfig,
}

impl<'a> EcoServer<'a> {
    /// A server over `db`.
    pub fn new(db: &'a EcoDb, cfg: ServerConfig) -> Self {
        assert!(cfg.workers >= 1, "need at least one worker core");
        assert!(cfg.threshold >= 1, "threshold must be at least 1");
        Self { db, cfg }
    }

    /// Serve a set of session requests to completion. Requests are
    /// processed in (arrival time, input index) order; the returned
    /// outcomes are in input order.
    pub fn serve(&self, requests: &[Request]) -> ServeReport {
        let cfg = &self.cfg;
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by(|&a, &b| {
            requests[a]
                .arrival_s
                .total_cmp(&requests[b].arrival_s)
                .then(a.cmp(&b))
        });

        let mc = self.db.multicore(cfg.workers);
        let mut run = OpenSystemRun::new(&mc, cfg.machine);
        let mut state = ServeState {
            now: 0.0,
            outcomes: vec![None; requests.len()],
            dispatches: Vec::new(),
            ledger: Ledger::new(),
            session_ledgers: BTreeMap::new(),
            shed: 0,
            failed: 0,
            io_failed: 0,
            consecutive_io: 0,
            degraded: false,
        };
        let mut batcher = OnlineBatcher::new(cfg.threshold, cfg.max_delay_s);
        let mut commits = CommitBatcher::new(cfg.commit_threshold, cfg.max_delay_s);

        for idx in order {
            let r = &requests[idx];
            // Deadline drains (read batches and commit groups) that
            // fire before this arrival, earliest first.
            loop {
                let sel = batcher.oldest_deadline();
                let com = commits.oldest_deadline();
                let (deadline, is_selection) = match (sel, com) {
                    (None, None) => break,
                    (Some(a), None) => (a, true),
                    (None, Some(b)) => (b, false),
                    (Some(a), Some(b)) if a <= b => (a, true),
                    (_, Some(b)) => (b, false),
                };
                if deadline > r.arrival_s {
                    break;
                }
                let t = deadline.max(state.now);
                if is_selection {
                    let d = dedup_batch(batcher.drain(), t);
                    self.dispatch_merged(d, &mut run, &mut state);
                    self.retune_for_fault_pressure(&mut batcher, &state);
                } else {
                    self.dispatch_commit(commits.drain(), t, &mut run, &mut state);
                }
            }
            match &r.statement {
                Statement::Selection(q) => {
                    if should_shed(batcher.pending(), cfg.max_backlog) {
                        state.outcomes[idx] = Some(SessionOutcome::Rejected {
                            session: r.session,
                            arrival_s: r.arrival_s,
                            error: ServerError::Shed {
                                queued: batcher.pending(),
                            },
                        });
                        state.shed += 1;
                        continue;
                    }
                    let p = Pending {
                        request: idx,
                        session: r.session,
                        arrival_s: r.arrival_s,
                        query: *q,
                    };
                    if let Some(batch) = batcher.submit(p) {
                        let t = r.arrival_s.max(state.now);
                        let d = dedup_batch(batch, t);
                        self.dispatch_merged(d, &mut run, &mut state);
                        self.retune_for_fault_pressure(&mut batcher, &state);
                    }
                }
                Statement::Sql(sql) => {
                    let t = r.arrival_s.max(state.now);
                    if let Some(group) =
                        self.dispatch_sql(idx, r, sql, t, &mut run, &mut state, &mut commits)
                    {
                        let t = state.now;
                        self.dispatch_commit(group, t, &mut run, &mut state);
                    }
                }
            }
        }
        // End of input: the last partial read batch drains at its
        // deadline, then the last staged commit group fsyncs.
        if batcher.pending() > 0 {
            let deadline = batcher.oldest_deadline().unwrap_or(state.now);
            let t = deadline.max(state.now);
            let d = dedup_batch(batcher.drain(), t);
            self.dispatch_merged(d, &mut run, &mut state);
        }
        if commits.pending() > 0 {
            let deadline = commits.oldest_deadline().unwrap_or(state.now);
            let t = deadline.max(state.now);
            self.dispatch_commit(commits.drain(), t, &mut run, &mut state);
        }

        let served = state
            .outcomes
            .iter()
            .filter(|o| matches!(o, Some(SessionOutcome::Completed { .. })))
            .count();
        ServeReport {
            outcomes: state
                .outcomes
                .into_iter()
                .map(|o| match o {
                    Some(o) => o,
                    None => unreachable!("every request resolves to an outcome"),
                })
                .collect(),
            dispatches: state.dispatches,
            measurement: run.finish(),
            ledger: state.ledger,
            session_ledgers: state.session_ledgers,
            served,
            shed: state.shed,
            failed: state.failed,
            io_failed: state.io_failed,
            degraded: state.degraded,
        }
    }

    /// Apply the fault-pressure policy after a merged dispatch: once
    /// [`ServerConfig::fault_pressure_limit`] consecutive dispatches
    /// have failed with I/O errors, double the batch threshold (fewer,
    /// larger dispatches under a fault storm); restore the configured
    /// operating point as soon as a dispatch succeeds again.
    fn retune_for_fault_pressure(&self, batcher: &mut OnlineBatcher, state: &ServeState) {
        if self.cfg.fault_pressure_limit == usize::MAX {
            return;
        }
        let want = if state.consecutive_io >= self.cfg.fault_pressure_limit {
            self.cfg.threshold.saturating_mul(2)
        } else {
            self.cfg.threshold
        };
        if batcher.threshold() != want {
            batcher.set_threshold(want);
        }
    }

    /// Execute a merged dispatch: advance the clock (pricing the idle
    /// gap), run the distinct-predicate scan morsel-parallel through
    /// the shared `MergedSelection` path, price the burst, and split
    /// rows, response times and exact ledger shares back per member.
    fn dispatch_merged(&self, d: Dispatch, run: &mut OpenSystemRun, state: &mut ServeState) {
        let cfg = &self.cfg;
        let queries = match &d.kind {
            DispatchKind::Merged(qs) => qs,
            _ => unreachable!("merged dispatch carries queries"),
        };
        match self
            .db
            .try_trace_merged_selection_cores(queries, cfg.short_circuit, cfg.workers)
        {
            Ok((split, core_traces)) => {
                state.consecutive_io = 0;
                if d.dispatch_s > state.now {
                    run.idle(d.dispatch_s - state.now);
                }
                state.now = d.dispatch_s;
                let m = run.burst(&core_traces);
                state.now += m.elapsed_s;

                let totals = summed(&core_traces);
                state.ledger.merge(&totals);
                let k = d.members.len();
                for (i, member) in d.members.iter().enumerate() {
                    state
                        .session_ledgers
                        .entry(member.session)
                        .or_default()
                        .merge(&totals.exact_share(i, k));
                    state.outcomes[member.request] = Some(SessionOutcome::Completed {
                        session: member.session,
                        rows: split[member.query_index].clone(),
                        arrival_s: member.arrival_s,
                        dispatch_s: d.dispatch_s,
                        response_s: state.now - member.arrival_s,
                        queue_delay_s: d.dispatch_s - member.arrival_s,
                    });
                }
                state.dispatches.push(d);
            }
            Err(e) => {
                // A malformed batch — or one whose scan hit a permanent
                // storage fault — rejects its members with the typed
                // error; nothing ran, nothing is priced (a failed
                // session's trace is never merged into the ledger), and
                // the scheduler keeps going. Sustained I/O failures feed
                // the fault-pressure counter driving degraded mode.
                if matches!(e, ServerError::Io(_)) {
                    state.io_failed += 1;
                    state.consecutive_io += 1;
                    if state.consecutive_io >= self.cfg.fault_pressure_limit {
                        state.degraded = true;
                    }
                }
                for member in &d.members {
                    state.outcomes[member.request] = Some(SessionOutcome::Rejected {
                        session: member.session,
                        arrival_s: member.arrival_s,
                        error: e.clone(),
                    });
                    state.failed += 1;
                }
            }
        }
    }

    /// Execute a solo SQL dispatch. A compile failure rejects only the
    /// submitting session and charges nothing. With group commit
    /// enabled ([`ServerConfig::commit_threshold`] > 1) a DML statement
    /// stages its log records without fsyncing and its durability ack
    /// is queued on the commit batcher — the returned group, if any, is
    /// the commit batch the submission filled (the caller dispatches
    /// it).
    #[allow(clippy::too_many_arguments)]
    fn dispatch_sql(
        &self,
        idx: usize,
        r: &Request,
        sql: &str,
        t: f64,
        run: &mut OpenSystemRun,
        state: &mut ServeState,
        commits: &mut CommitBatcher,
    ) -> Option<Vec<PendingCommit>> {
        let grouped = self.cfg.commit_threshold > 1;
        let result = if grouped {
            self.db.try_trace_sql_deferred(sql)
        } else {
            self.db
                .try_trace_sql(sql)
                .map(|(rows, trace)| (rows, trace, false))
        };
        match result {
            Ok((rows, trace, staged)) => {
                if t > state.now {
                    run.idle(t - state.now);
                }
                state.now = t;
                // The solo statement occupies core 0; the other cores
                // halt through the burst (empty traces).
                let mut core_traces = vec![WorkTrace::new(); self.cfg.workers];
                core_traces[0] = trace;
                let m = run.burst(&core_traces);
                state.now += m.elapsed_s;

                let totals = summed(&core_traces);
                state.ledger.merge(&totals);
                state
                    .session_ledgers
                    .entry(r.session)
                    .or_default()
                    .merge(&totals);
                state.dispatches.push(Dispatch {
                    dispatch_s: t,
                    kind: if staged {
                        DispatchKind::StagedSql(sql.to_string())
                    } else {
                        DispatchKind::Sql(sql.to_string())
                    },
                    members: Vec::new(),
                });
                if staged {
                    // The transaction is applied and visible but not
                    // yet durable: the session's completion is released
                    // by the group commit that fsyncs it.
                    commits.submit(PendingCommit {
                        request: idx,
                        session: r.session,
                        arrival_s: r.arrival_s,
                        dispatch_s: t,
                        staged_s: state.now,
                        rows,
                    })
                } else {
                    state.outcomes[idx] = Some(SessionOutcome::Completed {
                        session: r.session,
                        rows: rows.into(),
                        arrival_s: r.arrival_s,
                        dispatch_s: t,
                        response_s: state.now - r.arrival_s,
                        queue_delay_s: t - r.arrival_s,
                    });
                    None
                }
            }
            Err(e) => {
                state.outcomes[idx] = Some(SessionOutcome::Rejected {
                    session: r.session,
                    arrival_s: r.arrival_s,
                    error: e,
                });
                state.failed += 1;
                None
            }
        }
    }

    /// Execute a group commit: one fsync covering every staged
    /// transaction in the group, priced as v5 log I/O on core 0 and
    /// split exactly across the member sessions. An fsync failure (an
    /// injected [`WalCrash`](eco_simhw::fault::WalCrash) or a crashed
    /// log) rejects the group's members with the typed error — their
    /// transactions were applied but not made durable, exactly the
    /// window the crash-replay equivalence property pins down — and the
    /// server keeps serving reads.
    fn dispatch_commit(
        &self,
        members: Vec<PendingCommit>,
        t: f64,
        run: &mut OpenSystemRun,
        state: &mut ServeState,
    ) {
        if members.is_empty() {
            return;
        }
        match self.db.commit_wal() {
            Ok((_bytes, trace)) => {
                if t > state.now {
                    run.idle(t - state.now);
                }
                state.now = t;
                let mut core_traces = vec![WorkTrace::new(); self.cfg.workers];
                core_traces[0] = trace;
                let m = run.burst(&core_traces);
                state.now += m.elapsed_s;

                let totals = summed(&core_traces);
                state.ledger.merge(&totals);
                let k = members.len();
                for (i, member) in members.into_iter().enumerate() {
                    state
                        .session_ledgers
                        .entry(member.session)
                        .or_default()
                        .merge(&totals.exact_share(i, k));
                    state.outcomes[member.request] = Some(SessionOutcome::Completed {
                        session: member.session,
                        rows: member.rows.into(),
                        arrival_s: member.arrival_s,
                        dispatch_s: member.dispatch_s,
                        response_s: state.now - member.arrival_s,
                        queue_delay_s: member.dispatch_s - member.arrival_s,
                    });
                }
                state.dispatches.push(Dispatch {
                    dispatch_s: t,
                    kind: DispatchKind::Commit,
                    members: Vec::new(),
                });
            }
            Err(e) => {
                for member in &members {
                    state.outcomes[member.request] = Some(SessionOutcome::Rejected {
                        session: member.session,
                        arrival_s: member.arrival_s,
                        error: e.clone(),
                    });
                    state.failed += 1;
                }
            }
        }
    }
}

/// Mutable serve-loop state threaded through dispatch helpers.
struct ServeState {
    now: f64,
    outcomes: Vec<Option<SessionOutcome>>,
    dispatches: Vec<Dispatch>,
    ledger: Ledger,
    session_ledgers: BTreeMap<SessionId, Ledger>,
    shed: usize,
    failed: usize,
    io_failed: usize,
    consecutive_io: usize,
    degraded: bool,
}

/// The summed ledger of one dispatch's per-core traces.
fn summed(traces: &[WorkTrace]) -> Ledger {
    traces.iter().map(WorkTrace::total).sum()
}

/// Re-execute a serve run's dispatch transcript serially — the same
/// statements, in the same order, through the same shared
/// `MergedSelection` path — and return the summed ledger. Must equal
/// the serve run's [`ServeReport::ledger`] bit for bit when the
/// database starts in the same state (see the module docs). For
/// read-only transcripts that means restoring the buffer pool
/// (`flush_cache`, plus `warm_up` for warm comparisons); a transcript
/// carrying DML must replay against a *fresh* database opened with the
/// same profile, scale and seed, because mutations move the table
/// state the statements' scan pricing depends on. Staged statements
/// and group commits replay through the same deferred-durability
/// entry points the serve loop used, so the fsync boundaries — and
/// therefore the block-rounded `log_bytes` — land identically.
pub fn replay_serial(
    db: &EcoDb,
    dispatches: &[Dispatch],
    workers: usize,
    short_circuit: bool,
) -> Ledger {
    let mut total = Ledger::new();
    for d in dispatches {
        match &d.kind {
            DispatchKind::Merged(queries) => {
                let (_, core_traces) = db
                    .try_trace_merged_selection_cores(queries, short_circuit, workers)
                    .unwrap_or_else(|e| panic!("a dispatched batch replays cleanly: {e}"));
                total.merge(&summed(&core_traces));
            }
            DispatchKind::Sql(sql) => {
                let (_, trace) = db
                    .try_trace_sql(sql)
                    .unwrap_or_else(|e| panic!("a dispatched statement replays cleanly: {e}"));
                total.merge(&trace.total());
            }
            DispatchKind::StagedSql(sql) => {
                let (_, trace, _) = db
                    .try_trace_sql_deferred(sql)
                    .unwrap_or_else(|e| panic!("a staged statement replays cleanly: {e}"));
                total.merge(&trace.total());
            }
            DispatchKind::Commit => {
                let (_, trace) = db
                    .commit_wal()
                    .unwrap_or_else(|e| panic!("a group commit replays cleanly: {e}"));
                total.merge(&trace.total());
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_core::{EngineProfile, Query};
    use eco_tpch::QedQuery;

    fn db() -> EcoDb {
        EcoDb::tpch(EngineProfile::MemoryEngine, 0.002)
    }

    fn selection(idx: u64, arrival_s: f64, quantity: i64) -> Request {
        Request {
            session: SessionId(idx),
            arrival_s,
            statement: Statement::Selection(QedQuery { quantity }),
        }
    }

    #[test]
    fn batched_serve_completes_every_session_with_correct_rows() {
        let db = db();
        let requests: Vec<Request> = (0..12)
            .map(|i| selection(i, i as f64 * 1e-4, (i as i64 % 5) + 1))
            .collect();
        let server = EcoServer::new(&db, ServerConfig::batched(2, 4));
        let report = server.serve(&requests);
        assert_eq!(report.served, 12);
        assert_eq!(report.shed, 0);
        assert_eq!(report.failed, 0);
        assert_eq!(report.dispatches.len(), 3, "12 sessions / threshold 4");
        for (r, o) in requests.iter().zip(&report.outcomes) {
            match o {
                SessionOutcome::Completed { session, rows, .. } => {
                    assert_eq!(*session, r.session);
                    let Statement::Selection(q) = &r.statement else {
                        unreachable!()
                    };
                    let (want, _) = db.trace(&Query::Selection(q), 1).unwrap();
                    assert_eq!(*rows, want, "session {session:?} rows");
                }
                other => panic!("expected completion, got {other:?}"),
            }
        }
    }

    #[test]
    fn members_of_a_dispatch_share_one_decode() {
        let db = db();
        // Sessions 0 and 2 deduplicate onto one predicate; 1 has its
        // own; 3 arrives in the next dispatch.
        let requests: Vec<Request> = [5, 9, 5, 5]
            .iter()
            .enumerate()
            .map(|(i, &q)| selection(i as u64, i as f64 * 1e-4, q))
            .collect();
        let report = EcoServer::new(&db, ServerConfig::batched(2, 3)).serve(&requests);
        assert_eq!(report.dispatches.len(), 2);
        let copy = report.clone();
        let rows = |report: &ServeReport, i: usize| match &report.outcomes[i] {
            SessionOutcome::Completed { rows, .. } => rows.clone(),
            other => panic!("expected completion, got {other:?}"),
        };
        let [a, b, c, d] = [0, 1, 2, 3].map(|i| rows(&report, i));
        assert!([&a, &b, &c, &d].iter().all(|r| !r.is_decoded()));
        let want = db
            .trace(&Query::Selection(&QedQuery { quantity: 5 }), 1)
            .unwrap()
            .0
            .into_tuples();
        assert_eq!(a.len(), want.len(), "counted before any decode");
        assert!(!a.is_decoded());

        // Comparing with rows in hand reads the scan's columns in place.
        assert_eq!(a, want);
        assert!(!a.is_decoded());
        // One read decodes the dispatch: for the deduplicated member,
        // for the member with another predicate, and for the cloned
        // report — but not for the next dispatch.
        assert_eq!(a.tuples(), want);
        assert!(b.is_decoded() && c.is_decoded() && !d.is_decoded());
        assert_eq!(a.as_ptr(), c.as_ptr(), "deduplicated members share rows");
        assert_ne!(a.as_ptr(), b.as_ptr());
        assert_eq!(rows(&copy, 0).as_ptr(), a.as_ptr(), "a cloned report too");
        assert_eq!(d, want);
        assert_ne!(d.as_ptr(), a.as_ptr());
    }

    #[test]
    fn serve_ledger_is_bit_identical_to_serial_replay() {
        let db = db();
        let requests: Vec<Request> = (0..20)
            .map(|i| selection(i, i as f64 * 1e-4, (i as i64 % 7) + 1))
            .collect();
        let server = EcoServer::new(&db, ServerConfig::batched(3, 8));
        let report = server.serve(&requests);
        assert!(report.ledger_identity(), "session fork/merge must be exact");
        let replay = replay_serial(&db, &report.dispatches, 3, true);
        assert_eq!(report.ledger, replay, "serve vs serial replay");
    }

    #[test]
    fn a_malformed_statement_rejects_one_session_not_the_server() {
        let db = db();
        let requests = vec![
            selection(0, 0.0, 5),
            Request {
                session: SessionId(1),
                arrival_s: 1e-4,
                statement: Statement::Sql("SELEC oops".to_string()),
            },
            selection(2, 2e-4, 9),
        ];
        let server = EcoServer::new(&db, ServerConfig::batched(2, 2));
        let report = server.serve(&requests);
        assert_eq!(report.served, 2);
        assert_eq!(report.failed, 1);
        assert!(matches!(
            &report.outcomes[1],
            SessionOutcome::Rejected {
                error: ServerError::Sql(_),
                ..
            }
        ));
        assert!(report.outcomes[0].is_completed());
        assert!(report.outcomes[2].is_completed());
    }

    #[test]
    fn backlog_cap_sheds_with_a_typed_error() {
        let db = db();
        // Threshold high, cap low: the 3rd..nth simultaneous arrivals
        // find a full backlog and are shed.
        let requests: Vec<Request> = (0..6).map(|i| selection(i, 0.0, i as i64 + 1)).collect();
        let mut cfg = ServerConfig::batched(1, 10);
        cfg.max_backlog = 2;
        let report = EcoServer::new(&db, cfg).serve(&requests);
        assert_eq!(report.shed, 4);
        assert_eq!(report.served, 2);
        assert!(matches!(
            &report.outcomes[2],
            SessionOutcome::Rejected {
                error: ServerError::Shed { queued: 2 },
                ..
            }
        ));
        // The queued pair still drains and completes.
        assert!(report.outcomes[0].is_completed());
        assert!(report.outcomes[1].is_completed());
    }

    #[test]
    fn response_time_includes_accumulation_delay() {
        let db = db();
        // Two arrivals 10 ms apart, threshold 2: the first waits for
        // the second before the batch dispatches.
        let requests = vec![selection(0, 0.0, 3), selection(1, 0.01, 4)];
        let report = EcoServer::new(&db, ServerConfig::batched(1, 2)).serve(&requests);
        match &report.outcomes[0] {
            SessionOutcome::Completed {
                queue_delay_s,
                response_s,
                ..
            } => {
                assert!(
                    (*queue_delay_s - 0.01).abs() < 1e-12,
                    "first query queues until the second arrives, got {queue_delay_s}"
                );
                assert!(response_s > queue_delay_s);
            }
            other => panic!("expected completion, got {other:?}"),
        }
        // The idle gap before the batch was priced, not skipped.
        assert!(report.measurement.idle_s > 0.0);
        assert!(report.measurement.makespan_s > 0.01);
    }

    #[test]
    fn sustained_fault_pressure_degrades_instead_of_crashing() {
        use eco_simhw::fault::FaultPlan;
        let db = EcoDb::tpch(EngineProfile::CommercialDisk, 0.002);
        // Saturate the fault plan: every cold lineitem page faults, and
        // the ~15% permanent share guarantees at least one unreadable
        // page, so every merged scan fails with a typed Io error.
        db.set_fault_plan(FaultPlan::new(77, 1_000_000));
        db.flush_cache();
        let requests: Vec<Request> = (0..8)
            .map(|i| selection(i, i as f64 * 1e-4, (i as i64 % 4) + 1))
            .collect();
        let mut cfg = ServerConfig::batched(2, 1);
        cfg.fault_pressure_limit = 2;
        let report = EcoServer::new(&db, cfg).serve(&requests);
        assert_eq!(report.served, 0, "permanent fault fails every scan");
        assert_eq!(report.failed, 8);
        assert!(report.io_failed >= 2);
        assert!(report.degraded, "consecutive Io failures trip degradation");
        // Degraded mode doubled the threshold: later rejections arrive
        // in merged pairs, so there are fewer failed dispatches than
        // sessions (2 solo + 3 pairs instead of 8 solos).
        assert!(report.io_failed < 8, "degradation batched the failures");
        for o in &report.outcomes {
            assert!(matches!(
                o,
                SessionOutcome::Rejected {
                    error: ServerError::Io(_),
                    ..
                }
            ));
        }
        // Recovery: clear the plan, reboot the pool, and the same
        // server serves the same sessions in full.
        db.set_fault_plan(FaultPlan::none());
        db.flush_cache();
        let healthy = EcoServer::new(&db, cfg).serve(&requests);
        assert_eq!(healthy.served, 8);
        assert_eq!(healthy.io_failed, 0);
        assert!(!healthy.degraded);
        assert!(healthy.ledger_identity());
    }

    #[test]
    fn transient_faults_retry_to_completion_with_priced_backoff() {
        use eco_simhw::fault::FaultPlan;
        let db = EcoDb::tpch(EngineProfile::CommercialDisk, 0.002);
        // A low-rate plan: seed 3 at 2% page-fault rate happens to
        // inject only recoverable faults on lineitem at this scale, so
        // every session completes — but the v2 retry classes are
        // charged and split across sessions exactly.
        db.set_fault_plan(FaultPlan::new(3, 20_000));
        db.flush_cache();
        let requests: Vec<Request> = (0..6)
            .map(|i| selection(i, i as f64 * 1e-4, (i as i64 % 3) + 1))
            .collect();
        let report = EcoServer::new(&db, ServerConfig::batched(2, 3)).serve(&requests);
        assert_eq!(report.served, 6, "transient faults recover via retries");
        assert!(!report.degraded);
        assert!(report.ledger_identity(), "v2 classes split exactly too");
        assert!(
            report.ledger.without_schema(2) != report.ledger,
            "injected faults must leave a ledger trail"
        );
    }

    fn dml(idx: u64, arrival_s: f64, key: i64) -> Request {
        Request {
            session: SessionId(idx),
            arrival_s,
            statement: Statement::Sql(format!("INSERT INTO region VALUES ({key}, 'R{key}', 'c')")),
        }
    }

    #[test]
    fn group_commit_batches_dml_fsyncs_and_keeps_ledger_identity() {
        // Per-statement durability: every DML fsyncs alone.
        let db_solo = db();
        let requests: Vec<Request> = (0..8)
            .map(|i| dml(i, i as f64 * 1e-4, 300 + i as i64))
            .collect();
        let mut solo_cfg = ServerConfig::batched(2, 4);
        solo_cfg.commit_threshold = 1;
        let solo = EcoServer::new(&db_solo, solo_cfg).serve(&requests);
        assert_eq!(solo.served, 8);
        assert_eq!(solo.ledger.disk.log_ios, 8, "one fsync per statement");
        assert!(solo.ledger_identity());

        // Group commit: the same eight statements share two fsyncs.
        let db_grouped = db();
        let mut cfg = ServerConfig::batched(2, 4);
        cfg.commit_threshold = 4;
        let grouped = EcoServer::new(&db_grouped, cfg).serve(&requests);
        assert_eq!(grouped.served, 8, "durability acks complete every session");
        assert_eq!(grouped.ledger.disk.log_ios, 2, "8 txns / group of 4");
        assert!(
            grouped.ledger.disk.log_bytes < solo.ledger.disk.log_bytes,
            "batched fsyncs push fewer block-rounded bytes: {} vs {}",
            grouped.ledger.disk.log_bytes,
            solo.ledger.disk.log_bytes
        );
        assert!(grouped.ledger_identity(), "commit shares split exactly");
        // Both servers applied the same mutations.
        let (a, _) = db_solo
            .try_trace_sql("SELECT r_regionkey FROM region WHERE r_regionkey >= 300")
            .expect("select");
        let (b, _) = db_grouped
            .try_trace_sql("SELECT r_regionkey FROM region WHERE r_regionkey >= 300")
            .expect("select");
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);

        // The transcript records the fsync boundaries and replays to a
        // bit-identical ledger on a fresh database.
        let commits = grouped
            .dispatches
            .iter()
            .filter(|d| matches!(d.kind, DispatchKind::Commit))
            .count();
        assert_eq!(commits, 2);
        let fresh = db();
        let replay = replay_serial(&fresh, &grouped.dispatches, 2, true);
        assert_eq!(grouped.ledger, replay, "serve vs serial replay with DML");
    }

    #[test]
    fn commit_deadline_releases_a_lone_transaction() {
        let db = db();
        let mut cfg = ServerConfig::batched(1, 4);
        cfg.commit_threshold = 64;
        cfg.max_delay_s = 0.005;
        // One DML arrival, then a selection far later: the staged
        // transaction must not wait for a commit group that never
        // fills.
        let requests = vec![dml(0, 0.0, 400), selection(1, 1.0, 4)];
        let report = EcoServer::new(&db, cfg).serve(&requests);
        assert_eq!(report.served, 2);
        match &report.outcomes[0] {
            SessionOutcome::Completed { response_s, .. } => {
                assert!(
                    *response_s >= 0.005,
                    "the ack waits for the deadline-drained commit, got {response_s}"
                );
                assert!(*response_s < 0.5, "but not for the far-future arrival");
            }
            other => panic!("expected completion, got {other:?}"),
        }
        assert_eq!(report.ledger.disk.log_ios, 1);
        assert!(report.ledger_identity());
    }

    #[test]
    fn wal_crash_rejects_writers_with_typed_errors_and_reads_survive() {
        use eco_simhw::fault::{FaultPlan, TornTail, WalCrash};
        let db = db();
        // The log dies on its 4th append: txn 1 (2 records) commits,
        // txn 2's commit marker is the 4th append and dies.
        db.set_fault_plan(
            FaultPlan::none().with_wal_crash(WalCrash::KillAfterRecords {
                records: 3,
                torn: TornTail::MidHeader,
            }),
        );
        let requests = vec![
            dml(0, 0.0, 500),
            dml(1, 1e-4, 501),
            dml(2, 2e-4, 502),
            selection(3, 3e-4, 7),
        ];
        let mut cfg = ServerConfig::batched(1, 1);
        cfg.commit_threshold = 1;
        let report = EcoServer::new(&db, cfg).serve(&requests);
        // First writer commits; the second dies at its commit marker;
        // the third finds the log crashed. The read still serves.
        assert_eq!(report.served, 2);
        assert_eq!(report.failed, 2);
        assert!(matches!(
            &report.outcomes[1],
            SessionOutcome::Rejected {
                error: ServerError::Wal(_),
                ..
            }
        ));
        assert!(matches!(
            &report.outcomes[2],
            SessionOutcome::Rejected {
                error: ServerError::Wal(_),
                ..
            }
        ));
        assert!(report.outcomes[3].is_completed(), "reads keep serving");
        assert!(report.ledger_identity());
    }

    #[test]
    fn deadline_drain_releases_a_stale_partial_batch() {
        let db = db();
        let mut cfg = ServerConfig::batched(1, 50);
        cfg.max_delay_s = 0.005;
        // One early arrival, one far later: the first must not wait for
        // a full batch that never forms.
        let requests = vec![selection(0, 0.0, 3), selection(1, 1.0, 4)];
        let report = EcoServer::new(&db, cfg).serve(&requests);
        assert_eq!(report.served, 2);
        assert_eq!(report.dispatches.len(), 2, "deadline split the batch");
        match &report.outcomes[0] {
            SessionOutcome::Completed { dispatch_s, .. } => {
                assert!(
                    (*dispatch_s - 0.005).abs() < 1e-12,
                    "drained at the delay budget, got {dispatch_s}"
                );
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }
}
