//! Sessions, statements and per-session energy ledgers.
//!
//! A *session* is one client connection submitting statements over
//! time. The server executes merged batches on behalf of many sessions
//! at once, so energy attribution needs a rule: each dispatched batch's
//! [`Ledger`](eco_simhw::trace::Ledger) (every charge class, the
//! round-trip gap included) is split **exactly** across its member
//! sessions by [`Ledger::exact_share`](eco_simhw::trace::Ledger::exact_share)
//! — integer counts are divided with the remainder spread over the
//! first members — so the sum of all per-session ledgers reproduces the
//! server's summed ledger *bit for bit*. This extends the
//! ledger-identity invariant that guards every reproduced figure
//! (scalar = columnar = parallel) to the concurrent-session axis.

use eco_core::ServerError;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_accessor_types_non_batchable_statements() {
        let sel = Statement::Selection(QedQuery { quantity: 3 });
        assert_eq!(sel.selection().expect("selection").quantity, 3);
        let sql = Statement::Sql("INSERT INTO region VALUES (9, 'x', 'y')".to_string());
        let err = sql.selection().expect_err("SQL is not batchable");
        assert!(matches!(err, ServerError::NotSelection { .. }));
        assert!(err.to_string().contains("not a batchable selection"));
    }
}
