//! The online QED batcher: the offline [`WorkloadManager`] policy
//! applied to live session traffic, plus predicate deduplication.
//!
//! The threshold/drain policy is *the same code* as the offline QED
//! replay — [`WorkloadManager`] is generic over the queued item, so
//! this module queues pending session requests where `qed.rs` queues
//! bare [`QedQuery`]s. One batching policy, two front ends (satellite
//! requirement: no duplicated batch-merge logic).
//!
//! On release the batch is **deduplicated**: sessions frequently ask
//! for the same predicate, and the short-circuiting merged scan
//! requires *disjoint* predicates (the first matching arm claims the
//! row, so a duplicate arm would silently receive no rows). The
//! dispatched statement therefore carries only the distinct queries in
//! first-arrival order, with every member request mapped to its
//! distinct query's index. Deduplication is also where online batching
//! beats the offline figures: `k` sessions sharing `d < k` distinct
//! predicates pay for a `d`-way merged scan but amortize it over `k`
//! responses.

use eco_core::qed::WorkloadManager;
use eco_storage::Tuple;
use eco_tpch::QedQuery;

use crate::session::SessionId;

/// A session request queued in the batcher, waiting for dispatch.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Pending {
    /// Index of the originating request in the serve call's input.
    pub request: usize,
    /// The submitting session.
    pub session: SessionId,
    /// Arrival instant, seconds.
    pub arrival_s: f64,
    /// The selection predicate.
    pub query: QedQuery,
}

/// One member of a dispatched batch: which request it came from and
/// which distinct merged query answers it.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchMember {
    /// Index of the originating request in the serve call's input.
    pub request: usize,
    /// The submitting session.
    pub session: SessionId,
    /// Arrival instant, seconds.
    pub arrival_s: f64,
    /// Index into the dispatch's distinct query list.
    pub query_index: usize,
}

/// What a dispatch executed.
#[derive(Debug, Clone, PartialEq)]
pub enum DispatchKind {
    /// A merged selection over the distinct predicates of a batch.
    Merged(Vec<QedQuery>),
    /// A solo ad-hoc SQL statement, durably executed (any DML fsyncs
    /// inside its own trace — the per-statement-durability baseline).
    Sql(String),
    /// A solo DML statement executed with *deferred* durability: its
    /// log records are staged and applied, but the fsync rides a later
    /// [`DispatchKind::Commit`].
    StagedSql(String),
    /// A group commit: one fsync covering every statement staged since
    /// the previous commit (ledger schema v5 — one `log_ios`,
    /// block-rounded `log_bytes`).
    Commit,
}

/// One unit of work the scheduler dispatched onto the executor. The
/// full dispatch list is a *replayable transcript*: running the same
/// statements serially, in order, through the same shared
/// `MergedSelection` path must reproduce the server's summed ledger
/// bit for bit (see `scheduler::replay_serial`).
#[derive(Debug, Clone, PartialEq)]
pub struct Dispatch {
    /// Dispatch instant on the server clock, seconds.
    pub dispatch_s: f64,
    /// The executed statement(s).
    pub kind: DispatchKind,
    /// The member requests answered by this dispatch.
    pub members: Vec<BatchMember>,
}

/// The online batcher: accumulate selections until the threshold hits
/// or the oldest member's delay budget expires.
#[derive(Debug, Clone)]
pub(crate) struct OnlineBatcher {
    manager: WorkloadManager<Pending>,
    max_delay_s: f64,
}

impl OnlineBatcher {
    /// Batcher releasing at `threshold` queued selections, or after the
    /// oldest has waited `max_delay_s` (the QED delay knob, applied
    /// online as a deadline instead of the offline "accumulation is
    /// free" assumption).
    pub fn new(threshold: usize, max_delay_s: f64) -> Self {
        assert!(max_delay_s >= 0.0, "delay budget must be nonnegative");
        Self {
            manager: WorkloadManager::new(threshold),
            max_delay_s,
        }
    }

    /// Queue a pending request; returns the full batch when the
    /// threshold is reached.
    pub fn submit(&mut self, p: Pending) -> Option<Vec<Pending>> {
        self.manager.submit(p)
    }

    /// Requests currently waiting.
    pub fn pending(&self) -> usize {
        self.manager.pending()
    }

    /// The instant the oldest queued request's delay budget expires
    /// (`None` when the queue is empty).
    pub(crate) fn oldest_deadline(&self) -> Option<f64> {
        self.manager
            .queued()
            .first()
            .map(|p| p.arrival_s + self.max_delay_s)
    }

    /// Force-release whatever is queued (deadline or end-of-input).
    pub fn drain(&mut self) -> Vec<Pending> {
        self.manager.drain()
    }

    /// Batch-release threshold.
    pub fn threshold(&self) -> usize {
        self.manager.threshold()
    }

    /// Retune the release threshold in place (fault-pressure
    /// degradation raises it; recovery restores it). Queued requests
    /// stay queued; the new threshold applies from the next submit.
    pub fn set_threshold(&mut self, threshold: usize) {
        self.manager.set_threshold(threshold);
    }
}

/// A durability ack owed to a session: its DML statement executed,
/// staged its log records and applied them (visible immediately), but
/// the fsync is deferred — the session's completion is released by the
/// group commit that makes its transaction durable.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PendingCommit {
    /// Index of the originating request in the serve call's input.
    pub request: usize,
    /// The submitting session.
    pub session: SessionId,
    /// Arrival instant, seconds.
    pub arrival_s: f64,
    /// When the statement itself dispatched, seconds.
    pub dispatch_s: f64,
    /// When staging finished, seconds — starts the commit deadline.
    pub staged_s: f64,
    /// The statement's result rows (the affected count), held back
    /// until the durability ack.
    pub rows: Vec<Tuple>,
}

/// The group-commit batcher: the *same* [`WorkloadManager`]
/// threshold/deadline policy the QED read path uses, applied to
/// pending fsyncs instead of pending selections. Accumulate staged
/// transactions until `threshold` of them wait, or the oldest has
/// waited out the delay budget; one fsync then covers the whole group.
#[derive(Debug, Clone)]
pub(crate) struct CommitBatcher {
    manager: WorkloadManager<PendingCommit>,
    max_delay_s: f64,
}

impl CommitBatcher {
    /// Batcher releasing a group commit at `threshold` staged
    /// transactions, or once the oldest has waited `max_delay_s`.
    pub fn new(threshold: usize, max_delay_s: f64) -> Self {
        assert!(max_delay_s >= 0.0, "delay budget must be nonnegative");
        Self {
            manager: WorkloadManager::new(threshold),
            max_delay_s,
        }
    }

    /// Queue a staged transaction; returns the full group when the
    /// threshold is reached.
    pub fn submit(&mut self, p: PendingCommit) -> Option<Vec<PendingCommit>> {
        self.manager.submit(p)
    }

    /// Staged transactions waiting for their fsync.
    pub fn pending(&self) -> usize {
        self.manager.pending()
    }

    /// The instant the oldest staged transaction's delay budget
    /// expires (`None` when nothing is staged).
    pub(crate) fn oldest_deadline(&self) -> Option<f64> {
        self.manager
            .queued()
            .first()
            .map(|p| p.staged_s + self.max_delay_s)
    }

    /// Force-release the staged group (deadline or end-of-input).
    pub fn drain(&mut self) -> Vec<PendingCommit> {
        self.manager.drain()
    }
}

/// Turn a released batch into a dispatch: deduplicate predicates in
/// first-arrival order and map each member to its distinct query.
pub(crate) fn dedup_batch(batch: Vec<Pending>, dispatch_s: f64) -> Dispatch {
    let mut queries: Vec<QedQuery> = Vec::new();
    let mut members = Vec::with_capacity(batch.len());
    for p in batch {
        let query_index = match queries.iter().position(|q| *q == p.query) {
            Some(i) => i,
            None => {
                queries.push(p.query);
                queries.len() - 1
            }
        };
        members.push(BatchMember {
            request: p.request,
            session: p.session,
            arrival_s: p.arrival_s,
            query_index,
        });
    }
    Dispatch {
        dispatch_s,
        kind: DispatchKind::Merged(queries),
        members,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(request: usize, arrival_s: f64, quantity: i64) -> Pending {
        Pending {
            request,
            session: SessionId(request as u64),
            arrival_s,
            query: QedQuery { quantity },
        }
    }

    #[test]
    fn threshold_releases_full_batches() {
        let mut b = OnlineBatcher::new(3, 1.0);
        assert!(b.submit(pending(0, 0.0, 5)).is_none());
        assert!(b.submit(pending(1, 0.1, 6)).is_none());
        assert_eq!(b.pending(), 2);
        let batch = b.submit(pending(2, 0.2, 7)).expect("threshold hit");
        assert_eq!(batch.len(), 3);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn oldest_deadline_tracks_the_head_of_queue() {
        let mut b = OnlineBatcher::new(10, 0.5);
        assert_eq!(b.oldest_deadline(), None);
        b.submit(pending(0, 2.0, 5));
        b.submit(pending(1, 2.4, 6));
        assert_eq!(b.oldest_deadline(), Some(2.5));
        let drained = b.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(b.oldest_deadline(), None);
    }

    #[test]
    fn commit_batcher_groups_fsyncs_on_threshold_and_deadline() {
        let staged = |request: usize, staged_s: f64| PendingCommit {
            request,
            session: SessionId(request as u64),
            arrival_s: staged_s,
            dispatch_s: staged_s,
            staged_s,
            rows: Vec::new(),
        };
        let mut c = CommitBatcher::new(3, 0.25);
        assert_eq!(c.oldest_deadline(), None);
        assert!(c.submit(staged(0, 1.0)).is_none());
        assert!(c.submit(staged(1, 1.1)).is_none());
        assert_eq!(c.pending(), 2);
        assert_eq!(c.oldest_deadline(), Some(1.25));
        let group = c.submit(staged(2, 1.2)).expect("threshold hit");
        assert_eq!(group.len(), 3, "one fsync covers the whole group");
        assert_eq!(c.pending(), 0);
        // Deadline path: a lone straggler drains by force.
        assert!(c.submit(staged(3, 2.0)).is_none());
        assert_eq!(c.oldest_deadline(), Some(2.25));
        assert_eq!(c.drain().len(), 1);
    }

    #[test]
    fn dedup_keeps_first_arrival_order_and_maps_members() {
        let batch = vec![
            pending(0, 0.0, 9),
            pending(1, 0.1, 3),
            pending(2, 0.2, 9),
            pending(3, 0.3, 3),
            pending(4, 0.4, 1),
        ];
        let d = dedup_batch(batch, 1.0);
        match &d.kind {
            DispatchKind::Merged(qs) => {
                let quantities: Vec<i64> = qs.iter().map(|q| q.quantity).collect();
                assert_eq!(quantities, vec![9, 3, 1], "distinct, first-arrival order");
            }
            other => panic!("expected merged dispatch, got {other:?}"),
        }
        let idx: Vec<usize> = d.members.iter().map(|m| m.query_index).collect();
        assert_eq!(idx, vec![0, 1, 0, 1, 2]);
        assert_eq!(d.members.len(), 5, "every member kept");
    }
}
