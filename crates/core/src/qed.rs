//! QED — Improved Query Energy-efficiency by Introducing Explicit
//! Delays (paper §4).
//!
//! Queries are delayed into an admission queue; when the queue reaches
//! a threshold the whole batch is merged by predicate disjunction
//! (multi-query optimization), run as one statement, and the result is
//! split back per query in the application. Per-query energy drops
//! (one scan, one round trip, one parse amortized over k queries) while
//! average response time rises (everyone waits for the big query).
//!
//! ## Response-time semantics (the paper is informal here)
//!
//! * **Sequential baseline**: the k queries are issued back-to-back
//!   ("think time is zero"); measured from batch start, query *i*
//!   completes at the sum of the first *i* round-trip+execution times,
//!   so the average response is the mean completion time.
//! * **QED**: batch accumulation time is *not* counted (paper: "we do
//!   not count the time that it takes for the database to collect a
//!   batch of queries"); every query then waits for the merged
//!   execution, and the splitter returns result sets in query order —
//!   query *i* responds at `gap + exec + (i/k)·split`.
//!
//! This is the unique reading consistent with the paper's three
//! remarks: degradation is most severe for the first query in the
//! batch, least for the last, and the first query's degradation grows
//! with batch size.

use eco_simhw::machine::{MachineConfig, PhaseMeasurement};
use eco_simhw::trace::{PhaseKind, WorkTrace};
use eco_storage::RowSet;
use eco_tpch::{qed_workload, QedQuery};

use crate::server::{EcoDb, Query};

/// Measured outcome of one scheme (sequential or QED) over a batch.
#[derive(Debug, Clone, Copy)]
pub struct QedScheme {
    /// Batch size.
    pub batch_size: usize,
    /// Time from batch start to last result, seconds.
    pub total_seconds: f64,
    /// Total CPU energy, joules.
    pub cpu_joules: f64,
    /// Average per-query response time, seconds.
    pub avg_response_s: f64,
    /// Response time of the first query in the batch.
    pub first_response_s: f64,
    /// Response time of the last query in the batch.
    pub last_response_s: f64,
}

impl QedScheme {
    /// Per-query energy, joules.
    pub fn joules_per_query(&self) -> f64 {
        self.cpu_joules / self.batch_size as f64
    }

    /// Per-query EDP: per-query joules × average response seconds.
    pub fn edp(&self) -> f64 {
        self.joules_per_query() * self.avg_response_s
    }

    /// The sequential scheme: query *i* responds at `completions[i]`.
    fn sequential(completions: &[f64], total_seconds: f64, cpu_joules: f64) -> Self {
        Self {
            batch_size: completions.len(),
            total_seconds,
            cpu_joules,
            avg_response_s: completions.iter().sum::<f64>() / completions.len() as f64,
            first_response_s: completions[0],
            last_response_s: completions[completions.len() - 1],
        }
    }

    /// The QED scheme: every query waits `gap_exec` for the merged
    /// statement, then query *i* of k for its share `i/k` of `split`.
    fn merged(k: usize, total_seconds: f64, cpu_joules: f64, gap_exec: f64, split: f64) -> Self {
        let response = |i: usize| gap_exec + split * (i as f64 / k as f64);
        Self {
            batch_size: k,
            total_seconds,
            cpu_joules,
            avg_response_s: gap_exec + split * (k as f64 + 1.0) / (2.0 * k as f64),
            first_response_s: response(1),
            last_response_s: response(k),
        }
    }
}

/// Sequential vs QED comparison for one batch size.
#[derive(Debug, Clone)]
pub struct QedOutcome {
    /// Batch size k.
    pub batch_size: usize,
    /// The sequential baseline.
    pub sequential: QedScheme,
    /// The QED scheme.
    pub qed: QedScheme,
    /// QED/sequential CPU-energy ratio (< 1 saves energy).
    pub energy_ratio: f64,
    /// QED/sequential average-response ratio (> 1 degrades response).
    pub response_ratio: f64,
    /// QED/sequential per-query EDP ratio.
    pub edp_ratio: f64,
    /// Whether QED returned byte-identical results per query.
    pub results_match: bool,
}

/// The two schemes side by side (`results_match`: see
/// [`results_match`]).
fn compare(seq: QedScheme, qed: QedScheme, results_match: bool) -> QedOutcome {
    QedOutcome {
        batch_size: qed.batch_size,
        energy_ratio: qed.cpu_joules / seq.cpu_joules,
        response_ratio: qed.avg_response_s / seq.avg_response_s,
        edp_ratio: qed.edp() / seq.edp(),
        sequential: seq,
        qed,
        results_match,
    }
}

/// Seconds of the client-side split phases (`client`) or of all others.
fn phase_seconds(phases: &[PhaseMeasurement], client: bool) -> f64 {
    let wanted = |p: &&PhaseMeasurement| (p.kind == PhaseKind::ClientCompute) == client;
    phases.iter().filter(wanted).map(|p| p.elapsed_s).sum()
}

/// One sequential selection: its rows and its gap + execute trace.
type Statement = (RowSet, WorkTrace);

/// Whether QED's per-query result sets equal the sequential ones, in
/// order. Both sides stay as they came: on the columnar engine they are
/// views of the same table version, compared by row id in one pass over
/// the merged scan ([`RowSet::all_eq`]), and no row is built.
fn results_match(merged: &[RowSet], sequential: &[RowSet]) -> bool {
    RowSet::all_eq(merged, sequential)
}

/// Run the paper's QED experiment for one batch size under a machine
/// configuration (the paper runs QED "at stock system settings";
/// combining QED with PVC is an extension this API permits).
pub fn run_qed(
    db: &EcoDb,
    batch_size: usize,
    config: MachineConfig,
    short_circuit: bool,
) -> QedOutcome {
    run_qed_sweep(db, &[batch_size], config, short_circuit).remove(0)
}

/// [`run_qed`] at each of `sizes` (Fig 6: 35 to 50) with the sequential
/// baseline executed once: `qed_workload(k)` is a prefix of the largest
/// batch, so that batch's selections are traced once, back to back, and
/// size k prices — and checks its merged results against — the first k
/// of them. On an engine whose statement traces do not depend on what
/// ran before (the memory engine, where Fig 6 runs) each outcome equals
/// [`run_qed`]'s bit for bit; on the disk engine (buffer pool, warm
/// re-read schedule) a size's baseline is the first k statements *of
/// that one pass*, not of a pass of its own.
pub fn run_qed_sweep(
    db: &EcoDb,
    sizes: &[usize],
    config: MachineConfig,
    short_circuit: bool,
) -> Vec<QedOutcome> {
    let Some(&largest) = sizes.iter().max() else {
        return Vec::new();
    };
    let baseline = sequential_statements(db, largest);
    let outcome = |&k: &usize| qed_against(db, &baseline[..k], config, short_circuit);
    sizes.iter().map(outcome).collect()
}

/// `qed_workload(k)` run back to back, one statement per query.
fn sequential_statements(db: &EcoDb, k: usize) -> Vec<Statement> {
    let trace = |q: &QedQuery| {
        let (rows, traces) = db
            .trace(&Query::Selection(q), 1)
            .unwrap_or_else(|e| panic!("a QED selection failed: {e}"));
        (rows, traces.into_iter().collect())
    };
    qed_workload(k).iter().map(trace).collect()
}

/// QED at batch size `baseline.len()` (`sc`: short-circuit the merged
/// predicate) against those sequential statements.
fn qed_against(db: &EcoDb, baseline: &[Statement], config: MachineConfig, sc: bool) -> QedOutcome {
    // Sequential baseline: one trace, so every sum runs in statement order.
    let mut seq_trace = WorkTrace::new();
    for (_, trace) in baseline {
        seq_trace.extend(trace.clone());
    }
    let seq_m = db.price(&seq_trace, config);
    // Query i completes with its execute phase (they alternate gap, exec).
    let mut completions = Vec::with_capacity(baseline.len());
    let mut acc = 0.0;
    for pair in seq_m.phases.chunks(2) {
        for p in pair {
            acc += p.elapsed_s;
        }
        completions.push(acc);
    }
    assert_eq!(completions.len(), baseline.len());
    let seq = QedScheme::sequential(&completions, seq_m.elapsed_s, seq_m.cpu_joules);

    // QED: one merged statement.
    let k = baseline.len();
    let (rows, qed_trace) = db
        .try_trace_merged_selection(&qed_workload(k), sc)
        .unwrap_or_else(|e| panic!("a QED batch failed: {e}"));
    let m = db.price(&qed_trace, config);
    let gap_exec = phase_seconds(&m.phases, false);
    let split = phase_seconds(&m.phases, true);
    let qed = QedScheme::merged(k, m.elapsed_s, m.cpu_joules, gap_exec, split);

    let seq_rows: Vec<RowSet> = baseline.iter().map(|(rows, _)| rows.clone()).collect();
    compare(seq, qed, results_match(&rows, &seq_rows))
}

/// The admission-control queue: delay queries until a batch forms.
/// (The paper assumes the queue "builds up in a master system that is
/// always on" — accumulation time is free from the DBMS's view.)
///
/// Generic over the queued item so the *same* threshold/drain policy
/// runs both the offline replay here (queueing [`QedQuery`]s directly)
/// and the online session batcher in `eco-server` (queueing pending
/// session requests) — one batching policy, two front ends.
#[derive(Debug, Clone)]
pub struct WorkloadManager<T = QedQuery> {
    threshold: usize,
    queue: Vec<T>,
}

impl<T> WorkloadManager<T> {
    /// Manager releasing batches of `threshold` queries.
    pub fn new(threshold: usize) -> Self {
        assert!(threshold >= 1, "threshold must be at least 1");
        Self {
            threshold,
            queue: Vec::new(),
        }
    }

    /// Submit a query; returns a full batch when the threshold is hit.
    pub fn submit(&mut self, q: T) -> Option<Vec<T>> {
        self.queue.push(q);
        if self.queue.len() >= self.threshold {
            Some(std::mem::take(&mut self.queue))
        } else {
            None
        }
    }

    /// Queries currently waiting.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The queued items, oldest first (admission control peeks at the
    /// backlog without releasing it).
    pub fn queued(&self) -> &[T] {
        &self.queue
    }

    /// Force-release whatever is queued (timeout path).
    pub fn drain(&mut self) -> Vec<T> {
        std::mem::take(&mut self.queue)
    }

    /// Batch-release threshold.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Retune the release threshold in place. Queued items stay queued;
    /// the new threshold applies from the next submit. The online
    /// scheduler uses this to *raise* the batch size under sustained
    /// fault pressure (amortizing retry-priced I/O over more members)
    /// and to restore the planned operating point once reads recover.
    pub fn set_threshold(&mut self, threshold: usize) {
        assert!(threshold >= 1, "threshold must be at least 1");
        self.threshold = threshold;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::EngineProfile;
    use eco_storage::{DataChunk, RoutedRows, TableData, Value};
    use std::sync::Arc;

    fn db() -> EcoDb {
        EcoDb::tpch(EngineProfile::MemoryEngine, 0.004)
    }

    /// A view of every row of a copy of `rows`: another snapshot.
    fn view_of(db: &EcoDb, rows: &[eco_storage::Tuple]) -> RowSet {
        let schema = db.catalog().expect("lineitem").schema().clone();
        let data = Arc::new(DataChunk::from_rows(&schema, rows));
        let mut routed = RoutedRows::default();
        (routed.matches_for(&data)).extend((0..rows.len() as u32).map(|row| (row, 0)));
        routed.into_row_sets(1).remove(0)
    }

    /// Mutation check of the in-place comparison: one wrong cell in the
    /// sequential rows fails exactly the batch sizes that contain it.
    #[test]
    fn a_wrong_baseline_cell_fails_every_batch_that_contains_it() {
        let db = db();
        let mut baseline = sequential_statements(&db, 50);
        let verdicts = |baseline: &[Statement]| {
            [35, 40, 45, 50].map(|k| {
                qed_against(&db, &baseline[..k], MachineConfig::stock(), true).results_match
            })
        };
        assert_eq!(verdicts(&baseline), [true; 4]);
        assert!(baseline.iter().all(|(rows, _)| !rows.is_decoded()));
        // Query 42's last row, its comment, in a view of a copy: in
        // batches 45 and 50 only.
        let mut rows = baseline[41].0.clone().into_tuples();
        let row = rows.last_mut().expect("quantity 42 selects rows");
        row[15] = Value::str("not what the scan saw");
        baseline[41].0 = view_of(&db, &rows);
        assert_eq!(verdicts(&baseline), [true, true, false, false]);
        assert!(baseline.iter().all(|(rows, _)| !rows.is_decoded()));
    }

    /// The routing case: merged views of the very table version the
    /// baseline scanned match it by row id, and one row id swapped for
    /// another row of the same quantity — a row the predicate accepts —
    /// is caught.
    #[test]
    fn a_misrouted_row_of_the_right_quantity_fails_the_match() {
        let db = db();
        let k = 40;
        let baseline: Vec<RowSet> = (sequential_statements(&db, k).into_iter())
            .map(|(rows, _)| rows)
            .collect();
        let lineitem = db.catalog().expect("lineitem");
        let TableData::Memory(heap) = &lineitem.data else {
            panic!("the memory engine");
        };
        let qty = lineitem.schema().expect_index("l_quantity");
        let merged = |swap: Option<usize>| {
            let data = heap.columns();
            let mut routed = RoutedRows::default();
            let matches = routed.matches_for(data);
            for (q, query) in qed_workload(k).iter().enumerate() {
                let of_q = (0..data.len() as u32)
                    .filter(|&row| data.value(qty, row as usize) == Value::Int(query.quantity));
                matches.extend(of_q.map(|row| (row, q as u32)));
            }
            matches.sort_unstable();
            if let Some(q) = swap {
                // Query q's first row id becomes its second's.
                let mine: Vec<usize> = (0..matches.len())
                    .filter(|&i| matches[i].1 == q as u32)
                    .collect();
                matches[mine[0]].0 = matches[mine[1]].0;
            }
            routed.into_row_sets(k)
        };
        assert!(results_match(&merged(None), &baseline));
        for q in [0, 17, k - 1] {
            let swapped = merged(Some(q));
            assert!(!results_match(&swapped, &baseline), "query {q}");
            assert!(swapped.iter().all(|rows| !rows.is_decoded()));
        }
        assert!(baseline.iter().all(|rows| !rows.is_decoded()));
    }

    #[test]
    fn fig6_sweep_saves_energy_with_diminishing_returns_and_best_edp_at_50() {
        let outcomes = run_qed_sweep(&db(), &[35, 40, 45, 50], MachineConfig::stock(), true);
        for o in &outcomes {
            assert!(o.results_match, "QED must not change answers");
            assert!(o.energy_ratio < 0.8, "energy ratio {}", o.energy_ratio);
            assert!(o.response_ratio > 1.0, "response {}", o.response_ratio);
            assert!(o.edp_ratio < 1.0, "EDP ratio {}", o.edp_ratio);
        }
        // Paper Fig 6: "there is a diminishing decrease in energy
        // consumption" going 35 → 50.
        let ratios: Vec<f64> = outcomes.iter().map(|o| o.energy_ratio).collect();
        assert!(ratios.is_sorted_by(|a, b| a > b), "{ratios:?}");
        let increments: Vec<f64> = ratios.windows(2).map(|w| w[0] - w[1]).collect();
        for w in increments.windows(2) {
            assert!(w[1] <= w[0] + 0.005, "diminishing returns: {increments:?}");
        }
        // Paper: "the largest batch size (of 50) … translates to the
        // best EDP change." Response-time ratio improves as batches
        // grow (Fig 6 trend).
        let (o35, o50) = (&outcomes[0], &outcomes[3]);
        assert!(o50.edp_ratio < o35.edp_ratio);
        assert!(o50.response_ratio < o35.response_ratio);
    }

    #[test]
    fn first_query_suffers_most() {
        // Degradation (vs its sequential completion) is most severe for
        // the first query, least for the last.
        let sweep = run_qed_sweep(&db(), &[20, 40], MachineConfig::stock(), true);
        let (o, o_big) = (&sweep[0], &sweep[1]);
        let deg_first = o.qed.first_response_s / o.sequential.first_response_s;
        let deg_last = o.qed.last_response_s / o.sequential.last_response_s;
        assert!(
            deg_first > deg_last,
            "first {deg_first} must exceed last {deg_last}"
        );
        // And the first query's degradation grows with batch size.
        let deg_first_big = o_big.qed.first_response_s / o_big.sequential.first_response_s;
        assert!(deg_first_big > deg_first);
    }

    #[test]
    fn workload_manager_batches() {
        let mut wm = WorkloadManager::new(3);
        assert!(wm.submit(QedQuery { quantity: 1 }).is_none());
        assert!(wm.submit(QedQuery { quantity: 2 }).is_none());
        assert_eq!(wm.pending(), 2);
        let batch = wm.submit(QedQuery { quantity: 3 }).expect("batch ready");
        assert_eq!(batch.len(), 3);
        assert_eq!(wm.pending(), 0);
        assert!(wm.submit(QedQuery { quantity: 4 }).is_none());
        assert_eq!(wm.drain().len(), 1);
        assert!(wm.drain().is_empty());
    }

    #[test]
    #[should_panic(expected = "threshold must be at least 1")]
    fn zero_threshold_rejected() {
        let _ = WorkloadManager::<QedQuery>::new(0);
    }
}
