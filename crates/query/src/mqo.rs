//! Multi-query optimization for QED (paper §4).
//!
//! A batch of structurally-identical selection queries — `key_col = vᵢ`
//! over one `Int` column — is merged into *one* scan whose filter is
//! the disjunction of the individual predicates; each matched row is
//! routed to the query (or queries) it belongs to, and an
//! application-side splitter hands every query its own result set
//! ("QED also has a little bit of extra work to do with respect to
//! splitting the result, which … we do in the application logic and
//! include the time and energy cost").
//!
//! # Two paths, one ledger
//!
//! * **Oracle (scalar / batch).** [`MultiFilter`]'s `next` / `next_batch`
//!   evaluate the predicate [`Expr`]s one after another against each row
//!   and emit one *tagged* tuple (query index first) per match;
//!   [`MergedSelection::run`] collects them and [`split_results`] strips
//!   the tag and routes each tuple to its query. This is the reference
//!   the differential tests compare against, and what `EcoDb` runs
//!   under a row engine.
//! * **Production (columnar).** The predicates are compiled once, at
//!   construction, into a key → query-ids routing table. Per chunk, one
//!   table lookup per live row yields the `(row, query)` matches already
//!   in row-major order, and the predicate-evaluation charge is derived
//!   arithmetically (see [`MultiFilter`]). [`MergedSelection::run_split`]
//!   keeps those matches beside the scan's shared columns and returns
//!   one [`RowSet`] view per query — no tag column, no tagged tuple, no
//!   row at all until a caller reads one (then the whole scan is
//!   decoded once, in scan order) — while charging exactly what the
//!   oracle's emit + split charge.
//!   [`Operator::next_chunk`] (tag column + gathered child columns)
//!   stays for generic columnar drivers, on the same routing step.

use std::sync::Arc;

use eco_simhw::trace::OpClass;
use eco_storage::{
    tuple_width, Catalog, ColumnChunk, ColumnData, ColumnType, DataChunk, RoutedRows, RowSet,
    Schema, Tuple, Value,
};
use eco_tpch::QedQuery;

use crate::chunk::Chunk;
use crate::context::ExecCtx;
use crate::expr::Expr;
use crate::ops::{BoxedOp, Operator, SeqScan};
use crate::parallel::{run_morsels, Morsel};

/// Widest key span (`max − min + 1`) the routing table indexes with a
/// dense array (16 KiB of slots — QED's 50 quantities need 200 bytes);
/// wider key sets are binary-searched.
const DENSE_SPAN: u64 = 4096;

/// "No query has this key" in the dense slot array.
const NO_SLOT: u32 = u32::MAX;

/// Stored width of the query tag the oracle prepends to every emitted
/// row (a `Value::Int`): what the server-side result path streams on
/// top of the row itself.
const TAG_BYTES: u64 = 8;

/// What a [`MultiFilter`] and its morsel clones share: the predicates in
/// both of their forms — `Expr`s for the row-engine oracle, the key →
/// query-ids table for the columnar path.
struct Routing {
    /// The column every predicate compares.
    key_col: usize,
    /// Caller's promise that at most one predicate matches a row.
    disjoint: bool,
    /// `key_col = keys[q]`, in query order (the scalar oracle's form).
    predicates: Vec<Expr>,
    /// The distinct keys, ascending; a key's position is its *slot*.
    keys: Vec<i64>,
    /// Slot `s` routes to `qids[starts[s]..starts[s + 1]]`.
    starts: Vec<u32>,
    /// Query ids grouped by slot, ascending — i.e. in predicate order —
    /// within each slot.
    qids: Vec<u32>,
    /// `key − keys[0]` → slot ([`NO_SLOT`] when no query has the key);
    /// empty when the keys span more than [`DENSE_SPAN`].
    dense: Vec<u32>,
}

impl Routing {
    fn new(key_col: usize, keys: &[i64], disjoint: bool) -> Self {
        assert!(!keys.is_empty(), "need at least one predicate");
        let k = u32::try_from(keys.len()).expect("query tags are u32");
        // Stable sort: queries with equal keys stay in predicate order.
        let mut qids: Vec<u32> = (0..k).collect();
        qids.sort_by_key(|&q| keys[q as usize]);
        let mut distinct = Vec::new();
        let mut starts = Vec::new();
        for (pos, &q) in qids.iter().enumerate() {
            let key = keys[q as usize];
            if distinct.last() != Some(&key) {
                distinct.push(key);
                starts.push(pos as u32);
            }
        }
        starts.push(k);

        let lo = distinct[0];
        let span = distinct[distinct.len() - 1].wrapping_sub(lo) as u64;
        let mut dense = Vec::new();
        if span < DENSE_SPAN {
            dense.resize(span as usize + 1, NO_SLOT);
            for (slot, &key) in distinct.iter().enumerate() {
                dense[key.wrapping_sub(lo) as usize] = slot as u32;
            }
        }
        Self {
            key_col,
            disjoint,
            predicates: keys.iter().map(|&v| Expr::col_eq_int(key_col, v)).collect(),
            keys: distinct,
            starts,
            qids,
            dense,
        }
    }

    /// The queries whose key is `key`, in predicate order.
    #[inline]
    fn queries_for(&self, key: i64) -> &[u32] {
        let slot = if self.dense.is_empty() {
            match self.keys.binary_search(&key) {
                Ok(slot) => slot,
                Err(_) => return &[],
            }
        } else {
            // For `key < keys[0]` the difference wraps to at least
            // 2⁶³ − keys[0], which no dense array reaches (its length
            // is max − keys[0] + 1 with max < 2⁶³): never an alias.
            let offset = key.wrapping_sub(self.keys[0]) as u64;
            match usize::try_from(offset).ok().and_then(|o| self.dense.get(o)) {
                Some(&slot) if slot != NO_SLOT => slot as usize,
                _ => return &[],
            }
        };
        &self.qids[self.starts[slot] as usize..self.starts[slot + 1] as usize]
    }

    /// The columnar routing step: append the `(row, query)` matches of
    /// `chunk`'s live rows to `matches`, row-major, and charge the
    /// predicate evaluations the oracle would have performed on them
    /// (see [`MultiFilter`] for the arithmetic).
    fn route_chunk(&self, chunk: &Chunk, ctx: &mut ExecCtx, matches: &mut Vec<(u32, u32)>) {
        let col = chunk.data.column(self.key_col);
        let vals = col
            .data
            .as_ints()
            .unwrap_or_else(|| panic!("merged key column {} is not Int", self.key_col));
        let mask = col.validity.as_deref();
        let stop_at_first = self.disjoint && ctx.short_circuit_or;
        let k = self.predicates.len() as u64;
        let rows = chunk.rows();
        let mut evals = k * rows.len() as u64;
        rows.for_each(|_, i| {
            if mask.is_some_and(|m| !m[i]) {
                return;
            }
            let hits = self.queries_for(vals[i]);
            if stop_at_first {
                if let Some(&first) = hits.first() {
                    // Predicates after the first match are never tried.
                    evals -= k - (u64::from(first) + 1);
                    matches.push((i as u32, first));
                }
            } else {
                matches.extend(hits.iter().map(|&q| (i as u32, q)));
            }
        });
        ctx.charge(OpClass::PredEval, evals);
        ctx.pred_evals += evals;
    }
}

/// Filter a stream against many `key_col = vᵢ` predicates at once,
/// routing each row to the (0-based) index of every predicate it
/// matches.
///
/// When `disjoint` is set and the context short-circuits, evaluation
/// stops at the first matching predicate (sound only when at most one
/// can match — true for QED's distinct `l_quantity` values). Otherwise
/// every predicate is evaluated and a row may fan out to several
/// queries; fan-out rows emit in predicate order (row-major) in scalar,
/// batch and columnar mode alike.
///
/// # Row engines: the oracle
///
/// `next` / `next_batch` evaluate the predicates as [`Expr`]s, one after
/// another per row, and emit tagged tuples.
///
/// # Columnar engine: key routing
///
/// The keys are compiled at construction into a routing table: the
/// distinct keys in ascending order, each owning the ids of the queries
/// that compare against it in predicate order, found through a dense
/// `key − min` array (key spans up to 4096) or by binary search. Per
/// chunk, one lookup per live row yields the matches already row-major.
/// With *k* predicates the charges equal the oracle's by arithmetic:
/// under `disjoint && ctx.short_circuit_or` a row first matched by
/// predicate *p* (0-based) costs *p* + 1 `PredEval`s and goes to query
/// *p* only, an unmatched or NULL-keyed row costs *k*; otherwise every
/// live row costs *k* and goes to every equal-keyed query.
pub struct MultiFilter {
    child: BoxedOp,
    routing: Arc<Routing>,
    schema: Schema,
    pending: std::collections::VecDeque<Tuple>,
    scratch: Vec<Tuple>,
    /// Columnar scratch: matched `(row, query id)` pairs.
    matches: Vec<(u32, u32)>,
}

impl MultiFilter {
    /// Multi-predicate filter over `child`: query `q` selects the rows
    /// whose `Int` column `key_col` equals `keys[q]`. At most
    /// `u32::MAX` keys (query ids are carried as `u32`).
    pub fn new(child: BoxedOp, key_col: usize, keys: &[i64], disjoint: bool) -> Self {
        assert_eq!(
            child.schema().columns().get(key_col).map(|c| c.ty),
            Some(ColumnType::Int),
            "merged key column {key_col} must be an Int column of the child",
        );
        let mut cols: Vec<(String, ColumnType)> = vec![("__query_id".to_string(), ColumnType::Int)];
        for c in child.schema().columns() {
            cols.push((c.name.clone(), c.ty));
        }
        let refs: Vec<(&str, ColumnType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        Self {
            child,
            routing: Arc::new(Routing::new(key_col, keys, disjoint)),
            schema: Schema::new(&refs),
            pending: std::collections::VecDeque::new(),
            scratch: Vec::new(),
            matches: Vec::new(),
        }
    }

    /// Number of merged predicates.
    pub fn arity(&self) -> usize {
        self.routing.predicates.len()
    }

    /// Evaluate every predicate against `t`, appending a tagged copy
    /// per match via `emit`. Respects disjoint short-circuiting.
    fn route(
        predicates: &[Expr],
        disjoint: bool,
        t: &Tuple,
        ctx: &mut ExecCtx,
        mut emit: impl FnMut(Tuple),
    ) {
        let stop_at_first = disjoint && ctx.short_circuit_or;
        for (qid, pred) in predicates.iter().enumerate() {
            if pred.eval_bool(t, ctx) {
                let mut tagged = Vec::with_capacity(t.len() + 1);
                tagged.push(Value::Int(qid as i64));
                tagged.extend(t.iter().cloned());
                emit(tagged);
                if stop_at_first {
                    break;
                }
            }
        }
    }

    /// Run the merged scan to completion and return one result set per
    /// query — the fused production path. No row is built: each
    /// [`RowSet`] is a view of the scan's shared columns and the
    /// `(row, query)` matches routed out of them, decoded for all
    /// queries at once when one is first read. The charges are exactly
    /// those of the oracle's two steps, computed from the rows' stored
    /// widths ([`DataChunk::row_widths`]): per routed row, `ResultEmit`
    /// and `width + 8` (the tag) streamed bytes on `ctx` — what the
    /// driver charges for emitting the tagged row — and `SplitRoute`,
    /// `RowCopy` and `width` bytes on `client` — what [`split_results`]
    /// charges for routing it.
    ///
    /// Honours [`ExecCtx::workers`]: morsels are scanned and routed on
    /// worker threads (which charge the scan and the predicate
    /// evaluations), their match lists are concatenated in morsel
    /// order — so every query's rows come in serial order — and the
    /// emit charge stays with the coordinator, as in
    /// [`crate::exec::execute_parallel`]: per-core phases are unchanged
    /// at every worker count.
    ///
    /// A row-engine context (`!ctx.columnar`) runs the oracle instead
    /// and returns its tuples as owned sets.
    pub fn run_split(&mut self, ctx: &mut ExecCtx, client: &mut ExecCtx) -> Vec<RowSet> {
        if !ctx.columnar {
            let workers = ctx.workers;
            let tagged = crate::exec::execute_parallel(self, ctx, workers);
            return split_results(tagged, self.arity(), client)
                .into_iter()
                .map(RowSet::from)
                .collect();
        }
        let routing = &*self.routing;
        let parallel = run_morsels(self.child.as_ref(), ctx, |wctx, scan| {
            SplitPart::drain(routing, scan, wctx)
        });
        let SplitPart {
            routed,
            rows,
            width,
        } = match parallel {
            Some(parts) => parts
                .into_iter()
                .reduce(SplitPart::followed_by)
                .expect("a parallel run has at least two morsels"),
            None => {
                self.child.open(ctx);
                SplitPart::drain(routing, self.child.as_mut(), ctx)
            }
        };
        ctx.charge(OpClass::ResultEmit, rows);
        ctx.charge_mem_bytes(width + TAG_BYTES * rows);
        client.charge(OpClass::SplitRoute, rows);
        client.charge(OpClass::RowCopy, rows);
        client.charge_mem_bytes(width);
        routed.into_row_sets(self.arity())
    }
}

/// What draining one scan pipeline through the routing table yields:
/// the routed matches plus the two sums every result-path charge is
/// computed from.
struct SplitPart {
    routed: RoutedRows,
    /// Routed rows (a fanned-out row counts once per query).
    rows: u64,
    /// Their summed stored widths, tag excluded.
    width: u64,
}

impl SplitPart {
    /// Drain the opened `scan`, routing every chunk's live rows and
    /// keeping the matches with the chunk's shared columns.
    fn drain(routing: &Routing, scan: &mut dyn Operator, ctx: &mut ExecCtx) -> Self {
        let mut part = SplitPart {
            routed: RoutedRows::default(),
            rows: 0,
            width: 0,
        };
        let mut widths = Vec::new();
        while let Some(chunk) = scan.next_chunk(ctx) {
            let matches = part.routed.matches_for(&chunk.data);
            let seen = matches.len();
            routing.route_chunk(&chunk, ctx, matches);
            let new = &matches[seen..];
            widths.clear();
            chunk
                .data
                .row_widths(new.iter().map(|&(row, _)| row as usize), &mut widths);
            part.rows += new.len() as u64;
            part.width += widths.iter().map(|&w| u64::from(w)).sum::<u64>();
        }
        part
    }

    /// This part with a later morsel's appended: every query's rows
    /// stay in scan order.
    fn followed_by(mut self, later: SplitPart) -> SplitPart {
        self.rows += later.rows;
        self.width += later.width;
        self.routed.append(later.routed);
        self
    }
}

impl Operator for MultiFilter {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecCtx) {
        self.pending.clear();
        self.child.open(ctx);
    }

    fn next(&mut self, ctx: &mut ExecCtx) -> Option<Tuple> {
        loop {
            if let Some(t) = self.pending.pop_front() {
                return Some(t);
            }
            let t = self.child.next(ctx)?;
            let pending = &mut self.pending;
            let routing = &*self.routing;
            Self::route(&routing.predicates, routing.disjoint, &t, ctx, |tagged| {
                pending.push_back(tagged);
            });
        }
    }

    fn next_batch(&mut self, ctx: &mut ExecCtx, out: &mut Vec<Tuple>) -> bool {
        // Drain anything a scalar caller left behind first.
        while let Some(t) = self.pending.pop_front() {
            out.push(t);
        }
        let mut input = std::mem::take(&mut self.scratch);
        input.clear();
        let more = self.child.next_batch(ctx, &mut input);
        let routing = &*self.routing;
        if routing.disjoint {
            // At most one output per input row: reserve the fan-out
            // upper bound once so the fast path never regrows `out`.
            out.reserve(input.len());
        }
        for t in &input {
            Self::route(&routing.predicates, routing.disjoint, t, ctx, |tagged| {
                out.push(tagged);
            });
        }
        self.scratch = input;
        more
    }

    /// Columnar routing for generic drivers: route the chunk through
    /// the key table and emit one gathered chunk — the tag column plus
    /// the child's columns, in row-major match order. (The production
    /// merged-selection path, [`MultiFilter::run_split`], skips this
    /// gather and keeps the matches as they are.)
    fn next_chunk(&mut self, ctx: &mut ExecCtx) -> Option<Chunk> {
        let chunk = self.child.next_chunk(ctx)?;
        self.matches.clear();
        self.routing.route_chunk(&chunk, ctx, &mut self.matches);

        let tags = ColumnData::Int(self.matches.iter().map(|&(_, q)| i64::from(q)).collect());
        let indices: Vec<u32> = self.matches.iter().map(|&(row, _)| row).collect();
        let mut cols = Vec::with_capacity(1 + chunk.data.arity());
        cols.push(ColumnChunk::new(tags));
        for c in chunk.data.columns() {
            cols.push(c.gather(&indices));
        }
        Some(Chunk::dense(Arc::new(DataChunk::new(cols))))
    }

    fn morsels(&self, target_rows: usize) -> Option<Vec<Morsel>> {
        self.child.morsels(target_rows)
    }

    fn clone_morsel(&self, morsel: &Morsel) -> Option<BoxedOp> {
        let child = self.child.clone_morsel(morsel)?;
        Some(Box::new(MultiFilter {
            child,
            routing: Arc::clone(&self.routing),
            schema: self.schema.clone(),
            pending: std::collections::VecDeque::new(),
            scratch: Vec::new(),
            matches: Vec::new(),
        }))
    }
}

/// Why a batch of statements could not be merged into one scan.
///
/// Malformed batches are *client* errors: a session layer routes them
/// back to the submitting session instead of panicking inside the
/// scheduler (see `eco-server`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// The batch contained no queries.
    EmptyBatch,
    /// The table the merged scan runs over is not in the catalog.
    MissingTable(String),
    /// The batch holds more queries than a `u32` query tag can name.
    TooManyQueries(usize),
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::EmptyBatch => write!(f, "empty QED batch"),
            MergeError::MissingTable(t) => write!(f, "table `{t}` not in catalog"),
            MergeError::TooManyQueries(n) => write!(
                f,
                "QED batch of {n} queries exceeds the {} a query tag can name",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// A merged QED batch over the `lineitem` table.
pub struct MergedSelection {
    plan: MultiFilter,
    batch_size: usize,
}

impl MergedSelection {
    /// Merge a batch of QED selection queries into one disjunctive scan.
    ///
    /// Panicking wrapper around [`Self::try_new`] for callers that
    /// construct batches from trusted workloads.
    pub fn new(catalog: &Catalog, queries: &[QedQuery]) -> Self {
        Self::try_new(catalog, queries).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Merge a batch of QED selection queries into one disjunctive
    /// scan, or report why the batch is malformed.
    pub fn try_new(catalog: &Catalog, queries: &[QedQuery]) -> Result<Self, MergeError> {
        if queries.is_empty() {
            return Err(MergeError::EmptyBatch);
        }
        if u32::try_from(queries.len()).is_err() {
            return Err(MergeError::TooManyQueries(queries.len()));
        }
        let Some(lineitem) = catalog.get("lineitem") else {
            return Err(MergeError::MissingTable("lineitem".to_string()));
        };
        let keys: Vec<i64> = queries.iter().map(|q| q.quantity).collect();
        let distinct = {
            let mut v = keys.clone();
            v.sort_unstable();
            v.dedup();
            v.len() == keys.len()
        };
        let qty = lineitem.schema().expect_index("l_quantity");
        let scan = Box::new(SeqScan::new(lineitem)) as BoxedOp;
        Ok(Self {
            plan: MultiFilter::new(scan, qty, &keys, distinct),
            batch_size: queries.len(),
        })
    }

    /// Execute the merged scan, returning tagged rows (the oracle's
    /// first step; [`split_results`] is its second).
    pub fn run(&mut self, ctx: &mut ExecCtx) -> Vec<Tuple> {
        crate::exec::execute(&mut self.plan, ctx)
    }

    /// Execute the merged scan morsel-parallel across `workers`
    /// threads: same tagged rows, bit-identical ledger (the disjunctive
    /// scan is a partitionable pipeline).
    pub fn run_parallel(&mut self, ctx: &mut ExecCtx, workers: usize) -> Vec<Tuple> {
        crate::exec::execute_parallel(&mut self.plan, ctx, workers)
    }

    /// Execute the merged scan *and* the application-side split in one
    /// pass, returning per-query result sets: server-side work is
    /// charged to `ctx` (across [`ExecCtx::workers`] threads), the
    /// split to `client`. Rows and both ledgers equal [`Self::run`] /
    /// [`Self::run_parallel`] followed by [`split_results`]; see
    /// [`MultiFilter::run_split`].
    pub fn run_split(&mut self, ctx: &mut ExecCtx, client: &mut ExecCtx) -> Vec<RowSet> {
        self.plan.run_split(ctx, client)
    }

    /// Batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }
}

/// Application-side result split: route tagged rows back to their
/// queries, stripping the tag. Charges one `SplitRoute` and one
/// `RowCopy` plus the row's width in client-memory bytes per row — the
/// client-side work the paper explicitly includes in QED's costs.
pub fn split_results(tagged: Vec<Tuple>, batch_size: usize, ctx: &mut ExecCtx) -> Vec<Vec<Tuple>> {
    let mut out: Vec<Vec<Tuple>> = (0..batch_size).map(|_| Vec::new()).collect();
    for mut t in tagged {
        let qid = t[0].as_int().expect("query tag") as usize;
        assert!(qid < batch_size, "tag {qid} out of batch {batch_size}");
        t.remove(0);
        ctx.charge(OpClass::SplitRoute, 1);
        ctx.charge(OpClass::RowCopy, 1);
        ctx.charge_mem_bytes(tuple_width(&t));
        out[qid].push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use crate::plans::selection_plan;
    use eco_storage::{load_tpch, EngineKind};
    use eco_tpch::{qed_workload, TpchGenerator};

    fn setup() -> Catalog {
        let db = TpchGenerator::new(0.003).generate();
        load_tpch(&db, EngineKind::Memory, 0)
    }

    #[test]
    fn merged_equals_sequential() {
        // The QED correctness invariant: merging + splitting returns
        // exactly what the individual queries return.
        let cat = setup();
        let queries = qed_workload(8);

        let mut merged = MergedSelection::new(&cat, &queries);
        let mut ctx = ExecCtx::new();
        let tagged = merged.run(&mut ctx);
        let split = split_results(tagged, queries.len(), &mut ctx);

        for (i, q) in queries.iter().enumerate() {
            let mut plan = selection_plan(&cat, q);
            let mut sctx = ExecCtx::new();
            let individual = execute(plan.as_mut(), &mut sctx);
            assert_eq!(split[i], individual, "query {i} differs");
        }
    }

    #[test]
    fn merged_scans_table_once() {
        let cat = setup();
        let n_rows = cat.expect("lineitem").len() as u64;
        let queries = qed_workload(10);
        let mut merged = MergedSelection::new(&cat, &queries);
        let mut ctx = ExecCtx::new();
        merged.run(&mut ctx);
        assert_eq!(
            ctx.cpu.count(OpClass::TupleFetch),
            n_rows,
            "one fetch per tuple, not per query"
        );
    }

    #[test]
    fn short_circuit_reduces_pred_evals() {
        let cat = setup();
        let queries = qed_workload(20);
        let mut m1 = MergedSelection::new(&cat, &queries);
        let mut sc = ExecCtx::new();
        m1.run(&mut sc);
        let mut m2 = MergedSelection::new(&cat, &queries);
        let mut ex = ExecCtx::exhaustive();
        m2.run(&mut ex);
        assert!(
            sc.pred_evals < ex.pred_evals,
            "short-circuit {} !< exhaustive {}",
            sc.pred_evals,
            ex.pred_evals
        );
        let n_rows = cat.expect("lineitem").len() as u64;
        assert_eq!(ex.pred_evals, 20 * n_rows, "exhaustive = k evals per row");
    }

    #[test]
    fn split_charges_client_work() {
        let cat = setup();
        let queries = qed_workload(5);
        let mut merged = MergedSelection::new(&cat, &queries);
        let mut ctx = ExecCtx::new();
        let tagged = merged.run(&mut ctx);
        let n = tagged.len() as u64;
        let mut client = ExecCtx::new();
        let split = split_results(tagged, 5, &mut client);
        assert_eq!(client.cpu.count(OpClass::SplitRoute), n);
        assert_eq!(client.cpu.count(OpClass::RowCopy), n);
        assert_eq!(split.iter().map(Vec::len).sum::<usize>() as u64, n);
    }

    #[test]
    fn multifilter_fans_out_when_not_disjoint() {
        use crate::ops::VecSource;
        let schema = Schema::new(&[("v", ColumnType::Int)]);
        let src = VecSource::new(schema, vec![vec![Value::Int(5)]]);
        // Two overlapping predicates both match value 5.
        let mut mf = MultiFilter::new(Box::new(src), 0, &[5, 5], false);
        let mut ctx = ExecCtx::new();
        let rows = execute(&mut mf, &mut ctx);
        assert_eq!(rows.len(), 2, "row must fan out to both queries");
    }

    /// Tagged rows, `pred_evals` and the whole ledger (as one phase) of
    /// a `MultiFilter` over single-column `rows`, scalar or columnar.
    fn run_filter(
        rows: &[i64],
        keys: &[i64],
        disjoint: bool,
        short_circuit: bool,
        columnar: bool,
    ) -> (Vec<Tuple>, u64, eco_simhw::trace::Phase) {
        use crate::ops::VecSource;
        let schema = Schema::new(&[("v", ColumnType::Int)]);
        let src = VecSource::new(schema, rows.iter().map(|&v| vec![Value::Int(v)]).collect());
        let mut mf = MultiFilter::new(Box::new(src), 0, keys, disjoint);
        let mut ctx = ExecCtx::new().with_batch_size(7);
        ctx.short_circuit_or = short_circuit;
        let out = if columnar {
            crate::exec::execute_columnar(&mut mf, &mut ctx)
        } else {
            crate::exec::execute_scalar(&mut mf, &mut ctx)
        };
        let evals = ctx.pred_evals;
        (
            out,
            evals,
            ctx.take_phase(eco_simhw::trace::PhaseKind::Execute, "t"),
        )
    }

    #[test]
    fn routed_charges_equal_the_scalar_oracle() {
        let mixed: Vec<i64> = (0..40).map(|i| i % 9).collect();
        // Every row matches predicate 0: the old narrowing loop's
        // `alive.is_empty()` early exit, 1 evaluation per row.
        let all_early = vec![3i64; 20];
        let cases: [(&[i64], &[i64], bool); 5] = [
            (&mixed, &[3, 1, 7, 5], true),
            (&mixed, &[3, 1, 3, 8, 1], false),
            (&all_early, &[3, 1, 7, 5], true),
            (&mixed, &[100, 200], true),
            // A caller that wrongly promises disjointness still gets the
            // oracle's behaviour: the first equal-keyed query wins.
            (&mixed, &[4, 2, 4], true),
        ];
        for (rows, keys, disjoint) in cases {
            for short_circuit in [true, false] {
                let what = format!("keys {keys:?} disjoint={disjoint} sc={short_circuit}");
                let (rows_s, evals_s, phase_s) =
                    run_filter(rows, keys, disjoint, short_circuit, false);
                let (rows_c, evals_c, phase_c) =
                    run_filter(rows, keys, disjoint, short_circuit, true);
                assert_eq!(rows_c, rows_s, "{what}: rows");
                assert_eq!(evals_c, evals_s, "{what}: pred_evals");
                assert_eq!(phase_c, phase_s, "{what}: ledger");
            }
        }
        let (_, evals, _) = run_filter(&all_early, &[3, 1, 7, 5], true, true, true);
        assert_eq!(evals, 20, "p + 1 = 1 evaluation per first-predicate row");
        let (_, evals, _) = run_filter(&all_early, &[1, 7, 5, 3], true, true, true);
        assert_eq!(evals, 80, "matched by the last of four predicates");
        let (_, evals, _) = run_filter(&all_early, &[1, 7, 5, 9], true, true, true);
        assert_eq!(evals, 80, "an unmatched row costs k");
    }

    /// Regression: the columnar path used to carry tags as `u16`, so
    /// query 65 536's rows came back tagged 0.
    #[test]
    fn query_tags_do_not_wrap_at_u16() {
        let keys: Vec<i64> = (0..=65_536).collect();
        for columnar in [false, true] {
            let (rows, evals, _) = run_filter(&[65_536], &keys, true, true, columnar);
            assert_eq!(
                rows,
                vec![vec![Value::Int(65_536), Value::Int(65_536)]],
                "columnar={columnar}"
            );
            assert_eq!(evals, 65_537, "columnar={columnar}");
        }
    }

    #[test]
    fn run_split_equals_run_plus_split_results() {
        use eco_simhw::trace::PhaseKind;
        let cat = setup();
        let distinct = qed_workload(8);
        let mut fan_out = qed_workload(5);
        fan_out.extend(qed_workload(3));
        for queries in [distinct, fan_out] {
            for short_circuit in [true, false] {
                // Oracle: scalar-engine tagged rows, then the split.
                let mut oracle = MergedSelection::new(&cat, &queries);
                let mut octx = ExecCtx::new();
                octx.short_circuit_or = short_circuit;
                let tagged = crate::exec::execute_scalar(&mut oracle.plan, &mut octx);
                let mut oclient = ExecCtx::new();
                let expected = split_results(tagged, queries.len(), &mut oclient);
                let oclient = oclient.take_phase(PhaseKind::ClientCompute, "split");

                for workers in [1, 2, 4] {
                    let what = format!("k={} sc={short_circuit} w={workers}", queries.len());
                    let mut ctx = ExecCtx::new()
                        .with_columnar(true)
                        .with_workers(workers)
                        .with_morsel_rows(1000);
                    ctx.short_circuit_or = short_circuit;
                    let mut client = ExecCtx::new();
                    let split =
                        MergedSelection::new(&cat, &queries).run_split(&mut ctx, &mut client);
                    assert_eq!(split, expected, "{what}: rows");
                    assert_eq!(ctx.pred_evals, octx.pred_evals, "{what}: pred_evals");
                    assert_eq!(
                        client.take_phase(PhaseKind::ClientCompute, "split"),
                        oclient,
                        "{what}: client ledger"
                    );
                    // The tagged-row parallel driver is the per-core oracle.
                    let mut pctx = ExecCtx::new().with_morsel_rows(1000);
                    pctx.short_circuit_or = short_circuit;
                    MergedSelection::new(&cat, &queries).run_parallel(&mut pctx, workers);
                    assert_eq!(
                        ctx.take_core_phases(workers, "t"),
                        pctx.take_core_phases(workers, "t"),
                        "{what}: per-core server ledger"
                    );
                }
                // …and the serial server ledger is the scalar one.
                let mut ctx = ExecCtx::new().with_columnar(true);
                ctx.short_circuit_or = short_circuit;
                MergedSelection::new(&cat, &queries).run_split(&mut ctx, &mut ExecCtx::new());
                assert_eq!(
                    ctx.take_phase(PhaseKind::Execute, "t"),
                    octx.take_phase(PhaseKind::Execute, "t"),
                    "k={} sc={short_circuit}: server ledger",
                    queries.len()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty QED batch")]
    fn empty_batch_rejected() {
        let cat = setup();
        let _ = MergedSelection::new(&cat, &[]);
    }

    #[test]
    fn try_new_reports_malformed_batches() {
        let cat = setup();
        assert_eq!(
            MergedSelection::try_new(&cat, &[]).err(),
            Some(MergeError::EmptyBatch)
        );
        let empty_catalog = Catalog::new(0);
        let queries = qed_workload(3);
        assert_eq!(
            MergedSelection::try_new(&empty_catalog, &queries).err(),
            Some(MergeError::MissingTable("lineitem".to_string()))
        );
        assert!(MergedSelection::try_new(&cat, &queries).is_ok());
    }
}
