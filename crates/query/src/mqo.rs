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
//! * **Oracle (scalar).** [`MultiFilter`]'s `next` evaluates the
//!   predicate [`Expr`]s one after another against each row and emits
//!   one *tagged* tuple (query index first) per match;
//!   [`MergedSelection::run`] collects them and [`split_results`] strips
//!   the tag and routes each tuple to its query. This is the reference
//!   the differential tests compare against, and what `EcoDb` runs
//!   under the scalar engine.
//! * **Production (columnar).** The predicates are compiled once, at
//!   construction, into per-key routing entries: each key's first query,
//!   what a row with that key costs under short-circuit evaluation, and
//!   whether it fans out to more queries. Per chunk, a loop with no
//!   data-dependent branch looks each live row's entry up and writes
//!   its `(row, query)` match whether or not it hit, advancing past it
//!   only on a hit — so the matches come out row-major and the
//!   predicate-evaluation charge is a sum of precomputed costs (see
//!   [`MultiFilter`]). [`MergedSelection::run_split`] keeps those
//!   matches beside the scan's shared columns and returns one
//!   [`RowSet`] view per query — no tag column, no tagged tuple, no row
//!   at all until a caller reads one (then the whole scan is decoded
//!   once, in scan order) — while charging exactly what the oracle's
//!   emit + split charge. A generic columnar driver over a
//!   [`MultiFilter`] gets the oracle's tagged rows through the default
//!   [`Operator::next_chunk`].

use std::sync::Arc;

use eco_simhw::trace::OpClass;
use eco_storage::{
    tuple_width, Catalog, ColumnChunk, ColumnType, RoutedRows, RowSet, Schema, Tuple, Value,
};
use eco_tpch::QedQuery;

use crate::chunk::{Chunk, Rows};
use crate::context::ExecCtx;
use crate::expr::Expr;
use crate::ops::{BoxedOp, Operator, SeqScan};
use crate::parallel::run_morsels;

/// Widest key span (`max − min + 1`) the routing table indexes densely
/// by `key − min` (64 KiB of entries — QED's 50 quantities need 816
/// bytes); wider key sets reach the same entries by binary search.
const DENSE_SPAN: u64 = 4096;

/// "No query has this key": an [`Entry`]'s first query.
const NO_SLOT: u32 = u32::MAX;

/// Stored width of the query tag the oracle prepends to every emitted
/// row (a `Value::Int`): what the server-side result path streams on
/// top of the row itself.
const TAG_BYTES: u64 = 8;

/// What routing a row with one key does, precomputed per key.
#[derive(Clone, Copy)]
struct Entry {
    /// The key's first query in predicate order ([`NO_SLOT`] if none).
    first: u32,
    /// The short-circuit `PredEval` cost of a row with this key:
    /// `first + 1`, or *k* when no query has it.
    cost: u32,
    /// The key's other queries, `qids[rest.0..rest.1]` in predicate
    /// order — empty unless the key fans out.
    rest: (u32, u32),
}

/// What a [`MultiFilter`] and its morsel clones share: the predicates in
/// both of their forms — `Expr`s for the row-engine oracle, the per-key
/// routing entries for the columnar path.
struct Routing {
    /// The column every predicate compares.
    key_col: usize,
    /// Caller's promise that at most one predicate matches a row.
    disjoint: bool,
    /// `key_col = keys[q]`, in query order (the scalar oracle's form).
    predicates: Vec<Expr>,
    /// The distinct keys, ascending.
    keys: Vec<i64>,
    /// Whether `entries` is indexed by `key − keys[0]` (spans up to
    /// [`DENSE_SPAN`]) rather than by a key's position in `keys`.
    dense: bool,
    /// One entry per dense offset (or per distinct key), then the
    /// sentinel: no query, cost *k* — where out-of-range and NULL keys
    /// land.
    entries: Vec<Entry>,
    /// Query ids grouped by key, ascending — i.e. in predicate order —
    /// within each key; [`Entry::rest`] indexes it.
    qids: Vec<u32>,
}

impl Routing {
    fn new(key_col: usize, keys: &[i64], disjoint: bool) -> Self {
        assert!(!keys.is_empty(), "need at least one predicate");
        let k = u32::try_from(keys.len()).expect("query tags are u32");
        // Stable sort: queries with equal keys stay in predicate order.
        let mut qids: Vec<u32> = (0..k).collect();
        qids.sort_by_key(|&q| keys[q as usize]);
        let mut distinct = Vec::new();
        let mut hits = Vec::new();
        for (pos, &q) in (0u32..).zip(&qids) {
            let key = keys[q as usize];
            if distinct.last() != Some(&key) {
                distinct.push(key);
                hits.push(Entry {
                    first: q,
                    cost: q + 1,
                    rest: (pos + 1, pos + 1),
                });
            }
            hits.last_mut().expect("pushed above").rest.1 = pos + 1;
        }
        let miss = Entry {
            first: NO_SLOT,
            cost: k,
            rest: (0, 0),
        };

        let lo = distinct[0];
        let span = distinct[distinct.len() - 1].wrapping_sub(lo) as u64;
        let dense = span < DENSE_SPAN;
        let entries = if dense {
            let mut entries = vec![miss; span as usize + 2];
            for (&key, hit) in distinct.iter().zip(hits) {
                entries[key.wrapping_sub(lo) as usize] = hit;
            }
            entries
        } else {
            hits.into_iter().chain([miss]).collect()
        };
        Self {
            key_col,
            disjoint,
            predicates: keys.iter().map(|&v| Expr::col_eq_int(key_col, v)).collect(),
            keys: distinct,
            dense,
            entries,
            qids,
        }
    }

    /// The columnar routing step: append the `(row, query)` matches of
    /// `chunk`'s live rows to `matches`, row-major, and charge the
    /// predicate evaluations the oracle would have performed on them
    /// (see [`MultiFilter`] for the arithmetic).
    fn route_chunk(&self, chunk: &Chunk, ctx: &mut ExecCtx, matches: &mut Vec<(u32, u32)>) {
        let keys = chunk.data.column(self.key_col);
        let stop_at_first = self.disjoint && ctx.short_circuit_or;
        let routed_cost = match chunk.rows() {
            Rows::Range(start, end) => self.route_rows(start..end, keys, stop_at_first, matches),
            Rows::Sel(sel) => {
                let rows = sel.iter().map(|&i| i as usize);
                self.route_rows(rows, keys, stop_at_first, matches)
            }
        };
        let evals = if stop_at_first {
            routed_cost
        } else {
            self.predicates.len() as u64 * chunk.len() as u64
        };
        ctx.charge(OpClass::PredEval, evals);
        ctx.pred_evals += evals;
    }

    /// [`Self::route_with`] instantiated for this table's lookup — a
    /// key's dense offset, or its position among the distinct keys — and
    /// for what the chunk needs checked.
    #[inline(always)]
    fn route_rows(
        &self,
        rows: impl ExactSizeIterator<Item = usize>,
        keys: &ColumnChunk,
        stop_at_first: bool,
        matches: &mut Vec<(u32, u32)>,
    ) -> u64 {
        let Some(vals) = keys.data.as_ints() else {
            panic!("merged key column {} is not Int", self.key_col)
        };
        let mask = keys.validity.as_deref();
        // A key below `keys[0]` wraps to at least 2⁶³ − keys[0], past
        // every dense offset: the clamp sends it to the sentinel, never
        // to an alias.
        let lo = self.keys[0];
        let dense = |i: usize| vals[i].wrapping_sub(lo) as u64;
        let search = |i: usize| {
            self.keys
                .binary_search(&vals[i])
                .map_or(u64::MAX, |s| s as u64)
        };
        // All ones — past the table, like a missing key — for a NULL.
        let null = |i: usize| mask.map_or(0, |m| u64::from(!m[i]).wrapping_neg());
        // A chunk without NULLs routed under short-circuit evaluation —
        // every QED dispatch — has neither a NULL nor a fan-out to test.
        match (self.dense, mask.is_some() || !stop_at_first) {
            (true, false) => self.route_with::<false>(rows, stop_at_first, matches, dense),
            (true, true) => {
                self.route_with::<true>(rows, stop_at_first, matches, |i| dense(i) | null(i))
            }
            (false, false) => self.route_with::<false>(rows, stop_at_first, matches, search),
            (false, true) => {
                self.route_with::<true>(rows, stop_at_first, matches, |i| search(i) | null(i))
            }
        }
    }

    /// The per-row loop of [`Self::route_chunk`], over the entries at
    /// `position(row)` (anything past the table means the sentinel);
    /// only a `CHECKED` loop looks for fan-out. No branch depends on a
    /// row's data: every row's match is written at the cursor and the
    /// cursor advances only on a hit. Returns the summed short-circuit
    /// cost of the rows.
    #[inline(always)]
    fn route_with<const CHECKED: bool>(
        &self,
        rows: impl ExactSizeIterator<Item = usize>,
        stop_at_first: bool,
        matches: &mut Vec<(u32, u32)>,
        position: impl Fn(usize) -> u64,
    ) -> u64 {
        // The sentinel's index, which the compiler can see is in bounds.
        let last = self.entries.split_last().expect("the sentinel").1.len() as u64;
        let mut len = matches.len();
        // One slot per live row; a fan-out row grows the vector itself.
        matches.resize(len + rows.len(), (0, NO_SLOT));
        let mut out = &mut matches[..];
        let mut cost = 0;
        for i in rows {
            let entry = &self.entries[position(i).min(last) as usize];
            cost += u64::from(entry.cost);
            out[len] = (i as u32, entry.first);
            len += usize::from(entry.first != NO_SLOT);
            let (from, to) = entry.rest;
            if CHECKED && !stop_at_first && from < to {
                let rest = &self.qids[from as usize..to as usize];
                fan_out(matches, len, i as u32, rest);
                out = &mut matches[..];
                len += rest.len();
            }
        }
        matches.truncate(len);
        cost
    }
}

/// Write `(row, q)` for every query `q` of `rest` at `matches[at..]`,
/// growing `matches` by as many entries: a fanned-out row's queries
/// after its first. Out of the loop's way: a distinct-key batch never
/// gets here.
#[cold]
#[inline(never)]
fn fan_out(matches: &mut Vec<(u32, u32)>, at: usize, row: u32, rest: &[u32]) {
    matches.resize(matches.len() + rest.len(), (0, NO_SLOT));
    for (m, &q) in matches[at..].iter_mut().zip(rest) {
        *m = (row, q);
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
/// queries; fan-out rows emit in predicate order (row-major) in scalar
/// and columnar mode alike.
///
/// # Scalar engine: the oracle
///
/// `next` evaluates the predicates as [`Expr`]s, one after another per
/// row, and emits tagged tuples.
///
/// # Columnar engine: key routing
///
/// With *k* predicates the charges equal the oracle's by arithmetic:
/// under `disjoint && ctx.short_circuit_or` a row first matched by
/// predicate *p* (0-based) costs *p* + 1 `PredEval`s and goes to query
/// *p* only, an unmatched or NULL-keyed row costs *k*; otherwise every
/// live row costs *k* and goes to every equal-keyed query.
///
/// The keys are compiled at construction into per-offset tables: for
/// every `key − min` of a span up to 4096 (or, for wider key sets, for
/// every distinct key, found by binary search) the key's first query
/// in predicate order (none if no query has it), its short-circuit cost
/// *p* + 1 (*k* if none), and its other queries. One sentinel entry past
/// the end has no query and costs *k*: a key outside the span is
/// clamped onto it, and so is a NULL key.
///
/// The per-chunk loop has no branch on a row's data. It writes every
/// row's `(row, first query)` at the cursor and advances the cursor only
/// when there was a first query, and it adds the row's cost (under
/// exhaustive evaluation the charge is *k* per live row, once per
/// chunk). Only a row whose key fans out, with short-circuiting off,
/// appends its key's other queries right after the first — a branch a
/// distinct-key batch never takes. A chunk without NULL keys routed
/// under short-circuit evaluation — every QED dispatch — runs the loop
/// instantiated without the NULL and fan-out tests.
pub struct MultiFilter {
    child: BoxedOp,
    routing: Arc<Routing>,
    schema: Schema,
    pending: std::collections::VecDeque<Tuple>,
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
    /// widths ([`eco_storage::DataChunk::width_sum`]): per routed row, `ResultEmit`
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
    /// [`crate::exec::execute_rows`]: per-core phases are unchanged
    /// at every worker count.
    ///
    /// A scalar context (`!ctx.columnar`) runs the oracle instead —
    /// serially, at any worker count — and returns its tuples as owned
    /// sets.
    pub fn run_split(&mut self, ctx: &mut ExecCtx, client: &mut ExecCtx) -> Vec<RowSet> {
        if !ctx.columnar {
            let tagged = crate::exec::execute(self, ctx);
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
        while let Some(chunk) = scan.next_chunk(ctx) {
            let matches = part.routed.matches_for(&chunk.data);
            let seen = matches.len();
            routing.route_chunk(&chunk, ctx, matches);
            let new = &matches[seen..];
            part.rows += new.len() as u64;
            part.width += chunk
                .data
                .width_sum(new.iter().map(|&(row, _)| row as usize));
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

    fn split(&self, target_rows: usize) -> Option<Vec<BoxedOp>> {
        let parts = self.child.split(target_rows)?;
        let multi_filter = |child| -> BoxedOp {
            Box::new(MultiFilter {
                child,
                routing: Arc::clone(&self.routing),
                schema: self.schema.clone(),
                pending: std::collections::VecDeque::new(),
            })
        };
        Some(parts.into_iter().map(multi_filter).collect())
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
    /// The table has no `Int` column the predicates can compare:
    /// `found` is the named column's type, `None` when it is absent.
    BadKeyColumn {
        /// The scanned table.
        table: String,
        /// The column every predicate compares.
        column: String,
        /// Its type in the catalog, if the table has it.
        found: Option<ColumnType>,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::EmptyBatch => write!(f, "empty QED batch"),
            MergeError::MissingTable(t) => write!(f, "table `{t}` not in catalog"),
            MergeError::BadKeyColumn {
                table,
                column,
                found: None,
            } => write!(f, "table `{table}` has no column `{column}`"),
            MergeError::BadKeyColumn {
                table,
                column,
                found: Some(ty),
            } => write!(f, "merge key `{table}.{column}` is {ty:?}, not Int"),
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
        let qty = lineitem.schema().index_of("l_quantity");
        let found = qty.map(|i| lineitem.schema().columns()[i].ty);
        let Some(qty) = qty.filter(|_| found == Some(ColumnType::Int)) else {
            return Err(MergeError::BadKeyColumn {
                table: "lineitem".to_string(),
                column: "l_quantity".to_string(),
                found,
            });
        };
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

    /// Execute the merged scan *and* the application-side split in one
    /// pass, returning per-query result sets: server-side work is
    /// charged to `ctx` (across [`ExecCtx::workers`] threads), the
    /// split to `client`. Rows and both ledgers equal [`Self::run`]
    /// (serial or morsel-parallel) followed by [`split_results`]; see
    /// [`MultiFilter::run_split`].
    pub fn run_split(&mut self, ctx: &mut ExecCtx, client: &mut ExecCtx) -> Vec<RowSet> {
        self.plan.run_split(ctx, client)
    }

    /// Batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The merged scan's plan: the [`MultiFilter`] over `lineitem` that
    /// [`Self::run`] and [`Self::run_split`] drive.
    pub fn into_plan(self) -> MultiFilter {
        self.plan
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
            ctx.ledger.cpu.count(OpClass::TupleFetch),
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
        assert_eq!(client.ledger.cpu.count(OpClass::SplitRoute), n);
        assert_eq!(client.ledger.cpu.count(OpClass::RowCopy), n);
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

    /// Per-query rows, `pred_evals` and both ledgers (server, client;
    /// one phase each) of a `MultiFilter` over single-column `rows`:
    /// the scalar oracle's tagged rows and `split_results`, or the
    /// columnar `run_split`.
    fn run_filter(
        rows: &[i64],
        keys: &[i64],
        disjoint: bool,
        short_circuit: bool,
        columnar: bool,
    ) -> (Vec<Vec<Tuple>>, u64, [eco_simhw::trace::Phase; 2]) {
        use crate::ops::VecSource;
        use eco_simhw::trace::PhaseKind;
        let schema = Schema::new(&[("v", ColumnType::Int)]);
        let src = VecSource::new(schema, rows.iter().map(|&v| vec![Value::Int(v)]).collect());
        let mut mf = MultiFilter::new(Box::new(src), 0, keys, disjoint);
        let mut ctx = ExecCtx::new().with_batch_size(7).with_columnar(columnar);
        ctx.short_circuit_or = short_circuit;
        let mut client = ExecCtx::new();
        let split = if columnar {
            let sets = mf.run_split(&mut ctx, &mut client);
            sets.iter().map(|s| s.tuples().to_vec()).collect()
        } else {
            let tagged = crate::exec::ExecEngine::Scalar.execute(&mut mf, &mut ctx);
            split_results(tagged, keys.len(), &mut client)
        };
        let evals = ctx.pred_evals;
        let phases = [
            ctx.take_phase(PhaseKind::Execute, "t"),
            client.take_phase(PhaseKind::ClientCompute, "split"),
        ];
        (split, evals, phases)
    }

    #[test]
    fn routed_charges_equal_the_scalar_oracle() {
        let mixed: Vec<i64> = (0..40).map(|i| i % 9).collect();
        // Every row matches predicate 0: the old narrowing loop's
        // `alive.is_empty()` early exit, 1 evaluation per row.
        let all_early = vec![3i64; 20];
        let cases: [(&[i64], &[i64], bool); 7] = [
            (&mixed, &[3, 1, 7, 5], true),
            (&mixed, &[3, 1, 3, 8, 1], false),
            (&all_early, &[3, 1, 7, 5], true),
            (&mixed, &[100, 200], true),
            // A caller that wrongly promises disjointness still gets the
            // oracle's behaviour: the first equal-keyed query wins.
            (&mixed, &[4, 2, 4], true),
            // Rows one below the smallest and one above the largest key.
            (&mixed, &[7, 1, 7], false),
            // A span past the dense table: binary-searched entries.
            (&mixed, &[2, 5000, 6], true),
        ];
        for (rows, keys, disjoint) in cases {
            for short_circuit in [true, false] {
                let what = format!("keys {keys:?} disjoint={disjoint} sc={short_circuit}");
                let (rows_s, evals_s, phases_s) =
                    run_filter(rows, keys, disjoint, short_circuit, false);
                let (rows_c, evals_c, phases_c) =
                    run_filter(rows, keys, disjoint, short_circuit, true);
                assert_eq!(rows_c, rows_s, "{what}: rows");
                assert_eq!(evals_c, evals_s, "{what}: pred_evals");
                assert_eq!(phases_c, phases_s, "{what}: server and client ledgers");
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
            let (split, evals, _) = run_filter(&[65_536], &keys, true, true, columnar);
            assert_eq!(
                split[65_536],
                vec![vec![Value::Int(65_536)]],
                "columnar={columnar}"
            );
            assert_eq!(split.iter().map(Vec::len).sum::<usize>(), 1);
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
                let tagged = crate::exec::ExecEngine::Scalar.execute(&mut oracle.plan, &mut octx);
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
                    // The per-core oracle: the columnar driver runs the
                    // tagged-row `MultiFilter::next` on every morsel.
                    let mut pctx = ExecCtx::new()
                        .with_columnar(true)
                        .with_morsel_rows(1000)
                        .with_workers(workers);
                    pctx.short_circuit_or = short_circuit;
                    let mut tagged = MergedSelection::new(&cat, &queries);
                    crate::exec::execute(&mut tagged.plan, &mut pctx);
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
        // A `lineitem` without an `Int` `l_quantity` is an error, not a
        // panic.
        for (found, cols) in [
            (None, [("l_orderkey", ColumnType::Int)]),
            (Some(ColumnType::Str), [("l_quantity", ColumnType::Str)]),
        ] {
            let mut odd = Catalog::new(0);
            odd.add_memory_table("lineitem", eco_storage::HeapTable::new(Schema::new(&cols)));
            let err = MergedSelection::try_new(&odd, &queries).err();
            assert_eq!(
                err,
                Some(MergeError::BadKeyColumn {
                    table: "lineitem".to_string(),
                    column: "l_quantity".to_string(),
                    found,
                })
            );
        }
        assert!(MergedSelection::try_new(&cat, &queries).is_ok());
    }
}
