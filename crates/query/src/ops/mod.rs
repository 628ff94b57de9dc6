//! Physical operators: a Volcano-style (open/next) executor with a
//! columnar chunk path layered on top.
//!
//! Every operator performs real work on real tuples and charges that
//! work into the [`ExecCtx`] ledger as it goes. The paper's headline
//! experiments run index-free ("In all our experiments, we did not
//! create any database indices"), so the default access path is the
//! sequential scan and the default join is the hash join
//! ([`SortMergeJoin`] exists for the operator-level energy studies).
//! Since ledger schema v4 the engine *additionally* offers an indexed
//! access path — [`IxScan`] (B-tree point/range probe) — whose page
//! accesses are charged as **index random I/O**, a separately-ledgered
//! class priced exactly like random I/O. Plans that use no index charge nothing to those classes, so
//! every pre-v4 figure stays bit-identical while the random-vs-
//! sequential energy split of the paper's fig. 5 becomes measurable
//! from real query plans (see `eco_storage::btree`).
//!
//! # Two engines
//!
//! [`Operator::next`] is the scalar engine: tuple-at-a-time and serial
//! at any worker count, the reference oracle every differential test
//! compares against. [`Limit`] pulls it under either engine, and so
//! does the default `next_chunk` (below).
//! [`Operator::next_chunk`] is the columnar engine, the one `EcoDb`
//! ships; [`ExecCtx::columnar`] picks between them.
//!
//! # Columnar execution
//!
//! Instead of one heap-allocated tuple of tagged values per call, a
//! [`crate::chunk::Chunk`] moves an `Arc`-shared window
//! of typed column vectors (`eco-storage`'s [`DataChunk`] — one
//! contiguous `i64`/`i32`/`char` array or string arena per column, plus
//! optional validity) together with an optional **selection vector**
//! naming the live rows. The pipeline idiom is
//! scan → select → compute → late-materialize:
//!
//! * [`SeqScan`] / [`VecSource`] emit windows over their table's
//!   columns (a heap table *is* its columns; a paged table keeps one
//!   chunk per extent) — zero per-row work beyond the ledger charge;
//! * [`Filter`] evaluates predicates column-at-a-time
//!   (`Expr::filter_sel`), compacting the selection vector in place,
//!   branch-free, without touching data — short-circuit semantics
//!   become *selection narrowing*, with identical evaluation counts;
//!   the QED merged scan
//!   ([`crate::mqo::MultiFilter::run_split`]) instead looks each live
//!   row's key up in a per-key routing table, with no branch on the
//!   row's data, and sums the evaluation counts the table holds;
//! * [`Project`] runs expression kernels over typed slices into fresh
//!   columns;
//! * [`HashJoin`] and [`HashAggregate`] share one key kernel
//!   (`ops/hashkey.rs`): key columns are hashed a chunk at a time in
//!   typed loops, rows are indexed by a row-id table with per-key FIFO
//!   chains, and keys are compared column against column — no `Value`
//!   is built per row. The join keeps its build side as columns (plus
//!   one stored width per row, which is what its charges are computed
//!   from) and gathers each output chunk from build and probe columns;
//!   the aggregate keeps first-seen group keys as columns and updates
//!   typed accumulator arrays keyed by group id;
//! * the join gathers only the columns someone reads
//!   ([`Operator::prune`], called before `open`). The driver starts the
//!   pass at the root with every column and [`HashAggregate`] with its
//!   group columns and aggregate inputs; [`Project`] passes on its
//!   expressions' columns, [`Filter`] adds its predicate's, and
//!   [`HashJoin`] adds its keys and splits the rest between build and
//!   probe. The build keeps only those columns and the keys, and the
//!   probe leaves the others empty: each output row carries its stored
//!   width instead ([`DataChunk::with_widths`]), so a parent join
//!   charges exactly what it would from the full row. Every other
//!   operator keeps the default, which passes nothing on: an operator
//!   that pulls *rows* ([`Limit`], [`Sort`], [`SortMergeJoin`]) would
//!   read the empty columns, so its subtree is never pruned;
//!   A scan passes the mask on to storage: a paged table's columnar
//!   mirror decodes only the columns its scans asked for;
//! * rows come back into existence (`Chunk::to_tuples`)
//!   only at the pipeline breaker that inherently needs them (sort
//!   buffers); the top of the plan keeps its final chunks as a
//!   [`eco_storage::RowSet`] view ([`crate::exec::execute_rows`]) until
//!   a caller reads a row.
//!
//! Every operator works under the columnar driver: the default
//! `next_chunk` collects up to [`ExecCtx::batch_size`] rows from
//! `next()` into a chunk, so operators without a native chunk path
//! remain correct. [`Limit`] relies on it: pulling its child a row at a
//! time, it consumes exactly as much of the child stream — and charges
//! exactly as much work — as scalar execution does.
//!
//! **The ledger is engine-invariant by construction**: columnar paths
//! charge the same per-tuple op classes with the same counts as
//! `next()`, aggregated per chunk (`charge(class, n)`) — never
//! re-priced — and columnar disk scans still drive every covered page
//! through the buffer pool's verified miss path (the extent chunks
//! supply data, never I/O, and the frames stay undecoded). Scalar and
//! columnar ledgers (op-class counts, memory bytes, random accesses,
//! disk I/O) are bit-identical on both storage engines, cold and warm,
//! at any chunk size and worker count (`tests/integration_columnar.rs`
//! and the `columnar_matches_scalar` property test). The paper's
//! figures are computed from that ledger, so this invariant is
//! load-bearing.
//!
//! # Morsel-driven parallel execution
//!
//! When the columnar engine runs with [`ExecCtx::workers`] greater than
//! one, partitionable pipelines execute in parallel (the scalar oracle
//! never does; see [`crate::parallel`]): a *morsel* is a contiguous run of a
//! leaf's input ([`crate::parallel::Morsel`] — rows for memory-resident
//! sources, whole disk extents for paged tables), and
//! [`Operator::morsels`] / [`Operator::clone_morsel`] let non-blocking
//! pipeline segments (scan → filter → project chains) describe and
//! replicate themselves per morsel. Worker threads each run their
//! morsels' pipelines to completion, charging a private forked
//! [`ExecCtx`] ledger; per-morsel outputs are then stitched back
//! together **in morsel order**, so every consumer observes the exact
//! tuple stream serial execution would produce.
//!
//! Parallel consumption is built into the blocking operators —
//! [`HashJoin`] (partitioned parallel build, ordered parallel probe),
//! [`HashAggregate`] (per-morsel partial aggregation with an ordered
//! final merge) and [`Sort`] (order-preserving gather before a serial
//! sort, whose comparison count is input-order dependent) — and into the
//! top-of-plan driver, which gathers a partitionable root
//! ([`crate::exec::execute_rows`]).
//!
//! **The ledger is worker-count-invariant by the same construction**:
//! every charge is per-tuple and additive, morsels
//! partition the input exactly, and merging worker ledgers is
//! commutative addition — so the merged parallel ledger is bit-identical
//! to serial execution at any worker count and any morsel size
//! (enforced by `tests/integration_parallel.rs` and the
//! `parallel_matches_serial` property test). [`Limit`]'s early
//! termination is protected by [`ExecCtx::streaming_exact`]: under a
//! `Limit`, streaming pipelines never pre-materialize, while blocking
//! operators (which drain their input fully in any mode) re-enable
//! parallelism for their own subtrees.

mod agg;
mod filter;
mod hashkey;
mod ix_scan;
mod join;
mod limit;
mod merge_join;
mod project;
mod scan;
mod sort;
mod source;

pub use agg::{AggSpec, HashAggregate};
pub use filter::Filter;
pub use hashkey::hash_keys;
pub use ix_scan::{IxBound, IxScan};
pub use join::HashJoin;
pub use limit::Limit;
pub use merge_join::SortMergeJoin;
pub use project::Project;
pub use scan::SeqScan;
pub use sort::{Sort, SortKey};
pub use source::VecSource;

use std::sync::Arc;

use eco_storage::{DataChunk, Schema, Tuple};

use crate::chunk::Chunk;
use crate::context::ExecCtx;
use crate::expr::Expr;
use crate::parallel::Morsel;

/// A Volcano-style physical operator with an optional columnar path
/// and an optional morsel-parallel decomposition.
///
/// Operators are `Send` so pipeline clones can move onto worker
/// threads; all state an operator owns is tuples, expressions and
/// `Arc`s of shared storage.
pub trait Operator: Send {
    /// Output schema.
    fn schema(&self) -> &Schema;

    /// Prepare for execution (may consume children for blocking
    /// operators such as hash build, aggregation and sort).
    fn open(&mut self, ctx: &mut ExecCtx);

    /// Produce the next tuple, or `None` at end of stream.
    fn next(&mut self, ctx: &mut ExecCtx) -> Option<Tuple>;

    /// Produce the next [`Chunk`] of the columnar path, or `None` at
    /// end of stream.
    ///
    /// A returned chunk may have zero live rows (e.g. a filtered chunk
    /// where nothing matched) while the stream continues; drivers loop
    /// until `None`. Native implementations emit `Arc`-shared windows
    /// over columnar storage mirrors and refine *selection vectors*
    /// instead of materializing rows; the provided default collects up
    /// to [`ExecCtx::batch_size`] rows from [`Operator::next`] into one
    /// chunk, so every operator — including third-party ones — keeps
    /// working under the columnar driver, with identical charges
    /// (building the chunk itself is never charged).
    fn next_chunk(&mut self, ctx: &mut ExecCtx) -> Option<Chunk> {
        let n = ctx.batch_size.max(1);
        let rows: Vec<Tuple> = std::iter::from_fn(|| self.next(ctx)).take(n).collect();
        (!rows.is_empty())
            .then(|| Chunk::dense(Arc::new(DataChunk::from_rows(self.schema(), &rows))))
    }

    /// Column pruning for the columnar engine: a parent that consumes
    /// this operator's chunks says which of its output columns
    /// (`needed[i]` for column `i`) it will read, before `open`. An
    /// operator may then leave the other columns of its output chunks
    /// empty, as long as each row's stored width still reads in full
    /// ([`DataChunk::with_widths`]). An operator that passes the call
    /// on must only ever pull chunks from that child.
    ///
    /// The default does nothing and passes nothing on, so a subtree
    /// under an operator that pulls rows is never pruned.
    fn prune(&mut self, _needed: &[bool]) {}

    /// Morsel decomposition: if this subtree is a partitionable
    /// pipeline (a non-blocking chain over a single source leaf),
    /// return the morsels that cover its input exactly, sized near
    /// `target_rows` input tuples each. Leaves choose the unit (rows
    /// for memory sources; whole disk extents for paged tables, so
    /// parallel cold-scan I/O classifies identically to serial);
    /// streaming wrappers (filter, project) delegate to their child.
    ///
    /// `None` (the default) means the subtree cannot be partitioned and
    /// parallel consumers fall back to serial execution — which is
    /// always ledger-identical.
    fn morsels(&self, _target_rows: usize) -> Option<Vec<Morsel>> {
        None
    }

    /// Build a fresh, unopened copy of this pipeline restricted to one
    /// morsel of its input. Running every morsel's clone to completion
    /// and concatenating the outputs in morsel order reproduces this
    /// operator's serial output stream and charges, exactly.
    ///
    /// Must return `Some` for every morsel produced by
    /// [`Operator::morsels`], and `None` whenever `morsels` does.
    fn clone_morsel(&self, _morsel: &Morsel) -> Option<BoxedOp> {
        None
    }
}

/// A boxed operator (plan node).
pub type BoxedOp = Box<dyn Operator>;

/// Mark every column `e` reads in `needed` (see [`Operator::prune`]).
pub(crate) fn mark_read(e: &Expr, needed: &mut [bool]) {
    let mut cols = Vec::new();
    e.columns(&mut cols);
    cols.into_iter().for_each(|c| needed[c] = true);
}

/// Drain `child` to exhaustion through the columnar path, invoking
/// `consume` on each non-empty chunk (used by blocking operators when
/// [`ExecCtx::columnar`] is set).
pub(crate) fn drain_chunks(
    child: &mut dyn Operator,
    ctx: &mut ExecCtx,
    mut consume: impl FnMut(&mut ExecCtx, &Chunk),
) {
    while let Some(chunk) = child.next_chunk(ctx) {
        if !chunk.is_empty() {
            consume(ctx, &chunk);
        }
    }
}
