//! Driving a plan to completion.
//!
//! A plan runs one of two ways, picked by [`ExecCtx::columnar`]:
//! the columnar chunk driver ([`Operator::next_chunk`] — typed column
//! vectors and selection vectors; the result is a [`RowSet`] view of
//! the final chunks, so no row is built unless a caller reads one),
//! which is what ships, or the tuple-at-a-time scalar driver
//! ([`Operator::next`]), the oracle the differential tests compare it
//! against. [`execute_rows`] is the one front door: it dispatches on
//! the flag, and the columnar engine reads [`ExecCtx::workers`] for
//! morsel-driven intra-query parallelism on worker threads. The scalar
//! oracle runs serial at every worker count: it shares no parallel
//! path with the engine it checks. [`execute`] is [`execute_rows`]
//! with each row built once, for callers that want tuples, and
//! [`ExecEngine::execute`] sets the flag for one run — how the test
//! harness (`tests/support`) picks the engine under test and the
//! scalar oracle. Every engine and worker count produces identical
//! result rows and bit-identical summed [`ExecCtx`] ledgers (the
//! harness's `check` compares them on every axis) — engine choice,
//! chunk size and worker count are purely throughput knobs; the energy
//! accounting the paper's figures are computed from never changes.
//! Only the per-core split differs: the scalar engine charges core 0
//! alone.
//!
//! ## Failure semantics
//!
//! Operators are infallible at the interface level: a failing operator
//! (a page read whose retry budget is exhausted, a zero divisor in the
//! data — see [`crate::error::ExecError`]) records the first error in
//! the context and ends its stream — a failed expression yields a
//! placeholder value, and every sequential scan stops once an error is
//! recorded — so the driver terminates normally with a *truncated*
//! result and the error still recorded. Callers read it with
//! [`ExecCtx::take_error`] after the run (parallel workers merge in
//! index order, so the surviving error is deterministic for a given
//! fault plan). Nothing on the execution path panics on a disk fault or
//! a zero divisor.
//!
//! A failed statement returns the same typed error on both engines.
//! Its truncated rows and its ledger are unspecified: how far each
//! engine got before it stopped differs (the columnar engine finishes
//! the chunk it is in), no figure prices a failed statement, and no
//! caller may compare them across engines.

use eco_simhw::trace::OpClass;
use eco_storage::{tuple_width, RoutedRows, RowSet, Tuple};

use crate::chunk::Chunk;
use crate::context::ExecCtx;
use crate::ops::Operator;
use crate::parallel::run_morsels;

/// Which execution engine drives a plan — a pure throughput knob; both
/// produce identical rows and bit-identical ledgers. `EcoDb` (and so
/// the server, `repro` and the benchmarks) runs
/// [`ExecEngine::Columnar`]; scalar is kept as the oracle the
/// differential tests compare it against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecEngine {
    /// Tuple-at-a-time Volcano loop: the reference oracle.
    Scalar,
    /// Typed column vectors + selection vectors with late
    /// materialization: the production engine.
    Columnar,
}

impl ExecEngine {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ExecEngine::Scalar => "scalar",
            ExecEngine::Columnar => "columnar",
        }
    }

    /// Execute `plan` under this engine ([`execute_rows`]), returning
    /// all result tuples. The engine choice is authoritative: the
    /// context's [`ExecCtx::columnar`] flag is set from it for the
    /// duration of the run (and restored).
    pub fn execute(self, plan: &mut dyn Operator, ctx: &mut ExecCtx) -> Vec<Tuple> {
        let saved = ctx.columnar;
        ctx.columnar = self == ExecEngine::Columnar;
        let rows = execute_rows(plan, ctx);
        ctx.columnar = saved;
        rows.into_tuples()
    }
}

/// Execute a plan under the context's engine and return its result
/// rows: the one driver, at every worker count. Each result row charges
/// one `ResultEmit` plus its stored width in memory bytes
/// (materialization into the wire buffer — the DBMS side of the result
/// path).
///
/// On the columnar engine with [`ExecCtx::workers`] above one, a fully
/// partitionable plan (scan → filter → project) is run morsel-parallel
/// here at the root, and blocking operators ([`crate::ops::HashJoin`],
/// [`crate::ops::HashAggregate`], [`crate::ops::Sort`]) parallelize
/// their own inputs during `open`; rows and the merged ledger are those
/// of one worker.
///
/// The scalar engine pulls tuples ([`Operator::next`]) into an owned
/// set, serially at any worker count. The columnar engine streams
/// chunks through the plan — serially after telling the root that
/// every column is read ([`Operator::prune`]) before `open`, or per
/// morsel, its chunks taken in morsel order — and keeps each final chunk's selected rows as a
/// [`RowSet`] view of the chunk (late materialization): no row is built
/// here, and each is charged from the chunk's stored widths
/// ([`DataChunk::width_sum`]), exactly what the scalar loop charges from
/// the tuple.
///
/// [`DataChunk::width_sum`]: eco_storage::DataChunk::width_sum
pub fn execute_rows(plan: &mut dyn Operator, ctx: &mut ExecCtx) -> RowSet {
    if !ctx.columnar {
        plan.open(ctx);
        let rows: Vec<Tuple> = std::iter::from_fn(|| plan.next(ctx)).collect();
        ctx.charge(OpClass::ResultEmit, rows.len() as u64);
        ctx.charge_mem_bytes(rows.iter().map(tuple_width).sum());
        return rows.into();
    }
    let mut routed = RoutedRows::default();
    let mut emit = |chunk: Chunk, ctx: &mut ExecCtx| {
        if chunk.is_empty() {
            return;
        }
        let matches = routed.matches_for(&chunk.data);
        let seen = matches.len();
        chunk.rows().for_each(|_, i| matches.push((i as u32, 0)));
        let new = &matches[seen..];
        let bytes = chunk
            .data
            .width_sum(new.iter().map(|&(row, _)| row as usize));
        ctx.charge(OpClass::ResultEmit, new.len() as u64);
        ctx.charge_mem_bytes(bytes);
    };
    let morsels = run_morsels(plan, ctx, |wctx, pipe| {
        std::iter::from_fn(|| pipe.next_chunk(wctx)).collect::<Vec<_>>()
    });
    match morsels {
        Some(morsels) => morsels.into_iter().flatten().for_each(|c| emit(c, ctx)),
        None => {
            plan.prune(&vec![true; plan.schema().arity()]);
            plan.open(ctx);
            while let Some(chunk) = plan.next_chunk(ctx) {
                emit(chunk, ctx);
            }
        }
    }
    routed.into_row_sets(1).remove(0)
}

/// [`execute_rows`] with each row built once, as tuples.
pub fn execute(plan: &mut dyn Operator, ctx: &mut ExecCtx) -> Vec<Tuple> {
    execute_rows(plan, ctx).into_tuples()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr};
    use crate::ops::{Filter, VecSource};
    use eco_storage::{ColumnType, Schema, Value};

    fn plan() -> Filter {
        let schema = Schema::new(&[("v", ColumnType::Int)]);
        let src = VecSource::new(schema, (0..20).map(|i| vec![Value::Int(i)]).collect());
        Filter::new(
            Box::new(src),
            Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(15)),
        )
    }

    #[test]
    fn executes_and_charges_result_emission() {
        let mut p = plan();
        let mut ctx = ExecCtx::new();
        let rows = execute(&mut p, &mut ctx);
        assert_eq!(rows.len(), 5);
        assert_eq!(ctx.ledger.cpu.count(OpClass::ResultEmit), 5);
        assert!(ctx.ledger.mem_stream_bytes > 0);
    }

    #[test]
    fn scalar_and_columnar_agree_on_rows_and_ledger() {
        let mut ctx_s = ExecCtx::new();
        let rows_s = ExecEngine::Scalar.execute(&mut plan(), &mut ctx_s);

        for chunk_size in [1, 3, 7, 1024] {
            let mut ctx_c = ExecCtx::new().with_batch_size(chunk_size);
            let rows_c = ExecEngine::Columnar.execute(&mut plan(), &mut ctx_c);
            assert_eq!(rows_c, rows_s, "chunk size {chunk_size}");
            ctx_s
                .ledger
                .assert_same(&ctx_c.ledger, format_args!("chunk size {chunk_size}"));
            assert_eq!(ctx_c.pred_evals, ctx_s.pred_evals);
        }
    }

    #[test]
    fn engines_restore_the_context_flag() {
        let mut ctx = ExecCtx::new();
        let rows_c = ExecEngine::Columnar.execute(&mut plan(), &mut ctx);
        assert!(!ctx.columnar, "flag must not leak out of the columnar run");
        let mut ctx = ExecCtx::new().with_columnar(true);
        let rows_s = ExecEngine::Scalar.execute(&mut plan(), &mut ctx);
        assert!(ctx.columnar, "flag must not leak out of the scalar run");
        assert_eq!(rows_s, rows_c);
    }
}
