//! Driving a plan to completion.
//!
//! A plan runs one of two ways, picked by [`ExecCtx::columnar`]:
//! the columnar chunk driver ([`Operator::next_chunk`] — typed column
//! vectors and selection vectors, rows materialized only at the top),
//! which is what ships, or the tuple-at-a-time scalar driver
//! ([`Operator::next`]), the oracle the differential tests compare it
//! against. [`execute`] / [`execute_into`] dispatch on the flag;
//! [`ExecEngine`] sets it for one run; [`execute_parallel`] adds
//! morsel-driven intra-query parallelism on worker threads and composes
//! with both (every worker drains the context's engine). Both produce
//! identical result rows and bit-identical [`ExecCtx`] ledgers (see
//! `tests/integration_columnar.rs` and `tests/integration_parallel.rs`)
//! — engine choice, chunk size and worker count are purely throughput
//! knobs; the energy accounting the paper's figures are computed from
//! never changes.
//!
//! ## Failure semantics
//!
//! Operators are infallible at the interface level: a failing operator
//! (a page read whose retry budget is exhausted, a zero divisor in the
//! data — see [`crate::error::ExecError`]) records the first error in
//! the context and ends its stream — a failed expression yields a
//! placeholder value, and every sequential scan stops once an error is
//! recorded — so every driver below terminates normally with a
//! *truncated* result and the error still recorded. The `try_*`
//! drivers check the slot after the pipeline drains and surface it as
//! an `Err`; callers of the infallible drivers can (and the server
//! layer does) inspect [`ExecCtx::take_error`] themselves. Nothing on
//! the execution path panics on a disk fault or a zero divisor.

use eco_simhw::trace::OpClass;
use eco_storage::{tuple_width, Tuple};

use crate::context::ExecCtx;
use crate::error::ExecError;
use crate::ops::Operator;
use crate::parallel::gather_parallel;

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

    /// Execute `plan` under this engine, appending into `out`. The
    /// engine choice is authoritative: the context's
    /// [`ExecCtx::columnar`] flag is set from it for the duration of
    /// the run (and restored).
    pub fn execute_into(self, plan: &mut dyn Operator, ctx: &mut ExecCtx, out: &mut Vec<Tuple>) {
        let saved = ctx.columnar;
        ctx.columnar = self == ExecEngine::Columnar;
        execute_into(plan, ctx, out);
        ctx.columnar = saved;
    }

    /// Execute `plan` under this engine, returning all result tuples.
    pub fn execute(self, plan: &mut dyn Operator, ctx: &mut ExecCtx) -> Vec<Tuple> {
        let mut out = Vec::new();
        self.execute_into(plan, ctx, &mut out);
        out
    }

    /// Fallible twin of [`Self::execute_into`]: drives the plan, then
    /// surfaces the first typed error any operator recorded. On `Err`
    /// the buffer holds whatever rows were produced before the fault.
    pub fn try_execute_into(
        self,
        plan: &mut dyn Operator,
        ctx: &mut ExecCtx,
        out: &mut Vec<Tuple>,
    ) -> Result<(), ExecError> {
        self.execute_into(plan, ctx, out);
        take_exec_error(ctx)
    }

    /// Fallible twin of [`Self::execute`].
    pub fn try_execute(
        self,
        plan: &mut dyn Operator,
        ctx: &mut ExecCtx,
    ) -> Result<Vec<Tuple>, ExecError> {
        let mut out = Vec::new();
        self.try_execute_into(plan, ctx, &mut out)?;
        Ok(out)
    }
}

/// Surface (and clear) the error an operator recorded in `ctx`, if any.
fn take_exec_error(ctx: &mut ExecCtx) -> Result<(), ExecError> {
    match ctx.take_error() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Execute a plan under the context's engine, returning all result
/// tuples. Each result row charges one `ResultEmit` plus its width in
/// memory bytes (materialization into the wire buffer — the DBMS side
/// of the result path).
pub fn execute(plan: &mut dyn Operator, ctx: &mut ExecCtx) -> Vec<Tuple> {
    let mut out = Vec::new();
    execute_into(plan, ctx, &mut out);
    out
}

/// Like [`execute`], appending into an existing buffer (lets callers
/// reuse a workhorse allocation across queries). The one dispatcher:
/// a context with [`ExecCtx::columnar`] set runs the columnar driver,
/// any other the scalar one.
///
/// The columnar driver tells the root that every column is read
/// ([`Operator::prune`]) before `open`, streams chunks through the
/// plan and materializes rows only here, at the top (late
/// materialization), charging the same `ResultEmit` + width bytes per
/// row as the scalar loop.
pub fn execute_into(plan: &mut dyn Operator, ctx: &mut ExecCtx, out: &mut Vec<Tuple>) {
    if !ctx.columnar {
        plan.open(ctx);
        while let Some(t) = plan.next(ctx) {
            ctx.charge(OpClass::ResultEmit, 1);
            ctx.charge_mem_bytes(tuple_width(&t));
            out.push(t);
        }
        return;
    }
    plan.prune(&vec![true; plan.schema().arity()]);
    plan.open(ctx);
    while let Some(chunk) = plan.next_chunk(ctx) {
        let start = out.len();
        chunk.to_tuples(out);
        let bytes: u64 = out[start..].iter().map(tuple_width).sum();
        ctx.charge(OpClass::ResultEmit, (out.len() - start) as u64);
        ctx.charge_mem_bytes(bytes);
    }
}

/// Execute a plan through the columnar driver whatever the context's
/// flag ([`ExecEngine::Columnar`]).
pub fn execute_columnar(plan: &mut dyn Operator, ctx: &mut ExecCtx) -> Vec<Tuple> {
    ExecEngine::Columnar.execute(plan, ctx)
}

/// Execute a plan tuple-at-a-time whatever the context's flag
/// ([`ExecEngine::Scalar`]): the oracle.
pub fn execute_scalar(plan: &mut dyn Operator, ctx: &mut ExecCtx) -> Vec<Tuple> {
    ExecEngine::Scalar.execute(plan, ctx)
}

/// Execute a plan with `workers` morsel-parallel worker threads.
///
/// Identical result rows and a bit-identical merged ledger to
/// [`execute`] at every worker count. Parallelism applies wherever the
/// plan allows it: a fully partitionable plan (scan → filter → project)
/// is gathered morsel-parallel here at the root, and blocking operators
/// ([`crate::ops::HashJoin`], [`crate::ops::HashAggregate`],
/// [`crate::ops::Sort`]) parallelize their own inputs during `open`.
/// With `workers == 1` this is exactly [`execute`].
pub fn execute_parallel(plan: &mut dyn Operator, ctx: &mut ExecCtx, workers: usize) -> Vec<Tuple> {
    let mut out = Vec::new();
    execute_parallel_into(plan, ctx, workers, &mut out);
    out
}

/// Fallible twin of [`execute_parallel_into`]: drives the plan with
/// `workers` threads, then surfaces the first typed error any worker
/// recorded (workers merge in index order, so the surviving error is
/// deterministic for a given fault plan).
pub fn try_execute_parallel_into(
    plan: &mut dyn Operator,
    ctx: &mut ExecCtx,
    workers: usize,
    out: &mut Vec<Tuple>,
) -> Result<(), ExecError> {
    execute_parallel_into(plan, ctx, workers, out);
    take_exec_error(ctx)
}

/// Like [`execute_parallel`], appending into an existing buffer.
pub fn execute_parallel_into(
    plan: &mut dyn Operator,
    ctx: &mut ExecCtx,
    workers: usize,
    out: &mut Vec<Tuple>,
) {
    ctx.workers = workers.max(1);
    // Root-level gather for fully partitionable plans; the result-path
    // charges below match execute_into's per-row charges exactly.
    if let Some(rows) = gather_parallel(plan, ctx) {
        if !rows.is_empty() {
            let bytes: u64 = rows.iter().map(tuple_width).sum();
            ctx.charge(OpClass::ResultEmit, rows.len() as u64);
            ctx.charge_mem_bytes(bytes);
        }
        out.extend(rows);
        return;
    }
    execute_into(plan, ctx, out);
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
        let rows_s = execute_scalar(&mut plan(), &mut ctx_s);

        for chunk_size in [1, 3, 7, 1024] {
            let mut ctx_c = ExecCtx::new().with_batch_size(chunk_size);
            let rows_c = execute_columnar(&mut plan(), &mut ctx_c);
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
        let rows_c = execute_columnar(&mut plan(), &mut ctx);
        assert!(!ctx.columnar, "flag must not leak out of the columnar run");
        let mut ctx = ExecCtx::new().with_columnar(true);
        let rows_s = execute_scalar(&mut plan(), &mut ctx);
        assert!(ctx.columnar, "flag must not leak out of the scalar run");
        assert_eq!(rows_s, rows_c);
    }

    #[test]
    fn execute_into_reuses_buffer() {
        let schema = Schema::new(&[("v", ColumnType::Int)]);
        let mut out = Vec::with_capacity(64);
        for round in 0..3 {
            out.clear();
            let mut src = VecSource::new(
                schema.clone(),
                (0..4).map(|i| vec![Value::Int(i)]).collect(),
            );
            let mut ctx = ExecCtx::new();
            execute_into(&mut src, &mut ctx, &mut out);
            assert_eq!(out.len(), 4, "round {round}");
        }
    }
}
