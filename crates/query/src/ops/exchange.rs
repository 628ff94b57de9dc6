//! Exchange and gather-merge: the explicit parallelism operators.
//!
//! [`Exchange`] is the plan node that moves a partitionable pipeline
//! onto worker threads: at `open` it splits its child into morsels,
//! runs the per-morsel pipeline clones in parallel, and then streams
//! the gathered output. [`GatherMerge`] is the order-preserving
//! variant placed below order-sensitive consumers ([`super::Sort`]
//! charges one `SortCmp` per *actual* comparison, which depends on
//! input order — so its input must arrive in exactly the serial order).
//!
//! In this engine *both* gather in morsel order — that is precisely
//! what makes the parallel energy ledger and output stream bit-identical
//! to serial execution, the repo's load-bearing invariant. The two
//! names encode intent at plan-construction time: an `Exchange`
//! consumer promises not to depend on tuple order (so a future
//! relaxation to eager arrival-order gather stays safe), a
//! `GatherMerge` consumer does depend on it.
//!
//! When the context is serial (`workers == 1`), the child is not
//! partitionable, or the plan sits under a `Limit`
//! ([`crate::context::ExecCtx::streaming_exact`]), both operators
//! delegate to the child unchanged — zero cost, identical ledger.

use eco_storage::{Schema, Tuple};

use crate::context::ExecCtx;
use crate::ops::{BoxedOp, Operator};
use crate::parallel::{gather_parallel, Morsel};

/// Shared implementation of the two gather operators.
struct Gather {
    child: BoxedOp,
    /// Parallel-gathered output (morsel order); `None` while delegating
    /// to the child in serial mode.
    buffered: Option<std::vec::IntoIter<Tuple>>,
}

impl Gather {
    fn new(child: BoxedOp) -> Self {
        Self {
            child,
            buffered: None,
        }
    }

    fn open(&mut self, ctx: &mut ExecCtx) {
        self.buffered = gather_parallel(self.child.as_ref(), ctx).map(Vec::into_iter);
        if self.buffered.is_none() {
            self.child.open(ctx);
        }
    }

    fn next(&mut self, ctx: &mut ExecCtx) -> Option<Tuple> {
        match &mut self.buffered {
            Some(rows) => rows.next(),
            None => self.child.next(ctx),
        }
    }
}

macro_rules! gather_operator {
    ($name:ident) => {
        impl Operator for $name {
            fn schema(&self) -> &Schema {
                self.inner.child.schema()
            }

            fn open(&mut self, ctx: &mut ExecCtx) {
                self.inner.open(ctx);
            }

            fn next(&mut self, ctx: &mut ExecCtx) -> Option<Tuple> {
                self.inner.next(ctx)
            }

            fn morsels(&self, target_rows: usize) -> Option<Vec<Morsel>> {
                // An exchange is itself a pipeline breaker: consumers
                // partition *below* it, never through it.
                let _ = target_rows;
                None
            }

            fn clone_morsel(&self, _morsel: &Morsel) -> Option<BoxedOp> {
                None
            }
        }
    };
}

/// Parallelize a partitionable child pipeline across worker threads,
/// gathering its full output at `open`. Consumers must not rely on
/// tuple order (use [`GatherMerge`] when they do — here both currently
/// gather in morsel order, see the module docs).
pub struct Exchange {
    inner: Gather,
}

impl Exchange {
    /// Exchange over `child`.
    pub fn new(child: BoxedOp) -> Self {
        Self {
            inner: Gather::new(child),
        }
    }
}

gather_operator!(Exchange);

/// Order-preserving parallel gather: like [`Exchange`], with the
/// explicit contract that output arrives in exactly the order serial
/// execution of the child would produce — required below [`super::Sort`]
/// and any other consumer whose charges depend on input order.
pub struct GatherMerge {
    inner: Gather,
}

impl GatherMerge {
    /// Order-preserving gather over `child`.
    pub fn new(child: BoxedOp) -> Self {
        Self {
            inner: Gather::new(child),
        }
    }
}

gather_operator!(GatherMerge);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr};
    use crate::ops::{Filter, VecSource};
    use eco_storage::{ColumnType, Value};

    fn pipeline(n: i64) -> BoxedOp {
        let schema = Schema::new(&[("v", ColumnType::Int)]);
        let src = VecSource::new(schema, (0..n).map(|i| vec![Value::Int(i)]).collect());
        Box::new(Filter::new(
            Box::new(src),
            Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(n / 3)),
        ))
    }

    fn drain(op: &mut dyn Operator, ctx: &mut ExecCtx) -> Vec<Tuple> {
        op.open(ctx);
        std::iter::from_fn(|| op.next(ctx)).collect()
    }

    #[test]
    fn exchange_matches_serial_child() {
        let mut serial_ctx = ExecCtx::new();
        let serial = drain(pipeline(900).as_mut(), &mut serial_ctx);
        for workers in [1, 2, 5] {
            let mut ex = Exchange::new(pipeline(900));
            let mut ctx = ExecCtx::new().with_workers(workers).with_morsel_rows(100);
            let rows = drain(&mut ex, &mut ctx);
            assert_eq!(rows, serial, "workers={workers}");
            assert_eq!(ctx.ledger.cpu, serial_ctx.ledger.cpu, "workers={workers}");
        }
    }

    #[test]
    fn gather_merge_preserves_order_scalar_pull() {
        let mut gm = GatherMerge::new(pipeline(600));
        let mut ctx = ExecCtx::new().with_workers(4).with_morsel_rows(64);
        gm.open(&mut ctx);
        let rows: Vec<i64> = std::iter::from_fn(|| gm.next(&mut ctx))
            .map(|t| t[0].as_int().unwrap())
            .collect();
        assert_eq!(rows, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn exchange_is_a_pipeline_breaker() {
        let ex = Exchange::new(pipeline(100));
        assert!(ex.morsels(10).is_none());
    }
}
