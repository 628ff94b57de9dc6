//! Limit: truncate a stream after N tuples.

use eco_storage::{Schema, Tuple};

use crate::context::ExecCtx;
use crate::ops::{BoxedOp, Operator};

/// Emits at most `n` tuples from its child.
///
/// The columnar engine reaches it through the default
/// [`Operator::next_chunk`], which pulls `next()`: the child is pulled
/// tuple-at-a-time in every engine, so early termination consumes — and
/// therefore charges — exactly as much of the child stream as scalar
/// execution does, even over non-blocking pipelines. The pipeline
/// *below* a blocking child (sort, aggregate) still runs columnar
/// inside that child's `open`.
///
/// The same contract governs parallelism: `open` raises
/// [`ExecCtx::streaming_exact`] while opening its subtree, so streaming
/// pipelines below never pre-materialize in parallel (they would
/// consume — and charge — more of the stream than scalar execution).
/// Blocking descendants clear the flag for their own subtrees, since
/// they drain their input fully in any mode; so `Limit → Sort → …`
/// still parallelizes everything below the sort.
pub struct Limit {
    child: BoxedOp,
    n: usize,
    emitted: usize,
}

impl Limit {
    /// Limit `child` to `n` rows.
    pub fn new(child: BoxedOp, n: usize) -> Self {
        Self {
            child,
            n,
            emitted: 0,
        }
    }
}

impl Operator for Limit {
    fn schema(&self) -> &Schema {
        self.child.schema()
    }

    fn open(&mut self, ctx: &mut ExecCtx) {
        self.emitted = 0;
        ctx.streaming_exact += 1;
        self.child.open(ctx);
        ctx.streaming_exact -= 1;
    }

    fn next(&mut self, ctx: &mut ExecCtx) -> Option<Tuple> {
        if self.emitted >= self.n {
            return None;
        }
        let t = self.child.next(ctx)?;
        self.emitted += 1;
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::VecSource;
    use eco_storage::{ColumnType, Value};

    #[test]
    fn truncates() {
        let schema = Schema::new(&[("v", ColumnType::Int)]);
        let src = VecSource::new(schema, (0..10).map(|i| vec![Value::Int(i)]).collect());
        let mut l = Limit::new(Box::new(src), 3);
        let mut ctx = ExecCtx::new();
        l.open(&mut ctx);
        let out: Vec<Tuple> = std::iter::from_fn(|| l.next(&mut ctx)).collect();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn limit_zero_and_larger_than_input() {
        let schema = Schema::new(&[("v", ColumnType::Int)]);
        let mk = |n: usize| {
            let src = VecSource::new(
                schema.clone(),
                (0..2).map(|i| vec![Value::Int(i)]).collect(),
            );
            Limit::new(Box::new(src), n)
        };
        let mut ctx = ExecCtx::new();
        let mut l0 = mk(0);
        l0.open(&mut ctx);
        assert!(l0.next(&mut ctx).is_none());
        let mut l9 = mk(9);
        l9.open(&mut ctx);
        assert_eq!(std::iter::from_fn(|| l9.next(&mut ctx)).count(), 2);
    }
}
