//! Filter: pass tuples satisfying a predicate.

use eco_storage::{Schema, Tuple};

use crate::chunk::Chunk;
use crate::context::ExecCtx;
use crate::expr::Expr;
use crate::ops::{mark_read, BoxedOp, Operator};

/// Predicate filter. The expression evaluator itself charges one
/// `PredEval` per comparison, so selective predicates are cheap and
/// wide disjunctions expensive — exactly the effect QED trades on.
///
/// In columnar mode ([`Operator::next_chunk`]) the predicate is
/// evaluated column-at-a-time against the chunk's *selection vector* —
/// no row is ever materialized or moved. Each comparison conjunct
/// compacts the selection in place: one loop per chunk writes every
/// live row id at a cursor that advances only where the row passes,
/// with no branch on the row's data and no per-row flag vector
/// (`Expr::filter_sel`). Charges are identical to evaluating the
/// predicate against every live row.
pub struct Filter {
    child: BoxedOp,
    predicate: Expr,
}

impl Filter {
    /// Filter `child` by `predicate` (a boolean expression over the
    /// child's output schema).
    pub fn new(child: BoxedOp, predicate: Expr) -> Self {
        Self { child, predicate }
    }
}

impl Operator for Filter {
    fn schema(&self) -> &Schema {
        self.child.schema()
    }

    fn open(&mut self, ctx: &mut ExecCtx) {
        self.child.open(ctx);
    }

    fn next(&mut self, ctx: &mut ExecCtx) -> Option<Tuple> {
        loop {
            let t = self.child.next(ctx)?;
            if self.predicate.eval_bool(&t, ctx) {
                return Some(t);
            }
        }
    }

    fn next_chunk(&mut self, ctx: &mut ExecCtx) -> Option<Chunk> {
        let mut chunk = self.child.next_chunk(ctx)?;
        if chunk.is_empty() {
            return Some(chunk);
        }
        let mut sel = match chunk.sel.take() {
            Some(sel) => sel,
            None => chunk.rows().to_indices(),
        };
        match &chunk.enc {
            // Compressed pricing with an encoded mirror attached by the
            // scan: filter directly on the compressed form (dictionary
            // ids, runs, packed words; see [`Expr::filter_sel_enc`]).
            Some(enc) => self
                .predicate
                .filter_sel_enc(&chunk.data, enc, &mut sel, ctx),
            None => self.predicate.filter_sel(&chunk.data, &mut sel, ctx),
        }
        Some(chunk.with_sel(sel))
    }

    /// The filter's output is its child's chunk, so the child is asked
    /// for what the parent reads plus the predicate's columns.
    fn prune(&mut self, needed: &[bool]) {
        let mut needed = needed.to_vec();
        mark_read(&self.predicate, &mut needed);
        self.child.prune(&needed);
    }

    fn split(&self, target_rows: usize) -> Option<Vec<BoxedOp>> {
        let parts = self.child.split(target_rows)?;
        let filter = |child| -> BoxedOp { Box::new(Filter::new(child, self.predicate.clone())) };
        Some(parts.into_iter().map(filter).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::ops::VecSource;
    use eco_storage::{ColumnType, Value};

    #[test]
    fn filters_and_charges() {
        let schema = Schema::new(&[("k", ColumnType::Int)]);
        let tuples: Vec<Tuple> = (0..100).map(|i| vec![Value::Int(i)]).collect();
        let src = VecSource::new(schema, tuples);
        let mut f = Filter::new(
            Box::new(src),
            Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(10)),
        );
        let mut ctx = ExecCtx::new();
        f.open(&mut ctx);
        let out: Vec<Tuple> = std::iter::from_fn(|| f.next(&mut ctx)).collect();
        assert_eq!(out.len(), 10);
        assert_eq!(ctx.pred_evals, 100, "predicate evaluated per input row");
    }
}
