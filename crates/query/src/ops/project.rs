//! Projection: compute output expressions per tuple.

use std::sync::Arc;

use eco_storage::{ColumnChunk, ColumnType, DataChunk, Schema, Tuple};

use crate::chunk::Chunk;
use crate::context::ExecCtx;
use crate::expr::Expr;
use crate::ops::{mark_read, BoxedOp, Operator};

/// Expression projection with named output columns.
pub struct Project {
    child: BoxedOp,
    exprs: Vec<Expr>,
    schema: Schema,
}

impl Project {
    /// Project `child` through `(name, type, expr)` outputs.
    pub fn new(child: BoxedOp, outputs: Vec<(String, ColumnType, Expr)>) -> Self {
        let cols: Vec<(&str, ColumnType)> =
            outputs.iter().map(|(n, t, _)| (n.as_str(), *t)).collect();
        let schema = Schema::new(&cols);
        Self {
            child,
            exprs: outputs.into_iter().map(|(_, _, e)| e).collect(),
            schema,
        }
    }

    /// Pass-through projection of columns by index.
    pub fn columns(child: BoxedOp, indices: &[usize]) -> Self {
        let schema = child.schema().project(indices);
        let exprs = indices.iter().map(|&i| Expr::col(i)).collect();
        Self {
            child,
            exprs,
            schema,
        }
    }
}

impl Operator for Project {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecCtx) {
        self.child.open(ctx);
    }

    fn next(&mut self, ctx: &mut ExecCtx) -> Option<Tuple> {
        let t = self.child.next(ctx)?;
        Some(self.exprs.iter().map(|e| e.eval(&t, ctx)).collect())
    }

    /// Columnar projection: evaluate each output expression over the
    /// live rows as typed column kernels (`Expr::eval_column`),
    /// producing a fresh dense chunk (computed columns have no
    /// selection vector to inherit; passthrough columns keep their
    /// validity masks). Charges match per-row evaluation.
    fn next_chunk(&mut self, ctx: &mut ExecCtx) -> Option<Chunk> {
        let chunk = self.child.next_chunk(ctx)?;
        let rows = chunk.rows();
        let cols: Vec<ColumnChunk> = self
            .exprs
            .iter()
            .map(|e| e.eval_column(&chunk.data, rows, ctx))
            .collect();
        Some(Chunk::dense(Arc::new(DataChunk::new(cols))))
    }

    /// Every output column is computed, whatever the parent reads (its
    /// widths are the row's), so the child is asked for the columns of
    /// all the expressions. Only here, never in `open`: a projection
    /// under a row puller must keep pulling whole rows.
    fn prune(&mut self, _needed: &[bool]) {
        let mut needed = vec![false; self.child.schema().arity()];
        self.exprs.iter().for_each(|e| mark_read(e, &mut needed));
        self.child.prune(&needed);
    }

    fn split(&self, target_rows: usize) -> Option<Vec<BoxedOp>> {
        let parts = self.child.split(target_rows)?;
        let project = |child| -> BoxedOp {
            Box::new(Project {
                child,
                exprs: self.exprs.clone(),
                schema: self.schema.clone(),
            })
        };
        Some(parts.into_iter().map(project).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ArithOp;
    use crate::ops::VecSource;
    use eco_storage::Value;

    #[test]
    fn computes_expressions() {
        let schema = Schema::new(&[("a", ColumnType::Int), ("b", ColumnType::Int)]);
        let src = VecSource::new(schema, vec![vec![Value::Int(3), Value::Int(4)]]);
        let mut p = Project::new(
            Box::new(src),
            vec![(
                "sum".to_string(),
                ColumnType::Int,
                Expr::arith(ArithOp::Add, Expr::col(0), Expr::col(1)),
            )],
        );
        let mut ctx = ExecCtx::new();
        p.open(&mut ctx);
        assert_eq!(p.next(&mut ctx).unwrap(), vec![Value::Int(7)]);
        assert_eq!(p.schema().names(), vec!["sum"]);
    }

    #[test]
    fn column_projection() {
        let schema = Schema::new(&[("a", ColumnType::Int), ("b", ColumnType::Str)]);
        let src = VecSource::new(schema, vec![vec![Value::Int(1), Value::str("x")]]);
        let mut p = Project::columns(Box::new(src), &[1]);
        let mut ctx = ExecCtx::new();
        p.open(&mut ctx);
        assert_eq!(p.next(&mut ctx).unwrap(), vec![Value::str("x")]);
        assert_eq!(p.schema().names(), vec!["b"]);
    }
}
