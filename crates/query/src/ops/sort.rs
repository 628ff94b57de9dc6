//! Sort: materialize and order by key columns.

use eco_simhw::trace::OpClass;
use eco_storage::{tuple_width, Schema, Tuple};

use crate::context::ExecCtx;
use crate::ops::{BoxedOp, Operator};
use crate::parallel::{drain_pipeline, gather_parallel};

/// One sort key: column index plus direction.
#[derive(Debug, Clone, Copy)]
pub struct SortKey {
    /// Column index in the child schema.
    pub col: usize,
    /// Sort descending when true.
    pub desc: bool,
}

impl SortKey {
    /// Ascending key.
    pub fn asc(col: usize) -> Self {
        Self { col, desc: false }
    }

    /// Descending key.
    pub(crate) fn desc(col: usize) -> Self {
        Self { col, desc: true }
    }
}

/// Full materializing sort. Charges one `SortCmp` per actual comparison
/// performed by the sort algorithm plus materialization bytes.
///
/// In a parallel columnar context a partitionable child is drained
/// through an order-preserving morsel gather and the sort itself runs
/// serially over the gathered rows. The comparison count of the sort algorithm
/// depends on input order, so presenting the *exact serial input
/// sequence* is what keeps the `SortCmp` charge — and with it the
/// energy ledger — identical at every worker count.
pub struct Sort {
    child: BoxedOp,
    keys: Vec<SortKey>,
    results: std::vec::IntoIter<Tuple>,
}

impl Sort {
    /// Sort `child` by `keys` (lexicographic, first key most significant).
    pub fn new(child: BoxedOp, keys: Vec<SortKey>) -> Self {
        assert!(!keys.is_empty(), "sort needs at least one key");
        Self {
            child,
            keys,
            results: Vec::new().into_iter(),
        }
    }
}

impl Operator for Sort {
    fn schema(&self) -> &Schema {
        self.child.schema()
    }

    fn open(&mut self, ctx: &mut ExecCtx) {
        // A sort drains its input fully in every mode; clear any
        // surrounding Limit's streaming-exactness constraint for the
        // subtree.
        let saved_exact = ctx.streaming_exact;
        ctx.streaming_exact = 0;
        // The sort is a pipeline breaker: a columnar child's rows
        // materialize here (late).
        let mut rows = match gather_parallel(self.child.as_ref(), ctx) {
            Some(rows) => rows,
            None => {
                self.child.open(ctx);
                drain_pipeline(ctx, self.child.as_mut())
            }
        };
        // Materialization: every row's width, however it arrived.
        ctx.charge_mem_bytes(rows.iter().map(tuple_width).sum());
        ctx.streaming_exact = saved_exact;
        let keys = self.keys.clone();
        let mut comparisons: u64 = 0;
        rows.sort_by(|a, b| {
            comparisons += 1;
            for k in &keys {
                let ord = a[k.col]
                    .partial_cmp_typed(&b[k.col])
                    .expect("sort keys comparable");
                let ord = if k.desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        ctx.charge(OpClass::SortCmp, comparisons);
        self.results = rows.into_iter();
    }

    fn next(&mut self, _ctx: &mut ExecCtx) -> Option<Tuple> {
        self.results.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::VecSource;
    use eco_storage::{ColumnType, Value};

    fn src(vals: &[i64]) -> VecSource {
        let schema = Schema::new(&[("v", ColumnType::Int)]);
        VecSource::new(schema, vals.iter().map(|&v| vec![Value::Int(v)]).collect())
    }

    fn run(s: &mut Sort) -> Vec<i64> {
        let mut ctx = ExecCtx::new();
        s.open(&mut ctx);
        std::iter::from_fn(|| s.next(&mut ctx))
            .map(|t| t[0].as_int().unwrap())
            .collect()
    }

    #[test]
    fn ascending_and_descending() {
        let mut s = Sort::new(Box::new(src(&[3, 1, 2])), vec![SortKey::asc(0)]);
        assert_eq!(run(&mut s), vec![1, 2, 3]);
        let mut s = Sort::new(Box::new(src(&[3, 1, 2])), vec![SortKey::desc(0)]);
        assert_eq!(run(&mut s), vec![3, 2, 1]);
    }

    #[test]
    fn multi_key_lexicographic() {
        let schema = Schema::new(&[("a", ColumnType::Int), ("b", ColumnType::Int)]);
        let src = VecSource::new(
            schema,
            vec![
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::Int(1), Value::Int(1)],
                vec![Value::Int(0), Value::Int(9)],
            ],
        );
        let mut s = Sort::new(Box::new(src), vec![SortKey::asc(0), SortKey::asc(1)]);
        let mut ctx = ExecCtx::new();
        s.open(&mut ctx);
        let out: Vec<Tuple> = std::iter::from_fn(|| s.next(&mut ctx)).collect();
        assert_eq!(out[0], vec![Value::Int(0), Value::Int(9)]);
        assert_eq!(out[1], vec![Value::Int(1), Value::Int(1)]);
        assert_eq!(out[2], vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn charges_real_comparison_count() {
        let mut s = Sort::new(Box::new(src(&[5, 4, 3, 2, 1])), vec![SortKey::asc(0)]);
        let mut ctx = ExecCtx::new();
        s.open(&mut ctx);
        let cmps = ctx.ledger.cpu.count(OpClass::SortCmp);
        assert!(
            cmps >= 4,
            "5 elements need at least 4 comparisons, got {cmps}"
        );
    }

    #[test]
    fn empty_input() {
        let mut s = Sort::new(Box::new(src(&[])), vec![SortKey::asc(0)]);
        assert!(run(&mut s).is_empty());
    }
}
