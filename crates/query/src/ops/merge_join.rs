//! Sort-merge join — the alternative join algorithm for operator-level
//! energy studies (paper §2: energy/performance trade-offs can be
//! investigated "at the operator-level (e.g. rethinking join algorithms
//! in this context)").
//!
//! Compared with [`crate::ops::HashJoin`], the sort-merge join spends
//! its cycles in comparison-heavy sorting (high switching activity)
//! instead of latency-bound hash probing (low activity): it can be
//! faster or slower depending on input sizes, and it draws *different
//! power* for the same result — exactly the kind of choice an
//! energy-aware optimizer must weigh.

use std::cmp::Ordering;

use eco_simhw::trace::OpClass;
use eco_storage::{tuple_width, Schema, Tuple, Value};

use crate::context::ExecCtx;
use crate::ops::{BoxedOp, Operator};
use crate::parallel::drain_pipeline;

/// Sort-merge equi-join (multi-column keys). Materializes and sorts
/// both inputs at `open`, then merges.
pub struct SortMergeJoin {
    left: BoxedOp,
    right: BoxedOp,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    schema: Schema,
    output: std::vec::IntoIter<Tuple>,
}

impl SortMergeJoin {
    /// Join `left ⋈ right` on `left_keys = right_keys`. Output schema
    /// is left columns followed by right columns (same convention as
    /// `HashJoin`).
    pub fn new(
        left: BoxedOp,
        right: BoxedOp,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
    ) -> Self {
        assert_eq!(
            left_keys.len(),
            right_keys.len(),
            "key arity mismatch: {left_keys:?} vs {right_keys:?}"
        );
        assert!(!left_keys.is_empty(), "join needs at least one key");
        let schema = left.schema().join(right.schema());
        Self {
            left,
            right,
            left_keys,
            right_keys,
            schema,
            output: Vec::new().into_iter(),
        }
    }

    fn drain_sorted(child: &mut BoxedOp, keys: &[usize], ctx: &mut ExecCtx) -> Vec<Tuple> {
        child.open(ctx);
        let mut rows = drain_pipeline(ctx, child.as_mut());
        ctx.charge_mem_bytes(rows.iter().map(tuple_width).sum());
        let mut comparisons = 0u64;
        rows.sort_by(|a, b| {
            comparisons += 1;
            cmp_keys(a, b, keys, keys)
        });
        ctx.charge(OpClass::SortCmp, comparisons);
        rows
    }
}

fn cmp_keys(a: &Tuple, b: &Tuple, ka: &[usize], kb: &[usize]) -> Ordering {
    for (&ia, &ib) in ka.iter().zip(kb) {
        let ord = a[ia]
            .partial_cmp_typed(&b[ib])
            .expect("join keys comparable");
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

impl Operator for SortMergeJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecCtx) {
        let left = Self::drain_sorted(&mut self.left, &self.left_keys, ctx);
        let right = Self::drain_sorted(&mut self.right, &self.right_keys, ctx);

        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < left.len() && j < right.len() {
            ctx.charge(OpClass::SortCmp, 1);
            match cmp_keys(&left[i], &right[j], &self.left_keys, &self.right_keys) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    // Cross product of the equal-key groups.
                    let key: Vec<Value> =
                        self.left_keys.iter().map(|&k| left[i][k].clone()).collect();
                    let gi_end = (i..left.len())
                        .take_while(|&x| {
                            self.left_keys
                                .iter()
                                .zip(&key)
                                .all(|(&k, v)| &left[x][k] == v)
                        })
                        .last()
                        .expect("group non-empty")
                        + 1;
                    let gj_end = (j..right.len())
                        .take_while(|&x| {
                            self.right_keys
                                .iter()
                                .zip(&key)
                                .all(|(&k, v)| &right[x][k] == v)
                        })
                        .last()
                        .expect("group non-empty")
                        + 1;
                    for l in &left[i..gi_end] {
                        for r in &right[j..gj_end] {
                            let mut t = Vec::with_capacity(l.len() + r.len());
                            t.extend(l.iter().cloned());
                            t.extend(r.iter().cloned());
                            ctx.charge_mem_bytes(tuple_width(&t));
                            out.push(t);
                        }
                    }
                    i = gi_end;
                    j = gj_end;
                }
            }
        }
        self.output = out.into_iter();
    }

    fn next(&mut self, _ctx: &mut ExecCtx) -> Option<Tuple> {
        self.output.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{HashJoin, VecSource};
    use eco_storage::ColumnType;

    fn src(name: &str, vals: &[(i64, &str)]) -> VecSource {
        let schema = Schema::new(&[
            (&format!("{name}_k"), ColumnType::Int),
            (&format!("{name}_v"), ColumnType::Str),
        ]);
        VecSource::new(
            schema,
            vals.iter()
                .map(|(k, v)| vec![Value::Int(*k), Value::str(*v)])
                .collect(),
        )
    }

    fn run(op: &mut dyn Operator) -> Vec<Tuple> {
        let mut ctx = ExecCtx::new();
        op.open(&mut ctx);
        std::iter::from_fn(|| op.next(&mut ctx)).collect()
    }

    #[test]
    fn merge_join_matches_hash_join() {
        let data_l = [(3, "a"), (1, "b"), (2, "c"), (2, "d")];
        let data_r = [(2, "x"), (2, "y"), (9, "z"), (1, "w")];
        let mut mj = SortMergeJoin::new(
            Box::new(src("l", &data_l)),
            Box::new(src("r", &data_r)),
            vec![0],
            vec![0],
        );
        let mut hj = HashJoin::new(
            Box::new(src("l", &data_l)),
            Box::new(src("r", &data_r)),
            vec![0],
            vec![0],
        );
        let mut a = run(&mut mj);
        let mut b = run(&mut hj);
        a.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
        b.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
        assert_eq!(a, b);
        // Key 2 is 2×2 = 4 rows, key 1 is 1×1.
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn empty_sides() {
        let mut mj = SortMergeJoin::new(
            Box::new(src("l", &[])),
            Box::new(src("r", &[(1, "x")])),
            vec![0],
            vec![0],
        );
        assert!(run(&mut mj).is_empty());
    }

    #[test]
    fn charges_sort_comparisons_not_hash_probes() {
        let data: Vec<(i64, &str)> = (0..100).map(|i| (i % 10, "v")).collect();
        let mut mj = SortMergeJoin::new(
            Box::new(src("l", &data)),
            Box::new(src("r", &data)),
            vec![0],
            vec![0],
        );
        let mut ctx = ExecCtx::new();
        mj.open(&mut ctx);
        assert!(
            ctx.ledger.cpu.count(OpClass::SortCmp) > 200,
            "sorting dominates"
        );
        assert_eq!(ctx.ledger.cpu.count(OpClass::HashProbe), 0);
        assert_eq!(ctx.ledger.cpu.count(OpClass::HashBuild), 0);
    }

    #[test]
    #[should_panic(expected = "key arity mismatch")]
    fn mismatched_keys_rejected() {
        let _ = SortMergeJoin::new(
            Box::new(src("l", &[])),
            Box::new(src("r", &[])),
            vec![0],
            vec![0, 1],
        );
    }
}
