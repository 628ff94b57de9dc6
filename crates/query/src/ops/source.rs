//! In-memory tuple source (tests, intermediate materializations).

use std::sync::{Arc, OnceLock};

use eco_storage::{DataChunk, Schema, Tuple};

use crate::chunk::Chunk;
use crate::context::ExecCtx;
use crate::ops::{BoxedOp, Operator};
use crate::parallel::split_units;

/// Emits a fixed vector of tuples. Charges nothing — the tuples are
/// assumed already materialized (use [`crate::ops::SeqScan`] for
/// table access that should be priced).
///
/// The tuples are held behind an `Arc`, so morsel partitions
/// ([`Operator::split`]) share the data instead of copying it;
/// the lazily-built columnar mirror behind [`Operator::next_chunk`] is
/// shared the same way.
pub struct VecSource {
    schema: Schema,
    tuples: Arc<Vec<Tuple>>,
    columns: Arc<OnceLock<Arc<DataChunk>>>,
    start: usize,
    end: usize,
    idx: usize,
}

impl VecSource {
    /// Source over `tuples` with the given schema.
    pub fn new(schema: Schema, tuples: Vec<Tuple>) -> Self {
        let end = tuples.len();
        Self {
            schema,
            tuples: Arc::new(tuples),
            columns: Arc::new(OnceLock::new()),
            start: 0,
            end,
            idx: 0,
        }
    }

    /// True when this source covers the full tuple vector (i.e. it is
    /// not itself a morsel partition).
    fn is_full(&self) -> bool {
        self.start == 0 && self.end == self.tuples.len()
    }
}

impl Operator for VecSource {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, _ctx: &mut ExecCtx) {
        self.idx = self.start;
    }

    fn next(&mut self, _ctx: &mut ExecCtx) -> Option<Tuple> {
        if self.idx >= self.end {
            return None;
        }
        let t = self.tuples[self.idx].clone();
        self.idx += 1;
        Some(t)
    }

    fn next_chunk(&mut self, ctx: &mut ExecCtx) -> Option<Chunk> {
        if self.idx >= self.end {
            return None;
        }
        let cols = self
            .columns
            .get_or_init(|| Arc::new(DataChunk::from_rows(&self.schema, &self.tuples)));
        let end = (self.idx + ctx.batch_size.max(1)).min(self.end);
        let chunk = Chunk::window(Arc::clone(cols), self.idx..end);
        self.idx = end;
        Some(chunk)
    }

    fn split(&self, target_rows: usize) -> Option<Vec<BoxedOp>> {
        if !self.is_full() {
            // Already a partition; never re-split.
            return None;
        }
        let ranges = split_units(self.tuples.len(), target_rows)?;
        let part = |rows: std::ops::Range<usize>| -> BoxedOp {
            Box::new(VecSource {
                schema: self.schema.clone(),
                tuples: Arc::clone(&self.tuples),
                columns: Arc::clone(&self.columns),
                start: rows.start,
                end: rows.end,
                idx: rows.start,
            })
        };
        Some(ranges.into_iter().map(part).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_storage::{ColumnType, Value};

    #[test]
    fn emits_all_then_none_and_reopens() {
        let schema = Schema::new(&[("k", ColumnType::Int)]);
        let mut s = VecSource::new(schema, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        let mut ctx = ExecCtx::new();
        s.open(&mut ctx);
        assert_eq!(s.next(&mut ctx).unwrap()[0], Value::Int(1));
        assert_eq!(s.next(&mut ctx).unwrap()[0], Value::Int(2));
        assert!(s.next(&mut ctx).is_none());
        s.open(&mut ctx);
        assert_eq!(s.next(&mut ctx).unwrap()[0], Value::Int(1));
    }

    #[test]
    fn morsel_partitions_share_and_cover() {
        let schema = Schema::new(&[("k", ColumnType::Int)]);
        let s = VecSource::new(schema, (0..10).map(|i| vec![Value::Int(i)]).collect());
        let parts = s.split(4).expect("partitionable");
        assert_eq!(parts.len(), 3);
        let mut ctx = ExecCtx::new();
        let mut all = Vec::new();
        for mut part in parts {
            part.open(&mut ctx);
            while let Some(t) = part.next(&mut ctx) {
                all.push(t[0].as_int().unwrap());
            }
        }
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        // Partitions never re-split.
        let parts = s.split(4).expect("partitionable");
        assert!(parts[0].split(2).is_none());
        // Nor does a source too small for two parts.
        assert!(s.split(10).is_none());
    }
}
