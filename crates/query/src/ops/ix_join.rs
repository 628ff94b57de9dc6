//! Index nested-loop join: probe a B-tree per outer row.

use std::sync::Arc;

use eco_simhw::trace::{OpClass, PricingMode};
use eco_storage::{tuple_width, BTreeIndex, PageFrame, Schema, StoredTable, TableData, Tuple};

use crate::context::ExecCtx;
use crate::ops::{BoxedOp, Operator};

/// Index nested-loop join (ledger schema v4).
///
/// For every outer row, probes the inner table's B-tree index with the
/// outer join-key value and fetches the matching inner base rows,
/// emitting `outer ++ inner` concatenations. Against a selective outer
/// this touches only the inner pages that actually join — the classic
/// alternative to hashing the whole inner — at the price of one tree
/// descent per outer row, all charged as **index random I/O** plus
/// [`OpClass::NodeSearch`] steps.
///
/// Charges per outer row: one `TupleFetch`-free probe (node searches +
/// index-page I/O). Charges per matching inner row: one `TupleFetch`
/// plus the inner table's average tuple width in memory bytes (the
/// [`super::SeqScan`] base-fetch charges), and the concatenated output
/// row's width in memory bytes (the [`super::HashJoin`] output charge).
/// So an IxJoin and a HashJoin of the same inputs produce identical
/// *rows* while their ledgers differ exactly where the access paths
/// differ — which is what makes the join-strategy energy comparison
/// measurable.
///
/// Mismatched key types (outer key vs. index key) simply never match,
/// like any type-mismatched comparison in this engine.
pub struct IxJoin {
    outer: BoxedOp,
    outer_key: usize,
    inner: Arc<StoredTable>,
    index: Arc<BTreeIndex>,
    schema: Schema,
    avg_inner_bytes: u64,
    // Current outer row and its pending inner matches.
    outer_row: Option<Tuple>,
    pending: Vec<usize>,
    pos: usize,
    current: Option<(usize, Arc<PageFrame>)>,
}

impl IxJoin {
    /// Join `outer` to `inner` through `index`, matching outer column
    /// `outer_key` against the indexed column. Panics if `inner` is not
    /// a disk table.
    pub fn new(
        outer: BoxedOp,
        outer_key: usize,
        inner: Arc<StoredTable>,
        index: Arc<BTreeIndex>,
    ) -> Self {
        assert!(
            matches!(inner.data, TableData::Disk(_)),
            "IxJoin inner {:?} is not a disk table",
            inner.name
        );
        assert!(
            outer_key < outer.schema().arity(),
            "outer key column {outer_key} out of range"
        );
        let schema = outer.schema().join(inner.schema());
        let avg_inner_bytes = inner.avg_tuple_bytes();
        Self {
            outer,
            outer_key,
            inner,
            index,
            schema,
            avg_inner_bytes,
            outer_row: None,
            pending: Vec::new(),
            pos: 0,
            current: None,
        }
    }

    /// Fetch inner base page `page_no` (cached across consecutive
    /// sorted row ids), charging the v4 index classes. Returns `false`
    /// after recording a read error.
    fn fetch_page(&mut self, ctx: &mut ExecCtx, page_no: usize) -> bool {
        if matches!(&self.current, Some((p, _)) if *p == page_no) {
            return true;
        }
        let TableData::Disk(disk) = &self.inner.data else {
            unreachable!("IxJoin constructor enforces a disk inner");
        };
        match disk.read_page_index_checked(page_no) {
            Ok((page, io)) => {
                ctx.ledger.merge(&io);
                self.current = Some((page_no, page));
                true
            }
            Err(e) => {
                ctx.fail(e.into());
                self.outer_row = None;
                self.pending.clear();
                false
            }
        }
    }

    /// Advance to the next outer row that has at least one inner match.
    /// Returns `false` when the outer stream (or the query, on error)
    /// ends.
    fn advance_outer(&mut self, ctx: &mut ExecCtx) -> bool {
        loop {
            let Some(row) = self.outer.next(ctx) else {
                self.outer_row = None;
                return false;
            };
            match self.index.probe_point(&row[self.outer_key]) {
                Ok(probe) => {
                    if probe.node_searches > 0 {
                        ctx.charge(OpClass::NodeSearch, probe.node_searches);
                    }
                    ctx.ledger.merge(&probe.ledger);
                    if probe.row_ids.is_empty() {
                        continue;
                    }
                    self.pending = probe.row_ids;
                    self.pos = 0;
                    self.outer_row = Some(row);
                    return true;
                }
                Err(e) => {
                    ctx.fail(e.into());
                    self.outer_row = None;
                    return false;
                }
            }
        }
    }
}

impl Operator for IxJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, ctx: &mut ExecCtx) {
        self.outer.open(ctx);
        // Inner base fetches price like SeqScan tuples: raw or encoded
        // average width, re-derived per execution's pricing mode.
        self.avg_inner_bytes = match ctx.pricing {
            PricingMode::Raw => self.inner.avg_tuple_bytes(),
            PricingMode::Compressed => match &self.inner.data {
                TableData::Memory(heap) => heap.encoded().avg_tuple_bytes(),
                TableData::Disk(disk) => disk.columnar().avg_encoded_tuple_bytes(),
            },
        };
        self.outer_row = None;
        self.pending = Vec::new();
        self.pos = 0;
        self.current = None;
    }

    fn next(&mut self, ctx: &mut ExecCtx) -> Option<Tuple> {
        // `advance_outer` only returns true with matches pending, so one
        // emission attempt per call suffices — no retry loop needed.
        if (self.outer_row.is_none() || self.pos >= self.pending.len()) && !self.advance_outer(ctx)
        {
            return None;
        }
        let TableData::Disk(disk) = &self.inner.data else {
            unreachable!("IxJoin constructor enforces a disk inner");
        };
        let row_id = self.pending[self.pos];
        let (page_no, slot) = disk.row_location(row_id);
        if !self.fetch_page(ctx, page_no) {
            return None;
        }
        self.pos += 1;
        let (_, page) = self.current.as_ref().expect("page resident");
        // One slot decoded from the page image; its neighbours are not.
        let inner_t = page.tuple(slot);
        ctx.charge(OpClass::TupleFetch, 1);
        ctx.charge_mem_bytes(self.avg_inner_bytes);
        let outer_t = self.outer_row.as_ref().expect("outer row set");
        let mut out = Vec::with_capacity(self.schema.arity());
        out.extend_from_slice(outer_t);
        out.extend(inner_t);
        ctx.charge_mem_bytes(tuple_width(&out));
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::VecSource;
    use eco_simhw::trace::DiskWork;
    use eco_storage::{Catalog, ColumnType, Value};

    fn setup() -> (Catalog, Vec<Tuple>) {
        let schema = Schema::new(&[("k", ColumnType::Int), ("tag", ColumnType::Str)]);
        // Two inner rows per key so multi-match emission is exercised.
        let tuples: Vec<Tuple> = (0..2000)
            .map(|i| vec![Value::Int(i / 2), Value::str(format!("in-{i:05}"))])
            .collect();
        let mut cat = Catalog::new(1 << 16);
        cat.add_disk_table("inner", schema, &tuples);
        cat.create_index("ix_inner_k", "inner", "k").expect("index");
        let outer: Vec<Tuple> = [5i64, 17, 999, 12345]
            .iter()
            .map(|&k| vec![Value::Int(k), Value::str(format!("out-{k}"))])
            .collect();
        (cat, outer)
    }

    #[test]
    fn joins_matching_rows_in_outer_order() {
        let (cat, outer) = setup();
        let outer_schema = Schema::new(&[("ok", ColumnType::Int), ("otag", ColumnType::Str)]);
        let src = Box::new(VecSource::new(outer_schema, outer));
        let ix = cat.index("ix_inner_k").expect("registered");
        let mut join = IxJoin::new(src, 0, cat.expect("inner"), Arc::clone(&ix.index));
        assert_eq!(join.schema().arity(), 4);
        let mut ctx = ExecCtx::new();
        join.open(&mut ctx);
        let rows: Vec<Tuple> = std::iter::from_fn(|| join.next(&mut ctx)).collect();
        assert!(ctx.error().is_none());
        // Keys 5, 17, 999 each match two inner rows; 12345 matches none.
        assert_eq!(rows.len(), 6);
        let keys: Vec<i64> = rows.iter().filter_map(|t| t[0].as_int()).collect();
        assert_eq!(keys, vec![5, 5, 17, 17, 999, 999]);
        for t in &rows {
            assert_eq!(t[0], t[2], "join keys agree across the seam");
        }
        assert_eq!(
            ctx.ledger.cpu.count(OpClass::TupleFetch),
            6,
            "inner fetches only"
        );
        assert!(
            ctx.ledger.cpu.count(OpClass::NodeSearch) > 0,
            "4 probes descended"
        );
    }

    #[test]
    fn probe_io_lands_on_v4_classes_only() {
        let (cat, outer) = setup();
        cat.pool().flush();
        let outer_schema = Schema::new(&[("ok", ColumnType::Int)]);
        let src = Box::new(VecSource::new(
            outer_schema,
            outer.into_iter().map(|t| vec![t[0].clone()]).collect(),
        ));
        let ix = cat.index("ix_inner_k").expect("registered");
        let mut join = IxJoin::new(src, 0, cat.expect("inner"), Arc::clone(&ix.index));
        let mut ctx = ExecCtx::new();
        join.open(&mut ctx);
        while join.next(&mut ctx).is_some() {}
        let disk = ctx.ledger.disk;
        assert!(disk.index_ios > 0, "cold probes pay index I/O");
        assert_eq!(
            disk,
            DiskWork {
                index_ios: disk.index_ios,
                index_bytes: disk.index_bytes,
                ..DiskWork::none()
            },
            "probes never touch the v1 or v2 disk classes"
        );
    }
}
