//! Index scan: B-tree probe + base-row fetches over a disk table.

use std::sync::Arc;

use eco_simhw::trace::{OpClass, PricingMode};
use eco_storage::{BTreeIndex, KeyBound, PageFrame, Schema, StoredTable, TableData, Tuple, Value};

use crate::context::ExecCtx;
use crate::ops::Operator;

/// An owned probe bound ([`KeyBound`] borrows; plan nodes own their
/// literals).
#[derive(Debug, Clone, PartialEq)]
pub enum IxBound {
    /// No bound on this side.
    Unbounded,
    /// Bound included in the result.
    Inclusive(Value),
    /// Bound excluded from the result.
    Exclusive(Value),
}

impl IxBound {
    /// Borrow as the storage layer's probe bound.
    pub(crate) fn as_key_bound(&self) -> KeyBound<'_> {
        match self {
            IxBound::Unbounded => KeyBound::Unbounded,
            IxBound::Inclusive(v) => KeyBound::Inclusive(v),
            IxBound::Exclusive(v) => KeyBound::Exclusive(v),
        }
    }
}

/// Index scan over a disk table through a B-tree secondary index
/// (ledger schema v4).
///
/// `open` descends the tree once — point or range probe — charging one
/// [`OpClass::NodeSearch`] per binary-search step and routing every
/// index-page miss through the buffer pool's **index random I/O**
/// classes (`index_ios`/`index_bytes`, priced exactly like random I/O).
/// The probe yields the matching row ids in ascending order, so the
/// output stream is the table-order subsequence a full scan plus filter
/// would produce — bit-identical rows, which the `prop_index` property
/// test enforces.
///
/// Base-row fetches then pull exactly the pages holding matching rows,
/// also on the index charge path: a selective probe touches a few
/// scattered pages, which is random access by nature, and keeping it
/// off the v1 sequential/random scan classes preserves the bit-identity
/// of index-free ledgers. Per tuple produced it charges one
/// `TupleFetch` plus the table's average tuple width in memory bytes —
/// the same per-row charges as [`super::SeqScan`], so the scan-vs-probe
/// energy crossover is carried entirely by the I/O and node-search
/// terms, as in the paper's fig. 5 random-vs-sequential split.
///
/// Matching row ids arrive sorted, so consecutive fetches of the same
/// page reuse one pinned page (one pool access per distinct page, like
/// a skip-sequential read). A fetch decodes its own slot from the page
/// image and nothing else on the page.
pub struct IxScan {
    table: Arc<StoredTable>,
    index: Arc<BTreeIndex>,
    lo: IxBound,
    hi: IxBound,
    avg_bytes: u64,
    row_ids: Vec<usize>,
    pos: usize,
    current: Option<(usize, Arc<PageFrame>)>,
}

impl IxScan {
    /// Range scan `lo..hi` through `index`. Panics if `table` is not a
    /// disk table (only disk tables carry indexes — the catalog rejects
    /// the rest at `CREATE INDEX` time).
    pub fn range(
        table: Arc<StoredTable>,
        index: Arc<BTreeIndex>,
        lo: IxBound,
        hi: IxBound,
    ) -> Self {
        assert!(
            matches!(table.data, TableData::Disk(_)),
            "IxScan over non-disk table {:?}",
            table.name
        );
        let avg_bytes = table.avg_tuple_bytes();
        Self {
            table,
            index,
            lo,
            hi,
            avg_bytes,
            row_ids: Vec::new(),
            pos: 0,
            current: None,
        }
    }

    /// Point lookup `key` through `index`.
    pub fn point(table: Arc<StoredTable>, index: Arc<BTreeIndex>, key: Value) -> Self {
        Self::range(
            table,
            index,
            IxBound::Inclusive(key.clone()),
            IxBound::Inclusive(key),
        )
    }

    /// The table being probed.
    pub fn table(&self) -> &Arc<StoredTable> {
        &self.table
    }

    /// Ensure `self.current` holds base page `page_no`, charging the
    /// pool access to the v4 index classes. Returns `false` (after
    /// recording the error) on a failed verified read.
    fn fetch_page(&mut self, ctx: &mut ExecCtx, page_no: usize) -> bool {
        if matches!(&self.current, Some((p, _)) if *p == page_no) {
            return true;
        }
        let TableData::Disk(disk) = &self.table.data else {
            unreachable!("IxScan constructor enforces a disk table");
        };
        match disk.read_page_index_checked(page_no) {
            Ok((page, io)) => {
                ctx.ledger.merge(&io);
                self.current = Some((page_no, page));
                true
            }
            Err(e) => {
                ctx.fail(e.into());
                self.pos = self.row_ids.len();
                self.current = None;
                false
            }
        }
    }
}

impl Operator for IxScan {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }

    fn open(&mut self, ctx: &mut ExecCtx) {
        // Same pricing-mode re-derivation as SeqScan: produced tuples
        // price their average (raw or encoded) width as memory traffic.
        self.avg_bytes = match ctx.pricing {
            PricingMode::Raw => self.table.avg_tuple_bytes(),
            PricingMode::Compressed => match &self.table.data {
                TableData::Memory(heap) => heap.encoded().avg_tuple_bytes(),
                TableData::Disk(disk) => disk.columnar().avg_encoded_tuple_bytes(),
            },
        };
        self.pos = 0;
        self.current = None;
        match self
            .index
            .probe_range(self.lo.as_key_bound(), self.hi.as_key_bound())
        {
            Ok(probe) => {
                if probe.node_searches > 0 {
                    ctx.charge(OpClass::NodeSearch, probe.node_searches);
                }
                ctx.ledger.merge(&probe.ledger);
                self.row_ids = probe.row_ids;
            }
            Err(e) => {
                ctx.fail(e.into());
                self.row_ids = Vec::new();
            }
        }
    }

    fn next(&mut self, ctx: &mut ExecCtx) -> Option<Tuple> {
        let TableData::Disk(disk) = &self.table.data else {
            unreachable!("IxScan constructor enforces a disk table");
        };
        let row = *self.row_ids.get(self.pos)?;
        let (page_no, slot) = disk.row_location(row);
        if !self.fetch_page(ctx, page_no) {
            return None;
        }
        self.pos += 1;
        let (_, page) = self.current.as_ref().expect("page resident");
        let t = page.tuple(slot);
        ctx.charge(OpClass::TupleFetch, 1);
        ctx.charge_mem_bytes(self.avg_bytes);
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_simhw::trace::DiskWork;
    use eco_storage::{Catalog, ColumnType, Value};

    fn catalog(rows: i64) -> Catalog {
        let schema = Schema::new(&[("k", ColumnType::Int), ("tag", ColumnType::Str)]);
        let tuples: Vec<Tuple> = (0..rows)
            .map(|i| vec![Value::Int(i), Value::str(format!("row-{i:06}"))])
            .collect();
        let mut cat = Catalog::new(1 << 16);
        cat.add_disk_table("d", schema, &tuples);
        cat.create_index("ix_d_k", "d", "k").expect("index");
        cat
    }

    #[test]
    fn point_probe_returns_the_row_and_charges_v4_only() {
        let cat = catalog(5000);
        cat.pool().flush();
        let ix = cat.index("ix_d_k").expect("registered");
        let mut scan = IxScan::point(cat.expect("d"), Arc::clone(&ix.index), Value::Int(4321));
        let mut ctx = ExecCtx::new();
        scan.open(&mut ctx);
        let t = scan.next(&mut ctx).expect("one row");
        assert_eq!(t[0], Value::Int(4321));
        assert!(scan.next(&mut ctx).is_none());
        assert!(ctx.error().is_none());
        assert!(ctx.ledger.cpu.count(OpClass::NodeSearch) > 0);
        assert!(ctx.ledger.disk.index_ios > 0, "cold probe pays index I/O");
        assert_eq!(
            ctx.ledger.disk,
            DiskWork {
                index_ios: ctx.ledger.disk.index_ios,
                index_bytes: ctx.ledger.disk.index_bytes,
                ..DiskWork::none()
            },
            "probes never touch the v1 scan classes"
        );
    }

    #[test]
    fn range_scan_emits_table_order_and_reuses_pages() {
        let cat = catalog(5000);
        let ix = cat.index("ix_d_k").expect("registered");
        let mut scan = IxScan::range(
            cat.expect("d"),
            Arc::clone(&ix.index),
            IxBound::Inclusive(Value::Int(100)),
            IxBound::Exclusive(Value::Int(200)),
        );
        // Warm the pool so only the fetch pattern matters.
        let mut warm = ExecCtx::new();
        scan.open(&mut warm);
        while scan.next(&mut warm).is_some() {}

        let mut ctx = ExecCtx::new();
        scan.open(&mut ctx);
        let rows: Vec<Tuple> = std::iter::from_fn(|| scan.next(&mut ctx)).collect();
        assert_eq!(rows.len(), 100);
        for (i, t) in rows.iter().enumerate() {
            assert_eq!(t[0], Value::Int(100 + i as i64), "ascending table order");
        }
        assert_eq!(ctx.ledger.cpu.count(OpClass::TupleFetch), 100);
        assert!(
            ctx.ledger.disk == DiskWork::none(),
            "warm probe is I/O-free"
        );
        assert!(ctx.ledger.mem_stream_bytes > 0);
    }

    #[test]
    fn empty_range_produces_nothing() {
        let cat = catalog(100);
        let ix = cat.index("ix_d_k").expect("registered");
        let mut scan = IxScan::point(cat.expect("d"), Arc::clone(&ix.index), Value::Int(-5));
        let mut ctx = ExecCtx::new();
        scan.open(&mut ctx);
        assert!(scan.next(&mut ctx).is_none());
        assert!(ctx.error().is_none());
        assert_eq!(ctx.ledger.cpu.count(OpClass::TupleFetch), 0);
    }

    #[test]
    fn reopen_rescans() {
        let cat = catalog(100);
        let ix = cat.index("ix_d_k").expect("registered");
        let mut scan = IxScan::point(cat.expect("d"), Arc::clone(&ix.index), Value::Int(7));
        let mut ctx = ExecCtx::new();
        scan.open(&mut ctx);
        assert!(scan.next(&mut ctx).is_some());
        scan.open(&mut ctx);
        let t = scan.next(&mut ctx).expect("rescan");
        assert_eq!(t[0], Value::Int(7));
    }
}
