//! Sequential scan over a stored table (memory or disk engine).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use eco_simhw::trace::{OpClass, PricingMode};
use eco_storage::disk_table::DiskTable;
use eco_storage::{Access, PageFrame, Schema, StoredTable, TableData, Tuple, DEFAULT_STREAM};

use crate::chunk::Chunk;
use crate::context::ExecCtx;
use crate::ops::{BoxedOp, Operator};
use crate::parallel::{split_units, Morsel};

/// Allocator for private buffer-pool scan streams (stream 0,
/// [`DEFAULT_STREAM`], is the serial scan's; partitioned scans each get
/// their own so sequential-transfer detection survives interleaved
/// workers).
static NEXT_SCAN_STREAM: AtomicU64 = AtomicU64::new(1);

/// The portion of the table this scan covers.
#[derive(Debug, Clone, Copy)]
enum ScanBounds {
    /// The whole table (the serial scan).
    Full,
    /// Rows `[start, end)` of a memory table.
    MemoryRows { start: usize, end: usize },
    /// Pages `[start, end)` of a disk table, read on a private
    /// buffer-pool stream.
    DiskPages {
        start: usize,
        end: usize,
        stream: u64,
    },
}

/// Full-table sequential scan.
///
/// Charges one `TupleFetch` plus the tuple's average width in memory
/// bytes per tuple produced. Disk-engine scans additionally charge
/// every page read what the buffer pool returned for it: a whole-table
/// scan reads on the serial stream ([`DEFAULT_STREAM`]), a partition
/// on a private one.
///
/// Under [`PricingMode::Compressed`] (ledger schema v3) the per-tuple
/// memory charge is the table's average *encoded* width instead — the
/// deterministic table-wide mean of the encoded mirrors' byte counts,
/// so every scan geometry (scalar, columnar, any morsel split) prices
/// the same bytes. Disk I/O is unaffected: pages store raw tuples, so
/// cold reads cost what they always did. Columnar chunks additionally
/// carry the encoded mirror so downstream kernels can run directly on
/// the compressed form.
///
/// For parallel execution the scan partitions itself into [`Morsel`]s:
/// row ranges on the memory engine, whole disk *extents* on the disk
/// engine. Extent alignment matters for ledger identity — serial cold
/// scans charge one repositioning per extent and stream within it, and
/// an extent-aligned partition read on its own buffer-pool stream
/// charges exactly the same pattern.
pub struct SeqScan {
    table: Arc<StoredTable>,
    avg_bytes: u64,
    bounds: ScanBounds,
    /// The columns a parent reads ([`Operator::prune`]; all unless it
    /// says otherwise): what a disk table's columnar mirror decodes.
    needed: Vec<bool>,
    // Disk-engine state.
    page_no: usize,
    current: Option<Arc<PageFrame>>,
    idx: usize,
}

impl SeqScan {
    /// Scan over a catalog table.
    pub fn new(table: Arc<StoredTable>) -> Self {
        let avg_bytes = table.avg_tuple_bytes();
        let needed = vec![true; table.schema().arity()];
        Self {
            table,
            avg_bytes,
            bounds: ScanBounds::Full,
            needed,
            page_no: 0,
            current: None,
            idx: 0,
        }
    }

    /// The table being scanned.
    pub fn table(&self) -> &Arc<StoredTable> {
        &self.table
    }

    fn charge_tuple(&self, ctx: &mut ExecCtx) {
        ctx.charge(OpClass::TupleFetch, 1);
        ctx.charge_mem_bytes(self.avg_bytes);
    }

    /// Charge `n` tuple fetches at once — the chunk-mode equivalent of
    /// `n` [`Self::charge_tuple`] calls, by construction bit-identical
    /// in the ledger.
    fn charge_tuples(&self, ctx: &mut ExecCtx, n: u64) {
        if n > 0 {
            ctx.charge(OpClass::TupleFetch, n);
            ctx.charge_mem_bytes(self.avg_bytes * n);
        }
    }

    /// Whether a recorded error has failed the query — a page read of
    /// this scan's or any other's, a zero divisor downstream — so the
    /// scan ends its stream (releasing its private pool stream).
    fn stopped(&self, ctx: &ExecCtx) -> bool {
        if ctx.error().is_none() {
            return false;
        }
        if let (TableData::Disk(disk), ScanBounds::DiskPages { stream, .. }) =
            (&self.table.data, self.bounds)
        {
            disk.end_stream(stream);
        }
        true
    }

    /// First memory-row index of this scan's range.
    fn mem_start(&self) -> usize {
        match self.bounds {
            ScanBounds::MemoryRows { start, .. } => start,
            _ => 0,
        }
    }

    /// One-past-last memory-row index of this scan's range.
    fn mem_end(&self, total: usize) -> usize {
        match self.bounds {
            ScanBounds::MemoryRows { end, .. } => end.min(total),
            _ => total,
        }
    }

    /// Page range `[start, end)` this scan covers on the disk engine.
    fn page_range(&self, num_pages: usize) -> (usize, usize) {
        match self.bounds {
            ScanBounds::DiskPages { start, end, .. } => (start, end.min(num_pages)),
            _ => (0, num_pages),
        }
    }

    /// Ensure `self.current` holds the next unread disk page, charging
    /// buffer pool I/O. Returns `false` at end of the scan's range.
    fn advance_disk_page(&mut self, ctx: &mut ExecCtx) -> bool {
        let TableData::Disk(disk) = &self.table.data else {
            unreachable!("advance_disk_page on a memory table");
        };
        if let Some(page) = &self.current {
            if self.idx < page.len() {
                return true;
            }
        }
        let (_, end) = self.page_range(disk.num_pages());
        if self.page_no >= end {
            self.current = None;
            if let ScanBounds::DiskPages { stream, .. } = self.bounds {
                // Release the pool's per-stream scan-position entry —
                // stream ids are never reused, so a finished partition
                // must clean up after itself.
                disk.end_stream(stream);
            }
            return false;
        }
        self.current = self.read_page(disk, self.page_no, ctx);
        self.page_no += 1;
        self.idx = 0;
        self.current.is_some()
    }

    /// Read page `page_no` on this scan's stream, charging `ctx` what
    /// the read charged. On a failed read, records the error (a
    /// partition also ends its private stream) and returns `None`.
    fn read_page(
        &self,
        disk: &DiskTable,
        page_no: usize,
        ctx: &mut ExecCtx,
    ) -> Option<Arc<PageFrame>> {
        let stream = match self.bounds {
            ScanBounds::DiskPages { stream, .. } => stream,
            _ => DEFAULT_STREAM,
        };
        match disk.read_page(page_no, Access::Scan(stream)) {
            Ok((page, io)) => {
                ctx.ledger.merge(&io);
                Some(page)
            }
            Err(e) => {
                ctx.fail(e.into());
                if let ScanBounds::DiskPages { stream, .. } = self.bounds {
                    disk.end_stream(stream);
                }
                None
            }
        }
    }
}

impl Operator for SeqScan {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }

    fn open(&mut self, ctx: &mut ExecCtx) {
        // Re-derive the priced width from the context's pricing mode:
        // raw prices stored tuple bytes, compressed prices the encoded
        // mirror's average. Done here (not in `new`) so the encoded
        // mirror is only ever built on compressed-priced executions.
        self.avg_bytes = match ctx.pricing {
            PricingMode::Raw => self.table.avg_tuple_bytes(),
            PricingMode::Compressed => match &self.table.data {
                TableData::Memory(heap) => heap.encoded().avg_tuple_bytes(),
                TableData::Disk(disk) => disk.columnar().avg_encoded_tuple_bytes(),
            },
        };
        self.current = None;
        match (&self.table.data, self.bounds) {
            (TableData::Disk(disk), _) => {
                let (start, _) = self.page_range(disk.num_pages());
                self.page_no = start;
                self.idx = 0;
            }
            (TableData::Memory(_), _) => {
                self.page_no = 0;
                self.idx = self.mem_start();
            }
        }
    }

    fn next(&mut self, ctx: &mut ExecCtx) -> Option<Tuple> {
        if self.stopped(ctx) {
            return None;
        }
        match &self.table.data {
            TableData::Memory(heap) => {
                if self.idx < self.mem_end(heap.len()) {
                    let t = heap.row(self.idx);
                    self.idx += 1;
                    self.charge_tuple(ctx);
                    Some(t)
                } else {
                    None
                }
            }
            TableData::Disk(_) => {
                if !self.advance_disk_page(ctx) {
                    return None;
                }
                let page = self.current.as_ref().expect("page resident");
                let t = page.tuples()[self.idx].clone();
                self.idx += 1;
                self.charge_tuple(ctx);
                Some(t)
            }
        }
    }

    /// Columnar scan: emit `Arc`-shared windows over the table's
    /// columns (the heap table itself, or a paged table's extent
    /// chunks) — no per-row clone, no per-tuple `Vec`. Charges are
    /// identical to the row scan: one `TupleFetch` plus the average
    /// width per row, and on the disk engine every covered page is
    /// still driven through the buffer pool's verified miss path (same
    /// misses, hits, warm re-reads, checksum verification and fault
    /// handling — the chunks supply the *data*, never the I/O; the
    /// frames it leaves resident stay undecoded until a row reader
    /// needs them).
    fn next_chunk(&mut self, ctx: &mut ExecCtx) -> Option<Chunk> {
        if self.stopped(ctx) {
            return None;
        }
        match &self.table.data {
            TableData::Memory(heap) => {
                let cols = heap.columns();
                let limit = self.mem_end(cols.len());
                if self.idx >= limit {
                    return None;
                }
                let end = (self.idx + ctx.batch_size.max(1)).min(limit);
                let mut chunk = Chunk::window(Arc::clone(cols), self.idx..end);
                if ctx.pricing == PricingMode::Compressed {
                    chunk = chunk.with_enc(Arc::clone(heap.encoded()));
                }
                self.charge_tuples(ctx, (end - self.idx) as u64);
                self.idx = end;
                Some(chunk)
            }
            TableData::Disk(disk) => {
                let (_, bound_end) = self.page_range(disk.num_pages());
                if self.page_no >= bound_end {
                    return None;
                }
                // One extent (the I/O scheduling granule) per call:
                // charge the pool for every covered page, then emit the
                // extent chunk's matching row window.
                let extent = eco_storage::bufferpool::EXTENT_PAGES as usize;
                let extent_no = self.page_no / extent;
                let page_end = ((extent_no + 1) * extent).min(bound_end);
                for p in self.page_no..page_end {
                    self.read_page(disk, p, ctx)?;
                }
                // Compressed pricing encodes whole extents.
                let cols = match ctx.pricing {
                    PricingMode::Raw => disk.columnar_with(&self.needed),
                    PricingMode::Compressed => disk.columnar(),
                };
                let (g0, g1) = cols.page_row_range(self.page_no, page_end);
                let base = cols.extent_row_start(extent_no);
                let mut chunk = Chunk::window(
                    Arc::clone(cols.extent_chunk(extent_no)),
                    (g0 - base)..(g1 - base),
                );
                if ctx.pricing == PricingMode::Compressed {
                    chunk = chunk.with_enc(Arc::clone(cols.extent_encoded(extent_no)));
                }
                self.charge_tuples(ctx, (g1 - g0) as u64);
                self.page_no = page_end;
                if self.page_no >= bound_end {
                    if let ScanBounds::DiskPages { stream, .. } = self.bounds {
                        disk.end_stream(stream);
                    }
                }
                Some(chunk)
            }
        }
    }

    /// On a disk table the columnar mirror decodes only the columns
    /// `needed` ([`eco_storage::disk_table::DiskTable::columnar_with`]); a memory
    /// table's chunks are its columns either way.
    fn prune(&mut self, needed: &[bool]) {
        self.needed = needed.to_vec();
    }

    fn morsels(&self, target_rows: usize) -> Option<Vec<Morsel>> {
        if !matches!(self.bounds, ScanBounds::Full) {
            // Already a partition of some other scan; never re-split.
            return None;
        }
        match &self.table.data {
            TableData::Memory(heap) => {
                let n = heap.len();
                (n > 0).then(|| split_units(n, target_rows))
            }
            TableData::Disk(disk) => {
                let pages = disk.num_pages();
                if pages == 0 {
                    return None;
                }
                // Convert the row target to pages, then round *up* to
                // whole extents: serial scans charge one repositioning
                // per extent start, so extent-aligned morsels on
                // private streams reproduce the exact same I/O split.
                let extent = eco_storage::bufferpool::EXTENT_PAGES as usize;
                let tuples_per_page = disk.len().div_ceil(pages).max(1);
                let raw_pages = target_rows.div_ceil(tuples_per_page).max(1);
                let per_morsel = raw_pages.div_ceil(extent) * extent;
                Some(split_units(pages, per_morsel))
            }
        }
    }

    fn clone_morsel(&self, morsel: &Morsel) -> Option<BoxedOp> {
        if !matches!(self.bounds, ScanBounds::Full) {
            return None;
        }
        let bounds = match &self.table.data {
            TableData::Memory(_) => ScanBounds::MemoryRows {
                start: morsel.start,
                end: morsel.end,
            },
            TableData::Disk(_) => ScanBounds::DiskPages {
                start: morsel.start,
                end: morsel.end,
                stream: NEXT_SCAN_STREAM.fetch_add(1, Ordering::Relaxed),
            },
        };
        Some(Box::new(SeqScan {
            table: Arc::clone(&self.table),
            avg_bytes: self.avg_bytes,
            bounds,
            needed: self.needed.clone(),
            page_no: 0,
            current: None,
            idx: 0,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_simhw::trace::DiskWork;
    use eco_storage::page::PAGE_SIZE;
    use eco_storage::{BufferPool, Catalog, ColumnType, HeapTable, Value};

    fn catalog() -> Catalog {
        let schema = Schema::new(&[("k", ColumnType::Int)]);
        let tuples: Vec<Tuple> = (0..500).map(|i| vec![Value::Int(i)]).collect();
        let mut cat = Catalog::new(64);
        cat.add_memory_table("m", HeapTable::from_tuples(schema.clone(), tuples.clone()));
        cat.add_disk_table("d", schema, &tuples);
        cat
    }

    #[test]
    fn memory_scan_produces_all_tuples_and_charges() {
        let cat = catalog();
        let mut scan = SeqScan::new(cat.expect("m"));
        let mut ctx = ExecCtx::new();
        scan.open(&mut ctx);
        let mut n = 0;
        while let Some(t) = scan.next(&mut ctx) {
            assert_eq!(t[0], Value::Int(n));
            n += 1;
        }
        assert_eq!(n, 500);
        assert_eq!(ctx.ledger.cpu.count(OpClass::TupleFetch), 500);
        assert!(ctx.ledger.mem_stream_bytes > 0);
        assert!(
            ctx.ledger.disk == DiskWork::none(),
            "memory engine never hits disk"
        );
    }

    #[test]
    fn disk_scan_charges_io_once_then_runs_warm() {
        let cat = catalog();
        let table = cat.expect("d");
        let mut ctx = ExecCtx::new();
        let mut scan = SeqScan::new(Arc::clone(&table));
        scan.open(&mut ctx);
        let n = std::iter::from_fn(|| scan.next(&mut ctx)).count();
        assert_eq!(n, 500);
        assert!(
            ctx.ledger.disk.total_bytes() > 0,
            "cold scan must charge I/O"
        );

        // Second scan: warm.
        let mut ctx2 = ExecCtx::new();
        let mut scan2 = SeqScan::new(table);
        scan2.open(&mut ctx2);
        let n2 = std::iter::from_fn(|| scan2.next(&mut ctx2)).count();
        assert_eq!(n2, 500);
        assert!(
            ctx2.ledger.disk == DiskWork::none(),
            "warm scan is I/O-free"
        );
    }

    #[test]
    fn a_failed_whole_table_scan_keeps_the_serial_stream_position() {
        // Only a partition's private stream ends on a failed read.
        // Stream 0 is every whole-table scan's: the failed page stays
        // its last, so the next page on it still streams.
        let schema = Schema::new(&[("k", ColumnType::Int)]);
        let tuples: Vec<Tuple> = (0..5000).map(|i| vec![Value::Int(i)]).collect();
        let pool = Arc::new(BufferPool::new(64));
        let mut disk = DiskTable::load(1, schema, &tuples, Arc::clone(&pool));
        assert!(disk.num_pages() > 4);
        disk.corrupt_page(2, 100);
        let table = Arc::new(StoredTable {
            name: "d".into(),
            data: TableData::Disk(disk),
        });
        let TableData::Disk(disk) = &table.data else {
            unreachable!("loaded as a disk table")
        };
        for columnar in [false, true] {
            pool.flush();
            let mut ctx = ExecCtx::new().with_columnar(columnar);
            let mut scan = SeqScan::new(Arc::clone(&table));
            scan.open(&mut ctx);
            if columnar {
                while scan.next_chunk(&mut ctx).is_some() {}
            } else {
                while scan.next(&mut ctx).is_some() {}
            }
            assert!(ctx.error().is_some(), "page 2 fails verification");
            let (_, io) = disk.read_page_checked(3).expect("page 3 verifies");
            assert_eq!(
                (io.disk.random_ios, io.disk.sequential_bytes),
                (0, PAGE_SIZE as u64),
                "columnar {columnar}"
            );
        }
    }

    #[test]
    fn reopen_rescans() {
        let cat = catalog();
        let mut scan = SeqScan::new(cat.expect("m"));
        let mut ctx = ExecCtx::new();
        scan.open(&mut ctx);
        assert!(scan.next(&mut ctx).is_some());
        scan.open(&mut ctx);
        assert_eq!(scan.next(&mut ctx).unwrap()[0], Value::Int(0));
    }

    #[test]
    fn memory_morsels_cover_rows_exactly_once() {
        let cat = catalog();
        let scan = SeqScan::new(cat.expect("m"));
        let morsels = scan.morsels(128).expect("memory scans partition");
        assert!(morsels.len() >= 3);
        let mut ctx = ExecCtx::new();
        let mut all = Vec::new();
        for m in &morsels {
            let mut part = scan.clone_morsel(m).expect("clone");
            part.open(&mut ctx);
            while let Some(t) = part.next(&mut ctx) {
                all.push(t);
            }
        }
        let expected: Vec<Tuple> = (0..500).map(|i| vec![Value::Int(i)]).collect();
        assert_eq!(all, expected, "morsel order reproduces the serial stream");
        assert_eq!(ctx.ledger.cpu.count(OpClass::TupleFetch), 500);
    }

    #[test]
    fn compressed_pricing_charges_fewer_bytes_same_rows() {
        let schema = Schema::new(&[("k", ColumnType::Int), ("s", ColumnType::Str)]);
        let tuples: Vec<Tuple> = (0..2000)
            .map(|i| vec![Value::Int(i % 16), Value::str(format!("g{}", i % 8))])
            .collect();
        let mut cat = Catalog::new(1 << 20);
        cat.add_memory_table("m", HeapTable::from_tuples(schema.clone(), tuples.clone()));
        cat.add_disk_table("d", schema, &tuples);

        for name in ["m", "d"] {
            let table = cat.expect(name);
            let mut raw = ExecCtx::new();
            let mut scan = SeqScan::new(Arc::clone(&table));
            scan.open(&mut raw);
            let raw_rows = std::iter::from_fn(|| scan.next(&mut raw)).count();

            let mut comp = ExecCtx::new().with_pricing(PricingMode::Compressed);
            let mut scan = SeqScan::new(Arc::clone(&table));
            scan.open(&mut comp);
            let comp_rows = std::iter::from_fn(|| scan.next(&mut comp)).count();

            assert_eq!(raw_rows, comp_rows, "{name}: same rows either way");
            assert_eq!(
                raw.ledger.cpu.count(OpClass::TupleFetch),
                comp.ledger.cpu.count(OpClass::TupleFetch),
                "{name}: fetch counts are pricing-independent"
            );
            assert!(
                comp.ledger.mem_stream_bytes < raw.ledger.mem_stream_bytes,
                "{name}: encoded pricing must charge fewer bytes \
                 ({} vs {})",
                comp.ledger.mem_stream_bytes,
                raw.ledger.mem_stream_bytes
            );
        }

        // Columnar chunks carry the encoded mirror only when compressed.
        let table = cat.expect("m");
        let mut raw = ExecCtx::new().with_columnar(true);
        let mut scan = SeqScan::new(Arc::clone(&table));
        scan.open(&mut raw);
        assert!(scan.next_chunk(&mut raw).expect("chunk").enc.is_none());
        let mut comp = ExecCtx::new()
            .with_columnar(true)
            .with_pricing(PricingMode::Compressed);
        let mut scan = SeqScan::new(table);
        scan.open(&mut comp);
        assert!(scan.next_chunk(&mut comp).expect("chunk").enc.is_some());
    }

    #[test]
    fn disk_morsels_are_extent_aligned_and_charge_identical_io() {
        let schema = Schema::new(&[("k", ColumnType::Int), ("s", ColumnType::Str)]);
        let tuples: Vec<Tuple> = (0..20_000)
            .map(|i| vec![Value::Int(i), Value::str(format!("row-{i:08}"))])
            .collect();
        let mut cat = Catalog::new(1 << 20);
        cat.add_disk_table("d", schema, &tuples);
        let table = cat.expect("d");

        // Serial cold scan I/O.
        let mut serial_ctx = ExecCtx::new();
        let mut scan = SeqScan::new(Arc::clone(&table));
        scan.open(&mut serial_ctx);
        let serial_rows = std::iter::from_fn(|| scan.next(&mut serial_ctx)).count();
        let serial_io = serial_ctx.ledger.disk;

        // Flush and rescan cold through morsels.
        cat.pool().flush();
        let scan = SeqScan::new(table);
        let morsels = scan.morsels(1024).expect("disk scans partition");
        assert!(morsels.len() >= 2, "{morsels:?}");
        let extent = eco_storage::bufferpool::EXTENT_PAGES as usize;
        for m in &morsels {
            assert_eq!(m.start % extent, 0, "morsels start on extent boundaries");
        }
        let mut ctx = ExecCtx::new();
        let mut rows = 0;
        for m in &morsels {
            let mut part = scan.clone_morsel(m).expect("clone");
            part.open(&mut ctx);
            rows += std::iter::from_fn(|| part.next(&mut ctx)).count();
        }
        assert_eq!(rows, serial_rows);
        assert_eq!(
            ctx.ledger.disk, serial_io,
            "cold morsel I/O identical to serial"
        );
    }
}
