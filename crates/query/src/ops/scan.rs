//! Sequential scan over a stored table (memory or disk engine).

use std::ops::Range;
use std::sync::Arc;

use eco_simhw::trace::{Ledger, OpClass, PricingMode};
use eco_storage::bufferpool::EXTENT_PAGES;
use eco_storage::disk_table::DiskTable;
use eco_storage::{Access, IoError, PageFrame, Schema, StoredTable, TableData, Tuple};

use crate::chunk::Chunk;
use crate::context::ExecCtx;
use crate::ops::{BoxedOp, Operator};
use crate::parallel::split_units;

/// The portion of the table this scan covers.
enum ScanBounds {
    /// The whole table (the serial scan), read through the buffer pool.
    Full,
    /// Rows of a memory table.
    MemoryRows(Range<usize>),
    /// Pages of a disk table, read before the partition was made.
    DiskPages(Box<DiskPart>),
}

/// A disk partition as the reads of [`SeqScan::split`] left it: the
/// frames of its pages in page order, what those reads charged (merged
/// into the ledger of whoever opens the partition), and the error of
/// the read that failed, if it was one of this partition's. Reads stop
/// at a failure: it is on the page after the last frame, and no later
/// partition has a frame.
struct DiskPart {
    pages: Range<usize>,
    frames: Vec<Arc<PageFrame>>,
    io: Ledger,
    error: Option<IoError>,
}

/// Full-table sequential scan.
///
/// Charges one `TupleFetch` plus the tuple's average width in memory
/// bytes per tuple produced. Disk-engine scans additionally charge
/// every page read what the buffer pool returned for it.
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
/// For parallel execution the scan splits itself into morsels
/// ([`Operator::split`]): row ranges on the memory engine, whole disk
/// *extents* on the disk engine, so that each extent chunk belongs to
/// one partition. A disk split reads every page through the pool
/// itself, in page order, before any partition runs: the reads a
/// serial scan makes, charged where serial execution charges them.
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
        let needed = vec![true; table.schema().arity()];
        Self::with_bounds(table, ScanBounds::Full, needed)
    }

    fn with_bounds(table: Arc<StoredTable>, bounds: ScanBounds, needed: Vec<bool>) -> Self {
        Self {
            avg_bytes: table.avg_tuple_bytes(),
            table,
            bounds,
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

    /// Memory-row range `[start, end)` this scan covers.
    fn mem_range(&self, total: usize) -> (usize, usize) {
        match &self.bounds {
            ScanBounds::MemoryRows(rows) => (rows.start, rows.end.min(total)),
            _ => (0, total),
        }
    }

    /// Page range `[start, end)` this scan covers on the disk engine.
    fn page_range(&self, num_pages: usize) -> (usize, usize) {
        match &self.bounds {
            ScanBounds::DiskPages(part) => (part.pages.start, part.pages.end),
            _ => (0, num_pages),
        }
    }

    /// Ensure `self.current` holds the next unread disk page. Returns
    /// `false` at end of the scan's range or on a failed read.
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
            return false;
        }
        self.current = self.page(disk, self.page_no, ctx);
        self.page_no += 1;
        self.idx = 0;
        self.current.is_some()
    }

    /// Page `page_no`: a whole-table scan reads it through the pool and
    /// charges `ctx` what the read charged; a partition hands out the
    /// frame its split read. Where a read failed, records its error
    /// and returns `None`; so does a partition past a failed read.
    fn page(&self, disk: &DiskTable, page_no: usize, ctx: &mut ExecCtx) -> Option<Arc<PageFrame>> {
        let read = match &self.bounds {
            ScanBounds::DiskPages(part) => match part.frames.get(page_no - part.pages.start) {
                Some(frame) => Ok(Arc::clone(frame)),
                None => Err(part.error?),
            },
            _ => disk.read_page(page_no, Access::Scan).map(|(frame, io)| {
                ctx.ledger.merge(&io);
                frame
            }),
        };
        read.map_err(|e| ctx.fail(e.into())).ok()
    }

    /// The page ranges a disk split cuts, each near `target_rows` rows
    /// rounded up to whole extents (`None` below two).
    fn extent_ranges(disk: &DiskTable, target_rows: usize) -> Option<Vec<Range<usize>>> {
        let pages = disk.num_pages();
        let extent = EXTENT_PAGES as usize;
        let tuples_per_page = disk.len().div_ceil(pages.max(1)).max(1);
        let raw_pages = target_rows.div_ceil(tuples_per_page).max(1);
        split_units(pages, raw_pages.div_ceil(extent) * extent)
    }
}

/// Read the pages of `ranges` through the pool in page order — the
/// reads a whole-table scan makes — up to the first that fails, and
/// hand each range what its reads returned.
fn read_parts(disk: &DiskTable, ranges: Vec<Range<usize>>) -> Vec<ScanBounds> {
    let mut failed = false;
    let mut parts = Vec::with_capacity(ranges.len());
    for pages in ranges {
        let mut part = DiskPart {
            frames: Vec::with_capacity(pages.len()),
            pages: pages.clone(),
            io: Ledger::new(),
            error: None,
        };
        for p in pages {
            if failed {
                break;
            }
            match disk.read_page(p, Access::Scan) {
                Ok((frame, io)) => {
                    part.io.merge(&io);
                    part.frames.push(frame);
                }
                Err(e) => {
                    part.error = Some(e);
                    failed = true;
                }
            }
        }
        parts.push(ScanBounds::DiskPages(Box::new(part)));
    }
    parts
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
        // A disk partition's reads are charged to whoever opens it.
        if let ScanBounds::DiskPages(part) = &mut self.bounds {
            ctx.ledger.merge(&std::mem::take(&mut part.io));
        }
        self.current = None;
        match &self.table.data {
            TableData::Disk(disk) => {
                (self.page_no, _) = self.page_range(disk.num_pages());
                self.idx = 0;
            }
            TableData::Memory(heap) => {
                self.page_no = 0;
                (self.idx, _) = self.mem_range(heap.len());
            }
        }
    }

    fn next(&mut self, ctx: &mut ExecCtx) -> Option<Tuple> {
        if ctx.error().is_some() {
            return None;
        }
        match &self.table.data {
            TableData::Memory(heap) => {
                if self.idx < self.mem_range(heap.len()).1 {
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
        if ctx.error().is_some() {
            return None;
        }
        match &self.table.data {
            TableData::Memory(heap) => {
                let cols = heap.columns();
                let (_, limit) = self.mem_range(cols.len());
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
                let extent = EXTENT_PAGES as usize;
                let extent_no = self.page_no / extent;
                let page_end = ((extent_no + 1) * extent).min(bound_end);
                for p in self.page_no..page_end {
                    self.page(disk, p, ctx)?;
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

    /// A whole-table scan splits into row ranges on a memory table and
    /// whole extents on a disk table, where it then reads every page of
    /// them here, in page order, up to the first failed read: no
    /// partition touches the pool.
    fn split(&self, target_rows: usize) -> Option<Vec<BoxedOp>> {
        if !matches!(self.bounds, ScanBounds::Full) {
            // Already a partition of some other scan; never re-split.
            return None;
        }
        let parts = match &self.table.data {
            TableData::Memory(heap) => split_units(heap.len(), target_rows)?
                .into_iter()
                .map(ScanBounds::MemoryRows)
                .collect(),
            TableData::Disk(disk) => read_parts(disk, Self::extent_ranges(disk, target_rows)?),
        };
        let part = |bounds| -> BoxedOp {
            Box::new(Self::with_bounds(
                Arc::clone(&self.table),
                bounds,
                self.needed.clone(),
            ))
        };
        Some(parts.into_iter().map(part).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ExecError;
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
    fn a_failed_scan_keeps_the_table_scan_position() {
        // The failed page stays the table's last scanned one, so the
        // next page still streams.
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
        let parts = scan.split(128).expect("memory scans partition");
        assert!(parts.len() >= 3);
        let mut ctx = ExecCtx::new();
        let mut all = Vec::new();
        for mut part in parts {
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
        let TableData::Disk(disk) = &table.data else {
            unreachable!("a disk table")
        };
        let ranges = SeqScan::extent_ranges(disk, 1024).expect("disk scans partition");
        assert!(ranges.len() >= 2, "{ranges:?}");
        let extent = EXTENT_PAGES as usize;
        for r in &ranges {
            assert_eq!(r.start % extent, 0, "morsels start on extent boundaries");
        }
        let misses = cat.pool().stats().misses;
        let scan = SeqScan::new(Arc::clone(&table));
        let parts = scan.split(1024).expect("disk scans partition");
        assert_eq!(parts.len(), ranges.len());
        // The split read every page; the partitions read none.
        let misses = cat.pool().stats().misses - misses;
        assert_eq!(misses, disk.num_pages() as u64);
        let mut ctx = ExecCtx::new();
        let mut rows = 0;
        for mut part in parts {
            part.open(&mut ctx);
            rows += std::iter::from_fn(|| part.next(&mut ctx)).count();
        }
        assert_eq!(cat.pool().stats().misses, 2 * misses);
        assert_eq!(rows, serial_rows);
        assert_eq!(
            ctx.ledger.disk, serial_io,
            "cold morsel I/O identical to serial"
        );
    }

    #[test]
    fn a_split_stops_reading_at_the_first_failed_page() {
        let schema = Schema::new(&[("k", ColumnType::Int)]);
        let tuples: Vec<Tuple> = (0..40_000).map(|i| vec![Value::Int(i)]).collect();
        let pool = Arc::new(BufferPool::new(1 << 10));
        let mut disk = DiskTable::load(1, schema, &tuples, Arc::clone(&pool));
        let extent = EXTENT_PAGES as usize;
        assert!(disk.num_pages() > 3 * extent);
        // Page 3 of the second extent fails; so would the third extent's.
        let (bad, later) = (extent + 3, 2 * extent);
        disk.corrupt_page(bad, 100);
        disk.corrupt_page(later, 100);
        let table = Arc::new(StoredTable {
            name: "d".into(),
            data: TableData::Disk(disk),
        });

        // The serial scan: what it charges and records, by rows, as
        // the parts below are run.
        let mut serial = ExecCtx::new();
        let mut scan = SeqScan::new(Arc::clone(&table));
        scan.open(&mut serial);
        while scan.next(&mut serial).is_some() {}
        assert!(serial.error().is_some());

        // One extent a part: the split reads up to the bad page and no
        // further, and the parts, run in order, charge what the serial
        // scan charged and record its error, in the part that holds it.
        pool.flush();
        let misses = pool.stats().misses;
        let parts = SeqScan::new(Arc::clone(&table)).split(1).expect("splits");
        let misses = pool.stats().misses - misses;
        assert_eq!(misses, bad as u64 + 1, "no read after the failed one");
        let mut ctx = ExecCtx::new();
        for (i, mut part) in parts.into_iter().enumerate() {
            let mut part_ctx = ctx.fork();
            part.open(&mut part_ctx);
            while part.next(&mut part_ctx).is_some() {}
            assert_eq!(part_ctx.error().is_some(), i == 1, "part {i}");
            assert_eq!(part_ctx.ledger.is_empty(), i > 1, "part {i}");
            ctx.merge_worker(0, &part_ctx);
        }
        assert_eq!(ctx.error(), serial.error());
        serial.ledger.assert_same(&ctx.ledger, "parts in order");
    }

    /// A columnar scan of a table with a corrupt page past its first
    /// extent decodes the columnar mirror (every extent) before it
    /// reads that page: the page that does not decode leaves its extent
    /// out of the mirror, and the scan fails at the page's read with
    /// the row scan's error, serial or split.
    #[test]
    fn a_columnar_scan_fails_at_a_corrupt_page_with_the_row_scans_error() {
        let schema = Schema::new(&[("k", ColumnType::Int)]);
        let tuples: Vec<Tuple> = (0..40_000).map(|i| vec![Value::Int(i)]).collect();
        let pool = Arc::new(BufferPool::new(1 << 10));
        let mut disk = DiskTable::load(1, schema, &tuples, Arc::clone(&pool));
        let extent = EXTENT_PAGES as usize;
        disk.corrupt_page(extent + 3, 100);
        let table = Arc::new(StoredTable {
            name: "d".into(),
            data: TableData::Disk(disk),
        });
        let mut rows = ExecCtx::new();
        let mut scan = SeqScan::new(Arc::clone(&table));
        scan.open(&mut rows);
        while scan.next(&mut rows).is_some() {}
        let error = rows.error().cloned();
        assert!(
            matches!(error, Some(ExecError::Io(IoError::Corrupt { .. }))),
            "{error:?}"
        );

        pool.flush();
        let mut ctx = ExecCtx::new().with_columnar(true);
        let mut scan = SeqScan::new(Arc::clone(&table));
        scan.open(&mut ctx);
        let mut emitted = 0;
        while let Some(chunk) = scan.next_chunk(&mut ctx) {
            emitted += chunk.len();
        }
        assert_eq!(ctx.error(), error.as_ref(), "serial");
        assert!(emitted > 0, "the first extent is emitted");

        pool.flush();
        let mut ctx = ExecCtx::new().with_columnar(true);
        let parts = SeqScan::new(Arc::clone(&table)).split(1);
        assert!(parts.as_ref().is_some_and(|p| p.len() > 2), "splits");
        for mut part in parts.into_iter().flatten() {
            part.open(&mut ctx);
            while part.next_chunk(&mut ctx).is_some() {}
        }
        assert_eq!(ctx.error(), error.as_ref(), "split");
    }
}
