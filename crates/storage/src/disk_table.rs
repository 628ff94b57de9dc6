//! Paged table behind the buffer pool — the "commercial disk-based
//! DBMS" profile.
//!
//! Tuples are packed into 8 KB slotted pages at load time; reads go
//! through the shared [`BufferPool`], which charges simulated I/O on
//! misses. Every miss verifies the full page image against the
//! checksum recorded when the page was written ([`Page::checksum`])
//! before anything is read from it; after that a reader decodes what it
//! reads. A columnar scan, which takes its data from the extent chunks,
//! drives every page through the verified miss path and decodes nothing;
//! an index-driven fetch decodes the one slot its row id names
//! ([`PageFrame::tuple`]); only the scalar engine's sequential scans decode
//! a page whole ([`PageFrame::tuples`], once per residency). (The
//! decode cost is charged by the executor as tuple-fetch work, same as
//! the memory engine — the engines differ in I/O, not in tuple-access
//! accounting.)
//!
//! # Single-row mutations: repack until realign
//!
//! Packing is greedy and left to right — a page closes when the next
//! tuple does not fit — so where a page starts depends only on the
//! tuples up to and including its first. [`DiskTable::append`],
//! [`DiskTable::set_row`] and [`DiskTable::remove_row`] exploit that:
//! pages before the touched one are kept as they are, raw slot payloads
//! are repacked from the touched page on (no tuple is decoded), and
//! repacking stops at the first old page whose first tuple again opens
//! a new page — from there on the old pages *are* the new packing. Checksums are
//! recomputed for rewritten pages only. A same-width update rewrites
//! one page, an append the last page, and a width change ripples only
//! as far as the slack in the following pages lets it. The columnar
//! mirror ([`ColumnarExtents`]) is kept: the mutation marks stale the
//! extents over the pages it rewrote, and the next
//! [`DiskTable::columnar_with`] decodes only those again.
//!
//! **Invariant:** after any sequence of mutations the page images and
//! checksums are byte-identical to [`DiskTable::load`] over the mutated
//! tuple vector — both run the same packing routine — so page counts,
//! row locations and every priced quantity derived from them cannot
//! tell an incrementally maintained table from a reloaded one
//! (`tests/prop_incremental_apply.rs`).

use std::borrow::Borrow;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use eco_simhw::fault::{FaultPlan, PageFault, BACKOFF_BASE_NS, MAX_READ_RETRIES};
use eco_simhw::trace::{DiskWork, Ledger};

use crate::bufferpool::{Access, BufferPool, PageFrame, PageId, EXTENT_PAGES};
use crate::column::{ColumnChunk, ColumnData, DataChunk};
use crate::encode::EncodedChunk;
use crate::page::{serialize_tuple, serialize_tuple_into, stored_width, Page, PAGE_SIZE};
use crate::value::{ColumnType, Schema, Tuple};

/// A page read that could not be satisfied: every attempt within the
/// bounded retry budget ([`MAX_READ_RETRIES`] re-reads) failed.
///
/// Page reads ([`DiskTable::read_page`]) surface this as a
/// typed error instead of panicking, so a fault fails only the query
/// (and, one level up, only the owning session) that hit it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoError {
    /// The installed [`FaultPlan`] marks this page permanently
    /// unreadable (an unrecoverable sector).
    Permanent {
        /// Owning table.
        table: u32,
        /// Failing page number.
        page: u32,
    },
    /// The page image failed checksum verification on every attempt —
    /// genuine on-disk corruption rather than a transient read fault.
    Corrupt {
        /// Owning table.
        table: u32,
        /// Failing page number.
        page: u32,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Permanent { table, page } => write!(
                f,
                "permanent read fault on table {table} page {page} \
                 (retry budget of {MAX_READ_RETRIES} exhausted)"
            ),
            IoError::Corrupt { table, page } => write!(
                f,
                "checksum mismatch on table {table} page {page} \
                 (page image is corrupt; {MAX_READ_RETRIES} re-reads did not help)"
            ),
        }
    }
}

impl std::error::Error for IoError {}

/// The miss-path attempt loop of every page read, table or index: read
/// page `id`'s `image`, verify it against its load-time `checksum`, and
/// retry on failure (injected by `plan` or genuine) up to
/// [`MAX_READ_RETRIES`] times with exponential backoff. The frame it
/// hands the pool holds the verified image, undecoded.
///
/// Accounting: the *initial* read is already charged by the buffer
/// pool's miss classification. Each failed attempt charges one re-read
/// to the v2 **retry random I/O** class (`retry_ios`/`retry_bytes`; a
/// re-read is a re-read, whatever kind of page it re-reads) and
/// `BACKOFF_BASE_NS << attempt` of **backoff halt residency** — so a
/// transient fault with `f` failures charges exactly `f` retry I/Os and
/// [`eco_simhw::fault::backoff_ns_for`]`(f)` nanoseconds, and a
/// fault-free read charges exactly nothing extra.
pub(crate) fn load_verified(
    id: PageId,
    image: &Page,
    checksum: u64,
    plan: FaultPlan,
    io: &mut DiskWork,
    backoff_ns: &mut u64,
) -> Result<Arc<PageFrame>, IoError> {
    let fault = plan.fault_for(id.table, u64::from(id.page));
    let mut injected_failures = match fault {
        Some(PageFault::Transient { failures }) => failures,
        Some(PageFault::Permanent) => u32::MAX,
        Some(PageFault::Stall { ns }) => {
            *backoff_ns += ns;
            0
        }
        None => 0,
    };
    for attempt in 0..=MAX_READ_RETRIES {
        let injected = injected_failures > 0;
        if injected {
            injected_failures -= 1;
        }
        if !injected && image.checksum() == checksum {
            return Ok(Arc::new(PageFrame::new(image.clone())));
        }
        if attempt < MAX_READ_RETRIES {
            // Re-read: reposition + burst the block again, after an
            // exponential backoff sleep (halt-priced idle time).
            io.retry_ios += 1;
            io.retry_bytes += PAGE_SIZE as u64;
            *backoff_ns += BACKOFF_BASE_NS << attempt;
        }
    }
    let (table, page) = (id.table, id.page);
    Err(match fault {
        Some(PageFault::Permanent) => IoError::Permanent { table, page },
        _ => IoError::Corrupt { table, page },
    })
}

/// The columnar mirror of a [`DiskTable`]: one [`DataChunk`] per disk
/// *extent* (the I/O scheduling granule, [`EXTENT_PAGES`] pages), plus
/// the page → row mapping needed to translate page-range scan bounds
/// into chunk row windows.
///
/// The mirror is decoded lazily, straight from the table's pages — slot
/// payload to typed column, no row in between, a string column's bytes
/// into one arena per extent ([`crate::column::StrColumn`]) — and never
/// through the buffer pool, so building it charges no I/O. It holds
/// only the columns scans have asked for ([`DiskTable::columnar_with`]):
/// the others are empty and every row carries its full stored width
/// ([`DataChunk::with_widths`]), so a pruned scan decodes what its plan
/// reads and still prices whole rows. Once every column is decoded the
/// chunks are plain decompositions of their rows. The columnar scan
/// still drives every covered page through the pool for its ledger
/// charges (misses, hits, warm re-reads), exactly like the row scan;
/// only the tuple *data* comes from the mirror.
#[derive(Debug, Clone)]
pub struct ColumnarExtents {
    /// Cumulative tuple offsets per page: page `p` holds rows
    /// `[page_rows[p], page_rows[p + 1])`. Length `num_pages + 1`.
    page_rows: Vec<usize>,
    /// `decoded[c]`: whether the extent chunks hold column `c`.
    decoded: Vec<bool>,
    /// One chunk per extent, in extent order.
    extents: Vec<Arc<DataChunk>>,
    /// Lazily-built encoded mirror of each extent (see
    /// [`ColumnarExtents::extent_encoded`]): row indices align exactly
    /// with the raw extent chunks, so selection vectors transfer.
    encoded: Vec<OnceLock<Arc<EncodedChunk>>>,
    /// Per-row priced byte charge for compressed-mode scans, averaged
    /// over the whole table (see [`ColumnarExtents::avg_encoded_tuple_bytes`]).
    avg_encoded_bytes: OnceLock<u64>,
}

impl ColumnarExtents {
    /// Number of extents.
    pub fn num_extents(&self) -> usize {
        self.extents.len()
    }

    /// The chunk holding extent `e`'s rows.
    pub fn extent_chunk(&self, e: usize) -> &Arc<DataChunk> {
        &self.extents[e]
    }

    /// Which columns the extent chunks hold (`decoded()[c]` for column
    /// `c`); the others are empty.
    pub fn decoded(&self) -> &[bool] {
        &self.decoded
    }

    /// Whether every column is decoded.
    fn is_complete(&self) -> bool {
        self.decoded.iter().all(|&d| d)
    }

    /// Whether every column `needed` is decoded.
    fn covers(&self, needed: &[bool]) -> bool {
        needed.iter().zip(&self.decoded).all(|(&n, &d)| d || !n)
    }

    /// The *encoded* mirror of extent `e` (dictionary / RLE /
    /// bit-packed per column; see [`crate::encode`]), built lazily —
    /// raw-pricing scans never build it. Extent-relative row indices
    /// align with [`ColumnarExtents::extent_chunk`]. Panics on a mirror
    /// without every column ([`DiskTable::columnar`] is complete).
    pub fn extent_encoded(&self, e: usize) -> &Arc<EncodedChunk> {
        assert!(self.is_complete(), "encoding a partly decoded mirror");
        self.encoded[e].get_or_init(|| Arc::new(EncodedChunk::encode(&self.extents[e])))
    }

    /// The deterministic integer per-row byte charge compressed-mode
    /// scans price over this table: the mean of the per-extent encoded
    /// footprints, computed once over all extents so every scan
    /// geometry (serial, morsel-parallel, any batch size) charges
    /// identically per row. Panics like [`Self::extent_encoded`].
    pub fn avg_encoded_tuple_bytes(&self) -> u64 {
        *self.avg_encoded_bytes.get_or_init(|| {
            let rows: usize = self.extents.iter().map(|e| e.len()).sum();
            if rows == 0 {
                return 1;
            }
            let total: u64 = (0..self.extents.len())
                .map(|e| self.extent_encoded(e).encoded_bytes())
                .sum();
            (total / rows as u64).max(1) + 2
        })
    }

    /// First table-global row of extent `e`.
    pub fn extent_row_start(&self, e: usize) -> usize {
        self.page_rows[e * EXTENT_PAGES as usize]
    }

    /// Table-global row range `[start, end)` covered by pages
    /// `[page_start, page_end)`.
    pub fn page_row_range(&self, page_start: usize, page_end: usize) -> (usize, usize) {
        (self.page_rows[page_start], self.page_rows[page_end])
    }
}

/// Greedy left-to-right page packing — the one routine behind the bulk
/// loads (of tuples, and of the TPC-H loader's payloads) and the
/// single-row repack, which is why they cannot disagree on a page
/// image.
#[derive(Default)]
pub(crate) struct Packer {
    full: Vec<Page>,
    cur: Page,
}

impl Packer {
    /// Place one serialized tuple; returns `true` when the current page
    /// had to be closed first, i.e. `payload` opens a new page. Panics
    /// on a payload wider than an empty page (callers validate with
    /// [`crate::page::tuple_fits_page`] first).
    pub(crate) fn push(&mut self, payload: &[u8]) -> bool {
        if self.cur.insert_raw(payload) {
            return false;
        }
        assert!(
            !self.cur.is_empty(),
            "tuple wider than a {PAGE_SIZE}-byte page"
        );
        self.full.push(std::mem::take(&mut self.cur));
        assert!(
            self.cur.insert_raw(payload),
            "tuple wider than an empty page"
        );
        true
    }

    pub(crate) fn finish(mut self) -> Vec<Page> {
        if !self.cur.is_empty() {
            self.full.push(self.cur);
        }
        self.full
    }
}

/// One single-row change, as the repacker sees it.
enum RowChange<'a> {
    Append(&'a [u8]),
    Replace(usize, &'a [u8]),
    Remove(usize),
}

/// What a table version derives from its pages, computed on first use
/// and dropped by every mutation.
#[derive(Debug, Clone)]
struct Layout {
    /// Cumulative tuple offsets per page (length `num_pages + 1`): the
    /// row-id → page translation of the index fetch path.
    row_offsets: Vec<usize>,
    /// Average stored tuple width, bytes.
    avg_tuple_bytes: u64,
}

/// The last columnar mirror a table version built or inherited, and
/// which of its extents still match the version's pages.
#[derive(Debug, Clone)]
struct Mirror {
    extents: Arc<ColumnarExtents>,
    /// `fresh[e]`: extent `e` of `extents` holds what the pages hold
    /// now. Extents past the end of `fresh` do not.
    fresh: Vec<bool>,
}

impl Mirror {
    /// Whether every extent matches the `pages` pages there are.
    fn is_current(&self, pages: usize) -> bool {
        self.extents.page_rows.len() == pages + 1
            && self.fresh.len() == self.extents.num_extents()
            && self.fresh.iter().all(|&f| f)
    }

    /// Pages `[first, end)` were rewritten as `rebuilt` pages. Same
    /// page count: every other page kept its number, so only the
    /// extents over the range go stale. Otherwise every page from
    /// `first` on moved, and so did every extent from its one.
    fn mark_rewritten(&mut self, first: usize, end: usize, rebuilt: usize) {
        let extent = EXTENT_PAGES as usize;
        if rebuilt == end - first {
            let stale = first / extent..end.div_ceil(extent).min(self.fresh.len());
            if !stale.is_empty() {
                self.fresh[stale].fill(false);
            }
        } else {
            self.fresh.truncate(first / extent);
        }
    }
}

/// Where a table version keeps its columnar mirror, once a scan asks
/// for one. Scans on worker threads share it; a scan that asks for a
/// column not decoded yet, or comes after a mutation, replaces it with
/// a new one that shares every extent it can
/// ([`DiskTable::columnar_with`]). A table cloned for copy-on-write
/// starts from the same mirror.
#[derive(Debug, Default)]
struct MirrorSlot(Mutex<Option<Mirror>>);

impl Clone for MirrorSlot {
    fn clone(&self) -> Self {
        Self(Mutex::new(self.0.lock().clone()))
    }
}

/// A paged table.
#[derive(Clone)]
pub struct DiskTable {
    table_id: u32,
    schema: Schema,
    pages: Vec<Page>,
    /// Per-page checksums ([`Page::checksum`]) computed when a page is
    /// written (load or repack) and verified on every buffer-pool
    /// miss (see [`DiskTable::read_page`]).
    checksums: Vec<u64>,
    num_tuples: usize,
    pool: Arc<BufferPool>,
    columnar: MirrorSlot,
    layout: OnceLock<Layout>,
}

impl DiskTable {
    /// Pack `tuples` — a slice, or any stream of owned or borrowed
    /// tuples, consumed one at a time — into pages and register with
    /// the pool. Panics if any tuple fails the schema or exceeds a page.
    pub fn load<I>(table_id: u32, schema: Schema, tuples: I, pool: Arc<BufferPool>) -> Self
    where
        I: IntoIterator,
        I::Item: Borrow<Tuple>,
    {
        let pages = Self::pack(&schema, tuples);
        Self::from_pages(table_id, schema, pages, pool)
    }

    /// The pages [`Self::load`] packs `tuples` into.
    pub(crate) fn pack<I>(schema: &Schema, tuples: I) -> Vec<Page>
    where
        I: IntoIterator,
        I::Item: Borrow<Tuple>,
    {
        let mut packer = Packer::default();
        let mut payload = Vec::new();
        for t in tuples {
            let t = t.borrow();
            assert!(
                schema.check(t),
                "tuple does not match schema {:?}",
                schema.names()
            );
            serialize_tuple_into(t, &mut payload);
            packer.push(&payload);
        }
        packer.finish()
    }

    /// A table over `pages` (a [`Packer`]'s output) registered with the
    /// pool, their checksums taken now.
    pub(crate) fn from_pages(
        table_id: u32,
        schema: Schema,
        pages: Vec<Page>,
        pool: Arc<BufferPool>,
    ) -> Self {
        let num_tuples = pages.iter().map(Page::len).sum();
        let checksums = pages.iter().map(Page::checksum).collect();
        Self {
            table_id,
            schema,
            pages,
            checksums,
            num_tuples,
            pool,
            columnar: MirrorSlot::default(),
            layout: OnceLock::new(),
        }
    }

    /// Append one tuple as the new last row. Panics on a schema
    /// mismatch or a tuple wider than a page — like the other two
    /// mutators, this is the apply half of the write path, which
    /// validates first (see `Catalog::apply_wal_record`), so a panic
    /// here is a caller bug, not a data error.
    pub fn append(&mut self, tuple: &Tuple) {
        self.check(tuple);
        self.repack(RowChange::Append(&serialize_tuple(tuple)));
    }

    /// Overwrite row `row`. Panics on an out-of-range row, a schema
    /// mismatch or an over-wide tuple.
    pub fn set_row(&mut self, row: usize, tuple: &Tuple) {
        self.check(tuple);
        self.repack(RowChange::Replace(row, &serialize_tuple(tuple)));
    }

    /// Remove row `row`, shifting later rows down by one. Panics on an
    /// out-of-range row.
    pub fn remove_row(&mut self, row: usize) {
        self.repack(RowChange::Remove(row));
    }

    fn check(&self, tuple: &Tuple) {
        assert!(
            self.schema.check(tuple),
            "tuple does not match schema {:?}",
            self.schema.names()
        );
    }

    /// Repack-until-realign (see the module docs): rewrite pages from
    /// the one `change` touches until an old page boundary is met
    /// again, and splice them over the pages they replace.
    fn repack(&mut self, change: RowChange<'_>) {
        // Where the change lands; an append lands past the last slot.
        let (at_page, at_slot) = match change {
            RowChange::Append(_) => (self.pages.len(), 0),
            RowChange::Replace(row, _) | RowChange::Remove(row) => self.row_location(row),
        };
        // The new count, before anything below can read it.
        match change {
            RowChange::Append(_) => self.num_tuples += 1,
            RowChange::Remove(_) => self.num_tuples -= 1,
            RowChange::Replace(..) => {}
        }
        // A page's contents depend on every tuple up to the one that
        // did not fit it any more, so a change to a page's *first*
        // tuple (or past the last one) can reach back into the page
        // before.
        let first = if at_slot == 0 {
            at_page.saturating_sub(1)
        } else {
            at_page
        };
        let mut end = self.pages.len();
        let mut packer = Packer::default();
        'pages: for (k, old) in self.pages.iter().enumerate().skip(first) {
            for slot in 0..old.len() {
                let payload = match change {
                    RowChange::Replace(_, new) if (k, slot) == (at_page, at_slot) => new,
                    RowChange::Remove(_) if (k, slot) == (at_page, at_slot) => continue,
                    _ => old.payload(slot),
                };
                if packer.push(payload) && slot == 0 && k > at_page {
                    // Past the change, and old page `k`'s first tuple
                    // opens a new page again: the old packing holds
                    // from here on. Drop the page just begun.
                    packer.cur = Page::new();
                    end = k;
                    break 'pages;
                }
            }
        }
        if let RowChange::Append(payload) = change {
            packer.push(payload);
        }
        let rebuilt = packer.finish();
        // The mirror's extents over the rewritten pages no longer
        // match; the next `columnar_with` decodes just those again.
        if let Some(mirror) = self.columnar.0.get_mut() {
            mirror.mark_rewritten(first, end, rebuilt.len());
        }
        let sums: Vec<u64> = rebuilt.iter().map(Page::checksum).collect();
        self.checksums.splice(first..end, sums);
        self.pages.splice(first..end, rebuilt);
        self.layout.take();
        debug_assert_eq!(
            self.num_tuples,
            self.pages.iter().map(Page::len).sum::<usize>(),
            "row count after a mutation"
        );
    }

    /// The columnar mirror with every column decoded (see
    /// [`Self::columnar_with`]).
    pub fn columnar(&self) -> Arc<ColumnarExtents> {
        self.columnar_with(&vec![true; self.schema.arity()])
    }

    /// The columnar mirror (see [`ColumnarExtents`]) with at least the
    /// columns `needed` (`needed[c]` for column `c`) decoded. The first
    /// call after a load decodes them. A later call that needs more
    /// columns, or follows a mutation, builds a new mirror that shares
    /// every extent chunk still matching the pages and decodes only
    /// the rest: the missing columns of a kept extent, every column of
    /// an extent a mutation rewrote. What an earlier call returned stays
    /// valid and keeps reading the rows it was built from.
    pub fn columnar_with(&self, needed: &[bool]) -> Arc<ColumnarExtents> {
        let mut slot = self.columnar.0.lock();
        let usable = |m: &&Mirror| m.is_current(self.pages.len()) && m.extents.covers(needed);
        if let Some(mirror) = slot.as_ref().filter(usable) {
            return Arc::clone(&mirror.extents);
        }
        let built = self.decode_mirror(slot.take(), needed);
        let extents = Arc::clone(&built.extents);
        *slot = Some(built);
        extents
    }

    /// A mirror of this version's pages with the columns `needed` and
    /// those `old` holds decoded. An extent `old` holds fresh is kept:
    /// its chunk shared as it is (encoded form included) or grown by
    /// the columns it lacks. Any other extent is decoded from its
    /// pages, its widths read off the payloads ([`stored_width`])
    /// unless the mirror ends up complete. An extent with a slot that
    /// does not decode (a corrupt page image) is left empty and stale:
    /// no scan reads it, since the page's checksum fails its read
    /// first, and the next call decodes it again.
    fn decode_mirror(&self, old: Option<Mirror>, needed: &[bool]) -> Mirror {
        let columns = self.schema.columns();
        let arity = columns.len();
        let had = |c: usize| old.as_ref().is_some_and(|m| m.extents.decoded[c]);
        let decoded: Vec<bool> = (0..arity).map(|c| needed[c] || had(c)).collect();
        let all: Vec<usize> = (0..arity).filter(|&c| decoded[c]).collect();
        let missing: Vec<usize> = all.iter().copied().filter(|&c| !had(c)).collect();
        let complete = all.len() == arity;
        let walk = (!complete).then(|| {
            let is_char = |c: &usize| columns[*c].ty == ColumnType::Char;
            (0..arity).rfind(is_char).map_or(0, |c| c + 1)
        });
        let (fresh, mut old_extents) = match old {
            Some(m) => {
                let ColumnarExtents {
                    extents, encoded, ..
                } = Arc::unwrap_or_clone(m.extents);
                (m.fresh, extents.into_iter().zip(encoded))
            }
            None => (Vec::new(), Vec::new().into_iter().zip(Vec::new())),
        };
        // Widths are carried while a column is missing, derived from
        // the columns once none is.
        let assemble = |parts, widths: Option<Vec<u32>>| match widths {
            Some(widths) if !complete => DataChunk::with_widths(parts, widths),
            _ => DataChunk::new(parts),
        };
        let empty = |ty| ColumnChunk::new(ColumnData::with_capacity(ty, 0));
        let extent = EXTENT_PAGES as usize;
        let n_extents = self.pages.len().div_ceil(extent);
        let mut extents = Vec::with_capacity(n_extents);
        let mut encoded = Vec::with_capacity(n_extents);
        let mut new_fresh = vec![true; n_extents];
        for (e, pages) in self.pages.chunks(extent).enumerate() {
            let kept = old_extents.next().filter(|_| fresh.get(e) == Some(&true));
            let (chunk, enc) = match kept {
                Some(kept) if missing.is_empty() => kept,
                kept => {
                    // Grow a kept extent by the missing columns, or
                    // decode a stale or new one whole.
                    let (mut parts, widths, want, walk) = match kept {
                        Some((chunk, _)) => {
                            let (parts, widths) = Arc::unwrap_or_clone(chunk).into_parts();
                            (parts, widths, &missing, None)
                        }
                        None => (
                            columns.iter().map(|c| empty(c.ty)).collect(),
                            None,
                            &all,
                            walk,
                        ),
                    };
                    let chunk = match self.decode_columns(pages, want, walk) {
                        Some((cols, walked)) => {
                            for (&c, col) in want.iter().zip(cols.into_parts().0) {
                                parts[c] = col;
                            }
                            assemble(parts, widths.or(walked))
                        }
                        None => {
                            new_fresh[e] = false;
                            DataChunk::new(columns.iter().map(|c| empty(c.ty)).collect())
                        }
                    };
                    (Arc::new(chunk), OnceLock::new())
                }
            };
            extents.push(chunk);
            encoded.push(enc);
        }
        let extents = ColumnarExtents {
            page_rows: self.layout().row_offsets.clone(),
            decoded,
            extents,
            encoded,
            avg_encoded_bytes: OnceLock::new(),
        };
        Mirror {
            extents: Arc::new(extents),
            fresh: new_fresh,
        }
    }

    /// Columns `cols` (ascending) of every row of `pages`, in one pass
    /// over each slot payload, the other columns stepped over in place.
    /// With `walk` (see [`stored_width`]), each row's stored width as
    /// well. `None` when a slot is not a row of this table.
    fn decode_columns(
        &self,
        pages: &[Page],
        cols: &[usize],
        walk: Option<usize>,
    ) -> Option<(DataChunk, Option<Vec<u32>>)> {
        let columns = self.schema.columns();
        let arity = columns.len();
        let rows = pages.iter().map(Page::len).sum();
        let typed = |&c: &usize| ColumnChunk::new(ColumnData::with_capacity(columns[c].ty, rows));
        let mut chunk = DataChunk::new(cols.iter().map(typed).collect());
        let mut widths = walk.map(|_| Vec::with_capacity(rows));
        for p in pages {
            for slot in 0..p.len() {
                let payload = p.payload(slot);
                chunk.push_serialized(payload, arity, cols.iter().copied())?;
                if let (Some(walk), Some(widths)) = (walk, &mut widths) {
                    widths.push(stored_width(payload, walk)?);
                }
            }
        }
        Some((chunk, widths))
    }

    /// The lazily-derived [`Layout`] of this table version.
    fn layout(&self) -> &Layout {
        self.layout.get_or_init(|| {
            let mut row_offsets = Vec::with_capacity(self.pages.len() + 1);
            row_offsets.push(0usize);
            let mut total = 0usize;
            for p in &self.pages {
                total += p.len();
                row_offsets.push(total);
            }
            let used: usize = self.pages.iter().map(Page::used_bytes).sum();
            Layout {
                row_offsets,
                avg_tuple_bytes: used.checked_div(self.num_tuples).unwrap_or(0) as u64,
            }
        })
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Table id (used in page ids).
    pub fn table_id(&self) -> u32 {
        self.table_id
    }

    /// Number of pages.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.num_tuples
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.num_tuples == 0
    }

    /// Total size on disk, bytes (full pages — I/O is page-granular).
    pub fn bytes_on_disk(&self) -> u64 {
        (self.pages.len() * PAGE_SIZE) as u64
    }

    /// Average tuple width, bytes: computed once per table version.
    pub fn avg_tuple_bytes(&self) -> u64 {
        self.layout().avg_tuple_bytes
    }

    /// Page-at-a-time projected scan: for every page in row order, the
    /// table-global id of its first row, columns `cols` of its rows (in
    /// that order; ascending and distinct) and the page itself. The
    /// columns are decoded from the slot payloads straight into typed
    /// vectors, strings into one arena per column, and the other
    /// columns of a row are stepped over where they lie — an index
    /// build on one column of nine pays for one
    /// ([`Self::column_with_row_ids`]). Straight from the pages, never
    /// through the buffer pool and never into the columnar mirror: no
    /// I/O is charged (the same rule as [`Self::rows`]). Panics on a
    /// column out of range or out of order, or a slot that does not
    /// decode.
    pub fn project_pages<'a>(
        &'a self,
        cols: &'a [usize],
    ) -> impl Iterator<Item = (usize, DataChunk, &'a Page)> + 'a {
        let arity = self.schema.arity();
        assert!(
            cols.is_sorted_by(|a, b| a < b) && cols.last().is_none_or(|&c| c < arity),
            "projection {cols:?} is not ascending columns of {:?}",
            self.schema.names()
        );
        let mut next_row = 0;
        self.pages.iter().map(move |page| {
            let pages = std::slice::from_ref(page);
            let (chunk, _) = (self.decode_columns(pages, cols, None))
                .unwrap_or_else(|| panic!("corrupt page: malformed tuple payload"));
            let first_row = next_row;
            next_row += page.len();
            (first_row, chunk, page)
        })
    }

    /// Decode column `col` of every tuple in row order, straight from
    /// the pages ([`Self::project_pages`]: the row's other columns are
    /// never decoded) — never through the buffer pool, so an index
    /// build charges no I/O (the same rule as the columnar mirror; see
    /// [`ColumnarExtents`]).
    pub fn column_with_row_ids(&self, col: usize) -> Vec<(crate::value::Value, usize)> {
        let mut out = Vec::with_capacity(self.num_tuples);
        for (first_row, chunk, _) in self.project_pages(&[col]) {
            out.extend((0..chunk.len()).map(|i| (chunk.value(0, i), first_row + i)));
        }
        out
    }

    /// Every tuple in row order, decoded one at a time straight from
    /// the pages — never through the buffer pool, so no I/O is charged.
    /// The DML bind pass walks this instead of materializing the table.
    pub fn rows(&self) -> impl Iterator<Item = Tuple> + '_ {
        self.pages
            .iter()
            .flat_map(|page| (0..page.len()).map(move |slot| page.get(slot)))
    }

    /// Every tuple in row order (see [`Self::rows`]): the bulk-load
    /// oracle's input and the benchmark's space accounting.
    pub fn all_tuples(&self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.num_tuples);
        out.extend(self.rows());
        out
    }

    /// Row `row`, decoded straight from its page (no I/O charged).
    /// Panics on an out-of-range row.
    pub fn tuple_at(&self, row: usize) -> Tuple {
        let (page, slot) = self.row_location(row);
        self.pages[page].get(slot)
    }

    /// The raw image of page `page_no` — with [`Self::stored_checksum`],
    /// what the incremental-apply equivalence test compares against a
    /// bulk load. Panics on an out-of-range page.
    pub fn page_image(&self, page_no: usize) -> &[u8] {
        self.pages[page_no].image()
    }

    /// The checksum recorded for page `page_no` when it was last
    /// written. Panics on an out-of-range page.
    pub fn stored_checksum(&self, page_no: usize) -> u64 {
        self.checksums[page_no]
    }

    /// Read one page through the buffer pool and return it with what
    /// the read charged. A miss is classified by `access`, verifies the
    /// page against its load-time checksum, consults the pool's
    /// [`FaultPlan`] and retries with bounded exponential backoff, its
    /// retries and backoff charged too; a hit charges nothing but a
    /// warm re-read. Panics on an out-of-range page.
    pub fn read_page(
        &self,
        page_no: usize,
        access: Access,
    ) -> Result<(Arc<PageFrame>, Ledger), IoError> {
        assert!(page_no < self.pages.len(), "page {page_no} out of range");
        let id = PageId {
            table: self.table_id,
            page: page_no as u32,
        };
        let (page, checksum) = (&self.pages[page_no], self.checksums[page_no]);
        self.pool.read(id, access, |plan, io, backoff_ns| {
            load_verified(id, page, checksum, plan, io, backoff_ns)
        })
    }

    /// [`Self::read_page`] as a scan read ([`Access::Scan`]).
    pub fn read_page_checked(&self, page_no: usize) -> Result<(Arc<PageFrame>, Ledger), IoError> {
        self.read_page(page_no, Access::Scan)
    }

    /// Locate row `row` as `(page_no, slot)` — the translation an index
    /// probe's row-id payload needs before it can fetch the base tuple.
    /// Panics on an out-of-range row.
    pub fn row_location(&self, row: usize) -> (usize, usize) {
        assert!(row < self.num_tuples, "row {row} out of range");
        let offsets = &self.layout().row_offsets;
        // partition_point: first page whose end offset exceeds `row`.
        let page = offsets.partition_point(|&end| end <= row) - 1;
        (page, row - offsets[page])
    }

    /// Corrupt one byte of a page's raw image *without* refreshing its
    /// stored checksum — a test hook: the next read of the page that
    /// misses must detect the mismatch, exhaust its retries and report
    /// [`IoError::Corrupt`].
    pub fn corrupt_page(&mut self, page_no: usize, offset: usize) {
        self.pages[page_no].flip_byte(offset);
    }

    /// The buffer pool this table reads through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }
}

impl std::fmt::Debug for DiskTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskTable")
            .field("table_id", &self.table_id)
            .field("pages", &self.pages.len())
            .field("tuples", &self.num_tuples)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{ColumnType, Value};

    fn schema() -> Schema {
        Schema::new(&[("k", ColumnType::Int), ("s", ColumnType::Str)])
    }

    fn tuples(n: usize) -> Vec<Tuple> {
        (0..n)
            .map(|i| vec![Value::Int(i as i64), Value::str(format!("value-{i:06}"))])
            .collect()
    }

    /// A fault-free scan read of page `p`.
    fn read(t: &DiskTable, p: usize) -> (Arc<PageFrame>, Ledger) {
        t.read_page_checked(p).expect("fault-free read")
    }

    /// What a scan of every page of `t` charged.
    fn scan(t: &DiskTable) -> Ledger {
        (0..t.num_pages()).map(|p| read(t, p).1).sum()
    }

    #[test]
    fn load_packs_multiple_pages() {
        let pool = Arc::new(BufferPool::new(64));
        let data = tuples(2000);
        let t = DiskTable::load(1, schema(), &data, pool);
        assert!(t.num_pages() > 1, "2000 tuples should span pages");
        assert_eq!(t.len(), 2000);
        // Read everything back in order.
        let mut seen = 0usize;
        for p in 0..t.num_pages() {
            for tup in read(&t, p).0.tuples() {
                assert_eq!(tup[0], Value::Int(seen as i64));
                seen += 1;
            }
        }
        assert_eq!(seen, 2000);
    }

    #[test]
    fn full_scan_charges_mostly_sequential_io() {
        let pool = Arc::new(BufferPool::new(256));
        let t = DiskTable::load(1, schema(), tuples(2000), pool);
        let io = scan(&t).disk;
        // One repositioning per extent, streaming within extents.
        let extents = t
            .num_pages()
            .div_ceil(crate::bufferpool::EXTENT_PAGES as usize);
        assert_eq!(io.random_ios as usize, extents);
        assert_eq!(
            io.sequential_bytes as usize,
            (t.num_pages() - extents) * PAGE_SIZE
        );
    }

    #[test]
    fn warm_scan_is_io_free() {
        let pool = Arc::new(BufferPool::new(256));
        let t = DiskTable::load(1, schema(), tuples(2000), pool);
        assert!(!scan(&t).is_empty(), "a cold scan reads the disk");
        for p in 0..t.num_pages() {
            assert!(read(&t, p).1.is_empty(), "warm scan must not hit disk");
        }
    }

    #[test]
    fn small_pool_thrashes_on_rescan() {
        // A pool smaller than the table forces a full re-read on the
        // second scan (the classic sequential-flooding pattern).
        let pool = Arc::new(BufferPool::new(2));
        let t = DiskTable::load(1, schema(), tuples(2000), pool);
        scan(&t);
        let io = scan(&t).disk;
        assert!(
            io.total_bytes() as usize >= (t.num_pages() - 1) * PAGE_SIZE,
            "rescan should re-read nearly everything"
        );
    }

    #[test]
    fn columnar_mirror_matches_pages() {
        let pool = Arc::new(BufferPool::new(256));
        let data = tuples(2000);
        let t = DiskTable::load(1, schema(), &data, pool);
        let cols = t.columnar();
        let extent = crate::bufferpool::EXTENT_PAGES as usize;
        assert_eq!(cols.num_extents(), t.num_pages().div_ceil(extent));
        // Every extent chunk reproduces the exact page tuples.
        let mut global = 0usize;
        for e in 0..cols.num_extents() {
            let chunk = cols.extent_chunk(e);
            assert_eq!(cols.extent_row_start(e), global);
            for i in 0..chunk.len() {
                assert_eq!(chunk.row(i), data[global + i], "extent {e} row {i}");
            }
            global += chunk.len();
        }
        assert_eq!(global, 2000);
        // Page row ranges are consistent with the pages themselves.
        let (s, end) = cols.page_row_range(0, t.num_pages());
        assert_eq!((s, end), (0, 2000));
    }

    #[test]
    fn encoded_extents_roundtrip_and_price_fewer_bytes() {
        let pool = Arc::new(BufferPool::new(256));
        let data = tuples(2000);
        let t = DiskTable::load(1, schema(), &data, pool);
        let cols = t.columnar();
        for e in 0..cols.num_extents() {
            let enc = cols.extent_encoded(e);
            let raw = cols.extent_chunk(e);
            assert_eq!(enc.rows(), raw.len());
            for (i, col) in enc.columns().iter().enumerate() {
                assert_eq!(col.decode(), raw.column(i).data, "extent {e} column {i}");
            }
        }
        // `k` is a sorted int (packs small) and `s` has a shared prefix
        // but unique payloads (stays plain); the average must not exceed
        // the raw width and must be stable across calls.
        let avg = cols.avg_encoded_tuple_bytes();
        assert!(
            avg <= t.avg_tuple_bytes(),
            "{avg} > {}",
            t.avg_tuple_bytes()
        );
        assert_eq!(avg, cols.avg_encoded_tuple_bytes());
    }

    #[test]
    fn a_row_change_decodes_again_only_the_extent_it_rewrote() {
        let mut t = DiskTable::load(1, schema(), tuples(12_000), Arc::new(BufferPool::new(4)));
        let before = t.columnar();
        assert!(before.num_extents() >= 3);
        let encoded: Vec<_> = (0..before.num_extents())
            .map(|e| Arc::clone(before.extent_encoded(e)))
            .collect();
        // Same width, mid-page in extent 1: one page rewritten.
        let row = before.extent_row_start(1) + 5;
        let old = t.tuple_at(row);
        let new = vec![Value::Int(-1), Value::str("value-999999")];
        t.set_row(row, &new);
        let after = t.columnar();
        assert_eq!(after.num_extents(), encoded.len());
        for (e, enc) in encoded.iter().enumerate() {
            let kept = Arc::ptr_eq(after.extent_chunk(e), before.extent_chunk(e));
            assert_eq!(kept, e != 1, "extent {e} chunk");
            let kept = Arc::ptr_eq(after.extent_encoded(e), enc);
            assert_eq!(kept, e != 1, "extent {e} encoded");
        }
        assert_eq!(after.extent_chunk(1).row(5), new);
        // What was handed out before reads the old row.
        assert_eq!(before.extent_chunk(1).row(5), old);
    }

    fn assert_same_as_load(t: &DiskTable, rows: &[Tuple]) {
        let fresh = DiskTable::load(1, schema(), rows, Arc::new(BufferPool::new(4)));
        assert_eq!(t.len(), fresh.len());
        assert_eq!(t.num_pages(), fresh.num_pages());
        for p in 0..fresh.num_pages() {
            assert!(t.page_image(p) == fresh.page_image(p), "page {p}");
            assert_eq!(t.stored_checksum(p), fresh.stored_checksum(p));
        }
        assert_eq!(t.all_tuples(), rows);
    }

    #[test]
    fn mutated_table_is_the_bulk_load_of_its_rows() {
        let mut rows = tuples(2000);
        let mut t = DiskTable::load(1, schema(), &rows, Arc::new(BufferPool::new(4)));
        let wide = |k: i64| vec![Value::Int(k), Value::str("w".repeat(3000))];
        let (boundary, _) = (0..2000)
            .map(|r| (r, t.row_location(r)))
            .find(|&(_, loc)| loc == (3, 0))
            .expect("page 3 has a first row");
        // Same width, wider, and narrower; mid-page, first slot of a
        // page, last slot of the page before, first and last row.
        for (row, tuple) in [
            (700, vec![Value::Int(-1), Value::str("value-000700")]),
            (boundary, wide(1)),
            (boundary - 1, wide(2)),
            (boundary, vec![Value::Int(3), Value::str("")]),
            (0, wide(4)),
            (1999, wide(5)),
        ] {
            t.set_row(row, &tuple);
            rows[row] = tuple;
            assert_same_as_load(&t, &rows);
        }
        for row in [boundary, boundary - 1, 0, rows.len() - 4] {
            t.remove_row(row);
            rows.remove(row);
            assert_same_as_load(&t, &rows);
        }
        for tuple in [wide(6), wide(7), wide(8), tuples(1).remove(0)] {
            t.append(&tuple);
            rows.push(tuple);
            assert_same_as_load(&t, &rows);
        }
        // Down to nothing and back up.
        while rows.pop().is_some() {
            t.remove_row(rows.len());
        }
        assert_same_as_load(&t, &rows);
        assert_eq!(t.num_pages(), 0);
        t.append(&wide(9));
        assert_same_as_load(&t, &[wide(9)]);
    }

    #[test]
    fn empty_table() {
        let pool = Arc::new(BufferPool::new(4));
        let t = DiskTable::load(1, schema(), &[], pool);
        assert!(t.is_empty());
        assert_eq!(t.num_pages(), 0);
        assert_eq!(t.avg_tuple_bytes(), 0);
    }

    /// With a saturated plan every page faults; pick one of each kind.
    fn fault_of_kind(
        plan: &eco_simhw::fault::FaultPlan,
        table: u32,
        pages: u64,
        want_transient: Option<bool>,
    ) -> Option<(u64, PageFault)> {
        plan.faults_in_table(table, pages)
            .into_iter()
            .find(|(_, f)| {
                matches!(
                    (want_transient, f),
                    (Some(true), PageFault::Transient { .. })
                        | (Some(false), PageFault::Permanent)
                        | (None, PageFault::Stall { .. })
                )
            })
    }

    #[test]
    fn transient_fault_retries_with_exact_ledger_charges() {
        let pool = Arc::new(BufferPool::new(256));
        let t = DiskTable::load(1, schema(), tuples(2000), Arc::clone(&pool));
        let plan = FaultPlan::new(42, 1_000_000);
        pool.set_fault_plan(plan);
        let (page, fault) = fault_of_kind(&plan, 1, t.num_pages() as u64, Some(true))
            .expect("saturated plan has a transient fault");
        let PageFault::Transient { failures } = fault else {
            unreachable!()
        };
        // Whatever the access, the read returns its retries and backoff.
        for access in [Access::Scan, Access::Index] {
            pool.flush();
            let (data, io) = t
                .read_page(page as usize, access)
                .expect("transient fault recovers within the retry budget");
            assert!(!data.is_empty(), "recovered read returns real tuples");
            assert_eq!(io.backoff_ns, eco_simhw::fault::backoff_ns_for(failures));
            assert_eq!(
                io.disk.retry_ios, failures as u64,
                "one re-read per failure"
            );
            assert_eq!(io.disk.retry_bytes, failures as u64 * PAGE_SIZE as u64);
            // Re-reading the now-cached page is a hit: no further charges.
            let (_, io) = t.read_page(page as usize, access).expect("hit");
            assert!(io.is_empty());
        }
    }

    #[test]
    fn permanent_fault_reports_a_typed_error() {
        let pool = Arc::new(BufferPool::new(256));
        let t = DiskTable::load(1, schema(), tuples(20_000), Arc::clone(&pool));
        let plan = FaultPlan::new(42, 1_000_000);
        pool.set_fault_plan(plan);
        let (page, _) = fault_of_kind(&plan, 1, t.num_pages() as u64, Some(false))
            .expect("saturated plan has a permanent fault");
        let err = t.read_page_checked(page as usize).unwrap_err();
        assert_eq!(
            err,
            IoError::Permanent {
                table: 1,
                page: page as u32
            }
        );
        assert!(err.to_string().contains("permanent read fault"));
        // Nothing was cached by the failed read.
        assert_eq!(pool.stats().resident, 0);
    }

    #[test]
    fn stall_fault_charges_backoff_only() {
        let pool = Arc::new(BufferPool::new(256));
        let t = DiskTable::load(1, schema(), tuples(20_000), Arc::clone(&pool));
        let plan = FaultPlan::new(42, 1_000_000);
        pool.set_fault_plan(plan);
        let (page, fault) = fault_of_kind(&plan, 1, t.num_pages() as u64, None)
            .expect("saturated plan has a stall fault");
        let PageFault::Stall { ns } = fault else {
            unreachable!()
        };
        let (_, io) = t.read_page_checked(page as usize).expect("stall succeeds");
        assert_eq!(io.backoff_ns, ns);
        assert_eq!(io.disk.retry_ios, 0, "a stall is not a retry");
    }

    #[test]
    fn corrupted_page_is_detected_and_reported() {
        let pool = Arc::new(BufferPool::new(256));
        let mut t = DiskTable::load(1, schema(), tuples(2000), pool);
        t.corrupt_page(3, 100);
        let err = t.read_page_checked(3).unwrap_err();
        assert_eq!(err, IoError::Corrupt { table: 1, page: 3 });
        assert!(err.to_string().contains("checksum mismatch"));
        // Neighbouring pages are unaffected.
        assert!(t.read_page_checked(2).is_ok());
        assert!(t.read_page_checked(4).is_ok());
    }
}
