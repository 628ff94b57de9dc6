//! Paged B-tree secondary indexes (ledger schema v4).
//!
//! A [`BTreeIndex`] maps one column of a [`crate::disk_table::DiskTable`]
//! to row ids. It is bulk-loaded bottom-up from the sorted column into
//! fixed-fanout [`Page`]s — leaves hold `[key, row_id]` entries, interior
//! nodes hold `[separator_key, child_page]` entries — and those pages are
//! read back through the shared [`BufferPool`] exactly like table pages.
//!
//! # Random-I/O pricing (the point of the exercise)
//!
//! The paper's fig5 shows the drive's two personalities: sequential
//! streaming runs at the full transfer rate with flat energy/KB, while
//! every random access pays a multi-millisecond repositioning before a
//! slow in-block burst. A table scan enjoys the first personality; an
//! index probe is the second — the descent jumps between unrelated
//! pages, and the base-row fetches it drives land wherever the row ids
//! point. Accordingly, **every** buffer-pool miss taken on behalf of an
//! index probe is charged to the v4 index classes
//! ([`eco_simhw::trace::DiskWork::index_ios`] /
//! [`eco_simhw::trace::DiskWork::index_bytes`]), which price *exactly*
//! like random I/O (their charge-class rows share its price roles) but
//! are ledgered apart, so:
//!
//! * index-free runs charge nothing to the v4 classes and every
//!   pre-existing figure stays bit-identical;
//! * scan-shaped plans keep a *pure* sequential/random split even when
//!   probes interleave with them (probes never touch the pool's
//!   sequential-position trackers — see [`Access::Index`]);
//! * the scan-vs-probe energy crossover becomes a real, measurable
//!   function of selectivity and p-state instead of a synthetic
//!   raw-disk experiment.
//!
//! CPU-side, each binary-search step inside a node charges one
//! [`eco_simhw::trace::OpClass::NodeSearch`] (also v4, also zero on
//! index-free runs). A step reads one slot: the key is compared where it
//! lies in the verified node image ([`crate::page`]'s in-place entry
//! reader — no node is ever decoded, nothing is allocated), and an
//! entry that is not a well-formed `[key, integer]` pair of the index's
//! key type fails the probe with [`IoError::Corrupt`].
//!
//! Building the index reads the table's pages directly — never through
//! the buffer pool — so, like the columnar mirror
//! ([`crate::disk_table::ColumnarExtents`]), *building* charges no I/O;
//! only probes do.
//!
//! # Upkeep under mutation: patch the entries, re-emit the changed tail
//!
//! The sorted `(key, row_id)` entry array is kept as the index's source
//! of truth, and the node pages are always exactly what a bulk load of
//! that array produces. A table mutation patches the array in place —
//! [`BTreeIndex::insert`] and [`BTreeIndex::remove`] binary-search
//! their position (a removal also shifts every higher row id down by
//! one, as the table does), `BTreeIndex::update_key` does nothing at
//! all when the indexed column did not change — and then re-emits
//! nodes through the *same* routine the bulk load uses: leaf packing is
//! greedy and left to right, so every leaf that ends before the first
//! changed entry is kept as it is, leaves are re-packed from there to
//! the end (a fixed fanout never re-aligns after a one-entry shift),
//! and the interior levels — a 256th of the leaves — are rebuilt above
//! them. An append of the highest key rewrites the last leaf and the
//! root.
//!
//! **Invariant:** tree shape, node images, checksums, and therefore
//! every probe's `NodeSearch` count and `index_ios`, are those of
//! [`BTreeIndex::build`] over the current entries
//! (`tests/prop_incremental_apply.rs`).

use std::cmp::Ordering;
use std::sync::Arc;

use eco_simhw::trace::Ledger;

use crate::bufferpool::{Access, BufferPool, PageFrame, PageId};
use crate::disk_table::{load_verified, IoError};
use crate::page::{read_key, read_pair, serialize_pair, Page, PAGE_SIZE};
use crate::value::{ColumnType, Value};

/// Maximum entries per node (leaf or interior). Real fanout is the
/// smaller of this and what fits an 8 KB page; the fixed cap keeps tree
/// shape (and therefore probe I/O counts) independent of key width
/// jitter for the common integer/date keys.
pub const BTREE_FANOUT: usize = 256;

/// First index id. Index page ids share the buffer pool's `(table,
/// page)` namespace with tables, so index ids live in their own upper
/// range — a catalog would need billions of tables to collide.
pub(crate) const FIRST_INDEX_ID: u32 = 0x8000_0000;

/// One bound of a range probe.
#[derive(Debug, Clone, Copy)]
pub enum KeyBound<'a> {
    /// No bound on this side.
    Unbounded,
    /// Bound included in the result.
    Inclusive(&'a Value),
    /// Bound excluded from the result.
    Exclusive(&'a Value),
}

impl KeyBound<'_> {
    fn value(&self) -> Option<&Value> {
        match self {
            KeyBound::Unbounded => None,
            KeyBound::Inclusive(v) | KeyBound::Exclusive(v) => Some(v),
        }
    }
}

/// What one probe did: the matching row ids plus everything the caller
/// must charge to its energy ledger.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IndexProbe {
    /// Matching base-table row ids, ascending — so an index scan emits
    /// rows in table order and its output is bit-identical to the
    /// equivalent full-scan-plus-filter plan.
    pub row_ids: Vec<usize>,
    /// Disk and backoff charges of the probe (v4 index classes on
    /// misses; v2 retry classes and backoff if a fault fired).
    pub ledger: Ledger,
    /// Binary-search steps taken inside nodes; the caller charges one
    /// [`eco_simhw::trace::OpClass::NodeSearch`] each.
    pub node_searches: u64,
}

/// A paged B-tree secondary index over one column.
#[derive(Clone)]
pub struct BTreeIndex {
    index_id: u32,
    key_type: ColumnType,
    /// Every `(key, row_id)` entry, sorted by key then row id — the
    /// source of truth the node pages are emitted from.
    entries: Vec<(Value, usize)>,
    /// All nodes, leaves first: pages `[0, leaf_count)` are the leaf
    /// level in key order (so a range walk is `page + 1`), upper levels
    /// follow, root last.
    pages: Vec<Page>,
    checksums: Vec<u64>,
    leaf_count: usize,
    height: usize,
    pool: Arc<BufferPool>,
}

impl BTreeIndex {
    /// Bulk-load from `(key, row_id)` entries (any order; duplicates
    /// allowed). Panics if a key's type differs from `key_type`.
    /// Building charges no I/O — see the module docs.
    pub fn build(
        index_id: u32,
        key_type: ColumnType,
        mut entries: Vec<(Value, usize)>,
        pool: Arc<BufferPool>,
    ) -> Self {
        for (k, _) in &entries {
            assert!(
                k.column_type() == key_type,
                "index key {k:?} does not have type {key_type:?}"
            );
        }
        entries.sort_by(|a, b| cmp_keys(&a.0, &b.0).then(a.1.cmp(&b.1)));
        let mut index = Self {
            index_id,
            key_type,
            entries,
            pages: Vec::new(),
            checksums: Vec::new(),
            leaf_count: 0,
            height: 0,
            pool,
        };
        index.emit_from(0);
        index
    }

    /// Index the table's newly appended row `row`. Panics if the key's
    /// type differs from the index's.
    pub fn insert(&mut self, key: Value, row: usize) {
        assert!(
            key.column_type() == self.key_type,
            "index key {key:?} does not have type {:?}",
            self.key_type
        );
        let (Ok(at) | Err(at)) = self.position(&key, row);
        self.entries.insert(at, (key, row));
        self.emit_from(at);
    }

    /// Drop the entry of the table's removed row `row` (whose indexed
    /// column held `key`) and shift every higher row id down by one,
    /// as the table's rows just did.
    pub fn remove(&mut self, key: &Value, row: usize) {
        let mut first_changed = self.drop_entry(key, row);
        for (i, entry) in self.entries.iter_mut().enumerate() {
            if entry.1 > row {
                entry.1 -= 1;
                first_changed = first_changed.min(i);
            }
        }
        self.emit_from(first_changed);
    }

    /// Row `row`'s indexed column changed from `old` to `new`; nothing
    /// at all happens when it did not.
    pub(crate) fn update_key(&mut self, row: usize, old: &Value, new: &Value) {
        if old == new {
            return;
        }
        let removed = self.drop_entry(old, row);
        let (Ok(at) | Err(at)) = self.position(new, row);
        self.entries.insert(at, (new.clone(), row));
        self.emit_from(removed.min(at));
    }

    /// Take `(key, row)` out of the entries; returns where it was (the
    /// entry count when the index did not hold it).
    fn drop_entry(&mut self, key: &Value, row: usize) -> usize {
        match self.position(key, row) {
            Ok(at) => {
                self.entries.remove(at);
                at
            }
            Err(_) => self.entries.len(),
        }
    }

    /// Where `(key, row)` is, or would be inserted, in the entry order.
    fn position(&self, key: &Value, row: usize) -> Result<usize, usize> {
        self.entries
            .binary_search_by(|e| cmp_keys(&e.0, key).then(e.1.cmp(&row)))
    }

    /// Bring the node pages in line with `entries`, given that entries
    /// before sorted position `first_changed` are as they were when
    /// the pages were last emitted (0 emits everything — the bulk
    /// load). Leaves that end before `first_changed` are kept; the rest
    /// of the leaf level and every interior level are packed afresh.
    fn emit_from(&mut self, first_changed: usize) {
        // Leaf `k` held the sorted positions from `starts[k]` up to the
        // next leaf's start; the entry that opened the next leaf helped
        // decide where `k` ends, so `k` is kept only when that entry,
        // too, lies before the change.
        let mut starts = Vec::with_capacity(self.leaf_count);
        let mut at = 0usize;
        for leaf in &self.pages[..self.leaf_count] {
            starts.push(at);
            at += leaf.len();
        }
        let keep = starts
            .partition_point(|&s| s < first_changed)
            .saturating_sub(1);
        let resume = starts.get(keep).copied().unwrap_or(0);
        self.pages.truncate(keep);
        self.checksums.truncate(keep);

        // Leaf level: [key, row_id] entries packed at fixed fanout.
        let mut seps: Vec<(Value, usize)> = starts[..keep]
            .iter()
            .enumerate()
            .map(|(leaf, &start)| (self.entries[start].0.clone(), leaf))
            .collect();
        pack_level(&self.entries[resume..], &mut self.pages, &mut seps);
        self.leaf_count = self.pages.len();
        self.height = usize::from(self.leaf_count > 0);

        // Interior levels of [separator_key, child_page] entries,
        // bottom-up, until one root remains.
        while seps.len() > 1 {
            let level = std::mem::take(&mut seps);
            pack_level(&level, &mut self.pages, &mut seps);
            self.height += 1;
        }
        self.checksums
            .extend(self.pages[keep..].iter().map(Page::checksum));
    }

    /// This index's id (the `table` half of its buffer-pool page ids).
    pub fn index_id(&self) -> u32 {
        self.index_id
    }

    /// Type of the indexed column.
    pub fn key_type(&self) -> ColumnType {
        self.key_type
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total node pages (leaves + interior).
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Tree height in levels (0 for an empty index, 1 for a single
    /// leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Size on disk, bytes (full pages — I/O is page-granular).
    pub fn bytes_on_disk(&self) -> u64 {
        (self.pages.len() * PAGE_SIZE) as u64
    }

    /// The raw image of node page `page_no` (leaves first, root last) —
    /// with [`Self::stored_checksum`], what the incremental-apply
    /// equivalence test compares against a bulk load. Panics on an
    /// out-of-range page.
    pub fn page_image(&self, page_no: usize) -> &[u8] {
        self.pages[page_no].image()
    }

    /// The checksum recorded for node page `page_no` when it was last
    /// emitted. Panics on an out-of-range page.
    pub fn stored_checksum(&self, page_no: usize) -> u64 {
        self.checksums[page_no]
    }

    /// Point probe: all rows whose key equals `key`.
    #[cfg(test)]
    pub(crate) fn probe_point(&self, key: &Value) -> Result<IndexProbe, IoError> {
        self.probe_range(KeyBound::Inclusive(key), KeyBound::Inclusive(key))
    }

    /// Range probe over `[lo, hi]` with per-side bound semantics.
    /// Returns matching row ids ascending plus the probe's ledger
    /// charges; a bound whose type differs from the key column matches
    /// nothing. A fault on an index page surfaces as the typed
    /// [`IoError`] after the bounded retry budget, exactly like a table
    /// page.
    pub fn probe_range(&self, lo: KeyBound<'_>, hi: KeyBound<'_>) -> Result<IndexProbe, IoError> {
        let mut probe = IndexProbe::default();
        if self.leaf_count == 0 {
            return Ok(probe);
        }
        for b in [&lo, &hi] {
            if let Some(v) = b.value() {
                if v.column_type() != self.key_type {
                    return Ok(probe);
                }
            }
        }

        let corrupt = |page_no: usize| IoError::Corrupt {
            table: self.index_id,
            page: page_no as u32,
        };

        // Descend from the root to the first leaf that can hold `lo`.
        // Keys are compared where they lie in the verified node image:
        // a step reads one slot and no node is decoded.
        let mut page_no = self.pages.len() - 1;
        loop {
            let frame = self.read_node(page_no, &mut probe)?;
            if page_no < self.leaf_count {
                break;
            }
            let node = frame.page();
            // Largest child whose separator is strictly below the lower
            // bound — duplicates of `lo` may start in that child.
            let pos = match lo.value() {
                Some(v) => lower_bound(node, v, &mut probe.node_searches)
                    .ok_or(corrupt(page_no))?
                    .saturating_sub(1),
                None => 0,
            };
            // Levels are laid out bottom-up, so a child always precedes
            // its parent.
            page_no = match read_pair(node.payload(pos)) {
                Some((_, child)) if (0..page_no as i64).contains(&child) => child as usize,
                _ => return Err(corrupt(page_no)),
            };
        }

        // Walk leaves rightward from the lower bound.
        let mut leaf = page_no;
        let mut frame = self.read_node(leaf, &mut probe)?;
        let mut start = match lo.value() {
            Some(v) => {
                lower_bound(frame.page(), v, &mut probe.node_searches).ok_or(corrupt(leaf))?
            }
            None => 0,
        };
        // The walk starts at the first key `>= lo` and keys only grow, so
        // the lower bound can only exclude a leading run of keys equal
        // to an exclusive `lo`.
        let mut skip_equal_to = match lo {
            KeyBound::Exclusive(v) => Some(v),
            _ => None,
        };
        'leaves: loop {
            let node = frame.page();
            for idx in start..node.len() {
                probe.node_searches += 1; // one key compare per entry walked
                let (key, row) = read_pair(node.payload(idx)).ok_or(corrupt(leaf))?;
                let cmp = |v: &Value| key.partial_cmp_value(v).ok_or(corrupt(leaf));
                let past_hi = match hi {
                    KeyBound::Unbounded => false,
                    KeyBound::Inclusive(v) => cmp(v)? == Ordering::Greater,
                    KeyBound::Exclusive(v) => cmp(v)? != Ordering::Less,
                };
                if past_hi {
                    break 'leaves;
                }
                if let Some(v) = skip_equal_to {
                    if cmp(v)? != Ordering::Greater {
                        continue;
                    }
                    skip_equal_to = None;
                }
                probe
                    .row_ids
                    .push(usize::try_from(row).map_err(|_| corrupt(leaf))?);
            }
            leaf += 1;
            if leaf >= self.leaf_count {
                break;
            }
            frame = self.read_node(leaf, &mut probe)?;
            start = 0;
        }

        // Duplicate keys interleave row ids across key groups; emit in
        // table order so index output matches scan output exactly.
        probe.row_ids.sort_unstable();
        Ok(probe)
    }

    /// Read one node through the buffer pool as an index read, merging
    /// what it charged into `probe`.
    fn read_node(&self, page_no: usize, probe: &mut IndexProbe) -> Result<Arc<PageFrame>, IoError> {
        let id = PageId {
            table: self.index_id,
            page: page_no as u32,
        };
        let (page, checksum) = (&self.pages[page_no], self.checksums[page_no]);
        let (frame, io) = self.pool.read(id, Access::Index, |plan, io, backoff_ns| {
            load_verified(id, page, checksum, plan, io, backoff_ns)
        })?;
        probe.ledger.merge(&io);
        Ok(frame)
    }
}

impl std::fmt::Debug for BTreeIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BTreeIndex")
            .field("index_id", &self.index_id)
            .field("key_type", &self.key_type)
            .field("entries", &self.entries.len())
            .field("pages", &self.pages.len())
            .field("leaves", &self.leaf_count)
            .field("height", &self.height)
            .finish()
    }
}

/// Pack one level's `(key, payload)` entries — row ids on the leaf
/// level, child page numbers above — into nodes appended to `pages`,
/// pushing each new node's `(first key, page number)` onto `seps` for
/// the level above. A node closes at [`BTREE_FANOUT`] entries or when
/// the page is full, whichever comes first.
fn pack_level(level: &[(Value, usize)], pages: &mut Vec<Page>, seps: &mut Vec<(Value, usize)>) {
    let mut cur = Page::new();
    let mut cur_n = 0usize;
    let mut entry = Vec::new();
    for (key, payload) in level {
        serialize_pair(key, &Value::Int(*payload as i64), &mut entry);
        if cur_n == BTREE_FANOUT || !cur.insert_raw(&entry) {
            pages.push(std::mem::take(&mut cur));
            cur_n = 0;
            assert!(
                cur.insert_raw(&entry),
                "index entry wider than an empty page"
            );
        }
        if cur_n == 0 {
            seps.push((key.clone(), pages.len()));
        }
        cur_n += 1;
    }
    if cur_n > 0 {
        pages.push(cur);
    }
}

/// Total order for same-typed keys (build-time assertions and probe
/// type checks guarantee the cross-type arm is unreachable).
fn cmp_keys(a: &Value, b: &Value) -> Ordering {
    a.partial_cmp_typed(b).unwrap_or(Ordering::Equal)
}

/// First entry of `node` whose key is `>= key`, counting one
/// node-search step per binary-search iteration. Each step compares the
/// key in place in its slot payload; `None` when a slot does not hold a
/// key of `key`'s type.
fn lower_bound(node: &Page, key: &Value, steps: &mut u64) -> Option<usize> {
    let (mut lo, mut hi) = (0usize, node.len());
    while lo < hi {
        *steps += 1;
        let mid = (lo + hi) / 2;
        if read_key(node.payload(mid))?.partial_cmp_value(key)? == Ordering::Less {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_simhw::fault::{FaultPlan, PageFault};

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(1024))
    }

    fn int_index(keys: &[i64]) -> BTreeIndex {
        let entries = keys
            .iter()
            .enumerate()
            .map(|(row, &k)| (Value::Int(k), row))
            .collect();
        BTreeIndex::build(FIRST_INDEX_ID, ColumnType::Int, entries, pool())
    }

    fn rows(ix: &BTreeIndex, lo: KeyBound<'_>, hi: KeyBound<'_>) -> Vec<usize> {
        ix.probe_range(lo, hi).expect("fault-free probe").row_ids
    }

    #[test]
    fn empty_index_probes_nothing_and_charges_nothing() {
        let ix = int_index(&[]);
        assert!(ix.is_empty());
        assert_eq!(ix.height(), 0);
        assert_eq!(ix.num_pages(), 0);
        let p = ix.probe_point(&Value::Int(7)).expect("empty probe");
        assert!(p.row_ids.is_empty());
        assert!(p.ledger.is_empty());
        assert_eq!(p.node_searches, 0);
    }

    #[test]
    fn point_probe_finds_exactly_the_matching_rows() {
        // Keys shuffled relative to row order on purpose.
        let keys: Vec<i64> = (0..5000).map(|i| (i * 37) % 1000).collect();
        let ix = int_index(&keys);
        assert_eq!(ix.len(), 5000);
        assert!(ix.height() >= 2, "5000 entries should need interior nodes");
        for probe_key in [0i64, 1, 499, 999] {
            let expect: Vec<usize> = keys
                .iter()
                .enumerate()
                .filter(|(_, &k)| k == probe_key)
                .map(|(r, _)| r)
                .collect();
            let got = rows(
                &ix,
                KeyBound::Inclusive(&Value::Int(probe_key)),
                KeyBound::Inclusive(&Value::Int(probe_key)),
            );
            assert_eq!(got, expect, "key {probe_key}");
        }
        // A key outside the domain matches nothing.
        assert!(rows(
            &ix,
            KeyBound::Inclusive(&Value::Int(5000)),
            KeyBound::Inclusive(&Value::Int(5000)),
        )
        .is_empty());
    }

    #[test]
    fn duplicate_keys_spanning_leaves_are_all_found() {
        // One long run of duplicates wider than any single leaf, with
        // neighbours on both sides.
        let mut keys = vec![1i64; 10];
        keys.extend(std::iter::repeat_n(2i64, 3 * BTREE_FANOUT));
        keys.extend(std::iter::repeat_n(3i64, 10));
        let ix = int_index(&keys);
        let got = rows(
            &ix,
            KeyBound::Inclusive(&Value::Int(2)),
            KeyBound::Inclusive(&Value::Int(2)),
        );
        assert_eq!(got, (10..10 + 3 * BTREE_FANOUT).collect::<Vec<_>>());
    }

    #[test]
    fn range_bounds_at_page_boundaries() {
        // Sorted keys ⇒ row id == key; leaves break exactly every
        // BTREE_FANOUT entries, so FANOUT−1 / FANOUT / FANOUT+1 exercise
        // last-of-leaf, first-of-leaf and straddling bounds.
        let n = 4 * BTREE_FANOUT as i64;
        let keys: Vec<i64> = (0..n).collect();
        let ix = int_index(&keys);
        let f = BTREE_FANOUT as i64;
        for (lo, hi) in [
            (f - 1, f + 1),
            (f, f),
            (f, 2 * f - 1),
            (0, n - 1),
            (2 * f - 1, 2 * f),
        ] {
            let got = rows(
                &ix,
                KeyBound::Inclusive(&Value::Int(lo)),
                KeyBound::Inclusive(&Value::Int(hi)),
            );
            assert_eq!(got, (lo as usize..=hi as usize).collect::<Vec<_>>());
            // Exclusive bounds shave exactly the endpoints.
            let got = rows(
                &ix,
                KeyBound::Exclusive(&Value::Int(lo)),
                KeyBound::Exclusive(&Value::Int(hi)),
            );
            assert_eq!(
                got,
                (lo as usize + 1..hi as usize).collect::<Vec<_>>(),
                "exclusive ({lo}, {hi})"
            );
        }
        // Half-open ranges.
        assert_eq!(
            rows(
                &ix,
                KeyBound::Unbounded,
                KeyBound::Exclusive(&Value::Int(3))
            ),
            vec![0, 1, 2]
        );
        assert_eq!(
            rows(
                &ix,
                KeyBound::Inclusive(&Value::Int(n - 2)),
                KeyBound::Unbounded
            ),
            vec![n as usize - 2, n as usize - 1]
        );
    }

    /// The model the patch operations are held to: a bulk load of the
    /// same entries.
    fn assert_same_as_build(ix: &BTreeIndex, keys: &[i64]) {
        let fresh = int_index(keys);
        assert_eq!(ix.len(), fresh.len());
        assert_eq!(ix.height(), fresh.height());
        assert_eq!(ix.num_pages(), fresh.num_pages());
        for p in 0..fresh.num_pages() {
            assert!(ix.page_image(p) == fresh.page_image(p), "node {p}");
            assert_eq!(ix.stored_checksum(p), fresh.stored_checksum(p));
        }
    }

    #[test]
    fn patched_index_is_the_bulk_load_of_its_entries() {
        // Three leaves and a root; keys out of row order, duplicated.
        let mut keys: Vec<i64> = (0..700).map(|i| (i * 37) % 300).collect();
        let mut ix = int_index(&keys);
        assert_eq!(ix.height(), 2);
        // Appended rows: smallest key (every leaf shifts), largest key
        // (last leaf only), and a duplicate in the middle.
        for k in [-1, 1000, 150] {
            ix.insert(Value::Int(k), keys.len());
            keys.push(k);
            assert_same_as_build(&ix, &keys);
        }
        // Key changes, including onto and off a leaf boundary; an
        // unchanged key is a no-op.
        for (row, k) in [(0, 299), (5, 185), (699, -7), (256, 256)] {
            ix.update_key(row, &Value::Int(keys[row]), &Value::Int(k));
            keys[row] = k;
            assert_same_as_build(&ix, &keys);
        }
        // Removals shift every higher row id down.
        for row in [0, 350, keys.len() - 3] {
            ix.remove(&Value::Int(keys[row]), row);
            keys.remove(row);
            assert_same_as_build(&ix, &keys);
        }
        // Down to nothing and back up.
        while let Some(k) = keys.pop() {
            ix.remove(&Value::Int(k), keys.len());
        }
        assert_same_as_build(&ix, &keys);
        assert_eq!((ix.height(), ix.num_pages()), (0, 0));
        ix.insert(Value::Int(9), 0);
        assert_same_as_build(&ix, &[9]);
    }

    #[test]
    fn probe_charges_v4_index_io_only() {
        let keys: Vec<i64> = (0..5000).collect();
        let ix = int_index(&keys);
        let p = ix.probe_point(&Value::Int(1234)).expect("probe");
        // Cold probe: one miss per level of the descent.
        let height = ix.height() as u64;
        let io = p.ledger.disk;
        assert_eq!(
            (io.index_ios, io.index_bytes),
            (height, height * PAGE_SIZE as u64)
        );
        assert!(p.ledger.without_schema(4).is_empty(), "only the v4 classes");
        assert!(p.node_searches > 0);
        // Warm re-probe of the same key: pure CPU, no I/O at all.
        let q = ix.probe_point(&Value::Int(1234)).expect("warm probe");
        assert!(q.ledger.is_empty());
        assert_eq!(q.row_ids, p.row_ids);
    }

    #[test]
    fn a_probe_returns_every_charge_its_reads_caused() {
        let keys: Vec<i64> = (0..5000).collect();
        let p = pool();
        let entries = keys
            .iter()
            .enumerate()
            .map(|(row, &k)| (Value::Int(k), row))
            .collect();
        let ix = BTreeIndex::build(FIRST_INDEX_ID, ColumnType::Int, entries, Arc::clone(&p));
        // Saturated and recoverable: every node read retries or stalls.
        p.set_fault_plan(FaultPlan::new(42, 1_000_000).recoverable());
        let probe = ix.probe_point(&Value::Int(42)).expect("recoverable");
        let height = ix.height() as u64;
        assert_eq!(p.stats().misses, height);
        assert_eq!(probe.ledger.disk.index_ios, height, "one index I/O a miss");
        assert!(probe.ledger.backoff_ns > 0, "the faults' backoff came back");
    }

    #[test]
    fn mismatched_key_type_matches_nothing() {
        let ix = int_index(&[1, 2, 3]);
        let p = ix.probe_point(&Value::str("x")).expect("typed miss");
        assert!(p.row_ids.is_empty());
        assert!(p.ledger.is_empty());
    }

    #[test]
    fn string_keys_work() {
        let names = ["delta", "alpha", "echo", "bravo", "alpha"];
        let entries = names
            .iter()
            .enumerate()
            .map(|(row, n)| (Value::str(n), row))
            .collect();
        let ix = BTreeIndex::build(FIRST_INDEX_ID, ColumnType::Str, entries, pool());
        let p = ix.probe_point(&Value::str("alpha")).expect("probe");
        assert_eq!(p.row_ids, vec![1, 4]);
        let r = ix
            .probe_range(
                KeyBound::Inclusive(&Value::str("b")),
                KeyBound::Exclusive(&Value::str("e")),
            )
            .expect("range");
        assert_eq!(r.row_ids, vec![0, 3], "bravo and delta");
    }

    #[test]
    fn faulted_index_page_reports_typed_error_with_index_id() {
        let keys: Vec<i64> = (0..5000).collect();
        let p = pool();
        let entries = keys
            .iter()
            .enumerate()
            .map(|(row, &k)| (Value::Int(k), row))
            .collect();
        let ix = BTreeIndex::build(FIRST_INDEX_ID, ColumnType::Int, entries, Arc::clone(&p));
        // Saturated plan: every page of the index faults somehow. Find a
        // probe that dies on a permanently-unreadable page.
        let plan = FaultPlan::new(42, 1_000_000);
        p.set_fault_plan(plan);
        let Some((page, _)) = plan
            .faults_in_table(ix.index_id(), ix.num_pages() as u64)
            .into_iter()
            .find(|(_, f)| matches!(f, PageFault::Permanent))
        else {
            panic!("saturated plan has a permanent fault");
        };
        // Probing every key must eventually touch that page.
        let mut saw_permanent = false;
        for k in 0..5000 {
            match ix.probe_point(&Value::Int(k)) {
                Ok(_) => {}
                Err(IoError::Permanent { table, page: pg }) => {
                    assert_eq!(table, ix.index_id());
                    assert_eq!(u64::from(pg), page);
                    saw_permanent = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(saw_permanent, "some probe crosses the dead page");
    }

    /// `ix` with node `page_no` rewritten to hold `payloads`, checksum
    /// refreshed — the image verifies, so only the slot reader stands
    /// between a malformed entry and the probe.
    fn with_node(ix: &BTreeIndex, page_no: usize, payloads: &[Vec<u8>]) -> BTreeIndex {
        let mut ix = ix.clone();
        let mut node = Page::new();
        for payload in payloads {
            assert!(node.insert_raw(payload));
        }
        ix.checksums[page_no] = node.checksum();
        ix.pages[page_no] = node;
        ix.pool = pool();
        ix
    }

    fn pair(key: &Value, n: &Value) -> Vec<u8> {
        let mut out = Vec::new();
        serialize_pair(key, n, &mut out);
        out
    }

    #[test]
    fn malformed_node_entries_are_reported_corrupt_not_panicked() {
        let keys: Vec<i64> = (0..2 * BTREE_FANOUT as i64).collect();
        let ix = int_index(&keys);
        assert_eq!((ix.height(), ix.num_pages()), (2, 3));
        let (leaf, root) = (0usize, 2usize);
        let good = pair(&Value::Int(5), &Value::Int(5));
        let unknown_tag = {
            let mut e = good.clone();
            e[2] = 0xEE;
            e
        };
        let leaf_cases = [
            ("short slot", good[..good.len() - 3].to_vec()),
            ("empty slot", Vec::new()),
            ("unknown tag", unknown_tag),
            ("row id not an Int", pair(&Value::Int(5), &Value::Date(5))),
            ("negative row id", pair(&Value::Int(5), &Value::Int(-1))),
            (
                "key of another type",
                pair(&Value::str("5"), &Value::Int(5)),
            ),
        ];
        for (what, bad) in leaf_cases {
            let broken = with_node(&ix, leaf, &[good.clone(), bad]);
            let err = broken
                .probe_range(KeyBound::Unbounded, KeyBound::Inclusive(&Value::Int(999)))
                .expect_err(what);
            let corrupt = IoError::Corrupt {
                table: ix.index_id(),
                page: leaf as u32,
            };
            assert_eq!(err, corrupt, "{what}");
            // A bounded probe meets the same slot, in the binary search
            // or in the walk over the keys equal to it.
            let err = broken.probe_point(&Value::Int(5)).expect_err(what);
            assert_eq!(err, corrupt, "{what}: bounded probe");
        }
        let root_cases = [
            ("child not an Int", pair(&Value::Int(0), &Value::Bool(true))),
            ("child out of range", pair(&Value::Int(0), &Value::Int(99))),
            (
                "child is the node itself",
                pair(&Value::Int(0), &Value::Int(2)),
            ),
            ("negative child", pair(&Value::Int(0), &Value::Int(-4))),
            ("short slot", good[..4].to_vec()),
        ];
        for (what, bad) in root_cases {
            let broken = with_node(&ix, root, &[bad]);
            let err = broken.probe_point(&Value::Int(7)).expect_err(what);
            assert_eq!(
                err,
                IoError::Corrupt {
                    table: ix.index_id(),
                    page: root as u32
                },
                "{what}"
            );
        }
    }
}
