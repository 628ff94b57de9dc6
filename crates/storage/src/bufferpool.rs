//! LRU buffer pool in front of the simulated disk.
//!
//! Every miss charges simulated I/O to an internal ledger the executor
//! drains into its work trace: consecutive page numbers within a table
//! are charged as sequential transfer, anything else as a random access
//! (paper §3.5 shows the two differ enormously in both time and energy).
//!
//! `flush()` models a reboot (the paper's cold runs); an optional
//! *warm re-read interval* models the residual disk traffic the paper
//! observed on warm runs ("the hard disk drive had significant activity
//! even though the database was warm").
//!
//! A resident page is a [`PageFrame`]: the page image the miss path
//! read (and, on the checked paths, verified). Everything priced
//! happens on the miss — fault lookup, checksum, retries,
//! classification, LRU stamp — and a reader then pays for what it
//! reads off the image: nothing for a columnar scan (its data comes
//! from the extent chunks; it only needs the access charged), one slot
//! for an index probe's key compare ([`crate::btree`]) or base-row
//! fetch ([`PageFrame::tuple`]). Only the scalar engine's sequential
//! scans — the test oracle — read every row of a page, and they alone
//! decode it whole ([`PageFrame::tuples`], once per residency).

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

use eco_simhw::fault::FaultPlan;
use eco_simhw::trace::{DiskWork, Ledger};
use parking_lot::Mutex;

use crate::page::{Page, PAGE_SIZE};
use crate::value::Tuple;

/// Pages per on-disk extent: sequential streaming is only possible
/// within an extent; each extent boundary costs a repositioning.
pub const EXTENT_PAGES: u32 = 16;

/// Identifies a page: table id + page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId {
    /// Owning table.
    pub table: u32,
    /// Page number within the table.
    pub page: u32,
}

/// Pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Lookups served from memory.
    pub hits: u64,
    /// Lookups that went to disk.
    pub misses: u64,
    /// Pages currently resident.
    pub resident: usize,
    /// Pages evicted so far.
    pub evictions: u64,
}

/// A resident page: its image, plus every tuple on it once a
/// sequential row reader has asked for them ([`PageFrame::tuples`]).
#[derive(Debug)]
pub struct PageFrame {
    page: Page,
    tuples: OnceLock<Vec<Tuple>>,
}

impl PageFrame {
    /// Frame over a page image (shared with the table, not copied).
    pub fn new(page: Page) -> Self {
        Self {
            page,
            tuples: OnceLock::new(),
        }
    }

    /// Number of tuples on the page (read off the header; no decode).
    pub fn len(&self) -> usize {
        self.page.len()
    }

    /// True when the page holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.page.is_empty()
    }

    /// The page's tuples in slot order: the whole page is decoded on
    /// the first call and kept for the residency. For readers that
    /// walk the page; a point read wants [`Self::tuple`].
    pub fn tuples(&self) -> &[Tuple] {
        self.tuples.get_or_init(|| self.page.all_tuples())
    }

    /// The tuple in one slot, decoded from the image — no other slot
    /// is touched and nothing is cached. Panics on an out-of-range
    /// slot.
    pub fn tuple(&self, slot: usize) -> Tuple {
        self.page.get(slot)
    }

    /// Whether [`Self::tuples`] has decoded the whole page — an
    /// observation hook for tests; nothing priced depends on it.
    pub fn is_decoded(&self) -> bool {
        self.tuples.get().is_some()
    }

    /// The page image.
    pub(crate) fn page(&self) -> &Page {
        &self.page
    }
}

struct Frame {
    page: Arc<PageFrame>,
    stamp: u64,
}

/// The default scan stream: all accesses through [`BufferPool::get`]
/// share one sequential-position tracker per table, preserving the
/// original single-cursor semantics.
pub(crate) const DEFAULT_STREAM: u64 = 0;

struct Inner {
    capacity: usize,
    frames: HashMap<PageId, Frame>,
    by_stamp: BTreeMap<u64, PageId>,
    clock: u64,
    io: Ledger,
    stats: PoolStats,
    /// Last page read per (table, scan stream) — sequential-transfer
    /// detection is per stream so concurrent scan cursors over the same
    /// table don't destroy each other's streaming runs.
    last_page: HashMap<(u32, u64), u32>,
    warm_reread_every: Option<u64>,
    hit_counter: u64,
    /// Deterministic fault schedule consulted by checked miss-path
    /// loads ([`BufferPool::get_checked`]). Defaults to the never-fault
    /// plan, under which every checked read behaves exactly like its
    /// unchecked twin.
    fault_plan: FaultPlan,
}

/// The buffer pool. Interior mutability keeps the read API `&self`.
pub struct BufferPool {
    inner: Mutex<Inner>,
}

impl BufferPool {
    /// Pool holding up to `capacity` pages. Capacity 0 disables caching
    /// entirely (every access is a miss).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                capacity,
                frames: HashMap::new(),
                by_stamp: BTreeMap::new(),
                clock: 0,
                io: Ledger::new(),
                stats: PoolStats::default(),
                last_page: HashMap::new(),
                warm_reread_every: None,
                hit_counter: 0,
                fault_plan: FaultPlan::none(),
            }),
        }
    }

    /// Install a deterministic fault schedule. Checked reads consult it
    /// on every miss; the default is [`FaultPlan::none`] (never faults).
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.inner.lock().fault_plan = plan;
    }

    /// The currently installed fault schedule.
    pub fn fault_plan(&self) -> FaultPlan {
        self.inner.lock().fault_plan
    }

    /// Model residual warm-run disk traffic: every `every`-th hit also
    /// charges one random page read (OS cache pressure, background
    /// checkpointing — the paper's warm runs were not I/O-silent).
    /// `None` disables.
    pub fn set_warm_reread_every(&self, every: Option<u64>) {
        let mut g = self.inner.lock();
        assert!(every != Some(0), "warm re-read interval must be > 0");
        g.warm_reread_every = every;
    }

    /// Fetch a page, loading (and charging I/O to the pool's internal
    /// ledger) on miss via `load`. Uses the `DEFAULT_STREAM` scan
    /// cursor; the executor drains the charges with [`Self::take_io`].
    pub fn get<F>(&self, id: PageId, load: F) -> Arc<PageFrame>
    where
        F: FnOnce() -> Arc<PageFrame>,
    {
        let (page, io) = self.get_inner(id, DEFAULT_STREAM, load);
        if !io.is_empty() {
            self.inner.lock().io.merge(&io);
        }
        page
    }

    /// Checked twin of [`Self::get`]: the miss-path `load` may fail and
    /// may charge extra retry I/O / backoff idle time (it receives the
    /// access's [`DiskWork`] ledger and a backoff-nanosecond
    /// accumulator, plus the pool's installed [`FaultPlan`]). Base I/O
    /// classification is identical to the unchecked path; on success
    /// the disk charges land in the pool ledger and the access's
    /// backoff is returned. On failure nothing is cached and the
    /// charges are discarded with the failed attempt.
    pub(crate) fn get_checked<F, E>(&self, id: PageId, load: F) -> Result<(Arc<PageFrame>, u64), E>
    where
        F: FnOnce(FaultPlan, &mut DiskWork, &mut u64) -> Result<Arc<PageFrame>, E>,
    {
        let (page, mut io) = self.get_inner_checked(id, Some(DEFAULT_STREAM), load)?;
        let backoff_ns = std::mem::take(&mut io.backoff_ns);
        if !io.is_empty() {
            self.inner.lock().io.merge(&io);
        }
        Ok((page, backoff_ns))
    }

    /// Like `Self::get_checked` but on a private scan stream,
    /// returning this access's I/O and backoff directly instead of
    /// accumulating them in the pool ledger.
    ///
    /// Parallel scan cursors use this so (a) sequential-transfer
    /// detection tracks each cursor independently — interleaved workers
    /// would otherwise turn every in-order read into a seek — and
    /// (b) each worker attributes exactly its own I/O to its own energy
    /// ledger, keeping the merged parallel ledger identical to serial
    /// execution.
    pub(crate) fn get_stream_checked<F, E>(
        &self,
        id: PageId,
        stream: u64,
        load: F,
    ) -> Result<(Arc<PageFrame>, Ledger), E>
    where
        F: FnOnce(FaultPlan, &mut DiskWork, &mut u64) -> Result<Arc<PageFrame>, E>,
    {
        self.get_inner_checked(id, Some(stream), load)
    }

    /// Checked fetch for an index probe (ledger schema v4). A miss
    /// charges one [`DiskWork::index_ios`] plus [`PAGE_SIZE`]
    /// [`DiskWork::index_bytes`] — priced exactly like a random access
    /// but ledgered separately — and never reads or updates the
    /// sequential-position tracker, so interleaved probes cannot break
    /// a concurrent scan's streaming run and an index-free run's ledger
    /// stays bit-identical. Returns this access's I/O and backoff
    /// directly (probes attribute charges to their own operator, like
    /// private scan streams); fault handling matches
    /// `Self::get_checked`.
    pub fn get_index_checked<F, E>(
        &self,
        id: PageId,
        load: F,
    ) -> Result<(Arc<PageFrame>, Ledger), E>
    where
        F: FnOnce(FaultPlan, &mut DiskWork, &mut u64) -> Result<Arc<PageFrame>, E>,
    {
        self.get_inner_checked(id, None, load)
    }

    fn get_inner<F>(&self, id: PageId, stream: u64, load: F) -> (Arc<PageFrame>, Ledger)
    where
        F: FnOnce() -> Arc<PageFrame>,
    {
        let r: Result<_, std::convert::Infallible> =
            self.get_inner_checked(id, Some(stream), |_, _, _| Ok(load()));
        match r {
            Ok(r) => r,
            Err(e) => match e {},
        }
    }

    /// `stream`: `Some(s)` classifies the miss against scan stream `s`'s
    /// sequential position; `None` is an index probe (v4 classes, no
    /// position tracking). Returns the frame and what the access
    /// charged: disk I/O, and backoff if the load retried.
    fn get_inner_checked<F, E>(
        &self,
        id: PageId,
        stream: Option<u64>,
        load: F,
    ) -> Result<(Arc<PageFrame>, Ledger), E>
    where
        F: FnOnce(FaultPlan, &mut DiskWork, &mut u64) -> Result<Arc<PageFrame>, E>,
    {
        let mut io = Ledger::new();
        let mut g = self.inner.lock();
        g.clock += 1;
        let stamp = g.clock;

        if let Some(frame) = g.frames.get_mut(&id) {
            let old = frame.stamp;
            frame.stamp = stamp;
            let page = Arc::clone(&frame.page);
            g.by_stamp.remove(&old);
            g.by_stamp.insert(stamp, id);
            g.stats.hits += 1;
            g.hit_counter += 1;
            if let Some(every) = g.warm_reread_every {
                if g.hit_counter.is_multiple_of(every) {
                    io.disk.random_ios += 1;
                    io.disk.random_bytes += PAGE_SIZE as u64;
                }
            }
            return Ok((page, io));
        }

        // Miss: charge I/O. Consecutive page numbers within a table
        // stream sequentially *within an extent*; crossing an extent
        // boundary (and any non-consecutive jump) pays a repositioning
        // — DBMS files interleave table extents on disk, which is why
        // the paper's cold runs are seek-dominated (≈3× slower, §3.5)
        // rather than running at the drive's streaming rate.
        match stream {
            Some(stream) => {
                let consecutive = g
                    .last_page
                    .get(&(id.table, stream))
                    .map(|&p| p + 1 == id.page)
                    == Some(true);
                let extent_start = id.page.is_multiple_of(EXTENT_PAGES);
                if consecutive && !extent_start {
                    io.disk.sequential_bytes += PAGE_SIZE as u64;
                } else {
                    io.disk.random_ios += 1;
                    io.disk.random_bytes += PAGE_SIZE as u64;
                }
                g.last_page.insert((id.table, stream), id.page);
            }
            // Index probe: every miss repositions the head (v4 class),
            // and the scan position trackers are left untouched.
            None => {
                io.disk.index_ios += 1;
                io.disk.index_bytes += PAGE_SIZE as u64;
            }
        }
        g.stats.misses += 1;

        let plan = g.fault_plan;
        let page = load(plan, &mut io.disk, &mut io.backoff_ns)?;
        if g.capacity > 0 {
            while g.frames.len() >= g.capacity {
                // frames non-empty implies a stamp entry exists.
                let Some((&old_stamp, &victim)) = g.by_stamp.iter().next() else {
                    break;
                };
                g.by_stamp.remove(&old_stamp);
                g.frames.remove(&victim);
                g.stats.evictions += 1;
            }
            g.frames.insert(
                id,
                Frame {
                    page: Arc::clone(&page),
                    stamp,
                },
            );
            g.by_stamp.insert(stamp, id);
        }
        g.stats.resident = g.frames.len();
        Ok((page, io))
    }

    /// Drain the accumulated I/O ledger (the executor merges it into
    /// its own).
    pub fn take_io(&self) -> Ledger {
        std::mem::take(&mut self.inner.lock().io)
    }

    /// Drop the sequential-position entry of a finished scan stream.
    /// Stream ids are allocated fresh per parallel scan partition, so
    /// without this the `last_page` map would grow by one entry per
    /// morsel for the life of the pool.
    pub fn end_stream(&self, table: u32, stream: u64) {
        let mut g = self.inner.lock();
        g.last_page.remove(&(table, stream));
    }

    /// Drop every cached page and reset scan-position tracking — a
    /// reboot, for the paper's cold runs. The warm-reread hit counter
    /// resets too, so two runs that both start from a flush charge
    /// their periodic re-reads at the same points (bit-identical
    /// ledgers for serve-vs-replay comparisons).
    pub fn flush(&self) {
        let mut g = self.inner.lock();
        // Frames may carry decoded rows; free them after the lock is
        // released.
        let dropped: Vec<Frame> = g.frames.drain().map(|(_, frame)| frame).collect();
        g.by_stamp.clear();
        g.last_page.clear();
        g.hit_counter = 0;
        g.stats.resident = 0;
        drop(g);
        drop(dropped);
    }

    /// Drop every cached page of one table (or index — indexes share
    /// the id space) and its scan positions. This is the invalidation
    /// the mutating write path needs: a mutated [`crate::disk_table::DiskTable`]
    /// keeps its table id and reuses page numbers, so any pages cached
    /// before the mutation would otherwise serve stale tuples. The
    /// write path evicts wholesale on purpose, although it rewrites
    /// only a few pages: what the next reader misses on is priced.
    /// Deliberate invalidations are not counted as LRU evictions.
    pub fn evict_table(&self, table: u32) {
        let mut g = self.inner.lock();
        let victims: Vec<PageId> = g
            .frames
            .keys()
            .filter(|id| id.table == table)
            .copied()
            .collect();
        let mut dropped = Vec::with_capacity(victims.len());
        for id in victims {
            if let Some(frame) = g.frames.remove(&id) {
                g.by_stamp.remove(&frame.stamp);
                dropped.push(frame);
            }
        }
        g.last_page.retain(|&(t, _), _| t != table);
        g.stats.resident = g.frames.len();
        // As in `flush`: free the frames after the lock is released.
        drop(g);
        drop(dropped);
    }

    /// Current statistics.
    pub fn stats(&self) -> PoolStats {
        let mut g = self.inner.lock();
        g.stats.resident = g.frames.len();
        g.stats
    }

    /// Configured capacity in pages.
    pub fn capacity(&self) -> usize {
        self.inner.lock().capacity
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity())
            .field("stats", &s)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn page_data(n: i64) -> Arc<PageFrame> {
        let mut page = Page::new();
        assert!(page.insert(&vec![Value::Int(n)]));
        Arc::new(PageFrame::new(page))
    }

    fn id(table: u32, page: u32) -> PageId {
        PageId { table, page }
    }

    #[test]
    fn hit_after_miss() {
        let pool = BufferPool::new(8);
        let a = pool.get(id(1, 0), || page_data(0));
        let b = pool.get(id(1, 0), || panic!("should hit"));
        assert!(Arc::ptr_eq(&a, &b));
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn frame_decodes_on_first_row_read_and_keeps_the_rows() {
        let frame = page_data(7);
        assert_eq!(frame.len(), 1);
        assert!(frame.tuples.get().is_none(), "len() reads the header only");
        assert_eq!(frame.tuples(), &[vec![Value::Int(7)]]);
        assert!(std::ptr::eq(frame.tuples(), frame.tuples()), "decoded once");
    }

    #[test]
    fn slot_read_decodes_one_slot_and_caches_nothing() {
        let mut page = Page::new();
        for i in 0..5 {
            assert!(page.insert(&vec![Value::Int(i), Value::str(format!("row {i}"))]));
        }
        let frame = PageFrame::new(page);
        for i in [3usize, 0, 4] {
            let row = vec![Value::Int(i as i64), Value::str(format!("row {i}"))];
            assert_eq!(frame.tuple(i), row);
        }
        assert!(!frame.is_decoded(), "point reads leave the page undecoded");
        assert_eq!(frame.tuple(2), frame.tuples()[2]);
        assert!(frame.is_decoded());
    }

    #[test]
    fn sequential_vs_random_charging() {
        let pool = BufferPool::new(8);
        pool.get(id(1, 0), || page_data(0)); // first access: random
        pool.get(id(1, 1), || page_data(1)); // sequential
        pool.get(id(1, 2), || page_data(2)); // sequential
        pool.get(id(1, 7), || page_data(7)); // jump: random
        let io = pool.take_io().disk;
        assert_eq!(io.random_ios, 2);
        assert_eq!(io.sequential_bytes, 2 * PAGE_SIZE as u64);
        assert_eq!(io.random_bytes, 2 * PAGE_SIZE as u64);
        // Ledger drained.
        assert!(pool.take_io().is_empty());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let pool = BufferPool::new(2);
        pool.get(id(1, 0), || page_data(0));
        pool.get(id(1, 1), || page_data(1));
        pool.get(id(1, 0), || panic!("0 resident")); // touch 0: 1 is now LRU
        pool.get(id(1, 2), || page_data(2)); // evicts 1
        pool.get(id(1, 0), || panic!("0 must survive"));
        let mut evicted_reloaded = false;
        pool.get(id(1, 1), || {
            evicted_reloaded = true;
            page_data(1)
        });
        assert!(evicted_reloaded, "page 1 should have been evicted");
        assert!(pool.stats().evictions >= 1);
    }

    #[test]
    fn capacity_never_exceeded() {
        let pool = BufferPool::new(4);
        for p in 0..100 {
            pool.get(id(1, p), || page_data(p as i64));
            assert!(pool.stats().resident <= 4);
        }
    }

    #[test]
    fn flush_forces_cold_reads() {
        let pool = BufferPool::new(8);
        pool.get(id(1, 0), || page_data(0));
        pool.take_io();
        pool.flush();
        let mut reloaded = false;
        pool.get(id(1, 0), || {
            reloaded = true;
            page_data(0)
        });
        assert!(reloaded);
        let io = pool.take_io();
        // After flush the scan position is also reset ⇒ random charge.
        assert_eq!(io.disk.random_ios, 1);
    }

    #[test]
    fn zero_capacity_always_misses() {
        let pool = BufferPool::new(0);
        for _ in 0..3 {
            let mut loaded = false;
            pool.get(id(1, 0), || {
                loaded = true;
                page_data(0)
            });
            assert!(loaded);
        }
        assert_eq!(pool.stats().misses, 3);
    }

    #[test]
    fn independent_streams_keep_sequential_runs() {
        // Two interleaved in-order cursors over disjoint extents: with
        // per-stream tracking both keep streaming; through the shared
        // default stream every read would be a seek.
        let pool = BufferPool::new(64);
        let mut io = Ledger::new();
        for p in 0..4u32 {
            let (_, a) = pool.get_inner(id(1, p), 1, || page_data(p as i64));
            io.merge(&a);
            let (_, b) = pool.get_inner(id(1, 16 + p), 2, || page_data(p as i64));
            io.merge(&b);
        }
        let io = io.disk;
        // One repositioning per extent start, streaming elsewhere.
        assert_eq!(io.random_ios, 2, "{io:?}");
        assert_eq!(io.sequential_bytes, 6 * PAGE_SIZE as u64);
        // Stream charges are returned, not accumulated in the pool.
        assert!(pool.take_io().is_empty());
    }

    #[test]
    fn evicting_a_table_forgets_its_scan_positions() {
        let pool = BufferPool::new(64);
        pool.get(id(1, 0), || page_data(0));
        pool.get(id(1, 1), || page_data(1));
        pool.get(id(2, 0), || page_data(0));
        pool.take_io();
        pool.evict_table(1);
        // Page 2 follows page 1 on the stream, but the cursor was
        // forgotten with the table: the read repositions.
        pool.get(id(1, 2), || page_data(2));
        let io = pool.take_io().disk;
        assert_eq!((io.random_ios, io.sequential_bytes), (1, 0), "{io:?}");
        // Another table's cursor survives.
        pool.get(id(2, 1), || page_data(1));
        let io = pool.take_io().disk;
        assert_eq!((io.random_ios, io.sequential_bytes), (0, PAGE_SIZE as u64));
    }

    #[test]
    fn an_ended_stream_starts_over() {
        let pool = BufferPool::new(64);
        let (_, io) = pool.get_inner(id(1, 0), 5, || page_data(0));
        assert_eq!(io.disk.random_ios, 1);
        let (_, io) = pool.get_inner(id(1, 1), 5, || page_data(1));
        assert_eq!(io.disk.sequential_bytes, PAGE_SIZE as u64);
        pool.end_stream(1, 5);
        // The next in-order page on stream 5 is its first read again.
        let (_, io) = pool.get_inner(id(1, 2), 5, || page_data(2));
        assert_eq!(
            (io.disk.random_ios, io.disk.sequential_bytes),
            (1, 0),
            "{io:?}"
        );
    }

    #[test]
    fn checked_read_matches_unchecked_when_fault_free() {
        let a = BufferPool::new(8);
        let b = BufferPool::new(8);
        for p in [0u32, 1, 2, 7, 16] {
            a.get(id(1, p), || page_data(p as i64));
            let r: Result<_, ()> = b.get_checked(id(1, p), |plan, _io, _backoff| {
                assert!(plan.is_none(), "no plan installed");
                Ok(page_data(p as i64))
            });
            let (_, backoff) = r.expect("fault-free checked read succeeds");
            assert_eq!(backoff, 0);
        }
        assert_eq!(a.take_io(), b.take_io(), "identical miss classification");
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn checked_read_error_leaves_nothing_cached() {
        let pool = BufferPool::new(8);
        let r: Result<(Arc<PageFrame>, u64), &str> =
            pool.get_checked(id(1, 0), |_, io, backoff| {
                io.retry_ios += 3;
                io.retry_bytes += 3 * PAGE_SIZE as u64;
                *backoff += 123;
                Err("permanent")
            });
        assert_eq!(r.unwrap_err(), "permanent");
        assert_eq!(pool.stats().resident, 0);
        // Charges of the failed attempt are discarded with it.
        assert!(pool.take_io().is_empty());
        // The page is still loadable afterwards.
        let r: Result<_, ()> = pool.get_checked(id(1, 0), |_, _, _| Ok(page_data(0)));
        assert!(r.is_ok());
    }

    #[test]
    fn checked_read_retry_charges_reach_the_ledger() {
        let pool = BufferPool::new(8);
        let r: Result<_, ()> = pool.get_checked(id(1, 0), |_, io, backoff| {
            io.retry_ios += 2;
            io.retry_bytes += 2 * PAGE_SIZE as u64;
            *backoff += 150_000;
            Ok(page_data(0))
        });
        let (_, backoff) = r.expect("transient read recovers");
        assert_eq!(backoff, 150_000);
        let io = pool.take_io();
        assert_eq!(io.backoff_ns, 0, "backoff is returned, not pooled");
        let io = io.disk;
        assert_eq!(io.retry_ios, 2);
        assert_eq!(io.retry_bytes, 2 * PAGE_SIZE as u64);
        // Base classification is unchanged: first read is still random.
        assert_eq!(io.random_ios, 1);
    }

    #[test]
    fn fault_plan_is_installed_and_visible_to_loads() {
        use eco_simhw::fault::FaultPlan;
        let pool = BufferPool::new(8);
        assert!(pool.fault_plan().is_none());
        pool.set_fault_plan(FaultPlan::new(7, 250_000));
        assert_eq!(pool.fault_plan().rate_ppm(), 250_000);
        let r: Result<_, ()> = pool.get_checked(id(1, 0), |plan, _, _| {
            assert_eq!(plan.seed(), 7);
            Ok(page_data(0))
        });
        assert!(r.is_ok());
    }

    #[test]
    fn index_probe_charges_v4_and_preserves_scan_streaming() {
        let pool = BufferPool::new(64);
        // A scan cursor is mid-run...
        pool.get(id(1, 1), || page_data(1));
        pool.get(id(1, 2), || page_data(2));
        pool.take_io();
        // ...an index probe lands between its reads...
        let r: Result<_, ()> = pool.get_index_checked(id(1, 9), |_, _, _| Ok(page_data(9)));
        let (_, io) = r.expect("probe succeeds");
        assert_eq!(
            (io.disk.index_ios, io.disk.index_bytes),
            (1, PAGE_SIZE as u64)
        );
        assert!(io.without_schema(4).is_empty(), "only the v4 classes");
        // Probe charges are returned, not accumulated in the pool.
        assert!(pool.take_io().is_empty());
        // ...and the scan keeps streaming as if the probe never happened.
        pool.get(id(1, 3), || page_data(3));
        let io = pool.take_io().disk;
        assert_eq!(io.sequential_bytes, PAGE_SIZE as u64);
        assert_eq!(io.random_ios, 0);
        // A probe hit on a cached page charges nothing.
        let r: Result<_, ()> = pool.get_index_checked(id(1, 9), |_, _, _| panic!("hit"));
        let (_, io) = r.expect("hit");
        assert!(io.is_empty());
    }

    #[test]
    fn warm_reread_charges_periodically() {
        let pool = BufferPool::new(8);
        pool.set_warm_reread_every(Some(10));
        pool.get(id(1, 0), || page_data(0));
        pool.take_io();
        for _ in 0..30 {
            pool.get(id(1, 0), || panic!("hit expected"));
        }
        let io = pool.take_io();
        assert_eq!(io.disk.random_ios, 3, "3 re-reads over 30 hits at every=10");
    }
}
