//! LRU buffer pool in front of the simulated disk.
//!
//! Every page read goes through [`BufferPool::read`], which returns
//! what that read charged; the caller merges it into its own work
//! trace, and the pool keeps no ledger. A miss charges simulated I/O:
//! a scan read of the page after the table's last scanned one is
//! sequential transfer, anything else a random access (paper §3.5
//! shows the two differ enormously in both time and energy); an index
//! read is always an index random access. Scans read in page order on
//! one thread, the parallel ones included (their coordinator reads
//! every page before its workers start), so one scan position per
//! table is all the pool tracks.
//!
//! `flush()` models a reboot (the paper's cold runs); an optional
//! *warm re-read interval* models the residual disk traffic the paper
//! observed on warm runs ("the hard disk drive had significant activity
//! even though the database was warm").
//!
//! A resident page is a [`PageFrame`]: the page image the miss path
//! read and verified. Everything priced
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

/// What kind of read a [`BufferPool::read`] is: how its miss is
/// classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// A scan read: a miss on the page after the table's last scanned
    /// one, within an extent, is sequential transfer, any other miss a
    /// random access. The pool keeps one scan position per table.
    Scan,
    /// An index read (ledger schema v4): a descent node or a base-row
    /// fetch it drives. A miss charges one index I/O — priced exactly
    /// like a random access but ledgered apart — and never reads or
    /// moves the scan position, so probes cannot break a scan's run
    /// and an index-free run's ledger stays bit-identical.
    Index,
}

struct Inner {
    capacity: usize,
    frames: HashMap<PageId, Frame>,
    by_stamp: BTreeMap<u64, PageId>,
    clock: u64,
    stats: PoolStats,
    /// Last page a scan read, per table — what sequential-transfer
    /// detection compares a scan miss with.
    last_page: HashMap<u32, u32>,
    warm_reread_every: Option<u64>,
    hit_counter: u64,
    /// Deterministic fault schedule handed to every miss-path load
    /// ([`BufferPool::read`]). Defaults to the never-fault plan.
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
                stats: PoolStats::default(),
                last_page: HashMap::new(),
                warm_reread_every: None,
                hit_counter: 0,
                fault_plan: FaultPlan::none(),
            }),
        }
    }

    /// Install a deterministic fault schedule. Every miss hands it to
    /// its load; the default is [`FaultPlan::none`] (never faults).
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

    /// Read page `id`, loading it through `load` on a miss, and return
    /// the frame with everything this read charged. A hit charges
    /// nothing, unless it is a warm re-read ([`Self::set_warm_reread_every`]).
    /// A miss is classified by `access` (see [`Access`]) and hands
    /// `load` the installed [`FaultPlan`], the read's [`DiskWork`] and
    /// its backoff-nanosecond accumulator, to which the load adds its
    /// retries and backoff. If `load` fails, nothing is cached and its
    /// charges are dropped with the failed read.
    pub fn read<F, E>(
        &self,
        id: PageId,
        access: Access,
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
        match access {
            Access::Scan => {
                let consecutive =
                    g.last_page.get(&id.table).map(|&p| p + 1 == id.page) == Some(true);
                let extent_start = id.page.is_multiple_of(EXTENT_PAGES);
                if consecutive && !extent_start {
                    io.disk.sequential_bytes += PAGE_SIZE as u64;
                } else {
                    io.disk.random_ios += 1;
                    io.disk.random_bytes += PAGE_SIZE as u64;
                }
                g.last_page.insert(id.table, id.page);
            }
            // Index probe: every miss repositions the head (v4 class),
            // and the scan position trackers are left untouched.
            Access::Index => {
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

    /// Always an empty ledger: every read returns its own charges
    /// ([`Self::read`]) and the pool keeps none. It stays only because
    /// the benchmark's shadow layer (`ecobench/src/layers.rs`) still
    /// calls it; the next benchmark change (ROADMAP item 6) removes
    /// those calls, and then this method.
    pub fn take_io(&self) -> Ledger {
        Ledger::new()
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
    /// the id space) and its scan position. This is the invalidation
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
        g.last_page.remove(&table);
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

    const SCAN: Access = Access::Scan;

    fn page_data(n: i64) -> Arc<PageFrame> {
        let mut page = Page::new();
        assert!(page.insert(&vec![Value::Int(n)]));
        Arc::new(PageFrame::new(page))
    }

    fn id(table: u32, page: u32) -> PageId {
        PageId { table, page }
    }

    /// A read whose load cannot fail: `load` runs on a miss.
    fn read(
        pool: &BufferPool,
        id: PageId,
        access: Access,
        load: impl FnOnce() -> Arc<PageFrame>,
    ) -> (Arc<PageFrame>, Ledger) {
        let r: Result<_, std::convert::Infallible> = pool.read(id, access, |_, _, _| Ok(load()));
        match r {
            Ok(r) => r,
            Err(e) => match e {},
        }
    }

    /// What a scan read of page `p` of table `t` charged.
    fn scan(pool: &BufferPool, t: u32, p: u32) -> Ledger {
        read(pool, id(t, p), SCAN, || page_data(p as i64)).1
    }

    #[test]
    fn hit_after_miss() {
        let pool = BufferPool::new(8);
        let (a, _) = read(&pool, id(1, 0), SCAN, || page_data(0));
        let (b, io) = read(&pool, id(1, 0), SCAN, || panic!("should hit"));
        assert!(Arc::ptr_eq(&a, &b));
        assert!(io.is_empty(), "a hit charges nothing");
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
        let first = scan(&pool, 1, 0);
        assert_eq!((first.disk.random_ios, first.disk.sequential_bytes), (1, 0));
        let io: Ledger = [1, 2, 7].iter().map(|&p| scan(&pool, 1, p)).sum();
        // Two streamed pages, then a jump.
        let io = io.disk;
        assert_eq!(io.random_ios, 1);
        assert_eq!(io.sequential_bytes, 2 * PAGE_SIZE as u64);
        assert_eq!(io.random_bytes, PAGE_SIZE as u64);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let pool = BufferPool::new(2);
        read(&pool, id(1, 0), SCAN, || page_data(0));
        read(&pool, id(1, 1), SCAN, || page_data(1));
        read(&pool, id(1, 0), SCAN, || panic!("0 resident")); // touch 0: 1 is now LRU
        read(&pool, id(1, 2), SCAN, || page_data(2)); // evicts 1
        read(&pool, id(1, 0), SCAN, || panic!("0 must survive"));
        let mut evicted_reloaded = false;
        read(&pool, id(1, 1), SCAN, || {
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
            scan(&pool, 1, p);
            assert!(pool.stats().resident <= 4);
        }
    }

    #[test]
    fn flush_forces_cold_reads() {
        let pool = BufferPool::new(8);
        scan(&pool, 1, 0);
        pool.flush();
        let mut reloaded = false;
        let (_, io) = read(&pool, id(1, 0), SCAN, || {
            reloaded = true;
            page_data(0)
        });
        assert!(reloaded);
        // After flush the scan position is also reset ⇒ random charge.
        assert_eq!(io.disk.random_ios, 1);
    }

    #[test]
    fn zero_capacity_always_misses() {
        let pool = BufferPool::new(0);
        for _ in 0..3 {
            let mut loaded = false;
            read(&pool, id(1, 0), SCAN, || {
                loaded = true;
                page_data(0)
            });
            assert!(loaded);
        }
        assert_eq!(pool.stats().misses, 3);
    }

    #[test]
    fn evicting_a_table_forgets_its_scan_position() {
        let pool = BufferPool::new(64);
        scan(&pool, 1, 0);
        scan(&pool, 1, 1);
        scan(&pool, 2, 0);
        pool.evict_table(1);
        // Page 2 follows page 1, but the position was forgotten with
        // the table: the read repositions.
        let io = scan(&pool, 1, 2).disk;
        assert_eq!((io.random_ios, io.sequential_bytes), (1, 0), "{io:?}");
        // Another table's position survives.
        let io = scan(&pool, 2, 1).disk;
        assert_eq!((io.random_ios, io.sequential_bytes), (0, PAGE_SIZE as u64));
    }

    #[test]
    fn a_failed_load_leaves_nothing_cached() {
        let pool = BufferPool::new(8);
        let r: Result<(Arc<PageFrame>, Ledger), &str> =
            pool.read(id(1, 0), SCAN, |_, io, backoff| {
                io.retry_ios += 3;
                io.retry_bytes += 3 * PAGE_SIZE as u64;
                *backoff += 123;
                Err("permanent")
            });
        assert_eq!(r.unwrap_err(), "permanent");
        assert_eq!(pool.stats().resident, 0);
        // The page is still loadable afterwards, and the read that
        // loads it carries none of the failed one's retries.
        let r: Result<_, ()> = pool.read(id(1, 0), SCAN, |_, _, _| Ok(page_data(0)));
        let (_, io) = r.expect("loads");
        assert_eq!((io.disk.retry_ios, io.backoff_ns), (0, 0));
        assert_eq!(io.disk.random_ios, 1);
    }

    #[test]
    fn a_read_returns_its_retries_and_backoff() {
        let pool = BufferPool::new(8);
        let r: Result<_, ()> = pool.read(id(1, 0), SCAN, |_, io, backoff| {
            io.retry_ios += 2;
            io.retry_bytes += 2 * PAGE_SIZE as u64;
            *backoff += 150_000;
            Ok(page_data(0))
        });
        let (_, io) = r.expect("transient read recovers");
        assert_eq!(io.backoff_ns, 150_000);
        let io = io.disk;
        assert_eq!(io.retry_ios, 2);
        assert_eq!(io.retry_bytes, 2 * PAGE_SIZE as u64);
        // Base classification is unchanged: first read is still random.
        assert_eq!(io.random_ios, 1);
    }

    #[test]
    fn fault_plan_is_installed_and_visible_to_loads() {
        let pool = BufferPool::new(8);
        assert!(pool.fault_plan().is_none());
        pool.set_fault_plan(FaultPlan::new(7, 250_000));
        assert_eq!(pool.fault_plan().rate_ppm(), 250_000);
        let r: Result<_, ()> = pool.read(id(1, 0), SCAN, |plan, _, _| {
            assert_eq!(plan.seed(), 7);
            Ok(page_data(0))
        });
        assert!(r.is_ok());
    }

    #[test]
    fn index_probe_charges_v4_and_preserves_scan_streaming() {
        let pool = BufferPool::new(64);
        // A scan cursor is mid-run...
        scan(&pool, 1, 1);
        scan(&pool, 1, 2);
        // ...an index probe lands between its reads...
        let (_, io) = read(&pool, id(1, 9), Access::Index, || page_data(9));
        assert_eq!(
            (io.disk.index_ios, io.disk.index_bytes),
            (1, PAGE_SIZE as u64)
        );
        assert!(io.without_schema(4).is_empty(), "only the v4 classes");
        // ...and the scan keeps streaming as if the probe never happened.
        let io = scan(&pool, 1, 3).disk;
        assert_eq!(io.sequential_bytes, PAGE_SIZE as u64);
        assert_eq!(io.random_ios, 0);
        // A probe hit on a cached page charges nothing.
        let (_, io) = read(&pool, id(1, 9), Access::Index, || panic!("hit"));
        assert!(io.is_empty());
    }

    #[test]
    fn warm_reread_charges_periodically() {
        let pool = BufferPool::new(8);
        pool.set_warm_reread_every(Some(10));
        scan(&pool, 1, 0);
        // The 10th, 20th and 30th hit each charge one random read.
        let charged: Vec<usize> = (1..=30)
            .filter(|_| {
                let (_, io) = read(&pool, id(1, 0), SCAN, || panic!("hit expected"));
                io.disk.random_ios == 1
            })
            .collect();
        assert_eq!(charged, [10, 20, 30]);
    }

    /// A reference model of the pool's charging and bookkeeping: an LRU
    /// list, each table's last scanned page, the extent rule, the v4
    /// index classes and the warm re-read hit counter.
    struct Model {
        capacity: usize,
        reread: Option<u64>,
        /// Resident pages, least recently read first.
        lru: Vec<PageId>,
        last: HashMap<u32, u32>,
        hit_counter: u64,
        stats: PoolStats,
    }

    impl Model {
        fn new(capacity: usize, reread: Option<u64>) -> Self {
            Self {
                capacity,
                reread,
                lru: Vec::new(),
                last: HashMap::new(),
                hit_counter: 0,
                stats: PoolStats::default(),
            }
        }

        /// What reading `id` charges, and whether it misses.
        fn read(&mut self, id: PageId, access: Access) -> (Ledger, bool) {
            let page = PAGE_SIZE as u64;
            let mut io = Ledger::new();
            if let Some(at) = self.lru.iter().position(|&r| r == id) {
                self.lru.remove(at);
                self.lru.push(id);
                self.stats.hits += 1;
                self.hit_counter += 1;
                if self
                    .reread
                    .is_some_and(|every| self.hit_counter.is_multiple_of(every))
                {
                    io.disk.random_ios += 1;
                    io.disk.random_bytes += page;
                }
                return (io, false);
            }
            match access {
                Access::Scan => {
                    let follows = self.last.get(&id.table) == Some(&(id.page.wrapping_sub(1)));
                    if follows && !id.page.is_multiple_of(EXTENT_PAGES) {
                        io.disk.sequential_bytes += page;
                    } else {
                        io.disk.random_ios += 1;
                        io.disk.random_bytes += page;
                    }
                    self.last.insert(id.table, id.page);
                }
                Access::Index => {
                    io.disk.index_ios += 1;
                    io.disk.index_bytes += page;
                }
            }
            self.stats.misses += 1;
            if self.capacity > 0 {
                while self.lru.len() >= self.capacity {
                    self.lru.remove(0);
                    self.stats.evictions += 1;
                }
                self.lru.push(id);
            }
            (io, true)
        }

        fn stats(&self) -> PoolStats {
            PoolStats {
                resident: self.lru.len(),
                ..self.stats
            }
        }
    }

    /// splitmix64: a fixed-seed generator for the model test.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    #[test]
    fn every_read_returns_what_a_reference_model_charges() {
        const TABLES: u32 = 2;
        const PAGES: u32 = 40;
        const OPS: usize = 5_000;
        let value = |id: PageId| i64::from(id.table * 1000 + id.page);
        for capacity in [0, 3, 16, 64] {
            for reread in [None, Some(7)] {
                let pool = BufferPool::new(capacity);
                pool.set_warm_reread_every(reread);
                let mut model = Model::new(capacity, reread);
                let mut rng = Rng(20090104 + capacity as u64);
                let mut total = Ledger::new();
                for step in 0..OPS {
                    let what = format!("capacity {capacity}, re-read {reread:?}, step {step}");
                    let table = rng.below(u64::from(TABLES)) as u32;
                    match rng.below(100) {
                        // Scan and index reads; a scan read follows its
                        // table's last scanned page half the time, so
                        // runs and extent starts occur.
                        0..=93 => {
                            let access = match rng.below(4) {
                                3 => Access::Index,
                                _ => Access::Scan,
                            };
                            let last = match access {
                                Access::Scan => model.last.get(&table).copied(),
                                Access::Index => None,
                            };
                            let page = match last {
                                Some(p) if rng.below(2) == 0 => (p + 1) % PAGES,
                                _ => rng.below(u64::from(PAGES)) as u32,
                            };
                            let id = id(table, page);
                            let mut loaded = false;
                            let (frame, io) = read(&pool, id, access, || {
                                loaded = true;
                                page_data(value(id))
                            });
                            let (want, miss) = model.read(id, access);
                            io.assert_same(&want, &what);
                            total.merge(&io);
                            assert_eq!(loaded, miss, "{what}: loaded");
                            assert_eq!(frame.tuple(0), vec![Value::Int(value(id))], "{what}");
                        }
                        94..=97 => {
                            pool.evict_table(table);
                            model.lru.retain(|id| id.table != table);
                            model.last.remove(&table);
                        }
                        _ => {
                            pool.flush();
                            model.lru.clear();
                            model.last.clear();
                            model.hit_counter = 0;
                        }
                    }
                    assert_eq!(pool.stats(), model.stats(), "{what}: stats");
                }
                // Every rule the model states was exercised.
                let (d, s) = (total.disk, model.stats);
                assert!(d.sequential_bytes > 0 && d.index_ios > 0, "{d:?}");
                assert_eq!(s.hits > 0, capacity > 0, "{s:?}");
                if capacity == 3 || capacity == 16 {
                    assert!(s.evictions > 0, "{s:?}");
                }
                let reads = d.random_ios + d.index_ios + d.sequential_bytes / PAGE_SIZE as u64;
                let rereads = reads > s.misses;
                assert_eq!(rereads, reread.is_some() && capacity > 0, "{d:?}");
            }
        }
    }
}
