//! Property tests for lazily decoded buffer-pool frames.
//!
//! A buffer-pool miss runs the whole verified path — fault-plan lookup,
//! checksum verification, retry and backoff charging, miss
//! classification, LRU stamp — and leaves a frame whose tuples are
//! decoded only when a row reader first asks. Nothing priced may depend
//! on whether or when that decode happens:
//!
//! 1. **Same as eager**: over random interleavings of columnar scans,
//!    index probes, row-path page reads, `flush` and `evict_table`, a
//!    database whose scans run columnar (frames stay undecoded) agrees
//!    with a twin in which every touch is a row read (every frame is
//!    decoded as it is loaded) on `PoolStats`, every `DiskWork` class,
//!    backoff, errors and rows — with small and large pools, warm
//!    re-reads on and off, and fault plans installed.
//! 2. **Verification does not need the decode**: a columnar scan
//!    reports a corrupt page as `IoError::Corrupt`, and charges a
//!    transient fault's retries and backoff to the last unit, without
//!    decoding anything.
//! 3. **Rows are there when asked for**: a row read after a columnar
//!    touch is a pool hit, charges nothing, and returns the page's
//!    tuples.
//! 4. **A probe reads slots, not pages**: an index probe and its
//!    base-row fetches decode no frame, cold or warm, and price and
//!    answer exactly like a twin whose frames were all decoded first.

use std::sync::Arc;

use proptest::prelude::*;

use ecodb::query::context::ExecCtx;
use ecodb::query::error::ExecError;
use ecodb::query::exec::ExecEngine;
use ecodb::query::ops::{IxBound, IxScan, Operator, SeqScan};
use ecodb::simhw::fault::{backoff_ns_for, FaultPlan, PageFault};
use ecodb::simhw::trace::DiskWork;
use ecodb::storage::disk_table::DiskTable;
use ecodb::storage::{
    Access, BufferPool, Catalog, ColumnType, IoError, PageFrame, PageId, Schema, StoredTable,
    TableData, Tuple, Value,
};

const TABLE: &str = "t";
const INDEX: &str = "ix_t_k";

fn schema() -> Schema {
    Schema::new(&[("k", ColumnType::Int), ("pad", ColumnType::Str)])
}

/// `n` rows of 110–310 bytes (some 25–70 to a page), keys ascending
/// with duplicates so a key range maps to a run of neighbouring pages.
fn make_rows(n: usize) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            let mix = (i as u64).wrapping_mul(0x9e37_79b9).rotate_left(13);
            vec![
                Value::Int((i / 3) as i64),
                Value::str("p".repeat(100 + (mix % 200) as usize)),
            ]
        })
        .collect()
}

fn disk(stored: &StoredTable) -> &DiskTable {
    match &stored.data {
        TableData::Disk(d) => d,
        TableData::Memory(_) => panic!("{TABLE} is a disk table"),
    }
}

/// The rows the bulk load put on page `page`.
fn page_rows<'a>(table: &DiskTable, rows: &'a [Tuple], page: usize) -> &'a [Tuple] {
    let (start, end) = table.columnar().page_row_range(page, page + 1);
    &rows[start..end]
}

/// One database: the table, an index on `k`, and the pool settings
/// under test.
fn open(rows: &[Tuple], pool_pages: usize, reread: Option<u64>, plan: FaultPlan) -> Catalog {
    let mut cat = Catalog::new(pool_pages);
    cat.add_disk_table(TABLE, schema(), rows);
    cat.create_index(INDEX, TABLE, "k").expect("disk table");
    cat.pool().set_warm_reread_every(reread);
    cat.pool().set_fault_plan(plan);
    cat
}

/// What one statement left behind: its result and the I/O side of its
/// ledger. (On a failed statement the row-count-driven CPU classes
/// depend on how far the engine had emitted, so only the I/O side is
/// comparable across engines; on success the whole ledger is.)
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<Vec<Tuple>, ExecError>,
    disk: DiskWork,
    backoff_ns: u64,
}

fn run(engine: ExecEngine, plan: &mut dyn Operator) -> (Outcome, ExecCtx) {
    let mut ctx = ExecCtx::new();
    let rows = engine.execute(plan, &mut ctx);
    let result = ctx.take_error().map_or(Ok(rows), Err);
    let outcome = Outcome {
        result,
        disk: ctx.ledger.disk,
        backoff_ns: ctx.ledger.backoff_ns,
    };
    (outcome, ctx)
}

fn ix_range(cat: &Catalog, lo: i64, hi: i64) -> IxScan {
    let entry = cat.index(INDEX).expect("registered");
    IxScan::range(
        cat.expect(TABLE),
        Arc::clone(&entry.index),
        IxBound::Inclusive(Value::Int(lo)),
        IxBound::Inclusive(Value::Int(hi)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lazy_frames_price_and_answer_like_eager_ones(
        n in 300usize..2000,
        pool_pages in prop_oneof![Just(4usize), Just(24), Just(1 << 16)],
        reread in prop_oneof![Just(None), Just(Some(5u64))],
        fault_ppm in prop_oneof![Just(0u32), Just(120_000)],
        fault_seed in 0u64..1_000,
        recoverable in any::<bool>(),
        ops in proptest::collection::vec(any::<u64>(), 4..24),
    ) {
        let rows = make_rows(n);
        let plan = FaultPlan::new(fault_seed, fault_ppm);
        let plan = if recoverable { plan.recoverable() } else { plan };
        // `lazy` scans columnar; in `eager` every touch reads rows, so
        // every frame is decoded as soon as it is loaded.
        let lazy = open(&rows, pool_pages, reread, plan);
        let eager = open(&rows, pool_pages, reread, plan);
        let max_key = (n / 3) as i64;

        for (step, op) in ops.iter().enumerate() {
            let (kind, a, b) = (op % 8, (op >> 8) as usize, (op >> 32) as usize);
            let what = format!("step {step} op {kind}");
            match kind {
                // Full scan: columnar (no decode) vs tuple-at-a-time.
                0..=2 => {
                    let (l, lctx) =
                        run(ExecEngine::Columnar, &mut SeqScan::new(lazy.expect(TABLE)));
                    let (e, ectx) =
                        run(ExecEngine::Scalar, &mut SeqScan::new(eager.expect(TABLE)));
                    prop_assert_eq!(&l, &e, "{}", &what);
                    if let Ok(got) = &l.result {
                        prop_assert_eq!(got, &rows, "{}", &what);
                        ectx.ledger.assert_same(&lctx.ledger, &what);
                    }
                }
                // Index range probe: base-row fetches decode the pages
                // they land on, including ones a scan left undecoded.
                3 | 4 => {
                    let lo = (a as i64) % (max_key + 2) - 1;
                    let hi = lo + (b % 40) as i64;
                    let (l, lctx) = run(ExecEngine::Columnar, &mut ix_range(&lazy, lo, hi));
                    let (e, ectx) = run(ExecEngine::Scalar, &mut ix_range(&eager, lo, hi));
                    prop_assert_eq!(&l, &e, "{}", &what);
                    if let Ok(got) = &l.result {
                        let want: Vec<Tuple> = rows
                            .iter()
                            .filter(|r| (lo..=hi).contains(&r[0].as_int().unwrap()))
                            .cloned()
                            .collect();
                        prop_assert_eq!(got, &want, "{}", &what);
                        ectx.ledger.assert_same(&lctx.ledger, &what);
                    }
                }
                // Row-path page read, straight off the table.
                5 => {
                    let (lt, et) = (lazy.expect(TABLE), eager.expect(TABLE));
                    let page = a % disk(&lt).num_pages();
                    let l = disk(&lt).read_page_checked(page);
                    let e = disk(&et).read_page_checked(page);
                    match (&l, &e) {
                        (Ok((lf, lio)), Ok((ef, eio))) => {
                            lio.assert_same(eio, &what);
                            prop_assert_eq!(lf.tuples(), ef.tuples(), "{}", &what);
                            prop_assert_eq!(lf.tuples(), page_rows(disk(&lt), &rows, page));
                        }
                        (Err(le), Err(ee)) => prop_assert_eq!(le, ee, "{}", &what),
                        _ => prop_assert!(false, "{}: one side failed", &what),
                    }
                }
                6 => {
                    lazy.pool().flush();
                    eager.pool().flush();
                }
                _ => {
                    // The table's pages, or the index's.
                    let id = |cat: &Catalog| match a % 2 {
                        0 => disk(&cat.expect(TABLE)).table_id(),
                        _ => cat.index(INDEX).expect("registered").index.index_id(),
                    };
                    lazy.pool().evict_table(id(&lazy));
                    eager.pool().evict_table(id(&eager));
                }
            }
            prop_assert_eq!(lazy.pool().stats(), eager.pool().stats(), "{}", &what);
        }
    }
}

/// A table loaded straight into `pool` (the catalog hands tables out
/// shared, and corrupting a page needs it mutable).
fn bare_table(rows: &[Tuple], pool: &Arc<BufferPool>) -> DiskTable {
    DiskTable::load(1, schema(), rows, Arc::clone(pool))
}

fn stored(table: DiskTable) -> Arc<StoredTable> {
    Arc::new(StoredTable {
        name: TABLE.to_string(),
        data: TableData::Disk(table),
    })
}

#[test]
fn a_columnar_scan_reports_a_corrupt_page_it_never_decodes() {
    let rows = make_rows(1500);
    let pool = Arc::new(BufferPool::new(1 << 16));
    let mut table = bare_table(&rows, &pool);
    assert!(table.num_pages() > 8);
    table.corrupt_page(5, 100);
    let (outcome, _) = run(ExecEngine::Columnar, &mut SeqScan::new(stored(table)));
    assert_eq!(
        outcome.result,
        Err(ExecError::Io(IoError::Corrupt { table: 1, page: 5 }))
    );
    // The pages before it were verified and cached; the corrupt one
    // was not.
    let stats = pool.stats();
    assert_eq!((stats.misses, stats.resident), (6, 5));
}

#[test]
fn faults_charge_the_same_retries_and_backoff_on_the_no_decode_path() {
    let rows = make_rows(1500);
    let pool = Arc::new(BufferPool::new(1 << 16));
    let table = bare_table(&rows, &pool);
    let pages = table.num_pages() as u64;
    // Saturated: every page faults. Recoverable first — the scan
    // completes and pays for every failed attempt.
    let plan = FaultPlan::new(7, 1_000_000).recoverable();
    pool.set_fault_plan(plan);
    let (mut retries, mut backoff) = (0u64, 0u64);
    for (_, fault) in plan.faults_in_table(1, pages) {
        match fault {
            PageFault::Transient { failures } => {
                retries += u64::from(failures);
                backoff += backoff_ns_for(failures);
            }
            PageFault::Stall { ns } => backoff += ns,
            PageFault::Permanent => unreachable!("recoverable plan"),
        }
    }
    assert!(retries > 0 && backoff > 0);
    let table = stored(table);
    let (outcome, _) = run(ExecEngine::Columnar, &mut SeqScan::new(Arc::clone(&table)));
    assert_eq!(outcome.result.as_ref(), Ok(&rows));
    assert_eq!(outcome.disk.retry_ios, retries);
    assert_eq!(outcome.backoff_ns, backoff);
    // Warm: nothing misses, so nothing faults.
    let (warm, _) = run(ExecEngine::Columnar, &mut SeqScan::new(Arc::clone(&table)));
    assert_eq!((warm.disk.retry_ios, warm.backoff_ns), (0, 0));

    // With permanent faults left in, the scan fails on the first one.
    let plan = FaultPlan::new(7, 1_000_000);
    let first = plan
        .faults_in_table(1, pages)
        .into_iter()
        .find(|(_, f)| *f == PageFault::Permanent)
        .expect("a saturated plan has a permanent fault");
    pool.set_fault_plan(plan);
    pool.flush();
    let (outcome, _) = run(ExecEngine::Columnar, &mut SeqScan::new(table));
    assert_eq!(
        outcome.result,
        Err(ExecError::Io(IoError::Permanent {
            table: 1,
            page: first.0 as u32
        }))
    );
}

#[test]
fn a_row_read_after_a_columnar_touch_is_a_hit_with_the_right_tuples() {
    let rows = make_rows(1500);
    let cat = open(&rows, 1 << 16, None, FaultPlan::none());
    let table = cat.expect(TABLE);
    let (outcome, _) = run(ExecEngine::Columnar, &mut SeqScan::new(Arc::clone(&table)));
    assert_eq!(outcome.result.as_ref(), Ok(&rows));
    let before = cat.pool().stats();
    let pages = disk(&table).num_pages();
    for page in 0..pages {
        let (frame, io) = disk(&table).read_page_checked(page).expect("resident");
        assert!(io.is_empty(), "hits charge nothing");
        assert_eq!(frame.len(), page_rows(disk(&table), &rows, page).len());
        assert_eq!(frame.tuples(), page_rows(disk(&table), &rows, page));
    }
    let after = cat.pool().stats();
    assert_eq!(after.misses, before.misses);
    assert_eq!(after.hits, before.hits + pages as u64);
    // An index probe's base-row fetch finds them the same way.
    let (probe, _) = run(ExecEngine::Columnar, &mut ix_range(&cat, 10, 12));
    assert_eq!(probe.result.map(|r| r.len()), Ok(9));
}

/// Every frame of the table and of the index that is resident in the
/// pool, without loading any.
fn resident_frames(cat: &Catalog) -> Vec<Arc<PageFrame>> {
    let table = cat.expect(TABLE);
    let index = &cat.index(INDEX).expect("registered").index;
    let ids = [
        (disk(&table).table_id(), disk(&table).num_pages()),
        (index.index_id(), index.num_pages()),
    ];
    let mut frames = Vec::new();
    for (table, pages) in ids {
        for page in 0..pages as u32 {
            let hit: Result<_, ()> =
                cat.pool()
                    .read(PageId { table, page }, Access::Index, |_, _, _| Err(()));
            frames.extend(hit.map(|(frame, _)| frame));
        }
    }
    frames
}

#[test]
fn an_index_probe_and_its_row_fetches_decode_no_page() {
    let rows = make_rows(1500);
    let lazy = open(&rows, 1 << 16, None, FaultPlan::none());
    let twin = open(&rows, 1 << 16, None, FaultPlan::none());
    let want: Vec<Tuple> = rows
        .iter()
        .filter(|r| (100..=130).contains(&r[0].as_int().unwrap()))
        .cloned()
        .collect();
    // A point read (key 250) and a range spanning several table pages:
    // each one's result, I/O and CPU ledger (node searches included).
    let probes = |cat: &Catalog| {
        [(250, 250), (100, 130)].map(|(lo, hi)| {
            let (outcome, ctx) = run(ExecEngine::Columnar, &mut ix_range(cat, lo, hi));
            (outcome, ctx.ledger.cpu)
        })
    };

    // Cold, after a flush: every node of the descent and every base
    // page is a miss, verified and read a slot at a time.
    lazy.pool().flush();
    twin.pool().flush();
    let cold = probes(&lazy);
    assert_eq!(cold, probes(&twin));
    let [(point, _), (range, _)] = &cold;
    assert_eq!(point.result.as_ref().map(Vec::len), Ok(3));
    assert_eq!(range.result.as_ref(), Ok(&want));
    assert!(point.disk.index_ios >= 3 && range.disk.index_ios >= 3);
    let touched = resident_frames(&lazy);
    assert!(touched.len() >= 5, "root, leaves and base pages");
    assert!(touched.iter().all(|f| !f.is_decoded()));

    // Warm: the twin's frames are decoded first; rows, CPU ledger and
    // every disk class still agree, with each other and with the cold
    // run less its I/O.
    for frame in resident_frames(&twin) {
        assert_eq!(frame.tuples().len(), frame.len());
    }
    let warm = probes(&lazy);
    assert_eq!(warm, probes(&twin));
    for ((w, w_cpu), (c, c_cpu)) in warm.iter().zip(&cold) {
        assert_eq!((&w.result, w_cpu), (&c.result, c_cpu));
        assert_eq!(w.disk, DiskWork::none());
    }
    assert_eq!(lazy.pool().stats(), twin.pool().stats());
    assert!(resident_frames(&lazy).iter().all(|f| !f.is_decoded()));
    assert!(resident_frames(&twin).iter().all(|f| f.is_decoded()));
}
