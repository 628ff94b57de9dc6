//! The identity harness shared by the test binaries (each includes it
//! with `mod support;`): one [`check`] that holds a plan to the scalar
//! oracle on every listed [`Axes`] value, the TPC-H plans it is most
//! often asked about, one fixture cache per binary and one [`Rng`].
//!
//! Every figure of the reproduction is priced from the ledger, so the
//! invariant `check` enforces — identical rows, `pred_evals`, recorded
//! error and whole ledger for every engine, chunk size, worker count,
//! morsel size and storage engine, cold and warm — is what keeps them
//! honest. A failure names the drifted charge classes
//! (`Ledger::assert_same`) and every axis value of the failing run.

// Each binary uses its own part of the harness.
#![allow(dead_code)]

use std::sync::{Mutex, OnceLock};

use ecodb::core::server::{EcoDb, EngineProfile};
use ecodb::query::chunk::Chunk;
use ecodb::query::context::ExecCtx;
use ecodb::query::exec::ExecEngine;
use ecodb::query::ops::{BoxedOp, Operator};
use ecodb::query::plans;
use ecodb::simhw::trace::PricingMode;
use ecodb::simhw::{DiskWork, OpClass};
use ecodb::storage::bufferpool::EXTENT_PAGES;
use ecodb::storage::disk_table::DiskTable;
use ecodb::storage::{load_tpch, Catalog, EngineKind, Schema, StoredTable, TableData, Tuple};
use ecodb::tpch::{Date, Q5Params, QedQuery, TpchDb, TpchGenerator};

/// splitmix64: a case's own generator, seeded from one drawn `u64`.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish in `0..n` (`0` when `n` is 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// [`Self::below`] for indices.
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    pub fn pick<T: Copy>(&mut self, of: &[T]) -> T {
        of[self.index(of.len())]
    }
}

/// The value `cache` holds for `key`, built by `build` on first use and
/// kept for the life of the test binary. Only the lookup is locked, so
/// fixtures of different keys build concurrently, each once.
fn cached<K: PartialEq, V: Send + Sync>(
    cache: &'static Mutex<Vec<(K, &'static OnceLock<V>)>>,
    key: K,
    build: impl FnOnce() -> V,
) -> &'static V {
    let cell = {
        let mut cells = cache.lock().expect("no fixture lookup panics");
        match cells.iter().find(|(k, _)| *k == key) {
            Some((_, cell)) => *cell,
            None => {
                let cell: &'static OnceLock<V> = Box::leak(Box::default());
                cells.push((key, cell));
                cell
            }
        }
    };
    cell.get_or_init(build)
}

/// The generated TPC-H rows at `scale` (default seed).
pub fn source(scale: f64) -> &'static TpchDb {
    static CACHE: Mutex<Vec<(f64, &OnceLock<TpchDb>)>> = Mutex::new(Vec::new());
    cached(&CACHE, scale, || TpchGenerator::new(scale).generate())
}

/// The TPC-H database of `profile` at `scale` (default seed) under
/// `pricing` and `engine`. Shared by every test of the binary: a test
/// that changes its pool state (`flush_cache`, `warm_up`) must be its
/// only user.
pub fn db(
    profile: EngineProfile,
    scale: f64,
    pricing: PricingMode,
    engine: ExecEngine,
) -> &'static EcoDb {
    type Key = (EngineProfile, f64, PricingMode, ExecEngine);
    static CACHE: Mutex<Vec<(Key, &OnceLock<EcoDb>)>> = Mutex::new(Vec::new());
    cached(&CACHE, (profile, scale, pricing, engine), || {
        EcoDb::tpch(profile, scale)
            .with_pricing(pricing)
            .with_engine(engine)
    })
}

/// The memory-profile database at `scale` as `EcoDb` ships it.
pub fn memory_db(scale: f64) -> &'static EcoDb {
    db(
        EngineProfile::MemoryEngine,
        scale,
        PricingMode::Raw,
        ExecEngine::Columnar,
    )
}

/// TPC-H at `scale` on the disk engine, freshly loaded with a pool that
/// holds it all: a cold run reads every page it touches once, a warm
/// run reads none.
pub fn disk_catalog(scale: f64) -> Catalog {
    load_tpch(source(scale), EngineKind::Disk, 1 << 20)
}

/// The paged table `stored` holds.
pub fn disk(stored: &StoredTable) -> &DiskTable {
    match &stored.data {
        TableData::Disk(d) => d,
        TableData::Memory(_) => panic!("not a disk table"),
    }
}

/// The first and last row of every page, or of every extent
/// (`extents`).
pub fn edge_rows(table: &DiskTable, extents: bool) -> Vec<usize> {
    let extent = EXTENT_PAGES as usize;
    let opens = |r: usize| {
        let (page, slot) = table.row_location(r);
        slot == 0 && (!extents || page % extent == 0)
    };
    let mut rows = Vec::new();
    for r in (0..table.len()).filter(|&r| opens(r)) {
        rows.extend(r.checked_sub(1));
        rows.push(r);
    }
    rows.extend(table.len().checked_sub(1));
    rows
}

/// Emits prebuilt chunks (validity masks, selection vectors) — inputs
/// no row source can produce. Columnar only.
pub struct ChunkSource {
    schema: Schema,
    chunks: Vec<Chunk>,
    at: usize,
}

impl ChunkSource {
    pub fn new(schema: Schema, chunks: Vec<Chunk>) -> Self {
        Self {
            schema,
            chunks,
            at: 0,
        }
    }
}

impl Operator for ChunkSource {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self, _ctx: &mut ExecCtx) {
        self.at = 0;
    }

    fn next(&mut self, _ctx: &mut ExecCtx) -> Option<Tuple> {
        unreachable!("ChunkSource is driven through next_chunk only")
    }

    fn next_chunk(&mut self, _ctx: &mut ExecCtx) -> Option<Chunk> {
        let chunk = self.chunks.get(self.at).cloned();
        self.at += 1;
        chunk
    }
}

/// Where a plan's tables come from: one axis of [`check`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Storage {
    /// TPC-H at this scale on the memory engine. A run changes nothing
    /// in a memory catalog, so every run shares [`memory_db`]'s.
    Memory(f64),
    /// TPC-H at this scale on the disk engine: every run gets its own
    /// [`disk_catalog`].
    Disk(f64),
    /// TPC-H at this scale on the disk engine behind a pool of this
    /// many pages, smaller than the tables: every run gets its own
    /// catalog, and a warm run reads the pages the pool evicted.
    DiskPool(f64, usize),
    /// The plan brings its own input; it gets an empty catalog.
    Own,
}

/// Run `f` over a catalog for one run under `storage`.
pub fn with_catalog<T>(storage: Storage, f: impl FnOnce(&Catalog) -> T) -> T {
    match storage {
        Storage::Memory(scale) => f(memory_db(scale).catalog()),
        Storage::Disk(scale) => f(&disk_catalog(scale)),
        Storage::DiskPool(scale, pages) => f(&load_tpch(source(scale), EngineKind::Disk, pages)),
        Storage::Own => f(&Catalog::new(0)),
    }
}

/// A plan builder over a catalog.
pub type PlanFn = fn(&Catalog) -> BoxedOp;

pub const Q1: PlanFn = |cat| plans::q1_plan(cat, 90);
pub const Q3: PlanFn = |cat| plans::q3_plan(cat, "BUILDING", Date::from_ymd(1995, 3, 15));
pub const Q5: PlanFn = |cat| plans::q5_plan(cat, &Q5Params::new("ASIA", 1994));
pub const Q6: PlanFn = |cat| plans::q6_plan(cat, 1994, 6, 24);
pub const SELECTION: PlanFn = |cat| plans::selection_plan(cat, &QedQuery { quantity: 17 });

/// The hand-built TPC-H plans the identity checks run.
pub const TPCH_PLANS: [(&str, PlanFn); 5] = [
    ("Q1", Q1),
    ("Q3", Q3),
    ("Q5", Q5),
    ("Q6", Q6),
    ("selection", SELECTION),
];

/// The axes [`check`] runs a plan on. Each (storage, pass) has one
/// scalar oracle run; every combination of engine, chunk size (the
/// columnar engine's only), workers and morsel rows runs against it.
#[derive(Debug, Clone)]
pub struct Axes {
    pub storage: Vec<Storage>,
    /// Runs of the plan on one catalog: 1 is cold, 2 is cold then warm.
    pub passes: usize,
    /// MySQL-style short-circuit `OR` (`ExecCtx::new`) or exhaustive
    /// (`ExecCtx::exhaustive`), for the oracle and the runs alike.
    pub short_circuit_or: bool,
    /// The engines under test.
    pub engines: Vec<ExecEngine>,
    pub chunks: Vec<usize>,
    pub workers: Vec<usize>,
    pub morsel_rows: Vec<usize>,
}

/// A plan that brings its own input, run once by the columnar engine
/// on one worker at the context's default chunk and morsel sizes.
impl Default for Axes {
    fn default() -> Self {
        let ctx = ExecCtx::new();
        Self {
            storage: vec![Storage::Own],
            passes: 1,
            short_circuit_or: true,
            engines: vec![ExecEngine::Columnar],
            chunks: vec![ctx.batch_size],
            workers: vec![1],
            morsel_rows: vec![ctx.morsel_rows],
        }
    }
}

impl Axes {
    /// TPC-H at `scale` on both storage engines, cold then warm.
    pub fn tpch(scale: f64) -> Self {
        Self {
            storage: vec![Storage::Memory(scale), Storage::Disk(scale)],
            passes: 2,
            ..Self::default()
        }
    }

    fn ctx(&self) -> ExecCtx {
        match self.short_circuit_or {
            true => ExecCtx::new(),
            false => ExecCtx::exhaustive(),
        }
    }
}

/// One run's result rows and context.
pub type Run = (Vec<Tuple>, ExecCtx);

/// Hold `plan` to the scalar oracle on every axis value: rows,
/// `pred_evals`, recorded error and the whole ledger must be identical,
/// pass for pass. The oracle must have done work: fetched tuples from
/// TPC-H storage, and on the disk engine read pages cold and none warm.
/// Returns the oracle's runs, in (storage, pass) order.
pub fn check(name: &str, plan: &dyn Fn(&Catalog) -> BoxedOp, axes: &Axes) -> Vec<Run> {
    let passes = |storage, engine: ExecEngine, ctx: &dyn Fn() -> ExecCtx| -> Vec<Run> {
        with_catalog(storage, |cat| {
            (0..axes.passes)
                .map(|_| {
                    let mut ctx = ctx();
                    (engine.execute(plan(cat).as_mut(), &mut ctx), ctx)
                })
                .collect()
        })
    };
    let mut oracles = Vec::new();
    for &storage in &axes.storage {
        let oracle = passes(storage, ExecEngine::Scalar, &|| axes.ctx());
        assert_exercised(name, storage, &oracle);
        for &engine in &axes.engines {
            let default_chunk = [axes.ctx().batch_size];
            let chunks = match engine {
                ExecEngine::Scalar => &default_chunk[..],
                ExecEngine::Columnar => &axes.chunks,
            };
            for &chunk in chunks {
                for &workers in &axes.workers {
                    for &morsel_rows in &axes.morsel_rows {
                        let runs = passes(storage, engine, &|| {
                            (axes.ctx())
                                .with_batch_size(chunk)
                                .with_workers(workers)
                                .with_morsel_rows(morsel_rows)
                        });
                        for (pass, ((rows, got), (want_rows, want))) in
                            runs.iter().zip(&oracle).enumerate()
                        {
                            let what = format!(
                                "{name}: storage={storage:?} pass={} short_circuit_or={} \
                                 engine={} chunk={chunk} workers={workers} morsel_rows={morsel_rows}",
                                ["cold", "warm"][pass],
                                axes.short_circuit_or,
                                engine.name(),
                            );
                            assert_eq!(rows, want_rows, "{what}: rows differ");
                            want.ledger.assert_same(&got.ledger, &what);
                            assert_eq!(got.pred_evals, want.pred_evals, "{what}: pred_evals");
                            assert_eq!(got.error(), want.error(), "{what}: recorded error");
                        }
                    }
                }
            }
        }
        oracles.extend(oracle);
    }
    oracles
}

/// The oracle's runs exercised the ledger the comparison is about.
fn assert_exercised(name: &str, storage: Storage, oracle: &[Run]) {
    if storage == Storage::Own {
        return;
    }
    let (_, cold) = &oracle[0];
    let fetched = cold.ledger.cpu.count(OpClass::TupleFetch);
    assert!(
        fetched > 0,
        "{name}: {storage:?}: the oracle fetched nothing"
    );
    if let Storage::Disk(_) | Storage::DiskPool(..) = storage {
        assert!(
            cold.ledger.disk.total_bytes() > 0,
            "{name}: {storage:?}: the cold oracle run read no page"
        );
        // A pool that holds the tables serves a warm run from memory;
        // a smaller one has evicted pages the warm run reads again.
        let holds = matches!(storage, Storage::Disk(_));
        for (_, warm) in &oracle[1..] {
            assert_eq!(
                warm.ledger.disk == DiskWork::none(),
                holds,
                "{name}: {storage:?}: warm oracle reads {:?}",
                warm.ledger.disk
            );
        }
    }
}
