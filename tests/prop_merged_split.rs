//! Differential property test for the merged QED scan's production
//! path — key routing plus the fused split
//! (`MultiFilter::run_split` / `MergedSelection::run_split`, reached
//! through `EcoDb::try_trace_merged_selection{,_cores}`) — against the
//! row-engine oracle: predicate-by-predicate evaluation, tagged rows,
//! `split_results`.
//!
//! * `fused_traces_equal_the_row_engine` drives both through `EcoDb`:
//!   batches of 1–50 quantities with and without duplicates (duplicates
//!   make the batch non-disjoint: rows fan out), short-circuit on and
//!   off, 1/2/4 workers, memory and disk profiles, raw and compressed
//!   pricing. Per-query rows and whole traces — the server ledger split
//!   into per-core phases, the gap priced from it, and the client's
//!   split phase — must be equal, on the serial and the per-core arm.
//!   The fused path's result sets are views (`RowSet`): they are read
//!   the way clients read them — counted before anything is decoded,
//!   then decoded through `tuples()`, on one arm from a clone.
//! * `routing_equals_the_scalar_oracle` aims at the routing table over
//!   a `VecSource`: keys absent from the data, negative keys,
//!   `i64::MIN`/`MAX` (the binary-searched table) and narrow key sets
//!   (the dense one), duplicate keys with and without a (wrong)
//!   disjointness promise, empty input, input arriving under a
//!   selection vector, rows of varying width.
//! * NULL keys never occur on the row engines, so that case is pinned
//!   by hand: a NULL matches nothing and is still charged *k*.
//!
//! Seeds are pinned: the vendored `proptest` derives each test's
//! generator from the test's name.

use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use ecodb::core::server::{EcoDb, EngineProfile};
use ecodb::query::chunk::Chunk;
use ecodb::query::context::ExecCtx;
use ecodb::query::exec::{execute_columnar, execute_parallel, execute_scalar, ExecEngine};
use ecodb::query::expr::{CmpOp, Expr};
use ecodb::query::mqo::{split_results, MultiFilter};
use ecodb::query::ops::{BoxedOp, Filter, Operator, VecSource};
use ecodb::simhw::trace::{OpClass, Phase, PhaseKind, PricingMode};
use ecodb::storage::{
    tuple_width, ColumnChunk, ColumnData, ColumnType, DataChunk, RowSet, Schema, Tuple, Value,
};
use ecodb::tpch::QedQuery;

/// splitmix64: the case's own generator, seeded from one drawn `u64`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn pick<T: Copy>(&mut self, of: &[T]) -> T {
        of[self.below(of.len() as u64) as usize]
    }
}

const ENGINES: [ExecEngine; 2] = [ExecEngine::Scalar, ExecEngine::Columnar];
const PRICINGS: [PricingMode; 2] = [PricingMode::Raw, PricingMode::Compressed];
const PROFILES: [EngineProfile; 2] = [EngineProfile::MemoryEngine, EngineProfile::CommercialDisk];

/// One database per (profile, pricing, engine): the scalar-engine one
/// is the oracle (`run_split` falls back to tagged rows +
/// `split_results` there), the columnar one runs the fused path.
fn db(disk: bool, compressed: bool, engine: ExecEngine) -> &'static EcoDb {
    static DBS: OnceLock<Vec<EcoDb>> = OnceLock::new();
    let dbs = DBS.get_or_init(|| {
        let mut dbs = Vec::new();
        for profile in PROFILES {
            for pricing in PRICINGS {
                for engine in ENGINES {
                    dbs.push(
                        EcoDb::tpch(profile, 0.002)
                            .with_engine(engine)
                            .with_pricing(pricing),
                    );
                }
            }
        }
        dbs
    });
    let at = ENGINES.iter().position(|e| *e == engine).expect("listed");
    &dbs[(usize::from(disk) * 2 + usize::from(compressed)) * 2 + at]
}

/// 1–50 quantities, mostly inside TPC-H's 1..=50 (a few are absent
/// from the data); with `dups` at least one quantity repeats.
fn batch(rng: &mut Rng, dups: bool) -> Vec<QedQuery> {
    let n = 1 + rng.below(50) as usize;
    let mut pool: Vec<i64> = (-2..=53).collect();
    let mut quantities: Vec<i64> = (0..n)
        .map(|_| pool.swap_remove(rng.below(pool.len() as u64) as usize))
        .collect();
    if dups {
        for _ in 0..=rng.below(n as u64) {
            let from = quantities[rng.below(n as u64) as usize];
            quantities.push(from);
        }
        // Keep duplicates apart and the batch within 50.
        let len = quantities.len();
        quantities.swap(0, len - 1);
        quantities.truncate(50);
    }
    quantities
        .into_iter()
        .map(|quantity| QedQuery { quantity })
        .collect()
}

/// Values the routing cases draw rows and keys from. The narrow set
/// stays within the dense table's span; the wide one forces the
/// binary-searched table and the wrap-around corners of `key − min`.
const NARROW: [i64; 8] = [-3, -1, 0, 1, 2, 5, 40, 4092];
const WIDE: [i64; 10] = [
    i64::MIN,
    i64::MIN + 1,
    -4097,
    -1,
    0,
    3,
    4096,
    1 << 40,
    i64::MAX - 1,
    i64::MAX,
];

fn routing_schema() -> Schema {
    Schema::new(&[
        ("pad", ColumnType::Str),
        ("key", ColumnType::Int),
        ("ord", ColumnType::Int),
    ])
}

/// A `MultiFilter` on column 1 of `rows`, optionally under a filter
/// (`ord < cut`) so that its input arrives with a selection vector.
fn routing_plan(rows: &[Tuple], cut: Option<i64>, keys: &[i64], disjoint: bool) -> MultiFilter {
    let mut child: BoxedOp = Box::new(VecSource::new(routing_schema(), rows.to_vec()));
    if let Some(cut) = cut {
        child = Box::new(Filter::new(
            child,
            Expr::cmp(CmpOp::Lt, Expr::col(2), Expr::int(cut)),
        ));
    }
    MultiFilter::new(child, 1, keys, disjoint)
}

/// The fused path's views against the oracle's rows: every count is
/// right before anything is decoded, then every query's tuples are —
/// with `via_clone`, read from a clone taken before the first decode,
/// which must end up sharing the original's rows.
fn check_views<O: Deref<Target = [Tuple]>>(
    fused: &[RowSet],
    oracle: &[O],
    via_clone: bool,
) -> Result<(), String> {
    if fused.len() != oracle.len() {
        return Err(format!(
            "{} result sets, expected {}",
            fused.len(),
            oracle.len()
        ));
    }
    for (q, (f, o)) in fused.iter().zip(oracle).enumerate() {
        if f.is_decoded() || f.len() != o.len() || f.is_empty() != o.is_empty() {
            return Err(format!(
                "query {q}: {} rows (decoded: {}), expected {}",
                f.len(),
                f.is_decoded(),
                o.len()
            ));
        }
    }
    let readers: Vec<RowSet> = if via_clone {
        fused.to_vec()
    } else {
        Vec::new()
    };
    for (q, (f, o)) in fused.iter().zip(oracle).enumerate() {
        let read = readers.get(q).unwrap_or(f);
        if read.tuples() != &**o {
            return Err(format!("query {q}: rows differ"));
        }
        if !f.is_decoded() || read.as_ptr() != f.as_ptr() {
            return Err(format!("query {q}: the clone decoded rows of its own"));
        }
    }
    Ok(())
}

fn server_phase(ctx: &mut ExecCtx) -> Phase {
    ctx.take_phase(PhaseKind::Execute, "t")
}

fn client_phase(ctx: &mut ExecCtx) -> Phase {
    ctx.take_phase(PhaseKind::ClientCompute, "split")
}

/// Emits prebuilt chunks (validity masks, selection vectors) — inputs
/// no row source can produce. Columnar only.
struct ChunkSource {
    schema: Schema,
    chunks: Vec<Chunk>,
    at: usize,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(36))]

    #[test]
    fn fused_traces_equal_the_row_engine(
        seed in any::<u64>(),
        disk in any::<bool>(),
        compressed in any::<bool>(),
        short_circuit in any::<bool>(),
        dups in any::<bool>(),
        workers in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let mut rng = Rng(seed);
        let queries = batch(&mut rng, dups);
        let oracle = db(disk, compressed, ExecEngine::Scalar);
        let fused = db(disk, compressed, ExecEngine::Columnar);

        // Every run starts cold, so both sides see the same pool.
        oracle.flush_cache();
        fused.flush_cache();
        let (rows_o, trace_o) = oracle
            .try_trace_merged_selection(&queries, short_circuit)
            .expect("oracle, serial");
        let (rows_f, trace_f) = fused
            .try_trace_merged_selection(&queries, short_circuit)
            .expect("fused, serial");
        prop_assert_eq!(check_views(&rows_f, &rows_o, true), Ok(()), "serial rows");
        prop_assert_eq!(trace_f, trace_o, "serial trace");

        oracle.flush_cache();
        fused.flush_cache();
        let (rows_o, cores_o) = oracle
            .try_trace_merged_selection_cores(&queries, short_circuit, workers)
            .expect("oracle, per core");
        let (rows_f, cores_f) = fused
            .try_trace_merged_selection_cores(&queries, short_circuit, workers)
            .expect("fused, per core");
        prop_assert_eq!(check_views(&rows_f, &rows_o, false), Ok(()), "per-core rows");
        prop_assert_eq!(cores_f, cores_o, "per-core traces");

        // The oracle is itself anchored: every query gets exactly the
        // rows holding its quantity, in table order.
        let source = &fused.source().lineitem;
        for (q, rows) in queries.iter().zip(&rows_f) {
            let expected = source.iter().filter(|l| l.l_quantity == q.quantity).count();
            prop_assert_eq!(rows.len(), expected, "quantity {}", q.quantity);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(28))]

    #[test]
    fn routing_equals_the_scalar_oracle(
        seed in any::<u64>(),
        wide in any::<bool>(),
        short_circuit in any::<bool>(),
        dups in any::<bool>(),
        promise_disjoint in any::<bool>(),
        under_selection in any::<bool>(),
        workers in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let mut rng = Rng(seed);
        let universe: &[i64] = if wide { &WIDE } else { &NARROW };
        let n_rows = if rng.below(8) == 0 { 0 } else { rng.below(200) as usize };
        let rows: Vec<Tuple> = (0..n_rows)
            .map(|i| {
                vec![
                    Value::str("x".repeat(rng.below(9) as usize)),
                    Value::Int(rng.pick(universe)),
                    Value::Int(i as i64 % 10),
                ]
            })
            .collect();
        // Keys: a subset of the universe (so some values in the data
        // have no query) plus values the data never holds.
        let mut pool: Vec<i64> = universe.to_vec();
        pool.extend([7, -9, 1000]);
        let n_keys = 1 + rng.below(8) as usize;
        let mut keys: Vec<i64> = (0..n_keys)
            .map(|_| pool.swap_remove(rng.below(pool.len() as u64) as usize))
            .collect();
        if dups {
            for _ in 0..=rng.below(3) {
                let at = rng.below(keys.len() as u64 + 1) as usize;
                let from = keys[rng.below(keys.len() as u64) as usize];
                keys.insert(at, from);
            }
        }
        // A duplicate-keyed batch that still promises disjointness gets
        // the oracle's answer: the first equal-keyed query wins.
        let disjoint = !dups || promise_disjoint;
        let cut = under_selection.then(|| rng.below(11) as i64);
        let k = keys.len();
        let what = format!("keys {keys:?} disjoint={disjoint} cut={cut:?} rows={n_rows}");

        // Oracle: scalar tagged rows, then the application-side split.
        let mut octx = ExecCtx::new();
        octx.short_circuit_or = short_circuit;
        let tagged = execute_scalar(&mut routing_plan(&rows, cut, &keys, disjoint), &mut octx);
        let mut oclient = ExecCtx::new();
        let expected = split_results(tagged.clone(), k, &mut oclient);

        // Generic columnar driver: same tagged rows, same ledger.
        let mut gctx = ExecCtx::new().with_batch_size(rng.pick(&[1, 7, 1024]));
        gctx.short_circuit_or = short_circuit;
        let tagged_c = execute_columnar(&mut routing_plan(&rows, cut, &keys, disjoint), &mut gctx);
        prop_assert_eq!(tagged_c, tagged, "{}: tagged rows", what);
        prop_assert_eq!(gctx.pred_evals, octx.pred_evals, "{}: pred_evals", what);
        prop_assert_eq!(server_phase(&mut gctx), server_phase(&mut octx.clone()), "{}", what);

        // Fused path, morsel-parallel.
        let morsel_rows = rng.pick(&[16, 64, 4096]);
        let mut ctx = ExecCtx::new()
            .with_columnar(true)
            .with_workers(workers)
            .with_morsel_rows(morsel_rows)
            .with_batch_size(rng.pick(&[1, 7, 1024]));
        ctx.short_circuit_or = short_circuit;
        let mut client = ExecCtx::new();
        let split = routing_plan(&rows, cut, &keys, disjoint).run_split(&mut ctx, &mut client);
        prop_assert_eq!(check_views(&split, &expected, workers == 2), Ok(()), "{}", what);
        prop_assert_eq!(ctx.pred_evals, octx.pred_evals, "{}: pred_evals", what);
        prop_assert_eq!(client_phase(&mut client), client_phase(&mut oclient), "{}", what);
        prop_assert_eq!(server_phase(&mut ctx.clone()), server_phase(&mut octx), "{}", what);

        // Per-core attribution: the tagged-row parallel driver on the
        // row engine is the oracle.
        let mut pctx = ExecCtx::new().with_morsel_rows(morsel_rows);
        pctx.short_circuit_or = short_circuit;
        execute_parallel(&mut routing_plan(&rows, cut, &keys, disjoint), &mut pctx, workers);
        prop_assert_eq!(
            ctx.take_core_phases(workers, "t"),
            pctx.take_core_phases(workers, "t"),
            "{}: per-core phases", what
        );
    }
}

/// NULL keys (a validity mask on the key column) under a selection
/// vector: a NULL matches no query and still costs all *k* evaluations;
/// rows outside the selection cost nothing.
#[test]
fn null_keys_match_nothing_and_cost_k() {
    let schema = Schema::new(&[("key", ColumnType::Int), ("pad", ColumnType::Str)]);
    let pads = ["a", "bb", "ccc", "dddd", "eeeee", "ffffff"];
    let data = Arc::new(DataChunk::new(vec![
        ColumnChunk::with_validity(
            ColumnData::Int(vec![5, 5, 9, 7, 5, 9]),
            vec![true, false, true, true, true, true],
        ),
        ColumnChunk::new(ColumnData::Str(
            pads.iter().map(|&p| Arc::from(p)).collect(),
        )),
    ]));
    // Row 5 is not selected; row 1 is NULL; row 3 has no query.
    let chunk = Chunk::dense(Arc::clone(&data)).with_sel(vec![0, 1, 2, 3, 4]);
    let row = |i: usize| data.row(i);

    let run = |keys: &[i64], disjoint: bool, short_circuit: bool| {
        let source = ChunkSource {
            schema: schema.clone(),
            chunks: vec![chunk.clone()],
            at: 0,
        };
        let mut mf = MultiFilter::new(Box::new(source), 0, keys, disjoint);
        let mut ctx = ExecCtx::new().with_columnar(true);
        ctx.short_circuit_or = short_circuit;
        let mut client = ExecCtx::new();
        let split = mf.run_split(&mut ctx, &mut client);
        (split, ctx, client)
    };

    // Disjoint, short-circuit: matched by predicate p costs p + 1.
    let (split, ctx, client) = run(&[5, 9], true, true);
    assert_eq!(split, vec![vec![row(0), row(4)], vec![row(2)]]);
    assert_eq!(
        ctx.pred_evals,
        1 + 2 + 2 + 2 + 1,
        "NULL and unmatched cost k = 2"
    );
    assert_eq!(ctx.cpu.count(OpClass::PredEval), 8);
    let widths: u64 = [0, 4, 2].iter().map(|&i| tuple_width(&row(i))).sum();
    assert_eq!(ctx.cpu.count(OpClass::ResultEmit), 3);
    assert_eq!(ctx.mem_stream_bytes, widths + 3 * 8, "rows plus their tags");
    assert_eq!(client.cpu.count(OpClass::SplitRoute), 3);
    assert_eq!(client.cpu.count(OpClass::RowCopy), 3);
    assert_eq!(
        client.mem_stream_bytes, widths,
        "the split copies untagged rows"
    );

    // Duplicate keys, exhaustive: every live row costs k, equal-keyed
    // queries all get the row, in predicate order.
    for short_circuit in [true, false] {
        let (split, ctx, client) = run(&[5, 9, 5], false, short_circuit);
        assert_eq!(
            split,
            vec![vec![row(0), row(4)], vec![row(2)], vec![row(0), row(4)]]
        );
        assert_eq!(ctx.pred_evals, 5 * 3);
        assert_eq!(ctx.cpu.count(OpClass::ResultEmit), 5);
        assert_eq!(client.cpu.count(OpClass::SplitRoute), 5);
    }
}
