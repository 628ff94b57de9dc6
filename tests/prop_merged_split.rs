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
//!   pricing. Per-query rows must be equal on the serial and the
//!   per-core arm; whole traces — the server ledger, the gap priced
//!   from it, and the client's split phase — on the serial arm, and
//!   their sum over cores on the per-core arm (the oracle runs serial,
//!   so its cores other than core 0 are idle; per-core attribution is
//!   pinned by `routing_equals_the_scalar_oracle`).
//!   The fused path's result sets are views (`RowSet`): they are read
//!   the way clients read them — counted before anything is decoded,
//!   then decoded through `tuples()`, on one arm from a clone.
//! * `routing_equals_the_scalar_oracle` aims at the routing table over
//!   a `VecSource`, serially and morsel-parallel (per-core phases held
//!   to the columnar driver over the same `MultiFilter`, which runs the
//!   tagged-row `next` on every morsel): keys absent from the
//!   data, negative keys, `i64::MIN`/`MAX` (the binary-searched table)
//!   and narrow key sets (the dense one), key spans of 4096 and 4097
//!   (the widest dense table, the narrowest binary-searched one), rows
//!   one below the smallest key, at the largest and one above it,
//!   duplicate keys with and without a (wrong) disjointness promise,
//!   empty input, input arriving under a selection vector, rows of
//!   varying width. Then the same rows with NULL keys, fed as prebuilt
//!   chunks with and without selection vectors; NULL keys never occur
//!   on the scalar engine, so the oracle sees each NULL as a key no query
//!   has — the rule `null_keys_match_nothing_and_cost_k` pins by hand: a
//!   NULL matches nothing and is still charged *k*.
//!
//! Seeds are pinned: the vendored `proptest` derives each test's
//! generator from the test's name.

mod support;

use std::ops::Deref;
use std::sync::Arc;

use proptest::prelude::*;

use ecodb::core::server::{EcoDb, EngineProfile};
use ecodb::query::chunk::Chunk;
use ecodb::query::context::ExecCtx;
use ecodb::query::exec::{execute, ExecEngine};
use ecodb::query::expr::{CmpOp, Expr};
use ecodb::query::mqo::{split_results, MultiFilter};
use ecodb::query::ops::{BoxedOp, Filter, VecSource};
use ecodb::simhw::trace::{Ledger, OpClass, Phase, PhaseKind, PricingMode, WorkTrace};
use ecodb::storage::{
    tuple_width, ColumnChunk, ColumnData, ColumnType, DataChunk, RowSet, Schema, Tuple, Value,
};
use ecodb::tpch::QedQuery;
use support::{ChunkSource, Rng};

/// The scale-0.002 database of the disk or memory profile under
/// compressed or raw pricing and `engine`: the scalar-engine one is the
/// oracle (`run_split` falls back to tagged rows + `split_results`
/// there), the columnar one runs the fused path.
fn db(disk: bool, compressed: bool, engine: ExecEngine) -> &'static EcoDb {
    let profile = [EngineProfile::MemoryEngine, EngineProfile::CommercialDisk][usize::from(disk)];
    let pricing = [PricingMode::Raw, PricingMode::Compressed][usize::from(compressed)];
    support::db(profile, 0.002, pricing, engine)
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

/// Which values a routing case draws its rows and keys from.
#[derive(Debug, Clone, Copy)]
enum KeySet {
    /// [`NARROW`]: within the dense table's span.
    Narrow,
    /// [`WIDE`]: the binary-searched table and the wrap-around corners
    /// of `key − min`.
    Wide,
    /// Keys from `lo` to `lo + 4095` or `lo + 4096`, both ends always
    /// present: the widest dense table and the narrowest binary-searched
    /// one.
    Boundary,
}

impl KeySet {
    /// The values rows draw from, the values keys draw from, and the
    /// keys every case of this set must have.
    fn draw(self, rng: &mut Rng) -> (Vec<i64>, Vec<i64>, Vec<i64>) {
        let absent = [7, -9, 1000];
        match self {
            KeySet::Narrow => (NARROW.to_vec(), [&NARROW[..], &absent].concat(), vec![]),
            KeySet::Wide => (WIDE.to_vec(), [&WIDE[..], &absent].concat(), vec![]),
            KeySet::Boundary => {
                let lo = rng.pick(&[-4096, -1, 0, 7]);
                let hi = lo + rng.pick(&[4095, 4096]);
                let inner = vec![lo + 1, lo + 2048, hi - 1];
                let rows = [&inner[..], &[lo, hi]].concat();
                (rows, inner, vec![lo, hi])
            }
        }
    }
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

/// `rows` (of [`routing_schema`]) as windows of `step` rows over one
/// chunk whose key column is NULL where `valid` is false; with `live`,
/// each window carries the selection of its rows `live` names.
fn masked_chunks(
    rows: &[Tuple],
    valid: &[bool],
    live: Option<&[bool]>,
    step: usize,
) -> ChunkSource {
    let schema = routing_schema();
    let mut cols = DataChunk::from_rows(&schema, rows).columns().to_vec();
    cols[1] = ColumnChunk::with_validity(cols[1].data.clone(), valid.to_vec());
    let data = Arc::new(DataChunk::new(cols));
    let chunks = (0..rows.len())
        .step_by(step)
        .map(|start| {
            let window = start..(start + step).min(rows.len());
            let chunk = Chunk::window(Arc::clone(&data), window.clone());
            match live {
                Some(live) => {
                    chunk.with_sel(window.filter(|&i| live[i]).map(|i| i as u32).collect())
                }
                None => chunk,
            }
        })
        .collect();
    ChunkSource::new(schema, chunks)
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
        prop_assert_eq!(cores_f.len(), workers);
        let summed = |cores: &[WorkTrace]| cores.iter().map(WorkTrace::total).sum::<Ledger>();
        summed(&cores_o).assert_same(&summed(&cores_f), "per-core traces, summed");

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
        key_set in prop_oneof![Just(KeySet::Narrow), Just(KeySet::Wide), Just(KeySet::Boundary)],
        short_circuit in any::<bool>(),
        dups in any::<bool>(),
        promise_disjoint in any::<bool>(),
        under_selection in any::<bool>(),
        workers in prop_oneof![Just(1usize), Just(2), Just(4)],
    ) {
        let mut rng = Rng(seed);
        let (mut universe, mut pool, edges) = key_set.draw(&mut rng);
        // Keys: a subset of the pool (so some values in the data have
        // no query, and some keys no row), in random order.
        let n_keys = 1 + rng.below(pool.len().min(8) as u64) as usize;
        let mut keys: Vec<i64> = (0..n_keys)
            .map(|_| pool.swap_remove(rng.below(pool.len() as u64) as usize))
            .collect();
        for edge in edges {
            keys.insert(rng.below(keys.len() as u64 + 1) as usize, edge);
        }
        if dups {
            for _ in 0..=rng.below(3) {
                let at = rng.below(keys.len() as u64 + 1) as usize;
                let from = keys[rng.below(keys.len() as u64) as usize];
                keys.insert(at, from);
            }
        }
        // Rows also hold the values at the table's edges: one below the
        // smallest key, the largest, one above it.
        let (lo, hi) = (keys.iter().min().unwrap(), keys.iter().max().unwrap());
        universe.extend([lo.wrapping_sub(1), *hi, hi.wrapping_add(1)]);
        let n_rows = if rng.below(8) == 0 { 0 } else { rng.below(200) as usize };
        let rows: Vec<Tuple> = (0..n_rows)
            .map(|i| {
                vec![
                    Value::str("x".repeat(rng.below(9) as usize)),
                    Value::Int(rng.pick(&universe)),
                    Value::Int(i as i64 % 10),
                ]
            })
            .collect();
        // A duplicate-keyed batch that still promises disjointness gets
        // the oracle's answer: the first equal-keyed query wins.
        let disjoint = !dups || promise_disjoint;
        let cut = under_selection.then(|| rng.below(11) as i64);
        let k = keys.len();
        let what = format!("keys {keys:?} disjoint={disjoint} cut={cut:?} rows={n_rows}");

        // Oracle: scalar tagged rows, then the application-side split.
        let mut octx = ExecCtx::new();
        octx.short_circuit_or = short_circuit;
        let tagged = ExecEngine::Scalar.execute(&mut routing_plan(&rows, cut, &keys, disjoint), &mut octx);
        let mut oclient = ExecCtx::new();
        let expected = split_results(tagged, k, &mut oclient);

        // Fused path, serial, over chunks of 1, 7 or 1024 rows.
        let mut sctx = ExecCtx::new()
            .with_columnar(true)
            .with_batch_size(rng.pick(&[1, 7, 1024]));
        sctx.short_circuit_or = short_circuit;
        let mut sclient = ExecCtx::new();
        let split = routing_plan(&rows, cut, &keys, disjoint).run_split(&mut sctx, &mut sclient);
        prop_assert_eq!(check_views(&split, &expected, false), Ok(()), "{}: serial", what);
        prop_assert_eq!(sctx.pred_evals, octx.pred_evals, "{}: serial pred_evals", what);
        server_phase(&mut octx.clone())
            .ledger
            .assert_same(&server_phase(&mut sctx).ledger, &what);
        client_phase(&mut oclient.clone())
            .ledger
            .assert_same(&client_phase(&mut sclient).ledger, &what);

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
        client_phase(&mut oclient)
            .ledger
            .assert_same(&client_phase(&mut client).ledger, &what);
        server_phase(&mut octx)
            .ledger
            .assert_same(&server_phase(&mut ctx.clone()).ledger, &what);

        // Per-core attribution: the columnar driver over the same
        // `MultiFilter`, which routes each morsel through the tagged-row
        // `next`, is the oracle.
        let mut pctx = ExecCtx::new()
            .with_columnar(true)
            .with_morsel_rows(morsel_rows)
            .with_workers(workers);
        pctx.short_circuit_or = short_circuit;
        execute(&mut routing_plan(&rows, cut, &keys, disjoint), &mut pctx);
        prop_assert_eq!(
            ctx.take_core_phases(workers, "t"),
            pctx.take_core_phases(workers, "t"),
            "{}: per-core phases", what
        );

        // NULL keys, fed as prebuilt chunks (under a selection vector
        // when `under_selection`). The oracle runs over the selected
        // rows with each NULL key swapped for a key no query has — the
        // hand rule: a NULL costs k and matches nothing.
        let valid: Vec<bool> = (0..n_rows).map(|_| rng.below(3) != 0).collect();
        let live: Vec<bool> = (0..n_rows).map(|_| !under_selection || rng.below(3) != 0).collect();
        let absent = (0..).find(|v| !keys.contains(v)).expect("finitely many keys");
        let nulled: Vec<Tuple> = (0..n_rows)
            .filter(|&i| live[i])
            .map(|i| {
                let mut row = rows[i].clone();
                if !valid[i] {
                    row[1] = Value::Int(absent);
                }
                row
            })
            .collect();
        let mut octx = ExecCtx::new();
        octx.short_circuit_or = short_circuit;
        let tagged = ExecEngine::Scalar.execute(&mut routing_plan(&nulled, None, &keys, disjoint), &mut octx);
        let mut oclient = ExecCtx::new();
        let expected = split_results(tagged, k, &mut oclient);

        let source = masked_chunks(&rows, &valid, under_selection.then_some(&live[..]), rng.pick(&[1, 7, 64]));
        let mut nctx = ExecCtx::new().with_columnar(true);
        nctx.short_circuit_or = short_circuit;
        let mut nclient = ExecCtx::new();
        let split = MultiFilter::new(Box::new(source), 1, &keys, disjoint).run_split(&mut nctx, &mut nclient);
        prop_assert_eq!(check_views(&split, &expected, false), Ok(()), "{}: NULL keys", what);
        prop_assert_eq!(nctx.pred_evals, octx.pred_evals, "{}: NULL pred_evals", what);
        server_phase(&mut octx)
            .ledger
            .assert_same(&server_phase(&mut nctx).ledger, format_args!("{}: NULL", what));
        client_phase(&mut oclient)
            .ledger
            .assert_same(&client_phase(&mut nclient).ledger, format_args!("{}: NULL", what));
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
        ColumnChunk::new(ColumnData::Str(pads.iter().collect())),
    ]));
    // Row 5 is not selected; row 1 is NULL; row 3 has no query.
    let chunk = Chunk::dense(Arc::clone(&data)).with_sel(vec![0, 1, 2, 3, 4]);
    let row = |i: usize| data.row(i);

    let run = |keys: &[i64], disjoint: bool, short_circuit: bool| {
        let source = ChunkSource::new(schema.clone(), vec![chunk.clone()]);
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
    assert_eq!(ctx.ledger.cpu.count(OpClass::PredEval), 8);
    let widths: u64 = [0, 4, 2].iter().map(|&i| tuple_width(&row(i))).sum();
    assert_eq!(ctx.ledger.cpu.count(OpClass::ResultEmit), 3);
    assert_eq!(
        ctx.ledger.mem_stream_bytes,
        widths + 3 * 8,
        "rows plus their tags"
    );
    assert_eq!(client.ledger.cpu.count(OpClass::SplitRoute), 3);
    assert_eq!(client.ledger.cpu.count(OpClass::RowCopy), 3);
    assert_eq!(
        client.ledger.mem_stream_bytes, widths,
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
        assert_eq!(ctx.ledger.cpu.count(OpClass::ResultEmit), 5);
        assert_eq!(client.ledger.cpu.count(OpClass::SplitRoute), 5);
    }
}
