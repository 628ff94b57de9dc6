//! Property-based tests over core invariants, spanning crates.

mod support;

use std::sync::Arc;

use proptest::prelude::*;

use ecodb::query::context::ExecCtx;
use ecodb::query::exec::execute;
use ecodb::query::mqo::{split_results, MergedSelection};
use ecodb::query::plans::selection_plan;
use ecodb::simhw::machine::{Machine, MachineConfig};
use ecodb::simhw::trace::{OpClass, Phase, WorkTrace};
use ecodb::simhw::{CpuConfig, VoltageSetting};
use ecodb::storage::disk_table::DiskTable;
use ecodb::storage::page::{deserialize_tuple, serialize_tuple, Page};
use ecodb::storage::{
    load_generated, load_tpch, tuple_width, BufferPool, Catalog, EngineKind, PageFrame, TableData,
    Value,
};
use ecodb::tpch::{Date, QedQuery, TpchGenerator};
use support::{check, Axes, Storage, TPCH_PLANS};

const SCALE: f64 = 0.002;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        "[ -~]{0,40}".prop_map(Value::str),
        any::<i32>().prop_map(Value::Date),
        any::<char>().prop_map(Value::Char),
        any::<bool>().prop_map(Value::Bool),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// QED's core correctness invariant: merging an arbitrary set of
    /// distinct selection predicates and splitting the result returns
    /// exactly what the individual queries return — in order.
    #[test]
    fn qed_split_equals_sequential(quantities in proptest::collection::btree_set(1i64..=50, 1..12)) {
        let db = support::memory_db(SCALE);
        let queries: Vec<QedQuery> =
            quantities.iter().map(|&q| QedQuery { quantity: q }).collect();
        let mut merged = MergedSelection::new(db.catalog(), &queries);
        let mut ctx = ExecCtx::new();
        let tagged = merged.run(&mut ctx);
        let split = split_results(tagged, queries.len(), &mut ctx);
        for (i, q) in queries.iter().enumerate() {
            let mut plan = selection_plan(db.catalog(), q);
            let mut sctx = ExecCtx::new();
            let individual = execute(plan.as_mut(), &mut sctx);
            prop_assert_eq!(&split[i], &individual);
        }
    }

    /// The morsel-parallel executor is a pure throughput knob: for any
    /// plan, worker count and morsel size, the columnar engine's result
    /// rows and merged energy ledger are identical to the serial scalar
    /// oracle's.
    #[test]
    fn parallel_matches_serial(
        plan_idx in 0usize..5,
        workers in 1usize..=8,
        morsel_rows in prop_oneof![Just(64usize), Just(333), Just(4096)],
    ) {
        let (name, plan) = TPCH_PLANS[plan_idx];
        let axes = Axes {
            storage: vec![Storage::Memory(SCALE)],
            workers: vec![workers],
            morsel_rows: vec![morsel_rows],
            ..Axes::default()
        };
        check(name, &plan, &axes);
    }

    /// The columnar engine is a pure throughput knob: for any plan,
    /// storage engine, cold/warm pass, worker count and chunk size, the
    /// result rows and the full energy ledger are bit-identical to
    /// scalar execution.
    #[test]
    fn columnar_matches_scalar(
        plan_idx in 0usize..5,
        engine_idx in 0usize..2,
        workers in prop_oneof![Just(1usize), Just(2), Just(4)],
        chunk_size in prop_oneof![Just(3usize), Just(257), Just(1024)],
    ) {
        let (name, plan) = TPCH_PLANS[plan_idx];
        let storage = [Storage::Memory(SCALE), Storage::Disk(SCALE)][engine_idx];
        let axes = Axes {
            storage: vec![storage],
            workers: vec![workers],
            chunks: vec![chunk_size],
            ..Axes::tpch(SCALE)
        };
        check(name, &plan, &axes);
    }

    /// Tuple serialization round-trips arbitrary values.
    #[test]
    fn page_serialization_roundtrips(tuple in proptest::collection::vec(arb_value(), 0..12)) {
        prop_assert_eq!(deserialize_tuple(&serialize_tuple(&tuple)), tuple);
    }

    /// A point read of any slot of any page returns what decoding the
    /// whole page puts in that slot, and decodes nothing else.
    #[test]
    fn slot_reads_match_the_whole_page_decode(
        tuples in proptest::collection::vec(proptest::collection::vec(arb_value(), 0..12), 0..80),
    ) {
        let mut page = Page::new();
        let stored: Vec<_> = tuples.into_iter().take_while(|t| page.insert(t)).collect();
        let (lazy, decoded) = (PageFrame::new(page.clone()), PageFrame::new(page));
        prop_assert_eq!(decoded.tuples(), &stored[..]);
        prop_assert_eq!(lazy.len(), stored.len());
        for slot in (0..stored.len()).rev() {
            prop_assert_eq!(&lazy.tuple(slot), &decoded.tuples()[slot], "slot {}", slot);
            prop_assert_eq!(&decoded.tuple(slot), &stored[slot], "slot {} of a decoded frame", slot);
        }
        prop_assert!(!lazy.is_decoded() && decoded.is_decoded());
    }

    /// Dates round-trip through y/m/d decomposition across the valid range.
    #[test]
    fn date_roundtrip(offset in -3000i32..5000) {
        let d = Date(offset);
        let (y, m, dd) = d.to_ymd();
        prop_assert_eq!(Date::from_ymd(y, m, dd), d);
    }

    /// Energy and time are additive over trace concatenation at stock
    /// settings (no droop coupling), and always non-negative.
    #[test]
    fn measurement_additivity(
        ops_a in 1u64..2_000_000,
        ops_b in 1u64..2_000_000,
        mem_a in 0u64..(64 << 20),
        gap_ms in 0u64..50,
    ) {
        let machine = Machine::paper_sut();
        let cfg = MachineConfig::stock();
        let mk = |ops: u64, mem: u64, gap: u64| {
            let mut t = WorkTrace::new();
            let mut p = Phase::execute("p");
            p.ledger.cpu.add(OpClass::PredEval, ops);
            p.ledger.mem_stream_bytes = mem;
            t.push(p);
            if gap > 0 {
                t.push(Phase::client_gap(gap * 1_000_000));
            }
            t
        };
        let a = mk(ops_a, mem_a, gap_ms);
        let b = mk(ops_b, 0, 0);
        let mut ab = a.clone();
        ab.extend(b.clone());
        let ma = machine.measure(&a, &cfg);
        let mb = machine.measure(&b, &cfg);
        let mab = machine.measure(&ab, &cfg);
        prop_assert!(ma.cpu_joules >= 0.0 && mb.cpu_joules >= 0.0);
        let e = (mab.cpu_joules - (ma.cpu_joules + mb.cpu_joules)).abs();
        prop_assert!(e < 1e-6 * (1.0 + mab.cpu_joules), "energy additivity: {e}");
        let t = (mab.elapsed_s - (ma.elapsed_s + mb.elapsed_s)).abs();
        prop_assert!(t < 1e-9 * (1.0 + mab.elapsed_s), "time additivity: {t}");
    }

    /// More work never costs less time or energy (monotonicity).
    #[test]
    fn measurement_monotonicity(base in 1u64..1_000_000, extra in 1u64..1_000_000) {
        let machine = Machine::paper_sut();
        let cfg = MachineConfig::stock();
        let mk = |ops: u64| {
            let mut t = WorkTrace::new();
            let mut p = Phase::execute("p");
            p.ledger.cpu.add(OpClass::Arith, ops);
            t.push(p);
            t
        };
        let small = machine.measure(&mk(base), &cfg);
        let big = machine.measure(&mk(base + extra), &cfg);
        prop_assert!(big.cpu_joules > small.cpu_joules);
        prop_assert!(big.elapsed_s > small.elapsed_s);
    }

    /// Underclocking never speeds anything up; voltage downgrades never
    /// increase energy at equal clocks.
    #[test]
    fn pvc_direction_invariants(ops in 100_000u64..2_000_000, u in 0.0f64..0.25) {
        let machine = Machine::paper_sut();
        let mut trace = WorkTrace::new();
        let mut p = Phase::execute("p");
        p.ledger.cpu.add(OpClass::PredEval, ops);
        p.ledger.mem_stream_bytes = 4 << 20;
        trace.push(p);

        let stock = machine.measure(&trace, &MachineConfig::stock());
        let uc = machine.measure(
            &trace,
            &MachineConfig::with_cpu(CpuConfig::underclocked(u, VoltageSetting::Stock)),
        );
        prop_assert!(uc.elapsed_s >= stock.elapsed_s);

        let hi_v = machine.measure(
            &trace,
            &MachineConfig::with_cpu(CpuConfig::underclocked(u, VoltageSetting::Stock)),
        );
        let lo_v = machine.measure(
            &trace,
            &MachineConfig::with_cpu(CpuConfig::underclocked(u, VoltageSetting::Medium)),
        );
        prop_assert!(lo_v.cpu_joules <= hi_v.cpu_joules);
        prop_assert_eq!(lo_v.elapsed_s, hi_v.elapsed_s, "voltage does not change speed");
    }

    /// The EDP ratio of any measured pair is the product of its energy
    /// and time ratios (metric self-consistency).
    #[test]
    fn edp_is_product_of_ratios(ops in 100_000u64..2_000_000, u in 0.01f64..0.2) {
        let machine = Machine::paper_sut();
        let mut trace = WorkTrace::new();
        let mut p = Phase::execute("p");
        p.ledger.cpu.add(OpClass::HashProbe, ops);
        trace.push(p);
        let a = machine.measure(&trace, &MachineConfig::stock());
        let b = machine.measure(
            &trace,
            &MachineConfig::with_cpu(CpuConfig::underclocked(u, VoltageSetting::Small)),
        );
        let e = b.cpu_joules / a.cpu_joules;
        let t = b.elapsed_s / a.elapsed_s;
        let edp = b.edp() / a.edp();
        prop_assert!((edp - e * t).abs() < 1e-9);
    }
}

/// Check `streamed` (one pass of the generator's stream) against
/// `oracle` (the same rows generated, stored, then loaded) table by
/// table — and both against the row-at-a-time constructions that share
/// no code with the streamed builders: a heap table's stored bytes are
/// the summed `tuple_width` of its rows, a paged table's pages are what
/// `DiskTable::load` packs those rows into, and its lazily decoded
/// columnar mirror holds them.
fn assert_same_catalog(streamed: &Catalog, oracle: &Catalog, memory: &Catalog, what: &str) {
    assert_eq!(streamed.names(), oracle.names(), "{what}");
    for name in streamed.names() {
        let what = format!("{what} {name}");
        let (s, o) = (streamed.expect(&name), oracle.expect(&name));
        assert_eq!(s.schema(), o.schema(), "{what}");
        assert_eq!(s.len(), o.len(), "{what}");
        let TableData::Memory(rows) = &memory.expect(&name).data else {
            panic!("{what}: the memory profile holds heap tables")
        };
        match (&s.data, &o.data) {
            (TableData::Memory(s), TableData::Memory(o)) => {
                assert!(s.columns() == o.columns(), "{what}: column values");
                assert_eq!(s.bytes(), o.bytes(), "{what}: stored bytes");
                let widths: u64 = s.rows().map(|t| tuple_width(&t)).sum();
                assert_eq!(s.bytes(), widths, "{what}: bytes are the rows' widths");
            }
            (TableData::Disk(s), TableData::Disk(o)) => {
                assert_eq!(s.table_id(), o.table_id(), "{what}");
                let packed = DiskTable::load(
                    s.table_id(),
                    s.schema().clone(),
                    rows.rows(),
                    Arc::new(BufferPool::new(4)),
                );
                assert_eq!(s.num_pages(), o.num_pages(), "{what}: pages");
                assert_eq!(
                    s.num_pages(),
                    packed.num_pages(),
                    "{what}: pages of the rows"
                );
                for p in 0..s.num_pages() {
                    assert!(s.page_image(p) == o.page_image(p), "{what}: page {p}");
                    assert!(
                        s.page_image(p) == packed.page_image(p),
                        "{what}: row page {p}"
                    );
                    assert_eq!(
                        s.stored_checksum(p),
                        o.stored_checksum(p),
                        "{what}: page {p}"
                    );
                    assert_eq!(s.stored_checksum(p), packed.stored_checksum(p), "{what}");
                }
                let (sm, om) = (s.columnar(), o.columnar());
                assert_eq!(sm.num_extents(), om.num_extents(), "{what}: extents");
                for e in 0..sm.num_extents() {
                    let chunk = sm.extent_chunk(e);
                    assert!(chunk == om.extent_chunk(e), "{what}: mirror extent {e}");
                    let start = sm.extent_row_start(e);
                    for i in 0..chunk.len() {
                        let row = chunk.row(i);
                        assert!(rows.columns().row_eq(start + i, &row), "{what}: row {i}");
                    }
                }
            }
            _ => panic!("{what}: profiles differ"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Loading straight from the generator's stream builds the catalog
    /// that loading the generated, stored rows builds — every column
    /// value, heap byte count, page image, checksum and mirror — on
    /// both profiles, at any scale and for any seed.
    #[test]
    fn streamed_load_equals_the_load_of_the_generated_rows(
        scale in 0.001f64..0.004,
        seed in any::<u64>(),
    ) {
        for seed in [TpchGenerator::default().seed, seed] {
            let generator = TpchGenerator::with_seed(scale, seed);
            let rows = generator.generate();
            let memory = load_tpch(&rows, EngineKind::Memory, 0);
            for kind in [EngineKind::Memory, EngineKind::Disk] {
                let streamed = load_generated(&generator, kind, 64);
                let oracle = load_tpch(&rows, kind, 64);
                let what = format!("scale {scale} seed {seed} {kind:?}");
                assert_same_catalog(&streamed, &oracle, &memory, &what);
            }
        }
    }
}
