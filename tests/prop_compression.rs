//! Property tests for compressed columnar execution (ledger schema v3).
//!
//! Two invariants, checked over random tables × encodings × predicates
//! × both storage engines:
//!
//! 1. **Compressed matches raw**: under [`PricingMode::Compressed`]
//!    the direct-on-compressed kernels (dictionary-id predicates, RLE
//!    run-at-a-time filters and aggregates, frame-of-reference packed
//!    scans) produce rows bit-identical to the raw columnar path.
//! 2. **Raw mode is untouched**: raw-mode rows and full energy ledgers
//!    stay bit-identical to scalar execution, and the compression
//!    machinery never charges (no `DictLookup`, no encoded mirrors) —
//!    i.e. pre-v3 ledgers are reproduced byte for byte.
//!
//! And one exact gain on TPC-H: compressed pricing at least halves the
//! priced memory bytes of Q1 and Q6 and strictly lowers their joules.

mod support;

use proptest::prelude::*;

use ecodb::core::server::{EcoDb, EngineProfile};
use ecodb::query::context::ExecCtx;
use ecodb::query::exec::{execute, ExecEngine};
use ecodb::query::expr::{AggFunc, CmpOp, Expr};
use ecodb::query::ops::{AggSpec, BoxedOp, Filter, HashAggregate, SeqScan};
use ecodb::simhw::trace::{OpClass, PhaseKind, PricingMode, WorkTrace};
use ecodb::simhw::MachineConfig;
use ecodb::storage::{Catalog, ColumnType, HeapTable, Schema, Tuple, Value};
use support::{check, Axes};

/// Deterministic pseudo-random table whose columns exercise every
/// encoding: a low-cardinality string (dict-str), a run- or
/// range-structured int (rle-int / pack-int / plain), a run-structured
/// date, a tiny-alphabet char (dict-char), a bool (bitmap) and a
/// high-cardinality string (plain).
fn make_tuples(n: usize, k: u64, run: usize, base: i64, span: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            let mix = (i as u64).wrapping_mul(0x9e37_79b9).rotate_left(13);
            vec![
                Value::str(format!("s{}", mix % k)),
                Value::Int(base + (mix as i64).rem_euclid(span) + (i / run) as i64),
                Value::Date((i / run) as i32),
                Value::Char((b'A' + (mix % k.min(20)) as u8) as char),
                Value::Bool(mix % 7 < 3),
                Value::str(format!("wide-{i}-{mix}")),
            ]
        })
        .collect()
}

fn table_schema() -> Schema {
    Schema::new(&[
        ("g", ColumnType::Str),
        ("v", ColumnType::Int),
        ("d", ColumnType::Date),
        ("c", ColumnType::Char),
        ("b", ColumnType::Bool),
        ("w", ColumnType::Str),
    ])
}

fn load(engine_idx: usize, tuples: &[Tuple]) -> Catalog {
    let mut cat = Catalog::new(1 << 20);
    if engine_idx == 0 {
        cat.add_memory_table("t", HeapTable::from_tuples(table_schema(), tuples.to_vec()));
    } else {
        cat.add_disk_table("t", table_schema(), tuples);
    }
    cat
}

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compressed_matches_raw(
        n in 1usize..300,
        k in 1u64..8,
        run in 1usize..60,
        base in -1000i64..1000,
        span in prop_oneof![Just(5i64), Just(1000), Just(i64::MAX / 4)],
        engine_idx in 0usize..2,
        op_idx in 0usize..6,
        col in 0usize..4,
        lit in 0i64..2000,
        flip in any::<bool>(),
        and_extra in any::<bool>(),
        do_agg in any::<bool>(),
        chunk in prop_oneof![Just(7usize), Just(64), Just(1024)],
        workers in 1usize..3,
    ) {
        let tuples = make_tuples(n, k, run, base, span);
        let op = OPS[op_idx];
        let literal = match col {
            0 => Expr::str(&format!("s{}", lit as u64 % (k + 1))),
            1 => Expr::int(base + lit),
            2 => Expr::date((lit % 40) as i32),
            _ => Expr::Lit(Value::Char((b'A' + (lit % 25) as u8) as char)),
        };
        let cmp = if flip {
            Expr::cmp(op, literal, Expr::col(col))
        } else {
            Expr::cmp(op, Expr::col(col), literal)
        };
        let pred = if and_extra {
            Expr::And(vec![cmp, Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::int(base))])
        } else {
            cmp
        };

        let mk = |cat: &Catalog| -> BoxedOp {
            let scan = SeqScan::new(cat.expect("t"));
            let filtered = Filter::new(Box::new(scan), pred.clone());
            if do_agg {
                Box::new(HashAggregate::new(
                    Box::new(filtered),
                    vec![0],
                    vec![
                        AggSpec { func: AggFunc::Sum, input: Expr::col(1), name: "s".into() },
                        AggSpec { func: AggFunc::Avg, input: Expr::col(1), name: "a".into() },
                        AggSpec { func: AggFunc::Count, input: Expr::col(1), name: "n".into() },
                    ],
                ))
            } else {
                Box::new(filtered)
            }
        };

        // Raw columnar on a fresh catalog (cold pool): rows AND the full
        // ledger bit-identical to scalar — compression machinery must be
        // invisible in raw mode. `raw` and `rctx` are the scalar
        // oracle's, which the raw columnar run equals.
        let axes = Axes {
            chunks: vec![chunk],
            workers: vec![workers],
            ..Axes::default()
        };
        let (raw, rctx) = check("raw", &|_| mk(&load(engine_idx, &tuples)), &axes).remove(0);
        prop_assert_eq!(rctx.ledger.cpu.count(OpClass::DictLookup), 0, "raw mode must never dict-decode");

        // Compressed columnar: identical rows, same tuple fetches, and
        // the scan priced encoded (never wider per the +2 header floor)
        // memory traffic.
        let mut cctx = ExecCtx::new()
            .with_batch_size(chunk)
            .with_columnar(true)
            .with_pricing(PricingMode::Compressed)
            .with_workers(workers);
        let comp = execute(mk(&load(engine_idx, &tuples)).as_mut(), &mut cctx);
        prop_assert_eq!(&comp, &raw, "compressed rows differ from raw");
        prop_assert_eq!(
            cctx.ledger.cpu.count(OpClass::TupleFetch),
            rctx.ledger.cpu.count(OpClass::TupleFetch),
            "compressed path must fetch the same live rows"
        );
        prop_assert_eq!(cctx.ledger.disk, rctx.ledger.disk, "disk pages stay raw; I/O pricing unchanged");
    }
}

/// TPC-H Q1 and Q6 at scale 0.01 on the memory engine, columnar, priced
/// raw and compressed (ledger schema v3): rows identical, priced memory
/// bytes at least 2x smaller, and CPU + DRAM joules strictly lower.
#[test]
fn compressed_pricing_halves_tpch_q1_q6_priced_bytes_and_lowers_joules() {
    let db = EcoDb::tpch(EngineProfile::MemoryEngine, 0.01);
    let run = |pricing: PricingMode, name: &str| {
        let mut plan = match name {
            "q1" => support::Q1(db.catalog()),
            _ => support::Q6(db.catalog()),
        };
        let mut ctx = ExecCtx::new().with_columnar(true).with_pricing(pricing);
        let rows = ExecEngine::Columnar.execute(plan.as_mut(), &mut ctx);
        let bytes = ctx.ledger.mem_stream_bytes;
        let mut trace = WorkTrace::new();
        trace.push(ctx.take_phase(PhaseKind::Execute, name));
        let m = db.machine().measure(&trace, &MachineConfig::stock());
        (rows, bytes, m.cpu_joules + m.dram_joules)
    };
    for name in ["q1", "q6"] {
        let (raw_rows, raw_bytes, raw_joules) = run(PricingMode::Raw, name);
        let (comp_rows, comp_bytes, comp_joules) = run(PricingMode::Compressed, name);
        assert_eq!(
            comp_rows, raw_rows,
            "{name}: compressed rows differ from raw"
        );
        let ratio = raw_bytes as f64 / comp_bytes as f64;
        assert!(
            ratio >= 2.0,
            "{name}: priced bytes {raw_bytes} -> {comp_bytes} ({ratio:.2}x < 2x)"
        );
        assert!(
            comp_joules < raw_joules,
            "{name}: compressed {comp_joules} J not below raw {raw_joules} J"
        );
    }
}
