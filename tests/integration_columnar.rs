//! The columnar contract: scalar and columnar execution must produce
//! **identical result rows** and **bit-identical energy
//! ledgers** — op-class counts, memory stream bytes, random accesses
//! and disk I/O — for TPC-H Q1/Q3/Q5/Q6, the QED merged scan and
//! generated filter conjunctions, on both storage engines, cold and warm, serial and morsel-parallel,
//! across chunk sizes: the usual ones ([`CHUNKS`]) and the extremes
//! ([`EXTREME_CHUNKS`]: one-row chunks, a small power of two, chunks
//! larger than the default). The paper-reproduction figures are priced
//! from the ledger, so any drift here silently corrupts them. NULLs,
//! which no row source produces, are held to a per-row model instead.

mod support;

use ecodb::core::server::{EcoDb, EngineProfile, Query};
use ecodb::query::context::ExecCtx;
use ecodb::query::exec::ExecEngine;
use ecodb::query::mqo::MergedSelection;
use ecodb::query::ops::{BoxedOp, SeqScan};
use ecodb::simhw::OpClass;
use ecodb::storage::{Catalog, Tuple};
use support::{check, Axes, Storage, Q1, Q3, Q5, Q6};

const SCALE: f64 = 0.003;

/// Chunk sizes that do not divide the tables, and the default.
const CHUNKS: [usize; 3] = [3, 257, 1024];

/// The degenerate one-row chunk, a size that divides nothing in the
/// data, and one above the default.
const EXTREME_CHUNKS: [usize; 3] = [1, 64, 4096];

/// TPC-H at [`SCALE`] on both storage engines, cold then warm, the
/// columnar engine at `chunks`.
fn axes(chunks: [usize; 3]) -> Axes {
    Axes {
        chunks: chunks.to_vec(),
        ..Axes::tpch(SCALE)
    }
}

#[test]
fn q1_columnar_scalar_identical() {
    check("Q1", &Q1, &axes(CHUNKS));
}

#[test]
fn q3_columnar_scalar_identical() {
    check("Q3", &Q3, &axes(CHUNKS));
}

#[test]
fn q5_columnar_scalar_identical() {
    check("Q5", &Q5, &axes(CHUNKS));
}

#[test]
fn q6_columnar_scalar_identical() {
    check("Q6", &Q6, &axes(CHUNKS));
}

#[test]
fn q1_scalar_batch_identical() {
    check("Q1", &Q1, &axes(EXTREME_CHUNKS));
}

#[test]
fn q3_scalar_batch_identical() {
    check("Q3", &Q3, &axes(EXTREME_CHUNKS));
}

#[test]
fn q5_scalar_batch_identical() {
    check("Q5", &Q5, &axes(EXTREME_CHUNKS));
}

#[test]
fn q6_scalar_batch_identical() {
    check("Q6", &Q6, &axes(EXTREME_CHUNKS));
}

/// `MIN`/`MAX` over string columns: the columnar accumulator compares
/// each cell where it lies in its column's arena and builds a `Value`
/// only for a new extreme; rows and whole ledgers must equal the
/// scalar oracle's, which compares materialized values.
#[test]
fn min_max_over_string_columns_columnar_scalar_identical() {
    let sql = [
        "SELECT l_returnflag, MIN(l_shipmode), MAX(l_shipmode), MIN(l_comment), \
         MAX(l_comment) FROM lineitem GROUP BY l_returnflag",
        "SELECT c_mktsegment, MIN(c_name), MAX(c_name) FROM customer GROUP BY c_mktsegment",
        "SELECT MIN(c_name), MAX(c_address) FROM customer",
    ];
    for q in sql {
        check(
            q,
            &|cat| ecodb::query::sql::compile(cat, q).expect(q),
            &axes(CHUNKS),
        );
    }
    // The extremes are the source's, not just the oracle's.
    let modes = support::source(SCALE)
        .lineitem
        .iter()
        .map(|l| l.l_shipmode.as_str());
    let (lo, hi) = (modes.clone().min(), modes.max());
    let rows = support::with_catalog(Storage::Memory(SCALE), |cat| {
        let sql = "SELECT MIN(l_shipmode), MAX(l_shipmode) FROM lineitem";
        let mut plan = ecodb::query::sql::compile(cat, sql).expect("compiles");
        ExecEngine::Columnar.execute(plan.as_mut(), &mut ExecCtx::new())
    });
    let want = [lo, hi].map(|s| ecodb::storage::Value::str(s.expect("rows")));
    assert_eq!(rows, vec![want.to_vec()]);
}

/// Columnar execution composes with morsel-driven parallelism: the
/// merged ledger and rows stay bit-identical to serial scalar execution
/// at every worker count, cold and warm, on both storage engines.
#[test]
fn parallel_columnar_identical_to_scalar() {
    for (name, plan) in [("Q1", Q1), ("Q5", Q5), ("Q6", Q6)] {
        let axes = Axes {
            workers: vec![1, 2, 4],
            ..Axes::tpch(SCALE)
        };
        check(name, &plan, &axes);
    }
}

/// The disk profile's columnar mirror decodes column by column and
/// grows statement by statement. On one database Q6 decodes four
/// `lineitem` columns, and Q1, Q3, Q5 and a `SELECT *` selection each
/// decode what they read on top; every statement's rows and ledger
/// equal the scalar oracle's over the same statement history, serial
/// and at 2 and 4 workers (whose morsel clones carry the scans' column
/// masks). The result is also checked as it comes out of the driver:
/// a view of the final chunks, at every worker count.
#[test]
fn a_disk_mirror_grown_statement_by_statement_matches_the_scalar_oracle() {
    use ecodb::query::exec::execute_rows;

    // Q6 first, the selection (every column) last.
    let statements = [3, 0, 1, 2, 4].map(|i| support::TPCH_PLANS[i]);
    let lineitem_decoded = |cat: &Catalog| {
        let table = cat.expect("lineitem");
        let none = vec![false; table.schema().arity()];
        let mirror = support::disk(&table).columnar_with(&none);
        mirror.decoded().iter().filter(|&&d| d).count()
    };
    let oracle = support::disk_catalog(SCALE);
    let want: Vec<(Vec<Tuple>, ExecCtx)> = (statements.iter())
        .map(|(_, mk)| {
            let mut ctx = ExecCtx::new();
            (
                ExecEngine::Scalar.execute(mk(&oracle).as_mut(), &mut ctx),
                ctx,
            )
        })
        .collect();
    assert!(want.iter().all(|(rows, _)| !rows.is_empty()));
    for workers in [1usize, 2, 4] {
        let cat = support::disk_catalog(SCALE);
        for ((name, mk), (rows, ctx)) in statements.iter().zip(&want) {
            let what = format!("{name}/workers={workers}");
            let mut got = ExecCtx::new().with_columnar(true).with_workers(workers);
            let view = execute_rows(mk(&cat).as_mut(), &mut got);
            assert_eq!(view, *rows, "{what}: rows differ");
            assert!(!view.is_decoded(), "{what}: the comparison decoded");
            assert_eq!(view.tuples(), rows, "{what}: decoded rows differ");
            ctx.ledger.assert_same(&got.ledger, &what);
            assert_eq!(got.pred_evals, ctx.pred_evals, "{what}: pred_evals");
            if *name == "Q6" {
                assert_eq!(lineitem_decoded(&cat), 4, "{what}: Q6 reads 4 columns");
            }
        }
        assert_eq!(
            lineitem_decoded(&cat),
            16,
            "workers={workers}: SELECT * reads all"
        );
    }
}

/// Generated conjunctions over `lineitem`: random `AND`s of `col ⋄ lit`,
/// `lit ⋄ col` and `col ⋄ col` comparisons on `l_quantity` (`Int`),
/// `l_shipdate` (`Date`), `l_returnflag` (`Char`) and `l_shipmode`
/// (`Str`), each against a column of its type, some nested the way
/// `BETWEEN` plans (an `AND` of `>=` and `<=`), with literals below,
/// inside and above the column's values. Each `Filter` plan's rows,
/// `pred_evals` and whole ledger must equal the scalar oracle's at
/// chunks of 1, 7 and 1024 rows and 1, 2 and 4 workers, on both storage
/// engines, cold and warm. The cases keep no row, some rows, and every
/// row.
#[test]
fn generated_conjunctions_columnar_scalar_identical() {
    use ecodb::query::expr::{CmpOp, Expr};
    use ecodb::query::ops::Filter;
    use ecodb::storage::Value;
    use ecodb::tpch::{Date, Lineitem};

    /// Below [`SCALE`]: each plan loads the disk engine ten times.
    const GENERATED_SCALE: f64 = 0.001;

    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    /// A compared column: its name, a column of its type to compare it
    /// with, its value in a source row, and literals below and above
    /// every value it holds.
    type Column = (
        &'static str,
        &'static str,
        fn(&Lineitem) -> Value,
        [Value; 2],
    );
    let columns: [Column; 4] = [
        (
            "l_quantity",
            "l_linenumber",
            |l| Value::Int(l.l_quantity),
            [0, 51].map(Value::Int),
        ),
        (
            "l_shipdate",
            "l_commitdate",
            |l| Value::Date(l.l_shipdate.0),
            [1990, 2000].map(|y| Value::Date(Date::from_ymd(y, 1, 1).0)),
        ),
        (
            "l_returnflag",
            "l_linestatus",
            |l| Value::Char(l.l_returnflag),
            ['@', 'Z'].map(Value::Char),
        ),
        (
            "l_shipmode",
            "l_shipinstruct",
            |l| Value::str(&l.l_shipmode),
            ["", "~"].map(Value::str),
        ),
    ];
    let li = &support::source(GENERATED_SCALE).lineitem;
    let schema = support::memory_db(GENERATED_SCALE)
        .catalog()
        .expect("lineitem")
        .schema()
        .clone();
    let col = |name: &str| Expr::col(schema.expect_index(name));

    let mut rng = support::Rng(0x5E1E_C7ED);
    let inside = |rng: &mut support::Rng, at: fn(&Lineitem) -> Value| {
        Expr::Lit(at(&li[rng.index(li.len())]))
    };
    let atom = |rng: &mut support::Rng| {
        let (name, other, at, [below, above]) = &columns[rng.index(columns.len())];
        let op = rng.pick(&OPS);
        let lit = match rng.below(3) {
            0 => Expr::Lit(below.clone()),
            1 => Expr::Lit(above.clone()),
            _ => inside(rng, *at),
        };
        match rng.below(4) {
            0 => Expr::cmp(op, col(name), lit),
            1 => Expr::cmp(op, lit, col(name)),
            2 => Expr::cmp(op, col(name), col(other)),
            _ => Expr::And(vec![
                Expr::cmp(CmpOp::Ge, col(name), inside(rng, *at)),
                Expr::cmp(CmpOp::Le, col(name), inside(rng, *at)),
            ]),
        }
    };
    let mut preds: Vec<Expr> = (0..8)
        .map(|_| Expr::And((0..1 + rng.index(3)).map(|_| atom(&mut rng)).collect()))
        .collect();
    // Every row passes every arm; the last arm keeps no row.
    let every = vec![
        Expr::cmp(CmpOp::Le, Expr::int(0), col("l_quantity")),
        Expr::cmp(CmpOp::Ge, col("l_shipmode"), Expr::str("")),
        Expr::cmp(CmpOp::Eq, col("l_returnflag"), col("l_returnflag")),
    ];
    preds.push(Expr::And(every.clone()));
    preds.push(Expr::And(
        every
            .into_iter()
            .chain([Expr::cmp(CmpOp::Gt, col("l_shipdate"), col("l_shipdate"))])
            .collect(),
    ));

    let axes = Axes {
        chunks: vec![1, 7, 1024],
        workers: vec![1, 2, 4],
        ..Axes::tpch(GENERATED_SCALE)
    };
    let mut kept = Vec::new();
    for pred in preds {
        let plan = |cat: &Catalog| -> BoxedOp {
            let scan = Box::new(SeqScan::new(cat.expect("lineitem")));
            Box::new(Filter::new(scan, pred.clone()))
        };
        let oracle = check(&format!("{pred:?}"), &plan, &axes);
        kept.push(oracle[0].0.len());
    }
    assert!(kept.contains(&0), "no case kept no row: {kept:?}");
    assert!(kept.contains(&li.len()), "no case kept every row: {kept:?}");
    assert!(
        kept.iter().any(|&n| n > 0 && n < li.len()),
        "no case kept some rows: {kept:?}"
    );
}

/// NULLs reach a columnar `Filter` only in chunks no row source makes
/// (validity masks never occur in row execution): a comparison with an
/// invalid operand reads `false` and is still charged. Over masked
/// windows of every compared type, dense and under a selection vector,
/// a `Filter` keeps exactly the rows a per-row model keeps — every
/// conjunct evaluated in order, stopping at the first that fails, one
/// `PredEval` each — for `col ⋄ lit`, `lit ⋄ col` and `col ⋄ col`.
#[test]
fn a_filter_over_null_values_keeps_the_valid_matches() {
    use std::sync::Arc;

    use ecodb::query::chunk::Chunk;
    use ecodb::query::exec::execute;
    use ecodb::query::expr::{CmpOp, Expr};
    use ecodb::query::ops::Filter;
    use ecodb::storage::{ColumnChunk, ColumnType, DataChunk, Schema, Value};

    const N: usize = 60;
    let schema = Schema::new(&[
        ("i", ColumnType::Int),
        ("j", ColumnType::Int),
        ("d", ColumnType::Date),
        ("c", ColumnType::Char),
        ("s", ColumnType::Str),
    ]);
    let rows: Vec<Tuple> = (0..N as i64)
        .map(|r| {
            vec![
                Value::Int(r % 7 - 3),
                Value::Int(r % 5 - 2),
                Value::Date((r % 11) as i32),
                Value::Char(['A', 'N', 'R'][r as usize % 3]),
                Value::str(["AIR", "MAIL", "RAIL", "SHIP"][r as usize % 4]),
            ]
        })
        .collect();
    let plain = DataChunk::from_rows(&schema, &rows);
    let data = Arc::new(DataChunk::new(
        (plain.columns().iter().enumerate())
            .map(|(c, col)| {
                let valid = (0..N).map(|r| (r + 2 * c) % 5 != 0).collect();
                ColumnChunk::with_validity(col.data.clone(), valid)
            })
            .collect(),
    ));
    let valid = |e: &Expr, r: usize| match e {
        Expr::Col(c) => data.column(*c).validity.as_ref().is_none_or(|v| v[r]),
        _ => true,
    };
    let windows = |sparse: bool| -> Vec<Chunk> {
        (0..N)
            .step_by(16)
            .map(|start| {
                let window = start..(start + 16).min(N);
                let chunk = Chunk::window(Arc::clone(&data), window.clone());
                match sparse {
                    true => {
                        chunk.with_sel(window.filter(|r| r % 3 != 1).map(|r| r as u32).collect())
                    }
                    false => chunk,
                }
            })
            .collect()
    };

    let cmp = Expr::cmp;
    let conjunctions = [
        vec![cmp(CmpOp::Ge, Expr::col(0), Expr::int(0))],
        vec![cmp(CmpOp::Le, Expr::int(-1), Expr::col(0))],
        vec![cmp(CmpOp::Ne, Expr::col(0), Expr::col(1))],
        vec![
            cmp(CmpOp::Lt, Expr::col(2), Expr::date(8)),
            cmp(CmpOp::Gt, Expr::Lit(Value::Char('B')), Expr::col(3)),
            cmp(CmpOp::Ge, Expr::col(4), Expr::str("MAIL")),
        ],
        vec![
            cmp(CmpOp::Eq, Expr::col(4), Expr::col(4)),
            cmp(CmpOp::Le, Expr::col(1), Expr::col(0)),
        ],
    ];
    for arms in conjunctions {
        for sparse in [false, true] {
            let what = format!("{arms:?} sparse={sparse}");
            let mut want = Vec::new();
            let mut want_evals = 0;
            let mut scratch = ExecCtx::new();
            let mut live = 0;
            for chunk in windows(sparse) {
                live += chunk.len();
                chunk.rows().for_each(|_, r| {
                    let row = data.row(r);
                    let keep = arms.iter().all(|arm| {
                        want_evals += 1;
                        let Expr::Cmp(_, l, rhs) = arm else {
                            return false;
                        };
                        arm.eval_bool(&row, &mut scratch) && valid(l, r) && valid(rhs, r)
                    });
                    if keep {
                        want.push(row);
                    }
                });
            }
            let source = support::ChunkSource::new(schema.clone(), windows(sparse));
            let mut plan = Filter::new(Box::new(source), Expr::And(arms.clone()));
            let mut ctx = ExecCtx::new().with_columnar(true);
            let got = execute(&mut plan, &mut ctx);
            assert_eq!(got, want, "{what}: rows");
            assert!(
                !want.is_empty() && want.len() < live,
                "{what}: some rows pass and some fail"
            );
            assert_eq!(ctx.pred_evals, want_evals, "{what}: pred_evals");
            assert_eq!(
                ctx.ledger.cpu.count(OpClass::PredEval),
                want_evals,
                "{what}: PredEval"
            );
        }
    }
}

/// The merged scan `MergedSelection::try_new` builds for the QED batch
/// of 8 distinct quantities: a `MultiFilter` routing `lineitem` rows on
/// `l_quantity`.
fn merged_selection(cat: &Catalog) -> BoxedOp {
    let queries = ecodb::tpch::qed_workload(8);
    let merged = MergedSelection::try_new(cat, &queries).expect("a well-formed batch");
    Box::new(merged.into_plan())
}

/// The QED merged scan (MultiFilter) obeys the same contract, in both
/// short-circuit and exhaustive OR mode — the disjoint fast path and
/// the fan-out path both route through the columnar selection machinery.
#[test]
fn merged_selection_columnar_identical() {
    for short_circuit_or in [true, false] {
        let axes = Axes {
            passes: 1,
            short_circuit_or,
            chunks: vec![7, 1024],
            ..Axes::tpch(SCALE)
        };
        check("QED", &merged_selection, &axes);
    }
}

/// The merged scan at the extreme chunk sizes; the oracle's rows are
/// `MergedSelection::run`'s.
#[test]
fn merged_selection_scalar_batch_identical() {
    let axes = Axes {
        passes: 1,
        ..axes(EXTREME_CHUNKS)
    };
    let oracle = check("QED", &merged_selection, &axes);
    let rows = support::with_catalog(Storage::Memory(SCALE), |cat| {
        let queries = ecodb::tpch::qed_workload(8);
        MergedSelection::new(cat, &queries).run(&mut ExecCtx::new())
    });
    assert_eq!(rows, oracle[0].0);
}

/// A `LIMIT 25` over a streaming `l_quantity < 10` scan of `lineitem`,
/// cold: the columnar driver must consume — and charge — exactly as
/// much of the stream as the scalar oracle (the limit pulls its child
/// a row at a time in every engine), which stops the scan early.
fn check_limit(chunks: [usize; 3]) {
    use ecodb::query::expr::{CmpOp, Expr};
    use ecodb::query::ops::{Filter, Limit};

    let plan = |cat: &Catalog| -> BoxedOp {
        let scan = Box::new(SeqScan::new(cat.expect("lineitem")));
        let qty = cat.expect("lineitem").schema().expect_index("l_quantity");
        let filtered = Box::new(Filter::new(
            scan,
            Expr::cmp(CmpOp::Lt, Expr::col(qty), Expr::int(10)),
        ));
        Box::new(Limit::new(filtered, 25))
    };
    let axes = Axes {
        passes: 1,
        ..axes(chunks)
    };
    let total = support::source(SCALE).lineitem.len() as u64;
    for (rows, ctx) in check("limit", &plan, &axes) {
        assert_eq!(rows.len(), 25);
        let fetched = ctx.ledger.cpu.count(OpClass::TupleFetch);
        assert!(
            fetched < total,
            "limit failed to stop the scan: {fetched}/{total}"
        );
    }
}

#[test]
fn limit_over_streaming_pipeline_columnar_identical() {
    check_limit(CHUNKS);
}

#[test]
fn limit_over_streaming_pipeline_identical() {
    check_limit(EXTREME_CHUNKS);
}

/// Columnar is what `EcoDb` runs unless a test asks for an oracle.
#[test]
fn default_engine_is_columnar() {
    for profile in [EngineProfile::MemoryEngine, EngineProfile::CommercialDisk] {
        assert_eq!(EcoDb::tpch(profile, 0.002).engine(), ExecEngine::Columnar);
        assert_eq!(
            EcoDb::tpch_seeded(profile, 0.002, 7).engine(),
            ExecEngine::Columnar
        );
    }
}

/// The engine knob on the server facade: identical rows and identical
/// work traces (hence identical priced figures) under both engines —
/// the default and the oracle.
#[test]
fn ecodb_engine_knob_produces_identical_traces() {
    let mk = || EcoDb::tpch(EngineProfile::MemoryEngine, 0.002);
    let default_db = mk();
    let q1 = Query::Q1 { delta_days: 90 };
    let (rows_d, trace_d) = default_db.trace(&q1, 1).unwrap();
    for engine in [ExecEngine::Scalar, ExecEngine::Columnar] {
        let db = mk().with_engine(engine);
        assert_eq!(db.engine(), engine);
        let (rows, trace) = db.trace(&q1, 1).unwrap();
        assert_eq!(rows, rows_d, "{engine:?}: rows differ");
        trace_d[0]
            .total()
            .assert_same(&trace[0].total(), format_args!("{engine:?}"));
    }

    // The QED path honors the knob too.
    let queries = ecodb::tpch::qed_workload(5);
    let (split_d, qtrace_d) = default_db
        .try_trace_merged_selection(&queries, true)
        .unwrap();
    let oracle = mk().with_engine(ExecEngine::Scalar);
    let (split, qtrace) = oracle.try_trace_merged_selection(&queries, true).unwrap();
    assert_eq!(split, split_d);
    qtrace_d.total().assert_same(&qtrace.total(), "QED oracle");
}
