//! Property tests for the SQL front-end (no panics on arbitrary input,
//! structured round-trips), failure-injection tests for the storage
//! path (thrashing buffer pools, pathological batch shapes), and the
//! chaos suite: random fault plans × session mixes × both storage
//! profiles, with exact retry-ledger accounting.
//!
//! The vendored proptest runner derives its RNG seed from the test
//! name, so every chaos case is pinned: CI replays the exact same fault
//! plans on every run.

mod support;

use proptest::prelude::*;

use ecodb::core::server::{EcoDb, EngineProfile, Query};
use ecodb::core::ServerError;
use ecodb::query::context::ExecCtx;
use ecodb::query::error::ExecError;
use ecodb::query::exec::{execute, ExecEngine};
use ecodb::query::sql::{compile, parse_select, tokenize, SqlError};
use ecodb::server::{session_workload, EcoServer, ServerConfig, SessionOutcome, Statement};
use ecodb::simhw::fault::{FaultPlan, PageFault, TornTail, WalCrash};
use ecodb::simhw::machine::MachineConfig;
use ecodb::simhw::trace::DiskWork;
use ecodb::storage::page::PAGE_SIZE;
use ecodb::storage::{load_tpch, Catalog, EngineKind, TableData, Value};

fn shared_catalog() -> &'static Catalog {
    support::memory_db(0.002).catalog()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The lexer never panics on arbitrary input — it returns a token
    /// stream or a structured error.
    #[test]
    fn lexer_total_on_arbitrary_strings(s in ".{0,120}") {
        let _ = tokenize(&s);
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn parser_total_on_arbitrary_strings(s in ".{0,120}") {
        let _ = parse_select(&s);
    }

    /// The parser never panics on SQL-looking soup built from real
    /// keywords and symbols.
    #[test]
    fn parser_total_on_keyword_soup(words in proptest::collection::vec(
        prop_oneof![
            Just("select"), Just("from"), Just("where"), Just("group"), Just("by"),
            Just("order"), Just("limit"), Just("and"), Just("or"), Just("not"),
            Just("sum"), Just("count"), Just("("), Just(")"), Just(","), Just("*"),
            Just("="), Just("<"), Just(">="), Just("lineitem"), Just("l_quantity"),
            Just("17"), Just("'x'"), Just("date"), Just("between"), Just("in"),
        ], 0..25)
    ) {
        let sql = words.join(" ");
        let _ = parse_select(&sql);
    }

    /// Compilation against a real catalog never panics: every outcome
    /// is Ok(plan) or a structured SqlError.
    #[test]
    fn compile_total_on_keyword_soup(words in proptest::collection::vec(
        prop_oneof![
            Just("select"), Just("from"), Just("where"), Just("group"), Just("by"),
            Just("order"), Just("limit"), Just("and"), Just("sum"), Just("count"),
            Just("("), Just(")"), Just(","), Just("*"), Just("="), Just("<"),
            Just("lineitem"), Just("orders"), Just("l_quantity"), Just("l_orderkey"),
            Just("o_orderkey"), Just("5"), Just("'ASIA'"),
        ], 0..20)
    ) {
        let _ = compile_and_run(&words.join(" "));
    }

    /// Selections via SQL agree with direct filtering of the generated
    /// rows for arbitrary quantity thresholds.
    #[test]
    fn sql_selection_matches_oracle(threshold in 0i64..=51) {
        let cat = shared_catalog();
        let sql = format!(
            "SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < {threshold}"
        );
        let mut plan = compile(cat, &sql).expect("valid SQL");
        let mut ctx = ExecCtx::new();
        let rows = execute(plan.as_mut(), &mut ctx);
        // Independent oracle over the stored table.
        let li = cat.expect("lineitem");
        let qty = li.schema().expect_index("l_quantity");
        let ecodb::storage::TableData::Memory(heap) = &li.data else {
            panic!("memory table expected")
        };
        let want = heap
            .rows()
            .filter(|t| t[qty].as_int().unwrap() < threshold)
            .count() as i64;
        prop_assert_eq!(rows[0][0].as_int(), Some(want));
    }
}

/// The never-panic property's check: compile `sql` against the shared
/// catalog and, if it compiles, run it on the scalar oracle and on the
/// default (columnar) engine — neither may panic.
fn compile_and_run(sql: &str) -> Result<(), SqlError> {
    for engine in [ExecEngine::Scalar, ExecEngine::Columnar] {
        let mut plan = compile(shared_catalog(), sql)?;
        engine.execute(plan.as_mut(), &mut ExecCtx::new());
    }
    Ok(())
}

/// Pinned cases of the never-panic property: statements that used to
/// panic at execution — a non-boolean `WHERE`, arithmetic on a string,
/// `SUM`/`AVG` over a non-`Int` column, a literal zero divisor — are
/// bind errors, and `MIN`/`MAX` over non-`Int` columns (once declared
/// `Int`, which the columnar engine could not store) and a divisor
/// that is zero in the data (`l_discount` is 0 in about one row in
/// eleven; see the next test for the error it fails with) run, and so
/// does arithmetic that overflows: it wraps in every build, so
/// `i64::MIN / -1` is `i64::MIN` on both engines, not a panic. So does
/// a comparison of two literals (`'ASIA' = 'x'`, also under `IN` and
/// `BETWEEN`), which the columnar comparison kernel once had no case
/// for.
#[test]
fn pinned_statements_bind_or_run_without_panicking() {
    for sql in [
        "SELECT COUNT(*) AS n FROM lineitem WHERE 1",
        "SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity",
        "SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity + 1",
        "SELECT COUNT(*) AS n FROM lineitem WHERE NOT l_quantity",
        "SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 3 OR l_comment",
        "SELECT l_quantity + 'a' AS x FROM lineitem",
        "SELECT SUM(l_comment) AS s FROM lineitem",
        "SELECT AVG(l_shipdate) AS a FROM lineitem",
        "SELECT l_quantity / 0 AS x FROM lineitem",
    ] {
        let got = compile_and_run(sql);
        assert!(matches!(got, Err(SqlError::Bind(_))), "{sql}: {got:?}");
    }
    for sql in [
        "SELECT MIN(l_comment) AS s FROM lineitem",
        "SELECT MAX(l_shipdate) AS d, MIN(l_returnflag) AS f FROM lineitem",
        "SELECT l_returnflag, MAX(l_comment) AS s FROM lineitem GROUP BY l_returnflag",
        "SELECT MIN(l_comment) AS s FROM lineitem WHERE l_quantity > 1000",
        "SELECT COUNT(*) AS n FROM lineitem WHERE NOT l_quantity < 3 OR 1 = 1",
        "SELECT l_quantity / l_discount AS x FROM lineitem",
        OVERFLOW,
        LITERALS,
        "SELECT COUNT(*) AS n FROM lineitem WHERE DATE '1995-03-15' < DATE '1996-01-01'",
    ] {
        compile_and_run(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    // The columnar engine returns what the oracle returns, typed.
    let run = |engine: ExecEngine, sql: &str| {
        let mut plan = compile(shared_catalog(), sql).expect("binds");
        engine.execute(plan.as_mut(), &mut ExecCtx::new())
    };
    let sql = "SELECT MIN(l_comment) AS s, MAX(l_shipdate) AS d FROM lineitem";
    let rows = run(ExecEngine::Columnar, sql);
    assert_eq!(rows, run(ExecEngine::Scalar, sql));
    assert!(rows[0][0].as_str().is_some() && rows[0][1].as_date().is_some());
    let rows = run(ExecEngine::Columnar, OVERFLOW);
    assert_eq!(rows, run(ExecEngine::Scalar, OVERFLOW));
    assert_eq!(
        rows,
        vec![vec![Value::Int(0)]],
        "i64::MIN / -1 wraps to i64::MIN"
    );
    let rows = run(ExecEngine::Columnar, LITERALS);
    assert_eq!(rows, run(ExecEngine::Scalar, LITERALS));
    assert_eq!(rows.len(), 25, "one row per nation");
}

/// Literals compared with each other: `'ASIA' = 'x'` is false on every
/// row, the `IN` list and `BETWEEN` hold where the name allows.
const LITERALS: &str = "SELECT 'ASIA' = 'x' AS e, 'x' IN (n_name, 'x') AS i, \
                        'x' BETWEEN 'ASIA' AND n_name AS b FROM nation";

/// `(i64::MIN) / (-1)` in every row, built from column arithmetic that
/// overflows on the way.
const OVERFLOW: &str = "SELECT COUNT(*) AS c FROM lineitem \
    WHERE (l_quantity - l_quantity - 9223372036854775807 - 1) / (0 - 1) > 0";

/// A divisor that is zero in the data fails the statement with a typed
/// error — wherever the division sits, on both storage profiles, on the
/// row oracle and the columnar engine, serial and morsel-parallel — and
/// the database keeps serving.
#[test]
fn a_zero_divisor_in_the_data_is_a_typed_error() {
    let statements = [
        "SELECT l_quantity / l_discount AS x FROM lineitem",
        "SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity / l_discount > 5",
        "SELECT l_returnflag, SUM(l_quantity / l_discount) AS s FROM lineitem \
         GROUP BY l_returnflag",
    ];
    let zero = ServerError::Data(ExecError::DivisionByZero);
    for profile in [EngineProfile::MemoryEngine, EngineProfile::CommercialDisk] {
        let mut db = EcoDb::tpch(profile, 0.002);
        for engine in [ExecEngine::Scalar, ExecEngine::Columnar] {
            db = db.with_engine(engine);
            for sql in statements {
                let got = db.try_trace_sql(sql).map(|(rows, _)| rows.len());
                assert_eq!(got, Err(zero.clone()), "{profile:?} {engine:?}: {sql}");
            }
            let (rows, _) = db
                .try_trace_sql("SELECT l_quantity / l_tax AS x FROM lineitem WHERE l_tax > 0")
                .expect("a divisor that is never zero divides");
            assert!(!rows.is_empty());
        }
    }
    for workers in [1, 4] {
        for sql in statements {
            let mut plan = compile(shared_catalog(), sql).expect("binds");
            let mut ctx = ExecCtx::new().with_columnar(true).with_workers(workers);
            execute(plan.as_mut(), &mut ctx);
            assert_eq!(
                ctx.take_error(),
                Some(ExecError::DivisionByZero),
                "{workers} workers: {sql}"
            );
        }
    }
}

// --- failure injection -------------------------------------------------------

/// A buffer pool far smaller than the working set: queries still return
/// correct answers, just with (much) more I/O charged.
#[test]
fn thrashing_pool_preserves_correctness() {
    let db = support::source(0.002);
    let roomy = load_tpch(db, EngineKind::Disk, 1 << 20);
    let tiny = load_tpch(db, EngineKind::Disk, 3); // three pages!

    // lineitem ⋈ orders spans many pages, far beyond the tiny pool.
    let sql = "SELECT o_orderstatus, COUNT(*) AS c FROM lineitem, orders \
               WHERE l_orderkey = o_orderkey GROUP BY o_orderstatus ORDER BY o_orderstatus";
    let run = |cat: &Catalog| {
        let mut plan = compile(cat, sql).unwrap();
        let mut ctx = ExecCtx::new();
        (execute(plan.as_mut(), &mut ctx), ctx.ledger.disk)
    };
    let (rows_roomy, _) = run(&roomy);
    let (rows_tiny, io_tiny) = run(&tiny);
    assert_eq!(rows_roomy, rows_tiny, "thrashing must not change answers");
    assert_ne!(io_tiny, DiskWork::none());

    // And rescans under the tiny pool keep paying.
    let (rows_again, io_again) = run(&tiny);
    assert_eq!(rows_again, rows_tiny);
    assert_ne!(io_again, DiskWork::none(), "tiny pool cannot stay warm");
}

/// A cold tiny-pool Q5 on the commercial profile is correct and far
/// more expensive than the roomy warm case.
#[test]
fn q5_survives_pathological_pool() {
    let src = support::source(0.002);
    let tiny = load_tpch(src, EngineKind::Disk, 2);
    let mut plan = support::Q5(&tiny);
    let mut ctx = ExecCtx::new();
    let rows = execute(plan.as_mut(), &mut ctx);

    let mem = load_tpch(src, EngineKind::Memory, 0);
    let mut mem_plan = support::Q5(&mem);
    let mut mem_ctx = ExecCtx::new();
    let mem_rows = execute(mem_plan.as_mut(), &mut mem_ctx);
    assert_eq!(rows, mem_rows);
    assert!(ctx.ledger.disk.total_bytes() > 0);
}

/// Degenerate QED batches: batch of 1 equals plain execution.
#[test]
fn qed_batch_of_one_is_a_noop() {
    let q = ecodb::tpch::qed_workload(1);
    for engine in [ExecEngine::Columnar, ExecEngine::Scalar] {
        let db = EcoDb::tpch(EngineProfile::MemoryEngine, 0.002).with_engine(engine);
        let (split, _) = db.try_trace_merged_selection(&q, true).unwrap();
        let (direct, _) = db.trace(&Query::Selection(&q[0]), 1).unwrap();
        assert_eq!(split.len(), 1, "{engine:?}");
        assert_eq!(split[0], direct, "{engine:?}");
    }
}

// --- chaos: deterministic fault injection across sessions --------------------

/// Sum the faults a plan injects on the `lineitem` pages (the only
/// table the selection workload scans): expected transient retries and
/// whether any page faults permanently. Memory-engine catalogs have no
/// disk pages, so the plan is inert there (`(0, false)`).
fn lineitem_faults(db: &EcoDb, plan: FaultPlan) -> (u64, bool) {
    let li = db.catalog().expect("lineitem");
    let TableData::Disk(dt) = &li.data else {
        return (0, false);
    };
    let mut retries = 0u64;
    let mut any_permanent = false;
    for (_, fault) in plan.faults_in_table(dt.table_id(), dt.num_pages() as u64) {
        match fault {
            PageFault::Transient { failures } => retries += u64::from(failures),
            PageFault::Permanent => any_permanent = true,
            PageFault::Stall { .. } => {}
        }
    }
    (retries, any_permanent)
}

/// A permanently unreadable `lineitem` page fails a cold Q6 with a
/// typed I/O error at every worker count — the morsel workers' scans
/// meet it too — and once the plan is cleared and the pool flushed the
/// same statement runs.
#[test]
fn a_permanent_read_fault_fails_a_parallel_statement_with_a_typed_error() {
    let db = EcoDb::tpch(EngineProfile::CommercialDisk, 0.002);
    let plan = (0..)
        .map(|seed| FaultPlan::new(seed, 20_000))
        .find(|&plan| lineitem_faults(&db, plan).1)
        .expect("some seed faults a lineitem page permanently");
    let q6 = Query::Q6 {
        year: 1994,
        discount_pct: 6,
        max_qty: 24,
    };
    db.set_fault_plan(plan);
    for workers in [1, 2, 4] {
        db.flush_cache();
        let got = db.trace(&q6, workers);
        assert!(
            matches!(got, Err(ServerError::Io(ExecError::Io(_)))),
            "{workers} workers: {got:?}"
        );
    }
    db.set_fault_plan(FaultPlan::none());
    for workers in [1, 2, 4] {
        db.flush_cache();
        let (rows, traces) = db.trace(&q6, workers).expect("fault-free again");
        assert_eq!(rows.len(), 1, "{workers} workers");
        assert_eq!(traces.len(), workers);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Chaos: random fault plans × random session mixes × both storage
    /// profiles — with write-path fault points in the mix. Every
    /// fourth session submits an `INSERT` (staged through the WAL and
    /// group-committed), and the plan may carry a [`WalCrash`] point.
    /// The server must never panic; every rejection is typed (`Io`
    /// only when the plan holds a permanent page fault, `Wal` only
    /// when a crash point is installed); and for plans whose crash
    /// never fires the read-path accounting is exact: `retry_ios`
    /// equals the injected transient-failure count and every base
    /// ledger class is bit-identical to a no-fault run of the same
    /// sessions (inserts are constant-cost, so the rerun's ledger
    /// matches even though the first run already grew `region`).
    #[test]
    fn chaos_random_fault_plans_degrade_gracefully(
        seed in 0u64..1_000_000,
        rate_ppm in 0u32..400_000,
        sessions in 4usize..20,
        threshold in 1usize..6,
        wal_kind in 0u8..8,
        wal_at in 0u64..24,
    ) {
        // Five of eight draws install a write-path crash point; the
        // rest keep the original pure read-fault chaos.
        let wal_crash = match wal_kind {
            0 => Some(WalCrash::KillAfterRecords { records: wal_at, torn: TornTail::None }),
            1 => Some(WalCrash::KillAfterRecords { records: wal_at, torn: TornTail::MidHeader }),
            2 => Some(WalCrash::KillAfterRecords { records: wal_at, torn: TornTail::MidPayload }),
            3 | 4 => Some(WalCrash::FsyncFailure { fsync: wal_at / 4 }),
            _ => None,
        };
        for profile in [EngineProfile::MemoryEngine, EngineProfile::CommercialDisk] {
            let mut db = EcoDb::tpch(profile, 0.002);
            let mut plan = FaultPlan::new(seed, rate_ppm);
            if let Some(crash) = wal_crash {
                plan = plan.with_wal_crash(crash);
            }
            db.set_fault_plan(plan);
            db.flush_cache();
            let mut requests = session_workload(sessions, 500.0, seed);
            for (i, r) in requests.iter_mut().enumerate() {
                if i % 4 == 3 {
                    let key = 1000 + i;
                    r.statement = Statement::Sql(format!(
                        "INSERT INTO region VALUES ({key}, 'C{key}', 'chaos')"
                    ));
                }
            }
            let cfg = ServerConfig::batched(2, threshold);
            // The serve loop must terminate with one typed outcome per
            // request, whatever the plan injects.
            let report = EcoServer::new(&db, cfg).serve(&requests);
            prop_assert_eq!(report.outcomes.len(), sessions);

            let (expected_retries, any_permanent) = lineitem_faults(&db, plan);
            let mut wal_rejections = 0usize;
            for o in &report.outcomes {
                if let SessionOutcome::Rejected { error, .. } = o {
                    match error {
                        ServerError::Io(_) => {
                            prop_assert!(any_permanent, "Io rejection needs a permanent fault");
                        }
                        ServerError::Wal(_) => {
                            prop_assert!(wal_crash.is_some(), "Wal rejection needs a crash point");
                            wal_rejections += 1;
                        }
                        other => {
                            return Err(TestCaseError::fail(format!(
                                "unexpected rejection class: {other}"
                            )));
                        }
                    }
                }
            }
            let wal_fired = db.wal_crashed();
            prop_assert_eq!(
                wal_fired, wal_rejections > 0,
                "a fired crash point rejects at least one writer, an unfired one rejects none"
            );
            prop_assert!(report.ledger_identity());

            // No-fault baseline over the same sessions, same pool
            // state. A fired crash point poisons the log, so recovery
            // must first restore the write path.
            db.set_fault_plan(FaultPlan::none());
            if wal_fired {
                db.recover().expect("recovery restores the write path after chaos");
            }
            db.flush_cache();
            let clean = EcoServer::new(&db, cfg).serve(&requests);
            prop_assert_eq!(clean.io_failed, 0);

            if wal_fired {
                // The crash truncated the first run mid-workload:
                // ledger comparisons against the clean rerun are
                // meaningless, but the healed server serves in full.
                prop_assert!(clean.outcomes.iter().all(|o| o.is_completed()));
                continue;
            }

            if matches!(profile, EngineProfile::MemoryEngine) {
                // Heap tables never touch the buffer pool: any fault
                // plan is inert and the ledgers agree bit for bit.
                prop_assert_eq!(report.served, sessions);
                prop_assert_eq!(&report.ledger, &clean.ledger);
                continue;
            }

            if !any_permanent {
                // Transient/stall faults always recover: full service,
                // exact retry accounting, and base classes identical to
                // the no-fault ledger.
                prop_assert_eq!(report.served, clean.served);
                prop_assert_eq!(report.ledger.disk.retry_ios, expected_retries);
                prop_assert_eq!(
                    report.ledger.disk.retry_bytes,
                    expected_retries * PAGE_SIZE as u64
                );
                clean
                    .ledger
                    .assert_same(&report.ledger.without_schema(2), "base classes vs fault-free");
                // The per-session fork/merge round trip stays exact
                // with the v2 retry classes in play.
                prop_assert!(report.ledger_identity());
            } else {
                // Permanent faults: merged batches touching the bad
                // page fail their sessions; everything else still
                // completes and nothing is double-charged.
                prop_assert!(report.io_failed > 0);
                prop_assert_eq!(report.served + report.failed + report.shed, sessions);
                prop_assert!(report.ledger_identity());
            }
        }
    }
}

/// An empty-result SQL query flows through the whole pricing stack.
#[test]
fn empty_results_price_cleanly() {
    let db = EcoDb::tpch(EngineProfile::MemoryEngine, 0.002);
    let (rows, trace) = db
        .try_trace_sql("SELECT l_orderkey FROM lineitem WHERE l_quantity = 99")
        .unwrap();
    assert!(rows.is_empty());
    assert!(
        db.price(&trace, MachineConfig::stock()).cpu_joules > 0.0,
        "the scan still costs energy"
    );
}
