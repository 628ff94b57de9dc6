//! The DBMS server facade: engine profiles, admission/parse accounting,
//! client round trips, and the execute-once/price-many workflow.
//!
//! Two [`EngineProfile`]s stand in for the paper's systems under test:
//!
//! * [`EngineProfile::MemoryEngine`] — MySQL 5.1 with the `MEMORY`
//!   storage engine (§3.3: "we used the memory storage engine of MySQL
//!   to stress the CPU"): heap tables, tiny client gaps, near-100 %
//!   CPU utilization.
//! * [`EngineProfile::CommercialDisk`] — the unnamed commercial DBMS:
//!   paged tables behind a buffer pool, heavier client/server round
//!   trips, and residual warm-run disk traffic (§3.5 observes the disk
//!   stays active even when the working set fits in memory).
//!
//! Client round trips are *frequency-independent* wall time (the paper
//! leaves SpeedStep free to down-clock during them); their length is
//! sized relative to the stock-setting execution time so experiments
//! remain meaningful across scale factors.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use eco_query::context::ExecCtx;
use eco_query::error::ExecError;
use eco_query::exec::{execute, execute_rows, ExecEngine};
use eco_query::mqo::{MergeError, MergedSelection};
use eco_query::ops::BoxedOp;
use eco_query::plans;
use eco_query::sql::{execute_dml, DmlOutcome, Statement};
use eco_simhw::fault::FaultPlan;
use eco_simhw::machine::{Machine, MachineConfig, Measurement};
use eco_simhw::multicore::MultiCoreMachine;
use eco_simhw::trace::{OpClass, Phase, PhaseKind, PricingMode, WorkTrace};
use eco_storage::{
    load_generated, Catalog, EngineKind, RowSet, StoredTable, Tuple, Value, WalError, WalRecord,
    WriteAheadLog,
};
use eco_tpch::{q5_workload, Date, Q5Params, QedQuery, TpchDb, TpchGenerator};
use parking_lot::Mutex;

/// Which of the paper's two systems this database emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineProfile {
    /// MySQL `MEMORY`-engine profile: CPU-bound, minimal gaps.
    MemoryEngine,
    /// Commercial disk-DBMS profile: buffer pool, bigger round trips,
    /// light residual disk traffic when warm.
    CommercialDisk,
}

impl EngineProfile {
    /// Storage engine used by this profile.
    pub fn engine_kind(self) -> EngineKind {
        match self {
            EngineProfile::MemoryEngine => EngineKind::Memory,
            EngineProfile::CommercialDisk => EngineKind::Disk,
        }
    }

    /// Client round-trip time as a fraction of the statement's
    /// stock-setting busy time.
    pub(crate) fn gap_fraction(self) -> f64 {
        match self {
            // Thin client loop against a local memory engine.
            EngineProfile::MemoryEngine => 0.06,
            // JDBC against the commercial server: result marshalling,
            // statement handling, OS scheduling.
            EngineProfile::CommercialDisk => 0.85,
        }
    }

    /// Warm-run residual disk traffic: one page re-read per this many
    /// buffer pool hits (None = silent when warm).
    pub fn warm_reread_every(self) -> Option<u64> {
        match self {
            EngineProfile::MemoryEngine => None,
            EngineProfile::CommercialDisk => Some(2500),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EngineProfile::MemoryEngine => "mysql-memory",
            EngineProfile::CommercialDisk => "commercial-disk",
        }
    }
}

/// A typed server-side statement failure.
///
/// A malformed statement is a *session* error: the session layer
/// (`eco-server`) returns it to the submitting session; the scheduler
/// and every other in-flight session keep running. Before this type,
/// the execute path panicked on malformed batches, so one bad
/// statement could take down the whole server.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    /// The statement batch could not be merged (empty batch, missing
    /// table).
    Merge(MergeError),
    /// The statement's SQL failed to lex, parse or bind.
    Sql(eco_query::sql::SqlError),
    /// `CREATE INDEX` was rejected by the catalog: duplicate name,
    /// unknown table or column, or a memory-engine table (secondary
    /// indexes are paged structures over the disk engine).
    Index(eco_storage::IndexError),
    /// The statement was rejected by admission control (server over
    /// its energy/backlog knee).
    Shed {
        /// Statements already queued when this one was rejected.
        queued: usize,
    },
    /// Execution hit an unrecoverable disk fault (a page whose retry
    /// budget was exhausted — see [`ExecError::Io`]). Fails only the
    /// statement (and its owning session); the server keeps serving.
    Io(ExecError),
    /// Execution met a value it cannot compute with: a zero divisor in
    /// the data ([`ExecError::DivisionByZero`]). Fails only the
    /// statement, like a bind error, and is no sign of storage trouble.
    Data(ExecError),
    /// The write path failed: the write-ahead log hit its installed
    /// crash point, an fsync failed, or recovery found the log
    /// unreplayable (see [`WalError`]). Mutations stop until
    /// [`EcoDb::recover`] runs; reads keep serving.
    Wal(WalError),
    /// The statement is not a batchable selection. The QED batch path
    /// accepts only single-predicate selections; everything else
    /// (ad-hoc SQL, DML) dispatches solo. Consumers that require the
    /// selection variant get this typed rejection instead of a panic.
    NotSelection {
        /// Debug rendering of the offending statement.
        statement: String,
    },
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Merge(e) => write!(f, "merge error: {e}"),
            ServerError::Sql(e) => write!(f, "SQL error: {e}"),
            ServerError::Index(e) => write!(f, "index error: {e}"),
            ServerError::Shed { queued } => {
                write!(f, "admission control shed the statement ({queued} queued)")
            }
            ServerError::Io(e) => write!(f, "I/O error: {e}"),
            ServerError::Data(e) => write!(f, "data error: {e}"),
            ServerError::Wal(e) => write!(f, "WAL error: {e}"),
            ServerError::NotSelection { statement } => {
                write!(f, "statement is not a batchable selection: {statement}")
            }
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Merge(e) => Some(e),
            ServerError::Sql(e) => Some(e),
            ServerError::Index(e) => Some(e),
            ServerError::Shed { .. } => None,
            ServerError::Io(e) | ServerError::Data(e) => Some(e),
            ServerError::Wal(e) => Some(e),
            ServerError::NotSelection { .. } => None,
        }
    }
}

impl From<WalError> for ServerError {
    fn from(e: WalError) -> Self {
        ServerError::Wal(e)
    }
}

impl From<MergeError> for ServerError {
    fn from(e: MergeError) -> Self {
        ServerError::Merge(e)
    }
}

impl From<eco_query::sql::SqlError> for ServerError {
    fn from(e: eco_query::sql::SqlError) -> Self {
        ServerError::Sql(e)
    }
}

impl From<ExecError> for ServerError {
    fn from(e: ExecError) -> Self {
        match e {
            ExecError::Io(_) => ServerError::Io(e),
            ExecError::DivisionByZero => ServerError::Data(e),
        }
    }
}

impl From<eco_storage::IndexError> for ServerError {
    fn from(e: eco_storage::IndexError) -> Self {
        ServerError::Index(e)
    }
}

/// A statement the facade plans by hand: the paper's TPC-H queries and
/// the QED selection unit. [`EcoDb::trace`] runs one at any worker
/// count; ad-hoc SQL goes through [`EcoDb::try_trace_sql`] and merged
/// QED batches through [`EcoDb::try_trace_merged_selection`].
#[derive(Debug, Clone, Copy)]
pub enum Query<'a> {
    /// TPC-H Q1, `delta_days` before the shipdate cut.
    Q1 {
        /// The query's `DELTA` substitution parameter.
        delta_days: i32,
    },
    /// TPC-H Q3.
    Q3 {
        /// Customer market segment.
        segment: &'a str,
        /// Order-date / ship-date cut.
        cut: Date,
    },
    /// TPC-H Q5, the PVC workload's statement.
    Q5(&'a Q5Params),
    /// TPC-H Q6.
    Q6 {
        /// Shipdate year.
        year: i32,
        /// Centre of the discount band, in percent.
        discount_pct: i64,
        /// Exclusive quantity bound.
        max_qty: i64,
    },
    /// Single `l_quantity` selection (the QED unit).
    Selection(&'a QedQuery),
}

impl Query<'_> {
    /// The statement's approximate token count (it drives the parse and
    /// plan charge), its execute-phase label and its hand-built plan.
    fn plan(&self, catalog: &Catalog) -> (u64, String, BoxedOp) {
        match *self {
            Query::Q1 { delta_days } => (36, "Q1".into(), plans::q1_plan(catalog, delta_days)),
            Query::Q3 { segment, cut } => (48, "Q3".into(), plans::q3_plan(catalog, segment, cut)),
            Query::Q5(params) => (64, params.label(), plans::q5_plan(catalog, params)),
            Query::Q6 {
                year,
                discount_pct,
                max_qty,
            } => (
                30,
                "Q6".into(),
                plans::q6_plan(catalog, year, discount_pct, max_qty),
            ),
            Query::Selection(q) => (12, q.label(), plans::selection_plan(catalog, q)),
        }
    }
}

/// The write-ahead log plus the transaction counter that frames it.
/// One mutex over both: writers serialize on the log anyway, and the
/// commit marker must carry the next id atomically with its append.
#[derive(Debug)]
struct WalState {
    log: WriteAheadLog,
    next_txn: u64,
}

/// Where crash recovery restarts from: the table state the log's first
/// record applies to. Taken when the database opens and again at the
/// end of every [`EcoDb::recover`], which is also when the log restarts
/// empty — so *checkpoint + log* is always the whole committed history,
/// however many crashes it spans.
///
/// The tables are pointer clones of the catalog's
/// ([`Catalog::tables`]): until a table is mutated the checkpoint costs
/// nothing, and then what the mutation copies — a paged table's page
/// pointers and the pages it rewrites, a heap table's columns, once —
/// not the database.
struct Checkpoint {
    tables: BTreeMap<String, Arc<StoredTable>>,
    /// The transaction counter at the checkpoint: where it resumes if
    /// the log commits nothing.
    next_txn: u64,
}

/// What a crash-recovery pass found and rebuilt (see [`EcoDb::recover`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Committed transaction ids replayed, in commit order.
    pub committed_txns: Vec<u64>,
    /// Redo records re-applied (commit markers excluded).
    pub records_replayed: usize,
    /// Whether the log image ended in a torn (partially written) record
    /// — trimmed, never replayed.
    pub torn_tail: bool,
    /// Records that were appended but never covered by a commit marker
    /// — discarded, never replayed.
    pub uncommitted_records: usize,
    /// Secondary indexes re-created over the recovered tables.
    pub indexes_rebuilt: usize,
}

/// The ecoDB server: a catalog + machine + profile.
pub struct EcoDb {
    profile: EngineProfile,
    scale: f64,
    seed: u64,
    /// Built by the first [`Self::source`] call, if any.
    source: OnceLock<TpchDb>,
    catalog: Catalog,
    machine: Machine,
    engine: ExecEngine,
    pricing: PricingMode,
    wal: Mutex<WalState>,
    checkpoint: Checkpoint,
}

impl EcoDb {
    /// Open a TPC-H database at `scale` under the given profile
    /// (deterministic default seed).
    pub fn tpch(profile: EngineProfile, scale: f64) -> Self {
        Self::tpch_seeded(profile, scale, TpchGenerator::default().seed)
    }

    /// Open with an explicit generator seed. The tables are loaded
    /// straight from the generator's stream ([`load_generated`]); the
    /// source rows are not kept (see [`Self::source`]).
    pub fn tpch_seeded(profile: EngineProfile, scale: f64, seed: u64) -> Self {
        let generator = TpchGenerator::with_seed(scale, seed);
        // Pool sized to hold everything: the paper notes "the size of
        // the raw tables is less than the main memory capacity".
        let catalog = load_generated(&generator, profile.engine_kind(), 1 << 22);
        catalog
            .pool()
            .set_warm_reread_every(profile.warm_reread_every());
        let checkpoint = Checkpoint {
            tables: catalog.tables(),
            next_txn: 1,
        };
        Self {
            profile,
            scale,
            seed,
            source: OnceLock::new(),
            checkpoint,
            catalog,
            machine: Machine::paper_sut(),
            engine: ExecEngine::Columnar,
            pricing: PricingMode::Raw,
            wal: Mutex::new(WalState {
                log: WriteAheadLog::new(),
                next_txn: 1,
            }),
        }
    }

    /// The execution engine driving statements — SQL, the hand-built
    /// plans, merged QED scans, and everything `eco-server` and
    /// `experiments` run on top. [`ExecEngine::Columnar`] unless
    /// [`Self::with_engine`] chose otherwise.
    pub fn engine(&self) -> ExecEngine {
        self.engine
    }

    /// Same database with a different execution engine (builder style).
    ///
    /// This is how the differential tests reach their oracle: scalar
    /// and columnar execution produce identical rows and bit-identical
    /// summed energy ledgers at every worker count, so every PVC/QED
    /// sweep and paper grid yields the same figures under either — only
    /// the wall-clock cost of *producing* the traces differs, and
    /// columnar (the default) is the cheaper. Per-core traces differ
    /// above one worker: the scalar oracle runs serial, so its whole
    /// statement lands on core 0. Nothing outside tests and the
    /// engine-comparison checks needs to call this.
    pub fn with_engine(mut self, engine: ExecEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Same database with a different pricing mode (builder style).
    ///
    /// Unlike [`EcoDb::with_engine`] this is *not* a pure throughput
    /// knob: under [`PricingMode::Compressed`] scans price *encoded*
    /// byte counts as memory traffic and dictionary-reading kernels
    /// charge `DictLookup` (ledger schema v3), so ledgers differ from
    /// raw mode by design. Raw mode stays bit-identical to pre-v3.
    pub fn with_pricing(mut self, pricing: PricingMode) -> Self {
        self.pricing = pricing;
        self
    }

    /// A fresh [`ExecCtx`] configured for this database's engine and
    /// pricing mode, running on `workers` threads (0 counts as 1).
    fn exec_ctx(&self, workers: usize) -> ExecCtx {
        ExecCtx::new()
            .with_columnar(self.engine == ExecEngine::Columnar)
            .with_pricing(self.pricing)
            .with_workers(workers.max(1))
    }

    /// The scale factor.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The simulated machine (for custom measurements).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The catalog (for custom plans).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The generated source rows (reference oracles in tests), built
    /// from the same generator on the first call: a database nobody
    /// asks holds none.
    pub fn source(&self) -> &TpchDb {
        self.source
            .get_or_init(|| TpchGenerator::with_seed(self.scale, self.seed).generate())
    }

    /// Model a reboot: drop the buffer pool (next run is cold).
    /// No-op for the memory engine.
    pub fn flush_cache(&self) {
        self.catalog.pool().flush();
    }

    /// Install a deterministic disk-fault schedule (see [`FaultPlan`]).
    /// Faults fire on buffer-pool misses: transient faults cost retry
    /// I/O and backoff (new v2 ledger classes, zero when fault-free);
    /// permanent faults surface as [`ServerError::Io`] on the fallible
    /// statement paths. [`FaultPlan::none`] (the default) disables
    /// injection entirely.
    ///
    /// A plan carrying a [`WalCrash`](eco_simhw::fault::WalCrash)
    /// additionally arms the write-ahead log's crash point: the write
    /// path dies at the scheduled append or fsync with
    /// [`ServerError::Wal`], after which [`EcoDb::recover`] rebuilds
    /// the committed-prefix state.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.wal.lock().log.set_crash(plan.wal_crash());
        self.catalog.pool().set_fault_plan(plan);
    }

    /// Pre-warm the buffer pool by running the 10-query Q5 workload
    /// once, discarding the trace. Tolerates injected faults (a
    /// permanently unreadable page leaves that page cold; everything
    /// else still warms).
    pub fn warm_up(&self) {
        for params in q5_workload() {
            let _ = self.trace(&Query::Q5(&params), 1);
        }
    }

    // --- trace builders (execute once, price under any config) -----------

    /// Execute `q` as one client statement on `workers` threads and
    /// return its rows and one trace per core: the one statement path.
    ///
    /// At one worker (0 counts as 1) the vec holds one trace: a client
    /// round-trip gap phase, then the execute phase (parse + plan work
    /// included) labelled as the statement. Above one, core 0 (the
    /// coordinator) carries the gap and all serial work and cores 1..
    /// their workers' shares, each phase labelled `[core w]`; the
    /// merged ledger equals the serial trace's, and so do the rows. A
    /// page read whose retry budget is exhausted comes back as
    /// [`ServerError::Io`], a zero divisor in the data as
    /// [`ServerError::Data`], failing only this statement. On the
    /// columnar engine the serial rows are a view of the plan's final
    /// chunks ([`RowSet`]): no row is built until a caller reads one,
    /// and comparing it builds none.
    pub fn trace(
        &self,
        q: &Query,
        workers: usize,
    ) -> Result<(RowSet, Vec<WorkTrace>), ServerError> {
        let (tokens, label, mut plan) = q.plan(&self.catalog);
        let mut ctx = self.exec_ctx(workers);
        ctx.charge(OpClass::Parse, tokens);
        let rows = execute_rows(plan.as_mut(), &mut ctx);
        Ok((rows, self.statement_traces(&mut ctx, &label, None)?))
    }

    /// Turn a drained statement context into per-core traces — the one
    /// assembly every statement path shares. An error the run recorded
    /// fails the statement. Otherwise the ledger becomes one execute
    /// phase labelled `label` at one worker, or one phase per core
    /// ([`ExecCtx::take_core_phases`]) above that; the client
    /// round-trip gap — sized from the statement's *total* stock busy
    /// time, since the round trip does not shrink with intra-query
    /// parallelism — precedes core 0's phase, and the optional client
    /// `tail` (the QED result split) follows it.
    fn statement_traces(
        &self,
        ctx: &mut ExecCtx,
        label: &str,
        tail: Option<Phase>,
    ) -> Result<Vec<WorkTrace>, ServerError> {
        if let Some(e) = ctx.take_error() {
            return Err(e.into());
        }
        let phases = match ctx.workers {
            1 => vec![ctx.take_phase(PhaseKind::Execute, label)],
            cores => ctx.take_core_phases(cores, label),
        };
        let total = Phase {
            ledger: phases.iter().map(|p| &p.ledger).sum(),
            ..Phase::execute(label)
        };
        // Core 0, the first phase, takes the gap and the tail.
        let (mut gap, mut tail) = (Some(self.gap_before(&total)), tail);
        let core_trace = |phase| {
            [gap.take(), Some(phase), tail.take()]
                .into_iter()
                .flatten()
                .collect()
        };
        Ok(phases.into_iter().map(core_trace).collect())
    }

    /// The client round-trip gap preceding an execution phase.
    fn gap_before(&self, exec_phase: &Phase) -> Phase {
        let busy = self.machine.stock_busy_seconds(exec_phase);
        let gap_ns = (busy * self.profile.gap_fraction() * 1e9).round() as u64;
        Phase::client_gap(gap_ns.max(1))
    }

    /// A multi-core view of this database's machine.
    pub fn multicore(&self, cores: usize) -> MultiCoreMachine {
        MultiCoreMachine {
            machine: self.machine.clone(),
            cores,
        }
    }

    /// Trace a merged QED batch serially: gap, merged execution, and
    /// the application-side result split (client compute phase) —
    /// [`Self::try_trace_merged_selection_cores`] on one worker.
    /// Returns per-query result sets; malformed batches come back as a
    /// typed [`ServerError`] instead of a panic.
    pub fn try_trace_merged_selection(
        &self,
        queries: &[QedQuery],
        short_circuit: bool,
    ) -> Result<(Vec<RowSet>, WorkTrace), ServerError> {
        let (split, traces) = self.try_trace_merged_selection_cores(queries, short_circuit, 1)?;
        Ok((split, traces.into_iter().collect()))
    }

    /// Trace a merged QED batch across `workers` cores (0 counts as 1):
    /// the one shared merged-batch path (offline QED replay *and* the
    /// online batcher in `eco-server` price through here). Validate and
    /// build the [`MergedSelection`] — a malformed batch comes back as
    /// a typed [`ServerError`], so a session layer can reject it
    /// without dying — charge the merged parse, run the disjunctive
    /// scan morsel-parallel and the application-side split in one pass
    /// ([`MergedSelection::run_split`]), and assemble
    /// gap/execute/split phases into traces. The split is client work:
    /// its phase follows the execute phase on core 0, with the round
    /// trip before it. On the columnar engine the per-query
    /// [`RowSet`]s are views of the scan's columns: the ledger prices
    /// every routed row, but the host builds none until a caller reads
    /// one (see [`RowSet::tuples`]), and a held result keeps the table
    /// version it scanned.
    ///
    /// The serial layout (one worker) reproduces the historical single
    /// trace (gap, `qed×k` execute, split) byte-for-byte, so every
    /// offline QED figure is unchanged by routing through here.
    pub fn try_trace_merged_selection_cores(
        &self,
        queries: &[QedQuery],
        short_circuit: bool,
        workers: usize,
    ) -> Result<(Vec<RowSet>, Vec<WorkTrace>), ServerError> {
        let mut ctx = self.exec_ctx(workers);
        ctx.short_circuit_or = short_circuit;
        // A selection's 12 tokens plus 3 per merged predicate.
        ctx.charge(OpClass::Parse, 12 + 3 * queries.len() as u64);
        let mut merged = MergedSelection::try_new(&self.catalog, queries)?;
        let mut client = ExecCtx::new();
        let split = merged.run_split(&mut ctx, &mut client);
        let split_phase = client.take_phase(PhaseKind::ClientCompute, "qed split");
        let label = format!("qed×{}", queries.len());
        let traces = self.statement_traces(&mut ctx, &label, Some(split_phase))?;
        Ok((split, traces))
    }

    /// Trace the paper's full PVC workload: ten Q5 instances
    /// back-to-back, each with its client round trip ([`Self::trace`]
    /// at one worker, the traces concatenated). Panics on a disk fault:
    /// the workload is the fault-free figures' input, and a
    /// fault-injected database traces its statements through
    /// [`Self::trace`].
    pub fn trace_q5_workload(&self) -> (Vec<Vec<Tuple>>, WorkTrace) {
        let mut all_rows = Vec::with_capacity(10);
        let mut trace = WorkTrace::new();
        for params in q5_workload() {
            let (rows, traces) = self
                .trace(&Query::Q5(&params), 1)
                .unwrap_or_else(|e| panic!("the Q5 workload hit a fault: {e}"));
            all_rows.push(rows.into_tuples());
            trace.extend(traces.into_iter().collect());
        }
        (all_rows, trace)
    }

    /// Fallible SQL tracing with every failure mode typed into
    /// [`ServerError`] — the session layer's single error type: lex /
    /// parse / bind errors as [`ServerError::Sql`], catalog rejections
    /// of `CREATE INDEX` as [`ServerError::Index`], unrecoverable disk
    /// faults as [`ServerError::Io`], a zero divisor in the data as
    /// [`ServerError::Data`].
    ///
    /// Once an index exists, the planner picks it automatically for
    /// sufficiently selective sargable predicates (see
    /// `eco_query::sql::plan`); probes are charged as v4 index random
    /// I/O, so index-free sessions keep bit-identical ledgers.
    pub fn try_trace_sql(&self, sql: &str) -> Result<(Vec<Tuple>, WorkTrace), ServerError> {
        self.trace_sql_inner(sql, true)
            .map(|(rows, trace, _)| (rows, trace))
    }

    /// [`Self::try_trace_sql`] with *deferred durability*: a DML
    /// statement is executed, logged and applied — visible to every
    /// subsequent statement — but **not** fsynced. The returned flag
    /// reports whether log bytes are now pending; the caller owns the
    /// commit and must eventually call [`Self::commit_wal`] (the group
    /// commit in `eco-server` batches many statements into one fsync
    /// through the same QED threshold/deadline policy reads use).
    /// Non-DML statements behave exactly like [`Self::try_trace_sql`].
    pub fn try_trace_sql_deferred(
        &self,
        sql: &str,
    ) -> Result<(Vec<Tuple>, WorkTrace, bool), ServerError> {
        self.trace_sql_inner(sql, false)
    }

    /// The one shared SQL statement path. `durable` selects auto-commit
    /// (fsync inside the statement, log I/O charged to its trace) vs
    /// deferred group commit.
    fn trace_sql_inner(
        &self,
        sql: &str,
        durable: bool,
    ) -> Result<(Vec<Tuple>, WorkTrace, bool), ServerError> {
        let stmt = eco_query::sql::parse_statement(sql)?;
        let tokens = (sql.split_whitespace().count() as u64).max(4);
        let mut ctx = self.exec_ctx(1);
        ctx.charge(OpClass::Parse, tokens);
        let mut deferred = false;
        let (rows, label) = match stmt {
            Statement::Select(select) => {
                let mut plan = eco_query::sql::plan_select(&self.catalog, &select)?;
                (execute(plan.as_mut(), &mut ctx), "sql")
            }
            Statement::CreateIndex {
                name,
                table,
                column,
            } => {
                let entry = self.catalog.create_index(&name, &table, &column)?;
                // The bulk load sorts and packs key/row-id pairs
                // entirely in memory (no paged I/O — pages materialize
                // lazily on first probe), so the build bills as CPU
                // comparison work, one NodeSearch per indexed row.
                ctx.charge(OpClass::NodeSearch, entry.index.len() as u64);
                (Vec::new(), "create index")
            }
            Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_) => {
                let label = match stmt {
                    Statement::Insert(_) => "insert",
                    Statement::Update(_) => "update",
                    _ => "delete",
                };
                let outcome = execute_dml(&self.catalog, &stmt, &mut ctx)?;
                // A value the bind could not compute fails the
                // statement before anything is logged or applied.
                if let Some(e) = ctx.take_error() {
                    return Err(e.into());
                }
                let affected = self.log_and_apply(outcome, &mut ctx, durable)?;
                deferred = !durable;
                (vec![vec![Value::Int(affected as i64)]], label)
            }
        };
        let traces = self.statement_traces(&mut ctx, label, None)?;
        Ok((rows, traces.into_iter().collect(), deferred))
    }

    /// The write protocol (one statement = one transaction): charge
    /// [`OpClass::LogRecord`] per redo record plus the commit marker,
    /// append them to the write-ahead log, apply the records through
    /// the catalog (visibility at append), and — when `durable` —
    /// fsync, charging the v5 log I/O classes (`log_ios`/`log_bytes`).
    /// Group commit defers the fsync; until it happens the transaction
    /// is visible but would not survive a crash, which is exactly what
    /// the crash-replay equivalence property pins down.
    fn log_and_apply(
        &self,
        outcome: DmlOutcome,
        ctx: &mut ExecCtx,
        durable: bool,
    ) -> Result<u64, ServerError> {
        let mut wal = self.wal.lock();
        ctx.charge(OpClass::LogRecord, outcome.records.len() as u64 + 1);
        for rec in &outcome.records {
            wal.log.append(rec)?;
        }
        let txn = wal.next_txn;
        wal.log.append(&WalRecord::Commit { txn })?;
        wal.next_txn += 1;
        if durable {
            let bytes = wal.log.fsync()?;
            ctx.ledger.disk.log_ios += 1;
            ctx.ledger.disk.log_bytes += bytes;
        }
        // Apply while still holding the log lock so concurrent writers
        // observe log order = apply order.
        for rec in &outcome.records {
            self.catalog.apply_wal_record(rec)?;
        }
        Ok(outcome.affected)
    }

    /// Flush the write-ahead log: one fsync covering every statement
    /// staged since the last commit, charged as v5 log I/O (one
    /// `log_ios`, block-rounded `log_bytes`) in its own execute phase.
    /// Returns the durable byte count and the trace (both zero/empty
    /// when nothing was pending — an empty fsync is free and uncounted).
    pub fn commit_wal(&self) -> Result<(u64, WorkTrace), ServerError> {
        let mut wal = self.wal.lock();
        if wal.log.pending_bytes() == 0 {
            return Ok((0, WorkTrace::new()));
        }
        let bytes = wal.log.fsync()?;
        let mut ctx = ExecCtx::new();
        ctx.ledger.disk.log_ios += 1;
        ctx.ledger.disk.log_bytes += bytes;
        let phase = ctx.take_phase(PhaseKind::Execute, "group commit");
        let mut trace = WorkTrace::new();
        trace.push(phase);
        Ok((bytes, trace))
    }

    /// Fsyncs the write-ahead log has performed.
    pub fn wal_fsyncs(&self) -> u64 {
        self.wal.lock().log.fsyncs()
    }

    /// Whether the write-ahead log has hit its installed crash point
    /// (mutations fail with [`ServerError::Wal`] until
    /// [`Self::recover`] runs; reads keep serving).
    pub fn wal_crashed(&self) -> bool {
        self.wal.lock().log.crashed()
    }

    /// A snapshot of the simulated on-disk log image — durable bytes
    /// plus any torn trailing fragment the crash left behind. What a
    /// recovery pass (or an external checker) reads.
    pub fn wal_image(&self) -> Vec<u8> {
        self.wal.lock().log.image().into_owned()
    }

    /// Crash recovery (redo-only), from the last checkpoint. Validate
    /// the whole on-disk log image — a torn tail is trimmed,
    /// uncommitted records are discarded, a corrupt record fails the
    /// recovery before anything is touched; start a catalog over the
    /// checkpoint's tables (the state this log's first record was
    /// written against: the database as opened, or as the previous
    /// recovery left it) and the existing buffer pool; replay each
    /// committed transaction as the scan reaches its commit marker;
    /// re-create every secondary index over the recovered tables
    /// (`CREATE INDEX` is not logged — an index is derivable state);
    /// install the catalog and flush the pool (a restart is cold; the
    /// read-fault schedule and the profile's pool settings stay);
    /// checkpoint the recovered tables and restart the log empty, its
    /// spent crash point cleared, the transaction counter resuming past
    /// the highest id ever committed. Checkpoint + log is therefore
    /// always the whole committed history: crash → recover → more DML →
    /// crash → recover keeps both epochs' transactions.
    ///
    /// Nothing is regenerated: recovery costs the log since the
    /// checkpoint plus the index builds, and a replayed table copies
    /// from the checkpoint what any first mutation after one copies. On
    /// any error the old catalog, the checkpoint and the log are left
    /// as they were. Checkpoints are taken here only — one between
    /// recoveries would write pages, which needs a priced charge class
    /// of its own — so the log grows until the next recovery.
    pub fn recover(&mut self) -> Result<RecoveryReport, ServerError> {
        let wal = self.wal.get_mut();
        let image = wal.log.image();
        WriteAheadLog::scan(&image, |_, _| Ok::<(), WalError>(()))?;
        let pool = Arc::clone(self.catalog.pool());
        let catalog = Catalog::from_tables(self.checkpoint.tables.clone(), pool);
        let (mut committed_txns, mut records_replayed) = (Vec::new(), 0);
        let tail = WriteAheadLog::scan(&image, |txn, records| {
            for r in &records {
                catalog.apply_wal_record(r)?;
            }
            committed_txns.push(txn);
            records_replayed += records.len();
            Ok::<(), ServerError>(())
        })?;
        let old_indexes = self.catalog.index_entries();
        for e in &old_indexes {
            catalog.create_index(&e.name, &e.table, &e.column)?;
        }
        drop(image);
        catalog.pool().flush();
        self.catalog = catalog;
        wal.log = WriteAheadLog::new();
        wal.next_txn = committed_txns
            .last()
            .map_or(self.checkpoint.next_txn, |last| last + 1);
        self.checkpoint = Checkpoint {
            tables: self.catalog.tables(),
            next_txn: wal.next_txn,
        };
        Ok(RecoveryReport {
            committed_txns,
            records_replayed,
            torn_tail: tail.torn_tail,
            uncommitted_records: tail.uncommitted_records,
            indexes_rebuilt: old_indexes.len(),
        })
    }

    /// Build a paged B-tree secondary index (ledger schema v4) over a
    /// disk-engine table column, bulk-loaded from the current table
    /// contents — the programmatic twin of SQL `CREATE INDEX`.
    ///
    /// Creation itself charges no statement ledger; only statements
    /// that *probe* the index pick up `index_ios`/`index_bytes` (priced
    /// as random I/O) and `NodeSearch` CPU work, so every index-free
    /// run stays bit-identical to pre-v4 figures. Memory-engine tables
    /// are rejected with [`ServerError::Index`]: the paper's CPU-stress
    /// profile has no paged storage to index.
    pub fn create_index(
        &self,
        name: &str,
        table: &str,
        column: &str,
    ) -> Result<Arc<eco_storage::IndexEntry>, ServerError> {
        Ok(self.catalog.create_index(name, table, column)?)
    }

    /// Price an existing trace under another configuration.
    pub fn price(&self, trace: &WorkTrace, config: MachineConfig) -> Measurement {
        self.machine.measure(trace, &config)
    }
}

impl std::fmt::Debug for EcoDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EcoDb")
            .field("profile", &self.profile.name())
            .field("scale", &self.scale)
            .field("tables", &self.catalog.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_simhw::cpu::{CpuConfig, VoltageSetting};

    fn db(profile: EngineProfile) -> EcoDb {
        EcoDb::tpch(profile, 0.005)
    }

    const Q6: Query<'static> = Query::Q6 {
        year: 1994,
        discount_pct: 6,
        max_qty: 24,
    };

    /// `q` traced on one worker: its rows and its one trace.
    fn serial_run(db: &EcoDb, q: Query) -> (RowSet, WorkTrace) {
        let (rows, traces) = db.trace(&q, 1).expect("fault-free statement");
        assert_eq!(traces.len(), 1, "one worker, one trace");
        (rows, traces.into_iter().collect())
    }

    #[test]
    fn q5_runs_on_both_profiles_with_same_answer() {
        let mem = db(EngineProfile::MemoryEngine);
        let disk = db(EngineProfile::CommercialDisk);
        let params = Q5Params::new("ASIA", 1994);
        let (a, _) = serial_run(&mem, Query::Q5(&params));
        let (b, _) = serial_run(&disk, Query::Q5(&params));
        assert_eq!(a, b, "engines must agree on answers");
        assert!(!a.is_empty());
    }

    #[test]
    fn pvc_saves_energy_costs_time() {
        let db = db(EngineProfile::MemoryEngine);
        let (_, trace) = serial_run(&db, Query::Q5(&Q5Params::new("ASIA", 1994)));
        let stock = db.price(&trace, MachineConfig::stock());
        let pvc = db.price(
            &trace,
            MachineConfig::with_cpu(CpuConfig::underclocked(0.05, VoltageSetting::Medium)),
        );
        assert!(pvc.cpu_joules < stock.cpu_joules);
        assert!(pvc.elapsed_s > stock.elapsed_s);
    }

    #[test]
    fn memory_profile_is_more_cpu_bound_than_disk_profile() {
        let mem = db(EngineProfile::MemoryEngine);
        let disk = db(EngineProfile::CommercialDisk);
        let m = mem.price(&mem.trace_q5_workload().1, MachineConfig::stock());
        let d = disk.price(&disk.trace_q5_workload().1, MachineConfig::stock());
        assert!(
            m.utilization > d.utilization + 0.2,
            "memory {} vs disk {}",
            m.utilization,
            d.utilization
        );
        assert!(m.utilization > 0.85);
    }

    #[test]
    fn cold_run_slower_and_disk_heavier_than_warm() {
        let db = db(EngineProfile::CommercialDisk);
        // Cold: fresh pool.
        db.flush_cache();
        let (cold_rows, cold) = db.trace_q5_workload();
        // Warm: run again without flushing.
        let (warm_rows, warm) = db.trace_q5_workload();
        let cold = db.price(&cold, MachineConfig::stock());
        let warm = db.price(&warm, MachineConfig::stock());
        assert!(cold.elapsed_s > 1.5 * warm.elapsed_s);
        assert!(cold.disk_joules > warm.disk_joules);
        assert_eq!(cold_rows, warm_rows);
    }

    #[test]
    fn merged_selection_matches_individual_queries() {
        let db = db(EngineProfile::MemoryEngine);
        let queries = eco_tpch::qed_workload(6);
        let (split, _trace) = db.try_trace_merged_selection(&queries, true).unwrap();
        for (i, q) in queries.iter().enumerate() {
            let (rows, _) = serial_run(&db, Query::Selection(q));
            assert_eq!(split[i], rows, "query {i}");
        }
    }

    #[test]
    fn traces_are_reusable_across_configs() {
        let db = db(EngineProfile::MemoryEngine);
        let (_, trace) = serial_run(&db, Query::Q5(&Q5Params::new("ASIA", 1995)));
        let m1 = db.price(&trace, MachineConfig::stock());
        let m2 = db.price(&trace, MachineConfig::stock());
        assert_eq!(m1.cpu_joules, m2.cpu_joules, "pricing is deterministic");
    }

    #[test]
    fn malformed_statements_return_typed_errors_not_panics() {
        let db = db(EngineProfile::MemoryEngine);
        // Empty merged batch.
        let err = db.try_trace_merged_selection(&[], true).unwrap_err();
        assert_eq!(
            err,
            ServerError::Merge(eco_query::mqo::MergeError::EmptyBatch)
        );
        assert!(err.to_string().contains("empty QED batch"));
        // Same on the cores path.
        let err = db
            .try_trace_merged_selection_cores(&[], true, 2)
            .unwrap_err();
        assert!(matches!(err, ServerError::Merge(_)));
        // Malformed SQL.
        let err = db.try_trace_sql("SELEC oops FROM nowhere").unwrap_err();
        assert!(matches!(err, ServerError::Sql(_)));
        // Unknown table binds to a typed SQL error too.
        let err = db.try_trace_sql("SELECT x FROM not_a_table").unwrap_err();
        assert!(matches!(err, ServerError::Sql(_)));
        // The database is still fully operational afterwards.
        let (rows, _) = serial_run(&db, Q6);
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn create_index_statement_builds_and_planner_uses_it() {
        let db = db(EngineProfile::CommercialDisk);
        let sql = "SELECT l_orderkey FROM lineitem WHERE l_quantity = 7";
        let (scan_rows, scan_trace) = db.try_trace_sql(sql).expect("scan plan");
        let scan_total = scan_trace.total();
        scan_total.assert_same(&scan_total.without_schema(4), "v4 classes of a scan");

        let (ddl_rows, ddl_trace) = db
            .try_trace_sql("CREATE INDEX ix_qty ON lineitem (l_quantity)")
            .expect("create index");
        assert!(ddl_rows.is_empty(), "DDL returns no rows");
        assert!(
            ddl_trace
                .phases()
                .iter()
                .any(|p| p.ledger.cpu.count(OpClass::NodeSearch) > 0),
            "bulk load bills NodeSearch comparison work"
        );

        // Same statement now routes through the index: same answer,
        // probes billed as v4 index random I/O.
        let (ix_rows, ix_trace) = db.try_trace_sql(sql).expect("index plan");
        assert_eq!(scan_rows, ix_rows, "access path must not change answers");
        assert!(ix_trace
            .phases()
            .iter()
            .any(|p| p.ledger.disk.index_ios > 0));

        // Duplicate names and memory-engine tables are typed catalog
        // rejections, not panics.
        let err = db
            .try_trace_sql("CREATE INDEX ix_qty ON lineitem (l_quantity)")
            .unwrap_err();
        assert!(matches!(
            err,
            ServerError::Index(eco_storage::IndexError::DuplicateIndex(_))
        ));
        let mem = self::db(EngineProfile::MemoryEngine);
        let err = mem
            .try_trace_sql("CREATE INDEX ix_qty ON lineitem (l_quantity)")
            .unwrap_err();
        assert!(matches!(
            err,
            ServerError::Index(eco_storage::IndexError::NotDiskTable(_))
        ));
        // Both databases still serve statements afterwards.
        let (rows, _) = serial_run(&db, Q6);
        assert_eq!(rows.len(), 1);
        mem.try_trace_sql(sql).expect("memory profile still serves");
    }

    #[test]
    fn fallible_and_panicking_merged_paths_agree() {
        let db = db(EngineProfile::MemoryEngine);
        let queries = eco_tpch::qed_workload(4);
        let (a_rows, a_trace) = db
            .try_trace_merged_selection(&queries, true)
            .expect("valid");
        let (b_rows, b_traces) = db
            .try_trace_merged_selection_cores(&queries, true, 1)
            .expect("valid");
        assert_eq!(a_rows, b_rows);
        assert_eq!(vec![a_trace], b_traces, "one shared path, identical traces");
    }

    #[test]
    fn faults_fail_single_statements_with_typed_io_errors() {
        let db = db(EngineProfile::CommercialDisk);
        // Saturated plan: every cold page read faults (70% transient,
        // 15% permanent, 15% stall) — statements either recover via
        // retries or fail with a typed Io error; nothing panics.
        db.set_fault_plan(FaultPlan::new(1234, 1_000_000));
        db.flush_cache();
        let queries: Vec<String> = eco_tpch::qed_workload(4)
            .iter()
            .map(|q| format!("SELECT * FROM lineitem WHERE l_quantity = {}", q.quantity))
            .collect();
        let mut io_errors = 0;
        for q in &queries {
            match db.try_trace_sql(q) {
                Ok((rows, trace)) => {
                    assert!(!trace.phases().is_empty());
                    let _ = rows;
                }
                Err(ServerError::Io(_)) => io_errors += 1,
                Err(other) => panic!("unexpected error class: {other}"),
            }
        }
        // lineitem spans many pages: a saturated plan must hit at least
        // one permanent fault.
        assert!(io_errors > 0, "saturated plan should fail something");
        // Clearing the plan (and the pool) restores full service.
        db.set_fault_plan(FaultPlan::none());
        db.flush_cache();
        for q in &queries {
            db.try_trace_sql(q).expect("fault-free run succeeds");
        }
    }

    #[test]
    fn fault_free_plan_leaves_ledgers_bit_identical() {
        let db = db(EngineProfile::CommercialDisk);
        db.flush_cache();
        let (rows_a, trace_a) = serial_run(&db, Q6);
        // Install a plan that never fires, reboot, rerun: the trace must
        // be byte-for-byte identical (v2 classes all zero).
        db.set_fault_plan(FaultPlan::none());
        db.flush_cache();
        let (rows_b, trace_b) = serial_run(&db, Q6);
        assert_eq!(rows_a, rows_b);
        assert_eq!(trace_a, trace_b, "fault-free ledgers are bit-identical");
        let total = trace_b.total();
        total.assert_same(&total.without_schema(2), "v2 classes of a fault-free run");
    }

    #[test]
    fn dml_round_trip_on_both_profiles_with_v5_charges() {
        for profile in [EngineProfile::MemoryEngine, EngineProfile::CommercialDisk] {
            let db = db(profile);
            let (before, _) = db
                .try_trace_sql("SELECT r_regionkey FROM region")
                .expect("select");
            let (rows, ins_trace) = db
                .try_trace_sql("INSERT INTO region VALUES (99, 'ATLANTIS', 'sunk')")
                .expect("insert");
            assert_eq!(rows, vec![vec![Value::Int(1)]], "affected count");
            // The DML trace carries the v5 charge classes: LogRecord
            // CPU work (record + commit marker) and one block-rounded
            // log fsync.
            let total = ins_trace.total();
            assert_eq!(
                total.cpu.count(OpClass::LogRecord),
                2,
                "insert + commit marker"
            );
            let (log_ios, log_bytes) = (total.disk.log_ios, total.disk.log_bytes);
            assert_eq!(log_ios, 1);
            assert_eq!(
                log_bytes % eco_storage::page::PAGE_SIZE as u64,
                0,
                "fsync rounds to whole device blocks"
            );
            assert!(log_bytes > 0);

            let (after, _) = db
                .try_trace_sql("SELECT r_regionkey FROM region")
                .expect("select");
            assert_eq!(after.len(), before.len() + 1, "insert is visible");

            let (rows, _) = db
                .try_trace_sql("UPDATE region SET r_name = 'LEMURIA' WHERE r_regionkey = 99")
                .expect("update");
            assert_eq!(rows, vec![vec![Value::Int(1)]]);
            let (named, _) = db
                .try_trace_sql("SELECT r_name FROM region WHERE r_regionkey = 99")
                .expect("select");
            assert_eq!(named, vec![vec![Value::Str("LEMURIA".into())]]);

            let (rows, _) = db
                .try_trace_sql("DELETE FROM region WHERE r_regionkey = 99")
                .expect("delete");
            assert_eq!(rows, vec![vec![Value::Int(1)]]);
            let (final_rows, _) = db
                .try_trace_sql("SELECT r_regionkey FROM region")
                .expect("select");
            assert_eq!(final_rows.len(), before.len(), "delete restored the count");
        }
    }

    #[test]
    fn read_only_runs_keep_v5_classes_exactly_zero() {
        let db = db(EngineProfile::CommercialDisk);
        db.flush_cache();
        let (_, trace) = db.trace_q5_workload();
        let (_, sql_trace) = db
            .try_trace_sql("SELECT l_orderkey FROM lineitem WHERE l_quantity = 7")
            .expect("select");
        for t in [&trace, &sql_trace] {
            let total = t.total();
            total.assert_same(&total.without_schema(5), "v5 classes of a read-only run");
        }
        assert_eq!(db.wal_fsyncs(), 0);
        assert_eq!(db.wal.lock().log.pending_bytes(), 0);
    }

    #[test]
    fn group_commit_batches_fsyncs_and_charges_once() {
        let db = db(EngineProfile::MemoryEngine);
        let mut staged_traces = Vec::new();
        for key in 200..205 {
            let (rows, trace, pending) = db
                .try_trace_sql_deferred(&format!(
                    "INSERT INTO region VALUES ({key}, 'R{key}', 'c')"
                ))
                .expect("staged insert");
            assert_eq!(rows, vec![vec![Value::Int(1)]]);
            assert!(pending, "DML defers its fsync");
            staged_traces.push(trace);
        }
        // Staged statements charge log *records* but no log I/O yet.
        for t in &staged_traces {
            assert!(t.phases().iter().all(|p| p.ledger.disk.log_ios == 0));
            assert!(t
                .phases()
                .iter()
                .any(|p| p.ledger.cpu.count(OpClass::LogRecord) > 0));
        }
        assert!(db.wal.lock().log.pending_bytes() > 0);
        assert_eq!(db.wal_fsyncs(), 0);
        // All five transactions are already visible (group commit
        // defers durability, not visibility).
        let (rows, _) = db
            .try_trace_sql("SELECT r_regionkey FROM region WHERE r_regionkey >= 200")
            .expect("select");
        assert_eq!(rows.len(), 5);
        // One commit covers the whole batch with a single fsync.
        let (bytes, commit_trace) = db.commit_wal().expect("commit");
        assert!(bytes > 0);
        assert_eq!(db.wal_fsyncs(), 1);
        assert_eq!(db.wal.lock().log.pending_bytes(), 0);
        assert_eq!(commit_trace.total_disk().log_ios, 1);
        // An empty commit is free and uncounted.
        let (bytes, trace) = db.commit_wal().expect("no-op commit");
        assert_eq!(bytes, 0);
        assert!(trace.phases().is_empty());
        assert_eq!(db.wal_fsyncs(), 1);
    }

    #[test]
    fn wal_crash_fails_statements_and_recovery_restores_committed_prefix() {
        use eco_simhw::fault::{TornTail, WalCrash};
        let mut db = db(EngineProfile::CommercialDisk);
        // Arm a crash: the log dies on the 5th append with a torn tail.
        // Statements 1-2 (2 records each: row + commit) commit; the
        // third statement's row record is the 5th append and dies.
        db.set_fault_plan(
            FaultPlan::none().with_wal_crash(WalCrash::KillAfterRecords {
                records: 4,
                torn: TornTail::MidPayload,
            }),
        );
        db.try_trace_sql("INSERT INTO region VALUES (50, 'A', 'x')")
            .expect("committed 1");
        db.try_trace_sql("INSERT INTO region VALUES (51, 'B', 'y')")
            .expect("committed 2");
        let err = db
            .try_trace_sql("INSERT INTO region VALUES (52, 'C', 'z')")
            .unwrap_err();
        assert!(matches!(err, ServerError::Wal(_)), "typed WAL error: {err}");
        assert!(db.wal_crashed());
        // Every further mutation fails typed; reads keep serving.
        let err = db
            .try_trace_sql("DELETE FROM region WHERE r_regionkey = 50")
            .unwrap_err();
        assert!(matches!(err, ServerError::Wal(WalError::Crashed)));
        db.try_trace_sql("SELECT r_regionkey FROM region")
            .expect("reads keep serving after a WAL crash");

        let report = db.recover().expect("recovery");
        assert_eq!(report.committed_txns, vec![1, 2]);
        assert_eq!(report.records_replayed, 2);
        assert!(report.torn_tail, "the torn 5th append must be detected");
        assert!(!db.wal_crashed());
        let (rows, _) = db
            .try_trace_sql("SELECT r_regionkey FROM region WHERE r_regionkey >= 50")
            .expect("post-recovery select");
        assert_eq!(
            rows,
            vec![vec![Value::Int(50)], vec![Value::Int(51)]],
            "exactly the committed prefix survives"
        );
        // The write path is live again and the txn counter resumed.
        db.try_trace_sql("INSERT INTO region VALUES (52, 'C', 'z')")
            .expect("write path restored");
        let (rows, _) = db
            .try_trace_sql("SELECT r_regionkey FROM region WHERE r_regionkey >= 50")
            .expect("select");
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn a_second_recovery_keeps_the_first_epochs_transactions() {
        use eco_simhw::fault::WalCrash;
        let regions = |db: &EcoDb| {
            let (rows, _) = db
                .try_trace_sql("SELECT r_regionkey FROM region")
                .expect("select");
            rows.len()
        };
        for profile in [EngineProfile::MemoryEngine, EngineProfile::CommercialDisk] {
            let mut db = db(profile);
            assert_eq!(regions(&db), 5);
            // Epoch 1: one acknowledged insert, one lost to a failed fsync.
            db.try_trace_sql("INSERT INTO region VALUES (50, 'A', 'x')")
                .expect("committed 1");
            db.set_fault_plan(
                FaultPlan::none().with_wal_crash(WalCrash::FsyncFailure { fsync: 1 }),
            );
            db.try_trace_sql("INSERT INTO region VALUES (51, 'B', 'y')")
                .expect_err("fsync fails");
            assert_eq!(db.recover().expect("recovery 1").committed_txns, vec![1]);
            assert_eq!(regions(&db), 6);
            // An epoch that commits nothing moves nothing, the
            // transaction counter included.
            assert_eq!(db.recover().expect("recovery 2").committed_txns, vec![]);
            assert_eq!(regions(&db), 6);
            // Epoch 3 starts from what epoch 1 left, not from genesis.
            db.try_trace_sql("INSERT INTO region VALUES (52, 'C', 'z')")
                .expect("committed 2");
            let report = db.recover().expect("recovery 3");
            assert_eq!(report.committed_txns, vec![2]);
            assert_eq!(report.records_replayed, 1);
            assert_eq!(regions(&db), 7, "{profile:?}: both epochs' rows");
        }
    }

    #[test]
    fn a_failed_recovery_leaves_the_database_as_it_was() {
        let mut db = db(EngineProfile::CommercialDisk);
        db.create_index("ix_region", "region", "r_regionkey")
            .expect("index");
        db.try_trace_sql("INSERT INTO region VALUES (50, 'A', 'x')")
            .expect("committed 1");
        // A well-formed, committed, durable record that fits no table:
        // validation passes, its replay cannot.
        {
            let mut wal = db.wal.lock();
            wal.log
                .append(&WalRecord::Delete {
                    table: "ghost".into(),
                    row: 0,
                })
                .expect("append");
            wal.log
                .append(&WalRecord::Commit { txn: 2 })
                .expect("append");
            wal.log.fsync().expect("fsync");
        }
        let image = db.wal_image();
        let err = db.recover().expect_err("replay fails on the ghost table");
        assert!(
            matches!(err, ServerError::Wal(WalError::NoSuchTable { .. })),
            "{err}"
        );
        assert_eq!(db.wal_image(), image, "the log is kept");
        assert_eq!(db.catalog().expect("region").len(), 6);
        assert!(db.catalog().index("ix_region").is_some());
        let (rows, _) = db
            .try_trace_sql("SELECT r_name FROM region WHERE r_regionkey = 50")
            .expect("the old catalog still serves");
        assert_eq!(rows, vec![vec![Value::str("A")]]);
    }

    #[test]
    fn oversized_tuple_is_rejected_before_it_is_logged() {
        // A row wider than a page used to pass bind, get logged and
        // fsynced, panic in apply, and then re-panic every recover().
        let wide = "w".repeat(9000);
        let mut db = db(EngineProfile::CommercialDisk);
        db.try_trace_sql("INSERT INTO region VALUES (50, 'A', 'fits')")
            .expect("committed 1");
        let image = db.wal_image();
        for sql in [
            format!("INSERT INTO region VALUES (51, 'B', '{wide}')"),
            format!("UPDATE region SET r_comment = '{wide}' WHERE r_regionkey = 50"),
        ] {
            let err = db.try_trace_sql(&sql).unwrap_err();
            assert!(
                matches!(err, ServerError::Sql(eco_query::sql::SqlError::Bind(_))),
                "typed bind error, got: {err}"
            );
            assert_eq!(db.wal_image(), image, "nothing was logged");
        }
        // The write path and recovery are unharmed.
        db.try_trace_sql("INSERT INTO region VALUES (52, 'C', 'next')")
            .expect("next statement succeeds");
        let report = db.recover().expect("recovery replays a clean log");
        assert_eq!(report.committed_txns, vec![1, 2]);
        let (rows, _) = db
            .try_trace_sql("SELECT r_regionkey FROM region WHERE r_regionkey >= 50")
            .expect("select");
        assert_eq!(rows, vec![vec![Value::Int(50)], vec![Value::Int(52)]]);
        // Should such a record reach the log anyway, applying it fails
        // typed and leaves the table alone.
        let rec = eco_storage::WalRecord::Insert {
            table: "region".into(),
            tuple: vec![Value::Int(53), Value::str("D"), Value::str(&wide)],
        };
        assert_eq!(
            db.catalog().apply_wal_record(&rec).unwrap_err(),
            WalError::TupleTooWide {
                table: "region".into()
            }
        );
        assert_eq!(db.catalog().expect("region").len(), 7);
        // The memory engine has no pages and takes the row.
        let mem = EcoDb::tpch(EngineProfile::MemoryEngine, 0.005);
        mem.try_trace_sql(&format!("INSERT INTO region VALUES (51, 'B', '{wide}')"))
            .expect("no page limit on the memory engine");
    }

    #[test]
    fn a_zero_divisor_in_a_dml_statement_applies_nothing() {
        let db = db(EngineProfile::MemoryEngine);
        let image = db.wal_image();
        // Region 0's key is a zero divisor.
        for sql in [
            "UPDATE region SET r_name = 'X' WHERE 1 / r_regionkey = 1",
            "DELETE FROM region WHERE 1 / r_regionkey = 1",
        ] {
            let err = db.try_trace_sql(sql).unwrap_err();
            assert_eq!(err, ServerError::Data(ExecError::DivisionByZero), "{sql}");
        }
        assert_eq!(db.wal_image(), image, "nothing was logged");
        let (rows, _) = db
            .try_trace_sql("SELECT r_regionkey FROM region")
            .expect("select");
        assert_eq!(rows.len(), 5, "nothing was applied");
    }

    #[test]
    fn source_rows_are_built_only_when_asked_for() {
        for profile in [EngineProfile::MemoryEngine, EngineProfile::CommercialDisk] {
            let mut db = EcoDb::tpch_seeded(profile, 0.002, 7);
            assert!(
                db.source.get().is_none(),
                "{profile:?}: opened without rows"
            );
            db.try_trace_sql("INSERT INTO region VALUES (50, 'A', 'x')")
                .expect("insert");
            db.recover().expect("recovery");
            assert!(
                db.source.get().is_none(),
                "{profile:?}: recovered without rows"
            );
            let want = TpchGenerator::with_seed(0.002, 7).generate();
            assert!(*db.source() == want, "{profile:?}: the generator's rows");
            assert!(db.source.get().is_some());
        }
    }

    #[test]
    fn q1_q3_q6_run() {
        let db = db(EngineProfile::MemoryEngine);
        let (r1, _) = serial_run(&db, Query::Q1 { delta_days: 90 });
        assert!(!r1.is_empty());
        let cut = Date::from_ymd(1995, 3, 15);
        let (r3, _) = serial_run(
            &db,
            Query::Q3 {
                segment: "BUILDING",
                cut,
            },
        );
        assert!(r3.len() <= 10);
        let (r6, _) = serial_run(&db, Q6);
        assert_eq!(r6.len(), 1);
    }

    #[test]
    fn zero_workers_run_the_serial_layout() {
        let db = db(EngineProfile::MemoryEngine);
        let (rows, traces) = db.trace(&Q6, 0).expect("zero workers count as one");
        let (want_rows, want) = db.trace(&Q6, 1).expect("one worker");
        assert_eq!(rows, want_rows);
        assert_eq!(traces, want);
        let labels: Vec<&str> = traces[0]
            .phases()
            .iter()
            .map(|p| p.label.as_str())
            .collect();
        assert_eq!(labels, ["client gap", "Q6"]);

        let queries = eco_tpch::qed_workload(3);
        let (split, traces) = db
            .try_trace_merged_selection_cores(&queries, true, 0)
            .expect("zero workers count as one");
        let (want_split, want_trace) = db.try_trace_merged_selection(&queries, true).unwrap();
        assert_eq!(split, want_split);
        assert_eq!(traces, vec![want_trace]);
    }
}
