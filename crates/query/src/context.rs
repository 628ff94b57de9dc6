//! The execution context: the work ledger every operator charges into.

use eco_simhw::trace::{Ledger, OpClass, Phase, PhaseKind, PricingMode};

use crate::error::ExecError;

/// Default [`ExecCtx::batch_size`]: rows per columnar chunk and per DML
/// filter window. 1024 keeps a chunk of lineitem-width rows well inside
/// L2 while amortizing per-call dispatch to noise.
pub(crate) const DEFAULT_BATCH_SIZE: usize = 1024;

/// Default number of input tuples per morsel handed to a parallel
/// worker. Big enough to amortize the per-morsel pipeline setup, small
/// enough that a scan splits into many more morsels than workers (the
/// load-balancing granularity of morsel-driven execution).
pub(crate) const DEFAULT_MORSEL_ROWS: usize = 4096;

/// Per-execution accounting state, threaded through every operator call.
#[derive(Debug, Clone)]
pub struct ExecCtx {
    /// Everything charged so far: op classes, memory traffic, and what
    /// each buffer-pool read returned — its disk I/O and retry backoff
    /// (ledger schema v2: halt-priced like a client gap; exactly zero on
    /// fault-free runs).
    pub ledger: Ledger,
    /// Whether OR-lists short-circuit on the first true arm. MySQL-style
    /// evaluation short-circuits; `repro`'s `shortcircuit` target
    /// flips this to study its effect on QED.
    pub short_circuit_or: bool,
    /// Number of predicate-term evaluations (for introspection/tests).
    pub pred_evals: u64,
    /// Rows per columnar chunk (what a scan window and the default
    /// [`crate::ops::Operator::next_chunk`] hold) and per DML filter
    /// window ([`crate::sql::execute_dml`]). The scalar engine never
    /// reads it. Execution *semantics and the energy ledger are
    /// independent of this value* (it only changes how work is
    /// chunked, never how much work is charged); it is a pure
    /// throughput knob.
    pub batch_size: usize,
    /// Worker threads available to the columnar engine's parallel
    /// sections (1 = serial); the scalar oracle runs serial whatever it
    /// says, so its charges all land on core 0. Like `batch_size`, this
    /// is a pure throughput knob: the merged ledger is identical at
    /// every worker count (`tests/integration_parallel.rs`).
    pub workers: usize,
    /// Target input tuples per morsel for parallel scans. Leaf
    /// operators may align this upward (disk scans round to whole
    /// extents, so that each extent chunk belongs to one morsel).
    pub morsel_rows: usize,
    /// The engine: when set, drivers, blocking operators and morsel
    /// workers move data through [`crate::ops::Operator::next_chunk`]
    /// (typed column vectors + selection vectors); otherwise drivers
    /// and blocking operators pull [`crate::ops::Operator::next`]
    /// tuple-at-a-time, serially (the scalar oracle: no morsel worker
    /// runs). Like `batch_size` and `workers`, a pure throughput knob:
    /// the summed energy ledger is bit-identical either way
    /// (`tests/integration_columnar.rs`).
    pub columnar: bool,
    /// Energy-pricing mode (ledger schema v3). Under the default
    /// [`PricingMode::Raw`] every charge is bit-identical to pre-v3
    /// ledgers and encoded mirrors are never built. Under
    /// [`PricingMode::Compressed`] scans price *encoded* bytes as
    /// memory traffic and dictionary-reading kernels charge
    /// [`OpClass::DictLookup`]. Unlike `batch_size`/`workers`/
    /// `columnar` this is *not* a pure throughput knob — it changes
    /// what the ledger says, which is the point: it makes compression
    /// ratio measurable as joules.
    pub pricing: PricingMode,
    /// Streaming-exactness depth: non-zero while opening the subtree of
    /// an early-terminating operator ([`crate::ops::Limit`]). Parallel
    /// sections that would pre-materialize a *streaming* child (and so
    /// consume more of it than scalar execution would) stay serial while
    /// this is set; blocking operators clear it for their own subtree
    /// since they drain their input fully in any mode.
    pub streaming_exact: u32,
    /// Per-core shares of the ledger recorded by parallel sections
    /// (index = worker id). Charges made directly on this context (the
    /// coordinator's serial work) are attributed to core 0 at
    /// [`Self::take_core_phases`] time.
    core_ledgers: Vec<Ledger>,
    /// The first error recorded by a failing operator (set-first-wins).
    /// Fallible drivers take it after the pipeline drains.
    error: Option<ExecError>,
}

impl Default for ExecCtx {
    fn default() -> Self {
        Self {
            ledger: Ledger::new(),
            short_circuit_or: false,
            pred_evals: 0,
            batch_size: DEFAULT_BATCH_SIZE,
            workers: 1,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            columnar: false,
            pricing: PricingMode::Raw,
            streaming_exact: 0,
            core_ledgers: Vec::new(),
            error: None,
        }
    }
}

impl ExecCtx {
    /// Fresh context with MySQL-style short-circuit OR evaluation.
    pub fn new() -> Self {
        Self {
            short_circuit_or: true,
            ..Self::default()
        }
    }

    /// Fresh context with exhaustive OR evaluation.
    pub fn exhaustive() -> Self {
        Self {
            short_circuit_or: false,
            ..Self::default()
        }
    }

    /// Same context with a different batch size (builder style).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        self.batch_size = batch_size;
        self
    }

    /// Same context with a different worker count (builder style).
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "worker count must be positive");
        self.workers = workers;
        self
    }

    /// Same context with a different morsel size (builder style).
    pub fn with_morsel_rows(mut self, morsel_rows: usize) -> Self {
        assert!(morsel_rows > 0, "morsel size must be positive");
        self.morsel_rows = morsel_rows;
        self
    }

    /// Same context with columnar execution toggled (builder style).
    pub fn with_columnar(mut self, columnar: bool) -> Self {
        self.columnar = columnar;
        self
    }

    /// Same context with a different pricing mode (builder style).
    pub fn with_pricing(mut self, pricing: PricingMode) -> Self {
        self.pricing = pricing;
        self
    }

    /// An empty ledger carrying this context's evaluation knobs — what
    /// each parallel worker charges into. Workers never re-parallelize
    /// (`workers = 1`): nesting would oversubscribe the machine without
    /// changing any ledger.
    pub fn fork(&self) -> ExecCtx {
        ExecCtx {
            short_circuit_or: self.short_circuit_or,
            batch_size: self.batch_size,
            morsel_rows: self.morsel_rows,
            columnar: self.columnar,
            pricing: self.pricing,
            ..ExecCtx::default()
        }
    }

    /// Merge a worker's ledger into this one, attributing its charges
    /// to core `worker` for [`Self::take_core_phases`]. Addition is
    /// commutative, so the merged totals are identical to serial
    /// execution regardless of how morsels were scheduled.
    pub(crate) fn merge_worker(&mut self, worker: usize, other: &ExecCtx) {
        self.ledger.merge(&other.ledger);
        self.pred_evals += other.pred_evals;
        // Workers are merged in worker-index order, so under a fixed
        // fault plan the surviving error is deterministic regardless of
        // how morsels were actually scheduled.
        if self.error.is_none() {
            self.error = other.error;
        }
        if self.core_ledgers.len() <= worker {
            self.core_ledgers.resize_with(worker + 1, Ledger::new);
        }
        self.core_ledgers[worker].merge(&other.ledger);
    }

    /// Charge `n` operations of `class`.
    #[inline]
    pub fn charge(&mut self, class: OpClass, n: u64) {
        self.ledger.cpu.add(class, n);
    }

    /// Charge bytes streamed through the memory system.
    #[inline]
    pub fn charge_mem_bytes(&mut self, bytes: u64) {
        self.ledger.mem_stream_bytes += bytes;
    }

    /// Charge latency-bound random memory accesses.
    #[inline]
    pub(crate) fn charge_mem_random(&mut self, n: u64) {
        self.ledger.mem_random_accesses += n;
    }

    /// Record a typed execution error. The first error wins; operators
    /// call this and end their stream, and the fallible drivers
    /// surface it after the pipeline drains.
    pub fn fail(&mut self, e: ExecError) {
        self.error.get_or_insert(e);
    }

    /// The recorded error, if any.
    pub fn error(&self) -> Option<&ExecError> {
        self.error.as_ref()
    }

    /// Take (and clear) the recorded error.
    pub fn take_error(&mut self) -> Option<ExecError> {
        self.error.take()
    }

    /// Convert the accumulated ledger into a trace phase, leaving the
    /// context empty for reuse.
    pub fn take_phase(&mut self, kind: PhaseKind, label: impl Into<String>) -> Phase {
        self.pred_evals = 0;
        self.core_ledgers.clear();
        Phase {
            kind,
            label: label.into(),
            ledger: std::mem::take(&mut self.ledger),
        }
    }

    /// Split the accumulated ledger into one execute [`Phase`] per core
    /// and drain the context. Core `w`'s phase holds the charges worker
    /// `w` made inside parallel sections; everything charged serially
    /// (the coordinator: parse, blocking-operator merges, result
    /// emission, non-parallelized subtrees) lands on core 0. The phases
    /// sum to exactly what [`Self::take_phase`] would have returned.
    pub fn take_core_phases(&mut self, cores: usize, label: &str) -> Vec<Phase> {
        assert!(cores > 0, "need at least one core");
        let mut serial = std::mem::take(&mut self.ledger);
        let mut ledgers = std::mem::take(&mut self.core_ledgers);
        self.pred_evals = 0;
        assert!(
            ledgers.len() <= cores,
            "recorded charges for {} workers but asked for {cores} core phases",
            ledgers.len(),
        );
        // Peel each worker's share off the total; what remains is the
        // coordinator's serial work. `subtract` is checked: a worker
        // share exceeding the total means merge_worker was misused.
        for worker in &ledgers {
            serial.subtract(worker);
        }
        ledgers.resize_with(cores, Ledger::new);
        ledgers[0].merge(&serial);
        ledgers
            .into_iter()
            .enumerate()
            .map(|(w, ledger)| Phase {
                ledger,
                ..Phase::execute(format!("{label} [core {w}]"))
            })
            .collect()
    }

    /// True when nothing has been charged yet.
    pub fn is_empty(&self) -> bool {
        self.ledger.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charging_and_draining() {
        let mut ctx = ExecCtx::new();
        assert!(ctx.is_empty());
        ctx.charge(OpClass::TupleFetch, 10);
        ctx.charge_mem_bytes(100);
        ctx.charge_mem_random(3);
        ctx.ledger.disk.random_ios += 1;
        assert!(!ctx.is_empty());

        let phase = ctx.take_phase(PhaseKind::Execute, "t");
        assert_eq!(phase.ledger.cpu.count(OpClass::TupleFetch), 10);
        assert_eq!(phase.ledger.mem_stream_bytes, 100);
        assert_eq!(phase.ledger.mem_random_accesses, 3);
        assert_eq!(phase.ledger.disk.random_ios, 1);
        assert!(ctx.is_empty(), "take_phase must drain");
    }

    #[test]
    fn default_modes() {
        assert!(ExecCtx::new().short_circuit_or);
        assert!(!ExecCtx::exhaustive().short_circuit_or);
    }

    #[test]
    fn fork_copies_knobs_but_not_charges() {
        let mut ctx = ExecCtx::exhaustive()
            .with_batch_size(7)
            .with_workers(4)
            .with_morsel_rows(99)
            .with_columnar(true)
            .with_pricing(PricingMode::Compressed);
        ctx.charge(OpClass::Arith, 5);
        let f = ctx.fork();
        assert!(f.is_empty());
        assert!(!f.short_circuit_or);
        assert_eq!(f.batch_size, 7);
        assert_eq!(f.morsel_rows, 99);
        assert!(f.columnar, "columnar mode survives forking");
        assert_eq!(
            f.pricing,
            PricingMode::Compressed,
            "pricing survives forking"
        );
        assert_eq!(f.workers, 1, "workers never nest parallel sections");
    }

    #[test]
    fn merge_worker_accumulates_totals() {
        let mut ctx = ExecCtx::new();
        ctx.charge(OpClass::Parse, 2);
        let mut w0 = ctx.fork();
        w0.charge(OpClass::TupleFetch, 10);
        w0.charge_mem_bytes(100);
        let mut w1 = ctx.fork();
        w1.charge(OpClass::TupleFetch, 20);
        w1.charge_mem_random(4);
        w1.pred_evals = 3;
        ctx.merge_worker(0, &w0);
        ctx.merge_worker(1, &w1);
        assert_eq!(ctx.ledger.cpu.count(OpClass::TupleFetch), 30);
        assert_eq!(ctx.ledger.cpu.count(OpClass::Parse), 2);
        assert_eq!(ctx.ledger.mem_stream_bytes, 100);
        assert_eq!(ctx.ledger.mem_random_accesses, 4);
        assert_eq!(ctx.pred_evals, 3);
    }

    #[test]
    fn first_error_wins_and_merges_in_worker_order() {
        use crate::error::ExecError;
        use eco_storage::IoError;
        let mut ctx = ExecCtx::new();
        assert!(ctx.error().is_none());
        let mut w0 = ctx.fork();
        let mut w1 = ctx.fork();
        w1.fail(ExecError::Io(IoError::Permanent { table: 1, page: 5 }));
        w1.fail(ExecError::Io(IoError::Permanent { table: 9, page: 9 }));
        ctx.merge_worker(0, &w0);
        ctx.merge_worker(1, &w1);
        w0.fail(ExecError::Io(IoError::Corrupt { table: 2, page: 0 }));
        ctx.merge_worker(0, &w0);
        // w1's first error was already recorded; later merges lose.
        assert_eq!(
            ctx.take_error(),
            Some(ExecError::Io(IoError::Permanent { table: 1, page: 5 }))
        );
        assert!(ctx.error().is_none(), "take_error clears the slot");
    }

    #[test]
    fn backoff_drains_into_phases_and_partitions_per_core() {
        let mut ctx = ExecCtx::new();
        ctx.ledger.backoff_ns += 100;
        let mut w1 = ctx.fork();
        w1.ledger.backoff_ns += 250;
        ctx.merge_worker(1, &w1);
        assert_eq!(ctx.ledger.backoff_ns, 350);
        let phases = ctx.take_core_phases(2, "t");
        assert_eq!(phases[0].ledger.backoff_ns, 100, "serial backoff → core 0");
        assert_eq!(phases[1].ledger.backoff_ns, 250);
        assert!(ctx.is_empty(), "backoff drains with the rest");

        let mut ctx = ExecCtx::new();
        ctx.ledger.backoff_ns += 77;
        let p = ctx.take_phase(PhaseKind::Execute, "t");
        assert_eq!(p.ledger.backoff_ns, 77);
        assert!(ctx.is_empty());
    }

    #[test]
    fn core_phases_partition_the_total_exactly() {
        let mut ctx = ExecCtx::new();
        ctx.charge(OpClass::Parse, 7); // coordinator work → core 0
        let mut w0 = ctx.fork();
        w0.charge(OpClass::TupleFetch, 10);
        let mut w1 = ctx.fork();
        w1.charge(OpClass::TupleFetch, 20);
        w1.charge_mem_bytes(64);
        ctx.merge_worker(0, &w0);
        ctx.merge_worker(1, &w1);

        let mut total = ctx.clone();
        let total_phase = total.take_phase(PhaseKind::Execute, "t");

        let phases = ctx.take_core_phases(3, "t");
        assert_eq!(phases.len(), 3);
        assert_eq!(phases[0].ledger.cpu.count(OpClass::Parse), 7);
        assert_eq!(phases[0].ledger.cpu.count(OpClass::TupleFetch), 10);
        assert_eq!(phases[1].ledger.cpu.count(OpClass::TupleFetch), 20);
        assert_eq!(phases[1].ledger.mem_stream_bytes, 64);
        assert!(phases[2].ledger.is_empty(), "unused core is idle");
        assert!(ctx.is_empty(), "take_core_phases must drain");

        let sum: Ledger = phases.iter().map(|p| &p.ledger).sum();
        sum.assert_same(&total_phase.ledger, "core phases partition the total");
    }
}
