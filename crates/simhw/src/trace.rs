//! Work traces: the ledger of everything a piece of software did.
//!
//! Query execution (in `eco-query`) and storage (in `eco-storage`) do
//! *real* work over *real* data, and account for it here. The machine
//! model then prices the ledger under a particular hardware
//! configuration. Keeping execution and pricing separate is what makes
//! a PVC sweep cheap: one execution, many configurations.

use crate::calib;

/// Version of the ledger schema.
///
/// * **v1** — op-class counts, memory stream bytes, random memory
///   accesses, and three disk classes (sequential bytes, random I/Os,
///   random bytes).
/// * **v2** — adds the fault-tolerance charge classes: **retry random
///   I/O** ([`DiskWork::retry_ios`] / [`DiskWork::retry_bytes`], the
///   re-reads a checksum-verified page read pays after an injected or
///   real fault) and **backoff halt residency** ([`Phase::backoff_ns`],
///   the exponential-backoff idle time between retry attempts, priced
///   like a client gap through the governor's halt residency).
///
/// The v2 classes are zero on any fault-free run, so every v1 figure
/// is byte-for-byte unchanged; a run with faults prices its robustness
/// overhead through these classes and nowhere else.
///
/// * **v3** — adds the opt-in **compressed pricing mode**
///   ([`PricingMode::Compressed`]) and the dictionary-lookup charge
///   class ([`OpClass::DictLookup`], one id→payload translation when an
///   execution kernel reads through a dictionary-encoded column). Under
///   [`PricingMode::Raw`] (the default) no `DictLookup` is ever
///   charged and every scan prices its *raw* tuple bytes, so every
///   v1/v2 figure stays byte-for-byte unchanged; under
///   [`PricingMode::Compressed`] scans price the *encoded* byte counts
///   as memory traffic and compressed kernels charge `DictLookup`, so
///   compression ratio becomes measurable joules.
///
/// * **v4** — adds the secondary-index charge classes: **index random
///   I/O** ([`DiskWork::index_ios`] / [`DiskWork::index_bytes`], the
///   page reads a B-tree probe and its base-row fetches pay through the
///   buffer pool — priced exactly like random I/O but ledgered apart so
///   scan-shaped plans keep their pure sequential/random split) and the
///   node-search CPU class ([`OpClass::NodeSearch`], one binary-search
///   step inside a B-tree page). Index-free runs charge nothing to the
///   v4 classes, so every v1–v3 figure stays byte-for-byte unchanged;
///   an index plan prices its probe overhead through these classes and
///   nowhere else, which is what makes the paper's fig5
///   random-vs-sequential energy split reproducible from real plans.
///
/// * **v5** — adds the durability charge classes: **log I/O**
///   ([`DiskWork::log_ios`] / [`DiskWork::log_bytes`], the write-ahead
///   log appends an fsync pushes to stable storage — priced as
///   *sequential* transfer because the log is an append-only stream the
///   head never leaves, with no per-fsync seek) and the log-record CPU
///   class ([`OpClass::LogRecord`], formatting + checksumming one WAL
///   record). Read-only runs charge nothing to the v5 classes, so every
///   v1–v4 figure stays byte-for-byte unchanged; a mutating workload
///   prices its durability overhead through these classes and nowhere
///   else, which is what makes group commit (fsync batching as
///   QED-for-writes) measurable as joules per transaction.
pub const LEDGER_SCHEMA_VERSION: u32 = 5;

/// How the ledger prices column-store memory traffic (ledger schema
/// v3; see [`LEDGER_SCHEMA_VERSION`]).
///
/// * [`PricingMode::Raw`] — every scan charges the raw (uncompressed)
///   tuple bytes and no [`OpClass::DictLookup`] is ever recorded. This
///   is the bit-identical mode every reproduced figure is priced
///   under: op-class counts, memory bytes, random accesses and disk
///   I/O are invariant across scalar/columnar/parallel execution.
/// * [`PricingMode::Compressed`] — scans over encoded columnar
///   mirrors charge the *encoded* bytes per tuple as memory traffic,
///   and kernels that read through a dictionary charge one
///   [`OpClass::DictLookup`] per id translation. CPU op counts may
///   legitimately differ from raw mode (a dictionary predicate
///   compares once per *distinct* value; an RLE aggregate accumulates
///   once per *run*), so compressed-mode ledgers are comparable to
///   each other, not to raw-mode ledgers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PricingMode {
    /// Raw tuple bytes; bit-identical to every pre-v3 ledger.
    #[default]
    Raw,
    /// Encoded bytes as memory traffic + `DictLookup` charges (v3).
    Compressed,
}

/// Classes of CPU work with distinct cycle costs and switching-activity
/// levels. The split matters for power: a tight predicate-evaluation
/// loop keeps the out-of-order core saturated (high switching activity,
/// high watts) while result copying is memory-bound (low activity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum OpClass {
    /// Advance to the next tuple in a scan (pointer chase + header decode).
    TupleFetch = 0,
    /// Evaluate one predicate term against a tuple (interpreted expression tree).
    PredEval = 1,
    /// Insert one row into a hash table (hash + bucket write).
    HashBuild = 2,
    /// Probe a hash table with one key.
    HashProbe = 3,
    /// One scalar arithmetic step in an expression (add/mul/compare on values).
    Arith = 4,
    /// Update one aggregate accumulator.
    AggUpdate = 5,
    /// Materialize one output row into the result buffer.
    ResultEmit = 6,
    /// Per-token parse / plan / admission work for one statement.
    Parse = 7,
    /// One comparison inside a sort.
    SortCmp = 8,
    /// Copy one row between buffers (client-side, JDBC-style).
    RowCopy = 9,
    /// Route one aggregated-result row back to its originating query
    /// (the QED application-side split).
    SplitRoute = 10,
    /// Translate one dictionary id to its payload (or match a
    /// pre-evaluated id) inside a compressed execution kernel. Charged
    /// only under [`PricingMode::Compressed`] (ledger schema v3) —
    /// raw-mode ledgers never record it, keeping every pre-v3 figure
    /// bit-identical.
    DictLookup = 11,
    /// One binary-search step inside a B-tree index page (key compare +
    /// child-slot narrowing). Charged only by index probes (ledger
    /// schema v4) — index-free runs never record it, keeping every
    /// pre-v4 figure bit-identical.
    NodeSearch = 12,
    /// Format and checksum one write-ahead-log record (serialize the
    /// mutation + FNV over the payload). Charged only by the mutating
    /// write path (ledger schema v5) — read-only runs never record it,
    /// keeping every pre-v5 figure bit-identical.
    LogRecord = 13,
}

/// Number of [`OpClass`] variants.
pub const N_OP_CLASSES: usize = 14;

/// All op classes, in discriminant order.
pub const ALL_OP_CLASSES: [OpClass; N_OP_CLASSES] = [
    OpClass::TupleFetch,
    OpClass::PredEval,
    OpClass::HashBuild,
    OpClass::HashProbe,
    OpClass::Arith,
    OpClass::AggUpdate,
    OpClass::ResultEmit,
    OpClass::Parse,
    OpClass::SortCmp,
    OpClass::RowCopy,
    OpClass::SplitRoute,
    OpClass::DictLookup,
    OpClass::NodeSearch,
    OpClass::LogRecord,
];

impl OpClass {
    /// Stable index into per-class arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Cycles consumed by one operation of this class (at any frequency;
    /// cycle counts are frequency-independent, wall time is not).
    #[inline]
    pub fn cycles(self) -> f64 {
        calib::OP_CYCLES[self.index()]
    }

    /// Switching-activity factor in `[0, 1]`: the fraction of peak
    /// dynamic power the core draws while executing this class.
    #[inline]
    pub fn activity(self) -> f64 {
        calib::OP_ACTIVITY[self.index()]
    }

    /// Human-readable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::TupleFetch => "tuple_fetch",
            OpClass::PredEval => "pred_eval",
            OpClass::HashBuild => "hash_build",
            OpClass::HashProbe => "hash_probe",
            OpClass::Arith => "arith",
            OpClass::AggUpdate => "agg_update",
            OpClass::ResultEmit => "result_emit",
            OpClass::Parse => "parse",
            OpClass::SortCmp => "sort_cmp",
            OpClass::RowCopy => "row_copy",
            OpClass::SplitRoute => "split_route",
            OpClass::DictLookup => "dict_lookup",
            OpClass::NodeSearch => "node_search",
            OpClass::LogRecord => "log_record",
        }
    }
}

/// Per-class operation counts for one phase of execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CpuWork {
    counts: [u64; N_OP_CLASSES],
}

impl CpuWork {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` operations of class `class`.
    #[inline]
    pub fn add(&mut self, class: OpClass, n: u64) {
        self.counts[class.index()] += n;
    }

    /// Number of operations recorded for `class`.
    #[inline]
    pub fn count(&self, class: OpClass) -> u64 {
        self.counts[class.index()]
    }

    /// Total operations across all classes.
    pub fn total_ops(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total CPU cycles implied by the recorded operations.
    pub fn cycles(&self) -> f64 {
        ALL_OP_CLASSES
            .iter()
            .map(|c| self.counts[c.index()] as f64 * c.cycles())
            .sum()
    }

    /// Cycle-weighted mean switching activity of this work, in `[0, 1]`.
    /// Returns the configured halt activity if the ledger is empty.
    pub fn mean_activity(&self) -> f64 {
        let cycles = self.cycles();
        if cycles <= 0.0 {
            return calib::HALT_ACTIVITY;
        }
        let weighted: f64 = ALL_OP_CLASSES
            .iter()
            .map(|c| self.counts[c.index()] as f64 * c.cycles() * c.activity())
            .sum();
        weighted / cycles
    }

    /// Merge another ledger into this one.
    pub fn merge(&mut self, other: &CpuWork) {
        for i in 0..N_OP_CLASSES {
            self.counts[i] += other.counts[i];
        }
    }

    /// Subtract `other` from this ledger. Panics if `other` records more
    /// of any class than this ledger — callers only ever subtract a
    /// part from its whole (e.g. a worker's share from a merged total).
    pub fn subtract(&mut self, other: &CpuWork) {
        for i in 0..N_OP_CLASSES {
            self.counts[i] = self.counts[i]
                .checked_sub(other.counts[i])
                .expect("subtracting more work than was recorded");
        }
    }

    /// True when no operations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }
}

/// Disk work performed during a phase, split by access pattern because
/// the two patterns have very different time and energy costs (paper §3.5).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DiskWork {
    /// Bytes read sequentially (streaming, no repositioning per block).
    pub sequential_bytes: u64,
    /// Number of random accesses (each pays seek + rotation).
    pub random_ios: u64,
    /// Bytes transferred by those random accesses.
    pub random_bytes: u64,
    /// Retry random I/Os: re-reads issued after a failed or
    /// checksum-mismatched page read. Priced exactly like
    /// [`DiskWork::random_ios`] but ledgered separately so fault-free
    /// runs stay bit-identical (ledger schema v2; see
    /// [`LEDGER_SCHEMA_VERSION`]).
    pub retry_ios: u64,
    /// Bytes transferred by those retry I/Os (schema v2).
    pub retry_bytes: u64,
    /// Index random I/Os: page reads issued by a B-tree probe (index
    /// node descent *and* the base-row fetches it drives). Priced
    /// exactly like [`DiskWork::random_ios`] but ledgered separately so
    /// index-free runs stay bit-identical and scan plans keep a pure
    /// sequential/random split (ledger schema v4; see
    /// [`LEDGER_SCHEMA_VERSION`]).
    pub index_ios: u64,
    /// Bytes transferred by those index I/Os (schema v4).
    pub index_bytes: u64,
    /// Log fsyncs: stable-storage syncs of the write-ahead log. Each
    /// fsync pushes the pending log tail as one sequential burst (the
    /// log is append-only, so the head never repositions) — priced like
    /// [`DiskWork::sequential_bytes`] but ledgered separately so
    /// read-only runs stay bit-identical (ledger schema v5; see
    /// [`LEDGER_SCHEMA_VERSION`]).
    pub log_ios: u64,
    /// Bytes pushed to stable storage by those fsyncs, rounded up to
    /// whole device blocks per fsync — which is exactly why group
    /// commit wins: many small commits each pay a full block, one
    /// batched fsync pays it once (schema v5).
    pub log_bytes: u64,
}

impl DiskWork {
    /// No disk activity.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when no I/O was recorded.
    pub fn is_empty(&self) -> bool {
        self.sequential_bytes == 0
            && self.random_ios == 0
            && self.random_bytes == 0
            && self.retry_ios == 0
            && self.retry_bytes == 0
            && self.index_ios == 0
            && self.index_bytes == 0
            && self.log_ios == 0
            && self.log_bytes == 0
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.sequential_bytes
            + self.random_bytes
            + self.retry_bytes
            + self.index_bytes
            + self.log_bytes
    }

    /// Merge another disk ledger into this one.
    pub fn merge(&mut self, other: &DiskWork) {
        self.sequential_bytes += other.sequential_bytes;
        self.random_ios += other.random_ios;
        self.random_bytes += other.random_bytes;
        self.retry_ios += other.retry_ios;
        self.retry_bytes += other.retry_bytes;
        self.index_ios += other.index_ios;
        self.index_bytes += other.index_bytes;
        self.log_ios += other.log_ios;
        self.log_bytes += other.log_bytes;
    }

    /// Subtract `other` from this ledger. Panics if `other` records
    /// more I/O than this ledger (see [`CpuWork::subtract`]).
    pub fn subtract(&mut self, other: &DiskWork) {
        self.sequential_bytes = self
            .sequential_bytes
            .checked_sub(other.sequential_bytes)
            .expect("subtracting more sequential I/O than was recorded");
        self.random_ios = self
            .random_ios
            .checked_sub(other.random_ios)
            .expect("subtracting more random I/Os than were recorded");
        self.random_bytes = self
            .random_bytes
            .checked_sub(other.random_bytes)
            .expect("subtracting more random bytes than were recorded");
        self.retry_ios = self
            .retry_ios
            .checked_sub(other.retry_ios)
            .expect("subtracting more retry I/Os than were recorded");
        self.retry_bytes = self
            .retry_bytes
            .checked_sub(other.retry_bytes)
            .expect("subtracting more retry bytes than were recorded");
        self.index_ios = self
            .index_ios
            .checked_sub(other.index_ios)
            .expect("subtracting more index I/Os than were recorded");
        self.index_bytes = self
            .index_bytes
            .checked_sub(other.index_bytes)
            .expect("subtracting more index bytes than were recorded");
        self.log_ios = self
            .log_ios
            .checked_sub(other.log_ios)
            .expect("subtracting more log I/Os than were recorded");
        self.log_bytes = self
            .log_bytes
            .checked_sub(other.log_bytes)
            .expect("subtracting more log bytes than were recorded");
    }
}

/// What kind of interval a phase represents; used for reporting and for
/// p-state policy (the DVFS governor idles the CPU during disk waits and
/// client gaps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// CPU executing query work.
    Execute,
    /// Client/server round trip: the CPU sits in active idle (C1)
    /// between a result returning and the next statement arriving.
    ClientGap,
    /// Result post-processing in the client application (QED split).
    ClientCompute,
}

/// One contiguous interval of accounted work.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// What the interval represents.
    pub kind: PhaseKind,
    /// CPU operations performed.
    pub cpu: CpuWork,
    /// Bytes streamed through the memory system (table scans, copies).
    pub mem_stream_bytes: u64,
    /// Latency-bound random memory accesses (hash probes into tables
    /// larger than cache, pointer chases).
    pub mem_random_accesses: u64,
    /// Disk activity (the CPU idles while it waits).
    pub disk: DiskWork,
    /// Wall-clock nanoseconds of enforced gap (client round trips,
    /// think time). Independent of CPU frequency.
    pub gap_ns: u64,
    /// Wall-clock nanoseconds spent in retry backoff after page read
    /// faults. The CPU halts through it, like a gap, but it is ledgered
    /// separately so fault-free runs stay bit-identical (ledger schema
    /// v2; see [`LEDGER_SCHEMA_VERSION`]).
    pub backoff_ns: u64,
    /// Free-form label for reports ("Q5 #3", "qed batch", ...).
    pub label: String,
}

impl Phase {
    /// A new, empty execution phase with the given label.
    pub fn execute(label: impl Into<String>) -> Self {
        Self {
            kind: PhaseKind::Execute,
            cpu: CpuWork::new(),
            mem_stream_bytes: 0,
            mem_random_accesses: 0,
            disk: DiskWork::none(),
            gap_ns: 0,
            backoff_ns: 0,
            label: label.into(),
        }
    }

    /// A client round-trip gap of `ns` nanoseconds.
    pub fn client_gap(ns: u64) -> Self {
        Self {
            kind: PhaseKind::ClientGap,
            cpu: CpuWork::new(),
            mem_stream_bytes: 0,
            mem_random_accesses: 0,
            disk: DiskWork::none(),
            gap_ns: ns,
            backoff_ns: 0,
            label: "client gap".to_string(),
        }
    }

    /// A client-side compute phase (e.g. the QED result split).
    pub fn client_compute(label: impl Into<String>) -> Self {
        Self {
            kind: PhaseKind::ClientCompute,
            ..Self::execute(label)
        }
    }
}

/// A complete trace: the ordered phases of one workload run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkTrace {
    phases: Vec<Phase>,
}

impl WorkTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a phase.
    pub fn push(&mut self, phase: Phase) {
        self.phases.push(phase);
    }

    /// The recorded phases, in order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Number of phases.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// True when the trace has no phases.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Concatenate another trace onto this one.
    pub fn extend(&mut self, other: WorkTrace) {
        self.phases.extend(other.phases);
    }

    /// Sum of all CPU work across phases.
    pub fn total_cpu(&self) -> CpuWork {
        let mut w = CpuWork::new();
        for p in &self.phases {
            w.merge(&p.cpu);
        }
        w
    }

    /// Sum of all disk work across phases.
    pub fn total_disk(&self) -> DiskWork {
        let mut d = DiskWork::none();
        for p in &self.phases {
            d.merge(&p.disk);
        }
        d
    }

    /// Total bytes streamed through memory.
    pub fn total_mem_stream_bytes(&self) -> u64 {
        self.phases.iter().map(|p| p.mem_stream_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_class_indices_are_dense_and_unique() {
        for (i, c) in ALL_OP_CLASSES.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn cpu_work_accumulates_and_merges() {
        let mut a = CpuWork::new();
        a.add(OpClass::TupleFetch, 10);
        a.add(OpClass::PredEval, 5);
        let mut b = CpuWork::new();
        b.add(OpClass::PredEval, 7);
        a.merge(&b);
        assert_eq!(a.count(OpClass::PredEval), 12);
        assert_eq!(a.total_ops(), 22);
        assert!(a.cycles() > 0.0);
    }

    #[test]
    fn mean_activity_is_bounded() {
        let mut w = CpuWork::new();
        for c in ALL_OP_CLASSES {
            w.add(c, 3);
        }
        let a = w.mean_activity();
        assert!(a > 0.0 && a <= 1.0, "activity {a} out of range");
    }

    #[test]
    fn empty_work_reports_halt_activity() {
        let w = CpuWork::new();
        assert_eq!(w.mean_activity(), calib::HALT_ACTIVITY);
        assert!(w.is_empty());
    }

    #[test]
    fn high_ilp_work_draws_more_than_copy_work() {
        let mut hot = CpuWork::new();
        hot.add(OpClass::PredEval, 1000);
        let mut cold = CpuWork::new();
        cold.add(OpClass::RowCopy, 1000);
        assert!(hot.mean_activity() > cold.mean_activity());
    }

    #[test]
    fn trace_totals() {
        let mut t = WorkTrace::new();
        let mut p = Phase::execute("a");
        p.cpu.add(OpClass::Arith, 4);
        p.mem_stream_bytes = 100;
        p.disk.sequential_bytes = 50;
        t.push(p);
        let mut q = Phase::execute("b");
        q.cpu.add(OpClass::Arith, 6);
        q.disk.random_ios = 2;
        q.disk.random_bytes = 8192;
        t.push(q);
        assert_eq!(t.total_cpu().count(OpClass::Arith), 10);
        assert_eq!(t.total_disk().sequential_bytes, 50);
        assert_eq!(t.total_disk().random_ios, 2);
        assert_eq!(t.total_mem_stream_bytes(), 100);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn retry_classes_are_separate_and_zero_by_default() {
        // Fault-free construction charges nothing to the v2 classes.
        let p = Phase::execute("clean");
        assert_eq!(p.disk.retry_ios, 0);
        assert_eq!(p.disk.retry_bytes, 0);
        assert_eq!(p.backoff_ns, 0);

        let mut a = DiskWork::none();
        a.retry_ios = 3;
        a.retry_bytes = 3 * 8192;
        assert!(!a.is_empty());
        assert_eq!(a.total_bytes(), 3 * 8192);
        let mut b = DiskWork::none();
        b.retry_ios = 1;
        b.retry_bytes = 8192;
        a.merge(&b);
        assert_eq!(a.retry_ios, 4);
        a.subtract(&b);
        assert_eq!(a.retry_ios, 3);
        // Retry I/O never leaks into the v1 random-I/O class.
        assert_eq!(a.random_ios, 0);
        assert_eq!(a.random_bytes, 0);
    }

    #[test]
    fn index_classes_are_separate_and_zero_by_default() {
        // Index-free construction charges nothing to the v4 classes.
        let p = Phase::execute("scan only");
        assert_eq!(p.disk.index_ios, 0);
        assert_eq!(p.disk.index_bytes, 0);
        assert_eq!(p.cpu.count(OpClass::NodeSearch), 0);

        let mut a = DiskWork::none();
        a.index_ios = 5;
        a.index_bytes = 5 * 8192;
        assert!(!a.is_empty());
        assert_eq!(a.total_bytes(), 5 * 8192);
        let mut b = DiskWork::none();
        b.index_ios = 2;
        b.index_bytes = 2 * 8192;
        a.merge(&b);
        assert_eq!(a.index_ios, 7);
        a.subtract(&b);
        assert_eq!(a.index_ios, 5);
        // Index I/O never leaks into the v1 or v2 disk classes.
        assert_eq!(a.random_ios, 0);
        assert_eq!(a.random_bytes, 0);
        assert_eq!(a.retry_ios, 0);
        assert_eq!(a.sequential_bytes, 0);
    }

    #[test]
    fn log_classes_are_separate_and_zero_by_default() {
        // Read-only construction charges nothing to the v5 classes.
        let p = Phase::execute("read only");
        assert_eq!(p.disk.log_ios, 0);
        assert_eq!(p.disk.log_bytes, 0);
        assert_eq!(p.cpu.count(OpClass::LogRecord), 0);

        let mut a = DiskWork::none();
        a.log_ios = 3;
        a.log_bytes = 3 * 8192;
        assert!(!a.is_empty());
        assert_eq!(a.total_bytes(), 3 * 8192);
        let mut b = DiskWork::none();
        b.log_ios = 1;
        b.log_bytes = 8192;
        a.merge(&b);
        assert_eq!(a.log_ios, 4);
        a.subtract(&b);
        assert_eq!(a.log_ios, 3);
        // Log I/O never leaks into any earlier-schema disk class.
        assert_eq!(a.sequential_bytes, 0);
        assert_eq!(a.random_ios, 0);
        assert_eq!(a.retry_ios, 0);
        assert_eq!(a.index_ios, 0);
    }
}
