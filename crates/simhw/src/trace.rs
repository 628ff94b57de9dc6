//! Work traces: the ledger of everything a piece of software did.
//!
//! Query execution (in `eco-query`) and storage (in `eco-storage`) do
//! *real* work over *real* data, and account for it here. The machine
//! model then prices the ledger under a particular hardware
//! configuration. Keeping execution and pricing separate is what makes
//! a PVC sweep cheap: one execution, many configurations.
//!
//! Every count lives in one [`Ledger`], and every slot of it is one
//! [`ChargeClass`] row of `CHARGE_CLASSES`. Merging, splitting,
//! comparing and zeroing ledgers are loops over that table, so a new
//! class is one row and one slot, and no consumer can forget it.
//!
//! A class's price is its row too: each row names the `PriceRole`
//! whose sum its count adds to, `Ledger::role_sums` reduces a ledger to
//! those sums in one loop over the table, and the machine model prices
//! the sums, never a field. A new class is priced by its row; the one
//! class left unpriced on purpose (`log_ios`) says so in its row.
//!
//! # Ledger schema versions
//!
//! Each row of `CHARGE_CLASSES` records the schema version that
//! introduced it; the ledger is at v5. A later version's classes are
//! zero on every run that does not use its feature, so every earlier
//! figure stays byte-for-byte unchanged, and the feature prices its
//! overhead through its own classes and nowhere else
//! ([`Ledger::without_schema`] drops a version for a compare blind to
//! it).
//!
//! * **v1** — op-class counts, memory stream bytes, random memory
//!   accesses, three disk classes (sequential bytes, random I/Os,
//!   random bytes) and the client round-trip gap.
//! * **v2** — faults: **retry random I/O** ([`DiskWork::retry_ios`] /
//!   [`DiskWork::retry_bytes`], the re-reads a checksum-verified page
//!   read pays after an injected or real fault) and **backoff halt
//!   residency** ([`Ledger::backoff_ns`], the exponential-backoff idle
//!   time between retry attempts).
//! * **v3** — the opt-in **compressed pricing mode**
//!   ([`PricingMode::Compressed`]) and [`OpClass::DictLookup`] (one
//!   id→payload translation when a kernel reads through a
//!   dictionary-encoded column). Under [`PricingMode::Raw`] (the
//!   default) no `DictLookup` is charged and scans price raw tuple
//!   bytes; under `Compressed` scans price the *encoded* bytes, so
//!   compression ratio becomes measurable joules.
//! * **v4** — secondary indexes: **index random I/O**
//!   ([`DiskWork::index_ios`] / [`DiskWork::index_bytes`], the page
//!   reads a B-tree probe and its base-row fetches pay) and
//!   [`OpClass::NodeSearch`] (one binary-search step inside a B-tree
//!   page), which make the paper's fig5 random-vs-sequential energy
//!   split reproducible from real plans.
//! * **v5** — durability: **log I/O** ([`DiskWork::log_ios`] /
//!   [`DiskWork::log_bytes`], the write-ahead-log appends an fsync
//!   pushes to stable storage) and [`OpClass::LogRecord`] (formatting
//!   and checksumming one WAL record), which make group commit (fsync
//!   batching as QED-for-writes) measurable as joules per transaction.

use std::fmt;

use crate::calib;

/// How the ledger prices column-store memory traffic (ledger schema
/// v3; see [schema versions](crate::trace#ledger-schema-versions)).
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
pub(crate) const N_OP_CLASSES: usize = 14;

impl OpClass {
    /// Stable index into per-class arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
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
    /// checksum-mismatched page read (ledger schema v2; see
    /// [schema versions](crate::trace#ledger-schema-versions)).
    pub retry_ios: u64,
    /// Bytes transferred by those retry I/Os (schema v2).
    pub retry_bytes: u64,
    /// Index random I/Os: page reads issued by a B-tree probe (index
    /// node descent *and* the base-row fetches it drives), ledgered
    /// apart from [`DiskWork::random_ios`] so scan plans keep a pure
    /// sequential/random split (ledger schema v4; see
    /// [schema versions](crate::trace#ledger-schema-versions)).
    pub index_ios: u64,
    /// Bytes transferred by those index I/Os (schema v4).
    pub index_bytes: u64,
    /// Log fsyncs: stable-storage syncs of the write-ahead log. Each
    /// fsync pushes the pending log tail as one sequential burst
    /// (ledger schema v5; see
    /// [schema versions](crate::trace#ledger-schema-versions)).
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

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.sequential_bytes
            + self.random_bytes
            + self.retry_bytes
            + self.index_bytes
            + self.log_bytes
    }
}

/// One slot of the [`Ledger`]: an op class, or one of the 13 counts
/// beside the op classes, each named after its [`Ledger`] or
/// [`DiskWork`] field. `CHARGE_CLASSES` describes each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChargeClass {
    Op(OpClass),
    MemStreamBytes,
    MemRandomAccesses,
    SequentialBytes,
    RandomIos,
    RandomBytes,
    RetryIos,
    RetryBytes,
    IndexIos,
    IndexBytes,
    LogIos,
    LogBytes,
    GapNs,
    BackoffNs,
}

/// One row of `CHARGE_CLASSES`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ClassInfo {
    /// The class.
    pub class: ChargeClass,
    /// Its name in reports and diffs.
    pub name: &'static str,
    /// The ledger schema version that introduced it.
    pub schema: u32,
    /// What it counts: `ops`, `B`, `accesses`, `I/Os` or `ns`.
    pub unit: &'static str,
    /// What one unit of it costs.
    pub price: PriceRole,
}

/// What one unit of a charge class costs: the sum of `RoleSums` its
/// count adds to. Classes that share a role other than `Cycles` price
/// identically, count for count; they are ledgered apart only for
/// bookkeeping, so that fault-free, index-free and read-only runs stay
/// bit-identical to ledgers from before their classes existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PriceRole {
    /// CPU work: `calib::OP_CYCLES` cycles per op at the class's
    /// `calib::OP_ACTIVITY` switching activity. Only op classes.
    Cycles,
    /// Bytes streamed through the memory system.
    MemStream,
    /// Latency-bound random memory accesses.
    MemRandom,
    /// Disk repositionings (seek + rotation), one per random read.
    DiskSeek,
    /// Disk bytes at the sequential streaming rate.
    DiskSeqBytes,
    /// Disk bytes at the in-block burst rate of a random read.
    DiskBurstBytes,
    /// Nanoseconds of client gap: the CPU halts through them.
    Gap,
    /// Nanoseconds of retry backoff: halted through like a gap, but
    /// converted to seconds on its own (one sum would round apart).
    Backoff,
    /// Recorded in the ledger but deliberately unpriced.
    Counted,
}

/// Number of [`ChargeClass`]es: the op classes plus 13 more.
pub(crate) const N_CHARGE_CLASSES: usize = N_OP_CLASSES + 13;

const fn row(
    class: ChargeClass,
    name: &'static str,
    schema: u32,
    unit: &'static str,
    price: PriceRole,
) -> ClassInfo {
    ClassInfo {
        class,
        name,
        schema,
        unit,
        price,
    }
}

/// Every charge class, in ledger order (the op classes first, in
/// [`OpClass::index`] order), with its price.
pub(crate) const CHARGE_CLASSES: [ClassInfo; N_CHARGE_CLASSES] = {
    use ChargeClass::*;
    use OpClass::*;
    use PriceRole::*;
    const OPS: &str = "ops";
    const BYTES: &str = "B";
    [
        row(Op(TupleFetch), "tuple_fetch", 1, OPS, Cycles),
        row(Op(PredEval), "pred_eval", 1, OPS, Cycles),
        row(Op(HashBuild), "hash_build", 1, OPS, Cycles),
        row(Op(HashProbe), "hash_probe", 1, OPS, Cycles),
        row(Op(Arith), "arith", 1, OPS, Cycles),
        row(Op(AggUpdate), "agg_update", 1, OPS, Cycles),
        row(Op(ResultEmit), "result_emit", 1, OPS, Cycles),
        row(Op(Parse), "parse", 1, OPS, Cycles),
        row(Op(SortCmp), "sort_cmp", 1, OPS, Cycles),
        row(Op(RowCopy), "row_copy", 1, OPS, Cycles),
        row(Op(SplitRoute), "split_route", 1, OPS, Cycles),
        row(Op(DictLookup), "dict_lookup", 3, OPS, Cycles),
        row(Op(NodeSearch), "node_search", 4, OPS, Cycles),
        row(Op(LogRecord), "log_record", 5, OPS, Cycles),
        row(MemStreamBytes, "mem_stream_bytes", 1, BYTES, MemStream),
        row(
            MemRandomAccesses,
            "mem_random_accesses",
            1,
            "accesses",
            MemRandom,
        ),
        row(SequentialBytes, "sequential_bytes", 1, BYTES, DiskSeqBytes),
        row(RandomIos, "random_ios", 1, "I/Os", DiskSeek),
        row(RandomBytes, "random_bytes", 1, BYTES, DiskBurstBytes),
        // A re-read repositions the head and bursts the block again.
        row(RetryIos, "retry_ios", 2, "I/Os", DiskSeek),
        row(RetryBytes, "retry_bytes", 2, BYTES, DiskBurstBytes),
        // A B-tree probe pays seek + burst per page, like any random read.
        row(IndexIos, "index_ios", 4, "I/Os", DiskSeek),
        row(IndexBytes, "index_bytes", 4, BYTES, DiskBurstBytes),
        // The log is an append-only stream the head never leaves: an
        // fsync pays its bytes at the streaming rate and no seek.
        row(LogIos, "log_ios", 5, "I/Os", Counted),
        row(LogBytes, "log_bytes", 5, BYTES, DiskSeqBytes),
        row(GapNs, "gap_ns", 1, "ns", Gap),
        row(BackoffNs, "backoff_ns", 2, "ns", Backoff),
    ]
};

/// A ledger reduced to what the machine model prices: one sum per
/// [`PriceRole`] (see `Ledger::role_sums`).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RoleSums {
    /// CPU cycles of the `Cycles` classes.
    pub cycles: f64,
    /// Those cycles, each weighted by its class's switching activity.
    pub active_cycles: f64,
    /// `MemStream` bytes.
    pub stream_bytes: u64,
    /// `MemRandom` accesses.
    pub random_accesses: u64,
    /// `DiskSeek` repositionings.
    pub seeks: u64,
    /// `DiskSeqBytes` bytes.
    pub seq_bytes: u64,
    /// `DiskBurstBytes` bytes.
    pub burst_bytes: u64,
    /// `Gap` nanoseconds.
    pub gap_nanos: u64,
    /// `Backoff` nanoseconds.
    pub backoff_nanos: u64,
}

impl RoleSums {
    /// Cycle-weighted mean switching activity of the CPU work, in
    /// `[0, 1]`; the halt activity when there is none.
    pub fn mean_activity(&self) -> f64 {
        if self.cycles <= 0.0 {
            return calib::HALT_ACTIVITY;
        }
        self.active_cycles / self.cycles
    }
}

impl ChargeClass {
    /// This class's slot: its position in `CHARGE_CLASSES` and in
    /// [`Ledger::counts`].
    pub fn index(self) -> usize {
        CHARGE_CLASSES
            .iter()
            .position(|r| r.class == self)
            .expect("every charge class has a table row")
    }

    /// This class's row of `CHARGE_CLASSES`.
    pub(crate) fn info(self) -> &'static ClassInfo {
        &CHARGE_CLASSES[self.index()]
    }
}

/// An energy ledger: every count the machine model prices, with exact
/// integer arithmetic throughout. The named groups are what charge
/// sites and pricing read; [`Ledger::counts`] and
/// `Ledger::from_counts` are the one mapping between them and the
/// rows of `CHARGE_CLASSES`, and everything that treats the ledger as
/// a whole is a loop over those counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Op-class counts.
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
    /// v2; see [schema versions](crate::trace#ledger-schema-versions)).
    pub backoff_ns: u64,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every count, slot `i` holding class `CHARGE_CLASSES[i]`.
    #[inline]
    pub fn counts(&self) -> [u64; N_CHARGE_CLASSES] {
        let d = &self.disk;
        let mut counts = [0; N_CHARGE_CLASSES];
        counts[..N_OP_CLASSES].copy_from_slice(&self.cpu.counts);
        counts[N_OP_CLASSES..].copy_from_slice(&[
            self.mem_stream_bytes,
            self.mem_random_accesses,
            d.sequential_bytes,
            d.random_ios,
            d.random_bytes,
            d.retry_ios,
            d.retry_bytes,
            d.index_ios,
            d.index_bytes,
            d.log_ios,
            d.log_bytes,
            self.gap_ns,
            self.backoff_ns,
        ]);
        counts
    }

    /// The ledger whose [`Self::counts`] are `counts`.
    #[inline]
    pub(crate) fn from_counts(counts: [u64; N_CHARGE_CLASSES]) -> Ledger {
        // A struct literal evaluates its fields top to bottom, which is
        // slot order.
        let mut slots = counts.into_iter();
        let mut next = || slots.next().expect("one count per slot");
        Ledger {
            cpu: CpuWork {
                counts: std::array::from_fn(|_| next()),
            },
            mem_stream_bytes: next(),
            mem_random_accesses: next(),
            disk: DiskWork {
                sequential_bytes: next(),
                random_ios: next(),
                random_bytes: next(),
                retry_ios: next(),
                retry_bytes: next(),
                index_ios: next(),
                index_bytes: next(),
                log_ios: next(),
                log_bytes: next(),
            },
            gap_ns: next(),
            backoff_ns: next(),
        }
    }

    /// The count recorded for `class`.
    pub fn get(&self, class: ChargeClass) -> u64 {
        self.counts()[class.index()]
    }

    /// Every class with its count, in ledger order.
    pub fn iter(&self) -> impl Iterator<Item = (ChargeClass, u64)> {
        CHARGE_CLASSES.iter().map(|r| r.class).zip(self.counts())
    }

    /// This ledger reduced to its [`RoleSums`]: one pass over the
    /// counts and `CHARGE_CLASSES`, each count added to its row's
    /// role. The cycle sums add up in table order: the op-index order
    /// every figure has been priced in.
    pub(crate) fn role_sums(&self) -> RoleSums {
        let mut s = RoleSums::default();
        for (i, (row, n)) in CHARGE_CLASSES.iter().zip(self.counts()).enumerate() {
            match row.price {
                // Op rows come first, so `i` is the op's index.
                PriceRole::Cycles => {
                    let cycles = n as f64 * calib::OP_CYCLES[i];
                    s.cycles += cycles;
                    s.active_cycles += cycles * calib::OP_ACTIVITY[i];
                }
                PriceRole::MemStream => s.stream_bytes += n,
                PriceRole::MemRandom => s.random_accesses += n,
                PriceRole::DiskSeek => s.seeks += n,
                PriceRole::DiskSeqBytes => s.seq_bytes += n,
                PriceRole::DiskBurstBytes => s.burst_bytes += n,
                PriceRole::Gap => s.gap_nanos += n,
                PriceRole::Backoff => s.backoff_nanos += n,
                PriceRole::Counted => {}
            }
        }
        s
    }

    /// Fold another ledger into this one, class by class.
    #[inline]
    pub fn merge(&mut self, other: &Ledger) {
        let (mut sum, add) = (self.counts(), other.counts());
        for (s, a) in sum.iter_mut().zip(add) {
            *s += a;
        }
        *self = Ledger::from_counts(sum);
    }

    /// Subtract `other` from this ledger. Panics, naming the class, if
    /// `other` records more of any class than this ledger — callers
    /// only ever subtract a part from its whole (a worker's share from
    /// a merged total), and wrapping would silently price exabytes.
    pub fn subtract(&mut self, other: &Ledger) {
        let (mut left, sub) = (self.counts(), other.counts());
        for ((l, s), r) in left.iter_mut().zip(sub).zip(&CHARGE_CLASSES) {
            *l = l
                .checked_sub(s)
                .unwrap_or_else(|| panic!("subtracting more {} than was recorded", r.name));
        }
        *self = Ledger::from_counts(left);
    }

    /// Member `i`'s exact share of this ledger split over `k` members:
    /// each count `c` contributes `c / k`, with the remainder `c % k`
    /// spread one unit each over members `0..c % k`. Summing the shares
    /// of all `k` members reproduces this ledger exactly — no count is
    /// lost or invented.
    pub fn exact_share(&self, i: usize, k: usize) -> Ledger {
        assert!(k >= 1, "need at least one member");
        assert!(i < k, "member index out of range");
        let (i, k) = (i as u64, k as u64);
        Ledger::from_counts(self.counts().map(|c| c / k + u64::from(i < c % k)))
    }

    /// True when every class is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.counts().iter().fold(0, |any, &c| any | c) == 0
    }

    /// This ledger with every class of schema version `v` zeroed — how
    /// a comparison ignores, say, the fault classes (`v = 2`).
    pub fn without_schema(&self, v: u32) -> Ledger {
        let mut counts = self.counts();
        for (c, r) in counts.iter_mut().zip(&CHARGE_CLASSES) {
            if r.schema == v {
                *c = 0;
            }
        }
        Ledger::from_counts(counts)
    }

    /// The classes whose counts differ between `self` (left) and
    /// `other` (right); empty when the ledgers are identical.
    pub(crate) fn diff(&self, other: &Ledger) -> LedgerDiff {
        LedgerDiff(
            self.iter()
                .zip(other.counts())
                .filter_map(|((class, left), right)| {
                    (left != right).then_some((class, left, right))
                })
                .collect(),
        )
    }

    /// Panic with the per-class `LedgerDiff` unless `other` is
    /// identical to this ledger; `what` names the comparison.
    #[track_caller]
    pub fn assert_same(&self, other: &Ledger, what: impl fmt::Display) {
        let d = self.diff(other);
        assert!(d.is_empty(), "{what}: ledgers differ\n{d}");
    }
}

impl<L: std::borrow::Borrow<Ledger>> std::iter::Sum<L> for Ledger {
    fn sum<I: Iterator<Item = L>>(iter: I) -> Ledger {
        iter.fold(Ledger::new(), |mut sum, l| {
            sum.merge(l.borrow());
            sum
        })
    }
}

/// The classes on which two ledgers differ, as `(class, left, right)`
/// in ledger order. Its `Display` prints one line per class with the
/// signed delta `right - left`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct LedgerDiff(pub Vec<(ChargeClass, u64, u64)>);

impl LedgerDiff {
    /// True when the ledgers were identical.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for LedgerDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "ledgers identical");
        }
        for (n, &(class, left, right)) in self.0.iter().enumerate() {
            let info = class.info();
            let delta = i128::from(right) - i128::from(left);
            if n > 0 {
                writeln!(f)?;
            }
            write!(
                f,
                "{}: left {left}, right {right}, delta {delta:+} {}",
                info.name, info.unit
            )?;
        }
        Ok(())
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
    /// Free-form label for reports ("Q5 #3", "qed batch", ...).
    pub label: String,
    /// Everything charged during the interval.
    pub ledger: Ledger,
}

impl Phase {
    /// A new, empty execution phase with the given label.
    pub fn execute(label: impl Into<String>) -> Self {
        Self {
            kind: PhaseKind::Execute,
            label: label.into(),
            ledger: Ledger::new(),
        }
    }

    /// A client round-trip gap of `ns` nanoseconds.
    pub fn client_gap(ns: u64) -> Self {
        Self {
            kind: PhaseKind::ClientGap,
            label: "client gap".to_string(),
            ledger: Ledger {
                gap_ns: ns,
                ..Ledger::new()
            },
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

    /// The summed ledger of every phase.
    pub fn total(&self) -> Ledger {
        self.phases.iter().map(|p| &p.ledger).sum()
    }

    /// Sum of all CPU work across phases.
    pub fn total_cpu(&self) -> CpuWork {
        self.total().cpu
    }

    /// Sum of all disk work across phases.
    pub fn total_disk(&self) -> DiskWork {
        self.total().disk
    }

    /// Total bytes streamed through memory.
    pub fn total_mem_stream_bytes(&self) -> u64 {
        self.total().mem_stream_bytes
    }
}

impl FromIterator<Phase> for WorkTrace {
    fn from_iter<I: IntoIterator<Item = Phase>>(phases: I) -> Self {
        Self {
            phases: phases.into_iter().collect(),
        }
    }
}

/// Concatenation: each trace's phases in turn (per-statement traces
/// into one workload trace).
impl FromIterator<WorkTrace> for WorkTrace {
    fn from_iter<I: IntoIterator<Item = WorkTrace>>(traces: I) -> Self {
        traces.into_iter().flat_map(|t| t.phases).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `Cycles` rows are the op rows, and each reads its own
    /// calibration entry.
    #[test]
    fn op_class_indices_are_dense_and_unique() {
        for (i, r) in CHARGE_CLASSES.iter().enumerate() {
            let is_op = matches!(r.class, ChargeClass::Op(_));
            assert_eq!(is_op, r.price == PriceRole::Cycles, "{}", r.name);
            if let ChargeClass::Op(c) = r.class {
                let mut l = Ledger::new();
                l.cpu.add(c, 2);
                let s = l.role_sums();
                let want = (2.0 * calib::OP_CYCLES[i], calib::OP_ACTIVITY[i]);
                assert_eq!((c.index(), (s.cycles, s.mean_activity())), (i, want));
            }
        }
    }

    #[test]
    fn charge_class_table_lists_every_slot_once() {
        for (i, r) in CHARGE_CLASSES.iter().enumerate() {
            assert_eq!((r.class.index(), r.class.info()), (i, r), "{}", r.name);
            assert!((1..=5).contains(&r.schema), "{}: v1-v5", r.name);
            let named_twice = CHARGE_CLASSES[..i].iter().any(|q| q.name == r.name);
            assert!(!named_twice, "{} named twice", r.name);
            // Slot `i` is the field the row names: a ledger with a 1 in
            // slot `i` alone reads back, and shows `name: 1` (an op
            // class: the op rows come first, in index order).
            let mut counts = [0; N_CHARGE_CLASSES];
            counts[i] = 1;
            let l = Ledger::from_counts(counts);
            assert_eq!((l.counts(), l.get(r.class)), (counts, 1), "{}", r.name);
            match r.class {
                ChargeClass::Op(c) => assert_eq!((c.index(), l.cpu.count(c)), (i, 1)),
                _ => assert!(format!("{l:?}").contains(&format!("{}: 1", r.name))),
            }
        }
    }

    /// The role sums of a ledger holding only `cpu`.
    fn cpu_sums(cpu: CpuWork) -> RoleSums {
        Ledger {
            cpu,
            ..Ledger::new()
        }
        .role_sums()
    }

    #[test]
    fn cpu_work_accumulates() {
        let mut a = CpuWork::new();
        a.add(OpClass::TupleFetch, 10);
        a.add(OpClass::PredEval, 5);
        a.add(OpClass::PredEval, 7);
        assert_eq!(a.count(OpClass::PredEval), 12);
        assert_eq!(a.total_ops(), 22);
        assert!(cpu_sums(a).cycles > 0.0);
    }

    #[test]
    fn mean_activity_is_bounded() {
        let mut w = CpuWork::new();
        for r in &CHARGE_CLASSES {
            if let ChargeClass::Op(c) = r.class {
                w.add(c, 3);
            }
        }
        let a = cpu_sums(w).mean_activity();
        assert!(a > 0.0 && a <= 1.0, "activity {a} out of range");
    }

    #[test]
    fn empty_work_reports_halt_activity() {
        assert_eq!(
            cpu_sums(CpuWork::new()).mean_activity(),
            calib::HALT_ACTIVITY
        );
    }

    #[test]
    fn high_ilp_work_draws_more_than_copy_work() {
        let mut hot = CpuWork::new();
        hot.add(OpClass::PredEval, 1000);
        let mut cold = CpuWork::new();
        cold.add(OpClass::RowCopy, 1000);
        assert!(cpu_sums(hot).mean_activity() > cpu_sums(cold).mean_activity());
    }

    #[test]
    fn trace_totals() {
        let mut t = WorkTrace::new();
        let mut p = Phase::execute("a");
        p.ledger.cpu.add(OpClass::Arith, 4);
        p.ledger.mem_stream_bytes = 100;
        p.ledger.disk.sequential_bytes = 50;
        t.push(p);
        let mut q = Phase::execute("b");
        q.ledger.cpu.add(OpClass::Arith, 6);
        q.ledger.disk.random_ios = 2;
        q.ledger.disk.random_bytes = 8192;
        t.push(q);
        t.push(Phase::client_gap(7));
        assert_eq!(t.total_cpu().count(OpClass::Arith), 10);
        assert_eq!(t.total_disk().sequential_bytes, 50);
        assert_eq!(t.total_disk().random_ios, 2);
        assert_eq!(t.total_mem_stream_bytes(), 100);
        assert_eq!(t.total().gap_ns, 7);
        assert_eq!(t.len(), 3);
    }

    /// The per-schema property: a fresh phase is zero in every class,
    /// and charging one class of schema `v` moves that class alone —
    /// no leak into any other class, earlier schema or not.
    fn classes_are_separate_and_zero_by_default(v: u32) {
        let fresh = Phase::execute("fresh").ledger;
        assert!(fresh.is_empty(), "{fresh:?}");
        let rows: Vec<_> = CHARGE_CLASSES.iter().filter(|r| r.schema == v).collect();
        assert!(!rows.is_empty(), "schema v{v} has classes");
        for r in rows {
            let mut counts = fresh.counts();
            counts[r.class.index()] += 3;
            let charged = Ledger::from_counts(counts);
            assert_eq!(
                fresh.diff(&charged),
                LedgerDiff(vec![(r.class, 0, 3)]),
                "{}",
                r.name
            );
            assert!(!charged.is_empty());
            assert!(charged.without_schema(v).is_empty(), "{}", r.name);
            let mut back = charged.clone();
            back.subtract(&charged);
            assert_eq!(back, fresh, "{}", r.name);
        }
    }

    #[test]
    fn retry_classes_are_separate_and_zero_by_default() {
        classes_are_separate_and_zero_by_default(2);
    }

    #[test]
    fn index_classes_are_separate_and_zero_by_default() {
        classes_are_separate_and_zero_by_default(4);
    }

    #[test]
    fn log_classes_are_separate_and_zero_by_default() {
        classes_are_separate_and_zero_by_default(5);
    }

    /// A ledger with a distinct prime count in every class.
    fn prime_ledger() -> Ledger {
        let mut primes = (2u64..).filter(|n| (2..*n).all(|d| n % d != 0));
        Ledger::from_counts(std::array::from_fn(|_| primes.next().unwrap() * 1_000_003))
    }

    #[test]
    fn exact_shares_sum_back_to_the_whole() {
        let whole = prime_ledger();
        for k in [1usize, 2, 3, 7, 64] {
            let sum: Ledger = (0..k).map(|i| whole.exact_share(i, k)).sum();
            whole.assert_same(&sum, format_args!("k={k}"));
        }
    }

    #[test]
    fn shares_differ_by_at_most_one_unit() {
        let whole = prime_ledger();
        let k = 7;
        let shares: Vec<Ledger> = (0..k).map(|i| whole.exact_share(i, k)).collect();
        for r in &CHARGE_CLASSES {
            let counts: Vec<u64> = shares.iter().map(|s| s.get(r.class)).collect();
            let max = *counts.iter().max().unwrap();
            let min = *counts.iter().min().unwrap();
            assert!(max - min <= 1, "{}: shares {counts:?}", r.name);
        }
    }

    #[test]
    fn seeded_drift_names_the_class_and_the_delta() {
        let left = prime_ledger();
        let mut right = left.clone();
        right.disk.index_bytes += 1;
        let diff = left.diff(&right);
        assert_eq!(diff.0.len(), 1, "only the seeded class drifted");
        let shown = diff.to_string();
        assert!(
            shown.contains("index_bytes") && shown.contains("+1"),
            "{shown}"
        );
        assert_eq!(left.diff(&left).to_string(), "ledgers identical");
    }

    #[test]
    #[should_panic(expected = "subtracting more backoff_ns than was recorded")]
    fn subtract_names_the_overdrawn_class() {
        let mut l = Ledger::new();
        l.subtract(&Ledger {
            backoff_ns: 1,
            ..Ledger::new()
        });
    }
}
