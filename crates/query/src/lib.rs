//! # eco-query — the query execution engine under ecoDB
//!
//! A Volcano-style (iterator) executor over `eco-storage` tables with a
//! **columnar chunk path**. Every operator does *real* work on real
//! data — scans scan, hash joins build and probe real hash tables,
//! aggregates accumulate — and simultaneously accounts for that work in
//! an [`context::ExecCtx`] ledger, which the machine model (`eco-simhw`)
//! later prices in time and joules under a PVC setting.
//!
//! ## Two engines: columnar ships, scalar is the oracle
//!
//! [`ops::Operator::next_chunk`] streams [`chunk::Chunk`]s — `Arc`-shared
//! windows of typed column vectors (`eco-storage`'s `DataChunk`) plus a
//! *selection vector* of live rows — through the plan. Scans emit
//! windows over a table's columns with no per-row clone; filters refine
//! the selection vector column-at-a-time (short-circuiting becomes
//! selection narrowing, with identical evaluation counts); joins and
//! aggregates hash key columns a chunk at a time through one shared key
//! kernel — the join keeps its build side as columns and gathers its
//! output, the aggregate updates typed accumulator arrays keyed by
//! group id; rows are re-materialized only by sort and by a caller that
//! reads the result's rows — the top of the plan hands out a view of its
//! final chunks (**late materialization**). This is the engine `EcoDb`
//! runs.
//!
//! [`ops::Operator::next`] is the tuple-at-a-time Volcano loop: the
//! scalar oracle every differential test compares the columnar engine
//! against. [`ExecCtx::columnar`](context::ExecCtx) picks between the
//! two, [`exec::execute`] dispatches on it, and [`exec::ExecEngine`]
//! names both.
//!
//! The load-bearing invariant: **the energy ledger is identical across
//! the two engines** — same op-class counts, memory bytes, random
//! accesses and disk I/O, bit for bit. The columnar paths charge per
//! chunk *with counts* (`charge(class, n)`), never re-price work, so a
//! figure computed from a columnar run equals one computed from a
//! scalar run — enforced by `tests/integration_columnar.rs` and the
//! `columnar_matches_scalar` property test, on both storage engines,
//! cold and warm, serial and morsel-parallel. The chunk size
//! ([`ExecCtx::batch_size`](context::ExecCtx), default
//! `DEFAULT_BATCH_SIZE` = 1024) is a pure throughput knob.
//!
//! ## Morsel-driven parallel execution
//!
//! On the columnar engine [`exec::execute_rows`] runs a plan across
//! [`ExecCtx::workers`](context::ExecCtx) worker threads (the scalar
//! oracle runs serial at any worker count):
//! partitionable pipelines split into morsels (rows for memory sources,
//! whole disk extents for paged tables; [`ops::Operator::split`]),
//! workers run the per-morsel pipelines charging private forked
//! ledgers, and results merge back **in morsel order** — through the
//! driver's own gather of a partitionable root, a partitioned parallel
//! [`ops::HashJoin`] build, per-morsel partial aggregation in
//! [`ops::HashAggregate`], and an order-preserving gather below
//! [`ops::Sort`]. The invariant extends to parallelism: the
//! **merged ledger is bit-identical to serial execution at every worker
//! count** (enforced by `tests/integration_parallel.rs` and the
//! `parallel_matches_serial` property test), so every figure in the
//! reproduction is reproducible at any core count while wall-clock time
//! scales with workers (the `parallel` target of the `repro` binary
//! prints the simulated makespans).
//!
//! The crate also provides:
//!
//! * hand-built physical plans for TPC-H Q1/Q3/Q5/Q6 and simple
//!   selections ([`plans`]) — index-free by default, matching the
//!   paper's setup ("we did not create any database indices"), with an
//!   opt-in indexed variant ([`ops::IxScan`] probes, ledger schema v4)
//!   for the random-vs-sequential energy studies;
//! * the multi-query optimizer used by QED ([`mqo`]): merge a batch of
//!   selection queries into one disjunctive scan and split the results;
//! * a cardinality + energy/time cost model ([`estimate`]) — the
//!   "energy-aware optimizer" piece of the paper's vision.

pub mod chunk;
pub mod context;
pub mod error;
pub mod estimate;
pub mod exec;
pub mod expr;
pub mod mqo;
pub mod ops;
pub mod parallel;
pub mod plans;
pub mod sql;

pub use chunk::{Chunk, Rows};
pub use context::ExecCtx;
pub use error::ExecError;
pub use exec::{execute, ExecEngine};
pub use expr::{AggFunc, ArithOp, CmpOp, Expr};
pub use ops::Operator;
