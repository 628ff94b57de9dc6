//! # eco-query — the query execution engine under ecoDB
//!
//! A Volcano-style (iterator) executor over `eco-storage` tables with a
//! **vectorized batch path**. Every operator does *real* work on real
//! tuples — scans scan, hash joins build and probe real hash tables,
//! aggregates accumulate — and simultaneously accounts for that work in
//! an [`context::ExecCtx`] ledger, which the machine model (`eco-simhw`)
//! later prices in time and joules under a PVC setting.
//!
//! ## Batch execution
//!
//! [`ops::Operator::next_batch`] moves up to
//! [`ExecCtx::batch_size`](context::ExecCtx) tuples (default
//! [`context::DEFAULT_BATCH_SIZE`] = 1024) per virtual call;
//! [`exec::execute`] drives plans through it, while
//! [`exec::execute_scalar`] retains the tuple-at-a-time loop as the
//! measured baseline. Scans emit whole page slices, filters push their
//! predicate into the scan and evaluate it over borrowed rows (cloning
//! only survivors), joins probe per batch with no per-row key
//! allocation for single-column keys, and blocking operators drain
//! their children in batches.
//!
//! The load-bearing invariant: **the energy ledger is identical across
//! the two paths** — same op-class counts, memory bytes, random
//! accesses and disk I/O, bit for bit. Batch paths charge per batch
//! *with counts* (`charge(class, n)`), never re-price work, so a
//! figure computed from a batch run equals one computed from a scalar
//! run (enforced by `tests/integration_vectorized.rs`). The batch size
//! is a pure throughput knob: on a scan-heavy TPC-H Q6 the batch path
//! is several times faster (`cargo bench -p eco-bench --bench
//! exec_batch_vs_scalar`) while producing the same rows and the same
//! joules.
//!
//! ## Columnar execution
//!
//! [`ops::Operator::next_chunk`] streams [`chunk::Chunk`]s — `Arc`-shared
//! windows of typed column vectors (`eco-storage`'s `DataChunk`) plus a
//! *selection vector* of live rows — through the plan instead of
//! `Vec<Tuple>` batches. Scans emit windows over a table's columns
//! with no per-row clone; filters refine the selection vector
//! column-at-a-time (short-circuiting becomes selection narrowing, with
//! identical evaluation counts); joins and aggregates hash key columns
//! a chunk at a time through one shared key kernel — the join keeps
//! its build side as columns and gathers its output, the aggregate
//! updates typed accumulator arrays keyed by group id; rows are
//! re-materialized only by sort and at the very top
//! (**late materialization**). [`exec::execute_columnar`] drives the
//! path — it is the engine `EcoDb` runs by default, with scalar and
//! batch kept as the differential-test oracles
//! ([`exec::ExecEngine`] names all three); on
//! scan-heavy TPC-H Q1/Q6 it is ~3-4x faster than the batch path
//! (`exec_batch_vs_scalar` bench, recorded per-commit in CI's
//! `BENCH_columnar.json`) while producing the same rows and **the same
//! bit-identical energy ledger** — enforced by
//! `tests/integration_columnar.rs` and the `columnar_matches_scalar`
//! property test, on both storage engines, cold and warm, serial and
//! morsel-parallel.
//!
//! ## Morsel-driven parallel execution
//!
//! [`exec::execute_parallel`] runs a plan across worker threads:
//! partitionable pipelines split into [`parallel::Morsel`]s (rows for
//! memory sources, whole disk extents for paged tables), workers run
//! per-morsel pipeline clones charging private forked ledgers, and
//! results merge back **in morsel order** — through the
//! [`ops::Exchange`] / [`ops::GatherMerge`] operators, a partitioned
//! parallel [`ops::HashJoin`] build, per-morsel partial aggregation in
//! [`ops::HashAggregate`], and an order-preserving gather below
//! [`ops::Sort`]. The batch-path invariant extends to parallelism: the
//! **merged ledger is bit-identical to serial execution at every worker
//! count** (enforced by `tests/integration_parallel.rs` and the
//! `parallel_matches_serial` property test), so every figure in the
//! reproduction is reproducible at any core count while wall-clock time
//! scales with workers (`cargo bench -p eco-bench --bench
//! exec_parallel_scaling`).
//!
//! The crate also provides:
//!
//! * hand-built physical plans for TPC-H Q1/Q3/Q5/Q6 and simple
//!   selections ([`plans`]) — index-free by default, matching the
//!   paper's setup ("we did not create any database indices"), with
//!   opt-in `*_indexed` variants ([`ops::IxScan`] probes and
//!   [`ops::IxJoin`] index nested loops, ledger schema v4) for the
//!   random-vs-sequential energy studies;
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
pub use exec::{
    execute, execute_columnar, execute_columnar_into, execute_into, execute_parallel,
    execute_parallel_into, try_execute_parallel_into, ExecEngine,
};
pub use expr::{AggFunc, ArithOp, CmpOp, Expr};
pub use ops::Operator;
pub use parallel::Morsel;
