//! # eco-tpch — deterministic TPC-H-shaped data and workloads
//!
//! The paper evaluates on TPC-H (§3.3: ten Q5 variants over regions
//! `ASIA`/`AMERICA` and all five date ranges; §4: 2 %-selectivity
//! single-table selections on `lineitem.l_quantity` drawn from its 50
//! uniform integer values). This crate is a from-scratch, seeded
//! `dbgen` equivalent: all eight tables with spec-shaped cardinalities,
//! distributions and key relationships, plus builders for exactly those
//! two workloads (and a few extra queries used by the extension
//! studies).
//!
//! Determinism: the same scale factor and seed always generate the same
//! database, so experiments are reproducible bit-for-bit.

pub mod dates;
pub mod gen;
pub mod rows;
pub mod text;
pub mod workload;

pub use dates::Date;
pub use gen::{TpchDb, TpchGenerator, TpchSink};
pub use rows::*;
pub use workload::{q5_workload, qed_workload, Q5Params, QedQuery};
