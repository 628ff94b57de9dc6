//! # ecoDB — energy-aware query processing
//!
//! A faithful, from-scratch reproduction of Lang & Patel, *Towards
//! Eco-friendly Database Management Systems* (CIDR 2009): a relational
//! query engine with energy as a first-class performance metric, the
//! paper's two energy-for-performance mechanisms (**PVC** — processor
//! voltage/frequency control via FSB underclocking, and **QED** —
//! explicit query delays with multi-query aggregation), and a simulated
//! hardware substrate standing in for the paper's instrumented test bed.
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`simhw`] — simulated hardware (CPU/DVFS, DRAM, disk, PSU, meters);
//! * [`tpch`] — deterministic TPC-H-shaped data and workload generation;
//! * [`storage`] — tuples, pages, heap tables, buffer pool;
//! * [`query`] — expressions, operators, plans, multi-query optimization;
//! * [`core`] — PVC, QED, EDP metrics, the energy advisor and the
//!   experiment harness reproducing every table and figure of the paper;
//! * [`server`] — the concurrent multi-session front door: online QED
//!   batching, energy-aware admission control, open-system pricing and
//!   per-session energy ledgers.
//!
//! ## Quickstart
//!
//! ```
//! use ecodb::core::server::{EcoDb, EngineProfile, Query};
//! use ecodb::simhw::{CpuConfig, MachineConfig, VoltageSetting};
//! use ecodb::tpch::Q5Params;
//!
//! // An in-memory engine over TPC-H data at a tiny scale factor.
//! let db = EcoDb::tpch(EngineProfile::MemoryEngine, 0.01);
//!
//! // Execute one TPC-H Q5 once, on one worker, then price its trace at
//! // stock settings and at a PVC setting.
//! let q5 = Q5Params::new("ASIA", 1994);
//! let (rows, traces) = db.trace(&Query::Q5(&q5), 1).unwrap();
//! assert!(!rows.is_empty());
//! let stock = db.price(&traces[0], MachineConfig::stock());
//! let pvc = db.price(
//!     &traces[0],
//!     MachineConfig::with_cpu(CpuConfig::underclocked(0.05, VoltageSetting::Medium)),
//! );
//! assert!(pvc.cpu_joules < stock.cpu_joules); // same answer, fewer joules
//!
//! // The same statement on four workers: the same rows, one trace per core.
//! let (par_rows, core_traces) = db.trace(&Query::Q5(&q5), 4).unwrap();
//! assert_eq!(par_rows, rows);
//! assert_eq!(core_traces.len(), 4);
//! ```
//!
//! ## Further reading
//!
//! * `README.md` at the repository root — quickstart, the repro-target
//!   table, and the example catalogue.
//! * `docs/ARCHITECTURE.md` — the crate map, the execution ladder
//!   (scalar oracle, columnar, parallel), and the energy-ledger **bit-identity invariant** with its
//!   versioned pricing-schema history (v1 base, v2 faults,
//!   v3 compression, v4 indexes) that every change must follow.

pub use eco_core as core;
pub use eco_query as query;
pub use eco_server as server;
pub use eco_simhw as simhw;
pub use eco_storage as storage;
pub use eco_tpch as tpch;
