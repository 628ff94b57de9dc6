//! # eco-core — energy-aware query processing (the ecoDB contribution)
//!
//! The paper's thesis: treat **energy as a first-class performance
//! metric** in a DBMS, and provide mechanisms that *trade energy for
//! performance*. This crate implements both of its concrete mechanisms
//! plus the supporting machinery its vision calls for:
//!
//! * [`pvc`] — **P**rocessor **V**oltage/frequency **C**ontrol: sweep
//!   FSB underclocking × voltage downgrades, measure each operating
//!   point, compare against the theoretical `EDP ∝ V²/F` model, and
//!   pick settings under an SLA (paper §3, Figs 1–4).
//! * [`qed`] — **Q**uery **E**nergy-efficiency by introducing explicit
//!   **D**elays: queue structurally-similar selections, merge a batch
//!   via predicate disjunction (multi-query optimization), split the
//!   results, and trade average response time for per-query energy
//!   (paper §4, Fig 6).
//! * [`metrics`] — joules, the Energy-Delay Product, operating points
//!   and iso-EDP curves.
//! * [`server`] — the DBMS facade: engine profiles standing in for the
//!   paper's two systems (MySQL memory engine / commercial disk DBMS),
//!   client round trips, admission, parse accounting.
//! * [`advisor`] — choose an operating point (PVC setting, QED batch
//!   size, scan-vs-index access path) under response-time constraints;
//!   detect and react to mis-predictions (the paper's "adapt the query
//!   plan midflight").
//! * [`experiments`] — a typed harness reproducing **every** table and
//!   figure in the paper's evaluation.

pub mod advisor;
pub mod experiments;
pub mod metrics;
pub mod pvc;
pub mod qed;
pub mod server;

pub use advisor::{AccessPath, AccessPathAdvice};
pub use metrics::{Edp, OperatingPoint};
pub use pvc::{PvcSweep, PvcSweepPoint};
pub use qed::{QedOutcome, QedScheme};
pub use server::{EcoDb, EngineProfile, Query, ServerError};
