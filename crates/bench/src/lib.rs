//! # eco-bench — benchmark harness for the ecoDB reproduction
//!
//! One Criterion bench per table/figure of Lang & Patel (CIDR 2009),
//! plus ablation benches for the design choices called out in
//! `docs/ARCHITECTURE.md`. The `repro` binary prints every table and figure
//! (`cargo run -p eco-bench --bin repro --release`); `README.md`
//! ("Reproduction targets") lists its targets and
//! `tests/golden/repro_0.01_all.txt` records its output.

use eco_core::server::{EcoDb, EngineProfile};

pub mod artifact;
pub use artifact::{artifact_path, write_artifact};

/// Scale factor used by the benches (small enough for Criterion's
/// repeated sampling; reproduction shapes are scale-free).
pub const BENCH_SCALE: f64 = 0.01;

/// Shared setup: a memory-engine database at the bench scale.
pub fn bench_db_memory() -> EcoDb {
    EcoDb::tpch(EngineProfile::MemoryEngine, BENCH_SCALE)
}

/// Shared setup: a commercial-profile database at the bench scale.
pub fn bench_db_commercial() -> EcoDb {
    EcoDb::tpch(EngineProfile::CommercialDisk, BENCH_SCALE)
}
