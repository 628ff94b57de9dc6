//! # eco-simhw — simulated hardware substrate for ecoDB
//!
//! This crate reproduces, in simulation, the hardware test bed of
//! Lang & Patel, *Towards Eco-friendly Database Management Systems*
//! (CIDR 2009): an Intel Core2-class CPU with p-states, FSB
//! underclocking and BIOS voltage downgrades; DDR3 memory whose clock is
//! coupled to the FSB; a 7200 rpm SATA disk with separately-metered
//! 5 V / 12 V rails; an 80plus power supply; and the paper's two power
//! measurement instruments (a wall-power meter and a 1 Hz on-board CPU
//! power sensor).
//!
//! The central abstraction is the [`machine::Machine`]: software above
//! this crate *executes real work* and records what it did in a
//! [`trace::WorkTrace`] (instruction-class counts, bytes streamed,
//! random memory accesses, disk I/O, client round-trip gaps). The
//! machine then converts that trace, under a given
//! [`machine::MachineConfig`] (underclock percentage, voltage setting,
//! p-state policy), into a [`machine::Measurement`]: elapsed time, CPU
//! joules, DRAM joules, disk joules, and wall joules.
//!
//! [`multicore::MultiCoreMachine`] scales the model out to N cores —
//! one trace and one DVFS governor per core, idle-tail halt pricing at
//! the barrier, shared DRAM/disk rails charged once, and the summed DC
//! draw through the shared PSU efficiency curve — which is how the
//! morsel-driven parallel executor in `eco-query` gets priced.
//!
//! All tuned constants live in [`calib`] with provenance notes tying
//! them back to the paper's reported data points.

pub mod calib;
pub mod cpu;
pub mod disk;
pub mod dvfs;
pub mod fault;
pub mod machine;
pub mod mem;
pub mod meter;
pub mod multicore;
pub mod opensys;
pub mod power;
pub mod psu;
pub mod trace;

pub use cpu::{CpuConfig, CpuSpec, PState, VoltageSetting};
pub use disk::{AccessPattern, DiskSpec};
pub use fault::{FaultPlan, PageFault, BACKOFF_BASE_NS, MAX_READ_RETRIES};
pub use machine::{Machine, MachineConfig, Measurement};
pub use multicore::{MultiCoreMachine, MultiCoreMeasurement};
pub use opensys::{ArrivalSchedule, IdleMeasurement, OpenSystemMeasurement, OpenSystemRun};
pub use trace::{
    ChargeClass, CpuWork, DiskWork, Ledger, OpClass, Phase, PhaseKind, PricingMode, WorkTrace,
};
