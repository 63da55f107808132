//! Deterministic simulation core for the LightVM reproduction.
//!
//! This crate provides the substrate every other crate builds on:
//!
//! - [`SimTime`]: a nanosecond-resolution virtual clock value.
//! - [`CpuSim`]: a fluid processor-sharing CPU contention model. Control
//!   planes advance their virtual clock through it; there is no event
//!   queue.
//! - [`CostModel`] / [`Meter`]: the calibrated primitive-cost constants of
//!   the paper's testbed and the per-category accounting used to reproduce
//!   the creation-overhead breakdown (Figure 5).
//! - [`Machine`]: presets of the paper's three evaluation machines.
//! - [`SimRng`]: a seeded RNG wrapper so every experiment is reproducible.
//! - [`FaultPlan`]: seeded, replayable fault injection.
//! - [`MemoryPressure`]: host memory accounting and reclaim pressure.
//! - [`IdMap`]: a `HashMap` with a fast hasher, for keys the simulator
//!   assigns itself (domain ids, ports, task ids, symbols).
//!
//! Each simulated world is single-threaded and fully deterministic:
//! reruns with the same seed produce byte-identical figure data.
//! Parallelism comes from running whole figure units side by side.

pub mod costs;
pub mod cpu;
pub mod faults;
pub mod idmap;
pub mod machine;
pub mod memory;
pub mod rng;
pub mod time;

pub use costs::{Category, CostModel, Meter};
pub use faults::{FaultPlan, FaultSite, FAULT_RETRIES};
pub use cpu::{CpuSim, TaskId, TaskKind};
pub use idmap::{IdHasher, IdMap};
pub use machine::{Machine, MachinePreset};
pub use memory::MemoryPressure;
pub use rng::SimRng;
pub use time::SimTime;
