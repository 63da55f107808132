//! Virtualization toolstacks: stock `xl`/libxl and the paper's
//! `chaos`/libchaos, with the split-toolstack daemon (paper §5).
//!
//! The [`ControlPlane`] owns everything living in Dom0 — xenstored, the
//! hypervisor interface, back-end drivers, the software switch, the
//! sysctl back-end, the CPU contention model and the chaos daemon's
//! shell pool — and exposes VM lifecycle operations under any of the
//! five toolstack configurations the paper evaluates (Figure 9):
//! `xl`, `chaos [XS]`, `chaos [XS+split]`, `chaos [NoXS]` and full
//! `LightVM` (noxs + split).
//!
//! Every `create` returns a [`CreateReport`] carrying the per-category
//! cost breakdown, reproducing the instrumentation behind Figure 5.

pub mod census;
pub mod cloneboot;
pub mod config;
pub mod fleet;
pub mod lifecycle;
pub mod plane;
pub mod snapshot;
pub mod split;

pub use census::WorldCensus;
pub use fleet::HostTemplate;
pub use config::{ConfigError, VmConfig, MAX_VCPUS};
pub use lifecycle::SavedVm;
pub use plane::{ControlPlane, CreateReport, PlaneError, TeardownErrors, ToolstackMode, Vm};
pub use split::{ChaosDaemon, VmShell};

#[cfg(test)]
mod tests;
