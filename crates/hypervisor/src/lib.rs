//! A simulated Xen-like type-1 hypervisor.
//!
//! The hypervisor "only manages basic resources such as CPUs and memory"
//! (paper §4.1). This crate models exactly that surface: domain lifecycle
//! (the `domctl` interface), guest memory reservation/population with
//! host-level pressure, vCPU-to-core placement, event channels, grant
//! tables — and the paper's one hypervisor extension, the **noxs device
//! memory page** (§5.1): a per-guest read-only page through which device
//! details flow instead of the XenStore.
//!
//! Every hypercall charges its cost to a [`simcore::Meter`] under
//! [`simcore::Category::Hypervisor`] and fails with one flat [`HvError`],
//! whichever of these parts refused it.

pub mod devpage;
pub mod domain;
pub mod evtchn;
pub mod gnttab;
pub mod hv;

pub use devpage::{DevicePage, DevicePageEntry, DeviceKind};
pub use domain::{DomId, Domain, DomainConfig, DomainState, ShutdownReason};
pub use evtchn::EvtchnPort;
pub use gnttab::GrantRef;
pub use hv::{HvError, Hypervisor};

/// Result alias for hypercalls.
pub type Result<T> = std::result::Result<T, HvError>;
