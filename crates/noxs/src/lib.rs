//! noxs ("no XenStore"): the paper's XenStore-less control plane (§5.1).
//!
//! The insight: "the hypervisor already acts as a sort of centralized
//! store, so we can extend its functionality". Device details flow
//! through a per-guest read-only *device memory page* written by Dom0 via
//! hypercalls; front- and back-ends then talk over shared control pages
//! and event channels. No message-passing protocol, no watches, no
//! transactions — device setup is a handful of hypercalls and an ioctl,
//! and its cost does not grow with the number of guests.
//!
//! This crate holds the mechanism primitives only:
//!
//! - [`driver`]: device creation/connection through the device page
//!   (Figure 7b);
//! - [`sysctl`]: the power-control split pseudo-device that replaces
//!   XenStore-based `control/shutdown` for suspend/resume/migration.
//!
//! Save, restore and migration are the toolstack's lifecycle
//! operations (`toolstack::lifecycle`), which run one body for noxs and
//! the XenStore and call these primitives in their noxs steps.

pub mod driver;
pub mod sysctl;

pub use sysctl::SysctlBackend;
