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
//! This crate holds the mechanism primitives only, as stateless
//! functions over the hypervisor and the Dom0 back-ends:
//!
//! - [`driver`]: device creation/connection through the device page
//!   (Figure 7b);
//! - [`sysctl`]: the power-control split pseudo-device that replaces
//!   XenStore-based `control/shutdown` for suspend/resume/migration.
//!
//! Whatever noxs knows about a guest the hypervisor holds: its devices
//! are its device-page entries and a requested suspend is its domain's
//! shutdown state, so nothing here outlives the domain. Every primitive
//! fails with [`devices::DevError`], the device layer's one error type.
//! As in the paper's prototype, the back-ends run in Dom0 (footnote 4).
//!
//! Save, restore and migration are the toolstack's lifecycle
//! operations (`toolstack::lifecycle`), which run one body for noxs and
//! the XenStore and call these primitives in their noxs steps.

pub mod driver;
pub mod sysctl;
