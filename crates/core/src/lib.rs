//! LightVM: lightweight virtualization with VM-grade isolation
//! (reproduction of Manco et al., *My VM is Lighter (and Safer) than your
//! Container*, SOSP 2017).
//!
//! This crate is the top of the stack: the `chaos` command line
//! ([`cli`]) over the simulated Xen control plane
//! ([`toolstack::ControlPlane`], the paper's libchaos) plus the paper's
//! four §7 use cases as runnable library modules:
//!
//! - [`usecases::firewall`]: per-user personal firewalls at the mobile
//!   edge (Figure 16a);
//! - [`usecases::jit`]: just-in-time service instantiation (Figure 16b);
//! - [`usecases::tls`]: high-density TLS termination (Figure 16c);
//! - [`usecases::compute`]: an Amazon-Lambda-like Minipython compute
//!   service (Figures 17 and 18).
//!
//! # Quick start
//!
//! ```
//! use lightvm::{ControlPlane, ToolstackMode};
//! use lightvm::guests::GuestImage;
//! use simcore::{Machine, MachinePreset};
//!
//! // A 4-core host driven by the full LightVM control plane.
//! let machine = Machine::preset(MachinePreset::XeonE5_1630V3);
//! let mut plane = ControlPlane::new(machine, 1, ToolstackMode::LightVm, 42);
//! let image = GuestImage::unikernel_daytime();
//! plane.prewarm(&image);
//! let (_dom, create, boot) = plane.create_and_boot("my-first-vm", &image).unwrap();
//! // Millisecond-scale instantiation:
//! assert!((create + boot).as_millis_f64() < 10.0);
//! ```

pub mod cli;
pub mod usecases;

pub use toolstack::{ControlPlane, CreateReport, PlaneError, SavedVm, ToolstackMode, VmConfig};

// Re-export the substrate crates under stable names so downstream users
// need only depend on `lightvm`.
pub use container;
pub use devices;
pub use guests;
pub use hypervisor;
pub use lvnet as net;
pub use metrics;
pub use noxs;
pub use simcore;
pub use tinyx;
pub use toolstack;
pub use xenstore;
