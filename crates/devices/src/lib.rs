//! Virtual devices: split drivers, the xenbus handshake, hotplug and the
//! software switch.
//!
//! Xen's split-driver model (paper §4.1) puts a back-end driver in Dom0
//! (netback, blkback) talking over shared memory to a front-end driver in
//! the guest (netfront, blkfront), with event channels for notification.
//! Devices are negotiated through the *xenbus* state machine; under stock
//! Xen the negotiation state lives in the XenStore, under noxs it flows
//! through device/control pages.
//!
//! This crate implements:
//!
//! - [`xenbus`]: the device state machine;
//! - [`backend`]: back-end drivers allocating channels/grants and serving
//!   connections (used by both the XenStore path and the noxs path);
//! - [`xsdev`]: the full XenStore-mediated device creation handshake of
//!   Figure 7a;
//! - [`hotplug`]: the user-space device setup step — slow bash scripts
//!   via udev vs the paper's `xendevd` binary daemon (§5.3);
//! - [`switch`]: the Dom0 software switch vifs are plugged into.
//!
//! Every back-end runs in Dom0. Xen can host a back-end in a separate
//! *driver domain* (paper §4.1), but the paper's noxs prototype "only
//! works if the back-ends run in Dom0" (footnote 4), and the model
//! follows the prototype.
//!
//! Every operation here, on either path, fails with one [`DevError`]: a
//! device-level refusal, or the hypervisor's or the XenStore's own error
//! carried unchanged.

use hypervisor::HvError;
use xenstore::XsError;

pub mod backend;
pub mod hotplug;
pub mod switch;
pub mod xenbus;
pub mod xsdev;

pub use backend::{Backend, BackendDevice};
pub use hotplug::{watchdog_gate, Hotplug};
pub use switch::SoftwareSwitch;
pub use xenbus::XenbusState;

/// Device-management errors, on the XenStore path and the noxs path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DevError {
    /// The device (or its switch port) already exists.
    Exists,
    /// No such device (or switch port), or the guest has no such
    /// pseudo-device.
    NotFound,
    /// Operation illegal in the current xenbus state.
    BadState,
    /// The backend refused to allocate the device (resource exhaustion
    /// on the backend side; injected by the fault plan).
    Refused,
    /// A watchdog timeout expired waiting for the other end (hotplug
    /// daemon unresponsive, xenbus handshake stalled).
    Timeout,
    /// A hypercall failed.
    Hv(HvError),
    /// A XenStore operation failed.
    Xs(XsError),
}

impl DevError {
    /// True if the error means "already gone": the device, its store
    /// records, its device-page entry or its domain never existed or no
    /// longer does, so a teardown that meets it cannot have leaked.
    pub fn is_absence(&self) -> bool {
        matches!(
            self,
            DevError::NotFound
                | DevError::Hv(HvError::NoSuchDomain | HvError::NoSuchEntry)
                | DevError::Xs(XsError::NotFound)
        )
    }
}

impl From<HvError> for DevError {
    fn from(e: HvError) -> Self {
        DevError::Hv(e)
    }
}

impl From<XsError> for DevError {
    fn from(e: XsError) -> Self {
        DevError::Xs(e)
    }
}

impl std::fmt::Display for DevError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DevError::Exists => write!(f, "device already exists"),
            DevError::NotFound => write!(f, "no such device"),
            DevError::BadState => write!(f, "illegal xenbus state transition"),
            DevError::Refused => write!(f, "backend refused device allocation"),
            DevError::Timeout => write!(f, "timed out waiting for peer"),
            DevError::Hv(e) => write!(f, "hypervisor: {e}"),
            DevError::Xs(e) => write!(f, "xenstore: {e}"),
        }
    }
}

impl std::error::Error for DevError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absence_is_one_rule_for_both_mechanisms() {
        for gone in [
            DevError::NotFound,
            DevError::Hv(HvError::NoSuchDomain),
            DevError::Hv(HvError::NoSuchEntry),
            DevError::Xs(XsError::NotFound),
        ] {
            assert!(gone.is_absence(), "{gone:?}");
        }
        for failed in [
            DevError::Exists,
            DevError::Refused,
            DevError::Timeout,
            DevError::Hv(HvError::BadPort),
            DevError::Xs(XsError::Again),
        ] {
            assert!(!failed.is_absence(), "{failed:?}");
        }
    }
}
