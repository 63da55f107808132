//! Domains, their lifecycle, and what dies with them.
//!
//! As in Xen's `struct domain`, each [`Domain`] owns its event-channel
//! ports, the grants it issued and its noxs device page, so a destroy
//! walks only what the dying domain holds.

use std::fmt;
use std::sync::Arc;

use simcore::IdMap;

use crate::devpage::DevicePage;
use crate::evtchn::{Channel, EvtchnPort};
use crate::gnttab::{Grant, GrantRef};

/// A domain identifier. Dom0 is always id 0.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomId(pub u32);

impl DomId {
    /// The control domain.
    pub const DOM0: DomId = DomId(0);

    /// True for Dom0.
    pub fn is_dom0(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for DomId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dom{}", self.0)
    }
}

impl fmt::Debug for DomId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// Lifecycle states, mirroring Xen's domain states.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub enum DomainState {
    /// Created but never unpaused (the state a split-toolstack *shell*
    /// sits in while waiting in the pool).
    #[default]
    Created,
    /// Explicitly paused.
    Paused,
    /// Running (schedulable).
    Running,
    /// Suspended to memory/disk (checkpoint or migration source).
    Suspended,
    /// Shut down by the guest; resources not yet reclaimed.
    Shutdown,
}

/// Why a guest shut down (written through the sysctl device under noxs,
/// or `control/shutdown` under the XenStore).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShutdownReason {
    /// Normal power-off.
    Poweroff,
    /// Reboot request.
    Reboot,
    /// Suspend for checkpoint/migration.
    Suspend,
    /// Crash.
    Crash,
}

/// Static configuration for `domctl_create`.
#[derive(Clone, Debug)]
pub struct DomainConfig {
    /// Maximum memory in MiB.
    pub max_mem_mib: u64,
    /// Number of virtual CPUs.
    pub vcpus: u32,
}

impl Default for DomainConfig {
    fn default() -> Self {
        DomainConfig {
            max_mem_mib: 8,
            vcpus: 1,
        }
    }
}

/// A resource another domain holds towards this one, which dies with
/// it. Bound channels need no entry: the dying domain's own port names
/// its peer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Held {
    /// An unbound port the owner offers to this domain.
    Offer(DomId, EvtchnPort),
    /// A grant the granter issued to this domain.
    Grant(DomId, GrantRef),
}

/// A domain as the hypervisor sees it. The default is a fresh record:
/// created but never unpaused, unpopulated, owning nothing.
#[derive(Clone, Debug, Default)]
pub struct Domain {
    /// Identifier.
    pub id: DomId,
    /// Lifecycle state.
    pub state: DomainState,
    /// Memory ceiling in MiB.
    pub max_mem_mib: u64,
    /// Memory currently populated, in MiB.
    pub populated_mib: u64,
    /// Physical cores the vCPUs are pinned to (round-robin assignment).
    pub vcpu_cores: Arc<[usize]>,
    /// Shutdown reason if `state == Shutdown` or `Suspended`.
    pub shutdown_reason: Option<ShutdownReason>,
    /// Its event-channel ports, numbered from 1 in issue order and
    /// never reused while it lives: `last_port` is the last one issued.
    pub(crate) ports: IdMap<u32, Channel>,
    pub(crate) last_port: u32,
    /// The grants it issued, numbered like its ports.
    pub(crate) grants: IdMap<u32, Grant>,
    pub(crate) last_ref: u32,
    /// The unbound offers and grants other domains hold towards it.
    pub(crate) held: Vec<Held>,
    /// Its noxs device page, once set up. Shared, so a fork copies a
    /// refcount and `Arc::make_mut` copies the page on its first write.
    pub(crate) device_page: Option<Arc<DevicePage>>,
}

impl Domain {
    /// Its noxs device page, once set up. Uncharged: the toolstack
    /// reads the hypervisor's record, the guest does not map the page.
    pub fn device_page(&self) -> Option<&DevicePage> {
        self.device_page.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dom0_identity() {
        assert!(DomId::DOM0.is_dom0());
        assert!(!DomId(3).is_dom0());
        assert_eq!(format!("{}", DomId(3)), "dom3");
    }
}
