//! Domains and their lifecycle.

use std::fmt;
use std::sync::Arc;

/// A domain identifier. Dom0 is always id 0.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
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
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DomainState {
    /// Created but never unpaused (the state a split-toolstack *shell*
    /// sits in while waiting in the pool).
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

/// A domain as the hypervisor sees it.
#[derive(Clone, Debug)]
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
    /// Shared, so a forked hypervisor copies a refcount, not a buffer.
    pub vcpu_cores: Arc<[usize]>,
    /// Shutdown reason if `state == Shutdown` or `Suspended`.
    pub shutdown_reason: Option<ShutdownReason>,
    /// Whether a noxs device page has been set up.
    pub has_device_page: bool,
}

impl Domain {
    /// True if the domain's vCPUs may be scheduled.
    pub fn is_runnable(&self) -> bool {
        self.state == DomainState::Running
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

    #[test]
    fn runnable_only_when_running() {
        let mut d = Domain {
            id: DomId(1),
            state: DomainState::Created,
            max_mem_mib: 8,
            populated_mib: 0,
            vcpu_cores: vec![0].into(),
            shutdown_reason: None,
            has_device_page: false,
        };
        assert!(!d.is_runnable());
        d.state = DomainState::Running;
        assert!(d.is_runnable());
        d.state = DomainState::Suspended;
        assert!(!d.is_runnable());
    }
}
