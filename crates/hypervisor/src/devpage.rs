//! The noxs device memory page (paper §5.1).
//!
//! For each guest, the (modified) hypervisor keeps one special memory
//! page listing the guest's devices: kind, backend domain, event channel
//! and grant reference of the device control page. Dom0 writes entries
//! through a dedicated hypercall; the guest maps the page read-only at
//! boot and uses it to connect to its backends directly — no XenStore.

use crate::domain::DomId;
use crate::evtchn::EvtchnPort;
use crate::gnttab::GrantRef;
use crate::hv::HvError;

/// Device classes that can appear in a device page.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DeviceKind {
    /// Network interface (vif).
    Net,
    /// Block device (vbd).
    Block,
    /// Console.
    Console,
    /// The sysctl power-control pseudo-device (suspend/resume/migration).
    Sysctl,
}

impl DeviceKind {
    /// The xenbus-style class string (used for XenStore paths).
    pub fn as_str(self) -> &'static str {
        match self {
            DeviceKind::Net => "vif",
            DeviceKind::Block => "vbd",
            DeviceKind::Console => "console",
            DeviceKind::Sysctl => "sysctl",
        }
    }
}

/// One entry in a guest's device page.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DevicePageEntry {
    /// Device class.
    pub kind: DeviceKind,
    /// Per-class device index.
    pub devid: u32,
    /// Backend domain (Dom0 in the prototype; the design allows driver
    /// domains, paper footnote 4).
    pub backend: DomId,
    /// Unbound event-channel port allocated by the backend.
    pub evtchn: EvtchnPort,
    /// Grant reference of the device control page.
    pub grant: GrantRef,
}

/// Size of one serialised entry in bytes (for capacity accounting).
const ENTRY_BYTES: usize = 32;
/// Page size.
const PAGE_BYTES: usize = 4096;
/// Maximum entries per device page.
pub const MAX_ENTRIES: usize = PAGE_BYTES / ENTRY_BYTES;

/// A guest's device page.
#[derive(Clone, Debug, Default)]
pub struct DevicePage {
    entries: Vec<DevicePageEntry>,
}

impl DevicePage {
    /// Appends an entry (Dom0-only; enforced by the hypercall wrapper).
    pub fn push(&mut self, entry: DevicePageEntry) -> Result<(), HvError> {
        if self.entries.len() >= MAX_ENTRIES {
            return Err(HvError::PageFull);
        }
        if self
            .entries
            .iter()
            .any(|e| e.kind == entry.kind && e.devid == entry.devid)
        {
            return Err(HvError::DuplicateEntry);
        }
        // A guest lists a handful of devices, one per slot, so the page
        // costs what it holds.
        self.entries.reserve_exact(1);
        self.entries.push(entry);
        Ok(())
    }

    /// Removes an entry by (kind, devid).
    pub fn remove(&mut self, kind: DeviceKind, devid: u32) -> Result<(), HvError> {
        let i = self
            .entries
            .iter()
            .position(|e| e.kind == kind && e.devid == devid)
            .ok_or(HvError::NoSuchEntry)?;
        self.entries.remove(i);
        Ok(())
    }

    /// Looks up an entry.
    pub fn find(&self, kind: DeviceKind, devid: u32) -> Option<&DevicePageEntry> {
        self.entries
            .iter()
            .find(|e| e.kind == kind && e.devid == devid)
    }

    /// All entries, in insertion order (what the guest iterates at boot).
    pub fn entries(&self) -> &[DevicePageEntry] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(kind: DeviceKind, devid: u32) -> DevicePageEntry {
        DevicePageEntry {
            kind,
            devid,
            backend: DomId::DOM0,
            evtchn: EvtchnPort(1),
            grant: GrantRef(1),
        }
    }

    #[test]
    fn push_find_remove() {
        let mut p = DevicePage::default();
        p.push(entry(DeviceKind::Net, 0)).unwrap();
        p.push(entry(DeviceKind::Block, 0)).unwrap();
        assert_eq!(p.entries().len(), 2);
        assert!(p.find(DeviceKind::Net, 0).is_some());
        p.remove(DeviceKind::Net, 0).unwrap();
        assert!(p.find(DeviceKind::Net, 0).is_none());
        assert_eq!(
            p.remove(DeviceKind::Net, 0).unwrap_err(),
            HvError::NoSuchEntry
        );
    }

    #[test]
    fn duplicate_rejected_but_same_devid_other_kind_ok() {
        let mut p = DevicePage::default();
        p.push(entry(DeviceKind::Net, 0)).unwrap();
        assert_eq!(
            p.push(entry(DeviceKind::Net, 0)).unwrap_err(),
            HvError::DuplicateEntry
        );
        p.push(entry(DeviceKind::Block, 0)).unwrap();
    }

    #[test]
    fn capacity_is_one_page() {
        let mut p = DevicePage::default();
        for i in 0..MAX_ENTRIES {
            p.push(entry(DeviceKind::Net, i as u32)).unwrap();
        }
        assert_eq!(
            p.push(entry(DeviceKind::Net, 9999)).unwrap_err(),
            HvError::PageFull
        );
    }

    #[test]
    fn kind_strings_match_xen() {
        assert_eq!(DeviceKind::Net.as_str(), "vif");
        assert_eq!(DeviceKind::Block.as_str(), "vbd");
    }
}
