//! The sysctl power-control split device (paper §5.1).
//!
//! "To support migration without a XenStore, we create a new
//! pseudo-device called sysctl to handle power-related operations [...]
//! with a back-end driver (sysctlback) and a front-end (sysctlfront)
//! one. These two drivers share a device page through which communication
//! happens and an event channel."

use std::collections::HashMap;

use hypervisor::{
    DevicePageEntry, DeviceKind, DomId, HvError, Hypervisor, ShutdownReason,
};
use simcore::{Category, CostModel, Meter};

/// One guest's sysctl shared page.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct SharedPage {
    /// The shutdown reason Dom0 requested, if any.
    requested: Option<ShutdownReason>,
}

/// The sysctl back-end driver in Dom0.
#[derive(Clone, Default, Debug)]
pub struct SysctlBackend {
    pages: HashMap<u32, SharedPage>,
}

/// sysctl errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SysctlError {
    /// Guest has no sysctl device.
    NotSetUp,
    /// Hypercall failed.
    Hv(HvError),
}

impl From<HvError> for SysctlError {
    fn from(e: HvError) -> Self {
        SysctlError::Hv(e)
    }
}

impl std::fmt::Display for SysctlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SysctlError::NotSetUp => write!(f, "guest has no sysctl device"),
            SysctlError::Hv(e) => write!(f, "hypervisor: {e}"),
        }
    }
}

impl std::error::Error for SysctlError {}

impl SysctlBackend {
    /// Creates the back-end.
    pub fn new() -> SysctlBackend {
        SysctlBackend::default()
    }

    /// Sets up the sysctl device for a guest: allocates the shared page
    /// and channel and registers the entry in the device page.
    pub fn setup(
        &mut self,
        hv: &mut Hypervisor,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
    ) -> Result<(), SysctlError> {
        let evtchn = hv.evtchn_alloc_unbound(cost, meter, DomId::DOM0, dom)?;
        let grant = hv.grant_access(cost, meter, DomId::DOM0, dom, 0x20_0000 + dom.0, false)?;
        hv.devpage_write(
            cost,
            meter,
            DomId::DOM0,
            dom,
            DevicePageEntry {
                kind: DeviceKind::Sysctl,
                devid: 0,
                backend: DomId::DOM0,
                evtchn,
                grant,
            },
        )?;
        self.pages.insert(dom.0, SharedPage::default());
        Ok(())
    }

    /// True if `dom` has a sysctl device.
    pub fn is_set_up(&self, dom: DomId) -> bool {
        self.pages.contains_key(&dom.0)
    }

    /// Dom0 requests a suspend: chaos issues an ioctl to the sysctl
    /// back-end, which sets the shutdown-reason field in the shared page
    /// and triggers the event channel. The front-end saves internal
    /// state, unbinds noxs event channels and device pages, and the
    /// domain suspends.
    pub fn request_suspend(
        &mut self,
        hv: &mut Hypervisor,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
    ) -> Result<(), SysctlError> {
        let page = self.pages.get_mut(&dom.0).ok_or(SysctlError::NotSetUp)?;
        page.requested = Some(ShutdownReason::Suspend);
        // ioctl + event-channel trigger + guest-side acknowledgment.
        meter.charge(Category::Other, cost.noxs_ioctl + cost.sysctl_suspend);
        hv.shutdown(cost, meter, dom, ShutdownReason::Suspend)?;
        Ok(())
    }

    /// Dom0 requests a clean power-off.
    pub fn request_poweroff(
        &mut self,
        hv: &mut Hypervisor,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
    ) -> Result<(), SysctlError> {
        let page = self.pages.get_mut(&dom.0).ok_or(SysctlError::NotSetUp)?;
        page.requested = Some(ShutdownReason::Poweroff);
        meter.charge(Category::Other, cost.noxs_ioctl + cost.sysctl_suspend);
        hv.shutdown(cost, meter, dom, ShutdownReason::Poweroff)?;
        Ok(())
    }

    /// Resumes a suspended guest in place.
    pub fn resume(
        &mut self,
        hv: &mut Hypervisor,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
    ) -> Result<(), SysctlError> {
        let page = self.pages.get_mut(&dom.0).ok_or(SysctlError::NotSetUp)?;
        page.requested = None;
        meter.charge(Category::Other, cost.sysctl_resume);
        hv.resume(cost, meter, dom)?;
        Ok(())
    }

    /// The pending request visible to the guest (what sysctlfront reads
    /// from the shared page).
    pub fn pending(&self, dom: DomId) -> Option<ShutdownReason> {
        self.pages.get(&dom.0).and_then(|p| p.requested)
    }

    /// Forgets a dead guest.
    pub fn drop_domain(&mut self, dom: DomId) {
        self.pages.remove(&dom.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypervisor::{DomainConfig, DomainState};

    const GIB: u64 = 1 << 30;

    fn setup() -> (Hypervisor, SysctlBackend, CostModel, Meter, DomId) {
        let mut hv = Hypervisor::new(4 * GIB, 0, vec![0]);
        let cost = CostModel::paper_defaults();
        let mut m = Meter::new();
        let dom = hv.create_domain(&cost, &mut m, &DomainConfig::default()).unwrap();
        hv.devpage_setup(&cost, &mut m, DomId::DOM0, dom).unwrap();
        hv.unpause(&cost, &mut m, dom).unwrap();
        let mut sysctl = SysctlBackend::new();
        sysctl.setup(&mut hv, &cost, &mut m, dom).unwrap();
        (hv, sysctl, cost, m, dom)
    }

    #[test]
    fn suspend_resume_through_shared_page() {
        let (mut hv, mut sysctl, cost, mut m, dom) = setup();
        sysctl.request_suspend(&mut hv, &cost, &mut m, dom).unwrap();
        assert_eq!(sysctl.pending(dom), Some(ShutdownReason::Suspend));
        assert_eq!(hv.domain(dom).unwrap().state, DomainState::Suspended);
        sysctl.resume(&mut hv, &cost, &mut m, dom).unwrap();
        assert_eq!(sysctl.pending(dom), None);
        assert_eq!(hv.domain(dom).unwrap().state, DomainState::Running);
    }

    #[test]
    fn suspend_without_setup_fails() {
        let (mut hv, _, cost, mut m, dom) = setup();
        let mut fresh = SysctlBackend::new();
        assert_eq!(
            fresh.request_suspend(&mut hv, &cost, &mut m, dom).unwrap_err(),
            SysctlError::NotSetUp
        );
    }

    #[test]
    fn sysctl_registers_in_device_page() {
        let (mut hv, _sysctl, cost, mut m, dom) = setup();
        let page = hv.devpage_read(&cost, &mut m, dom).unwrap();
        assert!(page.find(DeviceKind::Sysctl, 0).is_some());
    }

    #[test]
    fn poweroff_marks_shutdown() {
        let (mut hv, mut sysctl, cost, mut m, dom) = setup();
        sysctl.request_poweroff(&mut hv, &cost, &mut m, dom).unwrap();
        assert_eq!(hv.domain(dom).unwrap().state, DomainState::Shutdown);
    }

    #[test]
    fn sysctl_path_is_fast() {
        let (mut hv, mut sysctl, cost, _m, dom) = setup();
        let mut m = Meter::new();
        sysctl.request_suspend(&mut hv, &cost, &mut m, dom).unwrap();
        // The suspend handshake is ~10 ms, vs ~85 ms for the XenStore
        // control/shutdown + watch path.
        assert!(m.total() < cost.xl_suspend_wait);
    }
}
