//! The sysctl power-control split device (paper §5.1).
//!
//! "To support migration without a XenStore, we create a new
//! pseudo-device called sysctl to handle power-related operations [...]
//! with a back-end driver (sysctlback) and a front-end (sysctlfront)
//! one. These two drivers share a device page through which communication
//! happens and an event channel."
//!
//! The back-end keeps no table of its own: what it would hold, the
//! hypervisor already does. A guest has a sysctl device exactly when its
//! device page lists `(Sysctl, 0)`, and the reason Dom0 requested is the
//! domain's [`hypervisor::Domain::shutdown_reason`]. Both die with the
//! domain.

use devices::DevError;
use hypervisor::{DeviceKind, DevicePageEntry, DomId, Hypervisor, ShutdownReason};
use simcore::{Category, CostModel, Meter};

/// Sets up the sysctl device for a guest: allocates the shared page
/// and channel and registers the entry in the device page.
pub fn setup(
    hv: &mut Hypervisor,
    cost: &CostModel,
    meter: &mut Meter,
    dom: DomId,
) -> Result<(), DevError> {
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
    Ok(())
}

/// [`DevError::NotFound`] unless `dom`'s device page lists its sysctl
/// device.
fn check_set_up(hv: &Hypervisor, dom: DomId) -> Result<(), DevError> {
    match hv.domain(dom)?.device_page() {
        Some(page) if page.find(DeviceKind::Sysctl, 0).is_some() => Ok(()),
        _ => Err(DevError::NotFound),
    }
}

/// Dom0 requests a suspend: chaos issues an ioctl to the sysctl
/// back-end, which sets the shutdown-reason field in the shared page
/// and triggers the event channel. The front-end saves internal
/// state, unbinds noxs event channels and device pages, and the
/// domain suspends.
pub fn request_suspend(
    hv: &mut Hypervisor,
    cost: &CostModel,
    meter: &mut Meter,
    dom: DomId,
) -> Result<(), DevError> {
    check_set_up(hv, dom)?;
    // ioctl + event-channel trigger + guest-side acknowledgment.
    meter.charge(Category::Other, cost.noxs_ioctl + cost.sysctl_suspend);
    hv.shutdown(cost, meter, dom, ShutdownReason::Suspend)?;
    Ok(())
}

/// Resumes a suspended guest in place, withdrawing the request.
pub fn resume(
    hv: &mut Hypervisor,
    cost: &CostModel,
    meter: &mut Meter,
    dom: DomId,
) -> Result<(), DevError> {
    check_set_up(hv, dom)?;
    meter.charge(Category::Other, cost.sysctl_resume);
    hv.resume(cost, meter, dom)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypervisor::{DomainConfig, DomainState};

    const GIB: u64 = 1 << 30;

    /// A running guest with a device page and, if `sysctl`, its sysctl
    /// device.
    fn setup_guest(sysctl: bool) -> (Hypervisor, CostModel, Meter, DomId) {
        let mut hv = Hypervisor::new(4 * GIB, 0, vec![0]);
        let cost = CostModel::paper_defaults();
        let mut m = Meter::new();
        let dom = hv.create_domain(&cost, &mut m, &DomainConfig::default()).unwrap();
        hv.devpage_setup(&cost, &mut m, DomId::DOM0, dom).unwrap();
        hv.unpause(&cost, &mut m, dom).unwrap();
        if sysctl {
            setup(&mut hv, &cost, &mut m, dom).unwrap();
        }
        (hv, cost, m, dom)
    }

    #[test]
    fn suspend_resume_through_the_domain_record() {
        let (mut hv, cost, mut m, dom) = setup_guest(true);
        request_suspend(&mut hv, &cost, &mut m, dom).unwrap();
        let d = hv.domain(dom).unwrap();
        assert_eq!(d.state, DomainState::Suspended);
        assert_eq!(d.shutdown_reason, Some(ShutdownReason::Suspend));
        resume(&mut hv, &cost, &mut m, dom).unwrap();
        let d = hv.domain(dom).unwrap();
        assert_eq!((d.state, d.shutdown_reason), (DomainState::Running, None));
    }

    #[test]
    fn suspend_without_setup_fails() {
        let (mut hv, cost, mut m, dom) = setup_guest(false);
        let charged = m.total();
        assert_eq!(
            request_suspend(&mut hv, &cost, &mut m, dom).unwrap_err(),
            DevError::NotFound
        );
        assert_eq!(m.total(), charged, "nothing charged");
        assert_eq!(hv.domain(dom).unwrap().state, DomainState::Running);
    }

    #[test]
    fn sysctl_registers_in_device_page() {
        let (mut hv, cost, mut m, dom) = setup_guest(true);
        let page = hv.devpage_read(&cost, &mut m, dom).unwrap();
        assert!(page.find(DeviceKind::Sysctl, 0).is_some());
    }

    #[test]
    fn sysctl_path_is_fast() {
        let (mut hv, cost, _m, dom) = setup_guest(true);
        let mut m = Meter::new();
        request_suspend(&mut hv, &cost, &mut m, dom).unwrap();
        // The suspend handshake is ~10 ms, vs ~85 ms for the XenStore
        // control/shutdown + watch path.
        assert!(m.total() < cost.xl_suspend_wait);
    }
}
