//! Back-end drivers (netback / blkback / console back-end).
//!
//! A back-end allocates the communication resources for a device — an
//! unbound event channel for the front-end to bind and a grant reference
//! for the device control page — and then serves the front-end's
//! connection. Both the XenStore path (Figure 7a) and the noxs path
//! (Figure 7b) go through these same operations; only the way the
//! `(backend-id, event channel, grant reference)` triple reaches the guest
//! differs.

use hypervisor::{DeviceKind, DomId, EvtchnPort, GrantRef, Hypervisor};
use simcore::{Category, CostModel, IdMap, Meter};

use crate::xenbus::XenbusState;
use crate::DevError;

/// Back-end state for one device. Plain data with no heap buffer, so a
/// forked back-end copies its table in one allocation; a vif's MAC is
/// derived on demand by [`Backend::mac_for`].
#[derive(Clone, Copy, Debug)]
pub struct BackendDevice {
    /// Front-end domain.
    pub dom: DomId,
    /// Per-class device index.
    pub devid: u32,
    /// Negotiation state.
    pub state: XenbusState,
    /// Unbound port allocated for the front-end.
    pub evtchn: EvtchnPort,
    /// Grant reference of the device control page.
    pub grant: GrantRef,
    /// Front-end's local port once bound.
    pub frontend_port: Option<EvtchnPort>,
}

/// A back-end driver instance in Dom0.
#[derive(Clone, Debug)]
pub struct Backend {
    kind: DeviceKind,
    devices: IdMap<(u32, u32), BackendDevice>,
    next_ctrl_frame: u32,
}

impl Backend {
    /// Creates a back-end for one device class in Dom0.
    pub fn new(kind: DeviceKind) -> Backend {
        Backend {
            kind,
            devices: IdMap::default(),
            next_ctrl_frame: 0x10_0000,
        }
    }

    /// The device class this back-end serves.
    pub fn kind(&self) -> DeviceKind {
        self.kind
    }

    /// Deterministic MAC derived from (dom, devid), Xen OUI.
    pub fn mac_for(dom: DomId, devid: u32) -> String {
        format!(
            "00:16:3e:{:02x}:{:02x}:{:02x}",
            (dom.0 >> 8) as u8,
            dom.0 as u8,
            devid as u8
        )
    }

    /// Allocates back-end resources for a new device: internal
    /// structures, an unbound event channel and the control-page grant.
    /// The device enters `InitWait`, waiting for the front-end.
    pub fn alloc_device(
        &mut self,
        hv: &mut Hypervisor,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
        devid: u32,
    ) -> Result<(EvtchnPort, GrantRef), DevError> {
        if self.devices.contains_key(&(dom.0, devid)) {
            return Err(DevError::Exists);
        }
        meter.charge(Category::Devices, cost.backend_setup);
        let evtchn = hv.evtchn_alloc_unbound(cost, meter, DomId::DOM0, dom)?;
        let frame = self.next_ctrl_frame;
        self.next_ctrl_frame += 1;
        let grant = hv.grant_access(cost, meter, DomId::DOM0, dom, frame)?;
        self.devices.insert(
            (dom.0, devid),
            BackendDevice {
                dom,
                devid,
                state: XenbusState::InitWait,
                evtchn,
                grant,
                frontend_port: None,
            },
        );
        Ok((evtchn, grant))
    }

    /// Front-end connects: binds the event channel, maps the control
    /// page, and the two ends exchange device parameters (state, MAC).
    /// Moves the device to `Connected` and returns the front-end's local
    /// port.
    pub fn frontend_connect(
        &mut self,
        hv: &mut Hypervisor,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
        devid: u32,
    ) -> Result<EvtchnPort, DevError> {
        let dev = self
            .devices
            .get_mut(&(dom.0, devid))
            .ok_or(DevError::NotFound)?;
        if dev.state != XenbusState::InitWait {
            return Err(DevError::BadState);
        }
        let fport = hv.evtchn_bind(cost, meter, dom, DomId::DOM0, dev.evtchn)?;
        hv.grant_map(cost, meter, dom, DomId::DOM0, dev.grant)?;
        // Parameter exchange over the control page (replaces the XenStore
        // records under noxs; mirrors them under the XenStore path).
        meter.charge(Category::Devices, cost.ctrl_page_exchange);
        debug_assert!(dev.state.can_transition_to(XenbusState::Initialised));
        dev.state = XenbusState::Initialised;
        debug_assert!(dev.state.can_transition_to(XenbusState::Connected));
        dev.state = XenbusState::Connected;
        dev.frontend_port = Some(fport);
        Ok(fport)
    }

    /// Closes a device (tear-down from either side).
    pub fn close_device(
        &mut self,
        hv: &mut Hypervisor,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
        devid: u32,
    ) -> Result<(), DevError> {
        let dev = self
            .devices
            .get_mut(&(dom.0, devid))
            .ok_or(DevError::NotFound)?;
        meter.charge(Category::Devices, cost.backend_setup.scale(0.5));
        // Closing either end of a bound channel closes both, so close the
        // channel once: through the front end when bound, else the
        // back-end's unbound offer.
        if let Some(fport) = dev.frontend_port.take() {
            let _ = hv.evtchn_close(dom, fport);
            let _ = hv.grant_unmap(dom, DomId::DOM0, dev.grant);
        } else {
            let _ = hv.evtchn_close(DomId::DOM0, dev.evtchn);
        }
        let _ = hv.grant_end_access(DomId::DOM0, dev.grant);
        dev.state = XenbusState::Closed;
        self.devices.remove(&(dom.0, devid));
        Ok(())
    }

    /// Looks up a device.
    pub fn device(&self, dom: DomId, devid: u32) -> Option<&BackendDevice> {
        self.devices.get(&(dom.0, devid))
    }

    /// Devices currently managed.
    pub fn count(&self) -> usize {
        self.devices.len()
    }

    /// Forgets one device of a departed domain without closing it: its
    /// channel and grant die with the domain in [`Hypervisor::destroy`].
    /// Returns whether the device was known.
    pub fn forget(&mut self, dom: DomId, devid: u32) -> bool {
        self.devices.remove(&(dom.0, devid)).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypervisor::{DomainConfig, HvError};

    const GIB: u64 = 1 << 30;

    fn setup() -> (Hypervisor, Backend, CostModel, Meter, DomId) {
        let mut hv = Hypervisor::new(8 * GIB, 0, vec![1, 2, 3]);
        let cost = CostModel::paper_defaults();
        let mut m = Meter::new();
        let dom = hv.create_domain(&cost, &mut m, &DomainConfig::default()).unwrap();
        (hv, Backend::new(DeviceKind::Net), cost, m, dom)
    }

    #[test]
    fn alloc_connect_close_lifecycle() {
        let (mut hv, mut be, cost, mut m, dom) = setup();
        let (port, grant) = be.alloc_device(&mut hv, &cost, &mut m, dom, 0).unwrap();
        assert_eq!(be.device(dom, 0).unwrap().state, XenbusState::InitWait);
        let fport = be.frontend_connect(&mut hv, &cost, &mut m, dom, 0).unwrap();
        let dev = be.device(dom, 0).unwrap();
        assert_eq!(dev.state, XenbusState::Connected);
        assert_eq!(dev.frontend_port, Some(fport));
        assert_eq!(dev.evtchn, port);
        assert_eq!(dev.grant, grant);
        // Notifications flow both ways.
        hv.evtchn_send(&cost, &mut m, DomId::DOM0, port).unwrap();
        assert!(hv.evtchn_poll(dom, fport).unwrap());
        be.close_device(&mut hv, &cost, &mut m, dom, 0).unwrap();
        assert!(be.device(dom, 0).is_none());
        assert_eq!(hv.grant_count(), 0);
        assert_eq!(hv.open_channels(), 0);
    }

    #[test]
    fn close_of_unconnected_device_closes_the_offer() {
        let (mut hv, mut be, cost, mut m, dom) = setup();
        let (port, _) = be.alloc_device(&mut hv, &cost, &mut m, dom, 0).unwrap();
        assert_eq!(hv.open_channels(), 1);
        be.close_device(&mut hv, &cost, &mut m, dom, 0).unwrap();
        assert_eq!(hv.open_channels(), 0);
        assert!(hv.evtchn_poll(DomId::DOM0, port).is_err());
        assert_eq!(hv.grant_count(), 0);
    }

    #[test]
    fn duplicate_device_rejected() {
        let (mut hv, mut be, cost, mut m, dom) = setup();
        be.alloc_device(&mut hv, &cost, &mut m, dom, 0).unwrap();
        assert_eq!(
            be.alloc_device(&mut hv, &cost, &mut m, dom, 0).unwrap_err(),
            DevError::Exists
        );
        // Different devid is fine.
        be.alloc_device(&mut hv, &cost, &mut m, dom, 1).unwrap();
        assert_eq!(be.count(), 2);
    }

    #[test]
    fn connect_before_alloc_fails() {
        let (mut hv, mut be, cost, mut m, dom) = setup();
        assert_eq!(
            be.frontend_connect(&mut hv, &cost, &mut m, dom, 0).unwrap_err(),
            DevError::NotFound
        );
    }

    #[test]
    fn double_connect_fails() {
        let (mut hv, mut be, cost, mut m, dom) = setup();
        be.alloc_device(&mut hv, &cost, &mut m, dom, 0).unwrap();
        be.frontend_connect(&mut hv, &cost, &mut m, dom, 0).unwrap();
        assert_eq!(
            be.frontend_connect(&mut hv, &cost, &mut m, dom, 0).unwrap_err(),
            DevError::BadState
        );
    }

    #[test]
    fn mac_is_deterministic_and_unique_per_device() {
        let a = Backend::mac_for(DomId(1), 0);
        let b = Backend::mac_for(DomId(1), 1);
        let c = Backend::mac_for(DomId(2), 0);
        assert_eq!(a, Backend::mac_for(DomId(1), 0));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert!(a.starts_with("00:16:3e:"));
    }

    #[test]
    fn forget_drops_only_the_named_device() {
        let (mut hv, mut be, cost, mut m, dom) = setup();
        be.alloc_device(&mut hv, &cost, &mut m, dom, 0).unwrap();
        be.alloc_device(&mut hv, &cost, &mut m, dom, 1).unwrap();
        assert!(be.forget(dom, 0));
        assert!(!be.forget(dom, 0));
        assert!(be.device(dom, 1).is_some());
        // The domain's death reaps what the forgotten device held.
        assert!(be.forget(dom, 1));
        hv.destroy(&cost, &mut m, dom).unwrap();
        assert_eq!((be.count(), hv.open_channels(), hv.grant_count()), (0, 0, 0));
    }

    #[test]
    fn alloc_for_a_missing_domain_allocates_nothing() {
        let (mut hv, mut be, cost, mut m, _) = setup();
        assert_eq!(
            be.alloc_device(&mut hv, &cost, &mut m, DomId(99), 0).unwrap_err(),
            DevError::Hv(HvError::NoSuchDomain)
        );
        assert_eq!((be.count(), hv.open_channels(), hv.grant_count()), (0, 0, 0));
    }
}
