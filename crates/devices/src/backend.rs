//! Back-end drivers (netback / blkback / console back-end).
//!
//! A back-end allocates the communication resources for a device — an
//! unbound event channel for the front-end to bind and a grant reference
//! for the device control page — and then serves the front-end's
//! connection. Both the XenStore path (Figure 7a) and the noxs path
//! (Figure 7b) go through these same operations; only the way the
//! `(backend-id, event channel, grant reference)` triple reaches the guest
//! differs.

use hypervisor::{DeviceKind, DomId, EvtchnPort, GrantRef, HvError, Hypervisor};
use simcore::{Category, CostModel, IdMap, Meter};

use crate::xenbus::XenbusState;

/// Device-management errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DevError {
    /// (domain, devid) already has a device of this class.
    Exists,
    /// No such device.
    NotFound,
    /// Operation illegal in the current xenbus state.
    BadState,
    /// The backend refused to allocate the device (resource exhaustion
    /// on the backend side; injected by the fault plan).
    Refused,
    /// A watchdog timeout expired waiting for the other end (hotplug
    /// daemon unresponsive, xenbus handshake stalled).
    Timeout,
    /// Underlying hypercall failed.
    Hv(HvError),
}

impl From<HvError> for DevError {
    fn from(e: HvError) -> Self {
        DevError::Hv(e)
    }
}

impl From<crate::switch::SwitchError> for DevError {
    fn from(e: crate::switch::SwitchError) -> Self {
        match e {
            crate::switch::SwitchError::PortExists => DevError::Exists,
            crate::switch::SwitchError::NoSuchPort => DevError::NotFound,
        }
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
        }
    }
}

impl std::error::Error for DevError {}

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

/// A back-end driver instance, normally in Dom0 but optionally in a
/// dedicated *driver domain* (paper §4.1 footnote: "this functionality
/// can be put in a separate VM called a driver domain").
#[derive(Clone, Debug)]
pub struct Backend {
    kind: DeviceKind,
    backend_dom: DomId,
    devices: IdMap<(u32, u32), BackendDevice>,
    next_ctrl_frame: u64,
}

impl Backend {
    /// Creates a back-end for one device class in Dom0.
    pub fn new(kind: DeviceKind) -> Backend {
        Backend::new_in_domain(kind, DomId::DOM0)
    }

    /// Creates a back-end running in a driver domain.
    pub fn new_in_domain(kind: DeviceKind, backend_dom: DomId) -> Backend {
        Backend {
            kind,
            backend_dom,
            devices: IdMap::default(),
            next_ctrl_frame: 0x10_0000,
        }
    }

    /// The device class this back-end serves.
    pub fn kind(&self) -> DeviceKind {
        self.kind
    }

    /// The domain the back-end runs in.
    pub fn backend_dom(&self) -> DomId {
        self.backend_dom
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
        let evtchn = hv.evtchn_alloc_unbound(cost, meter, self.backend_dom, dom);
        let frame = self.next_ctrl_frame;
        self.next_ctrl_frame += 1;
        let grant = hv.grant_access(cost, meter, self.backend_dom, dom, frame, false);
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
        let backend_dom = self.backend_dom;
        let fport = hv.evtchn_bind(cost, meter, dom, backend_dom, dev.evtchn)?;
        hv.grant_map(cost, meter, dom, backend_dom, dev.grant)?;
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
        let backend_dom = self.backend_dom;
        // Closing either end of a bound channel closes both, so close the
        // channel once: through the front end when bound, else the
        // back-end's unbound offer.
        if let Some(fport) = dev.frontend_port.take() {
            let _ = hv.evtchn.close(dom, fport);
            let _ = hv.gnttab.unmap(dom, backend_dom, dev.grant);
        } else {
            let _ = hv.evtchn.close(backend_dom, dev.evtchn);
        }
        let _ = hv.gnttab.end_access(backend_dom, dev.grant);
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

    /// Forgets all devices of a dead domain (resources are reaped by
    /// [`Hypervisor::destroy`]).
    pub fn drop_domain(&mut self, dom: DomId) -> usize {
        let before = self.devices.len();
        self.devices.retain(|(d, _), _| *d != dom.0);
        before - self.devices.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypervisor::DomainConfig;

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
        assert!(hv.evtchn.poll(dom, fport).unwrap());
        be.close_device(&mut hv, &cost, &mut m, dom, 0).unwrap();
        assert!(be.device(dom, 0).is_none());
        assert!(hv.gnttab.is_empty());
        assert_eq!(hv.evtchn.open_channels(), 0);
    }

    #[test]
    fn close_of_unconnected_device_closes_the_offer() {
        let (mut hv, mut be, cost, mut m, dom) = setup();
        let (port, _) = be.alloc_device(&mut hv, &cost, &mut m, dom, 0).unwrap();
        assert_eq!(hv.evtchn.open_channels(), 1);
        be.close_device(&mut hv, &cost, &mut m, dom, 0).unwrap();
        assert_eq!(hv.evtchn.open_channels(), 0);
        assert!(hv.evtchn.poll(DomId::DOM0, port).is_err());
        assert!(hv.gnttab.is_empty());
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
    fn drop_domain_forgets_devices() {
        let (mut hv, mut be, cost, mut m, dom) = setup();
        be.alloc_device(&mut hv, &cost, &mut m, dom, 0).unwrap();
        be.alloc_device(&mut hv, &cost, &mut m, dom, 1).unwrap();
        assert_eq!(be.drop_domain(dom), 2);
        assert_eq!(be.count(), 0);
    }
}
