//! XenStore-mediated device creation: the full Figure 7a handshake.
//!
//! 1. The toolstack writes the front-end and back-end store entries in a
//!    transaction, "essentially announcing the existence of a new VM in
//!    need of a network device".
//! 2. The back-end, watching its backend directory, is triggered: it
//!    assigns an event channel and grant reference and writes them back
//!    to the store.
//! 3. When the VM boots it contacts the XenStore to retrieve the details
//!    the back-end published, binds, maps and connects.
//!
//! Every store access pays the protocol tax; the watch-driven back-end
//! activation and the transactional writes are the load the paper
//! measures in Figure 5's "xenstore" band.

use hypervisor::{DeviceKind, DomId, Hypervisor};
use simcore::{CostModel, FaultPlan, FaultSite, Meter};
use xenstore::{u32_str, WatchEvent, XsError, Xenstored};

use crate::backend::Backend;
use crate::hotplug::{watchdog_gate, Hotplug};
use crate::switch::SoftwareSwitch;
use crate::xenbus::XenbusState;
use crate::DevError;

/// Watch token back-ends use for their backend directory.
const BACKEND_TOKEN: &str = "backend-watch";

/// How many times libxl retries a conflicted transaction before giving up.
pub const TXN_RETRIES: usize = 8;

/// Registers the back-end's watch on its backend directory (done once at
/// back-end start-up).
pub fn register_backend_watch(
    xs: &mut Xenstored,
    cost: &CostModel,
    meter: &mut Meter,
    kind: DeviceKind,
) {
    // /local/domain/0/backend/<kind>, composed without string formatting.
    let backend = xs.child_sym(xs.domain_dir_sym(0), "backend");
    let class = xs.child_sym(backend, kind.as_str());
    xs.watch(cost, meter, 0, class, BACKEND_TOKEN);
    xs.drain_events(cost, meter, 0); // drain the registration event
}

/// Step 1: the toolstack announces the device by writing the front-end
/// and back-end entries in one transaction.
pub fn toolstack_announce_device(
    xs: &mut Xenstored,
    cost: &CostModel,
    meter: &mut Meter,
    kind: DeviceKind,
    dom: DomId,
    devid: u32,
    mac: &str,
) -> Result<(), DevError> {
    // All path skeletons are composed (and interned at most once) up
    // front; transaction retries then run allocation-free.
    let fe = xs.frontend_dir_sym(dom.0, kind.as_str(), devid);
    let be = xs.backend_dir_sym(0, kind.as_str(), dom.0, devid);
    let fe_backend = xs.child_sym(fe, "backend");
    let fe_backend_id = xs.child_sym(fe, "backend-id");
    let fe_handle = xs.child_sym(fe, "handle");
    let fe_state = xs.child_sym(fe, "state");
    let be_frontend = xs.child_sym(be, "frontend");
    let be_frontend_id = xs.child_sym(be, "frontend-id");
    let be_mac = xs.child_sym(be, "mac");
    let be_online = xs.child_sym(be, "online");
    let be_state = xs.child_sym(be, "state");
    let fe_path = xs.path_of(fe);
    let be_path = xs.path_of(be);
    let mut devid_buf = [0u8; 10];
    let devid_s = u32_str(&mut devid_buf, devid);
    let mut dom_buf = [0u8; 10];
    let dom_s = u32_str(&mut dom_buf, dom.0);
    xs.transaction(cost, meter, 0, TXN_RETRIES, |xs, cost, meter, id| {
        // Front-end side.
        xs.txn_write(cost, meter, 0, id, fe_backend, be_path.as_str().as_bytes())?;
        xs.txn_write(cost, meter, 0, id, fe_backend_id, b"0")?;
        xs.txn_write(cost, meter, 0, id, fe_handle, devid_s.as_bytes())?;
        xs.txn_write(cost, meter, 0, id, fe_state, XenbusState::Initialising.as_str().as_bytes())?;
        // Back-end side.
        xs.txn_write(cost, meter, 0, id, be_frontend, fe_path.as_str().as_bytes())?;
        xs.txn_write(cost, meter, 0, id, be_frontend_id, dom_s.as_bytes())?;
        xs.txn_write(cost, meter, 0, id, be_mac, mac.as_bytes())?;
        xs.txn_write(cost, meter, 0, id, be_online, b"1")?;
        xs.txn_write(cost, meter, 0, id, be_state, XenbusState::Initialising.as_str().as_bytes())
    })?;
    // Hand the front-end directory to the guest (libxl sets permissions
    // so the guest can update its own `state` node).
    let guest_owned = xenstore::Perms {
        owner: dom.0,
        others_read: true,
        others_write: false,
    };
    xs.set_perms(cost, meter, 0, fe, guest_owned)?;
    xs.set_perms(cost, meter, 0, fe_state, guest_owned)?;
    Ok(())
}

/// Step 2: the back-ends react to the watch: each allocates the event
/// channel and grant for devices of its class, writes them back to the
/// store, moves to `InitWait`, and runs the hotplug setup.
///
/// All back-ends share Dom0's connection, so events are dispatched by
/// the device-class component of the path; stale events for nodes that
/// have since been removed are skipped, as xenbus drivers do.
///
/// Events are delivered through the caller's `events` scratch buffer, so
/// steady-state processing allocates nothing.
#[allow(clippy::too_many_arguments)]
pub fn backend_process_events(
    xs: &mut Xenstored,
    hv: &mut Hypervisor,
    backends: &mut [&mut Backend],
    switch: &mut SoftwareSwitch,
    hotplug: Hotplug,
    cost: &CostModel,
    meter: &mut Meter,
    events: &mut Vec<WatchEvent>,
    faults: &mut FaultPlan,
) -> Result<usize, DevError> {
    xs.take_events_into(cost, meter, 0, events);
    let mut handled = 0;
    for ev in events.iter() {
        if &*ev.token != BACKEND_TOKEN {
            continue;
        }
        // Only the "state" write of a new announcement triggers set-up.
        // /local/domain/0/backend/<kind>/<domid>/<devid>/state
        if ev.path.depth() != 8 || ev.path.last_component() != Some("state") {
            continue;
        }
        let mut comps = ev.path.components();
        let kind_name = comps.nth(4).unwrap_or("");
        let dom_name = comps.next().unwrap_or("");
        let devid_name = comps.next().unwrap_or("");
        let state_raw = match xs.read(cost, meter, 0, &ev.path) {
            Ok(v) => v,
            // Stale event: the node was removed after the event fired.
            Err(XsError::NotFound) => continue,
            Err(e) => return Err(e.into()),
        };
        if &*state_raw != XenbusState::Initialising.as_str().as_bytes() {
            continue;
        }
        let backend = match backends.iter_mut().find(|b| b.kind().as_str() == kind_name) {
            Some(b) => b,
            None => continue, // a class nobody serves
        };
        let dom = DomId(dom_name.parse().map_err(|_| DevError::Xs(XsError::Invalid))?);
        let devid: u32 = devid_name.parse().map_err(|_| DevError::Xs(XsError::Invalid))?;
        let kind = backend.kind();
        if faults.should_inject(FaultSite::BackendRefusal) {
            // The backend declines the allocation outright (resource
            // exhaustion on its side). The toolstack observes the refusal
            // and unwinds the whole create; the announcement written in
            // step 1 is removed by the compensating teardown.
            return Err(DevError::Refused);
        }
        let (port, grant) = match backend.alloc_device(hv, cost, meter, dom, devid) {
            Ok(x) => x,
            Err(DevError::Exists) => continue, // re-delivered watch
            Err(e) => return Err(e),
        };
        let be = xs.backend_dir_sym(0, kind.as_str(), dom.0, devid);
        let be_evtchn = xs.child_sym(be, "event-channel");
        let be_grant = xs.child_sym(be, "grant-ref");
        let be_state = xs.child_sym(be, "state");
        let mut buf = [0u8; 10];
        xs.write(cost, meter, 0, be_evtchn, u32_str(&mut buf, port.0).as_bytes())?;
        xs.write(cost, meter, 0, be_grant, u32_str(&mut buf, grant.0).as_bytes())?;
        xs.write(cost, meter, 0, be_state, XenbusState::InitWait.as_str().as_bytes())?;
        watchdog_gate(faults, FaultSite::HotplugTimeout, cost, meter)?;
        if kind == DeviceKind::Net {
            hotplug.plug_vif(cost, meter, switch, dom, devid)?;
        } else {
            hotplug.plug_vbd(cost, meter);
        }
        handled += 1;
    }
    Ok(handled)
}

/// Step 3: the booting guest contacts the XenStore, retrieves what the
/// back-end published, connects, and both sides move to `Connected`.
#[allow(clippy::too_many_arguments)]
pub fn frontend_connect_via_xenstore(
    xs: &mut Xenstored,
    hv: &mut Hypervisor,
    backend: &mut Backend,
    cost: &CostModel,
    meter: &mut Meter,
    dom: DomId,
    devid: u32,
    faults: &mut FaultPlan,
) -> Result<(), DevError> {
    // The handshake can stall before reaching `Connected` (backend wedged
    // between states); the guest's watchdog retries and eventually gives
    // up with a timeout the toolstack turns into a failed boot.
    watchdog_gate(faults, FaultSite::XenbusStall, cost, meter)?;
    let kind = backend.kind();
    let fe = xs.frontend_dir_sym(dom.0, kind.as_str(), devid);
    let be = xs.backend_dir_sym(0, kind.as_str(), dom.0, devid);
    // Guest reads its front-end dir to find the backend, then the
    // back-end's published parameters.
    let fe_backend = xs.child_sym(fe, "backend");
    let be_evtchn = xs.child_sym(be, "event-channel");
    let be_grant = xs.child_sym(be, "grant-ref");
    let be_mac = xs.child_sym(be, "mac");
    let fe_state = xs.child_sym(fe, "state");
    let be_state = xs.child_sym(be, "state");
    let _backend_path = xs.read(cost, meter, dom.0, fe_backend)?;
    let _port = xs.read(cost, meter, dom.0, be_evtchn)?;
    let _gref = xs.read(cost, meter, dom.0, be_grant)?;
    let _mac = xs.read(cost, meter, dom.0, be_mac)?;
    backend.frontend_connect(hv, cost, meter, dom, devid)?;
    xs.write(cost, meter, dom.0, fe_state, XenbusState::Connected.as_str().as_bytes())?;
    xs.write(cost, meter, 0, be_state, XenbusState::Connected.as_str().as_bytes())?;
    Ok(())
}

/// Device tear-down: closes the device and removes its store entries.
#[allow(clippy::too_many_arguments)]
pub fn destroy_device_via_xenstore(
    xs: &mut Xenstored,
    hv: &mut Hypervisor,
    backend: &mut Backend,
    switch: &mut SoftwareSwitch,
    hotplug: Hotplug,
    cost: &CostModel,
    meter: &mut Meter,
    dom: DomId,
    devid: u32,
) -> Result<(), DevError> {
    let kind = backend.kind();
    match backend.close_device(hv, cost, meter, dom, devid) {
        Ok(()) => {
            if kind == DeviceKind::Net {
                let _ = hotplug.unplug_vif(cost, meter, switch, dom, devid);
            }
        }
        // The backend never allocated this device (a create aborted
        // between announcement and allocation); teardown is idempotent
        // and still removes whatever store records the announce left.
        Err(DevError::NotFound) => {}
        Err(e) => return Err(e),
    }
    let fe = xs.frontend_dir_sym(dom.0, kind.as_str(), devid);
    let be = xs.backend_dir_sym(0, kind.as_str(), dom.0, devid);
    let _ = xs.rm(cost, meter, 0, fe);
    // libxl removes the guest's whole per-domain backend directory, not
    // just the devid node (otherwise `/backend/<kind>/<domid>` dirs
    // accumulate forever).
    let be_domain_dir = xs.parent_sym(be);
    let _ = xs.rm(cost, meter, 0, be_domain_dir);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypervisor::DomainConfig;
    use xenstore::path::layout;
    use simcore::Category;
    use xenstore::Flavor;

    const GIB: u64 = 1 << 30;

    struct World {
        xs: Xenstored,
        hv: Hypervisor,
        be: Backend,
        sw: SoftwareSwitch,
        cost: CostModel,
    }

    fn setup() -> (World, Meter, DomId) {
        let mut w = World {
            xs: Xenstored::new(Flavor::Oxenstored, 7),
            hv: Hypervisor::new(8 * GIB, 0, vec![1, 2, 3]),
            be: Backend::new(DeviceKind::Net),
            sw: SoftwareSwitch::new(),
            cost: CostModel::paper_defaults(),
        };
        let mut m = Meter::new();
        let dom = w
            .hv
            .create_domain(&w.cost, &mut m, &DomainConfig::default())
            .unwrap();
        w.xs.connect(dom.0);
        register_backend_watch(&mut w.xs, &w.cost, &mut m, DeviceKind::Net);
        (w, m, dom)
    }

    #[test]
    fn full_figure_7a_handshake() {
        let (mut w, mut m, dom) = setup();
        let mac = Backend::mac_for(dom, 0);
        toolstack_announce_device(&mut w.xs, &w.cost, &mut m, DeviceKind::Net, dom, 0, &mac)
            .unwrap();
        let handled = backend_process_events(
            &mut w.xs, &mut w.hv, &mut [&mut w.be], &mut w.sw,
            Hotplug::Xendevd, &w.cost, &mut m, &mut Vec::new(), &mut FaultPlan::none(),
        )
        .unwrap();
        assert_eq!(handled, 1);
        assert_eq!(w.be.device(dom, 0).unwrap().state, XenbusState::InitWait);
        assert_eq!(w.sw.port_count(), 1);
        frontend_connect_via_xenstore(
            &mut w.xs, &mut w.hv, &mut w.be, &w.cost, &mut m, dom, 0,
            &mut FaultPlan::none(),
        )
        .unwrap();
        assert_eq!(w.be.device(dom, 0).unwrap().state, XenbusState::Connected);
        // The handshake paid both XenStore and Devices costs.
        assert!(m.of(Category::Xenstore) > simcore::SimTime::ZERO);
        assert!(m.of(Category::Devices) > simcore::SimTime::ZERO);
        // The store now holds the negotiated parameters.
        let be_dir = layout::backend_dir(0, "vif", dom.0, 0);
        let state = w.xs.store().read(0, &be_dir.child("state").unwrap()).unwrap();
        assert_eq!(state, XenbusState::Connected.to_string().as_bytes());
    }

    #[test]
    fn redelivered_watch_is_idempotent() {
        let (mut w, mut m, dom) = setup();
        let mac = Backend::mac_for(dom, 0);
        toolstack_announce_device(&mut w.xs, &w.cost, &mut m, DeviceKind::Net, dom, 0, &mac)
            .unwrap();
        backend_process_events(
            &mut w.xs, &mut w.hv, &mut [&mut w.be], &mut w.sw,
            Hotplug::Xendevd, &w.cost, &mut m, &mut Vec::new(), &mut FaultPlan::none(),
        )
        .unwrap();
        // The backend's own state write re-fires its watch; processing
        // again must not allocate a second device.
        let handled = backend_process_events(
            &mut w.xs, &mut w.hv, &mut [&mut w.be], &mut w.sw,
            Hotplug::Xendevd, &w.cost, &mut m, &mut Vec::new(), &mut FaultPlan::none(),
        )
        .unwrap();
        assert_eq!(handled, 0);
        assert_eq!(w.be.count(), 1);
    }

    #[test]
    fn destroy_cleans_store_and_switch() {
        let (mut w, mut m, dom) = setup();
        let mac = Backend::mac_for(dom, 0);
        toolstack_announce_device(&mut w.xs, &w.cost, &mut m, DeviceKind::Net, dom, 0, &mac)
            .unwrap();
        backend_process_events(
            &mut w.xs, &mut w.hv, &mut [&mut w.be], &mut w.sw,
            Hotplug::Xendevd, &w.cost, &mut m, &mut Vec::new(), &mut FaultPlan::none(),
        )
        .unwrap();
        frontend_connect_via_xenstore(
            &mut w.xs, &mut w.hv, &mut w.be, &w.cost, &mut m, dom, 0,
            &mut FaultPlan::none(),
        )
        .unwrap();
        destroy_device_via_xenstore(
            &mut w.xs, &mut w.hv, &mut w.be, &mut w.sw,
            Hotplug::Xendevd, &w.cost, &mut m, dom, 0,
        )
        .unwrap();
        assert_eq!(w.be.count(), 0);
        assert_eq!(w.sw.port_count(), 0);
        assert!(!w.xs.store().exists(&layout::backend_dir(0, "vif", dom.0, 0)));
        assert!(!w.xs.store().exists(&layout::frontend_dir(dom.0, "vif", 0)));
    }

    #[test]
    fn backend_refusal_fault_surfaces_as_typed_error() {
        let (mut w, mut m, dom) = setup();
        let mac = Backend::mac_for(dom, 0);
        toolstack_announce_device(&mut w.xs, &w.cost, &mut m, DeviceKind::Net, dom, 0, &mac)
            .unwrap();
        let mut faults = FaultPlan::at_site(3, FaultSite::BackendRefusal);
        let err = backend_process_events(
            &mut w.xs, &mut w.hv, &mut [&mut w.be], &mut w.sw,
            Hotplug::Xendevd, &w.cost, &mut m, &mut Vec::new(), &mut faults,
        )
        .unwrap_err();
        assert_eq!(err, DevError::Refused);
        // The backend allocated nothing: no device, no switch port, no
        // grants to leak.
        assert_eq!(w.be.count(), 0);
        assert_eq!(w.sw.port_count(), 0);
        assert_eq!(w.hv.grant_count(), 0);
    }

    #[test]
    fn hotplug_timeout_fault_charges_watchdog_then_fails() {
        let (mut w, mut m, dom) = setup();
        let mac = Backend::mac_for(dom, 0);
        toolstack_announce_device(&mut w.xs, &w.cost, &mut m, DeviceKind::Net, dom, 0, &mac)
            .unwrap();
        let before = m.of(Category::Devices);
        let mut faults = FaultPlan::at_site(3, FaultSite::HotplugTimeout);
        let err = backend_process_events(
            &mut w.xs, &mut w.hv, &mut [&mut w.be], &mut w.sw,
            Hotplug::Xendevd, &w.cost, &mut m, &mut Vec::new(), &mut faults,
        )
        .unwrap_err();
        assert_eq!(err, DevError::Timeout);
        // Every attempt (initial + retries) paid at least the watchdog
        // timeout while the daemon stayed silent.
        let waited = m.of(Category::Devices) - before;
        let floor = w.cost.fault_watchdog_timeout * (simcore::FAULT_RETRIES as u64 + 1);
        assert!(waited >= floor, "waited {waited:?} < watchdog floor {floor:?}");
    }

    #[test]
    fn xenbus_stall_fault_times_out_frontend_connect() {
        let (mut w, mut m, dom) = setup();
        let mac = Backend::mac_for(dom, 0);
        toolstack_announce_device(&mut w.xs, &w.cost, &mut m, DeviceKind::Net, dom, 0, &mac)
            .unwrap();
        backend_process_events(
            &mut w.xs, &mut w.hv, &mut [&mut w.be], &mut w.sw,
            Hotplug::Xendevd, &w.cost, &mut m, &mut Vec::new(), &mut FaultPlan::none(),
        )
        .unwrap();
        let mut faults = FaultPlan::at_site(3, FaultSite::XenbusStall);
        let err = frontend_connect_via_xenstore(
            &mut w.xs, &mut w.hv, &mut w.be, &w.cost, &mut m, dom, 0, &mut faults,
        )
        .unwrap_err();
        assert_eq!(err, DevError::Timeout);
        // The device never reached Connected and can still be torn down.
        assert_eq!(w.be.device(dom, 0).unwrap().state, XenbusState::InitWait);
        destroy_device_via_xenstore(
            &mut w.xs, &mut w.hv, &mut w.be, &mut w.sw,
            Hotplug::Xendevd, &w.cost, &mut m, dom, 0,
        )
        .unwrap();
        assert_eq!(w.hv.grant_count(), 0);
    }

    #[test]
    fn announcement_is_transactional() {
        let (mut w, mut m, dom) = setup();
        let before_commits = w.xs.stats().txn_commits;
        toolstack_announce_device(
            &mut w.xs, &w.cost, &mut m, DeviceKind::Net, dom, 0, "00:16:3e:00:00:00",
        )
        .unwrap();
        assert_eq!(w.xs.stats().txn_commits, before_commits + 1);
    }
}
