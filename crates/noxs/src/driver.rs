//! Device creation through the noxs device page (Figure 7b).
//!
//! 1. chaos requests device creation from the back-end through an ioctl
//!    handled by the noxs Linux kernel module; the back-end returns the
//!    communication-channel details.
//! 2. The toolstack calls the new hypercall asking the hypervisor to add
//!    those details to the guest's device page.
//! 3. When the VM boots it asks the hypervisor for the device page and
//!    maps it (hypercalls).
//! 4. The guest uses the page contents to map the grant and bind the
//!    event channel; front- and back-end exchange state over the device
//!    control page.

use devices::{watchdog_gate, Backend, DevError, Hotplug, SoftwareSwitch};
use hypervisor::{DevicePageEntry, DeviceKind, DomId, Hypervisor};
use simcore::{Category, CostModel, FaultPlan, FaultSite, Meter};

/// Ensures the guest has a device page (idempotent; done once per guest
/// at creation).
pub fn setup_device_page(
    hv: &mut Hypervisor,
    cost: &CostModel,
    meter: &mut Meter,
    dom: DomId,
) -> Result<(), DevError> {
    hv.devpage_setup(cost, meter, DomId::DOM0, dom)?;
    Ok(())
}

/// Steps 1 + 2: back-end ioctl, then the hypercall writing the entry to
/// the device page. For vifs, `xendevd` plugs the port.
#[allow(clippy::too_many_arguments)]
pub fn create_device(
    hv: &mut Hypervisor,
    backend: &mut Backend,
    switch: &mut SoftwareSwitch,
    hotplug: Hotplug,
    cost: &CostModel,
    meter: &mut Meter,
    dom: DomId,
    devid: u32,
    faults: &mut FaultPlan,
) -> Result<(), DevError> {
    // Step 1: ioctl into the noxs module; the backend allocates the
    // channel + grant and returns the details.
    meter.charge(Category::Devices, cost.noxs_ioctl);
    if faults.should_inject(FaultSite::BackendRefusal) {
        // The ioctl returns the backend's refusal; nothing was allocated
        // and the toolstack unwinds the create.
        return Err(DevError::Refused);
    }
    let (evtchn, grant) = backend.alloc_device(hv, cost, meter, dom, devid)?;
    // Step 2: hypercall writes the details into the device page.
    hv.devpage_write(
        cost,
        meter,
        DomId::DOM0,
        dom,
        DevicePageEntry {
            kind: backend.kind(),
            devid,
            backend: DomId::DOM0,
            evtchn,
            grant,
        },
    )?;
    watchdog_gate(faults, FaultSite::HotplugTimeout, cost, meter)?;
    if backend.kind() == DeviceKind::Net {
        hotplug.plug_vif(cost, meter, switch, dom, devid)?;
    }
    Ok(())
}

/// Steps 3 + 4: the booting guest maps its device page and connects each
/// listed device. Returns the number of devices connected.
pub fn guest_connect_devices(
    hv: &mut Hypervisor,
    backends: &mut [&mut Backend],
    cost: &CostModel,
    meter: &mut Meter,
    dom: DomId,
    faults: &mut FaultPlan,
) -> Result<usize, DevError> {
    // Step 3: ask the hypervisor for the device page and map it.
    let page = hv.devpage_read(cost, meter, dom)?;
    let mut connected = 0;
    for entry in page.entries() {
        // Sysctl devices are connected by the sysctl module.
        if entry.kind == DeviceKind::Sysctl {
            continue;
        }
        let backend = backends
            .iter_mut()
            .find(|b| b.kind() == entry.kind)
            .ok_or(DevError::NotFound)?;
        // The control-page handshake can stall exactly like xenbus; the
        // guest's watchdog bounds the wait.
        watchdog_gate(faults, FaultSite::XenbusStall, cost, meter)?;
        // Step 4: map the grant, bind the channel, exchange parameters.
        backend.frontend_connect(hv, cost, meter, dom, entry.devid)?;
        connected += 1;
    }
    Ok(connected)
}

/// Device tear-down: remove the page entry, close the device, unplug.
#[allow(clippy::too_many_arguments)]
pub fn destroy_device(
    hv: &mut Hypervisor,
    backend: &mut Backend,
    switch: &mut SoftwareSwitch,
    hotplug: Hotplug,
    cost: &CostModel,
    meter: &mut Meter,
    dom: DomId,
    devid: u32,
) -> Result<(), DevError> {
    meter.charge(Category::Devices, cost.noxs_ioctl);
    hv.devpage_remove(cost, meter, DomId::DOM0, dom, backend.kind(), devid)?;
    backend.close_device(hv, cost, meter, dom, devid)?;
    if backend.kind() == DeviceKind::Net {
        let _ = hotplug.unplug_vif(cost, meter, switch, dom, devid);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypervisor::DomainConfig;
    use simcore::SimTime;

    const GIB: u64 = 1 << 30;

    struct World {
        hv: Hypervisor,
        net: Backend,
        sw: SoftwareSwitch,
        cost: CostModel,
    }

    fn setup() -> (World, Meter, DomId) {
        let mut w = World {
            hv: Hypervisor::new(16 * GIB, 0, vec![1, 2, 3]),
            net: Backend::new(DeviceKind::Net),
            sw: SoftwareSwitch::new(),
            cost: CostModel::paper_defaults(),
        };
        let mut m = Meter::new();
        let dom = w
            .hv
            .create_domain(&w.cost, &mut m, &DomainConfig::default())
            .unwrap();
        setup_device_page(&mut w.hv, &w.cost, &mut m, dom).unwrap();
        (w, m, dom)
    }

    #[test]
    fn figure_7b_flow_connects_device() {
        let (mut w, mut m, dom) = setup();
        create_device(
            &mut w.hv, &mut w.net, &mut w.sw, Hotplug::Xendevd,
            &w.cost, &mut m, dom, 0, &mut FaultPlan::none(),
        )
        .unwrap();
        assert_eq!(w.sw.port_count(), 1);
        let n = guest_connect_devices(
            &mut w.hv, &mut [&mut w.net], &w.cost, &mut m, dom, &mut FaultPlan::none(),
        ).unwrap();
        assert_eq!(n, 1);
        assert_eq!(
            w.net.device(dom, 0).unwrap().state,
            devices::XenbusState::Connected
        );
    }

    #[test]
    fn noxs_setup_charges_no_xenstore_time() {
        let (mut w, mut m, dom) = setup();
        create_device(
            &mut w.hv, &mut w.net, &mut w.sw, Hotplug::Xendevd,
            &w.cost, &mut m, dom, 0, &mut FaultPlan::none(),
        )
        .unwrap();
        guest_connect_devices(
            &mut w.hv, &mut [&mut w.net], &w.cost, &mut m, dom, &mut FaultPlan::none(),
        ).unwrap();
        assert_eq!(m.of(Category::Xenstore), SimTime::ZERO);
        assert!(m.of(Category::Devices) > SimTime::ZERO);
        assert!(m.of(Category::Hypervisor) > SimTime::ZERO);
    }

    #[test]
    fn noxs_device_setup_is_much_cheaper_than_bash_hotplug_path() {
        let (mut w, mut m, dom) = setup();
        create_device(
            &mut w.hv, &mut w.net, &mut w.sw, Hotplug::Xendevd,
            &w.cost, &mut m, dom, 0, &mut FaultPlan::none(),
        )
        .unwrap();
        // The whole noxs device setup is well under 10 ms (vs ~40 ms for
        // udev + bash alone on the stock path).
        assert!(m.total() < SimTime::from_millis(10), "{}", m.total());
    }

    #[test]
    fn destroy_cleans_page_and_port() {
        let (mut w, mut m, dom) = setup();
        create_device(
            &mut w.hv, &mut w.net, &mut w.sw, Hotplug::Xendevd,
            &w.cost, &mut m, dom, 0, &mut FaultPlan::none(),
        )
        .unwrap();
        destroy_device(
            &mut w.hv, &mut w.net, &mut w.sw, Hotplug::Xendevd,
            &w.cost, &mut m, dom, 0,
        )
        .unwrap();
        assert_eq!(w.sw.port_count(), 0);
        assert_eq!(w.net.count(), 0);
        let page = w.hv.devpage_read(&w.cost, &mut m, dom).unwrap();
        assert!(page.entries().is_empty());
    }

    #[test]
    fn guest_without_page_cannot_connect() {
        let mut hv = Hypervisor::new(GIB, 0, vec![0]);
        let cost = CostModel::paper_defaults();
        let mut m = Meter::new();
        let dom = hv.create_domain(&cost, &mut m, &DomainConfig::default()).unwrap();
        let mut net = Backend::new(DeviceKind::Net);
        let err = guest_connect_devices(
            &mut hv, &mut [&mut net], &cost, &mut m, dom, &mut FaultPlan::none(),
        ).unwrap_err();
        assert_eq!(err, DevError::Hv(hypervisor::HvError::NoSuchDomain));
    }
}
