//! Hotplug: user-space device setup.
//!
//! "With standard Xen this process is done either by xl, calling bash
//! scripts [...] or by udevd, calling the same scripts when the backend
//! triggers the udev event. However launching and executing bash scripts
//! is a slow process taking tens of milliseconds" (paper §5.3). LightVM
//! replaces this with `xendevd`, a binary daemon that "executes a
//! pre-defined setup without forking or bash scripts".

use hypervisor::DomId;
use simcore::{Category, CostModel, FaultPlan, FaultSite, Meter, FAULT_RETRIES};

use crate::switch::SoftwareSwitch;
use crate::DevError;

/// Gates a control-plane phase on the fault plan's watchdog.
///
/// Each injected stall at `site` charges the watchdog timeout plus
/// exponential backoff before the phase is retried; `FAULT_RETRIES`
/// consecutive stalls abandon it with [`DevError::Timeout`]. An inactive
/// plan returns immediately without touching the RNG, which keeps
/// fault-free runs byte-identical.
pub fn watchdog_gate(
    faults: &mut FaultPlan,
    site: FaultSite,
    cost: &CostModel,
    meter: &mut Meter,
) -> Result<(), DevError> {
    if !faults.is_active() {
        return Ok(());
    }
    for attempt in 0..=FAULT_RETRIES {
        if !faults.should_inject(site) {
            return Ok(());
        }
        meter.charge(
            Category::Devices,
            cost.fault_watchdog_timeout + FaultPlan::backoff(cost.fault_backoff_base, attempt),
        );
    }
    Err(DevError::Timeout)
}

/// Which user-space hotplug mechanism handles device setup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Hotplug {
    /// udev event delivery + fork/exec of a bash script per device.
    BashScripts,
    /// The xendevd daemon: pre-defined setup, no fork, no bash.
    Xendevd,
}

impl Hotplug {
    /// Runs vif setup: adds the port to the software switch, charging the
    /// mechanism's cost to [`Category::Devices`].
    pub fn plug_vif(
        self,
        cost: &CostModel,
        meter: &mut Meter,
        switch: &mut SoftwareSwitch,
        dom: DomId,
        devid: u32,
    ) -> Result<(), DevError> {
        meter.charge(Category::Devices, self.dispatch_cost(cost));
        switch.add_port(cost, meter, dom, devid)
    }

    /// Runs vif tear-down.
    pub fn unplug_vif(
        self,
        cost: &CostModel,
        meter: &mut Meter,
        switch: &mut SoftwareSwitch,
        dom: DomId,
        devid: u32,
    ) -> Result<(), DevError> {
        meter.charge(Category::Devices, self.dispatch_cost(cost));
        switch.del_port(cost, meter, dom, devid)
    }

    /// Runs block-device setup (image loop setup etc.); no switch port.
    pub fn plug_vbd(self, cost: &CostModel, meter: &mut Meter) {
        meter.charge(Category::Devices, self.dispatch_cost(cost));
    }

    /// Cost of delivering the event and running the setup logic.
    fn dispatch_cost(self, cost: &CostModel) -> simcore::SimTime {
        match self {
            Hotplug::BashScripts => cost.udev_deliver + cost.hotplug_bash,
            Hotplug::Xendevd => cost.hotplug_xendevd,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;

    #[test]
    fn bash_is_orders_of_magnitude_slower_than_xendevd() {
        let cost = CostModel::paper_defaults();
        let mut sw = SoftwareSwitch::new();
        let mut m_bash = Meter::new();
        Hotplug::BashScripts
            .plug_vif(&cost, &mut m_bash, &mut sw, DomId(1), 0)
            .unwrap();
        let mut m_devd = Meter::new();
        Hotplug::Xendevd
            .plug_vif(&cost, &mut m_devd, &mut sw, DomId(2), 0)
            .unwrap();
        assert!(
            m_bash.total() > m_devd.total() * 20,
            "bash {} vs xendevd {}",
            m_bash.total(),
            m_devd.total()
        );
        // Both actually plugged the port.
        assert_eq!(sw.port_count(), 2);
    }

    #[test]
    fn unplug_removes_port() {
        let cost = CostModel::paper_defaults();
        let mut sw = SoftwareSwitch::new();
        let mut m = Meter::new();
        Hotplug::Xendevd
            .plug_vif(&cost, &mut m, &mut sw, DomId(1), 0)
            .unwrap();
        Hotplug::Xendevd
            .unplug_vif(&cost, &mut m, &mut sw, DomId(1), 0)
            .unwrap();
        assert_eq!(sw.port_count(), 0);
    }

    #[test]
    fn vbd_setup_charges_devices() {
        let cost = CostModel::paper_defaults();
        let mut m = Meter::new();
        Hotplug::BashScripts.plug_vbd(&cost, &mut m);
        assert!(m.of(Category::Devices) > SimTime::ZERO);
    }
}
