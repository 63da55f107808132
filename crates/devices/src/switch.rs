//! The Dom0 software switch (Open vSwitch stand-in).
//!
//! Muxes/demuxes packets between physical NICs and guest vifs (paper
//! §4.1). For the control-plane experiments only port management matters;
//! data-path behaviour (throughput sharing, overload) lives in `lvnet`.

use std::collections::BTreeSet;

use hypervisor::DomId;
use simcore::{Category, CostModel, Meter};

use crate::DevError;

/// A software switch: vif ports of guest domains.
///
/// Ports are keyed by `(domain, devid)`, the pair a `vif<dom>.<devid>`
/// name encodes. Value keys
/// keep `add_port` allocation-free and let a forked switch copy its
/// table without one string per port; ordering by domain makes
/// [`SoftwareSwitch::drop_domain`] a range removal.
#[derive(Clone, Default, Debug)]
pub struct SoftwareSwitch {
    ports: BTreeSet<(DomId, u32)>,
}

impl SoftwareSwitch {
    /// Creates an empty switch.
    pub fn new() -> SoftwareSwitch {
        SoftwareSwitch::default()
    }

    /// Attaches vif `devid` of `dom`; [`DevError::Exists`] if attached.
    pub fn add_port(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
        devid: u32,
    ) -> Result<(), DevError> {
        meter.charge(Category::Devices, cost.switch_add_port);
        if self.ports.insert((dom, devid)) {
            Ok(())
        } else {
            Err(DevError::Exists)
        }
    }

    /// Detaches vif `devid` of `dom`; [`DevError::NotFound`] if absent.
    pub fn del_port(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
        devid: u32,
    ) -> Result<(), DevError> {
        meter.charge(Category::Devices, cost.switch_del_port);
        if self.ports.remove(&(dom, devid)) {
            Ok(())
        } else {
            Err(DevError::NotFound)
        }
    }

    /// Detaches every port of a domain (domain death).
    pub fn drop_domain(&mut self, dom: DomId) -> usize {
        let mut dropped = 0;
        while let Some(&port) = self.ports.range((dom, 0)..=(dom, u32::MAX)).next() {
            self.ports.remove(&port);
            dropped += 1;
        }
        dropped
    }

    /// Number of attached ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_del_ports() {
        let cost = CostModel::paper_defaults();
        let mut m = Meter::new();
        let mut sw = SoftwareSwitch::new();
        sw.add_port(&cost, &mut m, DomId(1), 0).unwrap();
        assert_eq!(sw.port_count(), 1);
        assert_eq!(
            sw.del_port(&cost, &mut m, DomId(1), 1).unwrap_err(),
            DevError::NotFound
        );
        assert_eq!(
            sw.add_port(&cost, &mut m, DomId(1), 0).unwrap_err(),
            DevError::Exists
        );
        sw.del_port(&cost, &mut m, DomId(1), 0).unwrap();
        assert_eq!(
            sw.del_port(&cost, &mut m, DomId(1), 0).unwrap_err(),
            DevError::NotFound
        );
        assert!(m.of(Category::Devices) > simcore::SimTime::ZERO);
    }

    #[test]
    fn drop_domain_clears_its_ports() {
        let cost = CostModel::paper_defaults();
        let mut m = Meter::new();
        let mut sw = SoftwareSwitch::new();
        sw.add_port(&cost, &mut m, DomId(1), 0).unwrap();
        sw.add_port(&cost, &mut m, DomId(1), u32::MAX).unwrap();
        sw.add_port(&cost, &mut m, DomId(2), 0).unwrap();
        sw.add_port(&cost, &mut m, DomId(0), 7).unwrap();
        assert_eq!(sw.drop_domain(DomId(1)), 2);
        assert_eq!(sw.port_count(), 2);
        assert_eq!(sw.drop_domain(DomId(1)), 0);
        // The other domains' ports survive.
        sw.del_port(&cost, &mut m, DomId(2), 0).unwrap();
        sw.del_port(&cost, &mut m, DomId(0), 7).unwrap();
    }
}
