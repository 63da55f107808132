//! Migration without the XenStore (paper §5.1).
//!
//! "Migration begins by chaos opening a TCP connection to a migration
//! daemon running on the remote host and by sending the guest's
//! configuration so that the daemon pre-creates the domain and creates
//! the devices. Next, to suspend the guest, chaos issues an ioctl to the
//! sysctl back-end [...]. Once the guest is suspended we rely on libxc
//! code to send the guest data to the remote host."

use devices::{Backend, Hotplug, SoftwareSwitch};
use hypervisor::{DomId, DomainConfig, Hypervisor};
use lvnet::Link;
use simcore::{Category, CostModel, FaultPlan, Meter, SimTime};

use crate::driver::{self, NoxsError};
use crate::sysctl::{SysctlBackend, SysctlError};

/// One side of a migration: the control-plane components of a host.
pub struct MigrationEndpoint<'a> {
    /// The host's hypervisor.
    pub hv: &'a mut Hypervisor,
    /// Its network back-end.
    pub net: &'a mut Backend,
    /// Its software switch.
    pub switch: &'a mut SoftwareSwitch,
    /// Its sysctl back-end.
    pub sysctl: &'a mut SysctlBackend,
    /// Its cost calibration.
    pub cost: &'a CostModel,
    /// Its fault plan. The destination's fires while the daemon
    /// pre-creates the guest's devices.
    pub faults: &'a mut FaultPlan,
}

/// Migration errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MigrateError {
    /// noxs/hypervisor failure on either side.
    Noxs(NoxsError),
    /// sysctl failure.
    Sysctl(SysctlError),
}

impl From<NoxsError> for MigrateError {
    fn from(e: NoxsError) -> Self {
        MigrateError::Noxs(e)
    }
}
impl From<SysctlError> for MigrateError {
    fn from(e: SysctlError) -> Self {
        MigrateError::Sysctl(e)
    }
}
impl From<hypervisor::HvError> for MigrateError {
    fn from(e: hypervisor::HvError) -> Self {
        MigrateError::Noxs(NoxsError::Hv(e))
    }
}

/// Size of the serialised guest configuration sent to the daemon.
const CONFIG_BYTES: u64 = 2048;

/// Migrates `dom` from `src` to `dst` over `link`. Returns the new
/// domain id at the destination and charges the total migration latency
/// to `meter` (network time under [`Category::Other`]). If the target
/// cannot be prepared or the guest cannot be suspended, the half-built
/// target domain is discarded and the guest runs on at the source.
pub fn migrate(
    src: &mut MigrationEndpoint<'_>,
    dst: &mut MigrationEndpoint<'_>,
    link: &Link,
    meter: &mut Meter,
    dom: DomId,
    net_devids: &[u32],
) -> Result<DomId, MigrateError> {
    let (mem_mib, vcpus) = {
        let d = src.hv.domain(dom)?;
        (d.populated_mib, d.vcpu_cores.len() as u32)
    };

    // 1. chaos opens a TCP connection to the remote migration daemon and
    //    sends the guest configuration.
    meter.charge(
        Category::Other,
        link.tcp_handshake() + link.transfer_time(CONFIG_BYTES),
    );

    // 2. The daemon pre-creates the domain and its devices at the target.
    let new_dom = dst.hv.create_domain(
        dst.cost,
        meter,
        &DomainConfig {
            max_mem_mib: mem_mib.max(1),
            vcpus: vcpus.max(1),
        },
    )?;
    let prepared = (|| -> Result<(), MigrateError> {
        dst.hv.populate_physmap(dst.cost, meter, new_dom, mem_mib)?;
        driver::setup_device_page(dst.hv, dst.cost, meter, new_dom)?;
        dst.sysctl.setup(dst.hv, dst.cost, meter, new_dom)?;
        for &devid in net_devids {
            driver::create_device(
                dst.hv, dst.net, dst.switch, Hotplug::Xendevd,
                dst.cost, meter, new_dom, devid, dst.faults,
            )?;
        }
        // 3. Suspend the guest through the sysctl back-end.
        src.sysctl.request_suspend(src.hv, src.cost, meter, dom)?;
        Ok(())
    })();
    if let Err(e) = prepared {
        // Discard the half-built target: its records go without a
        // charge, and destroying the domain reaps its memory, channels,
        // grants and device page. It was created above, so the destroy
        // cannot fail; the error worth reporting is the one that
        // stopped the migration.
        for &devid in net_devids {
            dst.net.forget(new_dom, devid);
        }
        dst.switch.drop_domain(new_dom);
        dst.sysctl.drop_domain(new_dom);
        let _ = dst.hv.destroy(dst.cost, meter, new_dom);
        return Err(e);
    }

    // 4. libxc sends the guest data to the remote host.
    meter.charge(Category::Other, src.cost.xc_context_save);
    meter.charge(Category::Other, link.transfer_time(mem_mib << 20));
    meter.charge(Category::Other, dst.cost.xc_context_restore);

    // 5. Resume at the destination; tear down at the source.
    dst.hv.unpause(dst.cost, meter, new_dom)?;
    for &devid in net_devids {
        let _ = driver::destroy_device(
            src.hv, src.net, src.switch, Hotplug::Xendevd,
            src.cost, meter, dom, devid,
        );
    }
    src.hv.destroy(src.cost, meter, dom)?;
    src.sysctl.drop_domain(dom);
    Ok(new_dom)
}

/// Convenience: total migration latency of a fresh meter run.
pub fn migrate_timed(
    src: &mut MigrationEndpoint<'_>,
    dst: &mut MigrationEndpoint<'_>,
    link: &Link,
    dom: DomId,
    net_devids: &[u32],
) -> Result<(DomId, SimTime), MigrateError> {
    let mut meter = Meter::new();
    let new_dom = migrate(src, dst, link, &mut meter, dom, net_devids)?;
    Ok((new_dom, meter.total()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypervisor::{DeviceKind, DomainState};

    const GIB: u64 = 1 << 30;

    struct Host {
        hv: Hypervisor,
        net: Backend,
        switch: SoftwareSwitch,
        sysctl: SysctlBackend,
        cost: CostModel,
        faults: FaultPlan,
    }

    impl Host {
        fn new() -> Host {
            Host {
                hv: Hypervisor::new(8 * GIB, 0, vec![1, 2, 3]),
                net: Backend::new(DeviceKind::Net),
                switch: SoftwareSwitch::new(),
                sysctl: SysctlBackend::new(),
                cost: CostModel::paper_defaults(),
                faults: FaultPlan::none(),
            }
        }

        fn endpoint(&mut self) -> MigrationEndpoint<'_> {
            MigrationEndpoint {
                hv: &mut self.hv,
                net: &mut self.net,
                switch: &mut self.switch,
                sysctl: &mut self.sysctl,
                cost: &self.cost,
                faults: &mut self.faults,
            }
        }

        fn boot_daytime(&mut self) -> DomId {
            let mut m = Meter::new();
            let dom = self
                .hv
                .create_domain(
                    &self.cost,
                    &mut m,
                    &DomainConfig { max_mem_mib: 4, vcpus: 1 },
                )
                .unwrap();
            self.hv.populate_physmap(&self.cost, &mut m, dom, 4).unwrap();
            driver::setup_device_page(&mut self.hv, &self.cost, &mut m, dom).unwrap();
            self.sysctl.setup(&mut self.hv, &self.cost, &mut m, dom).unwrap();
            driver::create_device(
                &mut self.hv, &mut self.net, &mut self.switch, Hotplug::Xendevd,
                &self.cost, &mut m, dom, 0, &mut FaultPlan::none(),
            )
            .unwrap();
            driver::guest_connect_devices(
                &mut self.hv, &mut [&mut self.net], &self.cost, &mut m, dom, &mut FaultPlan::none(),
            )
            .unwrap();
            self.hv.unpause(&self.cost, &mut m, dom).unwrap();
            dom
        }
    }

    #[test]
    fn migration_moves_the_guest() {
        let mut a = Host::new();
        let mut b = Host::new();
        let dom = a.boot_daytime();
        let link = Link::datacenter();
        let (new_dom, t) =
            migrate_timed(&mut a.endpoint(), &mut b.endpoint(), &link, dom, &[0]).unwrap();
        assert!(a.hv.domain(dom).is_err(), "gone from source");
        assert_eq!(b.hv.domain(new_dom).unwrap().state, DomainState::Running);
        assert_eq!(b.switch.port_count(), 1);
        assert_eq!(a.switch.port_count(), 0);
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn datacenter_migration_is_about_60ms() {
        let mut a = Host::new();
        let mut b = Host::new();
        let dom = a.boot_daytime();
        let link = Link::datacenter();
        let (_, t) = migrate_timed(&mut a.endpoint(), &mut b.endpoint(), &link, dom, &[0]).unwrap();
        let ms = t.as_millis_f64();
        assert!((15.0..90.0).contains(&ms), "migration took {ms} ms");
    }

    #[test]
    fn wan_migration_of_clickos_is_about_150ms() {
        // §7.1: "Migrating a ClickOS VM over a 1Gbps, 10ms link takes
        // just 150ms" (8 MB of guest memory).
        let mut a = Host::new();
        let mut b = Host::new();
        let mut m = Meter::new();
        let dom = a
            .hv
            .create_domain(&a.cost, &mut m, &DomainConfig { max_mem_mib: 8, vcpus: 1 })
            .unwrap();
        a.hv.populate_physmap(&a.cost, &mut m, dom, 8).unwrap();
        driver::setup_device_page(&mut a.hv, &a.cost, &mut m, dom).unwrap();
        a.sysctl.setup(&mut a.hv, &a.cost, &mut m, dom).unwrap();
        driver::create_device(
            &mut a.hv, &mut a.net, &mut a.switch, Hotplug::Xendevd,
            &a.cost, &mut m, dom, 0, &mut FaultPlan::none(),
        )
        .unwrap();
        a.hv.unpause(&a.cost, &mut m, dom).unwrap();
        let link = Link::gigabit_wan();
        let (_, t) = migrate_timed(&mut a.endpoint(), &mut b.endpoint(), &link, dom, &[0]).unwrap();
        let ms = t.as_millis_f64();
        assert!((100.0..220.0).contains(&ms), "got {ms} ms");
    }

    #[test]
    fn migrating_missing_domain_fails() {
        let mut a = Host::new();
        let mut b = Host::new();
        let link = Link::datacenter();
        assert!(migrate_timed(&mut a.endpoint(), &mut b.endpoint(), &link, DomId(42), &[]).is_err());
    }
}
