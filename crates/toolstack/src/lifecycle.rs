//! Checkpoint (save/restore) and migration on top of the control plane.
//!
//! Each operation has one body for both mechanisms, built from four
//! phase steps that hold the only mechanism branches:
//!
//! | step | XenStore | noxs |
//! |---|---|---|
//! | `suspend` | `control/shutdown` + the guest's wait | sysctl split device |
//! | `arrive` | register, announce + connect each device | device page, sysctl, device ioctls, connect |
//! | `depart` | `teardown`: devices, store dirs, disconnect | `teardown`: devices; uncharged record drop |
//! | `resume` | hypervisor resume, request withdrawn | sysctl resume |
//!
//! Under the XenStore the suspend handshake goes through watches, and
//! the target re-runs the whole device handshake (slow: Figure 12 shows
//! 128 ms / 550 ms for xl). Under noxs both operations take tens of
//! milliseconds, independent of density. Where an operation differs
//! between the mechanisms, the difference is a row of per-toolstack
//! data at its call site (`ToolstackMode::pick`); DESIGN.md §6d
//! lists each one.

use guests::GuestImage;
use hypervisor::{DeviceKind, DomId, DomainConfig, ShutdownReason};
use lvnet::Link;
use simcore::{Category, CostModel, Meter, SimTime};
use std::sync::Arc;

use devices::Backend;

use crate::plane::{ControlPlane, DeviceList, PlaneError, ToolstackMode, Vm};

/// A guest saved to the ramdisk (or serialised for migration).
#[derive(Clone, Debug)]
pub struct SavedVm {
    /// Name to restore under.
    pub name: String,
    /// The image it was running.
    pub image: GuestImage,
    /// Memory dump size in MiB.
    pub mem_mib: u64,
}

/// How a checkpointed guest is rebuilt at its new host, as its
/// operation's call site asks.
struct Arrival {
    /// The devices re-created there.
    devices: DeviceList,
    /// Whether the guest connects them before it runs.
    connects: bool,
    /// The driver-reconnection wait (udev + xenbus settling).
    reconnect: SimTime,
}

impl ControlPlane {
    /// Suspends a guest and writes it to the ramdisk, destroying the
    /// domain. Returns the saved state and the save latency.
    pub fn save_vm(&mut self, dom: DomId) -> Result<(SavedVm, SimTime), PlaneError> {
        let cost = self.cost();
        let mut meter = Meter::new();
        let vm = Arc::clone(self.vms.get(&dom).ok_or(PlaneError::NoSuchVm)?);
        let mem_mib = self.hv.domain(dom)?.populated_mib;
        let devices = DeviceList::of(&vm.image);

        self.charge_internal(&cost, &mut meter);
        self.suspend(&cost, &mut meter, dom)?;
        meter.charge(Category::Other, cost.ramdisk_write_per_mib * mem_mib);
        // noxs drops the saved guest's back-end records without a charge.
        let torn = self.mode.pick(devices, devices, DeviceList::NONE);
        self.depart(&cost, &mut meter, dom, devices, torn)?;
        let saved = SavedVm {
            name: vm.name.clone(),
            image: vm.image.clone(),
            mem_mib,
        };
        Ok((saved, meter.total()))
    }

    /// Restores a saved guest. Returns the new domain and the restore
    /// latency.
    pub fn restore_vm(&mut self, saved: &SavedVm) -> Result<(DomId, SimTime), PlaneError> {
        let cost = self.cost();
        let mut meter = Meter::new();
        self.charge_internal(&cost, &mut meter);
        meter.charge(Category::Other, cost.ramdisk_read_per_mib * saved.mem_mib);
        let arrival = Arrival {
            devices: DeviceList::of(&saved.image),
            connects: true,
            reconnect: cost.xl_restore_reconnect.scale(self.mode.pick(1.0, 0.12, 0.0)),
        };
        let dom = self.arrive(&cost, &mut meter, saved, arrival)?;
        self.adopt_vm(dom, &saved.name, &saved.image);
        Ok((dom, meter.total()))
    }

    /// Migrates a guest to another host over `link`: the config goes to
    /// the remote daemon, the guest suspends, its memory streams over,
    /// and the target rebuilds it. Returns the new domain id at the
    /// destination and the total migration latency. If the target
    /// fails, it unwinds its half-built domain and the guest runs on at
    /// the source. Both hosts must run the same toolstack mode.
    pub fn migrate_vm_to(
        &mut self,
        dst: &mut ControlPlane,
        link: &Link,
        dom: DomId,
    ) -> Result<(DomId, SimTime), PlaneError> {
        let cost = self.cost();
        let dst_cost = dst.cost();
        let mut meter = Meter::new();
        let vm = Arc::clone(self.vms.get(&dom).ok_or(PlaneError::NoSuchVm)?);
        if dst.mode != self.mode {
            return Err(PlaneError::ModeMismatch(self.mode, dst.mode));
        }
        let mem_mib = self.hv.domain(dom)?.populated_mib;
        let devices = DeviceList::of(&vm.image);
        // noxs's migration daemon moves the vifs only: it re-creates
        // them at the target, where the guest does not connect, and the
        // source tears them down.
        let vifs = devices.filter(|dev| dev.0 == DeviceKind::Net);
        let moved = self.mode.pick(devices, devices, vifs);
        // The daemon keeps the toolstack's state, so noxs charges none.
        if self.mode.pick(true, true, false) {
            self.charge_internal(&cost, &mut meter);
        }

        // Connect to the remote daemon, ship the config.
        meter.charge(Category::Other, link.tcp_handshake() + link.transfer_time(2048));
        self.suspend(&cost, &mut meter, dom)?;
        // Stream memory.
        meter.charge(Category::Other, link.transfer_time(mem_mib << 20));

        let shipped = SavedVm {
            name: vm.name.clone(),
            image: vm.image.clone(),
            mem_mib,
        };
        let arrival = Arrival {
            devices: moved,
            connects: self.mode.pick(true, true, false),
            reconnect: dst_cost.xl_restore_reconnect.scale(self.mode.pick(0.5, 0.1, 0.0)),
        };
        let new_dom = match dst.arrive(&dst_cost, &mut meter, &shipped, arrival) {
            Ok(new_dom) => new_dom,
            // The target unwound its half-built domain; the guest never
            // left, so it runs again here.
            Err(e) => {
                self.resume(&cost, &mut meter, dom)?;
                return Err(e);
            }
        };
        self.depart(&cost, &mut meter, dom, devices, moved)?;
        dst.adopt_vm(new_dom, &shipped.name, &shipped.image);
        Ok((new_dom, meter.total()))
    }

    /// Suspends a guest that is about to leave this host — through
    /// `control/shutdown` and the guest's wait (chaos's 0.45x xl's)
    /// under the XenStore, through the sysctl split device under noxs —
    /// then saves its context with libxc.
    fn suspend(&mut self, cost: &CostModel, meter: &mut Meter, dom: DomId) -> Result<(), PlaneError> {
        if self.mode.uses_xenstore() {
            let cs = self.xs.control_shutdown_sym(dom.0);
            self.xs.write(cost, meter, 0, cs, b"suspend")?;
            let wait = match self.mode {
                ToolstackMode::Xl => cost.xl_suspend_wait,
                _ => cost.xl_suspend_wait.scale(0.45),
            };
            meter.charge(Category::Other, wait);
            self.hv.shutdown(cost, meter, dom, ShutdownReason::Suspend)?;
        } else {
            noxs::sysctl::request_suspend(&mut self.hv, cost, meter, dom)?;
        }
        meter.charge(Category::Other, cost.xc_context_save);
        Ok(())
    }

    /// Runs a suspended guest again where it is and withdraws the
    /// suspend request: the source of a migration whose target failed.
    fn resume(&mut self, cost: &CostModel, meter: &mut Meter, dom: DomId) -> Result<(), PlaneError> {
        if self.mode.uses_xenstore() {
            self.hv.resume(cost, meter, dom)?;
            let cs = self.xs.control_shutdown_sym(dom.0);
            self.xs.write(cost, meter, 0, cs, b"")?;
        } else {
            noxs::sysctl::resume(&mut self.hv, cost, meter, dom)?;
        }
        Ok(())
    }

    /// Rebuilds a checkpointed guest on this host: restore, and the
    /// target side of a migration. A fresh domain gets the guest's
    /// memory and context back and registers with the mechanism, which
    /// re-creates `arrival.devices` — through the XenStore, each with its
    /// [`Backend::mac_for`] MAC, or through the device page — and the
    /// guest connects them if `arrival.connects`; then the reconnection
    /// wait and the unpause. A failure after the domain exists unwinds
    /// it.
    fn arrive(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        saved: &SavedVm,
        arrival: Arrival,
    ) -> Result<DomId, PlaneError> {
        let dom = self.hv.create_domain(
            cost,
            meter,
            &DomainConfig {
                max_mem_mib: saved.mem_mib.max(1),
                vcpus: saved.image.vcpus,
            },
        )?;
        let devices = arrival.devices;
        self.build_or_rollback(cost, meter, dom, &devices, |cp, meter| {
            cp.hv.populate_physmap(cost, meter, dom, saved.mem_mib)?;
            meter.charge(Category::Other, cost.xc_context_restore);
            if cp.mode.uses_xenstore() {
                cp.xs_register(cost, meter, dom, &saved.name)?;
                for &dev in devices.iter() {
                    cp.xs_attach(cost, meter, dom, dev, &Backend::mac_for(dom, dev.1))?;
                    if arrival.connects {
                        cp.xs_connect(cost, meter, dom, dev)?;
                    }
                }
            } else {
                cp.noxs_register(cost, meter, dom)?;
                for &dev in devices.iter() {
                    cp.noxs_attach(cost, meter, dom, dev)?;
                }
                if arrival.connects {
                    cp.noxs_connect(cost, meter, dom)?;
                }
            }
            meter.charge(Category::Other, arrival.reconnect);
            cp.hv.unpause(cost, meter, dom)?;
            Ok(dom)
        })
    }

    /// Sends a guest off this host for good (destroy, save, a
    /// migration's source): the mechanism's teardown of `torn`, an
    /// uncharged drop of the back-end records of the rest of its
    /// `devices`, the domain's destruction, and the host's bookkeeping.
    pub(crate) fn depart(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
        devices: DeviceList,
        torn: DeviceList,
    ) -> Result<(), PlaneError> {
        self.teardown(cost, meter, dom, &torn);
        self.drop_backend_records(dom, &devices.filter(|dev| !torn.contains(dev)));
        self.hv.destroy(cost, meter, dom)?;
        self.forget_vm(dom);
        Ok(())
    }

    /// Drops this host's bookkeeping for a guest that left it.
    fn forget_vm(&mut self, dom: DomId) {
        if let Some(vm) = self.vms.remove(&dom) {
            if let Some(n) = self.image_instances.get_mut(&vm.image.name) {
                *n = n.saturating_sub(1);
            }
            if let Some(bg) = vm.bg {
                self.cpu.remove(bg);
            }
            if vm.booted {
                self.note_unbooted(vm.image.watches);
                self.dom0_load_total = (self.dom0_load_total - vm.image.dom0_load).max(0.0);
            }
        }
        self.refresh_interference();
    }

    /// Registers an arrived (restored/migrated-in) guest as booted.
    fn adopt_vm(&mut self, dom: DomId, name: &str, image: &GuestImage) {
        let core = self
            .hv
            .domain(dom)
            .map(|d| d.vcpu_cores[0])
            .unwrap_or(self.dom0_cores);
        let bg = self.cpu.add_background(core, image.idle_demand);
        self.note_booted(image.watches);
        self.dom0_load_total += image.dom0_load;
        self.count_instance(image);
        self.vms.insert(
            dom,
            Arc::new(Vm {
                name: name.to_string(),
                image: image.clone(),
                core,
                bg: Some(bg),
                booted: true,
            }),
        );
        self.refresh_interference();
    }
}
