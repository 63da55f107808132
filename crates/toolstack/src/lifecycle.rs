//! Checkpoint (save/restore) and migration on top of the control plane.
//!
//! Under the XenStore the suspend handshake goes through
//! `control/shutdown` plus watches, and restore re-runs the whole device
//! handshake (slow: Figure 12 shows 128 ms / 550 ms for xl). Under noxs
//! the sysctl split device and the device page make both operations tens
//! of milliseconds, independent of density.

use guests::GuestImage;
use hypervisor::{DeviceKind, DomId, DomainConfig, ShutdownReason};
use lvnet::Link;
use noxs::checkpoint as noxs_ckpt;
use noxs::migrate::{self as noxs_migrate, MigrationEndpoint};
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

impl ControlPlane {
    /// Suspends a guest and writes it to the ramdisk, destroying the
    /// domain. Returns the saved state and the save latency.
    pub fn save_vm(&mut self, dom: DomId) -> Result<(SavedVm, SimTime), PlaneError> {
        let cost = self.cost();
        let mut meter = Meter::new();
        let vm = self.vms.get(&dom).ok_or(PlaneError::NoSuchVm)?.as_ref().clone();
        let mem_mib = self.hv.domain(dom)?.populated_mib;

        self.charge_internal(&cost, &mut meter);

        if self.mode.uses_xenstore() {
            self.xs_suspend(&cost, &mut meter, dom)?;
            meter.charge(Category::Other, cost.ramdisk_write_per_mib * mem_mib);
            self.xs_teardown(&cost, &mut meter, dom, &DeviceList::of(&vm.image));
            self.hv.destroy(&cost, &mut meter, dom)?;
        } else {
            if !self.sysctl.is_set_up(dom) {
                self.sysctl.setup(&mut self.hv, &cost, &mut meter, dom)?;
            }
            noxs_ckpt::save(&mut self.hv, &mut self.sysctl, &cost, &mut meter, dom)?;
            self.drop_backend_records(dom, &DeviceList::of(&vm.image));
        }

        self.forget_vm(dom, &vm);
        Ok((
            SavedVm {
                name: vm.name,
                image: vm.image,
                mem_mib,
            },
            meter.total(),
        ))
    }

    /// Restores a saved guest. Returns the new domain and the restore
    /// latency.
    pub fn restore_vm(&mut self, saved: &SavedVm) -> Result<(DomId, SimTime), PlaneError> {
        let cost = self.cost();
        let mut meter = Meter::new();
        self.charge_internal(&cost, &mut meter);

        let dom = if self.mode.uses_xenstore() {
            // Read the memory dump back from the ramdisk.
            meter.charge(Category::Other, cost.ramdisk_read_per_mib * saved.mem_mib);
            // Device/driver reconnection wait (udev + xenbus settling).
            let reconnect = match self.mode {
                ToolstackMode::Xl => cost.xl_restore_reconnect,
                _ => cost.xl_restore_reconnect.scale(0.12),
            };
            self.xs_recreate(&cost, &mut meter, saved, reconnect)?
        } else {
            let guest = noxs_ckpt::SavedGuest {
                mem_mib: saved.mem_mib,
                vcpus: saved.image.vcpus,
            };
            let dom =
                noxs_ckpt::restore(&mut self.hv, &mut self.sysctl, &cost, &mut meter, &guest)?;
            let devices = DeviceList::of(&saved.image);
            self.build_or_rollback(&cost, &mut meter, dom, &devices, |cp, meter| {
                for &dev in devices.iter() {
                    cp.noxs_attach(&cost, meter, dom, dev)?;
                }
                cp.noxs_connect(&cost, meter, dom)
            })?;
            dom
        };

        self.adopt_vm(dom, &saved.name, &saved.image);
        Ok((dom, meter.total()))
    }

    /// Re-creates a checkpointed guest through the XenStore: restore,
    /// and the target side of a migration. A fresh domain gets the
    /// guest's memory and context back, registers, and announces and
    /// connects each device with its [`Backend::mac_for`] MAC; then the
    /// `reconnect` settling wait and the unpause. A failure after the
    /// domain exists unwinds it.
    fn xs_recreate(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        saved: &SavedVm,
        reconnect: SimTime,
    ) -> Result<DomId, PlaneError> {
        let dom = self.hv.create_domain(
            cost,
            meter,
            &DomainConfig {
                max_mem_mib: saved.mem_mib.max(1),
                vcpus: saved.image.vcpus,
            },
        )?;
        let devices = DeviceList::of(&saved.image);
        self.build_or_rollback(cost, meter, dom, &devices, |cp, meter| {
            cp.hv.populate_physmap(cost, meter, dom, saved.mem_mib)?;
            meter.charge(Category::Other, cost.xc_context_restore);
            cp.xs_register(cost, meter, dom, &saved.name)?;
            for &dev in devices.iter() {
                cp.xs_attach(cost, meter, dom, dev, &Backend::mac_for(dom, dev.1))?;
                cp.xs_connect(cost, meter, dom, dev)?;
            }
            meter.charge(Category::Other, reconnect);
            cp.hv.unpause(cost, meter, dom)?;
            Ok(dom)
        })
    }

    /// Migrates a guest to another host over `link`. Returns the new
    /// domain id at the destination and the total migration latency.
    pub fn migrate_vm_to(
        &mut self,
        dst: &mut ControlPlane,
        link: &Link,
        dom: DomId,
    ) -> Result<(DomId, SimTime), PlaneError> {
        let vm = self.vms.get(&dom).ok_or(PlaneError::NoSuchVm)?.as_ref().clone();
        let (new_dom, latency) = if self.mode.uses_xenstore() {
            self.migrate_via_xenstore(dst, link, dom, &vm)?
        } else {
            let src_cost = self.cost();
            let dst_cost = dst.cost();
            let mut src_ep = MigrationEndpoint {
                hv: &mut self.hv,
                net: &mut self.net,
                switch: &mut self.switch,
                sysctl: &mut self.sysctl,
                cost: &src_cost,
                faults: &mut self.faults,
            };
            let mut dst_ep = MigrationEndpoint {
                hv: &mut dst.hv,
                net: &mut dst.net,
                switch: &mut dst.switch,
                sysctl: &mut dst.sysctl,
                cost: &dst_cost,
                faults: &mut dst.faults,
            };
            // noxs migration re-creates the vifs only (ROADMAP item 8
            // lists this difference).
            let vifs: Vec<u32> = DeviceList::of(&vm.image)
                .iter()
                .filter(|dev| dev.0 == DeviceKind::Net)
                .map(|dev| dev.1)
                .collect();
            let moved = noxs_migrate::migrate_timed(&mut src_ep, &mut dst_ep, link, dom, &vifs)
                .map_err(|e| PlaneError::Dev(format!("{e:?}")))?;
            // The source's vifs went with the migration; its other
            // back-end records go without a charge, as in `save_vm`.
            self.drop_backend_records(dom, &DeviceList::of(&vm.image));
            moved
        };
        self.forget_vm(dom, &vm);
        dst.adopt_vm(new_dom, &vm.name, &vm.image);
        Ok((new_dom, latency))
    }

    /// XenStore-based migration: suspend via control/shutdown, stream
    /// config + memory over TCP, full device re-handshake at the target.
    /// If the target fails, it unwinds its half-built domain and the
    /// guest runs on at the source.
    fn migrate_via_xenstore(
        &mut self,
        dst: &mut ControlPlane,
        link: &Link,
        dom: DomId,
        vm: &Vm,
    ) -> Result<(DomId, SimTime), PlaneError> {
        let cost = self.cost();
        let mut meter = Meter::new();
        let mem_mib = self.hv.domain(dom)?.populated_mib;
        self.charge_internal(&cost, &mut meter);
        // Connect to the remote daemon, ship the config.
        meter.charge(Category::Other, link.tcp_handshake() + link.transfer_time(2048));
        self.xs_suspend(&cost, &mut meter, dom)?;
        // Stream memory.
        meter.charge(Category::Other, link.transfer_time(mem_mib << 20));

        // Target side: create + register + devices + reconnect.
        let dst_cost = dst.cost();
        let reconnect = match self.mode {
            ToolstackMode::Xl => dst_cost.xl_restore_reconnect.scale(0.5),
            _ => dst_cost.xl_restore_reconnect.scale(0.1),
        };
        let shipped = SavedVm {
            name: vm.name.clone(),
            image: vm.image.clone(),
            mem_mib,
        };
        let new_dom = match dst.xs_recreate(&dst_cost, &mut meter, &shipped, reconnect) {
            Ok(new_dom) => new_dom,
            // The target unwound its half-built domain; the guest never
            // left, so it runs again here and the suspend request is
            // withdrawn.
            Err(e) => {
                self.hv.resume(&cost, &mut meter, dom)?;
                let cs = self.xs.control_shutdown_sym(dom.0);
                self.xs.write(&cost, &mut meter, 0, cs, b"")?;
                return Err(e);
            }
        };

        // Source clean-up.
        self.xs_teardown(&cost, &mut meter, dom, &DeviceList::of(&vm.image));
        self.hv.destroy(&cost, &mut meter, dom)?;
        Ok((new_dom, meter.total()))
    }

    /// The XenStore suspend handshake: the request through
    /// `control/shutdown`, the wait for the guest, the suspend, and the
    /// context save.
    fn xs_suspend(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
    ) -> Result<(), PlaneError> {
        let cs = self.xs.control_shutdown_sym(dom.0);
        self.xs.write(cost, meter, 0, cs, b"suspend")?;
        let wait = match self.mode {
            ToolstackMode::Xl => cost.xl_suspend_wait,
            _ => cost.xl_suspend_wait.scale(0.45),
        };
        meter.charge(Category::Other, wait);
        self.hv.shutdown(cost, meter, dom, ShutdownReason::Suspend)?;
        meter.charge(Category::Other, cost.xc_context_save);
        Ok(())
    }

    /// Drops local bookkeeping for a guest that left this host.
    pub(crate) fn forget_vm(&mut self, dom: DomId, vm: &Vm) {
        if self.vms.contains_key(&dom) {
            if let Some(n) = self.image_instances.get_mut(&vm.image.name) {
                *n = n.saturating_sub(1);
            }
        }
        if let Some(rec) = self.vms.remove(&dom) {
            if let Some(bg) = rec.bg {
                self.cpu.remove(bg);
            }
            if rec.booted {
                self.note_unbooted(rec.image.watches);
            }
        }
        if vm.booted {
            self.dom0_load_total = (self.dom0_load_total - vm.image.dom0_load).max(0.0);
        }
        self.refresh_interference();
    }

    /// Registers an arrived (restored/migrated-in) guest as booted.
    pub(crate) fn adopt_vm(&mut self, dom: DomId, name: &str, image: &GuestImage) {
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
