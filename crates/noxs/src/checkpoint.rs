//! Checkpointing (save/restore) without the XenStore.
//!
//! Save: suspend through the sysctl device, serialise the guest context
//! with libxc, dump memory to the ramdisk, destroy the domain.
//! Restore: create a fresh domain, populate memory from the dump,
//! restore the context and resume. (Figure 12: ~30 ms save / ~20 ms
//! restore for the daytime unikernel, independent of density.)

use hypervisor::{DomId, DomainConfig, Hypervisor};
use simcore::{Category, CostModel, Meter};

use crate::driver::{setup_device_page, NoxsError};
use crate::sysctl::{SysctlBackend, SysctlError};

/// A guest image saved to the ramdisk.
#[derive(Clone, Debug)]
pub struct SavedGuest {
    /// Memory dump size in MiB.
    pub mem_mib: u64,
    /// vCPUs the guest had.
    pub vcpus: u32,
}

/// Checkpoint errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CheckpointError {
    /// sysctl failure.
    Sysctl(SysctlError),
    /// noxs/hypervisor failure.
    Noxs(NoxsError),
}

impl From<SysctlError> for CheckpointError {
    fn from(e: SysctlError) -> Self {
        CheckpointError::Sysctl(e)
    }
}
impl From<NoxsError> for CheckpointError {
    fn from(e: NoxsError) -> Self {
        CheckpointError::Noxs(e)
    }
}
impl From<hypervisor::HvError> for CheckpointError {
    fn from(e: hypervisor::HvError) -> Self {
        CheckpointError::Noxs(NoxsError::Hv(e))
    }
}

/// Saves a running guest to the ramdisk and destroys the domain.
pub fn save(
    hv: &mut Hypervisor,
    sysctl: &mut SysctlBackend,
    cost: &CostModel,
    meter: &mut Meter,
    dom: DomId,
) -> Result<SavedGuest, CheckpointError> {
    let (mem_mib, vcpus) = {
        let d = hv.domain(dom)?;
        (d.populated_mib, d.vcpu_cores.len() as u32)
    };
    // Suspend through the sysctl split device.
    sysctl.request_suspend(hv, cost, meter, dom)?;
    // libxc context serialisation + memory dump to ramdisk.
    meter.charge(Category::Other, cost.xc_context_save);
    meter.charge(Category::Other, cost.ramdisk_write_per_mib * mem_mib);
    hv.destroy(cost, meter, dom)?;
    sysctl.drop_domain(dom);
    Ok(SavedGuest { mem_mib, vcpus })
}

/// Restores a saved guest: a fresh domain, memory read back from the
/// ramdisk, context restore, device page + sysctl re-setup, resume.
/// Device reconnection is the caller's job (the toolstack knows which
/// backends to use). A failure after the domain exists destroys it
/// again, so a failed restore leaves nothing behind.
pub fn restore(
    hv: &mut Hypervisor,
    sysctl: &mut SysctlBackend,
    cost: &CostModel,
    meter: &mut Meter,
    saved: &SavedGuest,
) -> Result<DomId, CheckpointError> {
    let dom = hv.create_domain(
        cost,
        meter,
        &DomainConfig {
            max_mem_mib: saved.mem_mib.max(1),
            vcpus: saved.vcpus.max(1),
        },
    )?;
    let resumed = (|| {
        hv.populate_physmap(cost, meter, dom, saved.mem_mib)?;
        meter.charge(Category::Other, cost.ramdisk_read_per_mib * saved.mem_mib);
        meter.charge(Category::Other, cost.xc_context_restore);
        setup_device_page(hv, cost, meter, dom)?;
        sysctl.setup(hv, cost, meter, dom)?;
        hv.unpause(cost, meter, dom)?;
        Ok(())
    })();
    if let Err(e) = resumed {
        // The domain was created above, so it can be destroyed; the
        // error worth reporting is the one that failed the restore.
        let _ = hv.destroy(cost, meter, dom);
        sysctl.drop_domain(dom);
        return Err(e);
    }
    Ok(dom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypervisor::DomainState;
    use simcore::SimTime;

    const GIB: u64 = 1 << 30;

    fn boot_guest(hv: &mut Hypervisor, sysctl: &mut SysctlBackend, cost: &CostModel) -> DomId {
        let mut m = Meter::new();
        let dom = hv
            .create_domain(
                cost,
                &mut m,
                &DomainConfig {
                    max_mem_mib: 4,
                    vcpus: 1,
                },
            )
            .unwrap();
        hv.populate_physmap(cost, &mut m, dom, 4).unwrap();
        hv.devpage_setup(cost, &mut m, DomId::DOM0, dom).unwrap();
        sysctl.setup(hv, cost, &mut m, dom).unwrap();
        hv.unpause(cost, &mut m, dom).unwrap();
        dom
    }

    #[test]
    fn save_restore_round_trip() {
        let mut hv = Hypervisor::new(4 * GIB, 0, vec![0]);
        let mut sysctl = SysctlBackend::new();
        let cost = CostModel::paper_defaults();
        let dom = boot_guest(&mut hv, &mut sysctl, &cost);
        let used_running = hv.memory.used();

        let mut m_save = Meter::new();
        let saved = save(&mut hv, &mut sysctl, &cost, &mut m_save, dom).unwrap();
        assert_eq!(saved.mem_mib, 4);
        assert!(hv.domain(dom).is_err(), "domain destroyed after save");
        assert!(hv.memory.used() < used_running, "memory released");

        let mut m_restore = Meter::new();
        let new_dom = restore(&mut hv, &mut sysctl, &cost, &mut m_restore, &saved).unwrap();
        assert_ne!(new_dom, dom);
        assert_eq!(hv.domain(new_dom).unwrap().state, DomainState::Running);
        assert_eq!(hv.domain(new_dom).unwrap().populated_mib, 4);
        assert!(sysctl.is_set_up(new_dom));
    }

    #[test]
    fn save_restore_times_match_figure_12() {
        let mut hv = Hypervisor::new(4 * GIB, 0, vec![0]);
        let mut sysctl = SysctlBackend::new();
        let cost = CostModel::paper_defaults();
        let dom = boot_guest(&mut hv, &mut sysctl, &cost);

        let mut m_save = Meter::new();
        let saved = save(&mut hv, &mut sysctl, &cost, &mut m_save, dom).unwrap();
        let save_ms = m_save.total().as_millis_f64();
        assert!((5.0..45.0).contains(&save_ms), "save took {save_ms} ms");

        let mut m_restore = Meter::new();
        restore(&mut hv, &mut sysctl, &cost, &mut m_restore, &saved).unwrap();
        let restore_ms = m_restore.total().as_millis_f64();
        assert!((3.0..30.0).contains(&restore_ms), "restore took {restore_ms} ms");
    }

    #[test]
    fn a_restore_that_does_not_fit_leaves_no_domain() {
        let mut hv = Hypervisor::new(GIB, 0, vec![0]);
        let mut sysctl = SysctlBackend::new();
        let cost = CostModel::paper_defaults();
        let mut m = Meter::new();
        let saved = SavedGuest { mem_mib: 2048, vcpus: 1 };
        assert!(restore(&mut hv, &mut sysctl, &cost, &mut m, &saved).is_err());
        assert_eq!(hv.domain_count(), 0, "the half-restored domain leaked");
        assert_eq!(hv.memory.used(), 0);
    }

    #[test]
    fn save_of_unknown_domain_fails() {
        let mut hv = Hypervisor::new(GIB, 0, vec![0]);
        let mut sysctl = SysctlBackend::new();
        let cost = CostModel::paper_defaults();
        let mut m = Meter::new();
        let err = save(&mut hv, &mut sysctl, &cost, &mut m, DomId(99)).unwrap_err();
        assert!(matches!(err, CheckpointError::Noxs(_)));
    }

    #[test]
    fn bigger_guests_take_longer_to_save() {
        let cost = CostModel::paper_defaults();
        let time_for = |mib: u64| -> SimTime {
            let mut hv = Hypervisor::new(8 * GIB, 0, vec![0]);
            let mut sysctl = SysctlBackend::new();
            let mut m = Meter::new();
            let dom = hv
                .create_domain(&cost, &mut m, &DomainConfig { max_mem_mib: mib, vcpus: 1 })
                .unwrap();
            hv.populate_physmap(&cost, &mut m, dom, mib).unwrap();
            hv.devpage_setup(&cost, &mut m, DomId::DOM0, dom).unwrap();
            sysctl.setup(&mut hv, &cost, &mut m, dom).unwrap();
            hv.unpause(&cost, &mut m, dom).unwrap();
            let mut m_save = Meter::new();
            save(&mut hv, &mut sysctl, &cost, &mut m_save, dom).unwrap();
            m_save.total()
        };
        assert!(time_for(128) > time_for(4));
    }
}
