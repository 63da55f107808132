//! The hypervisor façade: domains, memory, hypercall dispatch.

use std::collections::BTreeMap;
use std::sync::Arc;

use simcore::memory::OutOfMemory;
use simcore::{Category, CostModel, IdMap, MemoryPressure, Meter};

use crate::devpage::{DevicePage, DevicePageEntry, DevicePageError, DeviceKind};
use crate::domain::{DomId, Domain, DomainConfig, DomainState, ShutdownReason};
use crate::evtchn::{EvtchnError, EvtchnPort, EvtchnTable};
use crate::gnttab::{GrantError, GrantRef, GrantTable};

const MIB: u64 = 1 << 20;

/// Hypercall errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HvError {
    /// Unknown domain id.
    NoSuchDomain,
    /// Operation invalid in the domain's current state.
    BadState,
    /// Guest memory could not be allocated.
    OutOfMemory(OutOfMemory),
    /// Caller lacks the privilege (most noxs calls are Dom0-only).
    NotPermitted,
    /// Event-channel failure.
    Evtchn(EvtchnError),
    /// Grant-table failure.
    Grant(GrantError),
    /// Device-page failure.
    DevPage(DevicePageError),
}

impl std::fmt::Display for HvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HvError::NoSuchDomain => write!(f, "no such domain"),
            HvError::BadState => write!(f, "operation invalid in current domain state"),
            HvError::OutOfMemory(e) => write!(f, "{e}"),
            HvError::NotPermitted => write!(f, "not permitted"),
            HvError::Evtchn(e) => write!(f, "event channel error: {e:?}"),
            HvError::Grant(e) => write!(f, "grant error: {e:?}"),
            HvError::DevPage(e) => write!(f, "device page error: {e:?}"),
        }
    }
}

impl std::error::Error for HvError {}

impl From<EvtchnError> for HvError {
    fn from(e: EvtchnError) -> Self {
        HvError::Evtchn(e)
    }
}
impl From<GrantError> for HvError {
    fn from(e: GrantError) -> Self {
        HvError::Grant(e)
    }
}
impl From<DevicePageError> for HvError {
    fn from(e: DevicePageError) -> Self {
        HvError::DevPage(e)
    }
}
impl From<OutOfMemory> for HvError {
    fn from(e: OutOfMemory) -> Self {
        HvError::OutOfMemory(e)
    }
}

/// The simulated hypervisor.
#[derive(Clone, Debug)]
pub struct Hypervisor {
    domains: BTreeMap<DomId, Domain>,
    next_domid: u32,
    /// When set, the domid counter wraps at this bound and scans past
    /// live domids instead of growing forever (real Xen wraps at
    /// 0x7FF0). `None` (the default) keeps the stock monotonic counter:
    /// domid decimal strings feed path-length protocol charges, so
    /// recycling is opt-in for churn worlds rather than a global change
    /// that would move every committed artefact byte.
    domid_limit: Option<u32>,
    /// Host memory book-keeping (guest allocations only).
    pub memory: MemoryPressure,
    /// Event channels.
    pub evtchn: EvtchnTable,
    /// Grant tables.
    pub gnttab: GrantTable,
    /// Per-entry `Arc`, so a fork shares every page by refcount and
    /// `Arc::make_mut` copies only the page a write touches.
    device_pages: IdMap<DomId, Arc<DevicePage>>,
    /// Cores guests may run on (Dom0's cores excluded).
    guest_cores: Vec<usize>,
    next_core_rr: usize,
}

impl Hypervisor {
    /// Creates a hypervisor managing `mem_bytes` of RAM with
    /// `dom0_reserved` already taken, and `guest_cores` available for
    /// round-robin vCPU placement.
    ///
    /// # Panics
    ///
    /// Panics if `guest_cores` is empty.
    pub fn new(mem_bytes: u64, dom0_reserved: u64, guest_cores: Vec<usize>) -> Hypervisor {
        assert!(!guest_cores.is_empty(), "need at least one guest core");
        Hypervisor {
            domains: BTreeMap::new(),
            next_domid: 1,
            domid_limit: None,
            memory: MemoryPressure::new(mem_bytes, dom0_reserved),
            evtchn: EvtchnTable::new(),
            gnttab: GrantTable::new(),
            device_pages: IdMap::default(),
            guest_cores,
            next_core_rr: 0,
        }
    }

    fn charge(meter: &mut Meter, dt: simcore::SimTime) {
        meter.charge(Category::Hypervisor, dt);
    }

    /// Makes domids recycle: allocation wraps below `limit` and skips
    /// live domids with a deterministic first-fit scan. Churn worlds
    /// use this so long-horizon create/destroy sequences draw from a
    /// bounded domid (and thus XenStore path) set; without it the
    /// interner — append-only by design — grows O(total creates).
    ///
    /// # Panics
    ///
    /// Panics if `limit < 2` (domid 0 is Dom0; at least one guest domid
    /// must exist below the wrap point).
    pub fn set_domid_limit(&mut self, limit: u32) {
        assert!(limit >= 2, "domid limit must leave room for a guest");
        self.domid_limit = Some(limit);
    }

    /// Next free domid under the configured policy.
    fn alloc_domid(&mut self) -> DomId {
        let Some(limit) = self.domid_limit else {
            let id = DomId(self.next_domid);
            self.next_domid += 1;
            return id;
        };
        assert!(
            (self.domains.len() as u32) < limit - 1,
            "domid space exhausted: {} live under limit {limit}",
            self.domains.len()
        );
        let mut cand = self.next_domid;
        loop {
            if cand >= limit || cand == 0 {
                cand = 1;
            }
            if !self.domains.contains_key(&DomId(cand)) {
                break;
            }
            cand += 1;
        }
        self.next_domid = cand + 1;
        DomId(cand)
    }

    /// `XEN_DOMCTL_createdomain` + reservation: allocates the domain
    /// structures and reserves (but does not populate) its memory range.
    pub fn create_domain(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        cfg: &DomainConfig,
    ) -> Result<DomId, HvError> {
        Self::charge(
            meter,
            cost.hypercall_base + cost.domctl_create + cost.mem_reserve_base,
        );
        let id = self.alloc_domid();
        // Collected straight into the `Arc` (the range's exact length
        // lets it allocate once).
        let vcpu_cores: Arc<[usize]> = (0..cfg.vcpus.max(1))
            .map(|_| {
                let core = self.guest_cores[self.next_core_rr % self.guest_cores.len()];
                self.next_core_rr += 1;
                Self::charge(meter, cost.hypercall_base + cost.vcpu_create);
                core
            })
            .collect();
        self.domains.insert(
            id,
            Domain {
                id,
                state: DomainState::Created,
                max_mem_mib: cfg.max_mem_mib,
                populated_mib: 0,
                vcpu_cores,
                shutdown_reason: None,
                has_device_page: false,
            },
        );
        Ok(id)
    }

    /// `XENMEM_populate_physmap`: actually allocates and prepares guest
    /// memory. Under host memory pressure the per-MiB preparation cost is
    /// multiplied by the reclaim factor — the mechanism behind the
    /// slowdown near the density wall (Figures 4 and 10).
    pub fn populate_physmap(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
        mib: u64,
    ) -> Result<(), HvError> {
        let pressure = self.memory.factor();
        let d = self.domains.get_mut(&dom).ok_or(HvError::NoSuchDomain)?;
        // A request whose size does not fit in a u64 is larger than any
        // host: refuse it before anything is charged or changed.
        let (Some(total), Some(bytes)) = (d.populated_mib.checked_add(mib), mib.checked_mul(MIB))
        else {
            let free = self.memory.free();
            return Err(HvError::OutOfMemory(OutOfMemory { requested: u64::MAX, free }));
        };
        if total > d.max_mem_mib {
            return Err(HvError::BadState);
        }
        self.memory.allocate(bytes)?;
        d.populated_mib = total;
        Self::charge(
            meter,
            cost.hypercall_base + (cost.mem_prep_per_mib * mib).scale(pressure),
        );
        Ok(())
    }

    /// Unpauses a domain (Created/Paused -> Running).
    pub fn unpause(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
    ) -> Result<(), HvError> {
        Self::charge(meter, cost.hypercall_base);
        let d = self.domains.get_mut(&dom).ok_or(HvError::NoSuchDomain)?;
        match d.state {
            DomainState::Created | DomainState::Paused => {
                d.state = DomainState::Running;
                Ok(())
            }
            _ => Err(HvError::BadState),
        }
    }

    /// Pauses a running domain.
    pub fn pause(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
    ) -> Result<(), HvError> {
        Self::charge(meter, cost.hypercall_base);
        let d = self.domains.get_mut(&dom).ok_or(HvError::NoSuchDomain)?;
        match d.state {
            DomainState::Running => {
                d.state = DomainState::Paused;
                Ok(())
            }
            _ => Err(HvError::BadState),
        }
    }

    /// Records a guest-initiated shutdown.
    pub fn shutdown(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
        reason: ShutdownReason,
    ) -> Result<(), HvError> {
        Self::charge(meter, cost.hypercall_base);
        let d = self.domains.get_mut(&dom).ok_or(HvError::NoSuchDomain)?;
        if !matches!(d.state, DomainState::Running | DomainState::Paused) {
            return Err(HvError::BadState);
        }
        d.shutdown_reason = Some(reason);
        d.state = if reason == ShutdownReason::Suspend {
            DomainState::Suspended
        } else {
            DomainState::Shutdown
        };
        Ok(())
    }

    /// Resumes a suspended domain in place (checkpoint continue).
    pub fn resume(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
    ) -> Result<(), HvError> {
        Self::charge(meter, cost.hypercall_base);
        let d = self.domains.get_mut(&dom).ok_or(HvError::NoSuchDomain)?;
        if d.state != DomainState::Suspended {
            return Err(HvError::BadState);
        }
        d.state = DomainState::Running;
        d.shutdown_reason = None;
        Ok(())
    }

    /// `XEN_DOMCTL_destroydomain`: tears down a domain, releasing memory,
    /// event channels, grants and the device page.
    pub fn destroy(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
    ) -> Result<(), HvError> {
        let d = self.domains.remove(&dom).ok_or(HvError::NoSuchDomain)?;
        self.memory.release(d.populated_mib * MIB);
        self.evtchn.close_all(dom);
        self.gnttab.drop_domain(dom);
        self.device_pages.remove(&dom);
        Self::charge(
            meter,
            cost.hypercall_base
                + cost.domctl_destroy
                + cost.mem_release_per_mib * d.populated_mib,
        );
        Ok(())
    }

    // --- inspection ---------------------------------------------------------

    /// Immutable domain view.
    pub fn domain(&self, dom: DomId) -> Result<&Domain, HvError> {
        self.domains.get(&dom).ok_or(HvError::NoSuchDomain)
    }

    /// All domains in id order.
    pub fn domains(&self) -> impl Iterator<Item = &Domain> {
        self.domains.values()
    }

    /// Number of domains.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// The cores guests run on.
    pub fn guest_cores(&self) -> &[usize] {
        &self.guest_cores
    }

    // --- event channels / grants (cost-charged wrappers) ----------------------

    /// Allocates an unbound event channel.
    pub fn evtchn_alloc_unbound(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        owner: DomId,
        remote: DomId,
    ) -> EvtchnPort {
        Self::charge(meter, cost.hypercall_base + cost.evtchn_op);
        self.evtchn.alloc_unbound(owner, remote)
    }

    /// Binds an interdomain event channel.
    pub fn evtchn_bind(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        binder: DomId,
        owner: DomId,
        port: EvtchnPort,
    ) -> Result<EvtchnPort, HvError> {
        Self::charge(meter, cost.hypercall_base + cost.evtchn_op);
        Ok(self.evtchn.bind_interdomain(binder, owner, port)?)
    }

    /// Sends a notification.
    pub fn evtchn_send(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
        port: EvtchnPort,
    ) -> Result<(), HvError> {
        Self::charge(meter, cost.hypercall_base + cost.evtchn_op);
        Ok(self.evtchn.send(dom, port)?)
    }

    /// Grants access to a frame.
    pub fn grant_access(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        granter: DomId,
        grantee: DomId,
        frame: u64,
        readonly: bool,
    ) -> GrantRef {
        Self::charge(meter, cost.hypercall_base + cost.grant_op);
        self.gnttab.grant_access(granter, grantee, frame, readonly)
    }

    /// Maps a granted frame.
    pub fn grant_map(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        mapper: DomId,
        granter: DomId,
        gref: GrantRef,
    ) -> Result<u64, HvError> {
        Self::charge(meter, cost.hypercall_base + cost.grant_op);
        Ok(self.gnttab.map(mapper, granter, gref)?)
    }

    // --- noxs device pages ------------------------------------------------------

    /// Sets up the read-only device memory page for a guest (Dom0 only).
    pub fn devpage_setup(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        caller: DomId,
        dom: DomId,
    ) -> Result<(), HvError> {
        if !caller.is_dom0() {
            return Err(HvError::NotPermitted);
        }
        Self::charge(meter, cost.hypercall_base + cost.noxs_page_setup);
        let d = self.domains.get_mut(&dom).ok_or(HvError::NoSuchDomain)?;
        d.has_device_page = true;
        self.device_pages.entry(dom).or_default();
        Ok(())
    }

    /// Writes one device entry into a guest's device page (Dom0 only —
    /// the page is shared read-only with the guest, paper §5.1).
    pub fn devpage_write(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        caller: DomId,
        dom: DomId,
        entry: DevicePageEntry,
    ) -> Result<(), HvError> {
        if !caller.is_dom0() {
            return Err(HvError::NotPermitted);
        }
        Self::charge(meter, cost.hypercall_base + cost.noxs_page_op);
        let page = self
            .device_pages
            .get_mut(&dom)
            .ok_or(HvError::NoSuchDomain)?;
        Ok(Arc::make_mut(page).push(entry)?)
    }

    /// Removes a device entry (Dom0 only).
    pub fn devpage_remove(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        caller: DomId,
        dom: DomId,
        kind: DeviceKind,
        devid: u32,
    ) -> Result<(), HvError> {
        if !caller.is_dom0() {
            return Err(HvError::NotPermitted);
        }
        Self::charge(meter, cost.hypercall_base + cost.noxs_page_op);
        let page = self
            .device_pages
            .get_mut(&dom)
            .ok_or(HvError::NoSuchDomain)?;
        Ok(Arc::make_mut(page).remove(kind, devid)?)
    }

    /// The guest maps and reads its own device page (one hypercall to get
    /// the address + a map; any domain may read only its own page).
    pub fn devpage_read(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        caller: DomId,
    ) -> Result<Arc<DevicePage>, HvError> {
        Self::charge(meter, cost.hypercall_base + cost.noxs_page_op);
        self.device_pages
            .get(&caller)
            .cloned()
            .ok_or(HvError::NoSuchDomain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    fn setup() -> (Hypervisor, CostModel, Meter) {
        (
            Hypervisor::new(128 * GIB, 4 * GIB, vec![1, 2, 3]),
            CostModel::paper_defaults(),
            Meter::new(),
        )
    }

    #[test]
    fn create_populate_unpause_destroy() {
        let (mut hv, cost, mut m) = setup();
        let cfg = DomainConfig {
            max_mem_mib: 64,
            vcpus: 1,
        };
        let id = hv.create_domain(&cost, &mut m, &cfg).unwrap();
        hv.populate_physmap(&cost, &mut m, id, 64).unwrap();
        assert_eq!(hv.domain(id).unwrap().populated_mib, 64);
        let used_before = hv.memory.used();
        hv.unpause(&cost, &mut m, id).unwrap();
        assert!(hv.domain(id).unwrap().is_runnable());
        hv.destroy(&cost, &mut m, id).unwrap();
        assert_eq!(hv.memory.used(), used_before - 64 * MIB);
        assert!(hv.domain(id).is_err());
        assert!(m.of(Category::Hypervisor) > simcore::SimTime::ZERO);
    }

    #[test]
    fn populate_respects_max_mem() {
        let (mut hv, cost, mut m) = setup();
        let id = hv
            .create_domain(&cost, &mut m, &DomainConfig { max_mem_mib: 8, vcpus: 1 })
            .unwrap();
        assert_eq!(
            hv.populate_physmap(&cost, &mut m, id, 16).unwrap_err(),
            HvError::BadState
        );
    }

    #[test]
    fn populate_fails_when_host_memory_exhausted() {
        let (cost, mut m) = (CostModel::paper_defaults(), Meter::new());
        let mut hv = Hypervisor::new(64 * MIB, 0, vec![0]);
        let id = hv
            .create_domain(&cost, &mut m, &DomainConfig { max_mem_mib: 128, vcpus: 1 })
            .unwrap();
        assert!(matches!(
            hv.populate_physmap(&cost, &mut m, id, 128).unwrap_err(),
            HvError::OutOfMemory(_)
        ));
    }

    #[test]
    fn oversized_populate_fails_before_any_change() {
        let (mut hv, cost, mut m) = setup();
        let id = hv
            .create_domain(&cost, &mut m, &DomainConfig { max_mem_mib: u64::MAX, vcpus: 1 })
            .unwrap();
        hv.populate_physmap(&cost, &mut m, id, 1).unwrap();
        let (used, charged) = (hv.memory.used(), m.total());
        // 2^44 MiB is 2^64 bytes: the byte count wraps to 0 unchecked;
        // u64::MAX MiB also overflows the populated total.
        for mib in [1 << 44, (1 << 44) + 1, u64::MAX] {
            assert!(matches!(
                hv.populate_physmap(&cost, &mut m, id, mib).unwrap_err(),
                HvError::OutOfMemory(_)
            ));
            assert_eq!(hv.memory.used(), used, "{mib} MiB");
            assert_eq!(m.total(), charged, "{mib} MiB");
            assert_eq!(hv.domain(id).unwrap().populated_mib, 1);
        }
    }

    #[test]
    fn memory_pressure_inflates_populate_cost() {
        let (cost, _) = (CostModel::paper_defaults(), ());
        let mut hv = Hypervisor::new(1024 * MIB, 0, vec![0]);
        let cfg = DomainConfig {
            max_mem_mib: 512,
            vcpus: 1,
        };
        let a = hv.create_domain(&cost, &mut Meter::new(), &cfg).unwrap();
        let mut m_cheap = Meter::new();
        hv.populate_physmap(&cost, &mut m_cheap, a, 256).unwrap();
        // Now occupy most of the host: 896 MiB used, 12.5% free, so the
        // reclaim factor is (0.25/0.125)^2 = 4.
        let b = hv.create_domain(&cost, &mut Meter::new(), &cfg).unwrap();
        hv.populate_physmap(&cost, &mut Meter::new(), b, 512).unwrap();
        let d = hv.create_domain(&cost, &mut Meter::new(), &cfg).unwrap();
        hv.populate_physmap(&cost, &mut Meter::new(), d, 128).unwrap();
        let c = hv.create_domain(&cost, &mut Meter::new(), &cfg).unwrap();
        let mut m_pressured = Meter::new();
        hv.populate_physmap(&cost, &mut m_pressured, c, 120).unwrap();
        // A smaller allocation, yet more expensive under pressure.
        assert!(m_pressured.total() > m_cheap.total());
    }

    #[test]
    fn vcpus_round_robin_over_guest_cores() {
        let (mut hv, cost, mut m) = setup();
        let mut cores = Vec::new();
        for _ in 0..6 {
            let id = hv
                .create_domain(&cost, &mut m, &DomainConfig::default())
                .unwrap();
            cores.push(hv.domain(id).unwrap().vcpu_cores[0]);
        }
        assert_eq!(cores, vec![1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn suspend_resume_cycle() {
        let (mut hv, cost, mut m) = setup();
        let id = hv
            .create_domain(&cost, &mut m, &DomainConfig::default())
            .unwrap();
        hv.unpause(&cost, &mut m, id).unwrap();
        hv.shutdown(&cost, &mut m, id, ShutdownReason::Suspend).unwrap();
        assert_eq!(hv.domain(id).unwrap().state, DomainState::Suspended);
        assert_eq!(
            hv.domain(id).unwrap().shutdown_reason,
            Some(ShutdownReason::Suspend)
        );
        hv.resume(&cost, &mut m, id).unwrap();
        assert!(hv.domain(id).unwrap().is_runnable());
    }

    #[test]
    fn devpage_is_dom0_only() {
        let (mut hv, cost, mut m) = setup();
        let id = hv
            .create_domain(&cost, &mut m, &DomainConfig::default())
            .unwrap();
        assert_eq!(
            hv.devpage_setup(&cost, &mut m, DomId(5), id).unwrap_err(),
            HvError::NotPermitted
        );
        hv.devpage_setup(&cost, &mut m, DomId::DOM0, id).unwrap();
        let entry = DevicePageEntry {
            kind: DeviceKind::Net,
            devid: 0,
            backend: DomId::DOM0,
            evtchn: EvtchnPort(1),
            grant: GrantRef(1),
        };
        assert_eq!(
            hv.devpage_write(&cost, &mut m, id, id, entry).unwrap_err(),
            HvError::NotPermitted
        );
        hv.devpage_write(&cost, &mut m, DomId::DOM0, id, entry).unwrap();
        let page = hv.devpage_read(&cost, &mut m, id).unwrap();
        assert_eq!(page.len(), 1);
        assert_eq!(page.entries()[0].kind, DeviceKind::Net);
    }

    #[test]
    fn destroy_reaps_channels_grants_and_page() {
        let (mut hv, cost, mut m) = setup();
        let id = hv
            .create_domain(&cost, &mut m, &DomainConfig::default())
            .unwrap();
        let port = hv.evtchn_alloc_unbound(&cost, &mut m, DomId::DOM0, id);
        hv.evtchn_bind(&cost, &mut m, id, DomId::DOM0, port).unwrap();
        hv.grant_access(&cost, &mut m, id, DomId::DOM0, 1, false);
        hv.devpage_setup(&cost, &mut m, DomId::DOM0, id).unwrap();
        hv.destroy(&cost, &mut m, id).unwrap();
        assert_eq!(hv.evtchn.open_channels(), 0);
        assert!(hv.gnttab.is_empty());
        assert!(hv.devpage_read(&cost, &mut m, id).is_err());
    }

    #[test]
    fn domids_are_monotonic() {
        let (mut hv, cost, mut m) = setup();
        let a = hv.create_domain(&cost, &mut m, &DomainConfig::default()).unwrap();
        hv.destroy(&cost, &mut m, a).unwrap();
        let b = hv.create_domain(&cost, &mut m, &DomainConfig::default()).unwrap();
        assert!(b.0 > a.0, "domain ids are never reused by default");
    }

    #[test]
    fn domid_limit_wraps_and_skips_live_domains() {
        let (mut hv, cost, mut m) = setup();
        hv.set_domid_limit(4); // usable guest domids: 1, 2, 3
        let a = hv.create_domain(&cost, &mut m, &DomainConfig::default()).unwrap();
        let b = hv.create_domain(&cost, &mut m, &DomainConfig::default()).unwrap();
        let c = hv.create_domain(&cost, &mut m, &DomainConfig::default()).unwrap();
        assert_eq!((a.0, b.0, c.0), (1, 2, 3));
        // Free the middle domid: the counter wraps past the limit and
        // first-fit lands on it, skipping the live neighbours.
        hv.destroy(&cost, &mut m, b).unwrap();
        let d = hv.create_domain(&cost, &mut m, &DomainConfig::default()).unwrap();
        assert_eq!(d.0, 2, "freed domid is recycled under a limit");
        // The same allocation sequence is a pure function of history.
        let (mut hv2, cost2, mut m2) = setup();
        hv2.set_domid_limit(4);
        let mut got = Vec::new();
        for _ in 0..3 {
            got.push(hv2.create_domain(&cost2, &mut m2, &DomainConfig::default()).unwrap().0);
        }
        hv2.destroy(&cost2, &mut m2, DomId(2)).unwrap();
        got.push(hv2.create_domain(&cost2, &mut m2, &DomainConfig::default()).unwrap().0);
        assert_eq!(got, vec![1, 2, 3, 2]);
    }
}
