//! The hypervisor façade: domains, memory, hypercall dispatch.

use std::sync::Arc;

use simcore::memory::OutOfMemory;
use simcore::{Category, CostModel, IdMap, MemoryPressure, Meter};

use crate::devpage::{DevicePage, DevicePageEntry, DeviceKind};
use crate::domain::{DomId, Domain, DomainConfig, DomainState, Held, ShutdownReason};
use crate::evtchn::EvtchnPort;
use crate::gnttab::GrantRef;

const MIB: u64 = 1 << 20;

/// Hypercall errors: every failure of the hypervisor layer, the event
/// channels, grant tables and noxs device pages included.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HvError {
    /// Unknown domain id.
    NoSuchDomain,
    /// Operation invalid in the domain's current state.
    BadState,
    /// Guest memory could not be allocated.
    OutOfMemory(OutOfMemory),
    /// The caller may not do this: a noxs call from a domain other than
    /// Dom0, a bind by a domain the port was not offered to (or of a
    /// port already bound), or a map by a domain the grant was not
    /// issued to.
    NotPermitted,
    /// The event-channel port does not exist or is closed.
    BadPort,
    /// The grant reference does not exist.
    BadRef,
    /// The granter tried to end access to a grant still mapped.
    StillInUse,
    /// The grantee already maps the grant.
    AlreadyMapped,
    /// The device page is full.
    PageFull,
    /// The device page already lists this (kind, devid).
    DuplicateEntry,
    /// The device page lists no such (kind, devid).
    NoSuchEntry,
    /// Every domid below the configured limit is live.
    DomidsExhausted,
}

impl std::fmt::Display for HvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HvError::NoSuchDomain => write!(f, "no such domain"),
            HvError::BadState => write!(f, "operation invalid in current domain state"),
            HvError::OutOfMemory(e) => write!(f, "{e}"),
            HvError::NotPermitted => write!(f, "not permitted"),
            HvError::BadPort => write!(f, "no such event-channel port"),
            HvError::BadRef => write!(f, "no such grant reference"),
            HvError::StillInUse => write!(f, "grant still mapped"),
            HvError::AlreadyMapped => write!(f, "grant already mapped"),
            HvError::PageFull => write!(f, "device page full"),
            HvError::DuplicateEntry => write!(f, "device already listed in the device page"),
            HvError::NoSuchEntry => write!(f, "no such device-page entry"),
            HvError::DomidsExhausted => write!(f, "no free domid below the limit"),
        }
    }
}

impl std::error::Error for HvError {}

impl From<OutOfMemory> for HvError {
    fn from(e: OutOfMemory) -> Self {
        HvError::OutOfMemory(e)
    }
}

/// The simulated hypervisor.
#[derive(Clone, Debug)]
pub struct Hypervisor {
    /// Guest domains, each owning its ports, grants and device page.
    /// Per-entry `Arc`, so a fork shares every record by refcount and
    /// `Arc::make_mut` copies only the domain a write touches.
    domains: IdMap<DomId, Arc<Domain>>,
    /// Dom0's record, beside the guests: Dom0 owns ports and grants
    /// like any domain, but is never created, destroyed or counted.
    pub(crate) dom0: Domain,
    /// Open channel ends and live grants on the whole host, kept as
    /// running totals so counting them visits no domain.
    pub(crate) open_channels: usize,
    pub(crate) live_grants: usize,
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
            domains: IdMap::default(),
            dom0: Domain::default(),
            open_channels: 0,
            live_grants: 0,
            next_domid: 1,
            domid_limit: None,
            memory: MemoryPressure::new(mem_bytes, dom0_reserved),
            guest_cores,
            next_core_rr: 0,
        }
    }

    pub(crate) fn charge(meter: &mut Meter, dt: simcore::SimTime) {
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

    /// Next free domid under the configured policy, or
    /// [`HvError::DomidsExhausted`] with nothing changed.
    fn alloc_domid(&mut self) -> Result<DomId, HvError> {
        let Some(limit) = self.domid_limit else {
            let id = DomId(self.next_domid);
            self.next_domid += 1;
            return Ok(id);
        };
        if self.domains.len() as u32 >= limit - 1 {
            return Err(HvError::DomidsExhausted);
        }
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
        Ok(DomId(cand))
    }

    /// `XEN_DOMCTL_createdomain` + reservation: allocates the domain
    /// structures and reserves (but does not populate) its memory range.
    pub fn create_domain(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        cfg: &DomainConfig,
    ) -> Result<DomId, HvError> {
        let id = self.alloc_domid()?;
        Self::charge(
            meter,
            cost.hypercall_base + cost.domctl_create + cost.mem_reserve_base,
        );
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
        let d = Domain {
            id,
            max_mem_mib: cfg.max_mem_mib,
            vcpu_cores,
            ..Domain::default()
        };
        self.domains.insert(id, Arc::new(d));
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
        let d = self.domain(dom)?;
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
        self.domain_mut(dom)?.populated_mib = total;
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
        let d = self.domain_mut(dom)?;
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
        let d = self.domain_mut(dom)?;
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
        let d = self.domain_mut(dom)?;
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
        let d = self.domain_mut(dom)?;
        if d.state != DomainState::Suspended {
            return Err(HvError::BadState);
        }
        d.state = DomainState::Running;
        d.shutdown_reason = None;
        Ok(())
    }

    /// `XEN_DOMCTL_destroydomain`: tears down a domain, releasing its
    /// memory and device page, closing each of its ports with the peer
    /// end the port names, and dropping the grants it issued and the
    /// offers and grants others hold towards it. As in Xen's
    /// `domain_kill`, it visits only what the domain owns.
    pub fn destroy(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
    ) -> Result<(), HvError> {
        let d = self.domains.remove(&dom).ok_or(HvError::NoSuchDomain)?;
        self.memory.release(d.populated_mib * MIB);
        for (&port, &ch) in &d.ports {
            self.open_channels -= 1;
            self.close_peer(dom, EvtchnPort(port), ch);
        }
        for (&gref, g) in &d.grants {
            self.live_grants -= 1;
            self.release(g.grantee, Held::Grant(dom, GrantRef(gref)));
        }
        // An entry lives exactly as long as its offer or grant, so
        // neither call can fail.
        for &held in &d.held {
            let _ = match held {
                Held::Offer(owner, port) => self.evtchn_close(owner, port),
                Held::Grant(granter, gref) => self
                    .grant_unmap(dom, granter, gref)
                    .and_then(|()| self.grant_end_access(granter, gref)),
            };
        }
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
        self.domains
            .get(&dom)
            .map(|d| &**d)
            .ok_or(HvError::NoSuchDomain)
    }

    /// A guest's record for writing, copied first if a fork shares it.
    fn domain_mut(&mut self, dom: DomId) -> Result<&mut Domain, HvError> {
        self.domains
            .get_mut(&dom)
            .map(Arc::make_mut)
            .ok_or(HvError::NoSuchDomain)
    }

    /// `dom`'s record for writing, Dom0's included, if it exists.
    pub(crate) fn record_mut(&mut self, dom: DomId) -> Option<&mut Domain> {
        if dom.is_dom0() {
            return Some(&mut self.dom0);
        }
        self.domain_mut(dom).ok()
    }

    /// Records on `dom` a resource another domain holds towards it.
    pub(crate) fn hold(&mut self, dom: DomId, held: Held) {
        if let Some(d) = self.record_mut(dom) {
            d.held.push(held);
        }
    }

    /// Forgets a resource recorded by [`Self::hold`] once it is bound
    /// or gone.
    pub(crate) fn release(&mut self, dom: DomId, held: Held) {
        if let Some(d) = self.record_mut(dom) {
            if let Some(i) = d.held.iter().position(|&h| h == held) {
                d.held.swap_remove(i);
            }
        }
    }

    /// Number of domains.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// The cores guests run on.
    pub fn guest_cores(&self) -> &[usize] {
        &self.guest_cores
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
        self.domain_mut(dom)?
            .device_page
            .get_or_insert_with(Default::default);
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
        self.edit_page(cost, meter, caller, dom, |page| page.push(entry))
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
        self.edit_page(cost, meter, caller, dom, |page| page.remove(kind, devid))
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
        self.domains
            .get(&caller)
            .and_then(|d| d.device_page.clone())
            .ok_or(HvError::NoSuchDomain)
    }

    /// Applies a Dom0-only `edit` to `dom`'s device page, copying the
    /// page first if a fork shares it.
    fn edit_page(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        caller: DomId,
        dom: DomId,
        edit: impl FnOnce(&mut DevicePage) -> Result<(), HvError>,
    ) -> Result<(), HvError> {
        if !caller.is_dom0() {
            return Err(HvError::NotPermitted);
        }
        Self::charge(meter, cost.hypercall_base + cost.noxs_page_op);
        let page = self.domain_mut(dom)?.device_page.as_mut();
        edit(Arc::make_mut(page.ok_or(HvError::NoSuchDomain)?))
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
        assert_eq!(hv.domain(id).unwrap().state, DomainState::Running);
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
        assert_eq!(hv.domain(id).unwrap().state, DomainState::Running);
        assert_eq!(hv.domain(id).unwrap().shutdown_reason, None);
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
        assert_eq!(page.entries().len(), 1);
        assert_eq!(page.entries()[0].kind, DeviceKind::Net);
    }

    #[test]
    fn destroy_reaps_channels_grants_and_page() {
        let (mut hv, cost, mut m) = setup();
        let id = hv
            .create_domain(&cost, &mut m, &DomainConfig::default())
            .unwrap();
        let port = hv.evtchn_alloc_unbound(&cost, &mut m, DomId::DOM0, id).unwrap();
        hv.evtchn_bind(&cost, &mut m, id, DomId::DOM0, port).unwrap();
        hv.evtchn_alloc_unbound(&cost, &mut m, DomId::DOM0, id).unwrap();
        hv.grant_access(&cost, &mut m, id, DomId::DOM0, 1).unwrap();
        hv.grant_access(&cost, &mut m, DomId::DOM0, id, 2).unwrap();
        hv.devpage_setup(&cost, &mut m, DomId::DOM0, id).unwrap();
        hv.destroy(&cost, &mut m, id).unwrap();
        assert_eq!(hv.open_channels(), 0);
        assert_eq!(hv.grant_count(), 0);
        assert!(hv.devpage_read(&cost, &mut m, id).is_err());
    }

    #[test]
    fn reborn_domid_numbers_from_one() {
        let (mut hv, cost, mut m) = setup();
        hv.set_domid_limit(2); // one guest domid: 1
        for _ in 0..2 {
            let id = hv.create_domain(&cost, &mut m, &DomainConfig::default()).unwrap();
            assert_eq!(id, DomId(1));
            let offer = hv.evtchn_alloc_unbound(&cost, &mut m, id, DomId::DOM0).unwrap();
            let gref = hv.grant_access(&cost, &mut m, id, DomId::DOM0, 1).unwrap();
            assert_eq!((offer, gref), (EvtchnPort(1), GrantRef(1)));
            hv.destroy(&cost, &mut m, id).unwrap();
        }
    }

    #[test]
    fn a_fork_shares_domains_until_written() {
        let (mut hv, cost, mut m) = setup();
        let id = hv.create_domain(&cost, &mut m, &DomainConfig::default()).unwrap();
        hv.devpage_setup(&cost, &mut m, DomId::DOM0, id).unwrap();
        let mut fork = hv.clone();
        assert!(Arc::ptr_eq(&hv.domains[&id], &fork.domains[&id]));
        fork.unpause(&cost, &mut m, id).unwrap();
        assert!(!Arc::ptr_eq(&hv.domains[&id], &fork.domains[&id]));
        assert_eq!(hv.domain(id).unwrap().state, DomainState::Created);
        fork.destroy(&cost, &mut m, id).unwrap();
        assert!(hv.devpage_read(&cost, &mut m, id).is_ok(), "the original keeps its page");
    }

    #[test]
    fn domid_exhaustion_is_an_error_not_a_panic() {
        let (mut hv, cost, mut m) = setup();
        hv.set_domid_limit(4); // usable guest domids: 1, 2, 3
        for _ in 0..3 {
            hv.create_domain(&cost, &mut m, &DomainConfig::default()).unwrap();
        }
        let charged = m.total();
        assert_eq!(
            hv.create_domain(&cost, &mut m, &DomainConfig::default()),
            Err(HvError::DomidsExhausted)
        );
        assert_eq!((hv.domain_count(), m.total()), (3, charged), "nothing charged or changed");
        hv.destroy(&cost, &mut m, DomId(2)).unwrap();
        assert_eq!(
            hv.create_domain(&cost, &mut m, &DomainConfig::default()),
            Ok(DomId(2))
        );
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
