//! The control plane: one struct owning Dom0's moving parts, driving VM
//! creation through any of the paper's five toolstack configurations.
//!
//! | Mode            | Store    | Toolstack | Hotplug  | Pool |
//! |-----------------|----------|-----------|----------|------|
//! | `Xl`            | XenStore | xl/libxl  | bash     | no   |
//! | `ChaosXs`       | XenStore | chaos     | xendevd  | no   |
//! | `ChaosXsSplit`  | XenStore | chaos     | xendevd  | yes  |
//! | `ChaosNoxs`     | noxs     | chaos     | xendevd  | no   |
//! | `LightVm`       | noxs     | chaos     | xendevd  | yes  |

use std::collections::BTreeMap;
use std::sync::Arc;

use devices::{xsdev, Backend, Hotplug, SoftwareSwitch};
use guests::GuestImage;
use hypervisor::{DeviceKind, DomId, DomainConfig, Hypervisor, HvError};
use noxs::{driver as noxs_driver, SysctlBackend};
use simcore::{
    Category, CostModel, CpuSim, FaultPlan, FaultSite, Machine, Meter, SimRng, SimTime, TaskId,
    FAULT_RETRIES,
};
use xenstore::{u32_str, Flavor, WatchEvent, XsError, XsSym, Xenstored};

use crate::config::VmConfig;
use crate::split::{ChaosDaemon, VmShell};

const GIB: u64 = 1 << 30;
const MIB: u64 = 1 << 20;

/// Conflict probability a transaction-storm fault drives the store to
/// while the stormed phase runs: with ~6 touched nodes per registration
/// transaction the per-commit conflict probability is effectively 1, so
/// libxl's internal retries burn out and the phase-level retry (with
/// backoff) takes over.
const STORM_INTERFERENCE: f64 = 0.97;

/// The five control-plane configurations evaluated in Figure 9.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ToolstackMode {
    /// Stock Xen: xl/libxl + XenStore + bash hotplug.
    Xl,
    /// chaos/libchaos over the XenStore.
    ChaosXs,
    /// chaos + XenStore + split toolstack (pre-created shells).
    ChaosXsSplit,
    /// chaos + noxs (no XenStore).
    ChaosNoxs,
    /// Everything on: chaos + noxs + split toolstack.
    LightVm,
}

impl ToolstackMode {
    /// True if this mode goes through the XenStore.
    pub fn uses_xenstore(self) -> bool {
        matches!(self, ToolstackMode::Xl | ToolstackMode::ChaosXs | ToolstackMode::ChaosXsSplit)
    }

    /// True if this mode uses the pre-created shell pool.
    pub fn uses_split(self) -> bool {
        matches!(self, ToolstackMode::ChaosXsSplit | ToolstackMode::LightVm)
    }

    /// The hotplug mechanism this mode uses.
    pub fn hotplug(self) -> Hotplug {
        match self {
            ToolstackMode::Xl => Hotplug::BashScripts,
            _ => Hotplug::Xendevd,
        }
    }

    /// Display label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            ToolstackMode::Xl => "xl",
            ToolstackMode::ChaosXs => "chaos [XS]",
            ToolstackMode::ChaosXsSplit => "chaos [XS+split]",
            ToolstackMode::ChaosNoxs => "chaos [NoXS]",
            ToolstackMode::LightVm => "LightVM",
        }
    }
}

/// Control-plane errors.
#[derive(Clone, Debug, PartialEq)]
pub enum PlaneError {
    /// The guest name is already taken (xl's uniqueness check).
    NameTaken(String),
    /// Unknown domain.
    NoSuchVm,
    /// Hypervisor failure (incl. host memory exhaustion).
    Hv(HvError),
    /// XenStore failure.
    Xs(XsError),
    /// Device failure.
    Dev(String),
    /// A control-plane phase timed out after bounded retries (names the
    /// phase that gave up).
    Timeout(&'static str),
}

impl From<HvError> for PlaneError {
    fn from(e: HvError) -> Self {
        PlaneError::Hv(e)
    }
}
impl From<XsError> for PlaneError {
    fn from(e: XsError) -> Self {
        PlaneError::Xs(e)
    }
}
impl From<xsdev::XsDevError> for PlaneError {
    fn from(e: xsdev::XsDevError) -> Self {
        PlaneError::Dev(e.to_string())
    }
}
impl From<noxs_driver::NoxsError> for PlaneError {
    fn from(e: noxs_driver::NoxsError) -> Self {
        PlaneError::Dev(e.to_string())
    }
}
impl From<noxs::sysctl::SysctlError> for PlaneError {
    fn from(e: noxs::sysctl::SysctlError) -> Self {
        PlaneError::Dev(format!("{e:?}"))
    }
}
impl From<noxs::checkpoint::CheckpointError> for PlaneError {
    fn from(e: noxs::checkpoint::CheckpointError) -> Self {
        PlaneError::Dev(format!("{e:?}"))
    }
}

impl std::fmt::Display for PlaneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaneError::NameTaken(n) => write!(f, "guest name {n} already in use"),
            PlaneError::NoSuchVm => write!(f, "no such VM"),
            PlaneError::Hv(e) => write!(f, "hypervisor: {e}"),
            PlaneError::Xs(e) => write!(f, "xenstore: {e}"),
            PlaneError::Dev(e) => write!(f, "device: {e}"),
            PlaneError::Timeout(phase) => write!(f, "phase timed out: {phase}"),
        }
    }
}

impl std::error::Error for PlaneError {}

/// What a `create` did: the domain plus the per-category breakdown
/// (Figure 5's instrumentation).
#[derive(Clone, Debug)]
pub struct CreateReport {
    /// The new domain.
    pub dom: DomId,
    /// Per-category cost breakdown.
    pub meter: Meter,
    /// Whether a pre-created shell was used.
    pub from_shell: bool,
}

impl CreateReport {
    /// Total creation latency.
    pub fn total(&self) -> SimTime {
        self.meter.total()
    }
}

/// A VM the control plane knows about.
#[derive(Clone, Debug)]
pub struct Vm {
    /// Guest name.
    pub name: String,
    /// The image it runs.
    pub image: GuestImage,
    /// Core its vCPU is pinned to.
    pub core: usize,
    /// Background CPU task once booted.
    pub bg: Option<TaskId>,
    /// Whether the guest finished booting.
    pub booted: bool,
    /// Net device ids.
    pub net_devids: Vec<u32>,
    /// Block device ids.
    pub blk_devids: Vec<u32>,
}

/// Per-site counters for errors swallowed on destroy/rollback paths.
///
/// Teardown must keep going whatever an individual step returns — a
/// half-created guest has half the state, so "nothing to remove" is
/// routine — but discarding *every* error silently can mask a leak
/// (a device that refuses to die stays in the backend table forever).
/// Each swallow site therefore classifies its error: absence
/// (`NotFound`-class — the thing is already gone, so nothing can have
/// leaked) stays silent with a comment at the site saying why, and
/// anything else increments the site's counter here. The churn census
/// reports the totals; monotone growth between matching checkpoints is
/// a leak fingerprint with the site name attached.
///
/// These are cumulative counters, so the census treats them as
/// report-only (they are excluded from checkpoint equality).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct TeardownErrors {
    /// XenStore-path device teardown failed with something other than
    /// "already gone" (rollback or destroy).
    pub xsdev: u64,
    /// noxs device teardown failed with something other than
    /// "already gone" (rollback or destroy).
    pub noxs: u64,
    /// Removing `/local/domain/<d>` or `/vm/<d>` failed with something
    /// other than `NotFound`.
    pub store_dirs: u64,
    /// The hypervisor failed to destroy a domain during rollback.
    pub hv_destroy: u64,
    /// Unregistering a just-registered front-end watch failed in the
    /// aborted-boot unwind.
    pub unwatch: u64,
    /// Tearing down a created-but-unbootable guest failed in the
    /// `create_and_boot` unwind.
    pub boot_unwind: u64,
}

impl TeardownErrors {
    /// Sum over every site.
    pub fn total(&self) -> u64 {
        self.xsdev + self.noxs + self.store_dirs + self.hv_destroy + self.unwatch + self.boot_unwind
    }
}

/// True if an XS-path device-teardown error means "already gone":
/// nothing existed, so nothing can have leaked.
fn xsdev_err_is_absence(e: &xsdev::XsDevError) -> bool {
    matches!(
        e,
        xsdev::XsDevError::Xs(XsError::NotFound)
            | xsdev::XsDevError::Dev(devices::DevError::NotFound)
    )
}

/// True if a noxs device-teardown error means "already gone": the
/// device-page entry was never written, the backend never allocated
/// the device, or the domain itself is gone.
fn noxs_err_is_absence(e: &noxs_driver::NoxsError) -> bool {
    use hypervisor::devpage::DevicePageError;
    matches!(
        e,
        noxs_driver::NoxsError::Dev(devices::DevError::NotFound)
            | noxs_driver::NoxsError::Hv(HvError::NoSuchDomain)
            | noxs_driver::NoxsError::Hv(HvError::DevPage(DevicePageError::NotFound))
    )
}

/// Dom0 and everything in it.
#[derive(Clone)]
pub struct ControlPlane {
    /// Which toolstack drives this host.
    pub mode: ToolstackMode,
    /// The machine this host runs on.
    pub machine: Machine,
    /// The XenStore daemon (present but idle in noxs modes).
    pub xs: Xenstored,
    /// The hypervisor.
    pub hv: Hypervisor,
    /// netback.
    pub net: Backend,
    /// blkback.
    pub blk: Backend,
    /// The console back-end (xenconsoled).
    pub console: Backend,
    /// The software switch.
    pub switch: SoftwareSwitch,
    /// The sysctl back-end (noxs power control).
    pub sysctl: SysctlBackend,
    /// The CPU contention model (all cores, Dom0's first).
    pub cpu: CpuSim,
    /// The split-toolstack daemon (pool used in split modes).
    pub daemon: ChaosDaemon,
    /// The deterministic fault plan (inactive by default: zero RNG
    /// draws, zero charges, byte-identical artefacts).
    pub faults: FaultPlan,
    /// Creates (or create+boots) that failed and were rolled back.
    pub(crate) create_failures: u64,
    /// Unexpected (non-absence) errors swallowed on teardown paths,
    /// by site (see [`TeardownErrors`]).
    pub teardown_errors: TeardownErrors,
    pub(crate) dom0_cores: usize,
    // Per-entry `Arc` so a forked host shares all prewarmed VM records
    // with its template by refcount; `Arc::make_mut` localises the copy
    // to the one record a mutation touches.
    pub(crate) vms: BTreeMap<DomId, Arc<Vm>>,
    pub(crate) rng: SimRng,
    /// Work done off the critical path (pool refills).
    pub background_meter: Meter,
    pub(crate) dom0_load_total: f64,
    pub(crate) created_total: u64,
    /// Page-sharing fraction (§9 future work): when set, instances of an
    /// already-running image share this fraction of their pages.
    page_sharing: Option<f64>,
    pub(crate) image_instances: std::collections::HashMap<String, usize>,
    /// Scratch buffer for backend watch-event processing (reused across
    /// every create/destroy; zero allocations in steady state).
    xs_events: Vec<WatchEvent>,
    /// Cached front-end watch tokens ("fe-0", "fe-1", ...): registering a
    /// guest's watches shares these instead of formatting new strings.
    fe_tokens: Vec<Arc<str>>,
    /// Scratch buffer for directory listings (xl's unique-name check).
    dir_scratch: Vec<XsSym>,
    /// Sum of `image.watches` over booted guests, maintained
    /// incrementally so `refresh_interference` is O(1) per boot/destroy
    /// (the integer sum is order-free, so it matches the old per-call
    /// fold exactly).
    booted_watches: u32,
}

impl ControlPlane {
    /// Creates a host: `dom0_cores` cores for Dom0, the rest for guests,
    /// 4 GiB reserved for Dom0.
    ///
    /// # Panics
    ///
    /// Panics if `dom0_cores >= machine.cores`.
    pub fn new(machine: Machine, dom0_cores: usize, mode: ToolstackMode, seed: u64) -> ControlPlane {
        assert!(
            dom0_cores >= 1 && dom0_cores < machine.cores,
            "need at least one Dom0 core and one guest core"
        );
        let guest_cores: Vec<usize> = (dom0_cores..machine.cores).collect();
        let hv = Hypervisor::new(machine.mem_bytes, 4 * GIB, guest_cores);
        let cpu = CpuSim::new(machine.cores, machine.cpu_speed);
        ControlPlane {
            mode,
            xs: Xenstored::new(Flavor::Oxenstored, seed ^ 0x5eed),
            hv,
            net: Backend::new(DeviceKind::Net),
            blk: Backend::new(DeviceKind::Block),
            console: Backend::new(DeviceKind::Console),
            switch: SoftwareSwitch::new(),
            sysctl: SysctlBackend::new(),
            cpu,
            daemon: ChaosDaemon::new(8),
            faults: FaultPlan::none(),
            create_failures: 0,
            teardown_errors: TeardownErrors::default(),
            dom0_cores,
            vms: BTreeMap::new(),
            rng: SimRng::new(seed),
            background_meter: Meter::new(),
            dom0_load_total: 0.0,
            created_total: 0,
            page_sharing: None,
            image_instances: std::collections::HashMap::new(),
            xs_events: Vec::new(),
            fe_tokens: Vec::new(),
            dir_scratch: Vec::new(),
            booted_watches: 0,
            machine,
        }
        .finish_init()
    }

    fn finish_init(mut self) -> ControlPlane {
        if self.mode.uses_xenstore() {
            // Back-ends register their watches at start-up.
            let cost = self.machine.cost.clone();
            let mut m = Meter::new();
            xsdev::register_backend_watch(&mut self.xs, &cost, &mut m, DeviceKind::Net);
            xsdev::register_backend_watch(&mut self.xs, &cost, &mut m, DeviceKind::Block);
            xsdev::register_backend_watch(&mut self.xs, &cost, &mut m, DeviceKind::Console);
        }
        self
    }

    /// The cost calibration in use.
    pub fn cost(&self) -> CostModel {
        self.machine.cost.clone()
    }

    /// Enables SnowFlock-style page sharing (paper §9): instances of an
    /// image already running on the host share `fraction` of their pages
    /// (read-only text and zero pages de-duplicated).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1)`.
    pub fn set_page_sharing(&mut self, fraction: Option<f64>) {
        if let Some(f) = fraction {
            assert!((0.0..1.0).contains(&f), "share fraction must be in [0, 1)");
        }
        self.page_sharing = fraction;
    }

    /// MiB to actually populate for an instance of `image`: the full
    /// footprint for the first instance, de-duplicated for later ones.
    fn effective_mem_mib(&self, image: &GuestImage) -> u64 {
        match self.page_sharing {
            Some(share) if self.image_instances.get(&image.name).copied().unwrap_or(0) > 0 => {
                ((image.mem_mib as f64) * (1.0 - share)).ceil().max(1.0) as u64
            }
            _ => image.mem_mib,
        }
    }

    /// Counts one more instance of `image`. The name is cloned into the
    /// map only for an image's first instance, so a steady-state create
    /// allocates nothing here.
    pub(crate) fn count_instance(&mut self, image: &GuestImage) {
        match self.image_instances.get_mut(&image.name) {
            Some(n) => *n += 1,
            None => {
                self.image_instances.insert(image.name.clone(), 1);
            }
        }
    }

    /// Installs a fault plan. Pass [`FaultPlan::none()`] to disable
    /// injection again; an inactive plan never touches the RNG, so
    /// fault-free runs stay byte-identical with or without this call.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Creates that failed and were rolled back (per-domain failures;
    /// the process never panics on an injected fault).
    pub fn create_failures(&self) -> u64 {
        self.create_failures
    }

    /// Number of VMs the control plane tracks.
    pub fn running_count(&self) -> usize {
        self.vms.len()
    }

    /// VM record access.
    pub fn vm(&self, dom: DomId) -> Result<&Vm, PlaneError> {
        self.vms.get(&dom).map(|v| v.as_ref()).ok_or(PlaneError::NoSuchVm)
    }

    /// Iterates over (domid, vm).
    pub fn vms(&self) -> impl Iterator<Item = (&DomId, &Vm)> {
        self.vms.iter().map(|(d, v)| (d, v.as_ref()))
    }

    /// Guest memory in use (bytes), the Figure 14 quantity.
    pub fn guest_memory_used(&self) -> u64 {
        self.vms
            .values()
            .map(|vm| vm.image.footprint_bytes())
            .sum()
    }

    /// Whole-machine CPU utilisation (0..=1), the Figure 15 quantity.
    pub fn cpu_utilization(&self) -> f64 {
        let guest = self.cpu.total_utilization();
        let dom0 = (self.dom0_load_total / self.dom0_cores as f64).min(1.0);
        let cores = self.machine.cores as f64;
        (guest * cores + dom0 * self.dom0_cores as f64).min(cores) / cores
    }

    /// Dom0 contention multiplier on toolstack work: backends and
    /// xenstored compete with per-guest housekeeping on Dom0's cores.
    fn dom0_slowdown(&self) -> f64 {
        let load = (self.dom0_load_total / self.dom0_cores as f64).min(0.85);
        1.0 / (1.0 - load)
    }

    /// Bookkeeping for a guest entering/leaving the booted set (watch
    /// registrations feed the ambient-interference level).
    pub(crate) fn note_booted(&mut self, watches: u32) {
        self.booted_watches += watches;
    }

    pub(crate) fn note_unbooted(&mut self, watches: u32) {
        self.booted_watches -= watches;
    }

    /// Updates the ambient-interference level from the registered
    /// watch count (stand-in for the running guests' own xenbus traffic).
    pub(crate) fn refresh_interference(&mut self) {
        debug_assert_eq!(
            self.booted_watches,
            self.vms.values().filter(|v| v.booted).map(|v| v.image.watches).sum::<u32>(),
            "incremental booted-watch sum drifted from the VM map"
        );
        self.xs
            .set_ambient_interference((self.booted_watches as f64 * 1.2e-6).min(0.02));
    }

    // --- create ---------------------------------------------------------------

    /// Creates (but does not boot) a VM, returning the Figure 5-style
    /// breakdown.
    pub fn create_vm(&mut self, name: &str, image: &GuestImage) -> Result<CreateReport, PlaneError> {
        let cost = self.cost();
        let mut meter = Meter::new();

        // Config parsing (all modes; chaos parses the same format). Only
        // the serialised size matters for the charge, computed without
        // materialising the config text.
        let config_len = VmConfig::text_len_for_image(name, image);
        meter.charge(
            Category::Config,
            cost.config_parse_base + cost.config_parse_per_byte * config_len as u64,
        );

        // Toolstack-internal state keeping.
        meter.charge(
            Category::Toolstack,
            match self.mode {
                ToolstackMode::Xl => cost.xl_internal,
                _ => cost.chaos_internal,
            },
        );

        let created = if self.mode.uses_split() {
            match self.daemon.take(image.mem_mib, image.vcpus, image.needs_net) {
                Some(shell) => self
                    .finish_from_shell(&cost, &mut meter, shell, name, image)
                    .map(|dom| (dom, true)),
                None => self.full_create(&cost, &mut meter, name, image).map(|dom| (dom, false)),
            }
        } else {
            self.full_create(&cost, &mut meter, name, image).map(|dom| (dom, false))
        };
        let (dom, from_shell) = match created {
            Ok(v) => v,
            // The failed create already rolled itself back; one domain
            // failing must not take the host down, so record and return.
            Err(e) => {
                self.create_failures += 1;
                return Err(e);
            }
        };

        // Image build: parse the kernel image and lay it out in memory;
        // Linux kernels (Tinyx/Debian) additionally pay decompression and
        // initramfs unpacking.
        let pressure = self.hv.memory.factor().min(64.0);
        let mib = image.loaded_bytes().div_ceil(MIB);
        let mut load = cost.image_parse_base + (cost.image_load_per_mib * mib).scale(pressure);
        if image.kind != guests::GuestKind::Unikernel {
            load += cost.kernel_decompress_per_mib * mib;
        }
        meter.charge(Category::Load, load);

        // Boot it last: the domain is left paused; `boot_vm` unpauses.
        let slow = self.dom0_slowdown();
        if slow > 1.0 {
            let extra = meter.total().scale(slow - 1.0);
            meter.charge(Category::Toolstack, extra);
        }

        // Jitter the total a little so repeated runs show measurement
        // noise rather than perfectly smooth curves.
        let noise = self
            .rng
            .jitter(meter.total(), 0.03)
            .saturating_sub(meter.total());
        if !noise.is_zero() {
            meter.charge(Category::Toolstack, noise);
        }

        let core = self.hv.domain(dom)?.vcpu_cores[0];
        self.count_instance(image);
        self.vms.insert(
            dom,
            Arc::new(Vm {
                name: name.to_string(),
                image: image.clone(),
                core,
                bg: None,
                booted: false,
                net_devids: if image.needs_net { vec![0] } else { vec![] },
                blk_devids: if image.needs_block { vec![0] } else { vec![] },
            }),
        );
        self.created_total += 1;

        // The split daemon replenishes the pool off the critical path.
        if self.mode.uses_split() {
            self.daemon_refill(image);
        }
        Ok(CreateReport { dom, meter, from_shell })
    }

    /// The non-pooled create path: hypervisor work, registration and
    /// device creation. A failure after the domain exists triggers a
    /// compensating teardown, so a half-created guest never leaks store
    /// nodes, watches, grants or event channels.
    fn full_create(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        name: &str,
        image: &GuestImage,
    ) -> Result<DomId, PlaneError> {
        if self.mode == ToolstackMode::Xl {
            self.xl_name_check(cost, meter, name)?;
        }

        // Hypervisor reservation + vCPUs. Everything past this point has
        // state to unwind on failure.
        let dom = self.hv.create_domain(
            cost,
            meter,
            &DomainConfig {
                max_mem_mib: image.mem_mib,
                vcpus: image.vcpus,
            },
        )?;
        match self.provision(cost, meter, dom, name, image) {
            Ok(()) => Ok(dom),
            Err(e) => {
                self.rollback_partial_create(cost, meter, dom, image);
                Err(e)
            }
        }
    }

    /// Everything `full_create` does once the domain exists: memory
    /// preparation, registration and device creation. Split out so any
    /// mid-create failure funnels through `rollback_partial_create`.
    fn provision(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
        name: &str,
        image: &GuestImage,
    ) -> Result<(), PlaneError> {
        // Under page sharing, repeat instances only populate their
        // unique pages.
        let mem = self.effective_mem_mib(image);
        self.hv.populate_physmap(cost, meter, dom, mem)?;

        if self.mode.uses_xenstore() {
            self.xs.connect(dom.0);
            self.xs_register_domain(cost, meter, dom, name)?;
            for devid in net_ids(image) {
                let mac = Backend::mac_for(dom, devid);
                xsdev::toolstack_announce_device(
                    &mut self.xs, cost, meter, DeviceKind::Net, dom, devid, &mac,
                )?;
                self.process_backend_events(cost, meter, DeviceKind::Net)?;
            }
            for devid in blk_ids(image) {
                let mac = String::new();
                xsdev::toolstack_announce_device(
                    &mut self.xs, cost, meter, DeviceKind::Block, dom, devid, &mac,
                )?;
                self.process_backend_events(cost, meter, DeviceKind::Block)?;
            }
            if image.needs_console {
                xsdev::toolstack_announce_device(
                    &mut self.xs, cost, meter, DeviceKind::Console, dom, 0, "",
                )?;
                self.process_backend_events(cost, meter, DeviceKind::Console)?;
            }
            if self.mode == ToolstackMode::Xl {
                // xl spawns a qemu device model per guest (PV console and
                // qdisk backend).
                meter.charge(Category::Devices, cost.xl_qemu_spawn);
            }
        } else {
            noxs_driver::setup_device_page(&mut self.hv, cost, meter, dom)?;
            self.sysctl.setup(&mut self.hv, cost, meter, dom)?;
            for devid in net_ids(image) {
                noxs_driver::create_device(
                    &mut self.hv, &mut self.net, &mut self.switch, self.mode.hotplug(),
                    cost, meter, dom, devid, &mut self.faults,
                )?;
            }
            for devid in blk_ids(image) {
                meter.charge(Category::Devices, cost.noxs_ioctl);
                let (evtchn, grant) = self
                    .blk
                    .alloc_device(&mut self.hv, cost, meter, dom, devid)
                    .map_err(|e| PlaneError::Dev(e.to_string()))?;
                self.hv.devpage_write(
                    cost,
                    meter,
                    DomId::DOM0,
                    dom,
                    hypervisor::DevicePageEntry {
                        kind: DeviceKind::Block,
                        devid,
                        backend: DomId::DOM0,
                        evtchn,
                        grant,
                    },
                )?;
            }
            if image.needs_console {
                meter.charge(Category::Devices, cost.noxs_ioctl);
                let (evtchn, grant) = self
                    .console
                    .alloc_device(&mut self.hv, cost, meter, dom, 0)
                    .map_err(|e| PlaneError::Dev(e.to_string()))?;
                self.hv.devpage_write(
                    cost,
                    meter,
                    DomId::DOM0,
                    dom,
                    hypervisor::DevicePageEntry {
                        kind: DeviceKind::Console,
                        devid: 0,
                        backend: DomId::DOM0,
                        evtchn,
                        grant,
                    },
                )?;
            }
        }
        Ok(())
    }

    /// Execute-phase completion when a shell is available: only the
    /// VM-specific work remains. On failure the shell — which is a fully
    /// provisioned domain — is rolled back, not returned to the pool.
    fn finish_from_shell(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        shell: VmShell,
        name: &str,
        image: &GuestImage,
    ) -> Result<DomId, PlaneError> {
        let dom = shell.dom;
        match self.finish_from_shell_inner(cost, meter, dom, name, image) {
            Ok(()) => Ok(dom),
            Err(e) => {
                self.rollback_partial_create(cost, meter, dom, image);
                Err(e)
            }
        }
    }

    fn finish_from_shell_inner(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
        name: &str,
        image: &GuestImage,
    ) -> Result<(), PlaneError> {
        if self.mode.uses_xenstore() {
            self.xs.connect(dom.0);
            // Finalise naming and device initialisation in a transaction:
            // the split toolstack still pays the store for VM-specific
            // records (why chaos [XS+split] grows to ~25 ms at 1,000
            // guests while chaos [NoXS] does not).
            let d = self.xs.domain_dir_sym(dom.0);
            let d_name = self.xs.child_sym(d, "name");
            let d_image = self.xs.child_sym(d, "image");
            let d_mem_target = self.xs.child_sym(self.xs.child_sym(d, "memory"), "target");
            let d_con_ring = self.xs.child_sym(self.xs.child_sym(d, "console"), "ring-ref");
            let d_devinit = self.xs.child_sym(d, "device-init");
            self.stormy_registration(cost, meter, "shell finalisation", |xs, cost, meter| {
                xs.transaction(cost, meter, 0, xsdev::TXN_RETRIES, |xs, cost, meter, id| {
                    xs.txn_write(cost, meter, 0, id, d_name, name.as_bytes())?;
                    xs.txn_write(cost, meter, 0, id, d_image, b"kernel")?;
                    xs.txn_write(cost, meter, 0, id, d_mem_target, b"mem")?;
                    xs.txn_write(cost, meter, 0, id, d_con_ring, b"1")?;
                    xs.txn_write(cost, meter, 0, id, d_devinit, b"done")
                })
            })?;
        } else {
            // Finalise device initialisation over the control pages.
            meter.charge(
                Category::Devices,
                cost.ctrl_page_exchange * (image.device_count().max(1)) as u64,
            );
        }
        Ok(())
    }

    /// Registration phase under fault injection: an injected daemon
    /// crash costs a restart + log replay before the phase runs (the
    /// toolstack's transaction died with the old daemon process and is
    /// simply re-issued); an injected transaction storm drives the
    /// store's conflict probability to `STORM_INTERFERENCE` for the
    /// duration of one attempt. The phase is retried with exponential
    /// backoff up to `FAULT_RETRIES` times before the create is
    /// abandoned. With an inactive plan this is exactly one plain
    /// attempt: no draws, no extra charges.
    fn stormy_registration(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        phase: &'static str,
        mut body: impl FnMut(&mut Xenstored, &CostModel, &mut Meter) -> Result<(), XsError>,
    ) -> Result<(), PlaneError> {
        if self.faults.should_inject(FaultSite::XsCrash) {
            self.xs.crash_and_restart(cost, meter);
        }
        for attempt in 0..=FAULT_RETRIES {
            let storm = self.faults.should_inject(FaultSite::TxnStorm);
            let saved = self.xs.ambient_interference();
            if storm {
                self.xs.set_ambient_interference(STORM_INTERFERENCE);
                self.xs.set_storm(true);
            }
            let result = body(&mut self.xs, cost, meter);
            if storm {
                self.xs.set_ambient_interference(saved);
                self.xs.set_storm(false);
            }
            match result {
                Ok(()) => return Ok(()),
                Err(XsError::Again) if attempt < FAULT_RETRIES => {
                    meter.charge(
                        Category::Xenstore,
                        FaultPlan::backoff(cost.fault_backoff_base, attempt),
                    );
                }
                Err(XsError::Again) => return Err(PlaneError::Timeout(phase)),
                Err(e) => return Err(e.into()),
            }
        }
        unreachable!("loop returns on its final attempt");
    }

    /// xl's unique-name check: list every domain and read its name.
    /// Charged in closed form unless the name may be taken; the real
    /// request scan runs then (DESIGN.md §6g).
    fn xl_name_check(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        name: &str,
    ) -> Result<(), PlaneError> {
        let avoided = self.xl_name_scan_closed_form(cost, meter, name);
        crate::cloneboot::note_name_check(avoided);
        match avoided {
            Some(_) => Ok(()),
            None => self.xl_name_scan(cost, meter, name),
        }
    }

    /// The real scan: one `directory` of `/local/domain`, then one
    /// `read` of each numeric entry's `name` until one equals `name`.
    pub(crate) fn xl_name_scan(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        name: &str,
    ) -> Result<(), PlaneError> {
        let dir = self.xs.local_domain_sym();
        let mut entries = std::mem::take(&mut self.dir_scratch);
        match self.xs.directory_syms(cost, meter, 0, dir, &mut entries) {
            Ok(()) => {}
            Err(XsError::NotFound) => entries.clear(),
            Err(e) => {
                self.dir_scratch = entries;
                return Err(e.into());
            }
        }
        let mut taken = false;
        for &domain in &entries {
            if self.xs.sym_name_u32(domain).is_some() {
                let name_sym = self.xs.child_sym(domain, "name");
                if let Ok(existing) = self.xs.read(cost, meter, 0, name_sym) {
                    if &*existing == name.as_bytes() {
                        taken = true;
                        break;
                    }
                }
            }
        }
        self.dir_scratch = entries;
        if taken {
            return Err(PlaneError::NameTaken(name.to_string()));
        }
        Ok(())
    }

    /// [`ControlPlane::xl_name_scan`] charged without executing it, when
    /// the store's `/local/domain` tally shows no `name` node holds
    /// `name`: the scan then reads every numeric entry, finds no
    /// collision, and [`Xenstored::replay_name_scan`] charges exactly
    /// that in O(1). Returns the requests it stood in for, or `None`
    /// having charged nothing when the name may be taken, so the real
    /// scan reproduces `NameTaken` with its early-exit charges.
    pub(crate) fn xl_name_scan_closed_form(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        name: &str,
    ) -> Option<u64> {
        let tally = self.xs.store().domain_tally();
        if tally.may_hold_name(name.as_bytes()) {
            return None;
        }
        // The real scan interns `<entry>/name` for every entry it reads.
        // Guests interned theirs when they registered; Dom0's directory
        // has no `name` node, so intern its path here, as the scan
        // would. This keeps the interned-symbol counts that churn's
        // artefacts print, and so the committed bytes, unchanged.
        let dom0 = self.xs.domain_dir_sym(0);
        if self.xs.store().exists(dom0) {
            self.xs.child_sym(dom0, "name");
        }
        Some(self.xs.replay_name_scan(cost, meter))
    }

    /// Writes the domain's registration records (name, memory, console,
    /// /vm bookkeeping) in a transaction. xl writes the full set; chaos
    /// a lean subset.
    pub(crate) fn xs_register_domain(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
        name: &str,
    ) -> Result<(), PlaneError> {
        let full = self.mode == ToolstackMode::Xl;
        // Pre-intern the whole per-domain skeleton once; the transaction
        // body (including conflict retries) then allocates nothing.
        let d = self.xs.domain_dir_sym(dom.0);
        let d_name = self.xs.child_sym(d, "name");
        let d_domid = self.xs.child_sym(d, "domid");
        let d_memory = self.xs.child_sym(d, "memory");
        let d_mem_target = self.xs.child_sym(d_memory, "target");
        let d_console = self.xs.child_sym(d, "console");
        let d_con_ring = self.xs.child_sym(d_console, "ring-ref");
        let d_con_port = self.xs.child_sym(d_console, "port");
        let d_ctrl_shutdown = self.xs.control_shutdown_sym(dom.0);
        let mut dom_buf = [0u8; 10];
        let dom_s = u32_str(&mut dom_buf, dom.0);
        let full_syms = if full {
            let vm = self.xs.vm_dir_sym(dom.0);
            let d_store = self.xs.child_sym(d, "store");
            Some([
                self.xs.child_sym(vm, "uuid"),
                self.xs.child_sym(vm, "name"),
                self.xs.child_sym(self.xs.child_sym(vm, "image"), "ostype"),
                self.xs.child_sym(vm, "start_time"),
                self.xs.child_sym(d_memory, "static-max"),
                self.xs.child_sym(self.xs.child_sym(d, "cpu"), "0"),
                self.xs.child_sym(d_store, "ring-ref"),
                self.xs.child_sym(d_store, "port"),
            ])
        } else {
            None
        };
        self.stormy_registration(cost, meter, "domain registration", |xs, cost, meter| {
            xs.transaction(cost, meter, 0, xsdev::TXN_RETRIES, |xs, cost, meter, id| {
                xs.txn_write(cost, meter, 0, id, d_name, name.as_bytes())?;
                xs.txn_write(cost, meter, 0, id, d_domid, dom_s.as_bytes())?;
                xs.txn_write(cost, meter, 0, id, d_mem_target, b"mem")?;
                xs.txn_write(cost, meter, 0, id, d_con_ring, b"0")?;
                xs.txn_write(cost, meter, 0, id, d_con_port, b"0")?;
                xs.txn_write(cost, meter, 0, id, d_ctrl_shutdown, b"")?;
                if let Some([vm_uuid, vm_name, vm_ostype, vm_start, d_static_max, d_cpu0, d_store_ring, d_store_port]) = full_syms {
                    xs.txn_write(cost, meter, 0, id, vm_uuid, b"0000-0000")?;
                    xs.txn_write(cost, meter, 0, id, vm_name, name.as_bytes())?;
                    xs.txn_write(cost, meter, 0, id, vm_ostype, b"linux")?;
                    xs.txn_write(cost, meter, 0, id, vm_start, b"0")?;
                    xs.txn_write(cost, meter, 0, id, d_static_max, b"max")?;
                    xs.txn_write(cost, meter, 0, id, d_cpu0, b"online")?;
                    xs.txn_write(cost, meter, 0, id, d_store_ring, b"1")?;
                    xs.txn_write(cost, meter, 0, id, d_store_port, b"1")?;
                }
                Ok(())
            })
        })?;
        Ok(())
    }

    /// Lets the back-ends drain their shared watch queue (device
    /// allocation + hotplug). The `kind` argument documents what the
    /// caller just announced; dispatch is by event path.
    pub(crate) fn process_backend_events(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        kind: DeviceKind,
    ) -> Result<(), PlaneError> {
        // Not a swallowed error: `kind` exists to make call sites
        // self-describing (dispatch really is by event path).
        let _ = kind;
        let mut events = std::mem::take(&mut self.xs_events);
        let result = xsdev::backend_process_events(
            &mut self.xs, &mut self.hv,
            &mut [&mut self.net, &mut self.blk, &mut self.console],
            &mut self.switch, self.mode.hotplug(), cost, meter, &mut events,
            &mut self.faults,
        );
        self.xs_events = events;
        result?;
        Ok(())
    }

    /// Pre-fills the shell pool for an image flavor (what the chaos
    /// daemon does in the background before any create arrives).
    pub fn prewarm(&mut self, image: &GuestImage) {
        if self.mode.uses_split() {
            self.daemon_refill(image);
        }
    }

    /// Refills the shell pool (background work, not on the create path).
    fn daemon_refill(&mut self, image: &GuestImage) {
        let cost = self.cost();
        while self.daemon.len() < self.daemon.target {
            let mut m = Meter::new();
            match self.prepare_shell(&cost, &mut m, image) {
                Ok(shell) => {
                    self.daemon.put(shell);
                    // Background (daemon) work.
                    for cat in Category::ALL {
                        self.background_meter.charge(cat, m.of(cat));
                    }
                }
                // e.g. out of memory or an injected fault: the failed
                // prepare rolled itself back; stop this refill round.
                Err(_) => {
                    self.daemon.note_refill_failure();
                    break;
                }
            }
        }
    }

    /// Prepare phase (paper Figure 8, steps 1-5): hypervisor
    /// reservation, compute allocation, memory reservation and
    /// preparation, device pre-creation. A failed prepare rolls its
    /// half-built shell back instead of leaking the domain.
    fn prepare_shell(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        image: &GuestImage,
    ) -> Result<VmShell, PlaneError> {
        let dom = self.hv.create_domain(
            cost,
            meter,
            &DomainConfig {
                max_mem_mib: image.mem_mib,
                vcpus: image.vcpus,
            },
        )?;
        match self.prepare_shell_inner(cost, meter, dom, image) {
            Ok(()) => Ok(VmShell {
                dom,
                mem_mib: image.mem_mib,
                vcpus: image.vcpus,
                has_net: image.needs_net,
            }),
            Err(e) => {
                self.rollback_partial_create(cost, meter, dom, image);
                Err(e)
            }
        }
    }

    fn prepare_shell_inner(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
        image: &GuestImage,
    ) -> Result<(), PlaneError> {
        let mem = self.effective_mem_mib(image);
        self.hv.populate_physmap(cost, meter, dom, mem)?;
        if self.mode.uses_xenstore() {
            self.xs.connect(dom.0);
            self.xs_register_domain(cost, meter, dom, &format!("shell-{}", dom.0))?;
            for devid in net_ids(image) {
                let mac = Backend::mac_for(dom, devid);
                xsdev::toolstack_announce_device(
                    &mut self.xs, cost, meter, DeviceKind::Net, dom, devid, &mac,
                )?;
                self.process_backend_events(cost, meter, DeviceKind::Net)?;
            }
            if image.needs_console {
                xsdev::toolstack_announce_device(
                    &mut self.xs, cost, meter, DeviceKind::Console, dom, 0, "",
                )?;
                self.process_backend_events(cost, meter, DeviceKind::Console)?;
            }
        } else {
            noxs_driver::setup_device_page(&mut self.hv, cost, meter, dom)?;
            self.sysctl.setup(&mut self.hv, cost, meter, dom)?;
            for devid in net_ids(image) {
                noxs_driver::create_device(
                    &mut self.hv, &mut self.net, &mut self.switch, self.mode.hotplug(),
                    cost, meter, dom, devid, &mut self.faults,
                )?;
            }
            if image.needs_console {
                noxs_driver::create_device(
                    &mut self.hv, &mut self.console, &mut self.switch, self.mode.hotplug(),
                    cost, meter, dom, 0, &mut self.faults,
                )?;
            }
        }
        Ok(())
    }

    /// Compensating teardown for a create/prepare that failed after its
    /// domain existed. Undoes, in reverse creation order, everything the
    /// aborted create *may* have set up — backend devices, switch ports,
    /// store nodes and watches, the store connection, and the domain
    /// itself (whose destruction reaps memory, event channels, grants
    /// and the device page). Every step tolerates never-created state,
    /// so the host ends byte-for-byte where it started regardless of
    /// which phase failed.
    fn rollback_partial_create(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
        image: &GuestImage,
    ) {
        if self.mode.uses_xenstore() {
            // Absence errors are the expected no-op on every rollback
            // step below: the aborted create may have failed before
            // reaching the device/dir in question, so "already gone" is
            // normal. Anything else is counted — it may mask a leak.
            for devid in net_ids(image) {
                if let Err(e) = xsdev::destroy_device_via_xenstore(
                    &mut self.xs, &mut self.hv, &mut self.net, &mut self.switch,
                    self.mode.hotplug(), cost, meter, dom, devid,
                ) {
                    if !xsdev_err_is_absence(&e) {
                        self.teardown_errors.xsdev += 1;
                    }
                }
            }
            for devid in blk_ids(image) {
                if let Err(e) = xsdev::destroy_device_via_xenstore(
                    &mut self.xs, &mut self.hv, &mut self.blk, &mut self.switch,
                    self.mode.hotplug(), cost, meter, dom, devid,
                ) {
                    if !xsdev_err_is_absence(&e) {
                        self.teardown_errors.xsdev += 1;
                    }
                }
            }
            if image.needs_console {
                if let Err(e) = xsdev::destroy_device_via_xenstore(
                    &mut self.xs, &mut self.hv, &mut self.console, &mut self.switch,
                    self.mode.hotplug(), cost, meter, dom, 0,
                ) {
                    if !xsdev_err_is_absence(&e) {
                        self.teardown_errors.xsdev += 1;
                    }
                }
            }
            // `NotFound` is expected for both dirs: registration may not
            // have run at all, and `/vm/<d>` is only written by xl's
            // registration transaction in the first place.
            let d = self.xs.domain_dir_sym(dom.0);
            if let Err(e) = self.xs.rm(cost, meter, 0, d) {
                if e != XsError::NotFound {
                    self.teardown_errors.store_dirs += 1;
                }
            }
            let v = self.xs.vm_dir_sym(dom.0);
            if let Err(e) = self.xs.rm(cost, meter, 0, v) {
                if e != XsError::NotFound {
                    self.teardown_errors.store_dirs += 1;
                }
            }
            self.xs.disconnect(dom.0);
        } else {
            for devid in net_ids(image) {
                if let Err(e) = noxs_driver::destroy_device(
                    &mut self.hv, &mut self.net, &mut self.switch, self.mode.hotplug(),
                    cost, meter, dom, devid,
                ) {
                    if !noxs_err_is_absence(&e) {
                        self.teardown_errors.noxs += 1;
                    }
                }
            }
            if image.needs_console {
                if let Err(e) = noxs_driver::destroy_device(
                    &mut self.hv, &mut self.console, &mut self.switch, self.mode.hotplug(),
                    cost, meter, dom, 0,
                ) {
                    if !noxs_err_is_absence(&e) {
                        self.teardown_errors.noxs += 1;
                    }
                }
            }
            self.blk.drop_domain(dom);
            self.sysctl.drop_domain(dom);
        }
        self.switch.drop_domain(dom);
        // The domain exists on every path into rollback (it was created
        // first), so any destroy failure at all is anomalous.
        if self.hv.destroy(cost, meter, dom).is_err() {
            self.teardown_errors.hv_destroy += 1;
        }
    }

    // --- boot -----------------------------------------------------------------

    /// Boots a created VM: unpause, guest-side device connection, guest
    /// boot work under CPU contention. Returns the boot latency.
    pub fn boot_vm(&mut self, dom: DomId) -> Result<SimTime, PlaneError> {
        let cost = self.cost();
        let mut meter = Meter::new();
        let (image, core, net_devids, blk_devids) = {
            let vm = self.vms.get(&dom).ok_or(PlaneError::NoSuchVm)?;
            (
                vm.image.clone(),
                vm.core,
                vm.net_devids.clone(),
                vm.blk_devids.clone(),
            )
        };
        self.hv.unpause(&cost, &mut meter, dom)?;

        if self.mode.uses_xenstore() {
            // The guest registers its watches, then retrieves what the
            // back-end published and connects. Tokens are cached and
            // shared across guests (every guest names them the same way).
            let d = self.xs.domain_dir_sym(dom.0);
            while self.fe_tokens.len() < image.watches as usize {
                self.fe_tokens
                    .push(format!("fe-{}", self.fe_tokens.len()).into());
            }
            for w in 0..image.watches as usize {
                let token = Arc::clone(&self.fe_tokens[w]);
                self.xs.watch(&cost, &mut meter, dom.0, d, token);
            }
            self.xs.drain_events(&cost, &mut meter, dom.0);
            if let Err(e) =
                self.connect_frontends(&cost, &mut meter, dom, &net_devids, &blk_devids, &image)
            {
                // Aborted boot: unregister the watches registered above
                // and drop any events they fired, so the watch table and
                // queues return to their pre-boot state. The domain
                // itself stays created; the caller decides its fate.
                for w in 0..image.watches as usize {
                    // These watches were registered a few lines up, so
                    // any unwatch failure at all is anomalous (a leaked
                    // watch-table entry).
                    if self
                        .xs
                        .unwatch(&cost, &mut meter, dom.0, d, &self.fe_tokens[w])
                        .is_err()
                    {
                        self.teardown_errors.unwatch += 1;
                    }
                }
                self.xs.drain_events(&cost, &mut meter, dom.0);
                return Err(e);
            }
        } else {
            noxs_driver::guest_connect_devices(
                &mut self.hv,
                &mut [&mut self.net, &mut self.blk, &mut self.console],
                &cost,
                &mut meter,
                dom,
                &mut self.faults,
            )?;
        }

        // Guest boot work under processor sharing on its core.
        let probe = self.cpu.add_finite(core, image.boot_work.max(1e-9));
        // Invariant: `add_finite` just inserted the probe, so it must
        // have a rate; a miss means CpuSim's bookkeeping is corrupt.
        let rate = self
            .cpu
            .rate_of(probe)
            .expect("CpuSim lost a finite task it just admitted");
        self.cpu.remove(probe);
        let peers = self.cpu.tasks_on_core(core);
        meter.charge(Category::Other, image.boot_latency(&cost, rate, peers));

        // The guest is now resident: register its idle churn.
        let bg = self.cpu.add_background(core, image.idle_demand);
        self.dom0_load_total += image.dom0_load;
        // Re-fetch fallibly: the connect phase above can in principle
        // tear state down, and a vanished record should surface as an
        // error, not a panic.
        let vm = Arc::make_mut(self.vms.get_mut(&dom).ok_or(PlaneError::NoSuchVm)?);
        vm.bg = Some(bg);
        if !vm.booted {
            self.booted_watches += image.watches;
        }
        vm.booted = true;
        self.refresh_interference();
        Ok(meter.total())
    }

    /// Front-end connection for every device of a booting guest; split
    /// out so `boot_vm` can unwind its watch registrations on failure.
    fn connect_frontends(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
        net_devids: &[u32],
        blk_devids: &[u32],
        image: &GuestImage,
    ) -> Result<(), PlaneError> {
        for &devid in net_devids {
            xsdev::frontend_connect_via_xenstore(
                &mut self.xs, &mut self.hv, &mut self.net, cost, meter, dom, devid,
                &mut self.faults,
            )?;
        }
        for &devid in blk_devids {
            xsdev::frontend_connect_via_xenstore(
                &mut self.xs, &mut self.hv, &mut self.blk, cost, meter, dom, devid,
                &mut self.faults,
            )?;
        }
        if image.needs_console {
            xsdev::frontend_connect_via_xenstore(
                &mut self.xs, &mut self.hv, &mut self.console, cost, meter, dom, 0,
                &mut self.faults,
            )?;
        }
        Ok(())
    }

    /// `create_vm` + `boot_vm`. A guest that created but failed to boot
    /// is torn down in full: the failure is recorded and the host keeps
    /// running, with nothing of the dead guest left behind.
    pub fn create_and_boot(
        &mut self,
        name: &str,
        image: &GuestImage,
    ) -> Result<(DomId, SimTime, SimTime), PlaneError> {
        let (report, boot) = self.create_and_boot_report(name, image)?;
        Ok((report.dom, report.total(), boot))
    }

    /// [`ControlPlane::create_and_boot`] keeping the full
    /// [`CreateReport`] (per-category breakdown) instead of just the
    /// create total.
    pub fn create_and_boot_report(
        &mut self,
        name: &str,
        image: &GuestImage,
    ) -> Result<(CreateReport, SimTime), PlaneError> {
        let report = self.create_vm(name, image)?;
        match self.boot_vm(report.dom) {
            Ok(boot) => Ok((report, boot)),
            Err(e) => {
                self.create_failures += 1;
                // The guest was fully created, so its teardown should
                // succeed outright; the boot failure is what we report,
                // but a destroy failure on top of it is counted.
                if self.destroy_vm(report.dom).is_err() {
                    self.teardown_errors.boot_unwind += 1;
                }
                Err(e)
            }
        }
    }

    // --- destroy --------------------------------------------------------------

    /// Destroys a VM, releasing everything. Returns the teardown latency.
    pub fn destroy_vm(&mut self, dom: DomId) -> Result<SimTime, PlaneError> {
        let cost = self.cost();
        let mut meter = Meter::new();
        let vm = self.vms.remove(&dom).ok_or(PlaneError::NoSuchVm)?;
        if let Some(n) = self.image_instances.get_mut(&vm.image.name) {
            *n = n.saturating_sub(1);
        }
        if let Some(bg) = vm.bg {
            self.cpu.remove(bg);
        }
        if vm.booted {
            self.dom0_load_total = (self.dom0_load_total - vm.image.dom0_load).max(0.0);
            self.booted_watches -= vm.image.watches;
        }
        if self.mode.uses_xenstore() {
            // The devids below were recorded when the create succeeded,
            // so the devices exist; still, an "already gone" error
            // cannot mask a leak (there is nothing left to free), so
            // only non-absence errors are counted.
            for devid in &vm.net_devids {
                if let Err(e) = xsdev::destroy_device_via_xenstore(
                    &mut self.xs, &mut self.hv, &mut self.net, &mut self.switch,
                    self.mode.hotplug(), &cost, &mut meter, dom, *devid,
                ) {
                    if !xsdev_err_is_absence(&e) {
                        self.teardown_errors.xsdev += 1;
                    }
                }
            }
            for devid in &vm.blk_devids {
                if let Err(e) = xsdev::destroy_device_via_xenstore(
                    &mut self.xs, &mut self.hv, &mut self.blk, &mut self.switch,
                    self.mode.hotplug(), &cost, &mut meter, dom, *devid,
                ) {
                    if !xsdev_err_is_absence(&e) {
                        self.teardown_errors.xsdev += 1;
                    }
                }
            }
            if vm.image.needs_console {
                if let Err(e) = xsdev::destroy_device_via_xenstore(
                    &mut self.xs, &mut self.hv, &mut self.console, &mut self.switch,
                    self.mode.hotplug(), &cost, &mut meter, dom, 0,
                ) {
                    if !xsdev_err_is_absence(&e) {
                        self.teardown_errors.xsdev += 1;
                    }
                }
            }
            let d = self.xs.domain_dir_sym(dom.0);
            if let Err(e) = self.xs.rm(&cost, &mut meter, 0, d) {
                if e != XsError::NotFound {
                    self.teardown_errors.store_dirs += 1;
                }
            }
            // `/vm/<d>` only exists in Xl mode (chaos's registration
            // writes `/local/domain/<d>` alone), so `NotFound` here is
            // the expected no-op for the chaos [XS] modes.
            let v = self.xs.vm_dir_sym(dom.0);
            if let Err(e) = self.xs.rm(&cost, &mut meter, 0, v) {
                if e != XsError::NotFound {
                    self.teardown_errors.store_dirs += 1;
                }
            }
            self.xs.disconnect(dom.0);
        } else {
            for devid in &vm.net_devids {
                if let Err(e) = noxs_driver::destroy_device(
                    &mut self.hv, &mut self.net, &mut self.switch, self.mode.hotplug(),
                    &cost, &mut meter, dom, *devid,
                ) {
                    if !noxs_err_is_absence(&e) {
                        self.teardown_errors.noxs += 1;
                    }
                }
            }
            if vm.image.needs_console {
                if let Err(e) = noxs_driver::destroy_device(
                    &mut self.hv, &mut self.console, &mut self.switch, self.mode.hotplug(),
                    &cost, &mut meter, dom, 0,
                ) {
                    if !noxs_err_is_absence(&e) {
                        self.teardown_errors.noxs += 1;
                    }
                }
            }
            self.blk.drop_domain(dom);
            self.sysctl.drop_domain(dom);
        }
        self.hv.destroy(&cost, &mut meter, dom)?;
        self.refresh_interference();
        Ok(meter.total())
    }
}

fn net_ids(image: &GuestImage) -> Vec<u32> {
    if image.needs_net {
        vec![0]
    } else {
        Vec::new()
    }
}

fn blk_ids(image: &GuestImage) -> Vec<u32> {
    if image.needs_block {
        vec![0]
    } else {
        Vec::new()
    }
}
