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

use devices::{xsdev, Backend, DevError, Hotplug, SoftwareSwitch};
use guests::GuestImage;
use hypervisor::{DeviceKind, DomId, DomainConfig, Hypervisor, HvError};
use noxs::{driver as noxs_driver, sysctl};
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
    /// Every mode, in Figure 9's order.
    pub const ALL: [ToolstackMode; 5] = [
        ToolstackMode::Xl,
        ToolstackMode::ChaosXs,
        ToolstackMode::ChaosXsSplit,
        ToolstackMode::ChaosNoxs,
        ToolstackMode::LightVm,
    ];

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

    /// This mode's entry in a row of per-toolstack data: xl's, chaos's
    /// over the XenStore, or chaos's over noxs. Save, restore and
    /// migration keep their declared mechanism differences as such rows
    /// at their call sites.
    pub(crate) fn pick<T>(self, xl: T, chaos_xs: T, noxs: T) -> T {
        match self {
            ToolstackMode::Xl => xl,
            ToolstackMode::ChaosXs | ToolstackMode::ChaosXsSplit => chaos_xs,
            ToolstackMode::ChaosNoxs | ToolstackMode::LightVm => noxs,
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

    /// Command-line name (`chaos --mode`), which [`str::parse`] reads
    /// back.
    pub fn name(self) -> &'static str {
        match self {
            ToolstackMode::Xl => "xl",
            ToolstackMode::ChaosXs => "chaos-xs",
            ToolstackMode::ChaosXsSplit => "chaos-xs-split",
            ToolstackMode::ChaosNoxs => "chaos-noxs",
            ToolstackMode::LightVm => "lightvm",
        }
    }
}

impl std::str::FromStr for ToolstackMode {
    type Err = String;

    /// Parses a [`ToolstackMode::name`].
    fn from_str(s: &str) -> Result<ToolstackMode, String> {
        ToolstackMode::ALL
            .into_iter()
            .find(|mode| mode.name() == s)
            .ok_or_else(|| format!("unknown toolstack mode {s}"))
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
    /// Device-level failure. Never `DevError::Hv` or `DevError::Xs`:
    /// those arrive as [`PlaneError::Hv`] and [`PlaneError::Xs`].
    Dev(DevError),
    /// A control-plane phase timed out after bounded retries (names the
    /// phase that gave up).
    Timeout(&'static str),
    /// A migration between hosts whose toolstack modes differ (source,
    /// destination).
    ModeMismatch(ToolstackMode, ToolstackMode),
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
/// A device-layer failure keeps its one typed form: a hypercall or store
/// failure under the device is the plane's own `Hv` or `Xs`.
impl From<DevError> for PlaneError {
    fn from(e: DevError) -> Self {
        match e {
            DevError::Hv(e) => PlaneError::Hv(e),
            DevError::Xs(e) => PlaneError::Xs(e),
            e => PlaneError::Dev(e),
        }
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
            PlaneError::ModeMismatch(src, dst) => {
                write!(f, "cannot migrate from {} to {}", src.label(), dst.label())
            }
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
}

/// One device of a guest: its class and its device id.
pub type Device = (DeviceKind, u32);

/// A guest's devices in vif, vbd, console order, derived from its image
/// by [`DeviceList::of`]: the one list every lifecycle path creates,
/// connects and tears down. It is `Copy` and inline, so deriving it
/// allocates nothing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DeviceList {
    slots: [Device; 3],
    len: usize,
}

impl DeviceList {
    /// No devices.
    pub(crate) const NONE: DeviceList = DeviceList {
        slots: [(DeviceKind::Net, 0); 3],
        len: 0,
    };

    /// The devices `image` asks for, each with device id 0.
    pub fn of(image: &GuestImage) -> DeviceList {
        let mut list = DeviceList::NONE;
        for (kind, wanted) in [
            (DeviceKind::Net, image.needs_net),
            (DeviceKind::Block, image.needs_block),
            (DeviceKind::Console, image.needs_console),
        ] {
            if wanted {
                list.slots[list.len] = (kind, 0);
                list.len += 1;
            }
        }
        list
    }

    /// The devices of this list that `keep` accepts, in order.
    pub(crate) fn filter(self, keep: impl Fn(&Device) -> bool) -> DeviceList {
        let mut list = DeviceList::NONE;
        for &dev in self.iter().filter(|dev| keep(dev)) {
            list.slots[list.len] = dev;
            list.len += 1;
        }
        list
    }
}

impl std::ops::Deref for DeviceList {
    type Target = [Device];

    fn deref(&self) -> &[Device] {
        &self.slots[..self.len]
    }
}

/// A back-end borrowed together with the rest of Dom0 that a device
/// operation touches (see [`ControlPlane::backend`]).
struct BackendOps<'a> {
    backend: &'a mut Backend,
    xs: &'a mut Xenstored,
    hv: &'a mut Hypervisor,
    switch: &'a mut SoftwareSwitch,
    faults: &'a mut FaultPlan,
    hotplug: Hotplug,
}

/// Per-site counters for errors swallowed on teardown paths (destroy,
/// rollback, save and a migration's source).
///
/// Teardown must keep going whatever an individual step returns — a
/// half-created guest has half the state, so "nothing to remove" is
/// routine — but discarding *every* error silently can mask a leak
/// (a device that refuses to die stays in the backend table forever).
/// Each swallow site therefore classifies its error: absence
/// (`NotFound`-class — the thing is already gone, so nothing can have
/// leaked; [`DevError::is_absence`] for devices) stays silent with a
/// comment at the site saying why, and anything else increments the
/// site's counter here. The churn census reports the totals; monotone
/// growth between matching checkpoints is a leak fingerprint with the
/// site name attached.
///
/// These are cumulative counters, so the census treats them as
/// report-only (they are excluded from checkpoint equality).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct TeardownErrors {
    /// Device teardown, through the XenStore or noxs, failed with
    /// something other than "already gone".
    pub devices: u64,
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
        self.devices + self.store_dirs + self.hv_destroy + self.unwatch + self.boot_unwind
    }
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
    /// fold exactly). [`ControlPlane::census`] re-sums it in debug builds.
    pub(crate) booted_watches: u32,
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
        self.xs
            .set_ambient_interference((self.booted_watches as f64 * 1.2e-6).min(0.02));
    }

    // --- create ---------------------------------------------------------------

    /// Charges the toolstack's internal state keeping for one operation.
    pub(crate) fn charge_internal(&self, cost: &CostModel, meter: &mut Meter) {
        let internal = self.mode.pick(cost.xl_internal, cost.chaos_internal, cost.chaos_internal);
        meter.charge(Category::Toolstack, internal);
    }

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

        self.charge_internal(&cost, &mut meter);

        let created = if self.mode.uses_split() {
            let devices = DeviceList::of(image);
            match self.daemon.take(image.mem_mib, image.vcpus, devices) {
                Some(shell) => self
                    .finish_from_shell(&cost, &mut meter, shell, name)
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
            }),
        );

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
        let devices = DeviceList::of(image);
        self.build_or_rollback(cost, meter, dom, &devices, |cp, meter| {
            cp.provision(cost, meter, dom, name, image, &devices)
        })?;
        Ok(dom)
    }

    /// Everything `full_create` does once the domain exists: memory
    /// preparation, registration and device creation.
    fn provision(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
        name: &str,
        image: &GuestImage,
        devices: &[Device],
    ) -> Result<(), PlaneError> {
        // Under page sharing, repeat instances only populate their
        // unique pages.
        let mem = self.effective_mem_mib(image);
        self.hv.populate_physmap(cost, meter, dom, mem)?;

        if self.mode.uses_xenstore() {
            self.xs_register(cost, meter, dom, name)?;
            self.xs_create_devices(cost, meter, dom, devices)?;
            if self.mode == ToolstackMode::Xl {
                // xl spawns a qemu device model per guest (PV console and
                // qdisk backend).
                meter.charge(Category::Devices, cost.xl_qemu_spawn);
            }
        } else {
            self.noxs_register(cost, meter, dom)?;
            for &dev in devices {
                match dev.0 {
                    DeviceKind::Net => self.noxs_attach(cost, meter, dom, dev)?,
                    _ => self.noxs_attach_inline(cost, meter, dom, dev)?,
                }
            }
        }
        Ok(())
    }

    /// A full create's noxs attach of a vbd or console: the back-end
    /// ioctl and the device-page write, without the refusal and
    /// hotplug-timeout fault sites of [`noxs_driver::create_device`]
    /// (ROADMAP item 8 lists this difference).
    fn noxs_attach_inline(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
        (kind, devid): Device,
    ) -> Result<(), PlaneError> {
        meter.charge(Category::Devices, cost.noxs_ioctl);
        let ops = self.backend(kind);
        let (evtchn, grant) = ops.backend.alloc_device(ops.hv, cost, meter, dom, devid)?;
        let entry = hypervisor::DevicePageEntry {
            kind,
            devid,
            backend: DomId::DOM0,
            evtchn,
            grant,
        };
        self.hv.devpage_write(cost, meter, DomId::DOM0, dom, entry)?;
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
    ) -> Result<DomId, PlaneError> {
        let dom = shell.dom;
        self.build_or_rollback(cost, meter, dom, &shell.devices, |cp, meter| {
            if cp.mode.uses_xenstore() {
                cp.xs.connect(dom.0);
                // Finalise naming and device initialisation in a transaction:
                // the split toolstack still pays the store for VM-specific
                // records (why chaos [XS+split] grows to ~25 ms at 1,000
                // guests while chaos [NoXS] does not).
                let d = cp.xs.domain_dir_sym(dom.0);
                let d_name = cp.xs.child_sym(d, "name");
                let d_image = cp.xs.child_sym(d, "image");
                let d_mem_target = cp.xs.child_sym(cp.xs.child_sym(d, "memory"), "target");
                let d_con_ring = cp.xs.child_sym(cp.xs.child_sym(d, "console"), "ring-ref");
                let d_devinit = cp.xs.child_sym(d, "device-init");
                cp.stormy_registration(cost, meter, "shell finalisation", |xs, cost, meter| {
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
                    cost.ctrl_page_exchange * shell.devices.len().max(1) as u64,
                );
            }
            Ok(dom)
        })
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

    /// Connects the guest to the store and writes its registration
    /// records (name, memory, console, /vm bookkeeping) in a
    /// transaction. xl writes the full set; chaos a lean subset.
    pub(crate) fn xs_register(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
        name: &str,
    ) -> Result<(), PlaneError> {
        self.xs.connect(dom.0);
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
    /// allocation + hotplug); dispatch is by event path.
    fn process_backend_events(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
    ) -> Result<(), PlaneError> {
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
        let devices = DeviceList::of(image);
        self.build_or_rollback(cost, meter, dom, &devices, |cp, meter| {
            let mem = cp.effective_mem_mib(image);
            cp.hv.populate_physmap(cost, meter, dom, mem)?;
            if cp.mode.uses_xenstore() {
                cp.xs_register(cost, meter, dom, &format!("shell-{}", dom.0))?;
                cp.xs_create_devices(cost, meter, dom, &devices)
            } else {
                cp.noxs_register(cost, meter, dom)?;
                for &dev in devices.iter() {
                    cp.noxs_attach(cost, meter, dom, dev)?;
                }
                Ok(())
            }
        })?;
        Ok(VmShell {
            dom,
            mem_mib: image.mem_mib,
            vcpus: image.vcpus,
            devices,
        })
    }

    /// Runs `build` on `dom`, which already exists, and unwinds the
    /// domain through [`ControlPlane::rollback_partial_create`] if
    /// `build` fails. Every path that builds a guest goes through here:
    /// full create, shell prepare and finish, restore and the target
    /// side of a migration.
    pub(crate) fn build_or_rollback<T>(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
        devices: &[Device],
        build: impl FnOnce(&mut Self, &mut Meter) -> Result<T, PlaneError>,
    ) -> Result<T, PlaneError> {
        let built = build(self, meter);
        if built.is_err() {
            self.rollback_partial_create(cost, meter, dom, devices);
        }
        built
    }

    /// Compensating teardown for a build that failed after its domain
    /// existed. Undoes, in reverse creation order, everything the
    /// aborted build *may* have set up — backend devices, switch ports,
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
        devices: &[Device],
    ) {
        self.teardown(cost, meter, dom, devices);
        self.switch.drop_domain(dom);
        // The domain exists on every path into rollback (it was created
        // first), so any destroy failure at all is anomalous.
        if self.hv.destroy(cost, meter, dom).is_err() {
            self.teardown_errors.hv_destroy += 1;
        }
    }

    // --- devices --------------------------------------------------------------

    /// The back-end serving `kind`, borrowed with the rest of Dom0.
    fn backend(&mut self, kind: DeviceKind) -> BackendOps<'_> {
        let backend = match kind {
            DeviceKind::Net => &mut self.net,
            DeviceKind::Block => &mut self.blk,
            _ => &mut self.console,
        };
        BackendOps {
            backend,
            xs: &mut self.xs,
            hv: &mut self.hv,
            switch: &mut self.switch,
            faults: &mut self.faults,
            hotplug: self.mode.hotplug(),
        }
    }

    /// A create's XenStore device setup: `devices` announced in order,
    /// with a MAC in the back-end record of each vif only.
    fn xs_create_devices(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
        devices: &[Device],
    ) -> Result<(), PlaneError> {
        for &dev in devices {
            let mac = match dev.0 {
                DeviceKind::Net => Backend::mac_for(dom, dev.1),
                _ => String::new(),
            };
            self.xs_attach(cost, meter, dom, dev, &mac)?;
        }
        Ok(())
    }

    /// The toolstack announces one device through the XenStore, with
    /// `mac` in its back-end record, and the back-ends allocate it.
    pub(crate) fn xs_attach(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
        (kind, devid): Device,
        mac: &str,
    ) -> Result<(), PlaneError> {
        xsdev::toolstack_announce_device(&mut self.xs, cost, meter, kind, dom, devid, mac)?;
        self.process_backend_events(cost, meter)
    }

    /// The guest's half of one device's XenStore handshake.
    pub(crate) fn xs_connect(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
        (kind, devid): Device,
    ) -> Result<(), PlaneError> {
        let ops = self.backend(kind);
        xsdev::frontend_connect_via_xenstore(
            ops.xs, ops.hv, ops.backend, cost, meter, dom, devid, ops.faults,
        )?;
        Ok(())
    }

    /// Gives a new noxs guest its device page and its sysctl device:
    /// noxs's counterpart of [`ControlPlane::xs_register`].
    pub(crate) fn noxs_register(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
    ) -> Result<(), PlaneError> {
        noxs_driver::setup_device_page(&mut self.hv, cost, meter, dom)?;
        sysctl::setup(&mut self.hv, cost, meter, dom)?;
        Ok(())
    }

    /// One device through its back-end's noxs ioctl and the device page.
    pub(crate) fn noxs_attach(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
        (kind, devid): Device,
    ) -> Result<(), PlaneError> {
        let ops = self.backend(kind);
        noxs_driver::create_device(
            ops.hv, ops.backend, ops.switch, ops.hotplug, cost, meter, dom, devid, ops.faults,
        )?;
        Ok(())
    }

    /// The booting guest maps its device page and connects every device
    /// listed there.
    pub(crate) fn noxs_connect(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
    ) -> Result<(), PlaneError> {
        noxs_driver::guest_connect_devices(
            &mut self.hv,
            &mut [&mut self.net, &mut self.blk, &mut self.console],
            cost,
            meter,
            dom,
            &mut self.faults,
        )?;
        Ok(())
    }

    /// Tears down a guest that is leaving this host through its
    /// mechanism: removes `devices` through the XenStore handshake's
    /// teardown or the noxs driver, then, under the XenStore, removes
    /// `/local/domain/<d>` and `/vm/<d>` and disconnects the guest. The
    /// domain itself is the caller's; a noxs guest's sysctl device is a
    /// device-page entry and dies with it. A guest whose build failed
    /// may lack any of these, and `/vm/<d>` only exists under xl, so
    /// absence errors are routine and stay silent; anything else may
    /// mask a leak and is counted in [`TeardownErrors`].
    pub(crate) fn teardown(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
        devices: &[Device],
    ) {
        let xenstore = self.mode.uses_xenstore();
        for &(kind, devid) in devices {
            let ops = self.backend(kind);
            let torn = if xenstore {
                xsdev::destroy_device_via_xenstore(
                    ops.xs, ops.hv, ops.backend, ops.switch, ops.hotplug, cost, meter, dom, devid,
                )
            } else {
                noxs_driver::destroy_device(
                    ops.hv, ops.backend, ops.switch, ops.hotplug, cost, meter, dom, devid,
                )
            };
            if torn.is_err_and(|e| !e.is_absence()) {
                self.teardown_errors.devices += 1;
            }
        }
        if !xenstore {
            return;
        }
        for dir in [self.xs.domain_dir_sym(dom.0), self.xs.vm_dir_sym(dom.0)] {
            if let Err(e) = self.xs.rm(cost, meter, 0, dir) {
                if e != XsError::NotFound {
                    self.teardown_errors.store_dirs += 1;
                }
            }
        }
        self.xs.disconnect(dom.0);
    }

    /// Forgets a departed noxs guest's `devices` and switch ports
    /// without a charge: its domain is gone or going, and the
    /// hypervisor reaps their channels and grants.
    pub(crate) fn drop_backend_records(&mut self, dom: DomId, devices: &[Device]) {
        for &(kind, devid) in devices {
            self.backend(kind).backend.forget(dom, devid);
        }
        self.switch.drop_domain(dom);
    }

    // --- boot -----------------------------------------------------------------

    /// Boots a created VM: unpause, guest-side device connection, guest
    /// boot work under CPU contention. Returns the boot latency.
    pub fn boot_vm(&mut self, dom: DomId) -> Result<SimTime, PlaneError> {
        let cost = self.cost();
        let mut meter = Meter::new();
        let (image, core) = {
            let vm = self.vms.get(&dom).ok_or(PlaneError::NoSuchVm)?;
            (vm.image.clone(), vm.core)
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
            let connected = DeviceList::of(&image)
                .iter()
                .try_for_each(|&dev| self.xs_connect(&cost, &mut meter, dom, dev));
            if let Err(e) = connected {
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
            self.noxs_connect(&cost, &mut meter, dom)?;
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
        let devices = DeviceList::of(&self.vms.get(&dom).ok_or(PlaneError::NoSuchVm)?.image);
        self.depart(&cost, &mut meter, dom, devices, devices)?;
        Ok(meter.total())
    }
}
