//! Primitive cost constants and per-category accounting.
//!
//! Every mechanism in the reproduction is implemented for real (stores,
//! transactions, handshakes, schedulers); only the *primitive* costs — a
//! software interrupt, a domain crossing, loading one MB — are constants,
//! calibrated here against the numbers reported in the paper (§4, §6).
//! The [`Meter`] reproduces the creation-overhead categorisation of
//! Figure 5.

use std::fmt;

use crate::time::SimTime;

/// Overhead categories used by the instrumented toolstack (paper §4.2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Category {
    /// Parsing the VM configuration file.
    Config,
    /// Interacting with the hypervisor (memory, vCPUs, ...).
    Hypervisor,
    /// Reading from / writing to the XenStore.
    Xenstore,
    /// Creating and configuring virtual devices.
    Devices,
    /// Parsing the kernel image and loading it into memory.
    Load,
    /// Toolstack-internal state keeping.
    Toolstack,
    /// Anything outside the Figure 5 categories (boot, networking, ...).
    Other,
}

impl Category {
    /// Number of categories (the [`Meter`]'s array length).
    pub const COUNT: usize = 7;

    /// All categories in the order Figure 5 stacks them.
    pub const ALL: [Category; Category::COUNT] = [
        Category::Toolstack,
        Category::Load,
        Category::Devices,
        Category::Xenstore,
        Category::Hypervisor,
        Category::Config,
        Category::Other,
    ];

    /// Short label used by figure harnesses.
    pub fn label(self) -> &'static str {
        match self {
            Category::Config => "config",
            Category::Hypervisor => "hypervisor",
            Category::Xenstore => "xenstore",
            Category::Devices => "devices",
            Category::Load => "load",
            Category::Toolstack => "toolstack",
            Category::Other => "other",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Accumulates virtual-time cost by [`Category`].
///
/// Subsystems charge their work here; the toolstack snapshots the meter
/// before and after an operation to produce a breakdown. One slot per
/// category, indexed by the enum: a charge is an add, and a copy is a
/// memcpy.
#[derive(Clone, Copy, Debug, Default)]
pub struct Meter {
    total: SimTime,
    by_cat: [SimTime; Category::COUNT],
}

impl Meter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Meter::default()
    }

    /// Charges `dt` to `cat`, returning `dt` for chaining.
    pub fn charge(&mut self, cat: Category, dt: SimTime) -> SimTime {
        self.total += dt;
        self.by_cat[cat as usize] += dt;
        dt
    }

    /// Total charged across all categories.
    pub fn total(&self) -> SimTime {
        self.total
    }

    /// Amount charged to one category.
    pub fn of(&self, cat: Category) -> SimTime {
        self.by_cat[cat as usize]
    }

    /// Difference against an earlier snapshot of the same meter.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not a prefix of `self`
    /// (i.e. has more charge in some category).
    pub fn since(&self, earlier: &Meter) -> Meter {
        let mut out = Meter::new();
        for cat in Category::ALL {
            let d = self.of(cat).saturating_sub(earlier.of(cat));
            debug_assert!(self.of(cat) >= earlier.of(cat), "meter went backwards");
            if !d.is_zero() {
                out.charge(cat, d);
            }
        }
        out
    }
}

macro_rules! cost_model {
    ($($(#[$doc:meta])* $name:ident = $default:expr;)*) => {
        /// Calibrated primitive costs of the paper's testbed.
        ///
        /// Defaults come from [`CostModel::paper_defaults`], anchored to the
        /// Xeon E5-1630 v3 machine; other machines use [`CostModel::scaled`].
        #[derive(Clone, Debug)]
        pub struct CostModel {
            $( $(#[$doc])* pub $name: SimTime, )*
        }

        impl CostModel {
            /// The calibration described in DESIGN.md §4.
            pub fn paper_defaults() -> Self {
                CostModel { $( $name: $default, )* }
            }

            /// Returns a copy with every time cost multiplied by `factor`
            /// (used for slower/faster per-core machines).
            pub fn scaled(&self, factor: f64) -> Self {
                CostModel { $( $name: self.$name.scale(factor), )* }
            }
        }
    };
}

cost_model! {
    // --- XenStore wire protocol (paper §4.2) -----------------------------
    /// One software interrupt (event-channel notification).
    xs_soft_interrupt = SimTime::from_micros_f64(3.0);
    /// One privilege-domain crossing (guest <-> hypervisor <-> Dom0).
    xs_domain_crossing = SimTime::from_micros_f64(1.5);
    /// Store-side processing of one request, excluding payload and watches.
    xs_process_base = SimTime::from_micros_f64(12.0);
    /// Per payload byte (marshalling + copying).
    xs_payload_per_byte = SimTime::from_nanos(6);
    /// Appending one line to the access log.
    xs_log_line = SimTime::from_micros_f64(18.0);
    /// Rotating one of the 20 log files.
    xs_log_rotate_per_file = SimTime::from_millis_f64(9.0);
    /// Checking one registered watch against a written path.
    xs_watch_check = SimTime::from_nanos(250);
    /// Delivering one fired watch event to its owner.
    xs_watch_fire = SimTime::from_micros_f64(22.0);
    /// Per-connection poll overhead added to every request.
    xs_poll_per_conn = SimTime::from_nanos(700);
    /// Copy-on-write snapshot of one store node at transaction start.
    xs_txn_snapshot_per_node = SimTime::from_nanos(900);
    /// Validating one store node at transaction commit.
    xs_txn_validate_per_node = SimTime::from_nanos(450);
    /// Listing one entry of a directory node.
    xs_dir_per_entry = SimTime::from_nanos(1200);

    // --- Hypervisor -------------------------------------------------------
    /// Fixed cost of any hypercall (trap + dispatch).
    hypercall_base = SimTime::from_micros_f64(2.0);
    /// `XEN_DOMCTL_createdomain`: allocate domain structures.
    domctl_create = SimTime::from_micros_f64(300.0);
    /// Reserving a memory range for a guest (bookkeeping).
    mem_reserve_base = SimTime::from_micros_f64(180.0);
    /// Preparing (scrub + p2m + page-table build) one MiB of guest
    /// memory.
    mem_prep_per_mib = SimTime::from_micros_f64(1200.0);
    /// Creating one vCPU.
    vcpu_create = SimTime::from_micros_f64(140.0);
    /// One event-channel operation (alloc/bind/send/close).
    evtchn_op = SimTime::from_micros_f64(1.2);
    /// One grant-table operation (grant/map/unmap).
    grant_op = SimTime::from_micros_f64(1.6);
    /// Setting up the read-only noxs device memory page for a guest.
    noxs_page_setup = SimTime::from_micros_f64(40.0);
    /// One noxs hypercall writing/reading a device page entry.
    noxs_page_op = SimTime::from_micros_f64(5.0);
    /// Destroying a domain (per call, excluding per-MiB teardown).
    domctl_destroy = SimTime::from_micros_f64(400.0);
    /// Releasing one MiB of guest memory.
    mem_release_per_mib = SimTime::from_micros_f64(12.0);

    // --- Toolstack ---------------------------------------------------------
    /// xl/libxl internal state keeping per operation.
    xl_internal = SimTime::from_millis_f64(7.0);
    /// chaos/libchaos internal state keeping per operation.
    chaos_internal = SimTime::from_micros_f64(700.0);
    /// Parsing a VM configuration file (fixed part).
    config_parse_base = SimTime::from_micros_f64(500.0);
    /// Parsing one byte of configuration.
    config_parse_per_byte = SimTime::from_nanos(25);
    /// Parsing/validating a kernel image header.
    image_parse_base = SimTime::from_micros_f64(200.0);
    /// Reading + laying out one MiB of kernel image (ramdisk-backed).
    image_load_per_mib = SimTime::from_micros_f64(900.0);
    /// Decompressing + unpacking one MiB of a Linux kernel/initramfs
    /// (unikernels are loaded raw).
    kernel_decompress_per_mib = SimTime::from_micros_f64(24_000.0);
    /// Waiting for udev to deliver a hotplug event to a script.
    udev_deliver = SimTime::from_millis_f64(11.0);
    /// Forking + executing one bash hotplug script.
    hotplug_bash = SimTime::from_millis_f64(28.0);
    /// xendevd handling one hotplug event (no fork, no bash).
    hotplug_xendevd = SimTime::from_micros_f64(250.0);
    /// xl spawning the per-guest qemu device model (PV console/qdisk
    /// backend; chaos does not need one).
    xl_qemu_spawn = SimTime::from_millis_f64(32.0);

    // --- Devices ------------------------------------------------------------
    /// Backend allocating internal structures for one vif/vbd.
    backend_setup = SimTime::from_millis_f64(1.8);
    /// Adding a port to the software switch.
    switch_add_port = SimTime::from_micros_f64(450.0);
    /// Removing a port from the software switch.
    switch_del_port = SimTime::from_micros_f64(300.0);
    /// noxs backend ioctl (device create request through /dev/noxs).
    noxs_ioctl = SimTime::from_micros_f64(18.0);
    /// One xenbus state-machine transition processed by a driver.
    xenbus_transition = SimTime::from_micros_f64(60.0);
    /// Front/back exchanging device parameters over a control page.
    ctrl_page_exchange = SimTime::from_micros_f64(35.0);

    // --- Fault handling ----------------------------------------------------
    /// Watchdog timeout the toolstack waits before declaring a
    /// control-plane phase (hotplug dispatch, xenbus handshake) stalled.
    fault_watchdog_timeout = SimTime::from_millis_f64(5.0);
    /// Base backoff before retrying a failed phase; doubles per retry,
    /// capped at 8x (see `FaultPlan::backoff`).
    fault_backoff_base = SimTime::from_micros_f64(500.0);
    /// Fixed cost of xenstored crashing and re-exec'ing (process spawn +
    /// tdb open), before log replay.
    xs_daemon_restart = SimTime::from_millis_f64(6.0);
    /// Replaying one store node from the persisted database / access log
    /// when xenstored restarts.
    xs_restart_replay_per_node = SimTime::from_micros_f64(2.0);

    // --- Scheduling ------------------------------------------------------------
    /// Added wake-up latency per resident VM on the same core: each time a
    /// booting guest sleeps and wakes (udev settles, initramfs steps), it
    /// re-queues behind its core's runnable peers. This is what makes
    /// Tinyx/Debian boots grow with density (Figure 11) while unikernels
    /// and containers stay flat.
    sched_wake_per_vm = SimTime::from_micros_f64(42.0);

    // --- Containers & processes ---------------------------------------------
    /// fork + exec of a plain process (paper: 3.5 ms avg, 9 ms p90).
    process_fork_exec = SimTime::from_millis_f64(3.3);
    /// One Docker daemon RPC round trip (client -> dockerd -> containerd).
    docker_daemon_rpc = SimTime::from_millis_f64(25.0);
    /// Mounting one image layer (overlayfs).
    docker_layer_mount = SimTime::from_millis_f64(9.0);
    /// Creating the namespaces for a container.
    docker_namespace_setup = SimTime::from_millis_f64(14.0);
    /// Creating and configuring the container cgroups.
    docker_cgroup_setup = SimTime::from_millis_f64(11.0);
    /// veth pair creation + bridge attach.
    docker_veth_setup = SimTime::from_millis_f64(17.0);
    /// Per existing container bookkeeping on the daemon's hot path.
    docker_daemon_per_container = SimTime::from_micros_f64(90.0);

    // --- Checkpoint / migration ----------------------------------------------
    /// Writing one MiB of guest state to the ramdisk.
    ramdisk_write_per_mib = SimTime::from_micros_f64(650.0);
    /// Reading one MiB of guest state from the ramdisk.
    ramdisk_read_per_mib = SimTime::from_micros_f64(500.0);
    /// xl suspend handshake via XenStore control/shutdown + watch wait.
    xl_suspend_wait = SimTime::from_millis_f64(85.0);
    /// xl restore-side device reconnection wait (udev + xenbus).
    xl_restore_reconnect = SimTime::from_millis_f64(320.0);
    /// sysctl split-device suspend request -> guest acknowledgment.
    sysctl_suspend = SimTime::from_millis_f64(12.0);
    /// sysctl split-device resume.
    sysctl_resume = SimTime::from_millis_f64(6.0);
    /// libxc serialising guest context (regs, p2m, grant state) per
    /// domain.
    xc_context_save = SimTime::from_millis_f64(8.0);
    /// libxc restoring guest context per domain.
    xc_context_restore = SimTime::from_millis_f64(6.0);
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_accumulates_by_category() {
        let mut m = Meter::new();
        m.charge(Category::Xenstore, SimTime::from_millis(2));
        m.charge(Category::Xenstore, SimTime::from_millis(3));
        m.charge(Category::Devices, SimTime::from_millis(1));
        assert_eq!(m.total(), SimTime::from_millis(6));
        assert_eq!(m.of(Category::Xenstore), SimTime::from_millis(5));
        assert_eq!(m.of(Category::Devices), SimTime::from_millis(1));
        assert_eq!(m.of(Category::Config), SimTime::ZERO);
    }

    #[test]
    fn meter_since_gives_delta() {
        let mut m = Meter::new();
        m.charge(Category::Load, SimTime::from_millis(1));
        let snap = m;
        m.charge(Category::Load, SimTime::from_millis(2));
        m.charge(Category::Config, SimTime::from_millis(4));
        let d = m.since(&snap);
        assert_eq!(d.of(Category::Load), SimTime::from_millis(2));
        assert_eq!(d.of(Category::Config), SimTime::from_millis(4));
        assert_eq!(d.total(), SimTime::from_millis(6));
    }

    #[test]
    fn scaled_multiplies_every_field() {
        let base = CostModel::paper_defaults();
        let double = base.scaled(2.0);
        assert_eq!(double.xs_process_base, base.xs_process_base.scale(2.0));
        assert_eq!(double.hotplug_bash, base.hotplug_bash.scale(2.0));
        assert_eq!(
            double.docker_daemon_rpc,
            base.docker_daemon_rpc.scale(2.0)
        );
    }

    #[test]
    fn categories_index_the_meter_array_once_each() {
        let mut seen = [false; Category::COUNT];
        for cat in Category::ALL {
            assert!(
                !std::mem::replace(&mut seen[cat as usize], true),
                "{cat} twice"
            );
        }
    }

    #[test]
    fn categories_cover_figure_five() {
        let labels: Vec<&str> = Category::ALL.iter().map(|c| c.label()).collect();
        for want in ["toolstack", "load", "devices", "xenstore", "hypervisor", "config"] {
            assert!(labels.contains(&want), "missing category {want}");
        }
    }
}
