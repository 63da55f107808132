//! Guest image definitions.

use simcore::{CostModel, SimTime};
use tinyx::{Platform, TinyxBuilder};

const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;

/// The guest family.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GuestKind {
    /// A Mini-OS-based unikernel.
    Unikernel,
    /// A Tinyx (minimal Linux) VM.
    Tinyx,
    /// A full distribution VM.
    Debian,
}

/// A bootable guest image plus its behavioural model.
#[derive(Clone, Debug)]
pub struct GuestImage {
    /// Image name (e.g. `daytime`, `tinyx-nginx`).
    pub name: String,
    /// Guest family.
    pub kind: GuestKind,
    /// On-disk (uncompressed) image size in bytes.
    pub image_bytes: u64,
    /// Running memory footprint in MiB (what the toolstack populates).
    pub mem_mib: u64,
    /// Virtual CPUs (1 for every preset; an xl config's `vcpus` sets it).
    pub vcpus: u32,
    /// CPU-seconds of guest-side boot work at reference core speed.
    pub boot_work: f64,
    /// Times the boot path sleeps and re-queues behind core peers
    /// (waiting for udev, initramfs steps, service starts).
    pub boot_yield_points: u32,
    /// Idle background CPU demand per instance, fraction of a core.
    pub idle_demand: f64,
    /// Dom0 housekeeping load per running instance (backend interrupts,
    /// xenstored churn), fraction of a core.
    pub dom0_load: f64,
    /// Watches a guest of this type registers when devices go through
    /// the XenStore.
    pub watches: u32,
    /// Whether the guest gets a vif.
    pub needs_net: bool,
    /// Whether the guest gets a block device.
    pub needs_block: bool,
    /// Whether the guest gets a console (everything but the bare noop
    /// unikernel used for the 2.3 ms record, which has no devices).
    pub needs_console: bool,
}

impl GuestImage {
    /// The registry's fixed names, in listing order. Any `tinyx-<app>`
    /// with `<app>` in the Tinyx application registry also resolves.
    pub const NAMES: [&'static str; 7] =
        ["noop", "daytime", "minipython", "clickos", "tls-unikernel", "tinyx-noop", "debian"];

    /// Resolves a registry name (one of [`GuestImage::NAMES`] or
    /// `tinyx-<app>`). Unknown names, including unregistered Tinyx apps,
    /// are `None`: [`GuestImage::tinyx`] would panic on them.
    pub fn by_name(name: &str) -> Option<GuestImage> {
        Some(match name {
            "noop" => GuestImage::unikernel_noop(),
            "daytime" => GuestImage::unikernel_daytime(),
            "minipython" => GuestImage::unikernel_minipython(),
            "clickos" => GuestImage::clickos_firewall(),
            "tls-unikernel" => GuestImage::unikernel_tls(),
            "tinyx-noop" => GuestImage::tinyx_noop(),
            "debian" => GuestImage::debian(),
            other => {
                let app = other.strip_prefix("tinyx-")?;
                tinyx::PackageDb::standard().app(app).ok()?;
                GuestImage::tinyx(app)
            }
        })
    }

    // --- unikernels (paper §3.1) -------------------------------------------

    /// The noop unikernel: no devices, the 2.3 ms boot record holder.
    pub fn unikernel_noop() -> GuestImage {
        GuestImage {
            name: "noop".into(),
            kind: GuestKind::Unikernel,
            image_bytes: 306 * KIB,
            mem_mib: 4,
            vcpus: 1,
            boot_work: 0.0009,
            boot_yield_points: 0,
            idle_demand: 0.000_02,
            dom0_load: 0.000_005,
            watches: 2,
            needs_net: false,
            needs_block: false,
            needs_console: false,
        }
    }

    /// The daytime unikernel: Mini-OS + lwip TCP server, 480 KB image,
    /// runs in as little as 3.6 MB of RAM.
    pub fn unikernel_daytime() -> GuestImage {
        GuestImage {
            name: "daytime".into(),
            kind: GuestKind::Unikernel,
            image_bytes: 480 * KIB,
            mem_mib: 4,
            vcpus: 1,
            boot_work: 0.0024,
            boot_yield_points: 0,
            idle_demand: 0.000_02,
            dom0_load: 0.000_01,
            watches: 3,
            needs_net: true,
            needs_block: false,
            needs_console: true,
        }
    }

    /// Minipython: Micropython over Mini-OS (§3.1: ~1 MB image, 8 MB
    /// RAM), the compute-service worker of §7.4.
    pub fn unikernel_minipython() -> GuestImage {
        GuestImage {
            name: "minipython".into(),
            kind: GuestKind::Unikernel,
            image_bytes: 1100 * KIB,
            mem_mib: 8,
            vcpus: 1,
            boot_work: 0.0045,
            boot_yield_points: 0,
            idle_demand: 0.000_02,
            dom0_load: 0.000_01,
            watches: 3,
            needs_net: true,
            needs_block: false,
            needs_console: true,
        }
    }

    /// The ClickOS personal firewall of §7.1: 1.7 MB image, 8 MB RAM,
    /// ~10 ms boot.
    pub fn clickos_firewall() -> GuestImage {
        GuestImage {
            name: "clickos-firewall".into(),
            kind: GuestKind::Unikernel,
            image_bytes: 1740 * KIB,
            mem_mib: 8,
            vcpus: 1,
            boot_work: 0.0078,
            boot_yield_points: 0,
            idle_demand: 0.000_03,
            dom0_load: 0.000_01,
            watches: 3,
            needs_net: true,
            needs_block: false,
            needs_console: true,
        }
    }

    /// The TLS termination unikernel of §7.3: axtls + lwip, ~1 MB image,
    /// 16 MB RAM, boots in 6 ms.
    pub fn unikernel_tls() -> GuestImage {
        GuestImage {
            name: "tls-unikernel".into(),
            kind: GuestKind::Unikernel,
            image_bytes: 1024 * KIB,
            mem_mib: 16,
            vcpus: 1,
            boot_work: 0.0052,
            boot_yield_points: 0,
            idle_demand: 0.000_02,
            dom0_load: 0.000_01,
            watches: 3,
            needs_net: true,
            needs_block: false,
            needs_console: true,
        }
    }

    // --- Tinyx (paper §3.2) ------------------------------------------------------

    /// Builds a Tinyx guest image for `app` via the Tinyx build system.
    ///
    /// # Panics
    ///
    /// Panics if `app` is not in the Tinyx application registry.
    pub fn tinyx(app: &str) -> GuestImage {
        let (img, _report) = TinyxBuilder::new(Platform::Xen)
            .build(app)
            .expect("app registered with Tinyx");
        GuestImage {
            name: format!("tinyx-{app}"),
            kind: GuestKind::Tinyx,
            image_bytes: img.total_bytes(),
            mem_mib: img.boot_ram_bytes.div_ceil(MIB),
            vcpus: 1,
            boot_work: 0.165,
            boot_yield_points: 60,
            idle_demand: 0.000_04,
            dom0_load: 0.000_03,
            watches: 8,
            needs_net: true,
            needs_block: false,
            needs_console: true,
        }
    }

    /// The Tinyx noop image used by Figures 4 and 15 (9.5 MB in the
    /// paper; no application installed, distribution bundled as
    /// initramfs).
    pub fn tinyx_noop() -> GuestImage {
        let mut g = GuestImage::tinyx("noop");
        // The paper's Tinyx noop is 9.5 MB: BusyBox distribution plus a
        // less aggressively-trimmed kernel than our synthetic catalogue;
        // pin the headline size.
        g.image_bytes = 9_500 * KIB;
        g.mem_mib = 30;
        g
    }

    /// Tinyx with Micropython (Figure 14's middle curve).
    pub fn tinyx_micropython() -> GuestImage {
        GuestImage::tinyx("micropython")
    }

    /// Tinyx TLS proxy (§7.3: 40 MB RAM, ~190 ms boot).
    pub fn tinyx_tls() -> GuestImage {
        let mut g = GuestImage::tinyx("stunnel4");
        g.mem_mib = 40;
        g.boot_work = 0.175;
        g
    }

    // --- Debian ------------------------------------------------------------------

    /// A minimal Debian jessie install: 1.1 GB image, 111 MB minimum
    /// RAM, 1.5 s boot, a pile of out-of-the-box services.
    pub fn debian() -> GuestImage {
        GuestImage {
            name: "debian".into(),
            kind: GuestKind::Debian,
            image_bytes: 1100 * MIB,
            mem_mib: 111,
            vcpus: 1,
            boot_work: 1.35,
            boot_yield_points: 130,
            idle_demand: 0.001,
            dom0_load: 0.000_25,
            watches: 12,
            needs_net: true,
            needs_block: true,
            needs_console: true,
        }
    }

    // --- derived quantities ---------------------------------------------------------

    /// Pads the image with binary objects (the Figure 2 methodology:
    /// "We increase the size by injecting binary objects into the
    /// uncompressed image file").
    pub fn padded(mut self, extra_bytes: u64) -> GuestImage {
        self.image_bytes += extra_bytes;
        self.name = format!("{}+{}MB", self.name, extra_bytes / MIB);
        self
    }

    /// Total host memory footprint when running: populated guest memory
    /// plus fixed per-VM hypervisor overhead (page tables, frame lists,
    /// console rings).
    pub fn footprint_bytes(&self) -> u64 {
        self.mem_mib * MIB + 384 * KIB
    }

    /// Guest-side boot latency given the CPU share the scheduler grants
    /// (`rate`, in reference-CPU-seconds per second) and the number of
    /// resident peer VMs on the same core.
    ///
    /// Boot = CPU work at the granted rate + one scheduler re-queue per
    /// yield point behind the core's resident peers.
    pub fn boot_latency(&self, cost: &CostModel, rate: f64, peers_on_core: usize) -> SimTime {
        assert!(rate > 0.0, "boot starved of CPU");
        let cpu = SimTime::from_secs_f64(self.boot_work / rate);
        let waits = cost.sched_wake_per_vm * (self.boot_yield_points as u64 * peers_on_core as u64);
        cpu + waits
    }

    /// Bytes the toolstack actually parses and loads at creation time:
    /// unikernels and Tinyx (initramfs-bundled) load the whole image;
    /// a Debian guest boots from its block device, so only the kernel
    /// and initrd (~12 MiB) are loaded.
    pub fn loaded_bytes(&self) -> u64 {
        match self.kind {
            GuestKind::Debian => (12 * MIB).min(self.image_bytes),
            _ => self.image_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daytime_matches_headline_numbers() {
        let g = GuestImage::unikernel_daytime();
        assert_eq!(g.image_bytes, 480 * KIB);
        assert!(g.mem_mib * MIB <= 4 * MIB);
        // Boot alone ≈ 3 ms on an idle machine.
        let cost = CostModel::paper_defaults();
        let boot = g.boot_latency(&cost, 1.0, 0);
        assert!((2.0..4.0).contains(&boot.as_millis_f64()));
    }

    #[test]
    fn size_ordering_unikernel_tinyx_debian() {
        let uk = GuestImage::unikernel_daytime();
        let tx = GuestImage::tinyx_noop();
        let db = GuestImage::debian();
        assert!(uk.image_bytes < tx.image_bytes);
        assert!(tx.image_bytes < db.image_bytes / 10);
        assert!(uk.mem_mib < tx.mem_mib);
        assert!(tx.mem_mib < db.mem_mib);
    }

    #[test]
    fn debian_boot_is_seconds_scale() {
        let g = GuestImage::debian();
        let cost = CostModel::paper_defaults();
        let boot = g.boot_latency(&cost, 1.0, 0);
        assert!((1.0..2.5).contains(&boot.as_secs_f64()));
    }

    #[test]
    fn boot_grows_with_core_peers_for_linux_guests_only() {
        let cost = CostModel::paper_defaults();
        let tx = GuestImage::tinyx_noop();
        let idle = tx.boot_latency(&cost, 1.0, 0);
        let crowded = tx.boot_latency(&cost, 1.0, 333);
        assert!(
            crowded > idle.scale(3.0),
            "Tinyx boot should balloon: {idle} -> {crowded}"
        );
        let uk = GuestImage::unikernel_noop();
        assert_eq!(
            uk.boot_latency(&cost, 1.0, 0),
            uk.boot_latency(&cost, 1.0, 333),
            "unikernels have no yield points"
        );
    }

    #[test]
    fn tinyx_builder_integration() {
        let g = GuestImage::tinyx("nginx");
        assert_eq!(g.kind, GuestKind::Tinyx);
        assert!(g.image_bytes > MIB && g.image_bytes < 32 * MIB);
        assert!(g.mem_mib >= 20 && g.mem_mib <= 60);
    }

    #[test]
    fn padding_inflates_image_only() {
        let base = GuestImage::unikernel_daytime();
        let padded = base.clone().padded(100 * MIB);
        assert_eq!(padded.image_bytes, base.image_bytes + 100 * MIB);
        assert_eq!(padded.mem_mib, base.mem_mib);
        assert_eq!(padded.boot_work, base.boot_work);
    }

    #[test]
    fn idle_demand_scales_match_figure_15() {
        // 1,000 Debians ≈ 1 core of background churn (25% of the 4-core
        // machine); Tinyx about 1%; unikernels and below negligible.
        let db = GuestImage::debian();
        let tx = GuestImage::tinyx_noop();
        let uk = GuestImage::unikernel_noop();
        assert!((0.8..1.2).contains(&(db.idle_demand * 1000.0)));
        assert!(tx.idle_demand * 1000.0 < 0.08);
        assert!(uk.idle_demand < tx.idle_demand);
    }

    #[test]
    fn footprint_exceeds_populated_memory() {
        let g = GuestImage::unikernel_daytime();
        assert!(g.footprint_bytes() > g.mem_mib * MIB);
        assert!(g.footprint_bytes() < (g.mem_mib + 1) * MIB);
    }
}
