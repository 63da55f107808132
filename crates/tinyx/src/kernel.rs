//! Kernel configuration minimisation (paper §3.2).
//!
//! "To build the kernel, Tinyx begins with the `tinyconfig` Linux kernel
//! build target as a baseline, and adds a set of built-in options
//! depending on the target system [...]. Optionally, the build system can
//! take a set of user-provided kernel options, disable each one in turn,
//! rebuild the kernel with the `olddefconfig` target, boot the Tinyx
//! image, and run a user-provided test [...]; if the test fails, the
//! option is re-enabled, otherwise it is left out of the configuration."

use std::collections::{BTreeMap, BTreeSet};

use crate::packages::App;

const KIB: u64 = 1 << 10;

/// One kernel config option with its size/RAM contribution and the
/// options it depends on (Kconfig `depends on`).
#[derive(Clone, Debug)]
pub struct KernelOption {
    /// Kconfig symbol.
    pub name: &'static str,
    /// Contribution to the on-disk image, bytes.
    pub size: u64,
    /// Contribution to runtime kernel memory, bytes.
    pub ram: u64,
    /// Options that must be enabled for this one to function.
    pub deps: &'static [&'static str],
}

/// Target platform: decides the built-in driver set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Platform {
    /// A Xen paravirtualised guest.
    Xen,
    /// A KVM/virtio guest.
    Kvm,
    /// Physical hardware (what Tinyx disables by default for VMs).
    BareMetal,
}

impl Platform {
    /// Options any kernel for this platform must have to boot at all.
    pub fn base_options(self) -> &'static [&'static str] {
        match self {
            Platform::Xen => &["CONFIG_XEN", "CONFIG_HVC_XEN"],
            Platform::Kvm => &["CONFIG_KVM_GUEST", "CONFIG_VIRTIO", "CONFIG_SERIAL_8250"],
            Platform::BareMetal => &["CONFIG_SERIAL_8250", "CONFIG_SATA_AHCI"],
        }
    }

    /// The network front-end driver for this platform.
    pub fn net_driver(self) -> &'static str {
        match self {
            Platform::Xen => "CONFIG_XEN_NETFRONT",
            Platform::Kvm => "CONFIG_VIRTIO_NET",
            Platform::BareMetal => "CONFIG_E1000",
        }
    }
}

macro_rules! opt {
    ($name:literal, $size:expr, $ram:expr, [$($d:literal),*]) => {
        KernelOption { name: $name, size: $size, ram: $ram, deps: &[$($d),*] }
    };
}

/// The option catalogue (a structurally faithful subset of Kconfig).
fn catalogue() -> Vec<KernelOption> {
    vec![
        opt!("CONFIG_XEN", 120 * KIB, 90 * KIB, []),
        opt!("CONFIG_HVC_XEN", 20 * KIB, 12 * KIB, ["CONFIG_XEN"]),
        opt!("CONFIG_XEN_NETFRONT", 55 * KIB, 40 * KIB, ["CONFIG_XEN", "CONFIG_NET"]),
        opt!("CONFIG_XEN_BLKFRONT", 50 * KIB, 35 * KIB, ["CONFIG_XEN", "CONFIG_BLOCK"]),
        opt!("CONFIG_KVM_GUEST", 70 * KIB, 50 * KIB, []),
        opt!("CONFIG_VIRTIO", 40 * KIB, 30 * KIB, []),
        opt!("CONFIG_VIRTIO_NET", 50 * KIB, 40 * KIB, ["CONFIG_VIRTIO", "CONFIG_NET"]),
        opt!("CONFIG_VIRTIO_BLK", 45 * KIB, 30 * KIB, ["CONFIG_VIRTIO", "CONFIG_BLOCK"]),
        opt!("CONFIG_SERIAL_8250", 45 * KIB, 25 * KIB, []),
        opt!("CONFIG_NET", 380 * KIB, 450 * KIB, []),
        opt!("CONFIG_INET", 420 * KIB, 600 * KIB, ["CONFIG_NET"]),
        opt!("CONFIG_IPV6", 520 * KIB, 700 * KIB, ["CONFIG_INET"]),
        opt!("CONFIG_NETFILTER", 480 * KIB, 500 * KIB, ["CONFIG_NET"]),
        opt!("CONFIG_PACKET", 60 * KIB, 40 * KIB, ["CONFIG_NET"]),
        opt!("CONFIG_UNIX", 80 * KIB, 60 * KIB, ["CONFIG_NET"]),
        opt!("CONFIG_EPOLL", 25 * KIB, 20 * KIB, []),
        opt!("CONFIG_FUTEX", 30 * KIB, 15 * KIB, []),
        opt!("CONFIG_BLOCK", 280 * KIB, 300 * KIB, []),
        opt!("CONFIG_EXT4", 550 * KIB, 400 * KIB, ["CONFIG_BLOCK"]),
        opt!("CONFIG_TMPFS", 45 * KIB, 50 * KIB, []),
        opt!("CONFIG_PROC_FS", 90 * KIB, 80 * KIB, []),
        opt!("CONFIG_SYSFS", 70 * KIB, 90 * KIB, []),
        opt!("CONFIG_SWAP", 120 * KIB, 200 * KIB, ["CONFIG_BLOCK"]),
        opt!("CONFIG_MODULES", 110 * KIB, 150 * KIB, []),
        opt!("CONFIG_SMP", 180 * KIB, 350 * KIB, []),
        opt!("CONFIG_CRYPTO", 350 * KIB, 250 * KIB, []),
        opt!("CONFIG_KALLSYMS", 300 * KIB, 400 * KIB, []),
        opt!("CONFIG_DEBUG_INFO", 900 * KIB, 0, []),
        opt!("CONFIG_SOUND", 420 * KIB, 300 * KIB, []),
        opt!("CONFIG_DRM", 650 * KIB, 500 * KIB, []),
        opt!("CONFIG_USB", 480 * KIB, 400 * KIB, []),
        opt!("CONFIG_WIRELESS", 380 * KIB, 350 * KIB, ["CONFIG_NET"]),
        opt!("CONFIG_E1000", 90 * KIB, 60 * KIB, ["CONFIG_NET"]),
        opt!("CONFIG_SATA_AHCI", 110 * KIB, 80 * KIB, ["CONFIG_BLOCK"]),
        opt!("CONFIG_ACPI", 550 * KIB, 600 * KIB, []),
        opt!("CONFIG_PM_SLEEP", 130 * KIB, 100 * KIB, ["CONFIG_ACPI"]),
    ]
}

/// Fixed core of every kernel (what survives even tinyconfig).
const CORE_SIZE: u64 = 950 * KIB;
const CORE_RAM: u64 = 900 * KIB;

/// A kernel configuration: the set of enabled options.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelConfig {
    enabled: BTreeSet<&'static str>,
}

impl KernelConfig {
    /// True if `opt` is enabled.
    pub fn has(&self, opt: &str) -> bool {
        self.enabled.contains(opt)
    }

    /// Number of enabled options.
    pub fn len(&self) -> usize {
        self.enabled.len()
    }

    /// True if no options are enabled.
    pub fn is_empty(&self) -> bool {
        self.enabled.is_empty()
    }

    /// Enabled options, sorted.
    pub fn options(&self) -> impl Iterator<Item = &&'static str> {
        self.enabled.iter()
    }
}

/// A built kernel image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelImage {
    /// On-disk size in bytes.
    pub size: u64,
    /// Runtime kernel memory in bytes.
    pub ram: u64,
    /// Options compiled in.
    pub option_count: usize,
}

/// Builds and minimises kernels.
pub struct KernelBuilder {
    options: BTreeMap<&'static str, KernelOption>,
    platform: Platform,
    config: KernelConfig,
    /// Boot-tests executed (each one is a rebuild + boot in the paper).
    pub boot_tests_run: usize,
}

impl KernelBuilder {
    /// Starts from `tinyconfig` plus the platform's built-in options.
    pub fn tinyconfig(platform: Platform) -> KernelBuilder {
        let options: BTreeMap<_, _> = catalogue().into_iter().map(|o| (o.name, o)).collect();
        let mut enabled: BTreeSet<&'static str> = ["CONFIG_PROC_FS", "CONFIG_TMPFS"]
            .into_iter()
            .collect();
        for o in platform.base_options() {
            enabled.insert(o);
        }
        let mut b = KernelBuilder {
            options,
            platform,
            config: KernelConfig { enabled },
            boot_tests_run: 0,
        };
        b.olddefconfig();
        b
    }

    /// A Debian-like default config: everything in the catalogue enabled
    /// (the starting point whose options the user hands to the
    /// minimisation loop).
    pub fn debian_default(platform: Platform) -> KernelBuilder {
        let mut b = KernelBuilder::tinyconfig(platform);
        let all: Vec<&'static str> = b.options.keys().copied().collect();
        for o in all {
            b.config.enabled.insert(o);
        }
        b
    }

    /// Current configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// Enables an option (and, via `olddefconfig`, its dependencies).
    pub fn enable(&mut self, opt: &'static str) {
        self.config.enabled.insert(opt);
        self.olddefconfig();
    }

    /// `make olddefconfig`: re-closes the dependency relation — any
    /// enabled option pulls in its dependencies.
    pub fn olddefconfig(&mut self) {
        loop {
            let mut added = Vec::new();
            for name in &self.config.enabled {
                if let Some(o) = self.options.get(name) {
                    for d in o.deps {
                        if !self.config.enabled.contains(d) {
                            added.push(*d);
                        }
                    }
                }
            }
            if added.is_empty() {
                break;
            }
            for a in added {
                self.config.enabled.insert(a);
            }
        }
    }

    /// The full option set a given app needs on this platform (with
    /// dependency closure): the ground truth the boot test checks.
    fn required_for(&self, app: &App) -> BTreeSet<&'static str> {
        let mut req: BTreeSet<&'static str> = self
            .platform
            .base_options()
            .iter()
            .copied()
            .collect();
        for o in app.required_kernel_options {
            req.insert(o);
        }
        if app.required_kernel_options.contains(&"CONFIG_NET") {
            req.insert(self.platform.net_driver());
        }
        // Dependency closure of the requirements.
        loop {
            let mut added = Vec::new();
            for name in &req {
                if let Some(o) = self.options.get(name) {
                    for d in o.deps {
                        if !req.contains(d) {
                            added.push(*d);
                        }
                    }
                }
            }
            if added.is_empty() {
                break;
            }
            for a in added {
                req.insert(a);
            }
        }
        req
    }

    /// Boot test: build the image, boot it, exercise the app (e.g. wget
    /// from nginx). Succeeds iff every required option is enabled.
    pub fn boot_test(&mut self, app: &App) -> bool {
        self.boot_tests_run += 1;
        self.required_for(app).iter().all(|o| self.config.enabled.contains(o))
    }

    /// The paper's minimisation loop: disable each candidate in turn,
    /// `olddefconfig`, boot test; re-enable on failure.
    ///
    /// Returns the number of options successfully removed.
    pub fn minimize(&mut self, app: &App, candidates: &[&'static str]) -> usize {
        let mut removed = 0;
        for &cand in candidates {
            if !self.config.enabled.contains(cand) {
                continue;
            }
            let saved = self.config.clone();
            self.config.enabled.remove(cand);
            // Disabling an option orphans dependents: also drop options
            // whose dependencies are no longer met (Kconfig behaviour).
            self.drop_orphans();
            self.olddefconfig();
            if self.boot_test(app) {
                removed += 1;
            } else {
                self.config = saved;
            }
        }
        removed
    }

    fn drop_orphans(&mut self) {
        loop {
            let orphans: Vec<&'static str> = self
                .config
                .enabled
                .iter()
                .filter(|name| {
                    self.options
                        .get(*name)
                        .map(|o| o.deps.iter().any(|d| !self.config.enabled.contains(d)))
                        .unwrap_or(false)
                })
                .copied()
                .collect();
            if orphans.is_empty() {
                break;
            }
            for o in orphans {
                self.config.enabled.remove(o);
            }
        }
    }

    /// Builds the kernel image from the current configuration.
    pub fn build(&self) -> KernelImage {
        let mut size = CORE_SIZE;
        let mut ram = CORE_RAM;
        for name in &self.config.enabled {
            if let Some(o) = self.options.get(name) {
                size += o.size;
                ram += o.ram;
            }
        }
        KernelImage {
            size,
            ram,
            option_count: self.config.enabled.len(),
        }
    }

    /// Convenience: the full Tinyx kernel flow for an app — Debian
    /// default config, then minimise every non-platform option.
    pub fn tinyx_kernel(platform: Platform, app: &App) -> (KernelImage, usize) {
        let mut b = KernelBuilder::debian_default(platform);
        let candidates: Vec<&'static str> = b.options.keys().copied().collect();
        let removed = b.minimize(app, &candidates);
        (b.build(), removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packages::PackageDb;

    #[test]
    fn tinyconfig_boots_noop_on_xen() {
        let db = PackageDb::standard();
        let app = db.app("noop").unwrap();
        let mut b = KernelBuilder::tinyconfig(Platform::Xen);
        assert!(b.boot_test(app));
        assert!(b.config().has("CONFIG_XEN"));
    }

    #[test]
    fn olddefconfig_pulls_dependencies() {
        let mut b = KernelBuilder::tinyconfig(Platform::Xen);
        b.enable("CONFIG_XEN_NETFRONT");
        assert!(b.config().has("CONFIG_NET"), "dependency closed");
    }

    #[test]
    fn tinyconfig_without_net_fails_nginx_test() {
        let db = PackageDb::standard();
        let app = db.app("nginx").unwrap();
        let mut b = KernelBuilder::tinyconfig(Platform::Xen);
        assert!(!b.boot_test(app));
    }

    #[test]
    fn minimize_keeps_required_options() {
        let db = PackageDb::standard();
        let app = db.app("nginx").unwrap();
        let (img, removed) = KernelBuilder::tinyx_kernel(Platform::Xen, app);
        assert!(removed > 0);
        // The result must still boot and serve.
        let mut check = KernelBuilder::debian_default(Platform::Xen);
        let candidates: Vec<&'static str> = check.options.keys().copied().collect();
        check.minimize(app, &candidates);
        assert!(check.boot_test(app));
        assert!(check.config().has("CONFIG_XEN_NETFRONT"));
        assert!(check.config().has("CONFIG_EPOLL"));
        // Baremetal/desktop bloat is gone.
        assert!(!check.config().has("CONFIG_SOUND"));
        assert!(!check.config().has("CONFIG_DRM"));
        assert!(!check.config().has("CONFIG_DEBUG_INFO"));
        assert!(img.size > 0);
    }

    #[test]
    fn tinyx_kernel_is_about_half_of_debian_kernel() {
        let db = PackageDb::standard();
        let app = db.app("nginx").unwrap();
        let debian = KernelBuilder::debian_default(Platform::Xen).build();
        let (tinyx, _) = KernelBuilder::tinyx_kernel(Platform::Xen, app);
        let ratio = tinyx.size as f64 / debian.size as f64;
        assert!(
            (0.15..=0.6).contains(&ratio),
            "tinyx kernel should be a fraction of Debian's, ratio {ratio:.2}"
        );
    }

    #[test]
    fn tinyx_runtime_ram_matches_paper_scale() {
        // Paper: 1.6 MB for Tinyx vs 8 MB for the Debian kernel tested.
        let db = PackageDb::standard();
        let app = db.app("noop").unwrap();
        let (tinyx, _) = KernelBuilder::tinyx_kernel(Platform::Xen, app);
        let debian = KernelBuilder::debian_default(Platform::Xen).build();
        let mib = 1 << 20;
        assert!(tinyx.ram < 3 * mib, "tinyx ram {} too big", tinyx.ram);
        assert!(debian.ram > 6 * mib, "debian ram {} too small", debian.ram);
    }

    #[test]
    fn boot_tests_are_counted() {
        let db = PackageDb::standard();
        let app = db.app("micropython").unwrap();
        let mut b = KernelBuilder::debian_default(Platform::Xen);
        let candidates: Vec<&'static str> = b.options.keys().copied().collect();
        let n = candidates.len();
        let removed = b.minimize(app, &candidates);
        // One rebuild+boot per candidate still enabled when its turn
        // comes (disabling one option can orphan later candidates).
        assert!(b.boot_tests_run >= removed);
        assert!(b.boot_tests_run > 0 && b.boot_tests_run <= n);
    }

    #[test]
    fn kvm_platform_uses_virtio() {
        let db = PackageDb::standard();
        let app = db.app("nginx").unwrap();
        let mut b = KernelBuilder::debian_default(Platform::Kvm);
        let candidates: Vec<&'static str> = b.options.keys().copied().collect();
        b.minimize(app, &candidates);
        assert!(b.config().has("CONFIG_VIRTIO_NET"));
        assert!(!b.config().has("CONFIG_XEN_NETFRONT"));
    }
}
