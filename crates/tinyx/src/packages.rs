//! A synthetic Debian-like package database and application registry.
//!
//! Structurally faithful to what Tinyx consumes: packages with dependency
//! lists, installed sizes, `provides` entries for shared libraries,
//! essential/required flags and install scripts; applications with the
//! shared libraries `objdump -p` would report.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One package in the repository.
#[derive(Clone, Debug)]
pub struct Package {
    /// Package name.
    pub name: &'static str,
    /// Installed size in bytes.
    pub size: u64,
    /// Direct dependencies (package names).
    pub deps: &'static [&'static str],
    /// Shared libraries this package provides (sonames).
    pub provides_libs: &'static [&'static str],
    /// Marked `Essential`/`Required` by the distribution (candidates for
    /// the blacklist: needed for installation, not for running).
    pub essential: bool,
    /// Ships maintainer install scripts (why Tinyx installs through an
    /// overlay on a debootstrap base rather than unpacking directly).
    pub has_install_scripts: bool,
}

/// An application Tinyx can build an image for.
#[derive(Clone, Debug)]
pub struct App {
    /// Application name (also its package name).
    pub name: &'static str,
    /// Shared libraries the binary links (what objdump reports).
    pub needed_libs: &'static [&'static str],
    /// Kernel options the app's boot test needs beyond the platform set.
    pub required_kernel_options: &'static [&'static str],
}

macro_rules! pkg {
    ($name:literal, $size:expr, deps: [$($d:literal),*], libs: [$($l:literal),*], essential: $e:expr, scripts: $s:expr) => {
        Package {
            name: $name,
            size: $size,
            deps: &[$($d),*],
            provides_libs: &[$($l),*],
            essential: $e,
            has_install_scripts: $s,
        }
    };
}

const KIB: u64 = 1 << 10;

/// The package repository, keyed by name.
pub struct PackageDb {
    packages: BTreeMap<&'static str, Package>,
    apps: BTreeMap<&'static str, App>,
}

/// Resolution errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResolveError {
    /// Unknown package name.
    UnknownPackage(String),
    /// No package provides the requested library.
    UnknownLibrary(String),
    /// Unknown application.
    UnknownApp(String),
}

impl std::fmt::Display for ResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolveError::UnknownPackage(p) => write!(f, "unknown package {p}"),
            ResolveError::UnknownLibrary(l) => write!(f, "no package provides {l}"),
            ResolveError::UnknownApp(a) => write!(f, "unknown application {a}"),
        }
    }
}

impl std::error::Error for ResolveError {}

impl PackageDb {
    /// Builds the standard repository used by the reproduction.
    pub fn standard() -> PackageDb {
        let packages = vec![
            // Base / essential set.
            pkg!("libc6", 2_900 * KIB, deps: [], libs: ["libc.so.6", "libm.so.6", "libpthread.so.0", "libdl.so.2", "librt.so.1"], essential: true, scripts: true),
            pkg!("zlib1g", 160 * KIB, deps: ["libc6"], libs: ["libz.so.1"], essential: false, scripts: false),
            pkg!("libssl1.0", 1_300 * KIB, deps: ["libc6", "zlib1g"], libs: ["libssl.so.1.0", "libcrypto.so.1.0"], essential: false, scripts: true),
            pkg!("libpcre3", 420 * KIB, deps: ["libc6"], libs: ["libpcre.so.3"], essential: false, scripts: false),
            pkg!("libffi6", 70 * KIB, deps: ["libc6"], libs: ["libffi.so.6"], essential: false, scripts: false),
            pkg!("libgcc1", 110 * KIB, deps: ["libc6"], libs: ["libgcc_s.so.1"], essential: true, scripts: false),
            pkg!("libstdcpp6", 1_500 * KIB, deps: ["libc6", "libgcc1"], libs: ["libstdc++.so.6"], essential: false, scripts: false),
            pkg!("libev4", 90 * KIB, deps: ["libc6"], libs: ["libev.so.4"], essential: false, scripts: false),
            pkg!("libreadline7", 310 * KIB, deps: ["libc6", "libtinfo5"], libs: ["libreadline.so.7"], essential: false, scripts: false),
            pkg!("libtinfo5", 420 * KIB, deps: ["libc6"], libs: ["libtinfo.so.5"], essential: false, scripts: false),
            pkg!("busybox", 1_050 * KIB, deps: ["libc6"], libs: [], essential: false, scripts: false),
            // Installation machinery: the Tinyx blacklist targets these.
            pkg!("dpkg", 6_700 * KIB, deps: ["libc6", "zlib1g", "tar"], libs: [], essential: true, scripts: true),
            pkg!("apt", 3_900 * KIB, deps: ["libc6", "libstdcpp6", "dpkg"], libs: ["libapt-pkg.so.5"], essential: true, scripts: true),
            pkg!("tar", 900 * KIB, deps: ["libc6"], libs: [], essential: true, scripts: false),
            pkg!("perl-base", 6_200 * KIB, deps: ["libc6"], libs: [], essential: true, scripts: true),
            pkg!("bash", 5_800 * KIB, deps: ["libc6", "libtinfo5"], libs: [], essential: true, scripts: true),
            pkg!("coreutils", 6_300 * KIB, deps: ["libc6"], libs: [], essential: true, scripts: false),
            pkg!("debconf", 700 * KIB, deps: ["perl-base"], libs: [], essential: true, scripts: true),
            // Applications and their immediate support.
            pkg!("nginx", 1_200 * KIB, deps: ["libc6", "zlib1g", "libpcre3", "libssl1.0"], libs: [], essential: false, scripts: true),
            pkg!("micropython", 450 * KIB, deps: ["libc6", "libffi6"], libs: [], essential: false, scripts: false),
            pkg!("redis-server", 1_700 * KIB, deps: ["libc6", "libev4"], libs: [], essential: false, scripts: true),
            pkg!("stunnel4", 600 * KIB, deps: ["libc6", "libssl1.0"], libs: [], essential: false, scripts: true),
            pkg!("iperf", 250 * KIB, deps: ["libc6", "libstdcpp6"], libs: [], essential: false, scripts: false),
            pkg!("openssh-server", 4_300 * KIB, deps: ["libc6", "libssl1.0", "zlib1g"], libs: [], essential: false, scripts: true),
            pkg!("python3-minimal", 4_700 * KIB, deps: ["libc6", "libssl1.0", "libffi6", "zlib1g", "libreadline7"], libs: [], essential: false, scripts: true),
            // Wider catalogue for dependency-resolution coverage.
            pkg!("libxml2", 1_600 * KIB, deps: ["libc6", "zlib1g", "liblzma5"], libs: ["libxml2.so.2"], essential: false, scripts: false),
            pkg!("liblzma5", 240 * KIB, deps: ["libc6"], libs: ["liblzma.so.5"], essential: false, scripts: false),
            pkg!("libcurl3", 680 * KIB, deps: ["libc6", "libssl1.0", "zlib1g", "libidn11"], libs: ["libcurl.so.3"], essential: false, scripts: false),
            pkg!("libidn11", 210 * KIB, deps: ["libc6"], libs: ["libidn.so.11"], essential: false, scripts: false),
            pkg!("libjson-c3", 60 * KIB, deps: ["libc6"], libs: ["libjson-c.so.3"], essential: false, scripts: false),
            pkg!("libsqlite3", 900 * KIB, deps: ["libc6"], libs: ["libsqlite3.so.0"], essential: false, scripts: false),
            pkg!("haproxy", 1_900 * KIB, deps: ["libc6", "libssl1.0", "libpcre3", "zlib1g"], libs: [], essential: false, scripts: true),
            pkg!("memcached", 420 * KIB, deps: ["libc6", "libev4"], libs: [], essential: false, scripts: true),
            pkg!("dnsmasq", 750 * KIB, deps: ["libc6"], libs: [], essential: false, scripts: true),
            pkg!("dropbear", 420 * KIB, deps: ["libc6", "zlib1g"], libs: [], essential: false, scripts: false),
            pkg!("curl", 280 * KIB, deps: ["libc6", "libcurl3"], libs: [], essential: false, scripts: false),
            pkg!("busybox-extras", 180 * KIB, deps: ["busybox"], libs: [], essential: false, scripts: false),
            pkg!("ca-certificates", 540 * KIB, deps: ["libc6"], libs: [], essential: false, scripts: true),
            pkg!("lighttpd", 980 * KIB, deps: ["libc6", "libpcre3", "zlib1g"], libs: [], essential: false, scripts: true),
        ];
        let apps = vec![
            App {
                name: "noop",
                needed_libs: &[],
                required_kernel_options: &[],
            },
            App {
                name: "nginx",
                needed_libs: &["libc.so.6", "libz.so.1", "libpcre.so.3", "libssl.so.1.0", "libcrypto.so.1.0", "libpthread.so.0"],
                required_kernel_options: &["CONFIG_NET", "CONFIG_INET", "CONFIG_EPOLL"],
            },
            App {
                name: "micropython",
                needed_libs: &["libc.so.6", "libm.so.6", "libffi.so.6"],
                required_kernel_options: &["CONFIG_NET", "CONFIG_INET"],
            },
            App {
                name: "redis-server",
                needed_libs: &["libc.so.6", "libm.so.6", "libev.so.4", "libpthread.so.0"],
                required_kernel_options: &["CONFIG_NET", "CONFIG_INET", "CONFIG_EPOLL"],
            },
            App {
                name: "stunnel4",
                needed_libs: &["libc.so.6", "libssl.so.1.0", "libcrypto.so.1.0", "libpthread.so.0"],
                required_kernel_options: &["CONFIG_NET", "CONFIG_INET"],
            },
            App {
                name: "iperf",
                needed_libs: &["libc.so.6", "libstdc++.so.6", "libpthread.so.0"],
                required_kernel_options: &["CONFIG_NET", "CONFIG_INET"],
            },
            App {
                name: "haproxy",
                needed_libs: &["libc.so.6", "libssl.so.1.0", "libcrypto.so.1.0", "libpcre.so.3", "libz.so.1"],
                required_kernel_options: &["CONFIG_NET", "CONFIG_INET", "CONFIG_EPOLL"],
            },
            App {
                name: "memcached",
                needed_libs: &["libc.so.6", "libev.so.4", "libpthread.so.0"],
                required_kernel_options: &["CONFIG_NET", "CONFIG_INET", "CONFIG_EPOLL"],
            },
            App {
                name: "dnsmasq",
                needed_libs: &["libc.so.6"],
                required_kernel_options: &["CONFIG_NET", "CONFIG_INET", "CONFIG_PACKET"],
            },
            App {
                name: "dropbear",
                needed_libs: &["libc.so.6", "libz.so.1"],
                required_kernel_options: &["CONFIG_NET", "CONFIG_INET", "CONFIG_UNIX"],
            },
            App {
                name: "lighttpd",
                needed_libs: &["libc.so.6", "libpcre.so.3", "libz.so.1"],
                required_kernel_options: &["CONFIG_NET", "CONFIG_INET", "CONFIG_EPOLL"],
            },
        ];
        PackageDb {
            packages: packages.into_iter().map(|p| (p.name, p)).collect(),
            apps: apps.into_iter().map(|a| (a.name, a)).collect(),
        }
    }

    /// Looks up a package.
    pub fn package(&self, name: &str) -> Option<&Package> {
        self.packages.get(name)
    }

    /// Looks up an application.
    pub fn app(&self, name: &str) -> Result<&App, ResolveError> {
        self.apps
            .get(name)
            .ok_or_else(|| ResolveError::UnknownApp(name.to_string()))
    }

    /// Names of all registered applications.
    pub fn app_names(&self) -> Vec<&'static str> {
        self.apps.keys().copied().collect()
    }

    /// Simulated `objdump -p | grep NEEDED`: maps an app's shared-library
    /// needs to providing packages.
    pub fn objdump_deps(&self, app: &App) -> Result<BTreeSet<&'static str>, ResolveError> {
        let mut out = BTreeSet::new();
        for lib in app.needed_libs {
            let provider = self
                .packages
                .values()
                .find(|p| p.provides_libs.contains(lib))
                .ok_or_else(|| ResolveError::UnknownLibrary(lib.to_string()))?;
            out.insert(provider.name);
        }
        Ok(out)
    }

    /// Package-manager dependency closure (BFS over `deps`).
    pub fn closure(
        &self,
        roots: impl IntoIterator<Item = &'static str>,
    ) -> Result<BTreeSet<&'static str>, ResolveError> {
        let mut seen: BTreeSet<&'static str> = BTreeSet::new();
        let mut queue: VecDeque<&'static str> = roots.into_iter().collect();
        while let Some(name) = queue.pop_front() {
            let pkg = self
                .packages
                .get(name)
                .ok_or_else(|| ResolveError::UnknownPackage(name.to_string()))?;
            if seen.insert(pkg.name) {
                for d in pkg.deps {
                    queue.push_back(d);
                }
            }
        }
        Ok(seen)
    }

    /// Total installed size of a package set.
    pub fn total_size(&self, names: &BTreeSet<&'static str>) -> u64 {
        names
            .iter()
            .filter_map(|n| self.packages.get(n))
            .map(|p| p.size)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_includes_transitive_deps() {
        let db = PackageDb::standard();
        let c = db.closure(["nginx"]).unwrap();
        for expected in ["nginx", "libssl1.0", "zlib1g", "libpcre3", "libc6"] {
            assert!(c.contains(expected), "missing {expected}");
        }
        // Nothing unrelated.
        assert!(!c.contains("perl-base"));
        assert!(!c.contains("apt"));
    }

    #[test]
    fn closure_handles_shared_deps_once() {
        let db = PackageDb::standard();
        let c = db.closure(["nginx", "stunnel4"]).unwrap();
        let size = db.total_size(&c);
        // libssl appears once even though both apps need it.
        let manual: u64 = c.iter().map(|n| db.package(n).unwrap().size).sum();
        assert_eq!(size, manual);
    }

    #[test]
    fn unknown_package_errors() {
        let db = PackageDb::standard();
        assert_eq!(
            db.closure(["no-such-pkg"]).unwrap_err(),
            ResolveError::UnknownPackage("no-such-pkg".into())
        );
    }

    #[test]
    fn objdump_finds_library_providers() {
        let db = PackageDb::standard();
        let app = db.app("nginx").unwrap();
        let deps = db.objdump_deps(app).unwrap();
        assert!(deps.contains("libc6"));
        assert!(deps.contains("libssl1.0"));
        assert!(deps.contains("libpcre3"));
    }

    #[test]
    fn noop_app_needs_nothing() {
        let db = PackageDb::standard();
        let app = db.app("noop").unwrap();
        assert!(db.objdump_deps(app).unwrap().is_empty());
    }

    #[test]
    fn app_registry_is_populated() {
        let db = PackageDb::standard();
        assert!(db.app_names().len() >= 10);
        assert!(db.app("nope").is_err());
    }

    #[test]
    fn every_registered_app_resolves() {
        let db = PackageDb::standard();
        for app in db.app_names() {
            let a = db.app(app).unwrap();
            let deps = db.objdump_deps(a).unwrap();
            let closure = db.closure(deps).unwrap();
            // Closure must be installable: every dep present.
            for p in &closure {
                assert!(db.package(p).is_some());
            }
        }
    }

    #[test]
    fn transitive_library_chains_resolve() {
        // curl -> libcurl3 -> libidn11/libssl; a three-level chain.
        let db = PackageDb::standard();
        let c = db.closure(["curl"]).unwrap();
        for expected in ["curl", "libcurl3", "libidn11", "libssl1.0", "zlib1g", "libc6"] {
            assert!(c.contains(expected), "missing {expected}");
        }
    }
}
