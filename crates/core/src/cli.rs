//! The `chaos` command-line front-end (paper §5: chaos replaces xl).
//!
//! A small, dependency-free command interpreter over a
//! [`ControlPlane`]. The
//! binary in `src/bin/chaos.rs` wires it to stdin or a script file; the
//! interpreter itself is a library type so its behaviour is unit-tested.
//!
//! ```text
//! chaos> create web tinyx-nginx
//! created web (dom1) in 2.41 ms, booted in 168.43 ms
//! chaos> list
//! DOMID  NAME  IMAGE        MEM     STATE
//! 1      web   tinyx-nginx  30 MiB  running
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;

use guests::GuestImage;
use hypervisor::DomId;
use lvnet::Link;
use simcore::{Machine, MachinePreset};
use toolstack::{ControlPlane, SavedVm, ToolstackMode, VmConfig};

/// Outcome of one interpreted command.
#[derive(Debug, PartialEq, Eq)]
pub enum CmdOutcome {
    /// Keep reading commands.
    Continue,
    /// `quit` was issued.
    Quit,
}

/// The interactive session state: a primary host, an optional migration
/// target, and the checkpoint shelf.
pub struct Cli {
    plane: ControlPlane,
    /// Secondary host for `migrate`.
    peer: Option<ControlPlane>,
    saved: HashMap<String, SavedVm>,
    names: HashMap<String, DomId>,
    seed: u64,
}

/// Parses a `ToolstackMode` name as accepted by `--mode`.
pub fn parse_mode(s: &str) -> Option<ToolstackMode> {
    Some(match s {
        "xl" => ToolstackMode::Xl,
        "chaos-xs" => ToolstackMode::ChaosXs,
        "chaos-xs-split" => ToolstackMode::ChaosXsSplit,
        "chaos-noxs" => ToolstackMode::ChaosNoxs,
        "lightvm" => ToolstackMode::LightVm,
        _ => return None,
    })
}

/// Parses a machine preset name as accepted by `--machine`.
pub fn parse_machine(s: &str) -> Option<MachinePreset> {
    Some(match s {
        "xeon4" => MachinePreset::XeonE5_1630V3,
        "amd64c" => MachinePreset::AmdOpteron4X6376,
        "xeon14" => MachinePreset::XeonE5_2690V4,
        _ => return None,
    })
}

/// Resolves an image name from the guest registry.
pub fn parse_image(s: &str) -> Option<GuestImage> {
    Some(match s {
        "noop" => GuestImage::unikernel_noop(),
        "daytime" => GuestImage::unikernel_daytime(),
        "minipython" => GuestImage::unikernel_minipython(),
        "clickos" => GuestImage::clickos_firewall(),
        "tls-unikernel" => GuestImage::unikernel_tls(),
        "tinyx-noop" => GuestImage::tinyx_noop(),
        "debian" => GuestImage::debian(),
        other => {
            let app = other.strip_prefix("tinyx-")?;
            // Panics inside GuestImage::tinyx for unknown apps; check
            // the registry first.
            tinyx::PackageDb::standard().app(app).ok()?;
            GuestImage::tinyx(app)
        }
    })
}

impl Cli {
    /// Creates a session.
    pub fn new(machine: MachinePreset, dom0_cores: usize, mode: ToolstackMode, seed: u64) -> Cli {
        Cli {
            plane: ControlPlane::new(Machine::preset(machine), dom0_cores, mode, seed),
            peer: None,
            saved: HashMap::new(),
            names: HashMap::new(),
            seed,
        }
    }

    /// The primary host's control plane (for assertions and scripting).
    pub fn plane(&self) -> &ControlPlane {
        &self.plane
    }

    /// Interprets one command line, appending human-readable output.
    pub fn exec(&mut self, line: &str, out: &mut String) -> CmdOutcome {
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else {
            return CmdOutcome::Continue;
        };
        let args: Vec<&str> = parts.collect();
        match cmd {
            "help" => self.help(out),
            "images" => self.images(out),
            "create" => self.create(&args, out),
            "create-config" => self.create_config(&args, out),
            "list" => self.list(out),
            "destroy" => self.destroy(&args, out),
            "save" => self.save(&args, out),
            "restore" => self.restore(&args, out),
            "migrate" => self.migrate(&args, out),
            "prewarm" => self.prewarm(&args, out),
            "info" => self.info(out),
            "quit" | "exit" => return CmdOutcome::Quit,
            "#" => {} // comment
            other if other.starts_with('#') => {}
            other => {
                let _ = writeln!(out, "unknown command: {other} (try `help`)");
            }
        }
        CmdOutcome::Continue
    }

    fn help(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "commands:\n  create <name> <image>     create and boot a VM\n  create-config <file>      create from an xl config file\n  prewarm <image>           fill the chaos daemon's shell pool\n  list                      list VMs\n  destroy <name>            destroy a VM\n  save <name>               checkpoint a VM to the ramdisk\n  restore <name>            restore a checkpointed VM\n  migrate <name>            migrate a VM to the peer host (LAN)\n  images                    list known guest images\n  info                      host statistics\n  quit                      leave"
        );
    }

    fn images(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "noop daytime minipython clickos tls-unikernel tinyx-noop tinyx-<app> debian"
        );
        let _ = writeln!(
            out,
            "tinyx apps: {}",
            tinyx::PackageDb::standard().app_names().join(" ")
        );
    }

    fn create(&mut self, args: &[&str], out: &mut String) {
        let [name, image] = args else {
            let _ = writeln!(out, "usage: create <name> <image>");
            return;
        };
        let Some(image) = parse_image(image) else {
            let _ = writeln!(out, "unknown image {image} (try `images`)");
            return;
        };
        if self.names.contains_key(*name) {
            let _ = writeln!(out, "name {name} already in use here");
            return;
        }
        match self.plane.create_and_boot(name, &image) {
            Ok((dom, create, boot)) => {
                self.names.insert(name.to_string(), dom);
                let _ = writeln!(
                    out,
                    "created {name} ({dom}) in {:.2} ms, booted in {:.2} ms",
                    create.as_millis_f64(),
                    boot.as_millis_f64()
                );
            }
            Err(e) => {
                let _ = writeln!(out, "create failed: {e}");
            }
        }
    }

    fn create_config(&mut self, args: &[&str], out: &mut String) {
        let [path] = args else {
            let _ = writeln!(out, "usage: create-config <file>");
            return;
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                let _ = writeln!(out, "cannot read {path}: {e}");
                return;
            }
        };
        let cfg = match VmConfig::parse(&text) {
            Ok(c) => c,
            Err(e) => {
                let _ = writeln!(out, "config error: {e}");
                return;
            }
        };
        // Derive the image from the kernel path's file stem.
        let stem = cfg
            .kernel
            .rsplit('/')
            .next()
            .unwrap_or("")
            .trim_end_matches(".bin");
        let Some(mut image) = parse_image(stem) else {
            let _ = writeln!(out, "config kernel {} does not name a known image", cfg.kernel);
            return;
        };
        image.mem_mib = cfg.memory_mib;
        image.vcpus = cfg.vcpus;
        let name = cfg.name.clone();
        if self.names.contains_key(&name) {
            let _ = writeln!(out, "name {name} already in use here");
            return;
        }
        match self.plane.create_and_boot(&name, &image) {
            Ok((dom, create, boot)) => {
                self.names.insert(name.clone(), dom);
                let _ = writeln!(
                    out,
                    "created {name} ({dom}) from {path} in {:.2} ms (+{:.2} ms boot)",
                    create.as_millis_f64(),
                    boot.as_millis_f64()
                );
            }
            Err(e) => {
                let _ = writeln!(out, "create failed: {e}");
            }
        }
    }

    fn prewarm(&mut self, args: &[&str], out: &mut String) {
        let [image] = args else {
            let _ = writeln!(out, "usage: prewarm <image>");
            return;
        };
        let Some(image) = parse_image(image) else {
            let _ = writeln!(out, "unknown image {image}");
            return;
        };
        self.plane.prewarm(&image);
        let _ = writeln!(out, "pool: {} shells ready", self.plane.daemon.len());
    }

    fn list(&self, out: &mut String) {
        let _ = writeln!(out, "{:<6} {:<16} {:<16} {:>8}  STATE", "DOMID", "NAME", "IMAGE", "MEM");
        for (dom, vm) in self.plane.vms() {
            let state = if vm.booted { "running" } else { "created" };
            let _ = writeln!(
                out,
                "{:<6} {:<16} {:<16} {:>5} MiB  {state}",
                dom.0, vm.name, vm.image.name, vm.image.mem_mib
            );
        }
    }

    fn lookup(&self, name: &str, out: &mut String) -> Option<DomId> {
        match self.names.get(name) {
            Some(d) => Some(*d),
            None => {
                let _ = writeln!(out, "no VM named {name}");
                None
            }
        }
    }

    fn destroy(&mut self, args: &[&str], out: &mut String) {
        let [name] = args else {
            let _ = writeln!(out, "usage: destroy <name>");
            return;
        };
        let Some(dom) = self.lookup(name, out) else { return };
        match self.plane.destroy_vm(dom) {
            Ok(t) => {
                self.names.remove(*name);
                let _ = writeln!(out, "destroyed {name} in {:.2} ms", t.as_millis_f64());
            }
            Err(e) => {
                let _ = writeln!(out, "destroy failed: {e}");
            }
        }
    }

    fn save(&mut self, args: &[&str], out: &mut String) {
        let [name] = args else {
            let _ = writeln!(out, "usage: save <name>");
            return;
        };
        let Some(dom) = self.lookup(name, out) else { return };
        match self.plane.save_vm(dom) {
            Ok((saved, t)) => {
                self.names.remove(*name);
                self.saved.insert(name.to_string(), saved);
                let _ = writeln!(out, "saved {name} in {:.2} ms", t.as_millis_f64());
            }
            Err(e) => {
                let _ = writeln!(out, "save failed: {e}");
            }
        }
    }

    fn restore(&mut self, args: &[&str], out: &mut String) {
        let [name] = args else {
            let _ = writeln!(out, "usage: restore <name>");
            return;
        };
        let Some(saved) = self.saved.remove(*name) else {
            let _ = writeln!(out, "no checkpoint named {name}");
            return;
        };
        match self.plane.restore_vm(&saved) {
            Ok((dom, t)) => {
                self.names.insert(name.to_string(), dom);
                let _ = writeln!(
                    out,
                    "restored {name} ({dom}) in {:.2} ms",
                    t.as_millis_f64()
                );
            }
            Err(e) => {
                self.saved.insert(name.to_string(), saved);
                let _ = writeln!(out, "restore failed: {e}");
            }
        }
    }

    fn migrate(&mut self, args: &[&str], out: &mut String) {
        let [name] = args else {
            let _ = writeln!(out, "usage: migrate <name>");
            return;
        };
        let Some(dom) = self.lookup(name, out) else { return };
        if self.peer.is_none() {
            let machine = self.plane.machine.clone();
            let mode = self.plane.mode;
            self.peer = Some(ControlPlane::new(machine, 1, mode, self.seed ^ peer_seed()));
        }
        let peer = self.peer.as_mut().expect("just ensured");
        match self.plane.migrate_vm_to(peer, &Link::lan(), dom) {
            Ok((new_dom, t)) => {
                self.names.remove(*name);
                let _ = writeln!(
                    out,
                    "migrated {name} to peer host ({new_dom}) in {:.2} ms; peer now runs {} VM(s)",
                    t.as_millis_f64(),
                    peer.running_count()
                );
            }
            Err(e) => {
                let _ = writeln!(out, "migration failed: {e}");
            }
        }
    }

    fn info(&self, out: &mut String) {
        let p = &self.plane;
        let _ = writeln!(out, "machine:   {}", p.machine.name);
        let _ = writeln!(out, "toolstack: {}", p.mode.label());
        let _ = writeln!(out, "vms:       {}", p.running_count());
        let _ = writeln!(
            out,
            "memory:    {:.1} MB guest / {:.1} GB host used",
            p.guest_memory_used() as f64 / 1e6,
            p.hv.memory.used() as f64 / 1e9
        );
        let _ = writeln!(out, "cpu:       {:.2}% utilised", p.cpu_utilization() * 100.0);
        let _ = writeln!(out, "pool:      {} shells", p.daemon.len());
        let st = p.xs.stats();
        let _ = writeln!(
            out,
            "xenstore:  {} requests, {} commits, {} conflicts, {} rotations",
            st.requests,
            st.txn_commits,
            st.txn_conflicts,
            p.xs.log_rotations()
        );
    }
}

/// Seed tweak so the peer host's RNG stream differs from the primary's.
fn peer_seed() -> u64 {
    0x9e37
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli() -> Cli {
        Cli::new(MachinePreset::XeonE5_1630V3, 1, ToolstackMode::LightVm, 42)
    }

    fn run(cli: &mut Cli, line: &str) -> String {
        let mut out = String::new();
        cli.exec(line, &mut out);
        out
    }

    #[test]
    fn create_list_destroy_round_trip() {
        let mut c = cli();
        let out = run(&mut c, "create web daytime");
        assert!(out.contains("created web"), "{out}");
        let out = run(&mut c, "list");
        assert!(out.contains("web") && out.contains("daytime") && out.contains("running"));
        let out = run(&mut c, "destroy web");
        assert!(out.contains("destroyed web"));
        assert_eq!(c.plane().running_count(), 0);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut c = cli();
        run(&mut c, "create a daytime");
        let out = run(&mut c, "create a daytime");
        assert!(out.contains("already in use"), "{out}");
        assert_eq!(c.plane().running_count(), 1);
    }

    #[test]
    fn unknown_image_and_command_are_graceful() {
        let mut c = cli();
        assert!(run(&mut c, "create x no-such-image").contains("unknown image"));
        assert!(run(&mut c, "frobnicate").contains("unknown command"));
        assert!(run(&mut c, "destroy ghost").contains("no VM named"));
        assert!(run(&mut c, "restore ghost").contains("no checkpoint"));
        // Blank lines and comments are ignored silently.
        assert_eq!(run(&mut c, ""), "");
        assert_eq!(run(&mut c, "# a comment"), "");
    }

    #[test]
    fn save_restore_rebinds_the_name() {
        let mut c = cli();
        run(&mut c, "create ck daytime");
        let out = run(&mut c, "save ck");
        assert!(out.contains("saved ck"), "{out}");
        assert_eq!(c.plane().running_count(), 0);
        let out = run(&mut c, "restore ck");
        assert!(out.contains("restored ck"), "{out}");
        assert_eq!(c.plane().running_count(), 1);
        // Name is live again.
        assert!(run(&mut c, "destroy ck").contains("destroyed"));
    }

    #[test]
    fn migrate_moves_to_peer() {
        let mut c = cli();
        run(&mut c, "create roam daytime");
        let out = run(&mut c, "migrate roam");
        assert!(out.contains("migrated roam"), "{out}");
        assert!(out.contains("peer now runs 1"));
        assert_eq!(c.plane().running_count(), 0);
    }

    #[test]
    fn quit_stops_the_loop() {
        let mut c = cli();
        let mut out = String::new();
        assert_eq!(c.exec("quit", &mut out), CmdOutcome::Quit);
        assert_eq!(c.exec("create a daytime", &mut out), CmdOutcome::Continue);
    }

    #[test]
    fn create_from_config_file() {
        let mut c = cli();
        let dir = std::env::temp_dir().join("lightvm-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("vm.cfg");
        std::fs::write(
            &path,
            "name = \"cfged\"\nkernel = \"/images/daytime.bin\"\nmemory = 16\nvif = [ \"bridge=xenbr0\" ]\n",
        )
        .unwrap();
        let out = run(&mut c, &format!("create-config {}", path.display()));
        assert!(out.contains("created cfged"), "{out}");
        // The config's memory override took effect.
        let (_, vm) = c.plane().vms().next().unwrap();
        assert_eq!(vm.image.mem_mib, 16);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_vcpus_reach_the_domain() {
        let mut c = cli();
        let dir = std::env::temp_dir().join("lightvm-cli-vcpus");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("smp.cfg");
        std::fs::write(
            &path,
            "name = \"smp\"\nkernel = \"/images/daytime.bin\"\nmemory = 8\nvcpus = 4\n",
        )
        .unwrap();
        let out = run(&mut c, &format!("create-config {}", path.display()));
        assert!(out.contains("created smp"), "{out}");
        let (&dom, vm) = c.plane().vms().next().unwrap();
        assert_eq!(vm.image.vcpus, 4);
        assert_eq!(c.plane().hv.domain(dom).unwrap().vcpu_cores.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_config_fails_and_creates_nothing() {
        let mut c = cli();
        let dir = std::env::temp_dir().join("lightvm-cli-oversized");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wrap.cfg");
        // 2^44 MiB = 2^64 bytes: wraps to a 0-byte guest if unchecked.
        std::fs::write(
            &path,
            "name = \"wrap\"\nkernel = \"/images/daytime.bin\"\nmemory = 17592186044416\n",
        )
        .unwrap();
        let out = run(&mut c, &format!("create-config {}", path.display()));
        assert!(out.contains("create failed"), "{out}");
        let list = run(&mut c, "list");
        assert_eq!(list.lines().count(), 1, "only the header: {list}");
        assert_eq!(c.plane().running_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parsers_cover_all_variants() {
        for m in ["xl", "chaos-xs", "chaos-xs-split", "chaos-noxs", "lightvm"] {
            assert!(parse_mode(m).is_some(), "{m}");
        }
        assert!(parse_mode("docker").is_none());
        for m in ["xeon4", "amd64c", "xeon14"] {
            assert!(parse_machine(m).is_some(), "{m}");
        }
        assert!(parse_machine("raspi").is_none());
        for i in ["noop", "daytime", "minipython", "clickos", "tls-unikernel", "tinyx-noop", "tinyx-nginx", "debian"] {
            assert!(parse_image(i).is_some(), "{i}");
        }
        assert!(parse_image("tinyx-emacs").is_none());
        assert!(parse_image("windows").is_none());
    }

    #[test]
    fn info_reports_toolstack_and_counts() {
        let mut c = cli();
        run(&mut c, "create i daytime");
        let out = run(&mut c, "info");
        assert!(out.contains("LightVM"));
        assert!(out.contains("vms:       1"));
        assert!(out.contains("xenstore:  0 requests"));
    }
}
