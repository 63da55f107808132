//! The `chaos` command-line front-end (paper §5: chaos replaces xl).
//!
//! A small command interpreter over a [`World`]. Every line that is
//! not one of the CLI's own commands (`help`, `images`, `list`, `info`,
//! `quit`, comments and `create-config`) is a [`toolstack::op::Op`],
//! parsed and run by the same code the lifecycle property suites use.
//! The binary in `src/bin/chaos.rs` wires it to stdin or a script file;
//! the interpreter itself is a library type so its behaviour is
//! unit-tested.
//!
//! ```text
//! chaos> create web tinyx-nginx
//! created web (dom1) in 2.41 ms, booted in 168.43 ms
//! chaos> list
//! DOMID  HOST     NAME  IMAGE        MEM     STATE
//! 1      primary  web   tinyx-nginx  30 MiB  running
//! ```

use std::fmt::Write as _;

use guests::GuestImage;
use simcore::{Machine, MachinePreset};
use toolstack::op::{Applied, Host, Op, OpError, World};
use toolstack::{ControlPlane, ToolstackMode, VmConfig};

/// Outcome of one interpreted command.
#[derive(Debug, PartialEq, Eq)]
pub enum CmdOutcome {
    /// Keep reading commands.
    Continue,
    /// `quit` was issued.
    Quit,
    /// The line is not a command (its error is in the output): a
    /// script stops here.
    Invalid,
}

/// The interactive session: a [`World`] (the primary host, a migration
/// peer, guest names and checkpoints) and the commands that only read
/// it.
pub struct Cli {
    world: World,
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

const HELP: &str = "\
commands:
  create <name> <image> [mem=<MiB>] [vcpus=<n>]
                             create and boot a VM
  create-config <file>       create from an xl config file
  prewarm <image>            fill the chaos daemon's shell pool
  list                       list VMs on both hosts
  destroy <name>             destroy a VM
  save <name>                checkpoint a VM to the ramdisk
  restore <name>             restore a checkpointed VM
  migrate <name>             migrate a VM to the other host (LAN)
  fault [peer] <site> <seed> inject at every opportunity of <site>
  fault [peer] none          stop injecting
  fork-probe <name>          create a daytime VM on a throwaway fork
  xs-write <path> <value>    Dom0 store write (\\xNN escapes, \"\" is empty)
  xs-rm <path>               Dom0 store remove
  xs-txn <path> commit|abort Dom0 transaction writing <path>/a and <path>/b
  images                     list known guest images
  info                       host statistics (VM counts for both hosts)
  quit                       leave";

impl Cli {
    /// Creates a session.
    pub fn new(machine: MachinePreset, dom0_cores: usize, mode: ToolstackMode, seed: u64) -> Cli {
        Cli { world: World::new(Machine::preset(machine), dom0_cores, mode, seed) }
    }

    /// The primary host's control plane (for assertions and scripting).
    pub fn plane(&self) -> &ControlPlane {
        self.world.plane()
    }

    /// Interprets one command line, appending human-readable output.
    pub fn exec(&mut self, line: &str, out: &mut String) -> CmdOutcome {
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else {
            return CmdOutcome::Continue;
        };
        match cmd {
            "help" => {
                let _ = writeln!(out, "{HELP}");
            }
            "images" => self.images(out),
            "list" => self.list(out),
            "info" => self.info(out),
            "quit" | "exit" => return CmdOutcome::Quit,
            comment if comment.starts_with('#') => {}
            "create-config" => {
                let args: Vec<&str> = parts.collect();
                let [path] = args[..] else {
                    let _ = writeln!(out, "usage: create-config <file>");
                    return CmdOutcome::Invalid;
                };
                self.create_config(path, out);
            }
            _ => match line.parse::<Op>() {
                Ok(op) => {
                    let done = self.world.apply(&op);
                    self.report(&op, done, out);
                }
                Err(e) => {
                    let _ = writeln!(out, "{e}");
                    return CmdOutcome::Invalid;
                }
            },
        }
        CmdOutcome::Continue
    }

    fn images(&self, out: &mut String) {
        let _ = writeln!(out, "{} tinyx-<app>", GuestImage::NAMES.join(" "));
        let _ = writeln!(
            out,
            "tinyx apps: {}",
            tinyx::PackageDb::standard().app_names().join(" ")
        );
    }

    /// `create-config <file>`: the config's name, kernel image (by file
    /// stem), memory and vCPUs, as one `create`.
    fn create_config(&mut self, path: &str, out: &mut String) {
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
        let stem = cfg.kernel.rsplit('/').next().unwrap_or("").trim_end_matches(".bin");
        if GuestImage::by_name(stem).is_none() {
            let _ = writeln!(out, "config kernel {} does not name a known image", cfg.kernel);
            return;
        }
        let op = Op::Create {
            name: cfg.name.clone(),
            image: stem.to_string(),
            mem: Some(cfg.memory_mib),
            vcpus: Some(cfg.vcpus),
        };
        match self.world.apply(&op) {
            Ok(Applied { dom: Some(dom), times, .. }) => {
                let _ = writeln!(
                    out,
                    "created {} ({dom}) from {path} in {:.2} ms (+{:.2} ms boot)",
                    cfg.name,
                    times[0].as_millis_f64(),
                    times[1].as_millis_f64()
                );
            }
            done => self.report(&op, done, out),
        }
    }

    /// Prints what an op did, or why it failed.
    fn report(&self, op: &Op, done: Result<Applied, OpError>, out: &mut String) {
        let done = match done {
            Ok(done) => done,
            Err(OpError::Plane(e)) => {
                let _ = writeln!(out, "{} failed: {e}", op.command());
                return;
            }
            Err(e) => {
                let _ = writeln!(out, "{e}");
                return;
            }
        };
        let ms: Vec<String> =
            done.times.iter().map(|t| format!("{:.2} ms", t.as_millis_f64())).collect();
        let dom = done.dom.map(|d| format!(" ({d})")).unwrap_or_default();
        let _ = match op {
            Op::Create { name, .. } => {
                writeln!(out, "created {name}{dom} in {}, booted in {}", ms[0], ms[1])
            }
            Op::Destroy(name) => writeln!(out, "destroyed {name} in {}", ms[0]),
            Op::Save(name) => writeln!(out, "saved {name} in {}", ms[0]),
            Op::Restore(name) => writeln!(out, "restored {name}{dom} in {}", ms[0]),
            Op::Migrate(name) => {
                let (to, running) = match self.world.guest(name) {
                    Some((Host::Peer, _)) => ("peer", self.world.peer().map(|p| p.running_count())),
                    _ => ("primary", Some(self.world.plane().running_count())),
                };
                let running = running.unwrap_or_default();
                writeln!(
                    out,
                    "migrated {name} to {to} host{dom} in {}; {to} now runs {running} VM(s)",
                    ms[0]
                )
            }
            Op::Prewarm(_) => {
                writeln!(out, "pool: {} shells ready", self.world.plane().daemon.len())
            }
            _ if ms.is_empty() => writeln!(out, "{op}: ok"),
            _ => writeln!(out, "{op}: ok{dom} in {}", ms.join(" + ")),
        };
    }

    /// The VMs of the primary host, then those of the migration peer.
    fn list(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "{:<6} {:<8} {:<16} {:<16} {:>9}  STATE",
            "DOMID", "HOST", "NAME", "IMAGE", "MEM"
        );
        let hosts = [("primary", Some(self.world.plane())), ("peer", self.world.peer())];
        for (host, plane) in hosts {
            for (dom, vm) in plane.into_iter().flat_map(ControlPlane::vms) {
                let state = if vm.booted { "running" } else { "created" };
                let _ = writeln!(
                    out,
                    "{:<6} {host:<8} {:<16} {:<16} {:>5} MiB  {state}",
                    dom.0, vm.name, vm.image.name, vm.image.mem_mib
                );
            }
        }
    }

    fn info(&self, out: &mut String) {
        let p = self.world.plane();
        let _ = writeln!(out, "machine:   {}", p.machine.name);
        let _ = writeln!(out, "toolstack: {}", p.mode.label());
        let peer = self.world.peer().map_or(0, ControlPlane::running_count);
        let _ = writeln!(out, "vms:       {} primary, {peer} peer", p.running_count());
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
    fn parse_machine_covers_all_presets() {
        for m in ["xeon4", "amd64c", "xeon14"] {
            assert!(parse_machine(m).is_some(), "{m}");
        }
        assert!(parse_machine("raspi").is_none());
    }

    #[test]
    fn list_and_info_cover_both_hosts() {
        let mut c = cli();
        run(&mut c, "create roam daytime");
        run(&mut c, "create home daytime");
        run(&mut c, "migrate roam");
        let list = run(&mut c, "list");
        let host_of = |name| {
            let mut rows = list.lines().map(|l| l.split_whitespace().collect::<Vec<_>>());
            rows.find(|row| row.get(2) == Some(&name)).map(|row| row[1])
        };
        assert_eq!(host_of("roam"), Some("peer"), "{list}");
        assert_eq!(host_of("home"), Some("primary"), "{list}");
        let info = run(&mut c, "info");
        assert!(info.contains("vms:       1 primary, 1 peer"), "{info}");
    }

    /// Lines of command words, names and junk in any order — through
    /// the CLI's own commands and every op — print and never panic.
    #[test]
    fn random_lines_never_panic() {
        let words = [
            "create", "create-config", "destroy", "save", "restore", "migrate", "prewarm",
            "fault", "peer", "none", "xs-crash", "txn-storm", "7", "fork-probe", "xs-write",
            "xs-rm", "xs-txn", "commit", "abort", "daytime", "tinyx-emacs", "a", "b", "/a",
            "\\x", "\"\"", "mem=4", "vcpus=200", "18446744073709551616", "list", "info", "#",
        ];
        let mut c = cli();
        let mut rng = simcore::SimRng::new(0xc11);
        for _ in 0..2000 {
            let line: Vec<&str> =
                (0..rng.index(6)).map(|_| words[rng.index(words.len())]).collect();
            c.exec(&line.join(" "), &mut String::new());
        }
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
