//! One op language for driving hosts: the `chaos` script.
//!
//! An [`Op`] is one script line, and [`World`] runs it against a
//! primary host and a migration peer. The `chaos` CLI and the lifecycle
//! property suites (whose streams [`OpGen`] draws) share both, so a
//! failing stream replays as a script.
//!
//! ```text
//! create <name> <image> [mem=<MiB>] [vcpus=<n>]  create and boot on the primary
//! destroy|save|restore <name>                    restore on the host that saved
//! migrate <name>                                 migrate to the other host
//! prewarm <image>                                fill the primary's shell pool
//! fault [peer] <site> <seed>                     fail every opportunity at <site>
//! fault [peer] none                              stop injecting on that host
//! fork-probe <name>                              create a daytime guest on a fork
//! xs-write <path> <value> | xs-rm <path>         Dom0 store write or remove
//! xs-txn <path> commit|abort                     Dom0 transaction on <path>/a, /b
//! ```
//!
//! Values keep printable ASCII other than `\` and `"`; any other byte
//! is `\xNN`, a backslash `\\`, and the empty value `""`.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use guests::GuestImage;
use hypervisor::DomId;
use lvnet::Link;
use simcore::{CostModel, FaultPlan, FaultSite, Machine, Meter, SimRng, SimTime};
use xenstore::{Xenstored, XsError, XsPath};

use crate::config::MAX_VCPUS;
use crate::lifecycle::SavedVm;
use crate::plane::{ControlPlane, PlaneError, ToolstackMode};

/// One of a [`World`]'s two hosts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Host {
    Primary,
    Peer,
}

/// One script line (see the module doc).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Memory and vCPUs default to the image's.
    Create {
        name: String,
        image: String,
        mem: Option<u64>,
        vcpus: Option<u32>,
    },
    Destroy(String),
    Save(String),
    Restore(String),
    Migrate(String),
    /// An image name.
    Prewarm(String),
    /// `None` disarms the host.
    Fault(Host, Option<(FaultSite, u64)>),
    ForkProbe(String),
    XsWrite(XsPath, Vec<u8>),
    XsRm(XsPath),
    /// `true` commits.
    XsTxn(XsPath, bool),
}

impl Op {
    pub fn command(&self) -> &'static str {
        match self {
            Op::Create { .. } => "create",
            Op::Destroy(_) => "destroy",
            Op::Save(_) => "save",
            Op::Restore(_) => "restore",
            Op::Migrate(_) => "migrate",
            Op::Prewarm(_) => "prewarm",
            Op::Fault(..) => "fault",
            Op::ForkProbe(_) => "fork-probe",
            Op::XsWrite(..) => "xs-write",
            Op::XsRm(_) => "xs-rm",
            Op::XsTxn(..) => "xs-txn",
        }
    }
}

/// Why a line is not an [`Op`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Wrong arguments: the command's usage.
    Usage(&'static str),
    /// An unknown command, image or fault site.
    Unknown(&'static str, String),
    /// A malformed or out-of-range number, path or value.
    Bad(&'static str, String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Usage(usage) => write!(f, "usage: {usage}"),
            ParseError::Unknown(what, word) => write!(f, "unknown {what}: {word} (try `help`)"),
            ParseError::Bad(what, word) => write!(f, "bad {what}: {word}"),
        }
    }
}

impl std::error::Error for ParseError {}

const CREATE: &str = "create <name> <image> [mem=<MiB>] [vcpus=<n>]";

impl FromStr for Op {
    type Err = ParseError;

    fn from_str(line: &str) -> Result<Op, ParseError> {
        let words: Vec<&str> = line.split_whitespace().collect();
        let Some((&cmd, args)) = words.split_first() else {
            return Err(ParseError::Usage("<command> [args...]"));
        };
        let one = |usage| match args {
            [arg] => Ok(arg.to_string()),
            _ => Err(ParseError::Usage(usage)),
        };
        Ok(match (cmd, args) {
            ("create", [name, img, opts @ ..]) => {
                let (mut mem, mut vcpus) = (None, None);
                for opt in opts {
                    match opt.split_once('=') {
                        Some(("mem", n)) if mem.is_none() => mem = Some(number(n, 1, u64::MAX)?),
                        Some(("vcpus", n)) if vcpus.is_none() => {
                            vcpus = Some(number(n, 1, MAX_VCPUS)?)
                        }
                        _ => return Err(ParseError::Usage(CREATE)),
                    }
                }
                Op::Create {
                    name: name.to_string(),
                    image: image(img)?,
                    mem,
                    vcpus,
                }
            }
            ("create", _) => return Err(ParseError::Usage(CREATE)),
            ("destroy", _) => Op::Destroy(one("destroy <name>")?),
            ("save", _) => Op::Save(one("save <name>")?),
            ("restore", _) => Op::Restore(one("restore <name>")?),
            ("migrate", _) => Op::Migrate(one("migrate <name>")?),
            ("fork-probe", _) => Op::ForkProbe(one("fork-probe <name>")?),
            ("prewarm", _) => Op::Prewarm(image(&one("prewarm <image>")?)?),
            ("fault", args) => {
                let (host, rest) = match args {
                    ["peer", rest @ ..] => (Host::Peer, rest),
                    rest => (Host::Primary, rest),
                };
                Op::Fault(
                    host,
                    match rest {
                        ["none"] => None,
                        [site, seed] => Some((
                            FaultSite::from_name(site).ok_or_else(|| {
                                ParseError::Unknown("fault site", site.to_string())
                            })?,
                            number(seed, 0, u64::MAX)?,
                        )),
                        _ => {
                            return Err(ParseError::Usage(
                                "fault [peer] <site> <seed> | fault [peer] none",
                            ))
                        }
                    },
                )
            }
            ("xs-write", [p, value]) => Op::XsWrite(path(p)?, unescape(value)?),
            ("xs-write", _) => return Err(ParseError::Usage("xs-write <path> <value>")),
            ("xs-rm", _) => Op::XsRm(path(&one("xs-rm <path>")?)?),
            ("xs-txn", [p, "commit"]) => Op::XsTxn(path(p)?, true),
            ("xs-txn", [p, "abort"]) => Op::XsTxn(path(p)?, false),
            ("xs-txn", _) => return Err(ParseError::Usage("xs-txn <path> commit|abort")),
            (other, _) => return Err(ParseError::Unknown("command", other.to_string())),
        })
    }
}

fn image(name: &str) -> Result<String, ParseError> {
    match GuestImage::by_name(name) {
        Some(_) => Ok(name.to_string()),
        None => Err(ParseError::Unknown("image", name.to_string())),
    }
}

fn number<T: FromStr + PartialOrd>(s: &str, min: T, max: T) -> Result<T, ParseError> {
    s.parse()
        .ok()
        .filter(|n| (min..=max).contains(n))
        .ok_or_else(|| ParseError::Bad("number", s.to_string()))
}

fn path(s: &str) -> Result<XsPath, ParseError> {
    XsPath::parse(s).map_err(|_| ParseError::Bad("store path", s.to_string()))
}

fn unescape(s: &str) -> Result<Vec<u8>, ParseError> {
    let bad = || ParseError::Bad("store value", s.to_string());
    if s == "\"\"" {
        return Ok(Vec::new());
    }
    let mut out = Vec::with_capacity(s.len());
    let mut bytes = s.bytes();
    while let Some(b) = bytes.next() {
        out.push(match b {
            b'"' => return Err(bad()),
            b'\\' => match bytes.next() {
                Some(b'\\') => b'\\',
                Some(b'x') => {
                    let hex = [bytes.next().ok_or_else(bad)?, bytes.next().ok_or_else(bad)?];
                    let hex = std::str::from_utf8(&hex).map_err(|_| bad())?;
                    u8::from_str_radix(hex, 16).map_err(|_| bad())?
                }
                _ => return Err(bad()),
            },
            b => b,
        });
    }
    Ok(out)
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.command())?;
        match self {
            Op::Create {
                name,
                image,
                mem,
                vcpus,
            } => {
                write!(f, " {name} {image}")?;
                if let Some(mem) = mem {
                    write!(f, " mem={mem}")?;
                }
                match vcpus {
                    Some(vcpus) => write!(f, " vcpus={vcpus}"),
                    None => Ok(()),
                }
            }
            Op::Destroy(name)
            | Op::Save(name)
            | Op::Restore(name)
            | Op::Migrate(name)
            | Op::Prewarm(name)
            | Op::ForkProbe(name) => write!(f, " {name}"),
            Op::Fault(host, arm) => {
                if *host == Host::Peer {
                    f.write_str(" peer")?;
                }
                match arm {
                    Some((site, seed)) => write!(f, " {} {seed}", site.name()),
                    None => f.write_str(" none"),
                }
            }
            Op::XsWrite(path, value) if value.is_empty() => write!(f, " {path} \"\""),
            Op::XsWrite(path, value) => {
                write!(f, " {path} ")?;
                value.iter().try_for_each(|&b| match b {
                    b'\\' => f.write_str("\\\\"),
                    0x21..=0x7e if b != b'"' => write!(f, "{}", b as char),
                    _ => write!(f, "\\x{b:02x}"),
                })
            }
            Op::XsRm(path) => write!(f, " {path}"),
            Op::XsTxn(path, commit) => {
                write!(f, " {path} {}", if *commit { "commit" } else { "abort" })
            }
        }
    }
}

/// What an op that succeeded did.
#[derive(Clone, Debug, PartialEq)]
pub struct Applied {
    /// The guest's domain: the new one after a create, restore,
    /// migration (at its destination) or fork probe (on the fork), the
    /// old one for a destroy or save, none for host and store ops.
    pub dom: Option<DomId>,
    /// Charged time by phase: create then boot for a create or fork
    /// probe, the total for other guest and store ops, none for
    /// `prewarm` and `fault`.
    pub times: Vec<SimTime>,
    /// A fork probe's world digest of the fork after its create.
    pub probe: Option<u128>,
}

impl Applied {
    fn done(dom: Option<DomId>, times: Vec<SimTime>) -> Result<Applied, OpError> {
        Ok(Applied {
            dom,
            times,
            probe: None,
        })
    }
}

/// Why an op failed: the host refused it (the `PlaneError` as it is),
/// or it names something the world does not have.
#[derive(Clone, Debug, PartialEq)]
pub enum OpError {
    Plane(PlaneError),
    NoSuchVm(String),
    NameInUse(String),
    NoCheckpoint(String),
    NoSuchImage(String),
}

impl From<PlaneError> for OpError {
    fn from(e: PlaneError) -> OpError {
        OpError::Plane(e)
    }
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpError::Plane(e) => write!(f, "{e}"),
            OpError::NoSuchVm(n) => write!(f, "no VM named {n}"),
            OpError::NameInUse(n) => write!(f, "name {n} already in use here"),
            OpError::NoCheckpoint(n) => write!(f, "no checkpoint named {n}"),
            OpError::NoSuchImage(i) => write!(f, "unknown image {i}"),
        }
    }
}

impl std::error::Error for OpError {}

/// The executor: a primary host, a migration peer made on first use,
/// the live guests' names and the checkpoint shelf.
pub struct World {
    plane: ControlPlane,
    peer: Option<ControlPlane>,
    seed: u64,
    /// Where each live guest runs, under which domain.
    names: BTreeMap<String, (Host, DomId)>,
    /// Checkpoints by guest name, with the host that saved them.
    saved: BTreeMap<String, (Host, SavedVm)>,
}

impl World {
    /// A world whose primary is `ControlPlane::new(machine, dom0_cores,
    /// mode, seed)`.
    pub fn new(machine: Machine, dom0_cores: usize, mode: ToolstackMode, seed: u64) -> World {
        let plane = ControlPlane::new(machine, dom0_cores, mode, seed);
        World {
            plane,
            peer: None,
            seed,
            names: BTreeMap::new(),
            saved: BTreeMap::new(),
        }
    }

    pub fn plane(&self) -> &ControlPlane {
        &self.plane
    }

    /// The primary, for setup that no op expresses.
    pub fn plane_mut(&mut self) -> &mut ControlPlane {
        &mut self.plane
    }

    pub fn peer(&self) -> Option<&ControlPlane> {
        self.peer.as_ref()
    }

    /// The peer, made on first use like the primary but with one Dom0
    /// core and the seed `^ 0x9e37`.
    pub fn peer_mut(&mut self) -> &mut ControlPlane {
        let (plane, seed) = (&self.plane, self.seed ^ 0x9e37);
        self.peer
            .get_or_insert_with(|| ControlPlane::new(plane.machine.clone(), 1, plane.mode, seed))
    }

    fn host_mut(&mut self, host: Host) -> &mut ControlPlane {
        match host {
            Host::Primary => &mut self.plane,
            Host::Peer => self.peer_mut(),
        }
    }

    /// Where the live guest `name` runs.
    pub fn guest(&self, name: &str) -> Option<(Host, DomId)> {
        self.names.get(name).copied()
    }

    /// Names the guest `dom` on `host`, for setup that no op expresses
    /// (a guest built on the peer directly).
    pub fn bind(&mut self, name: &str, host: Host, dom: DomId) {
        self.names.insert(name.to_string(), (host, dom));
    }

    pub fn apply(&mut self, op: &Op) -> Result<Applied, OpError> {
        let live = |name: &String| {
            self.guest(name)
                .ok_or_else(|| OpError::NoSuchVm(name.clone()))
        };
        match op {
            Op::Create {
                name,
                image,
                mem,
                vcpus,
            } => {
                if self.names.contains_key(name) {
                    return Err(OpError::NameInUse(name.clone()));
                }
                let mut image = resolve(image)?;
                image.mem_mib = mem.unwrap_or(image.mem_mib);
                image.vcpus = vcpus.unwrap_or(image.vcpus);
                let (dom, create, boot) = self.plane.create_and_boot(name, &image)?;
                self.names.insert(name.clone(), (Host::Primary, dom));
                Applied::done(Some(dom), vec![create, boot])
            }
            Op::Destroy(name) => {
                let (host, dom) = live(name)?;
                let t = self.host_mut(host).destroy_vm(dom)?;
                self.names.remove(name);
                Applied::done(Some(dom), vec![t])
            }
            Op::Save(name) => {
                let (host, dom) = live(name)?;
                let (saved, t) = self.host_mut(host).save_vm(dom)?;
                self.names.remove(name);
                self.saved.insert(name.clone(), (host, saved));
                Applied::done(Some(dom), vec![t])
            }
            Op::Restore(name) => {
                if self.names.contains_key(name) {
                    return Err(OpError::NameInUse(name.clone()));
                }
                let (host, saved) = self
                    .saved
                    .get(name)
                    .ok_or_else(|| OpError::NoCheckpoint(name.clone()))?;
                let (host, saved) = (*host, saved.clone());
                let (dom, t) = self.host_mut(host).restore_vm(&saved)?;
                self.saved.remove(name);
                self.names.insert(name.clone(), (host, dom));
                Applied::done(Some(dom), vec![t])
            }
            Op::Migrate(name) => {
                let (host, dom) = live(name)?;
                self.peer_mut();
                let peer = self.peer.as_mut().expect("made above");
                let (src, dst, to) = match host {
                    Host::Primary => (&mut self.plane, peer, Host::Peer),
                    Host::Peer => (peer, &mut self.plane, Host::Primary),
                };
                let (moved, t) = src.migrate_vm_to(dst, &Link::lan(), dom)?;
                self.names.insert(name.clone(), (to, moved));
                Applied::done(Some(moved), vec![t])
            }
            Op::Prewarm(image) => {
                self.plane.prewarm(&resolve(image)?);
                Applied::done(None, Vec::new())
            }
            Op::Fault(host, arm) => {
                let plan = arm.map_or_else(FaultPlan::none, |(site, seed)| {
                    FaultPlan::at_site(seed, site)
                });
                self.host_mut(*host).set_fault_plan(plan);
                Applied::done(None, Vec::new())
            }
            Op::ForkProbe(name) => {
                let mut fork = self.plane.fork();
                let (dom, create, boot) =
                    fork.create_and_boot(name, &GuestImage::unikernel_daytime())?;
                Ok(Applied {
                    dom: Some(dom),
                    times: vec![create, boot],
                    probe: Some(fork.world_digest64()),
                })
            }
            Op::XsWrite(path, value) => {
                self.store_op(|xs, cost, m| xs.write(cost, m, 0, path, value))
            }
            Op::XsRm(path) => self.store_op(|xs, cost, m| xs.rm(cost, m, 0, path)),
            Op::XsTxn(path, commit) => self.store_op(|xs, cost, m| {
                let (a, b) = (path.child("a")?, path.child("b")?);
                let id = xs.txn_start(cost, m, 0);
                let written = xs
                    .txn_write(cost, m, 0, id, &a, b"in-txn")
                    .and_then(|()| xs.txn_write(cost, m, 0, id, &b, &[0xc0, 0xff]));
                let ended = xs.txn_end(cost, m, 0, id, *commit && written.is_ok());
                written.and(ended)
            }),
        }
    }

    /// Runs a script, skipping blank lines and `#` comments; stops at
    /// the first line that does not parse or whose op fails.
    pub fn run(&mut self, script: &str) -> Result<(), String> {
        for (i, line) in script.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let op: Op = line.parse().map_err(|e| format!("line {}: {e}", i + 1))?;
            self.apply(&op)
                .map_err(|e| format!("line {} `{op}`: {e}", i + 1))?;
        }
        Ok(())
    }

    /// A request on the primary's store as Dom0, charged to a meter of
    /// its own.
    fn store_op(
        &mut self,
        f: impl FnOnce(&mut Xenstored, &CostModel, &mut Meter) -> Result<(), XsError>,
    ) -> Result<Applied, OpError> {
        let (cost, mut meter) = (self.plane.cost(), Meter::new());
        f(&mut self.plane.xs, &cost, &mut meter).map_err(PlaneError::from)?;
        Applied::done(None, vec![meter.total()])
    }
}

fn resolve(image: &str) -> Result<GuestImage, OpError> {
    GuestImage::by_name(image).ok_or_else(|| OpError::NoSuchImage(image.to_string()))
}

/// What [`OpGen`] may draw. `Fault` arms the primary at a random site
/// and seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Create,
    Destroy,
    Fault,
    ForkProbe,
    XsWrite,
    XsRm,
    XsTxn,
}

/// A seeded op stream from per-kind weights and a pool of guest names,
/// each op drawn from the world as it stands: a `create` takes a free
/// name and makes a daytime guest, a `destroy` takes a live one, and a
/// kind with no such name is skipped. Store ops touch a few paths under
/// `/test`, so they collide.
pub struct OpGen<'a> {
    rng: SimRng,
    weights: &'a [(OpKind, u32)],
    names: &'a [&'a str],
    drawn: usize,
}

impl<'a> OpGen<'a> {
    pub fn new(seed: u64, weights: &'a [(OpKind, u32)], names: &'a [&'a str]) -> Self {
        OpGen {
            rng: SimRng::new(seed),
            weights,
            names,
            drawn: 0,
        }
    }

    pub fn next(&mut self, world: &World) -> Op {
        let names_for = |kind| -> Option<Vec<String>> {
            let live = match kind {
                OpKind::Create => false,
                OpKind::Destroy => true,
                _ => return None,
            };
            Some(
                self.names
                    .iter()
                    .filter(|n| world.guest(n).is_some() == live)
                    .map(|n| n.to_string())
                    .collect(),
            )
        };
        let open: Vec<(OpKind, u32)> = self
            .weights
            .iter()
            .copied()
            .filter(|&(kind, _)| names_for(kind).is_none_or(|n| !n.is_empty()))
            .collect();
        let total: u32 = open.iter().map(|&(_, w)| w).sum();
        assert!(total > 0, "no op kind can be drawn");
        let mut at = self.rng.index(total as usize) as u32;
        let kind = open
            .iter()
            .find_map(|&(kind, w)| {
                if at < w {
                    return Some(kind);
                }
                at -= w;
                None
            })
            .expect("the weights cover the draw");
        let name = names_for(kind).map(|n| n[self.rng.index(n.len())].clone());
        self.drawn += 1;
        let rng = &mut self.rng;
        let path = |s: String| XsPath::parse(&s).expect("generated paths are valid");
        match (kind, name) {
            (OpKind::Create, Some(name)) => Op::Create {
                name,
                image: "daytime".into(),
                mem: None,
                vcpus: None,
            },
            (OpKind::Destroy, Some(name)) => Op::Destroy(name),
            (OpKind::Fault, _) => {
                let site = FaultSite::ALL[rng.index(FaultSite::ALL.len())];
                Op::Fault(Host::Primary, Some((site, rng.index(1 << 16) as u64)))
            }
            (OpKind::ForkProbe, _) => Op::ForkProbe(format!("probe-{}", self.drawn)),
            (OpKind::XsWrite, _) => Op::XsWrite(
                path(format!("/test/n{}", rng.index(6))),
                if rng.chance(0.5) {
                    vec![0xff, 0xfe, rng.index(256) as u8]
                } else {
                    format!("v{}", rng.index(1000)).into_bytes()
                },
            ),
            (OpKind::XsRm, _) => Op::XsRm(path(format!("/test/n{}", rng.index(6)))),
            (OpKind::XsTxn, _) => {
                Op::XsTxn(path(format!("/test/t{}", self.drawn)), rng.chance(0.5))
            }
            (kind, None) => unreachable!("{kind:?} names a guest"),
        }
    }
}
