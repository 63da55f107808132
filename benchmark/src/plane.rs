//! Control-plane workloads: one caller drives a fresh `ControlPlane` in
//! a closed loop — each create or destroy waits for the previous one —
//! with no reuse layer (worldcache, cloneboot, snapshots) in the way.
//!
//! Untraced reps time the whole climb or churn. Traced reps also time
//! every `create_vm`, `boot_vm` and `destroy_vm` call and read the
//! layers' own counters (`Xenstored::stats`, `census`, the shell pool,
//! the thread's allocation counter) around the timed work.

use std::time::Instant;

use bench::alloc::thread_allocs;
use guests::GuestImage;
use hypervisor::DomId;
use simcore::{Category, Machine, MachinePreset, SimRng};
use toolstack::{ControlPlane, ToolstackMode};

use crate::spec::Values;
use crate::{stats, Rep};

/// Seed of the simulated host. The workload seed picks only the inputs
/// (image mix, names, which guests churn destroys), never the model.
const PLANE_SEED: u64 = 42;

/// The Figure 5 categories reported as `sim.<label>_ms_mean`.
const CATEGORIES: [Category; 6] = [
    Category::Config,
    Category::Toolstack,
    Category::Hypervisor,
    Category::Xenstore,
    Category::Devices,
    Category::Load,
];

pub enum Load {
    /// Create and boot `n` guests, one after another.
    Climb(usize),
    /// Create `base` guests (set-up), then run `ops` operations, each a
    /// create or the destroy of a random live guest. The create
    /// probability falls linearly from 1 at `base / 2` live guests to 0
    /// at `3 * base / 2`, so the population stays near `base` whatever
    /// the seed and every seed does about the same work.
    Churn { base: usize, ops: usize },
}

pub struct PlaneWorkload {
    pub preset: MachinePreset,
    pub dom0_cores: usize,
    pub mode: ToolstackMode,
    pub load: Load,
}

/// The seeded mix: four unikernels that fit 8000 at a time in the AMD
/// preset's 128 GiB.
fn images() -> [GuestImage; 4] {
    [
        GuestImage::unikernel_noop(),
        GuestImage::unikernel_daytime(),
        GuestImage::unikernel_minipython(),
        GuestImage::clickos_firewall(),
    ]
}

/// Images are dealt from a shuffled deck holding this many of each, so
/// every 100 creates use every image equally often: the seed changes the
/// order of the mix, never how much work it is.
const DECK_COPIES: usize = 25;

/// The seeded input stream: image order, churn decisions and names.
/// Names are a fixed-width seed tag plus a counter, recycled LIFO from
/// destroyed guests.
struct Inputs {
    rng: SimRng,
    tag: String,
    deck: Vec<usize>,
    issued: usize,
    free: Vec<String>,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let mut rng = SimRng::new(seed);
        let tag = format!("g{:08x}", rng.next_u64() as u32);
        Inputs {
            rng,
            tag,
            deck: Vec::new(),
            issued: 0,
            free: Vec::new(),
        }
    }

    fn guest(&mut self) -> (String, usize) {
        if self.deck.is_empty() {
            self.deck = (0..4 * DECK_COPIES).map(|i| i % 4).collect();
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.index(i + 1);
                self.deck.swap(i, j);
            }
        }
        let image = self.deck.pop().expect("refilled above");
        let name = self.free.pop().unwrap_or_else(|| {
            self.issued += 1;
            format!("{}-{}", self.tag, self.issued)
        });
        (name, image)
    }
}

/// Simulated-time sums over the timed creates, boots and destroys, in
/// nanoseconds. They must repeat exactly at one seed.
#[derive(Debug, Default, PartialEq)]
struct SimSums {
    creates: u64,
    create_ns: u64,
    by_category: [u64; CATEGORIES.len()],
    boot_ns: u64,
    destroy_ns: u64,
}

/// Host latencies of single calls, in microseconds (traced reps only).
#[derive(Default)]
pub struct Samples {
    pub create_vm_us: Vec<f64>,
    pub boot_vm_us: Vec<f64>,
    pub destroy_vm_us: Vec<f64>,
}

impl Samples {
    pub fn extend(&mut self, other: Samples) {
        self.create_vm_us.extend(other.create_vm_us);
        self.boot_vm_us.extend(other.boot_vm_us);
        self.destroy_vm_us.extend(other.destroy_vm_us);
    }

    /// p50/p99 of every call kind, as per-layer values.
    pub fn percentiles(&self, into: &mut Values) {
        for (call, v) in [
            ("create_vm", &self.create_vm_us),
            ("boot_vm", &self.boot_vm_us),
            ("destroy_vm", &self.destroy_vm_us),
        ] {
            into.insert(format!("plane.{call}_us_p50"), stats::percentile(v, 50.0));
            into.insert(format!("plane.{call}_us_p99"), stats::percentile(v, 99.0));
        }
    }
}

struct Caller<'a> {
    cp: ControlPlane,
    images: &'a [GuestImage],
    traced: bool,
    live: Vec<(DomId, String)>,
    errors: u64,
    sim: SimSums,
    samples: Samples,
    create_allocs: u64,
}

impl Caller<'_> {
    fn create(&mut self, name: String, image: usize) {
        let started = self.traced.then(|| (Instant::now(), thread_allocs()));
        let report = match self.cp.create_vm(&name, &self.images[image]) {
            Ok(r) => r,
            Err(_) => {
                self.errors += 1;
                return;
            }
        };
        let created = self.traced.then(Instant::now);
        let boot = match self.cp.boot_vm(report.dom) {
            Ok(b) => b,
            Err(_) => {
                self.errors += 1;
                if self.cp.destroy_vm(report.dom).is_err() {
                    self.errors += 1;
                }
                return;
            }
        };
        if let (Some((t0, a0)), Some(t1)) = (started, created) {
            self.samples.create_vm_us.push(us(t1 - t0));
            self.samples.boot_vm_us.push(us(t1.elapsed()));
            self.create_allocs += thread_allocs() - a0;
        }
        self.sim.creates += 1;
        self.sim.create_ns += report.total().as_nanos();
        for (sum, cat) in self.sim.by_category.iter_mut().zip(CATEGORIES) {
            *sum += report.meter.of(cat).as_nanos();
        }
        self.sim.boot_ns += boot.as_nanos();
        self.live.push((report.dom, name));
    }

    /// Destroys the `idx`-th live guest and returns its name for reuse.
    fn destroy(&mut self, idx: usize) -> String {
        let (dom, name) = self.live.swap_remove(idx);
        let started = self.traced.then(Instant::now);
        match self.cp.destroy_vm(dom) {
            Ok(t) => self.sim.destroy_ns += t.as_nanos(),
            Err(_) => self.errors += 1,
        }
        if let Some(t0) = started {
            self.samples.destroy_vm_us.push(us(t0.elapsed()));
        }
        name
    }
}

fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

impl PlaneWorkload {
    pub fn rep(&self, seed: u64, traced: bool) -> Rep {
        let images = images();
        let mut inputs = Inputs::new(seed);

        let setup = Instant::now();
        let mut cp = ControlPlane::new(
            Machine::preset(self.preset),
            self.dom0_cores,
            self.mode,
            PLANE_SEED,
        );
        for image in &images {
            cp.prewarm(image);
        }
        let mut d = Caller {
            cp,
            images: &images,
            traced: false,
            live: Vec::new(),
            errors: 0,
            sim: SimSums::default(),
            samples: Samples::default(),
            create_allocs: 0,
        };
        let base = match self.load {
            Load::Climb(_) => 0,
            Load::Churn { base, .. } => base,
        };
        for _ in 0..base {
            let (name, image) = inputs.guest();
            d.create(name, image);
        }
        let setup_s = setup.elapsed().as_secs_f64();

        d.sim = SimSums::default();
        d.traced = traced;
        let xs0 = d.cp.xs.stats();
        let tasks0 = d.cp.cpu.tasks_started();
        let pool0 = d.cp.daemon.stats();
        let allocs0 = thread_allocs();
        let timed = Instant::now();
        let ops = match self.load {
            Load::Climb(n) => {
                for _ in 0..n {
                    let (name, image) = inputs.guest();
                    d.create(name, image);
                }
                n
            }
            Load::Churn { base, ops } => {
                let (lo, hi) = (base / 2, base * 3 / 2);
                for _ in 0..ops {
                    let live = d.live.len();
                    let p_create = (hi - live.clamp(lo, hi)) as f64 / (hi - lo) as f64;
                    if inputs.rng.chance(p_create) {
                        let (name, image) = inputs.guest();
                        d.create(name, image);
                    } else {
                        let idx = inputs.rng.index(live);
                        let name = d.destroy(idx);
                        inputs.free.push(name);
                    }
                }
                ops
            }
        };
        let wall_s = timed.elapsed().as_secs_f64();
        let allocs = thread_allocs() - allocs0;

        let census = d.cp.census();
        let xs = census.xs_stats;
        let failed = d.errors + d.cp.create_failures() + d.cp.teardown_errors.total();
        let fingerprint = format!("{:?} {:?} {:?}", d.sim, xs, census.occupancy());

        let mut layers = Values::new();
        if traced {
            let creates = d.sim.creates.max(1) as f64;
            let per_create_ms = |ns: u64| ns as f64 / creates / 1e6;
            let mut put = |k: &str, v: f64| {
                layers.insert(k.to_string(), v);
            };
            put("sim.create_ms_mean", per_create_ms(d.sim.create_ns));
            for (cat, &ns) in CATEGORIES.iter().zip(&d.sim.by_category) {
                put(&format!("sim.{}_ms_mean", cat.label()), per_create_ms(ns));
            }
            let requests = xs.requests - xs0.requests;
            let watch_events = xs.watch_events - xs0.watch_events;
            let commits = xs.txn_commits - xs0.txn_commits;
            let conflicts = xs.txn_conflicts - xs0.txn_conflicts;
            let tasks = d.cp.cpu.tasks_started() - tasks0;
            let pool = d.cp.daemon.stats();
            put("xenstore.requests_per_create", requests as f64 / creates);
            put(
                "xenstore.watch_events_per_create",
                watch_events as f64 / creates,
            );
            put("xenstore.txn_commits", commits as f64);
            put(
                "xenstore.txn_conflict_ratio",
                conflicts as f64 / (commits + conflicts).max(1) as f64,
            );
            put("xenstore.store_live", census.store_live as f64);
            put("xenstore.store_capacity", census.store_capacity as f64);
            put("xenstore.interned_syms", census.interned_syms as f64);
            put("xenstore.log_rotations", census.log_rotations as f64);
            put("hv.domains", census.domains as f64);
            put("hv.evtchns_open", census.evtchns as f64);
            put("hv.grants", census.grants as f64);
            put("devices.net_devs", census.net_devs as f64);
            put("cpu.tasks_started", tasks as f64);
            put("split.pool_hits", (pool.0 - pool0.0) as f64);
            put("split.pool_misses", (pool.1 - pool0.1) as f64);
            put("alloc.total", allocs as f64);
            put(
                "alloc.per_event",
                allocs as f64 / (requests + watch_events + tasks).max(1) as f64,
            );
            put("alloc.per_create", d.create_allocs as f64 / creates);
            put("plane.destroy_growth", growth(&d.samples.destroy_vm_us));
        }

        Rep {
            setup_s,
            wall_s,
            peak_rss_mb: crate::host::peak_rss_mb(),
            attempted: (base + ops) as u64,
            failed,
            fingerprint,
            layers,
            samples: d.samples,
        }
    }
}

/// Median latency of the last tenth of destroys over the first tenth's
/// (0 with fewer than ten destroys): above 1 means teardown slows down
/// as the host ages.
fn growth(destroys: &[f64]) -> f64 {
    let tenth = destroys.len() / 10;
    if tenth == 0 {
        return 0.0;
    }
    stats::median(&destroys[destroys.len() - tenth..]) / stats::median(&destroys[..tenth])
}
