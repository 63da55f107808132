//! The per-run world store: every booted world a figure unit reuses,
//! keyed by what makes a simulation unique — (mode, machine, config,
//! image, seed). Density sweeps across the figure registry boot the
//! same worlds to the same guest counts — fig04, fig05, fig09 and the
//! faults sweep all grow an identical xl world — so the store climbs
//! each distinct world *chain* once and serves every consumer from it.
//!
//! [`runner::run`](crate::runner::run) creates one [`Store`] per run and
//! hands it to every task body; nothing outlives the run, so every run
//! starts cold and no run can observe another's state. The planner
//! ([`crate::sched`]) *declares* every read up front, and a chain rung
//! is the only producer of a reused world:
//!
//! * a chain is its **tip** (the live world, advanced in place by the
//!   chain's rung tasks and dropped once the top declared rung is
//!   reached) plus per-create records and [`RungInfo`] observables
//!   published as it climbs — what `Dep::Chain` readers get
//!   ([`Store::records_at`]);
//! * a declared **World rung** (`Dep::World`, and every probe-walk
//!   step) is a [`Snapshot`] the chain task deposits when it reaches
//!   that rung. Each declared consumer forks it ([`Store::world_at`])
//!   and the last one drops it.
//!
//! There is no base snapshot and no replay: reading a rung the chain
//! has not published is a planner bug and panics with the spec and the
//! rung. A deposit is held only between its rung task and its last
//! consumer — an early version of this cache that deposited a snapshot
//! at *every* density held hundreds of MB live for the whole run and
//! slowed every later unit 2-4x through allocator and cache pressure.
//!
//! Correctness rests on two properties, both pinned by tests:
//!
//! * **Forks are faithful.** A forked world is digest-identical to a
//!   freshly simulated one (`proptest_snapshot.rs`), so measurements
//!   taken on or after a fork are byte-identical to the uncached run.
//! * **Chains are deterministic.** A chain is keyed by everything its
//!   evolution depends on (the simulation is fully seeded), and guests
//!   are named canonically (`{image}-{index}`), so artefacts do not
//!   depend on task scheduling order, and a run with `cache: false` —
//!   every unit [`Store::simulate`]s its world from scratch through the
//!   same [`Store::advance`] — produces identical bytes.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use guests::GuestImage;
use lightvm::usecases::compute::{self, ComputeConfig, ComputeResult};
use simcore::{Machine, Meter, SimTime};
use toolstack::snapshot::Snapshot;
use toolstack::{cloneboot, ControlPlane, CreateReport, PlaneError, ToolstackMode};

use crate::cluster::ShardTrace;
use crate::probewalk::{self, Walk};

/// Everything a chained world's evolution depends on.
#[derive(Clone)]
pub struct WorldSpec {
    pub machine: Machine,
    pub dom0_cores: usize,
    pub mode: ToolstackMode,
    pub image: GuestImage,
    pub seed: u64,
}

impl WorldSpec {
    /// The world at step 0: constructed and prewarmed, no guests yet.
    pub(crate) fn build_base(&self) -> ControlPlane {
        let mut cp =
            ControlPlane::new(self.machine.clone(), self.dom0_cores, self.mode, self.seed);
        cp.prewarm(&self.image);
        cp
    }

    /// Short human-readable identity for scheduler labels/traces.
    pub fn label(&self) -> String {
        format!(
            "{}/{}c/{}/s{}",
            self.mode.label(),
            self.dom0_cores,
            self.image.name,
            self.seed
        )
    }

    /// Chain key: the label is the human-readable identity; the
    /// fingerprint hashes the full machine and image parameters (cost
    /// model included) so that two specs which merely *print* alike —
    /// say, an ablation's perturbed cost model on the stock machine
    /// name — can never share a chain.
    pub(crate) fn key(&self) -> Key {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        format!("{:?}|{:?}", self.machine, self.image).hash(&mut h);
        (self.label(), h.finish())
    }
}

pub(crate) type Key = (String, u64);

/// One guest's measurements from a chain climb, reusable by every
/// consumer of the chain (the guest index is the record's position).
#[derive(Clone)]
pub struct CreateRecord {
    /// Per-category creation cost breakdown (fig05 plots it; everyone
    /// else wants `create()`).
    pub meter: Meter,
    /// Boot latency.
    pub boot: SimTime,
    /// Whole-machine CPU utilisation right after this boot. Computing
    /// it walks every task, so it is sampled only where a figure can
    /// read it — densities on the ladder ([`crate::on_density_ladder`])
    /// — and is `NaN` elsewhere.
    pub util_after: f64,
}

impl CreateRecord {
    /// Total creation latency, as `create_and_boot` reports it.
    pub fn create(&self) -> SimTime {
        self.meter.total()
    }
}

/// What one store read did, for the per-unit perf report.
#[derive(Clone, Copy, Default)]
pub struct CacheStats {
    /// 1 if a chain rung (beyond the empty base) was reused.
    pub hits: u64,
    /// Snapshot forks performed.
    pub forks: u64,
    /// create+boot sequences skipped thanks to chain rungs.
    pub boots_saved: u64,
    /// Creates that found a cloneboot template (this call's builds).
    pub clone_hits: u64,
    /// Creates whose name scan was replayed in closed form.
    pub boots_replayed: u64,
    /// Store-engine requests those replays avoided.
    pub clone_saved: u64,
}

impl CacheStats {
    /// Folds these stats into a unit output.
    pub fn into_output(self, out: &mut crate::figures::UnitOutput) {
        out.snapshot_hits += self.hits;
        out.snapshot_forks += self.forks;
        out.boot_events_saved += self.boots_saved + self.clone_saved;
        out.clone_boot_hits += self.clone_hits;
        out.boots_replayed += self.boots_replayed;
    }
}

/// Cheap world-level observables captured when a chain passes a rung:
/// everything a pure *reader* of the chain consumes besides the
/// per-create records, so a `Dep::Chain` reader never touches the live
/// world — even after the tip has grown past its rung.
#[derive(Clone, Copy, Debug)]
pub struct RungInfo {
    /// Simulated clock at this density, in milliseconds.
    pub virtual_ms: f64,
    /// Discrete simulation events processed so far (xenstored requests
    /// + watch deliveries + CPU-model task registrations).
    pub events: u64,
    /// XenStore access-log rotations so far (fig05 metadata).
    pub log_rotations: u64,
    /// Transaction conflicts so far (fig05 metadata).
    pub txn_conflicts: u64,
    /// Fast at-rest world digest (DESIGN.md §6h) at this rung. Not a
    /// figure input — a World rung's deposited snapshot must match it,
    /// so a deposit that ever diverges from the rung it claims to be
    /// fails loudly instead of serving a different "density d" world.
    pub digest: u128,
}

impl RungInfo {
    /// Reads the observables off a live world.
    pub fn capture(cp: &ControlPlane) -> RungInfo {
        let stats = cp.xs.stats();
        RungInfo {
            virtual_ms: cp.cpu.now().as_millis_f64(),
            events: stats.requests + stats.watch_events + cp.cpu.tasks_started(),
            log_rotations: cp.xs.log_rotations(),
            txn_conflicts: stats.txn_conflicts,
            digest: cp.world_digest64_at_rest(),
        }
    }
}

/// A declared World rung: the snapshot its chain task deposits, and how
/// many declared consumers have yet to fork it.
#[derive(Default)]
struct Deposit {
    consumers: usize,
    snap: Option<Arc<Mutex<Snapshot>>>,
}

#[derive(Default)]
pub(crate) struct Chain {
    records: Vec<CreateRecord>,
    /// Guests booted on the tip so far.
    at: usize,
    /// The live world at `at` guests, built by the first rung task and
    /// dropped by the task that reaches `top`.
    tip: Option<ControlPlane>,
    /// Highest rung any consumer declared.
    top: usize,
    /// Observables published at every ladder rung crossed and at every
    /// rung task's target.
    info: HashMap<usize, RungInfo>,
    deposits: HashMap<usize, Deposit>,
}

type WalkKey = (&'static str, Vec<usize>);

/// One run's reuse state and configuration. See the module docs.
pub struct Store {
    /// Reuse worlds through chains (`runall --no-snapshot-cache` clears
    /// it: every unit simulates from scratch, byte-identically).
    pub cache: bool,
    /// Route chain and cluster creates through template boots
    /// (`runall --no-clone-boot` clears it).
    pub clone_boot: bool,
    /// Worker threads the cluster units' shard executor may use (the
    /// runner's worker budget; artefact bytes never depend on it).
    pub shard_jobs: usize,
    chains: HashMap<Key, Mutex<Chain>>,
    computes: Mutex<HashMap<String, ComputeResult>>,
    walks: Mutex<HashMap<WalkKey, Arc<Walk>>>,
    /// Per-worker shard spans the cluster units recorded, appended to
    /// the runner's task trace as `shard` rows.
    pub(crate) shard_trace: Mutex<Vec<ShardTrace>>,
    hits: AtomicU64,
    forks: AtomicU64,
    boots_saved: AtomicU64,
    boots_simulated: AtomicU64,
}

impl Default for Store {
    fn default() -> Store {
        Store::new(true, true)
    }
}

impl Store {
    pub fn new(cache: bool, clone_boot: bool) -> Store {
        Store {
            cache,
            clone_boot,
            shard_jobs: 1,
            chains: HashMap::new(),
            computes: Mutex::new(HashMap::new()),
            walks: Mutex::new(HashMap::new()),
            shard_trace: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            forks: AtomicU64::new(0),
            boots_saved: AtomicU64::new(0),
            boots_simulated: AtomicU64::new(0),
        }
    }

    /// Declares a read of `spec`'s chain at `rung` (records + rung
    /// observables). Plan time only.
    pub(crate) fn declare_chain(&mut self, spec: &WorldSpec, rung: usize) -> &mut Chain {
        let chain = self.chains.entry(spec.key()).or_default();
        let chain = chain.get_mut().expect("worldcache chain lock");
        chain.top = chain.top.max(rung);
        chain
    }

    /// Declares one consumer of the world at `spec`'s `rung`: the chain
    /// task deposits a snapshot there, and this consumer forks it once.
    pub(crate) fn declare_world(&mut self, spec: &WorldSpec, rung: usize) {
        let chain = self.declare_chain(spec, rung);
        chain.deposits.entry(rung).or_default().consumers += 1;
    }

    fn chain(&self, spec: &WorldSpec, rung: usize) -> std::sync::MutexGuard<'_, Chain> {
        self.chains
            .get(&spec.key())
            .unwrap_or_else(|| panic!("worldcache: {}@{rung} read but never declared", spec.label()))
            .lock()
            .expect("worldcache chain lock")
    }

    /// One create+boot, through the template-boot cache when
    /// `clone_boot` is on (same results and simulated charges either
    /// way; only the wall cost of xl's name scan differs).
    pub fn create_and_boot(
        &self,
        cp: &mut ControlPlane,
        name: &str,
        image: &GuestImage,
    ) -> Result<(CreateReport, SimTime), PlaneError> {
        if self.clone_boot {
            cloneboot::create_and_boot_report(cp, name, image)
        } else {
            cp.create_and_boot_report(name, image)
        }
    }

    /// Boots guests `from..to` with canonical names, appending their
    /// records and publishing [`RungInfo`] at every density-ladder rung
    /// crossed (and at `to` itself). Capturing rung observables is
    /// read-only — the world's evolution is identical with or without
    /// it, which is what keeps cached and uncached artefacts
    /// byte-identical.
    pub(crate) fn advance(
        &self,
        cp: &mut ControlPlane,
        image: &GuestImage,
        from: usize,
        to: usize,
        records: &mut Vec<CreateRecord>,
        mut info: Option<&mut HashMap<usize, RungInfo>>,
        stats: &mut CacheStats,
    ) {
        // Attribution diffs the plane's own counters, not the process
        // totals: totals move under parallel workers, the plane is ours.
        let before = cp.clone_stats;
        for i in from..to {
            let (report, boot) = self
                .create_and_boot(cp, &format!("{}-{i}", image.name), image)
                .expect("world chain create+boot");
            self.boots_simulated.fetch_add(1, Ordering::Relaxed);
            let done = i + 1;
            let on_ladder = crate::on_density_ladder(done);
            records.push(CreateRecord {
                meter: report.meter,
                boot,
                util_after: if on_ladder { cp.cpu_utilization() } else { f64::NAN },
            });
            if let (true, Some(info)) = (on_ladder, info.as_deref_mut()) {
                info.entry(done).or_insert_with(|| RungInfo::capture(cp));
            }
        }
        if let Some(info) = info {
            info.entry(to).or_insert_with(|| RungInfo::capture(cp));
        }
        stats.clone_hits += cp.clone_stats.hits - before.hits;
        stats.boots_replayed += cp.clone_stats.replayed - before.replayed;
        stats.clone_saved += cp.clone_stats.saved - before.saved;
    }

    /// The `cache: false` reference: simulates `spec`'s world to `n`
    /// guests from scratch, through the same [`Store::advance`].
    pub fn simulate(&self, spec: &WorldSpec, n: usize) -> (ControlPlane, Vec<CreateRecord>, CacheStats) {
        let mut cp = spec.build_base();
        let mut records = Vec::with_capacity(n);
        let mut stats = CacheStats::default();
        self.advance(&mut cp, &spec.image, 0, n, &mut records, None, &mut stats);
        (cp, records, stats)
    }

    /// Chain-task body: climbs `spec`'s tip in place to `target`,
    /// publishing records and rung observables on the way, deposits a
    /// snapshot if `target` is a declared World rung, and drops the tip
    /// at the chain's top rung. Returns the boots this call simulated
    /// plus the climb's stats (clone-boot hits/replays, for the trace).
    pub fn build_to(&self, spec: &WorldSpec, target: usize) -> (u64, CacheStats) {
        let mut guard = self.chain(spec, target);
        let chain = &mut *guard;
        assert!(
            chain.at <= target && target <= chain.top && (chain.tip.is_some() || chain.at == 0),
            "worldcache: {} rung {target} out of order (tip at {}, top {})",
            spec.label(),
            chain.at,
            chain.top
        );
        let world = chain.tip.get_or_insert_with(|| spec.build_base());
        let mut stats = CacheStats::default();
        let boots = (target - chain.at) as u64;
        self.advance(world, &spec.image, chain.at, target, &mut chain.records, Some(&mut chain.info), &mut stats);
        chain.at = target;
        if let Some(deposit) = chain.deposits.get_mut(&target) {
            let snap = world.snapshot();
            assert_eq!(
                snap.digest(),
                chain.info[&target].digest,
                "worldcache: {} world rung {target} diverged from its published digest",
                spec.label()
            );
            deposit.snap = Some(Arc::new(Mutex::new(snap)));
        }
        let spent = if target == chain.top { chain.tip.take() } else { None };
        drop(guard);
        // Nobody can read past the top rung: free the tip off the lock.
        drop(spent);
        (boots, stats)
    }

    /// Returns the per-create records for guests `0..target` of `spec`
    /// plus the rung observables at `target` — no world contact. With
    /// the cache off, simulates the world instead.
    pub fn records_at(&self, spec: &WorldSpec, target: usize) -> (RungInfo, Vec<CreateRecord>, CacheStats) {
        if !self.cache {
            let (cp, records, stats) = self.simulate(spec, target);
            return (RungInfo::capture(&cp), records, stats);
        }
        let chain = self.chain(spec, target);
        let info = *chain.info.get(&target).unwrap_or_else(|| {
            panic!("worldcache: {} rung {target} read before its chain task published it", spec.label())
        });
        let records = chain.records[..target].to_vec();
        drop(chain);
        (info, records, self.reused(target, 0))
    }

    /// Forks the world `spec`'s chain deposited at `rung` (a declared
    /// World rung; the last declared consumer drops the deposit). With
    /// the cache off, simulates the world instead.
    pub fn world_at(&self, spec: &WorldSpec, rung: usize) -> (ControlPlane, CacheStats) {
        if !self.cache {
            let (cp, _, stats) = self.simulate(spec, rung);
            return (cp, stats);
        }
        let mut chain = self.chain(spec, rung);
        let deposit = chain.deposits.get_mut(&rung);
        let Some(Deposit { consumers, snap: Some(snap) }) = deposit else {
            panic!("worldcache: {} world {rung} read before its chain task deposited it", spec.label())
        };
        let snap = Arc::clone(snap);
        *consumers -= 1;
        if *consumers == 0 {
            chain.deposits.remove(&rung);
        }
        drop(chain);
        // The last consumer takes the deposit itself instead of a copy.
        let cp = match Arc::try_unwrap(snap) {
            Ok(last) => last.into_inner().expect("deposit lock").into_plane(),
            Err(shared) => shared.lock().expect("deposit lock").fork(),
        };
        (cp, self.reused(rung, 1))
    }

    /// Counts one reuse of a `boots`-guest world (plus `forks` forks).
    fn reused(&self, boots: usize, forks: u64) -> CacheStats {
        if boots == 0 {
            return CacheStats::default();
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.forks.fetch_add(forks, Ordering::Relaxed);
        self.boots_saved.fetch_add(boots as u64, Ordering::Relaxed);
        CacheStats {
            hits: 1,
            forks,
            boots_saved: boots as u64,
            ..CacheStats::default()
        }
    }

    /// Compute-task body: runs the overload simulation for `cfg` and
    /// keeps it for the units that declared it. Returns its sample
    /// count (the trace's event count).
    pub(crate) fn run_compute(&self, cfg: &ComputeConfig) -> u64 {
        let r = compute::run(cfg);
        let events = (r.service_times.len() + r.concurrency.len()) as u64;
        self.computes.lock().expect("compute lock").insert(format!("{cfg:?}"), r);
        events
    }

    /// The overload simulation for `cfg` (fig17 and fig18 share it):
    /// the compute task's result, or an inline run with the cache off.
    pub fn compute(&self, cfg: &ComputeConfig) -> (ComputeResult, CacheStats) {
        if !self.cache {
            return (compute::run(cfg), CacheStats::default());
        }
        let r = self
            .computes
            .lock()
            .expect("compute lock")
            .get(&format!("{cfg:?}"))
            .cloned()
            .unwrap_or_else(|| panic!("worldcache: compute {cfg:?} read before its task ran"));
        self.hits.fetch_add(1, Ordering::Relaxed);
        (r, CacheStats { hits: 1, ..CacheStats::default() })
    }

    /// Installs the walk the last probe task assembled.
    pub(crate) fn publish_walk(&self, mode: ToolstackMode, steps: &[usize], walk: Walk) {
        self.walks
            .lock()
            .expect("walk lock")
            .insert((mode.label(), steps.to_vec()), Arc::new(walk));
    }

    /// `mode`'s probe walk over `steps`: the one its probe tasks built,
    /// or an inline walk with the cache off.
    pub fn walk(&self, mode: ToolstackMode, steps: &[usize]) -> (Arc<Walk>, CacheStats) {
        if !self.cache {
            let w = probewalk::run_walk(self, mode, steps);
            let stats = CacheStats {
                forks: w.rows.len() as u64,
                ..CacheStats::default()
            };
            return (Arc::new(w), stats);
        }
        let w = self
            .walks
            .lock()
            .expect("walk lock")
            .get(&(mode.label(), steps.to_vec()))
            .cloned()
            .unwrap_or_else(|| panic!("worldcache: walk {} read before its probes ran", mode.label()));
        (Arc::clone(&w), self.reused(w.boots as usize, 0))
    }

    /// create+boot sequences chain climbs (or uncached builds) ran.
    pub fn boots_simulated(&self) -> u64 {
        self.boots_simulated.load(Ordering::Relaxed)
    }

    /// One-line run summary for runall.
    pub fn summary(&self) -> String {
        if !self.cache {
            return "worldcache disabled (--no-snapshot-cache)".to_string();
        }
        format!(
            "worldcache: {} chains, {} hits, {} forks, {} boots saved ({} simulated)",
            self.chains.len(),
            self.hits.load(Ordering::Relaxed),
            self.forks.load(Ordering::Relaxed),
            self.boots_saved.load(Ordering::Relaxed),
            self.boots_simulated(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::MachinePreset;

    fn spec() -> WorldSpec {
        WorldSpec {
            machine: Machine::preset(MachinePreset::XeonE5_1630V3),
            dom0_cores: 1,
            mode: ToolstackMode::Xl,
            image: GuestImage::unikernel_daytime(),
            seed: 42,
        }
    }

    /// A World rung below the tip is served from its deposit: the fork
    /// is the 10-guest world, and reading it boots nothing.
    #[test]
    fn world_rung_below_the_tip_is_a_fork_not_a_replay() {
        let spec = spec();
        let mut store = Store::default();
        store.declare_world(&spec, 10);
        store.declare_chain(&spec, 30);
        store.build_to(&spec, 10);
        store.build_to(&spec, 30);

        let simulated = store.boots_simulated();
        assert_eq!(simulated, 30);
        let (mut world, stats) = store.world_at(&spec, 10);
        assert_eq!(store.boots_simulated(), simulated, "the read simulated boots");
        assert_eq!(stats.boots_saved, 10);
        assert_eq!((stats.hits, stats.forks), (1, 1));

        let (mut fresh, _, _) = Store::new(false, false).simulate(&spec, 10);
        assert_eq!(world.world_digest64(), fresh.world_digest64());
    }

    /// Reading a rung no chain task published is a planner bug.
    #[test]
    #[should_panic(expected = "read before its chain task deposited it")]
    fn reading_an_undeposited_world_panics() {
        let spec = spec();
        let mut store = Store::default();
        store.declare_world(&spec, 5);
        store.world_at(&spec, 5);
    }
}
