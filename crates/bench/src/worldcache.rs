//! The per-run world store: the immutable results figure units share,
//! keyed by what makes a simulation unique — (mode, machine, config,
//! image, seed). Density sweeps across the figure registry boot the
//! same worlds to the same guest counts — fig04, fig05, fig09 and the
//! faults sweep all grow an identical xl world — so the store climbs
//! each distinct world *chain* once and serves every reader from it.
//!
//! [`runner::run`](crate::runner::run) creates one [`Store`] per run and
//! hands it to every task body; nothing outlives the run, so every run
//! starts cold and no run can observe another's state. The planner
//! ([`crate::sched`]) gives every shared result exactly one producer
//! task, with no dependencies, that builds it whole and publishes it:
//!
//! * a **chain** ([`Store::run_chain`]) climbs a fresh world through
//!   every rung its readers declared, and publishes the per-create
//!   records plus the [`RungInfo`] observables at each rung — what
//!   `Dep::Chain` readers get ([`Store::records_at`]);
//! * a **walk** is a finished probe walk ([`probewalk::run_walk`]);
//! * a **compute** result is a finished overload simulation.
//!
//! The store shares results, never live worlds: a producer's world is
//! dropped when its task ends. A unit that mutates a world (churn,
//! cluster) builds it with [`Store::simulate`] and forks it itself
//! where it needs copies; the probe walk forks its own climbing world
//! at every step. Reading a result no producer published is a planner
//! bug and panics with the resource's key.
//!
//! Correctness rests on determinism: a chain is keyed by everything its
//! evolution depends on (the simulation is fully seeded), and guests
//! are named canonically (`{image}-{index}`), so artefacts do not
//! depend on task scheduling order, and a run with `cache: false` —
//! every unit [`Store::simulate`]s its world from scratch through the
//! same [`Store::advance`] — produces identical bytes.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use guests::GuestImage;
use lightvm::usecases::compute::{self, ComputeConfig, ComputeResult};
use metrics::RunnerReport;
use simcore::{Machine, Meter, SimTime};
use toolstack::{ControlPlane, ToolstackMode};

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
    pub(crate) fn key(&self) -> String {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        format!("{:?}|{:?}", self.machine, self.image).hash(&mut h);
        format!("{} #{:016x}", self.label(), h.finish())
    }
}

/// Key of `mode`'s probe walk over `steps`.
pub(crate) fn walk_key(mode: ToolstackMode, steps: &[usize]) -> String {
    format!("walk {} {steps:?}", mode.label())
}

/// Key of the overload simulation for `cfg`.
pub(crate) fn compute_key(cfg: &ComputeConfig) -> String {
    format!("compute {cfg:?}")
}

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

/// What one store read did, for the per-unit perf report (the run's
/// totals are the report's sums over units).
#[derive(Clone, Copy, Default)]
pub struct CacheStats {
    /// 1 if a stored result was reused.
    pub hits: u64,
    /// create+boot sequences the reused result covers.
    pub boots_saved: u64,
}

impl CacheStats {
    /// One reuse of a result covering `boots` create+boot sequences.
    fn reused(boots: u64) -> CacheStats {
        CacheStats { hits: 1, boots_saved: boots }
    }

    /// Folds these stats into a unit output.
    pub fn into_output(self, out: &mut crate::figures::UnitOutput) {
        out.snapshot_hits += self.hits;
        out.boot_events_saved += self.boots_saved;
    }
}

/// Cheap world-level observables captured when a chain passes a rung:
/// everything a pure *reader* of the chain consumes besides the
/// per-create records, so a `Dep::Chain` reader never needs a world.
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
        }
    }
}

/// A climbed chain: the records of every guest up to its top rung and
/// the observables at each declared rung.
struct Chain {
    records: Vec<CreateRecord>,
    rungs: BTreeMap<usize, RungInfo>,
}

/// Published results of one kind, by key.
type Shelf<V> = Mutex<HashMap<String, V>>;

fn publish<V>(shelf: &Shelf<V>, key: String, value: V) {
    shelf.lock().expect("worldcache lock").insert(key, value);
}

fn published<V: Clone>(shelf: &Shelf<V>, key: &str) -> V {
    shelf
        .lock()
        .expect("worldcache lock")
        .get(key)
        .cloned()
        .unwrap_or_else(|| panic!("worldcache: {key} read before its producer task ran"))
}

/// One run's reuse state and configuration. See the module docs.
pub struct Store {
    /// Share results between units (`runall --no-snapshot-cache` clears
    /// it: every unit simulates what it reads, byte-identically).
    pub cache: bool,
    chains: Shelf<Arc<Chain>>,
    computes: Shelf<ComputeResult>,
    walks: Shelf<Arc<Walk>>,
    boots_simulated: AtomicU64,
}

impl Default for Store {
    fn default() -> Store {
        Store::new(true)
    }
}

impl Store {
    pub fn new(cache: bool) -> Store {
        Store {
            cache,
            chains: Shelf::default(),
            computes: Shelf::default(),
            walks: Shelf::default(),
            boots_simulated: AtomicU64::new(0),
        }
    }

    /// Boots guests `from..to` with canonical names, appending their
    /// records.
    pub(crate) fn advance(
        &self,
        cp: &mut ControlPlane,
        image: &GuestImage,
        from: usize,
        to: usize,
        records: &mut Vec<CreateRecord>,
    ) {
        for i in from..to {
            let (report, boot) = cp
                .create_and_boot_report(&format!("{}-{i}", image.name), image)
                .expect("world chain create+boot");
            self.boots_simulated.fetch_add(1, Ordering::Relaxed);
            let done = i + 1;
            let on_ladder = crate::on_density_ladder(done);
            records.push(CreateRecord {
                meter: report.meter,
                boot,
                util_after: if on_ladder { cp.cpu_utilization() } else { f64::NAN },
            });
        }
    }

    /// Simulates `spec`'s world to `n` guests from scratch, through the
    /// same [`Store::advance`] chains climb: the `cache: false` path of
    /// every reader, and how a unit that mutates a world builds it.
    pub fn simulate(&self, spec: &WorldSpec, n: usize) -> (ControlPlane, Vec<CreateRecord>) {
        let mut cp = spec.build_base();
        let mut records = Vec::with_capacity(n);
        self.advance(&mut cp, &spec.image, 0, n, &mut records);
        (cp, records)
    }

    /// Chain-task body: climbs a fresh `spec` world through `rungs` in
    /// ascending order and publishes its records and the observables at
    /// each rung (a read-only capture) for [`Store::records_at`]; the
    /// world is dropped on return. Returns the boots simulated.
    pub fn run_chain(&self, spec: &WorldSpec, rungs: &[usize]) -> u64 {
        let mut rungs = rungs.to_vec();
        rungs.sort_unstable();
        rungs.dedup();
        let mut cp = spec.build_base();
        let mut chain = Chain { records: Vec::new(), rungs: BTreeMap::new() };
        for rung in rungs {
            self.advance(&mut cp, &spec.image, chain.records.len(), rung, &mut chain.records);
            chain.rungs.insert(rung, RungInfo::capture(&cp));
        }
        let boots = chain.records.len() as u64;
        publish(&self.chains, spec.key(), Arc::new(chain));
        boots
    }

    /// Returns the per-create records for guests `0..target` of `spec`
    /// plus the rung observables at `target` — no world contact. With
    /// the cache off, simulates the world instead.
    pub fn records_at(&self, spec: &WorldSpec, target: usize) -> (RungInfo, Vec<CreateRecord>, CacheStats) {
        if !self.cache {
            let (cp, records) = self.simulate(spec, target);
            return (RungInfo::capture(&cp), records, CacheStats::default());
        }
        let chain = published(&self.chains, &spec.key());
        let info = *chain.rungs.get(&target).unwrap_or_else(|| {
            panic!("worldcache: {} rung {target} was never declared", spec.label())
        });
        let records = chain.records[..target].to_vec();
        let stats = match target {
            0 => CacheStats::default(),
            _ => CacheStats::reused(target as u64),
        };
        (info, records, stats)
    }

    /// Compute-task body: runs the overload simulation for `cfg` and
    /// keeps it for the units that declared it. Returns its sample
    /// count (the trace's event count).
    pub(crate) fn run_compute(&self, cfg: &ComputeConfig) -> u64 {
        let r = compute::run(cfg);
        let events = (r.service_times.len() + r.concurrency.len()) as u64;
        publish(&self.computes, compute_key(cfg), r);
        events
    }

    /// The overload simulation for `cfg` (fig17 and fig18 share it):
    /// the compute task's result, or an inline run with the cache off.
    pub fn compute(&self, cfg: &ComputeConfig) -> (ComputeResult, CacheStats) {
        if !self.cache {
            return (compute::run(cfg), CacheStats::default());
        }
        (published(&self.computes, &compute_key(cfg)), CacheStats::reused(0))
    }

    /// Walk-task body: runs `mode`'s probe walk over `steps` and keeps
    /// it for the units that declared it. Returns the probes it ran
    /// (the trace's event count).
    pub(crate) fn run_walk(&self, mode: ToolstackMode, steps: &[usize]) -> u64 {
        let w = probewalk::run_walk(self, mode, steps);
        let probes = w.probes;
        publish(&self.walks, walk_key(mode, steps), Arc::new(w));
        probes
    }

    /// `mode`'s probe walk over `steps`: the one its walk task ran, or
    /// an inline walk with the cache off.
    pub fn walk(&self, mode: ToolstackMode, steps: &[usize]) -> (Arc<Walk>, CacheStats) {
        if !self.cache {
            return (Arc::new(probewalk::run_walk(self, mode, steps)), CacheStats::default());
        }
        let w = published(&self.walks, &walk_key(mode, steps));
        let stats = CacheStats::reused(w.boots);
        (w, stats)
    }

    /// create+boot sequences every world built this run ran (chain
    /// climbs, walks and self-built worlds alike).
    pub fn boots_simulated(&self) -> u64 {
        self.boots_simulated.load(Ordering::Relaxed)
    }

    /// One-line run summary for runall; reuse counts are the `report`'s
    /// sums over its units.
    pub fn summary(&self, report: &RunnerReport) -> String {
        if !self.cache {
            return "worldcache disabled (--no-snapshot-cache)".to_string();
        }
        format!(
            "worldcache: {} chains, {} hits, {} boots saved ({} simulated)",
            self.chains.lock().expect("worldcache lock").len(),
            report.units.iter().map(|u| u.snapshot_hits).sum::<u64>(),
            report.total_boots_saved(),
            self.boots_simulated(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{Category, MachinePreset};

    /// A chain climbed once serves each declared rung exactly what a
    /// from-scratch simulation to that rung produces.
    #[test]
    fn chain_rungs_match_fresh_simulations() {
        let spec = WorldSpec {
            machine: Machine::preset(MachinePreset::XeonE5_1630V3),
            dom0_cores: 1,
            mode: ToolstackMode::LightVm,
            image: GuestImage::unikernel_daytime(),
            seed: 42,
        };
        let store = Store::default();
        assert_eq!(store.run_chain(&spec, &[200, 1000]), 1000);
        for rung in [200, 1000] {
            let (info, records, stats) = store.records_at(&spec, rung);
            let (cp, fresh) = store.simulate(&spec, rung);
            let want = RungInfo::capture(&cp);
            let bits = |i: RungInfo| (i.virtual_ms.to_bits(), i.events, i.log_rotations, i.txn_conflicts);
            assert_eq!(bits(info), bits(want), "rung {rung}");
            assert_eq!(stats.boots_saved, rung as u64);
            assert_eq!(records.len(), fresh.len());
            for (i, (a, b)) in records.iter().zip(&fresh).enumerate() {
                let meter = |r: &CreateRecord| Category::ALL.map(|c| r.meter.of(c));
                assert_eq!(meter(a), meter(b), "guest {i}");
                assert_eq!(a.boot, b.boot, "guest {i}");
                assert_eq!(a.util_after.to_bits(), b.util_after.to_bits(), "guest {i}");
            }
        }
    }
}
