//! Shared probe walk behind the checkpoint/migration figures.
//!
//! fig12a (save), fig12b (restore) and fig13 (migrate) all walk the
//! same world — Xeon, 2 Dom0 cores, daytime unikernel, seed 42 — up
//! the density ladder and probe it destructively at every step. The
//! probes must see a *pristine* world, so each density probes a
//! throwaway fork while the source keeps growing untouched; and because
//! the three figures' probe streams are independently seeded, one walk
//! measures all of them in a single pass.
//!
//! The walk is one producer task, like a compute run: [`run_walk`]
//! climbs the walk's world through [`Store::advance`], probes one
//! throwaway fork per step, and the scheduler stores the finished
//! [`Walk`] in the run's [`Store`], where the consuming units read it.
//! With the cache off each unit runs the same [`run_walk`] inline,
//! which is what keeps the bytes equal.
//!
//! Old behaviour note: the pre-cache figures probed the live world in
//! place, so a save/restore round-trip left domain ids and RNG draws
//! behind for the next density. Probing forks instead isolates every
//! density — the measured latencies are the ones a fresh world of that
//! density would show.

use guests::GuestImage;
use simcore::{Machine, MachinePreset, SimRng};
use toolstack::{ControlPlane, ToolstackMode};

use crate::figures::UnitOutput;
use crate::worldcache::{Store, WorldSpec};

/// Domains probed per density step (matches the paper's methodology).
const PROBES_PER_STEP: usize = 10;

/// RNG seed for the save/restore pick stream (fig12a/b).
const CKPT_RNG_SEED: u64 = 11;

/// RNG seed for the migration pick stream (fig13).
const MIG_RNG_SEED: u64 = 7;

/// Mean probe latencies at one density.
#[derive(Clone, Copy)]
pub struct StepProbe {
    pub n: usize,
    pub save_ms: f64,
    pub restore_ms: f64,
    pub migrate_ms: f64,
}

/// Perf-report numbers a consuming unit inherits from the walk.
#[derive(Clone, Copy)]
pub struct WalkStats {
    pub virtual_ms: f64,
    pub events: u64,
}

/// One mode's complete probe walk.
pub struct Walk {
    pub rows: Vec<StepProbe>,
    /// create+boot sequences the walk's world covers (credited as saved
    /// to units that read the stored walk). One fork per row was probed.
    pub boots: u64,
    /// Stats of the final probe world (fig12a/b report).
    pub probe: WalkStats,
    /// Events on the accumulated destination host (fig13 adds these to
    /// the probe world's).
    pub dst_events: u64,
    /// Save/restore and migration probes performed.
    pub probes: u64,
}

fn xeon() -> Machine {
    Machine::preset(MachinePreset::XeonE5_1630V3)
}

/// The world the walk climbs.
fn walk_spec(mode: ToolstackMode) -> WorldSpec {
    WorldSpec {
        machine: xeon(),
        dom0_cores: 2,
        mode,
        image: GuestImage::unikernel_daytime(),
        seed: 42,
    }
}

/// Climbs `mode`'s walk world through the store's create path and
/// probes one throwaway fork of it at every step. The two probe-pick
/// RNG streams and the migration destination carry over from step to
/// step, so the steps run in order.
pub(crate) fn run_walk(store: &Store, mode: ToolstackMode, steps: &[usize]) -> Walk {
    let spec = walk_spec(mode);
    let mut src = spec.build_base();
    let mut records = Vec::new();
    let link = lvnet::Link::lan();
    let mut dst = ControlPlane::new(xeon(), 2, mode, 43);
    let mut rng_ckpt = SimRng::new(CKPT_RNG_SEED);
    let mut rng_mig = SimRng::new(MIG_RNG_SEED);
    let mut rows = Vec::with_capacity(steps.len());
    let mut probes = 0u64;
    let mut probe_stats = None;
    let mut made = 0usize;
    for &n in steps {
        store.advance(&mut src, &spec.image, made, n, &mut records);
        made = n;
        let mut probe = src.fork();

        // The save/restore round-trips run first — they are
        // population-neutral (every saved domain is restored), so the
        // migration probes that follow still sample an n-guest world.
        let doms: Vec<_> = probe.vms().map(|(d, _)| *d).collect();
        let k = PROBES_PER_STEP.min(doms.len());
        let mut save_ms = 0.0;
        let mut restore_ms = 0.0;
        for idx in rng_ckpt.sample_distinct(doms.len(), k) {
            let (saved, t_save) = probe.save_vm(doms[idx]).expect("saves");
            let (_, t_restore) = probe.restore_vm(&saved).expect("restores");
            save_ms += t_save.as_millis_f64();
            restore_ms += t_restore.as_millis_f64();
        }

        // Migration probes on the same fork; the destination host
        // accumulates arrivals across densities as the paper's did.
        let doms: Vec<_> = probe.vms().map(|(d, _)| *d).collect();
        let mk = PROBES_PER_STEP.min(doms.len());
        let mut migrate_ms = 0.0;
        for idx in rng_mig.sample_distinct(doms.len(), mk) {
            let (new_dom, t) = probe
                .migrate_vm_to(&mut dst, &link, doms[idx])
                .expect("migrates");
            migrate_ms += t.as_millis_f64();
            dst.destroy_vm(new_dom).expect("destroys");
        }

        rows.push(StepProbe {
            n,
            save_ms: save_ms / k as f64,
            restore_ms: restore_ms / k as f64,
            migrate_ms: migrate_ms / mk as f64,
        });
        probes += (k + mk) as u64;
        let out = UnitOutput::from_plane(&probe);
        probe_stats = Some(WalkStats {
            virtual_ms: out.virtual_ms,
            events: out.events,
        });
    }
    Walk {
        rows,
        boots: made as u64,
        probe: probe_stats.expect("at least one step"),
        dst_events: UnitOutput::from_plane(&dst).events,
        probes,
    }
}
