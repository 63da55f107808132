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
//! Under the DAG scheduler the source is an ordinary world-store chain
//! ([`chain_spec`]) and every walk step is a declared World rung of it:
//! the chain task deposits a snapshot at the step, and one *probe* task
//! per step forks it ([`WalkBuilder::probe_rung`]). Probe tasks chain on
//! each other (the RNG pick streams and the accumulating migration
//! destination are sequential state) but pipeline behind the chain
//! climb: step d's probes run while the chain climbs toward d+1. The
//! last probe task stores the assembled [`Walk`] in the run's
//! [`Store`], where the consuming units read it. With the cache off,
//! [`run_walk`] climbs its own world through the same
//! [`Store::advance`] and drives the identical probe body, which is
//! what keeps the bytes equal.
//!
//! Old behaviour note: the pre-cache figures probed the live world in
//! place, so a save/restore round-trip left domain ids and RNG draws
//! behind for the next density. Probing forks instead isolates every
//! density — the measured latencies are the ones a fresh world of that
//! density would show.

use std::sync::{Arc, Mutex};

use guests::GuestImage;
use simcore::{Machine, MachinePreset, SimRng};
use toolstack::{ControlPlane, ToolstackMode};

use crate::figures::UnitOutput;
use crate::worldcache::{CacheStats, Store, WorldSpec};

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
}

fn xeon() -> Machine {
    Machine::preset(MachinePreset::XeonE5_1630V3)
}

/// The world the walk climbs: the same spec whether the climb happens
/// inline or as scheduled chain tasks in the world store.
pub(crate) fn chain_spec(mode: ToolstackMode) -> WorldSpec {
    WorldSpec {
        machine: xeon(),
        dom0_cores: 2,
        mode,
        image: GuestImage::unikernel_daytime(),
        seed: 42,
    }
}

/// The sequential state a walk threads through its density steps: the
/// two probe-pick RNG streams, the accumulating migration destination,
/// and the measured rows. One instance serves both execution shapes —
/// the inline loop and the scheduler's probe tasks — so the probe body
/// exists exactly once.
struct WalkState {
    link: lvnet::Link,
    dst: ControlPlane,
    rng_ckpt: SimRng,
    rng_mig: SimRng,
    rows: Vec<StepProbe>,
    last_probe: Option<ControlPlane>,
}

impl WalkState {
    fn new(mode: ToolstackMode) -> WalkState {
        WalkState {
            link: lvnet::Link::lan(),
            dst: ControlPlane::new(xeon(), 2, mode, 43),
            rng_ckpt: SimRng::new(CKPT_RNG_SEED),
            rng_mig: SimRng::new(MIG_RNG_SEED),
            rows: Vec::new(),
            last_probe: None,
        }
    }

    /// Runs both probe families against one throwaway fork of the
    /// `n`-guest world and records the row. Returns the number of
    /// probes performed (for the scheduler trace).
    fn probe_step(&mut self, n: usize, mut probe: ControlPlane) -> u64 {
        // The save/restore round-trips run first — they are
        // population-neutral (every saved domain is restored), so the
        // migration probes that follow still sample an n-guest world.
        let doms: Vec<_> = probe.vms().map(|(d, _)| *d).collect();
        let k = PROBES_PER_STEP.min(doms.len());
        let mut save_ms = 0.0;
        let mut restore_ms = 0.0;
        for idx in self.rng_ckpt.sample_distinct(doms.len(), k) {
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
        for idx in self.rng_mig.sample_distinct(doms.len(), mk) {
            let (new_dom, t) = probe
                .migrate_vm_to(&mut self.dst, &self.link, doms[idx])
                .expect("migrates");
            migrate_ms += t.as_millis_f64();
            self.dst.destroy_vm(new_dom).expect("destroys");
        }

        self.rows.push(StepProbe {
            n,
            save_ms: save_ms / k as f64,
            restore_ms: restore_ms / k as f64,
            migrate_ms: migrate_ms / mk as f64,
        });
        self.last_probe = Some(probe);
        (k + mk) as u64
    }

    fn into_walk(self, boots: u64) -> Walk {
        let probe = UnitOutput::from_plane(&self.last_probe.expect("at least one step"));
        let dst_out = UnitOutput::from_plane(&self.dst);
        Walk {
            rows: self.rows,
            boots,
            probe: WalkStats {
                virtual_ms: probe.virtual_ms,
                events: probe.events,
            },
            dst_events: dst_out.events,
        }
    }
}

/// Inline walk (the cache-off path): climbs its own source world
/// through the store's create path and probes one fork per step.
pub(crate) fn run_walk(store: &Store, mode: ToolstackMode, steps: &[usize]) -> Walk {
    let spec = chain_spec(mode);
    let mut src = spec.build_base();
    let mut st = WalkState::new(mode);
    let mut records = Vec::new();
    let mut stats = CacheStats::default();
    let mut made = 0usize;
    for &n in steps {
        store.advance(&mut src, &spec.image, made, n, &mut records, None, &mut stats);
        made = n;
        st.probe_step(n, src.fork());
    }
    st.into_walk(made as u64)
}

/// Scheduler driver for one walk: probe tasks call
/// [`WalkBuilder::probe_rung`], and the last one stores the walk in the
/// run's [`Store`].
pub(crate) struct WalkBuilder {
    mode: ToolstackMode,
    steps: Vec<usize>,
    spec: WorldSpec,
    state: Mutex<Option<WalkState>>,
}

impl WalkBuilder {
    pub(crate) fn new(mode: ToolstackMode, steps: &[usize]) -> Arc<WalkBuilder> {
        Arc::new(WalkBuilder {
            mode,
            steps: steps.to_vec(),
            spec: chain_spec(mode),
            state: Mutex::new(Some(WalkState::new(mode))),
        })
    }

    /// Probe-task body for step `i`: forks the World rung the chain
    /// deposited at `steps[i]` and runs the shared probe body. The
    /// scheduler's probe(i-1) edge guarantees in-order arrival; the
    /// assert documents it. The last step also stores the [`Walk`].
    pub(crate) fn probe_rung(&self, store: &Store, i: usize) -> u64 {
        let n = self.steps[i];
        let (probe, _) = store.world_at(&self.spec, n);
        let mut guard = self.state.lock().expect("walk state lock");
        let st = guard.as_mut().expect("walk already finished");
        assert_eq!(st.rows.len(), i, "probe rungs must run in dependency order");
        let events = st.probe_step(n, probe);
        if i + 1 == self.steps.len() {
            let st = guard.take().expect("finished exactly once");
            store.publish_walk(self.mode, &self.steps, st.into_walk(n as u64));
        }
        events
    }
}
