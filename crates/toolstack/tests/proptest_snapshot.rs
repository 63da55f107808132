//! Property tests of world forks (DESIGN.md §6e): a forked world is
//! indistinguishable from a freshly simulated one.
//!
//! Two properties, each swept over every toolstack mode × density step
//! × 8 seeds (the build environment is offline, so the sweep is a
//! seeded loop rather than proptest):
//!
//! 1. **Fork-resume fidelity.** Fork a world at `k` guests, boot the
//!    fork to `n`, and the digest equals the world simulated straight
//!    to `n` — so a figure continuing from a fork measures
//!    byte-identical values.
//! 2. **Sequence equivalence + isolation.** A create/destroy/save/
//!    restore sequence run on a fork returns the same latencies and
//!    final digest as the same sequence on the original, and mutating
//!    the fork leaves the original's digest untouched (copy-on-write
//!    sharing never aliases observable state).

use guests::GuestImage;
use simcore::{Machine, MachinePreset};
use toolstack::{ControlPlane, ToolstackMode};


/// Densities to snapshot at; the largest is the resume target.
const STEPS: [usize; 4] = [1, 5, 20, 50];

const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 42, 1337];

fn image() -> GuestImage {
    GuestImage::unikernel_daytime()
}

fn base_plane(mode: ToolstackMode, seed: u64) -> ControlPlane {
    let mut cp = ControlPlane::new(Machine::preset(MachinePreset::XeonE5_1630V3), 1, mode, seed);
    cp.prewarm(&image());
    cp
}

/// Boots guests `from..to` with the canonical chain names.
fn advance(cp: &mut ControlPlane, from: usize, to: usize) {
    let img = image();
    for i in from..to {
        cp.create_and_boot(&format!("{}-{i}", img.name), &img)
            .expect("chain create");
    }
}

#[test]
fn fork_resumed_from_any_step_matches_fresh_simulation() {
    let target = *STEPS.last().unwrap();
    for mode in ToolstackMode::ALL {
        for seed in SEEDS {
            // Straight-line reference build, forking along the way.
            let mut cp = base_plane(mode, seed);
            let mut forks = Vec::new();
            let mut done = 0;
            for &k in &STEPS {
                advance(&mut cp, done, k);
                done = k;
                forks.push((k, cp.fork()));
            }
            let reference = cp.world_digest64();
            for (k, mut fork) in forks {
                advance(&mut fork, k, target);
                assert_eq!(
                    fork.world_digest64(),
                    reference,
                    "{mode:?} seed {seed}: fork resumed from {k} diverged from fresh build"
                );
            }
        }
    }
}

/// The destructive sequence fig12/fig13-style probes run: a couple of
/// creates, a save/restore round-trip, and a destroy. Returns every
/// measured latency so equivalence covers observations, not just state.
fn probe_sequence(cp: &mut ControlPlane) -> Vec<f64> {
    let img = image();
    let mut times = Vec::new();
    let (d1, create, boot) = cp.create_and_boot("probe-a", &img).expect("probe create");
    times.extend([create.as_millis_f64(), boot.as_millis_f64()]);
    let (_, create2, boot2) = cp.create_and_boot("probe-b", &img).expect("probe create");
    times.extend([create2.as_millis_f64(), boot2.as_millis_f64()]);
    let (saved, t_save) = cp.save_vm(d1).expect("probe save");
    let (d1b, t_restore) = cp.restore_vm(&saved).expect("probe restore");
    times.extend([t_save.as_millis_f64(), t_restore.as_millis_f64()]);
    times.push(cp.destroy_vm(d1b).expect("probe destroy").as_millis_f64());
    times
}

#[test]
fn sequences_on_fork_match_original_and_leave_it_untouched() {
    for mode in ToolstackMode::ALL {
        for seed in SEEDS {
            let n = 10;
            let mut original = base_plane(mode, seed);
            advance(&mut original, 0, n);

            // `witness` observes the world while the others are probed.
            let mut witness = original.fork();
            let mut fork = original.fork();
            let fork_times = probe_sequence(&mut fork);
            let fork_digest = fork.world_digest64();

            // Isolation: churn on the fork (and, below, the original)
            // must not leak into the witness — it still matches a
            // from-scratch build. (Digesting drains pending dom0
            // events, so the original is probed first, undisturbed.)
            let original_times = probe_sequence(&mut original);
            let mut pristine = base_plane(mode, seed);
            advance(&mut pristine, 0, n);
            assert_eq!(
                witness.world_digest64(),
                pristine.world_digest64(),
                "{mode:?} seed {seed}: mutating forks disturbed a sibling"
            );

            // Equivalence: the same sequence on the original yields the
            // same latencies and the same world.
            assert_eq!(
                fork_times, original_times,
                "{mode:?} seed {seed}: probe latencies diverged on the fork"
            );
            assert_eq!(
                original.world_digest64(),
                fork_digest,
                "{mode:?} seed {seed}: probe end-state diverged on the fork"
            );
        }
    }
}
