//! Property tests of template boots (DESIGN.md §6g): a replayed create
//! is indistinguishable from a fully-executed one.
//!
//! Swept over every toolstack mode × density step × seeds, like
//! `proptest_snapshot.rs` (the build environment is offline, so the
//! sweep is a seeded loop rather than proptest). Each `ControlPlane`
//! draws a fresh lineage, so the template registry — process-global and
//! shared with concurrently running tests — never aliases templates
//! across planes; reference planes use the direct
//! `ControlPlane::create_and_boot` path.
//!
//! 1. **Replay fidelity.** A chain driven through
//!    `cloneboot::create_and_boot` returns the same `(dom, create,
//!    boot)` observations as a twin chain of direct calls, and the
//!    worlds are digest-identical at every density step.
//! 2. **Destroy undoes a replayed create.** Destroying a guest whose
//!    create was replayed restores the store to its pre-create node
//!    count and leaves a world digest-identical to the full-path twin.
//! 3. **Mid-chain invalidation (xl).** A foreign node appearing under
//!    `/local/domain` breaks the shape check; creates fall back to the
//!    full scan (correct results, no poisoning) and resume replaying
//!    once the foreign node is gone.
//! 4. **Drift fails safe.** A replay on a fresh fork of the lineage's
//!    empty world re-creates the exemplar's one-time parent directories;
//!    its node delta is not the steady-state one, so it poisons the
//!    template — and the guest it created is still correct.

use guests::GuestImage;
use simcore::{Machine, MachinePreset};
use toolstack::{cloneboot, ControlPlane, ToolstackMode};
use xenstore::XsPath;

const MODES: [ToolstackMode; 5] = [
    ToolstackMode::Xl,
    ToolstackMode::ChaosXs,
    ToolstackMode::ChaosXsSplit,
    ToolstackMode::ChaosNoxs,
    ToolstackMode::LightVm,
];

/// Densities to compare worlds at; the largest is the chain target.
const STEPS: [usize; 3] = [1, 8, 30];

const SEEDS: [u64; 4] = [1, 7, 42, 1337];

fn image() -> GuestImage {
    GuestImage::unikernel_daytime()
}

fn base_plane(mode: ToolstackMode, seed: u64) -> ControlPlane {
    let mut cp = ControlPlane::new(Machine::preset(MachinePreset::XeonE5_1630V3), 1, mode, seed);
    cp.prewarm(&image());
    cp
}

/// Digest without disturbing the plane (digesting drains pending dom0
/// events, so it runs on a throwaway fork). The fast incremental
/// digest keeps whole-world comparison cheap enough to run at every
/// density step; `proptest_digest.rs` pins its agreement with the
/// string oracle.
fn digest(cp: &ControlPlane) -> u128 {
    cp.fork().world_digest64()
}

#[test]
fn replayed_chain_matches_fully_executed_chain() {
    let img = image();
    for mode in MODES {
        for seed in SEEDS {
            let mut templated = base_plane(mode, seed);
            let mut reference = base_plane(mode, seed);
            let mut done = 0;
            for &step in &STEPS {
                for i in done..step {
                    let name = format!("{}-{i}", img.name);
                    let fast = cloneboot::create_and_boot(&mut templated, &name, &img)
                        .expect("templated create");
                    let full = reference.create_and_boot(&name, &img).expect("direct create");
                    assert_eq!(
                        fast, full,
                        "{mode:?} seed {seed} guest {i}: replayed observations diverged"
                    );
                }
                done = step;
                assert_eq!(
                    digest(&templated),
                    digest(&reference),
                    "{mode:?} seed {seed}: worlds diverged at density {step}"
                );
            }
            // The chain actually exercised the cache: an exemplar was
            // recorded and every later create hit it.
            let info = cloneboot::template_info(&templated, &img)
                .expect("chain should have recorded a template");
            assert!(!info.poisoned, "{mode:?} seed {seed}: template poisoned");
            assert!(
                info.replays >= (*STEPS.last().unwrap() as u64) - 1,
                "{mode:?} seed {seed}: expected replays, saw {}",
                info.replays
            );
        }
    }
}

#[test]
fn destroy_after_replay_fully_undoes_the_create() {
    let img = image();
    for mode in MODES {
        for seed in SEEDS {
            let n = 10;
            let mut templated = base_plane(mode, seed);
            let mut reference = base_plane(mode, seed);
            for i in 0..n {
                let name = format!("{}-{i}", img.name);
                cloneboot::create_and_boot(&mut templated, &name, &img).expect("chain create");
                reference.create_and_boot(&name, &img).expect("chain create");
            }

            // One more create — a replay by now — then destroy it.
            let nodes_before = templated.xs.store().node_count();
            let (dom, ..) = cloneboot::create_and_boot(&mut templated, "victim", &img)
                .expect("replayed create");
            let (dom_ref, ..) = reference.create_and_boot("victim", &img).expect("full create");
            let t_fast = templated.destroy_vm(dom).expect("destroy replayed");
            let t_full = reference.destroy_vm(dom_ref).expect("destroy full");

            assert_eq!(
                t_fast, t_full,
                "{mode:?} seed {seed}: destroy latency diverged after a replayed create"
            );
            assert_eq!(
                templated.xs.store().node_count(),
                nodes_before,
                "{mode:?} seed {seed}: destroy left store residue from the replayed create"
            );
            assert_eq!(
                digest(&templated),
                digest(&reference),
                "{mode:?} seed {seed}: destroy-after-replay world diverged"
            );
        }
    }
}

/// The acceptance scenario: a density-dependent cost input — the shape
/// of `/local/domain`, which the name scan's charge grows with —
/// changes mid-chain, and replays must fall back to full execution.
#[test]
fn foreign_store_node_mid_chain_falls_back_to_full_execution() {
    let img = image();
    let mode = ToolstackMode::Xl;
    for seed in SEEDS {
        let mut templated = base_plane(mode, seed);
        let mut reference = base_plane(mode, seed);
        for i in 0..6 {
            let name = format!("{}-{i}", img.name);
            cloneboot::create_and_boot(&mut templated, &name, &img).expect("chain create");
            reference.create_and_boot(&name, &img).expect("chain create");
        }

        // A node xl never wrote appears under /local/domain — say a
        // stale entry left by an out-of-band tool. Both worlds see it
        // (digests must stay comparable); only the templated plane's
        // shape check cares.
        let foreign = XsPath::parse("/local/domain/9999").unwrap();
        templated
            .xs
            .store_mut_for_tests()
            .mkdir(0, &foreign)
            .expect("plant foreign node");
        reference
            .xs
            .store_mut_for_tests()
            .mkdir(0, &foreign)
            .expect("plant foreign node");

        let fallbacks_before = cloneboot::fallback_total();
        for i in 6..9 {
            let name = format!("{}-{i}", img.name);
            let fast =
                cloneboot::create_and_boot(&mut templated, &name, &img).expect("fallback create");
            let full = reference.create_and_boot(&name, &img).expect("direct create");
            assert_eq!(fast, full, "seed {seed} guest {i}: fallback scan diverged");
        }
        assert!(
            cloneboot::fallback_total() >= fallbacks_before + 3,
            "seed {seed}: foreign node did not force full-scan fallbacks"
        );
        let info = cloneboot::template_info(&templated, &img).expect("template still registered");
        assert!(
            !info.poisoned,
            "seed {seed}: a shape fallback must not poison the template"
        );
        assert_eq!(
            digest(&templated),
            digest(&reference),
            "seed {seed}: fallback world diverged"
        );

        // Once the foreign node is gone the shape re-validates and the
        // closed form applies again.
        templated
            .xs
            .store_mut_for_tests()
            .rm(0, &foreign)
            .expect("clear foreign node");
        reference
            .xs
            .store_mut_for_tests()
            .rm(0, &foreign)
            .expect("clear foreign node");
        let fallbacks_mid = cloneboot::fallback_total();
        let fast = cloneboot::create_and_boot(&mut templated, "after-clear", &img)
            .expect("recovered create");
        let full = reference.create_and_boot("after-clear", &img).expect("direct create");
        assert_eq!(fast, full, "seed {seed}: recovered replay diverged");
        assert_eq!(
            cloneboot::fallback_total(),
            fallbacks_mid,
            "seed {seed}: shape check did not recover after the foreign node was removed"
        );
        assert_eq!(
            digest(&templated),
            digest(&reference),
            "seed {seed}: recovered world diverged"
        );
    }
}

/// A replay whose store-node delta differs from the steady state — here
/// the exemplar-shaped delta of a create on a fresh fork of the
/// lineage's empty world — poisons the template, while the world it
/// produced still equals a full create's.
#[test]
fn replay_on_a_fresh_empty_fork_poisons_and_fails_safe() {
    let img = image();
    for mode in [ToolstackMode::Xl, ToolstackMode::ChaosXs] {
        for seed in SEEDS {
            let empty = base_plane(mode, seed).snapshot();
            let mut templated = empty.fork();
            for i in 0..4 {
                let name = format!("{}-{i}", img.name);
                cloneboot::create_and_boot(&mut templated, &name, &img).expect("chain create");
            }
            let info = cloneboot::template_info(&templated, &img).expect("template recorded");
            assert!(!info.poisoned, "{mode:?} seed {seed}: steady chain poisoned");

            let mut fresh = empty.fork();
            let mut reference = empty.fork();
            let fast = cloneboot::create_and_boot(&mut fresh, "late", &img).expect("replay");
            let full = reference.create_and_boot("late", &img).expect("full create");
            let info = cloneboot::template_info(&fresh, &img).expect("template still registered");
            assert!(info.poisoned, "{mode:?} seed {seed}: exemplar-shaped delta not flagged");
            assert_eq!(fast, full, "{mode:?} seed {seed}: poisoning replay diverged");
            assert_eq!(
                digest(&fresh),
                digest(&reference),
                "{mode:?} seed {seed}: poisoning replay left a different world"
            );
        }
    }
}
