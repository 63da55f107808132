//! Property tests of the churn invariants (DESIGN.md §6i): random
//! seeded create/destroy interleavings — with and without fault
//! injection — return the world to a byte-identical digest *and* an
//! equal resource census whenever the populations match, the node
//! arena's capacity plateaus at its peak occupancy, and domid
//! recycling keeps the interned-symbol count bounded.
//!
//! Randomness comes from the workspace's own seeded `SimRng` (the
//! build environment is offline, so no proptest), with fixed seeds per
//! case: failures reproduce exactly.

use simcore::faults::FaultPlan;
use simcore::{Machine, MachinePreset};
use toolstack::op::{Op, OpGen, OpKind, World};
use toolstack::plane::ToolstackMode;

/// The churn cohort's guest names.
const COHORT: [&str; 6] = [
    "churn-0", "churn-1", "churn-2", "churn-3", "churn-4", "churn-5",
];

/// Churn: create a free cohort name or destroy a live one, evenly.
const TOGGLE: [(OpKind, u32); 2] = [(OpKind::Create, 1), (OpKind::Destroy, 1)];

/// A host with a warm pool and a resident guest, its domid space bound
/// so that churn wraps it.
fn world(mode: ToolstackMode) -> World {
    let mut world = World::new(Machine::preset(MachinePreset::XeonE5_1630V3), 1, mode, 42);
    world
        .run("prewarm daytime\ncreate resident daytime")
        .expect("fault-free resident VM boots");
    world
        .plane_mut()
        .hv
        .set_domid_limit((1 + COHORT.len() + 12) as u32);
    world
}

/// One cycle of the whole cohort: every slot live at once (peak arena
/// occupancy), then every slot destroyed.
fn cycle(world: &mut World) {
    for name in COHORT {
        world
            .run(&format!("create {name} daytime"))
            .expect("cycle create");
    }
    for name in COHORT {
        world
            .run(&format!("destroy {name}"))
            .expect("cycle destroy");
    }
}

/// Fault-free saturation: cycle the cohort until arena capacity and
/// interner size reach their fixpoint, i.e. every reachable wrapped
/// domid's /local/domain/<d> skeleton has been interned. Each round
/// walks the cohort's fresh domids, so the wrap completes within a few
/// rounds.
fn saturate(world: &mut World) {
    let mut sat = (0usize, 0usize);
    for _round in 0..16 {
        cycle(world);
        let c = world.plane().census();
        let now = (c.store_capacity, c.interned_syms);
        if now == sat {
            break;
        }
        sat = now;
    }
}

/// One churn scenario: saturate (pins peak arena occupancy and the
/// reachable domid set), capture the canonical digest + census, then
/// churn `events` seeded create/destroy steps under `plan`. Draining
/// the cohort must return the world to the captured digest and to an
/// occupancy-equal census. Returns the final digest for replay checks.
fn run_case(mode: ToolstackMode, seed: u64, events: usize, plan: FaultPlan) -> u128 {
    let mut world = world(mode);
    saturate(&mut world);
    // Canonical population includes a full shell pool (saturation
    // creates drained it in split modes).
    world.run("prewarm daytime").expect("refill");
    let before_digest = world.plane_mut().world_digest64();
    let before = world.plane().census();

    world.plane_mut().set_fault_plan(plan);
    let mut gen = OpGen::new(seed, &TOGGLE, &COHORT);
    for _ in 0..events {
        let op = gen.next(&world);
        // A create may fail (rolled back and recorded on an injected
        // fault); a destroy may not.
        let done = world.apply(&op);
        if let Op::Destroy(_) = op {
            done.expect("churn destroy");
        }
    }
    for name in COHORT {
        if world.guest(name).is_some() {
            world
                .run(&format!("destroy {name}"))
                .expect("drain destroy");
        }
    }
    world.plane_mut().set_fault_plan(FaultPlan::none());
    // A split-mode daemon may have aborted a shell refill under
    // injection, leaving the pool legitimately one short; top it up
    // fault-free so the snapshots compare like with like.
    world.run("prewarm daytime").expect("refill");

    let cp = world.plane_mut();
    let after_digest = cp.world_digest64();
    let after = cp.census();
    assert_eq!(
        before_digest, after_digest,
        "{mode:?} seed {seed}: churn leaked world state"
    );
    assert!(
        after.same_occupancy(&before),
        "{mode:?} seed {seed}: census drifted at matching population: {:?}",
        after.diff(&before)
    );
    assert_eq!(
        after.teardown.total(),
        0,
        "{mode:?} seed {seed}: unexpected teardown errors swallowed"
    );
    after_digest
}

/// Fault-free churn round-trips in every representative mode.
#[test]
fn churn_round_trips_without_faults() {
    for mode in [
        ToolstackMode::Xl,
        ToolstackMode::ChaosXs,
        ToolstackMode::ChaosNoxs,
        ToolstackMode::LightVm,
    ] {
        for seed in [1, 7, 0xfa17] {
            run_case(mode, seed, 60, FaultPlan::none());
        }
    }
}

/// Churn with injected faults (creates rolled back mid-stream) still
/// round-trips: rollback is leak-free under interleaving, not just for
/// the single-victim cases `proptest_faults` covers.
#[test]
fn churn_round_trips_under_faults() {
    for mode in [
        ToolstackMode::Xl,
        ToolstackMode::ChaosXs,
        ToolstackMode::LightVm,
    ] {
        for seed in [1, 7, 0xfa17] {
            run_case(mode, seed, 60, FaultPlan::seeded(seed ^ 0xc4fa, 0.1));
        }
    }
}

/// Identical seeds give identical final digests (replay determinism).
#[test]
fn churn_replay_is_deterministic() {
    for mode in [ToolstackMode::ChaosXs, ToolstackMode::LightVm] {
        let a = run_case(mode, 0xdead, 40, FaultPlan::seeded(5, 0.1));
        let b = run_case(mode, 0xdead, 40, FaultPlan::seeded(5, 0.1));
        assert_eq!(a, b, "{mode:?}: churn replay diverged");
    }
}

/// The free-list fix, end to end: arena capacity and interned symbols
/// after heavy churn equal their post-saturation values — memory is
/// O(peak live guests), not O(total creates).
#[test]
fn arena_and_interner_plateau_under_churn() {
    let mut world = world(ToolstackMode::Xl);
    saturate(&mut world);
    let plateau = world.plane().census();
    // 10 more full cycles: ~120 creates beyond the plateau point.
    for _ in 0..10 {
        cycle(&mut world);
        let now = world.plane().census();
        assert_eq!(
            now.store_capacity, plateau.store_capacity,
            "arena capacity grew under churn"
        );
        assert_eq!(
            now.interned_syms, plateau.interned_syms,
            "interner grew under churn"
        );
    }
    assert!(
        plateau.store_free > 0,
        "churned arena should hold recyclable free slots"
    );
}
