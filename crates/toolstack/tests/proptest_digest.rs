//! Differential property tests of the incremental Merkle world digest
//! (DESIGN.md §6h): after arbitrary op sequences, the cached digest
//! equals a from-scratch recompute, and it agrees with the string
//! digest oracle about which worlds are equal.
//!
//! Random op streams — creates, destroys, creates under a fault plan,
//! Dom0 store writes/removes, transaction commit/abort, fork probes —
//! are drawn per (mode, seed) by the seeded `toolstack::op` generator
//! (offline build: no proptest crate) and applied identically to a twin
//! world, so every step yields both an equality pair (world vs twin)
//! and an inequality pair (step k vs step k-1).

use simcore::{Machine, MachinePreset};
use toolstack::op::{Host, Op, OpGen, OpKind, World};
use toolstack::{ControlPlane, ToolstackMode};
use xenstore::XsPath;

const MODES: [ToolstackMode; 4] = [
    ToolstackMode::Xl,
    ToolstackMode::ChaosXs,
    ToolstackMode::ChaosNoxs,
    ToolstackMode::LightVm,
];

const SEEDS: [u64; 3] = [1, 7, 42];

/// Ops per sequence: enough to interleave every op kind several times
/// while string-digesting each step stays affordable.
const OPS: usize = 24;

/// The mix: creates, destroys, faulty creates (a drawn fault plan
/// armed around one create), Dom0 store writes (half of them
/// non-UTF-8) and removes, transactions committed or aborted, and fork
/// probes (fork, create on the fork, drop it: the plane itself must be
/// untouched, which the twin comparison checks like every other op).
const MIX: [(OpKind, u32); 7] = [
    (OpKind::Create, 3),
    (OpKind::Destroy, 1),
    (OpKind::Fault, 1),
    (OpKind::XsWrite, 1),
    (OpKind::XsRm, 1),
    (OpKind::XsTxn, 1),
    (OpKind::ForkProbe, 2),
];

const NAMES: [&str; 8] = ["g0", "g1", "g2", "g3", "g4", "g5", "g6", "g7"];

/// Fast digest of a plane without disturbing it (drains on a fork).
fn fast(cp: &ControlPlane) -> u128 {
    cp.fork().world_digest64()
}

/// String-digest oracle, same discipline.
fn oracle(cp: &ControlPlane) -> String {
    cp.fork().world_digest()
}

/// The cached digest must equal a recompute with every cache dropped.
fn assert_cache_coherent(cp: &ControlPlane, ctx: &str) {
    let fork = cp.fork();
    let store = fork.xs.store();
    assert_eq!(
        store.subtree_digest(),
        store.subtree_digest_uncached(),
        "{ctx}: store cache diverged from recompute"
    );
    let mut warm = cp.fork();
    let with_cache = warm.world_digest64();
    warm.xs.store().clear_hash_caches();
    assert_eq!(
        warm.world_digest64(),
        with_cache,
        "{ctx}: cold world digest diverged from incremental"
    );
}

#[test]
fn incremental_digest_matches_recompute_and_string_oracle() {
    for mode in MODES {
        for seed in SEEDS {
            let mut gen = OpGen::new(seed ^ 0xd1635, &MIX, &NAMES);
            let new_world = || {
                let mut world =
                    World::new(Machine::preset(MachinePreset::XeonE5_1630V3), 1, mode, seed);
                world.run("prewarm daytime").expect("prewarm");
                world
            };
            let (mut world, mut twin) = (new_world(), new_world());
            let mut prev = (fast(world.plane()), oracle(world.plane()));
            for k in 0..OPS {
                let op = gen.next(&world);
                // A drawn fault plan is armed around one create only.
                let steps = match op {
                    Op::Fault(..) => vec![
                        op,
                        format!("create victim-{k} daytime").parse().unwrap(),
                        Op::Fault(Host::Primary, None),
                    ],
                    op => vec![op],
                };
                let ctx = format!("{mode:?} seed {seed} op {k}");
                for op in &steps {
                    let ctx = format!("{ctx} `{op}`");
                    let injected = world.plane().faults.is_active();
                    let done = world.apply(op);
                    assert_eq!(done, twin.apply(op), "{ctx}: twin outcome diverged");
                    match (op, done) {
                        // Under injection either outcome is fine, as is a
                        // remove of a path never written: the twin must
                        // just do the same.
                        (Op::Create { .. }, Err(_)) if injected => {}
                        (Op::XsRm(_), Err(_)) => {}
                        (_, Err(e)) => panic!("{ctx}: {e}"),
                        (Op::ForkProbe(_), Ok(probed)) => {
                            // The fork diverged; the plane must not have.
                            let p = probed.probe.expect("a fork probe's digest");
                            assert_ne!(
                                p,
                                fast(world.plane()),
                                "{ctx}: mutated fork still digest-equal to its origin"
                            );
                        }
                        (_, Ok(_)) => {}
                    }
                }
                let cp = world.plane();

                assert_cache_coherent(cp, &ctx);

                // Equality direction: identical op streams ⇒ equal fast
                // digests AND equal string digests.
                let (f, s) = (fast(cp), oracle(cp));
                assert_eq!(f, fast(twin.plane()), "{ctx}: twin fast digest diverged");
                assert_eq!(
                    s,
                    oracle(twin.plane()),
                    "{ctx}: twin string digest diverged"
                );

                // Correspondence: the fast digest and the oracle agree
                // on whether this step changed the world.
                assert_eq!(
                    f == prev.0,
                    s == prev.1,
                    "{ctx}: fast digest and string oracle disagree on change"
                );
                prev = (f, s);
            }
        }
    }
}

/// The motivating collision: two distinct non-UTF-8 values must yield
/// different digests in *both* paths (the string digest used to render
/// through `from_utf8_lossy`, equating them on the replacement char).
#[test]
fn non_utf8_values_do_not_collide_in_either_digest() {
    let mk = |bytes: &[u8]| {
        let mut cp = ControlPlane::new(
            Machine::preset(MachinePreset::XeonE5_1630V3),
            1,
            ToolstackMode::Xl,
            9,
        );
        cp.xs
            .store_mut_for_tests()
            .write(0, &XsPath::parse("/test/bin").unwrap(), bytes)
            .unwrap();
        cp
    };
    let a = mk(&[0xff, 0xfe]);
    let b = mk(&[0xfe, 0xff]);
    assert_ne!(fast(&a), fast(&b), "fast digest collided on non-UTF-8");
    assert_ne!(
        oracle(&a),
        oracle(&b),
        "string digest collided on non-UTF-8"
    );
    // And an escape-ambiguity probe: a literal backslash-x sequence in
    // one value must not collide with the escaped rendering of another.
    let c = mk(b"\\xff");
    let d = mk(&[0xff]);
    assert_ne!(oracle(&c), oracle(&d), "escaping is ambiguous");
    assert_ne!(fast(&c), fast(&d));
}
