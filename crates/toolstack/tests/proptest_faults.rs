//! Property tests of the fault-injection plan and compensating teardown
//! (DESIGN.md § Fault model): for every injection site and every
//! operation that builds a guest — create, restore, and the target side
//! of a migration — a failed build rolls the world back byte-for-byte, a
//! successful one is fully undone by destroy, and identical seeds yield
//! identical artefacts.
//!
//! Randomness comes from the workspace's own seeded `SimRng`-backed
//! `FaultPlan` (the build environment is offline, so no proptest), with
//! fixed seeds per case: failures reproduce exactly.

use devices::DevError;
use guests::GuestImage;
use hypervisor::{DomId, DomainState};
use simcore::faults::{FaultPlan, FaultSite};
use simcore::{Machine, MachinePreset};
use toolstack::plane::{ControlPlane, PlaneError, ToolstackMode};
use toolstack::SavedVm;

fn plane(mode: ToolstackMode) -> ControlPlane {
    ControlPlane::new(Machine::preset(MachinePreset::XeonE5_1630V3), 1, mode, 42)
}

/// The operation that builds the victim guest on the host under
/// injection.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `create_and_boot`.
    Create,
    /// `restore_vm` of a guest saved fault-free on the same host.
    Restore,
    /// The target side of `migrate_vm_to` from a fault-free source.
    MigrateIn,
}

const OPS: [Op; 3] = [Op::Create, Op::Restore, Op::MigrateIn];

/// A host ready for the victim's build: a healthy resident VM booted,
/// plus what `op` builds the victim from.
struct Case {
    cp: ControlPlane,
    /// The migration source (used by [`Op::MigrateIn`] only).
    src: ControlPlane,
    img: GuestImage,
    saved: Option<SavedVm>,
    src_dom: Option<DomId>,
}

fn prepare(mode: ToolstackMode, op: Op) -> Case {
    let mut cp = plane(mode);
    let img = GuestImage::unikernel_daytime();
    cp.prewarm(&img);
    cp.create_and_boot("resident", &img)
        .expect("fault-free resident VM boots");
    let mut src = plane(mode);
    let (saved, src_dom) = match op {
        Op::Create => (None, None),
        Op::Restore => {
            let (dom, ..) = cp.create_and_boot("victim", &img).expect("fault-free boot");
            (Some(cp.save_vm(dom).expect("fault-free save").0), None)
        }
        Op::MigrateIn => {
            let (dom, ..) = src
                .create_and_boot("victim", &img)
                .expect("fault-free boot");
            (None, Some(dom))
        }
    };
    Case { cp, src, img, saved, src_dom }
}

/// Builds the victim through `op`, returning its domain and charged
/// times. A migration whose target failed must leave the guest running
/// at its source.
fn build(case: &mut Case, mode: ToolstackMode, op: Op) -> Result<(DomId, String), PlaneError> {
    let Case { cp, src, img, saved, src_dom } = case;
    match op {
        Op::Create => cp.create_and_boot("victim", img).map(|(dom, create, boot)| {
            (dom, format!("create={create} boot={boot}"))
        }),
        Op::Restore => cp
            .restore_vm(saved.as_ref().expect("saved above"))
            .map(|(dom, t)| (dom, format!("restore={t}"))),
        Op::MigrateIn => {
            let link = lvnet::Link::datacenter();
            let from = src_dom.expect("booted above");
            let moved = src.migrate_vm_to(cp, &link, from);
            if moved.is_err() {
                let dom = src.hv.domain(from).expect("the guest stays at its source");
                assert_eq!(dom.state, DomainState::Running, "{mode:?}: source not resumed");
                assert!(src.vm(from).is_ok(), "{mode:?}: source forgot the guest");
                if mode.uses_xenstore() {
                    let cs = src.xs.control_shutdown_sym(from.0);
                    let request = src.xs.store().read(0, cs).expect("registered");
                    assert_eq!(request, b"", "{mode:?}: suspend request left at the source");
                }
            }
            moved.map(|(dom, t)| (dom, format!("migrate={t}")))
        }
    }
}

/// The world digest of a fault-free twin of the case after the same
/// build, destroy and pool refill.
fn twin_digest(mode: ToolstackMode, op: Op) -> u128 {
    let mut twin = prepare(mode, op);
    let (dom, _) = build(&mut twin, mode, op).expect("fault-free build");
    twin.cp.destroy_vm(dom).expect("fault-free destroy");
    twin.cp.prewarm(&twin.img);
    twin.cp.world_digest64()
}

/// One full scenario: boot a healthy resident VM, snapshot the world,
/// then build a victim through `op` with certain injection at `site`.
/// Whatever the outcome, the host that built the victim must return to
/// the snapshot — via compensating rollback on failure, or via destroy
/// on success (sites that only add latency, or that the mode never
/// exercises) — or, for a split-mode create, match a fault-free twin.
/// Returns the outcome — the charged times, or the typed
/// error — and the final digest for determinism checks.
///
/// Digests use the fast incremental path with the Dom0 drain
/// (`world_digest64`, not the at-rest variant): a rolled-back create
/// fires extra Dom0 watch events on the way down, so only drained
/// worlds compare like with like here.
fn run_case(
    mode: ToolstackMode,
    op: Op,
    site: FaultSite,
    seed: u64,
) -> (Result<String, PlaneError>, u128) {
    let mut case = prepare(mode, op);
    let before = case.cp.world_digest64();
    let census = case.cp.census();

    case.cp.set_fault_plan(FaultPlan::at_site(seed, site));
    let built = build(&mut case, mode, op);
    let cp = &mut case.cp;
    let outcome = match built {
        Ok((dom, times)) => {
            cp.destroy_vm(dom).expect("victim destroy succeeds");
            Ok(format!("dom={} {times}", dom.0))
        }
        Err(e) => {
            if let Op::Create = op {
                assert!(
                    cp.create_failures() >= 1,
                    "{mode:?}/{}: failure not recorded",
                    site.name()
                );
            }
            Err(e)
        }
    };
    cp.set_fault_plan(FaultPlan::none());
    // A split-mode daemon may have aborted (and rolled back) a shell
    // refill under injection, leaving the pool legitimately one short;
    // top it back up fault-free so the snapshots compare like with like.
    cp.prewarm(&case.img);

    // The store arena and the interner keep their high-water marks, and
    // queued Dom0 watch events are drained by the digest below.
    let leaked: Vec<_> = census
        .diff(&cp.census())
        .into_iter()
        .filter(|(name, ..)| {
            ![
                "store_capacity",
                "store_free",
                "interned_syms",
                "pending_events",
            ]
            .contains(name)
        })
        .collect();
    assert!(
        leaked.is_empty(),
        "{mode:?}/{op:?}/{} seed {seed}: census drifted after `{outcome:?}`: {leaked:?}",
        site.name()
    );
    let after = cp.world_digest64();
    // Chaos [XS+split] hands a created victim a pooled shell, and the
    // refill above pre-creates its replacement under a fresh domid,
    // whose `/local/domain/<domid>` the snapshot never had: a fault-free
    // twin that ran the same create is the reference instead. Under
    // hotplug-timeout and backend-refusal the create succeeds, but the
    // pool refill inside `create_vm` fails and burns domids, so the
    // shell refilled afterwards carries another domid than the twin's
    // and only the census above can hold. Renaming domids would close
    // that gap (ROADMAP 13(a)).
    let reference = match (mode, op, site) {
        (
            ToolstackMode::ChaosXsSplit,
            Op::Create,
            FaultSite::HotplugTimeout | FaultSite::BackendRefusal,
        ) => None,
        (ToolstackMode::ChaosXsSplit, Op::Create, _) => Some(twin_digest(mode, op)),
        _ => Some(before),
    };
    if let Some(reference) = reference {
        assert_eq!(
            reference,
            after,
            "{mode:?}/{op:?}/{} seed {seed}: leaked state after `{outcome:?}`",
            site.name()
        );
    }
    (outcome, after)
}

/// Every injection site and every building operation, in every
/// representative mode, with several seeds: no leaks, and the resident
/// VM is untouched by its neighbour's failure.
#[test]
fn injection_at_every_site_leaves_no_leaks() {
    for mode in [
        ToolstackMode::Xl,
        ToolstackMode::ChaosXs,
        ToolstackMode::ChaosXsSplit,
        ToolstackMode::ChaosNoxs,
        ToolstackMode::LightVm,
    ] {
        for op in OPS {
            for site in FaultSite::ALL {
                for seed in [1, 7, 0xfa17] {
                    // run_case asserts the no-leak property itself;
                    // either outcome is allowed here.
                    let _ = run_case(mode, op, site, seed);
                }
            }
        }
    }
}

/// Identical seeds yield identical artefacts: same outcome (including
/// the exact error and charged times) and same final digest.
#[test]
fn identical_seeds_give_identical_artefacts() {
    for mode in [ToolstackMode::ChaosXs, ToolstackMode::LightVm] {
        for op in OPS {
            for site in FaultSite::ALL {
                let a = run_case(mode, op, site, 0xdead);
                let b = run_case(mode, op, site, 0xdead);
                assert_eq!(a, b, "{mode:?}/{op:?}/{} replay diverged", site.name());
            }
        }
    }
}

/// The device-path sites and the typed error each fails a build with.
const DEVICE_SITES: [(FaultSite, PlaneError); 3] = [
    (FaultSite::HotplugTimeout, PlaneError::Dev(DevError::Timeout)),
    (FaultSite::XenbusStall, PlaneError::Dev(DevError::Timeout)),
    (FaultSite::BackendRefusal, PlaneError::Dev(DevError::Refused)),
];

/// Sites with guaranteed-fatal semantics do fail at rate 1.0 in the
/// modes that exercise them, each with its exact typed error — the
/// no-leak property above is vacuous if rollback never runs.
#[test]
fn fatal_sites_actually_fail() {
    let outcome = |mode: ToolstackMode, op: Op, site: FaultSite| {
        let (outcome, _) = run_case(mode, op, site, 3);
        (outcome, format!("{mode:?}/{op:?}/{}", site.name()))
    };
    for op in OPS {
        let (got, case) = outcome(ToolstackMode::ChaosXs, op, FaultSite::TxnStorm);
        assert_eq!(got, Err(PlaneError::Timeout("domain registration")), "{case}");
        for (site, err) in DEVICE_SITES {
            let (got, case) = outcome(ToolstackMode::ChaosXs, op, site);
            assert_eq!(got, Err(err), "{case}");
        }
    }
    // ChaosNoxs creates domains directly, so device-path sites are hit
    // on the victim's own create/boot, and on its restore, with the
    // errors chaos [XS] gives (`device_faults_fail_alike_under_both_mechanisms`).
    //
    // A noxs migration's daemon pre-creates the target's vifs under the
    // destination's plan, in both noxs modes. (The migrated guest does
    // not reconnect through xenbus, so the stall site stays quiet.)
    for mode in [ToolstackMode::ChaosNoxs, ToolstackMode::LightVm] {
        for (site, err) in [&DEVICE_SITES[0], &DEVICE_SITES[2]] {
            let (got, case) = outcome(mode, Op::MigrateIn, *site);
            assert_eq!(got, Err(err.clone()), "{case}");
        }
    }
    // In LightVm the victim still connects its frontends at boot, so the
    // xenbus-stall site fails it there.
    let (got, case) = outcome(ToolstackMode::LightVm, Op::Create, FaultSite::XenbusStall);
    assert_eq!(got, Err(PlaneError::Dev(DevError::Timeout)), "{case}");
    // Store-side sites never touch a noxs-mode host; and the remaining
    // create-path sites land on the daemon's pool refill (recorded
    // there), not on the victim, which is finished from a healthy
    // pre-warmed shell.
    for site in [
        FaultSite::XsCrash,
        FaultSite::TxnStorm,
        FaultSite::HotplugTimeout,
        FaultSite::BackendRefusal,
    ] {
        let (got, case) = outcome(ToolstackMode::LightVm, Op::Create, site);
        assert!(got.is_ok(), "{case}: {got:?}");
    }
}

/// A device fault fails a create or a restore with the same typed error
/// whichever mechanism carries the device: chaos [XS] and chaos [NoXS]
/// differ only in the store, so their error kinds must not.
#[test]
fn device_faults_fail_alike_under_both_mechanisms() {
    for op in [Op::Create, Op::Restore] {
        for (site, err) in DEVICE_SITES {
            let (xs, _) = run_case(ToolstackMode::ChaosXs, op, site, 3);
            let (noxs, _) = run_case(ToolstackMode::ChaosNoxs, op, site, 3);
            assert_eq!(noxs, xs, "{op:?}/{}", site.name());
            assert_eq!(noxs, Err(err), "{op:?}/{}", site.name());
        }
    }
}
