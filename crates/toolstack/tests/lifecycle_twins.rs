//! Every lifecycle leaves its hosts where a plain create→destroy leaves
//! them. A guest that is created and destroyed, saved and restored
//! before its destroy, or migrated and destroyed at the destination must
//! not leave any back-end record, store node, switch port, event
//! channel, grant or domain behind on either host. Each host is compared
//! with a twin built the same way (same machine, mode and seed, the
//! same resident guest) that ran the like-for-like plain lifecycle:
//! create→destroy where the host itself created the guest, nothing
//! where it only received it.

use guests::GuestImage;
use simcore::{Machine, MachinePreset};
use toolstack::plane::{ControlPlane, ToolstackMode};

const MODES: [ToolstackMode; 5] = [
    ToolstackMode::Xl,
    ToolstackMode::ChaosXs,
    ToolstackMode::ChaosXsSplit,
    ToolstackMode::ChaosNoxs,
    ToolstackMode::LightVm,
];

/// A host with a warm shell pool and one resident guest, so the
/// per-class back-end directories exist before the guest under test.
fn host(mode: ToolstackMode, img: &GuestImage) -> ControlPlane {
    let mut cp = ControlPlane::new(Machine::preset(MachinePreset::XeonE5_1630V3), 1, mode, 42);
    cp.prewarm(img);
    cp.create_and_boot("resident", img).expect("resident boots");
    cp
}

/// The reference: `host` after create→destroy of the guest under test.
fn created_and_destroyed(mode: ToolstackMode, img: &GuestImage) -> u128 {
    let mut cp = host(mode, img);
    let (dom, ..) = cp.create_and_boot("victim", img).expect("victim boots");
    cp.destroy_vm(dom).expect("victim destroys");
    cp.world_digest64()
}

fn assert_clean(cp: &mut ControlPlane, want: u128, what: &str) {
    assert_eq!(cp.teardown_errors.total(), 0, "{what}: teardown errors {:?}", cp.teardown_errors);
    assert_eq!(cp.world_digest64(), want, "{what}: differs from its twin\n{:?}", cp.census());
}

#[test]
fn every_lifecycle_matches_its_twin() {
    for img in [GuestImage::unikernel_daytime(), GuestImage::debian()] {
        for mode in MODES {
            let what = |path: &str| format!("{mode:?}/{}/{path}", img.name);
            let reference = created_and_destroyed(mode, &img);

            let mut cp = host(mode, &img);
            let (dom, ..) = cp.create_and_boot("victim", &img).expect("victim boots");
            cp.destroy_vm(dom).expect("victim destroys");
            assert_clean(&mut cp, reference, &what("create-destroy"));

            let mut cp = host(mode, &img);
            let (dom, ..) = cp.create_and_boot("victim", &img).expect("victim boots");
            let (saved, _) = cp.save_vm(dom).expect("victim saves");
            let (dom, _) = cp.restore_vm(&saved).expect("victim restores");
            cp.destroy_vm(dom).expect("restored victim destroys");
            assert_clean(&mut cp, reference, &what("save-restore-destroy"));

            let mut src = host(mode, &img);
            let mut dst = host(mode, &img);
            let untouched = host(mode, &img).world_digest64();
            let (dom, ..) = src.create_and_boot("victim", &img).expect("victim boots");
            let (moved, _) = src
                .migrate_vm_to(&mut dst, &lvnet::Link::datacenter(), dom)
                .expect("victim migrates");
            dst.destroy_vm(moved).expect("migrated victim destroys");
            assert_clean(&mut src, reference, &what("migrate source"));
            assert_clean(&mut dst, untouched, &what("migrate destination"));
        }
    }
}
