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
use toolstack::op::World;
use toolstack::plane::{ControlPlane, ToolstackMode};

/// A world whose hosts each have a warm shell pool and one resident
/// guest, so the per-class back-end directories exist before the guest
/// under test.
fn hosts(mode: ToolstackMode, img: &str) -> World {
    let mut world = World::new(Machine::preset(MachinePreset::XeonE5_1630V3), 1, mode, 42);
    world
        .run(&format!("prewarm {img}\ncreate resident {img}"))
        .expect("resident boots");
    let image = GuestImage::by_name(img).expect("a registry image");
    let peer = world.peer_mut();
    peer.prewarm(&image);
    peer.create_and_boot("resident", &image)
        .expect("peer resident boots");
    world
}

fn assert_clean(cp: &mut ControlPlane, want: u128, what: &str) {
    assert_eq!(
        cp.teardown_errors.total(),
        0,
        "{what}: teardown errors {:?}",
        cp.teardown_errors
    );
    assert_eq!(
        cp.world_digest64(),
        want,
        "{what}: differs from its twin\n{:?}",
        cp.census()
    );
}

#[test]
fn every_lifecycle_matches_its_twin() {
    for img in ["daytime", "debian"] {
        for mode in ToolstackMode::ALL {
            let what = |path: &str| format!("{mode:?}/{img}/{path}");
            // The reference: create→destroy of the guest under test.
            let mut twin = hosts(mode, img);
            twin.run(&format!("create victim {img}\ndestroy victim"))
                .expect("victim lives");
            let reference = twin.plane_mut().world_digest64();
            let untouched = twin.peer_mut().world_digest64();

            for (path, script) in [
                ("create-destroy", "destroy victim"),
                (
                    "save-restore-destroy",
                    "save victim\nrestore victim\ndestroy victim",
                ),
                ("migrate", "migrate victim\ndestroy victim"),
            ] {
                let mut world = hosts(mode, img);
                world
                    .run(&format!("create victim {img}\n{script}"))
                    .expect(path);
                assert_clean(world.plane_mut(), reference, &what(path));
                // A migrated guest is destroyed at the peer, which must
                // then be as if it never received it.
                assert_clean(world.peer_mut(), untouched, &what(&format!("{path} peer")));
            }
        }
    }
}
