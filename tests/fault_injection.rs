//! Fault injection: the control plane must stay consistent when
//! operations fail mid-flight — no leaked domains, ports, store nodes or
//! pool shells.

use lightvm::guests::GuestImage;
use lightvm::{Host, PlaneError, ToolstackMode};
use simcore::Machine;

const GIB: u64 = 1 << 30;

/// A failed create (host out of memory) must not leak switch ports,
/// backend devices or domains.
#[test]
fn failed_create_leaves_no_residue() {
    // 4 GiB Dom0 + room for exactly two 111 MiB Debians + change.
    let mut host = Host::with_machine(
        Machine::custom(4, 4 * GIB + 300 * (1 << 20)),
        1,
        ToolstackMode::ChaosNoxs,
        1,
    );
    let img = GuestImage::debian();
    host.launch_auto(&img).unwrap();
    host.launch_auto(&img).unwrap();
    let domains_before = host.plane.hv.domain_count();
    let ports_before = host.plane.switch.port_count();
    let net_before = host.plane.net.count();
    let err = host.launch_auto(&img).unwrap_err();
    assert!(matches!(err, PlaneError::Hv(hypervisor::HvError::OutOfMemory(_))));
    // Nothing half-created sticks around... the failed domain is reaped.
    assert_eq!(host.plane.switch.port_count(), ports_before);
    assert_eq!(host.plane.net.count(), net_before);
    assert!(
        host.plane.hv.domain_count() <= domains_before + 1,
        "at most the failed shell may linger"
    );
    // And the host still works for smaller guests.
    host.launch_auto(&GuestImage::unikernel_daytime()).unwrap();
}

/// Store quota exhaustion by one guest must not break the control plane
/// or other guests.
#[test]
fn quota_dos_is_contained() {
    use simcore::Meter;
    use xenstore::{Perms, XsPath};
    let mut host = Host::new(
        simcore::MachinePreset::XeonE5_1630V3,
        1,
        ToolstackMode::Xl,
        2,
    );
    host.plane.xs.store_mut_for_tests().set_quota(Some(50));
    let img = GuestImage::unikernel_daytime();
    let a = host.launch_auto(&img).unwrap();

    // A malicious guest floods its subtree until the quota trips.
    let cost = host.plane.cost();
    let mut m = Meter::new();
    let evil = a.dom.0;
    let base = XsPath::parse(&format!("/local/domain/{evil}/data")).unwrap();
    host.plane
        .xs
        .write(&cost, &mut m, 0, &base, b"")
        .unwrap();
    host.plane
        .xs
        .set_perms(&cost, &mut m, 0, &base, Perms {
            owner: evil,
            others_read: true,
            others_write: false,
        })
        .unwrap();
    let mut denied = false;
    for i in 0..200 {
        let p = base.child(&format!("junk{i}")).unwrap();
        match host.plane.xs.write(&cost, &mut m, evil, &p, b"x") {
            Ok(()) => {}
            Err(xenstore::XsError::QuotaExceeded) => {
                denied = true;
                break;
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(denied, "the quota must eventually trip");
    // Other guests still launch fine (Dom0 is exempt from quotas).
    host.launch_auto(&img).unwrap();
}

/// Destroying a guest twice, restoring a stale checkpoint after the
/// original was re-created, etc., must all error cleanly.
#[test]
fn bogus_lifecycle_sequences_error_cleanly() {
    let mut host = Host::new(
        simcore::MachinePreset::XeonE5_1630V3,
        1,
        ToolstackMode::LightVm,
        3,
    );
    let img = GuestImage::unikernel_daytime();
    let vm = host.launch_auto(&img).unwrap();
    host.destroy(vm.dom).unwrap();
    assert_eq!(host.destroy(vm.dom).unwrap_err(), PlaneError::NoSuchVm);
    assert!(host.save(vm.dom).is_err());
    // Restore works even though the original domain id is long gone.
    let vm2 = host.launch_auto(&img).unwrap();
    let (saved, _) = host.save(vm2.dom).unwrap();
    let (dom3, _) = host.restore(&saved).unwrap();
    assert_ne!(dom3, vm2.dom);
}

/// Migration to a full destination host fails and the guest stays
/// runnable at the source.
#[test]
fn migration_to_full_host_fails_safely() {
    let img = GuestImage::debian();
    let mut src = Host::new(
        simcore::MachinePreset::XeonE5_1630V3,
        2,
        ToolstackMode::LightVm,
        4,
    );
    // Destination with essentially no guest memory.
    let mut dst = Host::with_machine(
        Machine::custom(4, 4 * GIB + 8 * (1 << 20)),
        1,
        ToolstackMode::LightVm,
        5,
    );
    let vm = src.launch_auto(&img).unwrap();
    let err = src
        .migrate_to(&mut dst, &lightvm::net::Link::lan(), vm.dom)
        .unwrap_err();
    assert!(
        matches!(err, PlaneError::Hv(hypervisor::HvError::OutOfMemory(_))),
        "{err:?}"
    );
    assert_eq!(dst.running(), 0);
    // Nothing of the half-built target domain is left behind.
    assert_eq!(dst.plane.hv.domain_count(), 0);
    assert_eq!((dst.plane.net.count(), dst.plane.switch.port_count()), (0, 0));
    // The source still tracks the guest as running.
    assert_eq!(src.running(), 1);
    let dom = src.plane.hv.domain(vm.dom).unwrap();
    assert_eq!(dom.state, hypervisor::DomainState::Running);
}

/// The daemon stops refilling the pool when memory runs out instead of
/// wedging creates.
#[test]
fn pool_refill_stops_at_memory_wall() {
    let mut host = Host::with_machine(
        Machine::custom(4, 4 * GIB + 64 * (1 << 20)),
        1,
        ToolstackMode::LightVm,
        6,
    );
    let img = GuestImage::unikernel_daytime(); // 4 MiB each
    host.prewarm(&img);
    let mut made = 0;
    loop {
        match host.launch_auto(&img) {
            Ok(_) => made += 1,
            Err(PlaneError::Hv(hypervisor::HvError::OutOfMemory(_))) => break,
            Err(e) => panic!("unexpected {e:?}"),
        }
        assert!(made < 100, "wall never hit");
    }
    assert!(made >= 5, "got {made}");
}
