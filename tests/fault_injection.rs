//! Fault injection: the control plane must stay consistent when
//! operations fail mid-flight — no leaked domains, ports, store nodes or
//! pool shells.

use lightvm::guests::GuestImage;
use lightvm::{ControlPlane, PlaneError, ToolstackMode};
use simcore::{Machine, MachinePreset};

const GIB: u64 = 1 << 30;

/// A failed create (host out of memory) must not leak switch ports,
/// backend devices or domains.
#[test]
fn failed_create_leaves_no_residue() {
    // 4 GiB Dom0 + room for exactly two 111 MiB Debians + change.
    let mut host = ControlPlane::new(
        Machine::custom(4, 4 * GIB + 300 * (1 << 20)),
        1,
        ToolstackMode::ChaosNoxs,
        1,
    );
    let img = GuestImage::debian();
    host.create_and_boot("debian-0", &img).unwrap();
    host.create_and_boot("debian-1", &img).unwrap();
    let domains_before = host.hv.domain_count();
    let ports_before = host.switch.port_count();
    let net_before = host.net.count();
    let err = host.create_and_boot("debian-2", &img).unwrap_err();
    assert!(matches!(err, PlaneError::Hv(hypervisor::HvError::OutOfMemory(_))));
    // Nothing half-created sticks around... the failed domain is reaped.
    assert_eq!(host.switch.port_count(), ports_before);
    assert_eq!(host.net.count(), net_before);
    assert!(
        host.hv.domain_count() <= domains_before + 1,
        "at most the failed shell may linger"
    );
    // And the host still works for smaller guests.
    host.create_and_boot("daytime-3", &GuestImage::unikernel_daytime()).unwrap();
}

/// Store quota exhaustion by one guest must not break the control plane
/// or other guests.
#[test]
fn quota_dos_is_contained() {
    use simcore::Meter;
    use xenstore::{Perms, XsPath};
    let mut host = ControlPlane::new(
        Machine::preset(MachinePreset::XeonE5_1630V3),
        1,
        ToolstackMode::Xl,
        2,
    );
    host.xs.store_mut_for_tests().set_quota(Some(50));
    let img = GuestImage::unikernel_daytime();
    let (a, _, _) = host.create_and_boot("daytime-0", &img).unwrap();

    // A malicious guest floods its subtree until the quota trips.
    let cost = host.cost();
    let mut m = Meter::new();
    let evil = a.0;
    let base = XsPath::parse(&format!("/local/domain/{evil}/data")).unwrap();
    host.xs.write(&cost, &mut m, 0, &base, b"").unwrap();
    host.xs
        .set_perms(&cost, &mut m, 0, &base, Perms {
            owner: evil,
            others_read: true,
            others_write: false,
        })
        .unwrap();
    let mut denied = false;
    for i in 0..200 {
        let p = base.child(&format!("junk{i}")).unwrap();
        match host.xs.write(&cost, &mut m, evil, &p, b"x") {
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
    host.create_and_boot("daytime-1", &img).unwrap();
}

/// Destroying a guest twice, restoring a stale checkpoint after the
/// original was re-created, etc., must all error cleanly.
#[test]
fn bogus_lifecycle_sequences_error_cleanly() {
    let mut host = ControlPlane::new(
        Machine::preset(MachinePreset::XeonE5_1630V3),
        1,
        ToolstackMode::LightVm,
        3,
    );
    let img = GuestImage::unikernel_daytime();
    let (dom, _, _) = host.create_and_boot("daytime-0", &img).unwrap();
    host.destroy_vm(dom).unwrap();
    assert_eq!(host.destroy_vm(dom).unwrap_err(), PlaneError::NoSuchVm);
    assert!(host.save_vm(dom).is_err());
    // Restore works even though the original domain id is long gone.
    let (dom2, _, _) = host.create_and_boot("daytime-1", &img).unwrap();
    let (saved, _) = host.save_vm(dom2).unwrap();
    let (dom3, _) = host.restore_vm(&saved).unwrap();
    assert_ne!(dom3, dom2);
}

/// Migration to a full destination host fails and the guest stays
/// runnable at the source.
#[test]
fn migration_to_full_host_fails_safely() {
    let img = GuestImage::debian();
    let mut src = ControlPlane::new(
        Machine::preset(MachinePreset::XeonE5_1630V3),
        2,
        ToolstackMode::LightVm,
        4,
    );
    // Destination with essentially no guest memory.
    let mut dst = ControlPlane::new(
        Machine::custom(4, 4 * GIB + 8 * (1 << 20)),
        1,
        ToolstackMode::LightVm,
        5,
    );
    let (dom, _, _) = src.create_and_boot("debian-0", &img).unwrap();
    let err = src
        .migrate_vm_to(&mut dst, &lightvm::net::Link::lan(), dom)
        .unwrap_err();
    assert!(
        matches!(err, PlaneError::Hv(hypervisor::HvError::OutOfMemory(_))),
        "{err:?}"
    );
    assert_eq!(dst.running_count(), 0);
    // Nothing of the half-built target domain is left behind.
    assert_eq!(dst.hv.domain_count(), 0);
    assert_eq!((dst.net.count(), dst.switch.port_count()), (0, 0));
    // The source still tracks the guest as running.
    assert_eq!(src.running_count(), 1);
    let domain = src.hv.domain(dom).unwrap();
    assert_eq!(domain.state, hypervisor::DomainState::Running);
}

/// The daemon stops refilling the pool when memory runs out instead of
/// wedging creates.
#[test]
fn pool_refill_stops_at_memory_wall() {
    let mut host = ControlPlane::new(
        Machine::custom(4, 4 * GIB + 64 * (1 << 20)),
        1,
        ToolstackMode::LightVm,
        6,
    );
    let img = GuestImage::unikernel_daytime(); // 4 MiB each
    host.prewarm(&img);
    let mut made = 0;
    loop {
        let name = format!("{}-{made}", img.name);
        match host.create_and_boot(&name, &img) {
            Ok(_) => made += 1,
            Err(PlaneError::Hv(hypervisor::HvError::OutOfMemory(_))) => break,
            Err(e) => panic!("unexpected {e:?}"),
        }
        assert!(made < 100, "wall never hit");
    }
    assert!(made >= 5, "got {made}");
}
