//! End-to-end integration tests across the whole stack: hosts, fleets,
//! checkpoints and migrations chained together.

use lightvm::guests::GuestImage;
use lightvm::net::Link;
use lightvm::{ControlPlane, ToolstackMode};
use simcore::{Machine, MachinePreset, SimTime};

fn xeon(dom0_cores: usize, mode: ToolstackMode, seed: u64) -> ControlPlane {
    ControlPlane::new(Machine::preset(MachinePreset::XeonE5_1630V3), dom0_cores, mode, seed)
}

#[test]
fn boot_a_mixed_fleet() {
    let mut host = xeon(1, ToolstackMode::LightVm, 1);
    let images = [
        GuestImage::unikernel_daytime(),
        GuestImage::unikernel_minipython(),
        GuestImage::tinyx_noop(),
        GuestImage::debian(),
        GuestImage::clickos_firewall(),
    ];
    let mut mem_expected = 0;
    for (k, img) in images.iter().flat_map(|img| [img; 3]).enumerate() {
        let name = format!("{}-{k}", img.name);
        host.create_and_boot(&name, img).expect("boots");
        mem_expected += img.footprint_bytes();
    }
    assert_eq!(host.running_count(), 15);
    assert_eq!(host.guest_memory_used(), mem_expected);
    assert!(host.cpu_utilization() > 0.0);
}

#[test]
fn checkpoint_chain_preserves_the_guest() {
    let mut host = xeon(1, ToolstackMode::LightVm, 2);
    let img = GuestImage::unikernel_daytime();
    let (mut dom, _, _) = host.create_and_boot("chained", &img).expect("boots");
    // Save/restore the same guest five times.
    for round in 0..5 {
        let (saved, _) = host.save_vm(dom).expect("saves");
        assert_eq!(host.running_count(), 0, "round {round}");
        let (new_dom, _) = host.restore_vm(&saved).expect("restores");
        assert_ne!(new_dom, dom);
        dom = new_dom;
    }
    assert_eq!(host.running_count(), 1);
    assert_eq!(host.vm(dom).unwrap().name, "chained");
}

#[test]
fn migration_ring_across_three_hosts() {
    let mut hosts: Vec<ControlPlane> = (0..3)
        .map(|i| xeon(2, ToolstackMode::LightVm, 10 + i))
        .collect();
    let img = GuestImage::unikernel_daytime();
    let (mut dom, _, _) = hosts[0].create_and_boot("nomad", &img).expect("boots");
    let link = Link::lan();
    for hop in 0..3 {
        let (src, dst) = (hop % 3, (hop + 1) % 3);
        let (a, b) = if src < dst {
            let (l, r) = hosts.split_at_mut(dst);
            (&mut l[src], &mut r[0])
        } else {
            let (l, r) = hosts.split_at_mut(src);
            (&mut r[0], &mut l[dst])
        };
        let (new_dom, t) = a.migrate_vm_to(b, &link, dom).expect("migrates");
        assert!(t < SimTime::from_millis(150), "hop {hop} took {t}");
        dom = new_dom;
    }
    // After three hops the guest is back on host 0.
    assert_eq!(hosts[0].running_count(), 1);
    assert_eq!(hosts[1].running_count(), 0);
    assert_eq!(hosts[2].running_count(), 0);
    assert_eq!(hosts[0].vm(dom).unwrap().name, "nomad");
}

#[test]
fn all_five_modes_run_the_same_workload() {
    for mode in ToolstackMode::ALL {
        let mut host = xeon(1, mode, 3);
        let img = GuestImage::unikernel_daytime();
        host.prewarm(&img);
        let mut doms = Vec::new();
        for k in 0..10 {
            let name = format!("{}-{k}", img.name);
            doms.push(host.create_and_boot(&name, &img).expect("boots").0);
        }
        assert_eq!(host.running_count(), 10, "{mode:?}");
        for dom in doms {
            host.destroy_vm(dom).expect("destroys");
        }
        assert_eq!(host.running_count(), 0, "{mode:?}");
        assert_eq!(
            host.switch.port_count(),
            host.daemon.len(),
            "{mode:?}: only pooled shells may keep ports"
        );
    }
}

#[test]
fn interleaved_lifecycle_operations() {
    let mut host = xeon(2, ToolstackMode::LightVm, 4);
    let img = GuestImage::unikernel_minipython();
    let create = |host: &mut ControlPlane, k: u32| {
        let name = format!("{}-{k}", img.name);
        host.create_and_boot(&name, &img).unwrap().0
    };
    let a = create(&mut host, 0);
    let b = create(&mut host, 1);
    let (saved_a, _) = host.save_vm(a).unwrap();
    let c = create(&mut host, 2);
    host.destroy_vm(b).unwrap();
    let (restored_a, _) = host.restore_vm(&saved_a).unwrap();
    assert_eq!(host.running_count(), 2);
    assert!(host.vm(restored_a).is_ok());
    assert!(host.vm(c).is_ok());
    assert!(host.vm(b).is_err());
}

#[test]
fn xenstore_state_is_clean_after_teardown() {
    let mut host = xeon(1, ToolstackMode::Xl, 5);
    let img = GuestImage::unikernel_daytime();
    let before_nodes = host.xs.store().node_count();
    let mut doms = Vec::new();
    for k in 0..8 {
        let name = format!("{}-{k}", img.name);
        doms.push(host.create_and_boot(&name, &img).unwrap().0);
    }
    assert!(host.xs.store().node_count() > before_nodes);
    for dom in doms {
        host.destroy_vm(dom).unwrap();
    }
    // Domain and device directories are gone; only backend roots and
    // bookkeeping remain.
    let after = host.xs.store().node_count();
    assert!(
        after <= before_nodes + 16,
        "store leaked nodes: {before_nodes} -> {after}"
    );
}
