//! Cross-module toolstack tests: the paper's headline control-plane
//! behaviours at small scale.

use guests::GuestImage;
use lvnet::Link;
use simcore::{Category, Machine, MachinePreset, SimTime};

use crate::plane::{ControlPlane, PlaneError, ToolstackMode};

fn plane(mode: ToolstackMode) -> ControlPlane {
    ControlPlane::new(Machine::preset(MachinePreset::XeonE5_1630V3), 1, mode, 42)
}

fn first_vm_total(mode: ToolstackMode) -> SimTime {
    let mut cp = plane(mode);
    let img = GuestImage::unikernel_daytime();
    cp.prewarm(&img);
    let (_, create, boot) = cp.create_and_boot("vm-0", &img).unwrap();
    create + boot
}

#[test]
fn mode_ordering_matches_figure_9() {
    let xl = first_vm_total(ToolstackMode::Xl);
    let chaos_xs = first_vm_total(ToolstackMode::ChaosXs);
    let chaos_noxs = first_vm_total(ToolstackMode::ChaosNoxs);
    let lightvm = first_vm_total(ToolstackMode::LightVm);
    assert!(xl > chaos_xs, "xl {xl} vs chaos[XS] {chaos_xs}");
    assert!(chaos_xs > chaos_noxs, "chaos[XS] {chaos_xs} vs chaos[NoXS] {chaos_noxs}");
    assert!(chaos_noxs > lightvm, "chaos[NoXS] {chaos_noxs} vs LightVM {lightvm}");
}

#[test]
fn xl_first_vm_is_about_100ms() {
    let t = first_vm_total(ToolstackMode::Xl).as_millis_f64();
    assert!((60.0..160.0).contains(&t), "xl first VM took {t} ms");
}

#[test]
fn lightvm_first_vm_is_single_digit_ms() {
    let t = first_vm_total(ToolstackMode::LightVm).as_millis_f64();
    assert!((2.0..10.0).contains(&t), "LightVM first VM took {t} ms");
}

#[test]
fn noop_unikernel_on_lightvm_is_about_2ms() {
    let mut cp = plane(ToolstackMode::LightVm);
    let img = GuestImage::unikernel_noop();
    cp.prewarm(&img);
    let (_, create, boot) = cp.create_and_boot("noop-0", &img).unwrap();
    let t = (create + boot).as_millis_f64();
    assert!((1.0..5.0).contains(&t), "noop took {t} ms");
}

#[test]
fn xl_breakdown_covers_figure_5_categories() {
    let mut cp = plane(ToolstackMode::Xl);
    let img = GuestImage::unikernel_daytime();
    let report = cp.create_vm("vm-0", &img).unwrap();
    for cat in [
        Category::Config,
        Category::Toolstack,
        Category::Hypervisor,
        Category::Xenstore,
        Category::Devices,
        Category::Load,
    ] {
        assert!(
            report.meter.of(cat) > SimTime::ZERO,
            "category {cat} missing from the breakdown"
        );
    }
    // Devices dominate at low density (bash hotplug + qemu).
    assert!(report.meter.of(Category::Devices) > report.meter.of(Category::Xenstore));
}

#[test]
fn noxs_modes_never_touch_the_store() {
    for mode in [ToolstackMode::ChaosNoxs, ToolstackMode::LightVm] {
        let mut cp = plane(mode);
        let img = GuestImage::unikernel_daytime();
        cp.prewarm(&img);
        let report = cp.create_vm("vm-0", &img).unwrap();
        let boot = cp.boot_vm(report.dom).unwrap();
        assert_eq!(report.meter.of(Category::Xenstore), SimTime::ZERO);
        assert!(boot > SimTime::ZERO);
        assert_eq!(cp.xs.stats().requests, 0, "{mode:?} used the XenStore");
    }
}

#[test]
fn xl_rejects_duplicate_names() {
    let mut cp = plane(ToolstackMode::Xl);
    let img = GuestImage::unikernel_daytime();
    let r = cp.create_vm("dup", &img).unwrap();
    cp.boot_vm(r.dom).unwrap();
    assert_eq!(
        cp.create_vm("dup", &img).unwrap_err(),
        PlaneError::NameTaken("dup".into())
    );
    // Another name is fine.
    cp.create_vm("dup2", &img).unwrap();
}

#[test]
fn split_pool_hits_after_prewarm() {
    let mut cp = plane(ToolstackMode::LightVm);
    let img = GuestImage::unikernel_daytime();
    cp.prewarm(&img);
    assert!(!cp.daemon.is_empty());
    let r1 = cp.create_vm("a", &img).unwrap();
    assert!(r1.from_shell);
    // Pool refilled in the background; the next create hits again.
    let r2 = cp.create_vm("b", &img).unwrap();
    assert!(r2.from_shell);
    assert!(cp.background_meter.total() > SimTime::ZERO);
}

#[test]
fn cold_pool_falls_back_to_full_create() {
    let mut cp = plane(ToolstackMode::LightVm);
    let img = GuestImage::unikernel_daytime();
    let r = cp.create_vm("cold", &img).unwrap();
    assert!(!r.from_shell);
    // Shells only fit their flavor.
    let bigger = GuestImage::unikernel_minipython();
    let r2 = cp.create_vm("other-flavor", &bigger).unwrap();
    assert!(!r2.from_shell);
}

#[test]
fn split_mode_creates_are_faster_than_non_split() {
    let no_split = {
        let mut cp = plane(ToolstackMode::ChaosNoxs);
        let img = GuestImage::unikernel_daytime();
        cp.create_vm("x", &img).unwrap().total()
    };
    let split = {
        let mut cp = plane(ToolstackMode::LightVm);
        let img = GuestImage::unikernel_daytime();
        cp.prewarm(&img);
        cp.create_vm("x", &img).unwrap().total()
    };
    assert!(split < no_split, "split {split} vs full {no_split}");
}

#[test]
fn xl_creation_grows_with_density() {
    let mut cp = plane(ToolstackMode::Xl);
    let img = GuestImage::unikernel_daytime();
    let mut first = SimTime::ZERO;
    let mut last = SimTime::ZERO;
    for i in 0..150 {
        let (_, create, _) = cp.create_and_boot(&format!("vm-{i}"), &img).unwrap();
        if i == 0 {
            first = create;
        }
        last = create;
    }
    assert!(
        last > first.scale(1.15),
        "xl creation should grow with density: first {first}, 150th {last}"
    );
}

#[test]
fn lightvm_creation_is_density_independent() {
    let mut cp = plane(ToolstackMode::LightVm);
    let img = GuestImage::unikernel_daytime();
    cp.prewarm(&img);
    let mut first = SimTime::ZERO;
    let mut last = SimTime::ZERO;
    for i in 0..150 {
        let r = cp.create_vm(&format!("vm-{i}"), &img).unwrap();
        cp.boot_vm(r.dom).unwrap();
        if i == 0 {
            first = r.total();
        }
        last = r.total();
    }
    assert!(
        last < first.scale(1.5),
        "LightVM creation should stay flat: first {first}, 150th {last}"
    );
}

#[test]
fn destroy_releases_everything() {
    // Non-split mode so the shell pool's pre-created vifs don't sit on
    // the switch.
    let mut cp = plane(ToolstackMode::ChaosNoxs);
    let img = GuestImage::unikernel_daytime();
    let (dom, _, _) = cp.create_and_boot("gone", &img).unwrap();
    let mem_with = cp.hv.memory.used();
    assert_eq!(cp.switch.port_count(), 1);
    cp.destroy_vm(dom).unwrap();
    assert_eq!(cp.running_count(), 0);
    assert_eq!(cp.switch.port_count(), 0);
    assert!(cp.hv.memory.used() < mem_with);
    assert_eq!(cp.destroy_vm(dom).unwrap_err(), PlaneError::NoSuchVm);
}

#[test]
fn save_restore_round_trip_all_modes() {
    for mode in [
        ToolstackMode::Xl,
        ToolstackMode::ChaosXs,
        ToolstackMode::ChaosNoxs,
        ToolstackMode::LightVm,
    ] {
        let mut cp = plane(mode);
        let img = GuestImage::unikernel_daytime();
        let (dom, _, _) = cp.create_and_boot("ckpt", &img).unwrap();
        let (saved, t_save) = cp.save_vm(dom).unwrap();
        assert_eq!(cp.running_count(), 0, "{mode:?}");
        let (new_dom, t_restore) = cp.restore_vm(&saved).unwrap();
        assert_ne!(new_dom, dom);
        assert_eq!(cp.running_count(), 1);
        assert!(t_save > SimTime::ZERO && t_restore > SimTime::ZERO);
    }
}

#[test]
fn lightvm_checkpoint_times_match_figure_12() {
    let mut cp = plane(ToolstackMode::LightVm);
    let img = GuestImage::unikernel_daytime();
    let (dom, _, _) = cp.create_and_boot("ckpt", &img).unwrap();
    let (saved, t_save) = cp.save_vm(dom).unwrap();
    let (_, t_restore) = cp.restore_vm(&saved).unwrap();
    let save_ms = t_save.as_millis_f64();
    let restore_ms = t_restore.as_millis_f64();
    assert!((10.0..50.0).contains(&save_ms), "save {save_ms} ms");
    assert!((5.0..35.0).contains(&restore_ms), "restore {restore_ms} ms");
}

#[test]
fn xl_checkpoint_is_order_of_magnitude_slower() {
    let mut xl = plane(ToolstackMode::Xl);
    let mut lv = plane(ToolstackMode::LightVm);
    let img = GuestImage::unikernel_daytime();
    let (dom_xl, _, _) = xl.create_and_boot("a", &img).unwrap();
    let (dom_lv, _, _) = lv.create_and_boot("a", &img).unwrap();
    let (saved_xl, t_save_xl) = xl.save_vm(dom_xl).unwrap();
    let (saved_lv, t_save_lv) = lv.save_vm(dom_lv).unwrap();
    let (_, t_rest_xl) = xl.restore_vm(&saved_xl).unwrap();
    let (_, t_rest_lv) = lv.restore_vm(&saved_lv).unwrap();
    assert!(t_save_xl > t_save_lv.scale(2.5), "{t_save_xl} vs {t_save_lv}");
    assert!(t_rest_xl > t_rest_lv.scale(5.0), "{t_rest_xl} vs {t_rest_lv}");
}

#[test]
fn migration_between_lightvm_hosts() {
    let mut src = ControlPlane::new(
        Machine::preset(MachinePreset::XeonE5_1630V3), 2, ToolstackMode::LightVm, 1,
    );
    let mut dst = ControlPlane::new(
        Machine::preset(MachinePreset::XeonE5_1630V3), 2, ToolstackMode::LightVm, 2,
    );
    let img = GuestImage::unikernel_daytime();
    let (dom, _, _) = src.create_and_boot("mig", &img).unwrap();
    let link = Link::datacenter();
    let (new_dom, t) = src.migrate_vm_to(&mut dst, &link, dom).unwrap();
    assert_eq!(src.running_count(), 0);
    assert_eq!(dst.running_count(), 1);
    assert!(dst.vm(new_dom).unwrap().booted);
    let ms = t.as_millis_f64();
    assert!((15.0..100.0).contains(&ms), "LightVM migration took {ms} ms");
}

#[test]
fn xl_migration_is_much_slower() {
    let mk = |mode, seed| {
        ControlPlane::new(Machine::preset(MachinePreset::XeonE5_1630V3), 2, mode, seed)
    };
    let img = GuestImage::unikernel_daytime();
    let link = Link::datacenter();

    let mut src = mk(ToolstackMode::Xl, 1);
    let mut dst = mk(ToolstackMode::Xl, 2);
    let (dom, _, _) = src.create_and_boot("m", &img).unwrap();
    let (_, t_xl) = src.migrate_vm_to(&mut dst, &link, dom).unwrap();

    let mut src = mk(ToolstackMode::LightVm, 3);
    let mut dst = mk(ToolstackMode::LightVm, 4);
    let (dom, _, _) = src.create_and_boot("m", &img).unwrap();
    let (_, t_lv) = src.migrate_vm_to(&mut dst, &link, dom).unwrap();

    assert!(t_xl > t_lv.scale(3.0), "xl {t_xl} vs LightVM {t_lv}");
}

#[test]
fn memory_accounting_tracks_footprints() {
    let mut cp = plane(ToolstackMode::LightVm);
    let img = GuestImage::unikernel_minipython();
    for i in 0..10 {
        cp.create_and_boot(&format!("m-{i}"), &img).unwrap();
    }
    assert_eq!(cp.guest_memory_used(), 10 * img.footprint_bytes());
}

#[test]
fn cpu_utilization_grows_with_debian_guests() {
    let mut cp = plane(ToolstackMode::LightVm);
    let img = GuestImage::debian();
    let base = cp.cpu_utilization();
    for i in 0..30 {
        cp.create_and_boot(&format!("d-{i}"), &img).unwrap();
    }
    let loaded = cp.cpu_utilization();
    assert!(loaded > base, "utilization should grow: {base} -> {loaded}");
}

#[test]
fn out_of_memory_surfaces_as_error() {
    let mut cp = ControlPlane::new(
        Machine::custom(4, 5 * (1 << 30)), // 5 GiB host, 4 GiB Dom0
        1,
        ToolstackMode::LightVm,
        7,
    );
    let img = GuestImage::debian(); // 111 MiB each
    let mut made = 0;
    loop {
        match cp.create_vm(&format!("d-{made}"), &img) {
            Ok(r) => {
                cp.boot_vm(r.dom).unwrap();
                made += 1;
            }
            Err(PlaneError::Hv(hypervisor::HvError::OutOfMemory(_))) => break,
            Err(e) => panic!("unexpected error {e:?}"),
        }
        assert!(made < 100, "memory wall never hit");
    }
    assert!(made >= 5, "should fit a few guests, got {made}");
}

#[test]
fn boot_under_load_grows_for_tinyx() {
    let mut cp = plane(ToolstackMode::LightVm);
    let img = GuestImage::tinyx_noop();
    let (_, _, first_boot) = cp.create_and_boot("t-0", &img).unwrap();
    for i in 1..120 {
        cp.create_and_boot(&format!("t-{i}"), &img).unwrap();
    }
    let (_, _, late_boot) = cp.create_and_boot("t-last", &img).unwrap();
    assert!(
        late_boot > first_boot,
        "Tinyx boot should grow with density: {first_boot} -> {late_boot}"
    );
}

#[test]
fn page_sharing_dedups_repeat_instances() {
    const MIB: u64 = 1 << 20;
    let img = GuestImage::debian(); // 111 MiB each
    // Baseline: no sharing.
    let mut plain = plane(ToolstackMode::ChaosNoxs);
    for i in 0..5 {
        plain.create_and_boot(&format!("p-{i}"), &img).unwrap();
    }
    let used_plain = plain.hv.memory.used();

    // 40% of pages shared across instances of the same image.
    let mut shared = plane(ToolstackMode::ChaosNoxs);
    shared.set_page_sharing(Some(0.4));
    for i in 0..5 {
        shared.create_and_boot(&format!("s-{i}"), &img).unwrap();
    }
    let used_shared = shared.hv.memory.used();
    // First instance full (111), four more at 60%: 111 + 4*67 vs 5*111.
    assert!(used_shared < used_plain, "{used_shared} vs {used_plain}");
    let saved = (used_plain - used_shared) / MIB;
    assert!((150..200).contains(&saved), "saved {saved} MiB");

    // A different image still pays full price for its first instance.
    let other = GuestImage::tinyx_noop();
    let before = shared.hv.memory.used();
    shared.create_and_boot("other-0", &other).unwrap();
    assert_eq!((shared.hv.memory.used() - before) / MIB, other.mem_mib);
}

#[test]
fn page_sharing_resets_when_instances_die() {
    let img = GuestImage::unikernel_daytime();
    let mut cp = plane(ToolstackMode::ChaosNoxs);
    cp.set_page_sharing(Some(0.5));
    let (a, _, _) = cp.create_and_boot("a", &img).unwrap();
    let mem_a = cp.hv.domain(a).unwrap().populated_mib;
    let (b, _, _) = cp.create_and_boot("b", &img).unwrap();
    let mem_b = cp.hv.domain(b).unwrap().populated_mib;
    assert!(mem_b < mem_a, "second instance shares pages");
    cp.destroy_vm(a).unwrap();
    cp.destroy_vm(b).unwrap();
    // With everyone gone, the next instance is a first instance again.
    let (c, _, _) = cp.create_and_boot("c", &img).unwrap();
    assert_eq!(cp.hv.domain(c).unwrap().populated_mib, mem_a);
}

#[test]
fn driver_domain_backend_works_on_xs_path_only() {
    use devices::Backend;
    use hypervisor::{DeviceKind, DomainConfig};
    use simcore::Meter;
    // Boot a driver domain, then serve a guest's vif from it via noxs:
    // rejected, as in the prototype (footnote 4).
    let mut cp = plane(ToolstackMode::ChaosNoxs);
    let cost = cp.cost();
    let mut m = Meter::new();
    let drv = cp
        .hv
        .create_domain(&cost, &mut m, &DomainConfig { max_mem_mib: 32, vcpus: 1 })
        .unwrap();
    let mut drv_net = Backend::new_in_domain(DeviceKind::Net, drv);
    let guest = cp
        .hv
        .create_domain(&cost, &mut m, &DomainConfig::default())
        .unwrap();
    cp.hv.devpage_setup(&cost, &mut m, hypervisor::DomId::DOM0, guest).unwrap();
    let err = noxs::driver::create_device(
        &mut cp.hv, &mut drv_net, &mut cp.switch, devices::Hotplug::Xendevd,
        &cost, &mut m, guest, 0, &mut simcore::FaultPlan::none(),
    )
    .unwrap_err();
    assert_eq!(err, noxs::driver::NoxsError::BackendNotDom0);

    // The same driver-domain backend works over the raw split-driver
    // machinery (what the XenStore path uses).
    drv_net.alloc_device(&mut cp.hv, &cost, &mut m, guest, 0).unwrap();
    drv_net.frontend_connect(&mut cp.hv, &cost, &mut m, guest, 0).unwrap();
    assert_eq!(
        drv_net.device(guest, 0).unwrap().state,
        devices::XenbusState::Connected
    );
    assert_eq!(drv_net.backend_dom(), drv);
}

// --- xl's name scan: closed form vs real scan -------------------------------

/// A seeded xl world with `n` booted guests named `g-<i>`.
fn xl_world(seed: u64, n: usize) -> ControlPlane {
    let img = GuestImage::unikernel_daytime();
    let mut cp = ControlPlane::new(
        Machine::preset(MachinePreset::XeonE5_1630V3),
        1,
        ToolstackMode::Xl,
        seed,
    );
    cp.prewarm(&img);
    for i in 0..n {
        cp.create_and_boot(&format!("g-{i}"), &img)
            .expect("xl world create");
    }
    cp
}

/// `/local/domain` shapes the closed form must charge exactly, or
/// refuse when the name is taken.
#[derive(Clone, Copy, Debug)]
enum Shape {
    Steady,
    /// An entry for a domain the toolstack never created.
    ForeignNumeric,
    /// A guest's entry spelled with a leading zero in place of the last
    /// guest's, which is gone (`0<d>` parses as `d`).
    NonCanonicalNumeric,
    NonNumeric,
    /// A live guest whose `name` node was removed.
    RemovedName,
    /// A live guest whose `name` Dom0 rewrote to "victim".
    RewrittenName,
    /// Dom0's own `name` node present.
    Dom0Name,
    /// A destroyed guest's `name` node left behind.
    DestroyedLeftovers,
}

const SHAPES: [Shape; 8] = [
    Shape::Steady,
    Shape::ForeignNumeric,
    Shape::NonCanonicalNumeric,
    Shape::NonNumeric,
    Shape::RemovedName,
    Shape::RewrittenName,
    Shape::Dom0Name,
    Shape::DestroyedLeftovers,
];

/// Plants `shape` into `cp` with uncharged store writes. Returns false
/// when the shape needs a guest and the world has none.
fn plant(cp: &mut ControlPlane, shape: Shape) -> bool {
    let first = cp.vms().next().map(|(d, vm)| (d.0, vm.name.clone()));
    let last = cp.vms().last().map(|(d, _)| d.0);
    let p = |s: &str| xenstore::XsPath::parse(s).unwrap();
    let name_path = |d: u32| p(&format!("/local/domain/{d}/name"));
    let needs_guest = matches!(
        shape,
        Shape::NonCanonicalNumeric
            | Shape::RemovedName
            | Shape::RewrittenName
            | Shape::DestroyedLeftovers
    );
    if first.is_none() && needs_guest {
        return false;
    }
    if let (Shape::DestroyedLeftovers, Some((d, _))) = (shape, &first) {
        cp.destroy_vm(hypervisor::DomId(*d)).expect("destroy");
    }
    let store = cp.xs.store_mut_for_tests();
    match (shape, first) {
        (Shape::Steady, _) => {}
        (Shape::ForeignNumeric, _) => store.write(0, &name_path(9999), b"stray").unwrap(),
        (Shape::NonCanonicalNumeric, Some((d, _))) => {
            let gone = last.expect("a guest");
            store.rm(0, &p(&format!("/local/domain/{gone}"))).unwrap();
            store
                .write(0, &p(&format!("/local/domain/0{d}/name")), b"stray")
                .unwrap();
        }
        (Shape::NonNumeric, _) => store
            .write(0, &p("/local/domain/tools/name"), b"g-0")
            .unwrap(),
        (Shape::RemovedName, Some((d, _))) => store.rm(0, &name_path(d)).unwrap(),
        (Shape::RewrittenName, Some((d, _))) => store.write(0, &name_path(d), b"victim").unwrap(),
        (Shape::Dom0Name, _) => store.write(0, &name_path(0), b"Domain-0").unwrap(),
        (Shape::DestroyedLeftovers, Some((d, name))) => {
            store.write(0, &name_path(d), name.as_bytes()).unwrap()
        }
        (_, None) => unreachable!("guest-less shapes return early"),
    }
    true
}

/// Everything a name check can change, observed after it ran.
#[derive(Debug, PartialEq)]
struct ScanOutcome {
    result: Result<(), PlaneError>,
    total: SimTime,
    per_category: Vec<SimTime>,
    requests: u64,
    log_lines: u64,
    log_rotations: u64,
    digest: u128,
    interned_syms: usize,
}

/// Runs xl's name check for `name` on `cp`: the closed form (falling
/// back to the real scan when it refuses) or the real scan alone.
/// Returns the outcome and whether the closed form was admitted.
fn scan(cp: &mut ControlPlane, name: &str, closed_form: bool) -> (ScanOutcome, bool) {
    let cost = cp.cost();
    let mut m = simcore::Meter::new();
    let admitted = closed_form && cp.xl_name_scan_closed_form(&cost, &mut m, name).is_some();
    let result = if admitted {
        Ok(())
    } else {
        cp.xl_name_scan(&cost, &mut m, name)
    };
    let outcome = ScanOutcome {
        result,
        total: m.total(),
        per_category: Category::ALL.iter().map(|&c| m.of(c)).collect(),
        requests: cp.xs.stats().requests,
        log_lines: cp.xs.log_total_lines(),
        log_rotations: cp.xs.log_rotations(),
        digest: cp.world_digest64_at_rest(),
        interned_syms: cp.xs.store_census().interned_syms,
    };
    (outcome, admitted)
}

#[test]
fn closed_form_name_scan_matches_real_scan() {
    let candidates = ["new", "g-0", "victim", "Domain-0", "stray"];
    let (mut admitted_checks, mut refused_checks) = (0, 0);
    for seed in [1, 42] {
        for n in [0, 1, 8, 30] {
            let world = xl_world(seed, n);
            for shape in SHAPES {
                let mut planted = world.fork();
                if !plant(&mut planted, shape) {
                    continue;
                }
                for name in candidates {
                    let (mut a, mut b) = (planted.fork(), planted.fork());
                    // Twice in a row: the first check's log lines and
                    // stats feed the second's charges.
                    for round in 0..2 {
                        let (fast, admitted) = scan(&mut a, name, true);
                        let (real, _) = scan(&mut b, name, false);
                        assert_eq!(
                            fast, real,
                            "seed {seed} n {n} {shape:?} {name:?} round {round}: closed form diverged"
                        );
                        // Every shape is admitted unless the name is
                        // taken; a collision falls back to the real scan.
                        assert_eq!(
                            admitted,
                            real.result.is_ok(),
                            "seed {seed} n {n} {shape:?} {name:?} round {round}: admitted {admitted}"
                        );
                        if admitted {
                            admitted_checks += 1;
                        } else {
                            refused_checks += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(admitted_checks > 0 && refused_checks > 0);
}

/// Dom0 rewrites a live guest's `name` to "victim": xl's scan finds the
/// collision, so `create "victim"` must fail with `NameTaken` and charge
/// exactly the real scan's early exit — the store's tally sees the
/// rewritten name, so the closed form refuses.
#[test]
fn rewritten_guest_name_is_taken() {
    let img = GuestImage::unikernel_daytime();
    let mut cp = xl_world(42, 8);
    let cost = cp.cost();
    let victim = *cp.vms().nth(3).expect("eight guests").0;
    let path = xenstore::XsPath::parse(&format!("/local/domain/{}/name", victim.0)).unwrap();
    cp.xs
        .write(&cost, &mut simcore::Meter::new(), 0, &path, b"victim")
        .unwrap();

    let mut reference = cp.fork();
    let requests_before = cp.xs.stats().requests;
    assert_eq!(
        cp.create_and_boot("victim", &img).unwrap_err(),
        PlaneError::NameTaken("victim".into())
    );
    let (real, _) = scan(&mut reference, "victim", false);
    assert_eq!(real.result, Err(PlaneError::NameTaken("victim".into())));
    assert_eq!(cp.xs.stats().requests, real.requests);
    assert_eq!(cp.xs.log_total_lines(), real.log_lines);
    // The early exit stopped short of reading every entry.
    assert!(real.requests - requests_before < cp.running_count() as u64 + 2);
    assert_eq!(cp.world_digest64_at_rest(), real.digest);
}
