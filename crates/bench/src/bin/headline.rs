//! Table H: the paper's headline in-text numbers, re-measured.

use guests::GuestImage;
use lightvm::{ControlPlane, ToolstackMode};
use lvnet::Link;
use simcore::{Machine, MachinePreset};

fn main() {
    println!("# Table H — headline numbers (paper -> measured)");
    let img_noop = GuestImage::unikernel_noop();
    let img_day = GuestImage::unikernel_daytime();

    // Boot record: noop unikernel, no devices, all optimisations.
    let xeon = Machine::preset(MachinePreset::XeonE5_1630V3);
    let mut plane = ControlPlane::new(xeon.clone(), 1, ToolstackMode::LightVm, 42);
    plane.prewarm(&img_noop);
    let name = format!("{}-0", img_noop.name);
    let (_, create, boot) = plane.create_and_boot(&name, &img_noop).unwrap();
    println!(
        "noop instantiation (paper 2.3 ms):       {:.2} ms",
        (create + boot).as_millis_f64()
    );

    // Daytime image footprints.
    println!(
        "daytime image size (paper 480 KB):       {} KB",
        img_day.image_bytes / 1024
    );
    println!(
        "daytime running footprint (paper 3.6 MB): {:.1} MB",
        img_day.footprint_bytes() as f64 / 1e6
    );

    // Checkpointing.
    let mut plane = ControlPlane::new(xeon.clone(), 2, ToolstackMode::LightVm, 43);
    plane.prewarm(&img_day);
    let name = format!("{}-0", img_day.name);
    let (dom, _, _) = plane.create_and_boot(&name, &img_day).unwrap();
    let (saved, t_save) = plane.save_vm(dom).unwrap();
    let (dom, t_restore) = plane.restore_vm(&saved).unwrap();
    println!("save (paper ~30 ms):                      {:.1} ms", t_save.as_millis_f64());
    println!("restore (paper ~20 ms):                   {:.1} ms", t_restore.as_millis_f64());

    // Migration.
    let mut dst = ControlPlane::new(xeon, 2, ToolstackMode::LightVm, 44);
    let (_, t_mig) = plane.migrate_vm_to(&mut dst, &Link::lan(), dom).unwrap();
    println!("migration (paper ~60 ms):                 {:.1} ms", t_mig.as_millis_f64());

    // fork/exec baseline.
    let mut procs = container::ProcessRuntime::new(45);
    let cost = simcore::CostModel::paper_defaults();
    let mut total = 0.0;
    for _ in 0..1000 {
        total += procs.spawn(&cost).1.as_millis_f64();
    }
    println!("fork/exec average (paper 3.5 ms):         {:.2} ms", total / 1000.0);

    // Tinyx image.
    let tinyx = GuestImage::tinyx_noop();
    println!(
        "Tinyx image (paper 9.5 MB / ~30 MB RAM):  {:.1} MB / {} MB RAM",
        tinyx.image_bytes as f64 / 1e6,
        tinyx.mem_mib
    );
}
