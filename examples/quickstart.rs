//! Quickstart: boot a unikernel VM in milliseconds, checkpoint it,
//! restore it, and migrate it to a second host.
//!
//! Run with: `cargo run --release --example quickstart`

use lightvm::guests::GuestImage;
use lightvm::net::Link;
use lightvm::{ControlPlane, ToolstackMode};
use simcore::{Machine, MachinePreset};

fn main() {
    // A 4-core host driven by the full LightVM control plane
    // (chaos + noxs + split toolstack).
    let xeon = Machine::preset(MachinePreset::XeonE5_1630V3);
    let mut host = ControlPlane::new(xeon.clone(), 1, ToolstackMode::LightVm, 42);

    // The daytime unikernel: a 480 KB Mini-OS image that runs in ~4 MB.
    let image = GuestImage::unikernel_daytime();
    host.prewarm(&image); // let the chaos daemon pre-create VM shells

    let (dom, create, boot) = host
        .create_and_boot("hello-lightvm", &image)
        .expect("launch");
    let lightvm = create + boot;
    println!(
        "launched {} in {:.2} ms (create {:.2} ms + boot {:.2} ms)",
        image.name,
        lightvm.as_millis_f64(),
        create.as_millis_f64(),
        boot.as_millis_f64(),
    );
    println!(
        "host now runs {} VM(s), using {:.1} MB of guest memory",
        host.running_count(),
        host.guest_memory_used() as f64 / 1e6
    );

    // Checkpoint to the ramdisk and bring it back.
    let (saved, t_save) = host.save_vm(dom).expect("save");
    let (dom, t_restore) = host.restore_vm(&saved).expect("restore");
    println!(
        "checkpointed in {:.1} ms, restored in {:.1} ms",
        t_save.as_millis_f64(),
        t_restore.as_millis_f64()
    );

    // Migrate it to another host over a 1 Gbps LAN.
    let mut other = ControlPlane::new(xeon.clone(), 1, ToolstackMode::LightVm, 43);
    let (_, t_mig) = host
        .migrate_vm_to(&mut other, &Link::lan(), dom)
        .expect("migrate");
    println!(
        "migrated to the second host in {:.1} ms; source now has {} VMs, target {}",
        t_mig.as_millis_f64(),
        host.running_count(),
        other.running_count()
    );

    // Compare against stock Xen for contrast.
    let mut stock = ControlPlane::new(xeon, 1, ToolstackMode::Xl, 44);
    let (_, create, boot) = stock
        .create_and_boot("hello-xl", &image)
        .expect("xl launch");
    let xl = create + boot;
    println!(
        "the same VM under stock xl: {:.1} ms ({}x slower)",
        xl.as_millis_f64(),
        xl.as_nanos() / lightvm.as_nanos().max(1)
    );
}
