//! Use case §7.1: personal firewalls at the mobile edge.
//!
//! One ClickOS firewall VM per mobile user on a MEC machine; users enter
//! and leave the cell, so firewalls must boot in milliseconds and follow
//! their user via migration.
//!
//! Run with: `cargo run --release --example personal_firewall`

use lightvm::guests::GuestImage;
use lightvm::net::Link;
use lightvm::usecases::firewall;
use lightvm::{ControlPlane, ToolstackMode};
use simcore::{Machine, MachinePreset};

fn main() {
    println!("== throughput/RTT sweep (Figure 16a) ==");
    let r = firewall::run(42, &[1, 100, 250, 500, 750, 1000]);
    println!("booted {} ClickOS firewalls; last boot {:.1} ms", r.booted, r.last_boot_ms);
    println!("{:>7} {:>12} {:>14} {:>9}", "users", "total Gbps", "per-user Mbps", "RTT ms");
    for p in &r.points {
        println!(
            "{:>7} {:>12.2} {:>14.2} {:>9.1}",
            p.users, p.total_gbps, p.per_user_mbps, p.rtt_ms
        );
    }
    println!("LTE-advanced peaks at 3.3 Gbps/sector: one machine covers the cell.\n");

    println!("== a user moves to the next cell ==");
    let image = GuestImage::clickos_firewall();
    let mec = Machine::preset(MachinePreset::XeonE5_2690V4);
    let mut edge_a = ControlPlane::new(mec.clone(), 2, ToolstackMode::LightVm, 1);
    let mut edge_b = ControlPlane::new(mec, 2, ToolstackMode::LightVm, 2);
    edge_a.prewarm(&image);
    let (dom, create, boot) = edge_a
        .create_and_boot("user-4711-fw", &image)
        .expect("boots");
    println!(
        "firewall for user 4711 up at cell A in {:.1} ms",
        (create + boot).as_millis_f64()
    );
    // §7.1: "Migrating a ClickOS VM over a 1Gbps, 10ms link takes just 150ms."
    let (_, t) = edge_a
        .migrate_vm_to(&mut edge_b, &Link::gigabit_wan(), dom)
        .expect("migrates");
    println!(
        "followed the user to cell B over the 1 Gbps / 10 ms backhaul in {:.0} ms",
        t.as_millis_f64()
    );
}
