//! Determinism: the whole simulation is seeded; identical runs produce
//! identical measurements, and different seeds differ only in noise.

use lightvm::guests::GuestImage;
use lightvm::usecases::jit::{self, JitConfig};
use lightvm::{ControlPlane, ToolstackMode};
use simcore::{Machine, MachinePreset};

fn sweep(seed: u64) -> Vec<u64> {
    let machine = Machine::preset(MachinePreset::XeonE5_1630V3);
    let mut plane = ControlPlane::new(machine, 1, ToolstackMode::Xl, seed);
    let img = GuestImage::unikernel_daytime();
    (0..50)
        .map(|k| {
            let name = format!("{}-{k}", img.name);
            let (_, create, boot) = plane.create_and_boot(&name, &img).unwrap();
            (create + boot).as_nanos()
        })
        .collect()
}

#[test]
fn same_seed_identical_run() {
    assert_eq!(sweep(42), sweep(42));
}

#[test]
fn different_seed_same_shape_different_noise() {
    let a = sweep(1);
    let b = sweep(2);
    assert_ne!(a, b, "jitter should differ across seeds");
    // But the curves agree to within the 3% jitter plus log-rotation
    // spikes.
    for (x, y) in a.iter().zip(&b) {
        let ratio = *x.max(y) as f64 / *x.min(y).max(&1) as f64;
        assert!(ratio < 1.25, "same shape expected: {x} vs {y}");
    }
}

#[test]
fn use_cases_are_deterministic() {
    let r1 = jit::run(&JitConfig::paper(25, 9));
    let r2 = jit::run(&JitConfig::paper(25, 9));
    assert_eq!(r1.rtts, r2.rtts);
    assert_eq!(r1.drops, r2.drops);
}

#[test]
fn figure_data_is_reproducible() {
    use lightvm::usecases::firewall;
    let a = firewall::run(5, &[100, 500]);
    let b = firewall::run(5, &[100, 500]);
    assert_eq!(a.last_boot_ms, b.last_boot_ms);
    for (pa, pb) in a.points.iter().zip(&b.points) {
        assert_eq!(pa.total_gbps, pb.total_gbps);
        assert_eq!(pa.rtt_ms, pb.rtt_ms);
    }
}
