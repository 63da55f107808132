//! Host time per teardown does not grow with the number of live guests
//! (ROADMAP item 6, DESIGN.md §6i).
//!
//! Each mode runs two hosts, one with 200 and one with 2 000 booted
//! guests (Xeon preset, one Dom0 core, the daytime unikernel). In
//! interleaved batches, each host boots a few extra guests untimed and
//! then times their destroys, and times save+restore round trips of
//! guests spread over its population. The ratio of the medians cancels
//! host load that hits both hosts alike.
//!
//! Under noxs (chaos [NoXS] and LightVM) the hypervisor and the
//! back-ends are the whole teardown, and both reap only what the guest
//! owns, so the ratio is asserted to stay at or below 2. With host-wide
//! scans of every channel, grant and back-end record it read about 5.
//! The XenStore modes' ratios are printed, not asserted. Run it with
//! `cargo test --release -p toolstack --test teardown_scaling --
//! --nocapture` to see them.

use std::time::Instant;

use guests::GuestImage;
use hypervisor::DomId;
use simcore::{Machine, MachinePreset};
use toolstack::{ControlPlane, ToolstackMode};

const SMALL: usize = 200;
const LARGE: usize = 2_000;
/// Destroys and round trips timed per batch.
const VICTIMS: usize = 100;
const BATCHES: usize = 15;
/// The largest ratio of the 2 000-guest median over the 200-guest one.
const MAX_RATIO: f64 = 2.0;

struct Host {
    cp: ControlPlane,
    img: GuestImage,
    live: Vec<DomId>,
    booted: usize,
    per_destroy: Vec<f64>,
    per_round_trip: Vec<f64>,
}

impl Host {
    fn new(mode: ToolstackMode, guests: usize) -> Host {
        let img = GuestImage::unikernel_daytime();
        let mut cp = ControlPlane::new(Machine::preset(MachinePreset::XeonE5_1630V3), 1, mode, 42);
        cp.prewarm(&img);
        let mut h = Host {
            cp,
            img,
            live: Vec::new(),
            booted: 0,
            per_destroy: Vec::new(),
            per_round_trip: Vec::new(),
        };
        h.live = (0..guests).map(|_| h.boot()).collect();
        h
    }

    fn boot(&mut self) -> DomId {
        let name = format!("g-{}", self.booted);
        self.booted += 1;
        self.cp.create_and_boot(&name, &self.img).expect("create").0
    }

    /// One timed batch of destroys, then one of round trips.
    fn batch(&mut self) {
        let victims: Vec<DomId> = (0..VICTIMS).map(|_| self.boot()).collect();
        let start = Instant::now();
        for dom in victims {
            self.cp.destroy_vm(dom).expect("destroy");
        }
        self.per_destroy
            .push(start.elapsed().as_secs_f64() / VICTIMS as f64);

        let start = Instant::now();
        for i in 0..VICTIMS {
            let slot = i * self.live.len() / VICTIMS;
            let (saved, _) = self.cp.save_vm(self.live[slot]).expect("save");
            self.live[slot] = self.cp.restore_vm(&saved).expect("restore").0;
        }
        self.per_round_trip
            .push(start.elapsed().as_secs_f64() / VICTIMS as f64);
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The 2 000-guest over the 200-guest median host time per destroy and
/// per save+restore round trip.
fn ratios(mode: ToolstackMode) -> (f64, f64) {
    let mut hosts = [Host::new(mode, SMALL), Host::new(mode, LARGE)];
    for _ in 0..BATCHES {
        for h in &mut hosts {
            h.batch();
        }
    }
    let [small, large] = &mut hosts;
    let (d0, d1) = (
        median(&mut small.per_destroy),
        median(&mut large.per_destroy),
    );
    let (r0, r1) = (
        median(&mut small.per_round_trip),
        median(&mut large.per_round_trip),
    );
    println!(
        "{mode:?}: destroy {:.1} -> {:.1} us ({:.2}x), save+restore {:.1} -> {:.1} us ({:.2}x)",
        d0 * 1e6,
        d1 * 1e6,
        d1 / d0,
        r0 * 1e6,
        r1 * 1e6,
        r1 / r0
    );
    (d1 / d0, r1 / r0)
}

/// One test, so the modes never time each other. It asserts ratios of
/// host time, and those are gated on the optimised code a release build
/// runs; `ci.sh` runs it that way.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "asserts host-time ratios of optimised code; run with --release"
)]
fn teardown_cost_does_not_grow_with_the_population() {
    for mode in [ToolstackMode::ChaosNoxs, ToolstackMode::LightVm] {
        let (destroy, round_trip) = ratios(mode);
        for (what, ratio) in [("destroy", destroy), ("save+restore", round_trip)] {
            assert!(
                ratio <= MAX_RATIO,
                "{mode:?}: {what} at {LARGE} guests costs {ratio:.2}x its cost at {SMALL} \
                 (bound {MAX_RATIO}x)"
            );
        }
    }
    // Reported only: these teardowns also remove the guest's store
    // nodes, whose cost has its own test in the xenstore crate
    // (`rm_cost_does_not_grow_with_siblings`).
    for mode in [ToolstackMode::Xl, ToolstackMode::ChaosXs] {
        ratios(mode);
    }
}
