//! Density hot-path allocation profile: creates and boots a batch of
//! unikernel guests under the `xl` toolstack (the Figure 9 methodology,
//! the workload the density sweeps spend their time in) and reports
//! host allocations per simulation event.
//!
//! Usage: `allocs [N_GUESTS]` (default 200; `LIGHTVM_QUICK=1` divides
//! by 10). The before/after table in `results/bench_micro_pr3.md` is
//! produced from this binary's output.

use bench::alloc::{thread_allocs, CountingAlloc};
use guests::GuestImage;
use simcore::{Machine, MachinePreset};
use toolstack::{ControlPlane, ToolstackMode};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| bench::Scale::from_env().scaled(200));

    let image = GuestImage::unikernel_daytime();
    let machine = Machine::preset(MachinePreset::XeonE5_1630V3);
    let mut cp = ControlPlane::new(machine, 1, ToolstackMode::Xl, 42);
    cp.prewarm(&image);

    // Warm up: the first few creates populate interner tables, scratch
    // buffers and log state; steady state is what the density sweeps pay.
    let warmup = (n / 10).clamp(1, 20);
    for i in 0..warmup {
        cp.create_and_boot(&format!("warm-{i}"), &image)
            .expect("warmup create");
    }

    let stats0 = cp.xs.stats();
    let ev0 = stats0.requests + stats0.watch_events + cp.cpu.tasks_started();
    let a0 = thread_allocs();
    let t0 = std::time::Instant::now();

    for i in 0..n {
        cp.create_and_boot(&format!("guest-{i}"), &image)
            .expect("density create");
    }

    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let allocs = thread_allocs() - a0;
    let stats1 = cp.xs.stats();
    let events = stats1.requests + stats1.watch_events + cp.cpu.tasks_started() - ev0;
    let per_event = if events > 0 {
        allocs as f64 / events as f64
    } else {
        0.0
    };

    println!("density_guests: {n} (after {warmup} warmup)");
    println!("events: {events}");
    println!("allocs: {allocs}");
    println!("allocs_per_event: {per_event:.3}");
    println!("wall_ms: {wall_ms:.1}");
}
