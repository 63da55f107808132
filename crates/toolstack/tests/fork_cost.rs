//! Regression test of what a stamped cluster host costs (DESIGN.md §6j).
//!
//! `HostTemplate::stamp` forks a 100-guest template. Everything the
//! template holds is shared by refcount, so a stamp should allocate only
//! the fork's flat tables and a handful of map nodes — not one buffer
//! per guest per table, and not an empty copy of the interner's frozen
//! overlay. This file installs its own counting global allocator (calls
//! and bytes, per thread) and holds exactly one `#[test]`, so no other
//! test's allocations land in the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use guests::GuestImage;
use simcore::{Machine, MachinePreset};
use toolstack::{ControlPlane, HostTemplate, ToolstackMode};

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// A [`System`] wrapper counting allocation calls and requested bytes
/// on the calling thread (a realloc counts as one call of its new size).
struct Counting;

fn bump(bytes: usize) {
    // `try_with`: the allocator can be re-entered during TLS teardown.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn counts() -> (u64, u64) {
    (CALLS.with(Cell::get), BYTES.with(Cell::get))
}

/// Guests in each template, as in the cluster figure's density ladder.
const GUESTS: usize = 100;
/// Per-stamp ceilings. Before the fix a 100-guest stamp made 516 (xl)
/// to 617 (LightVM) allocations and wrote 286 KB; after it, at most
/// about 115 allocations and 75 KiB.
const MAX_ALLOCS: u64 = 150;
const MAX_BYTES: u64 = 96 * 1024;

fn template(mode: ToolstackMode) -> HostTemplate {
    let img = GuestImage::unikernel_daytime();
    let mut cp = ControlPlane::new(Machine::preset(MachinePreset::XeonE5_1630V3), 1, mode, 42);
    cp.prewarm(&img);
    for i in 0..GUESTS {
        cp.create_and_boot(&format!("{}-{i}", img.name), &img)
            .expect("template create");
    }
    HostTemplate::capture(&mut cp, 48)
}

#[test]
fn stamping_a_host_allocates_only_what_the_fork_writes() {
    for mode in [ToolstackMode::Xl, ToolstackMode::ChaosXs, ToolstackMode::LightVm] {
        let t = template(mode);
        assert_eq!(t.guests(), GUESTS);
        for host in 0..8u64 {
            let (c0, b0) = counts();
            let cp = t.stamp(host);
            let (c1, b1) = counts();
            let (allocs, bytes) = (c1 - c0, b1 - b0);
            assert!(
                allocs <= MAX_ALLOCS && bytes <= MAX_BYTES,
                "{mode:?} stamp {host}: {allocs} allocations, {bytes} bytes \
                 (ceiling {MAX_ALLOCS} / {MAX_BYTES})"
            );
            drop(cp);
        }
    }
}
