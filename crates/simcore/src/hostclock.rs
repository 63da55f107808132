//! Host CPU time of the calling thread, for tests that compare the host
//! cost of the same work at two sizes. Unlike wall-clock time it stops
//! while the thread waits for a core, so other load on the machine does
//! not leak into the ratio.

use std::os::raw::{c_int, c_long};

#[cfg(target_os = "linux")]
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
#[cfg(target_os = "macos")]
const CLOCK_THREAD_CPUTIME_ID: c_int = 16;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    // From the C library std already links.
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU time the calling thread has used so far, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` and the clock id
    // is the platform's thread CPU-time clock.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_work_but_not_sleep() {
        let t0 = thread_cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let t1 = thread_cpu_ns();
        assert!(t1 - t0 < 20_000_000, "sleeping cost {} ns of CPU", t1 - t0);
        let mut x = 0u64;
        while thread_cpu_ns() - t1 < 5_000_000 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(x > 0);
    }
}
