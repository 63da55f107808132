//! Host memory accounting and pressure model.
//!
//! VM memory imposes a hard upper bound on density (paper §2) and, near
//! exhaustion, the host starts reclaiming (dropping caches, compacting),
//! which multiplies the cost of memory-touching work. This is what makes
//! the thousandth Debian VM in Figure 4 so expensive and what kills the
//! Docker run at ~3000 containers in Figure 10.

/// Tracks host memory and derives a reclaim-pressure multiplier.
#[derive(Clone, Debug)]
pub struct MemoryPressure {
    total: u64,
    used: u64,
    /// Free fraction below which reclaim starts (default 0.25).
    threshold: f64,
    /// Exponent of the pressure curve (default 2.0).
    exponent: f64,
}

/// Error returned when an allocation cannot be satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes free at the time of the request.
    pub free: u64,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of memory: requested {} bytes, {} free",
            self.requested, self.free
        )
    }
}

impl std::error::Error for OutOfMemory {}

impl MemoryPressure {
    /// Creates a tracker for a host with `total` bytes, with `reserved`
    /// bytes (Dom0, hypervisor) already in use.
    pub fn new(total: u64, reserved: u64) -> Self {
        MemoryPressure {
            total,
            used: reserved.min(total),
            threshold: 0.25,
            exponent: 2.0,
        }
    }

    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Bytes in use.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes free.
    pub fn free(&self) -> u64 {
        self.total - self.used
    }

    /// Free fraction in `[0, 1]`.
    pub fn free_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.free() as f64 / self.total as f64
        }
    }

    /// Allocates `bytes`, failing if they are not available.
    pub fn allocate(&mut self, bytes: u64) -> Result<(), OutOfMemory> {
        if bytes > self.free() {
            return Err(OutOfMemory {
                requested: bytes,
                free: self.free(),
            });
        }
        self.used += bytes;
        Ok(())
    }

    /// Releases `bytes` (saturating).
    pub fn release(&mut self, bytes: u64) {
        self.used = self.used.saturating_sub(bytes);
    }

    /// Multiplier applied to memory-touching work under reclaim pressure.
    ///
    /// 1.0 while the free fraction is above the threshold, then
    /// `(threshold / free_fraction) ^ exponent`, growing without bound as
    /// memory runs out.
    pub fn factor(&self) -> f64 {
        let free = self.free_fraction();
        if free >= self.threshold {
            1.0
        } else if free <= 0.0 {
            f64::INFINITY
        } else {
            (self.threshold / free).powf(self.exponent)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    #[test]
    fn allocate_and_release_track_usage() {
        let mut m = MemoryPressure::new(128 * GIB, 4 * GIB);
        assert_eq!(m.used(), 4 * GIB);
        m.allocate(10 * GIB).unwrap();
        assert_eq!(m.used(), 14 * GIB);
        m.release(10 * GIB);
        assert_eq!(m.used(), 4 * GIB);
    }

    #[test]
    fn allocation_fails_when_exhausted() {
        let mut m = MemoryPressure::new(10 * GIB, 0);
        m.allocate(9 * GIB).unwrap();
        let err = m.allocate(2 * GIB).unwrap_err();
        assert_eq!(err.requested, 2 * GIB);
        assert_eq!(err.free, GIB);
    }

    #[test]
    fn no_pressure_when_plenty_free() {
        let mut m = MemoryPressure::new(100 * GIB, 0);
        m.allocate(50 * GIB).unwrap();
        assert_eq!(m.factor(), 1.0);
    }

    #[test]
    fn pressure_grows_as_memory_vanishes() {
        let mut m = MemoryPressure::new(100 * GIB, 0);
        m.allocate(80 * GIB).unwrap();
        let f20 = m.factor();
        m.allocate(10 * GIB).unwrap();
        let f10 = m.factor();
        m.allocate(5 * GIB).unwrap();
        let f5 = m.factor();
        assert!(f20 > 1.0);
        assert!(f10 > f20);
        assert!(f5 > f10);
        // Default curve: (0.25 / 0.05)^2 = 25.
        assert!((f5 - 25.0).abs() < 1e-9);
    }

    #[test]
    fn release_relieves_pressure() {
        let mut m = MemoryPressure::new(100 * GIB, 0);
        m.allocate(95 * GIB).unwrap();
        assert!(m.factor() > 1.0);
        m.release(50 * GIB);
        assert_eq!(m.factor(), 1.0);
    }
}
