//! The split toolstack's shell pool (paper §5.2, Figure 8).
//!
//! "The prepare phase is responsible for functionality common to all VMs
//! such as having the hypervisor generate an ID and other management
//! information and allocating CPU resources to the VM. We offload this
//! functionality to the chaos daemon, which generates a number of VM
//! shells and places them in a pool. The daemon ensures that there is
//! always a certain (configurable) number of shells available."

use std::collections::VecDeque;

use hypervisor::DomId;

/// A pre-created VM shell: domain + memory + pre-created devices,
/// waiting for an image and a name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VmShell {
    /// The pre-created domain.
    pub dom: DomId,
    /// Memory it was populated with (the shell's "flavor").
    pub mem_mib: u64,
    /// Virtual CPUs it was created with.
    pub vcpus: u32,
    /// Whether a vif was pre-created.
    pub has_net: bool,
}

/// The chaos daemon's shell pool.
#[derive(Clone, Debug, Default)]
pub struct ChaosDaemon {
    pool: VecDeque<VmShell>,
    /// Shells the daemon keeps ready.
    pub target: usize,
    hits: u64,
    misses: u64,
    refill_failures: u64,
}

impl ChaosDaemon {
    /// Creates a daemon that keeps `target` shells pooled.
    pub fn new(target: usize) -> ChaosDaemon {
        ChaosDaemon {
            pool: VecDeque::new(),
            target,
            hits: 0,
            misses: 0,
            refill_failures: 0,
        }
    }

    /// Shells currently pooled.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// True if the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    /// Takes a shell fitting the request, if one exists.
    pub fn take(&mut self, mem_mib: u64, vcpus: u32, needs_net: bool) -> Option<VmShell> {
        let pos = self
            .pool
            .iter()
            .position(|s| s.mem_mib == mem_mib && s.vcpus == vcpus && s.has_net == needs_net);
        match pos {
            Some(i) => {
                self.hits += 1;
                self.pool.remove(i)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Returns a freshly prepared shell to the pool.
    pub fn put(&mut self, shell: VmShell) {
        self.pool.push_back(shell);
    }

    /// (pool hits, pool misses) since start.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Records a background prepare that failed (and was rolled back);
    /// the daemon stops the current refill round and tries again on the
    /// next create.
    pub fn note_refill_failure(&mut self) {
        self.refill_failures += 1;
    }

    /// Background prepares that failed since start.
    pub fn refill_failures(&self) -> u64 {
        self.refill_failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shell(dom: u32, mem: u64, net: bool) -> VmShell {
        VmShell {
            dom: DomId(dom),
            mem_mib: mem,
            vcpus: 1,
            has_net: net,
        }
    }

    #[test]
    fn take_matches_flavor() {
        let mut d = ChaosDaemon::new(4);
        d.put(shell(1, 4, true));
        d.put(shell(2, 128, true));
        assert_eq!(d.take(128, 1, true).unwrap().dom, DomId(2));
        assert!(d.take(128, 1, true).is_none(), "only one 128 MiB shell");
        assert!(
            d.take(4, 2, true).is_none(),
            "a 1-vCPU shell cannot serve 2 vCPUs"
        );
        assert_eq!(d.take(4, 1, true).unwrap().dom, DomId(1));
        assert!(d.is_empty());
    }

    #[test]
    fn net_requirement_must_match() {
        let mut d = ChaosDaemon::new(4);
        d.put(shell(1, 4, false));
        assert!(d.take(4, 1, true).is_none());
        assert!(d.take(4, 1, false).is_some());
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut d = ChaosDaemon::new(4);
        d.put(shell(1, 4, true));
        let _ = d.take(4, 1, true);
        let _ = d.take(4, 1, true);
        assert_eq!(d.stats(), (1, 1));
    }

    #[test]
    fn fifo_order_within_flavor() {
        let mut d = ChaosDaemon::new(4);
        d.put(shell(1, 4, true));
        d.put(shell(2, 4, true));
        assert_eq!(d.take(4, 1, true).unwrap().dom, DomId(1));
        assert_eq!(d.take(4, 1, true).unwrap().dom, DomId(2));
    }
}
