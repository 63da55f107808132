//! The resource census: every occupancy count a leak could hide in.
//!
//! [`super::snapshot`]'s `world_digest64` answers "is the world
//! byte-identical?"; the census answers the complementary question
//! "*where* did it drift?". The churn suite takes a census at every
//! checkpoint after returning the world to its canonical population —
//! if the digests differ, [`WorldCensus::diff`] names the leaking
//! resource (store arena slots, interned symbols, watch-table entries,
//! event channels, grants, backend devices, ...) instead of leaving a
//! 128-bit "something changed".
//!
//! Fields come in two classes:
//!
//! * **occupancy** — how much of a resource is held *right now*. Equal
//!   populations must census equal; any monotone growth between
//!   matching checkpoints is a leak.
//! * **cumulative** — monotone by construction (request totals, log
//!   lines, rotation counts, teardown-error counters). Reported for
//!   provenance, excluded from [`WorldCensus::diff`] and
//!   [`WorldCensus::same_occupancy`].

use crate::plane::{ControlPlane, TeardownErrors};
use xenstore::xenstored::XsStats;

/// A point-in-time resource census of one [`ControlPlane`] world.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WorldCensus {
    // --- occupancy (leak-checked) ---------------------------------------
    /// Live nodes in the XenStore's slot arena.
    pub store_live: usize,
    /// Slot-arena capacity (plateaus at O(peak live) with the free list).
    pub store_capacity: usize,
    /// Free (recyclable) arena slots.
    pub store_free: usize,
    /// Interned path symbols (stabilizes once the canonical shape set
    /// has been seen).
    pub interned_syms: usize,
    /// Registered watch-table entries.
    pub watches: usize,
    /// Watch events queued but not yet drained, summed over connections.
    pub pending_events: usize,
    /// Open store connections.
    pub conns: usize,
    /// Devices in the net backend's table.
    pub net_devs: usize,
    /// Devices in the block backend's table.
    pub blk_devs: usize,
    /// Devices in the console backend's table.
    pub console_devs: usize,
    /// Software-switch ports.
    pub switch_ports: usize,
    /// Domains the hypervisor tracks.
    pub domains: usize,
    /// Open event channels.
    pub evtchns: usize,
    /// Active grant-table entries.
    pub grants: usize,
    /// Guest memory in use (bytes).
    pub guest_mem_bytes: u64,
    /// VMs in the control plane's table.
    pub vms: usize,
    /// Pre-created shells sitting in the split-toolstack pool.
    pub shell_pool: usize,

    // --- cumulative (report-only) ---------------------------------------
    /// Store daemon counters (requests, commits, conflicts, ...).
    pub xs_stats: XsStats,
    /// Access-log lines ever written.
    pub log_total_lines: u64,
    /// Access-log rotations ever performed.
    pub log_rotations: u64,
    /// Failed creates rolled back.
    pub create_failures: u64,
    /// Unexpected errors swallowed on teardown paths, by site.
    pub teardown: TeardownErrors,
}

impl WorldCensus {
    /// The occupancy fields as `(name, value)` pairs, in declaration
    /// order — the single source of truth for [`WorldCensus::diff`].
    pub fn occupancy(&self) -> [(&'static str, u64); 17] {
        [
            ("store_live", self.store_live as u64),
            ("store_capacity", self.store_capacity as u64),
            ("store_free", self.store_free as u64),
            ("interned_syms", self.interned_syms as u64),
            ("watches", self.watches as u64),
            ("pending_events", self.pending_events as u64),
            ("conns", self.conns as u64),
            ("net_devs", self.net_devs as u64),
            ("blk_devs", self.blk_devs as u64),
            ("console_devs", self.console_devs as u64),
            ("switch_ports", self.switch_ports as u64),
            ("domains", self.domains as u64),
            ("evtchns", self.evtchns as u64),
            ("grants", self.grants as u64),
            ("guest_mem_bytes", self.guest_mem_bytes),
            ("vms", self.vms as u64),
            ("shell_pool", self.shell_pool as u64),
        ]
    }

    /// Occupancy fields that differ, as `(name, self, other)` — the
    /// per-site leak report. Empty means no resource drifted.
    pub fn diff(&self, other: &WorldCensus) -> Vec<(&'static str, u64, u64)> {
        self.occupancy()
            .iter()
            .zip(other.occupancy().iter())
            .filter(|((_, a), (_, b))| a != b)
            .map(|(&(name, a), &(_, b))| (name, a, b))
            .collect()
    }

    /// True if every occupancy field matches (cumulative counters are
    /// allowed to differ: they grow by construction).
    pub fn same_occupancy(&self, other: &WorldCensus) -> bool {
        self.occupancy() == other.occupancy()
    }
}

impl ControlPlane {
    /// Takes a census of everything currently held (see [`WorldCensus`]).
    pub fn census(&self) -> WorldCensus {
        // The census already walks the world, so it is where debug
        // builds check the incremental sum against a recount.
        debug_assert_eq!(
            self.booted_watches,
            self.vms.values().filter(|v| v.booted).map(|v| v.image.watches).sum::<u32>(),
            "incremental booted-watch sum drifted from the VM map"
        );
        let store = self.xs.store_census();
        WorldCensus {
            store_live: store.live,
            store_capacity: store.capacity,
            store_free: store.free,
            interned_syms: store.interned_syms,
            watches: self.xs.watch_count(),
            pending_events: self.xs.pending_counts().map(|(_, n)| n).sum(),
            conns: self.xs.conn_count(),
            net_devs: self.net.count(),
            blk_devs: self.blk.count(),
            console_devs: self.console.count(),
            switch_ports: self.switch.port_count(),
            domains: self.hv.domain_count(),
            evtchns: self.hv.open_channels(),
            grants: self.hv.grant_count(),
            guest_mem_bytes: self.guest_memory_used(),
            vms: self.running_count(),
            shell_pool: self.daemon.len(),
            xs_stats: self.xs.stats(),
            log_total_lines: self.xs.log_total_lines(),
            log_rotations: self.xs.log_rotations(),
            create_failures: self.create_failures,
            teardown: self.teardown_errors,
        }
    }
}
