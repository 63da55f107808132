//! World forks and world digests.
//!
//! [`ControlPlane::fork`] copies the full simulated world — xenstored
//! (node table, sibling chains, interner, watch table, transaction
//! log), hypervisor (domains, memory reservations, grants, event
//! channels), device back-ends and the software switch, and toolstack
//! bookkeeping (shell pool, RNG streams, meters, per-image counters).
//! The copy is a structure-sharing clone: node values are `Arc<[u8]>`
//! and the interner's symbols are `Arc<str>`, so most of the store
//! copies as reference bumps; the flat tables (nodes, domains, grants,
//! channels) memcpy. A fork is digest-identical to a world freshly
//! simulated to the same point — the simulation is fully seeded and
//! the clone is faithful, which
//! `crates/toolstack/tests/proptest_snapshot.rs` pins per mode, density
//! step and seed.
//!
//! The engine's timing wheel is *not* part of a fork: pending events
//! hold boxed closures (uncloneable), and a `ControlPlane` advances
//! purely on virtual time (`CpuSim`) without owning an engine, so there
//! is nothing to copy. Units that drive an engine (jit) keep their own
//! state and do not fork.
//!
//! Mutating a fork never disturbs the original (or other forks): writes
//! that would edit a shared `Arc<[u8]>` in place fail the
//! `Arc::get_mut` uniqueness check and fall back to a fresh buffer, so
//! sharing is invisible except as saved allocations.
//!
//! The digests compare worlds: [`ControlPlane::world_digest`] renders
//! everything a create can allocate, and
//! [`ControlPlane::world_digest64`] is its incremental `u128` form.

use crate::plane::ControlPlane;
use simcore::Meter;
use xenstore::{Mix128, XsPath};

impl ControlPlane {
    /// Forks the world: an independent copy to continue from, or a
    /// throwaway one for destructive probes (save/restore, migration)
    /// that must not disturb the original.
    pub fn fork(&self) -> ControlPlane {
        self.clone()
    }

    /// A byte-for-byte digest of everything a create can allocate: the
    /// store tree (paths and values), watch registrations and
    /// undelivered events, device back-ends, switch ports, and
    /// hypervisor-side state (domains, guest memory, event channels,
    /// grants). Generations are deliberately excluded — they are a
    /// monotone clock, and ambient or storm interference rewrites a
    /// node with its own value, bumping the generation without changing
    /// observable content. Dom0's pending toolstack watch events are
    /// drained first (they are background deliveries, not state), so
    /// this takes `&mut self`.
    pub fn world_digest(&mut self) -> String {
        let cost = self.cost();
        let mut m = Meter::new();
        self.xs.drain_events(&cost, &mut m, 0);

        let mut d = String::new();
        digest_walk(self, &XsPath::root(), &mut d);
        d.push_str(&format!(
            "nodes={} watches={} conns={}\n",
            self.xs.store().node_count(),
            self.xs.watch_count(),
            self.xs.conn_count(),
        ));
        // Iterate the connections that actually have queued events (in
        // ascending conn order, so the rendering is deterministic) —
        // a hard-coded id range would silently equate worlds whose
        // differences live on higher-numbered connections.
        for (conn, pending) in self.xs.pending_counts() {
            d.push_str(&format!("pending[{conn}]={pending}\n"));
        }
        d.push_str(&format!(
            "net={} blk={} console={} ports={}\n",
            self.net.count(),
            self.blk.count(),
            self.console.count(),
            self.switch.port_count(),
        ));
        d.push_str(&format!(
            "domains={} guest_mem={} evtchns={} grants={}\n",
            self.hv.domain_count(),
            self.guest_memory_used(),
            self.hv.evtchn.open_channels(),
            self.hv.gnttab.len(),
        ));
        d.push_str(&format!("running={}\n", self.running_count()));
        d
    }

    /// The fast world digest (DESIGN.md §6h): the store's incremental
    /// Merkle digest plus the same scalar quantities the string digest
    /// renders, mixed into one `u128`. After k store mutations this
    /// costs O(k · depth) plus a handful of counter reads, instead of
    /// the string digest's O(world) walk-and-render — which is what lets
    /// the world store and the property suites compare worlds at every
    /// step. Like [`ControlPlane::world_digest`], it
    /// first drains Dom0's pending toolstack events (background
    /// deliveries, not state), and is never charged to simulated time.
    pub fn world_digest64(&mut self) -> u128 {
        let cost = self.cost();
        let mut m = Meter::new();
        self.xs.drain_events(&cost, &mut m, 0);
        self.world_digest64_at_rest()
    }

    /// [`ControlPlane::world_digest64`] without the Dom0 drain: pure
    /// `&self`, usable on shared worlds. Includes per-connection
    /// pending event counts, so it only equals another world's digest
    /// when both are at the same delivery point — compare like with
    /// like (two captured rungs, two quiescent forks), or drain first
    /// via the `&mut` variant.
    pub fn world_digest64_at_rest(&self) -> u128 {
        let mut mix = Mix128::new();
        mix.write_u128(self.xs.store().subtree_digest());
        mix.write_u64(self.xs.store().node_count() as u64);
        mix.write_u64(self.xs.watch_count() as u64);
        mix.write_u64(self.xs.conn_count() as u64);
        for (conn, pending) in self.xs.pending_counts() {
            mix.write_u64(conn as u64);
            mix.write_u64(pending as u64);
        }
        mix.write_u64(self.net.count() as u64);
        mix.write_u64(self.blk.count() as u64);
        mix.write_u64(self.console.count() as u64);
        mix.write_u64(self.switch.port_count() as u64);
        mix.write_u64(self.hv.domain_count() as u64);
        mix.write_u64(self.guest_memory_used());
        mix.write_u64(self.hv.evtchn.open_channels() as u64);
        mix.write_u64(self.hv.gnttab.len() as u64);
        mix.write_u64(self.running_count() as u64);
        mix.finish()
    }
}

/// Append one line per store node under `path` (depth-first, child
/// order as the store reports it). Values are rendered byte-exactly:
/// printable ASCII as-is, everything else as an unambiguous `\xNN`
/// escape — a lossy UTF-8 rendering would let distinct invalid byte
/// sequences collide on the replacement character.
fn digest_walk(cp: &ControlPlane, path: &XsPath, out: &mut String) {
    out.push_str(path.as_str());
    if let Ok(value) = cp.xs.store().read(0, path) {
        out.push('=');
        for &b in value {
            match b {
                b'\\' => out.push_str("\\\\"),
                0x20..=0x7e => out.push(b as char),
                _ => out.push_str(&format!("\\x{b:02x}")),
            }
        }
    }
    out.push('\n');
    if let Ok(children) = cp.xs.store().directory(0, path) {
        for child in children {
            digest_walk(cp, &path.child(&child).unwrap(), out);
        }
    }
}

#[cfg(test)]
mod sanity {
    use super::*;

    // The bench world store climbs chain tips on runner threads.
    fn _assert_send<T: Send>() {}
    fn _plane_is_send() {
        _assert_send::<ControlPlane>();
    }

    #[test]
    fn fork_is_digest_identical() {
        use guests::GuestImage;
        use simcore::{Machine, MachinePreset};
        let mut cp = ControlPlane::new(
            Machine::preset(MachinePreset::XeonE5_1630V3),
            1,
            crate::plane::ToolstackMode::Xl,
            42,
        );
        let img = GuestImage::unikernel_daytime();
        for i in 0..3 {
            cp.create_and_boot(&format!("daytime-{i}"), &img).unwrap();
        }
        let mut fork = cp.fork();
        assert_eq!(cp.world_digest(), fork.world_digest());
        assert_eq!(cp.world_digest64(), fork.world_digest64());
        assert_eq!(cp.world_digest64_at_rest(), fork.world_digest64_at_rest());
    }
}
