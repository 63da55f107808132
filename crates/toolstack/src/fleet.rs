//! Host templates: fork-stamped cluster hosts.
//!
//! The cluster layer (DESIGN.md §6j) runs thousands of host worlds in
//! one figure. Building each host by replaying its boot chain would
//! cost O(hosts × boots); instead one *template* host is built per
//! (toolstack, machine, density) configuration and every cluster host
//! is *stamped* from it — a structure-sharing [`ControlPlane::fork`],
//! so stamping is O(hosts) clone work with the store and interner
//! shared until first write.
//!
//! Stamped hosts differ from the template in exactly two declared ways:
//!
//! * **Domid recycling is on** ([`Hypervisor::set_domid_limit`]): at
//!   cluster scale the append-only interner must not grow with total
//!   creates, so cluster hosts recycle domids by default. Single-host
//!   figures keep the default unbounded policy — their committed bytes
//!   do not move.
//! * **The toolstack RNG is re-seeded per host** via
//!   [`ControlPlane::restamp`], so hosts diverge realistically (timing
//!   jitter, placement noise) while each host remains a deterministic
//!   function of (template state, host id).
//!
//! Neither touches world *content*: a stamped host is digest-identical
//! to the template (and so to a freshly built world at the same rung),
//! which `proptest_cluster.rs` pins.

use crate::plane::ControlPlane;
use simcore::SimRng;

/// A prewarmed host world ready to be stamped out across a cluster.
pub struct HostTemplate {
    world: ControlPlane,
    digest: u128,
    guests: usize,
    domid_limit: u32,
}

impl HostTemplate {
    /// Captures `world` as the cluster's host template.
    ///
    /// Dom0's pending background events are drained first (via
    /// [`ControlPlane::world_digest64`]) so every stamped host starts
    /// from the same quiescent point. `guest_headroom` is the largest
    /// number of *additional* guests a stamped host may ever hold at
    /// once; the domid recycling limit is sized so allocation can never
    /// exhaust the domid space (shell-pool refills included).
    pub fn capture(world: &mut ControlPlane, guest_headroom: u32) -> HostTemplate {
        let digest = world.world_digest64();
        let domid_limit = domid_limit_for(world, guest_headroom);
        // Freeze the interner and the name tally so every stamped host
        // shares the symbol table and name multiset by refcount. With
        // the store's chunked CoW arena and the shared per-guest
        // records (`Arc` vCPU lists and device pages, heap-free back-end
        // and switch entries), a stamp of a 100-guest template makes
        // ~115 allocations and ~70 KB: the flat tables and map nodes,
        // nothing per guest and no empty overlay table (freezing leaves
        // the overlays with no capacity).
        world.xs.freeze_shared();
        HostTemplate {
            world: world.fork(),
            digest,
            guests: world.running_count(),
            domid_limit,
        }
    }

    /// Stamps host `host_id`: fork + domid recycling + per-host RNG.
    pub fn stamp(&self, host_id: u64) -> ControlPlane {
        let mut cp = self.world.fork();
        cp.hv.set_domid_limit(self.domid_limit);
        cp.restamp(host_id);
        cp
    }

    /// World digest the template was captured at (quiescent).
    pub fn digest(&self) -> u128 {
        self.digest
    }

    /// Guests running in the template world.
    pub fn guests(&self) -> usize {
        self.guests
    }

    /// Domid recycling limit applied to every stamped host.
    pub fn domid_limit(&self) -> u32 {
        self.domid_limit
    }
}

/// The domid recycling limit [`HostTemplate::capture`] would choose for
/// `world`: current live domains plus `guest_headroom` arrivals plus the
/// shell-pool target, with slack for allocations in flight. Exposed so
/// callers that saturate a world's interner *before* capture (churn-style
/// recycled-name preambles) can run under the exact limit the stamped
/// hosts will see.
pub fn domid_limit_for(world: &ControlPlane, guest_headroom: u32) -> u32 {
    let live = world.hv.domain_count() as u32;
    let pool = world.daemon.target as u32;
    live + guest_headroom + pool + 8
}

impl ControlPlane {
    /// Re-seeds the toolstack RNG as a pure function of the current
    /// stream state and `host_id`. All forks of one template share the
    /// same stream state, so stamping host `i` always yields the same
    /// world no matter how many siblings were stamped before it — the
    /// property that keeps cluster artefacts byte-identical across
    /// `--jobs` widths.
    pub fn restamp(&mut self, host_id: u64) {
        let base = self.rng.next_u64();
        self.rng = SimRng::new(base ^ host_id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::ToolstackMode;
    use guests::GuestImage;
    use simcore::{Machine, MachinePreset};

    fn world(mode: ToolstackMode, guests: usize) -> ControlPlane {
        let mut cp = ControlPlane::new(
            Machine::preset(MachinePreset::XeonE5_1630V3),
            1,
            mode,
            42,
        );
        let img = GuestImage::unikernel_daytime();
        for i in 0..guests {
            cp.create_and_boot(&format!("t-{i}"), &img).unwrap();
        }
        cp
    }

    #[test]
    fn stamp_is_digest_identical_to_template() {
        let mut w = world(ToolstackMode::LightVm, 4);
        let t = HostTemplate::capture(&mut w, 16);
        let mut a = t.stamp(0);
        let mut b = t.stamp(7);
        assert_eq!(a.world_digest64(), t.digest());
        assert_eq!(b.world_digest64(), t.digest());
        assert_eq!(t.guests(), 4);
    }

    #[test]
    fn stamped_hosts_diverge_but_deterministically() {
        let mut w = world(ToolstackMode::Xl, 2);
        let t = HostTemplate::capture(&mut w, 8);
        let img = GuestImage::unikernel_daytime();
        // Upward jitter only survives `saturating_sub`, so a single
        // create can tie by chance; compare a whole sequence.
        let boots = |cp: &mut ControlPlane| -> Vec<f64> {
            (0..8)
                .map(|i| {
                    let (_dom, create, boot) =
                        cp.create_and_boot(&format!("g-{i}"), &img).unwrap();
                    (create + boot).as_millis_f64()
                })
                .collect()
        };
        let a = boots(&mut t.stamp(3));
        let b = boots(&mut t.stamp(4));
        assert_ne!(a, b, "per-host jitter streams should differ");
        // Stamping is order-independent: a fresh stamp of host 3
        // reproduces the same timings exactly.
        assert_eq!(a, boots(&mut t.stamp(3)));
    }

    #[test]
    fn recycling_keeps_domids_bounded() {
        let mut w = world(ToolstackMode::LightVm, 2);
        let t = HostTemplate::capture(&mut w, 4);
        let img = GuestImage::unikernel_daytime();
        let mut cp = t.stamp(0);
        let limit = t.domid_limit();
        for i in 0..3 * limit {
            let (dom, _, _) = cp.create_and_boot(&format!("c-{i}"), &img).unwrap();
            assert!(dom.0 < limit, "domid {} escaped limit {limit}", dom.0);
            cp.destroy_vm(dom).unwrap();
        }
    }
}
