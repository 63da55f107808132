//! Grant tables: page sharing between domains.
//!
//! A domain *grants* a peer access to one of its frames and hands over a
//! grant reference; the peer *maps* the reference into its own address
//! space. Split drivers move all bulk data this way (paper §4.1), and the
//! noxs device control pages (§5.1) are shared through grants too.
//!
//! Each domain owns the grants it issued (see [`crate::Domain`]); the
//! hypercalls below live on [`Hypervisor`] because they name both the
//! granter and the grantee.

use simcore::{CostModel, Meter};

use crate::domain::{DomId, Held};
use crate::hv::{HvError, Hypervisor};

/// A grant reference, local to the granting domain.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct GrantRef(pub u32);

/// One issued grant. Like Xen's v1 grant entry, the frame is 32-bit.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Grant {
    pub(crate) grantee: DomId,
    /// Frame number in the granter's pseudo-physical space.
    frame: u32,
    readonly: bool,
    mapped: bool,
}

impl Hypervisor {
    /// Grants `grantee` access to `frame` of `granter`. Both domains
    /// must exist.
    pub fn grant_access(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        granter: DomId,
        grantee: DomId,
        frame: u32,
        readonly: bool,
    ) -> Result<GrantRef, HvError> {
        Self::charge(meter, cost.hypercall_base + cost.grant_op);
        if self.record_mut(grantee).is_none() {
            return Err(HvError::NoSuchDomain);
        }
        let g = self.record_mut(granter).ok_or(HvError::NoSuchDomain)?;
        g.last_ref += 1;
        let gref = GrantRef(g.last_ref);
        let grant = Grant {
            grantee,
            frame,
            readonly,
            mapped: false,
        };
        g.grants.insert(gref.0, grant);
        self.hold(grantee, Held::Grant(granter, gref));
        self.live_grants += 1;
        Ok(gref)
    }

    /// Maps a granted frame; returns the shared frame number.
    pub fn grant_map(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        mapper: DomId,
        granter: DomId,
        gref: GrantRef,
    ) -> Result<u32, HvError> {
        Self::charge(meter, cost.hypercall_base + cost.grant_op);
        let g = self.grant_mut(mapper, granter, gref)?;
        if g.mapped {
            return Err(HvError::AlreadyMapped);
        }
        g.mapped = true;
        Ok(g.frame)
    }

    /// Unmaps a grant. Uncharged: a back-end's device close covers it.
    pub fn grant_unmap(
        &mut self,
        mapper: DomId,
        granter: DomId,
        gref: GrantRef,
    ) -> Result<(), HvError> {
        self.grant_mut(mapper, granter, gref)?.mapped = false;
        Ok(())
    }

    /// Ends access: the granter revokes the reference. Fails while the
    /// grantee still has it mapped. Uncharged, like [`Self::grant_unmap`].
    pub fn grant_end_access(&mut self, granter: DomId, gref: GrantRef) -> Result<(), HvError> {
        let grants = &mut self.record_mut(granter).ok_or(HvError::BadRef)?.grants;
        match grants.get(&gref.0) {
            None => Err(HvError::BadRef),
            Some(g) if g.mapped => Err(HvError::StillInUse),
            Some(&Grant { grantee, .. }) => {
                grants.remove(&gref.0);
                self.release(grantee, Held::Grant(granter, gref));
                self.live_grants -= 1;
                Ok(())
            }
        }
    }

    /// Whether a live grant is read-only.
    pub fn grant_is_readonly(&self, granter: DomId, gref: GrantRef) -> Option<bool> {
        let d = if granter.is_dom0() {
            &self.dom0
        } else {
            self.domain(granter).ok()?
        };
        d.grants.get(&gref.0).map(|g| g.readonly)
    }

    /// Number of live grants on the host.
    pub fn grant_count(&self) -> usize {
        self.live_grants
    }

    /// `granter`'s grant `gref`, if it exists and `mapper` is its grantee.
    fn grant_mut(
        &mut self,
        mapper: DomId,
        granter: DomId,
        gref: GrantRef,
    ) -> Result<&mut Grant, HvError> {
        let g = self
            .record_mut(granter)
            .and_then(|d| d.grants.get_mut(&gref.0))
            .ok_or(HvError::BadRef)?;
        if g.grantee != mapper {
            return Err(HvError::NotPermitted);
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DomainConfig;

    /// A host with Dom0 and guests dom1..=dom`n`, plus a cost model and
    /// a meter.
    fn host(n: u32) -> (Hypervisor, CostModel, Meter) {
        let (mut hv, cost, mut m) = (
            Hypervisor::new(1 << 34, 0, vec![1]),
            CostModel::paper_defaults(),
            Meter::new(),
        );
        for _ in 0..n {
            hv.create_domain(&cost, &mut m, &DomainConfig::default())
                .unwrap();
        }
        (hv, cost, m)
    }

    #[test]
    fn grant_map_unmap_end() {
        let (mut hv, c, mut m) = host(1);
        let (g, d0) = (DomId(1), DomId(0));
        let gref = hv.grant_access(&c, &mut m, g, d0, 0x1000, false).unwrap();
        assert_eq!(hv.grant_map(&c, &mut m, d0, g, gref).unwrap(), 0x1000);
        assert_eq!(
            hv.grant_end_access(g, gref).unwrap_err(),
            HvError::StillInUse
        );
        hv.grant_unmap(d0, g, gref).unwrap();
        hv.grant_end_access(g, gref).unwrap();
        assert_eq!(hv.grant_count(), 0);
    }

    #[test]
    fn wrong_grantee_cannot_map() {
        let (mut hv, c, mut m) = host(2);
        let gref = hv
            .grant_access(&c, &mut m, DomId(1), DomId(0), 1, true)
            .unwrap();
        assert_eq!(
            hv.grant_map(&c, &mut m, DomId(2), DomId(1), gref)
                .unwrap_err(),
            HvError::NotPermitted
        );
    }

    #[test]
    fn double_map_rejected() {
        let (mut hv, c, mut m) = host(1);
        let gref = hv
            .grant_access(&c, &mut m, DomId(1), DomId(0), 1, true)
            .unwrap();
        hv.grant_map(&c, &mut m, DomId(0), DomId(1), gref).unwrap();
        assert_eq!(
            hv.grant_map(&c, &mut m, DomId(0), DomId(1), gref)
                .unwrap_err(),
            HvError::AlreadyMapped
        );
    }

    #[test]
    fn readonly_flag_visible() {
        let (mut hv, c, mut m) = host(1);
        let ro = hv
            .grant_access(&c, &mut m, DomId(1), DomId(0), 1, true)
            .unwrap();
        let rw = hv
            .grant_access(&c, &mut m, DomId(1), DomId(0), 2, false)
            .unwrap();
        assert_eq!(hv.grant_is_readonly(DomId(1), ro), Some(true));
        assert_eq!(hv.grant_is_readonly(DomId(1), rw), Some(false));
    }

    #[test]
    fn destroy_drops_grants_in_both_directions() {
        let (mut hv, c, mut m) = host(2);
        hv.grant_access(&c, &mut m, DomId(1), DomId(0), 1, false)
            .unwrap(); // granted by 1
        let to = hv
            .grant_access(&c, &mut m, DomId(0), DomId(1), 2, false)
            .unwrap(); // to 1
        hv.grant_access(&c, &mut m, DomId(0), DomId(2), 3, false)
            .unwrap(); // unrelated
        hv.grant_map(&c, &mut m, DomId(1), DomId(0), to).unwrap();
        hv.destroy(&c, &mut m, DomId(1)).unwrap();
        assert_eq!(hv.grant_count(), 1);
        assert_eq!(hv.grant_end_access(DomId(0), to), Err(HvError::BadRef));
    }

    #[test]
    fn refs_are_per_granter() {
        let (mut hv, c, mut m) = host(2);
        let a = hv
            .grant_access(&c, &mut m, DomId(1), DomId(0), 1, false)
            .unwrap();
        let b = hv
            .grant_access(&c, &mut m, DomId(2), DomId(0), 1, false)
            .unwrap();
        assert_eq!(a, b, "each granter has its own ref space");
    }
}
