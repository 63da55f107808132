//! Grant tables: page sharing between domains.
//!
//! A domain *grants* a peer access to one of its frames and hands over a
//! grant reference; the peer *maps* the reference into its own address
//! space. Split drivers move all bulk data this way (paper §4.1), and the
//! noxs device control pages (§5.1) are shared through grants too.

use simcore::IdMap;

use crate::domain::DomId;

/// A grant reference, local to the granting domain.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct GrantRef(pub u32);

/// Grant-table errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GrantError {
    /// Reference does not exist.
    BadRef,
    /// Mapping attempted by a domain the grant was not issued to.
    NotPermitted,
    /// Grant still mapped when the granter tried to end access.
    StillInUse,
    /// Already mapped by the grantee.
    AlreadyMapped,
}

#[derive(Clone, Debug)]
struct Grant {
    grantee: DomId,
    /// Frame number in the granter's pseudo-physical space.
    frame: u64,
    readonly: bool,
    mapped: bool,
}

/// Per-host grant table keyed by (granter, reference).
#[derive(Clone, Default, Debug)]
pub struct GrantTable {
    grants: IdMap<(DomId, GrantRef), Grant>,
    next_ref: IdMap<DomId, u32>,
}

impl GrantTable {
    /// Creates an empty table.
    pub fn new() -> GrantTable {
        GrantTable::default()
    }

    /// Grants `grantee` access to `frame` of `granter`.
    pub fn grant_access(
        &mut self,
        granter: DomId,
        grantee: DomId,
        frame: u64,
        readonly: bool,
    ) -> GrantRef {
        let n = self.next_ref.entry(granter).or_insert(1);
        let gref = GrantRef(*n);
        *n += 1;
        self.grants.insert(
            (granter, gref),
            Grant {
                grantee,
                frame,
                readonly,
                mapped: false,
            },
        );
        gref
    }

    /// Maps a grant; returns the shared frame number.
    pub fn map(
        &mut self,
        mapper: DomId,
        granter: DomId,
        gref: GrantRef,
    ) -> Result<u64, GrantError> {
        let g = self
            .grants
            .get_mut(&(granter, gref))
            .ok_or(GrantError::BadRef)?;
        if g.grantee != mapper {
            return Err(GrantError::NotPermitted);
        }
        if g.mapped {
            return Err(GrantError::AlreadyMapped);
        }
        g.mapped = true;
        Ok(g.frame)
    }

    /// Unmaps a grant.
    pub fn unmap(
        &mut self,
        mapper: DomId,
        granter: DomId,
        gref: GrantRef,
    ) -> Result<(), GrantError> {
        let g = self
            .grants
            .get_mut(&(granter, gref))
            .ok_or(GrantError::BadRef)?;
        if g.grantee != mapper {
            return Err(GrantError::NotPermitted);
        }
        g.mapped = false;
        Ok(())
    }

    /// Ends access: the granter revokes the reference. Fails while the
    /// grantee still has it mapped.
    pub fn end_access(&mut self, granter: DomId, gref: GrantRef) -> Result<(), GrantError> {
        match self.grants.get(&(granter, gref)) {
            None => Err(GrantError::BadRef),
            Some(g) if g.mapped => Err(GrantError::StillInUse),
            Some(_) => {
                self.grants.remove(&(granter, gref));
                Ok(())
            }
        }
    }

    /// Whether a grant is currently read-only.
    pub fn is_readonly(&self, granter: DomId, gref: GrantRef) -> Option<bool> {
        self.grants.get(&(granter, gref)).map(|g| g.readonly)
    }

    /// Force-drops every grant of a dying domain (both directions).
    pub fn drop_domain(&mut self, dom: DomId) {
        self.grants
            .retain(|(granter, _), g| *granter != dom && g.grantee != dom);
    }

    /// Number of live grants.
    pub fn len(&self) -> usize {
        self.grants.len()
    }

    /// True if no grants exist.
    pub fn is_empty(&self) -> bool {
        self.grants.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_map_unmap_end() {
        let mut t = GrantTable::new();
        let gref = t.grant_access(DomId(5), DomId(0), 0x1000, false);
        assert_eq!(t.map(DomId(0), DomId(5), gref).unwrap(), 0x1000);
        assert_eq!(
            t.end_access(DomId(5), gref).unwrap_err(),
            GrantError::StillInUse
        );
        t.unmap(DomId(0), DomId(5), gref).unwrap();
        t.end_access(DomId(5), gref).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn wrong_grantee_cannot_map() {
        let mut t = GrantTable::new();
        let gref = t.grant_access(DomId(5), DomId(0), 1, true);
        assert_eq!(
            t.map(DomId(7), DomId(5), gref).unwrap_err(),
            GrantError::NotPermitted
        );
    }

    #[test]
    fn double_map_rejected() {
        let mut t = GrantTable::new();
        let gref = t.grant_access(DomId(5), DomId(0), 1, true);
        t.map(DomId(0), DomId(5), gref).unwrap();
        assert_eq!(
            t.map(DomId(0), DomId(5), gref).unwrap_err(),
            GrantError::AlreadyMapped
        );
    }

    #[test]
    fn readonly_flag_visible() {
        let mut t = GrantTable::new();
        let ro = t.grant_access(DomId(1), DomId(0), 1, true);
        let rw = t.grant_access(DomId(1), DomId(0), 2, false);
        assert_eq!(t.is_readonly(DomId(1), ro), Some(true));
        assert_eq!(t.is_readonly(DomId(1), rw), Some(false));
    }

    #[test]
    fn drop_domain_clears_both_directions() {
        let mut t = GrantTable::new();
        t.grant_access(DomId(5), DomId(0), 1, false); // granted by 5
        t.grant_access(DomId(0), DomId(5), 2, false); // granted to 5
        t.grant_access(DomId(0), DomId(6), 3, false); // unrelated
        t.drop_domain(DomId(5));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn refs_are_per_granter() {
        let mut t = GrantTable::new();
        let a = t.grant_access(DomId(1), DomId(0), 1, false);
        let b = t.grant_access(DomId(2), DomId(0), 1, false);
        assert_eq!(a, b, "each granter has its own ref space");
    }
}
