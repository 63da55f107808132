//! Transactions with optimistic concurrency (oxenstored-style).
//!
//! A transaction conceptually snapshots the store at start (oxenstored
//! copies the tree — a cost that grows with store size and is charged by
//! the daemon), executes reads and writes against that snapshot, and on
//! commit validates that no node it touched changed in the main store in
//! the meantime. A failed validation returns [`XsError::Again`] and the
//! client retries the whole transaction, exactly as libxl does.
//!
//! Implementation note: rather than physically cloning the tree (which
//! would make large-density simulations quadratic), the transaction
//! keeps a write *overlay* over the live store plus the generation of
//! every touched node. Because conflict detection already invalidates
//! any interleaved change to touched nodes, overlay reads are
//! indistinguishable from snapshot reads for committed transactions.
//! The daemon still charges the snapshot cost via
//! [`Txn::snapshot_nodes`].
//!
//! Overlay and touched sets are keyed by interned path symbols
//! ([`XsSym`]): each operation takes a path or a symbol ([`XsKey`]) and
//! interns it once at entry — even a read, since the transaction must
//! touch the node for conflict detection — after which every probe,
//! ancestor walk and write-log entry is integer-keyed: no path clones,
//! no string comparisons.

use std::sync::Arc;

use simcore::IdMap;

use crate::store::{Perms, Store, XsError};
use crate::sym::{XsKey, XsSym};

/// Transaction identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TxnId(pub u64);

#[derive(Clone, Debug)]
enum WriteOp {
    /// The payload `Arc` is shared with the overlay entry (and, after
    /// commit, with the store node) — one allocation per written value.
    Write(XsSym, Arc<[u8]>),
    Rm(XsSym),
    SetPerms(XsSym, Perms),
}

#[derive(Clone, Debug, PartialEq)]
enum Overlay {
    /// Value written in this transaction over a visible path: the main
    /// store's children below it remain visible.
    Value(Arc<[u8]>),
    /// Value written over a path that this transaction had removed (or
    /// that lies under a removed ancestor): it exists, but the main
    /// store's children below it stay hidden — they were deleted.
    Recreated(Arc<[u8]>),
    /// Subtree removed in this transaction.
    Removed,
}

impl Overlay {
    /// Whether this entry hides the main store's content below it.
    fn hides_main(&self) -> bool {
        matches!(self, Overlay::Removed | Overlay::Recreated(_))
    }
}

/// An in-flight transaction.
#[derive(Clone, Debug)]
pub struct Txn {
    /// Id handed to the client.
    pub id: TxnId,
    /// Owning connection (domain id).
    pub conn: u32,
    overlay: IdMap<XsSym, Overlay>,
    /// Overlay entries that are `Removed` or `Recreated`. While it is 0
    /// no overlay entry hides main-store content, so existence and cut
    /// tests need no ancestor walk (xl's create transactions only write).
    cuts: usize,
    /// Main-store generation of each touched node at first touch
    /// (`None` = the node did not exist then).
    touched: IdMap<XsSym, Option<u64>>,
    write_log: Vec<WriteOp>,
    /// Reusable symbol buffer for [`Txn::write`] parent chains and
    /// [`Txn::rm`] overlay sweeps; capacity survives [`Txn::reset`].
    scratch: Vec<XsSym>,
    /// Number of nodes the oxenstored snapshot would copy (cost model).
    pub snapshot_nodes: usize,
}

impl Txn {
    /// Starts a transaction against the current store state.
    pub fn start(id: TxnId, conn: u32, store: &Store) -> Txn {
        Txn {
            id,
            conn,
            overlay: IdMap::default(),
            cuts: 0,
            touched: IdMap::default(),
            write_log: Vec::new(),
            scratch: Vec::new(),
            snapshot_nodes: store.node_count(),
        }
    }

    /// Re-arms a recycled transaction (the daemon pools `Txn` values so
    /// steady-state `txn_start` reuses the overlay/touched/log capacity
    /// instead of allocating fresh maps).
    pub fn reset(&mut self, id: TxnId, conn: u32, store: &Store) {
        self.id = id;
        self.conn = conn;
        self.overlay.clear();
        self.cuts = 0;
        self.touched.clear();
        self.write_log.clear();
        self.snapshot_nodes = store.node_count();
    }

    /// Number of nodes touched so far (validation cost on commit).
    pub fn touched_nodes(&self) -> usize {
        self.touched.len()
    }

    /// Number of buffered write operations.
    pub fn write_ops(&self) -> usize {
        self.write_log.len()
    }

    /// Iterates over the symbols this transaction has touched (in no
    /// particular order — callers needing determinism must sort).
    pub(crate) fn touched_syms(&self) -> impl Iterator<Item = XsSym> + '_ {
        self.touched.keys().copied()
    }

    /// Sets `sym`'s overlay entry, keeping `cuts` exact.
    fn put(&mut self, sym: XsSym, entry: Overlay) {
        self.cuts += usize::from(entry.hides_main());
        if let Some(old) = self.overlay.insert(sym, entry) {
            self.cuts -= usize::from(old.hides_main());
        }
    }

    /// Drops `sym`'s overlay entry, keeping `cuts` exact.
    fn unput(&mut self, sym: XsSym) {
        if let Some(old) = self.overlay.remove(&sym) {
            self.cuts -= usize::from(old.hides_main());
        }
    }

    fn touch(&mut self, main: &Store, sym: XsSym) {
        self.touched
            .entry(sym)
            .or_insert_with(|| main.node_generation(sym));
    }

    /// Whether `sym` exists from the transaction's point of view.
    ///
    /// The *nearest* ancestor-or-self overlay entry decides: an exact
    /// entry answers directly; a `Removed` or `Recreated` ancestor hides
    /// whatever the main store has below it (the subtree was deleted); a
    /// plain `Value` ancestor or no entry at all defers to the main
    /// store.
    fn exists_view(&self, main: &Store, sym: XsSym) -> bool {
        if self.cuts == 0 {
            let fast = self.overlay.contains_key(&sym) || main.exists(sym);
            debug_assert_eq!(fast, self.exists_walk(main, sym));
            return fast;
        }
        self.exists_walk(main, sym)
    }

    /// [`Txn::exists_view`] by walking the ancestors.
    fn exists_walk(&self, main: &Store, sym: XsSym) -> bool {
        let mut cur = sym;
        let mut dist = 0usize;
        loop {
            if let Some(e) = self.overlay.get(&cur) {
                return match (e, dist) {
                    (Overlay::Value(_) | Overlay::Recreated(_), 0) => true,
                    (Overlay::Removed, _) => false,
                    (Overlay::Recreated(_), _) => false, // hidden main child
                    (Overlay::Value(_), _) => main.exists(sym),
                };
            }
            if cur == XsSym::ROOT {
                break;
            }
            cur = main.parent_sym(cur);
            dist += 1;
        }
        main.exists(sym)
    }

    /// Whether main-store content below `sym` is hidden by a removal in
    /// this transaction (the "cut" test for write markers).
    fn is_cut(&self, main: &Store, sym: XsSym) -> bool {
        if self.cuts == 0 {
            debug_assert!(!self.cut_walk(main, sym));
            return false;
        }
        self.cut_walk(main, sym)
    }

    /// [`Txn::is_cut`] by walking the ancestors.
    fn cut_walk(&self, main: &Store, sym: XsSym) -> bool {
        let mut cur = sym;
        loop {
            if let Some(e) = self.overlay.get(&cur) {
                return e.hides_main();
            }
            if cur == XsSym::ROOT {
                return false;
            }
            cur = main.parent_sym(cur);
        }
    }

    /// Transactional read: sees the transaction's own writes. Returns a
    /// shared payload — a refcount bump, never a byte copy.
    pub fn read(&mut self, main: &Store, key: impl XsKey) -> Result<Arc<[u8]>, XsError> {
        let sym = main.sym(key);
        self.touch(main, sym);
        match self.overlay.get(&sym) {
            Some(Overlay::Value(v) | Overlay::Recreated(v)) => Ok(Arc::clone(v)),
            Some(Overlay::Removed) => Err(XsError::NotFound),
            None => {
                if self.exists_view(main, sym) {
                    main.read_rc(self.conn, sym)
                } else {
                    Err(XsError::NotFound)
                }
            }
        }
    }

    /// Transactional existence check.
    pub fn exists(&mut self, main: &Store, key: impl XsKey) -> bool {
        let sym = main.sym(key);
        self.touch(main, sym);
        self.exists_view(main, sym)
    }

    /// Transactional directory listing: main-store children (unless
    /// hidden by a removal) merged with children created in the overlay.
    pub fn directory(&mut self, main: &Store, key: impl XsKey) -> Result<Vec<String>, XsError> {
        let sym = main.sym(key);
        self.touch(main, sym);
        if !self.exists_view(main, sym) {
            return Err(XsError::NotFound);
        }
        let mut names: Vec<String> = match main.directory(self.conn, sym) {
            Ok(v) => v,
            Err(XsError::NotFound) => Vec::new(),
            Err(e) => return Err(e),
        };
        // Add children created in this txn. Overlay iteration order is
        // arbitrary (HashMap), which is fine: membership and the final
        // sort are order-independent.
        for (&s, o) in &self.overlay {
            if matches!(o, Overlay::Value(_) | Overlay::Recreated(_))
                && s != XsSym::ROOT
                && main.parent_sym(s) == sym
            {
                let name = main.path_of(s).last_component().expect("non-root").to_string();
                if !names.contains(&name) {
                    names.push(name);
                }
            }
        }
        // Keep only children visible through the overlay.
        names.retain(|n| match main.resolve_child(sym, n) {
            Some(child) => self.exists_view(main, child),
            None => false,
        });
        names.sort();
        Ok(names)
    }

    /// Transactional write (buffered until commit). The payload is
    /// allocated once and shared between the overlay, the write log and
    /// (after commit) the store node.
    pub fn write(&mut self, main: &Store, key: impl XsKey, value: &[u8]) -> Result<(), XsError> {
        let sym = main.sym(key);
        if sym == XsSym::ROOT {
            return Err(XsError::Invalid);
        }
        self.touch(main, sym);
        // Parents that do not exist in the txn's view get implicit
        // entries (top-down, so cut detection sees fresh markers).
        let mut chain = std::mem::take(&mut self.scratch);
        chain.clear();
        let mut p = main.parent_sym(sym);
        while p != XsSym::ROOT && !self.exists_view(main, p) {
            chain.push(p);
            p = main.parent_sym(p);
        }
        for &q in chain.iter().rev() {
            let marker = if self.is_cut(main, q) {
                Overlay::Recreated(main.empty_rc())
            } else {
                Overlay::Value(main.empty_rc())
            };
            self.put(q, marker);
        }
        self.scratch = chain;
        let rc = main.rc_value(value);
        let marker = if self.is_cut(main, sym) {
            Overlay::Recreated(Arc::clone(&rc))
        } else {
            Overlay::Value(Arc::clone(&rc))
        };
        self.put(sym, marker);
        self.write_log.push(WriteOp::Write(sym, rc));
        Ok(())
    }

    /// Transactional mkdir.
    pub fn mkdir(&mut self, main: &Store, key: impl XsKey) -> Result<(), XsError> {
        let sym = main.sym(key);
        if self.exists(main, sym) {
            return Err(XsError::AlreadyExists);
        }
        self.write(main, sym, b"")
    }

    /// Transactional remove.
    pub fn rm(&mut self, main: &Store, key: impl XsKey) -> Result<(), XsError> {
        let sym = main.sym(key);
        if sym == XsSym::ROOT {
            return Err(XsError::Invalid);
        }
        if !self.exists(main, sym) {
            return Err(XsError::NotFound);
        }
        // Drop any overlay entries underneath.
        let mut doomed = std::mem::take(&mut self.scratch);
        doomed.clear();
        doomed.extend(
            self.overlay
                .keys()
                .filter(|&&s| main.sym_is_self_or_descendant(s, sym))
                .copied(),
        );
        for &s in &doomed {
            self.unput(s);
        }
        self.scratch = doomed;
        self.put(sym, Overlay::Removed);
        self.write_log.push(WriteOp::Rm(sym));
        Ok(())
    }

    /// Transactional permission change.
    pub fn set_perms(
        &mut self,
        main: &Store,
        key: impl XsKey,
        perms: Perms,
    ) -> Result<(), XsError> {
        let sym = main
            .find(key)
            .filter(|&sym| self.exists(main, sym))
            .ok_or(XsError::NotFound)?;
        self.write_log.push(WriteOp::SetPerms(sym, perms));
        Ok(())
    }

    /// Validates against the main store and, if clean, replays the write
    /// log onto it. The written symbols (for watch firing) are appended
    /// to `fired`, which is cleared first — callers pass a reusable
    /// scratch buffer.
    ///
    /// On conflict the caller receives [`XsError::Again`]; clients
    /// restart the transaction from scratch. A log the store refuses
    /// (permissions, quota) is refused whole: nothing of it is applied.
    /// Either way the transaction is finished and may be recycled via
    /// [`Txn::reset`].
    pub fn commit(&mut self, main: &mut Store, fired: &mut Vec<XsSym>) -> Result<(), XsError> {
        fired.clear();
        for (&sym, gen0) in &self.touched {
            if main.node_generation(sym) != *gen0 {
                return Err(XsError::Again);
            }
        }
        // Dom0 may write anything and has no quota: its logs cannot be
        // refused, so only a guest's log is checked before it applies.
        if self.conn != 0 {
            self.admit_log(main)?;
        }
        self.replay(main, fired)
    }

    /// Applies the write log to `main` op by op, appending the written
    /// symbols to `fired`; stops at the first op the store refuses.
    fn replay(&mut self, main: &mut Store, fired: &mut Vec<XsSym>) -> Result<(), XsError> {
        let log = std::mem::take(&mut self.write_log);
        let mut result = Ok(());
        for op in &log {
            match op {
                WriteOp::Write(s, v) => {
                    if let Err(e) = main.write_rc_sym(self.conn, *s, v) {
                        result = Err(e);
                        break;
                    }
                    fired.push(*s);
                }
                WriteOp::Rm(s) => {
                    // The subtree may already be gone if an earlier Rm in
                    // this same log removed an ancestor.
                    match main.rm(self.conn, *s) {
                        Ok(()) | Err(XsError::NotFound) => fired.push(*s),
                        Err(e) => {
                            result = Err(e);
                            break;
                        }
                    }
                }
                WriteOp::SetPerms(s, perms) => {
                    if let Err(e) = main.set_perms(self.conn, *s, *perms) {
                        result = Err(e);
                        break;
                    }
                }
            }
        }
        // Hand the log's capacity back for reuse by the next occupant.
        self.write_log = log;
        result
    }

    /// Checks the whole write log against `main` before any of it
    /// applies, by the rules the replay would meet op by op: a write
    /// needs write access to its node or, when it creates nodes, to
    /// the nearest existing ancestor (as [`Store::admit`]) and quota
    /// room for every node it creates; a remove needs write access to
    /// its target; a permission change needs ownership and keeps the
    /// owner. Nodes the log creates are the caller's, nodes it removes
    /// are gone for the ops after, and removed nodes credit the caller's
    /// quota.
    fn admit_log(&self, main: &Store) -> Result<(), XsError> {
        let mut shadow = Shadow {
            main,
            conn: self.conn,
            view: IdMap::default(),
            owned: main.owned_by(self.conn),
        };
        for op in &self.write_log {
            match *op {
                WriteOp::Write(sym, _) => shadow.write(sym)?,
                WriteOp::Rm(sym) => shadow.rm(sym)?,
                WriteOp::SetPerms(sym, perms) => shadow.set_perms(sym, perms)?,
            }
        }
        Ok(())
    }
}

/// A node as the write log leaves it while [`Txn::admit_log`] walks the
/// log: live with these permissions, or removed with its subtree.
#[derive(Clone, Copy)]
enum Shade {
    /// `cut`: the node was re-created under a removal, so the main
    /// store's nodes below it stay hidden.
    Live { perms: Perms, cut: bool },
    Gone,
}

/// The main store seen through the ops of a write log checked so far.
struct Shadow<'a> {
    main: &'a Store,
    conn: u32,
    /// Nodes the log created, re-permissioned or removed.
    view: IdMap<XsSym, Shade>,
    /// Nodes `conn` owns after the ops so far.
    owned: usize,
}

impl Shadow<'_> {
    /// `sym`'s permissions if it exists after the ops so far. The
    /// nearest ancestor-or-self entry decides, as in [`Txn::exists_view`].
    fn perms(&self, sym: XsSym) -> Option<Perms> {
        let mut cur = sym;
        loop {
            match self.view.get(&cur) {
                Some(&Shade::Live { perms, .. }) if cur == sym => return Some(perms),
                Some(Shade::Gone | Shade::Live { cut: true, .. }) => return None,
                Some(Shade::Live { cut: false, .. }) => break,
                None if cur == XsSym::ROOT => break,
                None => cur = self.main.parent_sym(cur),
            }
        }
        self.main.perms(sym)
    }

    /// Whether a node created at `sym` would hide the main store's
    /// nodes below it.
    fn is_cut(&self, sym: XsSym) -> bool {
        let mut cur = sym;
        loop {
            match self.view.get(&cur) {
                Some(Shade::Gone) => return true,
                Some(&Shade::Live { cut, .. }) => return cut,
                None if cur == XsSym::ROOT => return false,
                None => cur = self.main.parent_sym(cur),
            }
        }
    }

    fn write(&mut self, sym: XsSym) -> Result<(), XsError> {
        if let Some(perms) = self.perms(sym) {
            return if perms.may_write(self.conn) {
                Ok(())
            } else {
                Err(XsError::PermissionDenied)
            };
        }
        let mut chain = vec![sym];
        let mut parent = self.main.parent_sym(sym);
        let parent_perms = loop {
            match self.perms(parent) {
                Some(perms) => break perms,
                None => {
                    chain.push(parent);
                    parent = self.main.parent_sym(parent);
                }
            }
        };
        let room = self.main.quota_of(self.conn).map(|q| q.saturating_sub(self.owned));
        if room.is_some_and(|room| chain.len() > room) {
            return Err(XsError::QuotaExceeded);
        }
        if !parent_perms.may_write(self.conn) {
            return Err(XsError::PermissionDenied);
        }
        let perms = Perms {
            owner: self.conn,
            others_read: parent_perms.others_read,
            others_write: false,
        };
        for &s in chain.iter().rev() {
            let cut = self.is_cut(s);
            self.view.insert(s, Shade::Live { perms, cut });
        }
        self.owned += chain.len();
        Ok(())
    }

    fn rm(&mut self, sym: XsSym) -> Result<(), XsError> {
        // The replay tolerates a target an earlier op already removed.
        let Some(perms) = self.perms(sym) else { return Ok(()) };
        if !perms.may_write(self.conn) {
            return Err(XsError::PermissionDenied);
        }
        let main = self.main;
        if main.quota_of(self.conn).is_some() {
            let mut below: Vec<XsSym> = Vec::new();
            if main.exists(sym) {
                main.for_each_in_subtree(sym, |s| below.push(s));
            }
            below.extend(self.view.keys().filter(|&&s| main.sym_is_self_or_descendant(s, sym)));
            below.sort_unstable();
            below.dedup();
            let mine = below
                .iter()
                .filter(|&&s| self.perms(s).is_some_and(|p| p.owner == self.conn))
                .count();
            self.owned = self.owned.saturating_sub(mine);
        }
        self.view.retain(|&s, _| !main.sym_is_self_or_descendant(s, sym));
        self.view.insert(sym, Shade::Gone);
        Ok(())
    }

    fn set_perms(&mut self, sym: XsSym, perms: Perms) -> Result<(), XsError> {
        let old = self.perms(sym).ok_or(XsError::NotFound)?;
        if old.owner != self.conn || perms.owner != self.conn {
            return Err(XsError::PermissionDenied);
        }
        let cut = matches!(self.view.get(&sym), Some(Shade::Live { cut: true, .. }));
        self.view.insert(sym, Shade::Live { perms, cut });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::XsPath;

    fn p(s: &str) -> XsPath {
        XsPath::parse(s).unwrap()
    }

    /// Commits and maps the fired symbols back to paths (test helper for
    /// the scratch-buffer commit API).
    fn commit(t: &mut Txn, store: &mut Store) -> Result<Vec<XsPath>, XsError> {
        let mut fired = Vec::new();
        t.commit(store, &mut fired)?;
        Ok(fired.iter().map(|&s| store.path_of(s)).collect())
    }

    #[test]
    fn txn_reads_see_own_writes_but_store_does_not() {
        let mut store = Store::new();
        let mut t = Txn::start(TxnId(1), 0, &store);
        t.write(&store, &p("/x"), b"1").unwrap();
        assert_eq!(&*t.read(&store, &p("/x")).unwrap(), b"1");
        assert!(!store.exists(&p("/x")));
        commit(&mut t, &mut store).unwrap();
        assert_eq!(store.read(0, &p("/x")).unwrap(), b"1");
    }

    #[test]
    fn outside_write_to_touched_node_conflicts() {
        let mut store = Store::new();
        store.write(0, &p("/x"), b"0").unwrap();
        let mut t = Txn::start(TxnId(1), 0, &store);
        let _ = t.read(&store, &p("/x")).unwrap();
        // Another client writes /x while the txn is open.
        store.write(0, &p("/x"), b"interfering").unwrap();
        assert_eq!(commit(&mut t, &mut store).unwrap_err(), XsError::Again);
        assert_eq!(store.read(0, &p("/x")).unwrap(), b"interfering");
    }

    #[test]
    fn outside_write_to_untouched_node_is_fine() {
        let mut store = Store::new();
        store.write(0, &p("/x"), b"0").unwrap();
        store.write(0, &p("/y"), b"0").unwrap();
        let mut t = Txn::start(TxnId(1), 0, &store);
        t.write(&store, &p("/x"), b"1").unwrap();
        store.write(0, &p("/y"), b"other").unwrap();
        commit(&mut t, &mut store).unwrap();
        assert_eq!(store.read(0, &p("/x")).unwrap(), b"1");
        assert_eq!(store.read(0, &p("/y")).unwrap(), b"other");
    }

    #[test]
    fn creation_race_conflicts() {
        let mut store = Store::new();
        let mut t = Txn::start(TxnId(1), 0, &store);
        // Txn observes /new as absent...
        assert!(!t.exists(&store, &p("/new")));
        // ...then someone else creates it.
        store.write(0, &p("/new"), b"raced").unwrap();
        t.write(&store, &p("/new"), b"mine").unwrap();
        assert_eq!(commit(&mut t, &mut store).unwrap_err(), XsError::Again);
    }

    #[test]
    fn dropped_txn_changes_nothing() {
        let store = Store::new();
        {
            let mut t = Txn::start(TxnId(1), 0, &store);
            t.write(&store, &p("/gone"), b"x").unwrap();
            // Dropped without commit (abort).
        }
        assert!(!store.exists(&p("/gone")));
    }

    #[test]
    fn rm_in_txn_applies_on_commit() {
        let mut store = Store::new();
        store.write(0, &p("/a/b"), b"x").unwrap();
        let mut t = Txn::start(TxnId(1), 0, &store);
        t.rm(&store, &p("/a/b")).unwrap();
        assert!(!t.exists(&store, &p("/a/b")));
        assert!(store.exists(&p("/a/b")));
        commit(&mut t, &mut store).unwrap();
        assert!(!store.exists(&p("/a/b")));
    }

    #[test]
    fn rm_hides_descendants_within_txn() {
        let mut store = Store::new();
        store.write(0, &p("/a/b/c"), b"x").unwrap();
        let mut t = Txn::start(TxnId(1), 0, &store);
        t.rm(&store, &p("/a")).unwrap();
        assert!(!t.exists(&store, &p("/a/b/c")));
        assert_eq!(t.read(&store, &p("/a/b/c")).unwrap_err(), XsError::NotFound);
    }

    #[test]
    fn directory_merges_overlay_and_main() {
        let mut store = Store::new();
        store.write(0, &p("/d/from-main"), b"").unwrap();
        store.write(0, &p("/d/doomed"), b"").unwrap();
        let mut t = Txn::start(TxnId(1), 0, &store);
        t.write(&store, &p("/d/from-txn"), b"").unwrap();
        t.rm(&store, &p("/d/doomed")).unwrap();
        let names = t.directory(&store, &p("/d")).unwrap();
        assert_eq!(names, vec!["from-main", "from-txn"]);
    }

    #[test]
    fn commit_reports_written_paths_for_watches() {
        let mut store = Store::new();
        let mut t = Txn::start(TxnId(1), 0, &store);
        t.write(&store, &p("/a"), b"1").unwrap();
        t.write(&store, &p("/b"), b"2").unwrap();
        let fired = commit(&mut t, &mut store).unwrap();
        assert_eq!(fired, vec![p("/a"), p("/b")]);
    }

    #[test]
    fn reset_recycles_a_finished_txn() {
        let mut store = Store::new();
        store.write(0, &p("/x"), b"0").unwrap();
        let mut t = Txn::start(TxnId(1), 0, &store);
        t.write(&store, &p("/x"), b"1").unwrap();
        commit(&mut t, &mut store).unwrap();
        // Recycle: previous overlay/touched/log state must not leak.
        t.reset(TxnId(2), 0, &store);
        assert_eq!(t.id, TxnId(2));
        assert_eq!(t.touched_nodes(), 0);
        assert_eq!(t.write_ops(), 0);
        assert_eq!(&*t.read(&store, &p("/x")).unwrap(), b"1");
        t.write(&store, &p("/y"), b"2").unwrap();
        let fired = commit(&mut t, &mut store).unwrap();
        assert_eq!(fired, vec![p("/y")]);
    }

    #[test]
    fn snapshot_node_count_tracks_store_size() {
        let mut store = Store::new();
        for i in 0..10 {
            store.write(0, &p(&format!("/n{i}")), b"").unwrap();
        }
        let t = Txn::start(TxnId(1), 0, &store);
        assert_eq!(t.snapshot_nodes, 11);
    }

    #[test]
    fn mkdir_of_existing_is_eexist() {
        let mut store = Store::new();
        store.write(0, &p("/a"), b"").unwrap();
        let mut t = Txn::start(TxnId(1), 0, &store);
        assert_eq!(t.mkdir(&store, &p("/a")).unwrap_err(), XsError::AlreadyExists);
        t.mkdir(&store, &p("/b")).unwrap();
        assert_eq!(t.mkdir(&store, &p("/b")).unwrap_err(), XsError::AlreadyExists);
    }

    #[test]
    fn cut_count_stays_exact() {
        let paths = ["/a", "/a/b", "/a/b/c", "/a/d", "/e"];
        let mut rng = simcore::SimRng::new(0xC075);
        let mut store = Store::new();
        store.write(0, &p("/a/b/c"), b"x").unwrap();
        let mut t = Txn::start(TxnId(1), 0, &store);
        for step in 0..2000 {
            let path = p(paths[rng.index(paths.len())]);
            match rng.index(4) {
                0 => {
                    let _ = t.rm(&store, &path);
                }
                1 => t.write(&store, &path, b"v").unwrap(),
                2 => {
                    let _ = t.exists(&store, &path);
                }
                _ if step % 50 == 0 => t.reset(TxnId(step), 0, &store),
                _ => {
                    let _ = t.read(&store, &path);
                }
            }
            let recount = t.overlay.values().filter(|o| o.hides_main()).count();
            assert_eq!(t.cuts, recount, "step {step}");
        }
    }

    #[test]
    fn refused_guest_log_applies_nothing() {
        let mut store = Store::new();
        store.write(0, &p("/own"), b"").unwrap();
        store.set_perms(0, &p("/own"), Perms::private(5)).unwrap();
        store.write(0, &p("/dom0"), b"").unwrap();
        let mut t = Txn::start(TxnId(1), 5, &store);
        t.write(&store, &p("/own/a"), b"1").unwrap();
        t.write(&store, &p("/dom0/b"), b"2").unwrap();
        let before = store.generation();
        assert_eq!(commit(&mut t, &mut store).unwrap_err(), XsError::PermissionDenied);
        assert!(!store.exists(&p("/own/a")), "the permitted op must not apply alone");
        assert_eq!(store.generation(), before);
        assert_eq!(store.owned_by(5), 0);
    }

    /// The up-front check of a guest's log refuses exactly the logs the
    /// op-by-op replay refuses, with the same error: random logs over a
    /// small tree of mixed owners, under a tight quota.
    #[test]
    fn log_check_matches_op_by_op_replay() {
        let paths = ["/a", "/a/b", "/a/b/c", "/a/b/d", "/a/e", "/f", "/f/g"].map(p);
        let mut rng = simcore::SimRng::new(0xA11);
        let pick = |rng: &mut simcore::SimRng| paths[rng.index(paths.len())].clone();
        let (mut refused, mut applied) = (0, 0);
        for case in 0..20_000 {
            let mut store = Store::new();
            store.set_quota(Some(1 + rng.index(8)));
            if rng.chance(0.8) {
                store.set_perms(0, &XsPath::root(), Perms { others_write: true, ..Perms::dom0() }).unwrap();
            }
            for _ in 0..3 + rng.index(8) {
                let path = pick(&mut rng);
                let _ = store.write([0, 0, 5, 7][rng.index(4)], &path, b"v");
                if rng.chance(0.4) {
                    let perms = Perms {
                        owner: [0, 5, 5, 7][rng.index(4)],
                        others_read: true,
                        others_write: rng.chance(0.3),
                    };
                    let _ = store.set_perms(0, &path, perms);
                }
            }
            let mut t = Txn::start(TxnId(case), 5, &store);
            for _ in 0..1 + rng.index(6) {
                let path = pick(&mut rng);
                let _ = match rng.index(7) {
                    0 | 1 => t.rm(&store, &path),
                    2 => t.set_perms(&store, &path, Perms {
                        owner: [5, 7][rng.index(2)],
                        others_read: true,
                        others_write: rng.chance(0.5),
                    }),
                    _ => t.write(&store, &path, b"w"),
                };
            }
            let checked = t.admit_log(&store);
            let mut replayed = store.clone();
            let sequential = t.replay(&mut replayed, &mut Vec::new());
            assert_eq!(checked, sequential, "case {case}");
            if checked.is_ok() { applied += 1 } else { refused += 1 }
        }
        assert!(refused > 2000 && applied > 2000, "{refused} refused, {applied} applied");
    }

    #[test]
    fn implicit_parents_visible_within_txn() {
        let mut store = Store::new();
        let mut t = Txn::start(TxnId(1), 0, &store);
        t.write(&store, &p("/a/b/c"), b"v").unwrap();
        assert!(t.exists(&store, &p("/a")));
        assert!(t.exists(&store, &p("/a/b")));
        commit(&mut t, &mut store).unwrap();
        assert!(store.exists(&p("/a/b")));
    }
}
