//! Watches: subtree-change notifications.
//!
//! A client registers a watch on a path with a token; whenever that path
//! or anything below it is modified, the client receives an event carrying
//! the modified path and the token. xenstored checks *every* registered
//! watch against every write — a per-write cost that grows with the
//! number of devices and guests in the system.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use crate::path::XsPath;
use crate::store::Store;
use crate::sym::{XsKey, XsSym};

/// A delivered watch notification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WatchEvent {
    /// The path that changed (or the watch path itself for the initial
    /// registration event).
    pub path: XsPath,
    /// The token supplied at registration (shared, not copied, across
    /// the events of one watch).
    pub token: Arc<str>,
}

/// Watches registered on one symbol: `(connection, token)` pairs.
type WatchList = Vec<(u32, Arc<str>)>;

/// Slots per copy-on-write chunk; mirrors the store arena's chunking.
const CHUNK_BITS: usize = 6;
const CHUNK: usize = 1 << CHUNK_BITS;

/// The symbol-indexed watch lists, chunked and shared copy-on-write
/// across world forks (like the store's node arena): a dense
/// `Vec<Vec<..>>` costs a Vec header per interned symbol on every world
/// clone — at cluster scale that dominated fork memory — whereas chunks
/// clone by refcount and a registration localises only the 64-slot
/// chunk it lands in.
#[derive(Clone, Default, Debug)]
struct SymWatches {
    chunks: Vec<Arc<Vec<WatchList>>>,
}

impl SymWatches {
    #[inline]
    fn get(&self, idx: usize) -> Option<&WatchList> {
        self.chunks.get(idx >> CHUNK_BITS)?.get(idx & (CHUNK - 1))
    }

    /// The list for `idx`, for editing; grows by whole chunks and
    /// localises a shared chunk first. Callers that may not end up
    /// mutating should pre-check with [`SymWatches::get`] to avoid a
    /// pointless chunk copy.
    fn ensure_mut(&mut self, idx: usize) -> &mut WatchList {
        while self.chunks.len() <= idx >> CHUNK_BITS {
            let mut fresh = Vec::with_capacity(CHUNK);
            fresh.resize_with(CHUNK, Vec::new);
            self.chunks.push(Arc::new(fresh));
        }
        &mut Arc::make_mut(&mut self.chunks[idx >> CHUNK_BITS])[idx & (CHUNK - 1)]
    }

    /// Removes the entries at `idx` that `hit` matches, returning how
    /// many. A slot without a match is only read, so a fork-shared chunk
    /// is never copied for a no-op.
    fn remove_where(&mut self, idx: usize, hit: impl Fn(&(u32, Arc<str>)) -> bool) -> usize {
        if !self.get(idx).is_some_and(|list| list.iter().any(&hit)) {
            return 0;
        }
        let list = self.ensure_mut(idx);
        let before = list.len();
        list.retain(|e| !hit(e));
        before - list.len()
    }
}

/// One connection's watch state, as xenstored keeps it per connection
/// (`conn->watches` plus the event queue): teardown visits only the
/// symbols listed here, never the whole symbol-indexed table.
#[derive(Clone, Default, Debug)]
struct ConnWatches {
    /// Undelivered events, FIFO.
    queue: VecDeque<WatchEvent>,
    /// The symbol of every watch this connection holds, one entry per
    /// watch.
    watched: Vec<XsSym>,
}

/// The registry of watches plus per-connection records (pending event
/// queue and watched symbols).
///
/// Watches are keyed by the *store's* interned path symbols (no second
/// interner): a mutation arrives as a symbol and hops parent symbols
/// with plain array indexing — no hashing, no string traffic — and a
/// fired event costs two refcount bumps (path + token) instead of two
/// string clones. The *charged* cost still counts every registered
/// watch (what xenstored pays), reported via [`FireStats::checked`].
#[derive(Clone, Default, Debug)]
pub struct WatchTable {
    /// Watch lists, indexed by store symbol (CoW-chunked; most slots
    /// are empty ancestor entries).
    by_sym: SymWatches,
    count: usize,
    /// Every connection that ever registered a watch, until dropped.
    /// Records are shared copy-on-write across world forks (like the
    /// chunks): a fork clones each with a refcount bump, and only a
    /// connection that changes after the fork copies its own record.
    conns: BTreeMap<u32, Arc<ConnWatches>>,
}

/// Outcome of checking a mutation against the table (for cost charging).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FireStats {
    /// Watches examined (every registered watch).
    pub checked: usize,
    /// Events queued.
    pub fired: usize,
}

impl WatchTable {
    /// Creates an empty table.
    pub fn new() -> WatchTable {
        WatchTable::default()
    }

    /// Number of registered watches.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Registers a watch on an interned path. As in xenstored, an
    /// initial event for the watch path itself is queued immediately so
    /// the client can synchronise.
    pub fn register(&mut self, store: &Store, conn: u32, sym: XsSym, token: impl Into<Arc<str>>) {
        let token = token.into();
        let rec = Arc::make_mut(self.conns.entry(conn).or_default());
        rec.queue.push_back(WatchEvent {
            path: store.path_of(sym),
            token: token.clone(),
        });
        rec.watched.push(sym);
        self.by_sym.ensure_mut(sym.index()).push((conn, token));
        self.count += 1;
    }

    /// Unregisters a watch by (connection, path or symbol, token).
    /// Returns true if one was removed. A path that was never interned,
    /// or a key that was never watched (or whose watch was already
    /// removed), is a no-op returning false — the table is never
    /// corrupted by a double unregister.
    pub fn unregister(&mut self, store: &Store, conn: u32, key: impl XsKey, token: &str) -> bool {
        let Some(sym) = store.find(key) else {
            return false;
        };
        let removed = self
            .by_sym
            .remove_where(sym.index(), |(c, t)| *c == conn && &**t == token);
        if removed == 0 {
            return false;
        }
        self.count -= removed;
        if let Some(rec) = self.conns.get_mut(&conn) {
            let mut left = removed;
            Arc::make_mut(rec).watched.retain(|&s| {
                let hit = s == sym && left > 0;
                left -= hit as usize;
                !hit
            });
        }
        true
    }

    /// Iterates `(conn, queued events)` over every connection with a
    /// non-empty pending queue, in ascending connection order (the map
    /// is ordered — deterministic for digesting).
    pub fn pending_counts(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        self.conns
            .iter()
            .filter(|(_, rec)| !rec.queue.is_empty())
            .map(|(&conn, rec)| (conn, rec.queue.len()))
    }

    /// Drops all watches and pending events of a connection (domain
    /// death). Visits only the symbols the connection registered.
    pub fn drop_conn(&mut self, conn: u32) {
        let Some(rec) = self.conns.remove(&conn) else {
            return;
        };
        for sym in rec.watched.iter() {
            self.count -= self.by_sym.remove_where(sym.index(), |(c, _)| *c == conn);
        }
    }

    /// Records that the node at `sym` was mutated, queueing events for
    /// every watch on it or one of its ancestors.
    ///
    /// The walk is pure parent-symbol hopping (array indexing). The
    /// event path is materialised once per *fired* event as a refcount
    /// bump on the interner's `Arc`; a mutation that fires nothing
    /// allocates nothing.
    pub fn note_mutation_sym(&mut self, store: &Store, sym: XsSym) -> FireStats {
        if self.count == 0 {
            return FireStats { checked: 0, fired: 0 };
        }
        let mut fired = 0;
        let mut cur = sym;
        loop {
            if let Some(list) = self.by_sym.get(cur.index()) {
                if !list.is_empty() {
                    let path = store.path_of(sym);
                    for (conn, token) in list {
                        let rec = self.conns.get_mut(conn).expect("a watcher has a record");
                        Arc::make_mut(rec).queue.push_back(WatchEvent {
                            path: path.clone(),
                            token: token.clone(),
                        });
                        fired += 1;
                    }
                }
            }
            if cur == XsSym::ROOT {
                break;
            }
            cur = store.parent_sym(cur);
        }
        FireStats {
            checked: self.count,
            fired,
        }
    }

    /// Takes all pending events for a connection, in FIFO order.
    /// Allocates the returned `Vec`; the hot paths use
    /// [`WatchTable::take_events_into`] or [`WatchTable::drain_events`].
    pub fn take_events(&mut self, conn: u32) -> Vec<WatchEvent> {
        self.queue_mut(conn)
            .map(|q| q.drain(..).collect())
            .unwrap_or_default()
    }

    /// Moves all pending events for a connection into `out` (cleared
    /// first), in FIFO order. Reuses `out`'s capacity: zero allocations
    /// in steady state.
    pub fn take_events_into(&mut self, conn: u32, out: &mut Vec<WatchEvent>) {
        out.clear();
        if let Some(q) = self.queue_mut(conn) {
            out.extend(q.drain(..));
        }
    }

    /// Discards all pending events for a connection, returning how many
    /// there were. For callers that only need the count (and the charge).
    pub fn drain_events(&mut self, conn: u32) -> usize {
        self.queue_mut(conn).map_or(0, |q| {
            let n = q.len();
            q.clear();
            n
        })
    }

    /// A connection's non-empty event queue, for draining. An empty one
    /// reads as `None`, so a no-op drain never copies a fork-shared
    /// record.
    fn queue_mut(&mut self, conn: u32) -> Option<&mut VecDeque<WatchEvent>> {
        let rec = self.conns.get_mut(&conn).filter(|rec| !rec.queue.is_empty())?;
        Some(&mut Arc::make_mut(rec).queue)
    }

    /// Number of events pending for a connection.
    pub fn pending_count(&self, conn: u32) -> usize {
        self.conns.get(&conn).map_or(0, |rec| rec.queue.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> XsPath {
        XsPath::parse(s).unwrap()
    }

    /// A store plus helpers: watches register on interned symbols.
    fn store() -> Store {
        Store::new()
    }

    fn sym(s: &Store, path: &str) -> XsSym {
        s.sym(&p(path))
    }

    #[test]
    fn registration_fires_initial_event() {
        let s = store();
        let mut t = WatchTable::new();
        t.register(&s, 1, sym(&s, "/a"), "tok");
        assert_eq!(
            t.take_events(1),
            vec![WatchEvent {
                path: p("/a"),
                token: "tok".into()
            }]
        );
        assert!(t.take_events(1).is_empty());
    }

    #[test]
    fn mutation_fires_matching_watches_only() {
        let s = store();
        let mut t = WatchTable::new();
        t.register(&s, 1, sym(&s, "/a"), "a");
        t.register(&s, 2, sym(&s, "/b"), "b");
        t.take_events(1);
        t.take_events(2);
        let stats = t.note_mutation_sym(&s, sym(&s, "/a/x"));
        assert_eq!(stats.checked, 2);
        assert_eq!(stats.fired, 1);
        assert_eq!(t.pending_count(1), 1);
        assert_eq!(t.pending_count(2), 0);
        let ev = t.take_events(1);
        assert_eq!(ev[0].path, p("/a/x"));
        assert_eq!(&*ev[0].token, "a");
    }

    #[test]
    fn watch_on_exact_path_fires() {
        let s = store();
        let mut t = WatchTable::new();
        t.register(&s, 1, sym(&s, "/a/b"), "t");
        t.take_events(1);
        assert_eq!(t.note_mutation_sym(&s, sym(&s, "/a/b")).fired, 1);
        assert_eq!(t.note_mutation_sym(&s, sym(&s, "/a")).fired, 0);
    }

    #[test]
    fn unregister_removes_watch() {
        let s = store();
        let mut t = WatchTable::new();
        t.register(&s, 1, sym(&s, "/a"), "t");
        t.take_events(1);
        assert!(t.unregister(&s, 1, &p("/a"), "t"));
        assert!(!t.unregister(&s, 1, &p("/a"), "t"));
        assert_eq!(t.note_mutation_sym(&s, sym(&s, "/a/x")).fired, 0);
    }

    #[test]
    fn unregister_of_never_watched_path_is_false() {
        let s = store();
        let mut t = WatchTable::new();
        assert!(!t.unregister(&s, 1, &p("/never"), "t"));
    }

    #[test]
    fn unregister_by_symbol_is_noop_on_unknown_and_exact_on_known() {
        let s = store();
        let mut t = WatchTable::new();
        let a = sym(&s, "/a");
        // Never registered: clean no-op, count untouched.
        assert!(!t.unregister(&s, 1, a, "t"));
        assert_eq!(t.count(), 0);
        t.register(&s, 1, a, "t");
        t.register(&s, 2, a, "t");
        // Wrong token / wrong conn leave the other entries intact.
        assert!(!t.unregister(&s, 1, a, "other"));
        assert!(t.unregister(&s, 1, a, "t"));
        assert_eq!(t.count(), 1, "conn 2's watch survives");
        // Double unregister after the fact: no-op, no corruption.
        assert!(!t.unregister(&s, 1, a, "t"));
        assert_eq!(t.count(), 1);
        assert_eq!(t.note_mutation_sym(&s, sym(&s, "/a/x")).fired, 1);
    }

    #[test]
    fn drop_conn_clears_everything() {
        let s = store();
        let mut t = WatchTable::new();
        t.register(&s, 1, sym(&s, "/a"), "t");
        t.register(&s, 2, sym(&s, "/a"), "u");
        t.note_mutation_sym(&s, sym(&s, "/a"));
        t.drop_conn(1);
        assert_eq!(t.count(), 1);
        assert_eq!(t.pending_count(1), 0);
        assert!(t.pending_count(2) > 0);
    }

    #[test]
    fn watched_list_tracks_each_registration() {
        let s = store();
        let mut t = WatchTable::new();
        let a = sym(&s, "/a");
        let b = sym(&s, "/b");
        t.register(&s, 1, a, "x");
        t.register(&s, 1, a, "y");
        t.register(&s, 1, b, "x");
        assert_eq!(t.conns[&1].watched, [a, a, b]);
        assert!(t.unregister(&s, 1, a, "x"));
        assert_eq!(t.conns[&1].watched, [a, b]);
        // A duplicate (conn, sym, token) unregisters as one: both copies go.
        t.register(&s, 1, b, "x");
        assert!(t.unregister(&s, 1, b, "x"));
        assert_eq!(t.conns[&1].watched, [a]);
        assert_eq!(t.count(), 1);
    }

    #[test]
    fn drop_conn_copies_only_its_own_chunks() {
        let s = store();
        let a = sym(&s, "/a");
        for i in 0..2 * CHUNK {
            sym(&s, &format!("/pad/{i}"));
        }
        let b = sym(&s, "/b");
        assert_ne!(a.index() >> CHUNK_BITS, b.index() >> CHUNK_BITS);
        let mut t = WatchTable::new();
        t.register(&s, 1, a, "t");
        t.register(&s, 2, b, "t");
        let mut fork = t.clone();
        fork.drop_conn(1);
        fork.drop_conn(3);
        for (i, (x, y)) in t.by_sym.chunks.iter().zip(&fork.by_sym.chunks).enumerate() {
            assert_eq!(Arc::ptr_eq(x, y), i != a.index() >> CHUNK_BITS, "chunk {i}");
        }
        assert_eq!((t.count(), fork.count()), (2, 1));
        assert_eq!(fork.note_mutation_sym(&s, a).fired, 0);
        assert_eq!(t.note_mutation_sym(&s, a).fired, 1);
    }

    #[test]
    fn fork_copies_only_the_records_it_changes() {
        let s = store();
        let mut t = WatchTable::new();
        t.register(&s, 1, sym(&s, "/a"), "t");
        t.register(&s, 2, sym(&s, "/b"), "t");
        t.drain_events(1);
        t.drain_events(2);
        let mut fork = t.clone();
        fork.note_mutation_sym(&s, sym(&s, "/a/x"));
        assert_eq!(fork.drain_events(2), 0);
        assert!(!Arc::ptr_eq(&t.conns[&1], &fork.conns[&1]));
        assert!(Arc::ptr_eq(&t.conns[&2], &fork.conns[&2]));
        assert_eq!((t.pending_count(1), fork.pending_count(1)), (0, 1));
    }

    #[test]
    fn multiple_watches_same_conn_all_fire() {
        let s = store();
        let mut t = WatchTable::new();
        t.register(&s, 1, sym(&s, "/a"), "t1");
        t.register(&s, 1, sym(&s, "/a/b"), "t2");
        t.take_events(1);
        let stats = t.note_mutation_sym(&s, sym(&s, "/a/b/c"));
        assert_eq!(stats.fired, 2);
        let evs = t.take_events(1);
        assert_eq!(evs.len(), 2);
        // Deepest watch first (the symbol walk goes child -> root).
        assert_eq!(&*evs[0].token, "t2");
        assert_eq!(&*evs[1].token, "t1");
    }

    #[test]
    fn take_events_into_reuses_buffer_without_loss_or_dup() {
        let s = store();
        let mut t = WatchTable::new();
        t.register(&s, 1, sym(&s, "/a"), "t");
        let mut buf = Vec::new();
        t.take_events_into(1, &mut buf);
        assert_eq!(buf.len(), 1, "initial sync event");
        t.note_mutation_sym(&s, sym(&s, "/a/x"));
        t.note_mutation_sym(&s, sym(&s, "/a/y"));
        t.take_events_into(1, &mut buf);
        assert_eq!(buf.len(), 2, "old contents cleared, new delivered once");
        assert_eq!(buf[0].path, p("/a/x"));
        assert_eq!(buf[1].path, p("/a/y"));
        t.take_events_into(1, &mut buf);
        assert!(buf.is_empty(), "nothing pending, nothing re-delivered");
    }

    #[test]
    fn drain_events_counts_and_clears() {
        let s = store();
        let mut t = WatchTable::new();
        t.register(&s, 1, sym(&s, "/a"), "t");
        assert_eq!(t.drain_events(1), 1);
        assert_eq!(t.drain_events(1), 0);
        assert_eq!(t.drain_events(99), 0);
    }
}
