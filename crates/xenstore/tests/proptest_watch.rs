//! Property tests of the watch table against a naive reference model: a
//! flat list of every registered watch plus one FIFO queue per
//! connection. Random sequences of register, unregister, connection
//! drops, mutations and drains run over several connections and nested
//! per-domain paths, with a world fork in mid-sequence after which both
//! sides keep going on their own.
//!
//! Randomness comes from the workspace's seeded `SimRng` (the build is
//! offline, so no proptest), with a fixed seed per test: failures
//! reproduce exactly.

use std::collections::BTreeMap;

use simcore::SimRng;
use xenstore::{FireStats, Store, WatchEvent, WatchTable, XsPath};

/// Connections 0..CONNS; domain `d` talks over connection `d`.
const CONNS: u32 = 5;

/// Nested paths under a few domains' trees, so watches and mutations
/// overlap at every depth and cross domain boundaries.
fn random_path(rng: &mut SimRng) -> String {
    let d = rng.index(CONNS as usize);
    let v = rng.index(2);
    match rng.index(8) {
        0 => "/".to_string(),
        1 => "/local".to_string(),
        2 => format!("/local/domain/{d}"),
        3 => format!("/local/domain/{d}/device/vif/{v}"),
        4 => format!("/local/domain/{d}/device/vif/{v}/state"),
        5 => format!("/local/domain/0/backend/vif/{d}/{v}"),
        6 => format!("/local/domain/0/backend/vif/{d}/{v}/state"),
        _ => format!("/vm/{d}"),
    }
}

fn xp(s: &str) -> XsPath {
    XsPath::parse(s).unwrap()
}

fn parent(path: &str) -> &str {
    match path.rfind('/') {
        Some(0) => "/",
        Some(i) => &path[..i],
        None => unreachable!("absolute path"),
    }
}

/// An event as `(path, token)` strings.
type Ev = (String, String);

fn evs(events: &[WatchEvent]) -> Vec<Ev> {
    events
        .iter()
        .map(|e| (e.path.as_str().to_string(), e.token.to_string()))
        .collect()
}

/// The reference: watches in registration order, one queue per
/// connection that ever registered (until dropped).
#[derive(Clone, Default, Debug)]
struct Model {
    watches: Vec<(u32, String, String)>,
    queues: BTreeMap<u32, Vec<Ev>>,
}

impl Model {
    fn register(&mut self, conn: u32, path: &str, token: &str) {
        self.watches.push((conn, path.into(), token.into()));
        let queue = self.queues.entry(conn).or_default();
        queue.push((path.into(), token.into()));
    }

    fn unregister(&mut self, conn: u32, path: &str, token: &str) -> bool {
        let before = self.watches.len();
        self.watches
            .retain(|(c, p, t)| !(*c == conn && p == path && t == token));
        self.watches.len() != before
    }

    fn drop_conn(&mut self, conn: u32) {
        self.watches.retain(|(c, _, _)| *c != conn);
        self.queues.remove(&conn);
    }

    /// Fires every watch on `path` or an ancestor, deepest first, each
    /// symbol's watches in registration order.
    fn mutate(&mut self, path: &str) -> FireStats {
        if self.watches.is_empty() {
            return FireStats {
                checked: 0,
                fired: 0,
            };
        }
        let mut fired = 0;
        let mut cur = path;
        loop {
            for (conn, p, token) in &self.watches {
                if p == cur {
                    let queue = self.queues.get_mut(conn).expect("watcher has a queue");
                    queue.push((path.into(), token.clone()));
                    fired += 1;
                }
            }
            if cur == "/" {
                break;
            }
            cur = parent(cur);
        }
        FireStats {
            checked: self.watches.len(),
            fired,
        }
    }

    fn take(&mut self, conn: u32) -> Vec<Ev> {
        self.queues
            .get_mut(&conn)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    fn pending_counts(&self) -> Vec<(u32, usize)> {
        self.queues
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(&c, q)| (c, q.len()))
            .collect()
    }
}

/// One world's watch state and its reference.
#[derive(Clone)]
struct Side {
    store: Store,
    table: WatchTable,
    model: Model,
}

impl Side {
    fn new() -> Side {
        Side {
            store: Store::new(),
            table: WatchTable::new(),
            model: Model::default(),
        }
    }

    fn register(&mut self, conn: u32, path: &str, token: &str) {
        let sym = self.store.sym(&xp(path));
        self.table
            .register(&self.store, conn, sym, token.to_string());
        self.model.register(conn, path, token);
    }

    fn drop_conn(&mut self, conn: u32) {
        self.table.drop_conn(conn);
        self.model.drop_conn(conn);
    }

    fn mutate(&mut self, path: &str) {
        let sym = self.store.sym(&xp(path));
        let stats = self.table.note_mutation_sym(&self.store, sym);
        assert_eq!(stats, self.model.mutate(path), "mutation of {path}");
    }

    fn take(&mut self, conn: u32) {
        assert_eq!(evs(&self.table.take_events(conn)), self.model.take(conn));
    }

    /// One random operation.
    fn step(&mut self, rng: &mut SimRng, scratch: &mut Vec<WatchEvent>) {
        let conn = rng.index(CONNS as usize) as u32;
        let token = format!("t{}", rng.index(2));
        match rng.index(10) {
            0..=2 => self.register(conn, &random_path(rng), &token),
            3 => {
                let path = random_path(rng);
                let got = self.table.unregister(&self.store, conn, &xp(&path), &token);
                assert_eq!(got, self.model.unregister(conn, &path, &token));
            }
            4 => {
                let path = random_path(rng);
                let sym = self.store.sym(&xp(&path));
                let got = self.table.unregister(&self.store, conn, sym, &token);
                assert_eq!(got, self.model.unregister(conn, &path, &token));
            }
            5 => self.drop_conn(conn),
            6 | 7 => self.mutate(&random_path(rng)),
            8 => match rng.index(3) {
                0 => self.take(conn),
                1 => {
                    self.table.take_events_into(conn, scratch);
                    assert_eq!(evs(scratch), self.model.take(conn));
                }
                _ => {
                    let n = self.model.take(conn).len();
                    assert_eq!(self.table.drain_events(conn), n);
                }
            },
            _ => {}
        }
    }

    /// Every observable equals the model's.
    fn check(&self) {
        assert_eq!(self.table.count(), self.model.watches.len());
        assert_eq!(
            self.table.pending_counts().collect::<Vec<_>>(),
            self.model.pending_counts()
        );
        for conn in 0..CONNS + 1 {
            let expect = self.model.queues.get(&conn).map_or(0, Vec::len);
            assert_eq!(self.table.pending_count(conn), expect, "conn {conn}");
        }
    }

    /// Drains every queue and unregisters every watch, checking the
    /// events delivered on the way.
    fn drain_all(&mut self) {
        for conn in 0..CONNS {
            self.take(conn);
        }
        for (conn, path, token) in self.model.watches.clone() {
            self.table.unregister(&self.store, conn, &xp(&path), &token);
            self.model.unregister(conn, &path, &token);
        }
        self.check();
        assert_eq!(self.table.count(), 0);
        for conn in 0..CONNS {
            self.drop_conn(conn);
        }
        assert_eq!(self.table.pending_counts().count(), 0);
    }
}

/// Random sequences: the table tracks the model step for step, and a
/// fork taken mid-sequence evolves independently of its origin.
#[test]
fn watch_table_matches_reference_model() {
    let mut rng = SimRng::new(0x5801);
    let mut scratch = Vec::new();
    for _case in 0..96 {
        let n_ops = 1 + rng.index(120);
        let fork_at = rng.index(n_ops);
        let mut a = Side::new();
        let mut fork: Option<Side> = None;
        for i in 0..n_ops {
            if i == fork_at {
                fork = Some(a.clone());
            }
            a.step(&mut rng, &mut scratch);
            a.check();
            if let Some(b) = &mut fork {
                b.step(&mut rng, &mut scratch);
                b.check();
            }
        }
        a.drain_all();
        let mut b = fork.expect("forked mid-sequence");
        b.check();
        b.drain_all();
    }
}

/// The same (connection, path) watched under two tokens: both fire, and
/// unregistering one token leaves the other.
#[test]
fn same_path_under_two_tokens() {
    let mut s = Side::new();
    s.register(1, "/local/domain/1/device", "a");
    s.register(1, "/local/domain/1/device", "b");
    s.mutate("/local/domain/1/device/vif/0");
    s.check();
    s.take(1);
    assert!(s
        .table
        .unregister(&s.store, 1, &xp("/local/domain/1/device"), "a"));
    s.model.unregister(1, "/local/domain/1/device", "a");
    s.mutate("/local/domain/1/device/vif/0");
    s.check();
    assert_eq!(s.table.count(), 1);
    s.take(1);
    s.drain_all();
}

/// Unregistering a path nobody watches — never interned, or interned
/// but unwatched — is a clean no-op.
#[test]
fn unregister_of_unwatched_path_is_a_noop() {
    let mut s = Side::new();
    s.register(2, "/local/domain/2", "t");
    let before = s.table.clone();
    assert!(!s.table.unregister(&s.store, 2, &xp("/never/interned"), "t"));
    let sym = s.store.sym(&xp("/local/domain/3"));
    assert!(!s.table.unregister(&s.store, 2, sym, "t"));
    assert!(!s.table.unregister(&s.store, 3, sym, "t"));
    assert_eq!(s.table.count(), before.count());
    s.check();
    s.drain_all();
}

/// Dropping a connection that never registered a watch changes nothing;
/// dropping one whose watches sit on other domains' paths removes
/// exactly its own watches and queue.
#[test]
fn drop_conn_without_watches_and_across_domains() {
    let mut s = Side::new();
    s.register(0, "/local/domain/0/backend/vif/1/0", "be");
    s.register(1, "/local/domain/2/device", "cross");
    s.register(1, "/local/domain/3", "cross");
    s.register(2, "/local/domain/2/device", "own");
    s.drop_conn(4);
    s.check();
    assert_eq!(s.table.count(), 4);
    s.mutate("/local/domain/2/device/vif/0/state");
    s.drop_conn(1);
    s.check();
    assert_eq!(s.table.count(), 2);
    s.mutate("/local/domain/3/name");
    s.mutate("/local/domain/2/device");
    s.check();
    s.drain_all();
}
