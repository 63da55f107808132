//! Property tests of the store tree and transactions: random operation
//! sequences preserve structural invariants, transactions are
//! equivalent to direct application when nothing interferes, and the
//! running `/local/domain` tally always equals a recount.
//!
//! Randomness comes from the workspace's own seeded `SimRng` (the build
//! environment is offline, so no proptest), with a fixed seed per test:
//! failures reproduce exactly.

use std::sync::Arc;

use simcore::{CostModel, Meter, SimRng};
use xenstore::txn::{Txn, TxnId};
use xenstore::watch::WatchTable;
use xenstore::{Flavor, Store, Xenstored, XsError, XsPath, XsSym};

/// A small path universe so operations collide often.
fn random_path(rng: &mut SimRng) -> XsPath {
    let a = rng.index(3);
    let b = rng.index(3);
    let s = match rng.index(3) {
        0 => format!("/d{a}"),
        1 => format!("/d{a}/e{b}"),
        _ => format!("/d{a}/e{b}/f"),
    };
    XsPath::parse(&s).unwrap()
}

#[derive(Clone, Debug)]
enum Op {
    Write(XsPath, Vec<u8>),
    Mkdir(XsPath),
    Rm(XsPath),
    Read(XsPath),
    Dir(XsPath),
}

fn random_op(rng: &mut SimRng) -> Op {
    let p = random_path(rng);
    match rng.index(5) {
        0 => {
            let len = rng.index(8);
            let v = (0..len).map(|_| rng.index(256) as u8).collect();
            Op::Write(p, v)
        }
        1 => Op::Mkdir(p),
        2 => Op::Rm(p),
        3 => Op::Read(p),
        _ => Op::Dir(p),
    }
}

/// Recount nodes by walking directories.
fn recount(store: &Store, path: &XsPath) -> usize {
    let mut n = 1;
    if let Ok(children) = store.directory(0, path) {
        for c in children {
            n += recount(store, &path.child(&c).unwrap());
        }
    }
    n
}

fn collect(store: &Store, path: &XsPath) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    if let Ok(v) = store.read(0, path) {
        out.push((path.as_str().to_string(), v.to_vec()));
    }
    if let Ok(children) = store.directory(0, path) {
        for c in children {
            out.extend(collect(store, &path.child(&c).unwrap()));
        }
    }
    out
}

/// node_count always equals an actual recount of the tree.
#[test]
fn node_count_is_consistent() {
    let mut rng = SimRng::new(0x5701);
    for _case in 0..128 {
        let mut store = Store::new();
        let n_ops = rng.index(60);
        for _ in 0..n_ops {
            match random_op(&mut rng) {
                Op::Write(p, v) => {
                    let _ = store.write(0, &p, &v);
                }
                Op::Mkdir(p) => {
                    let _ = store.mkdir(0, &p);
                }
                Op::Rm(p) => {
                    let _ = store.rm(0, &p);
                }
                Op::Read(p) => {
                    let _ = store.read(0, &p);
                }
                Op::Dir(p) => {
                    let _ = store.directory(0, &p);
                }
            }
            assert_eq!(store.node_count(), recount(&store, &XsPath::root()));
        }
    }
}

/// A write is always readable back (until removed).
#[test]
fn write_read_round_trip() {
    let mut rng = SimRng::new(0x5702);
    for _case in 0..256 {
        let p = random_path(&mut rng);
        let len = rng.index(16);
        let v: Vec<u8> = (0..len).map(|_| rng.index(256) as u8).collect();
        let mut store = Store::new();
        store.write(0, &p, &v).unwrap();
        assert_eq!(store.read(0, &p).unwrap(), &v[..]);
    }
}

/// An uncontended transaction commits and equals direct application.
#[test]
fn txn_equals_direct() {
    let mut rng = SimRng::new(0x5703);
    for _case in 0..128 {
        let mut direct = Store::new();
        let mut base = Store::new();
        // Common prefix so rm has something to remove.
        for s in ["/d0/e0", "/d1/e1/f"] {
            let p = XsPath::parse(s).unwrap();
            direct.write(0, &p, b"seed").unwrap();
            base.write(0, &p, b"seed").unwrap();
        }
        let mut txn = Txn::start(TxnId(1), 0, &base);
        let n_ops = rng.index(30);
        for _ in 0..n_ops {
            match random_op(&mut rng) {
                Op::Write(p, v) => {
                    let a = direct.write(0, &p, &v);
                    let b = txn.write(&base, &p, &v);
                    assert_eq!(a.is_ok(), b.is_ok());
                }
                Op::Mkdir(p) => {
                    let a = direct.mkdir(0, &p);
                    let b = txn.mkdir(&base, &p);
                    assert_eq!(a.is_ok(), b.is_ok());
                }
                Op::Rm(p) => {
                    let a = direct.rm(0, &p);
                    let b = txn.rm(&base, &p);
                    assert_eq!(a.is_ok(), b.is_ok());
                }
                Op::Read(p) => {
                    let a = direct.read(0, &p).map(|v| v.to_vec());
                    let b = txn.read(&base, &p);
                    assert_eq!(a.is_ok(), b.is_ok());
                    if let (Ok(av), Ok(bv)) = (a, b) {
                        assert_eq!(&av[..], &*bv);
                    }
                }
                Op::Dir(p) => {
                    let a = direct.directory(0, &p);
                    let b = txn.directory(&base, &p);
                    assert_eq!(a.is_ok(), b.is_ok());
                    if let (Ok(mut av), Ok(bv)) = (a, b) {
                        av.sort();
                        assert_eq!(av, bv);
                    }
                }
            }
        }
        let mut fired = Vec::new();
        txn.commit(&mut base, &mut fired).unwrap();
        // The committed store equals the directly mutated one.
        assert_eq!(base.node_count(), direct.node_count());
        assert_eq!(
            collect(&base, &XsPath::root()),
            collect(&direct, &XsPath::root())
        );
    }
}

/// Conflict detection: any external write to a touched node aborts.
#[test]
fn external_write_conflicts() {
    let mut rng = SimRng::new(0x5704);
    for _case in 0..128 {
        let p = random_path(&mut rng);
        let q = random_path(&mut rng);
        let mut store = Store::new();
        store.write(0, &p, b"0").unwrap();
        store.write(0, &q, b"0").unwrap();
        let mut txn = Txn::start(TxnId(1), 0, &store);
        let _ = txn.read(&store, &p);
        store.write(0, &p, b"external").unwrap();
        let _ = txn.write(&store, &q, b"mine");
        let mut fired = Vec::new();
        assert_eq!(txn.commit(&mut store, &mut fired).unwrap_err(), XsError::Again);
    }
}

/// Zero-copy aliasing: a payload snapshot taken via `read_rc` never
/// changes, no matter what is written to (or removed from) the store
/// afterwards — including same-length overwrites, which may only reuse
/// the buffer when no snapshot aliases it.
#[test]
fn read_snapshots_are_immutable_under_mutation() {
    let mut rng = SimRng::new(0x5705);
    for _case in 0..64 {
        let mut store = Store::new();
        let mut snapshots: Vec<(XsPath, Arc<[u8]>, Vec<u8>)> = Vec::new();
        let n_ops = rng.index(80);
        for _ in 0..n_ops {
            match random_op(&mut rng) {
                Op::Write(p, v) => {
                    let _ = store.write(0, &p, &v);
                }
                Op::Mkdir(p) => {
                    let _ = store.mkdir(0, &p);
                }
                Op::Rm(p) => {
                    let _ = store.rm(0, &p);
                }
                Op::Read(p) => {
                    // Take a snapshot and remember its bytes at read time.
                    if let Ok(rc) = store.read_rc(0, &p) {
                        let expect = rc.to_vec();
                        snapshots.push((p, rc, expect));
                    }
                }
                Op::Dir(p) => {
                    let _ = store.directory(0, &p);
                }
            }
            // Every snapshot ever taken still holds its original bytes.
            for (path, rc, expect) in &snapshots {
                assert_eq!(
                    &**rc, &expect[..],
                    "snapshot of {} mutated behind the reader's back",
                    path.as_str()
                );
            }
        }
    }
}

/// Scratch-buffer watch delivery: draining through a reused buffer
/// (`take_events_into`) delivers exactly the same event stream as the
/// allocating `take_events` — nothing lost, nothing duplicated, order
/// preserved — across interleaved registrations, mutations and drains.
#[test]
fn watch_scratch_reuse_loses_and_duplicates_nothing() {
    let mut rng = SimRng::new(0x5706);
    for _case in 0..64 {
        // Two identical worlds driven by the same op sequence; only the
        // drain mechanism differs.
        let mut store_a = Store::new();
        let mut table_a = WatchTable::new();
        let mut store_b = Store::new();
        let mut table_b = WatchTable::new();
        let mut scratch = Vec::new(); // reused across every drain of world B
        let mut delivered_a = 0usize;
        let mut delivered_b = 0usize;
        let mut fired = 0usize;

        let n_ops = rng.index(60);
        for _ in 0..n_ops {
            match rng.index(4) {
                0 => {
                    // Register a watch on a random path for a random conn.
                    let p = random_path(&mut rng);
                    let conn = rng.index(3) as u32;
                    let tok = format!("t{}", rng.index(4));
                    table_a.register(&store_a, conn, store_a.sym(&p), tok.clone());
                    table_b.register(&store_b, conn, store_b.sym(&p), tok);
                    fired += 1; // the initial sync event
                }
                1 => {
                    // Mutate: both worlds fire identically.
                    let p = random_path(&mut rng);
                    let _ = store_a.write(0, &p, b"v");
                    let _ = store_b.write(0, &p, b"v");
                    let fa = table_a.note_mutation_sym(&store_a, store_a.sym(&p));
                    let fb = table_b.note_mutation_sym(&store_b, store_b.sym(&p));
                    assert_eq!(fa, fb);
                    fired += fa.fired;
                }
                2 => {
                    // Drain one conn: fresh Vec vs reused scratch.
                    let conn = rng.index(3) as u32;
                    let evs = table_a.take_events(conn);
                    table_b.take_events_into(conn, &mut scratch);
                    assert_eq!(evs, scratch, "reused buffer must equal fresh drain");
                    delivered_a += evs.len();
                    delivered_b += scratch.len();
                }
                _ => {
                    let conn = rng.index(3) as u32;
                    assert_eq!(table_a.pending_count(conn), table_b.pending_count(conn));
                }
            }
        }
        // Conservation: drain everything and check nothing was lost or
        // duplicated along the way.
        for conn in 0..3u32 {
            let evs = table_a.take_events(conn);
            table_b.take_events_into(conn, &mut scratch);
            assert_eq!(evs, scratch);
            delivered_a += evs.len();
            delivered_b += scratch.len();
        }
        assert_eq!(delivered_a, fired, "every fired event delivered exactly once");
        assert_eq!(delivered_b, fired);
    }
}

/// A node under `/local/domain` for the tally op stream: entries spelled
/// canonically, as `0<d>`, as `+<d>` and non-numerically; their `name`
/// nodes, a sibling, a node below `name`; and the directories above.
/// Composed by symbol hops, since `+` is no valid path byte.
fn tally_node(xs: &Xenstored, rng: &mut SimRng) -> XsSym {
    let d = rng.index(4);
    let spelling = match rng.index(4) {
        0 => format!("{d}"),
        1 => format!("0{d}"),
        2 => format!("+{d}"),
        _ => ["tools", "vm"][d % 2].to_string(),
    };
    let ld = xs.local_domain_sym();
    let entry = xs.child_sym(ld, &spelling);
    match rng.index(10) {
        0..=4 => xs.child_sym(entry, "name"),
        5 => entry,
        6 => xs.child_sym(entry, "memory"),
        7 => xs.child_sym(xs.child_sym(entry, "name"), "sub"),
        8 => ld,
        _ => xs.parent_sym(ld),
    }
}

/// A name value from a small set, so the name multiset holds duplicates.
fn tally_value(rng: &mut SimRng) -> &'static [u8] {
    [&b""[..], b"g-0", b"g-1", b"Domain-0"][rng.index(4)]
}

/// One op of the tally stream on `xs`: a direct write or rm (by Dom0 or
/// by guest 1, whose writes may be refused), a write or rm through
/// `store_mut_for_tests`, a freeze of the shared tables, or a
/// transaction mixing writes and removes, committed with ambient
/// interference and sometimes in storm mode.
fn tally_op(xs: &mut Xenstored, rng: &mut SimRng) {
    let cost = CostModel::paper_defaults();
    let mut m = Meter::new();
    let conn = if rng.chance(0.2) { 1 } else { 0 };
    match rng.index(7) {
        0 | 1 => {
            let v = tally_value(rng);
            let node = tally_node(xs, rng);
            let _ = xs.write(&cost, &mut m, conn, node, v);
        }
        2 => {
            let node = tally_node(xs, rng);
            let _ = xs.rm(&cost, &mut m, conn, node);
        }
        3 => {
            let (node, v) = (tally_node(xs, rng), tally_value(rng));
            let store = xs.store_mut_for_tests();
            let _ = if rng.chance(0.5) {
                store.write(0, node, v)
            } else {
                store.rm(0, node)
            };
        }
        4 => xs.freeze_shared(),
        _ => {
            xs.set_ambient_interference(if rng.chance(0.5) { 0.3 } else { 0.0 });
            xs.set_storm(rng.chance(0.5));
            let id = xs.txn_start(&cost, &mut m, 0);
            for _ in 0..1 + rng.index(4) {
                let node = tally_node(xs, rng);
                let _ = if rng.chance(0.6) {
                    let v = tally_value(rng);
                    xs.txn_write(&cost, &mut m, 0, id, node, v)
                } else {
                    xs.txn_rm(&cost, &mut m, 0, id, node)
                };
            }
            let _ = xs.txn_end(&cost, &mut m, 0, id, true);
        }
    }
}

/// The store's running `/local/domain` tally equals a from-scratch
/// recount after every op — direct, test-only and transactional writes
/// and removes, storm interference, freezes — and on both sides of a
/// fork taken mid-stream, frozen first in half the cases.
#[test]
fn domain_tally_matches_recount() {
    let mut rng = SimRng::new(0x5707);
    // (non-numeric entries seen, name bytes seen, commits, conflicts)
    let mut seen = (false, false, 0, 0);
    for case in 0..64 {
        let mut xs = Xenstored::new(Flavor::Oxenstored, case);
        xs.connect(1);
        let mut forked: Option<(Xenstored, SimRng)> = None;
        let n_ops = 20 + rng.index(80);
        for op in 0..n_ops {
            if op == n_ops / 2 {
                if case % 2 == 0 {
                    xs.freeze_shared();
                }
                forked = Some((xs.clone(), rng.fork()));
            }
            tally_op(&mut xs, &mut rng);
            let store = xs.store();
            let tally = store.domain_tally();
            assert_eq!(*tally, store.domain_tally_recount(), "case {case} op {op}");
            seen.0 |= tally.children > tally.numeric;
            seen.1 |= tally.name_value_bytes > 0;
            if let Some((twin, twin_rng)) = forked.as_mut() {
                tally_op(twin, twin_rng);
                let store = twin.store();
                assert_eq!(
                    *store.domain_tally(),
                    store.domain_tally_recount(),
                    "case {case} op {op} (fork)"
                );
            }
        }
        seen.2 += xs.stats().txn_commits;
        seen.3 += xs.stats().txn_conflicts;
    }
    // The stream reached the shapes it exists to cover.
    assert!(seen.0 && seen.1 && seen.2 > 0 && seen.3 > 0, "{seen:?}");
}
