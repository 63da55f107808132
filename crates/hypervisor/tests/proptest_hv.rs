//! Property tests for hypervisor resource accounting, driven by a
//! seeded `SimRng` (offline build: no proptest).

use hypervisor::{DomId, DomainConfig, EvtchnPort, EvtchnTable, GrantTable, Hypervisor};
use simcore::{CostModel, Meter, SimRng};

const MIB: u64 = 1 << 20;

/// Memory used never exceeds the total and returns to baseline after
/// every domain is destroyed.
#[test]
fn memory_conservation() {
    let mut rng = SimRng::new(0xA701);
    for _case in 0..64 {
        let sizes: Vec<u64> = (0..1 + rng.index(19))
            .map(|_| 1 + rng.index(255) as u64)
            .collect();
        let cost = CostModel::paper_defaults();
        let mut m = Meter::new();
        let mut hv = Hypervisor::new(64 * 1024 * MIB, 1024 * MIB, vec![0, 1]);
        let baseline = hv.memory.used();
        let mut doms = Vec::new();
        for &mib in &sizes {
            let d = hv
                .create_domain(
                    &cost,
                    &mut m,
                    &DomainConfig {
                        max_mem_mib: mib,
                        vcpus: 1,
                    },
                )
                .unwrap();
            hv.populate_physmap(&cost, &mut m, d, mib).unwrap();
            doms.push((d, mib));
            assert!(hv.memory.used() <= hv.memory.total());
        }
        let expect: u64 = sizes.iter().map(|s| s * MIB).sum();
        assert_eq!(hv.memory.used() - baseline, expect);
        for (d, _) in doms {
            hv.destroy(&cost, &mut m, d).unwrap();
        }
        assert_eq!(hv.memory.used(), baseline);
    }
}

/// Event channels against a naive model of open ends, across alloc,
/// bind, close and `close_all` over several domains: the open count
/// always matches, and `send` succeeds exactly on the bound ends the
/// model holds open.
#[test]
fn evtchn_open_count() {
    /// One open end: its owner, port and peer (`None` while unbound,
    /// with the domain allowed to bind it).
    #[derive(Clone, Copy)]
    struct End {
        owner: DomId,
        port: EvtchnPort,
        remote: DomId,
        peer: Option<(DomId, EvtchnPort)>,
    }
    const DOMS: usize = 4;
    let mut rng = SimRng::new(0xA702);
    for _case in 0..64 {
        let mut t = EvtchnTable::new();
        let mut open: Vec<End> = Vec::new();
        let mut ever: Vec<(DomId, EvtchnPort)> = Vec::new();
        for _ in 0..1 + rng.index(79) {
            let dom = DomId(rng.index(DOMS) as u32);
            match rng.index(5) {
                0 | 1 => {
                    let remote = DomId(rng.index(DOMS) as u32);
                    let port = t.alloc_unbound(dom, remote);
                    open.push(End {
                        owner: dom,
                        port,
                        remote,
                        peer: None,
                    });
                    ever.push((dom, port));
                }
                2 => {
                    let unbound: Vec<usize> = (0..open.len())
                        .filter(|&i| open[i].peer.is_none())
                        .collect();
                    if let Some(&i) = unbound.get(rng.index(unbound.len().max(1))) {
                        let End { owner, port, remote, .. } = open[i];
                        let local = t.bind_interdomain(remote, owner, port).unwrap();
                        open[i].peer = Some((remote, local));
                        open.push(End {
                            owner: remote,
                            port: local,
                            remote: owner,
                            peer: Some((owner, port)),
                        });
                        ever.push((remote, local));
                    }
                }
                3 => {
                    if !open.is_empty() {
                        let End { owner, port, peer, .. } = open[rng.index(open.len())];
                        t.close(owner, port).unwrap();
                        open.retain(|e| {
                            (e.owner, e.port) != (owner, port) && Some((e.owner, e.port)) != peer
                        });
                    }
                }
                _ => {
                    t.close_all(dom);
                    open.retain(|e| e.owner != dom && e.remote != dom);
                }
            }
            assert_eq!(t.open_channels(), open.len());
            for &(owner, port) in &ever {
                let bound = open
                    .iter()
                    .any(|e| (e.owner, e.port) == (owner, port) && e.peer.is_some());
                assert_eq!(
                    t.send(owner, port).is_ok(),
                    bound,
                    "send on {owner:?}/{port:?}"
                );
            }
        }
    }
}

/// Grants: end_access only succeeds when unmapped; the table never
/// leaks entries after a full cleanup.
#[test]
fn grant_lifecycle() {
    let mut rng = SimRng::new(0xA703);
    for _case in 0..64 {
        let n = 1 + rng.index(29);
        let mut g = GrantTable::new();
        let mut refs = Vec::new();
        for i in 0..n {
            let r = g.grant_access(DomId(1), DomId(0), i as u64, false);
            g.map(DomId(0), DomId(1), r).unwrap();
            refs.push(r);
        }
        assert_eq!(g.len(), n);
        for r in &refs {
            assert!(g.end_access(DomId(1), *r).is_err(), "mapped grant must not end");
            g.unmap(DomId(0), DomId(1), *r).unwrap();
            g.end_access(DomId(1), *r).unwrap();
        }
        assert!(g.is_empty());
    }
}
