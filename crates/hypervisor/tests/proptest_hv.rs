//! Property tests for hypervisor resource accounting, driven by a
//! seeded `SimRng` (offline build: no proptest).

use hypervisor::{DomId, DomainConfig, EvtchnPort, GrantRef, Hypervisor};
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

/// The hypervisor against a naive model of open channel ends and live
/// grants, across alloc, bind, close, grant, map, unmap, end-access,
/// create and destroy, with domids recycled under a limit of 8 so
/// domains are reborn mid-stream. After every op the open-channel and
/// grant totals match the model, `send` succeeds exactly on the bound
/// ends the model holds open, and every domain numbers its ports and
/// grants from 1 from its own creation on, a reborn domid included.
#[test]
fn evtchn_open_count() {
    /// One open end: its owner, port and the domain at the other end,
    /// with the peer's port once bound.
    #[derive(Clone, Copy)]
    struct End {
        owner: DomId,
        port: EvtchnPort,
        remote: DomId,
        peer: Option<EvtchnPort>,
    }
    /// One live grant.
    #[derive(Clone, Copy)]
    struct Grant {
        granter: DomId,
        gref: GrantRef,
        grantee: DomId,
        mapped: bool,
    }
    /// A live domain and the numbers it issues next.
    struct Live {
        dom: DomId,
        next_port: u32,
        next_ref: u32,
        reborn: bool,
    }
    let cost = CostModel::paper_defaults();
    let mut m = Meter::new();
    let mut rng = SimRng::new(0xA702);
    let mut reborn_first_ports = 0;
    for _case in 0..64 {
        let mut hv = Hypervisor::new(64 * 1024 * MIB, 0, vec![1]);
        hv.set_domid_limit(8);
        let mut live = vec![Live {
            dom: DomId::DOM0,
            next_port: 1,
            next_ref: 1,
            reborn: false,
        }];
        let mut used = [false; 8];
        let mut open: Vec<End> = Vec::new();
        let mut grants: Vec<Grant> = Vec::new();
        let mut ever: Vec<(DomId, EvtchnPort)> = Vec::new();
        for _ in 0..1 + rng.index(119) {
            let a = rng.index(live.len());
            let b = rng.index(live.len());
            match rng.index(10) {
                0 if live.len() < 8 => {
                    let dom = hv
                        .create_domain(&cost, &mut m, &DomainConfig::default())
                        .unwrap();
                    let reborn = std::mem::replace(&mut used[dom.0 as usize], true);
                    live.push(Live {
                        dom,
                        next_port: 1,
                        next_ref: 1,
                        reborn,
                    });
                }
                0 => assert_eq!(
                    hv.create_domain(&cost, &mut m, &DomainConfig::default()),
                    Err(hypervisor::HvError::DomidsExhausted)
                ),
                1 if a > 0 => {
                    let dom = live.swap_remove(a).dom;
                    hv.destroy(&cost, &mut m, dom).unwrap();
                    open.retain(|e| e.owner != dom && e.remote != dom);
                    grants.retain(|g| g.granter != dom && g.grantee != dom);
                }
                2 | 3 => {
                    let (owner, remote) = (live[a].dom, live[b].dom);
                    let port = hv
                        .evtchn_alloc_unbound(&cost, &mut m, owner, remote)
                        .unwrap();
                    assert_eq!(port, EvtchnPort(live[a].next_port), "{owner:?}'s next port");
                    live[a].next_port += 1;
                    open.push(End {
                        owner,
                        port,
                        remote,
                        peer: None,
                    });
                    ever.push((owner, port));
                }
                4 => {
                    let unbound: Vec<usize> = (0..open.len())
                        .filter(|&i| open[i].peer.is_none())
                        .collect();
                    if let Some(&i) = unbound.get(rng.index(unbound.len().max(1))) {
                        let End {
                            owner,
                            port,
                            remote,
                            ..
                        } = open[i];
                        let local = hv.evtchn_bind(&cost, &mut m, remote, owner, port).unwrap();
                        let binder = live.iter_mut().find(|l| l.dom == remote).unwrap();
                        if binder.reborn && binder.next_port == 1 {
                            assert_eq!(local, EvtchnPort(1), "reborn {remote:?}'s first port");
                            reborn_first_ports += 1;
                        }
                        assert_eq!(
                            local,
                            EvtchnPort(binder.next_port),
                            "{remote:?}'s next port"
                        );
                        binder.next_port += 1;
                        open[i].peer = Some(local);
                        let end = End {
                            owner: remote,
                            port: local,
                            remote: owner,
                            peer: Some(port),
                        };
                        open.push(end);
                        ever.push((remote, local));
                    }
                }
                5 if !open.is_empty() => {
                    let End {
                        owner,
                        port,
                        remote,
                        peer,
                    } = open[rng.index(open.len())];
                    hv.evtchn_close(owner, port).unwrap();
                    let peer = peer.map(|p| (remote, p));
                    open.retain(|e| {
                        (e.owner, e.port) != (owner, port) && Some((e.owner, e.port)) != peer
                    });
                }
                6 => {
                    let (granter, grantee) = (live[a].dom, live[b].dom);
                    let gref = hv
                        .grant_access(&cost, &mut m, granter, grantee, 7)
                        .unwrap();
                    assert_eq!(gref, GrantRef(live[a].next_ref), "{granter:?}'s next ref");
                    live[a].next_ref += 1;
                    grants.push(Grant {
                        granter,
                        gref,
                        grantee,
                        mapped: false,
                    });
                }
                7 | 8 if !grants.is_empty() => {
                    let i = rng.index(grants.len());
                    let Grant {
                        granter,
                        gref,
                        grantee,
                        mapped,
                    } = grants[i];
                    let mapper = live[a].dom;
                    if rng.index(2) == 0 {
                        let ok = mapper == grantee && !mapped;
                        assert_eq!(
                            hv.grant_map(&cost, &mut m, mapper, granter, gref).is_ok(),
                            ok
                        );
                        grants[i].mapped |= ok;
                    } else {
                        let ok = mapper == grantee;
                        assert_eq!(hv.grant_unmap(mapper, granter, gref).is_ok(), ok);
                        grants[i].mapped &= !ok;
                    }
                }
                9 if !grants.is_empty() => {
                    let i = rng.index(grants.len());
                    let Grant {
                        granter,
                        gref,
                        mapped,
                        ..
                    } = grants[i];
                    assert_eq!(hv.grant_end_access(granter, gref).is_ok(), !mapped);
                    if !mapped {
                        grants.swap_remove(i);
                    }
                }
                _ => {}
            }
            assert_eq!(hv.open_channels(), open.len());
            assert_eq!(hv.grant_count(), grants.len());
            assert_eq!(hv.domain_count(), live.len() - 1);
            for &(owner, port) in &ever {
                let bound = open
                    .iter()
                    .any(|e| (e.owner, e.port) == (owner, port) && e.peer.is_some());
                assert_eq!(
                    hv.evtchn_send(&cost, &mut m, owner, port).is_ok(),
                    bound,
                    "send on {owner:?}/{port:?}"
                );
            }
        }
    }
    assert!(reborn_first_ports > 0, "no reborn domain ever bound a port");
}

/// Grants: end_access only succeeds when unmapped; the host holds no
/// grant after a full cleanup.
#[test]
fn grant_lifecycle() {
    let cost = CostModel::paper_defaults();
    let mut m = Meter::new();
    let mut rng = SimRng::new(0xA703);
    for _case in 0..64 {
        let n = 1 + rng.index(29);
        let mut hv = Hypervisor::new(1024 * MIB, 0, vec![1]);
        let g = hv
            .create_domain(&cost, &mut m, &DomainConfig::default())
            .unwrap();
        let d0 = DomId::DOM0;
        let mut refs = Vec::new();
        for i in 0..n {
            let r = hv
                .grant_access(&cost, &mut m, g, d0, i as u32)
                .unwrap();
            hv.grant_map(&cost, &mut m, d0, g, r).unwrap();
            refs.push(r);
        }
        assert_eq!(hv.grant_count(), n);
        for &r in &refs {
            assert!(
                hv.grant_end_access(g, r).is_err(),
                "mapped grant must not end"
            );
            hv.grant_unmap(d0, g, r).unwrap();
            hv.grant_end_access(g, r).unwrap();
        }
        assert_eq!(hv.grant_count(), 0);
    }
}
