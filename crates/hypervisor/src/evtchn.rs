//! Event channels: Xen's software interrupts.
//!
//! An event channel connects two domains. One side allocates an *unbound*
//! port naming the peer allowed to bind; the peer then binds it, after
//! which either side can `send` notifications. Split drivers use one
//! channel per device to signal ring activity (paper §4.1).
//!
//! Each domain owns its ports (see [`crate::Domain`]); the hypercalls
//! below live on [`Hypervisor`] because binding, sending and closing
//! touch both ends.

use std::num::NonZeroU32;

use simcore::{CostModel, Meter};

use crate::domain::{DomId, Held};
use crate::hv::{HvError, Hypervisor};

/// A port number, local to the owning domain.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct EvtchnPort(pub u32);

/// One open channel end.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Channel {
    /// While unbound, the domain allowed to bind it; then its peer.
    remote: DomId,
    /// The peer's port once bound. Ports number from 1, so the option
    /// costs no space.
    remote_port: Option<NonZeroU32>,
    pending: bool,
}

impl Channel {
    fn new(remote: DomId, remote_port: Option<EvtchnPort>) -> Channel {
        Channel {
            remote,
            remote_port: remote_port.and_then(|p| NonZeroU32::new(p.0)),
            pending: false,
        }
    }

    /// The peer's port, once bound.
    fn peer(&self) -> Option<EvtchnPort> {
        self.remote_port.map(|p| EvtchnPort(p.get()))
    }
}

impl Hypervisor {
    /// `EVTCHNOP_alloc_unbound`: `owner` allocates a port that only
    /// `remote` may bind. Both domains must exist.
    pub fn evtchn_alloc_unbound(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        owner: DomId,
        remote: DomId,
    ) -> Result<EvtchnPort, HvError> {
        Self::charge(meter, cost.hypercall_base + cost.evtchn_op);
        if self.record_mut(remote).is_none() {
            return Err(HvError::NoSuchDomain);
        }
        let o = self.record_mut(owner).ok_or(HvError::NoSuchDomain)?;
        o.last_port += 1;
        let port = EvtchnPort(o.last_port);
        o.ports.insert(port.0, Channel::new(remote, None));
        self.hold(remote, Held::Offer(owner, port));
        self.open_channels += 1;
        Ok(port)
    }

    /// `EVTCHNOP_bind_interdomain`: `binder` connects to `(owner, port)`,
    /// receiving its own local port.
    pub fn evtchn_bind(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        binder: DomId,
        owner: DomId,
        port: EvtchnPort,
    ) -> Result<EvtchnPort, HvError> {
        Self::charge(meter, cost.hypercall_base + cost.evtchn_op);
        let ch = self.channel_mut(owner, port)?;
        if ch.remote != binder || ch.peer().is_some() {
            return Err(HvError::NotPermitted);
        }
        // An offer's remote is live: a destroy reaps the offers towards it.
        let b = self.record_mut(binder).ok_or(HvError::NoSuchDomain)?;
        b.last_port += 1;
        let local = EvtchnPort(b.last_port);
        b.ports.insert(local.0, Channel::new(owner, Some(port)));
        *self.channel_mut(owner, port)? = Channel::new(binder, Some(local));
        // The binder's own port names the owner now.
        self.release(binder, Held::Offer(owner, port));
        self.open_channels += 1;
        Ok(local)
    }

    /// `EVTCHNOP_send`: raises the pending flag on the peer's port.
    pub fn evtchn_send(
        &mut self,
        cost: &CostModel,
        meter: &mut Meter,
        dom: DomId,
        port: EvtchnPort,
    ) -> Result<(), HvError> {
        Self::charge(meter, cost.hypercall_base + cost.evtchn_op);
        let ch = *self.channel_mut(dom, port)?;
        let peer = ch.peer().ok_or(HvError::BadPort)?;
        self.channel_mut(ch.remote, peer)?.pending = true;
        Ok(())
    }

    /// Consumes and returns the pending flag of a local port. Uncharged:
    /// the guest reads its own shared-info bit.
    pub fn evtchn_poll(&mut self, dom: DomId, port: EvtchnPort) -> Result<bool, HvError> {
        let ch = self.channel_mut(dom, port)?;
        Ok(std::mem::take(&mut ch.pending))
    }

    /// `EVTCHNOP_close`: closes a local port; the peer end (if any)
    /// closes with it. Uncharged: a back-end's device close covers it.
    pub fn evtchn_close(&mut self, dom: DomId, port: EvtchnPort) -> Result<(), HvError> {
        let ch = self
            .record_mut(dom)
            .and_then(|d| d.ports.remove(&port.0))
            .ok_or(HvError::BadPort)?;
        self.open_channels -= 1;
        self.close_peer(dom, port, ch);
        Ok(())
    }

    /// After `dom` lost `port`, closes what the port named: the bound
    /// peer end, or the entry its unbound offer left on the remote.
    pub(crate) fn close_peer(&mut self, dom: DomId, port: EvtchnPort, ch: Channel) {
        match ch.peer() {
            Some(peer) => {
                let remote = self.record_mut(ch.remote);
                if remote.and_then(|r| r.ports.remove(&peer.0)).is_some() {
                    self.open_channels -= 1;
                }
            }
            None => self.release(ch.remote, Held::Offer(dom, port)),
        }
    }

    /// Number of open channel ends on the host.
    pub fn open_channels(&self) -> usize {
        self.open_channels
    }

    fn channel_mut(&mut self, dom: DomId, port: EvtchnPort) -> Result<&mut Channel, HvError> {
        self.record_mut(dom)
            .and_then(|d| d.ports.get_mut(&port.0))
            .ok_or(HvError::BadPort)
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
    fn alloc_bind_send_poll() {
        let (mut hv, c, mut m) = host(1);
        let (back, front) = (DomId(0), DomId(1));
        let bport = hv.evtchn_alloc_unbound(&c, &mut m, back, front).unwrap();
        let fport = hv.evtchn_bind(&c, &mut m, front, back, bport).unwrap();
        hv.evtchn_send(&c, &mut m, back, bport).unwrap();
        assert!(hv.evtchn_poll(front, fport).unwrap());
        assert!(!hv.evtchn_poll(front, fport).unwrap(), "pending consumed");
        hv.evtchn_send(&c, &mut m, front, fport).unwrap();
        assert!(hv.evtchn_poll(back, bport).unwrap());
    }

    #[test]
    fn bind_by_wrong_domain_is_rejected() {
        let (mut hv, c, mut m) = host(2);
        let p = hv
            .evtchn_alloc_unbound(&c, &mut m, DomId(0), DomId(1))
            .unwrap();
        assert_eq!(
            hv.evtchn_bind(&c, &mut m, DomId(2), DomId(0), p)
                .unwrap_err(),
            HvError::NotPermitted
        );
    }

    #[test]
    fn double_bind_is_rejected() {
        let (mut hv, c, mut m) = host(1);
        let p = hv
            .evtchn_alloc_unbound(&c, &mut m, DomId(0), DomId(1))
            .unwrap();
        hv.evtchn_bind(&c, &mut m, DomId(1), DomId(0), p).unwrap();
        assert_eq!(
            hv.evtchn_bind(&c, &mut m, DomId(1), DomId(0), p)
                .unwrap_err(),
            HvError::NotPermitted
        );
    }

    #[test]
    fn send_on_unbound_fails() {
        let (mut hv, c, mut m) = host(1);
        let p = hv
            .evtchn_alloc_unbound(&c, &mut m, DomId(0), DomId(1))
            .unwrap();
        assert_eq!(
            hv.evtchn_send(&c, &mut m, DomId(0), p).unwrap_err(),
            HvError::BadPort
        );
    }

    #[test]
    fn offers_need_both_domains() {
        let (mut hv, c, mut m) = host(1);
        for (owner, remote) in [(DomId(0), DomId(9)), (DomId(9), DomId(0))] {
            assert_eq!(
                hv.evtchn_alloc_unbound(&c, &mut m, owner, remote),
                Err(HvError::NoSuchDomain)
            );
        }
        assert_eq!(hv.open_channels(), 0);
    }

    #[test]
    fn close_tears_down_both_ends() {
        let (mut hv, c, mut m) = host(1);
        let bp = hv
            .evtchn_alloc_unbound(&c, &mut m, DomId(0), DomId(1))
            .unwrap();
        let fp = hv.evtchn_bind(&c, &mut m, DomId(1), DomId(0), bp).unwrap();
        hv.evtchn_close(DomId(1), fp).unwrap();
        assert_eq!(
            hv.evtchn_send(&c, &mut m, DomId(0), bp).unwrap_err(),
            HvError::BadPort
        );
        assert_eq!(hv.open_channels(), 0);
    }

    #[test]
    fn destroy_closes_every_channel_of_the_domain() {
        let (mut hv, c, mut m) = host(1);
        for _ in 0..3 {
            let bp = hv
                .evtchn_alloc_unbound(&c, &mut m, DomId(0), DomId(1))
                .unwrap();
            hv.evtchn_bind(&c, &mut m, DomId(1), DomId(0), bp).unwrap();
        }
        assert_eq!(hv.open_channels(), 6);
        hv.destroy(&c, &mut m, DomId(1)).unwrap();
        assert_eq!(hv.open_channels(), 0);
    }

    #[test]
    fn closed_port_is_bad_everywhere() {
        let (mut hv, c, mut m) = host(1);
        let (back, front) = (DomId(0), DomId(1));
        let bp = hv.evtchn_alloc_unbound(&c, &mut m, back, front).unwrap();
        let fp = hv.evtchn_bind(&c, &mut m, front, back, bp).unwrap();
        hv.evtchn_close(back, bp).unwrap();
        let bad = Err(HvError::BadPort);
        for (dom, port) in [(back, bp), (front, fp)] {
            assert_eq!(hv.evtchn_send(&c, &mut m, dom, port), bad);
            assert_eq!(hv.evtchn_poll(dom, port).map(|_| ()), bad);
            assert_eq!(hv.evtchn_close(dom, port), bad);
        }
        assert_eq!(hv.evtchn_bind(&c, &mut m, front, back, bp).map(|_| ()), bad);
        // A closed unbound offer cannot be bound either.
        let offer = hv.evtchn_alloc_unbound(&c, &mut m, back, front).unwrap();
        hv.evtchn_close(back, offer).unwrap();
        assert_eq!(
            hv.evtchn_bind(&c, &mut m, front, back, offer).map(|_| ()),
            bad
        );
        assert_eq!(hv.open_channels(), 0);
    }

    #[test]
    fn destroy_spares_other_domains() {
        let (mut hv, c, mut m) = host(2);
        let (d0, d1, d2) = (DomId(0), DomId(1), DomId(2));
        // d0<->d1 bound, d0->d2 bound, d1->d2 bound, d2 offers to d0,
        // d0 offers to d2.
        let p01 = hv.evtchn_alloc_unbound(&c, &mut m, d0, d1).unwrap();
        let p10 = hv.evtchn_bind(&c, &mut m, d1, d0, p01).unwrap();
        let p02 = hv.evtchn_alloc_unbound(&c, &mut m, d0, d2).unwrap();
        hv.evtchn_bind(&c, &mut m, d2, d0, p02).unwrap();
        let p12 = hv.evtchn_alloc_unbound(&c, &mut m, d1, d2).unwrap();
        hv.evtchn_bind(&c, &mut m, d2, d1, p12).unwrap();
        hv.evtchn_alloc_unbound(&c, &mut m, d2, d0).unwrap();
        let offer = hv.evtchn_alloc_unbound(&c, &mut m, d0, d2).unwrap();
        assert_eq!(hv.open_channels(), 8);
        hv.destroy(&c, &mut m, d2).unwrap();
        assert_eq!(hv.open_channels(), 2);
        hv.evtchn_send(&c, &mut m, d0, p01).unwrap();
        assert!(hv.evtchn_poll(d1, p10).unwrap());
        hv.evtchn_send(&c, &mut m, d1, p10).unwrap();
        assert!(hv.evtchn_poll(d0, p01).unwrap());
        let bad = Err(HvError::BadPort);
        assert_eq!(hv.evtchn_send(&c, &mut m, d0, p02), bad);
        assert_eq!(hv.evtchn_send(&c, &mut m, d1, p12), bad);
        assert_eq!(hv.evtchn_close(d0, offer), bad);
    }

    #[test]
    fn ports_are_per_domain() {
        let (mut hv, c, mut m) = host(1);
        let p0 = hv
            .evtchn_alloc_unbound(&c, &mut m, DomId(0), DomId(1))
            .unwrap();
        let p1 = hv
            .evtchn_alloc_unbound(&c, &mut m, DomId(1), DomId(0))
            .unwrap();
        // Both get port 1 in their own space.
        assert_eq!((p0, p1), (EvtchnPort(1), EvtchnPort(1)));
    }
}
