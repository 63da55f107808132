//! Event channels: Xen's software interrupts.
//!
//! An event channel connects two domains. One side allocates an *unbound*
//! port naming the peer allowed to bind; the peer then binds it, after
//! which either side can `send` notifications. Split drivers use one
//! channel per device to signal ring activity (paper §4.1).

use simcore::IdMap;

use crate::domain::DomId;

/// A port number, local to the owning domain.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct EvtchnPort(pub u32);

#[derive(Clone, Debug, PartialEq, Eq)]
enum ChannelState {
    /// Allocated by `owner`, waiting for `remote` to bind.
    Unbound { remote: DomId },
    /// Connected to `remote`'s `remote_port`.
    Interdomain { remote: DomId, remote_port: EvtchnPort },
}

impl ChannelState {
    /// The domain at the other end (bound or offered).
    fn remote(&self) -> DomId {
        match *self {
            ChannelState::Unbound { remote } | ChannelState::Interdomain { remote, .. } => remote,
        }
    }
}

#[derive(Clone, Debug)]
struct Channel {
    state: ChannelState,
    pending: bool,
}

/// Per-host event channel table, keyed by (domain, port). Holds open
/// channels only: closing removes both ends, so teardown and counting
/// never scan channels that died earlier.
#[derive(Clone, Default, Debug)]
pub struct EvtchnTable {
    channels: IdMap<(DomId, EvtchnPort), Channel>,
    next_port: IdMap<DomId, u32>,
    sends: u64,
}

/// Event-channel errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvtchnError {
    /// Port does not exist or is closed.
    BadPort,
    /// Bind attempted by a domain the port was not offered to, or the
    /// port is already bound.
    NotPermitted,
}

impl EvtchnTable {
    /// Creates an empty table.
    pub fn new() -> EvtchnTable {
        EvtchnTable::default()
    }

    fn alloc_port(&mut self, dom: DomId) -> EvtchnPort {
        let n = self.next_port.entry(dom).or_insert(1);
        let port = EvtchnPort(*n);
        *n += 1;
        port
    }

    /// `EVTCHNOP_alloc_unbound`: `owner` allocates a port that only
    /// `remote` may bind.
    pub fn alloc_unbound(&mut self, owner: DomId, remote: DomId) -> EvtchnPort {
        let port = self.alloc_port(owner);
        self.channels.insert(
            (owner, port),
            Channel {
                state: ChannelState::Unbound { remote },
                pending: false,
            },
        );
        port
    }

    /// `EVTCHNOP_bind_interdomain`: `binder` connects to `(owner, port)`,
    /// receiving its own local port.
    pub fn bind_interdomain(
        &mut self,
        binder: DomId,
        owner: DomId,
        port: EvtchnPort,
    ) -> Result<EvtchnPort, EvtchnError> {
        let ch = self
            .channels
            .get(&(owner, port))
            .ok_or(EvtchnError::BadPort)?;
        match ch.state {
            ChannelState::Unbound { remote } if remote == binder => {}
            _ => return Err(EvtchnError::NotPermitted),
        }
        let local = self.alloc_port(binder);
        self.channels.insert(
            (binder, local),
            Channel {
                state: ChannelState::Interdomain {
                    remote: owner,
                    remote_port: port,
                },
                pending: false,
            },
        );
        let ch = self.channels.get_mut(&(owner, port)).expect("checked");
        ch.state = ChannelState::Interdomain {
            remote: binder,
            remote_port: local,
        };
        Ok(local)
    }

    /// `EVTCHNOP_send`: raises the pending flag on the peer's port.
    pub fn send(&mut self, dom: DomId, port: EvtchnPort) -> Result<(), EvtchnError> {
        let (remote, remote_port) = match self.channels.get(&(dom, port)) {
            Some(Channel {
                state: ChannelState::Interdomain { remote, remote_port },
                ..
            }) => (*remote, *remote_port),
            _ => return Err(EvtchnError::BadPort),
        };
        if let Some(peer) = self.channels.get_mut(&(remote, remote_port)) {
            peer.pending = true;
            self.sends += 1;
            Ok(())
        } else {
            Err(EvtchnError::BadPort)
        }
    }

    /// Consumes and returns the pending flag of a local port.
    pub fn poll(&mut self, dom: DomId, port: EvtchnPort) -> Result<bool, EvtchnError> {
        let ch = self
            .channels
            .get_mut(&(dom, port))
            .ok_or(EvtchnError::BadPort)?;
        let was = ch.pending;
        ch.pending = false;
        Ok(was)
    }

    /// `EVTCHNOP_close`: closes a local port; the peer end (if any)
    /// closes with it.
    pub fn close(&mut self, dom: DomId, port: EvtchnPort) -> Result<(), EvtchnError> {
        let ch = self
            .channels
            .remove(&(dom, port))
            .ok_or(EvtchnError::BadPort)?;
        if let ChannelState::Interdomain { remote, remote_port } = ch.state {
            self.channels.remove(&(remote, remote_port));
        }
        Ok(())
    }

    /// Closes every port belonging to a domain (domain destruction), and
    /// every port another domain holds towards it: a bound peer half, or
    /// an unbound offer the dead domain can no longer accept. Like grant
    /// reaping, this is symmetric — otherwise each guest lifecycle leaks
    /// the backend-owned offers it never bound (e.g. the sysctl channel).
    /// Both ends of a bound channel match, so one pass closes them.
    pub fn close_all(&mut self, dom: DomId) {
        self.channels
            .retain(|(owner, _), ch| *owner != dom && ch.state.remote() != dom);
    }

    /// Total successful sends (proxy for notification load).
    pub fn total_sends(&self) -> u64 {
        self.sends
    }

    /// Number of open channel ends.
    pub fn open_channels(&self) -> usize {
        self.channels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_bind_send_poll() {
        let mut t = EvtchnTable::new();
        let back = DomId(0);
        let front = DomId(5);
        let bport = t.alloc_unbound(back, front);
        let fport = t.bind_interdomain(front, back, bport).unwrap();
        t.send(back, bport).unwrap();
        assert!(t.poll(front, fport).unwrap());
        assert!(!t.poll(front, fport).unwrap(), "pending consumed");
        t.send(front, fport).unwrap();
        assert!(t.poll(back, bport).unwrap());
    }

    #[test]
    fn bind_by_wrong_domain_is_rejected() {
        let mut t = EvtchnTable::new();
        let p = t.alloc_unbound(DomId(0), DomId(5));
        assert_eq!(
            t.bind_interdomain(DomId(6), DomId(0), p).unwrap_err(),
            EvtchnError::NotPermitted
        );
    }

    #[test]
    fn double_bind_is_rejected() {
        let mut t = EvtchnTable::new();
        let p = t.alloc_unbound(DomId(0), DomId(5));
        t.bind_interdomain(DomId(5), DomId(0), p).unwrap();
        assert_eq!(
            t.bind_interdomain(DomId(5), DomId(0), p).unwrap_err(),
            EvtchnError::NotPermitted
        );
    }

    #[test]
    fn send_on_unbound_fails() {
        let mut t = EvtchnTable::new();
        let p = t.alloc_unbound(DomId(0), DomId(5));
        assert_eq!(t.send(DomId(0), p).unwrap_err(), EvtchnError::BadPort);
    }

    #[test]
    fn close_tears_down_both_ends() {
        let mut t = EvtchnTable::new();
        let bp = t.alloc_unbound(DomId(0), DomId(5));
        let fp = t.bind_interdomain(DomId(5), DomId(0), bp).unwrap();
        t.close(DomId(5), fp).unwrap();
        assert_eq!(t.send(DomId(0), bp).unwrap_err(), EvtchnError::BadPort);
        assert_eq!(t.open_channels(), 0);
    }

    #[test]
    fn close_all_on_domain_death() {
        let mut t = EvtchnTable::new();
        for _ in 0..3 {
            let bp = t.alloc_unbound(DomId(0), DomId(5));
            t.bind_interdomain(DomId(5), DomId(0), bp).unwrap();
        }
        assert_eq!(t.open_channels(), 6);
        t.close_all(DomId(5));
        assert_eq!(t.open_channels(), 0);
    }

    #[test]
    fn closed_port_is_bad_everywhere() {
        let mut t = EvtchnTable::new();
        let (back, front) = (DomId(0), DomId(5));
        let bp = t.alloc_unbound(back, front);
        let fp = t.bind_interdomain(front, back, bp).unwrap();
        t.close(back, bp).unwrap();
        for (dom, port) in [(back, bp), (front, fp)] {
            assert_eq!(t.send(dom, port), Err(EvtchnError::BadPort));
            assert_eq!(t.poll(dom, port), Err(EvtchnError::BadPort));
            assert_eq!(t.close(dom, port), Err(EvtchnError::BadPort));
        }
        assert_eq!(
            t.bind_interdomain(front, back, bp),
            Err(EvtchnError::BadPort)
        );
        // A closed unbound offer cannot be bound either.
        let offer = t.alloc_unbound(back, front);
        t.close(back, offer).unwrap();
        assert_eq!(
            t.bind_interdomain(front, back, offer),
            Err(EvtchnError::BadPort)
        );
        assert_eq!(t.open_channels(), 0);
    }

    #[test]
    fn close_all_spares_other_domains() {
        let mut t = EvtchnTable::new();
        let (d0, d1, d2) = (DomId(0), DomId(1), DomId(2));
        // d0<->d1 bound, d0->d2 bound, d1->d2 bound, d2 offers to d0.
        let p01 = t.alloc_unbound(d0, d1);
        let p10 = t.bind_interdomain(d1, d0, p01).unwrap();
        let p02 = t.alloc_unbound(d0, d2);
        t.bind_interdomain(d2, d0, p02).unwrap();
        let p12 = t.alloc_unbound(d1, d2);
        t.bind_interdomain(d2, d1, p12).unwrap();
        t.alloc_unbound(d2, d0);
        assert_eq!(t.open_channels(), 7);
        t.close_all(d2);
        assert_eq!(t.open_channels(), 2);
        t.send(d0, p01).unwrap();
        assert!(t.poll(d1, p10).unwrap());
        t.send(d1, p10).unwrap();
        assert!(t.poll(d0, p01).unwrap());
        assert_eq!(t.send(d0, p02), Err(EvtchnError::BadPort));
        assert_eq!(t.send(d1, p12), Err(EvtchnError::BadPort));
    }

    #[test]
    fn ports_are_per_domain() {
        let mut t = EvtchnTable::new();
        let p0 = t.alloc_unbound(DomId(0), DomId(1));
        let p1 = t.alloc_unbound(DomId(1), DomId(0));
        // Both get port 1 in their own space.
        assert_eq!(p0, p1);
    }
}
