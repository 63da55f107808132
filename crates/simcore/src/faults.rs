//! Deterministic fault injection for the control-plane simulation.
//!
//! A [`FaultPlan`] decides, at named [`FaultSite`]s, whether an operation
//! fails. The plan owns its own [`SimRng`] stream, independent from every
//! other stream in the simulation, so the sequence of injected faults is a
//! pure function of `(seed, sequence of should_inject calls)` — replaying a
//! run with the same seed reproduces the same faults at the same sites, and
//! the resulting figure artefacts are byte-identical.
//!
//! Determinism contract (relied on by the committed figures): a plan with a
//! zero rate consumes **no** RNG draws and charges **nothing**. The
//! fault-free control plane must be bit-for-bit indistinguishable from one
//! built before this module existed.

use crate::rng::SimRng;
use crate::time::SimTime;

/// Named places in the control plane where a fault can be injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// xenstored crashes and restarts, replaying its access log; open
    /// transactions are aborted and the toolstack waits out the restart.
    XsCrash,
    /// A burst of conflicting writers makes every transaction commit
    /// return `EAGAIN` until the storm passes.
    TxnStorm,
    /// The hotplug daemon (udev + script or xendevd) stops responding and
    /// the toolstack's watchdog timer expires.
    HotplugTimeout,
    /// The xenbus frontend/backend handshake stalls before reaching
    /// `Connected`.
    XenbusStall,
    /// The device backend refuses to allocate a vif/vbd (resource
    /// exhaustion on the backend side).
    BackendRefusal,
}

impl FaultSite {
    /// Every site, in a fixed order (used by sweeps and property tests).
    pub const ALL: [FaultSite; 5] = [
        FaultSite::XsCrash,
        FaultSite::TxnStorm,
        FaultSite::HotplugTimeout,
        FaultSite::XenbusStall,
        FaultSite::BackendRefusal,
    ];

    /// Stable label for artefacts and error messages.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::XsCrash => "xs-crash",
            FaultSite::TxnStorm => "txn-storm",
            FaultSite::HotplugTimeout => "hotplug-timeout",
            FaultSite::XenbusStall => "xenbus-stall",
            FaultSite::BackendRefusal => "backend-refusal",
        }
    }

    /// The site whose [`FaultSite::name`] is `name`.
    pub fn from_name(name: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|site| site.name() == name)
    }

    fn index(self) -> usize {
        match self {
            FaultSite::XsCrash => 0,
            FaultSite::TxnStorm => 1,
            FaultSite::HotplugTimeout => 2,
            FaultSite::XenbusStall => 3,
            FaultSite::BackendRefusal => 4,
        }
    }
}

/// How many times a phase is retried after a fault before the create is
/// abandoned and rolled back. Retry `k` charges `backoff(k)` of virtual
/// time on top of the watchdog timeout that detected the failure.
pub const FAULT_RETRIES: usize = 3;

/// Seeded, replayable fault-injection plan.
///
/// Construct with [`FaultPlan::none`] (never injects, never draws),
/// [`FaultPlan::seeded`] (injects at every site with probability `rate`),
/// or [`FaultPlan::at_site`] (always injects at exactly one site — used by
/// the leak property test to drive every abort path deterministically).
#[derive(Clone, Debug)]
pub struct FaultPlan {
    rate: f64,
    only: Option<FaultSite>,
    seed: u64,
    rng: SimRng,
    injected: [u64; FaultSite::ALL.len()],
}

impl FaultPlan {
    /// The always-healthy plan: never injects and — load-bearing for
    /// artefact byte-identity — never consumes an RNG draw.
    pub fn none() -> FaultPlan {
        FaultPlan {
            rate: 0.0,
            only: None,
            seed: 0,
            rng: SimRng::new(0),
            injected: [0; FaultSite::ALL.len()],
        }
    }

    /// Injects at every site with per-decision probability `rate`.
    /// A non-positive rate is exactly [`FaultPlan::none`].
    pub fn seeded(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            rate: rate.clamp(0.0, 1.0),
            only: None,
            seed,
            rng: SimRng::new(seed),
            injected: [0; FaultSite::ALL.len()],
        }
    }

    /// Always injects at `site` and nowhere else. Retry loops around the
    /// site will exhaust their budget, so the surrounding phase is
    /// guaranteed to take its abort path.
    pub fn at_site(seed: u64, site: FaultSite) -> FaultPlan {
        FaultPlan {
            rate: 1.0,
            only: Some(site),
            seed,
            rng: SimRng::new(seed),
            injected: [0; FaultSite::ALL.len()],
        }
    }

    /// True when this plan can ever inject a fault. Callers use this to
    /// skip fault bookkeeping entirely on the healthy path.
    pub fn is_active(&self) -> bool {
        self.rate > 0.0
    }

    /// The per-decision injection probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The seed this plan's stream was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Decides whether to inject a fault at `site`.
    ///
    /// An inactive plan (or a site outside an `at_site` restriction)
    /// returns `false` **without touching the RNG**; this is what keeps
    /// fault-free runs byte-identical to pre-fault-layer builds.
    pub fn should_inject(&mut self, site: FaultSite) -> bool {
        if self.rate <= 0.0 {
            return false;
        }
        if let Some(only) = self.only {
            if only != site {
                return false;
            }
        }
        let hit = self.rate >= 1.0 || self.rng.chance(self.rate);
        if hit {
            self.injected[site.index()] += 1;
        }
        hit
    }

    /// How many faults were injected at `site` so far.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site.index()]
    }

    /// Total faults injected across all sites.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Exponential backoff charged before retry `attempt` (0-based):
    /// `base << attempt`, capped at 8× base so a storm of retries stays
    /// bounded.
    pub fn backoff(base: SimTime, attempt: usize) -> SimTime {
        base * (1u64 << attempt.min(3))
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_plan_never_draws() {
        let mut plan = FaultPlan::none();
        let before = plan.rng.clone();
        for site in FaultSite::ALL {
            assert!(!plan.should_inject(site));
        }
        // The stream must be untouched: next draws match a pristine clone.
        let mut a = plan.rng;
        let mut b = before;
        for _ in 0..4 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_eq!(plan.injected, [0; 5]);
    }

    #[test]
    fn zero_rate_seeded_plan_is_inactive() {
        let mut plan = FaultPlan::seeded(42, 0.0);
        assert!(!plan.is_active());
        assert!(!plan.should_inject(FaultSite::XsCrash));
    }

    #[test]
    fn at_site_always_fires_and_only_there() {
        let mut plan = FaultPlan::at_site(7, FaultSite::HotplugTimeout);
        for _ in 0..10 {
            assert!(plan.should_inject(FaultSite::HotplugTimeout));
            assert!(!plan.should_inject(FaultSite::XsCrash));
            assert!(!plan.should_inject(FaultSite::BackendRefusal));
        }
        assert_eq!(plan.injected(FaultSite::HotplugTimeout), 10);
        assert_eq!(plan.total_injected(), 10);
    }

    #[test]
    fn same_seed_same_decisions() {
        let mut a = FaultPlan::seeded(1234, 0.3);
        let mut b = FaultPlan::seeded(1234, 0.3);
        for i in 0..200 {
            let site = FaultSite::ALL[i % FaultSite::ALL.len()];
            assert_eq!(a.should_inject(site), b.should_inject(site));
        }
        assert_eq!(a.total_injected(), b.total_injected());
    }

    #[test]
    fn rate_is_roughly_honoured() {
        let mut plan = FaultPlan::seeded(99, 0.25);
        let mut hits = 0u32;
        for _ in 0..4000 {
            if plan.should_inject(FaultSite::TxnStorm) {
                hits += 1;
            }
        }
        let p = f64::from(hits) / 4000.0;
        assert!((0.20..=0.30).contains(&p), "rate 0.25 measured {p}");
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let base = SimTime::from_micros(100);
        assert_eq!(FaultPlan::backoff(base, 0), base);
        assert_eq!(FaultPlan::backoff(base, 1), base * 2);
        assert_eq!(FaultPlan::backoff(base, 2), base * 4);
        assert_eq!(FaultPlan::backoff(base, 3), base * 8);
        assert_eq!(FaultPlan::backoff(base, 9), base * 8);
    }
}
