//! Just-in-time service instantiation (paper §7.2, Figure 16b).
//!
//! A dummy service boots a VM whenever it receives a packet from a new
//! client and tears it down after 2 s of inactivity. The worst-case
//! client-perceived latency is one ping against a VM that does not exist
//! yet: RTT = network + VM instantiation (+ ARP retry penalties once the
//! Linux bridge's broadcast path overloads at fast arrival rates).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use guests::GuestImage;
use lvnet::Bridge;
use simcore::{Machine, MachinePreset, SimRng, SimTime};
use toolstack::{ControlPlane, ToolstackMode};

/// Experiment configuration.
#[derive(Clone, Debug)]
pub struct JitConfig {
    /// Number of clients (pings) to serve.
    pub clients: usize,
    /// Open-loop inter-arrival time.
    pub inter_arrival: SimTime,
    /// Idle time before a VM is torn down (paper: 2 s).
    pub idle_teardown: SimTime,
    /// RNG seed.
    pub seed: u64,
}

impl JitConfig {
    /// The paper's setting at one of its four arrival rates.
    pub fn paper(inter_arrival_ms: u64, seed: u64) -> JitConfig {
        JitConfig {
            clients: 1000,
            inter_arrival: SimTime::from_millis(inter_arrival_ms),
            idle_teardown: SimTime::from_secs(2),
            seed,
        }
    }
}

/// Experiment outcome.
#[derive(Clone, Debug)]
pub struct JitResult {
    /// Client-perceived ping RTTs, in arrival order.
    pub rtts: Vec<SimTime>,
    /// ARP exchanges dropped by the overloaded bridge.
    pub drops: usize,
    /// Peak number of concurrently running service VMs.
    pub peak_vms: usize,
}

/// Base network RTT between client and MEC machine.
const NET_RTT: SimTime = SimTime::from_micros(500);

/// Runs the experiment.
pub fn run(cfg: &JitConfig) -> JitResult {
    let mut plane = ControlPlane::new(
        Machine::preset(MachinePreset::XeonE5_2690V4),
        2,
        ToolstackMode::LightVm,
        cfg.seed,
    );
    let image = GuestImage::clickos_firewall();
    plane.prewarm(&image);
    let bridge = Bridge::paper_setup();
    let mut rng = SimRng::new(cfg.seed ^ 0x117);

    let arrivals_per_sec = 1.0 / cfg.inter_arrival.as_secs_f64();
    // Pending teardowns as (deadline, arrival index, domid), earliest
    // first; the arrival index breaks deadline ties in launch order.
    let mut teardowns: BinaryHeap<Reverse<(SimTime, usize, u32)>> = BinaryHeap::new();
    let mut rtts = Vec::with_capacity(cfg.clients);
    let mut drops = 0;
    let mut peak = 0;

    for i in 0..cfg.clients {
        let now = cfg.inter_arrival * i as u64;
        // Idle VMs whose deadline is at or before `now` are reaped first.
        while let Some(&Reverse((deadline, _, dom))) = teardowns.peek() {
            if deadline > now {
                break;
            }
            teardowns.pop();
            let _ = plane.destroy_vm(hypervisor::DomId(dom));
        }

        // ARP resolution through the (possibly overloaded) bridge.
        let ports = plane.running_count();
        let p_drop = bridge.drop_probability(arrivals_per_sec, ports);
        let mut penalty = SimTime::ZERO;
        let mut attempts = 0;
        while attempts < 3 && rng.chance(p_drop) {
            penalty += bridge.drop_penalty();
            drops += 1;
            attempts += 1;
        }

        // Boot the service VM and answer the ping.
        let name = format!("{}-{i}", image.name);
        let (dom, create, boot) = plane
            .create_and_boot(&name, &image)
            .expect("jit service VM boots");
        let rtt = NET_RTT + create + boot + penalty;
        rtts.push(rtt);
        peak = peak.max(plane.running_count());
        teardowns.push(Reverse((now + rtt + cfg.idle_teardown, i, dom.0)));
    }

    JitResult {
        rtts,
        drops,
        peak_vms: peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::Cdf;

    fn rtt_ms(result: &JitResult) -> Vec<f64> {
        result.rtts.iter().map(|t| t.as_millis_f64()).collect()
    }

    #[test]
    fn slow_arrivals_see_low_latency_and_no_drops() {
        let r = run(&JitConfig::paper(100, 1));
        assert_eq!(r.drops, 0);
        let cdf = Cdf::of(&rtt_ms(&r)).unwrap();
        let median = cdf.percentile(50.0);
        assert!((5.0..25.0).contains(&median), "median {median} ms");
        // Few VMs alive at a time.
        assert!(r.peak_vms < 40, "peak {}", r.peak_vms);
    }

    #[test]
    fn paper_25ms_numbers() {
        // "with one new client every 25 ms, the client-measured latency
        // is 13ms in the median and 20ms at the 90%".
        let r = run(&JitConfig::paper(25, 2));
        let cdf = Cdf::of(&rtt_ms(&r)).unwrap();
        let median = cdf.percentile(50.0);
        let p90 = cdf.percentile(90.0);
        assert!((6.0..20.0).contains(&median), "median {median} ms");
        assert!(p90 < 35.0, "p90 {p90} ms");
        assert_eq!(r.drops, 0);
    }

    #[test]
    fn fast_arrivals_overload_the_bridge() {
        let r = run(&JitConfig::paper(10, 3));
        assert!(r.drops > 0, "10 ms arrivals should overload the bridge");
        let cdf = Cdf::of(&rtt_ms(&r)).unwrap();
        // Long tail: some pings waited for ARP retries...
        assert!(cdf.percentile(99.0) > 900.0);
        // ...but the bulk stayed fast.
        assert!(cdf.percentile(50.0) < 25.0);
    }

    #[test]
    fn vms_are_torn_down_after_idle() {
        // Naive recount of the reaping rule: after arrival i launches,
        // VM j <= i is still running unless its deadline
        // t_j + rtt_j + idle is at or before t_i.
        for (ms, seed) in [(10u64, 1u64), (25, 2), (50, 3), (100, 4)] {
            let cfg = JitConfig::paper(ms, seed);
            let r = run(&cfg);
            let arrival = |i: usize| cfg.inter_arrival * i as u64;
            let recount = (0..r.rtts.len())
                .map(|i| {
                    (0..=i)
                        .filter(|&j| {
                            j == i || arrival(j) + r.rtts[j] + cfg.idle_teardown > arrival(i)
                        })
                        .count()
                })
                .max()
                .expect("has arrivals");
            assert_eq!(r.peak_vms, recount, "{ms} ms arrivals, seed {seed}");
        }
    }
}
