//! Personal firewalls at the mobile edge (paper §7.1, Figure 16a).
//!
//! Each mobile user gets a ClickOS firewall VM on the MEC machine; we
//! boot the fleet through the LightVM control plane and evaluate the
//! data path with the fluid model of [`lvnet::FirewallFleet`]: linear
//! growth to 2.5 Gbps at 250 clients, CPU-bound beyond, with scheduler
//! queueing inflating RTT to ~60 ms at 1,000 active users.

use guests::GuestImage;
use lvnet::FirewallFleet;
use simcore::{Machine, MachinePreset, SimTime};
use toolstack::{ControlPlane, ToolstackMode};

/// One measurement point of the firewall experiment.
#[derive(Clone, Debug)]
pub struct FirewallPoint {
    /// Active users (each with a dedicated firewall VM).
    pub users: usize,
    /// Aggregate throughput, Gbps.
    pub total_gbps: f64,
    /// Average per-user throughput, Mbps.
    pub per_user_mbps: f64,
    /// Ping RTT including scheduler queueing, ms.
    pub rtt_ms: f64,
}

/// Result of the firewall experiment.
#[derive(Clone, Debug)]
pub struct FirewallResult {
    /// Points, one per requested fleet size.
    pub points: Vec<FirewallPoint>,
    /// Time to boot the largest fleet's last VM (ms).
    pub last_boot_ms: f64,
    /// Number of firewall VMs actually booted.
    pub booted: usize,
}

/// Runs the experiment for the given fleet sizes (paper: 1..=1000 on the
/// 14-core Xeon E5-2690 v4).
pub fn run(seed: u64, fleet_sizes: &[usize]) -> FirewallResult {
    let max = fleet_sizes.iter().copied().max().unwrap_or(0);
    let mut plane = ControlPlane::new(
        Machine::preset(MachinePreset::XeonE5_2690V4),
        2,
        ToolstackMode::LightVm,
        seed,
    );
    let image = GuestImage::clickos_firewall();
    plane.prewarm(&image);
    let mut last_boot = SimTime::ZERO;
    for k in 0..max {
        let name = format!("{}-{k}", image.name);
        let (_, create, boot) = plane
            .create_and_boot(&name, &image)
            .expect("firewall fleet boots");
        last_boot = create + boot;
    }

    let fleet = FirewallFleet::paper_setup();
    let points = fleet_sizes
        .iter()
        .map(|&users| FirewallPoint {
            users,
            total_gbps: fleet.total_throughput_bps(users) / 1e9,
            per_user_mbps: fleet.per_client_bps(users) / 1e6,
            rtt_ms: fleet.added_rtt(users).as_millis_f64(),
        })
        .collect();
    FirewallResult {
        points,
        last_boot_ms: last_boot.as_millis_f64(),
        booted: max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_16a_shape() {
        let r = run(7, &[1, 100, 250, 500, 1000]);
        assert_eq!(r.booted, 1000);
        let by_users = |u: usize| r.points.iter().find(|p| p.users == u).unwrap();
        // Linear region: 250 users get the full 10 Mbps each.
        assert!((by_users(250).total_gbps - 2.5).abs() < 0.05);
        assert!((by_users(250).per_user_mbps - 10.0).abs() < 0.1);
        // CPU-bound region.
        assert!(by_users(500).per_user_mbps < 8.0);
        assert!((3.3..4.8).contains(&by_users(1000).per_user_mbps));
        // RTT inflation.
        assert!(by_users(100).rtt_ms < 10.0);
        assert!((50.0..75.0).contains(&by_users(1000).rtt_ms));
    }

    #[test]
    fn firewall_vms_boot_in_about_10ms() {
        let r = run(8, &[50]);
        assert!(
            (3.0..20.0).contains(&r.last_boot_ms),
            "ClickOS boot took {} ms",
            r.last_boot_ms
        );
    }
}
