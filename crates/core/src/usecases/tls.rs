//! High-density TLS termination (paper §7.3, Figure 16c).
//!
//! A CDN box terminates TLS for N customers, each needing an isolated
//! endpoint holding its long-term key. We boot the endpoint fleet (Tinyx
//! or unikernel) through the control plane and evaluate handshake
//! throughput with [`lvnet::TlsFleet`]: Tinyx tracks bare-metal
//! processes (~1,400 req/s at saturation); the axtls/lwip unikernel pays
//! a ~5x stack penalty.

use guests::GuestImage;
use lvnet::{TlsEndpointKind, TlsFleet};
use simcore::{Machine, MachinePreset, SimTime};
use toolstack::{ControlPlane, ToolstackMode};

/// One throughput point.
#[derive(Clone, Debug)]
pub struct TlsPoint {
    /// Endpoints serving.
    pub endpoints: usize,
    /// Requests per second.
    pub rps: f64,
}

/// One endpoint family's series.
#[derive(Clone, Debug)]
pub struct TlsSeries {
    /// Endpoint kind.
    pub kind: TlsEndpointKind,
    /// Throughput points.
    pub points: Vec<TlsPoint>,
    /// Guest boot time of one endpoint VM (ms; the §7.3 numbers: 6 ms
    /// unikernel, ~190 ms Tinyx); zero for bare metal.
    pub endpoint_boot_ms: f64,
    /// Memory per endpoint at runtime, bytes (0 for bare metal).
    pub endpoint_mem_bytes: u64,
}

/// Runs the experiment over the given endpoint counts for all three
/// endpoint families.
pub fn run(seed: u64, counts: &[usize]) -> Vec<TlsSeries> {
    [
        TlsEndpointKind::BareMetal,
        TlsEndpointKind::Tinyx,
        TlsEndpointKind::Unikernel,
    ]
    .into_iter()
    .map(|kind| {
        let fleet = TlsFleet::paper_setup(kind);
        let (boot, mem) = boot_one_endpoint(kind, seed);
        TlsSeries {
            kind,
            points: counts
                .iter()
                .map(|&n| TlsPoint {
                    endpoints: n,
                    rps: fleet.throughput_rps(n),
                })
                .collect(),
            endpoint_boot_ms: boot.as_millis_f64(),
            endpoint_mem_bytes: mem,
        }
    })
    .collect()
}

/// Boots a single endpoint of the given kind and reports (boot latency,
/// runtime memory).
fn boot_one_endpoint(kind: TlsEndpointKind, seed: u64) -> (SimTime, u64) {
    let image = match kind {
        TlsEndpointKind::BareMetal => return (SimTime::ZERO, 0),
        TlsEndpointKind::Tinyx => GuestImage::tinyx_tls(),
        TlsEndpointKind::Unikernel => GuestImage::unikernel_tls(),
    };
    let mut plane = ControlPlane::new(
        Machine::preset(MachinePreset::XeonE5_2690V4),
        2,
        ToolstackMode::LightVm,
        seed,
    );
    plane.prewarm(&image);
    let name = format!("{}-0", image.name);
    let (_, _, boot) = plane
        .create_and_boot(&name, &image)
        .expect("TLS endpoint boots");
    (boot, image.footprint_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1 << 20;

    fn series(kind: TlsEndpointKind) -> TlsSeries {
        run(5, &[1, 10, 100, 1000])
            .into_iter()
            .find(|s| s.kind == kind)
            .unwrap()
    }

    #[test]
    fn tinyx_saturates_near_bare_metal() {
        let bm = series(TlsEndpointKind::BareMetal);
        let tx = series(TlsEndpointKind::Tinyx);
        let sat_bm = bm.points.last().unwrap().rps;
        let sat_tx = tx.points.last().unwrap().rps;
        assert!((1200.0..1600.0).contains(&sat_bm), "{sat_bm}");
        assert!(sat_tx / sat_bm > 0.9);
    }

    #[test]
    fn unikernel_is_about_a_fifth_of_tinyx() {
        let tx = series(TlsEndpointKind::Tinyx);
        let uk = series(TlsEndpointKind::Unikernel);
        let ratio = uk.points.last().unwrap().rps / tx.points.last().unwrap().rps;
        assert!((0.15..0.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn endpoint_footprints_match_section_7_3() {
        // Unikernel: boots in ~6 ms, 16 MB RAM. Tinyx: ~190 ms, 40 MB.
        let uk = series(TlsEndpointKind::Unikernel);
        assert!((3.0..15.0).contains(&uk.endpoint_boot_ms), "{}", uk.endpoint_boot_ms);
        assert!((16 * MIB..18 * MIB).contains(&uk.endpoint_mem_bytes));
        let tx = series(TlsEndpointKind::Tinyx);
        assert!((120.0..260.0).contains(&tx.endpoint_boot_ms), "{}", tx.endpoint_boot_ms);
        assert!((40 * MIB..42 * MIB).contains(&tx.endpoint_mem_bytes));
    }

    #[test]
    fn throughput_grows_with_endpoints_until_saturation() {
        let tx = series(TlsEndpointKind::Tinyx);
        let rps: Vec<f64> = tx.points.iter().map(|p| p.rps).collect();
        assert!(rps[1] > rps[0]);
        assert!(rps[2] >= rps[1]);
        assert!((rps[3] - rps[2]).abs() < 1.0, "saturated region is flat");
    }
}
