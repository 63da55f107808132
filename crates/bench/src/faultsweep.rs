//! Fault-injection sweep: control-plane resilience under deterministic
//! faults (see DESIGN.md § Fault model).
//!
//! Sweeps the seeded fault rate against creation latency and success
//! rate for three representative toolstacks (xl, chaos [XS], LightVM).
//! Every injected failure is survived: the affected create rolls back
//! and is recorded per-domain while the other guests keep booting — the
//! process never panics. A per-site unit additionally drives each named
//! injection site at rate 1.0 to show which phases abort a create
//! outright and which only add retry latency.
//!
//! Determinism contract: the plan is seeded, so identical seeds produce
//! byte-identical artefacts; at rate 0 the plan never touches its RNG
//! and the run is byte-identical to a fault-free one (`ci.sh` gates
//! both properties).

use guests::GuestImage;
use metrics::{Series, Summary};
use simcore::{FaultPlan, FaultSite, Machine, MachinePreset};
use toolstack::{ControlPlane, ToolstackMode};

use crate::figures::{meta, Dep, FigureSpec, Scale, UnitOutput, UnitSpec};
use crate::worldcache::WorldSpec;

/// Injection probabilities swept per mode (0 = fault-free baseline).
const RATES: [f64; 5] = [0.0, 0.02, 0.05, 0.1, 0.2];

/// Seed for the fault plans (distinct from the plane's own seed so the
/// two RNG streams cannot alias).
const FAULT_SEED: u64 = 0xfa17;

fn machine() -> Machine {
    Machine::preset(MachinePreset::XeonE5_1630V3)
}

/// One mode's rate sweep: N create+boots per rate, counting per-domain
/// failures and averaging the successes' creation latency.
fn mode_unit(scale: Scale, mode: ToolstackMode) -> UnitSpec {
    let n = scale.scaled(200);
    // The rate-0 baseline reads the shared fault-free chain (same
    // world as the density figures); the faulty rates build their own.
    let zero_rate_spec = WorldSpec {
        machine: machine(),
        dom0_cores: 1,
        mode,
        image: GuestImage::unikernel_daytime(),
        seed: 42,
    };
    let dep_spec = zero_rate_spec.clone();
    UnitSpec::new(mode.label(), move |store| {
        let img = GuestImage::unikernel_daytime();
        let mut success = Series::new(format!("{}: success rate (%)", mode.label()));
        let mut mean_ok = Series::new(format!("{}: mean create (ms, successes)", mode.label()));
        let mut out = UnitOutput::new();
        for rate in RATES {
            // At rate 0 the plan never touches its RNG, so the world is
            // byte-identical to a fault-free one — which is exactly the
            // shared chain the density figures boot (same mode, machine,
            // image and seed). Read it instead of re-simulating; the
            // faulty rates genuinely diverge and build their own worlds.
            let (per, ok_times, injected) = if rate == 0.0 {
                let (info, records, stats) = store.records_at(&zero_rate_spec, n);
                let per = UnitOutput::from_info(&info);
                stats.into_output(&mut out);
                let ok_times: Vec<f64> =
                    records.iter().map(|r| r.create().as_millis_f64()).collect();
                (per, ok_times, 0u64)
            } else {
                let mut cp = ControlPlane::new(machine(), 1, mode, 42);
                cp.set_fault_plan(FaultPlan::seeded(FAULT_SEED, rate));
                cp.prewarm(&img);
                let mut ok_times = Vec::new();
                for k in 0..n {
                    // A failure is rolled back and recorded; the host
                    // keeps going.
                    if let Ok((_, create, _)) = cp.create_and_boot(&format!("{}-{k}", img.name), &img) {
                        ok_times.push(create.as_millis_f64());
                    }
                }
                debug_assert_eq!(cp.create_failures() as usize, n - ok_times.len());
                // Churn leak check (DESIGN.md §6h), on a throwaway fork
                // so the canonical artefacts are untouched: one more
                // create under injection — destroyed on success, rolled
                // back on failure — must return the world to
                // digest-identity. Cheap now that the digest is
                // O(changed). The pool is topped up fault-free on both
                // sides of the probe, mirroring proptest_faults: an
                // aborted shell refill legitimately leaves it one short.
                let mut probe = cp.fork();
                probe.set_fault_plan(FaultPlan::none());
                probe.prewarm(&img);
                let before = probe.world_digest64();
                probe.set_fault_plan(FaultPlan::seeded(FAULT_SEED ^ 1, rate));
                if let Ok((dom, ..)) = probe.create_and_boot("churn-probe", &img) {
                    probe.destroy_vm(dom).expect("churn probe destroy");
                }
                probe.set_fault_plan(FaultPlan::none());
                probe.prewarm(&img);
                assert_eq!(
                    probe.world_digest64(),
                    before,
                    "{} rate {rate}: churn probe leaked world state",
                    mode.label()
                );
                let injected = cp.faults.total_injected();
                (UnitOutput::from_plane(&cp), ok_times, injected)
            };
            success.push(rate, 100.0 * ok_times.len() as f64 / n as f64);
            mean_ok.push(
                rate,
                Summary::of(&ok_times).map(|s| s.mean).unwrap_or(0.0),
            );
            out.meta.push(meta(
                &format!("{}_rate{rate}_injected", mode.label()),
                injected,
            ));
            out.events += per.events;
            out.virtual_ms += ok_times.iter().sum::<f64>();
        }
        out.series = vec![success, mean_ok];
        out
    })
    .dep(Dep::Chain { spec: dep_spec, rung: n })
}

/// Drives every named injection site at rate 1.0 against a small pool:
/// shows which sites make a create fail outright (after the bounded
/// retries are exhausted) and which merely add latency, and that none of
/// them crash the control plane.
fn per_site_unit(mode: ToolstackMode) -> UnitSpec {
    let label = format!("per-site {}", mode.label());
    UnitSpec::new(label.clone(), move |_| {
        let img = GuestImage::unikernel_daytime();
        let mut s = Series::new(format!("{label}: failed creates of 10 (rate 1.0)"));
        let mut out = UnitOutput::new();
        for (x, site) in FaultSite::ALL.into_iter().enumerate() {
            let mut cp = ControlPlane::new(machine(), 1, mode, 42);
            cp.set_fault_plan(FaultPlan::at_site(FAULT_SEED, site));
            let mut failed = 0u64;
            for k in 0..10 {
                if cp.create_and_boot(&format!("vm-{k}"), &img).is_err() {
                    failed += 1;
                }
            }
            s.push(x as f64, failed as f64);
            out.meta.push(meta(
                &format!("{}_{}_failed", mode.label(), site.name()),
                failed,
            ));
            let per = UnitOutput::from_plane(&cp);
            out.events += per.events;
            out.virtual_ms += per.virtual_ms;
        }
        out.series = vec![s];
        out
    })
}

/// The fault sweep as a registry figure.
pub fn spec(scale: Scale) -> FigureSpec {
    FigureSpec {
        id: "faults",
        title: "Fault injection: create latency and success rate vs fault rate",
        xlabel: "fault rate (per-site series: site index)",
        ylabel: "success rate (%) / mean create (ms) / failed creates",
        sample_xs: RATES.to_vec(),
        meta: vec![
            meta("fault_seed", FAULT_SEED),
            meta(
                "sites",
                FaultSite::ALL
                    .into_iter()
                    .map(FaultSite::name)
                    .collect::<Vec<_>>()
                    .join(","),
            ),
        ],
        units: vec![
            mode_unit(scale, ToolstackMode::Xl),
            mode_unit(scale, ToolstackMode::ChaosXs),
            mode_unit(scale, ToolstackMode::LightVm),
            per_site_unit(ToolstackMode::ChaosXs),
            per_site_unit(ToolstackMode::LightVm),
        ],
    }
}
