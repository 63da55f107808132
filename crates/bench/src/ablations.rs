//! Ablations of the design choices DESIGN.md calls out, packaged as a
//! registry figure so `runall` schedules them on the same thread pool as
//! the paper figures (closing the ROADMAP item about the ablation
//! harness living outside the runner):
//!
//! 1. XenStore access-log rotation on/off (spike provenance, §4.2);
//! 2. oxenstored vs cxenstored cost profiles (footnote 3);
//! 3. split-toolstack pool size vs creation latency;
//! 4. bash hotplug vs xendevd in isolation;
//! 5. transaction interference level vs conflict/retry rate;
//! 6. page sharing (§9 future work) vs achievable density;
//! 7. cost-model sensitivity: ±20% on the five dominant calibrated
//!    costs vs mean xl creation latency (how robust the reproduction's
//!    conclusions are to calibration error).
//!
//! Each ablation is one work unit; results are emitted as summary series
//! (x = the swept configuration value) plus metadata for the scalar
//! outcomes, and land in `ablations.{json,csv}` next to the figures.

use devices::{Hotplug, SoftwareSwitch};
use guests::GuestImage;
use hypervisor::DomId;
use metrics::{Series, Summary};
use simcore::{CostModel, Machine, MachinePreset, Meter};
use toolstack::{ControlPlane, ToolstackMode};
use xenstore::{Flavor, XsPath, Xenstored};

use crate::figures::{meta, FigureSpec, Scale, UnitOutput, UnitSpec};

fn machine() -> Machine {
    Machine::preset(MachinePreset::XeonE5_1630V3)
}

fn sweep_creates(cp: &mut ControlPlane, img: &GuestImage, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let (_, create, _) = cp.create_and_boot(&format!("vm-{i}"), img).unwrap();
            create.as_millis_f64()
        })
        .collect()
}

fn log_rotation_unit(scale: Scale) -> UnitSpec {
    let n = scale.scaled(500);
    UnitSpec::new("log-rotation", move |_| {
        let img = GuestImage::unikernel_daytime();
        let mut mean = Series::new("log-rotation: mean create (ms)");
        let mut p99 = Series::new("log-rotation: p99 create (ms)");
        let mut max = Series::new("log-rotation: max create (ms)");
        let mut out = UnitOutput::new();
        for (x, logging) in [(0.0, false), (1.0, true)] {
            let mut cp = ControlPlane::new(machine(), 1, ToolstackMode::Xl, 42);
            cp.xs.set_logging(logging);
            let times = sweep_creates(&mut cp, &img, n);
            let s = Summary::of(&times).unwrap();
            mean.push(x, s.mean);
            p99.push(x, s.p99);
            max.push(x, s.max);
            if logging {
                out.meta.push(meta("log_rotations", cp.xs.log_rotations()));
            }
            let per = UnitOutput::from_plane(&cp);
            out.events += per.events;
            out.virtual_ms += times.iter().sum::<f64>();
        }
        out.series = vec![mean, p99, max];
        out
    })
    .cost(95.0)
}

fn flavor_unit(_scale: Scale) -> UnitSpec {
    UnitSpec::new("xs-flavor", move |_| {
        let cost = CostModel::paper_defaults();
        let mut s = Series::new("flavor: 2000 writes (ms; 0=oxen, 1=cxen)");
        let mut out = UnitOutput::new();
        for (x, flavor) in [(0.0, Flavor::Oxenstored), (1.0, Flavor::Cxenstored)] {
            let mut xs = Xenstored::new(flavor, 42);
            let mut meter = Meter::new();
            for i in 0..2000 {
                let p = XsPath::parse(&format!("/bench/n{i}")).unwrap();
                xs.write(&cost, &mut meter, 0, &p, b"value").unwrap();
            }
            s.push(x, meter.total().as_millis_f64());
            out.events += xs.stats().requests;
            out.virtual_ms += meter.total().as_millis_f64();
        }
        out.series = vec![s];
        out
    })
    .cost(2.0)
}

fn pool_size_unit(scale: Scale) -> UnitSpec {
    let n = scale.scaled(500).min(200);
    UnitSpec::new("pool-size", move |_| {
        let img = GuestImage::unikernel_daytime();
        let mut mean = Series::new("pool: mean create (ms)");
        let mut p99 = Series::new("pool: p99 create (ms)");
        let mut out = UnitOutput::new();
        for pool in [0usize, 1, 8, 64] {
            let mut cp = ControlPlane::new(machine(), 1, ToolstackMode::LightVm, 42);
            cp.daemon.target = pool;
            cp.prewarm(&img);
            let times = sweep_creates(&mut cp, &img, n);
            let s = Summary::of(&times).unwrap();
            mean.push(pool as f64, s.mean);
            p99.push(pool as f64, s.p99);
            let (hits, misses) = cp.daemon.stats();
            out.meta.push(meta(&format!("pool{pool}_hit_miss"), format!("{hits}/{misses}")));
            let per = UnitOutput::from_plane(&cp);
            out.events += per.events;
            out.virtual_ms += times.iter().sum::<f64>();
        }
        out.series = vec![mean, p99];
        out
    })
    .cost(5.0)
}

fn hotplug_unit(_scale: Scale) -> UnitSpec {
    UnitSpec::new("hotplug", move |_| {
        let cost = CostModel::paper_defaults();
        let mut s = Series::new("hotplug: 100 vif plugs (ms; 0=bash, 1=xendevd)");
        let mut out = UnitOutput::new();
        for (x, hp) in [(0.0, Hotplug::BashScripts), (1.0, Hotplug::Xendevd)] {
            let mut sw = SoftwareSwitch::new();
            let mut meter = Meter::new();
            for i in 0..100u32 {
                hp.plug_vif(&cost, &mut meter, &mut sw, DomId(i + 1), 0).unwrap();
            }
            s.push(x, meter.total().as_millis_f64());
            out.events += 100;
            out.virtual_ms += meter.total().as_millis_f64();
        }
        out.series = vec![s];
        out
    })
    .cost(1.0)
}

fn interference_unit(scale: Scale) -> UnitSpec {
    let txns = scale.scaled(500);
    UnitSpec::new("interference", move |_| {
        let cost = CostModel::paper_defaults();
        let mut conflicts = Series::new("interference: txn conflicts");
        let mut retried = Series::new("interference: retried fraction (%)");
        let mut out = UnitOutput::new();
        for ambient in [0.0, 0.001, 0.005, 0.02] {
            let mut xs = Xenstored::new(Flavor::Oxenstored, 42);
            let mut meter = Meter::new();
            // Pre-populate nodes the transactions will read.
            for i in 0..10 {
                let p = XsPath::parse(&format!("/shared/n{i}")).unwrap();
                xs.write(&cost, &mut meter, 0, &p, b"v").unwrap();
            }
            xs.set_ambient_interference(ambient);
            for t in 0..txns {
                xs.transaction(&cost, &mut meter, 0, 16, |xs, cost, meter, id| {
                    for i in 0..10 {
                        let p = XsPath::parse(&format!("/shared/n{i}")).unwrap();
                        let _ = xs.txn_read(cost, meter, 0, id, &p)?;
                    }
                    let p = XsPath::parse(&format!("/out/t{t}")).unwrap();
                    xs.txn_write(cost, meter, 0, id, &p, b"done")
                })
                .unwrap();
            }
            let st = xs.stats();
            conflicts.push(ambient, st.txn_conflicts as f64);
            retried.push(
                ambient,
                100.0 * st.txn_conflicts as f64 / (st.txn_commits + st.txn_conflicts) as f64,
            );
            out.events += st.requests + st.watch_events;
            out.virtual_ms += meter.total().as_millis_f64();
        }
        out.series = vec![conflicts, retried];
        out
    })
    .cost(6.0)
}

fn page_sharing_unit(scale: Scale) -> UnitSpec {
    let cap = scale.scaled(4000);
    UnitSpec::new("page-sharing", move |_| {
        let mut s = Series::new("sharing: guests before OOM (8 GiB host)");
        let mut out = UnitOutput::new();
        for share in [None, Some(0.3), Some(0.6)] {
            let mut cp = ControlPlane::new(
                Machine::custom(4, 8 << 30), 1, ToolstackMode::ChaosNoxs, 42,
            );
            cp.set_page_sharing(share);
            let img = GuestImage::tinyx_noop();
            let mut n = 0;
            loop {
                match cp.create_and_boot(&format!("t-{n}"), &img) {
                    Ok(_) => n += 1,
                    Err(_) => break,
                }
                if n >= cap {
                    break;
                }
            }
            s.push(share.unwrap_or(0.0), n as f64);
            let per = UnitOutput::from_plane(&cp);
            out.events += per.events;
            out.virtual_ms += per.virtual_ms;
        }
        out.series = vec![s];
        out
    })
    .cost(5.0)
}

fn sensitivity_unit(scale: Scale) -> UnitSpec {
    let n = scale.scaled(200);
    UnitSpec::new("cost-sensitivity", move |_| {
        // One series per swept cost: x = scale factor on that single
        // cost (all others at calibration), y = mean xl create latency.
        // A reproduction conclusion that flips inside ±20% of one
        // primitive would be resting on calibration, not mechanism.
        let params: [(&str, fn(&mut CostModel, f64)); 5] = [
            ("xl_internal", |c, f| c.xl_internal = c.xl_internal.scale(f)),
            ("xl_qemu_spawn", |c, f| c.xl_qemu_spawn = c.xl_qemu_spawn.scale(f)),
            ("hotplug_bash", |c, f| c.hotplug_bash = c.hotplug_bash.scale(f)),
            ("mem_prep_per_mib", |c, f| {
                c.mem_prep_per_mib = c.mem_prep_per_mib.scale(f)
            }),
            ("xs_watch_fire", |c, f| c.xs_watch_fire = c.xs_watch_fire.scale(f)),
        ];
        let img = GuestImage::unikernel_daytime();
        let mut out = UnitOutput::new();
        let mean_create = |m: Machine, out: &mut UnitOutput| {
            let mut cp = ControlPlane::new(m, 1, ToolstackMode::Xl, 42);
            let times = sweep_creates(&mut cp, &img, n);
            out.events += UnitOutput::from_plane(&cp).events;
            out.virtual_ms += times.iter().sum::<f64>();
            Summary::of(&times).unwrap().mean
        };
        // Factor 1.0 leaves every cost at calibration (`SimTime::scale`
        // by 1.0 is the identity), so all five series share one run.
        let calibrated = mean_create(machine(), &mut out);
        for (name, tweak) in params {
            let mut s = Series::new(format!("sensitivity: {name} mean create (ms)"));
            for factor in [0.8, 1.0, 1.2] {
                let mean = if factor == 1.0 {
                    calibrated
                } else {
                    let mut m = machine();
                    tweak(&mut m.cost, factor);
                    mean_create(m, &mut out)
                };
                s.push(factor, mean);
            }
            out.series.push(s);
        }
        out
    })
    .cost(130.0)
}

/// The ablation suite as a registry figure: seven units, one per ablation.
pub fn spec(scale: Scale) -> FigureSpec {
    FigureSpec {
        id: "ablations",
        title: "Design-choice ablations (see DESIGN.md)",
        xlabel: "swept configuration value (per series)",
        ylabel: "outcome (per series)",
        sample_xs: vec![0.0, 1.0],
        meta: vec![meta("machine", "Xeon E5-1630 v3 unless noted")],
        units: vec![
            log_rotation_unit(scale),
            flavor_unit(scale),
            pool_size_unit(scale),
            hotplug_unit(scale),
            interference_unit(scale),
            page_sharing_unit(scale),
            sensitivity_unit(scale),
        ],
    }
}
