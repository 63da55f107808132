//! The figure registry: every paper figure decomposed into independent
//! work units for the parallel runner.
//!
//! A *unit* is the smallest independently computable slice of a figure —
//! typically one toolstack mode × guest image × machine sweep. Units
//! share nothing (each builds its own `ControlPlane`), so they can run
//! on any thread in any order; the runner merges their series back into
//! the figure in declared order, which makes the merged artefacts
//! byte-identical regardless of scheduling.

use container::{ContainerError, ContainerImage, DockerRuntime, ProcessRuntime, syscall_history};
use guests::GuestImage;
use lightvm::usecases::{firewall, jit, tls};
use lightvm::usecases::compute::ComputeConfig;
use lightvm::usecases::jit::JitConfig;
use metrics::{Cdf, Series};
use simcore::{Category, CostModel, Machine, MachinePreset};
use toolstack::{ControlPlane, ToolstackMode};

use crate::worldcache::{RungInfo, Store, WorldSpec};
use crate::{density_steps, series_ms, SweepPoint};

/// Run-size profile, passed explicitly so tests can pin it without
/// mutating the environment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Reduced-scale run (1/10 sizes, min 10) — `LIGHTVM_QUICK`.
    pub quick: bool,
}

impl Scale {
    /// Reads the profile from `LIGHTVM_QUICK`.
    pub fn from_env() -> Scale {
        Scale {
            quick: std::env::var_os("LIGHTVM_QUICK").is_some(),
        }
    }

    /// Full scale.
    pub fn full() -> Scale {
        Scale { quick: false }
    }

    /// Quick scale.
    pub fn quick() -> Scale {
        Scale { quick: true }
    }

    /// Applies the profile to a run size.
    pub fn scaled(&self, n: usize) -> usize {
        if self.quick {
            (n / 10).max(10)
        } else {
            n
        }
    }
}

/// What a unit hands back to the runner.
pub struct UnitOutput {
    /// Series to merge into the figure, in order.
    pub series: Vec<Series>,
    /// Figure metadata contributed by this unit.
    pub meta: Vec<(String, String)>,
    /// Simulated virtual time covered, in milliseconds.
    pub virtual_ms: f64,
    /// Simulation events processed (xenstored requests + watch events
    /// for toolstack units; operation counts for container units).
    pub events: u64,
    /// Deepest the unit's engine event queue ever got (0 when the unit
    /// does not drive a timer engine).
    pub peak_queue_depth: usize,
    /// Events the unit scheduled on its engine (0 likewise).
    pub events_scheduled: u64,
    /// World-store results this unit reused (chain rung, probe walk or
    /// compute run).
    pub snapshot_hits: u64,
    /// World forks the unit performed itself (fig02's pristine hosts,
    /// the cluster units' stamped hosts).
    pub snapshot_forks: u64,
    /// create+boot sequences the worldcache saved the unit.
    pub boot_events_saved: u64,
}

impl UnitOutput {
    pub(crate) fn new() -> UnitOutput {
        UnitOutput {
            series: Vec::new(),
            meta: Vec::new(),
            virtual_ms: 0.0,
            events: 0,
            peak_queue_depth: 0,
            events_scheduled: 0,
            snapshot_hits: 0,
            snapshot_forks: 0,
            boot_events_saved: 0,
        }
    }

    pub(crate) fn from_plane(cp: &ControlPlane) -> UnitOutput {
        // Count discrete simulation events: XenStore protocol requests
        // and watch deliveries, plus CPU-model task registrations so
        // that noxs-mode units (which bypass the store) report their
        // real work instead of zero.
        let stats = cp.xs.stats();
        UnitOutput {
            series: Vec::new(),
            meta: Vec::new(),
            virtual_ms: cp.cpu.now().as_millis_f64(),
            events: stats.requests + stats.watch_events + cp.cpu.tasks_started(),
            peak_queue_depth: 0,
            events_scheduled: 0,
            snapshot_hits: 0,
            snapshot_forks: 0,
            boot_events_saved: 0,
        }
    }

    /// The observables [`from_plane`] would read off the live world,
    /// served instead from the [`RungInfo`] a chain task published —
    /// same numbers, no world contact.
    pub(crate) fn from_info(info: &RungInfo) -> UnitOutput {
        let mut out = UnitOutput::new();
        out.virtual_ms = info.virtual_ms;
        out.events = info.events;
        out
    }
}

/// A shared resource a unit consumes. Units declare these instead of
/// lazily racing to build caches: the planner (`crate::sched`) turns
/// each distinct dependency into exactly one producing task, whose
/// result the run's [`Store`] keeps, and gates the unit on it,
/// so the expensive builds are scheduled explicitly — pipelined,
/// critical-path first — and units run as pure readers. With the cache
/// off no producer tasks exist and the unit bodies simulate inline,
/// byte-identically.
pub enum Dep {
    /// Records and rung observables of `spec`'s chain at `rung`
    /// ([`Store::records_at`]).
    Chain { spec: WorldSpec, rung: usize },
    /// The probe walk for (mode, steps) ([`Store::walk`]).
    Walk { mode: ToolstackMode, steps: Vec<usize> },
    /// The overload simulation for `cfg` ([`Store::compute`]).
    Compute { cfg: ComputeConfig },
}

impl Dep {
    /// One-line rendering for `runall --list` and traces.
    pub fn describe(&self) -> String {
        match self {
            Dep::Chain { spec, rung } => format!("chain {}@{rung}", spec.label()),
            Dep::Walk { mode, steps } => {
                format!("walk {} ({} steps)", mode.label(), steps.len())
            }
            Dep::Compute { cfg } => format!("compute {}/{}", cfg.mode.label(), cfg.requests),
        }
    }
}

/// One independently runnable slice of a figure.
pub struct UnitSpec {
    /// Label, unique within the figure (e.g. the mode or image name).
    pub label: String,
    /// Shared resources this unit reads (empty for self-contained
    /// units). The scheduler orders the unit after their producers.
    pub deps: Vec<Dep>,
    /// Rough expected wall-clock in milliseconds at full scale, for
    /// critical-path-first ordering. Only relative magnitude matters;
    /// mis-estimates cost schedule quality, never correctness.
    pub cost_hint: f64,
    /// The computation. Runs on an arbitrary worker thread and reads
    /// shared worlds through the run's store.
    pub run: Box<dyn FnOnce(&Store) -> UnitOutput + Send>,
}

impl UnitSpec {
    pub(crate) fn new(
        label: impl Into<String>,
        run: impl FnOnce(&Store) -> UnitOutput + Send + 'static,
    ) -> UnitSpec {
        UnitSpec {
            label: label.into(),
            deps: Vec::new(),
            cost_hint: 1.0,
            run: Box::new(run),
        }
    }

    /// Declares a resource dependency.
    pub(crate) fn dep(mut self, dep: Dep) -> UnitSpec {
        self.deps.push(dep);
        self
    }

    /// Sets the cost hint (ms at full scale, from the perf report).
    pub(crate) fn cost(mut self, ms: f64) -> UnitSpec {
        self.cost_hint = ms;
        self
    }
}

/// A figure: header fields plus its ordered unit list.
pub struct FigureSpec {
    pub id: &'static str,
    pub title: &'static str,
    pub xlabel: &'static str,
    pub ylabel: &'static str,
    /// x positions at which `render_table` samples the series.
    pub sample_xs: Vec<f64>,
    /// Figure-level metadata independent of any unit.
    pub meta: Vec<(String, String)>,
    pub units: Vec<UnitSpec>,
}

impl FigureSpec {
    /// Assembles the final figure from this spec's header and the unit
    /// outputs, which must be in declared unit order.
    pub fn merge(&self, outputs: Vec<UnitOutput>) -> metrics::Figure {
        let mut fig = metrics::Figure::new(self.id, self.title, self.xlabel, self.ylabel);
        for out in outputs {
            for s in out.series {
                fig.push_series(s);
            }
            for (k, v) in out.meta {
                fig.set_meta(k, v);
            }
        }
        for (k, v) in &self.meta {
            fig.set_meta(k, v);
        }
        fig
    }
}

pub(crate) fn meta(k: &str, v: impl ToString) -> (String, String) {
    (k.to_string(), v.to_string())
}

pub(crate) fn xeon() -> Machine {
    Machine::preset(MachinePreset::XeonE5_1630V3)
}

/// A create/boot density sweep as a unit: one mode × image × machine.
fn sweep_unit(
    label: impl Into<String>,
    machine: Machine,
    dom0_cores: usize,
    mode: ToolstackMode,
    image: GuestImage,
    n: usize,
    seed: u64,
    series_of: impl Fn(&str, &[SweepPoint]) -> Vec<Series> + Send + 'static,
) -> UnitSpec {
    let label = label.into();
    let unit_label = label.clone();
    let spec = WorldSpec {
        machine,
        dom0_cores,
        mode,
        image,
        seed,
    };
    let dep_spec = spec.clone();
    UnitSpec::new(unit_label, move |store| {
        let (info, records, stats) = store.records_at(&spec, n);
        let mut out = UnitOutput::from_info(&info);
        let points: Vec<SweepPoint> = records
            .iter()
            .enumerate()
            .map(|(i, r)| SweepPoint {
                n_before: i,
                create: r.create(),
                boot: r.boot,
            })
            .collect();
        stats.into_output(&mut out);
        // Creates don't advance the CPU model's clock, so the simulated
        // time of a density sweep is the sum of its create+boot spans.
        out.virtual_ms = points
            .iter()
            .map(|p| p.create.as_millis_f64() + p.boot.as_millis_f64())
            .sum();
        out.series = series_of(&label, &points);
        out
    })
    .dep(Dep::Chain { spec: dep_spec, rung: n })
}

// ---------------------------------------------------------------------
// Individual figures
// ---------------------------------------------------------------------

fn fig01(_scale: Scale) -> FigureSpec {
    FigureSpec {
        id: "fig01",
        title: "Linux syscall count by release year (x86_32)",
        xlabel: "year",
        ylabel: "no. of syscalls",
        sample_xs: syscall_history().iter().map(|r| r.year as f64).collect(),
        meta: vec![meta("source", "curated x86_32 syscall-table history")],
        units: vec![UnitSpec::new("syscalls", |_| {
            let hist = syscall_history();
            let mut out = UnitOutput::new();
            out.series.push(Series::from_points(
                "syscalls",
                hist.iter().map(|r| (r.year as f64, r.syscalls as f64)),
            ));
            out.events = hist.len() as u64;
            out
        })],
    }
}

const MIB: u64 = 1 << 20;

fn fig02(_scale: Scale) -> FigureSpec {
    let sizes_mb: Vec<u64> = (0..=10).map(|i| i * 100).collect();
    let sample_xs: Vec<f64> = sizes_mb.iter().map(|&s| s as f64).collect();
    FigureSpec {
        id: "fig02",
        title: "Instantiation time vs image size (ramdisk-backed)",
        xlabel: "VM image size (MB)",
        ylabel: "boot time (ms)",
        sample_xs,
        meta: vec![
            meta("machine", "Xeon E5-1630 v3"),
            meta("toolstack", "chaos [NoXS]"),
        ],
        units: vec![UnitSpec::new("padded-image", move |_| {
            let mut series = Series::new("daytime unikernel (padded)");
            let mut out = UnitOutput::new();
            // Each size must boot on a pristine host (fresh RNG, zero
            // density), but the host itself does not depend on the
            // image: build it once and fork per measurement instead of
            // re-running plane construction eleven times — same bytes,
            // a third fewer allocations (the old per-size construction
            // made this unit the report's allocs/event outlier).
            let base = ControlPlane::new(xeon(), 1, ToolstackMode::ChaosNoxs, 42);
            let unpadded = GuestImage::unikernel_daytime();
            for &mb in &sizes_mb {
                let mut cp = base.fork();
                let image = unpadded.clone().padded(mb * MIB);
                let (_, create, boot) = cp.create_and_boot("padded", &image).expect("boots");
                series.push(mb as f64, (create + boot).as_millis_f64());
                let per = UnitOutput::from_plane(&cp);
                out.virtual_ms += (create + boot).as_millis_f64();
                out.events += per.events;
                out.snapshot_forks += 1;
            }
            out.series.push(series);
            out
        })],
    }
}

fn fig04(scale: Scale) -> FigureSpec {
    let n = scale.scaled(1000);
    let mut units = Vec::new();
    for (img, label) in [
        (GuestImage::debian(), "Debian"),
        (GuestImage::tinyx_noop(), "Tinyx"),
        (GuestImage::unikernel_daytime(), "MiniOS"),
    ] {
        units.push(sweep_unit(
            label,
            xeon(),
            1,
            ToolstackMode::Xl,
            img,
            n,
            42,
            |label, pts| {
                vec![
                    series_ms(&format!("{label} Create"), pts, |p| p.create),
                    series_ms(&format!("{label} Boot"), pts, |p| p.boot),
                ]
            },
        ));
    }
    units.push(UnitSpec::new("docker", move |_| {
        let cost = CostModel::paper_defaults();
        let mut docker = DockerRuntime::new(ContainerImage::noop(), xeon().mem_bytes, 42);
        let mut create_s = Series::new("Docker Boot");
        let mut run_s = Series::new("Docker Run");
        let mut out = UnitOutput::new();
        for i in 0..n {
            let create = docker.create_time(&cost);
            let (_, run) = docker.run(&cost).expect("docker fits at this scale");
            create_s.push(i as f64 + 1.0, create.as_millis_f64());
            run_s.push(i as f64 + 1.0, run.as_millis_f64());
            out.virtual_ms += (create + run).as_millis_f64();
        }
        out.events = 2 * n as u64;
        out.series = vec![create_s, run_s];
        out
    }));
    units.push(UnitSpec::new("process", move |_| {
        let cost = CostModel::paper_defaults();
        let mut procs = ProcessRuntime::new(42);
        let mut proc_s = Series::new("Process Create");
        let mut out = UnitOutput::new();
        for i in 0..n {
            let (_, dt) = procs.spawn(&cost);
            proc_s.push(i as f64 + 1.0, dt.as_millis_f64());
            out.virtual_ms += dt.as_millis_f64();
        }
        out.events = n as u64;
        out.series = vec![proc_s];
        out
    }));
    FigureSpec {
        id: "fig04",
        title: "Creation and boot times vs number of running guests (xl toolstack)",
        xlabel: "number of running guests",
        ylabel: "time (ms)",
        sample_xs: density_steps(n).iter().map(|&v| v as f64).collect(),
        meta: vec![
            meta("machine", "Xeon E5-1630 v3, 1 Dom0 core + 3 guest cores"),
            meta("guests", n),
        ],
        units,
    }
}

fn fig05(scale: Scale) -> FigureSpec {
    let n = scale.scaled(1000);
    FigureSpec {
        id: "fig05",
        title: "xl creation-overhead breakdown (daytime unikernel)",
        xlabel: "number of running guests",
        ylabel: "time (ms)",
        sample_xs: density_steps(n).iter().map(|&v| v as f64).collect(),
        meta: vec![meta("machine", "Xeon E5-1630 v3")],
        units: vec![{
            let spec = WorldSpec {
                machine: xeon(),
                dom0_cores: 1,
                mode: ToolstackMode::Xl,
                image: GuestImage::unikernel_daytime(),
                seed: 42,
            };
            let dep_spec = spec.clone();
            UnitSpec::new("xl-breakdown", move |store| {
            // Same world as the fig04/fig09 xl sweeps; the chain's
            // per-create meters carry the full category breakdown, and
            // the rung observables carry the store-health metadata.
            let (info, records, stats) = store.records_at(&spec, n);
            let mut out = UnitOutput::from_info(&info);
            let (rotations, conflicts) = (info.log_rotations, info.txn_conflicts);
            let cats = [
                Category::Toolstack,
                Category::Load,
                Category::Devices,
                Category::Xenstore,
                Category::Hypervisor,
                Category::Config,
            ];
            let mut series: Vec<Series> = cats.iter().map(|c| Series::new(c.label())).collect();
            let mut sim_ms = 0.0;
            for (i, r) in records.iter().enumerate() {
                sim_ms += r.meter.total().as_millis_f64();
                for (s, c) in series.iter_mut().zip(cats.iter()) {
                    s.push(i as f64 + 1.0, r.meter.of(*c).as_millis_f64());
                }
            }
            stats.into_output(&mut out);
            out.virtual_ms = sim_ms;
            out.meta = vec![
                meta("log_rotations", rotations),
                meta("txn_conflicts", conflicts),
            ];
            out.series = series;
            out
            })
            .dep(Dep::Chain { spec: dep_spec, rung: n })
        }],
    }
}

fn fig09(scale: Scale) -> FigureSpec {
    let n = scale.scaled(1000);
    let units = [
        ToolstackMode::Xl,
        ToolstackMode::ChaosXs,
        ToolstackMode::ChaosXsSplit,
        ToolstackMode::ChaosNoxs,
        ToolstackMode::LightVm,
    ]
    .into_iter()
    .map(|mode| {
        sweep_unit(
            mode.label(),
            xeon(),
            1,
            mode,
            GuestImage::unikernel_daytime(),
            n,
            42,
            |label, pts| vec![series_ms(label, pts, |p| p.create)],
        )
    })
    .collect();
    FigureSpec {
        id: "fig09",
        title: "Creation time under each mechanism combination (daytime unikernel)",
        xlabel: "number of running VMs",
        ylabel: "creation time (ms)",
        sample_xs: density_steps(n).iter().map(|&v| v as f64).collect(),
        meta: vec![meta("machine", "Xeon E5-1630 v3, 1 Dom0 core + 3 guest cores")],
        units,
    }
}

fn fig10(scale: Scale) -> FigureSpec {
    let n_vms = scale.scaled(8000);
    let machine = Machine::preset(MachinePreset::AmdOpteron4X6376);
    let machine_name = machine.name;
    let mut units = vec![sweep_unit(
        "LightVM",
        machine.clone(),
        4,
        ToolstackMode::LightVm,
        GuestImage::unikernel_noop(),
        n_vms,
        42,
        |label, pts| vec![series_ms(label, pts, |p| p.create + p.boot)],
    )];
    units.push(UnitSpec::new("docker", move |_| {
        let cost = machine.cost.clone();
        let mut docker = DockerRuntime::new(ContainerImage::noop(), machine.mem_bytes, 42);
        let mut docker_s = Series::new("Docker");
        let mut out = UnitOutput::new();
        let mut i = 0usize;
        loop {
            match docker.run(&cost) {
                Ok((_, dt)) => {
                    i += 1;
                    docker_s.push(i as f64, dt.as_millis_f64());
                    out.virtual_ms += dt.as_millis_f64();
                }
                Err(ContainerError::OutOfMemory(_)) => break,
                Err(e) => panic!("docker failed unexpectedly: {e}"),
            }
            if i >= n_vms {
                break;
            }
        }
        out.events = i as u64;
        out.meta = vec![meta("docker_stopped_at", i)];
        out.series = vec![docker_s];
        out
    }));
    FigureSpec {
        id: "fig10",
        title: "LightVM instantiation vs Docker at high density (64-core AMD)",
        xlabel: "number of running VMs/containers",
        ylabel: "time (ms)",
        sample_xs: [1, 500, 1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000]
            .iter()
            .map(|&v| v as f64)
            .filter(|&v| v <= n_vms as f64)
            .collect(),
        meta: vec![meta("machine", machine_name)],
        units,
    }
}

fn fig11(scale: Scale) -> FigureSpec {
    let n = scale.scaled(1000);
    let mut units = vec![
        sweep_unit(
            "Tinyx over LightVM",
            xeon(),
            1,
            ToolstackMode::LightVm,
            GuestImage::tinyx_noop(),
            n,
            42,
            |label, pts| vec![series_ms(label, pts, |p| p.boot)],
        ),
        sweep_unit(
            "Unikernel over LightVM",
            xeon(),
            1,
            ToolstackMode::LightVm,
            GuestImage::unikernel_daytime(),
            n,
            43,
            |label, pts| vec![series_ms(label, pts, |p| p.boot)],
        ),
    ];
    units.push(UnitSpec::new("docker", move |_| {
        let cost = CostModel::paper_defaults();
        let mut docker = DockerRuntime::new(ContainerImage::noop(), xeon().mem_bytes, 42);
        let mut docker_s = Series::new("Docker");
        let mut out = UnitOutput::new();
        for i in 0..n {
            let (_, dt) = docker.run(&cost).expect("fits");
            docker_s.push(i as f64 + 1.0, dt.as_millis_f64());
            out.virtual_ms += dt.as_millis_f64();
        }
        out.events = n as u64;
        out.series = vec![docker_s];
        out
    }));
    FigureSpec {
        id: "fig11",
        title: "Boot times: unikernel vs Tinyx vs Docker",
        xlabel: "number of running VMs/containers",
        ylabel: "boot time (ms)",
        sample_xs: density_steps(n).iter().map(|&v| v as f64).collect(),
        meta: vec![meta("machine", xeon().name)],
        units,
    }
}

/// One mode of the Figure 12 checkpoint/restore sweep.
fn checkpoint_unit(mode: ToolstackMode, plot_save: bool, steps: Vec<usize>) -> UnitSpec {
    let dep = Dep::Walk {
        mode,
        steps: steps.clone(),
    };
    UnitSpec::new(mode.label(), move |store| {
        // One shared probe walk serves fig12a, fig12b and fig13: the
        // destructive save/restore probes run on throwaway forks at
        // every density while the walk's source world grows pristine.
        let (walk, stats) = store.walk(mode, &steps);
        let mut s = Series::new(mode.label());
        for row in &walk.rows {
            s.push(
                row.n as f64,
                if plot_save { row.save_ms } else { row.restore_ms },
            );
        }
        let mut out = UnitOutput::new();
        out.events = walk.probe.events;
        out.virtual_ms = walk.probe.virtual_ms;
        stats.into_output(&mut out);
        out.series = vec![s];
        out
    })
    .dep(dep)
}

fn fig12(scale: Scale, id: &'static str, title: &'static str, plot_save: bool) -> FigureSpec {
    let max = scale.scaled(1000);
    let steps = density_steps(max);
    let modes: &[ToolstackMode] = if plot_save {
        &[ToolstackMode::Xl, ToolstackMode::ChaosXs, ToolstackMode::LightVm]
    } else {
        &[
            ToolstackMode::Xl,
            ToolstackMode::ChaosXs,
            ToolstackMode::ChaosNoxs,
            ToolstackMode::LightVm,
        ]
    };
    FigureSpec {
        id,
        title,
        xlabel: "number of running VMs",
        ylabel: "time (ms)",
        sample_xs: steps.iter().map(|&v| v as f64).collect(),
        meta: vec![meta("machine", "Xeon E5-1630 v3, 2 Dom0 cores")],
        units: modes
            .iter()
            .map(|&mode| checkpoint_unit(mode, plot_save, steps.clone()))
            .collect(),
    }
}

fn fig13(scale: Scale) -> FigureSpec {
    let max = scale.scaled(1000);
    let steps = density_steps(max);
    let units = [
        ToolstackMode::Xl,
        ToolstackMode::ChaosXs,
        ToolstackMode::ChaosNoxs,
        ToolstackMode::LightVm,
    ]
    .into_iter()
    .map(|mode| {
        let steps = steps.clone();
        let dep = Dep::Walk {
            mode,
            steps: steps.clone(),
        };
        UnitSpec::new(mode.label(), move |store| {
            // Migration mutates the source (the migrated VM leaves it),
            // so the shared probe walk migrates out of throwaway forks
            // at every density; the destination accumulates normally.
            let (walk, stats) = store.walk(mode, &steps);
            let mut s = Series::new(mode.label());
            for row in &walk.rows {
                s.push(row.n as f64, row.migrate_ms);
            }
            let mut out = UnitOutput::new();
            out.events = walk.probe.events + walk.dst_events;
            out.virtual_ms = walk.probe.virtual_ms;
            stats.into_output(&mut out);
            out.series = vec![s];
            out
        })
        .dep(dep)
    })
    .collect();
    FigureSpec {
        id: "fig13",
        title: "Migration times (daytime unikernel, 1 Gbps LAN)",
        xlabel: "number of running VMs",
        ylabel: "time (ms)",
        sample_xs: steps.iter().map(|&v| v as f64).collect(),
        meta: vec![
            meta("machine", "Xeon E5-1630 v3, 2 Dom0 cores"),
            meta("link", "1 Gbps / 0.1 ms"),
        ],
        units,
    }
}

fn fig14(scale: Scale) -> FigureSpec {
    const MB: f64 = 1e6;
    let n = scale.scaled(1000);
    let steps = density_steps(n);
    let mut units = Vec::new();
    {
        let steps = steps.clone();
        units.push(UnitSpec::new("vm-families", move |_| {
            let mut out = UnitOutput::new();
            for (img, label) in [
                (GuestImage::debian(), "Debian"),
                (GuestImage::tinyx_micropython(), "Tinyx"),
                (GuestImage::unikernel_minipython(), "Minipython"),
            ] {
                let per = img.footprint_bytes() as f64;
                out.series.push(Series::from_points(
                    label,
                    steps.iter().map(|&k| (k as f64, k as f64 * per / MB)),
                ));
            }
            out.events = 3 * steps.len() as u64;
            out
        }));
    }
    {
        let steps = steps.clone();
        units.push(UnitSpec::new("docker", move |_| {
            let cost = CostModel::paper_defaults();
            let mut docker =
                DockerRuntime::new(ContainerImage::micropython(), xeon().mem_bytes, 42);
            let mut s = Series::new("Docker Micropython");
            for i in 1..=n {
                docker.run(&cost).expect("fits");
                if steps.contains(&i) {
                    s.push(i as f64, docker.container_memory() as f64 / MB);
                }
            }
            let mut out = UnitOutput::new();
            out.events = n as u64;
            out.series = vec![s];
            out
        }));
    }
    {
        let steps = steps.clone();
        units.push(UnitSpec::new("process", move |_| {
            let cost = CostModel::paper_defaults();
            let mut procs = ProcessRuntime::new(42);
            let mut s = Series::new("Micropython Process");
            for i in 1..=n {
                procs.spawn(&cost);
                if steps.contains(&i) {
                    s.push(i as f64, procs.total_memory() as f64 / MB);
                }
            }
            let mut out = UnitOutput::new();
            out.events = n as u64;
            out.series = vec![s];
            out
        }));
    }
    FigureSpec {
        id: "fig14",
        title: "Memory usage vs instance count (Micropython workload)",
        xlabel: "instances",
        ylabel: "memory usage (MB)",
        sample_xs: steps.iter().map(|&v| v as f64).collect(),
        meta: Vec::new(),
        units,
    }
}

fn fig15(scale: Scale) -> FigureSpec {
    let n = scale.scaled(1000);
    let steps = density_steps(n);
    let mut units = Vec::new();
    for (img, label) in [
        (GuestImage::debian(), "Debian"),
        (GuestImage::tinyx_noop(), "Tinyx"),
        (GuestImage::unikernel_noop(), "Unikernel"),
    ] {
        let steps = steps.clone();
        let spec = WorldSpec {
            machine: xeon(),
            dom0_cores: 1,
            mode: ToolstackMode::LightVm,
            image: img,
            seed: 42,
        };
        let dep_spec = spec.clone();
        units.push(
            UnitSpec::new(label, move |store| {
                let (info, records, stats) = store.records_at(&spec, n);
                let mut out = UnitOutput::from_info(&info);
                let mut s = Series::new(label);
                for &i in &steps {
                    // Utilisation is sampled on the density ladder only;
                    // every fig15 step is on it by construction.
                    debug_assert!(records[i - 1].util_after.is_finite());
                    s.push(i as f64, records[i - 1].util_after * 100.0);
                }
                stats.into_output(&mut out);
                out.series = vec![s];
                out
            })
            .dep(Dep::Chain { spec: dep_spec, rung: n }),
        );
    }
    {
        let steps = steps.clone();
        units.push(UnitSpec::new("docker", move |_| {
            let cost = CostModel::paper_defaults();
            let machine = xeon();
            let mut docker = DockerRuntime::new(ContainerImage::noop(), machine.mem_bytes, 42);
            let mut s = Series::new("Docker");
            for i in 1..=n {
                docker.run(&cost).expect("fits");
                if steps.contains(&i) {
                    s.push(
                        i as f64,
                        docker.idle_cpu_demand() / machine.cores as f64 * 100.0,
                    );
                }
            }
            let mut out = UnitOutput::new();
            out.events = n as u64;
            out.series = vec![s];
            out
        }));
    }
    FigureSpec {
        id: "fig15",
        title: "CPU utilisation vs number of idle guests",
        xlabel: "number of running VMs/containers",
        ylabel: "CPU utilisation (%)",
        sample_xs: steps.iter().map(|&v| v as f64).collect(),
        meta: vec![meta("machine", xeon().name)],
        units,
    }
}

fn fig16a(_scale: Scale) -> FigureSpec {
    let sizes = [1usize, 100, 250, 500, 750, 1000];
    FigureSpec {
        id: "fig16a",
        title: "Personal firewalls: throughput and RTT vs active users (ClickOS)",
        xlabel: "# running VMs",
        ylabel: "Gbps / ms",
        sample_xs: sizes.iter().map(|&v| v as f64).collect(),
        meta: vec![meta("machine", "Xeon E5-2690 v4 (14 cores)")],
        units: vec![UnitSpec::new("firewall", move |_| {
            let r = firewall::run(42, &sizes);
            let mut out = UnitOutput::new();
            out.series = vec![
                Series::from_points(
                    "Throughput (Gbps)",
                    r.points.iter().map(|p| (p.users as f64, p.total_gbps)),
                ),
                Series::from_points(
                    "RTT (ms)",
                    r.points.iter().map(|p| (p.users as f64, p.rtt_ms)),
                ),
                Series::from_points(
                    "Per-user (Mbps)",
                    r.points.iter().map(|p| (p.users as f64, p.per_user_mbps)),
                ),
            ];
            out.meta = vec![
                meta("vms_booted", r.booted),
                meta("last_boot_ms", format!("{:.2}", r.last_boot_ms)),
            ];
            out.events = r.booted as u64;
            out
        })
        .cost(8.0)],
    }
}

fn fig16b(_scale: Scale) -> FigureSpec {
    let units = [(10u64, 1u64), (25, 2), (50, 3), (100, 4)]
        .into_iter()
        .map(|(ms, seed)| {
            UnitSpec::new(format!("{ms}ms"), move |_| {
                let r = jit::run(&JitConfig::paper(ms, seed));
                let samples: Vec<f64> = r.rtts.iter().map(|t| t.as_millis_f64()).collect();
                let cdf = Cdf::of(&samples).expect("has samples");
                let pcts = [1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0];
                let mut out = UnitOutput::new();
                out.series = vec![Series::from_points(
                    format!("{ms} ms"),
                    pcts.iter().map(|&p| (p, cdf.percentile(p))),
                )];
                out.meta = vec![meta(&format!("drops_{ms}ms"), r.drops)];
                out.events = r.rtts.len() as u64;
                out.peak_queue_depth = r.peak_queue_depth;
                out.events_scheduled = r.events_scheduled;
                out
            })
            .cost(15.0)
        })
        .collect();
    FigureSpec {
        id: "fig16b",
        title: "JIT instantiation: ping RTT CDFs by inter-arrival time",
        xlabel: "percentile",
        ylabel: "ping RTT (ms)",
        sample_xs: vec![1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0],
        meta: vec![meta("clients", 1000)],
        units,
    }
}

fn fig16c(_scale: Scale) -> FigureSpec {
    let counts = [1usize, 10, 50, 100, 250, 500, 750, 1000];
    FigureSpec {
        id: "fig16c",
        title: "TLS termination throughput vs number of endpoints",
        xlabel: "# of instances",
        ylabel: "throughput (req/s)",
        sample_xs: counts.iter().map(|&v| v as f64).collect(),
        meta: vec![meta("machine", "Xeon E5-2690 v4 (14 cores), RSA-1024")],
        units: vec![UnitSpec::new("tls", move |_| {
            let series = tls::run(42, &counts);
            let mut out = UnitOutput::new();
            for s in &series {
                let label = match s.kind {
                    lightvm::net::TlsEndpointKind::BareMetal => "bare metal",
                    lightvm::net::TlsEndpointKind::Tinyx => "Tinyx",
                    lightvm::net::TlsEndpointKind::Unikernel => "unikernel",
                };
                out.series.push(Series::from_points(
                    label,
                    s.points.iter().map(|p| (p.endpoints as f64, p.rps)),
                ));
                out.meta.push(meta(
                    &format!("{label}_boot_ms"),
                    format!("{:.1}", s.endpoint_boot_ms),
                ));
                out.events += s.points.len() as u64;
            }
            out
        })
        .cost(11.0)],
    }
}

fn fig17(scale: Scale) -> FigureSpec {
    let n = scale.scaled(1000);
    let units = [(ToolstackMode::ChaosXs, 1u64), (ToolstackMode::LightVm, 2)]
        .into_iter()
        .map(|(mode, seed)| {
            let mut cfg = ComputeConfig::paper(mode, seed);
            cfg.requests = n;
            let dep_cfg = cfg.clone();
            UnitSpec::new(mode.label(), move |store| {
                // fig18 runs the identical overload simulation.
                let (r, stats) = store.compute(&cfg);
                let mut out = UnitOutput::new();
                stats.into_output(&mut out);
                out.series = vec![Series::from_points(
                    mode.label(),
                    r.service_times
                        .iter()
                        .enumerate()
                        .map(|(i, t)| (i as f64 + 1.0, t.as_secs_f64())),
                )];
                let first = r.create_times[0].as_millis_f64();
                let last = r.create_times.last().unwrap().as_millis_f64();
                out.meta = vec![meta(
                    &format!("create_ms_{}", mode.label()),
                    format!("{first:.2} -> {last:.2}"),
                )];
                out.events = r.service_times.len() as u64;
                out.virtual_ms = r
                    .service_times
                    .iter()
                    .map(|t| t.as_millis_f64())
                    .sum();
                out
            })
            .dep(Dep::Compute { cfg: dep_cfg })
        })
        .collect();
    FigureSpec {
        id: "fig17",
        title: "Compute-service completion time under overload (Minipython)",
        xlabel: "VM #",
        ylabel: "service time (s)",
        sample_xs: density_steps(n).iter().map(|&v| v as f64).collect(),
        meta: vec![meta("inter_arrival_ms", 250), meta("job_cpu_s", 0.75)],
        units,
    }
}

fn fig18(scale: Scale) -> FigureSpec {
    let n = scale.scaled(1000);
    let units = [(ToolstackMode::ChaosXs, 1u64), (ToolstackMode::LightVm, 2)]
        .into_iter()
        .map(|(mode, seed)| {
            let mut cfg = ComputeConfig::paper(mode, seed);
            cfg.requests = n;
            let dep_cfg = cfg.clone();
            UnitSpec::new(mode.label(), move |store| {
                // fig17 runs the identical overload simulation.
                let (r, stats) = store.compute(&cfg);
                let mut out = UnitOutput::new();
                stats.into_output(&mut out);
                out.series = vec![Series::from_points(
                    mode.label(),
                    r.concurrency
                        .iter()
                        .map(|(t, c)| (t.as_secs_f64(), *c as f64)),
                )];
                out.events = r.concurrency.len() as u64;
                out
            })
            .dep(Dep::Compute { cfg: dep_cfg })
        })
        .collect();
    FigureSpec {
        id: "fig18",
        title: "Concurrent compute-service VMs over time",
        xlabel: "time (s)",
        ylabel: "# of concurrent VMs",
        sample_xs: (0..=10).map(|i| i as f64 * 30.0).collect(),
        meta: vec![meta("inter_arrival_ms", 250)],
        units,
    }
}

/// Builds the complete registry at the given scale, in figure order.
pub fn all_specs(scale: Scale) -> Vec<FigureSpec> {
    vec![
        fig01(scale),
        fig02(scale),
        fig04(scale),
        fig05(scale),
        fig09(scale),
        fig10(scale),
        fig11(scale),
        fig12(
            scale,
            "fig12a",
            "Save times (daytime unikernel)",
            true,
        ),
        fig12(
            scale,
            "fig12b",
            "Restore times (daytime unikernel)",
            false,
        ),
        fig13(scale),
        fig14(scale),
        fig15(scale),
        fig16a(scale),
        fig16b(scale),
        fig16c(scale),
        fig17(scale),
        fig18(scale),
        crate::ablations::spec(scale),
        crate::faultsweep::spec(scale),
        crate::churn::spec(scale, None),
        crate::cluster::spec(scale),
    ]
}

/// Builds one figure's spec by id.
pub fn spec_by_id(scale: Scale, id: &str) -> Option<FigureSpec> {
    all_specs(scale).into_iter().find(|s| s.id == id)
}
