//! Parallel figure runner: plans registry work as a dependency DAG
//! (see [`crate::sched`]) and deterministically reassembles the
//! figures.
//!
//! Each run creates one [`Store`] — the run's chains, compute results,
//! walks and reuse switch — and hands it to every task body; nothing is
//! process-global, so concurrent or repeated runs cannot see each
//! other. The planner turns every distinct resource the units declare —
//! chain rungs, probe walks, compute runs — into explicit producer
//! tasks, and gates the consuming units on them; the executor then runs
//! the graph in plan order (lowest ready task id first) on `jobs`
//! workers. That pool is the run's only parallelism: a task body, the
//! cluster units' epoch loops included, runs on the one thread that
//! claimed it.
//! Results are written into per-unit slots and the merge walks figures
//! and units in *declared* order, which makes the output bit-for-bit
//! independent of scheduling (`--seq`, `--jobs 1` and `--jobs N` all
//! produce identical artefacts; ci.sh gates this). Determinism is also
//! guaranteed per task: each task owns the simulated state it touches
//! (a unit or walk its whole simulation, a chain task its chain under
//! the chain lock), so no simulated state races across threads.
//!
//! Allocation and wall-time attribution: counting is per thread and a
//! task runs entirely on the thread that claimed it, so each task's
//! delta is exact. Because the shared builds are now their own tasks,
//! a unit's `wall_ms`/`allocs` cover only its own execution — chain
//! climbing, probe walks and compute runs are billed to the `chain`/
//! `probe`/`compute` rows of the task trace, not to whichever unit
//! happened to arrive first.

use std::time::Instant;

use metrics::{Figure, RunnerReport, UnitPerf};

use crate::figures::{FigureSpec, UnitOutput};
use crate::sched;
use crate::worldcache::Store;

/// A completed figure plus the x positions its table is sampled at.
pub struct FigureRun {
    pub figure: Figure,
    pub sample_xs: Vec<f64>,
}

/// Executes every unit of `specs` on `jobs` worker threads with every
/// reuse layer on, and merges the results. Returns the figures in
/// registry order and the perf report: per-unit rows in registry order
/// plus the full task trace.
pub fn run(specs: Vec<FigureSpec>, jobs: usize, quick: bool) -> (Vec<FigureRun>, RunnerReport) {
    let (runs, report, _) = run_with(specs, jobs, quick, Store::default());
    (runs, report)
}

/// [`run`] against a caller-configured `store` (`runall`'s
/// `--no-snapshot-cache` switch), returned after
/// the run for its summary.
pub fn run_with(
    specs: Vec<FigureSpec>,
    jobs: usize,
    quick: bool,
    mut store: Store,
) -> (Vec<FigureRun>, RunnerReport, Store) {
    let started = Instant::now();

    let (heads, plan) = sched::plan(specs, &mut store);
    let jobs = jobs.max(1).min(plan.len().max(1));
    let (trace, unit_results) = sched::execute(plan, jobs, started, &store);

    // Reassemble in declared order. Unit task ids follow declaration
    // order, so the results arrive (figure, unit)-sorted already; the
    // slot assertion pins that.
    let mut outputs: Vec<Vec<UnitOutput>> = heads.iter().map(|_| Vec::new()).collect();
    let mut perf = Vec::with_capacity(unit_results.len());
    for r in unit_results {
        let (fi, ui) = r.slot;
        debug_assert_eq!(ui, outputs[fi].len(), "unit results in declared order");
        let out = r.out;
        perf.push(
            UnitPerf::new(heads[fi].id, r.label, r.wall_ms, out.virtual_ms, out.events)
                .with_allocs(r.allocs)
                .with_snapshot_stats(
                    out.snapshot_hits,
                    out.snapshot_forks,
                    out.boot_events_saved,
                ),
        );
        outputs[fi].push(out);
    }

    let figures = heads
        .iter()
        .zip(outputs)
        .map(|(head, outs)| FigureRun {
            figure: head.merge(outs),
            sample_xs: head.sample_xs.clone(),
        })
        .collect();

    let report = RunnerReport {
        jobs,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        alloc_counting: crate::alloc::counting_installed(),
        quick,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        units: perf,
        tasks: trace,
    };
    (figures, report, store)
}
