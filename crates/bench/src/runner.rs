//! Parallel figure runner: plans registry work as a dependency DAG
//! (see [`crate::sched`]) and deterministically reassembles the
//! figures.
//!
//! Each run creates one [`Store`] — the run's chains, compute results,
//! walks, reuse switch, shard worker count and shard-span sink — and
//! hands it to every task body; nothing is process-global, so
//! concurrent or repeated runs cannot see each other. The planner turns
//! every distinct resource the units declare — chain rungs, probe
//! walks, compute runs — into explicit producer tasks, and gates the
//! consuming units on them; the executor
//! then runs the graph critical-path first on `jobs` workers.
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

use metrics::{Figure, RunnerReport, TaskPerf, UnitPerf};

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
    // The cluster units' shard executor inherits the worker budget;
    // artefact bytes never depend on it.
    store.shard_jobs = jobs;
    let (mut trace, unit_results) = sched::execute(plan, jobs, started, &store);

    // Append the cluster units' per-worker shard spans as informational
    // `"shard"` rows (their wall is contained in their unit's row; the
    // report's aggregates skip them).
    let next_id = trace.len() as u64;
    let spans = std::mem::take(&mut *store.shard_trace.lock().expect("shard trace lock"));
    for (i, s) in spans.into_iter().enumerate() {
        trace.push(TaskPerf {
            id: next_id + i as u64,
            kind: "shard".to_string(),
            label: format!("shard {}#w{}", s.unit, s.worker),
            figure: "cluster".to_string(),
            thread: s.worker as u64,
            start_ms: s.first.duration_since(started).as_secs_f64() * 1e3,
            end_ms: s.last.duration_since(started).as_secs_f64() * 1e3,
            events: s.shard_steps + s.messages,
            allocs: 0,
            deps: Vec::new(),
        });
    }

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
                .with_queue_stats(out.peak_queue_depth as u64, out.events_scheduled)
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

/// Runs a single figure through the same planner/executor as the full
/// registry — a one-figure DAG on the caller thread — so per-figure
/// binaries exercise exactly the shipping scheduler path.
pub fn run_single(spec: FigureSpec) -> FigureRun {
    let (mut runs, _) = run(vec![spec], 1, false);
    runs.pop().expect("one figure in, one figure out")
}

/// Per-figure binary entry point: builds the spec at the environment's
/// scale, runs it through the scheduler and prints/writes the usual
/// artefacts.
pub fn figure_main(id: &str) {
    figure_main_jobs(id, 1);
}

/// [`figure_main`] on `jobs` workers (the `cluster` binary's `--jobs`;
/// artefact bytes are identical at every width).
pub fn figure_main_jobs(id: &str, jobs: usize) {
    let scale = crate::figures::Scale::from_env();
    let spec = crate::figures::spec_by_id(scale, id)
        .unwrap_or_else(|| panic!("unknown figure id {id:?}"));
    spec_main(spec, jobs, scale);
}

/// [`figure_main_jobs`] on a spec the binary built itself, for flags
/// that shape the figure (the `churn` binary's `--events`).
pub fn spec_main(spec: FigureSpec, jobs: usize, scale: crate::figures::Scale) {
    let (mut runs, _) = run(vec![spec], jobs, scale.quick);
    let run = runs.pop().expect("one figure in, one figure out");
    crate::finish(&run.figure, &run.sample_xs);
}
