//! Figure workloads: the paper's figure registry through `bench::runner`
//! on two workers, checked byte for byte against the committed
//! `results/`.

use std::hash::{DefaultHasher, Hasher};
use std::time::Instant;

use bench::figures::{all_specs, Scale};
use metrics::RunnerReport;

use crate::spec::Values;
use crate::{host, Rep};

/// Runner workers: the host has two cores.
const JOBS: usize = 2;

#[derive(Clone, Copy)]
pub enum Figures {
    /// Every figure (`runall`).
    Suite,
    /// The cluster figure alone.
    Cluster,
}

impl Figures {
    /// One rep: build the specs (set-up), run them, compare the artefacts
    /// with `results/` and read the layer counters.
    pub fn rep(self, traced: bool, quick: bool) -> Rep {
        let scale = if quick { Scale::quick() } else { Scale::full() };
        let setup = Instant::now();
        let specs = match self {
            Figures::Suite => all_specs(scale),
            Figures::Cluster => vec![bench::cluster::spec(scale)],
        };
        let setup_s = setup.elapsed().as_secs_f64();

        let timed = Instant::now();
        let (runs, report) = bench::runner::run(specs, JOBS, quick);
        let wall_s = timed.elapsed().as_secs_f64();

        // The oracle: the committed full-scale artefacts. A quick run has
        // none, so it is checked only for agreement across reps (the
        // digest, compared by the parent).
        let results = host::repo_root().join("results");
        let (mut attempted, mut failed) = (0, 0);
        let mut digest = DefaultHasher::new();
        for run in &runs {
            let fig = &run.figure;
            for (ext, bytes) in [("json", fig.to_json()), ("csv", fig.to_csv())] {
                attempted += 1;
                digest.write(bytes.as_bytes());
                if !quick {
                    let path = results.join(format!("{}.{ext}", fig.id));
                    if std::fs::read(&path).ok().as_deref() != Some(bytes.as_bytes()) {
                        eprintln!(
                            "lvbench: {} differs from the committed artefact",
                            path.display()
                        );
                        failed += 1;
                    }
                }
            }
        }

        Rep {
            setup_s,
            wall_s,
            peak_rss_mb: host::peak_rss_mb(),
            attempted,
            failed,
            fingerprint: format!("{:016x}", digest.finish()),
            layers: if traced {
                layers(&report)
            } else {
                Values::new()
            },
            samples: Default::default(),
        }
    }
}

/// Per-layer values read off the runner's report and the reuse layers'
/// process counters (fresh in each child).
fn layers(report: &RunnerReport) -> Values {
    let kind = |k: &'static str| report.tasks.iter().filter(move |t| t.kind == k);
    let wall_s = |k: &'static str| kind(k).map(|t| t.wall_ms()).sum::<f64>() / 1e3;
    let unit_s = |fig: &str| {
        kind("unit")
            .filter(|t| t.figure == fig)
            .map(|t| t.wall_ms())
            .sum::<f64>()
            / 1e3
    };
    let task_wall_ms = report.total_task_wall_ms();
    let (hits, replayed, _) = toolstack::cloneboot::totals();
    let mut v = Values::new();
    let mut put = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    put("sched.task_wall_s", task_wall_ms / 1e3);
    put("sched.critical_path_s", report.critical_path_ms() / 1e3);
    put(
        "sched.idle_s",
        (report.jobs as f64 * report.wall_ms - task_wall_ms) / 1e3,
    );
    put("sched.max_width", report.max_width() as f64);
    put("runner.events", report.total_events() as f64);
    put("worldcache.chain_wall_s", wall_s("chain"));
    put("worldcache.chain_tasks", kind("chain").count() as f64);
    put(
        "worldcache.snapshot_hits",
        report.units.iter().map(|u| u.snapshot_hits).sum::<u64>() as f64,
    );
    put(
        "worldcache.snapshot_forks",
        report.units.iter().map(|u| u.snapshot_forks).sum::<u64>() as f64,
    );
    put("worldcache.boots_saved", report.total_boots_saved() as f64);
    put("probewalk.probe_wall_s", wall_s("probe"));
    put("probewalk.probe_tasks", kind("probe").count() as f64);
    put("bench.compute_wall_s", wall_s("compute"));
    put("bench.unit_wall_s", wall_s("unit"));
    for fig in ["cluster", "churn", "ablations", "faults"] {
        put(&format!("unit.{fig}_s"), unit_s(fig));
    }
    put("cloneboot.hits", hits as f64);
    put("cloneboot.replayed", replayed as f64);
    put(
        "cloneboot.fallbacks",
        toolstack::cloneboot::fallback_total() as f64,
    );
    put(
        "cloneboot.poisons",
        summary_count(&toolstack::cloneboot::summary(), "poisons"),
    );
    put(
        "cloneboot.replay_ratio",
        replayed as f64 / hits.max(1) as f64,
    );
    put("shard.span_s", wall_s("shard"));
    put(
        "shard.events",
        kind("shard").map(|t| t.events).sum::<u64>() as f64,
    );
    put("alloc.total", report.total_task_allocs() as f64);
    put("alloc.per_event", report.allocs_per_event());
    v
}

/// The number after `key` in a `"key N key N ..."` summary line.
fn summary_count(summary: &str, key: &str) -> f64 {
    let mut words = summary.split_whitespace();
    words
        .by_ref()
        .find(|w| *w == key)
        .and_then(|_| words.next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0.0)
}
