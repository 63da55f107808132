//! Machine-readable performance report for the figure runner.
//!
//! One [`UnitPerf`] per work unit (a single series of a single figure),
//! plus run-level totals. The emitted JSON is the repo's perf-trajectory
//! record: successive optimisation PRs compare `events_per_sec` and
//! wall-clock against the previous run's `results/bench_runner.json`.

use std::io;
use std::path::Path;

use crate::json::Json;

/// Per-work-unit performance measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct UnitPerf {
    /// Figure the unit belongs to, e.g. `"fig09"`.
    pub figure: String,
    /// Unit label within the figure, e.g. `"lightvm"`.
    pub unit: String,
    /// Host wall-clock spent executing the unit, in milliseconds.
    pub wall_ms: f64,
    /// Simulated virtual time covered by the unit, in milliseconds.
    pub virtual_ms: f64,
    /// Simulation events processed (xenstored requests and watch events,
    /// CPU-model task starts, container operations, client pings —
    /// whatever the unit's workload counts).
    pub events: u64,
    /// `events / wall seconds`: the single-thread throughput figure the
    /// hot-path optimisations move.
    pub events_per_sec: f64,
    /// Host heap allocations made while the unit ran (0 when the
    /// counting allocator is not installed — see
    /// [`RunnerReport::alloc_counting`]).
    pub allocs: u64,
    /// World-store results the unit reused (chain rung, probe walk or
    /// compute run; 0 with the cache disabled).
    pub snapshot_hits: u64,
    /// World forks the unit performed itself (pristine hosts, stamped
    /// cluster hosts).
    pub snapshot_forks: u64,
    /// create+boot sequences the reused results cover (boots the unit
    /// did not simulate itself).
    pub boot_events_saved: u64,
}

impl UnitPerf {
    /// Builds a record, deriving `events_per_sec` from the wall-clock.
    pub fn new(
        figure: impl Into<String>,
        unit: impl Into<String>,
        wall_ms: f64,
        virtual_ms: f64,
        events: u64,
    ) -> UnitPerf {
        let events_per_sec = if wall_ms > 0.0 {
            events as f64 / (wall_ms / 1e3)
        } else {
            0.0
        };
        UnitPerf {
            figure: figure.into(),
            unit: unit.into(),
            wall_ms,
            virtual_ms,
            events,
            events_per_sec,
            allocs: 0,
            snapshot_hits: 0,
            snapshot_forks: 0,
            boot_events_saved: 0,
        }
    }

    /// Attaches the unit's host allocation count.
    pub fn with_allocs(mut self, allocs: u64) -> UnitPerf {
        self.allocs = allocs;
        self
    }

    /// Attaches the unit's world-cache statistics.
    pub fn with_snapshot_stats(
        mut self,
        snapshot_hits: u64,
        snapshot_forks: u64,
        boot_events_saved: u64,
    ) -> UnitPerf {
        self.snapshot_hits = snapshot_hits;
        self.snapshot_forks = snapshot_forks;
        self.boot_events_saved = boot_events_saved;
        self
    }

    /// `allocs / events` (0 when the unit counted no events).
    pub fn allocs_per_event(&self) -> f64 {
        if self.events > 0 {
            self.allocs as f64 / self.events as f64
        } else {
            0.0
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("figure".to_string(), Json::Str(self.figure.clone())),
            ("unit".to_string(), Json::Str(self.unit.clone())),
            ("wall_ms".to_string(), Json::Num(round3(self.wall_ms))),
            ("virtual_ms".to_string(), Json::Num(round3(self.virtual_ms))),
            ("events".to_string(), Json::Num(self.events as f64)),
            (
                "events_per_sec".to_string(),
                Json::Num(round3(self.events_per_sec)),
            ),
            ("allocs".to_string(), Json::Num(self.allocs as f64)),
            (
                "allocs_per_event".to_string(),
                Json::Num(round3(self.allocs_per_event())),
            ),
            (
                "snapshot_hits".to_string(),
                Json::Num(self.snapshot_hits as f64),
            ),
            (
                "snapshot_forks".to_string(),
                Json::Num(self.snapshot_forks as f64),
            ),
            (
                "boot_events_saved".to_string(),
                Json::Num(self.boot_events_saved as f64),
            ),
        ])
    }
}

/// One scheduled task in the runner's dependency graph: a figure unit,
/// a worldcache chain rung, a whole probe walk or a shared compute
/// run. The trace records when it ran, on which worker, and what it
/// depended on — enough to reconstruct the schedule and its critical
/// path offline.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskPerf {
    /// Task id (index into the trace; `deps` refer to these).
    pub id: u64,
    /// Task kind: `"unit"`, `"chain"`, `"probe"` (one whole probe walk:
    /// its climb plus one fork and its probes per step) or `"compute"`.
    pub kind: String,
    /// Human-readable label, e.g. `"chain xl/daytime@1000"`.
    pub label: String,
    /// Owning figure id for unit tasks, empty for infrastructure tasks.
    pub figure: String,
    /// Worker thread index the task ran on.
    pub thread: u64,
    /// Start/end offsets from run start, in milliseconds.
    pub start_ms: f64,
    pub end_ms: f64,
    /// Simulation work the task itself performed (boots for chain
    /// tasks, probes run for probe tasks, own events for units; 0
    /// where the task only reads caches).
    pub events: u64,
    /// Heap allocations made while the task ran on its thread.
    pub allocs: u64,
    /// Ids of the tasks this task waited for.
    pub deps: Vec<u64>,
}

impl TaskPerf {
    /// Wall-clock the task occupied its worker, in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("id".to_string(), Json::Num(self.id as f64)),
            ("kind".to_string(), Json::Str(self.kind.clone())),
            ("label".to_string(), Json::Str(self.label.clone())),
            ("figure".to_string(), Json::Str(self.figure.clone())),
            ("thread".to_string(), Json::Num(self.thread as f64)),
            ("start_ms".to_string(), Json::Num(round3(self.start_ms))),
            ("end_ms".to_string(), Json::Num(round3(self.end_ms))),
            ("wall_ms".to_string(), Json::Num(round3(self.wall_ms()))),
            ("events".to_string(), Json::Num(self.events as f64)),
            ("allocs".to_string(), Json::Num(self.allocs as f64)),
            (
                "deps".to_string(),
                Json::Arr(self.deps.iter().map(|&d| Json::Num(d as f64)).collect()),
            ),
        ])
    }
}

/// A whole runner invocation: configuration, totals and per-unit rows.
#[derive(Clone, Debug, PartialEq)]
pub struct RunnerReport {
    /// Worker threads actually used (requested jobs clamped to the
    /// number of work units).
    pub jobs: usize,
    /// Logical cores available on the host that produced the report —
    /// context for comparing `speedup` across machines.
    pub host_cores: usize,
    /// Whether the counting global allocator was installed, i.e.
    /// whether `allocs` fields measure anything (a zero with counting
    /// off means "unmeasured", not "allocation-free").
    pub alloc_counting: bool,
    /// Whether the reduced-scale (`LIGHTVM_QUICK`) profile was active.
    pub quick: bool,
    /// End-to-end wall-clock of the whole run, in milliseconds.
    pub wall_ms: f64,
    /// Per-unit measurements, in deterministic (figure, declaration)
    /// order.
    pub units: Vec<UnitPerf>,
    /// Scheduler trace: every task the dependency-aware runner
    /// executed (units plus chain/probe/compute infrastructure), in
    /// task-id order. Empty for reports produced without the DAG
    /// scheduler (e.g. hand-built fixtures).
    pub tasks: Vec<TaskPerf>,
}

impl RunnerReport {
    /// Sum of per-unit wall-clock (what a sequential run would cost,
    /// modulo scheduling noise).
    pub fn total_unit_wall_ms(&self) -> f64 {
        self.units.iter().map(|u| u.wall_ms).sum()
    }

    /// Total events across units.
    pub fn total_events(&self) -> u64 {
        self.units.iter().map(|u| u.events).sum()
    }

    /// Total host allocations across units (0 when counting was off).
    pub fn total_allocs(&self) -> u64 {
        self.units.iter().map(|u| u.allocs).sum()
    }

    /// Aggregate `allocs / events` across every unit.
    pub fn allocs_per_event(&self) -> f64 {
        let events = self.total_events();
        if events > 0 {
            self.total_allocs() as f64 / events as f64
        } else {
            0.0
        }
    }

    /// Total create+boot sequences the world cache saved across units.
    pub fn total_boots_saved(&self) -> u64 {
        self.units.iter().map(|u| u.boot_events_saved).sum()
    }

    /// Summed wall-clock across every scheduled task — unit tasks plus
    /// the chain/probe/compute infrastructure tasks that build shared
    /// worlds. This is what a fully sequential run would cost. Falls
    /// back to the unit sum when no trace is present.
    pub fn total_task_wall_ms(&self) -> f64 {
        if self.tasks.is_empty() {
            self.total_unit_wall_ms()
        } else {
            self.tasks.iter().map(TaskPerf::wall_ms).sum()
        }
    }

    /// Total host allocations across every scheduled task (falls back
    /// to the unit sum without a trace).
    pub fn total_task_allocs(&self) -> u64 {
        if self.tasks.is_empty() {
            self.total_allocs()
        } else {
            self.tasks.iter().map(|t| t.allocs).sum()
        }
    }

    /// Critical-path length through the measured task graph: the
    /// longest dependency chain by observed wall-clock. No schedule —
    /// at any worker count — can finish faster than this.
    pub fn critical_path_ms(&self) -> f64 {
        let mut cp = vec![0.0f64; self.tasks.len()];
        let mut longest = 0.0f64;
        // Tasks are emitted in topological (id) order: deps < id.
        for (i, t) in self.tasks.iter().enumerate() {
            let from_deps = t
                .deps
                .iter()
                .map(|&d| cp[d as usize])
                .fold(0.0f64, f64::max);
            cp[i] = from_deps + t.wall_ms();
            longest = longest.max(cp[i]);
        }
        longest
    }

    /// Deepest observed concurrency: the most tasks whose execution
    /// intervals overlapped at one instant.
    pub fn max_width(&self) -> u64 {
        let mut edges: Vec<(f64, i64)> = Vec::with_capacity(self.tasks.len() * 2);
        for t in &self.tasks {
            edges.push((t.start_ms, 1));
            edges.push((t.end_ms, -1));
        }
        // Ends sort before starts at the same instant, so abutting
        // tasks on one thread don't count as overlapping.
        edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let (mut width, mut max) = (0i64, 0i64);
        for (_, d) in edges {
            width += d;
            max = max.max(width);
        }
        max.max(0) as u64
    }

    /// Aggregate throughput: total events over summed task wall-clock
    /// (the honest sequential-equivalent denominator — chain builds
    /// count whether they ran inside a unit or as their own task).
    pub fn aggregate_events_per_sec(&self) -> f64 {
        let wall_s = self.total_task_wall_ms() / 1e3;
        if wall_s > 0.0 {
            self.total_events() as f64 / wall_s
        } else {
            0.0
        }
    }

    /// Observed parallel speedup: summed task wall-clock over run
    /// wall-clock.
    pub fn speedup(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.total_task_wall_ms() / self.wall_ms
        } else {
            0.0
        }
    }

    /// Upper bound on achievable speedup at any core count: summed
    /// task wall over the critical path (0 without a trace).
    pub fn speedup_bound(&self) -> f64 {
        let cp = self.critical_path_ms();
        if cp > 0.0 {
            self.total_task_wall_ms() / cp
        } else {
            0.0
        }
    }

    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> String {
        Json::obj([
            ("jobs".to_string(), Json::Num(self.jobs as f64)),
            ("host_cores".to_string(), Json::Num(self.host_cores as f64)),
            (
                "alloc_counting".to_string(),
                Json::Bool(self.alloc_counting),
            ),
            ("quick".to_string(), Json::Bool(self.quick)),
            ("wall_ms".to_string(), Json::Num(round3(self.wall_ms))),
            (
                "total_unit_wall_ms".to_string(),
                Json::Num(round3(self.total_unit_wall_ms())),
            ),
            (
                "total_events".to_string(),
                Json::Num(self.total_events() as f64),
            ),
            (
                "aggregate_events_per_sec".to_string(),
                Json::Num(round3(self.aggregate_events_per_sec())),
            ),
            ("speedup".to_string(), Json::Num(round3(self.speedup()))),
            (
                "total_allocs".to_string(),
                Json::Num(self.total_allocs() as f64),
            ),
            (
                "allocs_per_event".to_string(),
                Json::Num(round3(self.allocs_per_event())),
            ),
            (
                "total_boot_events_saved".to_string(),
                Json::Num(self.total_boots_saved() as f64),
            ),
            (
                "scheduler".to_string(),
                Json::obj([
                    ("tasks".to_string(), Json::Num(self.tasks.len() as f64)),
                    ("max_width".to_string(), Json::Num(self.max_width() as f64)),
                    (
                        "critical_path_ms".to_string(),
                        Json::Num(round3(self.critical_path_ms())),
                    ),
                    (
                        "total_task_wall_ms".to_string(),
                        Json::Num(round3(self.total_task_wall_ms())),
                    ),
                    (
                        "speedup_bound".to_string(),
                        Json::Num(round3(self.speedup_bound())),
                    ),
                ]),
            ),
            (
                "units".to_string(),
                Json::Arr(self.units.iter().map(UnitPerf::to_json).collect()),
            ),
            (
                "tasks".to_string(),
                Json::Arr(self.tasks.iter().map(TaskPerf::to_json).collect()),
            ),
        ])
        .pretty()
    }

    /// Writes the report to `path`, creating parent directories.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }
}

fn round3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_perf_derives_throughput() {
        let u = UnitPerf::new("fig09", "lightvm", 500.0, 1234.5, 1_000);
        assert!((u.events_per_sec - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn totals_aggregate_over_units() {
        let r = RunnerReport {
            jobs: 4,
            host_cores: 8,
            alloc_counting: true,
            quick: true,
            wall_ms: 100.0,
            units: vec![
                UnitPerf::new("a", "u1", 100.0, 0.0, 300).with_allocs(30),
                UnitPerf::new("a", "u2", 200.0, 0.0, 600).with_allocs(60),
            ],
            tasks: Vec::new(),
        };
        assert_eq!(r.total_events(), 900);
        assert_eq!(r.total_allocs(), 90);
        assert!((r.allocs_per_event() - 0.1).abs() < 1e-9);
        assert!((r.total_unit_wall_ms() - 300.0).abs() < 1e-9);
        assert!((r.speedup() - 3.0).abs() < 1e-9);
        assert!((r.aggregate_events_per_sec() - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn report_json_mentions_every_unit() {
        let r = RunnerReport {
            jobs: 1,
            host_cores: 4,
            alloc_counting: false,
            quick: false,
            wall_ms: 1.0,
            units: vec![UnitPerf::new("fig04", "debian", 1.0, 2.0, 3)],
            tasks: Vec::new(),
        };
        let js = r.to_json();
        assert!(js.contains("\"fig04\""));
        assert!(js.contains("\"debian\""));
        assert!(js.contains("\"events_per_sec\""));
        assert!(js.contains("\"host_cores\": 4"));
        assert!(js.contains("\"alloc_counting\": false"));
        assert!(js.contains("\"total_allocs\""));
        assert!(js.contains("\"allocs_per_event\""));
        crate::json::Json::parse(&js).expect("report JSON parses");
    }

    #[test]
    fn allocs_per_event_handles_zero_events() {
        let u = UnitPerf::new("a", "u", 1.0, 0.0, 0).with_allocs(5);
        assert_eq!(u.allocs_per_event(), 0.0);
    }

    fn task(id: u64, start: f64, end: f64, deps: &[u64]) -> TaskPerf {
        TaskPerf {
            id,
            kind: "unit".to_string(),
            label: format!("t{id}"),
            figure: String::new(),
            thread: 0,
            start_ms: start,
            end_ms: end,
            events: 10,
            allocs: 1,
            deps: deps.to_vec(),
        }
    }

    #[test]
    fn scheduler_stats_from_trace() {
        // Diamond: 0 -> {1, 2} -> 3, with 2 the slow middle branch.
        let r = RunnerReport {
            jobs: 2,
            host_cores: 2,
            alloc_counting: true,
            quick: true,
            wall_ms: 40.0,
            units: Vec::new(),
            tasks: vec![
                task(0, 0.0, 10.0, &[]),
                task(1, 10.0, 15.0, &[0]),
                task(2, 10.0, 30.0, &[0]),
                task(3, 30.0, 40.0, &[1, 2]),
            ],
        };
        assert!((r.total_task_wall_ms() - 45.0).abs() < 1e-9);
        assert!((r.critical_path_ms() - 40.0).abs() < 1e-9); // 0 -> 2 -> 3
        assert_eq!(r.max_width(), 2); // tasks 1 and 2 overlap
        assert!((r.speedup_bound() - 45.0 / 40.0).abs() < 1e-9);
        assert_eq!(r.total_task_allocs(), 4);
        let js = r.to_json();
        assert!(js.contains("\"scheduler\""));
        assert!(js.contains("\"critical_path_ms\""));
        assert!(js.contains("\"max_width\": 2"));
        crate::json::Json::parse(&js).expect("report JSON parses");
    }

    #[test]
    fn trace_free_report_falls_back_to_unit_totals() {
        let r = RunnerReport {
            jobs: 1,
            host_cores: 1,
            alloc_counting: false,
            quick: false,
            wall_ms: 100.0,
            units: vec![UnitPerf::new("a", "u", 100.0, 0.0, 1000)],
            tasks: Vec::new(),
        };
        assert!((r.total_task_wall_ms() - 100.0).abs() < 1e-9);
        assert_eq!(r.critical_path_ms(), 0.0);
        assert!((r.aggregate_events_per_sec() - 10_000.0).abs() < 1e-9);
    }
}
