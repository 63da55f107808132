//! Dependency-aware DAG scheduler for the figure runner.
//!
//! Most figure units are cheap *readers* of shared results — a
//! world-store chain rung, a probe walk, a compute run. The planner
//! makes the builds explicit: every distinct resource a unit declares
//! (see [`Dep`]) becomes exactly one producing task, and every chain
//! read is declared on the run's [`Store`] up front:
//!
//! * **chain** tasks climb a world-store chain rung by requested rung
//!   ([`Store::build_to`]), publishing records and rung observables as
//!   they pass;
//! * **probe** tasks each run one whole probe walk
//!   ([`probewalk::run_walk`](crate::probewalk::run_walk)): climb the
//!   walk's world and probe a throwaway fork at every step;
//! * **compute** tasks run the shared overload simulation;
//! * **unit** tasks are the figure units themselves, gated on their
//!   declared producers and otherwise free to run anywhere.
//!
//! Every run starts cold (the store is per run), so every declared
//! resource gets its producer. Execution is critical-path first: each
//! task's rank is its cost plus the heaviest downstream chain, and the
//! ready heap pops the highest rank (ties by lowest id, so the order is
//! deterministic). None of this affects artefact bytes — results are
//! merged in declared order and every task body is deterministic —
//! which the determinism tests and ci.sh's `--jobs` byte gates pin.
//!
//! Task ids are topological by construction (every dependency's id is
//! smaller than its dependent's), which keeps the rank computation and
//! the report's critical-path scan a single reverse pass.

use std::collections::{BinaryHeap, HashMap};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use lightvm::usecases::compute::ComputeConfig;
use metrics::TaskPerf;
use toolstack::ToolstackMode;

use crate::figures::{Dep, FigureSpec, UnitOutput};
use crate::worldcache::{Key, Store, WorldSpec};

/// Longest climb a single chain task may perform; larger requested
/// spans are split into evenly spaced intermediate rungs. 150 boots is
/// ~15-35 ms of simulation — big enough to amortise task overhead,
/// small enough to pipeline behind consumers.
const MAX_CHAIN_SPAN: usize = 150;

/// What a task does when it runs. Infra bodies return an event count
/// for the trace (boots climbed, probes run, requests simulated).
enum Body {
    Unit(Box<dyn FnOnce(&Store) -> UnitOutput + Send>),
    Infra(Box<dyn FnOnce(&Store) -> u64 + Send>),
}

struct Task {
    kind: &'static str,
    label: String,
    /// Owning figure id for unit tasks, empty for infrastructure.
    figure: String,
    deps: Vec<usize>,
    /// Estimated wall-clock (ms) for rank seeding; correctness never
    /// depends on it.
    cost: f64,
    /// Destination (figure index, unit index) for unit outputs.
    slot: Option<(usize, usize)>,
    body: Body,
}

/// A planned run: the full task graph, ready to execute.
pub struct Plan {
    tasks: Vec<Task>,
}

/// One task's metadata, for tests and diagnostics.
pub struct TaskView {
    pub kind: &'static str,
    pub label: String,
    pub figure: String,
    pub deps: Vec<usize>,
}

impl Plan {
    /// Number of schedulable tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Body-free view of the graph.
    pub fn view(&self) -> Vec<TaskView> {
        self.tasks
            .iter()
            .map(|t| TaskView {
                kind: t.kind,
                label: t.label.clone(),
                figure: t.figure.clone(),
                deps: t.deps.clone(),
            })
            .collect()
    }
}

/// Rough per-boot simulation cost by toolstack, in milliseconds (from
/// the committed perf baseline; xl's reflects the closed-form name
/// scan). Drives chain-task cost estimates.
fn boot_cost_ms(mode: ToolstackMode) -> f64 {
    match mode.label() {
        "xl" => 0.10,
        "chaos [XS]" | "chaos [XS+split]" => 0.08,
        "chaos [NoXS]" => 0.02,
        _ => 0.03,
    }
}

/// Builds the task graph for `specs`, declaring every chain read it
/// plans on `store`. Returns the figure heads (stripped of units, for
/// merging) and the plan.
///
/// With the cache off (`store.cache == false`) no infrastructure tasks
/// are emitted and units carry no dependencies: each unit body
/// simulates what it needs inline, byte-identically — the planner only
/// ever changes *when* work happens, never *what* runs.
pub fn plan(specs: Vec<FigureSpec>, store: &mut Store) -> (Vec<FigureSpec>, Plan) {
    let mut tasks: Vec<Task> = Vec::new();

    // ---- collect distinct resources, in first-encounter order ----
    struct ChainReq {
        spec: WorldSpec,
        rungs: Vec<usize>,
    }
    let mut chains: Vec<ChainReq> = Vec::new();
    let mut chain_of: HashMap<Key, usize> = HashMap::new();
    let mut need = |spec: &WorldSpec, rung: usize| {
        let idx = *chain_of.entry(spec.key()).or_insert_with(|| {
            chains.push(ChainReq {
                spec: spec.clone(),
                rungs: Vec::new(),
            });
            chains.len() - 1
        });
        chains[idx].rungs.push(rung);
    };
    let mut walks: Vec<(ToolstackMode, Vec<usize>)> = Vec::new();
    let mut computes: Vec<ComputeConfig> = Vec::new();

    if store.cache {
        for spec in &specs {
            for unit in &spec.units {
                for dep in &unit.deps {
                    match dep {
                        Dep::Chain { spec: ws, rung } => {
                            need(ws, *rung);
                            store.declare_chain(ws, *rung);
                        }
                        Dep::Walk { mode, steps } => {
                            if !walks.iter().any(|(m, s)| m == mode && s == steps) {
                                walks.push((*mode, steps.clone()));
                            }
                        }
                        Dep::Compute { cfg } => {
                            if !computes.iter().any(|c| format!("{c:?}") == format!("{cfg:?}")) {
                                computes.push(cfg.clone());
                            }
                        }
                    }
                }
            }
        }
    }
    for c in &mut chains {
        c.rungs.sort_unstable();
        c.rungs.dedup();
        // Split long climbs into evenly spaced intermediate rungs, so
        // one 1000-boot chain becomes several short tasks the executor
        // can start early and interleave with other work. Byte-
        // identical: the chain still climbs through exactly the same
        // creates, and `advance` publishes observables at every ladder
        // rung it crosses regardless of task boundaries; consumers only
        // ever read the rungs they declared, which are all kept.
        let mut split = Vec::with_capacity(c.rungs.len());
        let mut prev = 0usize;
        for &rung in &c.rungs {
            let span = rung - prev;
            if span > MAX_CHAIN_SPAN {
                let pieces = span.div_ceil(MAX_CHAIN_SPAN);
                for p in 1..pieces {
                    split.push(prev + span * p / pieces);
                }
            }
            split.push(rung);
            prev = rung;
        }
        c.rungs = split;
    }

    // ---- emit producer tasks (ids are topological: deps come first) ----
    // Chain rung tasks climb in ascending order, each depending on the
    // previous rung.
    let mut chain_task: HashMap<(Key, usize), usize> = HashMap::new();
    for req in &chains {
        let key = req.spec.key();
        let mut prev: Option<usize> = None;
        let mut prev_rung = 0usize;
        for &rung in &req.rungs {
            let id = tasks.len();
            let spec = req.spec.clone();
            tasks.push(Task {
                kind: "chain",
                label: format!("chain {}@{rung}", req.spec.label()),
                figure: String::new(),
                deps: prev.into_iter().collect(),
                cost: (rung - prev_rung) as f64 * boot_cost_ms(req.spec.mode),
                slot: None,
                body: Body::Infra(Box::new(move |store: &Store| store.build_to(&spec, rung))),
            });
            chain_task.insert((key.clone(), rung), id);
            prev = Some(id);
            prev_rung = rung;
        }
    }

    // A walk is one task: the whole climb plus a probe pair per step.
    let walk_base = tasks.len();
    for (mode, steps) in &walks {
        let top = steps.last().copied().unwrap_or(0);
        let probes: f64 = steps.iter().map(|&n| 2.0 + n as f64 * 0.02).sum();
        let (mode, steps) = (*mode, steps.clone());
        tasks.push(Task {
            kind: "probe",
            label: format!("probe {} ({} steps)", mode.label(), steps.len()),
            figure: String::new(),
            deps: Vec::new(),
            cost: top as f64 * boot_cost_ms(mode) + probes,
            slot: None,
            body: Body::Infra(Box::new(move |store: &Store| store.run_walk(mode, &steps))),
        });
    }

    let mut compute_task: HashMap<String, usize> = HashMap::new();
    for cfg in computes {
        compute_task.insert(format!("{cfg:?}"), tasks.len());
        tasks.push(Task {
            kind: "compute",
            label: format!("compute {}/{}", cfg.mode.label(), cfg.requests),
            figure: String::new(),
            deps: Vec::new(),
            cost: 120.0,
            slot: None,
            body: Body::Infra(Box::new(move |store: &Store| store.run_compute(&cfg))),
        });
    }

    // ---- unit tasks, in declared (figure, unit) order ----
    let mut heads = Vec::with_capacity(specs.len());
    for (fi, mut spec) in specs.into_iter().enumerate() {
        for (ui, unit) in spec.units.drain(..).enumerate() {
            // With the cache off nothing was planned: nothing to wait on.
            let deps: Vec<usize> = if store.cache {
                unit.deps
                    .iter()
                    .map(|dep| match dep {
                        Dep::Chain { spec: ws, rung } => chain_task[&(ws.key(), *rung)],
                        Dep::Walk { mode, steps } => {
                            let w = walks.iter().position(|(m, s)| m == mode && s == steps);
                            walk_base + w.expect("walk planned")
                        }
                        Dep::Compute { cfg } => compute_task[&format!("{cfg:?}")],
                    })
                    .collect()
            } else {
                Vec::new()
            };
            tasks.push(Task {
                kind: "unit",
                label: unit.label,
                figure: spec.id.to_string(),
                deps,
                cost: unit.cost_hint,
                slot: Some((fi, ui)),
                body: Body::Unit(unit.run),
            });
        }
        heads.push(spec);
    }

    for (i, t) in tasks.iter_mut().enumerate() {
        t.deps.sort_unstable();
        t.deps.dedup();
        debug_assert!(
            t.deps.iter().all(|&d| d < i),
            "task ids must be topological"
        );
    }

    (heads, Plan { tasks })
}

/// A completed unit task's output, tagged with its destination slot.
pub(crate) struct UnitResult {
    pub slot: (usize, usize),
    pub label: String,
    pub out: UnitOutput,
    pub wall_ms: f64,
    pub allocs: u64,
}

/// Ready-heap priority: highest rank first, ties to the lowest id so
/// equal-rank pops are deterministic.
struct Prio {
    rank: f64,
    id: usize,
}

impl PartialEq for Prio {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for Prio {}
impl PartialOrd for Prio {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Prio {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank
            .total_cmp(&other.rank)
            .then_with(|| other.id.cmp(&self.id))
    }
}

struct SchedState {
    ready: BinaryHeap<Prio>,
    indeg: Vec<usize>,
    done: usize,
}

struct Ctx {
    n: usize,
    state: Mutex<SchedState>,
    cv: Condvar,
    bodies: Vec<Mutex<Option<Body>>>,
    #[allow(clippy::type_complexity)]
    results: Vec<Mutex<Option<(f64, f64, usize, u64, u64, Option<UnitOutput>)>>>,
    succs: Vec<Vec<usize>>,
    rank: Vec<f64>,
    started: Instant,
}

/// Wakes every worker and marks the run finished if a task body
/// panics, so the panic propagates instead of deadlocking the pool.
struct Bail<'a> {
    ctx: &'a Ctx,
    armed: bool,
}

impl Drop for Bail<'_> {
    fn drop(&mut self) {
        if self.armed {
            if let Ok(mut g) = self.ctx.state.lock() {
                g.done = self.ctx.n;
            }
            self.ctx.cv.notify_all();
        }
    }
}

fn worker(ctx: &Ctx, store: &Store, thread: usize) {
    loop {
        let id = {
            let mut g = ctx.state.lock().expect("scheduler lock");
            loop {
                if g.done == ctx.n {
                    return;
                }
                if let Some(p) = g.ready.pop() {
                    break p.id;
                }
                g = ctx.cv.wait(g).expect("scheduler wait");
            }
        };

        let body = ctx.bodies[id]
            .lock()
            .expect("body lock")
            .take()
            .expect("task claimed once");
        let mut bail = Bail { ctx, armed: true };
        // Allocation counting is per thread and a task runs entirely
        // on the thread that claimed it, so the delta is the task's
        // own count even under parallel workers. Chain/probe/compute
        // tasks are billed here too: a unit's numbers now cover only
        // its own execution, not the shared builds it reads.
        let a0 = crate::alloc::thread_allocs();
        let start_ms = ctx.started.elapsed().as_secs_f64() * 1e3;
        let (events, out) = match body {
            Body::Unit(f) => {
                let o = f(store);
                (o.events, Some(o))
            }
            Body::Infra(f) => (f(store), None),
        };
        let end_ms = ctx.started.elapsed().as_secs_f64() * 1e3;
        let allocs = crate::alloc::thread_allocs() - a0;
        bail.armed = false;
        *ctx.results[id].lock().expect("result lock") =
            Some((start_ms, end_ms, thread, events, allocs, out));

        let mut g = ctx.state.lock().expect("scheduler lock");
        g.done += 1;
        for &s in &ctx.succs[id] {
            g.indeg[s] -= 1;
            if g.indeg[s] == 0 {
                g.ready.push(Prio {
                    rank: ctx.rank[s],
                    id: s,
                });
            }
        }
        drop(g);
        ctx.cv.notify_all();
    }
}

/// Executes the plan on `jobs` workers (inline on the caller when
/// `jobs <= 1`), handing every task body the run's `store`. Returns the
/// task trace in id order plus every unit's output tagged with its
/// destination slot.
pub(crate) fn execute(
    plan: Plan,
    jobs: usize,
    started: Instant,
    store: &Store,
) -> (Vec<TaskPerf>, Vec<UnitResult>) {
    let n = plan.tasks.len();
    if n == 0 {
        return (Vec::new(), Vec::new());
    }

    // rank[t] = cost[t] + heaviest downstream chain. Ids are
    // topological, so one reverse pass relaxing each task into its
    // dependencies settles every rank.
    let mut rank: Vec<f64> = plan.tasks.iter().map(|t| t.cost).collect();
    for i in (0..n).rev() {
        for &d in &plan.tasks[i].deps {
            let through = plan.tasks[d].cost + rank[i];
            if rank[d] < through {
                rank[d] = through;
            }
        }
    }

    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for (i, t) in plan.tasks.iter().enumerate() {
        indeg[i] = t.deps.len();
        for &d in &t.deps {
            succs[d].push(i);
        }
    }
    let ready: BinaryHeap<Prio> = (0..n)
        .filter(|&i| indeg[i] == 0)
        .map(|i| Prio { rank: rank[i], id: i })
        .collect();

    let mut meta = Vec::with_capacity(n);
    let mut bodies = Vec::with_capacity(n);
    for t in plan.tasks {
        meta.push((t.kind, t.label, t.figure, t.deps, t.slot));
        bodies.push(Mutex::new(Some(t.body)));
    }

    let ctx = Ctx {
        n,
        state: Mutex::new(SchedState {
            ready,
            indeg,
            done: 0,
        }),
        cv: Condvar::new(),
        bodies,
        results: (0..n).map(|_| Mutex::new(None)).collect(),
        succs,
        rank,
        started,
    };

    if jobs <= 1 {
        worker(&ctx, store, 0);
    } else {
        std::thread::scope(|scope| {
            for w in 0..jobs {
                let ctx = &ctx;
                scope.spawn(move || worker(ctx, store, w));
            }
        });
    }

    let mut trace = Vec::with_capacity(n);
    let mut units = Vec::new();
    for (i, ((kind, label, figure, deps, slot), result)) in
        meta.into_iter().zip(ctx.results).enumerate()
    {
        let (start_ms, end_ms, thread, events, allocs, out) = result
            .into_inner()
            .expect("result lock")
            .expect("every task ran");
        trace.push(TaskPerf {
            id: i as u64,
            kind: kind.to_string(),
            label,
            figure,
            thread: thread as u64,
            start_ms,
            end_ms,
            events,
            allocs,
            deps: deps.into_iter().map(|d| d as u64).collect(),
        });
        if let Some(slot) = slot {
            units.push(UnitResult {
                slot,
                label: trace.last().expect("just pushed").label.clone(),
                out: out.expect("unit tasks produce output"),
                wall_ms: end_ms - start_ms,
                allocs,
            });
        }
    }
    (trace, units)
}
