//! Dependency-aware DAG scheduler for the figure runner.
//!
//! Most figure units are cheap *readers* of shared results — a
//! world-store chain, a probe walk, a compute run. The planner makes
//! the builds explicit: every distinct resource the units declare (see
//! [`Dep::key`]) becomes exactly one producer task with no
//! dependencies, which builds the whole result and publishes it on the
//! run's [`Store`]:
//!
//! * a **chain** task climbs one world through every rung its readers
//!   declared ([`Store::run_chain`]);
//! * a **probe** task runs one whole probe walk
//!   ([`probewalk::run_walk`](crate::probewalk::run_walk)): climb the
//!   walk's world and probe a throwaway fork at every step;
//! * a **compute** task runs the shared overload simulation;
//! * **unit** tasks are the figure units themselves, gated on their
//!   declared producers and otherwise free to run anywhere.
//!
//! Every run starts cold (the store is per run), so every declared
//! resource gets its producer. Producers precede units in the plan, so
//! task ids are topological, and execution is plan order: the ready
//! heap pops the lowest ready id, so `--jobs 1` runs the tasks exactly
//! in id order and a wider pool always starts the lowest id whose
//! dependencies are done. None of this affects artefact bytes —
//! results are merged in declared order and every task body is
//! deterministic — which the determinism tests and ci.sh's `--jobs`
//! byte gates pin.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use metrics::TaskPerf;

use crate::figures::{Dep, FigureSpec, UnitOutput};
use crate::worldcache::Store;

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
    pub(crate) fn len(&self) -> usize {
        self.tasks.len()
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

/// Builds the task graph for `specs`. Returns the figure heads
/// (stripped of units, for merging) and the plan.
///
/// With the cache off (`store.cache == false`) no producer tasks are
/// emitted and units carry no dependencies: each unit body simulates
/// what it needs inline, byte-identically — the planner only ever
/// changes *when* work happens, never *what* runs.
pub fn plan(specs: Vec<FigureSpec>, store: &Store) -> (Vec<FigureSpec>, Plan) {
    // ---- distinct resources, in first-encounter order, with every
    // rung a chain's readers declared ----
    let mut resources: Vec<(Dep, Vec<usize>)> = Vec::new();
    let mut producer: HashMap<String, usize> = HashMap::new();
    if store.cache {
        for dep in specs.iter().flat_map(|s| &s.units).flat_map(|u| &u.deps) {
            let id = *producer.entry(dep.key()).or_insert_with(|| {
                resources.push((dep.clone(), Vec::new()));
                resources.len() - 1
            });
            if let Dep::Chain { rung, .. } = dep {
                resources[id].1.push(*rung);
            }
        }
    }

    // ---- one producer task per resource, none with dependencies ----
    let mut tasks: Vec<Task> = resources.into_iter().map(producer_task).collect();

    // ---- unit tasks, in declared (figure, unit) order ----
    let mut heads = Vec::with_capacity(specs.len());
    for (fi, mut spec) in specs.into_iter().enumerate() {
        for (ui, unit) in spec.units.drain(..).enumerate() {
            // Every declared key has its producer, unless the cache is
            // off: then nothing was planned and the unit waits on nothing.
            let mut deps: Vec<usize> =
                unit.deps.iter().filter_map(|d| producer.get(&d.key()).copied()).collect();
            deps.sort_unstable();
            deps.dedup();
            tasks.push(Task {
                kind: "unit",
                label: unit.label,
                figure: spec.id.to_string(),
                deps,
                slot: Some((fi, ui)),
                body: Body::Unit(unit.run),
            });
        }
        heads.push(spec);
    }
    (heads, Plan { tasks })
}

/// The task that builds `dep`'s resource; a chain climbs through
/// `rungs` and is labelled with its top one.
fn producer_task((dep, rungs): (Dep, Vec<usize>)) -> Task {
    let (kind, label) = match &dep {
        Dep::Chain { spec, .. } => {
            let top = rungs.iter().copied().max().unwrap_or(0);
            ("chain", format!("chain {}@{top}", spec.label()))
        }
        Dep::Walk { mode, steps } => {
            ("probe", format!("probe {} ({} steps)", mode.label(), steps.len()))
        }
        Dep::Compute { .. } => ("compute", dep.describe()),
    };
    let body: Box<dyn FnOnce(&Store) -> u64 + Send> = match dep {
        Dep::Chain { spec, .. } => Box::new(move |store: &Store| store.run_chain(&spec, &rungs)),
        Dep::Walk { mode, steps } => Box::new(move |store: &Store| store.run_walk(mode, &steps)),
        Dep::Compute { cfg } => Box::new(move |store: &Store| store.run_compute(&cfg)),
    };
    Task {
        kind,
        label,
        figure: String::new(),
        deps: Vec::new(),
        slot: None,
        body: Body::Infra(body),
    }
}

/// A completed unit task's output, tagged with its destination slot.
pub(crate) struct UnitResult {
    pub slot: (usize, usize),
    pub label: String,
    pub out: UnitOutput,
    pub wall_ms: f64,
    pub allocs: u64,
}

struct SchedState {
    /// Ready task ids, lowest first.
    ready: BinaryHeap<Reverse<usize>>,
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
                if let Some(Reverse(id)) = g.ready.pop() {
                    break id;
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
                g.ready.push(Reverse(s));
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
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for (i, t) in plan.tasks.iter().enumerate() {
        indeg[i] = t.deps.len();
        for &d in &t.deps {
            succs[d].push(i);
        }
    }
    let ready: BinaryHeap<Reverse<usize>> =
        (0..n).filter(|&i| indeg[i] == 0).map(Reverse).collect();

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
