//! Fluid processor-sharing CPU contention model.
//!
//! Guests are pinned to cores (the paper assigns VMs to cores round-robin).
//! Each core has capacity 1.0. Two task kinds exist:
//!
//! - **Finite** tasks have a fixed amount of CPU work (e.g. a guest boot,
//!   a compute-service job) and want as much CPU as they can get.
//! - **Background** tasks model idle-guest housekeeping (Debian services,
//!   Tinyx timer ticks) as a fluid fractional demand of one core.
//!
//! Allocation per core is the classic water-filling fair share: every
//! runnable task receives an equal share `s`, background tasks consume at
//! most their demand, and the surplus is redistributed. This reproduces
//! how the Xen credit scheduler degrades boot times under load (Fig. 11)
//! and the CPU-utilisation scaling of Fig. 15.
//!
//! Density sweeps register thousands of background demands per core, but
//! only a handful of distinct values (one per guest image), and every boot
//! probes the share three times (add probe / read rate / swap probe for
//! the idle demand). Each core therefore keeps its background demands as
//! a sorted run-length multiset: one `Run` per distinct demand,
//! ascending, carrying the fold-left demand sum through its end. The
//! water-fill visits only run starts and the all-satisfied end, so a
//! finite-task mutation costs O(distinct demands), and a background
//! mutation re-folds only the runs at or above the changed one.
//!
//! The shares are bit-identical to gathering every demand, sorting and
//! scanning each prefix: a run's fold is exactly the float the sorted
//! fold-left sum reaches at its end, and no position strictly inside a
//! run can end the scan first. There the scan's candidate
//! `s_j = (1 - prefix_j) / (k - j + n)` satisfies
//! `s_{j+1} - d = (s_j - d) * D_j / (D_j - 1)` with `D_j = k - j + n`, so
//! in exact arithmetic it only moves away from the run's demand `d`, and
//! a position inside the run accepts only if its run start already
//! accepted. The test oracle pins the floats.

use crate::idmap::IdMap;
use crate::time::SimTime;

/// Handle to a task registered with [`CpuSim`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TaskId(u64);

/// The two task kinds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TaskKind {
    /// `remaining` CPU-seconds of work (measured at reference core speed).
    Finite {
        /// CPU-seconds left.
        remaining: f64,
    },
    /// A fluid fractional demand of one core, in `[0, 1]`.
    Background {
        /// Demanded fraction of a core.
        demand: f64,
    },
}

/// `count` equal background demands in a core's sorted multiset.
#[derive(Clone, Copy, Debug)]
struct Run {
    demand: f64,
    count: usize,
    /// Fold-left sum of every demand up to and including this run, in
    /// ascending order.
    fold: f64,
}

/// One core's tasks (kinds inline, insertion-ordered), its background
/// demands as ascending runs, and the cached fair share.
#[derive(Clone, Debug)]
struct CoreState {
    entries: Vec<(TaskId, TaskKind)>,
    /// Cached fair share (rate granted to each finite task).
    share: f64,
    runs: Vec<Run>,
    /// Finite tasks with remaining work > 0.
    n_active: usize,
}

impl CoreState {
    fn new() -> Self {
        CoreState {
            entries: Vec::new(),
            share: 1.0,
            runs: Vec::new(),
            n_active: 0,
        }
    }

    /// The fold through the end of the run below `i`.
    fn fold_below(&self, i: usize) -> f64 {
        if i == 0 {
            0.0
        } else {
            self.runs[i - 1].fold
        }
    }

    /// Adds `demand` at the end of its run (a stable sort puts it there),
    /// so that run's fold takes one more addition; the runs above re-fold.
    fn insert_demand(&mut self, demand: f64) {
        let i = self.runs.partition_point(|r| r.demand < demand);
        match self.runs.get_mut(i) {
            Some(r) if r.demand == demand => {
                r.count += 1;
                r.fold += demand;
            }
            _ => {
                let fold = self.fold_below(i) + demand;
                self.runs.insert(
                    i,
                    Run {
                        demand,
                        count: 1,
                        fold,
                    },
                );
            }
        }
        self.refold(i + 1);
    }

    fn remove_demand(&mut self, demand: f64) {
        let i = self.runs.partition_point(|r| r.demand < demand);
        let r = &mut self.runs[i];
        debug_assert!(r.demand == demand, "demand {demand} has no run");
        r.count -= 1;
        if r.count == 0 {
            self.runs.remove(i);
        }
        self.refold(i);
    }

    /// Recomputes the folds of the runs from `from` upwards, one addition
    /// per demand, exactly as a fold over the sorted demands would.
    fn refold(&mut self, from: usize) {
        let mut acc = self.fold_below(from);
        for r in &mut self.runs[from..] {
            for _ in 0..r.count {
                acc += r.demand;
            }
            r.fold = acc;
        }
    }
}

/// Per-core processor-sharing simulator over virtual time.
#[derive(Clone)]
pub struct CpuSim {
    /// Task id -> core index.
    tasks: IdMap<TaskId, usize>,
    per_core: Vec<CoreState>,
    now: SimTime,
    next_id: u64,
    speed: f64,
}

impl CpuSim {
    /// Creates a simulator with `cores` cores of relative speed `speed`
    /// (1.0 = the paper's Xeon E5-1630 v3 reference).
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or `speed <= 0`.
    pub fn new(cores: usize, speed: f64) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(speed > 0.0, "speed must be positive");
        CpuSim {
            tasks: IdMap::default(),
            per_core: vec![CoreState::new(); cores],
            now: SimTime::ZERO,
            next_id: 0,
            speed,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.per_core.len()
    }

    /// Current virtual time of the CPU model.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of tasks currently pinned to `core`.
    pub fn tasks_on_core(&self, core: usize) -> usize {
        self.per_core[core].entries.len()
    }

    /// Total tasks ever registered (finite and background) — a cheap
    /// measure of how much scheduling work this simulation performed.
    pub fn tasks_started(&self) -> u64 {
        self.next_id
    }

    /// Registers a finite task with `work` CPU-seconds on `core`.
    pub fn add_finite(&mut self, core: usize, work: f64) -> TaskId {
        self.add(core, TaskKind::Finite { remaining: work.max(0.0) })
    }

    /// Registers a background task demanding `demand` of a core.
    ///
    /// # Panics
    ///
    /// Panics if `demand` is NaN.
    pub fn add_background(&mut self, core: usize, demand: f64) -> TaskId {
        assert!(!demand.is_nan(), "background demand must be a number");
        self.add(
            core,
            TaskKind::Background {
                demand: demand.clamp(0.0, 1.0),
            },
        )
    }

    fn add(&mut self, core: usize, kind: TaskKind) -> TaskId {
        assert!(core < self.per_core.len(), "core {core} out of range");
        let id = TaskId(self.next_id);
        self.next_id += 1;
        self.tasks.insert(id, core);
        let cs = &mut self.per_core[core];
        match kind {
            TaskKind::Finite { remaining } => {
                if remaining > 0.0 {
                    cs.n_active += 1;
                }
            }
            TaskKind::Background { demand } => cs.insert_demand(demand),
        }
        cs.entries.push((id, kind));
        self.recompute(core);
        id
    }

    /// Removes a task, returning its remaining work (finite) or demand
    /// (background). Returns `None` if the id is unknown.
    pub fn remove(&mut self, id: TaskId) -> Option<f64> {
        let core = self.tasks.remove(&id)?;
        let cs = &mut self.per_core[core];
        let pos = cs
            .entries
            .iter()
            .rposition(|(tid, _)| *tid == id)
            .expect("task map and core entries out of sync");
        let (_, kind) = cs.entries.remove(pos);
        let left = match kind {
            TaskKind::Finite { remaining } => {
                if remaining > 0.0 {
                    cs.n_active -= 1;
                }
                remaining
            }
            TaskKind::Background { demand } => {
                cs.remove_demand(demand);
                demand
            }
        };
        self.recompute(core);
        Some(left)
    }

    fn kind_of(&self, id: TaskId) -> Option<TaskKind> {
        let core = *self.tasks.get(&id)?;
        let cs = &self.per_core[core];
        cs.entries
            .iter()
            .rev()
            .find(|(tid, _)| *tid == id)
            .map(|(_, k)| *k)
    }

    /// Remaining work of a finite task.
    pub fn remaining(&self, id: TaskId) -> Option<f64> {
        match self.kind_of(id)? {
            TaskKind::Finite { remaining } => Some(remaining),
            TaskKind::Background { .. } => None,
        }
    }

    /// Rate (CPU-seconds per second) currently granted to a finite task.
    pub fn rate_of(&self, id: TaskId) -> Option<f64> {
        let core = *self.tasks.get(&id)?;
        match self.kind_of(id)? {
            TaskKind::Finite { .. } => Some(self.per_core[core].share * self.speed),
            TaskKind::Background { .. } => None,
        }
    }

    /// Utilised fraction of `core` (0..=1).
    pub fn core_utilization(&self, core: usize) -> f64 {
        let cs = &self.per_core[core];
        let s = cs.share;
        let mut u = 0.0;
        for (_, kind) in &cs.entries {
            match *kind {
                TaskKind::Finite { remaining } if remaining > 0.0 => u += s,
                TaskKind::Finite { .. } => {}
                TaskKind::Background { demand } => u += demand.min(s),
            }
        }
        u.min(1.0)
    }

    /// Mean utilisation across all cores (0..=1).
    pub fn total_utilization(&self) -> f64 {
        let n = self.per_core.len();
        (0..n).map(|c| self.core_utilization(c)).sum::<f64>() / n as f64
    }

    /// Time of the earliest finite-task completion under current
    /// allocations, with the task id. `None` if no finite work remains.
    /// A task already out of work completes now (the lowest such id);
    /// otherwise ties on the completion time go to the lower id.
    pub fn next_completion(&self) -> Option<(SimTime, TaskId)> {
        let mut done: Option<TaskId> = None;
        let mut best: Option<(SimTime, TaskId)> = None;
        for cs in &self.per_core {
            let rate = cs.share * self.speed;
            for &(id, kind) in &cs.entries {
                let TaskKind::Finite { remaining } = kind else {
                    continue;
                };
                if remaining <= 0.0 {
                    done = Some(done.map_or(id, |d| d.min(id)));
                } else if rate > 0.0 {
                    // Round up to 1 ns: a sub-nanosecond residue (float
                    // error after a burn) must still advance the clock,
                    // or run_to_completion would spin forever.
                    let dt = SimTime::from_secs_f64(remaining / rate).max(SimTime::from_nanos(1));
                    let cand = (self.now + dt, id);
                    if best.is_none_or(|b| cand < b) {
                        best = Some(cand);
                    }
                }
            }
        }
        done.map(|id| (self.now, id)).or(best)
    }

    /// Advances the model to absolute time `t`, burning down finite work.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a finite task would complete strictly
    /// before `t` (callers must advance to [`CpuSim::next_completion`]
    /// boundaries first).
    pub fn advance_to(&mut self, t: SimTime) {
        if t <= self.now {
            return;
        }
        let dt = (t - self.now).as_secs_f64();
        for cs in &mut self.per_core {
            let rate = cs.share * self.speed;
            for (_, kind) in &mut cs.entries {
                if let TaskKind::Finite { remaining } = kind {
                    let burn = rate * dt;
                    debug_assert!(
                        *remaining - burn > -1e-6,
                        "finite task overshot completion by {}",
                        burn - *remaining
                    );
                    let was = *remaining;
                    *remaining = (*remaining - burn).max(0.0);
                    if was > 0.0 && *remaining == 0.0 {
                        cs.n_active -= 1;
                    }
                }
            }
        }
        self.now = t;
    }

    /// Runs the given finite task to completion (finite tasks completing
    /// earlier — on any core — are removed along the way), removes it, and
    /// returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or not finite.
    pub fn run_to_completion(&mut self, id: TaskId) -> SimTime {
        match self.kind_of(id) {
            Some(TaskKind::Finite { .. }) => {}
            Some(_) => panic!("not a finite task"),
            None => panic!("unknown task"),
        }
        loop {
            let remaining = match self.kind_of(id) {
                Some(TaskKind::Finite { remaining }) => remaining,
                _ => unreachable!(),
            };
            if remaining <= 1e-9 {
                let at = self.now;
                self.remove(id);
                return at;
            }
            let (at, _) = self
                .next_completion()
                .expect("finite work exists, a completion must too");
            self.advance_to(at);
            self.reap_done();
            if !self.tasks.contains_key(&id) {
                return at;
            }
        }
    }

    /// Removes every finite task whose work has reached zero.
    pub fn reap_done(&mut self) -> Vec<TaskId> {
        let mut done: Vec<TaskId> = Vec::new();
        for cs in &self.per_core {
            for (id, kind) in &cs.entries {
                if let TaskKind::Finite { remaining } = kind {
                    if *remaining <= 1e-9 {
                        done.push(*id);
                    }
                }
            }
        }
        done.sort();
        for &id in &done {
            self.remove(id);
        }
        done
    }

    /// Recomputes the water-filling fair share for one core.
    ///
    /// Solves `sum_i min(d_i, s) + n_finite * s = 1` for `s`, where `d_i`
    /// are background demands on the core. With no finite tasks the share
    /// is the cap applied to background demands (1.0 if undersubscribed).
    fn recompute(&mut self, core: usize) {
        let cs = &mut self.per_core[core];
        let total_bg = cs.runs.last().map_or(0.0, |r| r.fold);
        let n_finite = cs.n_active;
        cs.share = if n_finite == 0 {
            if total_bg <= 1.0 {
                1.0
            } else {
                // Oversubscribed by background alone: water-fill the cap.
                Self::water_fill(&cs.runs, 0)
            }
        } else if total_bg + n_finite as f64 <= 1.0 {
            // Nobody is throttled; a finite task can take a whole core
            // minus what backgrounds consume.
            1.0 - total_bg
        } else {
            Self::water_fill(&cs.runs, n_finite)
        };
    }

    /// Water-filling solve of `sum min(d_i, s) + n*s = 1` over ascending
    /// runs. Candidate `j` assumes the `j` smallest demands are satisfied
    /// (`d <= s`) and everything else receives `s`; only run starts and
    /// `j == k` can be the first candidate within both window bounds
    /// (module doc).
    fn water_fill(runs: &[Run], n_finite: usize) -> f64 {
        let k: usize = runs.iter().map(|r| r.count).sum();
        let mut j = 0;
        let mut prefix = 0.0;
        let mut below: Option<f64> = None;
        for r in runs {
            let s = (1.0 - prefix) / (k - j + n_finite) as f64;
            let lower_ok = below.is_none_or(|d| d <= s + 1e-12);
            if lower_ok && r.demand >= s - 1e-12 {
                return s.max(0.0);
            }
            j += r.count;
            prefix = r.fold;
            below = Some(r.demand);
        }
        if n_finite == 0 {
            return 1.0;
        }
        let s = (1.0 - prefix) / n_finite as f64;
        if below.is_none_or(|d| d <= s + 1e-12) {
            return s.max(0.0);
        }
        // Numerically always resolved above; be safe.
        (1.0 / (k + n_finite) as f64).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn lone_task_runs_at_full_speed() {
        let mut cpu = CpuSim::new(1, 1.0);
        let id = cpu.add_finite(0, 0.180);
        let done = cpu.run_to_completion(id);
        assert_eq!(done, SimTime::from_millis(180));
    }

    #[test]
    fn speed_scales_rates() {
        let mut cpu = CpuSim::new(1, 0.5);
        let id = cpu.add_finite(0, 0.1);
        let done = cpu.run_to_completion(id);
        assert_eq!(done, SimTime::from_millis(200));
    }

    #[test]
    fn two_finite_tasks_share_a_core() {
        let mut cpu = CpuSim::new(1, 1.0);
        let a = cpu.add_finite(0, 1.0);
        let b = cpu.add_finite(0, 1.0);
        assert!(approx(cpu.rate_of(a).unwrap(), 0.5));
        let done_a = cpu.run_to_completion(a);
        // Both share until both hit 2 s (equal work, equal shares); b is
        // reaped along the way because it finished at the same instant.
        assert_eq!(done_a, SimTime::from_secs(2));
        assert!(cpu.remaining(b).is_none());
    }

    #[test]
    fn background_slows_finite_task() {
        let mut cpu = CpuSim::new(1, 1.0);
        cpu.add_background(0, 0.5);
        let id = cpu.add_finite(0, 0.5);
        // Finite task gets 1 - 0.5 = 0.5 of the core.
        let done = cpu.run_to_completion(id);
        assert_eq!(done, SimTime::from_secs(1));
    }

    #[test]
    fn oversubscribed_core_water_fills() {
        let mut cpu = CpuSim::new(1, 1.0);
        // Two greedy backgrounds (0.8 each) + one finite task:
        // all three are throttled to s = 1/3.
        cpu.add_background(0, 0.8);
        cpu.add_background(0, 0.8);
        let id = cpu.add_finite(0, 1.0);
        assert!(approx(cpu.rate_of(id).unwrap(), 1.0 / 3.0));
        // One small background (0.1) + one greedy (0.9) + one finite:
        // s solves 0.1 + s + s = 1 -> s = 0.45.
        let mut cpu = CpuSim::new(1, 1.0);
        cpu.add_background(0, 0.1);
        cpu.add_background(0, 0.9);
        let id = cpu.add_finite(0, 0.45);
        assert!(approx(cpu.rate_of(id).unwrap(), 0.45));
        assert_eq!(cpu.run_to_completion(id), SimTime::from_secs(1));
    }

    #[test]
    fn utilization_counts_background_demand() {
        let mut cpu = CpuSim::new(4, 1.0);
        for core in 0..4 {
            cpu.add_background(core, 0.25);
        }
        assert!(approx(cpu.total_utilization(), 0.25));
        cpu.add_finite(0, 10.0);
        assert!(approx(cpu.core_utilization(0), 1.0));
    }

    #[test]
    fn background_oversubscription_caps_at_one() {
        let mut cpu = CpuSim::new(1, 1.0);
        for _ in 0..10 {
            cpu.add_background(0, 0.5);
        }
        assert!(approx(cpu.core_utilization(0), 1.0));
    }

    #[test]
    fn removing_tasks_restores_rate() {
        let mut cpu = CpuSim::new(1, 1.0);
        let bg = cpu.add_background(0, 0.5);
        let id = cpu.add_finite(0, 1.0);
        assert!(approx(cpu.rate_of(id).unwrap(), 0.5));
        cpu.remove(bg);
        assert!(approx(cpu.rate_of(id).unwrap(), 1.0));
    }

    #[test]
    fn next_completion_orders_across_cores() {
        let mut cpu = CpuSim::new(2, 1.0);
        let slow = cpu.add_finite(0, 2.0);
        let fast = cpu.add_finite(1, 1.0);
        let (t, id) = cpu.next_completion().unwrap();
        assert_eq!(id, fast);
        assert_eq!(t, SimTime::from_secs(1));
        cpu.advance_to(t);
        cpu.remove(fast);
        let (t2, id2) = cpu.next_completion().unwrap();
        assert_eq!(id2, slow);
        assert_eq!(t2, SimTime::from_secs(2));
    }

    #[test]
    fn advance_burns_work_proportionally() {
        let mut cpu = CpuSim::new(1, 1.0);
        let a = cpu.add_finite(0, 1.0);
        let b = cpu.add_finite(0, 2.0);
        cpu.advance_to(SimTime::from_secs(1));
        assert!(approx(cpu.remaining(a).unwrap(), 0.5));
        assert!(approx(cpu.remaining(b).unwrap(), 1.5));
    }

    #[test]
    fn completion_of_peer_speeds_up_survivor() {
        let mut cpu = CpuSim::new(1, 1.0);
        let _a = cpu.add_finite(0, 0.5);
        let b = cpu.add_finite(0, 1.0);
        // Phase 1: both at 0.5 until t=1 (a done). Phase 2: b alone,
        // 0.5 work at rate 1 -> t=1.5.
        let done_b = cpu.run_to_completion(b);
        assert_eq!(done_b, SimTime::from_millis(1500));
    }

    /// Water-filling solve of `sum min(d_i, s) + n*s = 1` over sorted `d`,
    /// scanning every prefix.
    fn water_fill_sorted(sorted_demands: &[f64], n_finite: usize) -> f64 {
        let k = sorted_demands.len();
        let mut prefix = 0.0;
        for j in 0..=k {
            // Assume d_1..d_j are fully satisfied (d_i <= s), the rest and
            // all finite tasks receive s.
            let denom = (k - j + n_finite) as f64;
            if denom == 0.0 {
                return 1.0;
            }
            let s = (1.0 - prefix) / denom;
            let lower_ok = j == 0 || sorted_demands[j - 1] <= s + 1e-12;
            let upper_ok = j == k || sorted_demands[j] >= s - 1e-12;
            if lower_ok && upper_ok {
                return s.max(0.0);
            }
            if j < k {
                prefix += sorted_demands[j];
            }
        }
        (1.0 / (k + n_finite).max(1) as f64).max(0.0)
    }

    /// The share of a core by gathering its tasks, sorting the demands
    /// and scanning every prefix.
    fn oracle_share(cs: &CoreState) -> f64 {
        let mut sorted = Vec::new();
        let mut n_finite = 0usize;
        for (_, kind) in &cs.entries {
            match *kind {
                TaskKind::Finite { remaining } if remaining > 0.0 => n_finite += 1,
                TaskKind::Finite { .. } => {}
                TaskKind::Background { demand } => sorted.push(demand),
            }
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let total_bg: f64 = sorted.iter().sum();
        if n_finite == 0 {
            if total_bg <= 1.0 {
                1.0
            } else {
                water_fill_sorted(&sorted, 0)
            }
        } else if total_bg + n_finite as f64 <= 1.0 {
            1.0 - total_bg
        } else {
            water_fill_sorted(&sorted, n_finite)
        }
    }

    /// Through seeded histories of background and finite adds, removals
    /// of either kind and burns to the next completion, every core's
    /// share is bit-identical to the gather + sort + scan solve. Each
    /// history starts from one core pre-loaded with `n` equal demands
    /// (or none), including oversubscribed cores.
    #[test]
    fn run_length_solve_matches_sorted_oracle() {
        const DEMANDS: [f64; 7] = [0.0, 2e-5, 3e-5, 1e-3, 0.25, 0.6, 0.8];
        const PRELOADS: [(f64, usize); 6] = [
            (0.0, 0),
            (0.003, 400),
            (0.02, 60),
            (0.25, 7),
            (0.6, 3),
            (0.0, 100),
        ];
        for (case, &(preload, n)) in PRELOADS.iter().enumerate() {
            for seed in 0..4u64 {
                let mut rng = SimRng::new(seed * 16 + case as u64);
                let mut cpu = CpuSim::new(3, 1.0);
                let mut live: Vec<TaskId> =
                    (0..n).map(|_| cpu.add_background(0, preload)).collect();
                for step in 0..400 {
                    let core = rng.index(cpu.cores());
                    let op = match rng.index(6) {
                        0 | 1 => {
                            let demand = DEMANDS[rng.index(DEMANDS.len())];
                            live.push(cpu.add_background(core, demand));
                            "add_background"
                        }
                        2 => {
                            live.push(cpu.add_finite(core, rng.uniform(0.0, 0.5)));
                            "add_finite"
                        }
                        3 | 4 if !live.is_empty() => {
                            let id = live.swap_remove(rng.index(live.len()));
                            cpu.remove(id).expect("live task");
                            "remove"
                        }
                        _ => {
                            if let Some((t, _)) = cpu.next_completion() {
                                cpu.advance_to(t);
                            }
                            let done = cpu.reap_done();
                            live.retain(|id| !done.contains(id));
                            "advance+reap"
                        }
                    };
                    for (c, cs) in cpu.per_core.iter().enumerate() {
                        assert_eq!(
                            cs.share.to_bits(),
                            oracle_share(cs).to_bits(),
                            "core {c} diverges after {op} at step {step} \
                             (preload {preload}x{n}, seed {seed}): {} vs {}",
                            cs.share,
                            oracle_share(cs)
                        );
                    }
                }
            }
        }
    }

    /// Host CPU time of `boot_vm`'s probe cycle (`add_finite`, `rate_of`,
    /// `remove`) does not grow with the background tasks on the core:
    /// the median over interleaved batches with 4000 tasks is at most
    /// twice that with 200. Gathering and sorting the core's demands on
    /// every add and remove reads about 20x.
    #[test]
    fn boot_probe_cost_does_not_grow_with_tasks() {
        const CYCLES: u32 = 200;
        const BATCHES: usize = 15;
        let mut hosts: Vec<(CpuSim, Vec<f64>)> = [200, 4000]
            .into_iter()
            .map(|n| {
                let mut cpu = CpuSim::new(1, 1.0);
                for i in 0..n {
                    cpu.add_background(0, if i % 4 == 3 { 3e-5 } else { 2e-5 });
                }
                (cpu, Vec::new())
            })
            .collect();
        for _ in 0..BATCHES {
            for (cpu, per_cycle) in &mut hosts {
                let start = crate::thread_cpu_ns();
                for _ in 0..CYCLES {
                    let probe = cpu.add_finite(0, 0.01);
                    std::hint::black_box(cpu.rate_of(probe));
                    cpu.remove(probe);
                }
                per_cycle.push((crate::thread_cpu_ns() - start) as f64 / 1e9 / f64::from(CYCLES));
            }
        }
        let median = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let small = median(&mut hosts[0].1);
        let large = median(&mut hosts[1].1);
        assert!(
            large <= 2.0 * small,
            "a probe cycle with 4000 tasks took {:.2}x as long as with 200 ({:.3} vs {:.3} µs)",
            large / small,
            large * 1e6,
            small * 1e6
        );
    }

    /// A finite task burning to exactly zero mid-advance leaves the
    /// incremental active count consistent with a from-scratch recount.
    #[test]
    fn burned_out_task_leaves_share_consistent() {
        let mut cpu = CpuSim::new(1, 1.0);
        cpu.add_background(0, 0.2);
        let a = cpu.add_finite(0, 0.4);
        let (t, id) = cpu.next_completion().unwrap();
        assert_eq!(id, a);
        cpu.advance_to(t);
        // `a` is done (possibly a residue below 1e-9); a fresh probe's
        // share must match a world that never ran `a`.
        cpu.reap_done();
        let probe = cpu.add_finite(0, 1.0);
        let got = cpu.rate_of(probe).unwrap();
        let mut fresh = CpuSim::new(1, 1.0);
        fresh.add_background(0, 0.2);
        let p2 = fresh.add_finite(0, 1.0);
        assert_eq!(got.to_bits(), fresh.rate_of(p2).unwrap().to_bits());
    }
}
