//! Plain Linux processes: the lower-bound baseline.
//!
//! "a process is created and launched (using fork/exec) in 3.5 ms on
//! average (9 ms at the 90% percentile)" — paper §4.2. The heavy tail
//! comes from occasional scheduling and page-fault hiccups, reproduced
//! with a tail-jitter distribution.

use std::collections::BTreeSet;

use simcore::{CostModel, SimRng, SimTime};

const MIB: u64 = 1 << 20;

/// Identifies a spawned process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Pid(pub u64);

/// The process baseline runtime.
pub struct ProcessRuntime {
    procs: BTreeSet<Pid>,
    next_pid: u64,
    rng: SimRng,
    /// Resident memory per process, bytes.
    pub rss_per_process: u64,
}

impl ProcessRuntime {
    /// Creates a runtime. Default RSS matches a small interpreter
    /// (Micropython, Figure 14's lowest curve).
    pub fn new(seed: u64) -> ProcessRuntime {
        ProcessRuntime {
            procs: BTreeSet::new(),
            next_pid: 1000,
            rng: SimRng::new(seed),
            rss_per_process: 2 * MIB,
        }
    }

    /// fork + exec. Creation time does not depend on how many processes
    /// already exist.
    pub fn spawn(&mut self, cost: &CostModel) -> (Pid, SimTime) {
        let dt = self
            .rng
            .tail_jitter(cost.process_fork_exec, 0.18, 0.12, 3.2);
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.procs.insert(pid);
        (pid, dt)
    }

    /// Live processes.
    pub fn count(&self) -> usize {
        self.procs.len()
    }

    /// Total resident memory, bytes.
    pub fn total_memory(&self) -> u64 {
        self.procs.len() as u64 * self.rss_per_process
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metricsless::percentile;

    /// Tiny local percentile helper (avoids a dev-dependency cycle with
    /// the metrics crate).
    mod metricsless {
        pub fn percentile(sorted: &[f64], p: f64) -> f64 {
            let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
            sorted[idx]
        }
    }

    #[test]
    fn latency_matches_the_paper_distribution() {
        let cost = CostModel::paper_defaults();
        let mut rt = ProcessRuntime::new(42);
        let mut samples: Vec<f64> = (0..20_000)
            .map(|_| rt.spawn(&cost).1.as_millis_f64())
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let p90 = percentile(&samples, 90.0);
        assert!((2.5..5.0).contains(&mean), "mean {mean:.2} ms");
        assert!((5.0..12.0).contains(&p90), "p90 {p90:.2} ms");
    }

    #[test]
    fn creation_time_is_density_independent() {
        let cost = CostModel::paper_defaults();
        let mut rt = ProcessRuntime::new(7);
        let early: f64 = (0..100).map(|_| rt.spawn(&cost).1.as_millis_f64()).sum();
        for _ in 0..5_000 {
            rt.spawn(&cost);
        }
        let late: f64 = (0..100).map(|_| rt.spawn(&cost).1.as_millis_f64()).sum();
        // Same distribution regardless of population (within noise).
        assert!((late / early) < 1.5 && (early / late) < 1.5);
    }

    #[test]
    fn memory_accounting() {
        let cost = CostModel::paper_defaults();
        let mut rt = ProcessRuntime::new(1);
        assert_eq!(rt.total_memory(), 0);
        rt.spawn(&cost);
        assert_eq!(rt.count(), 1);
        assert_eq!(rt.total_memory(), rt.rss_per_process);
        rt.spawn(&cost);
        assert_eq!(rt.total_memory(), 2 * rt.rss_per_process);
    }
}
