//! Runner determinism: the figures assembled from parallel unit results
//! must be byte-identical to a sequential run — merge order is declared
//! order, never completion order. Scale is pinned explicitly so the test
//! never touches the environment.

use bench::figures::{spec_by_id, Scale};
use bench::runner;

/// fig14 (3 units, cheap at quick scale): sequential single-figure run
/// vs the thread-pool runner at 4 workers.
#[test]
fn parallel_merge_is_byte_identical_to_sequential() {
    let scale = Scale::quick();
    let seq = runner::run_single(spec_by_id(scale, "fig14").expect("fig14 registered"));
    let (mut par, report) =
        runner::run(vec![spec_by_id(scale, "fig14").unwrap()], 4, scale.quick);
    assert_eq!(par.len(), 1);
    let par = par.remove(0);

    assert_eq!(seq.figure.to_json(), par.figure.to_json());
    assert_eq!(seq.figure.to_csv(), par.figure.to_csv());
    assert_eq!(seq.sample_xs, par.sample_xs);

    // The perf report preserves declared unit order.
    let labels: Vec<&str> = report.units.iter().map(|u| u.unit.as_str()).collect();
    assert_eq!(labels, ["vm-families", "docker", "process"]);
    assert!(report.units.iter().all(|u| u.figure == "fig14"));
}

/// Two runner invocations with different worker counts agree with each
/// other across multiple figures.
#[test]
fn worker_count_does_not_change_output() {
    let scale = Scale::quick();
    let ids = ["fig16b", "fig18"];
    let build = || {
        ids.iter()
            .map(|id| spec_by_id(scale, id).expect("registered"))
            .collect::<Vec<_>>()
    };
    let (one, _) = runner::run(build(), 1, scale.quick);
    let (four, _) = runner::run(build(), 4, scale.quick);
    assert_eq!(one.len(), four.len());
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(a.figure.to_json(), b.figure.to_json());
    }
}

/// Every run starts cold, so each one really exercises the producers:
/// its trace holds chain tasks, probe tasks (one per probe walk) and
/// compute tasks.
fn assert_producers_ran(report: &metrics::RunnerReport, jobs: usize) {
    for kind in ["chain", "probe", "compute"] {
        assert!(
            report.tasks.iter().any(|t| t.kind == kind),
            "jobs={jobs}: no {kind} task ran"
        );
    }
}

/// The scheduler keeps artefacts byte-identical at every worker count:
/// `--jobs 1` (the `--seq` path), 2 and 8 produce the same figure JSON
/// and CSV, and the report's per-unit rows keep declared order with
/// identical deterministic fields (wall-clock and allocation counts are
/// the only things allowed to move).
#[test]
fn artefacts_identical_across_worker_counts() {
    let scale = Scale::quick();
    let ids = ["fig04", "fig05", "fig12a", "fig12b", "fig13", "fig17", "fig18", "faults"];
    let build = || {
        ids.iter()
            .map(|id| spec_by_id(scale, id).expect("registered"))
            .collect::<Vec<_>>()
    };
    let (base_figs, base_rep) = runner::run(build(), 1, scale.quick);
    assert_producers_ran(&base_rep, 1);
    for jobs in [2, 8] {
        let (figs, rep) = runner::run(build(), jobs, scale.quick);
        assert_producers_ran(&rep, jobs);
        assert_eq!(base_figs.len(), figs.len());
        for (a, b) in base_figs.iter().zip(&figs) {
            assert_eq!(a.figure.to_json(), b.figure.to_json(), "jobs={jobs}");
            assert_eq!(a.figure.to_csv(), b.figure.to_csv(), "jobs={jobs}");
        }
        let stable = |r: &metrics::RunnerReport| {
            r.units
                .iter()
                .map(|u| (u.figure.clone(), u.unit.clone(), u.events, u.virtual_ms.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(stable(&base_rep), stable(&rep), "jobs={jobs}");
    }
}

/// The planner's task graph is well-formed: task ids are topological
/// (so the DAG cannot contain a cycle), every dependency edge points at
/// an existing task, and every infrastructure resource has exactly one
/// producer task. Planned at full scale into a fresh store, without
/// running anything.
#[test]
fn plan_is_acyclic_with_unique_producers() {
    let mut store = bench::worldcache::Store::default();
    let (heads, plan) =
        bench::sched::plan(bench::figures::all_specs(Scale::full()), &mut store);
    let tasks = plan.view();
    assert!(!tasks.is_empty());

    let mut producers = std::collections::HashMap::new();
    for (i, t) in tasks.iter().enumerate() {
        for &d in &t.deps {
            assert!(d < i, "task {i} ({}) depends on later task {d}", t.label);
        }
        match t.kind {
            "chain" | "probe" | "compute" => {
                // Infrastructure labels name the resource they produce;
                // a duplicate would mean two tasks build the same thing.
                let prev = producers.insert(t.label.clone(), i);
                assert_eq!(prev, None, "duplicate producer for {}", t.label);
                assert!(t.figure.is_empty());
            }
            "unit" => assert!(!t.figure.is_empty()),
            other => panic!("unknown task kind {other}"),
        }
    }

    // Units that declared dependencies got them wired: spot-check every
    // dependency flavour.
    let dep_kinds = |figure: &str| -> Vec<&'static str> {
        tasks
            .iter()
            .filter(|t| t.kind == "unit" && t.figure == figure)
            .flat_map(|t| t.deps.iter().map(|&d| tasks[d].kind))
            .collect()
    };
    assert!(dep_kinds("fig04").contains(&"chain"));
    assert!(dep_kinds("fig13").iter().all(|&k| k == "probe"));
    assert_eq!(dep_kinds("fig13").len(), 4);
    assert!(dep_kinds("fig17").contains(&"compute"));

    // A probe walk is one producer task that climbs its own world: one
    // per distinct walk (fig12a/b and fig13 share four), with no
    // dependencies, and no chain exists only to feed a walk (the walks'
    // 2-Dom0-core worlds have no other reader).
    let probes: Vec<_> = tasks.iter().filter(|t| t.kind == "probe").collect();
    assert_eq!(probes.len(), 4, "one probe task per distinct walk");
    assert!(probes.iter().all(|t| t.deps.is_empty()), "probe tasks have no dependencies");
    assert!(
        !tasks.iter().any(|t| t.kind == "chain" && t.label.contains("/2c/")),
        "a chain task was planned for a walk-only world"
    );

    // Units that mutate a world build it themselves: no churn or
    // cluster unit waits on a producer.
    for figure in ["churn", "cluster"] {
        let units: Vec<_> = tasks
            .iter()
            .filter(|t| t.kind == "unit" && t.figure == figure)
            .collect();
        assert_eq!(units.len(), 6, "{figure} units");
        assert!(units.iter().all(|t| t.deps.is_empty()), "{figure} unit has dependencies");
    }

    // Every unit survived planning (heads come back drained, so count
    // against a fresh registry).
    let n_units = tasks.iter().filter(|t| t.kind == "unit").count();
    let declared: usize = bench::figures::all_specs(Scale::full())
        .iter()
        .map(|s| s.units.len())
        .sum();
    assert_eq!(n_units, declared);
    assert!(heads.iter().all(|h| h.units.is_empty()));
}

/// The registry itself is stable: same scale, same specs.
#[test]
fn registry_is_complete_and_stable() {
    let specs = bench::figures::all_specs(Scale::quick());
    let ids: Vec<&str> = specs.iter().map(|s| s.id).collect();
    assert_eq!(
        ids,
        [
            "fig01", "fig02", "fig04", "fig05", "fig09", "fig10", "fig11", "fig12a",
            "fig12b", "fig13", "fig14", "fig15", "fig16a", "fig16b", "fig16c", "fig17",
            "fig18", "ablations", "faults", "churn", "cluster"
        ]
    );
    for s in &specs {
        assert!(!s.units.is_empty(), "{} has no units", s.id);
    }
}
