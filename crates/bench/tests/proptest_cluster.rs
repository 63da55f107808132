//! Cluster-layer invariants (DESIGN.md §6j): the properties that make
//! fork-stamped, epoch-stepped cluster figures trustworthy.
//!
//! * Worker-count independence: the same seed produces byte-identical
//!   `cluster` artefacts at `--jobs 1`, `2` and `8`. Each unit steps
//!   its hosts in index order on its own thread, so cross-host message
//!   order is `(epoch, src_host, seq)`; the DAG runner only decides
//!   which thread runs which unit. The worker count is per run, so the
//!   `--jobs 8` run really spreads the units over several runner
//!   threads even while other tests run concurrently.
//! * Fork fidelity: a host stamped from a [`toolstack::HostTemplate`]
//!   is `world_digest64`-equal to a world built fresh through the full
//!   toolstack path — forking shares structure, never content.
//! * Evacuation hygiene: after a host failure is detected and its
//!   guests are evacuated, every surviving host drains back to the
//!   template's digest and full resource census (the churn leak-check
//!   applied at cluster scale).

use bench::figures::{spec_by_id, Scale};
use bench::runner;
use guests::GuestImage;
use simcore::{Machine, MachinePreset};
use toolstack::{ControlPlane, HostTemplate, ToolstackMode};

fn run_cluster(jobs: usize) -> (metrics::Figure, metrics::RunnerReport) {
    let scale = Scale::quick();
    let spec = spec_by_id(scale, "cluster").expect("cluster registered");
    let (mut runs, report) = runner::run(vec![spec], jobs, scale.quick);
    assert_eq!(runs.len(), 1);
    (runs.remove(0).figure, report)
}

/// Same seed, any width: `--jobs 1/2/8` emit the same bytes.
#[test]
fn cluster_artefacts_identical_across_worker_counts() {
    let (base, _) = run_cluster(1);
    for jobs in [2, 8] {
        let (fig, report) = run_cluster(jobs);
        assert_eq!(base.to_json(), fig.to_json(), "jobs={jobs}");
        assert_eq!(base.to_csv(), fig.to_csv(), "jobs={jobs}");
        if jobs == 8 {
            let workers: std::collections::BTreeSet<u64> = report
                .tasks
                .iter()
                .filter(|t| t.kind == "unit")
                .map(|t| t.thread)
                .collect();
            assert!(workers.len() > 1, "jobs=8 ran the cluster units on workers {workers:?}");
        }
    }
}

/// A stamped fork carries exactly the template's world content: its
/// digest equals both the template's and that of a world built fresh
/// through the full create/boot path.
#[test]
fn forked_host_is_digest_equal_to_fresh_build() {
    let build = || {
        let mut cp = ControlPlane::new(
            Machine::preset(MachinePreset::XeonE5_1630V3),
            1,
            ToolstackMode::LightVm,
            42,
        );
        let img = GuestImage::unikernel_daytime();
        cp.prewarm(&img);
        for i in 0..6 {
            cp.create_and_boot(&format!("t-{i}"), &img)
                .expect("fresh build create");
        }
        cp
    };
    let mut fresh = build();
    let mut template_world = build();
    let template = HostTemplate::capture(&mut template_world, 16);
    let mut stamped = template.stamp(11);
    assert_eq!(stamped.world_digest64(), template.digest());
    assert_eq!(stamped.world_digest64(), fresh.world_digest64());
}

/// The evacuation units record zero digest and census drift across the
/// surviving hosts — the unit itself asserts this (it panics on any
/// leak), and the artefact pins the observed values for the record.
#[test]
fn evacuation_leaves_survivors_census_clean() {
    let (fig, _) = run_cluster(1);
    let mut evac_units = 0;
    for (key, value) in &fig.meta {
        if key.ends_with("evac_digest_drift") || key.ends_with("evac_census_drift") {
            assert_eq!(value, "0", "{key} must be zero");
            evac_units += 1;
        }
        if key.ends_with("evac_evacuated") {
            let n: u64 = value.parse().expect("evacuated count");
            assert!(n > 0, "{key}: evacuation must actually move guests");
        }
    }
    assert_eq!(evac_units, 4, "two evac units, two drift keys each");
}
