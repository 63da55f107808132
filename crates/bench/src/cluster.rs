//! Cluster-scale simulation: fork-stamped hosts stepped in lockstep
//! epochs (DESIGN.md §6j).
//!
//! Every other figure simulates one host. This figure runs *thousands*:
//! each unit builds one prewarmed template host for its (toolstack,
//! density) configuration
//! ([`Store::simulate`](crate::worldcache::Store::simulate)) and
//! captures it as a [`toolstack::HostTemplate`]; every cluster host is
//! then *stamped* from it (a structure-sharing fork + domid recycling +
//! per-host RNG), so instantiating 1k hosts costs O(hosts) clone work,
//! not O(hosts × boots). Hosts talk only to the controller, over a
//! modelled datacenter network ([`lvnet::Link::datacenter`]) whose
//! delay is the epoch length (conservative lookahead): placements the
//! controller sends at a barrier run during the next epoch, and the
//! reports hosts send during an epoch reach the controller at the next
//! barrier in `(host, send order)` order. The controller does all
//! placement and failure detection at the barrier. `run_scenario`
//! steps the live hosts in index order on the unit's own thread;
//! `--jobs N` runs whole units side by side, so it changes wall clock,
//! never bytes (`ci.sh` gates the artefacts at every width, cached or
//! not, against same-seed replay).
//!
//! Units:
//!
//! * **density ladder** (×3 toolstacks) — stamp 1/10/100/1000 hosts,
//!   place a wave of arrivals through the spread scheduler, report
//!   total guests, create-latency percentiles and message counts per
//!   rung.
//! * **placement** — bin-packing vs spread over a deliberately
//!   imbalanced fleet, warm-pool-aware tie-breaking; reports per-epoch
//!   guest imbalance and mean shell-pool depth.
//! * **evacuation** (×2 toolstacks) — a seeded host failure
//!   (`FaultPlan` draw) is detected by missed heartbeats and the lost
//!   guests are re-placed across the survivors; reports the
//!   evacuation-latency tail and leak-checks every survivor against
//!   the template (digest + census) after the evacuees are drained.
//!
//! Each unit prints guests-per-wall-second and peak RSS to stderr;
//! neither enters the byte-gated artefacts.

use std::collections::VecDeque;
use std::time::Instant;

use guests::GuestImage;
use hypervisor::DomId;
use metrics::{Cdf, Series};
use simcore::{FaultPlan, FaultSite};
use toolstack::fleet::{domid_limit_for, HostTemplate};
use toolstack::{ControlPlane, ToolstackMode, WorldCensus};

use crate::figures::{meta, xeon, FigureSpec, Scale, UnitOutput, UnitSpec};
use crate::worldcache::WorldSpec;

/// Seed for the evacuation units' failure draws (distinct from the
/// plane seed 42, churn's 0xc402/0xc4fa and the faultsweep's 0xfa17).
const EVAC_SEED: u64 = 0xdc0f;

/// Per-host failure probability at the evacuation unit's kill barrier.
const EVAC_RATE: f64 = 0.04;

/// Guests per template host (scaled 1/10 under `LIGHTVM_QUICK`).
const DENSITY: usize = 100;

/// Largest number of additional guests a stamped host may ever hold;
/// sizes the domid recycling limit (satellite: recycling is on by
/// default inside cluster hosts, and only there).
const HEADROOM: u32 = 48;

/// Recycled-name window for evacuation creates (`evac-<k>`): like
/// churn's cohort, reusing canonical names keeps the interner at its
/// saturation fixpoint so survivors census-clean after the drain.
const EVAC_NAMES: usize = 16;

/// Consecutive missed heartbeats before the controller declares a host
/// dead and starts evacuating.
const MISSED_LIMIT: u32 = 2;

// --- the cluster model -----------------------------------------------------

/// A placement: create one guest for slot `.0`; `.1` marks an
/// evacuee. Sent by the controller at a barrier, run by the host
/// during the next epoch.
type Place = (u32, bool);

/// Host→controller traffic, delivered at the next barrier.
enum Report {
    /// Host liveness + load report, sent every epoch.
    Heartbeat { guests: u32, pool: u32 },
    /// Slot placed; `ms` is the simulated create+boot latency.
    Done { slot: u32, evac: bool, ms: f64 },
}

/// One cluster host: a stamped world plus its placement bookkeeping.
struct Host {
    cp: ControlPlane,
    /// Guests this host created on behalf of the controller.
    placed: Vec<DomId>,
    evac_seq: u32,
    failures: u64,
}

#[derive(Clone, Copy, PartialEq)]
enum Policy {
    Spread,
    BinPack,
}

impl Policy {
    fn label(self) -> &'static str {
        match self {
            Policy::Spread => "spread",
            Policy::BinPack => "binpack",
        }
    }
}

/// Controller-side view of one host, built from heartbeats.
#[derive(Clone)]
struct HostView {
    alive: bool,
    seen: bool,
    missed: u32,
    guests: u32,
    pool: u32,
    /// Placements sent to this host and not yet acknowledged.
    inflight: Vec<Place>,
    evac_total: u32,
}

struct Scenario<'a> {
    label: String,
    template: &'a HostTemplate,
    image: &'a GuestImage,
    hosts: usize,
    /// Main epochs; the run then drains until all placements complete.
    epochs: usize,
    /// Arrival guests injected over the first `arrival_epochs` barriers.
    arrivals: usize,
    arrival_epochs: usize,
    policy: Policy,
    /// Max outstanding placements per host (queueing shapes the tail).
    place_cap: u32,
    /// Max guests per host (placement refuses beyond this).
    capacity: u32,
    /// Seeded host-failure draw at this barrier (kill before the epoch
    /// runs): `(barrier, max_victims)`. At least one host dies.
    fail_at: Option<(usize, usize)>,
    /// Pre-drain `(i * 3) % 7` guests from host `i` before the run, so
    /// placement policies face an imbalanced fleet.
    pre_drain: bool,
}

struct ScenarioOut {
    hosts: Vec<Option<Host>>,
    /// Arrival placement latencies (enqueue → completion), ms.
    placed: Vec<f64>,
    /// Evacuation latencies (host failure → guest re-placed), ms.
    evac: Vec<f64>,
    victims: Vec<usize>,
    /// Failure → first detection, ms (0 when no failure configured).
    detect_ms: f64,
    messages: u64,
    epochs_run: usize,
    /// Per-barrier guest imbalance (max − min) across alive hosts.
    imbalance: Vec<f64>,
    /// Per-barrier mean shell-pool depth across alive hosts.
    pool_mean: Vec<f64>,
}

fn run_scenario(sc: &Scenario) -> ScenarioOut {
    let eps = lvnet::Link::datacenter().delay.as_millis_f64();

    let mut hosts: Vec<Option<Host>> = (0..sc.hosts)
        .map(|i| {
            let mut cp = sc.template.stamp(i as u64);
            if sc.pre_drain {
                let k = (i * 3) % 7;
                let mut doms: Vec<DomId> = cp.vms().map(|(d, _)| *d).collect();
                let tail = doms.split_off(doms.len().saturating_sub(k));
                for d in tail {
                    cp.destroy_vm(d).expect("pre-drain destroy");
                }
            }
            Some(Host { cp, placed: Vec::new(), evac_seq: 0, failures: 0 })
        })
        .collect();

    let mut view = vec![
        HostView {
            alive: true,
            seen: false,
            missed: 0,
            guests: sc.template.guests() as u32,
            pool: 0,
            inflight: Vec::new(),
            evac_total: 0,
        };
        sc.hosts
    ];
    // Placement queue. `origin[slot]` is the cluster time the slot
    // became placeable (arrival enqueue / host failure).
    let mut queue: VecDeque<Place> = VecDeque::new();
    let mut origin: Vec<f64> = Vec::new();
    let mut placed: Vec<f64> = Vec::new();
    let mut evac: Vec<f64> = Vec::new();
    let mut victims: Vec<usize> = Vec::new();
    let mut kill_time: Vec<f64> = Vec::new();
    let mut detect_ms = 0.0;
    let mut messages = 0u64;
    let mut imbalance = Vec::new();
    let mut pool_mean = Vec::new();
    // Placements sent at this barrier, per host.
    let mut inboxes: Vec<Vec<Place>> = vec![Vec::new(); sc.hosts];
    // Reports sent during the last epoch, in (host, send order) order.
    let mut reports: Vec<(usize, Report)> = Vec::new();

    let max_epochs = sc.epochs + 512;
    let mut epoch = 0usize;
    loop {
        let t_now = epoch as f64 * eps;

        // --- barrier: controller work, in deterministic order ---------
        // 1. Consume last epoch's reports.
        for v in view.iter_mut() {
            v.seen = false;
        }
        for (h, report) in reports.drain(..) {
            match report {
                Report::Heartbeat { guests, pool } => {
                    view[h].seen = true;
                    view[h].missed = 0;
                    view[h].guests = guests;
                    view[h].pool = pool;
                }
                Report::Done { slot, evac: is_evac, ms } => {
                    view[h].inflight.retain(|&(s, _)| s != slot);
                    let lat = (t_now - origin[slot as usize]) + ms;
                    if is_evac {
                        evac.push(lat);
                    } else {
                        placed.push(lat);
                    }
                }
            }
        }

        // 2. Missed-heartbeat detection → re-queue the placements the
        //    dead host never acknowledged, and evacuate its guests.
        if epoch > 0 {
            for (h, hv) in view.iter_mut().enumerate() {
                if !hv.alive || hv.seen {
                    continue;
                }
                hv.missed += 1;
                if hv.missed >= MISSED_LIMIT {
                    hv.alive = false;
                    let vi = victims.iter().position(|&v| v == h);
                    let t_fail = vi.map(|i| kill_time[i]).unwrap_or(t_now);
                    if detect_ms == 0.0 {
                        detect_ms = t_now - t_fail;
                    }
                    queue.extend(std::mem::take(&mut hv.inflight));
                    for _ in 0..hv.guests {
                        let slot = origin.len() as u32;
                        origin.push(t_fail);
                        queue.push_back((slot, true));
                    }
                }
            }
        }

        // 3. Seeded host failure: kill before this epoch runs.
        if let Some((at, max)) = sc.fail_at {
            if epoch == at {
                let mut plan = FaultPlan::seeded(EVAC_SEED, EVAC_RATE);
                for (h, host) in hosts.iter_mut().enumerate() {
                    if host.is_some()
                        && victims.len() < max
                        && plan.should_inject(FaultSite::XsCrash)
                    {
                        victims.push(h);
                        kill_time.push(t_now);
                        *host = None;
                    }
                }
                if victims.is_empty() {
                    // The draw came up dry; the scenario still needs a
                    // failure, and "host 0 dies" is as seeded as any.
                    victims.push(0);
                    kill_time.push(t_now);
                    hosts[0] = None;
                }
            }
        }

        // 4. Scheduled arrivals.
        if epoch < sc.arrival_epochs && sc.arrivals > 0 {
            let upto = sc.arrivals * (epoch + 1) / sc.arrival_epochs;
            let from = sc.arrivals * epoch / sc.arrival_epochs;
            for _ in from..upto {
                let slot = origin.len() as u32;
                origin.push(t_now);
                queue.push_back((slot, false));
            }
        }

        // 5. Placement: drain the queue into host inboxes while a host
        //    can take work (policy + warm-pool tie-break + caps).
        while let Some(&place) = queue.front() {
            let is_evac = place.1;
            let Some(h) = pick_host(&view, sc, is_evac) else {
                break;
            };
            queue.pop_front();
            inboxes[h].push(place);
            view[h].inflight.push(place);
            if is_evac {
                view[h].evac_total += 1;
            }
            messages += 1;
        }

        // 6. Per-barrier load series (controller's heartbeat view).
        if epoch > 0 {
            let live: Vec<&HostView> = view.iter().filter(|v| v.alive).collect();
            if !live.is_empty() {
                let max = live.iter().map(|v| v.guests).max().unwrap();
                let min = live.iter().map(|v| v.guests).min().unwrap();
                imbalance.push((max - min) as f64);
                let pools: u64 = live.iter().map(|v| u64::from(v.pool)).sum();
                pool_mean.push(pools as f64 / live.len() as f64);
            }
        }

        // --- step every live host through the epoch ------------------
        let done_main = epoch + 1 >= sc.epochs;
        let outstanding =
            !queue.is_empty() || view.iter().any(|v| !v.inflight.is_empty());
        if done_main && !outstanding {
            epoch += 1;
            break;
        }
        assert!(epoch < max_epochs, "{}: placement queue never drained", sc.label);
        // A dead host's placements are lost with it.
        for (h, (slot, inbox)) in hosts.iter_mut().zip(&mut inboxes).enumerate() {
            let places = std::mem::take(inbox);
            if let Some(host) = slot {
                step_host(h, host, places, sc.image, &mut reports);
            }
        }
        messages += reports.len() as u64;
        epoch += 1;
    }

    ScenarioOut {
        hosts,
        placed,
        evac,
        victims,
        detect_ms,
        messages,
        epochs_run: epoch,
        imbalance,
        pool_mean,
    }
}

/// Runs one host through an epoch: its placements in send order, then
/// its heartbeat, each report appended to `reports`.
fn step_host(
    h: usize,
    host: &mut Host,
    places: Vec<Place>,
    image: &GuestImage,
    reports: &mut Vec<(usize, Report)>,
) {
    for (slot, evac) in places {
        let name = if evac {
            let k = host.evac_seq as usize % EVAC_NAMES;
            host.evac_seq += 1;
            format!("evac-{k}")
        } else {
            format!("arr-{slot}")
        };
        match host.cp.create_and_boot_report(&name, image) {
            Ok((report, boot)) => {
                host.placed.push(report.dom);
                let ms = (report.total() + boot).as_millis_f64();
                reports.push((h, Report::Done { slot, evac, ms }));
            }
            Err(_) => host.failures += 1,
        }
    }
    reports.push((
        h,
        Report::Heartbeat {
            guests: host.cp.running_count() as u32,
            pool: host.cp.daemon.len() as u32,
        },
    ));
}

/// The placement decision: best alive host under the caps, or `None`
/// when every candidate is saturated this epoch.
fn pick_host(view: &[HostView], sc: &Scenario, is_evac: bool) -> Option<usize> {
    let mut best: Option<(usize, u32, u32)> = None; // (idx, load, pool)
    for (h, v) in view.iter().enumerate() {
        let pending = v.inflight.len() as u32;
        if !v.alive || pending >= sc.place_cap {
            continue;
        }
        let load = v.guests + pending;
        if load >= sc.capacity {
            continue;
        }
        if is_evac && v.evac_total >= EVAC_NAMES as u32 {
            continue;
        }
        let better = match best {
            None => true,
            Some((_, bl, bp)) => {
                let key = match sc.policy {
                    // Least-loaded first; bin-packing fills the fullest
                    // host that still fits. Ties prefer the warmer
                    // shell pool, then the lowest index.
                    Policy::Spread => load < bl,
                    Policy::BinPack => load > bl,
                };
                key || (load == bl && v.pool > bp)
            }
        };
        if better {
            best = Some((h, load, v.pool));
        }
    }
    best.map(|(h, _, _)| h)
}

// --- unit bodies -----------------------------------------------------------

fn spec_for(mode: ToolstackMode) -> WorldSpec {
    WorldSpec {
        machine: xeon(),
        dom0_cores: 1,
        mode,
        image: GuestImage::unikernel_daytime(),
        seed: 42,
    }
}

/// Folds the per-host world deltas (relative to the template baseline)
/// into the unit output, and reports wall-side quantities to stderr
/// (never into the byte-gated artefacts).
fn absorb_hosts(out: &mut UnitOutput, hosts: &[Option<Host>], base: &UnitOutput) -> u64 {
    let mut guests = 0u64;
    for host in hosts.iter().flatten() {
        let end = UnitOutput::from_plane(&host.cp);
        out.events += end.events - base.events;
        out.virtual_ms += end.virtual_ms - base.virtual_ms;
        guests += host.cp.running_count() as u64;
        assert_eq!(host.failures, 0, "cluster host create failed");
    }
    out.snapshot_forks += hosts.len() as u64;
    guests
}

/// Peak RSS of the whole process in KiB (`VmHWM`; 0 when /proc is
/// unavailable). This is the process's lifetime high-water mark, not
/// the unit's: in a sequential run every later unit reports the largest
/// peak of any unit before it. Wall-side observability only — never
/// enters the artefacts.
fn process_peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace().nth(1).and_then(|v| v.parse().ok())
            })
        })
        .unwrap_or(0)
}

/// Density ladder: stamp `rung` hosts per step, place a wave of
/// arrivals, report totals and latency percentiles per rung.
fn ladder_unit(scale: Scale, mode: ToolstackMode) -> UnitSpec {
    let density = scale.scaled(DENSITY);
    let rungs: Vec<usize> = if scale.quick {
        vec![1, 10, 100]
    } else {
        vec![1, 10, 100, 1000]
    };
    let spec = spec_for(mode);
    let label = mode.label().to_string();
    UnitSpec::new(label.clone(), move |store| {
        let wall0 = Instant::now();
        let img = spec.image.clone();
        let (mut world, _) = store.simulate(&spec, density);
        let mut out = UnitOutput::new();
        let template = HostTemplate::capture(&mut world, HEADROOM);
        let base = UnitOutput::from_plane(&world);

        let mut guests_s = Series::new(format!("{label}: guests"));
        let mut p50_s = Series::new(format!("{label}: create p50 (ms)"));
        let mut p99_s = Series::new(format!("{label}: create p99 (ms)"));
        let mut msgs_s = Series::new(format!("{label}: messages"));
        let mut hosts_total = 0u64;
        let mut guests_total = 0u64;
        for &rung in &rungs {
            let sc = Scenario {
                label: format!("cluster {label} @{rung}"),
                template: &template,
                image: &img,
                hosts: rung,
                epochs: 8,
                arrivals: 2 * rung,
                arrival_epochs: 4,
                policy: Policy::Spread,
                place_cap: 4,
                capacity: (density as u32) + 24,
                fail_at: None,
                pre_drain: false,
            };
            let res = run_scenario(&sc);
            assert_eq!(res.placed.len(), 2 * rung, "{label}@{rung}: arrivals lost");
            let guests = absorb_hosts(&mut out, &res.hosts, &base);
            hosts_total += rung as u64;
            guests_total += guests;
            let x = rung as f64;
            guests_s.push(x, guests as f64);
            let cdf = Cdf::of(&res.placed).expect("placement latencies");
            p50_s.push(x, cdf.percentile(50.0));
            p99_s.push(x, cdf.percentile(99.0));
            msgs_s.push(x, res.messages as f64);
        }
        out.series = vec![guests_s, p50_s, p99_s, msgs_s];
        out.meta = vec![
            meta(&format!("{label}_hosts"), hosts_total),
            meta(&format!("{label}_guests"), guests_total),
            meta(&format!("{label}_domid_limit"), template.domid_limit()),
        ];
        let wall = wall0.elapsed().as_secs_f64();
        eprintln!(
            "# cluster {label}: {hosts_total} hosts, {guests_total} guests in {wall:.2}s \
             ({:.0} guests/s), process_peak_rss_kib={}",
            guests_total as f64 / wall.max(1e-9),
            process_peak_rss_kib(),
        );
        out
    })
}

/// Placement policies over an imbalanced fleet: bin-packing vs spread,
/// warm-pool-aware.
fn placement_unit(scale: Scale) -> UnitSpec {
    let density = scale.scaled(DENSITY);
    let hosts = scale.scaled(32);
    let spec = spec_for(ToolstackMode::LightVm);
    UnitSpec::new("placement", move |store| {
        let img = spec.image.clone();
        let (mut world, _) = store.simulate(&spec, density);
        let mut out = UnitOutput::new();
        let template = HostTemplate::capture(&mut world, HEADROOM);
        let base = UnitOutput::from_plane(&world);

        for policy in [Policy::BinPack, Policy::Spread] {
            let sc = Scenario {
                label: format!("cluster placement/{}", policy.label()),
                template: &template,
                image: &img,
                hosts,
                epochs: 8,
                arrivals: 4 * hosts,
                arrival_epochs: 4,
                policy,
                place_cap: 4,
                capacity: (density as u32) + 24,
                fail_at: None,
                pre_drain: true,
            };
            let res = run_scenario(&sc);
            assert_eq!(res.placed.len(), 4 * hosts, "placement arrivals lost");
            absorb_hosts(&mut out, &res.hosts, &base);
            let pl = policy.label();
            let mut imb = Series::new(format!("{pl}: imbalance"));
            let mut pool = Series::new(format!("{pl}: pool depth"));
            for (i, (a, b)) in res.imbalance.iter().zip(&res.pool_mean).enumerate() {
                imb.push((i + 1) as f64, *a);
                pool.push((i + 1) as f64, *b);
            }
            out.series.push(imb);
            out.series.push(pool);
            out.meta.push(meta(&format!("placement_{pl}_placed"), res.placed.len()));
            out.meta.push(meta(
                &format!("placement_{pl}_final_imbalance"),
                res.imbalance.last().copied().unwrap_or(0.0),
            ));
        }
        out
    })
}

/// Host failure + evacuation: seeded kill, missed-heartbeat detection,
/// re-placement across survivors, tail-latency series, and a churn-style
/// leak check proving every survivor returns to the template state once
/// the evacuees are drained.
fn evac_unit(scale: Scale, mode: ToolstackMode) -> UnitSpec {
    let density = scale.scaled(DENSITY);
    let hosts = scale.scaled(50);
    let spec = spec_for(mode);
    let label = format!("{} evac", mode.label());
    UnitSpec::new(label.clone(), move |store| {
        let img = spec.image.clone();
        let (mut world, _) = store.simulate(&spec, density);
        let mut out = UnitOutput::new();

        // Saturate the evacuation name window on the template under the
        // exact domid limit stamped hosts will run with, so survivor
        // interner/arena occupancy has a fixpoint to return to.
        let limit = domid_limit_for(&world, HEADROOM);
        world.hv.set_domid_limit(limit);
        let mut sat = (0usize, 0usize);
        for _round in 0..16 {
            let mut doms = Vec::new();
            for k in 0..EVAC_NAMES {
                let (report, _) = world
                    .create_and_boot_report(&format!("evac-{k}"), &img)
                    .expect("saturation create");
                doms.push(report.dom);
            }
            for dom in doms {
                world.destroy_vm(dom).expect("saturation destroy");
            }
            let c = world.census();
            let now = (c.store_capacity, c.interned_syms);
            if now == sat {
                break;
            }
            sat = now;
        }
        world.prewarm(&img);

        let template = HostTemplate::capture(&mut world, HEADROOM);
        assert_eq!(template.domid_limit(), limit, "saturation changed the domid plan");
        let baseline: WorldCensus = world.census();
        let base = UnitOutput::from_plane(&world);

        let sc = Scenario {
            label: format!("cluster {label}"),
            template: &template,
            image: &img,
            hosts,
            epochs: 8,
            arrivals: 0,
            arrival_epochs: 0,
            policy: Policy::Spread,
            place_cap: 2,
            capacity: (density as u32) + HEADROOM,
            fail_at: Some((3, 2)),
            pre_drain: false,
        };
        let mut res = run_scenario(&sc);
        let expected: usize = res.victims.len() * template.guests();
        assert_eq!(res.evac.len(), expected, "{label}: evacuation incomplete");

        // Drain the evacuees and leak-check every survivor against the
        // template: digest-identical, census occupancy-identical.
        let mut digest_drift = 0u64;
        let mut census_drift = 0u64;
        for host in res.hosts.iter_mut().flatten() {
            for dom in std::mem::take(&mut host.placed) {
                host.cp.destroy_vm(dom).expect("evacuee drain");
            }
            host.cp.prewarm(&img);
            if host.cp.world_digest64() != template.digest() {
                digest_drift += 1;
            }
            let census = host.cp.census();
            if !census.same_occupancy(&baseline) {
                census_drift += 1;
                for (site, prev, now) in baseline.diff(&census) {
                    eprintln!("# LEAK {label}: {site} {prev} -> {now}");
                }
            }
        }
        assert_eq!(digest_drift, 0, "{label}: survivor digests drifted from template");
        assert_eq!(census_drift, 0, "{label}: survivor census drifted from template");

        absorb_hosts(&mut out, &res.hosts, &base);
        let mut lat = Series::new(format!("{label}: latency (ms)"));
        let cdf = Cdf::of(&res.evac).expect("evacuation latencies");
        for p in [50.0, 90.0, 99.0, 100.0] {
            lat.push(p, cdf.percentile(p));
        }
        out.series = vec![lat];
        out.meta = vec![
            meta(&format!("{label}_hosts"), hosts),
            meta(&format!("{label}_victims"), res.victims.len()),
            meta(&format!("{label}_evacuated"), res.evac.len()),
            meta(&format!("{label}_detect_ms"), format!("{:.3}", res.detect_ms)),
            meta(&format!("{label}_epochs"), res.epochs_run),
            meta(&format!("{label}_digest_drift"), digest_drift),
            meta(&format!("{label}_census_drift"), census_drift),
        ];
        out
    })
}

/// The cluster figure: density ladder (×3 toolstacks), placement
/// policies, and evacuation tails (×2 toolstacks).
pub fn spec(scale: Scale) -> FigureSpec {
    let rungs: &[f64] = if scale.quick {
        &[1.0, 10.0, 100.0]
    } else {
        &[1.0, 10.0, 100.0, 1000.0]
    };
    FigureSpec {
        id: "cluster",
        title: "Cluster scale: fork-stamped hosts on the sharded executor",
        xlabel: "hosts / epoch / percentile",
        ylabel: "guests / ms / messages",
        sample_xs: rungs.to_vec(),
        meta: vec![
            meta("density", scale.scaled(DENSITY)),
            meta("evac_seed", EVAC_SEED),
            meta("evac_rate", EVAC_RATE),
            meta("epoch_ms", lvnet::Link::datacenter().delay.as_millis_f64()),
            meta("missed_limit", MISSED_LIMIT),
        ],
        units: vec![
            ladder_unit(scale, ToolstackMode::Xl),
            ladder_unit(scale, ToolstackMode::ChaosXs),
            ladder_unit(scale, ToolstackMode::LightVm),
            placement_unit(scale),
            evac_unit(scale, ToolstackMode::ChaosXs),
            evac_unit(scale, ToolstackMode::LightVm),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worldcache::Store;

    /// A host that dies with placements in flight: they are sent at the
    /// kill barrier and the one after it, before the missed heartbeats
    /// add up, and the dead host never acknowledges them. Detection must
    /// re-queue them onto the survivor, or the run never drains.
    #[test]
    fn placements_in_flight_at_a_host_failure_are_requeued() {
        let density = 4;
        let (mut world, _) = Store::default().simulate(&spec_for(ToolstackMode::LightVm), density);
        let template = HostTemplate::capture(&mut world, HEADROOM);
        let image = GuestImage::unikernel_daytime();
        let sc = Scenario {
            label: "cluster in-flight failure".to_string(),
            template: &template,
            image: &image,
            hosts: 2,
            epochs: 8,
            arrivals: 16,
            arrival_epochs: 8,
            policy: Policy::Spread,
            place_cap: 4,
            capacity: density as u32 + HEADROOM,
            fail_at: Some((3, 1)),
            pre_drain: false,
        };
        let res = run_scenario(&sc);
        assert_eq!(res.victims.len(), 1);
        assert_eq!(res.placed.len(), 16, "every arrival is placed exactly once");
        assert!(res.evac.len() >= template.guests(), "the victim's guests are evacuated");
    }
}
