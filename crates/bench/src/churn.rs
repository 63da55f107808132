//! Long-horizon churn & soak: leak-checked create/destroy at steady
//! density (see DESIGN.md §6i).
//!
//! Every other figure is a build-up sweep — guests are created once and
//! the world torn down wholesale. Production control planes instead live
//! under sustained create/destroy churn, which is exactly the access
//! pattern that turns a teardown bug into a resource leak. This figure
//! drives an open-loop seeded arrival/departure process over a churn
//! cohort on top of a resident base population, through three
//! representative toolstacks (xl, chaos [XS], LightVM), fault-free and
//! under the PR 4 fault plans (restart-under-churn).
//!
//! The core instrument is digest-based leak detection: at the end of
//! every window the world is returned to its canonical checkpoint
//! population (churn cohort drained, shell pool topped up) and both
//! `world_digest64` and the full resource census
//! ([`toolstack::WorldCensus`]) must equal the previous visit's. Any
//! monotone drift is a leak; the census diff names the leaking resource
//! per-site. The unit asserts zero drift outright, and additionally
//! that the store's slot arena and path interner stop growing once the
//! canonical shape set has been seen — the regression gates for the
//! node-arena free list and the PR 8 interner-bloat class of bug.
//!
//! Determinism contract: the arrival process and fault plan are seeded,
//! so identical seeds produce byte-identical artefacts at every
//! scheduler width, with the world-store cache on or off (`ci.sh` gates
//! all of it). A long soak (1M+ lifecycle events) is a CLI flag away:
//! `cargo run --release -p bench --bin churn -- --events 1000000`, which
//! passes the total to [`spec`]; nothing reads it from the environment,
//! so every other caller (`runall`, the registry) runs the default size.

use guests::GuestImage;
use metrics::{Series, Summary};
use simcore::{FaultPlan, Machine, MachinePreset, SimRng};
use toolstack::{ToolstackMode, WorldCensus};

use crate::figures::{meta, FigureSpec, Scale, UnitOutput, UnitSpec};
use crate::worldcache::WorldSpec;

/// Seed for the arrival/departure process (xored with a per-unit tag).
const CHURN_SEED: u64 = 0xc402;

/// Seed for the faulty units' plans (distinct from both the plane seed
/// and the faultsweep's `0xfa17` so no two RNG streams alias).
const CHURN_FAULT_SEED: u64 = 0xc4fa;

/// Injection probability for the faulty units: high enough that every
/// window sees failed creates rolled back mid-churn.
const FAULT_RATE: f64 = 0.05;

/// Churn-cohort slots: at most this many churned guests live at once,
/// each with a canonical recycled name (`churn-<slot>`).
const COHORT: usize = 16;

/// Checkpoint windows per unit. Every window ends by draining the
/// cohort and leak-checking the world against the previous checkpoint.
const WINDOWS: usize = 8;

fn machine() -> Machine {
    Machine::preset(MachinePreset::XeonE5_1630V3)
}

/// Lifecycle events per window: 240 at full scale (1,920 per unit),
/// 1/10 under `LIGHTVM_QUICK`, or a soak's requested total (the `churn`
/// binary's `--events`) spread over the windows.
fn events_per_window(scale: Scale, total_events: Option<usize>) -> usize {
    match total_events {
        Some(total) => (total / WINDOWS).max(1),
        None => scale.scaled(240),
    }
}

fn unit_label(mode: ToolstackMode, faulty: bool) -> String {
    if faulty {
        format!("{} +faults", mode.label())
    } else {
        mode.label().to_string()
    }
}

/// One mode's churn soak, fault-free or under a seeded plan.
fn churn_unit(scale: Scale, per_window: usize, mode: ToolstackMode, faulty: bool) -> UnitSpec {
    let base = scale.scaled(100);
    let spec = WorldSpec {
        machine: machine(),
        dom0_cores: 1,
        mode,
        image: GuestImage::unikernel_daytime(),
        seed: 42,
    };
    let label = unit_label(mode, faulty);
    let cost = match mode {
        ToolstackMode::Xl => 50.0,
        ToolstackMode::ChaosXs => 30.0,
        _ => 8.0,
    };
    UnitSpec::new(label.clone(), move |store| {
        let img = GuestImage::unikernel_daytime();
        // The resident base population is the world the density figures
        // boot; churn mutates it, so the unit builds its own.
        let (mut cp, _) = store.simulate(&spec, base);
        let mut out = UnitOutput::new();
        let start = UnitOutput::from_plane(&cp);

        // Recycle domids: real Xen wraps its domid counter, and without
        // recycling every /local/domain/<d> path of a churned guest
        // would intern a fresh symbol forever. The bound leaves room
        // for the cohort, the shell pool and one wrap slot.
        cp.hv.set_domid_limit((base + COHORT + 12) as u32);

        // Saturation preamble, fault-free: cycle the full cohort (all
        // slots live at once — peak arena occupancy) until arena
        // capacity and interner size reach their fixpoint, i.e. every
        // reachable wrapped domid's path skeleton has been interned.
        // From here on both must plateau.
        let mut slots: Vec<Option<_>> = vec![None; COHORT];
        let mut lifecycle = 0u64;
        let mut sat = (0usize, 0usize);
        for _round in 0..16 {
            for (s, slot) in slots.iter_mut().enumerate() {
                let (dom, ..) = cp
                    .create_and_boot(&format!("churn-{s}"), &img)
                    .expect("fault-free preamble create");
                *slot = Some(dom);
                lifecycle += 1;
            }
            for slot in slots.iter_mut() {
                let dom = slot.take().expect("preamble slot filled");
                cp.destroy_vm(dom).expect("preamble destroy");
                lifecycle += 1;
            }
            let c = cp.census();
            let now = (c.store_capacity, c.interned_syms);
            if now == sat {
                break;
            }
            sat = now;
        }
        if faulty {
            cp.set_fault_plan(FaultPlan::seeded(CHURN_FAULT_SEED, FAULT_RATE));
        }

        let mut rng = SimRng::new(CHURN_SEED ^ (mode as u64) ^ ((faulty as u64) << 8));
        let mut create_ms = Series::new(format!("{label}: mean create (ms)"));
        let mut rot_s = Series::new(format!("{label}: log rotations/window"));
        let mut cap_s = Series::new(format!("{label}: store arena capacity"));
        let mut sym_s = Series::new(format!("{label}: interned symbols"));
        // Shell-pool refill dynamics: depth as the window ends (before
        // the checkpoint prewarm tops it back up) and the background
        // refill time the daemon spent over the window, top-up included.
        // Both are simulated quantities, so they stay byte-identical
        // across scheduler widths like every other series here.
        let mut pool_s = Series::new(format!("{label}: shell pool depth @window end"));
        let mut refill_s = Series::new(format!("{label}: pool refill ms/window"));
        let mut bg_prev = cp.background_meter.total();
        let mut captures: Vec<(u128, WorldCensus)> = Vec::new();
        let mut digest_drift = 0u64;
        let mut census_drift = 0u64;
        let mut virtual_ms = 0.0;
        let mut creates_ok = 0u64;
        let mut rot_prev = cp.xs.log_rotations();

        for w in 0..WINDOWS {
            let mut win_creates: Vec<f64> = Vec::new();
            for _ in 0..per_window {
                let s = rng.index(COHORT);
                lifecycle += 1;
                match slots[s].take() {
                    // Occupied slot: departure.
                    Some(dom) => {
                        let dt = cp.destroy_vm(dom).expect("churn destroy");
                        virtual_ms += dt.as_millis_f64();
                    }
                    // Empty slot: arrival (rolled back and recorded on
                    // an injected fault; the host keeps churning).
                    None => match cp.create_and_boot(&format!("churn-{s}"), &img) {
                        Ok((dom, create, boot)) => {
                            slots[s] = Some(dom);
                            win_creates.push(create.as_millis_f64());
                            virtual_ms += (create + boot).as_millis_f64();
                            creates_ok += 1;
                        }
                        Err(_) => {}
                    },
                }
            }

            // Checkpoint: return to the canonical population (residents
            // only, shell pool full) and leak-check against the last
            // visit. The pool tops up fault-free — an aborted refill
            // legitimately leaves it short, which is daemon behaviour,
            // not a leak.
            for slot in slots.iter_mut() {
                if let Some(dom) = slot.take() {
                    let dt = cp.destroy_vm(dom).expect("checkpoint drain");
                    virtual_ms += dt.as_millis_f64();
                    lifecycle += 1;
                }
            }
            let pool_depth = cp.daemon.len();
            let plan = std::mem::replace(&mut cp.faults, FaultPlan::none());
            cp.prewarm(&img);
            let digest = cp.world_digest64();
            let census = cp.census();
            cp.faults = plan;

            if let Some((prev_digest, prev_census)) = captures.last() {
                if digest != *prev_digest {
                    digest_drift += 1;
                }
                let diff = census.diff(prev_census);
                census_drift += diff.len() as u64;
                for (site, prev, now) in &diff {
                    eprintln!(
                        "# LEAK {label} checkpoint {w}: {site} {prev} -> {now}"
                    );
                }
            }
            let x = (w + 1) as f64;
            create_ms.push(x, Summary::of(&win_creates).map(|s| s.mean).unwrap_or(0.0));
            let rot = cp.xs.log_rotations();
            rot_s.push(x, (rot - rot_prev) as f64);
            rot_prev = rot;
            cap_s.push(x, census.store_capacity as f64);
            sym_s.push(x, census.interned_syms as f64);
            pool_s.push(x, pool_depth as f64);
            let bg = cp.background_meter.total();
            refill_s.push(x, (bg - bg_prev).as_millis_f64());
            bg_prev = bg;
            captures.push((digest, census));
        }

        assert_eq!(
            digest_drift, 0,
            "{label}: world digest drifted between matching churn checkpoints"
        );
        assert_eq!(
            census_drift, 0,
            "{label}: resource census drifted between matching churn checkpoints"
        );
        let last = &captures[WINDOWS - 1].1;
        let prev = &captures[WINDOWS - 2].1;
        let arena_growth = last.store_capacity as i64 - prev.store_capacity as i64;
        let interner_growth = last.interned_syms as i64 - prev.interned_syms as i64;
        assert_eq!(arena_growth, 0, "{label}: node arena still growing under churn");
        assert_eq!(interner_growth, 0, "{label}: interner still growing under churn");

        let end = UnitOutput::from_plane(&cp);
        out.events += end.events - start.events;
        out.virtual_ms = virtual_ms;
        out.series = vec![create_ms, rot_s, cap_s, sym_s, pool_s, refill_s];
        out.meta = vec![
            meta(&format!("{label}_lifecycle_events"), lifecycle),
            meta(&format!("{label}_creates_ok"), creates_ok),
            meta(&format!("{label}_create_failures"), cp.create_failures()),
            meta(&format!("{label}_injected"), cp.faults.total_injected()),
            meta(&format!("{label}_digest_drift"), digest_drift),
            meta(&format!("{label}_census_drift"), census_drift),
            meta(&format!("{label}_arena_growth_last"), arena_growth),
            meta(&format!("{label}_interner_growth_last"), interner_growth),
            meta(
                &format!("{label}_teardown_errors"),
                last.teardown.total(),
            ),
        ];
        out
    })
    .cost(cost)
}

/// The churn soak as a registry figure. `total_events` overrides the
/// lifecycle-event count per unit (a soak run); `None` is the default
/// size every artefact uses.
pub fn spec(scale: Scale, total_events: Option<usize>) -> FigureSpec {
    let per_window = events_per_window(scale, total_events);
    FigureSpec {
        id: "churn",
        title: "Long-horizon churn: leak-checked create/destroy at steady density",
        xlabel: "checkpoint window",
        ylabel: "ms / rotations / arena slots / symbols",
        sample_xs: (1..=WINDOWS).map(|w| w as f64).collect(),
        meta: vec![
            meta("churn_seed", CHURN_SEED),
            meta("fault_seed", CHURN_FAULT_SEED),
            meta("fault_rate", FAULT_RATE),
            meta("cohort", COHORT),
            meta("windows", WINDOWS),
        ],
        units: vec![
            churn_unit(scale, per_window, ToolstackMode::Xl, false),
            churn_unit(scale, per_window, ToolstackMode::ChaosXs, false),
            churn_unit(scale, per_window, ToolstackMode::LightVm, false),
            churn_unit(scale, per_window, ToolstackMode::Xl, true),
            churn_unit(scale, per_window, ToolstackMode::ChaosXs, true),
            churn_unit(scale, per_window, ToolstackMode::LightVm, true),
        ],
    }
}
