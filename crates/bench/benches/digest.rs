//! Full-walk vs incremental world digests (DESIGN.md §6h): after k
//! store mutations, the cached Merkle digest recomputes only the k
//! dirtied root-paths — O(k · depth) — while the old paths rehash or
//! re-render the whole tree, O(world). The gap is what lets the world
//! store and the property suites digest at every step.
//!
//! Three sides per (density, mutation count):
//!  - `string_walk`:  the pre-§6h oracle — render every path and value
//!    into a `String` and walk the whole tree (what verification used
//!    to cost);
//!  - `full_rehash`:  the same Merkle hash with no cache — a full-tree
//!    rehash without the rendering/allocation overhead (the strongest
//!    honest O(world) baseline);
//!  - `incremental`:  warm caches, k mutations invalidate k root-paths,
//!    digest recomputes just those.
//!
//! Each iteration mutates k fixed nodes with fresh values (so the
//! caches genuinely dirty) and then digests, so the number is the
//! steady-state "verify after k changes" cost. Results are recorded in
//! `results/bench_micro_pr8.md`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use guests::GuestImage;
use simcore::{Machine, MachinePreset};
use toolstack::{ControlPlane, ToolstackMode};
use xenstore::XsPath;

/// Boots `n` guests in the store-heaviest mode (xl's name scan is
/// charged in closed form, so startup stays cheap even at 1000).
fn world(n: usize) -> ControlPlane {
    let img = GuestImage::unikernel_daytime();
    let mut cp = ControlPlane::new(
        Machine::preset(MachinePreset::XeonE5_1630V3),
        1,
        ToolstackMode::Xl,
        42,
    );
    cp.prewarm(&img);
    for i in 0..n {
        cp.create_and_boot(&format!("{}-{i}", img.name), &img)
            .expect("bench boot");
    }
    cp
}

/// Overwrites `k` fixed nodes with a value that changes every round, so
/// every iteration genuinely dirties k leaf-to-root paths (first round
/// creates them; the node count is stable afterwards).
fn mutate(cp: &mut ControlPlane, k: usize, round: &mut u64) {
    *round += 1;
    for j in 0..k {
        let p = XsPath::parse(&format!("/bench/mut{j}")).unwrap();
        cp.xs
            .store_mut_for_tests()
            .write(0, &p, &round.to_le_bytes())
            .expect("bench mutation");
    }
}

fn bench_digest(c: &mut Criterion) {
    let counts: &[usize] = if std::env::var_os("LIGHTVM_BENCH_QUICK").is_some() {
        &[100]
    } else {
        &[100, 500, 1000]
    };
    for &n in counts {
        let mut group = c.benchmark_group(format!("digest_{n}"));
        let mut cp = world(n);
        let mut round = 0u64;
        // Warm the hash caches and drain pending Dom0 events once, so
        // every measured digest is the steady-state at-rest path.
        cp.world_digest64();
        for k in [1usize, 64] {
            group.bench_function(format!("incremental_mut{k}"), |b| {
                b.iter(|| {
                    mutate(&mut cp, k, &mut round);
                    black_box(cp.world_digest64_at_rest())
                })
            });
            group.bench_function(format!("full_rehash_mut{k}"), |b| {
                b.iter(|| {
                    mutate(&mut cp, k, &mut round);
                    black_box(cp.xs.store().subtree_digest_uncached())
                })
            });
            group.bench_function(format!("string_walk_mut{k}"), |b| {
                b.iter(|| {
                    mutate(&mut cp, k, &mut round);
                    black_box(cp.world_digest().len())
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_digest);
criterion_main!(benches);
