#!/usr/bin/env bash
# CI gate: build everything, run the whole test suite (with a
# suite-count guard so lost --workspace coverage fails loudly),
# smoke-run the hot-path microbenches, then regenerate all figures at
# quick scale through the DAG runner. Fails if any expected artefact is
# missing, if disabling the world-snapshot cache changes any artefact
# byte, if any scheduler width changes any artefact byte (quick scale
# at --jobs 2; full scale at --jobs 1/2/8 against the committed
# sequential reference in results/), if the full-scale sequential wall
# regressed >1.5x above the committed baseline (every-replay clone-boot
# verification rides on the incremental world digest — it must stay
# cheap), if runner throughput collapsed
# (>5x below the committed baseline in results/bench_runner.json — a
# coarse band that only trips on real regressions, not
# machine-to-machine noise), if the density hot path allocates again
# (deterministic allocs/event > 1.0; the allocation-free request path
# landed at 0.432), or if guest teardown slows down as the host ages
# (benchmark churn-xl destroy_growth > 2.0).
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release, workspace) =="
cargo build --release --workspace

echo "== tests (workspace) =="
test_log="$(mktemp)"
cargo test -q --workspace 2>&1 | tee "$test_log"
# Suite-count guard: a botched invocation (or a workspace edit that
# drops crates from the build) silently shrinks coverage. The workspace
# runs 73 test binaries; fail loudly if any of them did not run.
suites=$(grep -c '^test result: ok' "$test_log" || true)
rm -f "$test_log"
echo "workspace test suites: $suites (guard: >= 73)"
if [ "$suites" -lt 73 ]; then
  echo "ci: only $suites test suite(s) ran — workspace coverage lost (expected >= 73)" >&2
  exit 1
fi

echo "== microbenches (quick smoke: scheduler + xenstore hot paths) =="
LIGHTVM_BENCH_QUICK=1 cargo bench -p bench --bench hotpath
LIGHTVM_BENCH_QUICK=1 cargo bench -p bench --bench simcore_hot

echo "== figures (runall, quick scale, --seq reference) =="
FIG_DIR="${LIGHTVM_FIG_DIR:-target/ci-figures}"
LIGHTVM_QUICK=1 LIGHTVM_FIG_DIR="$FIG_DIR" \
  cargo run --release -p bench --bin runall -- --seq --report "$FIG_DIR/bench_runner.json"

echo "== artefact check =="
missing=0
for id in fig01 fig02 fig04 fig05 fig09 fig10 fig11 fig12a fig12b \
          fig13 fig14 fig15 fig16a fig16b fig16c fig17 fig18 ablations \
          faults churn cluster; do
  for ext in json csv; do
    if [ ! -s "$FIG_DIR/$id.$ext" ]; then
      echo "MISSING: $FIG_DIR/$id.$ext" >&2
      missing=1
    fi
  done
done
if [ ! -s "$FIG_DIR/bench_runner.json" ]; then
  echo "MISSING: $FIG_DIR/bench_runner.json" >&2
  missing=1
fi
if [ "$missing" -ne 0 ]; then
  echo "ci: figure artefacts missing" >&2
  exit 1
fi

echo "== scheduler determinism gate (quick scale, --jobs 2 vs --seq) =="
# The DAG scheduler must be invisible in the artefacts: the same quick
# run on two workers — chains, probe walks and units genuinely
# interleaving — must reproduce the sequential reference byte for byte.
LIGHTVM_QUICK=1 LIGHTVM_FIG_DIR="$FIG_DIR/jobs2" \
  cargo run --release -p bench --bin runall -- --jobs 2 \
  --report "$FIG_DIR/jobs2/bench_runner.json" > /dev/null
for id in fig01 fig02 fig04 fig05 fig09 fig10 fig11 fig12a fig12b \
          fig13 fig14 fig15 fig16a fig16b fig16c fig17 fig18 ablations \
          faults churn cluster; do
  for ext in json csv; do
    if ! cmp -s "$FIG_DIR/$id.$ext" "$FIG_DIR/jobs2/$id.$ext"; then
      echo "ci: $id.$ext differs between --seq and --jobs 2" >&2
      exit 1
    fi
  done
done

echo "== fault determinism gate (same seed => same artefact) =="
# The fault plan is seeded: replaying the faults figure (quick scale,
# standalone binary this time) must reproduce the runner's artefacts
# byte for byte.
LIGHTVM_QUICK=1 LIGHTVM_FIG_DIR="$FIG_DIR/faults-replay" \
  cargo run --release -p bench --bin faults > /dev/null
for ext in json csv; do
  if ! cmp -s "$FIG_DIR/faults.$ext" "$FIG_DIR/faults-replay/faults.$ext"; then
    echo "ci: faults.$ext not reproducible from the same seed" >&2
    exit 1
  fi
done

echo "== churn smoke gate (replay bytes + census plateau) =="
# The churn soak (DESIGN.md §6i) is seeded the same way: re-running the
# standalone binary at quick scale must reproduce the runner's
# artefacts byte for byte. The units already assert zero digest/census
# drift internally (a leak panics the run); the gates below re-check
# the published meta so a weakened assertion can't slip through.
LIGHTVM_QUICK=1 LIGHTVM_FIG_DIR="$FIG_DIR/churn-replay" \
  cargo run --release -p bench --bin churn > /dev/null
for ext in json csv; do
  if ! cmp -s "$FIG_DIR/churn.$ext" "$FIG_DIR/churn-replay/churn.$ext"; then
    echo "ci: churn.$ext not reproducible from the same seed" >&2
    exit 1
  fi
done
# Census-plateau gate: every unit's leak meta — digest drift, census
# drift, last-window arena/interner growth, teardown errors — must be
# exactly "0", and all 6 units must have published each key.
for key in digest_drift census_drift arena_growth_last \
           interner_growth_last teardown_errors; do
  hits=$(grep -c "_$key\": \"0\"" "$FIG_DIR/churn.json" || true)
  if [ "$hits" -ne 6 ]; then
    echo "ci: churn census gate: expected 6 zero $key entries, got $hits" >&2
    grep "_$key\"" "$FIG_DIR/churn.json" >&2 || true
    exit 1
  fi
done
echo "churn: 6 units leak-free (digest, census, arena, interner, teardown)"

echo "== cluster determinism gate (replay bytes + shard widths) =="
# The cluster figure couples thousands of fork-stamped hosts through
# the sharded conservative-lookahead executor (DESIGN.md §6j). The
# standalone binary replays it from the same seed and must reproduce
# the runner's bytes; its --jobs flag widens the shard worker pool,
# which must be invisible in the artefacts too.
for J in 1 2 8; do
  LIGHTVM_QUICK=1 LIGHTVM_FIG_DIR="$FIG_DIR/cluster-j$J" \
    cargo run --release -p bench --bin cluster -- --jobs "$J" > /dev/null
  for ext in json csv; do
    if ! cmp -s "$FIG_DIR/cluster.$ext" "$FIG_DIR/cluster-j$J/cluster.$ext"; then
      echo "ci: cluster.$ext (--jobs $J) not reproducible from the same seed" >&2
      exit 1
    fi
  done
done
# Evacuation hygiene: both evac units must record zero digest and
# census drift across the surviving hosts (the units assert it too;
# this catches a weakened assertion).
for key in evac_digest_drift evac_census_drift; do
  hits=$(grep -c "$key\": \"0\"" "$FIG_DIR/cluster.json" || true)
  if [ "$hits" -ne 2 ]; then
    echo "ci: cluster evac gate: expected 2 zero $key entries, got $hits" >&2
    grep "$key\"" "$FIG_DIR/cluster.json" >&2 || true
    exit 1
  fi
done
echo "cluster: byte-identical at shard widths 1/2/8, evac units leak-free"

echo "== snapshot-cache gate (cached vs --no-snapshot-cache) =="
# Figure units share worlds through bench::worldcache (snapshot/fork
# chains + memoized probe walks). Caching must be invisible in the
# artefacts: re-running with the cache disabled — every unit
# re-simulates its world from scratch — must reproduce the cached
# run's bytes exactly.
LIGHTVM_QUICK=1 LIGHTVM_FIG_DIR="$FIG_DIR/nocache" \
  cargo run --release -p bench --bin runall -- --no-snapshot-cache \
  --report "$FIG_DIR/nocache/bench_runner.json" > /dev/null
for id in fig01 fig02 fig04 fig05 fig09 fig10 fig11 fig12a fig12b \
          fig13 fig14 fig15 fig16a fig16b fig16c fig17 fig18 ablations \
          faults churn cluster; do
  for ext in json csv; do
    if ! cmp -s "$FIG_DIR/$id.$ext" "$FIG_DIR/nocache/$id.$ext"; then
      echo "ci: $id.$ext differs with the snapshot cache disabled" >&2
      exit 1
    fi
  done
done

echo "== clone-boot gate (template boots vs --no-clone-boot) =="
# Template boots (toolstack::cloneboot) replay recorded create deltas
# instead of fully executing repeated creates. Like the snapshot cache,
# they must be invisible in the artefacts: a run with template boots
# disabled — every create fully executed — must reproduce the default
# run's bytes exactly.
LIGHTVM_QUICK=1 LIGHTVM_FIG_DIR="$FIG_DIR/noclone" \
  cargo run --release -p bench --bin runall -- --no-clone-boot \
  --report "$FIG_DIR/noclone/bench_runner.json" > /dev/null
for id in fig01 fig02 fig04 fig05 fig09 fig10 fig11 fig12a fig12b \
          fig13 fig14 fig15 fig16a fig16b fig16c fig17 fig18 ablations \
          faults churn cluster; do
  for ext in json csv; do
    if ! cmp -s "$FIG_DIR/$id.$ext" "$FIG_DIR/noclone/$id.$ext"; then
      echo "ci: $id.$ext differs with template boots disabled" >&2
      exit 1
    fi
  done
done

echo "== fault-free baseline gate (full scale vs committed results/) =="
# With the fault plan inactive the injection layer must consume zero
# RNG draws and charge nothing: every committed figure artefact —
# including the faults sweep itself, whose seed is fixed — stays byte
# identical. Full (non-quick) scale, since that is what results/ holds,
# and at every scheduler width that matters: the committed artefacts
# are the sequential reference, so --jobs 1, 2 and 8 matching them is
# the full-scale byte-identity guarantee.
for J in 1 2 8; do
  FULL_DIR="$FIG_DIR/full-j$J"
  LIGHTVM_FIG_DIR="$FULL_DIR" \
    cargo run --release -p bench --bin runall -- --jobs "$J" \
    --report "$FULL_DIR/bench_runner.json"
  for id in fig01 fig02 fig04 fig05 fig09 fig10 fig11 fig12a fig12b \
            fig13 fig14 fig15 fig16a fig16b fig16c fig17 fig18 ablations \
            faults churn cluster; do
    for ext in json csv; do
      if ! cmp -s "results/$id.$ext" "$FULL_DIR/$id.$ext"; then
        echo "ci: $id.$ext (--jobs $J) differs from committed results/$id.$ext" >&2
        exit 1
      fi
    done
  done
done

echo "== cluster scale gate (committed results/cluster.json) =="
# The density ladder must actually reach datacenter scale: summed over
# the committed artefact's units, >= 1000 hosts stamped and >= 100000
# guests running. (The ladder alone contributes 1111 hosts per mode at
# full scale.)
sum_meta() {
  grep -o "\"[^\"]*_$1\": \"[0-9]*\"" results/cluster.json \
    | grep -o '[0-9]*"$' | tr -d '"' | awk '{s+=$1} END {print s+0}'
}
hosts_total=$(sum_meta hosts)
guests_total=$(sum_meta guests)
echo "cluster scale: $hosts_total hosts, $guests_total guests (gate: >= 1000 / >= 100000)"
if [ "$hosts_total" -lt 1000 ] || [ "$guests_total" -lt 100000 ]; then
  echo "ci: cluster figure below datacenter scale ($hosts_total hosts, $guests_total guests)" >&2
  exit 1
fi

echo "== wall gate (full scale, --jobs 1, verification every replay) =="
# Incremental world digests (DESIGN.md §6h) pay for every-replay clone
# boot verification; the whole point is that the full run got cheaper,
# not dearer. Gate the fresh full-scale sequential wall against the
# committed baseline with a 1.5x noise band — wide enough for
# machine-to-machine variance, tight enough to catch the digest path
# going accidentally O(world) again.
# grep -m1 stops on its own: piping a multi-match grep into `head -1`
# lets grep die of SIGPIPE, which pipefail turns into a silent exit.
extract_wall() {
  grep -m1 -o '"wall_ms": *[0-9.]*' "$1" | grep -o '[0-9.]*$'
}
if [ -s results/bench_runner.json ]; then
  wall_base=$(extract_wall results/bench_runner.json)
  wall_fresh=$(extract_wall "$FIG_DIR/full-j1/bench_runner.json")
  echo "full-scale wall (--jobs 1): $wall_fresh ms fresh vs $wall_base ms committed (gate: <= 1.5x)"
  if ! awk -v f="$wall_fresh" -v b="$wall_base" 'BEGIN { exit !(f <= b * 1.5) }'; then
    echo "ci: full-scale sequential wall regressed >1.5x above committed baseline" >&2
    exit 1
  fi
else
  echo "ci: no committed baseline (results/bench_runner.json), skipping gate"
fi

echo "== throughput gate (aggregate_events_per_sec) =="
# Covers the cluster units too: their simulated events (hundreds of
# thousands of host-world events per run) land in the same report, so
# an events/s collapse in the sharded executor trips this gate.
extract_rate() {
  grep -m1 -o '"aggregate_events_per_sec": *[0-9.]*' "$1" | grep -o '[0-9.]*$'
}
if [ -s results/bench_runner.json ]; then
  baseline=$(extract_rate results/bench_runner.json)
  fresh=$(extract_rate "$FIG_DIR/bench_runner.json")
  echo "baseline: $baseline events/s (committed), fresh: $fresh events/s (quick run)"
  if ! awk -v f="$fresh" -v b="$baseline" 'BEGIN { exit !(f * 5.0 >= b) }'; then
    echo "ci: runner throughput regressed >5x below committed baseline" >&2
    exit 1
  fi
else
  echo "ci: no committed baseline (results/bench_runner.json), skipping gate"
fi

echo "== allocation gate (density allocs/event) =="
# The `allocs` binary replays the density hot path (200 guest creates
# under xl, ~15 ms) with the counting global allocator installed. The
# simulation is deterministic, so the count is exact and the band can
# be tight and absolute: the allocation-free request-path work landed
# at 0.432 allocs/event (results/bench_micro_pr3.md; 5.505 before it).
# Crossing 1.0 means allocations came back on the request hot path.
# Capture before grepping: grep -m1 on the pipe can exit while the
# binary is still flushing, and the SIGPIPE aborts the run.
allocs_out=$(cargo run --release -p bench --bin allocs -- 200)
fresh_allocs=$(printf '%s\n' "$allocs_out" \
  | grep -m1 -o 'allocs_per_event: *[0-9.]*' | grep -o '[0-9.]*$')
echo "density hot path: $fresh_allocs allocs/event (gate: <= 1.0)"
if ! awk -v f="$fresh_allocs" 'BEGIN { exit !(f <= 1.0) }'; then
  echo "ci: density hot path regressed above 1.0 allocs/event" >&2
  exit 1
fi

echo "== teardown growth gate (benchmark churn-xl destroy_growth) =="
# Destroying a guest must cost only what the guest owns (DESIGN.md §6i).
# The benchmark's churn-xl workload churns 6000 xl creates and destroys
# around 500 resident guests; destroy_growth is the median wall latency
# of its last tenth of destroys over its first tenth's. Both halves come
# from one run, so other load on the host cancels out of the ratio.
# Per-connection watch lists and closed-channel removal brought it to
# ~1.2-1.5; whole-table scans on every destroy measured 3.7-4.5.
churn_out=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  --workload churn-xl --seed 1 --seconds 0 --trace 1)
growth=$(printf '%s\n' "$churn_out" | tail -n 1 \
  | grep -o '"plane.destroy_growth":{"value":[0-9.eE+-]*' | grep -o '[0-9.eE+-]*$')
echo "churn-xl destroy growth: $growth (gate: <= 2.0)"
if [ -z "$growth" ] || ! awk -v g="$growth" 'BEGIN { exit !(g > 0 && g <= 2.0) }'; then
  echo "ci: guest teardown slows down as the host ages (destroy_growth $growth > 2.0)" >&2
  exit 1
fi
echo "ci: OK"
