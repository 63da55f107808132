#!/usr/bin/env bash
# CI gate: build everything (failing on any rustc or clippy warning), run the
# whole test suite (with a suite-count guard so lost --workspace
# coverage fails loudly), then regenerate all figures at quick scale
# through the DAG runner. Fails if any expected artefact is missing,
# if disabling the world-store cache changes any artefact byte (quick
# scale against the --seq run; full scale at --jobs 2 against the
# committed results/), if any
# scheduler width changes any artefact byte (quick scale at --jobs 2;
# full scale at --jobs 1/2/8 against the committed
# sequential reference in results/), if the full-scale sequential wall
# regressed >1.5x above the committed baseline, if runner throughput
# collapsed
# (>5x below the committed baseline in results/bench_runner.json — a
# coarse band that only trips on real regressions, not
# machine-to-machine noise), if the density hot path allocates again
# (deterministic allocs/event > 1.0; the allocation-free request path
# landed at 0.432), if guest teardown slows down over a long churn at
# a steady ~500 guests (benchmark churn-xl destroy_growth > 2.0; that
# ratio cannot see per-destroy cost that grows with the population,
# which two tests guard: the store's rm_cost_does_not_grow_with_siblings
# and, for the whole teardown, toolstack's teardown_scaling, run in
# release), if the full-scale
# sequential run's cluster units peak above 200 000 KiB resident, or if
# it simulates fewer than 24 200 boots or charges any xl name check
# through the O(n) request scan instead of its closed form, or if a
# std HashMap/HashSet outside the hasher allowlist appears in the
# simulator crates (ids belong in simcore::IdMap).
set -euo pipefail
cd "$(dirname "$0")"

# Every figure artefact id runall writes (as <id>.json and <id>.csv).
ARTEFACTS="fig01 fig02 fig04 fig05 fig09 fig10 fig11 fig12a fig12b
  fig13 fig14 fig15 fig16a fig16b fig16c fig17 fig18 ablations
  faults churn cluster"

# same_artefacts <ref> <dir> <label> [<id>...]: exits unless every
# listed artefact (default: all of ARTEFACTS) in <dir> is byte-identical
# to the one in <ref>. On a mismatch it prints cmp's first differing
# byte and line, and that line from both files.
same_artefacts() {
  local ref="$1" dir="$2" label="$3" id ext f out line ids
  shift 3
  ids="${*:-$ARTEFACTS}"
  for id in $ids; do
    for ext in json csv; do
      f="$id.$ext"
      if ! out=$(cmp "$ref/$f" "$dir/$f" 2>&1); then
        echo "ci: $f differs $label" >&2
        echo "  $out" >&2
        line=$(printf '%s\n' "$out" | grep -o 'line [0-9]*' | grep -o '[0-9]*' || true)
        if [ -n "$line" ]; then
          echo "  $ref/$f:$line: $(sed -n "${line}p" "$ref/$f")" >&2
          echo "  $dir/$f:$line: $(sed -n "${line}p" "$dir/$f")" >&2
        fi
        exit 1
      fi
    done
  done
}

echo "== build (release, workspace, all targets; warnings are errors) =="
# Cargo replays the warnings of cached crates, so a warm build that
# compiles nothing still reports every warning and trips this check.
build_log="$(mktemp)"
cargo build --release --workspace --all-targets 2>&1 | tee "$build_log"
if grep -Eq '^warning: .* generated [0-9]+ warnings?' "$build_log"; then
  echo "ci: rustc warnings in the workspace build (see above)" >&2
  rm -f "$build_log"
  exit 1
fi
rm -f "$build_log"

echo "== examples (release; each must exit 0) =="
# The examples are built above but nothing else runs them, and they are
# the first code a reader copies: every [[example]] target in the root
# Cargo.toml must run to completion.
examples=$(awk '/^\[\[example\]\]/ { ex = 1; next }
  ex && /^name = / { gsub(/"/, "", $3); print $3; ex = 0 }' Cargo.toml)
if [ -z "$examples" ]; then
  echo "ci: no [[example]] targets found in Cargo.toml" >&2
  exit 1
fi
examples_start=$(date +%s.%N)
for ex in $examples; do
  if ! cargo run -q --release --example "$ex" > /dev/null; then
    echo "ci: example $ex failed" >&2
    exit 1
  fi
done
awk -v s="$examples_start" -v e="$(date +%s.%N)" -v n="$(printf '%s\n' "$examples" | grep -c .)" \
  'BEGIN { printf "examples: %d ran in %.2f s\n", n, e - s }'

echo "== chaos script (examples/lifecycle.chaos under every --mode; each must exit 0) =="
# The committed script uses every op of the chaos language; a line that
# no longer parses makes chaos exit 2.
for mode in xl chaos-xs chaos-xs-split chaos-noxs lightvm; do
  if ! cargo run -q --release -p lightvm --bin chaos -- --mode "$mode" examples/lifecycle.chaos > /dev/null; then
    echo "ci: examples/lifecycle.chaos failed under --mode $mode" >&2
    exit 1
  fi
done

echo "== clippy (workspace, all targets; warnings are errors) =="
# Every lint clippy enables by default must hold; a deliberate exception
# is an #[allow] at the site with a one-line reason.
cargo clippy --release --workspace --all-targets -- -D warnings

echo "== hasher gate (SipHash only for keys from outside the program) =="
# Maps keyed by ids the simulator assigns (domids, ports, grant refs,
# task, transaction and symbol ids) use simcore::IdMap; std's SipHash
# RandomState stays where a guest or config text chooses the key
# (DESIGN.md §6a, Hashing). Every HashMap</HashSet< or RandomState line in
# the non-test part (before the first #[cfg(test)]) of these crates must
# match an entry below, and every entry must still match one, so a new
# id-keyed table cannot fall back to SipHash and an outside-keyed one
# (or the interner's keyed fingerprint hasher) cannot lose it.
# Entry: <file>;<regex for the line>;<why it keeps std's hasher>.
hasher_allow=(
  "crates/simcore/src/idmap.rs;pub type IdMap<;IdMap itself is a HashMap with the id hasher"
  "crates/xenstore/src/sym.rs;hasher: .*RandomState;the interner fingerprints guest-chosen path components"
  "crates/xenstore/src/tally.rs;(frozen|recent): .*HashMap<;keyed by digests of guest-written name values"
  "crates/toolstack/src/plane.rs;image_instances: .*HashMap<;keyed by image names from config text"
)
hasher_hits=$(for f in crates/{simcore,hypervisor,devices,noxs,xenstore,toolstack}/src/*.rs; do
  # toolstack's tests.rs is a #[cfg(test)] module in a file of its own.
  [ "${f##*/}" = tests.rs ] && continue
  awk '/^#\[cfg\(test\)\]/ { exit } /^[[:space:]]*\/\// { next }
       /Hash(Map|Set)<|RandomState/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)
hasher_rest="$hasher_hits"
for entry in "${hasher_allow[@]}"; do
  IFS=';' read -r file re why <<< "$entry"
  if ! printf '%s\n' "$hasher_rest" | grep -Eq "^$file:[0-9]+: .*$re"; then
    echo "ci: hasher gate: $file no longer has a std hasher line matching '$re' ($why)" >&2
    exit 1
  fi
  hasher_rest=$(printf '%s\n' "$hasher_rest" | grep -Ev "^$file:[0-9]+: .*$re" || true)
done
if [ -n "$hasher_rest" ]; then
  echo "ci: hasher gate: std HashMap/HashSet/RandomState outside the allowlist (ids go in simcore::IdMap):" >&2
  printf '%s\n' "$hasher_rest" >&2
  exit 1
fi
echo "hasher gate: $(printf '%s\n' "$hasher_hits" | grep -c .) std hasher lines, each allowlisted"

echo "== tests (workspace) =="
test_log="$(mktemp)"
cargo test -q --workspace 2>&1 | tee "$test_log"
# Suite-count guard: a botched invocation (or a workspace edit that
# drops crates from the build) silently shrinks coverage. The workspace
# runs 52 test binaries; fail loudly if any of them did not run.
suites=$(grep -c '^test result: ok' "$test_log" || true)
rm -f "$test_log"
echo "workspace test suites: $suites (guard: >= 52)"
if [ "$suites" -lt 52 ]; then
  echo "ci: only $suites test suite(s) ran — workspace coverage lost (expected >= 52)" >&2
  exit 1
fi

echo "== teardown scaling (release: host time per destroy, save+restore and migrate) =="
# Host time per teardown must not grow with the number of live guests:
# destroy, save+restore and migration out of chaos [NoXS] and LightVM
# hosts at 2 000 guests within 2x of 200 (the XenStore modes' ratios
# are printed). The test asserts ratios of host
# time, which are gated on optimised code, so it runs in release (the
# debug run above ignores it).
cargo test --release -p toolstack --test teardown_scaling -- --nocapture

echo "== figures (runall, quick scale, --seq reference) =="
FIG_DIR="${LIGHTVM_FIG_DIR:-target/ci-figures}"
LIGHTVM_QUICK=1 LIGHTVM_FIG_DIR="$FIG_DIR" \
  cargo run --release -p bench --bin runall -- --seq --report "$FIG_DIR/bench_runner.json"

echo "== artefact check =="
missing=0
for id in $ARTEFACTS; do
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
# run on two workers — chain climbs, probe walks, compute runs and
# units genuinely interleaving — must reproduce the sequential
# reference byte for byte.
LIGHTVM_QUICK=1 LIGHTVM_FIG_DIR="$FIG_DIR/jobs2" \
  cargo run --release -p bench --bin runall -- --jobs 2 \
  --report "$FIG_DIR/jobs2/bench_runner.json" > /dev/null
same_artefacts "$FIG_DIR" "$FIG_DIR/jobs2" "between --seq and --jobs 2"

echo "== fault determinism gate (same seed => same artefact) =="
# The fault plan is seeded: replaying the faults figure on its own
# (quick scale, `runall --seq --filter faults`, so no other figure's
# units share the run) must reproduce the full run's artefacts byte for
# byte.
LIGHTVM_QUICK=1 LIGHTVM_FIG_DIR="$FIG_DIR/faults-replay" \
  cargo run --release -p bench --bin runall -- --seq --filter faults > /dev/null
same_artefacts "$FIG_DIR" "$FIG_DIR/faults-replay" "when replayed from the same seed" faults

echo "== churn smoke gate (replay bytes + census plateau) =="
# The churn soak (DESIGN.md §6i) is seeded the same way: replaying the
# churn figure on its own (quick scale, `runall --seq --filter churn`)
# must reproduce the full run's artefacts byte for byte. The units
# already assert zero digest/census drift internally (a leak panics the
# run); the gates below re-check the published meta so a weakened
# assertion can't slip through.
LIGHTVM_QUICK=1 LIGHTVM_FIG_DIR="$FIG_DIR/churn-replay" \
  cargo run --release -p bench --bin runall -- --seq --filter churn > /dev/null
same_artefacts "$FIG_DIR" "$FIG_DIR/churn-replay" "when replayed from the same seed" churn
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

echo "== cluster determinism gate (replay bytes + DAG widths) =="
# The cluster figure couples thousands of fork-stamped hosts to one
# controller in lockstep epochs of the network delay (conservative
# lookahead, DESIGN.md §6j); `cluster::run_scenario` steps each unit's
# hosts in index order on the unit's own thread. Replaying the
# cluster figure on its own (`runall --filter cluster`) from the same
# seed must reproduce the full run's bytes; --jobs widens the DAG
# runner's pool, which spreads the six cluster units over workers and
# must be invisible in the artefacts too.
for J in 1 2 8; do
  LIGHTVM_QUICK=1 LIGHTVM_FIG_DIR="$FIG_DIR/cluster-j$J" \
    cargo run --release -p bench --bin runall -- --filter cluster --jobs "$J" > /dev/null
  same_artefacts "$FIG_DIR" "$FIG_DIR/cluster-j$J" "when replayed from the same seed at --jobs $J" cluster
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
echo "cluster: replay byte-identical at DAG widths 1/2/8, evac units leak-free"

echo "== snapshot-cache gate (cached vs --no-snapshot-cache) =="
# Figure units share results through bench::worldcache (each chain's
# records and per-rung observables, probe walks, compute runs), each
# built by one producer task. Sharing must be invisible in the
# artefacts: re-running with the cache disabled — every unit
# re-simulates what it reads from scratch, the reference path — must
# reproduce the cached run's bytes exactly, at quick scale and at full
# scale (the committed results/ are the cached sequential reference;
# --jobs 2 also interleaves the inline simulations).
LIGHTVM_QUICK=1 LIGHTVM_FIG_DIR="$FIG_DIR/nocache" \
  cargo run --release -p bench --bin runall -- --no-snapshot-cache \
  --report "$FIG_DIR/nocache/bench_runner.json" > /dev/null
same_artefacts "$FIG_DIR" "$FIG_DIR/nocache" "with the snapshot cache disabled"
LIGHTVM_FIG_DIR="$FIG_DIR/nocache-full" \
  cargo run --release -p bench --bin runall -- --no-snapshot-cache --jobs 2 \
  --report "$FIG_DIR/nocache-full/bench_runner.json" > /dev/null
same_artefacts results "$FIG_DIR/nocache-full" "at full scale with the snapshot cache disabled"

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
  mkdir -p "$FULL_DIR"
  # Both streams are kept for the gates below, then echoed.
  LIGHTVM_FIG_DIR="$FULL_DIR" \
    cargo run --release -p bench --bin runall -- --jobs "$J" \
    --report "$FULL_DIR/bench_runner.json" \
    > "$FULL_DIR/runall.stdout" 2> "$FULL_DIR/runall.stderr"
  cat "$FULL_DIR/runall.stdout"
  cat "$FULL_DIR/runall.stderr" >&2
  same_artefacts results "$FULL_DIR" "at --jobs $J from committed results/"
done

echo "== simulated-work gate (full scale, --jobs 1) =="
# The run must simulate every boot it did before (the world store's
# summary line) and charge every xl name check in closed form (DESIGN.md
# §6g). A check that silently falls back to the O(n) request scan keeps
# every artefact byte and costs only wall time, which the 1.5x wall gate
# below is too loose to see.
run_out="$FIG_DIR/full-j1/runall.stdout"
cloneboot=$(grep -m1 '^# cloneboot:' "$run_out" || true)
echo "full-scale --jobs 1: ${cloneboot:-no cloneboot line}"
if ! grep -q '(24200 simulated)' "$run_out"; then
  echo "ci: simulated-work gate: the full-scale run did not report (24200 simulated)" >&2
  grep -m1 'simulated)' "$run_out" >&2 || true
  exit 1
fi
if ! [[ $cloneboot =~ name-checks\ ([0-9]+)\ closed-form\ ([0-9]+) ]] \
  || [ "${BASH_REMATCH[1]}" != "${BASH_REMATCH[2]}" ] \
  || [[ $cloneboot != *" fallbacks 0" ]]; then
  echo "ci: simulated-work gate: xl name checks fell back to the request scan" >&2
  exit 1
fi

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

echo "== cluster memory gate (full scale, --jobs 1) =="
# Each cluster ladder unit prints the process's peak RSS (VmHWM, a
# lifetime high-water mark, so in a sequential run it bounds every unit
# so far). A stamped host must cost what its fork writes (DESIGN.md
# §6j): with 3 x 1111 hosts the whole sequential run peaked at ~116 MB;
# when every fork copied an empty interner table and per-guest buffers
# it peaked at ~333 MB.
rss_max_kib=200000
rss_values=$(grep -o 'process_peak_rss_kib=[0-9]*' "$FIG_DIR/full-j1/runall.stderr" \
  | grep -o '[0-9]*$' || true)
rss_lines=$(printf '%s\n' "$rss_values" | grep -c '[0-9]' || true)
rss_peak=$(printf '%s\n' "$rss_values" | awk 'BEGIN { m = 0 } $1 > m { m = $1 } END { print m }')
echo "cluster process peak RSS: $rss_peak KiB over $rss_lines ladder lines (gate: 3 lines, each <= $rss_max_kib KiB)"
if [ "$rss_lines" -ne 3 ] || [ "$rss_peak" -gt "$rss_max_kib" ]; then
  echo "ci: cluster memory gate: expected 3 ladder lines each <= $rss_max_kib KiB, got $rss_lines peaking at $rss_peak KiB" >&2
  grep 'process_peak_rss_kib' "$FIG_DIR/full-j1/runall.stderr" >&2 || true
  exit 1
fi

echo "== wall gate (full scale, --jobs 1) =="
# Gate the fresh full-scale sequential wall against the committed
# baseline with a 1.5x noise band — wide enough for machine-to-machine
# variance, tight enough to catch a layer (a chain climb, a probe walk,
# the stamped cluster fleet) going accidentally O(world) per step.
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
# an events/s collapse in the cluster's epoch stepping trips this gate.
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
# A destroy must not get dearer as the host ages (DESIGN.md §6i). The
# benchmark's churn-xl workload churns 6000 xl creates and destroys
# around 500 resident guests; destroy_growth is the median wall latency
# of its last tenth of destroys over its first tenth's. Both halves come
# from one run, so other load on the host cancels out of the ratio.
# Per-connection watch lists and closed-channel removal brought it to
# ~1.2-1.5; whole-table scans of state that grows with every guest ever
# created measured 3.7-4.5. The population stays near 500 throughout, so
# the ratio cannot see a per-destroy cost that grows with the number of
# live guests. The xenstore unit test rm_cost_does_not_grow_with_siblings
# guards that for the store (rm with 4000 siblings against 200), and the
# teardown scaling step above for the whole teardown (destroy and
# save+restore at 2 000 guests against 200).
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
