#!/usr/bin/env bash
# Repeatability check for the benchmark itself: builds lvbench, runs two
# sets of every workload (untraced, one run per seed and set, the sets
# alternating which goes first) and fails if any run failed or if any
# end-to-end metric's median differs between the sets by more than its
# bound in BENCHMARK.json.
#
#   benchmark/check.sh [RUNS_PER_SET]     (default 5; ~12 s per run)
set -euo pipefail
cd "$(dirname "$0")/.."

runs="${1:-5}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
target="${CARGO_TARGET_DIR:-benchmark/target}"
bin="$target/release/lvbench"
out="$target/check"
rm -rf "$out"
mkdir -p "$out"

for seed in $(seq 1 "$runs"); do
  if [ $((seed % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi
  for set in $order; do
    echo "check: seed $seed, set $set"
    if ! "$bin" run --all --trace 0 --seed "$seed" --append "$out/$set.jsonl" > "$out/last.txt"; then
      cat "$out/last.txt"
      echo "check: a run failed or produced wrong output" >&2
      exit 1
    fi
  done
done

# compare fails on a regression beyond the bound; running it both ways
# makes the check two-sided.
"$bin" compare "$out/a.jsonl" "$out/b.jsonl"
if ! "$bin" compare "$out/b.jsonl" "$out/a.jsonl" > "$out/b-vs-a.txt"; then
  cat "$out/b-vs-a.txt"
  echo "check: set a is worse than set b beyond a bound" >&2
  exit 1
fi
echo "check: OK ($runs runs per set)"
