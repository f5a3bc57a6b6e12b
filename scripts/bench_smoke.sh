#!/usr/bin/env bash
# Fast perf-regression smoke: one small fixed-seed bench cell plus the
# golden byte-identity gate, in well under a minute. A clippy preflight
# runs first: the golden gate only proves the bits *today*; the
# workspace lint table (root Cargo.toml, clippy.toml) proves nobody
# introduced a wall-clock read, hash-order iteration or executor lock
# that would drift them tomorrow.
#
#   1. regenerate the golden cells into a temp dir and byte-compare them
#      against the committed results/golden/ — any numeric drift in the
#      pipeline (policy math, caches, scheduling) fails here;
#   2. run the standard Petascale Weibull bench cell at a reduced trace
#      count and print the per-stage breakdown and the plan-cache
#      counters, so a perf regression is visible at a glance;
#   3. a regress preflight: `ckpt-bench regress` replays the committed
#      results/BENCH_history.jsonl (schema validation + rolling-median
#      verdict) so a malformed history line or an already-recorded
#      slowdown surfaces here, not in the next nightly append. The
#      smoke's own bench run passes `--history none` — a reduced-trace
#      cell is not a comparable record and must never pollute the
#      history.
#
# Usage: scripts/bench_smoke.sh [TRACES]
#   TRACES — trace count for the bench cell (default 4; seeds are fixed,
#            so repeated runs are comparable)
set -euo pipefail
cd "$(dirname "$0")/.."

TRACES=${1:-4}

echo "== build (release) =="
cargo build --release -q -p ckpt-exp

echo "== clippy preflight (workspace lint table) =="
cargo clippy -q --workspace -- -D warnings

echo "== golden drift gate =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cargo run --release -q -p ckpt-exp --bin gen_golden "$tmp" 2>/dev/null
# The gate is a set equality, not just a per-file compare: a golden cell
# that gen_golden stops (or starts) emitting is drift too.
if ! diff <(cd results/golden && ls ./*.json) <(cd "$tmp" && ls ./*.json) >&2; then
  echo "GOLDEN DRIFT: generated golden file set differs from committed results/golden/" >&2
  exit 1
fi
for f in results/golden/*.json; do
  if ! cmp -s "$f" "$tmp/$(basename "$f")"; then
    echo "GOLDEN DRIFT: $(basename "$f") differs from committed results/golden/" >&2
    exit 1
  fi
done
echo "golden cells byte-identical ($(ls results/golden/*.json | wc -l) files)"

echo "== bench cell (traces=$TRACES, fixed seeds) =="
cargo run --release -q -p ckpt-exp --bin bench_pipeline -- \
  --traces "$TRACES" --label smoke --search coarse --history none | \
  if command -v jq >/dev/null; then
    jq '{total_seconds, stages: .pipeline.stages, plan_cache: .pipeline.plan_cache}'
  else
    cat
  fi

echo "== regress preflight (committed bench history) =="
cargo build --release -q -p ckpt-bench
target/release/ckpt-bench regress \
  --history results/BENCH_history.jsonl --out "$tmp/BENCH_regress.txt"

echo "== bench_smoke.sh: all green =="
