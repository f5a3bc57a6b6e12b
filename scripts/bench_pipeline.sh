#!/usr/bin/env bash
# End-to-end pipeline benchmark: clippy gate, then the fixed Petascale
# Weibull(0.7, 125 y) / 4096-proc / 24-trace cell (the policy_micro
# platform), merging the committed baseline with the fresh run into
# results/BENCH_pipeline.json so both numbers travel together.
#
# The bench runs with the `obs` feature on, so a ckpt-obs session
# records it: alongside the JSON it emits a chrome://tracing timeline
# (results/BENCH_pipeline_trace.json — load in chrome://tracing or
# https://ui.perfetto.dev) and a perf-report text summary
# (results/BENCH_pipeline_report.txt), and the binary fails if the obs span totals disagree with the pipeline stage timings
# by more than 5%. Every run also appends one record (git sha, host,
# lane width, stage timings, obs counters) to
# results/BENCH_history.jsonl — the series `ckpt-bench regress` judges.
#
# Usage: scripts/bench_pipeline.sh [TRACES]
#   TRACES — trace count (default 24; the committed baseline was recorded
#            at 24, so other values make the speedup field meaningless)
set -euo pipefail
cd "$(dirname "$0")/.."

TRACES=${1:-24}
OUT=results
BASELINE="$OUT/BENCH_pipeline_baseline.json"

if [[ ! -f "$BASELINE" ]]; then
  echo "missing $BASELINE (committed pre-optimization reference)" >&2
  exit 1
fi

echo "== clippy gate =="
cargo clippy --workspace -- -D warnings

echo "== build (release, obs) =="
cargo build --release -q -p ckpt-exp --features obs

echo "== bench (traces=$TRACES) =="
mkdir -p "$OUT"
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
cargo run --release -q -p ckpt-exp --features obs --bin bench_pipeline -- \
  --traces "$TRACES" --label optimized --search coarse --out "$tmp" \
  --trace-out "$OUT/BENCH_pipeline_trace.json" \
  --report-out "$OUT/BENCH_pipeline_report.txt" \
  --history "$OUT/BENCH_history.jsonl"

jq -n --slurpfile base "$BASELINE" --slurpfile fresh "$tmp" '
  ($base[0]) as $b | ($fresh[0]) as $n |
  {
    cell: $n.cell,
    baseline: {label: $b.label, total_seconds: $b.total_seconds, pipeline: $b.pipeline},
    optimized: {label: $n.label, total_seconds: $n.total_seconds, pipeline: $n.pipeline},
    speedup: (($b.total_seconds / $n.total_seconds) * 100 | round / 100)
  }' > "$OUT/BENCH_pipeline.json"

echo "== wrote $OUT/BENCH_pipeline.json =="
jq '{baseline: .baseline.total_seconds, optimized: .optimized.total_seconds, speedup}' \
  "$OUT/BENCH_pipeline.json"
