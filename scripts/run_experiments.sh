#!/usr/bin/env bash
# Regenerate every recorded experiment into results/.
#
# Usage: scripts/run_experiments.sh [TRACES_MAIN] [TRACES_HEAVY]
#   TRACES_MAIN  — trace count for 1-proc tables and Petascale figures
#                  (default 25; the paper uses 600)
#   TRACES_HEAVY — trace count for Exascale / log-based / Jaguar-wide cells
#                  (default 8)
set -euo pipefail
cd "$(dirname "$0")/.."

MAIN=${1:-25}
HEAVY=${2:-8}
OUT=results
BIN="cargo run --release -q -p ckpt-exp --bin ckpt-exp --"

mkdir -p "$OUT"
echo "== fig1 (analytic) =="
$BIN fig1 --out "$OUT" > /dev/null

for e in table2 table3 fig8 fig9; do
  echo "== $e (traces=$MAIN) =="
  $BIN "$e" --traces "$MAIN" --out "$OUT" > /dev/null
done

for e in fig2 fig4; do
  echo "== $e (traces=$HEAVY) =="
  $BIN "$e" --traces "$HEAVY" --out "$OUT" > /dev/null
done

echo "== table4 (traces=$HEAVY) =="
$BIN table4 --traces "$HEAVY" --out "$OUT" > /dev/null

echo "== fig5 (traces=$HEAVY) =="
$BIN fig5 --traces "$HEAVY" --out "$OUT" > /dev/null

for e in fig3 fig6 fig7 fig100; do
  echo "== $e (traces=$HEAVY) =="
  $BIN "$e" --traces "$HEAVY" --out "$OUT" > /dev/null
done

for e in fig98 fig99; do
  echo "== $e (traces=3) =="
  $BIN "$e" --traces 3 --out "$OUT" > /dev/null
done

echo "All experiments written to $OUT/."
