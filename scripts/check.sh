#!/usr/bin/env bash
# Tier-1 verification gate, in one command:
#
#   1. release build of the whole workspace;
#   2. the full test suite (unit + integration, incl. the golden-result
#      bit-identity pin at 1, 2 and 8 executor workers);
#   3. the observability gate: build + test the workspace with the
#      `obs` feature on, so the live recorder paths (session collection,
#      obs/no-obs bit-identity, repeat-run cache-hit proof) are exercised —
#      without the feature those tests degrade to their recording-off
#      halves;
#   4. clippy with warnings as errors — the lib crates carry
#      `#![warn(clippy::unwrap_used, clippy::expect_used)]`, so any
#      unwrap/expect on a library path fails this step;
#   5. ckpt-lint — the workspace determinism & safety lint (rules and
#      scoping in lint.toml), including the cross-file taint pass: any
#      deny-level finding exits non-zero, the archived JSON report is
#      refreshed via scripts/lint_report.sh, and the whole analysis
#      must finish inside its 5-second budget;
#   6. the worker-count invariance gate: the golden study runs at
#      --threads 1, 2, and 8 through the shared-cursor executor, and
#      every aggregate is byte-compared against results/golden/ — tasks
#      land on different workers at every count, but the
#      task-ID-ordered commit must make the results indistinguishable;
#   7. the kill-and-resume gate: SIGKILL the golden study at ~50%
#      completion (`--kill-at` stops the run before the snapshot that
#      would cover those items and the CLI kills its own process, so
#      the exit code is 137), resume it from the surviving snapshot, and
#      byte-compare the committed aggregates against results/golden/ —
#      the durability contract, proven end-to-end through real process
#      death rather than an in-process stop hook. The kill leg runs at
#      --threads 2 and the resume leg at --threads 8, so the snapshot
#      format is also proven worker-count-portable. The killed store
#      must also contain a readable flight-recorder dump
#      (flightrec.json) — the observability half of the durability
#      story;
#   8. the bench-regression gate: ckpt-bench's own tests, then the
#      regress sentinel against a committed 20% slowdown fixture (must
#      flag it, exit 1) and against the real results/BENCH_history.jsonl
#      (must validate the schema and pass, refreshing
#      results/BENCH_regress.txt);
#   9. the perfbench digest gate: one short seq-weibull run, one short
#      exa-exp-study run and one short traced exa-exp-study run
#      (`--trace 1`: its pipeline, layers and run processes) at the
#      reference seed must each report "correct": true — at 600 traces
#      the seq-weibull digests are the only pin on DPMakespan's
#      age-dependent table at the size Table 3 uses, the exa-exp-study
#      digests pin the study path's aggregates (run_study with a store)
#      at benchmark scale, and the traced run's layers process is the
#      only consumer of the cached traces' per-unit store and of
#      lower_bound_makespan on cached traces. The
#      build may rewrite perfbench/Cargo.lock
#      (perfbench is frozen, and its lock still lists packages the
#      workspace dropped), so the lock is saved before the run and
#      restored after it.
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release

echo "== tests =="
cargo test -q

echo "== build + tests (--features obs) =="
cargo build --release --features obs
cargo test -q -p ckpt-obs -p ckpt-dist -p ckpt-policies -p ckpt-sim -p ckpt-exp \
  --features ckpt-obs/obs

echo "== clippy (-D warnings) =="
cargo clippy --workspace -- -D warnings
cargo clippy --workspace --features obs -- -D warnings

echo "== ckpt-lint (determinism & safety) =="
# The lint crate sits outside default-members, so tier-1 build/test
# above never touch it: run its own suite here, then the workspace pass
# via lint_report.sh, which also refreshes results/LINT_report.json and
# enforces the 5-second analysis budget.
cargo test -q -p ckpt-lint
scripts/lint_report.sh

study_tmp=$(mktemp -d)
trap 'rm -rf "$study_tmp"' EXIT

echo "== worker-count invariance gate (golden study at 1, 2, 8 workers) =="
for w in 1 2 8; do
  target/release/ckpt-exp run --study golden --id "workers$w" \
    --study-root "$study_tmp" --threads "$w"
  for f in results/golden/*.json; do
    if ! cmp -s "$f" "$study_tmp/workers$w/aggregate/$(basename "$f")"; then
      echo "WORKER DRIFT: $(basename "$f") differs at --threads $w" >&2
      exit 1
    fi
  done
done
echo "golden aggregates byte-identical at 1, 2, 8 workers"

echo "== kill-and-resume gate (SIGKILL mid-study, byte-identical resume) =="
# --checkpoint-items 4 forces several snapshots before the kill lands,
# so the resume genuinely replays from mid-study state.
set +e
target/release/ckpt-exp run --study golden --id killres \
  --study-root "$study_tmp" --checkpoint-items 4 --kill-at 0.5 --threads 2
status=$?
set -e
if [ "$status" -ne 137 ]; then
  echo "kill-and-resume: expected SIGKILL exit 137, got $status" >&2
  exit 1
fi
# The SIGKILL'd store must hold a readable last-N-events flight dump
# next to its snapshots (written whenever the checkpoint writer
# commits; `recording: true` because the obs build of step 3 owns
# target/release/ckpt-exp at this point).
if [ ! -s "$study_tmp/killres/flightrec.json" ]; then
  echo "kill-and-resume: killed store is missing flightrec.json" >&2
  exit 1
fi
grep -q '"recording": true' "$study_tmp/killres/flightrec.json" || {
  echo "kill-and-resume: flightrec.json is not a live recording" >&2
  exit 1
}
target/release/ckpt-exp run --study golden --resume killres \
  --study-root "$study_tmp" --checkpoint-items 4 --threads 8
for f in results/golden/*.json; do
  if ! cmp -s "$f" "$study_tmp/killres/aggregate/$(basename "$f")"; then
    echo "RESUME DRIFT: $(basename "$f") differs from committed results/golden/" >&2
    exit 1
  fi
done
echo "resumed aggregates byte-identical ($(ls results/golden/*.json | wc -l) files)"

echo "== bench-regression gate (ckpt-bench regress) =="
# The sentinel crate sits outside default-members like ckpt-lint: build
# and test it here, then prove both verdict directions. The slowdown
# fixture's latest record is ~20% over its rolling median and MUST exit
# 1; the real history MUST parse (schema validation is part of the run)
# and pass, refreshing results/BENCH_regress.txt.
cargo build -q --release -p ckpt-bench
cargo test -q -p ckpt-bench --lib
set +e
target/release/ckpt-bench regress \
  --history crates/bench/tests/fixtures/history_slowdown.jsonl \
  --out "$study_tmp/BENCH_regress_fixture.txt" >/dev/null
fixture_status=$?
set -e
if [ "$fixture_status" -ne 1 ]; then
  echo "bench-regress: slowdown fixture must exit 1, got $fixture_status" >&2
  exit 1
fi
target/release/ckpt-bench regress \
  --history results/BENCH_history.jsonl --out results/BENCH_regress.txt
echo "regress sentinel: fixture flagged, real history passes"

echo "== perfbench digest gate (seq-weibull and exa-exp-study, seed 0) =="
# perfbench is a cargo package of its own; building it under target/
# keeps it out of the benchmark's default .bench_build directory.
cp perfbench/Cargo.lock "$study_tmp/perfbench.Cargo.lock"
for run in "seq-weibull --trace 0" "exa-exp-study --trace 0" "exa-exp-study --trace 1"; do
  read -r workload trace_flag trace <<<"$run"
  perf_result=$(CARGO_TARGET_DIR=target/perfbench python3 perfbench/run.py \
    --workload "$workload" --seed 0 --seconds 1 "$trace_flag" "$trace" | tail -n 1) || true
  cp "$study_tmp/perfbench.Cargo.lock" perfbench/Cargo.lock
  if ! printf '%s' "$perf_result" \
    | python3 -c 'import json, sys; sys.exit(0 if json.load(sys.stdin)["correct"] is True else 1)'; then
    echo "perfbench: $run digests or invariants failed: $perf_result" >&2
    exit 1
  fi
  echo "perfbench $run: correct"
done

echo "== check.sh: all green =="
