#!/usr/bin/env bash
# Tier-1 verification gate, in one command:
#
#   1. release build of the whole workspace;
#   2. the full test suite (unit + integration, incl. the golden-result
#      bit-identity pin at 1, 2 and 8 executor workers and the source
#      scans of tests/source_rules.rs);
#   3. clippy with warnings as errors over every target, tests included
#      — this enforces the workspace lint table (root Cargo.toml
#      `[workspace.lints]`, root clippy.toml) on test code too: no
#      `unsafe`, no wall-clock
#      read or hash-order iteration outside an `#[expect]` with a reason,
#      no float `==` between computed values, no lock or atomic in the
#      executor beyond its audited sites; an unknown lint name or an
#      unfulfilled `#[expect]` fails too. The traces, platform, dist and
#      exp crates also carry
#      `#![warn(clippy::unwrap_used, clippy::expect_used)]`, so any
#      unwrap/expect on their library paths fails this step;
#   4. rustdoc over the workspace with every warning as an error: a doc
#      that names a renamed or deleted item, links a private item from a
#      public doc, or spells out a link target rustdoc already resolves
#      fails the gate;
#   5. the worker-count invariance gate: the golden study runs at
#      --threads 1, 2, and 8 through the shared-cursor executor, and
#      every aggregate is byte-compared against results/golden/ — tasks
#      land on different workers at every count, but the
#      task-ID-ordered commit must make the results indistinguishable;
#   6. the kill-and-resume gate: SIGKILL the golden study at ~50%
#      completion (`--kill-at` stops the run before the snapshot that
#      would cover those items and the CLI kills its own process, so
#      the exit code is 137), resume it from the surviving snapshot, and
#      byte-compare the committed aggregates against results/golden/ —
#      the durability contract, proven end-to-end through real process
#      death rather than an in-process stop hook. The kill leg runs at
#      --threads 2 and the resume leg at --threads 8, so the snapshot
#      format is also proven worker-count-portable. `study ls` must then
#      list the resumed study with a nonzero item count (the one field
#      it reads from the manifest) and a `done N/N` status. The same kill and
#      resume then runs a paper artefact (`run --study fig8`), and the
#      fig8.md it renders next to its aggregates must equal, byte for
#      byte, what the in-memory `ckpt-exp fig8` writes at the same trace
#      count: the resumable path renders the quick command's artefact;
#   7. the perfbench digest gate: one short seq-weibull run, one short
#      exa-exp-study run, one short traced exa-exp-study run
#      (`--trace 1`: its pipeline, layers and run processes) and one
#      short peta-weibull run at the reference seed must each report
#      "correct": true — at 600 traces the seq-weibull digests are the
#      only pin on DPMakespan's age-dependent table at the size Table 3
#      uses, the exa-exp-study digests pin the study path's aggregates
#      (run_study with a store) at benchmark scale, the traced run's
#      layers process is the only consumer of the cached traces'
#      per-unit store and of lower_bound_makespan on cached traces, and
#      the peta-weibull digests are the only pin on multi-unit Weibull
#      traces (and so on the Weibull first-draw screen of trace
#      generation) at Petascale widths. The seq-weibull and
#      peta-weibull digests also pin DPNextFailure's shallow-start DP
#      (a solve certified at a shallow depth, or grown in place to the
#      ceiling, must give the ceiling's plan bit for bit): seq-weibull
#      on the one-age endgame path, whose plans certify at the start
#      depth, and peta-weibull on the multi-age path, whose solves read
#      cached kernel rows as prefixes and grow. The untraced seq-weibull run
#      must peak at no more than 14 MB of RSS (metrics.peak_rss_mb):
#      above the trace floor its memory is the DP working-set layer,
#      sized to the cells the solvers read (one column-packed
#      DPNextFailure triangle per worker, DPMakespan ladders grown to the
#      largest state asked of a row), which peaks near 12.3 MB against
#      ~15.6 MB when the scratch and ladders are allocated in full. The
#      untraced exa-exp-study run
#      must also peak at no more than 40 MB of RSS (metrics.peak_rss_mb):
#      memoryless states are one-age, so their DP solves build their one
#      log-survival row inline instead of holding rows in the shared
#      kernel-row layer, which peaks near 19 MB against ~92 MB when the
#      rows are held. The traced exa-exp-study run must report at most
#      400 DPNextFailure solves (policies.plan_cache.misses): a memoryless
#      law's plan key is the platform size alone, so its plans recur
#      (~166 solves against 926 when the key carries the ages). The
#      build may rewrite perfbench/Cargo.lock
#      (perfbench is frozen, and its lock still lists packages the
#      workspace dropped: rayon, ckpt-obs and parking_lot), so the lock
#      is saved before the run and restored after it.
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release

echo "== tests =="
cargo test -q

echo "== clippy (-D warnings, all targets) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

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
target/release/ckpt-exp run --study golden --resume killres \
  --study-root "$study_tmp" --checkpoint-items 4 --threads 8
for f in results/golden/*.json; do
  if ! cmp -s "$f" "$study_tmp/killres/aggregate/$(basename "$f")"; then
    echo "RESUME DRIFT: $(basename "$f") differs from committed results/golden/" >&2
    exit 1
  fi
done
echo "resumed aggregates byte-identical ($(ls results/golden/*.json | wc -l) files)"
ls_row=$(target/release/ckpt-exp study ls --study-root "$study_tmp" | awk '$1 == "killres"')
read -r _ ls_items _ _ ls_state ls_done <<<"$ls_row"
if ! [[ "${ls_items:-}" =~ ^[1-9][0-9]*$ ]] || [ "$ls_state $ls_done" != "done $ls_items/$ls_items" ]; then
  echo "study ls: expected killres with a nonzero item count and done N/N, got: $ls_row" >&2
  exit 1
fi
echo "study ls lists killres: $ls_items items, done $ls_done"
set +e
target/release/ckpt-exp run --study fig8 --traces 3 --id fig8res \
  --study-root "$study_tmp" --checkpoint-items 1 --kill-at 0.5 --threads 2
status=$?
set -e
if [ "$status" -ne 137 ]; then
  echo "kill-and-resume (fig8): expected SIGKILL exit 137, got $status" >&2
  exit 1
fi
target/release/ckpt-exp run --study fig8 --traces 3 --resume fig8res \
  --study-root "$study_tmp" --checkpoint-items 1 --threads 8
target/release/ckpt-exp fig8 --traces 3 --out "$study_tmp/fig8mem" >/dev/null
if ! cmp -s "$study_tmp/fig8mem/fig8.md" "$study_tmp/fig8res/fig8.md"; then
  echo "RESUME DRIFT: resumed run --study fig8 renders a different fig8.md" >&2
  exit 1
fi
echo "resumed fig8 study renders fig8.md byte-identical to ckpt-exp fig8"

echo "== perfbench digest and memory gate (seq-weibull, exa-exp-study, peta-weibull, seed 0) =="
# perfbench is a cargo package of its own; building it under target/
# keeps it out of the benchmark's default .bench_build directory.
cp perfbench/Cargo.lock "$study_tmp/perfbench.Cargo.lock"
for run in "seq-weibull --trace 0" "exa-exp-study --trace 0" "exa-exp-study --trace 1" \
  "peta-weibull --trace 0"; do
  read -r workload trace_flag trace <<<"$run"
  perf_result=$(CARGO_TARGET_DIR=target/perfbench python3 perfbench/run.py \
    --workload "$workload" --seed 0 --seconds 1 "$trace_flag" "$trace" | tail -n 1) || true
  cp "$study_tmp/perfbench.Cargo.lock" perfbench/Cargo.lock
  if ! printf '%s' "$perf_result" \
    | python3 -c 'import json, sys; sys.exit(0 if json.load(sys.stdin)["correct"] is True else 1)'; then
    echo "perfbench: $run digests or invariants failed: $perf_result" >&2
    exit 1
  fi
  if [ "$run" = "seq-weibull --trace 0" ] && ! printf '%s' "$perf_result" \
    | python3 -c 'import json, sys; sys.exit(0 if json.load(sys.stdin)["metrics"]["peak_rss_mb"]["value"] <= 14 else 1)'; then
    echo "perfbench: seq-weibull peak RSS above 14 MB; is the DP working-set layer" \
      "(DPNextFailure solve scratch, DPMakespan age rows) allocating cells its solvers" \
      "never read? $perf_result" >&2
    exit 1
  fi
  if [ "$run" = "exa-exp-study --trace 0" ] && ! printf '%s' "$perf_result" \
    | python3 -c 'import json, sys; sys.exit(0 if json.load(sys.stdin)["metrics"]["peak_rss_mb"]["value"] <= 40 else 1)'; then
    echo "perfbench: exa-exp-study peak RSS above 40 MB; memoryless states are one-age," \
      "so are DP solves filling the kernel-row layer again? $perf_result" >&2
    exit 1
  fi
  if [ "$run" = "exa-exp-study --trace 1" ] && ! printf '%s' "$perf_result" \
    | python3 -c 'import json, sys; sys.exit(0 if json.load(sys.stdin)["metrics"]["policies.plan_cache.misses"]["value"] <= 400 else 1)'; then
    echo "perfbench: exa-exp-study ran more than 400 DP solves; is the memoryless plan key" \
      "(the platform size alone, no ages) carrying the ages again? $perf_result" >&2
    exit 1
  fi
  echo "perfbench $run: correct"
done

echo "== check.sh: all green =="
