#!/usr/bin/env python3
"""Benchmark of the ckpt-exp pipeline, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The script builds the `perfbench` package (`cargo build --release`, target
directory `$CARGO_TARGET_DIR`, default `.bench_build`), then starts one
fresh `perfbench` process after another until `--seconds` have passed.
Every process runs the workload once from cold process-wide caches (the
DP plan/kernel-row caches and the trace cache cannot be reset in
process) with a fresh store root that is removed when it exits.

`--trace 0` runs the user path and reports the end-to-end metrics of
`BENCHMARK.json` as medians over the processes. `--trace 1` alternates a
`pipeline` process (plan -> execute -> reduce with the stage times), a
`layers` process (the same pipeline with every layer call timed) and, on
store workloads, a `run` process (for the checkpoint layer); it reports the per-layer metrics
as medians over the repetitions.

Every process checks its output: per-cell digests against `golden/` at
the reference seed, invariants at every seed. A failed row makes
`correct` false and the exit code 1. The last line of stdout is the JSON
result; the lines before it are a readable report.

`--bless` rewrites `golden/<workload>.json` from one run at the reference
seed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_SEED = 0
# peta-weibull is left out of BENCHMARK.json: its single-threaded wall
# time drifts with the host's load by more than the 0.25 bound across a
# set of runs. It stays runnable for per-layer work on the Petascale cells.
WORKLOADS = ("peta-weibull", "seq-weibull", "exa-exp-study")
STORE_WORKLOADS = ("exa-exp-study",)
END_TO_END_UNITS = {
    "wall_s": "s",
    "trace_evals_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Untraced processes per run, at least; more while time is left.
MIN_PROCESSES = 3
# Stop starting processes once this much of a run has passed.
RUN_BUDGET_S = 140
PROCESS_TIMEOUT_S = 120


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Build the benchmark; return the path of its binary."""
    if not (ROOT / "crates" / "exp" / "Cargo.toml").is_file():
        fail(f"no source tree next to {HERE.name}/ (crates/exp/Cargo.toml is missing)")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("cargo build failed")
    return target / "release" / "perfbench", target / "perfbench-store"


class Runner:
    """Starts the measured processes, one at a time."""

    def __init__(self, binary, store_root, workload, seed):
        self.binary, self.store_root = binary, store_root
        self.workload, self.seed = workload, seed
        self.count = 0

    def process(self, mode):
        """Run one process; its parsed JSON line, or None if it failed."""
        self.count += 1
        store = self.store_root / f"{os.getpid()}-{self.count}"
        cmd = [str(self.binary), "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode, "--store", str(store)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {mode} process timed out", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(store, ignore_errors=True)
        if proc.returncode != 0:
            print(f"perfbench: {mode} process failed ({proc.returncode}): {proc.stderr.strip()}",
                  file=sys.stderr)
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])


def load_golden(golden_dir, workload):
    path = golden_dir / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def check(out, golden):
    """(rows attempted, rows failed, problems) of one process's output."""
    attempted = failed = 0
    problems = []
    expected = golden["cells"] if golden else None
    if expected is not None and len(expected) != len(out["cells"]):
        problems.append(f"{len(out['cells'])} cells, golden has {len(expected)}")
    for i, cell in enumerate(out["cells"]):
        attempted += cell["rows"]
        bad = cell["failed_rows"]
        problems += [f"cell {i}: {p}" for p in cell["problems"]]
        if expected is not None and i < len(expected):
            for key in ("golden", "aggregate"):
                if cell[key] is not None and cell[key] != expected[i][key]:
                    problems.append(f"cell {i}: {key} digest {cell[key]} != {expected[i][key]}")
                    bad = cell["rows"]
        failed += bad
    if expected is not None and len(expected) != len(out["cells"]):
        failed = max(failed, 1)
    return attempted, failed, problems


def loop(seconds, one):
    """Call `one()` while another call still fits in `seconds` (at least once)."""
    start = time.monotonic()
    longest = 0.0
    while True:
        t = time.monotonic()
        one()
        longest = max(longest, time.monotonic() - t)
        if time.monotonic() - start + longest > min(seconds, RUN_BUDGET_S):
            return


def untraced(runner, seconds, tally):
    outs = []

    def one():
        out = tally(runner.process("run"))
        if out:
            outs.append(out["metrics"])

    loop(seconds, one)
    while len(outs) < MIN_PROCESSES and tally.ok:
        one()
    if not outs:
        return {}, 0
    med = lambda key: statistics.median(m[key] for m in outs)
    return {
        "wall_s": med("wall_s"),
        "trace_evals_per_s": statistics.median(m["evals"] / m["wall_s"] for m in outs),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "setup_s": med("setup_s"),
    }, len(outs)


def traced(runner, seconds, tally, layer_names):
    reps = []

    def one():
        pipe = tally(runner.process("pipeline"))
        layers = tally(runner.process("layers"))
        probe = None
        if runner.workload in STORE_WORKLOADS:
            probe = tally(runner.process("run"))
        if not pipe or not layers or (runner.workload in STORE_WORKLOADS and not probe):
            return
        m = {k: v for k, v in pipe["metrics"].items() if k != "wall_s"}
        m.update({k: v for k, v in layers["metrics"].items() if k != "wall_s"})
        m["trace.overhead_s"] = layers["metrics"]["wall_s"] - pipe["metrics"]["wall_s"]
        if probe:
            m.update({k: v for k, v in probe["metrics"].items() if k.startswith("checkpoint.")})
            m["checkpoint.store_overhead_s"] = probe["metrics"]["wall_s"] - pipe["metrics"]["wall_s"]
        reps.append(m)

    loop(seconds, one)
    if not reps:
        return {}, 0
    # The checkpoint layer does not exist on the in-memory workloads.
    return {name: statistics.median(r.get(name, 0.0) for r in reps) for name in layer_names}, len(reps)


class Tally:
    """Rows attempted and failed over every process of the run."""

    def __init__(self, golden):
        self.golden = golden
        self.attempted = self.failed = 0
        self.problems = []
        self.ok = True

    def __call__(self, out):
        if out is None:
            self.attempted += 1
            self.failed += 1
            self.ok = False
            return None
        a, f, p = check(out, self.golden)
        self.attempted += a
        self.failed += f
        self.problems += p
        return out


def report(workload, seed, trace, metrics, units, tally, n, spec):
    mode = "traced" if trace else "untraced"
    print(f"perfbench {workload} seed {seed}: {mode}, {n} repetitions, "
          f"{spec['workloads'][workload]['workers']} of nproc {spec['host']['nproc']} workers")
    targets = spec["per_layer"]
    for name, value in metrics.items():
        line = f"  {name:<34} {value:>16.6f} {units[name]}"
        if trace and name in targets:
            t = targets[name]
            if name.startswith("checkpoint.") and workload not in STORE_WORKLOADS:
                line += "   (no store on this workload)"
            elif t["on"]:
                line += f"   -> {t['moves']} on {', '.join(t['on'])}"
        print(line)
    frac = tally.failed / max(tally.attempted, 1)
    print(f"  {'failed_frac':<34} {frac:>16.6f} ratio ({tally.failed} of {tally.attempted} rows)")
    for p in tally.problems[:20]:
        print(f"  problem: {p}")


def bless(runner, golden_dir):
    out = runner.process("run")
    if out is None:
        fail("the reference run failed")
    bad = [p for c in out["cells"] for p in c["problems"]]
    if bad:
        fail(f"refusing to bless a run that fails its invariants: {bad}")
    cells = [{"golden": c["golden"], "aggregate": c["aggregate"]} for c in out["cells"]]
    doc = {"workload": runner.workload, "seed": runner.seed, "cells": cells}
    golden_dir.mkdir(parents=True, exist_ok=True)
    (golden_dir / f"{runner.workload}.json").write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {golden_dir / (runner.workload + '.json')}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden-dir", type=Path, default=HERE / "golden")
    ap.add_argument("--bless", action="store_true", help="rewrite the reference digests")
    args = ap.parse_args()

    bench_json = ROOT / "BENCHMARK.json"
    if not bench_json.is_file():
        fail("BENCHMARK.json not found")
    bench = json.loads(bench_json.read_text())
    spec = json.loads((HERE / "targets.json").read_text())
    binary, store_root = build()
    runner = Runner(binary, store_root, args.workload, args.seed)
    if args.bless:
        runner.seed = REFERENCE_SEED
        bless(runner, args.golden_dir)
        return

    # Digests are pinned at the reference seed.
    golden = None
    if args.seed == REFERENCE_SEED:
        golden = load_golden(args.golden_dir, args.workload)
        if golden is None:
            fail(f"no reference digests for {args.workload} in {args.golden_dir}")
    tally = Tally(golden)
    if args.trace:
        layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics, n = traced(runner, args.seconds, tally, list(layer))
        units = layer
    else:
        metrics, n = untraced(runner, args.seconds, tally)
        units = END_TO_END_UNITS
    shutil.rmtree(store_root, ignore_errors=True)

    correct = tally.ok and tally.failed == 0 and n > 0
    report(args.workload, args.seed, args.trace, metrics, units, tally, n, spec)
    result = {
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
