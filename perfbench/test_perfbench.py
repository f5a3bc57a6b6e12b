"""Tests of the benchmark itself. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The Rust side has its own unit tests (`cargo test --manifest-path
perfbench/Cargo.toml`).
"""

import copy
import json
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Counts that must not depend on scheduling: (workload, mode, metric).
# `policies.plan_cache.lookups` is hits + misses: at 2 workers two
# sessions can miss the same key at once (the plan is computed outside
# the lock), which moves a rare lookup from hits to misses.
EXACT = [
    ("peta-weibull", "layers", "sim.decisions"),
    ("seq-weibull", "layers", "sim.decisions"),
    ("seq-weibull", "layers", "policies.plan_cache.lookups"),
    ("seq-weibull", "layers", "steal.tasks"),
    ("exa-exp-study", "layers", "scenario.events"),
    ("exa-exp-study", "layers", "steal.tasks"),
    ("exa-exp-study", "run", "checkpoint.writes"),
]


def bench():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


class MetricNames(unittest.TestCase):
    def test_names_are_valid_and_unique(self):
        b = bench()
        metrics = b["end_to_end"] + b["per_layer"]
        names = [m["name"] for m in metrics]
        self.assertEqual(len(names), len(set(names)))
        for m in metrics:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        # peta-weibull is runnable but not judged (see run.WORKLOADS).
        workloads = [w["name"] for w in b["workloads"]]
        self.assertEqual(len(workloads), len(set(workloads)))
        for w in workloads:
            self.assertRegex(w, NAME)
            self.assertIn(w, run.WORKLOADS)

    def test_the_benchmark_reports_exactly_the_declared_metrics(self):
        b = bench()
        self.assertEqual({m["name"] for m in b["end_to_end"]}, set(run.END_TO_END_UNITS))
        for m in b["end_to_end"]:
            self.assertEqual(m["unit"], run.END_TO_END_UNITS[m["name"]])
            self.assertLessEqual(m["bound"], 0.25)
        spec = json.loads((HERE / "targets.json").read_text())
        self.assertEqual([m["name"] for m in b["per_layer"]], list(spec["per_layer"]))
        self.assertEqual(set(spec["workloads"]), set(run.WORKLOADS))
        judged = [w for w, d in spec["workloads"].items() if d["judged"]]
        self.assertEqual(judged, [w["name"] for w in b["workloads"]])

    def test_layer_processes_emit_every_layer_metric(self):
        binary, store = run.build()
        runner = run.Runner(binary, store, "exa-exp-study", 7)
        emitted = set()
        for mode in ("pipeline", "layers", "run"):
            out = runner.process(mode)
            self.assertIsNotNone(out)
            emitted |= set(out["metrics"])
        # Derived by run.py from two processes.
        emitted |= {"trace.overhead_s", "checkpoint.store_overhead_s"}
        declared = {m["name"] for m in bench()["per_layer"]}
        self.assertEqual(declared - emitted, set())


def count(out, metric):
    assert out is not None, "the process failed"
    m = out["metrics"]
    if metric == "policies.plan_cache.lookups":
        return m["policies.plan_cache.hits"] + m["policies.plan_cache.misses"]
    return m[metric]


class ExactCounts(unittest.TestCase):
    def test_counts_repeat_across_two_runs_at_one_seed(self):
        binary, store = run.build()
        seen = {}
        for workload, mode, metric in EXACT:
            key = (workload, mode)
            if key not in seen:
                runner = run.Runner(binary, store, workload, 5)
                seen[key] = [runner.process(mode) for _ in range(2)]
            a, b = (count(out, metric) for out in seen[key])
            self.assertEqual(a, b, f"{workload} {metric}")
            self.assertGreater(a, 0, f"{workload} {metric}")
        # The hit/miss split may move by a racing lookup or two, no more.
        hits = [count(out, "policies.plan_cache.hits") for out in seen[("seq-weibull", "layers")]]
        self.assertLessEqual(abs(hits[0] - hits[1]), 0.005 * hits[0])


class OutputCheck(unittest.TestCase):
    OUT = {"cells": [{"rows": 10, "failed_rows": 0, "golden": "aa", "aggregate": None,
                      "problems": []}]}
    GOLDEN = {"cells": [{"golden": "aa", "aggregate": None}]}

    def test_matching_digest_passes(self):
        self.assertEqual(run.check(self.OUT, self.GOLDEN), (10, 0, []))

    def test_perturbed_digest_fails_every_row_of_the_cell(self):
        golden = copy.deepcopy(self.GOLDEN)
        golden["cells"][0]["golden"] = "ab"
        attempted, failed, problems = run.check(self.OUT, golden)
        self.assertEqual((attempted, failed), (10, 10))
        self.assertTrue(problems)

    def test_perturbed_digest_makes_the_command_fail(self):
        golden = json.loads((HERE / "golden" / "seq-weibull.json").read_text())
        digest = golden["cells"][0]["golden"]
        golden["cells"][0]["golden"] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
        scratch = run.ROOT / ".bench_build"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            (Path(tmp) / "seq-weibull.json").write_text(json.dumps(golden))
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", "seq-weibull",
                 "--seed", str(run.REFERENCE_SEED), "--seconds", "1", "--trace", "0",
                 "--golden-dir", tmp],
                cwd=run.ROOT, capture_output=True, text=True)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
