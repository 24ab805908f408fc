#!/usr/bin/env python3
"""Self-tests of the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py

They run real `wbancomp` children, so they take about half a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import harness
import run
import traced
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class BenchTestCase(unittest.TestCase):
    def setUp(self):
        harness.WORK.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=harness.WORK, prefix="selftest-"))

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def run_rounds(self, workload: str, seed: int, rounds: int = 1):
        """Generate inputs and run closed-loop rounds; return what they left."""
        inputs = workloads.generate(workload, seed, self.tmp / "inputs")
        checker = workloads.Checker(inputs)
        tally = harness.Tally()
        out = self.tmp / "out"
        for _ in range(rounds):
            harness.run_round(inputs, checker, out, tally)
        return inputs, checker, tally, out


class InputTest(BenchTestCase):
    def test_inputs_repeat_for_a_seed_and_differ_across_seeds(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first = workloads.generate(workload, 5, self.tmp / f"{workload}-a")
                again = workloads.generate(workload, 5, self.tmp / f"{workload}-b")
                other = workloads.generate(workload, 6, self.tmp / f"{workload}-c")
                self.assertEqual(_files(first.dir), _files(again.dir))
                self.assertNotEqual(_files(first.dir), _files(other.dir))


class CheckTest(BenchTestCase):
    def test_corrupted_decode_output_counts_as_failed(self):
        _, checker, tally, out = self.run_rounds("codec_roundtrip", 1)
        self.assertEqual((tally.attempted, tally.failed), (2, 0))
        decoded = out / "decoded.csv"
        lines = decoded.read_text().splitlines()
        lines[len(lines) // 2] = str(int(lines[len(lines) // 2]) ^ 1)
        decoded.write_text("\n".join(lines) + "\n")
        tally.record("decode", checker.check("decode", out))
        self.assertEqual(tally.failed, 1)
        self.assertAlmostEqual(tally.fail_pct, 100 / 3)

    def test_corrupted_metrics_json_counts_as_failed(self):
        _, checker, tally, out = self.run_rounds("mixed_ward", 1)
        self.assertEqual((tally.attempted, tally.failed), (2, 0))
        path = out / "run" / "metrics.json"
        doc = json.loads(path.read_text())
        doc["devices"][0]["comp_pkt"] += 1
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        errors = {label: checker.check(label, out) for label in ("simulate", "report")}
        self.assertIn("metrics.json differs from the recorded statistics",
                      errors["simulate"])
        self.assertEqual(errors["report"],
                         ["report --format json differs from metrics.json"])
        for label, found in errors.items():
            tally.record(label, found)
        self.assertEqual(tally.failed, 2)
        self.assertEqual(tally.fail_pct, 50.0)

    def test_recorded_seeds_reproduce_and_counts_repeat(self):
        # Seed 1 is the default, seed 2 the held-out one; two rounds each also
        # show that the deterministic counts repeat exactly.
        for workload in workloads.SIM_WORKLOADS:
            for seed in workloads.RECORDED_SEEDS:
                with self.subTest(workload=workload, seed=seed):
                    inputs, checker, tally, _ = self.run_rounds(workload, seed, rounds=2)
                    self.assertIsNotNone(checker.recorded)
                    self.assertEqual(tally.failed, 0, tally.reasons)
                    self.assertEqual(tally.attempted, 4)
                    self.assertIsNotNone(checker.counts)


class ContractTest(BenchTestCase):
    def test_metric_names(self):
        spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
        end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(end_to_end, run.END_TO_END_UNITS)
        self.assertEqual(per_layer, traced.PER_LAYER_UNITS)
        for name in [*end_to_end, *per_layer, *workloads.WORKLOADS]:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))

    def test_fails_without_the_program(self):
        bare = self.tmp / "bare"
        shutil.copytree(harness.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("work", "__pycache__"))
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "mixed_ward",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
