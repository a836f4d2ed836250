"""Self-tests of the benchmark (not of the package).

Run from the root of a checkout with either of

    python3 bench/check_bench.py
    python3 -m pytest -q bench/check_bench.py

The file name keeps it out of the package's own test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import kernels  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from worker import Recorder, load_package  # noqa: E402

SCRATCH = run.OUT / "selftest"


def setUpModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            a, b, c = (workloads.generate(workload, seed, SCRATCH / workload / tag)
                       for seed, tag in ((5, "a"), (5, "b"), (6, "c")))
            self.assertEqual(a.input_record(), b.input_record(), workload)
            self.assertEqual(a.cycles, b.cycles, workload)
            self.assertNotEqual(([f["sha256"] for f in a.files], a.cycles),
                                ([f["sha256"] for f in c.files], c.cycles), workload)


class CorruptionTest(unittest.TestCase):
    """A corrupted verdict or witness must be counted as a failed record."""

    @classmethod
    def setUpClass(cls):
        cls.main = staticmethod(load_package()["cli"].main)

    def setUp(self):
        self.outdir = SCRATCH / self.id().rsplit(".", 1)[-1]
        self.outdir.mkdir(parents=True)

    def _outputs(self, plan, idx):
        rec = Recorder(plan.calls, self.outdir)
        rec.run(self.main, idx)
        return rec.result()["outputs"]

    def _rewrite(self, outputs, edit):
        out = outputs[next(iter(outputs))][0]
        path = Path(out["path"])
        text = path.read_text()
        path.write_text(edit(text))
        self.assertNotEqual(path.read_text(), text, "the corruption changed nothing")

    def _first_call(self, plan, kind, route=None):
        return next(i for i, c in enumerate(plan.calls)
                    if c["kind"] == kind and c["route"] == route)

    def test_flipped_text_verdict(self):
        plan = workloads.generate("certify-text", 3, self.outdir / "in")
        outputs = self._outputs(plan, self._first_call(plan, "moments"))
        attempted, failed, _, _ = run.judge(plan, outputs)
        self.assertEqual(failed, 0)
        swap = {"Member": "NonMember", "NonMember": "Indeterminate",
                "Indeterminate": "Member"}

        def flip(text):
            head, rest = text.split("\n", 1)
            index, status = head.split(" ", 1)
            return f"{index} {swap[status.split(' ')[0]]}\n{rest}"

        self._rewrite(outputs, flip)
        attempted, failed, failures, _ = run.judge(plan, outputs)
        self.assertGreaterEqual(failed, 1)
        self.assertEqual(failures[0]["record"], 0)

    def test_negated_separating_polynomial(self):
        plan = workloads.generate("certify-json", 3, self.outdir / "in")
        idx = self._first_call(plan, "moments")
        outputs = self._outputs(plan, idx)
        self.assertEqual(run.judge(plan, outputs)[1], 0)
        rows = plan.expect[plan.calls[idx]["file"]]
        target = next(i for i, r in enumerate(rows) if r["expect"] == "NonMember")

        def negate(text):
            doc = json.loads(text)
            q = doc["results"][target]["witness"]["separating_polynomial"]
            q["a0"], q["a"], q["aa"] = -q["a0"], [-v for v in q["a"]], [-v for v in q["aa"]]
            return json.dumps(doc)

        self._rewrite(outputs, negate)
        _, failed, failures, _ = run.judge(plan, outputs)
        self.assertEqual(failed, 1)
        self.assertEqual(failures[0]["record"], target)

    def test_moved_ellipsoid_point(self):
        plan = workloads.generate("certify-json", 3, self.outdir / "in")
        outputs = self._outputs(plan, self._first_call(plan, "poly", "ellipsoid"))
        self.assertEqual(run.judge(plan, outputs)[1], 0)

        def shift(text):
            doc = json.loads(text)
            detail = doc["results"][0]["routes"]["ellipsoid"]
            detail["min_value"] = detail["min_value"] - 1.0
            return json.dumps(doc)

        self._rewrite(outputs, shift)
        self.assertEqual(run.judge(plan, outputs)[1], 1)

    def test_wrong_exit_code(self):
        plan = workloads.generate("certify-text", 4, self.outdir / "in")
        outputs = self._outputs(plan, self._first_call(plan, "moments"))
        out = outputs[next(iter(outputs))][0]
        out["rc"] = 0 if out["rc"] else 1
        attempted, failed, _, _ = run.judge(plan, outputs)
        self.assertEqual(failed, attempted)

    def test_rejected_setup_and_judge_only_calls(self):
        plan = workloads.generate("halfdeg-search", 3, self.outdir / "in")
        for idx in (plan.setup_call, plan.judge_only[0]):
            outputs = self._outputs(plan, idx)
            self.assertEqual(run.judge(plan, outputs)[1], 0)
            outputs[next(iter(outputs))][0]["rc"] = 64      # input rejected
            attempted, failed, _, _ = run.judge(plan, outputs)
            self.assertEqual((attempted, failed), (1, 1))


class ReferenceSpeedTest(unittest.TestCase):
    """A slower machine leaves the metrics alone; a slower program does not."""

    def _metrics(self, calls: float, machine: float) -> dict:
        """End-to-end metrics of a made-up run whose call times are scaled
        by ``calls`` and whose every time is scaled by ``machine``."""
        rng = np.random.default_rng(0)
        durations = calls * machine * rng.uniform(0.001, 0.3, size=120)
        counts = rng.integers(1, 9, size=121)
        paces = [[machine * pace.REF_S * rng.uniform(1, 1.2) * c, int(c)] for c in counts]
        worker = {"timed": {"durations": durations.tolist(), "pace_s": paces, "records": 1200},
                  "setup_s": [machine * s for s in (0.2, 0.21, 0.19)], "setup_at": [0, 60, 120],
                  "maxrss_kb": 1024}
        metrics = run.end_to_end(worker, *run.at_reference_speed(worker))
        return {name: value for name, (value, _) in metrics.items()}

    def test_machine_speed_cancels(self):
        base, slow_machine = self._metrics(1.0, 1.0), self._metrics(1.0, 1.7)
        for name, value in base.items():
            self.assertAlmostEqual(slow_machine[name] / value, 1.0, places=9, msg=name)
        slow_program = self._metrics(1.3, 1.0)
        self.assertAlmostEqual(base["rows_per_s"] / slow_program["rows_per_s"], 1.3, places=9)
        self.assertAlmostEqual(slow_program["call_ms_p90"] / base["call_ms_p90"], 1.3, places=9)


class TinyRunTest(unittest.TestCase):
    """Every metric BENCHMARK.json names is printed, with its unit."""

    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def _run(self, trace: int):
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "all",
                               "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        return lines, json.loads(lines[-1])

    def _assert_metrics(self, group: str, trace: int):
        lines, result = self._run(trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], lines)
        self.assertGreaterEqual(result["attempted"], 1)
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, list(workloads.WORKLOADS))
        expected = set()
        for entry in self.spec[group]:
            self.assertIn(entry["better"], ("higher", "lower"))
            # kernel rows do not depend on the workload and are reported once
            keys = ([entry["name"]] if entry["name"] in kernels.ROADMAP
                    else [f"{workload}.{entry['name']}" for workload in names])
            for key in keys:
                metric = result["metrics"][key]
                self.assertEqual(metric["unit"], entry["unit"], key)
                self.assertIsInstance(metric["value"], float, key)
            expected.update(keys)
        self.assertEqual(set(result["metrics"]), expected)
        self.assertEqual(sum(line.lstrip().startswith("failed_frac") for line in lines),
                         len(names))

    def test_end_to_end_metrics(self):
        for entry in self.spec["end_to_end"]:
            self.assertLessEqual(entry["bound"], 0.25)
        self._assert_metrics("end_to_end", 0)

    def test_per_layer_metrics(self):
        self._assert_metrics("per_layer", 1)


if __name__ == "__main__":
    unittest.main()
