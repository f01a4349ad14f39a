"""Self-test of the benchmark's own code, at toy scale (under a minute).

    python3 perfbench/selftest.py

Kept out of the repository's test suite on purpose: it runs every
workload end to end and would add to the tier-1 test time.
"""

from __future__ import annotations

import bootstrap  # noqa: F401  (first: caps BLAS threads, puts src/ on sys.path)

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest

import run
from checks import check_result
from workloads import WORKLOADS

SPEC = json.loads(run.SPEC.read_text(encoding="utf-8"))
CANARY_COUNTS = ("learning.fg_evals", "learning.iters", "learning.em_outer_iters", "io.rows_read")


def smoke(workload: str, trace: int, seed: int = 7, corrupt_job: int | None = None) -> tuple[int, dict]:
    """Run one toy-scale workload in-process; exit code and the result line."""
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
            "--trace", str(trace), "--smoke"]
    with contextlib.redirect_stdout(out):
        code = run.main(argv, corrupt_job=corrupt_job)
    return code, json.loads(out.getvalue().splitlines()[-1])


class ChecksTest(unittest.TestCase):
    RESULT = {"algorithm": "ERM", "values": {"o0": "v0", "o1": "v1"}}

    def check(self, result, labels=None, first=None):
        data = json.dumps(result).encode()
        return check_result(data, {"o0", "o1"}, labels or {"o0": "v0"}, first)

    def test_good_result_passes(self):
        self.assertIsNone(self.check(self.RESULT))

    def test_missing_object_fails(self):
        self.assertIn("missing", self.check({**self.RESULT, "values": {"o0": "v0"}}))

    def test_flipped_label_fails_when_algorithm_clamps(self):
        self.assertIn("label", self.check(self.RESULT, labels={"o0": "v1"}))

    def test_baselines_do_not_clamp_labels(self):
        self.assertIsNone(self.check({**self.RESULT, "algorithm": "COUNTS"}, labels={"o0": "v1"}))

    def test_differing_rerun_fails(self):
        self.assertIn("differs", self.check(self.RESULT, first=b"{}"))

    def test_unreadable_result_fails(self):
        self.assertIn("unreadable", check_result(b"", {"o0"}, {}, None))


class SmokeTest(unittest.TestCase):
    def test_every_workload_reports_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result = smoke(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in SPEC[section]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)

    def test_exact_counts_repeat_between_runs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = smoke(workload, 1)[1]["metrics"]
                second = smoke(workload, 1)[1]["metrics"]
                for name in CANARY_COUNTS:
                    self.assertEqual(first[name]["value"], second[name]["value"], name)

    def test_corrupted_result_is_caught(self):
        # Every input runs several times in half a second at toy scale, so a
        # value flipped in one job's output shows as a difference from the
        # other jobs on that input, even where labels are not clamped.
        for workload in ("erm-labeled", "bulk-counts"):
            with self.subTest(workload=workload):
                code, result = smoke(workload, 0, corrupt_job=1)
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_refuses_to_run_without_the_program(self):
        bare = run.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.SPEC, bare / "BENCHMARK.json")
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "erm-labeled",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
