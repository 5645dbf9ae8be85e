#!/usr/bin/env python3
"""Tests of the benchmark's own contract: metric names and units declared in
BENCHMARK.json, validation of the binary's report, and a non-zero exit on a
missing metric or a failed check. A stand-in binary replaces fedbench, so no
build is needed; the tracer's interval arithmetic is checked through
`fedbench --self-test` when the binary has been built.

    python3 fedbench/test_run.py
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = run.load_spec()


def full_report(trace, correct=True, failed=0):
    key = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: {"value": 1.5, "unit": m["unit"], "stat": "p50", "samples": 3}
               for m in SPEC[key]}
    return {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}


class SpecTest(unittest.TestCase):
    def test_metric_names_match_pattern_and_carry_units(self):
        names = []
        for key in ("end_to_end", "per_layer"):
            for m in SPEC[key]:
                self.assertRegex(m["name"], run.NAME_RE)
                self.assertRegex(m["unit"], run.UNIT_RE)
                self.assertIn(m["better"], ("higher", "lower"))
                names.append(m["name"])
        for w in SPEC["workloads"]:
            self.assertRegex(w["name"], run.NAME_RE)
            names.append(w["name"])
        self.assertEqual(len(names), len(set(names)), "names are used once")

    def test_setup_metric_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))


class ValidateTest(unittest.TestCase):
    def test_complete_report_is_valid(self):
        for trace in (0, 1):
            self.assertEqual(run.validate(full_report(trace), SPEC, trace), [])

    def test_missing_metric_is_reported(self):
        report = full_report(0)
        del report["metrics"]["run_s"]
        self.assertIn("metric run_s missing", run.validate(report, SPEC, 0))

    def test_undeclared_or_badly_named_metric_is_reported(self):
        report = full_report(0)
        report["metrics"]["bad name!"] = {"value": 1, "unit": "s", "stat": "value"}
        errors = run.validate(report, SPEC, 0)
        self.assertTrue(any("not [A-Za-z0-9_.-]+" in e for e in errors))

    def test_wrong_unit_and_non_finite_value_are_reported(self):
        report = full_report(0)
        report["metrics"]["run_s"]["unit"] = "ms"
        report["metrics"]["setup_s"]["value"] = float("nan")
        errors = run.validate(report, SPEC, 0)
        self.assertTrue(any("run_s has unit" in e for e in errors))
        self.assertTrue(any("setup_s has no finite value" in e for e in errors))

    def test_every_percentile_states_its_sample_count(self):
        report = full_report(0)
        del report["metrics"]["round_p50_s"]["samples"]
        report["metrics"]["peak_rss_mb"]["stat"] = "max"
        report["metrics"]["peak_rss_mb"]["samples"] = 0
        errors = run.validate(report, SPEC, 0)
        self.assertIn("metric round_p50_s is a p50 without a sample count", errors)
        self.assertIn("metric peak_rss_mb is a max without a sample count", errors)


class MainTest(unittest.TestCase):
    """run.main against a stand-in binary that prints a canned report."""

    def setUp(self):
        self.dir = Path(tempfile.mkdtemp())
        shutil.copy(run.ROOT / "BENCHMARK.json", self.dir / "BENCHMARK.json")

    def tearDown(self):
        shutil.rmtree(self.dir)

    def run_with(self, report, trace=0, exit_code=None):
        if exit_code is None:
            exit_code = 0 if report and report["correct"] else 1
        fake = self.dir / "fake_fedbench"
        line = json.dumps(report) if report is not None else ""
        fake.write_text(f"#!{sys.executable}\nimport sys\nprint({line!r})\n"
                        f"sys.exit({exit_code})\n")
        fake.chmod(0o755)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                             "--seconds", "1", "--trace", str(trace)],
                            binary=fake, root=self.dir)
        return code, out.getvalue().splitlines()

    def test_valid_report_exits_zero_with_contract_line(self):
        code, lines = self.run_with(full_report(1), trace=1)
        self.assertEqual(code, 0)
        last = json.loads(lines[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(last["correct"])
        for m in last["metrics"].values():
            self.assertEqual(set(m), {"value", "unit"})
        self.assertTrue(any("median of n=3" in line for line in lines[:-1]))

    def test_missing_metric_exits_non_zero(self):
        report = full_report(0)
        del report["metrics"]["time_to_acc_s"]
        code, lines = self.run_with(report)
        self.assertNotEqual(code, 0)
        self.assertFalse(json.loads(lines[-1])["correct"])

    def test_failed_check_exits_non_zero(self):
        code, lines = self.run_with(full_report(0, correct=False, failed=1))
        self.assertNotEqual(code, 0)
        self.assertGreaterEqual(json.loads(lines[-1])["failed"], 1)

    def test_no_report_exits_non_zero_without_result(self):
        code, lines = self.run_with(None, exit_code=2)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])

    def test_missing_spec_exits_non_zero(self):
        (self.dir / "BENCHMARK.json").unlink()
        code, lines = self.run_with(full_report(0))
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


class TracerTest(unittest.TestCase):
    @unittest.skipUnless((run.BUILD_DIR / "fedbench").exists(), "fedbench not built")
    def test_interval_arithmetic(self):
        proc = subprocess.run([str(run.BUILD_DIR / "fedbench"), "--self-test"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)


if __name__ == "__main__":
    unittest.main()
