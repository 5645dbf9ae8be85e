#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 fedbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
fedbench binary (library sources from src/) under .bench_build/; later runs
only check that the build is current. The binary drives the workload, checks
its outputs and reports metrics; this script validates that report against
BENCHMARK.json (every declared metric present, with its declared unit, a
finite value, and a sample count on every median and maximum), prints a table
with the sample counts, and prints the result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Any failed check or invalid report exits
non-zero. Checkpoint chains and traces go to .bench_out/; chains are removed
after every run, failed or not.
"""

import argparse
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "fedbench"
BINARY_TIMEOUT_S = 170

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
STATS = {"value", "total", "p50", "max"}
SAMPLED_STATS = {"p50", "max"}


def log(msg):
    print(f"fedbench: {msg}", file=sys.stderr, flush=True)


def load_spec(root=ROOT):
    with open(root / "BENCHMARK.json") as f:
        return json.load(f)


def declared(spec, trace):
    """Declared metrics of one mode as {name: unit}."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def validate(report, spec, trace):
    """Errors in a binary report: missing keys, undeclared or missing
    metrics, wrong units, non-finite values, medians without sample counts."""
    errors = []
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in report:
            errors.append(f"report lacks '{key}'")
    if errors:
        return errors
    if not isinstance(report["attempted"], int) or report["attempted"] < 1:
        errors.append("attempted must be a whole number >= 1")
    if not isinstance(report["failed"], int) or report["failed"] < 0:
        errors.append("failed must be a whole number >= 0")
    want = declared(spec, trace)
    got = report["metrics"]
    for name in want:
        if name not in got:
            errors.append(f"metric {name} missing")
    for name, m in got.items():
        if not NAME_RE.match(name):
            errors.append(f"metric name {name!r} is not [A-Za-z0-9_.-]+")
        if name not in want:
            errors.append(f"metric {name} is not declared in BENCHMARK.json")
            continue
        unit = m.get("unit")
        if unit != want[name] or not UNIT_RE.match(str(unit)):
            errors.append(f"metric {name} has unit {unit!r}, declared {want[name]!r}")
        value = m.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"metric {name} has no finite value")
        stat = m.get("stat")
        if stat not in STATS:
            errors.append(f"metric {name} has unknown stat {stat!r}")
        elif stat in SAMPLED_STATS:
            samples = m.get("samples")
            if not isinstance(samples, int) or samples < 1:
                errors.append(f"metric {name} is a {stat} without a sample count")
    return errors


def describe(name, m):
    stat = m["stat"]
    how = {"p50": f"median of n={m['samples']}", "max": f"max of n={m['samples']}",
           "total": "total over the run", "value": "one reading"}[stat]
    return f"  {name:<40} {m['value']:>16.6g} {m['unit']:<8} {how}"


def result_line(report, errors):
    """The contract's last line: only value and unit per metric."""
    failed = report.get("failed", 0) + (1 if errors else 0)
    attempted = max(1, report.get("attempted", 0) + 1)  # + the report check
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in sorted(report.get("metrics", {}).items())
               if isinstance(m, dict) and "value" in m and "unit" in m}
    correct = bool(report.get("correct")) and not errors and failed == 0
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def build():
    """Configures and builds the fedbench binary; returns its path. Both
    steps are incremental, and configuring every time recovers a build tree
    whose first configure was interrupted."""
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD_DIR / "Makefile").exists():
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", "3"], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return BUILD_DIR / "fedbench"


def remove_chains(out_dir, pid):
    """Removes the checkpoint chains the benchmark process `pid` left."""
    for chain in out_dir.glob(f"chain-*-{pid}"):
        shutil.rmtree(chain, ignore_errors=True)


def run_binary(binary, args, out_dir):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"benchmark exceeded {BINARY_TIMEOUT_S} s")
    finally:
        remove_chains(out_dir, proc.pid)
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError(f"benchmark printed no report (exit {proc.returncode})")
    return json.loads(lines[-1]), proc.returncode


def main(argv=None, binary=None, root=ROOT):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        spec = load_spec(root)
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise RuntimeError(f"unknown workload {args.workload}")
        if binary is None:
            binary = build()
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        report, code = run_binary(binary, args, out_dir)
    except (OSError, ValueError, RuntimeError, subprocess.CalledProcessError) as e:
        log(f"error: {e}")
        return 2
    errors = validate(report, spec, args.trace)
    for e in errors:
        log(f"invalid report: {e}")
    if code != 0 and report.get("correct"):
        errors.append(f"binary exited {code}")
    for name, m in sorted(report.get("metrics", {}).items()):
        if (isinstance(m, dict) and m.get("stat") in STATS and "samples" in m
                and isinstance(m.get("value"), (int, float))):
            print(describe(name, m))
    result = result_line(report, errors)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
