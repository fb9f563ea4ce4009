#!/usr/bin/env python3
"""Build the benchmark from source and run one workload, or its self-tests.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source tree.  The benchmark executable is built with
dune into .bench_build/ (release profile), then run with the same arguments
(--inject-fault passes through; see perfbench/README.md).  Its last line of
standard output is the JSON result.  This script parses that line and checks
it against BENCHMARK.json (the result's keys, and the metric names and units
in order) before printing it; a line that fails the check is not printed and
the exit code is 2.

--selftest builds and runs the self-tests, then parses their sample result
line back and compares it, value by value, with what they wrote.
"""

import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
ENV = dict(os.environ, DUNE_CACHE="disabled")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(target):
    for needed in ("dune-project", "lib", "BENCHMARK.json", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("%s not found: run from the root of the source tree" % needed)
    done = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/" + target],
        stdout=sys.stderr, env=ENV)
    if done.returncode != 0:
        fail("build failed (dune exit %d)" % done.returncode)
    return os.path.join(BUILD_DIR, "default", "perfbench", target)


def run(exe, args):
    """Run [exe]; pass on all but its last line of output, return that line
    and the exit code."""
    sys.stdout.flush()
    proc = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True, env=ENV)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    return (lines[-1] if lines else ""), proc.returncode


def catalogue(section):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return bench, [(m["name"], m["unit"]) for m in bench[section]]


def parse_result(line, expected):
    """The result object in [line]; ValueError unless it has exactly the
    result keys and names exactly the [expected] (name, unit) pairs."""
    try:
        r = json.loads(line)
    except json.JSONDecodeError as e:
        raise ValueError("not JSON: %s" % e)
    if not isinstance(r, dict) or set(r) != RESULT_KEYS:
        raise ValueError("keys are not %s" % sorted(RESULT_KEYS))
    if not isinstance(r["correct"], bool):
        raise ValueError("correct is not a boolean")
    for k in ("attempted", "failed"):
        if type(r[k]) is not int or r[k] < 0:
            raise ValueError("%s is not a whole number" % k)
    if r["attempted"] < 1:
        raise ValueError("nothing attempted")
    metrics = r["metrics"]
    if not isinstance(metrics, dict):
        raise ValueError("metrics is not an object")
    for name, m in metrics.items():
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            raise ValueError("metric %s is not {value, unit}" % name)
        if type(m["value"]) not in (int, float):
            raise ValueError("metric %s has no numeric value" % name)
    got = [(name, m["unit"]) for name, m in metrics.items()]
    if got != expected:
        i = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
                 min(len(got), len(expected)))
        raise ValueError("metric %d is %s, BENCHMARK.json lists %s" % (
            i, got[i] if i < len(got) else "missing",
            expected[i] if i < len(expected) else "nothing"))
    return r


def trace_flag(args):
    for i, a in enumerate(args[:-1]):
        if a == "--trace":
            return args[i + 1]
    return "0"


def benchmark(args):
    exe = build("bench.exe")
    _, expected = catalogue("per_layer" if trace_flag(args) == "1" else "end_to_end")
    line, code = run(exe, args)
    try:
        parse_result(line, expected)
    except ValueError as e:
        fail("bad result line (exit %d): %s" % (code, e))
    print(line)
    sys.exit(code)


# The values selftest.ml writes for the i-th catalogued metric.
def sample_value(i):
    return [0.1, 2.0 / 3.0, 1e-7 * (i + 1), 123456789.123456789, float(i)][i % 5]


def selftest():
    exe = build("selftest.exe")
    bench, end_to_end = catalogue("end_to_end")
    _, per_layer = catalogue("per_layer")
    sys.stdout.flush()
    proc = subprocess.run([exe], stdout=subprocess.PIPE, text=True, env=ENV)
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-2]))
    problems = []
    if proc.returncode != 0 or len(lines) < 2:
        problems.append("selftest.exe exit %d" % proc.returncode)
    else:
        workloads = lines[-2].split(": ", 1)[-1].split()
        if workloads != [w["name"] for w in bench["workloads"]]:
            problems.append("workloads %s differ from BENCHMARK.json's" % workloads)
        try:
            r = parse_result(lines[-1], end_to_end + per_layer)
            if (r["correct"], r["attempted"], r["failed"]) != (True, 1234, 0):
                problems.append("correct/attempted/failed did not round-trip")
            for i, (name, m) in enumerate(r["metrics"].items()):
                if m["value"] != sample_value(i):
                    problems.append("%s read back as %r, not %r" % (name, m["value"], sample_value(i)))
        except ValueError as e:
            problems.append("sample result line: %s" % e)
    for p in problems:
        print("FAIL " + p)
    print("result line round trip and BENCHMARK.json agreement: %d problems" % len(problems))
    sys.exit(1 if problems else 0)


def main():
    if sys.argv[1:] == ["--selftest"]:
        selftest()
    else:
        benchmark(sys.argv[1:])


if __name__ == "__main__":
    main()
