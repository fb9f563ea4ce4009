"""Compare two bench summaries (BENCH_recovery.json) on every simulated field.

Usage: python3 .github/scripts/check_sim_fields.py BASELINE CURRENT

Simulated numbers and digests are deterministic, so any difference there is
a behaviour change; wall-clock fields vary run to run and are skipped.
Exits 1 and lists every differing path when the simulated fields differ.
"""

import json
import sys

# Wall-clock fields, at any depth.
WALL = {"total_wall_s", "sections", "wall_s", "build_wall_s"}
# Machine-dependent fields of the "domains" block.
DOMAINS_WALL = {"used", "cores_available", "requested"}


def simulated(x, path=""):
    if isinstance(x, dict):
        return {
            k: simulated(v, f"{path}/{k}")
            for k, v in x.items()
            if k not in WALL
            and not k.startswith("harness_")
            and not (path == "/domains" and k in DOMAINS_WALL)
        }
    if isinstance(x, list):
        return [simulated(v, f"{path}[{i}]") for i, v in enumerate(x)]
    return x


def diffs(a, b, path=""):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(a.keys() | b.keys()):
            yield from diffs(a.get(k), b.get(k), f"{path}/{k}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from diffs(x, y, f"{path}[{i}]")
    elif a != b:
        yield f"{path}: {a!r} -> {b!r}"


def main():
    with open(sys.argv[1]) as f:
        base = simulated(json.load(f))
    with open(sys.argv[2]) as f:
        cur = simulated(json.load(f))
    found = list(diffs(base, cur))
    for d in found:
        print(d)
    if found:
        print(f"FAIL: {len(found)} simulated field(s) differ from {sys.argv[1]}")
        sys.exit(1)
    print(f"simulated fields match {sys.argv[1]}")


if __name__ == "__main__":
    main()
