#!/usr/bin/env python3
"""Compares two sets of perfbench results.

    python3 perfbench/compare.py OLD NEW [--benchmark BENCHMARK.json]

OLD and NEW are result records written by run.py (results/<workload>-s<seed>
-t<trace>.json under the build directory) or directories of them. Refuses,
with exit code 3, when the two sides were measured on different machines:
nproc, CPU, compiler, EMBER_SIMD and pool threads must all agree (the commit
and source digest are what is being compared, so they may differ). Otherwise
prints, per workload and metric, each side's median over its records and
the relative change, and marks a change worse than the metric's bound in
BENCHMARK.json. Exit code 1 when any metric regressed beyond its bound.
"""

import argparse
import json
import os
import statistics
import sys

MACHINE = ("nproc", "cpu", "compiler", "ember_simd", "pool_threads")


def load(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))
              if f.endswith(".json")] if os.path.isdir(path) else [path])
    records = []
    for name in files:
        with open(name) as f:
            records.append(json.load(f))
    return records


def machine(records, side):
    prints = {json.dumps({k: r["fingerprint"].get(k) for k in MACHINE},
                         sort_keys=True) for r in records}
    if len(prints) != 1:
        sys.exit(f"compare: {side} mixes machine fingerprints: {prints}")
    return prints.pop()


def medians(records):
    values = {}
    for r in records:
        for name, value in r["metrics"].items():
            values.setdefault((r["workload"], r["trace"], name), []).append(
                value)
    return {key: statistics.median(v) for key, v in values.items()}


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--benchmark",
                        default=os.path.join(here, "..", "BENCHMARK.json"))
    args = parser.parse_args()
    old, new = load(args.old), load(args.new)
    if not old or not new:
        sys.exit("compare: no records")
    if machine(old, "OLD") != machine(new, "NEW"):
        print("compare: refused: the sides were measured on different "
              f"machines:\n  OLD {machine(old, 'OLD')}\n  NEW "
              f"{machine(new, 'NEW')}", file=sys.stderr)
        return 3
    with open(args.benchmark) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = medians(old), medians(new)
    regressed = False
    for key in sorted(set(a) & set(b)):
        workload, trace, name = key
        m = metrics.get(name, {})
        change = (b[key] - a[key]) / a[key] if a[key] else 0.0
        worse = -change if m.get("better") == "higher" else change
        flag = ""
        if "bound" in m and worse > m["bound"]:
            flag = f"  REGRESSED (bound {m['bound']})"
            regressed = True
        print(f"{workload:18s} t{trace} {name:36s} {a[key]:12.6g} -> "
              f"{b[key]:12.6g} {change:+8.2%}{flag}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
