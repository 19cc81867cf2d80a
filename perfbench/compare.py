#!/usr/bin/env python3
"""Summarise or compare sets of perfbench results.

    python3 perfbench/compare.py SET            # spread of each metric
    python3 perfbench/compare.py BASE CHANGED   # medians, change vs bound

A set is a directory of result files written by perfbench/run.py (each
run stores .bench_results/<workload>-seed<n>-trace<t>.json). For every
workload and metric the script prints the number of runs, the median,
and the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median. Given two sets it
also prints the change of the median and marks an end-to-end metric
that got worse by more than its bound in BENCHMARK.json.

Results are compared only within one box class (CPU model, SIMD flags,
nproc, as recorded in each result's identity); mixing classes is an
error unless --force is given. The share of CPU time the hypervisor stole
during each run is summarised too: on a shared VM a set taken while the
host was contended reads slower across the board, so two sets whose
median steal shares of a workload differ by more than MAX_STEAL_DIFF are
not compared either (also overridden by --force); re-take one of them.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEAL = "(host_steal_share)"
MAX_STEAL_DIFF = 0.02


def load(directory):
    """{(workload, trace): {metric: [values]}}, box classes seen. Host
    steal shares ride along under the pseudo-metric "(host_steal_share)"."""
    runs = defaultdict(lambda: defaultdict(list))
    classes = set()
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        record = json.loads(path.read_text())
        ident = record.get("identity", {})
        classes.add(ident.get("box_class", "unknown"))
        key = (ident.get("workload", path.stem), ident.get("trace", "?"))
        for name, metric in record["result"]["metrics"].items():
            runs[key][name].append(metric["value"])
        steal = record.get("accounting", {}).get("host_steal_share")
        if steal is not None:
            runs[key][STEAL].append(float(steal))
    return runs, classes


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("sets", nargs="+", help="one or two result directories")
    ap.add_argument("--force", action="store_true",
                    help="compare across box classes")
    args = ap.parse_args()
    if len(args.sets) > 2:
        ap.error("give one or two sets")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    better = dict((m["name"], m["better"]) for m in spec["per_layer"])
    better.update({k: v[1] for k, v in bounds.items()})

    loaded = [load(s) for s in args.sets]
    classes = set().union(*(c for _, c in loaded))
    if len(classes) > 1 and not args.force:
        print("results come from different box classes:", file=sys.stderr)
        for c in sorted(classes):
            print(f"  {c}", file=sys.stderr)
        return 2

    base = loaded[0][0]
    other = loaded[1][0] if len(loaded) == 2 else None
    if other is not None and not args.force:
        uneven = []
        for key in sorted(set(base) & set(other)):
            a, b = base[key].get(STEAL), other[key].get(STEAL)
            if a and b and abs(statistics.median(a) -
                               statistics.median(b)) > MAX_STEAL_DIFF:
                uneven.append(f"  {key[0]} (trace {key[1]}): median steal "
                              f"{statistics.median(a):.3f} vs "
                              f"{statistics.median(b):.3f}")
        if uneven:
            print("host steal differs between the sets:", file=sys.stderr)
            for line in uneven:
                print(line, file=sys.stderr)
            return 2
    status = 0
    for key in sorted(base):
        workload, trace = key
        print(f"== {workload} (trace {trace})")
        for name in sorted(base[key]):
            med, spread = summary(base[key][name])
            bound, _ = bounds.get(name, (None, None))
            line = (f"  {name:36s} n={len(base[key][name]):2d} "
                    f"median={med:<12.6g} spread={spread:6.3f}")
            if bound is not None:
                line += f" bound={bound:.2f}"
                if spread > bound:
                    line += "  SPREAD>BOUND"
                    status = 1
            if other is not None and name in other.get(key, {}):
                med2, spread2 = summary(other[key][name])
                change = (med2 - med) / abs(med) if med else 0.0
                worse = -change if better.get(name) == "higher" else change
                line += (f" | median={med2:<12.6g} spread={spread2:6.3f} "
                         f"change={change:+.3f}")
                if bound is not None and worse > bound:
                    line += "  WORSE>BOUND"
                    status = 1
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
