#!/usr/bin/env python3
"""Compare two sets of bench_e2e --json records against BENCHMARK.json's bounds.

    python3 bench_e2e/compare_runs.py BASE_DIR NEW_DIR [--benchmark FILE]

Each directory holds the --json records of several runs (any file whose
"schema" is bench-e2e-v1; run.py keeps them in .bench_build/results/).
For every (workload, metric) the script prints each side's median and
quartiles and marks the pair:

  within bound  the new median is not worse than the base median by more
                than the metric's bound;
  worse         it is worse by more than the bound;
  unresolved    either side's quartile spread, as a share of its median,
                is wider than the bound, and not every new run reads
                better than every base run.

Per-layer metrics have no bound and are listed without a mark.  The exit
status is 1 when any pair is worse.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SCHEMA = "bench-e2e-v1"


def load(directory):
    """{(workload, section, metric): [values]} from every record in a directory."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(record, dict) or record.get("schema") != SCHEMA:
            continue
        for section in ("end_to_end", "per_layer"):
            for name, metric in record.get(section, {}).items():
                key = (record["workload"], section, name)
                runs.setdefault(key, []).append(metric["value"])
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(base, new, bound, lower_is_better):
    sign = 1.0 if lower_is_better else -1.0
    base_med = statistics.median(base)
    worse_by = sign * (statistics.median(new) - base_med) / abs(base_med)
    all_better = (max(new) < min(base)) if lower_is_better else (min(new) > max(base))
    if max(spread(base), spread(new)) > bound and not all_better:
        return "unresolved"
    return "worse" if worse_by > bound else "within bound"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark",
                        default=Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    args = parser.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    bounds = {m["name"]: (m["bound"], m["better"] == "lower") for m in spec["end_to_end"]}
    base, new = load(args.base), load(args.new)
    if not base or not new:
        print("compare_runs.py: no bench-e2e records in one of the directories",
              file=sys.stderr)
        return 2

    def fmt(values):
        if not values:
            return f"{'-':>34}"
        q1, q2, q3 = quartiles(values)
        return f"{q2:12.4f} [{q1:9.4f},{q3:9.4f}]"

    print(f"{'workload':14} {'metric':46} {'base median [q1,q3]':>34} "
          f"{'new median [q1,q3]':>34} {'change':>8}  mark")
    worse = 0
    for key in sorted(set(base) | set(new), key=lambda k: (k[0], k[1] != "end_to_end", k[2])):
        workload, section, name = key
        b, n = base.get(key, []), new.get(key, [])
        change = ""
        if b and n and statistics.median(b):
            change = f"{100 * (statistics.median(n) / statistics.median(b) - 1):+7.1f}%"
        mark = ""
        if section == "end_to_end" and name in bounds and b and n:
            mark = verdict(b, n, *bounds[name])
            worse += mark == "worse"
        print(f"{workload:14} {name:46} {fmt(b)} {fmt(n)} {change:>8}  {mark}")
    print(f"\n{worse} worse; base runs from {args.base}, new runs from {args.new}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
