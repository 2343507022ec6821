#!/usr/bin/env python3
"""Build bench_e2e from this checkout's sources and run one workload.

    python3 bench_e2e/run.py --workload bfs_light --seed 1 --seconds 10 --trace 0

Run from the root of the checkout.  The build goes to .bench_build/.
bench_e2e's own output goes to standard error; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1.  The full record of the run is kept in
.bench_build/results/ for compare_runs.py.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD)],
                ["cmake", "--build", str(BUILD), "--target", "bench_e2e", "-j", jobs]):
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record_path = results / f"{stem}.json"
    record_path.unlink(missing_ok=True)
    cmd = [str(BUILD / "bench_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--json", str(record_path)]
    if args.trace:
        cmd += ["--trace", str(results / f"{stem}.trace.json")]
    try:
        code = subprocess.run(cmd, cwd=BUILD, stdout=sys.stderr,
                              timeout=RUN_TIMEOUT_S).returncode
    except (subprocess.TimeoutExpired, OSError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    if not record_path.exists():
        print(f"run.py: bench_e2e exited {code} without a result", file=sys.stderr)
        return code or 1

    record = json.loads(record_path.read_text())
    metrics = record[section]
    if set(metrics) != set(expected) or any(
            metrics[n]["unit"] != u for n, u in expected.items()):
        print(f"run.py: bench_e2e's {section} metrics do not match BENCHMARK.json: "
              f"missing {sorted(set(expected) - set(metrics))}, "
              f"extra {sorted(set(metrics) - set(expected))}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return code


if __name__ == "__main__":
    sys.exit(main())
