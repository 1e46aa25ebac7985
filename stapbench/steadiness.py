#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for its bounds.

    python3 stapbench/steadiness.py [--workloads a,b] [--seeds 10]
                                    [--first-seed 1] [--trace 0]

Runs stapbench/run.py once per (workload, seed) with the run_seconds of
BENCHMARK.json and prints, for every end-to-end metric, its median and its
spread: the interquartile range over the median, from
statistics.quantiles(values, n=4). A metric is steady when its spread stays
below a third of its bound.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from stats import median, spread  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed",
                   str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = r.stdout.strip().splitlines()
            if r.returncode == 2 or not lines:
                print(f"{workload} seed {seed}: harness/build failed "
                      f"(exit {r.returncode})", flush=True)
                steady = False
                continue
            result = json.loads(lines[-1])
            if r.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result")
                steady = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        for name, series in values.items():
            mid = median(series)
            s = spread(series) if len(series) >= 2 and mid else 0.0
            bound = bounds.get(name)
            ok = bound is None or s < bound / 3
            steady &= ok
            print(f"  {workload:22s} {name:20s} median {mid:12.6g} "
                  f"spread {s:7.2%} bound {bound} {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
