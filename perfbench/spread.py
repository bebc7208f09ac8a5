#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload service --seeds 1-5 [--seconds N] [--trace 0]

For every metric it prints the median over the runs and the spread:
the distance between the first and third quartiles (Python's
statistics.quantiles(values, n=4)) as a share of the median, next to
the metric's bound from BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
              file=sys.stderr)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / abs(med) if med else float("nan")
        print(f"{name:28s} median {med:14.6g}  spread {spread:7.4f}  bound {bounds.get(name)}")


if __name__ == "__main__":
    main()
