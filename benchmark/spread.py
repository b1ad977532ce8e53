#!/usr/bin/env python3
"""Steadiness check: run every workload N times, each with another seed, and
print for each end-to-end metric of BENCHMARK.json the distance between the
first and third quartile of its values as a share of their median, beside a
third of the metric's bound. Run from the repository root, on an idle box:

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload NAME]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    steady = True
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        started = time.time()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(command, check=True, stdout=subprocess.PIPE, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        per_run = (time.time() - started) / args.runs
        print(f"{workload}: {args.runs} runs, {per_run:.1f} s each")
        for metric in bench["end_to_end"]:
            data = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(data, n=4)
            spread = (q3 - q1) / median
            limit = metric["bound"] / 3
            # The driver does not hold setup_s to its spread, only to its median.
            ok = spread <= limit or metric["name"] == "setup_s"
            steady &= ok
            print(f"  {metric['name']:<14} median {median:>14.4f} {metric['unit']:<4} "
                  f"IQR/median {spread * 100:5.2f} %  (bound/3 = {limit * 100:4.2f} %)  "
                  f"{'ok' if ok else 'TOO WIDE'}  min {min(data):.4f} max {max(data):.4f}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
