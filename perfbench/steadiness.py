#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]

Every run is a --trace 0 run of BENCHMARK.json's command on one of its
workloads, at its run_seconds. For every workload and end-to-end metric it
prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and their distance as a share of the
median, next to the metric's bound from BENCHMARK.json. Runs go one after
another; each uses the next seed. Exits non-zero when a run fails
or reports correct=false.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        values = {}
        shares = set()
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", workload, "--seed",
                                      str(seed), "--seconds",
                                      str(bench["run_seconds"]), "--trace",
                                      "0"]
            run = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, check=False)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {run.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            shares.add((result["failed"], result["attempted"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} " + " ".join(
                      f"{k}={v['value']:.6g}"
                      for k, v in sorted(result["metrics"].items())),
                  flush=True)
        print(f"{workload}: failed/attempted over the runs: "
              f"{sorted({f / a for f, a in shares})}")
        for name, vals in sorted(values.items()):
            if len(vals) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2 if q2 else float("nan")
            bound = bounds.get(name)
            print(f"  {workload:12s} {name:14s} median {q2:.6g}  q1 {q1:.6g}"
                  f"  q3 {q3:.6g}  iqr/median {spread:.4f}"
                  + (f"  bound {bound}" if bound is not None else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
