#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 e2ebench/steadiness.py --workload cold --seeds 1-10

For every metric of the last JSON line it prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the
quartile spread as a share of the median, and marks a metric whose
spread exceeds a third of its bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    log_dir = os.path.join(ROOT, ".bench_build", "steadiness")
    os.makedirs(log_dir, exist_ok=True)
    values = {}
    for seed in seeds_of(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        with open(os.path.join(log_dir, "%s-trace%d-seed%d.txt" %
                               (args.workload, args.trace, seed)), "w") as f:
            f.write(out.stdout + out.stderr)
        lines = out.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print("seed %d: exit %d, no result line" % (seed, out.returncode))
            print(out.stderr[-2000:], file=sys.stderr)
            continue
        ok = out.returncode == 0 and result["correct"]
        print("seed %d: exit %d correct %s attempted %d failed %d" %
              (seed, out.returncode, result["correct"], result["attempted"],
               result["failed"]), flush=True)
        if not ok:
            print(out.stdout, file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print("%-30s %12s %12s %12s %8s %6s" %
          ("metric", "median", "q1", "q3", "iqr/med", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  > bound/3"
        print("%-30s %12.4f %12.4f %12.4f %8.4f %6s%s" %
              (name, med, q1, q3, spread,
               "" if bound is None else bound, flag))


if __name__ == "__main__":
    sys.exit(main())
