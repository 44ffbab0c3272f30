#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark harness.

    python3 e2ebench/selftest.py

Checks, each in smoke mode (tiny pass counts):

  1. every workload prints every end-to-end metric of BENCHMARK.json
     with its unit, reports zero failed operations and exits 0;
  2. the traced run prints every per-layer metric with its unit, and
     its JSONL span dump parses; every traced pass is at least 95%
     covered by its child spans, and so are the cells, requests and
     steps inside it (in aggregate);
  3. a flipped sweep fingerprint and a wrong serve status each make
     the run report a failure and exit non-zero;
  4. in a directory holding only BENCHMARK.json and the benchmark's
     own files, the command exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

# Pass roots must be covered by their children; the per-item spans
# below them in aggregate.
PASS_ROOTS = ("sweep.cold_pass", "sweep.warm_pass", "dist.cold_pass",
              "dist.warm_pass", "serve.replay_pass", "engine.pass")
ITEM_SPANS = ("core.cell", "dist.cell", "serve.request", "engine.step")
MIN_COVERAGE = 0.95

failures = []


def check(ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def run(*args, cwd=ROOT):
    out = subprocess.run([sys.executable, os.path.join(cwd, "e2ebench",
                                                       "run.py")] +
                         list(args), cwd=cwd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return out, result


def union_length(intervals, lo, hi):
    covered, cursor = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, hi)
        if e > s:
            covered += e - s
            cursor = e
    return covered


def check_trace(path):
    spans = []
    with open(path) as f:
        for line in f:
            spans.append(json.loads(line))
    check(len(spans) > 0, "trace %s parses (%d spans)" %
          (os.path.basename(path), len(spans)))
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(
            (s["start_us"], s["end_us"]))
    worst = {}
    totals = {}
    for s in spans:
        dur = s["end_us"] - s["start_us"]
        cov = union_length(children.get(s["id"], []), s["start_us"],
                           s["end_us"])
        if s["parent"] == 0 and s["name"] in PASS_ROOTS and dur > 0:
            worst[s["name"]] = min(worst.get(s["name"], 1.0), cov / dur)
        if s["name"] in ITEM_SPANS:
            t = totals.setdefault(s["name"], [0.0, 0.0])
            t[0] += cov
            t[1] += dur
    for name, share in sorted(worst.items()):
        check(share >= MIN_COVERAGE,
              "every %s covered >= 95%% by child spans (min %.4f)" %
              (name, share))
    for name, (cov, dur) in sorted(totals.items()):
        check(dur > 0 and cov / dur >= MIN_COVERAGE,
              "%s spans covered >= 95%% by child spans (%.4f)" %
              (name, cov / dur if dur else 0.0))
    for name in ("sweep.cold_pass", "serve.replay_pass", "engine.pass"):
        check(name in worst, "trace holds %s spans" % name)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out, result = run("--workload", workload, "--seed", "7",
                              "--seconds", "3", "--trace", str(trace),
                              "--smoke")
            label = "%s trace=%d" % (workload, trace)
            check(out.returncode == 0 and result is not None and
                  result["correct"] and result["failed"] == 0,
                  "%s: exit 0, correct, 0 failed" % label)
            if result is None:
                print(out.stdout[-2000:], out.stderr[-2000:])
                continue
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"} and result["attempted"] >= 1,
                  "%s: result line has exactly the four keys" % label)
            got = result["metrics"]
            for m in bench[key]:
                present = m["name"] in got and got[m["name"]]["unit"] == \
                    m["unit"]
                print("     %-32s %-6s %s" %
                      (m["name"], m["unit"],
                       got[m["name"]]["value"] if present else "MISSING"))
                check(present, "%s: %s printed in %s" %
                      (label, m["name"], m["unit"]))
            check(set(got) == {m["name"] for m in bench[key]},
                  "%s: no metric beyond BENCHMARK.json" % label)
            if trace:
                check_trace(os.path.join(
                    ROOT, ".bench_build", "e2ebench-trace",
                    "%s-seed7.jsonl" % workload))

    for fault in ("fingerprint", "status"):
        out, result = run("--workload", "cold", "--seed", "7", "--seconds",
                          "3", "--trace", "0", "--smoke", "--inject", fault)
        check(out.returncode != 0 and result is not None and
              not result["correct"] and result["failed"] >= 1,
              "injected %s fault fails the run" % fault)

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out, result = run("--workload", "cold", "--seed", "1", "--seconds", "3",
                      "--trace", "0", cwd=bare)
    check(out.returncode != 0 and result is None,
          "without the repository's sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
