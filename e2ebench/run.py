#!/usr/bin/env python3
"""Build and run the TBD end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload cold --seed 1 --seconds 35 --trace 0

The first call configures and builds a Release binary from the
repository's sources into .bench_build/e2ebench (only the libraries the
benchmark links; about a minute on four cores); later calls rebuild
incrementally. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. The exit code is the benchmark's: 0
when every output check passed.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")


def source_stamp():
    """Short content hash of the sources the binary is built from."""
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:12]


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "e2ebench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD, "e2ebench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["cold", "warm"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny pass counts (harness self-tests)")
    ap.add_argument("--inject", choices=["fingerprint", "status"],
                    help="inject a fault the checks must catch")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("e2ebench: no TBD sources found at %s/src" % ROOT,
              file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("e2ebench: build failed: %s" % e, file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--golden-dir", os.path.join(ROOT, "tests", "golden"),
           "--work-dir", os.path.join(ROOT, ".bench_build",
                                      "e2ebench-work-%d" % os.getpid()),
           "--source", source_stamp()]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "e2ebench-trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject:
        cmd += ["--inject", args.inject]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
