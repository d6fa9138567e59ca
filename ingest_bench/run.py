#!/usr/bin/env python3
"""Build and run the ingest benchmark from the root of a ddoscope checkout.

    python3 ingest_bench/run.py --workload csv_watch --seed 1 --seconds 10 --trace 0
    python3 ingest_bench/run.py --selftest

The first call configures and builds ingest_bench/ (and the library sources
under src/) into .bench_build/ingest_bench; later calls only rebuild what
changed. Build output goes to stderr, so the benchmark's last stdout line is
its JSON result. Staged inputs, checkpoints, the journal and Chrome traces
live in .bench_build/ingest_bench_work; the large staged files are removed
when the run ends.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ingest_bench")
WORK = os.path.join(ROOT, ".bench_build", "ingest_bench_work")
STAGED = ("input.csv", "journal.csv", "watch.ckpt", "netd.ckpt", "isolated.ckpt",
          "isolated_geo.mmdb")


def build(target):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target", target],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the unit tests of the benchmark's helpers")
    args = parser.parse_args()
    try:
        if args.selftest:
            return subprocess.run([build("ingest_bench_selftest")]).returncode
        if not args.workload:
            parser.error("--workload is required")
        binary = build("ingest_bench")
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    try:
        return subprocess.run([binary, "--workload", args.workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace),
                               "--work-dir", WORK]).returncode
    finally:
        for name in STAGED:
            path = os.path.join(WORK, name)
            if os.path.exists(path):
                os.remove(path)


if __name__ == "__main__":
    sys.exit(main())
