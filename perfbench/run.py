#!/usr/bin/env python3
"""Builds and runs the whole-receiver benchmark (see README.md here).

One workload, as a harness calls it (the last stdout line is the JSON
result):

    python3 perfbench/run.py --workload modem_qam64_16sym --seed 1 \
        --seconds 10 --trace 0

Every workload, untraced and then traced, with the full report:

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--smoke]

The C++ driver is built from source into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench at the checkout root) as a Release build;
build output goes to stderr.  Exits nonzero if the build fails or any
output check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = [
    "modem_qam64_16sym",
    "campaign_qam64_waterfall",
    "cell_qam16_overload",
]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path."""
    bdir = build_dir()
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", "2"])
    for cmd in steps:
        res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                             stderr=sys.stderr, check=False)
        if res.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            sys.exit(1)
    return os.path.join(bdir, "perfbench")


def run_one(binary, workload, seed, seconds, trace, smoke):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", spans]
    if smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT, check=False).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true",
                    help="every workload, untraced then traced")
    ap.add_argument("--smoke", action="store_true",
                    help="short inputs and layer measurements (self-tests)")
    args = ap.parse_args()
    if not args.all and args.workload is None:
        ap.error("give --workload NAME or --all")

    binary = build()
    if not args.all:
        return run_one(binary, args.workload, args.seed, args.seconds,
                       args.trace, args.smoke)
    failed = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            if run_one(binary, workload, args.seed, args.seconds, trace,
                       args.smoke) != 0:
                failed.append("%s (trace %d)" % (workload, trace))
    print("\nperfbench --all: %s" % ("FAILED: " + ", ".join(failed)
                                    if failed else "every check passed"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
