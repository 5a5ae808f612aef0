#!/usr/bin/env python3
"""Appends a parent/change entry to BENCH_perfbench.json's history.

Runs perfbench (--trace 0, the benchmark's run length) on every
BENCHMARK.json workload from two checkouts, the parent commit's and this
one, in PAIRS pairs whose first side alternates, and records per workload
and end-to-end metric each side's [first quartile, median, third
quartile] and how many pairs the change won.  On a shared host single runs
cannot resolve a 2-3% change; paired medians over at least 10 pairs can.

Usage:
  tools/perfbench_history.py --parent ../parent-checkout \\
      --note "what the change did"

Each checkout builds its own perfbench under its .bench_build/.  Exit code
0 = entry appended, 2 = bad input or a failed run.
"""
import argparse
import json
import os
import statistics
import sys

from check_perf_regression import ROOT, SEED, host, run_perfbench

# The measurement rule's minimum number of alternating parent/change pairs.
PAIRS = 10


def quartiles(values):
    """[first quartile, median, third quartile]."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent commit checkout")
    ap.add_argument("--note", required=True, help="what the change did")
    args = ap.parse_args()
    parent = os.path.abspath(args.parent)
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each checkout builds in its own tree

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
        workloads = {}
        for w in [w["name"] for w in spec["workloads"]]:
            runs = {"parent": [], "change": []}
            for i in range(PAIRS):
                for side in (("parent", "change") if i % 2 == 0
                             else ("change", "parent")):
                    checkout = parent if side == "parent" else ROOT
                    runs[side].append(run_perfbench(
                        checkout, w, spec["run_seconds"], 0, env)[0])
                print("history: %s pair %d/%d done" % (w, i + 1, PAIRS),
                      flush=True)
            rows = {}
            for m, lo in lower.items():
                p = [r[m] for r in runs["parent"]]
                c = [r[m] for r in runs["change"]]
                won = sum((b < a) if lo else (b > a) for a, b in zip(p, c))
                rows[m] = {"parent": quartiles(p), "change": quartiles(c),
                           "change_won": won}
            workloads[w] = rows
        path = os.path.join(ROOT, "BENCH_perfbench.json")
        with open(path) as f:
            doc = json.load(f)
        doc.setdefault("history", []).append({
            "note": args.note, "pairs": PAIRS,
            "seconds": spec["run_seconds"], "seed": SEED, "host": host(),
            "workloads": workloads})
        with open(path, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    except (OSError, ValueError, KeyError, RuntimeError) as e:
        print("history: %s" % e, file=sys.stderr)
        return 2
    print("history: appended to %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
