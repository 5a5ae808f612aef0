#!/usr/bin/env python3
"""Render a ranked cycle-sink report from an adres.profile.v1 dump.

Reads the JSON the cycle-attribution profiler writes
(bench_table2_profiling --profile-json, or any ProfileSummary::writeJson)
and prints the top steady-state cycle sinks with each kernel's booked
cycles attributed to issue / idle / stall / overhead, plus the
per-(dispatch kind, latency) op-class mix.  Markdown output (--md) is
what PROFILE.md is generated from.

Usage:
  tools/profile_report.py adres_profile.json [--top N] [--md]

Exit code 0 = ok, 2 = bad input.
"""
import argparse
import json
import sys


def fail(msg: str) -> None:
    print(f"profile_report: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path: str) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")
    if doc.get("schema") != "adres.profile.v1":
        fail(f"{path}: expected schema adres.profile.v1, got {doc.get('schema')!r}")
    return doc


def sinks(doc: dict) -> list:
    """(name, cycles, kernel-row-or-None), descending by cycles — the same
    ranking ProfileSummary::topSinks uses."""
    out = []
    for k in doc.get("kernels", []):
        out.append((f"{k['region']}/{k['kernel']}", k["cycles"], k))
    for r in doc.get("regions", []):
        if r.get("vliw_cycles", 0) > 0:
            out.append((f"{r['name']} [vliw]", r["vliw_cycles"], None))
    out.sort(key=lambda t: -t[1])
    return out


def pct(part: int, whole: int) -> str:
    return f"{100.0 * part / whole:.1f}%" if whole else "0.0%"


def class_mix(row: dict) -> str:
    classes = sorted(row.get("ops_by_class", {}).items(), key=lambda kv: -kv[1])
    total = sum(v for _, v in classes) or 1
    return ", ".join(f"{name} {100.0 * v / total:.0f}%" for name, v in classes)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile", help="adres.profile.v1 JSON path")
    ap.add_argument("--top", type=int, default=10, help="sinks to show")
    ap.add_argument("--md", action="store_true", help="markdown table output")
    args = ap.parse_args()

    doc = load(args.profile)
    total = doc.get("total_cycles", 0)
    ranked = sinks(doc)[: args.top]

    if args.md:
        print(f"Top cycle sinks over {doc.get('runs', 0)} runs "
              f"({total} total core cycles):")
        print()
        print("| # | sink | cycles | share | issue | idle | stall | overhead |")
        print("|--:|------|-------:|------:|------:|-----:|------:|---------:|")
        for i, (name, cycles, row) in enumerate(ranked, 1):
            if row:
                parts = [pct(row[k], cycles) for k in
                         ("issue_cycles", "idle_cycles", "stall_cycles",
                          "overhead_cycles")]
            else:
                parts = ["-", "-", "-", "-"]
            print(f"| {i} | `{name}` | {cycles} | {pct(cycles, total)} | "
                  + " | ".join(parts) + " |")
        print()
        for name, _, row in ranked:
            if row and row.get("ops_by_class"):
                print(f"- `{name}`: {class_mix(row)}")
    else:
        print(f"adres.profile.v1: {doc.get('runs', 0)} runs, "
              f"{total} total core cycles")
        for i, (name, cycles, row) in enumerate(ranked, 1):
            line = f"{i:2d}. {name:36s} {cycles:>12d} cycles  {pct(cycles, total):>6s}"
            if row:
                line += (f"  (issue {pct(row['issue_cycles'], cycles)}, "
                         f"idle {pct(row['idle_cycles'], cycles)}, "
                         f"stall {pct(row['stall_cycles'], cycles)}, "
                         f"overhead {pct(row['overhead_cycles'], cycles)})")
            print(line)
            if row and row.get("ops_by_class"):
                print(f"      ops: {class_mix(row)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
