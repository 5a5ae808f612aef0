#!/usr/bin/env python3
"""CI perf-regression gate for the simulator's host speed.

Runs perfbench (perfbench/run.py) on its Table 2 workload,
modem_qam64_16sym, RUNS (10) times traced and RUNS times untraced (4 s
each, seed 1, alternating), and gates 19 cases against the committed
baseline in BENCH_perfbench.json at the repo root:

  cga.<k>.ns_per_cycle   17 Table 2 kernels on a prebuilt plan  (traced)
  sdr.rx_ns_per_cycle    whole-modem decode, warm reload        (traced)
  packets_per_s          closed-loop farm throughput            (untraced)

Each case takes its best run (lowest ns/cycle, highest packets/s): on a
shared host interference only ever slows a run.  The baseline was recorded
on another machine, so raw speeds are not comparable directly.  The gate
therefore divides each case's current/baseline speed ratio by the median
ratio over all cases ("this runner is 0.7x the baseline machine") and
flags cases that fall more than THRESHOLD (25%) below it: a uniform slowdown
passes, a lopsided one (one kernel, the VLIW glue or the farm path got
slower relative to the rest) fails.

The gate also pins what the simulator computes.  perfbench prints a
"sim:" fingerprint, a hash of every simulated result of one cycle of
distinct rounds; for a seed it is the same traced or untraced and at any
run length.  The modem value of every run above, plus that of one
SIM_SECONDS run each of SIM_WORKLOADS, must equal the value committed in
the "sim" section of BENCH_perfbench.json, beside "gate".  A mismatch fails
the gate, naming the workload and both values.

Usage:
  tools/check_perf_regression.py [--save cur.json]   # run and gate
  tools/check_perf_regression.py --current cur.json  # gate saved results
  tools/check_perf_regression.py --record            # regenerate the baseline

--record takes each case's best over RECORD_RUNS = 3 x RUNS traced and
untraced runs, so the baseline is not one slow best-of-RUNS draw, and
rewrites the "gate" and "sim" sections of BENCH_perfbench.json; its
"history" array (per-change perfbench medians) is left as it is.

Exit code 0 = no regression, 1 = regression or changed simulated output,
2 = bad input or failed run.
"""
import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD = "modem_qam64_16sym"
SEED = 1
SECONDS = 4
# Best of RUNS holds the gate still on a shared host; if it proves too few,
# raise RUNS, never the threshold.  (Best of 5 failed 2 of 10 runs on a
# contended 4-vCPU Xeon: one kernel slow through all five of its runs.)
RUNS = 10
RECORD_RUNS = 3 * RUNS
THRESHOLD = 0.25  # max tolerated fractional regression
KERNELS = ["acorr", "cfo", "fshift", "xcorr", "bitrev"] + \
    ["fft_stage%d" % i for i in range(1, 7)] + \
    ["interleave", "chest", "eqnorm", "eqapply", "comp", "demod"]
TRACED = ["cga.%s.ns_per_cycle" % k for k in KERNELS] + ["sdr.rx_ns_per_cycle"]
UNTRACED = ["packets_per_s"]
CASES = TRACED + UNTRACED
SIM_WORKLOADS = ["campaign_qam64_waterfall", "cell_qam16_overload"]
SIM_SECONDS = 0.1


def speed(case, value):
    """Speed of a case value (higher is better): packets/s, or 1/ns-per-cycle."""
    return value if case in UNTRACED else 1.0 / value


def run_perfbench(checkout, workload, seconds, trace, env=None):
    """One perfbench run (seed SEED) of `checkout`, in subprocess
    environment `env` (default: this one); returns its metrics as
    {name: value} and its sim fingerprint."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                         text=True, check=False)
    lines = res.stdout.strip().splitlines()
    what = "%s: perfbench %s --trace %d" % (checkout, workload, trace)
    if res.returncode != 0 or not lines:
        raise RuntimeError("%s exited %d" % (what, res.returncode))
    doc = json.loads(lines[-1])
    if not doc.get("correct"):
        raise RuntimeError("%s failed its checks" % what)
    sims = [l.split(": ", 1)[1] for l in lines if l.startswith("sim: ")]
    if len(sims) != 1:
        raise RuntimeError("%s printed %d sim fingerprints" % (what, len(sims)))
    return {k: float(v["value"]) for k, v in doc["metrics"].items()}, sims[0]


def measure(runs):
    """Best of `runs` traced and `runs` untraced runs, alternating, and the
    distinct sim fingerprints seen per workload (every modem run, plus one
    SIM_SECONDS run of each of SIM_WORKLOADS)."""
    best = {}
    sims = {w: set() for w in [WORKLOAD] + SIM_WORKLOADS}
    for i in range(runs):
        for trace in ((1, 0) if i % 2 == 0 else (0, 1)):
            metrics, sim = run_perfbench(ROOT, WORKLOAD, SECONDS, trace)
            sims[WORKLOAD].add(sim)
            for case in (TRACED if trace else UNTRACED):
                v = metrics[case]
                if v <= 0:
                    raise RuntimeError("%s read %g" % (case, v))
                if case not in best or speed(case, v) > speed(case, best[case]):
                    best[case] = v
            print("perf gate: run %d/%d (trace %d) done"
                  % (i + 1, runs, trace), flush=True)
    for w in SIM_WORKLOADS:
        sims[w].add(run_perfbench(ROOT, w, SIM_SECONDS, 0)[1])
        print("perf gate: %s sim run done" % w, flush=True)
    return best, {w: sorted(v) for w, v in sims.items()}


def host():
    """CPU model and logical CPU count, recorded beside a baseline."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return "%s, nproc %d" % (line.split(":", 1)[1].strip(),
                                             os.cpu_count())
    except OSError:
        pass
    return "%s, nproc %d" % (platform.machine(), os.cpu_count())


def median(values):
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


def gate(base, cur):
    """Prints the comparison; returns the regressed case names."""
    missing = [c for c in CASES if c not in base or c not in cur]
    if missing:
        raise ValueError("cases missing: " + ", ".join(missing))
    ratios = {c: speed(c, cur[c]) / speed(c, base[c]) for c in CASES}
    med = median(list(ratios.values()))
    print("perf gate: %d cases, threshold %.0f%%, median-normalized (x%.3f)"
          % (len(CASES), THRESHOLD * 100, med))
    failed = []
    for c in CASES:
        rel = ratios[c] / med
        status = "OK"
        if rel < 1.0 - THRESHOLD:
            status = "REGRESSED"
            failed.append(c)
        print("  %-28s base %10.4g  cur %10.4g  speed ratio %6.3f  "
              "vs-median %6.3f  %s" % (c, base[c], cur[c], ratios[c], rel,
                                       status))
    return failed


def sim_mismatches(committed, seen):
    """Prints the fingerprint check; returns one line per mismatch."""
    bad = []
    for w in [WORKLOAD] + SIM_WORKLOADS:
        for fp in seen[w]:
            if fp != committed[w]:
                bad.append("%s: committed %s, got %s" % (w, committed[w], fp))
        print("  sim %-26s committed %s  %s" % (
            w, committed[w], "OK" if seen[w] == [committed[w]] else
            "MISMATCH (got %s)" % ", ".join(seen[w])))
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline",
                    default=os.path.join(ROOT, "BENCH_perfbench.json"),
                    help="committed baseline (default: BENCH_perfbench.json)")
    ap.add_argument("--current",
                    help="gate these saved results instead of running")
    ap.add_argument("--save", help="write the measured results here")
    ap.add_argument("--record", action="store_true",
                    help="write the measured results as the new baseline")
    args = ap.parse_args()

    try:
        runs = RECORD_RUNS if args.record else RUNS
        if args.current:
            with open(args.current) as f:
                saved = json.load(f)
            cur, runs, sims = saved["cases"], saved["runs"], saved["sim"]
        else:
            cur, sims = measure(runs)
        measured = {
            "workload": WORKLOAD, "seed": SEED, "seconds": SECONDS,
            "runs": runs, "host": host(),
            "cases": {c: cur[c] for c in CASES if c in cur},
        }
        if args.save:
            with open(args.save, "w") as f:
                json.dump(dict(measured, sim=sims), f, indent=1)
                f.write("\n")
        if args.record:
            split = [w for w, fps in sims.items() if len(fps) != 1]
            if split:
                raise RuntimeError("runs disagree on the sim fingerprint of "
                                   + ", ".join(split))
            history = []
            if os.path.exists(args.baseline):
                with open(args.baseline) as f:
                    history = json.load(f)["history"]
            doc = {"schema": "adres.bench_perfbench.v1", "gate": measured,
                   "sim": {w: fps[0] for w, fps in sims.items()},
                   "history": history}
            with open(args.baseline, "w") as f:
                json.dump(doc, f, indent=1)
                f.write("\n")
            print("perf gate: recorded %s" % args.baseline)
            return 0
        with open(args.baseline) as f:
            doc = json.load(f)
        if doc.get("schema") != "adres.bench_perfbench.v1":
            raise ValueError("%s: unsupported schema %r"
                             % (args.baseline, doc.get("schema")))
        failed = gate(doc["gate"]["cases"], cur)
        mismatched = sim_mismatches(doc["sim"], sims)
    except (OSError, ValueError, KeyError, RuntimeError) as e:
        print("perf gate: bad input: %s" % e, file=sys.stderr)
        return 2

    if failed:
        print("perf gate: FAIL — %d case(s) regressed more than %.0f%%: %s"
              % (len(failed), THRESHOLD * 100, ", ".join(failed)),
              file=sys.stderr)
    if mismatched:
        print("perf gate: FAIL — simulated output changed: %s"
              % "; ".join(mismatched), file=sys.stderr)
    if failed or mismatched:
        return 1
    print("perf gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
