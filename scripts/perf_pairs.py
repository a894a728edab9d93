#!/usr/bin/env python3
"""Alternating before/after pairs of the repository benchmark.

Runs `perfbench/run.py` in two checkouts -- the parent commit and the
change -- in pairs, alternating which side runs first, and judges the
end-to-end metrics under the repository's rule:

  - a metric GAINS when the change wins at least 9 of every 10 pairs
    (ties count for neither side) and the median gap is larger than
    the parent's interquartile range;
  - a metric REGRESSES when the change's median is worse than the
    parent's by more than the metric's bound in BENCHMARK.json (a
    fraction of the parent's median);
  - a metric is UNRESOLVED when either side's interquartile range is
    wider than that bound, unless every run of the change reads better
    than every run of the parent;
  - otherwise it is within its bound.

With --trace 1 the per-layer metrics are summarized the same way, for
information only (BENCHMARK.json gives them no bound).  BENCHMARK.json
is read from the change's checkout and never written.

Usage:
  perf_pairs.py --parent DIR --change DIR --workload NAME --seed N
      [--pairs 10] [--seconds S] [--trace 0|1] [--log FILE]

--seconds defaults to BENCHMARK.json's run_seconds.  Each side is
built (and run for one discarded second) before the first pair, so no
timed run pays for a build.  Every run is printed as it finishes, then
per-side median and quartiles, pairs won and the verdict per metric.

Exit status: 0 when every run succeeded and no metric regressed, 1 when
a run failed or a metric regressed, 2 on usage errors.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def usage_error(msg):
    print("perf_pairs: " + msg, file=sys.stderr)
    sys.exit(2)


def run_bench(checkout, args, seconds, log):
    """One perfbench run; returns its result object, or None on failure."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=log, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    ok = result.get("correct") is True and result.get("failed") == 0
    return result if ok else None


def quartiles(values):
    """(q1, median, q3) with linear interpolation between ranks."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def judge(metric, parent, change, won, pairs):
    """Verdict for one end-to-end metric (see the module docstring)."""
    direction, bound = metric["better"], metric.get("bound")
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gap = p_med - c_med if direction == "lower" else c_med - p_med
    if bound is not None and -gap > bound * abs(p_med):
        return "REGRESSION"
    if won >= math.ceil(0.9 * pairs) and gap > p_q3 - p_q1:
        return "GAIN"
    if bound is not None:
        spread = max(p_q3 - p_q1, c_q3 - c_q1)
        all_better = all(better(c, p, direction)
                         for c in change for p in parent)
        if spread > bound * abs(p_med) and not all_better:
            return "UNRESOLVED"
    return "within bound"


def fmt(v):
    return "%.4g" % v


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True,
                    help="checkout of the parent commit")
    ap.add_argument("--change", required=True,
                    help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int,
                    help="seconds per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--log", default=os.devnull,
                    help="file for the runs' build and progress output")
    args = ap.parse_args()

    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    for side, path in checkouts.items():
        if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            usage_error("%s checkout %s has no perfbench/run.py"
                        % (side, path))
    if args.pairs < 1:
        usage_error("--pairs must be at least 1")
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        usage_error("unknown workload %r (BENCHMARK.json lists %s)"
                    % (args.workload, ", ".join(names)))
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    seconds = args.seconds or bench["run_seconds"]

    print("perf_pairs: %s seed %d, %d pairs of %d s, trace %d"
          % (args.workload, args.seed, args.pairs, seconds, args.trace))
    print("  parent %s\n  change %s"
          % (checkouts["parent"], checkouts["change"]))
    runs = []  # one {side: metrics object or None} per pair
    failed = {side: 0 for side in SIDES}
    with open(args.log, "a") as log:
        for side in SIDES:
            if run_bench(checkouts[side], args, 1, log) is None:
                print("%s: warm-up run failed" % side)
                failed[side] += 1
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                result = run_bench(checkouts[side], args, seconds, log)
                pair[side] = result and result["metrics"]
                if result is None:
                    failed[side] += 1
                    print("pair %2d %-6s FAILED" % (i + 1, side))
                    continue
                got = pair[side]
                print("pair %2d %-6s " % (i + 1, side) + "  ".join(
                    "%s=%s" % (m["name"], fmt(got[m["name"]]["value"]))
                    for m in metrics if m["name"] in got), flush=True)
            runs.append(pair)

    print("\n| metric | parent median (q1-q3) | change median (q1-q3) "
          "| change vs parent | pairs won | verdict |")
    print("|---|---|---|---|---|---|")
    regressed = False
    for m in metrics:
        name = m["name"]
        side_values = {
            side: [r[side][name]["value"] for r in runs
                   if r[side] and name in r[side]] for side in SIDES}
        p, c = side_values["parent"], side_values["change"]
        complete = [r for r in runs if all(
            r[side] and name in r[side] for side in SIDES)]
        if not p or not c:
            print("| %s | - | - | - | - | no data |" % name)
            continue
        won = sum(better(r["change"][name]["value"],
                         r["parent"][name]["value"], m["better"])
                  for r in complete)
        p_q1, p_med, p_q3 = quartiles(p)
        c_q1, c_med, c_q3 = quartiles(c)
        rel = ("%+.1f%%" % (100.0 * (c_med - p_med) / p_med)
               if p_med else "-")
        verdict = (judge(m, p, c, won, len(runs)) if not args.trace
                   else "per layer")
        regressed |= verdict == "REGRESSION"
        print("| %s (%s) | %s (%s-%s) | %s (%s-%s) | %s | %d/%d | %s |"
              % (name, m["unit"], fmt(p_med), fmt(p_q1), fmt(p_q3),
                 fmt(c_med), fmt(c_q1), fmt(c_q3), rel, won, len(runs),
                 verdict))
    print("\nfailed runs: parent %d, change %d"
          % (failed["parent"], failed["change"]))
    return 1 if regressed or any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
