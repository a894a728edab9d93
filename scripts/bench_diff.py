#!/usr/bin/env python3
"""Compare two directories of BENCH_<name>.json reports.

The harnesses (bench/bench_util.hh) and the sweep CLI write one JSON
report per run with bit-exact headline metrics (printed with %.17g, so
doubles round-trip) plus wall-clock and phase totals.
This tool diffs the reports two runs produced:

  - deterministic headline metrics must match EXACTLY (the simulator
    is deterministic; any drift is a correctness regression, not
    noise), unless --allow-metric-drift is given;
  - host-timing metrics (keys under the reserved "host." namespace,
    plus throughput keys ending in _per_s or speedup) are
    machine-dependent: they are reported as trends and flagged as
    WARNings beyond --warn-timing-regress, never failed.  Keys merely
    ending in _ns are NOT trends — simulated latencies are
    deterministic and stay exact-gated; host-side ns/op measurements
    must use the host. prefix;
  - wall clock (total and the setup/measure split) is compared as a
    trend; --warn-wall-regress FRAC flags regressions beyond FRAC as
    WARNings without failing, --max-wall-regress FRAC fails them;
  - a markdown trend table is printed (or written with --markdown) for
    CI step summaries, and --performance-md appends a dated PR-over-PR
    trend section to a tracking document (docs/PERFORMANCE.md).

Reports present in only one directory are listed but not fatal: a warm
re-run typically regenerates a subset of the baseline's reports.  The
intersection must be non-empty.

Usage:
  bench_diff.py BASELINE_DIR CANDIDATE_DIR
      [--max-wall-regress FRAC] [--warn-wall-regress FRAC]
      [--warn-timing-regress FRAC] [--markdown FILE]
      [--performance-md FILE] [--allow-metric-drift]

Exit status: 0 on success (warnings included), 1 on metric mismatch
(or wall regression beyond the --max gate), 2 on usage/IO errors.
"""

import argparse
import datetime
import json
import os
import sys

# Host-dependent timing values: byte-exact comparison across machines
# is meaningless, so they are trended, not gated.  The "host." prefix
# is the explicit opt-in for ns/op style measurements (a bare _ns
# suffix denotes deterministic *simulated* time and stays exact);
# _per_s / speedup keys are host throughput by construction.
HOST_PREFIX = "host."
RATE_SUFFIXES = ("_per_s", "speedup")


def is_timing_metric(key):
    return key.startswith(HOST_PREFIX) or key.endswith(RATE_SUFFIXES)


def higher_is_better(key):
    """Rates improve upward; host latencies/durations downward."""
    return key.endswith(RATE_SUFFIXES)


def load_reports(directory):
    """Map bench name -> parsed report for every BENCH_*.json in dir."""
    if not os.path.isdir(directory):
        sys.exit("bench_diff: not a directory: %s" % directory)
    reports = {}
    for entry in sorted(os.listdir(directory)):
        if not (entry.startswith("BENCH_") and entry.endswith(".json")):
            continue
        path = os.path.join(directory, entry)
        try:
            with open(path) as f:
                report = json.load(f)
        except (OSError, ValueError) as exc:
            sys.exit("bench_diff: cannot parse %s: %s" % (path, exc))
        reports[report.get("bench", entry)] = report
    return reports


def diff_metrics(base, cand, warn_timing):
    """Return (exact mismatches, timing warnings) for one report."""
    bm, cm = base.get("metrics", {}), cand.get("metrics", {})
    problems = []
    warnings = []
    for key in sorted(set(bm) | set(cm)):
        if key not in cm:
            problems.append("metric %r missing from candidate" % key)
            continue
        if key not in bm:
            problems.append("metric %r missing from baseline" % key)
            continue
        if is_timing_metric(key):
            b, c = bm[key], cm[key]
            if (
                warn_timing is None
                or not isinstance(b, (int, float))
                or not isinstance(c, (int, float))
                or not b
            ):
                continue
            regressed = (
                c < b / (1.0 + warn_timing)
                if higher_is_better(key)
                else c > b * (1.0 + warn_timing)
            )
            if regressed:
                warnings.append(
                    "timing metric %r regressed: %r -> %r" % (key, b, c)
                )
        elif bm[key] != cm[key]:
            problems.append(
                "metric %r differs: baseline %r, candidate %r"
                % (key, bm[key], cm[key])
            )
    return problems, warnings


def fmt_delta(base_wall, cand_wall):
    if not base_wall:
        return "n/a"
    delta = (cand_wall - base_wall) / base_wall * 100.0
    return "%+.1f%%" % delta


def wall_checks(name, base, cand, warn_frac, max_frac):
    """Trend the total/setup/measure wall clocks of one report pair."""
    warnings = []
    failures = []
    for field in ("wall_seconds", "setup_seconds", "measure_seconds"):
        b = float(base.get(field, 0.0))
        c = float(cand.get(field, 0.0))
        if b <= 0:
            continue
        if max_frac is not None and c > b * (1.0 + max_frac):
            failures.append(
                "%s: %s regressed %.2fs -> %.2fs (> %.0f%% tolerance)"
                % (name, field, b, c, max_frac * 100)
            )
        elif warn_frac is not None and c > b * (1.0 + warn_frac):
            warnings.append(
                "%s: %s regressed %.2fs -> %.2fs (> %.0f%% threshold)"
                % (name, field, b, c, warn_frac * 100)
            )
    return warnings, failures


def main():
    parser = argparse.ArgumentParser(
        description="Diff two directories of BENCH_*.json reports."
    )
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument(
        "--max-wall-regress",
        type=float,
        default=None,
        metavar="FRAC",
        help="fail when a candidate wall clock exceeds its baseline "
        "by more than FRAC (e.g. 0.25 = 25%%); default: trend only",
    )
    parser.add_argument(
        "--warn-wall-regress",
        type=float,
        default=0.5,
        metavar="FRAC",
        help="WARN (exit 0) when total/setup/measure wall clock "
        "exceeds its baseline by more than FRAC (default 0.5); "
        "use a negative value to disable",
    )
    parser.add_argument(
        "--warn-timing-regress",
        type=float,
        default=0.5,
        metavar="FRAC",
        help="WARN (exit 0) when a timing metric (_per_s/_ns/"
        "_seconds/speedup key) regresses by more than FRAC "
        "(default 0.5); use a negative value to disable",
    )
    parser.add_argument(
        "--markdown",
        metavar="FILE",
        help="also append the trend table to FILE "
        "(e.g. $GITHUB_STEP_SUMMARY)",
    )
    parser.add_argument(
        "--performance-md",
        metavar="FILE",
        help="append a dated PR-over-PR trend section to FILE "
        "(e.g. docs/PERFORMANCE.md)",
    )
    parser.add_argument(
        "--allow-metric-drift",
        action="store_true",
        help="report metric differences without failing",
    )
    args = parser.parse_args()
    if args.max_wall_regress is not None and args.max_wall_regress < 0:
        parser.error("--max-wall-regress must be >= 0")
    warn_wall = (
        args.warn_wall_regress if args.warn_wall_regress >= 0 else None
    )
    warn_timing = (
        args.warn_timing_regress
        if args.warn_timing_regress >= 0
        else None
    )

    base_reports = load_reports(args.baseline)
    cand_reports = load_reports(args.candidate)
    shared = sorted(set(base_reports) & set(cand_reports))
    if not shared:
        sys.exit(
            "bench_diff: no common BENCH reports between %s and %s"
            % (args.baseline, args.candidate)
        )

    rows = []
    failures = []
    warnings = []
    for name in shared:
        base, cand = base_reports[name], cand_reports[name]
        problems, timing_warns = diff_metrics(base, cand, warn_timing)
        if problems and not args.allow_metric_drift:
            failures.append("%s: %s" % (name, "; ".join(problems)))
        warnings.extend("%s: %s" % (name, w) for w in timing_warns)
        wall_warns, wall_fails = wall_checks(
            name, base, cand, warn_wall, args.max_wall_regress
        )
        warnings.extend(wall_warns)
        failures.extend(wall_fails)
        base_wall = float(base.get("wall_seconds", 0.0))
        cand_wall = float(cand.get("wall_seconds", 0.0))
        metrics = base.get("metrics", {})
        timing = sum(1 for k in metrics if is_timing_metric(k))
        rows.append(
            {
                "name": name,
                "base_wall": base_wall,
                "cand_wall": cand_wall,
                "delta": fmt_delta(base_wall, cand_wall),
                "metrics": len(metrics) - timing,
                "timing": timing,
                "status": "drift" if problems else "identical",
            }
        )

    lines = [
        "| bench | baseline wall | candidate wall | delta "
        "| exact | trend | headline |",
        "|---|---:|---:|---:|---:|---:|---|",
    ]
    for r in rows:
        lines.append(
            "| %s | %.2fs | %.2fs | %s | %d | %d | %s |"
            % (
                r["name"],
                r["base_wall"],
                r["cand_wall"],
                r["delta"],
                r["metrics"],
                r["timing"],
                r["status"],
            )
        )
    for name in sorted(set(base_reports) - set(cand_reports)):
        lines.append("| %s | - | - | - | - | - | baseline only |" % name)
    for name in sorted(set(cand_reports) - set(base_reports)):
        lines.append(
            "| %s | - | - | - | - | - | candidate only |" % name
        )
    table = "\n".join(lines)

    print(table)
    if args.markdown:
        with open(args.markdown, "a") as f:
            f.write(table + "\n")
    if args.performance_md:
        stamp = datetime.date.today().isoformat()
        with open(args.performance_md, "a") as f:
            f.write(
                "\n### Bench trend %s (`%s` -> `%s`)\n\n%s\n"
                % (stamp, args.baseline, args.candidate, table)
            )
            for w in warnings:
                f.write("- WARN: %s\n" % w)

    for w in warnings:
        print("WARN: %s" % w, file=sys.stderr)
    if failures:
        for failure in failures:
            print("FAIL: %s" % failure, file=sys.stderr)
        return 1
    print(
        "bench_diff: %d report(s) compared, %d warning(s), "
        "deterministic metrics %s"
        % (
            len(shared),
            len(warnings),
            "checked (drift allowed)"
            if args.allow_metric_drift
            else "identical",
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
