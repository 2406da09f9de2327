#!/usr/bin/env python3
"""Compare a bench --json run against a committed baseline.

Usage:
    check_bench_regression.py BASELINE.json CURRENT.json [CURRENT2.json ...]
        [--tolerance 0.25] [--min-seconds 0.005] [--check-revenues]

Multiple CURRENT files (repeated runs of the same driver) are merged by
taking the per-pair minimum seconds — the standard de-noising for shared
CI runners — while revenues must agree bit-for-bit across the runs.

The baseline and the current run must cover the SAME (instance,
algorithm) pairs: a baseline row missing from the run fails as a vanished
phase, and a run row missing from the baseline fails as an ungated one
(add the row to the baseline file).

Per (instance, algorithm) pair present in both files the script flags a
regression when the current seconds exceed baseline * (1 + tolerance),
after normalizing for machine speed: raw ratios are divided by the median
current/baseline ratio across all timed pairs, so a uniformly slower CI
runner does not fail the gate while a single algorithm regressing
relative to the others does. The normalization factor is clamped to
[1/max-machine-factor, max-machine-factor] so a slowdown shared by all
timed pairs still fails once it exceeds tolerance * max-machine-factor.
Pairs whose baseline time is below --min-seconds are skipped (timer
noise). With --check-revenues, lps_solved must match the baseline
exactly and revenues must match within --revenue-rtol (default 1e-9 —
tight enough to flag any alternate-vertex or algorithmic drift, loose
enough for last-ulp libm differences across machines; repeated CURRENT
runs are still compared bit-for-bit against each other).

The bench binaries stamp every record with the machine's hardware_concurrency.
When the baseline's stamps and the run's differ (older baselines carry
none), the script prints both; this is informational and never fails the
gate.

Exit status: 0 clean, 1 regression(s), 2 usage/IO error.
"""

import argparse
import json
import statistics
import sys


def load(path):
    try:
        with open(path) as f:
            records = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    for r in records:
        # Negative seconds (e.g. a wall-minus-probe-delta phase that went
        # below zero before the benches clamped) poison the median
        # machine-speed normalization; refuse the file outright.
        if not (r["seconds"] >= 0.0):
            print(f"error: {path} record ({r['instance']!r},"
                  f" {r['algorithm']!r}) has invalid seconds"
                  f" {r['seconds']!r} (negative or NaN)", file=sys.stderr)
            sys.exit(2)
    return {(r["instance"], r["algorithm"]): r for r in records}


def hardware_concurrency(records):
    """The distinct hardware_concurrency stamps of `records`, as text."""
    return ", ".join(sorted({str(r.get("hardware_concurrency", "unrecorded"))
                             for r in records}))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current", nargs="+")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional slowdown (default 0.25)")
    parser.add_argument("--min-seconds", type=float, default=0.005,
                        help="skip pairs with baseline below this (noise)")
    parser.add_argument("--check-revenues", action="store_true",
                        help="also require bit-identical revenues/lps_solved")
    parser.add_argument("--max-machine-factor", type=float, default=3.0,
                        help="cap on the machine-speed normalization factor; "
                             "slowdowns beyond tolerance * this always fail")
    parser.add_argument("--revenue-rtol", type=float, default=1e-9,
                        help="relative tolerance for baseline revenue "
                             "comparison (cross-machine libm last-ulp drift; "
                             "repeated runs on one machine must still match "
                             "bit-for-bit)")
    args = parser.parse_args()

    baseline = load(args.baseline)
    runs = [load(path) for path in args.current]
    baseline_hw = hardware_concurrency(baseline.values())
    run_hw = hardware_concurrency(r for run in runs for r in run.values())
    if baseline_hw != run_hw:
        print(f"note: hardware_concurrency differs: baseline {baseline_hw},"
              f" run {run_hw} (informational, not gated)")
    current = runs[0]
    for extra in runs[1:]:
        for key, record in extra.items():
            if key not in current:
                current[key] = record
                continue
            if record["revenue"] != current[key]["revenue"]:
                print(f"error: revenue differs between runs for {key}"
                      f" ({record['revenue']!r} vs"
                      f" {current[key]['revenue']!r}) — nondeterminism",
                      file=sys.stderr)
                sys.exit(1)
            current[key] = dict(current[key],
                                seconds=min(current[key]["seconds"],
                                            record["seconds"]))
    shared = sorted(set(baseline) & set(current))
    if not shared:
        print("error: no overlapping (instance, algorithm) records",
              file=sys.stderr)
        sys.exit(2)
    missing = sorted(set(baseline) - set(current))
    if missing:
        # A vanished record is a regression of its own (dropped algorithm,
        # renamed instance, skipped workload) — never let it pass silently.
        for key in missing:
            print(f"{key[0]:>12} {key[1]:>9}: present in baseline, missing "
                  "from current run  <-- MISSING")
        print(f"error: {len(missing)} baseline record(s) missing",
              file=sys.stderr)
        sys.exit(1)
    unbaselined = sorted(set(current) - set(baseline))
    if unbaselined:
        # The mirror failure: a bench emitting a record with no baseline
        # row means a new phase shipped ungated. Fail with the fix spelled
        # out instead of silently skipping (or KeyError-ing) the row.
        for key in unbaselined:
            print(f"{key[0]:>12} {key[1]:>9}: produced by the current run but "
                  "absent from the baseline  <-- UNBASELINED")
        print(f"error: {len(unbaselined)} current record(s) have no baseline"
              f" row; add them to {args.baseline} (seconds from a trusted"
              " machine, revenues/lps bit-exact from the run)",
              file=sys.stderr)
        sys.exit(1)

    timed = [k for k in shared if baseline[k]["seconds"] >= args.min_seconds]
    ratios = {k: current[k]["seconds"] / baseline[k]["seconds"] for k in timed}
    # Machine-speed normalization: a uniformly faster/slower runner shifts
    # every ratio by the same factor; the median estimates that factor.
    # Clamped to --max-machine-factor so a uniform slowdown of the timed
    # pairs (which are mostly the LP pipeline this gate protects) cannot
    # normalize itself away entirely.
    scale = statistics.median(ratios.values()) if ratios else 1.0
    if scale <= 0:
        scale = 1.0
    scale = min(max(scale, 1.0 / args.max_machine_factor),
                args.max_machine_factor)

    failures = []
    for key in timed:
        normalized = ratios[key] / scale
        marker = ""
        if normalized > 1.0 + args.tolerance:
            failures.append(key)
            marker = "  <-- REGRESSION"
        print(f"{key[0]:>12} {key[1]:>9}: baseline {baseline[key]['seconds']:.4f}s"
              f" current {current[key]['seconds']:.4f}s"
              f" normalized x{normalized:.2f}{marker}")

    if args.check_revenues:
        for key in shared:
            b, c = baseline[key], current[key]
            rev_drift = abs(c["revenue"] - b["revenue"]) > (
                args.revenue_rtol * (1.0 + abs(b["revenue"])))
            if rev_drift or b["lps_solved"] != c["lps_solved"]:
                failures.append(key)
                print(f"{key[0]:>12} {key[1]:>9}: revenue/lps mismatch"
                      f" (baseline {b['revenue']!r}/{b['lps_solved']},"
                      f" current {c['revenue']!r}/{c['lps_solved']})"
                      "  <-- MISMATCH")

    print(f"checked {len(timed)} timed pairs (median machine-speed ratio"
          f" x{scale:.2f}), {len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
