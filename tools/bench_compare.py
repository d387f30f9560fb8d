#!/usr/bin/env python3
"""Compare two sets of BENCH_*.json reports and fail on regressions.

Usage:
    tools/bench_compare.py OLD_DIR NEW_DIR [--threshold PCT] [--verbose]

OLD_DIR holds the baseline reports (e.g. bench/baselines/), NEW_DIR the
freshly generated ones. Reports follow the tb-bench-report/v1 schema
(src/obs/report.hpp): each declares `key_metrics`, and each key metric
carries

    name            metric identifier, unique within the report
    value           the measured number
    better          "higher" | "lower" — which direction is an improvement
    gate            bool; false = report drift but never fail (wall-clock
                    metrics are machine-dependent)
    tolerance_pct   optional per-metric override of --threshold; 0 means
                    any change fails (used for exact counts / invariants)

Exit status: 0 = no gated regressions, 1 = at least one gated regression
or a structural problem (missing/invalid report). Metrics present in only
one directory (added or removed during a rework) are reported as NOTEs but
never gated — regenerating the baselines is the fix, not a CI failure.
This is what absorbs sweep-axis changes like the space_ops shard sweep
(`BM_WriteTake/index:I/noise:N/shards:S...`) or consumer_scaling's
`shards.makespan_s.*` keys: a bench that grows or renames parameterized
metrics produces NOTEs until its baseline is regenerated, never a FAIL.
"""

import argparse
import json
import sys
from pathlib import Path

SCHEMA = "tb-bench-report/v1"


def load_reports(directory: Path) -> dict:
    """Map report name -> parsed JSON for every BENCH_*.json in directory."""
    reports = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"ERROR: cannot parse {path}: {err}")
            sys.exit(1)
        if data.get("schema") != SCHEMA:
            print(f"ERROR: {path}: schema {data.get('schema')!r}, "
                  f"expected {SCHEMA!r}")
            sys.exit(1)
        reports[data.get("bench", path.stem)] = data
    return reports


def key_metrics(report: dict) -> dict:
    return {m["name"]: m for m in report.get("key_metrics", [])}


def compare_metric(old: dict, new: dict, threshold_pct: float):
    """Return (regression_pct or None, is_gated, note)."""
    old_value = float(old["value"])
    new_value = float(new["value"])
    better = old.get("better", "lower")
    gated = bool(new.get("gate", True)) and bool(old.get("gate", True))
    tolerance = new.get("tolerance_pct", old.get("tolerance_pct"))
    limit = threshold_pct if tolerance is None else float(tolerance)

    if limit == 0.0 and new_value != old_value:
        # Zero tolerance pins an exact value: a move in the "better"
        # direction is a change in simulated behaviour too.
        return float("inf"), gated, "changed (limit 0%: any change fails)"
    if better == "higher":
        worse_by = old_value - new_value
    else:
        worse_by = new_value - old_value
    if worse_by <= 0:
        return None, gated, "ok"
    if old_value == 0.0:
        # Baseline of exactly 0 (e.g. "no failures"): any worsening is an
        # infinite relative change.
        pct = float("inf")
    else:
        pct = 100.0 * worse_by / abs(old_value)
    if pct > limit:
        return pct, gated, f"worse by {pct:.2f}% (limit {limit:g}%)"
    return None, gated, f"within tolerance ({pct:.2f}% <= {limit:g}%)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_dir", type=Path)
    parser.add_argument("new_dir", type=Path)
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="default allowed regression in percent "
                             "(default: %(default)s)")
    parser.add_argument("--verbose", action="store_true",
                        help="print every metric, not just regressions")
    args = parser.parse_args()

    for directory in (args.old_dir, args.new_dir):
        if not directory.is_dir():
            print(f"ERROR: {directory} is not a directory")
            return 1

    old_reports = load_reports(args.old_dir)
    new_reports = load_reports(args.new_dir)
    if not old_reports:
        print(f"ERROR: no BENCH_*.json reports in {args.old_dir}")
        return 1

    failures = 0
    ungated_regressions = 0
    compared = 0
    for name, old_report in sorted(old_reports.items()):
        new_report = new_reports.get(name)
        if new_report is None:
            print(f"FAIL [{name}] report missing from {args.new_dir}")
            failures += 1
            continue
        old_metrics = key_metrics(old_report)
        new_metrics = key_metrics(new_report)
        # Wall-clock numbers from hosts with different core counts are not
        # comparable for the threaded benches (a 1-core runner serializes
        # what a 16-core box runs in parallel): flag the mismatch as a
        # NOTE so drift on this pair is read with suspicion. Never gated —
        # regenerating the baseline on the current host is the fix.
        old_cpus = old_report.get("params", {}).get("host_cpus")
        new_cpus = new_report.get("params", {}).get("host_cpus")
        if (old_cpus is not None and new_cpus is not None
                and old_cpus != new_cpus):
            print(f"NOTE [{name}] baseline recorded on a host with "
                  f"{old_cpus} CPU(s), this run has {new_cpus}: wall-clock "
                  f"comparisons are unreliable (regenerate "
                  f"{args.old_dir} on this host)")
        for metric_name, old_metric in sorted(old_metrics.items()):
            new_metric = new_metrics.get(metric_name)
            if new_metric is None:
                # A metric present in only one directory is a schema change
                # (renamed/retired metric during a rework), not a
                # regression: report it, never gate on it — the baseline
                # regen recipe is the fix.
                print(f"NOTE [{name}] metric {metric_name} only in baseline "
                      f"(removed? regenerate {args.old_dir})")
                continue
            compared += 1
            pct, gated, note = compare_metric(old_metric, new_metric,
                                              args.threshold)
            tag = f"[{name}] {metric_name}: " \
                  f"{old_metric['value']:g} -> {new_metric['value']:g}"
            if pct is not None and gated:
                print(f"FAIL {tag} {note}")
                failures += 1
            elif pct is not None:
                print(f"WARN {tag} {note} (not gated)")
                ungated_regressions += 1
            elif args.verbose:
                print(f"  ok {tag} {note}")
        for metric_name in sorted(set(new_metrics) - set(old_metrics)):
            print(f"NOTE [{name}] new metric {metric_name} has no baseline "
                  f"(add one to {args.old_dir})")
    for name in sorted(set(new_reports) - set(old_reports)):
        print(f"NOTE [{name}] new report with no baseline (add one to "
              f"{args.old_dir})")

    print(f"compared {compared} key metrics across "
          f"{len(old_reports)} reports: "
          f"{failures} gated regression(s), "
          f"{ungated_regressions} ungated drift(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
