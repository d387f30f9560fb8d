#!/usr/bin/env python3
"""Whole-stack benchmark: builds benchmark/ against the repo's src/, runs the
workloads declared in BENCHMARK.json and prints every metric by name and
unit. See benchmark/README.md.

  run.py --workload W [--seed N] [--seconds S] [--trace 0|1]
      One repetition of one workload. The last stdout line is
      {"correct", "attempted", "failed", "metrics"}: the end-to-end
      metrics with --trace 0, the per-layer metrics with --trace 1.
  run.py [--seed N] [--seconds S] [--trace]
      5 repetitions per workload, round-robin, seed N+r for repetition r;
      writes benchmark/out/RESULT.json. --trace adds one traced repetition
      per workload (benchmark/out/TRACE_<workload>.json).
  run.py --compare A B
      A/B comparison of two trees (a directory, "." for this checkout, or
      a git revision) running the same benchmark code, in 10 pairs; exits
      non-zero on a bounded regression, a changed simulated-clock metric or
      a higher failed-op share.
  run.py --smoke
      Every workload at 1/50 size, traced and untraced; checks the emitted
      metric names against BENCHMARK.json and every correctness gate.
  run.py --trace-summary
      Self time per span name and the fig7_bitwire "where the simulated
      time goes" table, from benchmark/out/TRACE_*.json.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
RUN_TIMEOUT_S = 170
REPS = 5    # repetitions per workload in a suite run
PAIRS = 10  # A/B pairs in a comparison


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        fail(f"missing {path}")
    with open(path) as f:
        return json.load(f)


def on_sim_clock(metric):
    """A metric on the simulated clock (unit sim_ms, 1/sim_s) is a pure
    function of (code, seed, seconds): any change to it is a model change."""
    return "sim_" in metric["unit"]


# --- build -------------------------------------------------------------------


def build(source_root, build_dir):
    """Configures (once) and builds tb_perf against source_root/src."""
    if not os.path.exists(os.path.join(source_root, "src", "CMakeLists.txt")):
        fail(f"no tuplebus sources under {source_root}/src")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    # The compiler's scratch files stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                          f"-DTB_SOURCE_DIR={os.path.abspath(source_root)}"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", build_dir, "--target", "tb_perf",
                      "-j", jobs])
        with open(log_path, "a") as log:
            for step in steps:
                if subprocess.run(step, stdout=log, stderr=log,
                                  env=env).returncode:
                    with open(log_path) as f:
                        sys.stderr.write("".join(f.readlines()[-40:]))
                    fail(f"build failed: {' '.join(step)}")
    return os.path.join(build_dir, "tb_perf")


# --- one run -----------------------------------------------------------------


def run_one(binary, workload, seed, seconds, trace, out_dir, scale=1.0):
    """Runs one repetition; returns its report (None if the process died)."""
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0",
           "--scale", repr(float(scale))]
    env = dict(os.environ, TB_BENCH_OUT=out_dir)
    with open(os.path.join(out_dir, "stdout.log"), "w") as log:
        try:
            proc = subprocess.run(cmd, env=env, stdout=log, stderr=log,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"{workload}: timed out after {RUN_TIMEOUT_S} s",
                  file=sys.stderr)
            return None
    path = os.path.join(out_dir, f"BENCH_perf_{workload}.json")
    if not os.path.exists(path):
        with open(os.path.join(out_dir, "stdout.log")) as f:
            sys.stderr.write(f.read()[-4000:])
        print(f"{workload}: exited {proc.returncode} without a report",
              file=sys.stderr)
        return None
    with open(path) as f:
        report = json.load(f)
    report["returncode"] = proc.returncode
    report["out_dir"] = out_dir
    return report


def metrics_of(report):
    """name -> (value, unit) of every metric the run reported. An untraced
    run reports the end-to-end metrics and the per-layer ones it measures
    without tracing; a traced run reports every per-layer metric."""
    return {m["name"]: (m["value"], m.get("unit", ""))
            for m in report["key_metrics"]}


def names_of(spec, trace):
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def result_line(spec, report, trace):
    """The result line of one run: the last line of its stdout."""
    metrics = metrics_of(report)
    wanted = names_of(spec, trace)
    params = report["params"]
    correct = (report["returncode"] == 0 and bool(params["correct"])
               and all(name in metrics for name in wanted))
    return {
        "correct": correct,
        "attempted": max(1, int(params["ops"])),
        "failed": int(params["ops_failed"]),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted if name in metrics},
    }


def print_metrics(title, rows):
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<42} {value:>16.6g} {unit}")


# --- statistics ----------------------------------------------------------------


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def percentile(samples, p):
    samples = sorted(samples)
    if not samples:
        return 0.0
    rank = p / 100 * (len(samples) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(samples) - 1)
    return samples[lo] + (samples[hi] - samples[lo]) * (rank - lo)


def pooled_sim_latencies(reports):
    """sim.op_p50_ms / sim.op_p99_ms over every repetition's samples."""
    samples = []
    for report in reports:
        path = os.path.join(report["out_dir"],
                            f"SAMPLES_{report['params']['workload']}.json")
        if not os.path.exists(path):
            return {}, 0
        with open(path) as f:
            samples += json.load(f)["op_sim_ms"]
    return {"sim.op_p50_ms": percentile(samples, 50),
            "sim.op_p99_ms": percentile(samples, 99)}, len(samples)


# --- modes -----------------------------------------------------------------------


def single_run_mode(args, spec):
    binary = build(ROOT, os.path.join(HERE, "build"))
    # One directory per (workload, trace): a run replaces the last one's
    # files, so repeated runs do not pile up latency samples on disk.
    out_dir = os.path.join(OUT, "runs", args.workload, f"trace{args.trace}")
    report = run_one(binary, args.workload, args.seed, args.seconds,
                     args.trace, out_dir)
    if report is None:
        fail(f"{args.workload}: no result", 1)
    if args.trace:
        os.replace(os.path.join(out_dir, f"TRACE_{args.workload}.json"),
                   os.path.join(OUT, f"TRACE_{args.workload}.json"))
    line = result_line(spec, report, args.trace)
    print_metrics(f"{args.workload} seed={args.seed} trace={args.trace} "
                  f"ops={line['attempted']} failed={line['failed']} "
                  f"latency_samples={report['params']['latency_samples']}",
                  [(n, v, u) for n, (v, u) in metrics_of(report).items()])
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def suite_mode(args, spec):
    binary = build(ROOT, os.path.join(HERE, "build"))
    workloads = [w["name"] for w in spec["workloads"]]
    reports = {w: [] for w in workloads}
    for r in range(REPS):
        for w in workloads:
            out_dir = os.path.join(OUT, "runs", w, f"r{r}")
            report = run_one(binary, w, args.seed + r, args.seconds, False,
                             out_dir)
            if report is None:
                fail(f"{w} r{r}: no result", 1)
            reports[w].append(report)
            print(f"{w} r{r} seed={args.seed + r}: "
                  f"{'ok' if report['returncode'] == 0 else 'FAILED'}",
                  flush=True)
    result = {"schema": "tb-benchmark-result/v1", "seed": args.seed,
              "reps": REPS, "seconds": args.seconds,
              "host_cpus": os.cpu_count(), "workloads": {}}
    correct = True
    attempted = failed = 0
    for w in workloads:
        runs = reports[w]
        entry = {"ops": sum(int(r["params"]["ops"]) for r in runs),
                 "ops_failed": sum(int(r["params"]["ops_failed"]) for r in runs),
                 "latency_samples": [int(r["params"]["latency_samples"])
                                     for r in runs],
                 "metrics": {}}
        attempted += entry["ops"]
        failed += entry["ops_failed"]
        correct &= all(r["returncode"] == 0 for r in runs)
        # Simulated latencies pool every repetition's samples; everything
        # else is the median over the repetitions.
        pooled, pooled_n = pooled_sim_latencies(runs)
        for name, (_, unit) in metrics_of(runs[0]).items():
            values = [metrics_of(r)[name][0] for r in runs]
            q1, med, q3 = quartiles(values)
            m = {"value": med, "q1": q1, "q3": q3, "n_runs": len(values),
                 "unit": unit}
            if name in pooled:
                m.update(value=pooled[name], pooled_samples=pooled_n)
            entry["metrics"][name] = m
        result["workloads"][w] = entry
        print_metrics(f"{w}: ops={entry['ops']} failed={entry['ops_failed']} "
                      f"latency_samples per run={entry['latency_samples']}"
                      + (f", pooled={pooled_n}" if pooled else ""),
                      [(n, m["value"], m["unit"])
                       for n, m in entry["metrics"].items()])
    if args.trace:
        for w in workloads:
            out_dir = os.path.join(OUT, "runs", w, "traced")
            report = run_one(binary, w, args.seed, args.seconds, True, out_dir)
            if report is None:
                fail(f"{w} traced: no result", 1)
            correct &= report["returncode"] == 0
            os.replace(os.path.join(out_dir, f"TRACE_{w}.json"),
                       os.path.join(OUT, f"TRACE_{w}.json"))
            layer = {n: {"value": v, "unit": u}
                     for n, (v, u) in metrics_of(report).items()}
            result["workloads"][w]["per_layer"] = layer
            print_metrics(f"{w} (traced)",
                          [(n, m["value"], m["unit"]) for n, m in layer.items()])
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "RESULT.json"), "w") as f:
        json.dump(result, f, indent=2)
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed,
                      "result": os.path.relpath(os.path.join(OUT, "RESULT.json"),
                                                ROOT)}))
    return 0 if correct and failed == 0 else 1


def smoke_mode(spec):
    binary = build(ROOT, os.path.join(HERE, "build"))
    start = time.monotonic()
    problems = []
    end_to_end = set(names_of(spec, False))
    per_layer = set(names_of(spec, True))
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (False, True):
            out_dir = os.path.join(OUT, "smoke", f"{w}-t{int(trace)}")
            report = run_one(binary, w, 1, 0.06, trace, out_dir, scale=0.02)
            tag = f"{w} trace={int(trace)}"
            if report is None:
                problems.append(f"{tag}: no report")
                continue
            emitted = set(metrics_of(report))
            # Traced: exactly the per-layer metrics. Untraced: every
            # end-to-end metric, plus per-layer ones only.
            required = per_layer if trace else end_to_end
            allowed = per_layer if trace else end_to_end | per_layer
            if not required <= emitted <= allowed:
                problems.append(f"{tag}: missing {sorted(required - emitted)} "
                                f"undeclared {sorted(emitted - allowed)}")
            if report["returncode"] != 0 or not report["params"]["correct"]:
                problems.append(f"{tag}: gates failed: "
                                f"{report['params']['gate_failures']}")
            print(f"{tag}: ops={report['params']['ops']} "
                  f"failed={report['params']['ops_failed']}", flush=True)
    elapsed = time.monotonic() - start
    print(f"smoke: {elapsed:.1f} s")
    for p in problems:
        print(f"smoke FAILED: {p}")
    return 1 if problems else 0


def self_times(spans):
    """Per span name: (clock, count, total ns, self ns)."""
    covered = {}
    for s in spans:
        if s["parent"]:
            covered.setdefault(s["parent"], []).append(
                (s["start_ns"], s["end_ns"]))
    table = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        child = 0
        cursor = start
        for lo, hi in sorted(covered.get(s["id"], [])):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                child += hi - lo
                cursor = hi
        row = table.setdefault(s["name"], [s["clock"], 0, 0, 0])
        row[1] += 1
        row[2] += end - start
        row[3] += end - start - child
    return table


def trace_summary_mode(spec):
    found = False
    for w in (x["name"] for x in spec["workloads"]):
        path = os.path.join(OUT, f"TRACE_{w}.json")
        if not os.path.exists(path):
            continue
        found = True
        with open(path) as f:
            trace = json.load(f)
        print(f"{w}: {len(trace['spans'])} spans "
              f"({trace['spans_dropped']} dropped after the buffer filled)")
        print(f"  {'span':<20} {'clock':<5} {'count':>9} {'total':>14} "
              f"{'self':>14} {'self/span':>12}")
        for name, (clock, count, total, self_ns) in sorted(
                self_times(trace["spans"]).items()):
            unit, div = ("s", 1e9) if clock == "sim" else ("ms", 1e6)
            print(f"  {name:<20} {clock:<5} {count:>9} "
                  f"{total / div:>12.3f}{unit:>2} {self_ns / div:>12.3f}{unit:>2} "
                  f"{self_ns / count / 1e3:>10.2f}us")
        table = trace["tables"].get("where_sim_time_goes")
        if table:
            print("  where the simulated time goes "
                  "(in-op bus cycle time by responding slave):")
            print("  " + "".join(f"{h:>14}" for h in table["headers"]))
            for row in table["rows"]:
                print("  " + row[0].rjust(14) +
                      "".join(f"{float(c):>14.2f}" for c in row[1:]))
        print()
    if not found:
        fail(f"no TRACE_*.json under {OUT}; run with --trace first", 1)
    return 0


# --- compare -------------------------------------------------------------------


def resolve_tree(ref, label):
    """A source tree for `ref`: a directory, "." or a git revision."""
    if ref == ".":
        return ROOT
    if os.path.isdir(ref):
        return os.path.abspath(ref)
    tree = os.path.join(OUT, "compare", label, "tree")
    if os.path.isdir(tree):
        shutil.rmtree(tree)
    os.makedirs(tree)
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", ref],
                             stdout=subprocess.PIPE)
    if archive.returncode:
        fail(f"cannot resolve {ref!r} as a directory or git revision")
    subprocess.run(["tar", "-x", "-C", tree], input=archive.stdout, check=True)
    return tree


def verdict(metric, a, b):
    """(verdict, is_regression) of B against A for one metric's values."""
    higher = metric["better"] == "higher"
    qa, qb = quartiles(a), quartiles(b)
    delta = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    worse = -delta if higher else delta
    if on_sim_clock(metric):
        # Both sides ran the same seeds, so any change is real: bound 0.
        if a == b:
            return "identical", False
        return ("REGRESSION (simulated)", True) if worse > 0 else (
            "changed (simulated)", False)
    every_better = all((x > y) == higher and x != y for x in b for y in a)
    every_worse = all((x < y) == higher and x != y for x in b for y in a)
    bound = metric.get("bound")
    if bound is None:  # per-layer: reported, never gated
        if every_better:
            return "better in every pair", False
        return ("worse in every pair", False) if every_worse else ("-", False)
    if max(spread(a), spread(b)) > bound:
        if every_better:
            return "improved (every run)", False
        if every_worse:
            return "REGRESSION (every run)", True
        return "unresolved (spread > bound)", False
    if worse > bound:
        return "REGRESSION", True
    return ("improved", False) if -worse > bound else ("within bound", False)


def compare_mode(args, spec):
    sides = []
    for label, ref in (("A", args.compare[0]), ("B", args.compare[1])):
        tree = resolve_tree(ref, label)
        build_dir = (os.path.join(HERE, "build") if tree == ROOT
                     else os.path.join(OUT, "compare", label, "build"))
        sides.append((label, ref, build(tree, build_dir)))
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {(label, w): [] for label, _, _ in sides for w in workloads}
    for pair in range(PAIRS):
        order = sides if pair % 2 == 0 else sides[::-1]
        for w in workloads:
            for label, _, binary in order:
                out_dir = os.path.join(OUT, "compare", label, "runs", w,
                                       f"p{pair}")
                report = run_one(binary, w, args.seed + pair, args.seconds,
                                 False, out_dir)
                if report is None:
                    fail(f"{label} {w} pair {pair}: no result", 1)
                runs[(label, w)].append(report)
        print(f"pair {pair + 1}/{PAIRS} done", flush=True)

    # End-to-end metrics first, with their bounds; then the per-layer ones
    # an untraced run reports.
    metrics = spec["end_to_end"] + spec["per_layer"]

    def values(label, w, name):
        return [metrics_of(r)[name][0] for r in runs[(label, w)]
                if name in metrics_of(r)]

    with open(os.path.join(OUT, "compare", "COMPARE.json"), "w") as f:
        json.dump({"A": args.compare[0], "B": args.compare[1],
                   "seeds": [args.seed + p for p in range(PAIRS)],
                   "host_cpus": os.cpu_count(),
                   "values": {w: {m["name"]: {label: values(label, w, m["name"])
                                              for label in ("A", "B")}
                                  for m in metrics if values("A", w, m["name"])}
                              for w in workloads}}, f, indent=1)
    regressions = []
    print(f"A = {args.compare[0]}   B = {args.compare[1]}   "
          f"pairs = {PAIRS}, seeds {args.seed}..{args.seed + PAIRS - 1}")
    for m in metrics:
        rows = [(w, values("A", w, m["name"]), values("B", w, m["name"]))
                for w in workloads]
        rows = [(w, a, b) for w, a, b in rows if a and len(a) == len(b)]
        if not rows:
            continue
        bound = (f"bound {m['bound'] * 100:g}%" if "bound" in m
                 else "bound 0" if on_sim_clock(m) else "per-layer, no bound")
        print(f"\n{m['name']} [{m['unit']}, {m['better']} is better, {bound}]")
        print(f"  {'workload':<20} {'A median [q1, q3] spread':>44} "
              f"{'B median [q1, q3] spread':>44} {'delta':>8}  verdict")
        for w, a, b in rows:
            qa, qb = quartiles(a), quartiles(b)
            delta = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            text, regressed = verdict(m, a, b)
            if regressed:
                regressions.append(f"{w} {m['name']}")

            def cell(q, vals):
                return (f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}] "
                        f"{spread(vals) * 100:.1f}%")
            print(f"  {w:<20} {cell(qa, a):>44} {cell(qb, b):>44} "
                  f"{delta * 100:>+7.2f}%  {text}")
    print("\nfailed-op share")
    for w in workloads:
        shares = []
        for label in ("A", "B"):
            attempted = sum(int(r["params"]["ops"]) for r in runs[(label, w)])
            failed = sum(int(r["params"]["ops_failed"]) for r in runs[(label, w)])
            shares.append(failed / max(1, attempted))
        print(f"  {w:<20} A {shares[0]:.3g}   B {shares[1]:.3g}")
        if shares[1] > shares[0]:
            regressions.append(f"{w} ops_failed share")
    if regressions:
        print("\nregressions: " + ", ".join(regressions))
        return 1
    print("\nno bounded regression")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured length per run (default: run_seconds "
                             "in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-summary", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.trace_summary:
        return trace_summary_mode(spec)
    if args.smoke:
        return smoke_mode(spec)
    if args.compare:
        return compare_mode(args, spec)
    if args.workload:
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            fail(f"unknown workload {args.workload!r}")
        return single_run_mode(args, spec)
    return suite_mode(args, spec)


if __name__ == "__main__":
    sys.exit(main())
