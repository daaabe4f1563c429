#!/usr/bin/env python3
"""Builds and runs the MISO end-to-end benchmark (see README.md here).

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
      Builds the driver in Release under .bench_build/ (first run only),
      runs one workload, and relays its output: one `workload metric value
      unit` line per metric, then one JSON result line. The exit code is
      the driver's (non-zero on any failed correctness check).

  python3 perfbench/run.py --quick
      Smoke test: every workload with tiny sizes, untraced and traced.
      Fails if a run is incorrect or if the metric names it prints differ
      from the ones BENCHMARK.json lists.

  python3 perfbench/run.py --compare PARENT CHANGE [--pairs 10] [--seconds S]
                           [--workload NAME ...]
      Runs alternating parent/change pairs (PARENT and CHANGE are
      checkout roots; each runs its own benchmark) and prints, per
      workload and end-to-end metric, each side's median and quartiles,
      how many pairs the change won, and the verdict against the metric's
      bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench-release")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "trace")  # written by the driver
DRIVER = os.path.join(BUILD_DIR, "miso_bench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log("no CMakeLists.txt at %s: not a MISO source checkout" % ROOT)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "miso_bench",
                  "-j", jobs])
    for cmd in steps:
        try:
            result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                    timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build step failed: %s" % e)
            return False
        if result.returncode != 0:
            log("build step failed: %s" % " ".join(cmd))
            return False
    return True


def run_driver(args, capture):
    """Runs the driver; returns (exit code, stdout or None)."""
    cmd = [DRIVER] + args
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                                stdout=subprocess.PIPE if capture else None,
                                text=True, check=False)
    except subprocess.TimeoutExpired:
        log("driver exceeded %d s and was killed" % RUN_TIMEOUT_S)
        return 1, None
    return result.returncode, result.stdout


def last_json(stdout):
    lines = [l for l in (stdout or "").splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def quick():
    """Tiny runs of every workload; checks correctness and metric names."""
    spec = load_spec(ROOT)
    expected = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, out = run_driver(["--workload", workload, "--seconds", "0.3",
                                    "--trace", str(trace), "--quick"], True)
            sys.stdout.write(out or "")
            result = last_json(out)
            problems = []
            if code != 0 or result is None or not result.get("correct"):
                problems.append("run failed (exit %d)" % code)
            elif result.get("failed") != 0:
                problems.append("%s operations failed" % result["failed"])
            else:
                names = list(result["metrics"])
                missing = sorted(set(expected[trace]) - set(names))
                extra = sorted(set(names) - set(expected[trace]))
                if missing:
                    problems.append("missing metrics: " + ", ".join(missing))
                if extra:
                    problems.append("metrics not in BENCHMARK.json: " +
                                    ", ".join(extra))
            if trace == 1 and not problems:
                for suffix in (".spans.jsonl", ".layers.json"):
                    path = os.path.join(TRACE_DIR, workload + suffix)
                    if not os.path.isfile(path):
                        problems.append("no trace file " + path)
            for p in problems:
                log("%s trace=%d: %s" % (workload, trace, p))
            ok = ok and not problems
    log("quick: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(parent, change, pairs, seconds, workloads):
    """Alternating parent/change pairs; per-metric medians, wins, verdict."""
    spec = load_spec(change)
    metrics = spec["end_to_end"]
    if not workloads:
        workloads = [w["name"] for w in spec["workloads"]]
    if seconds is None:
        seconds = spec["run_seconds"]
    sides = {"parent": parent, "change": change}
    values = {(s, w, m["name"]): [] for s in sides for w in workloads
              for m in metrics}
    wins = {(w, m["name"]): 0 for w in workloads for m in metrics}
    for i in range(pairs):
        seed = 1000 + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            got = {}
            for side in order:
                cmd = [sys.executable, os.path.join("perfbench", "run.py"),
                       "--workload", w, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0"]
                try:
                    r = subprocess.run(cmd, cwd=sides[side],
                                       stdout=subprocess.PIPE, text=True,
                                       timeout=RUN_TIMEOUT_S + BUILD_TIMEOUT_S,
                                       check=False)
                    result = last_json(r.stdout) if r.returncode == 0 else None
                except subprocess.TimeoutExpired:
                    result = None
                if result is None or not result.get("correct"):
                    log("pair %d %s %s: run failed" % (i, side, w))
                    return 1
                got[side] = result["metrics"]
            for m in metrics:
                a = got["parent"][m["name"]]["value"]
                b = got["change"][m["name"]]["value"]
                values[("parent", w, m["name"])].append(a)
                values[("change", w, m["name"])].append(b)
                better = b < a if m["better"] == "lower" else b > a
                wins[(w, m["name"])] += 1 if better else 0
            log("pair %d/%d %s done" % (i + 1, pairs, w))
    print("workload metric parent_q1 parent_median parent_q3 "
          "change_q1 change_median change_q3 change_wins verdict")
    for w in workloads:
        for m in metrics:
            name = m["name"]
            pa = values[("parent", w, name)]
            ch = values[("change", w, name)]
            p1, p2, p3 = quartiles(pa)
            c1, c2, c3 = quartiles(ch)
            worse = (c2 - p2) / p2 if m["better"] == "lower" else (p2 - c2) / p2
            spread = (p3 - p1) / p2 if p2 else float("inf")
            if worse <= m["bound"]:
                verdict = "ok"
            elif spread > m["bound"] and not all(
                    (c < min(pa)) if m["better"] == "lower" else (c > max(pa))
                    for c in ch):
                verdict = "unresolved"
            else:
                verdict = "REGRESSION"
            print("%s %s %.6g %.6g %.6g %.6g %.6g %.6g %d/%d %s" % (
                w, name, p1, p2, p3, c1, c2, c3, wins[(w, name)], pairs,
                verdict))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", default=[])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args()

    if args.compare:
        return compare(os.path.abspath(args.compare[0]),
                       os.path.abspath(args.compare[1]), args.pairs,
                       args.seconds, args.workload)
    if not build():
        return 1
    if args.quick:
        return quick()
    if len(args.workload) != 1:
        p.error("exactly one --workload is required")
    seconds = args.seconds
    if seconds is None:
        seconds = load_spec(ROOT)["run_seconds"]
    code, _ = run_driver(["--workload", args.workload[0],
                          "--seed", str(args.seed), "--seconds", str(seconds),
                          "--trace", args.trace], False)
    return code


if __name__ == "__main__":
    sys.exit(main())
