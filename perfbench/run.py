#!/usr/bin/env python3
"""The repository benchmark: build perfbench from source, run one workload.

One run (what BENCHMARK.json's command does), from the repository root:

    python3 perfbench/run.py --workload live_fig07 --seed 1 --seconds 15 --trace 0

builds the simulator and perfbench/perfbench.cc into .bench_build/, runs the
workload and prints its metrics; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. --trace 1 prints the per-layer
metrics instead and writes the spans to .bench_build/perfbench-work/.

Steadiness check (two sets of runs of the same build, alternating order):

    python3 perfbench/run.py steadiness --seeds 1,2,3,4,5 [--workloads a,b]
        [--seconds N] [--threads-check]

prints, per (workload, end-to-end metric), each set's median and quartiles,
the spread of each set, whether the sets agree within the metric's bound, a
flag for a drift in one direction across all workloads, and whether every
sim_* metric repeated exactly. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD_DIR, "perfbench")

WORKLOADS = ["live_fig07", "replay_sweep", "ir_kernels", "farm_faulted"]
DEFAULT_SEED = 1
DEFAULT_SECONDS = 15


def log(msg):
    print("[run.py] " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j4", "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run_binary(workload, seed, seconds, trace, host_threads=None, echo=True):
    """Runs one workload; returns (exit code, parsed result or None)."""
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BINARY, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%d" % seconds, "--trace=%d" % trace, "--work_dir=" + WORK_DIR]
    if host_threads is not None:
        cmd.append("--host_threads=%d" % host_threads)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    workloads = WORKLOADS if args.workloads == "all" else args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = args.seconds or spec["run_seconds"]

    # values[set][workload][metric] -> list over seeds; sims[set][(w, seed)]
    values = {s: {w: {m: [] for m in e2e} for w in workloads} for s in "AB"}
    sims = {"A": {}, "B": {}}
    failures = []
    for i, seed in enumerate(seeds):
        for which in ("AB" if i % 2 == 0 else "BA"):
            for w in workloads:
                log("set %s seed %d %s" % (which, seed, w))
                rc, res = run_binary(w, seed, seconds, 0, echo=False)
                if rc != 0 or res is None or not res["correct"]:
                    failures.append("set %s seed %d %s: rc=%d result=%s" % (which, seed, w, rc, res))
                    continue
                for m in e2e:
                    values[which][w][m].append(res["metrics"][m]["value"])
                sims[which][(w, seed)] = {m: v["value"] for m, v in res["metrics"].items()
                                          if m.startswith("sim_")}

    print("%-14s %-28s %-30s %-30s %8s %8s %8s %s" % (
        "workload", "metric", "set A median [q1, q3]", "set B median [q1, q3]",
        "spreadA", "spreadB", "delta", "verdict"))
    ok = not failures
    deltas = {m: [] for m in e2e}
    for w in workloads:
        for m, info in e2e.items():
            a, b = values["A"][w][m], values["B"][w][m]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            bound = info["bound"]
            spread_a = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
            spread_b = (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0
            delta = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            verdict = []
            if abs(delta) > bound:
                verdict.append("DISAGREE")
            if m != "setup_s" and max(spread_a, spread_b) > bound:
                verdict.append("SPREAD>bound")
            ok = ok and not verdict
            if m != "setup_s" and bound / 3 < max(spread_a, spread_b) <= bound:
                verdict.append("(spread>bound/3)")
            deltas[m].append((delta, max(spread_a, spread_b)))
            print("%-14s %-28s %-30s %-30s %8.4f %8.4f %+8.4f %s" % (
                w, m, "%.6g [%.6g, %.6g]" % (qa[1], qa[0], qa[2]),
                "%.6g [%.6g, %.6g]" % (qb[1], qb[0], qb[2]),
                spread_a, spread_b, delta, " ".join(verdict) or "ok"))

    # A drift: every workload moved the same way, each by more than 1% and
    # by more than half the wider set's spread, so seed-to-seed noise does
    # not explain it. Same-code drift from a host that got slower or faster
    # shows up like this.
    for m, ds in deltas.items():
        moved = [d for d, sp in ds if abs(d) > max(0.01, 0.5 * sp)]
        if len(ds) >= 2 and len(moved) == len(ds) and (
                all(d > 0 for d in moved) or all(d < 0 for d in moved)):
            print("DRIFT: %s moved %s on every workload: %s" % (
                m, "up" if moved[0] > 0 else "down", ", ".join("%+.4f" % d for d in moved)))
            ok = False

    mismatched = [k for k in sims["A"] if k in sims["B"] and sims["A"][k] != sims["B"][k]]
    for w, seed in mismatched:
        print("SIM MISMATCH: %s seed %d: %s vs %s" % (w, seed, sims["A"][(w, seed)],
                                                      sims["B"][(w, seed)]))
    print("sim_* repeated exactly across sets: %s (%d workload/seed pairs)" % (
        "yes" if not mismatched else "NO", len(sims["A"])))
    ok = ok and not mismatched

    if args.threads_check:
        for w in workloads:
            seed = seeds[0]
            log("host threads 1, seed %d %s" % (seed, w))
            rc, res = run_binary(w, seed, 1, 0, host_threads=1, echo=False)
            one = {m: v["value"] for m, v in res["metrics"].items()
                   if m.startswith("sim_")} if res else None
            same = (rc == 0 and res is not None and res["correct"]
                    and one == sims["A"].get((w, seed)))
            print("sim_* at 1 host thread vs default on %s seed %d: %s" % (
                w, seed, "identical" if same else "DIFFERENT"))
            ok = ok and same

    for f in failures:
        print("RUN FAILED: " + f)
    print("steadiness: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "steadiness":
        p = argparse.ArgumentParser(prog="run.py steadiness")
        p.add_argument("--workloads", default="all")
        p.add_argument("--seeds", default="1,2,3,4,5")
        p.add_argument("--seconds", type=int, default=0,
                       help="measured seconds per run (default: BENCHMARK.json run_seconds)")
        p.add_argument("--threads-check", action="store_true",
                       help="also compare sim_* at 1 host thread")
        args = p.parse_args(sys.argv[2:])
        if not build():
            return 1
        return steadiness(args)

    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if not build():
        return 1
    rc, result = run_binary(args.workload, args.seed, args.seconds, args.trace)
    if rc != 0:
        log("perfbench exited with %d" % rc)
        return rc
    if result is None:
        log("perfbench printed no result")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
