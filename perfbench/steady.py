#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one build, compared metric by metric.

    python3 perfbench/steady.py

Builds once (through perfbench/run.py), then for each set and each
workload of BENCHMARK.json runs the benchmark ten times, each with
another seed (set 1 uses seeds 1 .. 10, set 2 seeds 11 .. 20).
Before every run it times a fixed compute loop that does not touch the
program, so a drift in host speed can be told apart from a change in
the program. For every workload and end-to-end metric it prints each
set's median and quartiles, the spread (quartile distance over median),
and the difference between the two set medians as a share of the first,
each against the metric's bound in BENCHMARK.json, whichever way the
medians moved ("loose" marks a spread within the bound but above a
third of it); plus the share of failed operations per set, which must
be identical. setup_s is held to the same tests as every other metric.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def calibration_loop():
    """Seconds taken by a fixed integer loop, independent of the program."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(3_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def run(bench, workload, seed):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    if len(sys.argv) > 1:
        sys.exit("usage: steady.py")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    # build once, outside the timed sets
    subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--workload",
                    names[0], "--seed", "0", "--seconds", "1", "--trace", "0"],
                   cwd=ROOT, capture_output=True, check=True)
    sets = []
    for s in range(2):
        results = {w: [] for w in names}
        for w in names:
            for r in range(RUNS):
                seed = 1 + s * RUNS + r
                calib = calibration_loop()
                res = run(bench, w, seed)
                res["calibration_s"] = calib
                res["seed"] = seed
                results[w].append(res)
                print("set %d %-11s seed %4d  calib %.3fs  correct %s  failed %d/%d" % (
                    s + 1, w, seed, calib, res["correct"], res["failed"], res["attempted"]),
                    file=sys.stderr, flush=True)
        sets.append(results)
    ok = True
    for w in names:
        print("\n== %s" % w)
        print("%-13s %5s | %11s %11s %11s %7s | %11s %11s %11s %7s | %7s %6s" % (
            "metric", "bound", "s1 q1", "s1 median", "s1 q3", "spread",
            "s2 q1", "s2 median", "s2 q3", "spread", "diff", "ok"))
        for name, m in bounds.items():
            stats = []
            for results in sets:
                vals = [r["metrics"][name]["value"] for r in results[w]]
                q1, med, q3 = quartiles(vals)
                stats.append((q1, med, q3, (q3 - q1) / med if med else float("inf")))
            diff = (stats[1][1] - stats[0][1]) / stats[0][1]
            good = abs(diff) <= m["bound"] and all(st[3] <= m["bound"] for st in stats)
            ok = ok and good
            # the target while tuning: spreads below a third of the bound
            tight = all(st[3] < m["bound"] / 3 for st in stats)
            print("%-13s %5.2f | %11.5g %11.5g %11.5g %6.1f%% | %11.5g %11.5g %11.5g %6.1f%% | %6.1f%% %6s" % (
                name, m["bound"], *stats[0][:3], 100 * stats[0][3], *stats[1][:3],
                100 * stats[1][3], 100 * diff,
                ("yes" if tight else "loose") if good else "NO"))
        shares = ["%d/%d" % (sum(r["failed"] for r in results[w]),
                             sum(r["attempted"] for r in results[w])) for results in sets]
        same = len({sum(r["failed"] for r in res[w]) / sum(r["attempted"] for r in res[w])
                    for res in sets}) == 1
        ok = ok and same and all(r["correct"] for res in sets for r in res[w])
        calib = [statistics.median(r["calibration_s"] for r in res[w]) for res in sets]
        print("failed share: set 1 %s, set 2 %s (%s)" % (shares[0], shares[1],
                                                        "identical" if same else "DIFFERENT"))
        print("calibration loop median: set 1 %.4fs, set 2 %.4fs (%+.1f%%)" % (
            calib[0], calib[1], 100 * (calib[1] - calib[0]) / calib[0]))
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
