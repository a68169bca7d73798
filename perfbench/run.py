#!/usr/bin/env python3
"""Build and run the wfde benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (release profile, build directory
.bench_build, dune cache off so nothing is read or written outside the
checkout), then runs it with the same arguments. The benchmark's last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --workload all every workload runs
in turn, in its own process, and a summary table follows.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ["shm-worlds", "msg-worlds", "check-dpor"]
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse(argv):
    opts = {"--workload": None, "--seed": None, "--seconds": None, "--trace": "0"}
    i = 0
    while i < len(argv):
        key = argv[i]
        if key not in opts or i + 1 >= len(argv):
            fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
        opts[key] = argv[i + 1]
        i += 2
    if opts["--workload"] not in WORKLOADS + ["all"]:
        fail("--workload must be one of %s or all" % ", ".join(WORKLOADS))
    for key in ("--seed", "--seconds"):
        try:
            int(opts[key])
        except (TypeError, ValueError):
            fail("%s needs a whole number" % key)
    if opts["--trace"] not in ("0", "1"):
        fail("--trace must be 0 or 1")
    return opts


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("run from the root of a wfde checkout (%s is missing)" % needed)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        fail("dune is not installed")
    if done.returncode != 0:
        fail("build failed", 1)


def run_one(workload, opts):
    cmd = [EXE, "--workload", workload, "--seed", opts["--seed"],
           "--seconds", opts["--seconds"], "--trace", opts["--trace"]]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 1)
    if proc.returncode != 0:
        fail("%s exited with code %d" % (workload, proc.returncode), 1)
    return out


def main():
    opts = parse(sys.argv[1:])
    build()
    if opts["--workload"] != "all":
        sys.stdout.write(run_one(opts["--workload"], opts))
        return
    results = {}
    for workload in WORKLOADS:
        out = run_one(workload, opts)
        sys.stdout.write(out)
        results[workload] = json.loads(out.strip().splitlines()[-1])
    print("\n%-12s %10s %8s  %s" % ("workload", "attempted", "failed", "correct"))
    for workload, r in results.items():
        print("%-12s %10d %8d  %s" % (workload, r["attempted"], r["failed"], r["correct"]))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))


if __name__ == "__main__":
    main()
