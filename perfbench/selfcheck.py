#!/usr/bin/env python3
"""Benchmark self-checks.

    python3 perfbench/selfcheck.py [--seed 1] [--held-out 1009] [--seconds 2]

1. BENCHMARK.json lists exactly the per-layer metrics main.exe reports.
2. Exact counts: every workload runs twice (traced) at --seed; every
   per-layer count and every first-round Rtr_obs counter delta must
   match bit for bit.
3. Held-out seed: every workload runs at --held-out, a seed not used
   while the benchmark or a change was written, and must report the
   same metric names, correct.
4. Isolation: in a directory holding only BENCHMARK.json and the
   benchmark's files, run.py must fail without printing a result.

Exits 1 if any check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = os.path.basename(HERE)
WORKLOADS = ("repro", "flows", "rmap", "resume")
failures = []


def fail(msg):
    failures.append(msg)
    print("FAIL " + msg, flush=True)


def run(workload, seed, seconds, trace, cwd=ROOT):
    r = subprocess.run(
        [sys.executable, os.path.join(NAME, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return r


def detail_and_result(r):
    lines = r.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def check_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer"]
    exe = os.path.join(ROOT, "_build", "default", NAME, "main.exe")
    out = subprocess.run([exe, "--list-metrics"], capture_output=True,
                         text=True, check=True).stdout
    if json.loads(out) != listed:
        fail("BENCHMARK.json per_layer differs from main.exe --list-metrics")
    else:
        print(f"ok   catalogue: {len(listed)} per-layer metrics")


def check_counts(seed, seconds):
    for w in WORKLOADS:
        runs = [detail_and_result(run(w, seed, seconds, 1))[0] for _ in range(2)]
        a, b = runs
        for key in ("counts", "counters"):
            if a[key] != b[key]:
                diff = sorted(k for k in set(a[key]) | set(b[key])
                              if a[key].get(k) != b[key].get(k))
                fail(f"{w}: {key} differ between two runs at seed {seed}: {diff}")
                break
        else:
            print(f"ok   {w}: {len(a['counts'])} counts and "
                  f"{len(a['counters'])} counter deltas repeat exactly")


def check_held_out(dev, held, seconds):
    for w in WORKLOADS:
        for trace in (0, 1):
            names = []
            for seed in (dev, held):
                _, result = detail_and_result(run(w, seed, seconds, trace))
                if not result["correct"] or result["failed"]:
                    fail(f"{w}: seed {seed} trace {trace}: outputs incorrect")
                names.append(sorted(result["metrics"]))
            if names[0] != names[1]:
                fail(f"{w}: trace {trace}: held-out seed {held} reports "
                     f"other metrics than seed {dev}")
        print(f"ok   {w}: held-out seed {held} reports the same metrics, correct")


def check_isolated():
    iso = os.path.join(HERE, "_work", "isolated")
    shutil.rmtree(iso, ignore_errors=True)
    os.makedirs(iso)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), iso)
    shutil.copytree(HERE, os.path.join(iso, NAME),
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    r = run("repro", 1, 1, 0, cwd=iso)
    shutil.rmtree(iso, ignore_errors=True)
    printed_result = any(l.startswith('{"correct"') for l in r.stdout.splitlines())
    if r.returncode == 0 or printed_result:
        fail("isolated copy: run.py did not fail cleanly")
    else:
        print(f"ok   isolated copy fails with exit {r.returncode}, no result")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--held-out", type=int, default=1009)
    p.add_argument("--seconds", type=float, default=2)
    args = p.parse_args()
    check_isolated()
    subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--help"],
                   cwd=ROOT, capture_output=True)
    run("repro", args.seed, 0.01, 0)  # builds main.exe
    check_catalogue()
    check_counts(args.seed, args.seconds)
    check_held_out(args.seed, args.held_out, args.seconds)
    if failures:
        sys.exit(1)


if __name__ == "__main__":
    main()
