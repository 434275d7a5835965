#!/usr/bin/env python3
"""Build the benchmark from source, run one workload, print the result.

    python3 perfbench/run.py --workload repro --seed 1 --seconds 10 --trace 0

Run from the repository root.  The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  The line before it, {"detail": ...}, carries
everything else the run measured (raw figures, counts, self times).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = os.path.basename(HERE)
WORKLOADS = ("repro", "flows", "rmap", "resume")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no dune project with lib/ around the benchmark; nothing to build")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, f"{NAME}/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}", 1)
    if r.returncode != 0:
        die(f"build failed (dune exit {r.returncode})", 1)
    return os.path.join(ROOT, "_build", "default", NAME, "main.exe")


def run(exe, args):
    """Run the benchmark executable; return (detail, peak RSS in MB)."""
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)

    def on_alarm(_sig, _frame):
        proc.kill()
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_TIMEOUT_S)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    signal.alarm(0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        die(f"{args.workload} run failed (exit {proc.returncode})", 1)
    lines = out.decode().strip().splitlines()
    if not lines:
        die(f"{args.workload} run printed nothing", 1)
    # ru_maxrss is in KiB on Linux.
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")
    exe = build()
    t0 = time.monotonic()
    detail, rss_mb = run(exe, args)
    detail["peak_rss_mb"] = rss_mb
    detail["process_wall_s"] = time.monotonic() - t0
    if args.trace:
        metrics = detail["per_layer"]
    else:
        metrics = dict(detail["e2e"],
                       peak_rss_mb={"value": rss_mb, "unit": "MB"})
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": detail["correct"],
                      "attempted": detail["attempted"],
                      "failed": detail["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
