#!/usr/bin/env python3
"""Record the Table III digest of the repro workload per seed.

    python3 perfbench/record_digests.py [--seeds 0-63,1009]

Runs one timed round of repro per seed and rewrites
perfbench/digests.txt ("repro <seed> <fnv64>" per line).  A repro run
on a recorded seed then checks its Table III against the committed
program's, not only against its own earlier rounds.  Re-record only
when a change is meant to alter Table III.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from steadiness import seeds_of  # noqa: E402


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", default="0-63,1009")
    args = p.parse_args()
    lines = []
    for seed in seeds_of(args.seeds):
        r = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "repro",
             "--seed", str(seed), "--seconds", "0.01", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        detail = json.loads(r.stdout.strip().splitlines()[-2])["detail"]
        lines.append(f"repro {seed} {detail['extra']['table3_digest']}")
        print(lines[-1], flush=True)
    with open(os.path.join(HERE, "digests.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
