#!/usr/bin/env python3
"""Steadiness report: run workloads repeatedly and show how much each
end-to-end metric spreads, normalised against host speed and raw.

    python3 perfbench/steadiness.py [--workloads repro,flows] \\
        [--seeds 1-10] [--seconds 10] [--traced-seeds 2]

For each workload it runs one untraced run per seed, then traced runs
on the first --traced-seeds seeds.  It prints, per end-to-end metric,
the median, the quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median, for the normalised figure and for the raw one, and
the bound from BENCHMARK.json.  The last table compares items_per_s of
traced and untraced runs of the same seeds: the tracing overhead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            a, b = part.split("-")
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(part))
    return out


def run(workload, seed, seconds, trace):
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = r.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", default="repro,flows,rmap,resume")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--traced-seeds", type=int, default=2)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seeds_of(args.seeds)
    overhead = []
    ok = True
    for w in args.workloads.split(","):
        rows = {}
        untraced = {}
        for s in seeds:
            detail, result = run(w, s, seconds, 0)
            if not result["correct"]:
                ok = False
                print(f"# {w} seed {s}: INCORRECT: {detail['failures']}")
            untraced[s] = detail
            for name, m in result["metrics"].items():
                rows.setdefault(name, []).append(m["value"])
            for name, v in detail["raw"].items():
                rows.setdefault("raw." + name, []).append(v)
            print(f"# {w} seed {s}: " + ", ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
                flush=True)
        print(f"\n{w}: {len(seeds)} runs of {seconds:g} s, seeds {args.seeds}")
        print(f"  {'metric':<18}{'median':>14}{'Q1':>14}{'Q3':>14}"
              f"{'spread':>9}{'bound':>8}")
        for name, values in rows.items():
            med, q1, q3, sp = spread(values)
            b = bounds.get(name)
            flag = ""
            if b is not None and name != "setup_s" and sp > b / 3:
                flag = "  > bound/3"
            print(f"  {name:<18}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{sp:>9.2%}{'' if b is None else f'{b:.2f}':>8}{flag}")
        for s in seeds[:args.traced_seeds]:
            traced, result = run(w, s, seconds, 1)
            if not result["correct"]:
                ok = False
                print(f"# {w} seed {s} traced: INCORRECT: {traced['failures']}")
            ut = untraced[s]["e2e"]["items_per_s"]["value"]
            tr = traced["e2e"]["items_per_s"]["value"]
            overhead.append((w, s, ut, tr, traced["per_layer"]
                             ["trace.attributed_frac"]["value"]))
        print(flush=True)
    if overhead:
        print("tracing overhead (items_per_s, normalised)")
        print(f"  {'workload':<10}{'seed':>6}{'untraced':>14}{'traced':>14}"
              f"{'overhead':>10}{'attributed':>12}")
        for w, s, ut, tr, att in overhead:
            print(f"  {w:<10}{s:>6}{ut:>14.6g}{tr:>14.6g}{ut / tr - 1:>10.2%}"
                  f"{att:>12.4f}")
    if not ok:
        print("some runs reported correct=false", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
