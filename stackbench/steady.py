#!/usr/bin/env python3
"""Steadiness mode: run one workload K times (one seed each) and print each
metric's median, quartiles and spread (interquartile range over median)
against the bound in BENCHMARK.json. With --sets 2 the same seeds run twice
and the change of each median between the sets is checked against its bound,
which is how two sets of runs of the same code are shown to agree.

Run from the repository root:

    python3 stackbench/steady.py --workload fs-meta --runs 10 --sets 2
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"run failed ({out.returncode}): {' '.join(cmd)}\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    seeds = range(args.seed_base, args.seed_base + args.runs)

    sets = []
    for s in range(args.sets):
        runs = []
        for seed in seeds:
            runs.append(run_once(spec, args.workload, seed, seconds, args.trace))
            print(f"set {s + 1} seed {seed} done", file=sys.stderr)
        sets.append(runs)

    ok = True
    print(f"{args.workload}: {args.runs} runs x {args.sets} set(s), {seconds} s each")
    print(f"{'metric':<34} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for m in metrics:
        name, bound = m["name"], m.get("bound")
        meds = []
        for s, runs in enumerate(sets):
            med, q1, q3, spread = summarize([r[name] for r in runs])
            meds.append(med)
            flag = ""
            if bound is not None and spread > bound:
                flag, ok = "  SPREAD>BOUND", False
            elif bound is not None and spread > bound / 3:
                flag = "  (over a third of bound)"
            b = f"{bound:.2f}" if bound is not None else "-"
            print(f"{name:<34} {s + 1:>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.3f} {b:>6}{flag}")
        if len(meds) == 2 and bound is not None and meds[0]:
            worse = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                worse = -worse
            verdict = "ok" if worse <= bound else "WORSE THAN BOUND"
            if worse > bound:
                ok = False
            print(f"{'':<34} shift of set 2 against set 1: {worse:+.3f} ({verdict})")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
