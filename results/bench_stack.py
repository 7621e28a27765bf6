#!/usr/bin/env python3
"""Record the stack benchmark's end-to-end numbers in results/BENCH_stack.json.

For each workload this runs stackbench/steady.py (ten runs, seeds 1-10, each
BENCHMARK.json's run_seconds long) and keeps the median, quartiles and sample
count of every end-to-end metric. It then runs seed 1 traced and keeps that
run's per-layer metrics. Each row records the host, the seeds, --seconds and
the commit it measured. Run from the repository root:

    python3 results/bench_stack.py

With --workloads only the named rows are re-measured; the other rows of the
existing file are kept as they are.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "results", "BENCH_stack.json")
RUNS = 10
SEEDS = list(range(1, RUNS + 1))


def sh(cmd):
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)


def host():
    model = "unknown cpu"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{model}, {os.cpu_count()} vCPU"


def commit():
    rev = sh(["git", "rev-parse", "--short", "HEAD"]).stdout.strip() or "unknown"
    dirty = sh(["git", "status", "--porcelain", "--untracked-files=no"]).stdout.strip()
    return rev + ("-dirty" if dirty else "")


def finite(v):
    return v if isinstance(v, (int, float)) and math.isfinite(v) else None


def steady(workload, names, seconds):
    """Median, q1 and q3 per end-to-end metric, parsed from steady.py's table."""
    out = sh([sys.executable, "stackbench/steady.py", "--workload", workload,
              "--runs", str(RUNS), "--seed-base", str(SEEDS[0]),
              "--seconds", str(seconds)])
    stats = {}
    for line in out.stdout.splitlines():
        parts = line.split()
        if len(parts) >= 5 and parts[0] in names and parts[1] == "1":
            stats[parts[0]] = [float(p) for p in parts[2:5]]
    if set(stats) != set(names):
        sys.exit(f"steady.py gave no table for {workload}:\n{out.stdout}\n{out.stderr[-2000:]}")
    if out.returncode != 0:
        print(f"warning: {workload}: a spread is over its bound\n{out.stdout}", file=sys.stderr)
    return stats


def traced(spec, workload, seed, seconds):
    """Per-layer metrics of one `--trace 1` run."""
    out = sh(spec["command"] + ["--workload", workload, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", "1"])
    if out.returncode != 0:
        sys.exit(f"traced run of {workload} failed:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"traced run of {workload}: correct={result['correct']} failed={result['failed']}")
    return {k: finite(v["value"]) for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    seconds = spec["run_seconds"]

    names = [m["name"] for m in spec["end_to_end"]]
    rows = {}
    if os.path.exists(OUT):
        with open(OUT) as f:
            rows = {c["workload"]: c for c in json.load(f)["cases"]}
    for w in args.workloads:
        print(f"{w}: {RUNS} runs of {seconds} s", file=sys.stderr)
        stats = steady(w, names, seconds)
        case = {"workload": w, "samples": RUNS}
        for n in names:
            med, q1, q3 = stats[n]
            case[n], case[n + "_q1"], case[n + "_q3"] = med, q1, q3
        case.update({
            "seeds": SEEDS,
            "seconds": seconds,
            "host": host(),
            "commit": commit(),
            "trace_seed": SEEDS[0],
            "layers": traced(spec, w, SEEDS[0], seconds),
        })
        rows[w] = case
    order = [w["name"] for w in spec["workloads"]]
    cases = sorted(rows.values(), key=lambda c: order.index(c["workload"]))
    with open(OUT, "w") as f:
        f.write('{"experiment":"stack","cases":[\n')
        f.write(",\n".join(json.dumps(c, separators=(",", ":")) for c in cases))
        f.write("\n]}\n")


if __name__ == "__main__":
    main()
