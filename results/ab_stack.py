#!/usr/bin/env python3
"""Paired A/B of the stack benchmark: a base revision against a change.

Both revisions are exported from git (`git archive`) into a scratch
directory and their stackbench built there, offline. The tool then runs ten
alternating pairs: pair i runs seed `--seed-base + i` once per revision,
base first on even pairs and change first on odd ones, each with
BENCHMARK.json's command inside that revision's tree for its run_seconds.
Beside the four end-to-end metrics it records each child's CPU time
(`os.wait4` rusage) and CPU per attempted operation. Medians, quartiles and
spreads come from stackbench/steady.py's `summarize`.

Per metric it prints both medians and quartiles, the change's wins out of
the pairs, the base's own spread (interquartile range over median) and the
bound, and a verdict:

  unresolved   the base's spread exceeds the bound: ten pairs cannot judge it
  better/worse the change wins (loses) at least nine of the ten pairs
               and its median moved by more than the base's interquartile
               range
  OVER BOUND   the change's median is worse than the base's by more than
               the bound
  no change    anything else

Metrics without a bound (the CPU columns) are judged by the same win and
quartile rule. Finally it runs seed 1 traced (`--seconds 4 --trace 1`) on
each binary and diffs their `metric ... count` lines. Everything lands in
the --out JSON. It never edits BENCHMARK.json or a bound.

Run from the repository root, e.g.

    python3 results/ab_stack.py --base HEAD~1 --change HEAD \\
        --workloads wordcount --out ab-wordcount.json

`--change WORKTREE` measures the working tree (tracked and staged files)
instead of a commit. The self-test is the base against itself, which must
mark no metric better, worse or over bound:

    python3 results/ab_stack.py --base HEAD --change HEAD --workloads fs-meta
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # leave no __pycache__ in stackbench/
sys.path.insert(0, os.path.join(ROOT, "stackbench"))
from steady import summarize  # noqa: E402

PAIRS = 10
MIN_WINS = 9
TRACE_SECONDS = 4


def git(*args):
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"git {' '.join(args)} failed:\n{out.stderr}")
    return out.stdout.strip()


def resolve(rev):
    """A commit id for `rev`; WORKTREE snapshots the tracked and staged files."""
    if rev == "WORKTREE":
        return git("stash", "create") or git("rev-parse", "HEAD")
    return git("rev-parse", "--verify", rev + "^{commit}")


def checkout(rev, scratch, command):
    """Export `rev` into scratch, once per source tree, and build its
    stackbench there with BENCHMARK.json's command turned into a build."""
    src = os.path.join(scratch, git("rev-parse", rev + "^{tree}")[:12])
    if not os.path.exists(os.path.join(src, "BENCHMARK.json")):
        shutil.rmtree(src, ignore_errors=True)
        os.makedirs(src)
        archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", src], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit(f"git archive {rev} failed")
    build = ["build" if c == "run" else c for c in command if c != "--"]
    print(f"building {rev[:12]} in {src}", file=sys.stderr)
    out = subprocess.run(build, cwd=src, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"build of {rev[:12]} failed:\n{out.stderr[-3000:]}")
    return src


def run_once(src, command, workload, seed, seconds, trace):
    """One run in `src`: its stdout lines, result JSON and child CPU seconds."""
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, cwd=src, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    stdout = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.exit(f"run failed ({code}) in {src}: {' '.join(cmd)}")
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(cmd)}: correct={result['correct']} failed={result['failed']}")
    return lines, result, usage.ru_utime + usage.ru_stime


def sample(src, command, workload, seed, seconds, names):
    _, result, cpu = run_once(src, command, workload, seed, seconds, 0)
    row = {n: result["metrics"][n]["value"] for n in names}
    row["cpu_s"] = cpu
    row["cpu_us_per_op"] = 1e6 * cpu / max(result["attempted"], 1)
    return row


def judge(metric, base, change):
    name, better, bound = metric["name"], metric["better"], metric.get("bound")
    b = [r[name] for r in base]
    c = [r[name] for r in change]
    bmed, bq1, bq3, spread = summarize(b)
    cmed, cq1, cq3, _ = summarize(c)
    sign = 1 if better == "higher" else -1
    wins = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
    losses = sum(1 for x, y in zip(b, c) if sign * (y - x) < 0)
    moved = abs(cmed - bmed) > (bq3 - bq1)
    worse_by = sign * (bmed - cmed) / bmed if bmed else 0.0
    if bound is not None and spread > bound:
        verdict = "unresolved"
    elif bound is not None and worse_by > bound:
        verdict = "OVER BOUND"
    elif wins >= MIN_WINS and moved:
        verdict = "better"
    elif losses >= MIN_WINS and moved:
        verdict = "worse"
    else:
        verdict = "no change"
    return {
        "metric": name, "better": better, "bound": bound,
        "base_median": bmed, "base_q1": bq1, "base_q3": bq3,
        "change_median": cmed, "change_q1": cq1, "change_q3": cq3,
        "ratio": cmed / bmed if bmed else None,
        "wins": wins, "pairs": len(b), "base_spread": spread, "verdict": verdict,
    }


def counts(lines):
    """The `metric <name> <value> count` lines of a traced run."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric" and parts[3] == "count":
            out[parts[1]] = float(parts[2])
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD~1")
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--scratch", default=os.path.join(ROOT, ".bench_build", "ab"))
    ap.add_argument("--out", help="JSON results (default: stdout only)")
    args = ap.parse_args()
    seconds, command = spec["run_seconds"], spec["command"]

    revs = {"base": resolve(args.base), "change": resolve(args.change)}
    srcs = {k: checkout(rev, args.scratch, command) for k, rev in revs.items()}
    metrics = spec["end_to_end"] + [
        {"name": "cpu_s", "unit": "s", "better": "lower"},
        {"name": "cpu_us_per_op", "unit": "us", "better": "lower"},
    ]
    names = [m["name"] for m in spec["end_to_end"]]
    report = {"base": revs["base"], "change": revs["change"], "pairs": PAIRS,
              "seeds": list(range(args.seed_base, args.seed_base + PAIRS)),
              "seconds": seconds, "min_wins": MIN_WINS, "workloads": {}}
    for w in args.workloads:
        runs = {"base": [], "change": []}
        for i in range(PAIRS):
            seed = args.seed_base + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for k in order:
                runs[k].append(sample(srcs[k], command, w, seed, seconds, names))
            print(f"{w}: pair {i + 1}/{PAIRS} (seed {seed}) done", file=sys.stderr)
        verdicts = [judge(m, runs["base"], runs["change"]) for m in metrics]
        traced = {k: counts(run_once(srcs[k], command, w, 1, TRACE_SECONDS, 1)[0])
                  for k in srcs}
        diff = {n: [traced["base"].get(n), traced["change"].get(n)]
                for n in sorted(set(traced["base"]) | set(traced["change"]))
                if traced["base"].get(n) != traced["change"].get(n)}
        report["workloads"][w] = {"runs": runs, "verdicts": verdicts,
                                  "trace_seed": 1, "trace_seconds": TRACE_SECONDS,
                                  "count_diff": diff}
        print(f"\n{w}: {PAIRS} alternating pairs x {seconds} s, "
              f"base {revs['base'][:12]} vs change {revs['change'][:12]}")
        print(f"{'metric':<16} {'base med':>12} {'q1..q3':>23} {'change med':>12} "
              f"{'q1..q3':>23} {'ratio':>6} {'wins':>5} {'spread':>7} {'bound':>6}  verdict")
        for v in verdicts:
            bound = "-" if v["bound"] is None else f"{v['bound']:.2f}"
            ratio = "-" if v["ratio"] is None else f"{v['ratio']:.3f}"
            print(f"{v['metric']:<16} {v['base_median']:>12.4g} "
                  f"{v['base_q1']:>11.4g}..{v['base_q3']:<11.4g} {v['change_median']:>12.4g} "
                  f"{v['change_q1']:>11.4g}..{v['change_q3']:<11.4g} {ratio:>6} "
                  f"{v['wins']:>2}/{v['pairs']:<2} {v['base_spread']:>7.3f} {bound:>6}  "
                  f"{v['verdict']}")
        if diff:
            print(f"traced seed 1 ({TRACE_SECONDS} s): count lines that differ (base, change):")
            for n, (b, c) in diff.items():
                print(f"  {n}: {b} -> {c}")
        else:
            print(f"traced seed 1 ({TRACE_SECONDS} s): every count line equal")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    changed = [(w, v["metric"]) for w, r in report["workloads"].items()
               for v in r["verdicts"] if v["verdict"] in ("better", "worse", "OVER BOUND")]
    print(f"\n{time.strftime('%Y-%m-%d %H:%M:%S')}: "
          + ("no metric changed" if not changed else
             "changed: " + ", ".join(f"{w} {m}" for w, m in changed)))


if __name__ == "__main__":
    main()
