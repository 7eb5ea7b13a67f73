#!/usr/bin/env python3
"""Paired parent-vs-change comparison of benchmark runs.

Collect paired runs, alternating which side runs first, from two
checkouts (each the root of a tree that holds perfbench/):

    python3 perfbench/compare.py pairs --parent ../parent --change . \
        --workload ingest --seeds 1-10 --out ingest-pairs.jsonl

Judge a file of pairs (several workloads may share one file):

    python3 perfbench/compare.py judge ingest-pairs.jsonl [more.jsonl ...]

The judgement follows the benchmark's rules (see README.md):
  - each side's median and quartiles, per workload and metric;
  - a gain needs the change to win at least 9/10 of the pairs (ties
    count for neither side) and a median gap wider than the parent's
    interquartile range, with no more failed operations than the parent;
  - every other end-to-end metric must not be worse than the parent's
    median by more than its bound from BENCHMARK.json; when the
    parent's own spread is wider than the bound the metric is
    "unresolved" unless every change run beats every parent run.
Per-layer metrics have no bound and are reported without a verdict.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(tree, workload, seed, seconds, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit("compare: run failed in %s (seed %d)" % (tree, seed))
    return json.loads(done.stdout.strip().split("\n")[-1])


def cmd_pairs(args):
    with open(args.out, "a") as out:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = [("parent", args.parent), ("change", args.change)]
            if i % 2:
                order.reverse()
            pair = {"workload": args.workload, "seed": seed, "trace": args.trace}
            for side, tree in order:
                pair[side] = run_once(tree, args.workload, seed, args.seconds, args.trace)
            out.write(json.dumps(pair) + "\n")
            out.flush()
            print("seed %d done (%s first)" % (seed, order[0][0]), file=sys.stderr)


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge_metric(name, pairs, spec):
    """One row: (name, parent quartiles, change quartiles, wins, verdict)."""
    better = spec["better"]
    bound = spec.get("bound")
    par = [p["parent"]["metrics"][name]["value"] for p in pairs]
    chg = [p["change"]["metrics"][name]["value"] for p in pairs]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for a, b in zip(par, chg) if sign * (b - a) > 0)
    losses = sum(1 for a, b in zip(par, chg) if sign * (b - a) < 0)
    pq, cq = quartiles(par), quartiles(chg)
    p_med, c_med = pq[1], cq[1]
    p_iqr = pq[2] - pq[0]
    gap = sign * (c_med - p_med)
    failed_par = sum(p["parent"]["failed"] for p in pairs)
    failed_chg = sum(p["change"]["failed"] for p in pairs)
    if (wins >= 0.9 * len(pairs) and gap > p_iqr and len(pairs) >= 10
            and failed_chg <= failed_par):
        verdict = "gain"
    elif bound is None:
        verdict = "-"
    else:
        worse = -gap / abs(p_med) if p_med else 0.0
        spread = p_iqr / abs(p_med) if p_med else 0.0
        all_better = (min(chg) > max(par)) if better == "higher" else (max(chg) < min(par))
        if spread > bound and not all_better:
            verdict = "unresolved (spread %.1f%% > bound %.0f%%)" % (100 * spread, 100 * bound)
        elif worse > bound:
            verdict = "REGRESSION (%.1f%% worse > bound %.0f%%)" % (100 * worse, 100 * bound)
        else:
            verdict = "no regression (%.1f%% %s)" % (
                abs(100 * worse), "worse" if worse > 0 else "better")
    return pq, cq, wins, losses, verdict


def cmd_judge(args):
    with open(args.spec) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    pairs = []
    for path in args.files:
        with open(path) as f:
            pairs.extend(json.loads(line) for line in f if line.strip())
    groups = {}
    for p in pairs:
        groups.setdefault((p["workload"], p.get("trace", 0)), []).append(p)
    bad = False
    for (workload, trace), group in sorted(groups.items()):
        print("== %s (%s, %d pairs)" % (workload, "traced" if trace else "untraced", len(group)))
        print("%-38s %-32s %-32s %7s  %s" % ("metric", "parent q1/med/q3", "change q1/med/q3",
                                              "wins", "verdict"))
        for name in group[0]["parent"]["metrics"]:
            pq, cq, wins, losses, verdict = judge_metric(name, group, metrics[name])
            print("%-38s %-32s %-32s %3d/%-3d  %s" % (
                name, "%.4g/%.4g/%.4g" % pq, "%.4g/%.4g/%.4g" % cq, wins, losses, verdict))
            bad = bad or verdict.startswith("REGRESSION")
        for side in ("parent", "change"):
            if not all(p[side]["correct"] for p in group):
                print("!! %s has incorrect runs" % side)
                bad = True
    sys.exit(1 if bad else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("pairs", help="collect alternating parent/change runs")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,9")
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--out", required=True)
    j = sub.add_parser("judge", help="judge collected pairs")
    j.add_argument("files", nargs="+")
    j.add_argument("--spec", default="BENCHMARK.json")
    args = ap.parse_args()
    if args.cmd == "pairs":
        if args.seconds is None:
            with open(os.path.join(args.change, "BENCHMARK.json")) as f:
                args.seconds = json.load(f)["run_seconds"]
        cmd_pairs(args)
    else:
        cmd_judge(args)


if __name__ == "__main__":
    main()
