#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ingest|serve|history \
        --seed N --seconds S --trace 0|1

It builds perfbench/main.exe from source with dune (release profile,
build tree under .bench_build/), runs it, and relays its output.  The
last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Any failure exits non-zero
without printing a result.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "dune")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
WORK_ROOT = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("ingest", "serve", "history")
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the repository root (dune-project and lib/ not found)")
    # The dune cache lives outside the checkout; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", os.path.abspath(BUILD_DIR), "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        die("cannot run dune: %s" % e)
    if done.returncode != 0 or not os.path.isfile(EXE):
        die("build failed")


def declared_metrics(trace):
    """Name -> unit of every metric BENCHMARK.json declares for this mode."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def checked_metrics(measured, declared, trace):
    """The result's metrics, checked against BENCHMARK.json.  Every
    measured metric must be declared with the same unit.  An untraced run
    must measure every end-to-end metric; a traced run reports the
    layers its workload does not exercise as 0."""
    for name, m in measured.items():
        if declared.get(name) != m["unit"]:
            die("metric %s (%s) is not declared in BENCHMARK.json with that unit"
                % (name, m["unit"]))
    missing = sorted(set(declared) - set(measured))
    if missing and not trace:
        die("end-to-end metrics missing: %s" % missing)
    return {name: measured.get(name, {"value": 0.0, "unit": unit})
            for name, unit in declared.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")

    declared = declared_metrics(args.trace)
    build()
    workdir = os.path.join(WORK_ROOT, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    spans = os.path.join(WORK_ROOT, "spans-%s-%d.jsonl" % (args.workload, args.seed))
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--spans", spans]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("workload did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        die("workload exited with code %d" % done.returncode)

    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("the workload's last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("unexpected result keys %s" % sorted(result))
    result["metrics"] = checked_metrics(result["metrics"], declared, args.trace)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
