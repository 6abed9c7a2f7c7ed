#!/usr/bin/env python3
"""Run the benchmark over several seeds and keep every result.

    python3 perfbench/sweep.py --out runs/a --seeds 1-10 [--workloads bulk,callpath]
                               [--seconds N]

Run from the root of the repository. Each run's standard output is written
to <out>/<workload>-<seed>.json (the result is its last line), which is the
layout compare.py reads. Workloads and run length default to BENCHMARK.json.
Runs are untraced: compare.py compares end-to-end metrics.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    status = 0
    for seed in seeds(args.seeds):
        for w in args.workloads.split(","):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            with open(os.path.join(args.out, "%s-%d.json" % (w, seed)), "w") as f:
                f.write(run.stdout)
            last = run.stdout.strip().splitlines()[-1:] or ["(no result)"]
            print("%s seed %d exit %d: %s" % (w, seed, run.returncode, last[0][:160]), flush=True)
            status = status or run.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
