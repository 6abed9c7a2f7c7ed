#!/usr/bin/env python3
"""Compare two sets of benchmark results, or check one set's spread.

    python3 perfbench/compare.py BASE [NEW]

BASE and NEW are directories of result files named <workload>-<seed>.json,
as sweep.py writes them; a file's last line is the benchmark's JSON result.
For every workload and end-to-end metric in BENCHMARK.json it prints each
side's median and quartiles (statistics.quantiles, n=4) and the spread, the
quartile distance as a share of the median. With two sets it prints a
verdict against the metric's bound:

  within    the medians differ by no more than the bound
  worse     NEW's median is worse than BASE's by more than the bound
  better    NEW's median is better by more than the bound, or every NEW run
            beats every BASE run
  unresolved  a side's spread is wider than the bound, so the medians
            cannot be told apart at that bound

With one set it reports whether every spread is within its bound. It also
prints each set's share of failed operations and any run that reported
incorrect output. The exit code is 1 when a run was incorrect or had a
failed operation, a spread is out of bound (one set), or a verdict is
worse or unresolved (two sets).
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory, workload):
    runs = []
    for name in sorted(os.listdir(directory)):
        if name.startswith(workload + "-") and name.endswith(".json"):
            with open(os.path.join(directory, name)) as f:
                lines = f.read().strip().splitlines()
            if lines:
                runs.append(json.loads(lines[-1]))
    return runs


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")


def verdict(base, new, better, bound):
    """Verdict of NEW against BASE for one metric; better is "lower" or "higher"."""
    sign = 1 if better == "lower" else -1
    mb, _, _, sb = summary(base)
    mn, _, _, sn = summary(new)
    if all(sign * (n - b) < 0 for n in new for b in base):
        return "better"
    if sb > bound or sn > bound:
        return "unresolved"
    worse = sign * (mn - mb) / mb
    if worse > bound:
        return "worse"
    if -worse > bound:
        return "better"
    return "within"


def failed_shares(runs):
    return sorted({r["failed"] / r["attempted"] for r in runs})


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    sets = argv[1:]
    bad = False
    for w in bench["workloads"]:
        runs = [load(d, w["name"]) for d in sets]
        if any(len(r) < 2 for r in runs):
            print("%s: fewer than two results in a set, skipped" % w["name"])
            continue
        print("%s  (%s runs)  failed share %s" % (w["name"], " / ".join(str(len(r)) for r in runs),
                                               " / ".join(str(failed_shares(r)) for r in runs)))
        for d, r in zip(sets, runs):
            wrong = [i for i, x in enumerate(r) if not x["correct"]]
            if wrong:
                print("  %s: %d runs reported incorrect output" % (d, len(wrong)))
                bad = True
            failing = [i for i, x in enumerate(r) if x["failed"] > 0]
            if failing:
                print("  %s: %d runs had failed operations" % (d, len(failing)))
                bad = True
        for m in bench["end_to_end"]:
            vals = [[x["metrics"][m["name"]]["value"] for x in r] for r in runs]
            cols = []
            for v in vals:
                med, q1, q3, spread = summary(v)
                cols.append("%12.4g [%.4g, %.4g] %5.1f%%" % (med, q1, q3, 100 * spread))
            line = "  %-16s %-6s bound %4.0f%%  %s" % (m["name"], m["unit"], 100 * m["bound"], "  |".join(cols))
            if len(vals) == 2:
                v = verdict(vals[0], vals[1], m["better"], m["bound"])
                bad = bad or v in ("worse", "unresolved")
                line += "  -> " + v
            else:
                spread = summary(vals[0])[3]
                ok = spread <= m["bound"]
                bad = bad or not ok
                line += "  ok" if spread <= m["bound"] / 3 else ("  within bound" if ok else "  SPREAD > BOUND")
            print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
