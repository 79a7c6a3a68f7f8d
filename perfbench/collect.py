#!/usr/bin/env python3
"""Collect two result sets, old and new, in interleaved pairs.

    python3 perfbench/collect.py --out PAIRS.jsonl [--old DIR] [--new DIR] \
        [--runs 10] [--seed-base 1] [--workloads gauntlet,modelcheck,scale]

DIR is the root of a checkout (default: this one); each side runs its own
perfbench/run.py there, for BENCHMARK.json's run_seconds. Pair k runs
seed seed-base+k on both sides back to back, old first when k is even
and new first when k is odd, so a shift in the host's speed lands on both
sides of a pair instead of on one set. Give the same DIR twice to measure
two sets of the same code.

Each run appends one JSON line {workload, seed, side, first, fingerprint,
result} to PAIRS.jsonl. At the end, each side's median and inter-quartile
spread of every end-to-end metric are printed next to the bound (the
spread should stay under a third of it). Judge the pairs with compare.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from compare import spec, spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(root, workload, seed, seconds):
    r = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        sys.exit("run %s seed %d in %s failed" % (workload, seed, root))
    lines = r.stdout.splitlines()
    return json.loads(lines[-2])["fingerprint"], json.loads(lines[-1])


def main():
    s = spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", required=True)
    p.add_argument("--old", default=ROOT)
    p.add_argument("--new", default=ROOT)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in s["workloads"]))
    args = p.parse_args()
    roots = {"old": os.path.abspath(args.old), "new": os.path.abspath(args.new)}
    workloads = args.workloads.split(",")
    rows = []
    for w in workloads:
        for k in range(args.runs):
            seed = args.seed_base + k
            order = ("old", "new") if k % 2 == 0 else ("new", "old")
            for side in order:
                fingerprint, result = run(roots[side], w, seed, s["run_seconds"])
                row = {"workload": w, "seed": seed, "side": side,
                       "first": side == order[0], "fingerprint": fingerprint,
                       "result": result}
                rows.append(row)
                with open(args.out, "a") as f:
                    f.write(json.dumps(row, separators=(",", ":")) + "\n")
                print("%s seed %d %s: attempted %d failed %d" % (
                    w, seed, side, result["attempted"], result["failed"]),
                    file=sys.stderr)
    for w in workloads:
        for m in s["end_to_end"]:
            for side in ("old", "new"):
                vals = [r["result"]["metrics"][m["name"]]["value"]
                        for r in rows if r["workload"] == w and r["side"] == side]
                sp = spread(vals)
                print("%-11s %-10s %-4s median %12.6g  spread %6.2f%%  bound %5.1f%%  %s" % (
                    w, m["name"], side, statistics.median(vals), 100 * sp,
                    100 * m["bound"], "ok" if sp < m["bound"] / 3 else "WIDE"))


if __name__ == "__main__":
    main()
