#!/usr/bin/env python3
"""Compare the old and new result sets of an interleaved collection.

    python3 perfbench/compare.py PAIRS.jsonl

PAIRS.jsonl is written by perfbench/collect.py: old and new runs of the
same seeds, taken back to back in alternating order. A metric is judged
on its per-pair ratios new/old, so a shift in the host's speed that
lands on both runs of a pair cancels. For every (workload, end-to-end
metric), with change = median ratio - 1 and the metric's bound from
BENCHMARK.json:

  unresolved    the inter-quartile spread of the ratios, over their
                median, exceeds the bound, so the pairs cannot tell a
                change from noise, and not every new run reads better
                than every old run
  worse/better  the change exceeds the bound in that direction
  within-bound  otherwise

Also printed: each side's median, and in how many pairs the new run
reads better. Exits 1 if any metric is worse or missing, 0 otherwise.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load(path):
    """{workload: {seed: {side: {metric: value}}}}."""
    out = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            row = json.loads(line)
            out.setdefault(row["workload"], {}).setdefault(row["seed"], {})[row["side"]] = {
                name: m["value"] for name, m in row["result"]["metrics"].items()}
    return out


def spread(values):
    """Inter-quartile range over the median (statistics.quantiles, n=4)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def verdict(metric, old, new):
    """old, new: the values of complete pairs, in pair order."""
    bound, lower = metric["bound"], metric["better"] == "lower"
    ratios = [b / a for a, b in zip(old, new)]
    change = statistics.median(ratios) - 1
    separated = max(new) < min(old) if lower else min(new) > max(old)
    if spread(ratios) > bound and not separated:
        v = "unresolved"
    elif change > bound if lower else change < -bound:
        v = "worse"
    elif change < -bound if lower else change > bound:
        v = "better"
    else:
        v = "within-bound"
    wins = sum(b < a if lower else b > a for a, b in zip(old, new))
    return v, change, spread(ratios), wins


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sets = load(sys.argv[1])
    regressions = 0
    print("%-11s %-10s %12s %12s %8s %8s %6s %5s  %s" % (
        "workload", "metric", "old median", "new median", "change",
        "spread", "bound", "wins", "verdict"))
    for w in sorted(sets):
        pairs = [p for _, p in sorted(sets[w].items()) if "old" in p and "new" in p]
        for m in spec()["end_to_end"]:
            old = [p["old"][m["name"]] for p in pairs if m["name"] in p["old"]]
            new = [p["new"][m["name"]] for p in pairs if m["name"] in p["new"]]
            if len(old) != len(pairs) or len(new) != len(pairs) or len(pairs) < 2:
                print("%-11s %-10s missing from some pairs" % (w, m["name"]))
                regressions += 1
                continue
            v, change, sp, wins = verdict(m, old, new)
            regressions += v == "worse"
            print("%-11s %-10s %12.6g %12.6g %+7.1f%% %7.1f%% %5.0f%% %2d/%-2d  %s" % (
                w, m["name"], statistics.median(old), statistics.median(new),
                100 * change, 100 * sp, 100 * m["bound"], wins, len(pairs), v))
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
