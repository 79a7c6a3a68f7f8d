#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark (about half a minute).

    python3 perfbench/selftest.py

Checks, from the root of a checkout:
  1. every workload runs briefly, untraced and traced, with failed = 0,
     and reports exactly the metric names and units of BENCHMARK.json
     plus the environment fingerprint;
  2. gauntlet replay is deterministic across runs: a second run with the
     same seed, told to expect the first run's campaign digests, passes;
  3. a sabotaged expectation (one wrong digest) is counted: failed >= 1,
     correct = false;
  4. in a directory holding only BENCHMARK.json and perfbench/, run.py
     exits non-zero without printing a result.
Exits 1 on the first failed check.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, ".selftest")
FINGERPRINT = ("ocaml", "nproc", "pool_default_domains", "git_commit", "seed",
               "workload", "attempted", "failed", "failed_frac")


def check(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        sys.exit(1)


def run(workload, trace=0, seconds=1, seed=7, expect=None, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if expect:
        cmd += ["--expect", expect]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def parse(r):
    lines = r.stdout.splitlines()
    return json.loads(lines[-2])["fingerprint"], json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)

    for w in (x["name"] for x in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            r = run(w, trace=trace)
            check(r.returncode == 0, "%s trace=%d exits 0" % (w, trace))
            fp, res = parse(r)
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  "%s trace=%d result keys" % (w, trace))
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  "%s trace=%d correct, failed = 0" % (w, trace))
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, "%s trace=%d metric names and units" % (w, trace))
            check(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                      for v in res["metrics"].values()),
                  "%s trace=%d values finite" % (w, trace))
            if not trace:
                check(all(v["value"] > 0 for v in res["metrics"].values()),
                      "%s end-to-end values nonzero" % w)
            check(all(k in fp for k in FINGERPRINT), "%s fingerprint" % w)

    # Replay determinism across runs, then a sabotaged expectation.
    fp, _ = parse(run("gauntlet", seed=11))
    digests = [(i, d) for i, d in enumerate(fp["info"]["campaign_digests"]) if d]
    expect = os.path.join(SCRATCH, "expect.txt")
    with open(expect, "w") as f:
        f.writelines("%d %s\n" % (i, d) for i, d in digests)
    fp, res = parse(run("gauntlet", seed=11, expect=expect))
    check(res["failed"] == 0, "gauntlet replay matches the previous run's digests")
    i0, d0 = digests[0]
    with open(expect, "w") as f:
        f.write("%d %s\n" % (i0, "0" * len(d0)))
    fp, res = parse(run("gauntlet", seed=11, expect=expect))
    check(res["failed"] >= 1 and not res["correct"] and fp["failed_frac"] > 0,
          "sabotaged digest counted in failed_frac (%d of %d)"
          % (res["failed"], res["attempted"]))

    # Without the library sources the benchmark must refuse to run.
    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".selftest", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    r = run("gauntlet", cwd=bare)
    check(r.returncode != 0 and not r.stdout.strip(),
          "bare directory: non-zero exit, no result")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
