#!/usr/bin/env python3
"""Build the benchmark from source and run one measurement.

    python3 perfbench/run.py --workload gauntlet|modelcheck|scale \
        --seed N --seconds S --trace 0|1 [--expect FILE]

Run from the root of a checkout. The benchmark is a dune project of its
own, perfbench/src. The first call builds it with dune in the workspace
.bench_build/ws/, which holds links to perfbench/src/dune-project,
perfbench/src/bin and the checkout's lib/; later calls reuse the build.
Prints the executable's fingerprint line (extended with nproc and the git
commit) and, as the last line, the result object {correct, attempted,
failed, metrics}. Exits non-zero, without a result, when the build or the
run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WS = os.path.join(ROOT, ".bench_build", "ws")
EXE = os.path.join(WS, "_build", "default", "bin", "perfbench.exe")
# Workspace entry -> what it links to, relative to the checkout root.
LINKS = {"dune-project": "perfbench/src/dune-project",
         "bin": "perfbench/src/bin",
         "lib": "lib"}
WORKLOADS = ("gauntlet", "modelcheck", "scale")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def workspace():
    for target in LINKS.values():
        if not os.path.exists(os.path.join(ROOT, target)):
            fail("no %s at %s: the benchmark builds the library from source"
                 % (target, ROOT))
    os.makedirs(WS, exist_ok=True)
    for name, target in LINKS.items():
        link = os.path.join(WS, name)
        if not os.path.islink(link):
            os.symlink(os.path.relpath(os.path.join(ROOT, target), WS), link)


def build():
    workspace()
    # The shared dune cache lives outside the checkout; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", WS, "--profile", "release",
           "./bin/perfbench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (dune exit %d)" % r.returncode)


def git_commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def metrics(measured, trace):
    """The metrics of BENCHMARK.json, in its order, from the measured ones.

    Every measured name must be listed there with the same unit. An
    untraced run must measure every end-to-end metric; a traced run reads
    a per-layer metric it did not measure (a layer the workload never
    enters) as 0.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    wrong = sorted("%s [%s]" % (k, v["unit"]) for k, v in measured.items()
                   if units.get(k) != v["unit"])
    if wrong:
        fail("measured metrics not in BENCHMARK.json: %s" % ", ".join(wrong))
    missing = sorted(set(units) - set(measured))
    if missing and not trace:
        fail("end-to-end metrics not measured: %s" % ", ".join(missing))
    return {m["name"]: measured.get(m["name"], {"value": 0.0, "unit": m["unit"]})
            for m in listed}


def run(args):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.expect:
        cmd += ["--expect", args.expect]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=175)
    except subprocess.TimeoutExpired:
        fail("run exceeded 175 s")
    sys.stderr.write(r.stderr)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode != 0 or len(lines) < 2:
        fail("run failed (exit %d)" % r.returncode)
    fingerprint = json.loads(lines[-2])
    result = json.loads(lines[-1])
    result["metrics"] = metrics(result["metrics"], args.trace)
    fingerprint["fingerprint"]["nproc"] = os.cpu_count()
    fingerprint["fingerprint"]["git_commit"] = git_commit()
    print(json.dumps(fingerprint, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--expect", help="file of 'INDEX DIGEST' lines (gauntlet)")
    args = p.parse_args()
    build()
    run(args)


if __name__ == "__main__":
    main()
