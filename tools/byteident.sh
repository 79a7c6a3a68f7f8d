#!/usr/bin/env bash
# byteident — do this tree and REV produce the same bytes?
#
# Usage: tools/byteident.sh REV
#
# Clones REV of this repository into a temporary directory (under
# $TMPDIR), builds it and this working tree (uncommitted changes
# included), and runs one fixed command set in each, writing every
# command's stdout, stderr, exit code and JSON report into a per-tree
# directory:
#   - gauntlet: 200 campaigns at seed 42 plain, with --faults,
#     --weaken settlement and --weaken pricing; 40 campaigns with
#     --faults --epsilon 0.5; --replay of seeds 1 2 3 42, and of
#     4285784464683832136 with --faults;
#   - 40 campaigns with --faults --trace-out, keeping the name and args
#     of the trace's instant events (in order: checkpoint outcomes and
#     reasons, accusations with their detail strings, verdicts, fault
#     events) and of its spans (the phase spans' attempt numbers among
#     them); timestamps, durations and samples are dropped;
#   - experiments, full and --quick;
#   - routing on fig1 with node 2 running each CLI deviation, and the
#     faithful run with --no-checking, --no-copies,
#     --deferred-certification, --latency-seed 5 and --loss 0.05
#     (routing_no_copies differs from revisions older than the one-bank
#     Runner.params by design: --no-copies alone used to run the checking
#     bank without copies and end STUCK; it now runs plain FPSS);
#   - the stdout of lint --list-mutations, and the checker recipe: lint,
#     verify, analyze and analyze --differential on fig1 and torus:4:4,
#     stock and under every listed mutation (104 runs), keeping each
#     run's exit code and its --json document with every "elapsed_s" and
#     "states_per_sec" key removed (the stdout prints rates);
#   - the gauntlet.campaign tests (whose "replay golden" case pins 32
#     campaign digests) and the faithful.fault tests (whose "byzantine
#     golden" case pins 40 Byzantine-plan run digests), exit codes only;
#     and, on its own, the exit code of faithful.fault case 7, the
#     "environment golden" (50 runs under channel loss, perturbations and
#     fault schedules), and of faithful.run case 8, the "settlement
#     golden" (60 runs: six banks, two networks, the execution
#     deviations). A REV older than either case exits 1 there.
# Then `diff -r` on the two directories. Exit 0 when they are identical,
# 1 on any difference, 2 on a usage or build error. About two minutes per
# tree.
#
# This is a review tool for changes meant to keep behaviour, not a CI
# gate: a change that alters behaviour is expected to differ here.
set -u

if [ "$#" -ne 1 ]; then
  echo "usage: $0 REV" >&2
  exit 2
fi
rev="$1"
here="$(git rev-parse --show-toplevel)" || exit 2
work="$(mktemp -d "${TMPDIR:-/tmp}/byteident.XXXXXX")" || exit 2
echo "byteident: $here against $rev, in $work" >&2

git clone -q "$here" "$work/base" && git -C "$work/base" checkout -q "$rev" || exit 2

build() {
  (cd "$1" && dune build ./bin/damd_cli.exe ./bin/experiments.exe ./test/test_main.exe) ||
    { echo "byteident: build failed in $1" >&2; exit 2; }
}
build "$work/base"
build "$here"

deviations="misreport inconsistent corrupt-cost drop-routing drop-pricing
  corrupt-routing corrupt-pricing spoof-routing spoof-pricing
  miscompute-routing miscompute-pricing underreport misroute silent
  lying-checker collude:0"

# run NAME CMD...: stdout, stderr and exit code of CMD into NAME.*
run() {
  local name="$1"
  shift
  "$@" >"$name.out" 2>"$name.err"
  echo "$?" >"$name.exit"
}

strip_rates() {
  python3 -c '
import json, sys
def strip(v):
    if isinstance(v, dict):
        return {k: strip(x) for k, x in v.items() if k not in ("elapsed_s", "states_per_sec")}
    if isinstance(v, list):
        return [strip(x) for x in v]
    return v
print(json.dumps(strip(json.load(open(sys.argv[1]))), indent=1))' "$1" >"$1.stripped" &&
    rm "$1"
}

# instants FILE: the name and args of every instant event and every span
# of a damd-trace/1 document, one JSON line each, into FILE.instants; the
# document and its Chrome twin are removed.
instants() {
  python3 -c '
import json, sys
for e in json.load(open(sys.argv[1]))["events"]:
    if e["type"] in ("instant", "span"):
        print(json.dumps([e["type"], e["name"], e.get("args")], sort_keys=True))' "$1" >"$1.instants" &&
    rm "$1" "${1%.json}.chrome.json"
}

drive() {
  local tree="$1" out="$2"
  local C="$tree/_build/default/bin/damd_cli.exe"
  local E="$tree/_build/default/bin/experiments.exe"
  mkdir -p "$out" && cd "$out" || exit 2
  run gauntlet "$C" gauntlet --seed 42 --campaigns 200 --json gauntlet.json
  run gauntlet_faults "$C" gauntlet --seed 42 --campaigns 200 --faults \
    --json gauntlet_faults.json
  run gauntlet_settlement "$C" gauntlet --seed 42 --campaigns 200 \
    --weaken settlement --json gauntlet_settlement.json
  run gauntlet_pricing "$C" gauntlet --seed 42 --campaigns 200 \
    --weaken pricing --json gauntlet_pricing.json
  run gauntlet_epsilon "$C" gauntlet --seed 42 --campaigns 40 --faults \
    --epsilon 0.5 --json gauntlet_epsilon.json
  run gauntlet_traced "$C" gauntlet --seed 42 --campaigns 40 --faults \
    --trace-out gauntlet_traced.json
  instants gauntlet_traced.json
  local s
  for s in 1 2 3 42; do run "replay_$s" "$C" gauntlet --replay "$s"; done
  run replay_finding "$C" gauntlet --replay 4285784464683832136 --faults
  run experiments "$E"
  run experiments_quick "$E" --quick
  local d
  for d in $deviations; do run "routing_${d%%:*}" "$C" routing -t fig1 --deviant "2:$d"; done
  run routing_faithful "$C" routing -t fig1
  run routing_no_checking "$C" routing -t fig1 --no-checking
  run routing_no_copies "$C" routing -t fig1 --no-copies
  run routing_deferred "$C" routing -t fig1 --deferred-certification
  run routing_latency "$C" routing -t fig1 --latency-seed 5
  run routing_loss "$C" routing -t fig1 --loss 0.05
  run list_mutations "$C" lint --list-mutations
  local t m cmd name args
  for t in fig1 torus:4:4; do
    for m in stock $(cut -d' ' -f1 list_mutations.out); do
      for cmd in lint verify analyze analyze_differential; do
        name="${cmd}_${t%%:*}_$m"
        args=("${cmd%_differential}" -t "$t" --json "$name.json")
        [ "$cmd" = analyze_differential ] && args+=(--differential)
        [ "$m" = stock ] || args+=(--mutate "$m")
        "$C" "${args[@]}" >/dev/null 2>&1
        echo "$?" >"$name.exit"
        strip_rates "$name.json"
      done
    done
  done
  (cd "$tree" && ./_build/default/test/test_main.exe test gauntlet.campaign >/dev/null 2>&1)
  echo "$?" >tests_gauntlet_campaign.exit
  (cd "$tree" && ./_build/default/test/test_main.exe test faithful.fault >/dev/null 2>&1)
  echo "$?" >tests_faithful_fault.exit
  (cd "$tree" && ./_build/default/test/test_main.exe test faithful.fault 7 >/dev/null 2>&1)
  echo "$?" >tests_environment_golden.exit
  (cd "$tree" && ./_build/default/test/test_main.exe test faithful.run 8 >/dev/null 2>&1)
  echo "$?" >tests_settlement_golden.exit
}

(drive "$work/base" "$work/out/base")
(drive "$here" "$work/out/tree")
if diff -r "$work/out/base" "$work/out/tree"; then
  echo "byteident: identical ($work/out)" >&2
  exit 0
fi
echo "byteident: DIFFERENT ($work/out)" >&2
exit 1
