#!/usr/bin/env bash
# Alternating parent/change pairs of the host-time benchmark (BENCHMARK.json),
# and whether a claimed gain holds on them.
#
#   scripts/perf_pairs.sh PARENT_TREE CHANGE_TREE WORKLOAD [PAIRS=10] [SECONDS]
#
# PARENT_TREE and CHANGE_TREE are two checkouts of the repository (for
# example `git archive <rev> | tar -x -C DIR`). Each tree first builds its
# perfbench with one short run. Then pair i (0-based) runs
#
#   python3 <tree>/perfbench/run.py --workload WORKLOAD --seed 11+i \
#       --seconds SECONDS --trace 0
#
# once in each tree, the parent first on even pairs and the change first on
# odd ones. SECONDS defaults to BENCHMARK.json's run_seconds.
#
# For every end-to-end metric BENCHMARK.json names, it prints each side's
# median and quartiles (linear interpolation), the change/parent ratio of
# the medians, the pairs the change won in the metric's `better` direction
# (ties count for neither side), and whether the change's median stays
# within the metric's regression bound. It also prints failed/attempted
# instances per side. A metric shows a gain when the change won at least
# nine tenths of the pairs and the medians differ by more than the parent's
# interquartile range.
#
# Exits 1 on any build or run failure or a result with "correct": false, and
# 2 on bad arguments. It reads the parent tree's BENCHMARK.json, warns when
# the change tree's benchmark (BENCHMARK.json or perfbench/) differs, and
# writes nothing but each tree's perfbench build directory.
set -euo pipefail

usage() {
  echo "usage: $0 PARENT_TREE CHANGE_TREE WORKLOAD [PAIRS=10] [SECONDS]" >&2
  exit 2
}
[ $# -ge 3 ] && [ $# -le 5 ] || usage
for tree in "$1" "$2"; do
  if [ ! -f "$tree/BENCHMARK.json" ] || [ ! -f "$tree/perfbench/run.py" ]; then
    echo "$tree: not a checkout with BENCHMARK.json and perfbench/run.py" >&2
    usage
  fi
done
if ! cmp -s "$1/BENCHMARK.json" "$2/BENCHMARK.json" ||
   ! diff -rq "$1/perfbench" "$2/perfbench" > /dev/null; then
  echo "warning: the trees' benchmarks differ; a gain measured here is not a valid claim" >&2
fi

exec python3 - "$@" <<'PYEOF'
import json
import math
import os
import statistics
import subprocess
import sys

parent_tree, change_tree, workload = sys.argv[1:4]
bench = json.load(open(os.path.join(parent_tree, "BENCHMARK.json")))
try:
    pairs = int(sys.argv[4]) if len(sys.argv) > 4 else 10
    seconds = float(sys.argv[5]) if len(sys.argv) > 5 else float(bench["run_seconds"])
except ValueError:
    pairs, seconds = 0, 0
if pairs < 1 or seconds <= 0:
    print("PAIRS must be a positive integer and SECONDS a positive number", file=sys.stderr)
    sys.exit(2)
if workload not in [w["name"] for w in bench["workloads"]]:
    print(f"unknown workload {workload!r}", file=sys.stderr)
    sys.exit(2)
metrics = bench["end_to_end"]
trees = {"parent": os.path.abspath(parent_tree), "change": os.path.abspath(change_tree)}


def run(side, seed, secs):
    """One perfbench run in `side`'s tree; returns its JSON result."""
    cmd = ["python3", os.path.join(trees[side], "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(secs), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=trees[side], stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{side} (seed {seed}): perfbench exited with {proc.returncode}", file=sys.stderr)
        sys.exit(1)
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"{side} (seed {seed}): \"correct\": false, {result['failed']} of "
              f"{result['attempted']} instances failed", file=sys.stderr)
        sys.exit(1)
    return result


for side in trees:
    print(f"building and checking {side} ({trees[side]})", file=sys.stderr)
    run(side, 1, 1)

results = {"parent": [], "change": []}
for i in range(pairs):
    seed = 11 + i
    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
    for side in order:
        results[side].append(run(side, seed, seconds))
    summary = "  ".join(
        f"{m['name']} {results['parent'][-1]['metrics'][m['name']]['value']:.4g}"
        f"->{results['change'][-1]['metrics'][m['name']]['value']:.4g}" for m in metrics)
    print(f"pair {i + 1}/{pairs} seed {seed} ({order[0]} first): {summary}", file=sys.stderr)


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


need = math.ceil(0.9 * pairs)
print(f"{workload}: {pairs} pairs of {seconds:g} s runs, seeds 11-{10 + pairs}, "
      f"alternating order; gain needs >= {need}/{pairs} wins and a median gap > parent IQR")
print(f"{'metric':<14}{'parent median [q1, q3]':>34}{'change median [q1, q3]':>34}"
      f"{'ratio':>8}{'wins':>8}  {'bound':<6}{'gain'}")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    p = [r["metrics"][name]["value"] for r in results["parent"]]
    c = [r["metrics"][name]["value"] for r in results["change"]]
    pq1, pmed, pq3 = quartiles(p)
    cq1, cmed, cq3 = quartiles(c)
    wins = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
    gap = (pmed - cmed) if lower else (cmed - pmed)
    gain = wins >= need and gap > pq3 - pq1
    limit = pmed * (1 + m["bound"]) if lower else pmed * (1 - m["bound"])
    within = cmed <= limit if lower else cmed >= limit
    ratio = cmed / pmed if pmed else float("nan")
    print(f"{name:<14}{f'{pmed:.4g} [{pq1:.4g}, {pq3:.4g}]':>34}"
          f"{f'{cmed:.4g} [{cq1:.4g}, {cq3:.4g}]':>34}{ratio:>8.3f}{f'{wins}/{pairs}':>8}  "
          f"{('ok' if within else 'WORSE'):<6}{('yes' if gain else 'no')}")
for side in trees:
    failed = sum(r["failed"] for r in results[side])
    attempted = sum(r["attempted"] for r in results[side])
    print(f"{side}: {failed}/{attempted} instances failed")
PYEOF
