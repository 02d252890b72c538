#!/usr/bin/env bash
# Machine-readable perf report: runs the paper's headline benchmarks
# (Table 1, Table 2, Figure 10) with --json output and merges them into one
# BENCH_*.json report. With --check, diffs every metric against the
# checked-in baseline (bench/baseline/BENCH_baseline.json) and fails when a
# metric drifts by more than the tolerance (default 15%).
#
#   scripts/bench_report.sh --out=BENCH_prN.json
#   scripts/bench_report.sh --out=BENCH_prN.json --check
#
# --out is required: the committed BENCH_pr*.json reports are history, and
# no default may overwrite one.
#
# The simulation is deterministic, so any drift is a real modeling or
# performance change, not noise; the tolerance exists for intentional
# model-parameter tuning in later PRs.
#
# The report also folds in two host-wall-clock suites that --check gates by
# floor rather than diffing against the baseline:
#  * bench_simcore's scheduler shapes (pooled timer wheel vs. reference
#    heap): minimum wheel/heap speedup per shape (--speedup-floor,
#    default 1.5 on the queue-bound shapes).
#  * bench_sharded_speedup's 32x32 write-fault storm at --shards=1/2/4/8:
#    the 4-shard run must beat single-threaded by >= --shard-speedup-floor
#    (default 1.5x) on each DSM. The gated speedup is the median of the
#    ratios of 5 interleaved (shards=1, shards=4) pairs, not one sample.
#  * bench_failover's recovery timeline (kill-manager + rolling-restart on
#    all three DSMs): latencies diff against the baseline like any other
#    metric, and --check additionally requires exactly one promotion per kill
#    (ASVM/XMM), at least one ownership reclaim per kill (IVY has no manager
#    to promote), one restart per rolling restart, and a >= 1.2x gossip
#    speedup on the death-notice A/B column (a bystander cancelled
#    mid-backoff must beat one that serves out its own retry horizon). Every
#    timeline digest the sharded bench emits — the storm shapes and the
#    per-workload sweep (em3d, sor, file-read, file-write, fork-chain at 128
#    nodes) — must match shards=1 exactly (every *.digest_match == 1). The
#    per-workload speedup columns are reported, not floor-gated: those shapes
#    are barrier-dominated, and only the queue-bound storm is required to
#    parallelize.
#  * IVY forwarding-chain health from the same sharded sweep: every
#    *.ivy.dropped_forwards must be 0 (a dropped forward means a request hit
#    the hop ceiling — a hint cycle) and every *.ivy.chain_length_max must
#    stay bounded (path compression keeps probable-owner walks short; the
#    ceiling it would otherwise drop at is 4x the node count).
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=
BUILD=build
BASELINE=bench/baseline/BENCH_baseline.json
TOLERANCE=0.15
SPEEDUP_FLOOR=1.5
SHARD_SPEEDUP_FLOOR=1.5
CHECK=0
usage() {
  echo "usage: $0 --out=FILE [--build=DIR] [--baseline=FILE] [--tolerance=F] [--speedup-floor=F] [--shard-speedup-floor=F] [--check]" >&2
}
for arg in "$@"; do
  case "$arg" in
    --out=*) OUT="${arg#--out=}" ;;
    --build=*) BUILD="${arg#--build=}" ;;
    --baseline=*) BASELINE="${arg#--baseline=}" ;;
    --tolerance=*) TOLERANCE="${arg#--tolerance=}" ;;
    --speedup-floor=*) SPEEDUP_FLOOR="${arg#--speedup-floor=}" ;;
    --shard-speedup-floor=*) SHARD_SPEEDUP_FLOOR="${arg#--shard-speedup-floor=}" ;;
    --check) CHECK=1 ;;
    *)
      echo "unknown argument: $arg" >&2
      usage
      exit 2
      ;;
  esac
done
if [ -z "$OUT" ]; then
  echo "missing --out=FILE" >&2
  usage
  exit 2
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "running Table 1 (fault latencies)..."
"$BUILD/bench/bench_table1_fault_latency" --json="$tmp/table1.json" > "$tmp/table1.txt"
echo "running Table 2 (file transfer rates)..."
"$BUILD/bench/bench_table2_file_transfer" --json="$tmp/table2.json" > "$tmp/table2.txt"
echo "running Figure 10 (write-fault scaling + mesh sweep)..."
"$BUILD/bench/bench_fig10_write_fault_scaling" --json="$tmp/fig10.json" > "$tmp/fig10.txt"
echo "running simcore scheduler shapes (wheel vs. reference heap)..."
"$BUILD/bench/bench_simcore" --benchmark_filter=NONE --json="$tmp/simcore.json" > "$tmp/simcore.txt"
echo "running sharded sweep (storm shards=1/2/4/8 + per-workload shards=1/4)..."
"$BUILD/bench/bench_sharded_speedup" --json="$tmp/sharded.json" > "$tmp/sharded.txt"
echo "running failover recovery (kill-manager + rolling-restart)..."
"$BUILD/bench/bench_failover" --json="$tmp/failover.json" > "$tmp/failover.txt"

python3 - "$tmp" "$OUT" <<'PYEOF'
import json
import sys

tmp, out = sys.argv[1], sys.argv[2]
report = {"schema": "asvm-bench-report/v1", "benches": {}}
for part in ("table1", "table2", "fig10", "simcore", "sharded", "failover"):
    with open(f"{tmp}/{part}.json") as f:
        doc = json.load(f)
    report["benches"][doc["bench"]] = doc["metrics"]
with open(out, "w") as f:
    json.dump(report, f, indent=2, sort_keys=True)
    f.write("\n")
n = sum(len(m) for m in report["benches"].values())
print(f"wrote {out}: {len(report['benches'])} benches, {n} metrics")
PYEOF

if [ "$CHECK" = 1 ]; then
  python3 - "$OUT" "$BASELINE" "$TOLERANCE" "$SPEEDUP_FLOOR" "$SHARD_SPEEDUP_FLOOR" <<'PYEOF'
import json
import sys

out, baseline_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])
speedup_floor = float(sys.argv[4])
shard_floor = float(sys.argv[5])
with open(out) as f:
    current = json.load(f)
with open(baseline_path) as f:
    baseline = json.load(f)

failures = []
checked = 0
for bench, metrics in baseline["benches"].items():
    cur_metrics = current["benches"].get(bench)
    if cur_metrics is None:
        failures.append(f"{bench}: missing from current report")
        continue
    for name, entry in metrics.items():
        cur = cur_metrics.get(name)
        if cur is None:
            failures.append(f"{bench}/{name}: metric disappeared")
            continue
        old, new = entry["value"], cur["value"]
        checked += 1
        if old == 0:
            if new != 0:
                failures.append(f"{bench}/{name}: {old} -> {new}")
            continue
        drift = abs(new - old) / abs(old)
        if drift > tol:
            failures.append(
                f"{bench}/{name}: {old:.4g} -> {new:.4g} ({drift * 100:.1f}% drift)")

# Scheduler speedup gate: the queue-bound shapes must keep the wheel ahead
# of the reference heap by at least the floor. The ring-lane post_chain shape
# and the small-queue exponential shape run near parity by design and only
# need to stay in the same league.
relaxed = {"shape.post_chain.speedup": 0.6, "shape.exponential_arrivals.speedup": 1.0}
simcore = current["benches"].get("simcore", {})
speedups = {k: v for k, v in simcore.items() if k.endswith(".speedup")}
if not speedups:
    failures.append("simcore: no scheduler speedup metrics in report")
for name, entry in speedups.items():
    floor = relaxed.get(name, speedup_floor)
    checked += 1
    if entry["value"] < floor:
        failures.append(
            f"simcore/{name}: wheel/heap speedup {entry['value']:.2f}x "
            f"below floor {floor:.2f}x")

# Sharded-core gate: at 4 shards the storm must beat single-threaded by the
# floor on all three DSMs, and every sharded digest — the storm shapes AND the
# per-workload sweep — must be identical to shards=1 (a fast sharded run with
# a different timeline is a bug, not a win). The digest gate always applies;
# the wall-clock floor only makes sense when the host actually has cores to
# parallelize over (CI runners do — a 1-core dev container cannot show
# parallel speedup, only barrier overhead), and it only applies to the
# queue-bound storm — the per-workload speedup columns are informational.
import os
sharded = current["benches"].get("sharded_speedup", {})
if not sharded:
    failures.append("sharded_speedup: bench missing from report")
gate_speedup = (os.cpu_count() or 1) >= 4
if not gate_speedup:
    print(f"note: host has {os.cpu_count()} CPU(s) — sharded speedup floor skipped "
          "(digest identity still enforced)")
if gate_speedup:
    for dsm in ("asvm", "xmm", "ivy"):
        entry = sharded.get(f"storm.{dsm}.shards4.speedup")
        checked += 1
        if entry is None:
            failures.append(f"sharded_speedup/storm.{dsm}.shards4.speedup: missing")
        elif entry["value"] < shard_floor:
            failures.append(
                f"sharded_speedup/storm.{dsm}.shards4.speedup: "
                f"{entry['value']:.2f}x below floor {shard_floor:.2f}x")
digests = {k: v for k, v in sharded.items() if k.endswith(".digest_match")}
# 2 storm shapes + 5 workloads, each on all three DSMs.
if len(digests) < 21:
    failures.append(
        f"sharded_speedup: only {len(digests)} digest_match metrics (expected 21)")
for name, entry in digests.items():
    checked += 1
    if entry["value"] != 1:
        failures.append(
            f"sharded_speedup/{name}: sharded timeline diverged from shards=1")

# IVY chain gate: a dropped forward means a request orbited a probable-owner
# hint cycle until the hop ceiling killed it — always a protocol bug. And the
# longest observed chain must stay far under that ceiling (4x node count):
# path compression is supposed to keep walks to a handful of hops, so a chain
# past 8 on these shapes means compression stopped working.
dropped = {k: v for k, v in sharded.items() if k.endswith(".ivy.dropped_forwards")}
chains = {k: v for k, v in sharded.items() if k.endswith(".ivy.chain_length_max")}
# 2 storm shapes + 5 workloads.
if len(dropped) < 7 or len(chains) < 7:
    failures.append(
        f"sharded_speedup: only {len(dropped)} dropped_forwards / "
        f"{len(chains)} chain_length_max IVY metrics (expected 7 each)")
for name, entry in dropped.items():
    checked += 1
    if entry["value"] != 0:
        failures.append(
            f"sharded_speedup/{name}: {entry['value']:g} request(s) hit the hop "
            "ceiling (hint cycle)")
for name, entry in chains.items():
    checked += 1
    if entry["value"] > 8:
        failures.append(
            f"sharded_speedup/{name}: longest probable-owner chain "
            f"{entry['value']:g} hops exceeds bound 8 (path compression broken?)")

# Failover gate: the recovery bench must observe exactly one promotion per
# kill and one restart per rolling restart on each DSM — zero means the
# recovery path silently stopped firing, more means a split-brain double
# promotion. IVY has no manager to promote: its kill-manager recovery is an
# ownership reclaim (>= 1, the victim's untouched pages are reclaimed by
# whoever touches them first), gated alongside. Latency drift is handled by
# the baseline diff above.
failover = current["benches"].get("failover", {})
if not failover:
    failures.append("failover: bench missing from report")
for name in ("promotions.asvm", "promotions.xmm",
             "restarts.asvm", "restarts.xmm", "restarts.ivy"):
    entry = failover.get(name)
    checked += 1
    if entry is None:
        failures.append(f"failover/{name}: missing")
    elif entry["value"] != 1:
        failures.append(f"failover/{name}: expected exactly 1, got {entry['value']:g}")
reclaims = failover.get("reclaims.ivy")
checked += 1
if reclaims is None:
    failures.append("failover/reclaims.ivy: missing")
elif reclaims["value"] < 1:
    failures.append("failover/reclaims.ivy: expected >= 1, got "
                    f"{reclaims['value']:g} — owner reclaim never fired")

# Gossip gate: a bystander whose op is cancelled by the death notice must
# recover measurably faster than one that serves out its own retry horizon,
# on every DSM; and the notice counter must fire exactly when enabled.
for dsm in ("asvm", "xmm", "ivy"):
    entry = failover.get(f"death_notice_speedup.{dsm}")
    checked += 1
    if entry is None:
        failures.append(f"failover/death_notice_speedup.{dsm}: missing")
    elif entry["value"] < 1.2:
        failures.append(
            f"failover/death_notice_speedup.{dsm}: gossip speedup "
            f"{entry['value']:.2f}x below floor 1.20x")
    on = failover.get(f"death_notices.on.{dsm}")
    off = failover.get(f"death_notices.off.{dsm}")
    checked += 2
    if on is None or on["value"] < 1:
        failures.append(f"failover/death_notices.on.{dsm}: expected >= 1")
    if off is None or off["value"] != 0:
        failures.append(f"failover/death_notices.off.{dsm}: expected exactly 0")

print(f"checked {checked} metrics against {baseline_path} (tolerance {tol * 100:.0f}%)")
if failures:
    print(f"PERF REGRESSION: {len(failures)} metric(s) outside tolerance:")
    for f_ in failures:
        print(f"  {f_}")
    sys.exit(1)
print("all metrics within tolerance")
PYEOF
fi
