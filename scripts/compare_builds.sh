#!/usr/bin/env bash
# Checks that two builds of the simulator produce the same simulated events.
#
#   scripts/compare_builds.sh PARENT_BUILD [CHANGE_BUILD]
#
# PARENT_BUILD and CHANGE_BUILD are cmake build directories (CHANGE_BUILD
# defaults to ./build). Both builds run the same matrix, and every cell's
# output is diffed:
#   - asvmsim --stats --msg-stats: 6 workloads x 3 backends x shards {1, 4};
#   - fault-sweep --stats --msg-stats --fault-report: 8 fault profiles x
#     3 backends x shards {1, 4};
#   - --trace-json x 3 backends: fault-sweep healthy, kill-manager, kill-owner
#     and rolling-restart; file-read and fork-chain healthy;
#   - the --json output of ten paper benches: Tables 1 and 2, Figs 10 and 11,
#     failover, striping, and the forwarding, transport, paging and metadata
#     ablations.
# Log lines carry a "[W file.cc:LINE]" tag that moves whenever code moves, even
# between files, so the whole tag is stripped before diffing; the message text
# itself must match. Prints one line per differing cell and exits 1 if any
# cell differs, 0 otherwise.
set -u

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 PARENT_BUILD [CHANGE_BUILD]" >&2
  exit 2
fi
parent=$(cd "$1" && pwd) || exit 2
change=$(cd "${2:-build}" && pwd) || exit 2
for b in "$parent" "$change"; do
  if [[ ! -x "$b/tools/asvmsim" ]]; then
    echo "$b/tools/asvmsim not found: build both trees first" >&2
    exit 2
  fi
done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
diffs=0
cells=0

strip_tags() { sed -E 's/\[[WEI] [A-Za-z0-9_]+\.(cc|h):[0-9]+\]/[log]/'; }

# compare NAME CMD...: runs CMD (an asvmsim argument list) on both builds.
compare() {
  local name=$1
  shift
  cells=$((cells + 1))
  "$parent/tools/asvmsim" "$@" 2>&1 | strip_tags > "$work/parent.out"
  "$change/tools/asvmsim" "$@" 2>&1 | strip_tags > "$work/change.out"
  if ! cmp -s "$work/parent.out" "$work/change.out"; then
    echo "DIFF $name"
    diffs=$((diffs + 1))
  fi
}

common="--nodes=8 --io-group=1 --cells=512 --iters=2 --mb=0.5 --chain=3"

for dsm in asvm xmm ivy; do
  for sh in 1 4; do
    for wl in em3d sor file-read file-write fault-sweep fork-chain; do
      compare "stats $dsm $wl shards=$sh" --dsm=$dsm --shards=$sh --workload=$wl $common \
        --stats --msg-stats
    done
    for fp in jitter slow-node degraded-links kill-manager kill-owner kill-many cascade \
      rolling-restart; do
      compare "fault $dsm $fp shards=$sh" --dsm=$dsm --shards=$sh --workload=fault-sweep \
        $common --fault-profile=$fp --stats --msg-stats --fault-report
    done
  done
done

# trace_cell NAME ARGS...: diffs the Chrome trace JSON of one run.
trace_cell() {
  local name=$1
  shift
  cells=$((cells + 1))
  "$parent/tools/asvmsim" "$@" --trace-json="$work/parent.json" > /dev/null 2>&1
  "$change/tools/asvmsim" "$@" --trace-json="$work/change.json" > /dev/null 2>&1
  if ! cmp -s "$work/parent.json" "$work/change.json"; then
    echo "DIFF trace $name"
    diffs=$((diffs + 1))
  fi
  rm -f "$work/parent.json" "$work/change.json"
}

for dsm in asvm xmm ivy; do
  for fp in none kill-manager kill-owner rolling-restart; do
    trace_cell "$dsm fault-sweep $fp" --dsm=$dsm --workload=fault-sweep $common \
      --fault-profile=$fp
  done
  trace_cell "$dsm file-read" --dsm=$dsm --workload=file-read $common
  trace_cell "$dsm fork-chain" --dsm=$dsm --workload=fork-chain $common
done

for bench in bench_table1_fault_latency bench_table2_file_transfer \
  bench_fig10_write_fault_scaling bench_fig11_copy_chain bench_failover bench_ext_striping \
  bench_ablation_forwarding bench_ablation_transport bench_ablation_paging \
  bench_ablation_metadata; do
  cells=$((cells + 1))
  "$parent/bench/$bench" --json="$work/parent.json" > /dev/null 2>&1
  "$change/bench/$bench" --json="$work/change.json" > /dev/null 2>&1
  if ! cmp -s "$work/parent.json" "$work/change.json"; then
    echo "DIFF bench $bench"
    diffs=$((diffs + 1))
  fi
  rm -f "$work/parent.json" "$work/change.json"
done

echo "$cells cells compared, $diffs differ"
[[ $diffs -eq 0 ]]
