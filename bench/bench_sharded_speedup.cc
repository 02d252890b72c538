// Parallel-simulation speedup: a concurrent write-fault storm on a 32x32 mesh
// (the Figure 10 sweep's large configuration), run at --shards = 1, 2, 4, 8.
//
// The Table 1 / Figure 10 microbenchmarks are deliberately sequential — one
// measured fault at a time — so they cannot exercise the sharded core. This
// storm is the opposite shape: half the mesh writes concurrently, each writer
// to its own region homed across the mesh, every operation in flight before
// the single drain. That is the workload class sharding exists for, and the
// one scripts/bench_report.sh gates (>= 1.5x wall clock at 4 shards). One
// ~0.1 s sample of that ratio is noise on a shared host, so the 1024-node
// storm runs its shards=1 and shards=4 columns as interleaved pairs and
// reports the medians: the gated speedup is the median of the per-pair
// ratios.
//
// The storm also recomputes the timeline digest per shard count: the speedup
// only counts because the sharded timelines are byte-identical to shards=1
// (sharded.digest_match must be 1).
//
// A second sweep runs every CLI workload (em3d, sor, file-read, file-write,
// fork-chain) at bench scale on a 128-node machine, shards 1 vs 4. These
// shapes are not queue-bound the way the storm is — the report gates only
// their digest identity (wl_<name>.<dsm>.digest_match), while their
// shards4.speedup columns document where windowed parallelism pays off and
// where barrier overhead dominates.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/sor.h"
#include "src/core/machine.h"
#include "src/core/measure.h"
#include "src/em3d/em3d.h"
#include "src/mappedfs/file_bench.h"

namespace asvm {
namespace {

constexpr size_t kPage = 8192;

// One sweep configuration: every node writes `pages` pages of its own region,
// homed at the diagonally-opposite node. The shards=1 and shards=4 columns
// come from `pairs` interleaved (shards=1, shards=4) runs; shards=2 and 8
// run once.
struct StormShape {
  const char* name;
  int nodes;
  int pages;
  int pairs;
};
// 32x32 is the Figure 10 large mesh, and the gated one; 1792 is the paper's
// full-machine scale (its Paragon had 1792 usable nodes), run once with fewer
// pages per writer so the sweep stays a smoke, not a soak.
constexpr StormShape kShapes[] = {{"storm", 1024, 16, 5}, {"storm1792", 1792, 4, 1}};

// Median of an odd-sized sample.
double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

struct StormResult {
  uint64_t digest = 14695981039346656037ULL;
  double drain_seconds = 0;  // host wall clock of the single Run()
  int64_t windows = 0;       // barrier windows the drain took (none when shards=1:
                             // a single shard runs every window inline)
  int64_t replayed = 0;      // mailbox records replayed at barriers
  // IVY only: the longest probable-owner chain any request walked, and how
  // many requests hit the hop ceiling and were dropped. The report gates both
  // — a chain that grows with the mesh means path compression stopped
  // working, and a dropped forward means a request orbited a hint cycle.
  double ivy_chain_max = 0;
  int64_t ivy_dropped = 0;
};

StormResult RunStorm(const StormShape& shape, DsmKind kind, int shards) {
  MachineConfig config;
  config.nodes = shape.nodes;
  config.dsm = kind;
  config.shards = shards;
  Machine machine(config);
  machine.cluster().set_event_limit(50'000'000);

  // Every fault crosses the mesh, and with block-contiguous sharding most
  // cross shard boundaries. All faults are launched before the single drain,
  // so the whole storm is in flight at once: dense per-window work is what
  // the worker threads parallelize.
  const int writers = shape.nodes;
  std::vector<TaskMemory*> mems;
  mems.reserve(writers);
  for (int w = 0; w < writers; ++w) {
    const NodeId writer = static_cast<NodeId>(w);
    const NodeId home = static_cast<NodeId>((w + shape.nodes / 2) % shape.nodes);
    MemObjectId region = machine.CreateSharedRegion(home, shape.pages);
    mems.push_back(&machine.MapRegion(writer, region));
  }

  std::vector<Future<Status>> writes;
  writes.reserve(static_cast<size_t>(writers) * shape.pages);
  for (int w = 0; w < writers; ++w) {
    for (int p = 0; p < shape.pages; ++p) {
      writes.push_back(
          mems[w]->WriteU64(static_cast<VmOffset>(p) * kPage,
                            static_cast<uint64_t>(w) * 1000 + static_cast<uint64_t>(p)));
    }
  }
  const auto start = std::chrono::steady_clock::now();
  machine.Run();
  const auto end = std::chrono::steady_clock::now();

  StormResult result;
  result.drain_seconds = std::chrono::duration<double>(end - start).count();
  for (const auto& w : writes) {
    result.digest = Fnv1a(result.digest, w.ready() && IsOk(w.value()) ? 1 : 0);
  }
  result.digest = Fnv1a(result.digest, static_cast<uint64_t>(machine.Now()));
  result.digest = Fnv1a(result.digest, static_cast<uint64_t>(machine.stats().Get("mesh.messages")));
  result.digest = Fnv1a(result.digest, static_cast<uint64_t>(machine.stats().Get("mesh.bytes")));
  result.digest = Fnv1a(result.digest, static_cast<uint64_t>(machine.stats().Get("vm.faults")));
  result.windows = machine.stats().Get("sim.sharded.windows");
  result.replayed = machine.stats().Get("sim.sharded.records_replayed");
  if (kind == DsmKind::kIvy) {
    const Histogram* chains = machine.stats().FindHistogram("dsm.ivy.chain_length");
    result.ivy_chain_max = chains != nullptr && chains->count() > 0 ? chains->max() : 0;
    result.ivy_dropped = machine.stats().Get("dsm.ivy.dropped_forwards");
  }
  return result;
}

void RunSweep(BenchJson& json) {
  for (const StormShape& shape : kShapes) {
    char title[96];
    std::snprintf(title, sizeof(title),
                  "Sharded write-fault storm, %d nodes (%d writers x %d pages)", shape.nodes,
                  shape.nodes, shape.pages);
    PrintHeader(title);
    std::printf("%-8s %-8s %14s %10s %10s\n", "dsm", "shards", "drain (host s)", "speedup",
                "digest");
    for (DsmKind kind : {DsmKind::kAsvm, DsmKind::kXmm, DsmKind::kIvy}) {
      const char* tag = DsmTag(kind);
      uint64_t base_digest = 0;
      bool digests_match = true;
      // Prints one run; `speedup` is against its own pair's shards=1 run, or
      // against the shards=1 median for the single-run columns.
      auto report = [&](int shards, const StormResult& r, double speedup, const char* note) {
        digests_match = digests_match && r.digest == base_digest;
        std::printf("%-8s %-8d %14.3f %9.2fx %10s  (%lld windows, %lld replayed)%s\n", tag,
                    shards, r.drain_seconds, speedup,
                    r.digest == base_digest ? "match" : "DIVERGED",
                    static_cast<long long>(r.windows), static_cast<long long>(r.replayed), note);
      };
      char name[64];
      std::vector<double> base_seconds, sharded_seconds, ratios;
      for (int pair = 0; pair < shape.pairs; ++pair) {
        const StormResult base = RunStorm(shape, kind, 1);
        if (pair == 0) {
          base_digest = base.digest;
          if (kind == DsmKind::kIvy) {
            // Sharding cannot change these (the digest gate proves the
            // timeline is identical), so the shards=1 run speaks for all.
            std::snprintf(name, sizeof(name), "%s.ivy.chain_length_max", shape.name);
            json.Metric(name, base.ivy_chain_max);
            std::snprintf(name, sizeof(name), "%s.ivy.dropped_forwards", shape.name);
            json.Metric(name, static_cast<double>(base.ivy_dropped));
            std::printf("%-8s chain_length_max=%.0f dropped_forwards=%lld\n", tag,
                        base.ivy_chain_max, static_cast<long long>(base.ivy_dropped));
          }
        }
        const StormResult sharded = RunStorm(shape, kind, 4);
        const double ratio =
            sharded.drain_seconds > 0 ? base.drain_seconds / sharded.drain_seconds : 0;
        char note[32] = "";
        if (shape.pairs > 1) {
          std::snprintf(note, sizeof(note), "  pair %d/%d", pair + 1, shape.pairs);
        }
        report(1, base, 1.0, note);
        report(4, sharded, ratio, note);
        base_seconds.push_back(base.drain_seconds);
        sharded_seconds.push_back(sharded.drain_seconds);
        ratios.push_back(ratio);
      }
      const double base_median = Median(base_seconds);
      const double sharded_median = Median(sharded_seconds);
      const double speedup4 = Median(ratios);
      if (shape.pairs > 1) {
        std::printf("%-8s %-8s %14.3f %9.2fx %10s  (median of %d pairs; shards=1 %.3f s)\n",
                    tag, "4 med", sharded_median, speedup4, "", shape.pairs, base_median);
      }
      std::snprintf(name, sizeof(name), "%s.%s.shards1.seconds", shape.name, tag);
      json.Metric(name, base_median);
      std::snprintf(name, sizeof(name), "%s.%s.shards4.seconds", shape.name, tag);
      json.Metric(name, sharded_median);
      std::snprintf(name, sizeof(name), "%s.%s.shards4.speedup", shape.name, tag);
      json.Metric(name, speedup4);
      for (int shards : {2, 8}) {
        const StormResult r = RunStorm(shape, kind, shards);
        const double speedup = r.drain_seconds > 0 ? base_median / r.drain_seconds : 0;
        report(shards, r, speedup, "");
        std::snprintf(name, sizeof(name), "%s.%s.shards%d.seconds", shape.name, tag, shards);
        json.Metric(name, r.drain_seconds);
        std::snprintf(name, sizeof(name), "%s.%s.shards%d.speedup", shape.name, tag, shards);
        json.Metric(name, speedup);
      }
      std::snprintf(name, sizeof(name), "%s.%s.digest_match", shape.name, tag);
      json.Metric(name, digests_match ? 1 : 0);
    }
  }
}

// --- Per-workload sweep ----------------------------------------------------
//
// The whole-workload shapes from tests/sharded_determinism_test.cc, scaled to
// a 128-node machine (4 io-group blocks at the default group size, so 4 real
// shards). The digest folds the workload's own observable results plus the
// machine clock and traffic counters — equality with shards=1 means the
// sharded run is indistinguishable, not merely "close".

struct WorkloadResult {
  uint64_t digest = 14695981039346656037ULL;
  double drain_seconds = 0;  // host wall clock of the workload's drains
  // IVY only (see StormResult): the workloads here actually migrate ownership
  // around the mesh, so — unlike the storm, where every request lands on the
  // home in zero hops — these are the shapes whose chains the report's
  // bounded-chain gate has teeth on.
  double ivy_chain_max = 0;
  int64_t ivy_dropped = 0;
};

constexpr int kWlNodes = 128;  // default nodes_per_io_group=32 -> 4 blocks

WorkloadResult RunWorkload(const std::string& workload, DsmKind kind, int shards) {
  MachineConfig config;
  config.nodes = kWlNodes;
  config.dsm = kind;
  config.shards = shards;
  Machine machine(config);
  machine.cluster().set_event_limit(100'000'000);

  WorkloadResult result;
  uint64_t& digest = result.digest;
  const auto start = std::chrono::steady_clock::now();
  if (workload == "em3d") {
    Em3dParams params;
    params.cells = 16384;
    params.iterations = 3;
    Em3dResult r = RunEm3dTimed(machine, params, kWlNodes, /*measure_iters=*/3);
    digest = Fnv1a(digest, std::bit_cast<uint64_t>(r.seconds));
    digest = Fnv1a(digest, static_cast<uint64_t>(r.faults));
  } else if (workload == "sor") {
    SorParams params;
    params.rows = 256;
    params.cols = 256;
    params.iterations = 3;
    SorResult r = RunSorTimed(machine, params, kWlNodes, /*measure_iters=*/3);
    digest = Fnv1a(digest, std::bit_cast<uint64_t>(r.seconds));
    digest = Fnv1a(digest, static_cast<uint64_t>(r.faults));
  } else if (workload == "file-read" || workload == "file-write") {
    const bool write = workload == "file-write";
    const VmSize pages = 381;  // 3 pages per compute node (127 nodes, node 0 is I/O)
    MemObjectId region;
    if (write) {
      region = machine.CreateMappedFile("t", pages, /*prefilled=*/false);
    } else {
      int32_t file_id = machine.cluster().file_pager().CreateFile("t", pages, true);
      region = machine.dsm().CreateFileRegion(file_id, pages);
    }
    FileBenchResult r =
        write ? RunParallelFileWrite(machine, region, pages, kWlNodes - 1, /*first_node=*/1)
              : RunParallelFileRead(machine, region, pages, kWlNodes - 1, /*first_node=*/1);
    for (double secs : r.node_seconds) {
      digest = Fnv1a(digest, std::bit_cast<uint64_t>(secs));
    }
    digest = Fnv1a(digest, std::bit_cast<uint64_t>(r.makespan_seconds));
  } else if (workload == "fork-chain") {
    constexpr int kChain = 12;
    constexpr VmOffset kPages = 8;
    TaskMemory& origin = machine.CreatePrivateTask(0, kPages);
    for (VmOffset p = 0; p < kPages; ++p) {
      auto w = origin.WriteU64(p * machine.page_size(), 500 + p);
      machine.Run();
      digest = Fnv1a(digest, w.ready() && IsOk(w.value()) ? 1 : 0);
    }
    TaskMemory* current = &origin;
    for (int hop = 1; hop <= kChain; ++hop) {
      // Hop across io-group blocks so the fork directory writes cross shards.
      const NodeId src = static_cast<NodeId>(((hop - 1) * 11) % kWlNodes);
      const NodeId dst = static_cast<NodeId>((hop * 11) % kWlNodes);
      auto fork = machine.RemoteFork(src, *current, dst);
      machine.Run();
      current = &machine.WrapMap(dst, fork.value());
    }
    for (VmOffset p = 0; p < kPages; ++p) {
      uint64_t v = 0;
      const double ms = MeasureReadMs(machine, *current, p * machine.page_size(), &v);
      digest = Fnv1a(digest, v);
      digest = Fnv1a(digest, std::bit_cast<uint64_t>(ms));
    }
  }
  const auto end = std::chrono::steady_clock::now();
  result.drain_seconds = std::chrono::duration<double>(end - start).count();

  digest = Fnv1a(digest, static_cast<uint64_t>(machine.Now()));
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.stats().Get("mesh.messages")));
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.stats().Get("mesh.bytes")));
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.stats().Get("vm.faults")));
  if (kind == DsmKind::kIvy) {
    const Histogram* chains = machine.stats().FindHistogram("dsm.ivy.chain_length");
    result.ivy_chain_max = chains != nullptr && chains->count() > 0 ? chains->max() : 0;
    result.ivy_dropped = machine.stats().Get("dsm.ivy.dropped_forwards");
  }
  return result;
}

void RunWorkloadSweep(BenchJson& json) {
  constexpr const char* kWorkloads[] = {"em3d", "sor", "file-read", "file-write",
                                        "fork-chain"};
  char title[96];
  std::snprintf(title, sizeof(title),
                "Per-workload sharded speedup, %d nodes (shards 1 vs 4)", kWlNodes);
  PrintHeader(title);
  std::printf("%-12s %-8s %-8s %14s %10s %10s\n", "workload", "dsm", "shards",
              "drain (host s)", "speedup", "digest");
  for (const char* workload : kWorkloads) {
    for (DsmKind kind : {DsmKind::kAsvm, DsmKind::kXmm, DsmKind::kIvy}) {
      const char* tag = DsmTag(kind);
      const WorkloadResult base = RunWorkload(workload, kind, 1);
      const WorkloadResult sharded = RunWorkload(workload, kind, 4);
      const bool match = sharded.digest == base.digest;
      const double speedup =
          sharded.drain_seconds > 0 ? base.drain_seconds / sharded.drain_seconds : 0;
      std::printf("%-12s %-8s %-8d %14.3f %10s %10s\n", workload, tag, 1,
                  base.drain_seconds, "", "");
      std::printf("%-12s %-8s %-8d %14.3f %9.2fx %10s\n", workload, tag, 4,
                  sharded.drain_seconds, speedup, match ? "match" : "DIVERGED");
      char name[64];
      std::snprintf(name, sizeof(name), "wl_%s.%s.shards1.seconds", workload, tag);
      json.Metric(name, base.drain_seconds);
      std::snprintf(name, sizeof(name), "wl_%s.%s.shards4.seconds", workload, tag);
      json.Metric(name, sharded.drain_seconds);
      std::snprintf(name, sizeof(name), "wl_%s.%s.shards4.speedup", workload, tag);
      json.Metric(name, speedup);
      std::snprintf(name, sizeof(name), "wl_%s.%s.digest_match", workload, tag);
      json.Metric(name, match ? 1 : 0);
      if (kind == DsmKind::kIvy) {
        std::snprintf(name, sizeof(name), "wl_%s.ivy.chain_length_max", workload);
        json.Metric(name, base.ivy_chain_max);
        std::snprintf(name, sizeof(name), "wl_%s.ivy.dropped_forwards", workload);
        json.Metric(name, static_cast<double>(base.ivy_dropped));
        std::printf("%-12s %-8s chain_length_max=%.0f dropped_forwards=%lld\n", workload,
                    tag, base.ivy_chain_max, static_cast<long long>(base.ivy_dropped));
      }
    }
  }
}

}  // namespace
}  // namespace asvm

int main(int argc, char** argv) {
  asvm::BenchJson json(argc, argv);
  asvm::RunSweep(json);
  asvm::RunWorkloadSweep(json);
  return json.Write("sharded_speedup") ? 0 : 1;
}
