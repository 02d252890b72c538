// The sharded-core headline contract (DESIGN.md §13): running the cluster
// split across N worker threads must reproduce the single-threaded timeline
// *byte for byte* — same read values, same completion times, same traffic
// counters, same trace JSON. Conservative lookahead plus deterministic
// (send_time, source node, seq) mailbox ordering — and the same ordering rule
// for cluster mutations applied at inter-window barriers — makes shard count
// a pure performance knob, never an observable one, for every workload:
// coherency storms, the application kernels, the mapped-file benches, and
// fork chains that rewrite the DSM directory mid-run.
//
// Note on configs: the DeterminismTest goldens use the default
// nodes_per_io_group=32, which puts a 6-node machine in one io-group — one
// shard block, so shards>1 is rejected. These tests shrink the io-group so a
// small machine has several blocks; that changes the disk population (and so
// the timeline), which is why they compare shard counts against each other
// rather than against the goldens.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/sor.h"
#include "src/common/rng.h"
#include "src/common/trace.h"
#include "src/core/machine.h"
#include "src/core/measure.h"
#include "src/dsm/failover.h"
#include "src/em3d/em3d.h"
#include "src/mappedfs/file_bench.h"
#include "src/mesh/fault_plan.h"

namespace asvm {
namespace {

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

// The DeterminismTest digest workload (6 nodes, Rng(1234), 200 mixed ops),
// with shard count and io-group size as knobs, optionally capturing the
// Chrome trace JSON of the whole run.
uint64_t CoherencyDigest(DsmKind kind, int shards, int nodes_per_io_group,
                         std::string* trace_json = nullptr,
                         SchedulerKind scheduler = SchedulerKind::kTimerWheel) {
  MachineConfig config;
  config.nodes = 6;
  config.dsm = kind;
  config.shards = shards;
  config.nodes_per_io_group = nodes_per_io_group;
  config.scheduler = scheduler;
  Machine machine(config);
  TraceBuffer trace(1 << 20);  // large enough that nothing is ever evicted
  if (trace_json != nullptr) {
    machine.AttachMonitor(&trace);
  }
  MemObjectId region = machine.CreateSharedRegion(0, 32);
  std::vector<TaskMemory*> mems;
  for (NodeId n = 0; n < 6; ++n) {
    mems.push_back(&machine.MapRegion(n, region));
  }
  Rng rng(1234);
  uint64_t digest = 14695981039346656037ULL;
  for (int i = 0; i < 200; ++i) {
    const NodeId node = static_cast<NodeId>(rng.NextBelow(6));
    const VmOffset addr = rng.NextBelow(32) * 8192;
    if (rng.NextBool(0.5)) {
      auto w = mems[node]->WriteU64(addr, static_cast<uint64_t>(i));
      machine.Run();
    } else {
      auto r = mems[node]->ReadU64(addr);
      machine.Run();
      digest = Fnv1a(digest, r.ready() ? r.value() : ~0ULL);
    }
    digest = Fnv1a(digest, static_cast<uint64_t>(machine.Now()));
  }
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.stats().Get("mesh.messages")));
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.stats().Get("mesh.bytes")));
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.stats().Get("vm.faults")));
  if (trace_json != nullptr) {
    *trace_json = ChromeTraceJson(trace);
  }
  return digest;
}

TEST(ShardedDeterminismTest, SixNodeTimelineMatchesAcrossShardCounts) {
  for (DsmKind kind : {DsmKind::kAsvm, DsmKind::kXmm, DsmKind::kIvy}) {
    // nodes_per_io_group=2 gives three shard blocks on six nodes.
    const uint64_t single = CoherencyDigest(kind, 1, 2);
    for (int shards : {2, 3}) {
      EXPECT_EQ(CoherencyDigest(kind, shards, 2), single)
          << ToString(kind) << " diverged at shards=" << shards;
    }
  }
}

TEST(ShardedDeterminismTest, TraceJsonIsByteIdenticalAcrossShardCounts) {
  for (DsmKind kind : {DsmKind::kAsvm, DsmKind::kXmm, DsmKind::kIvy}) {
    std::string single, sharded;
    const uint64_t d1 = CoherencyDigest(kind, 1, 2, &single);
    const uint64_t d3 = CoherencyDigest(kind, 3, 2, &sharded);
    EXPECT_EQ(d1, d3);
    // EXPECT_TRUE rather than EXPECT_EQ: a mismatch should not print two
    // multi-megabyte JSON blobs.
    EXPECT_TRUE(single == sharded)
        << ToString(kind) << ": trace JSON differs (" << single.size() << " vs "
        << sharded.size() << " bytes)";
    EXPECT_GT(single.size(), 1000u);
  }
}

// A 256-node concurrent write-fault storm — the parallel workload class the
// sharded core exists for. Every writer's own region is homed on the opposite
// half of the machine, so nearly every fault crosses shard boundaries, and
// all faults are in flight before the single drain.
uint64_t StormDigest(DsmKind kind, int shards) {
  MachineConfig config;
  config.nodes = 256;
  config.dsm = kind;
  config.shards = shards;  // default nodes_per_io_group=32 → 8 blocks
  Machine machine(config);
  machine.cluster().set_event_limit(20'000'000);
  constexpr int kWriters = 32;
  constexpr int kPages = 4;
  std::vector<TaskMemory*> mems;
  for (int w = 0; w < kWriters; ++w) {
    const NodeId writer = static_cast<NodeId>(w * 8);
    const NodeId home = static_cast<NodeId>((w * 8 + 128) % 256);
    MemObjectId region = machine.CreateSharedRegion(home, kPages);
    mems.push_back(&machine.MapRegion(writer, region));
  }
  std::vector<Future<Status>> writes;
  for (int w = 0; w < kWriters; ++w) {
    for (int p = 0; p < kPages; ++p) {
      writes.push_back(mems[w]->WriteU64(static_cast<VmOffset>(p) * 8192,
                                         static_cast<uint64_t>(w * 100 + p)));
    }
  }
  machine.Run();
  uint64_t digest = 14695981039346656037ULL;
  for (const auto& w : writes) {
    digest = Fnv1a(digest, w.ready() && IsOk(w.value()) ? 1 : 0);
  }
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.Now()));
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.stats().Get("mesh.messages")));
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.stats().Get("mesh.bytes")));
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.stats().Get("vm.faults")));
  return digest;
}

TEST(ShardedDeterminismTest, ConcurrentStormMatchesAcrossShardCounts) {
  for (DsmKind kind : {DsmKind::kAsvm, DsmKind::kXmm, DsmKind::kIvy}) {
    const uint64_t single = StormDigest(kind, 1);
    for (int shards : {2, 4, 8}) {
      EXPECT_EQ(StormDigest(kind, shards), single)
          << ToString(kind) << " storm diverged at shards=" << shards;
    }
  }
}

TEST(ShardedDeterminismTest, ShardedRunsAgreeAcrossSchedulerKinds) {
  // The per-shard engines honor the (time, seq) contract under either
  // scheduler core, so shard count and scheduler kind must commute: the heap
  // oracle sharded 3 ways reproduces the single-threaded wheel timeline.
  for (DsmKind kind : {DsmKind::kAsvm, DsmKind::kXmm, DsmKind::kIvy}) {
    const uint64_t wheel1 =
        CoherencyDigest(kind, 1, 2, nullptr, SchedulerKind::kTimerWheel);
    EXPECT_EQ(CoherencyDigest(kind, 3, 2, nullptr, SchedulerKind::kReference), wheel1)
        << ToString(kind) << ": sharded heap oracle diverged from the wheel";
    EXPECT_EQ(CoherencyDigest(kind, 1, 2, nullptr, SchedulerKind::kReference), wheel1)
        << ToString(kind) << ": single-threaded heap oracle diverged from the wheel";
  }
}

TEST(ShardedDeterminismTest, ShardedRunsAreThemselvesBitStable) {
  // Two sharded runs must agree with each other (thread timing must not leak
  // into the timeline) — this is the test TSan runs hammer.
  EXPECT_EQ(CoherencyDigest(DsmKind::kAsvm, 3, 2), CoherencyDigest(DsmKind::kAsvm, 3, 2));
  EXPECT_EQ(StormDigest(DsmKind::kXmm, 4), StormDigest(DsmKind::kXmm, 4));
}

TEST(ShardedDeterminismTest, ShardRequestsAboveBlockCountClamp) {
  // Only 3 io-group blocks exist on 6 nodes with nodes_per_io_group=2, so a
  // request for 4 shards clamps to 3 — and, the timeline being byte-identical
  // at every shard count, produces exactly the shards=1 digest.
  MachineConfig config;
  config.nodes = 6;
  config.shards = 4;
  config.nodes_per_io_group = 2;
  Machine machine(config);
  EXPECT_EQ(machine.cluster().shards(), 3);
  EXPECT_EQ(CoherencyDigest(DsmKind::kAsvm, 4, 2), CoherencyDigest(DsmKind::kAsvm, 1, 2));
}

// --- Whole-workload matrix --------------------------------------------------------
//
// Every CLI workload, both DSMs, shards {2, 4, 8}: digest folds the workload's
// own observable results (times, rates, read-back values), the machine clock,
// the traffic counters, and the full Chrome trace JSON — so equality means the
// sharded run is indistinguishable from the single-threaded one.

uint64_t FoldString(uint64_t h, const std::string& s) {
  for (char c : s) {
    h = Fnv1a(h, static_cast<uint64_t>(static_cast<unsigned char>(c)));
  }
  return h;
}

uint64_t WorkloadDigest(DsmKind kind, const std::string& workload, int shards) {
  MachineConfig config;
  config.nodes = 8;
  config.dsm = kind;
  config.shards = shards;
  config.nodes_per_io_group = 1;  // 8 blocks: shards up to 8 are real
  Machine machine(config);
  machine.cluster().set_event_limit(30'000'000);
  TraceBuffer trace(1 << 20);
  machine.AttachMonitor(&trace);

  uint64_t digest = 14695981039346656037ULL;
  if (workload == "em3d") {
    Em3dParams params;
    params.cells = 256;
    params.iterations = 2;
    Em3dResult r = RunEm3dTimed(machine, params, 8, /*measure_iters=*/2);
    digest = Fnv1a(digest, std::bit_cast<uint64_t>(r.seconds));
    digest = Fnv1a(digest, static_cast<uint64_t>(r.faults));
  } else if (workload == "sor") {
    SorParams params;
    params.rows = 16;
    params.cols = 16;
    params.iterations = 2;
    SorResult r = RunSorTimed(machine, params, 8, /*measure_iters=*/2);
    digest = Fnv1a(digest, std::bit_cast<uint64_t>(r.seconds));
    digest = Fnv1a(digest, static_cast<uint64_t>(r.faults));
  } else if (workload == "file-read" || workload == "file-write") {
    const bool write = workload == "file-write";
    const VmSize pages = 21;
    MemObjectId region;
    if (write) {
      region = machine.CreateMappedFile("t", pages, /*prefilled=*/false);
    } else {
      int32_t file_id = machine.cluster().file_pager().CreateFile("t", pages, true);
      region = machine.dsm().CreateFileRegion(file_id, pages);
    }
    FileBenchResult r =
        write ? RunParallelFileWrite(machine, region, pages, 7, /*first_node=*/1)
              : RunParallelFileRead(machine, region, pages, 7, /*first_node=*/1);
    for (double secs : r.node_seconds) {
      digest = Fnv1a(digest, std::bit_cast<uint64_t>(secs));
    }
    digest = Fnv1a(digest, std::bit_cast<uint64_t>(r.makespan_seconds));
  } else if (workload == "fork-chain") {
    constexpr int kChain = 3;
    constexpr VmOffset kPages = 4;
    TaskMemory& origin = machine.CreatePrivateTask(0, kPages);
    for (VmOffset p = 0; p < kPages; ++p) {
      auto w = origin.WriteU64(p * machine.page_size(), 500 + p);
      machine.Run();
      EXPECT_TRUE(w.ready() && IsOk(w.value()));
    }
    TaskMemory* current = &origin;
    for (int hop = 1; hop <= kChain; ++hop) {
      auto fork = machine.RemoteFork(hop - 1, *current, hop);
      machine.Run();
      EXPECT_TRUE(fork.ready());
      current = &machine.WrapMap(hop, fork.value());
    }
    for (VmOffset p = 0; p < kPages; ++p) {
      uint64_t v = 0;
      const double ms = MeasureReadMs(machine, *current, p * machine.page_size(), &v);
      EXPECT_EQ(v, 500 + p);
      digest = Fnv1a(digest, v);
      digest = Fnv1a(digest, std::bit_cast<uint64_t>(ms));
    }
  } else {
    ADD_FAILURE() << "unknown workload " << workload;
  }

  digest = Fnv1a(digest, static_cast<uint64_t>(machine.Now()));
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.stats().Get("mesh.messages")));
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.stats().Get("mesh.bytes")));
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.stats().Get("vm.faults")));
  digest = FoldString(digest, ChromeTraceJson(trace));
  return digest;
}

class WorkloadMatrixTest : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadMatrixTest, TimelineMatchesAcrossShardCounts) {
  const std::string workload = GetParam();
  for (DsmKind kind : {DsmKind::kAsvm, DsmKind::kXmm, DsmKind::kIvy}) {
    const uint64_t single = WorkloadDigest(kind, workload, 1);
    for (int shards : {2, 4, 8}) {
      EXPECT_EQ(WorkloadDigest(kind, workload, shards), single)
          << workload << " under " << ToString(kind) << " diverged at shards=" << shards;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadMatrixTest,
                         ::testing::Values("em3d", "sor", "file-read", "file-write",
                                           "fork-chain"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// --- Failover regime --------------------------------------------------------------
//
// The hardest ordering regime: the kill-manager profile removes node 0 mid-run
// and every surviving origin independently detects the silence, races to
// enqueue the promotion mutation, and replays its request against the new
// manager. The mutation-at-barrier rule must make all of that — detection
// order, the single winning promotion, reissues, shadow reconstruction —
// byte-identical at every shard count, down to the Chrome trace JSON.

struct FailoverDigest {
  uint64_t digest = 0;
  std::string stats;       // text dump of every failover/fault counter
  std::string trace_json;  // full Chrome trace of the run
};

FailoverDigest KillManagerDigest(DsmKind kind, int shards) {
  MachineConfig config;
  config.nodes = 8;
  config.dsm = kind;
  config.shards = shards;
  config.nodes_per_io_group = 2;  // 4 shard blocks: shards up to 4 are real
  EXPECT_TRUE(FaultProfileFromName("kill-manager", 1, config.nodes, &config.fault));
  config.retry.timeout_ns = 2 * kMillisecond;
  config.failover.enabled = true;
  Machine machine(config);
  TraceBuffer trace(1 << 20);
  machine.AttachMonitor(&trace);

  constexpr VmSize kPages = 6;
  MemObjectId region = machine.CreateSharedRegion(0, kPages);
  std::vector<TaskMemory*> mems;
  for (NodeId n = 0; n < 8; ++n) {
    mems.push_back(&machine.MapRegion(n, region));
  }

  uint64_t digest = 14695981039346656037ULL;
  // Healthy phase: survivors spread ownership and copies around.
  for (VmSize p = 0; p < kPages; ++p) {
    const VmOffset addr = p * machine.page_size();
    auto w = mems[1 + p % 7]->WriteU64(addr, 4000 + p);
    machine.Run();
    auto r = mems[1 + (p + 2) % 7]->ReadU64(addr);
    machine.Run();
    digest = Fnv1a(digest, r.ready() ? r.value() : ~0ULL);
    digest = Fnv1a(digest, static_cast<uint64_t>(machine.Now()));
  }
  // Cross the kill at 200 ms, then read and write through the promotion.
  machine.engine().Schedule(200 * kMillisecond + kMillisecond - machine.Now(), []() {});
  machine.Run();
  for (VmSize p = 0; p < kPages; ++p) {
    const VmOffset addr = p * machine.page_size();
    auto r = mems[1 + (p + 4) % 7]->ReadU64(addr);
    machine.Run();
    digest = Fnv1a(digest, r.ready() ? r.value() : ~0ULL);
    auto w = mems[1 + (p + 5) % 7]->WriteU64(addr, 5000 + p);
    machine.Run();
    digest = Fnv1a(digest, static_cast<uint64_t>(machine.Now()));
  }

  FailoverDigest out;
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.Now()));
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.stats().Get("mesh.messages")));
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.stats().Get("mesh.bytes")));
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.stats().Get("vm.faults")));
  for (const char* stat :
       {kStatPromotions, kStatShadowUpdates, kStatLeaseReclaims, kStatReconstructedPages,
        kStatReissues, kStatIvyChainCuts, kStatIvyOwnerReclaims, kStatIvyHarvestedPages,
        "dsm.op_node_down", "dsm.op_timeouts", "dsm.op_retries",
        "dsm.duplicates_suppressed", "fault.messages_dropped",
        "fault.messages_dropped.node0"}) {
    out.stats += std::string(stat) + "=" +
                 std::to_string(machine.stats().Get(stat)) + "\n";
  }
  out.trace_json = ChromeTraceJson(trace);
  out.digest = FoldString(FoldString(digest, out.stats), out.trace_json);
  if (kind == DsmKind::kIvy) {
    // IVY has no manager to promote. In this workload every page's ownership
    // migrated off the victim before it died, so recovery is detecting the
    // corpse (op_node_down) and repairing the chains through it; a reclaim
    // only happens when the victim still owned a page.
    EXPECT_GE(machine.stats().Get(kStatIvyOwnerReclaims) +
                  machine.stats().Get("dsm.op_node_down"),
              1)
        << ToString(kind) << " at shards=" << shards;
  } else {
    EXPECT_GE(machine.stats().Get(kStatPromotions), 1)
        << ToString(kind) << " at shards=" << shards;
  }
  return out;
}

TEST(ShardedDeterminismTest, KillManagerRecoveryMatchesAcrossShardCounts) {
  for (DsmKind kind : {DsmKind::kAsvm, DsmKind::kXmm, DsmKind::kIvy}) {
    const FailoverDigest single = KillManagerDigest(kind, 1);
    for (int shards : {2, 4}) {
      const FailoverDigest sharded = KillManagerDigest(kind, shards);
      EXPECT_EQ(sharded.stats, single.stats)
          << ToString(kind) << ": failover counters diverged at shards=" << shards;
      EXPECT_TRUE(sharded.trace_json == single.trace_json)
          << ToString(kind) << ": recovery trace JSON differs at shards=" << shards
          << " (" << single.trace_json.size() << " vs " << sharded.trace_json.size()
          << " bytes)";
      EXPECT_EQ(sharded.digest, single.digest)
          << ToString(kind) << " recovery diverged at shards=" << shards;
    }
  }
}

// --- Mutation-ordering unit test --------------------------------------------------

TEST(ClusterMutateTest, SameTimestampMutationsApplyInNodeSeqOrder) {
  // Four mutations enqueued from driver context (all engines at t=0) out of
  // node order must apply in (origin node, per-origin seq) order — the rule
  // that makes the apply sequence identical at every shard count.
  for (int shards : {1, 3}) {
    MachineConfig config;
    config.nodes = 6;
    config.shards = shards;
    config.nodes_per_io_group = 2;
    Machine machine(config);
    Cluster& cluster = machine.cluster();
    std::vector<int> log;
    cluster.Mutate(4, [&log]() { log.push_back(40); });
    cluster.Mutate(0, [&log]() { log.push_back(1); });
    cluster.Mutate(2, [&log]() { log.push_back(20); });
    cluster.Mutate(0, [&log]() { log.push_back(2); });
    machine.Run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 20, 40})) << "at shards=" << shards;
  }
}

// --- Fabric tie-order unit test ----------------------------------------------------

TEST(ClusterFabricTest, SameInstantSendsReplayInSourceOrderAtEveryShardCount) {
  // Nodes 3 and 1 both send to node 0 from events at t=0, node 3's event
  // scheduled first. The two records carry the same send time, so the replay
  // key (send_time, source node, seq) admits node 1's first into the fabric
  // at every shard count — not whichever event the engine happened to run
  // first. Node 1 is one hop from node 0 and node 3 two, so the order shows
  // in the delivery times.
  using Log = std::vector<std::pair<NodeId, SimTime>>;
  auto run = [](int shards) {
    ClusterParams params;
    params.node_count = 4;
    params.nodes_per_io_group = 2;
    params.shards = shards;
    Cluster cluster(params);
    Log log;
    cluster.sts().RegisterHandler(ProtocolId::kIvy, 0, [&](NodeId src, Message&) {
      log.emplace_back(src, cluster.engine_for(0).Now());
    });
    for (NodeId src : {3, 1}) {
      cluster.engine_for(src).Schedule(0, [&cluster, src]() {
        auto msg = std::make_unique<Message>();
        msg->protocol = ProtocolId::kIvy;
        cluster.sts().Send(src, 0, std::move(msg));
      });
    }
    cluster.Run();
    return log;
  };
  const Log single = run(1);
  EXPECT_EQ(single, (Log{{1, 500'700}, {3, 750'700}}));
  EXPECT_EQ(run(2), single);
}

}  // namespace
}  // namespace asvm
