// Cluster assembly: node/VM wiring, I/O groups, file pagers, and parameter
// plumbing from MachineConfig down to the per-node components.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/core/machine.h"
#include "src/dsm/cluster.h"
#include "src/machvm/page.h"

namespace asvm {
namespace {

TEST(ClusterTest, BuildsRequestedNodeCount) {
  ClusterParams params;
  params.node_count = 7;
  Cluster cluster(params);
  EXPECT_EQ(cluster.node_count(), 7);
  for (NodeId n = 0; n < 7; ++n) {
    EXPECT_EQ(cluster.vm(n).node(), n);
    EXPECT_EQ(cluster.vm(n).default_pager(), &cluster.default_pager(n));
  }
}

TEST(ClusterTest, OneDiskPerIoGroup) {
  ClusterParams params;
  params.node_count = 70;
  params.nodes_per_io_group = 32;
  Cluster cluster(params);
  // Nodes 0..31 share one paging disk, 32..63 the next, 64..69 the third.
  EXPECT_EQ(&cluster.paging_disk(0), &cluster.paging_disk(31));
  EXPECT_NE(&cluster.paging_disk(31), &cluster.paging_disk(32));
  EXPECT_NE(&cluster.paging_disk(63), &cluster.paging_disk(64));
}

TEST(ClusterTest, FilePagerCountClampsToNodes) {
  ClusterParams params;
  params.node_count = 2;
  params.file_pager_count = 8;
  Cluster cluster(params);
  EXPECT_EQ(cluster.file_pager_count(), 2);
  EXPECT_EQ(cluster.file_pager(0).node(), 0);
  EXPECT_EQ(cluster.file_pager(1).node(), 1);
}

TEST(ClusterTest, VmParamsReachNodes) {
  ClusterParams params;
  params.node_count = 2;
  params.vm.page_size = 4096;
  params.vm.frame_capacity = 99;
  Cluster cluster(params);
  EXPECT_EQ(cluster.vm(0).page_size(), 4096u);
  EXPECT_EQ(cluster.vm(1).frames_capacity(), 99u);
}

TEST(ClusterTest, TransportsShareOneEngineAndStats) {
  ClusterParams params;
  params.node_count = 3;
  Cluster cluster(params);
  bool delivered = false;
  cluster.sts().RegisterHandler(ProtocolId::kXmm, 2, [&](NodeId, Message&) { delivered = true; });
  auto msg = std::make_unique<Message>();  // tag-only: a monostate body
  msg->protocol = ProtocolId::kXmm;
  cluster.sts().Send(0, 2, std::move(msg));
  cluster.Run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(cluster.stats().Get("transport.sts.messages"), 1);
  EXPECT_EQ(cluster.stats().Get("mesh.messages"), 1);
}

TEST(ClusterTest, EnvelopesCrossShardsAsTheSendersBox) {
  // Node 0 (shard 0) and node 3 (shard 1) play ping-pong with page-carrying
  // messages. Each handler reads the very box its peer gave Send, on the
  // other shard's thread, and that thread frees the box and its page.
  ClusterParams params;
  params.node_count = 4;
  params.nodes_per_io_group = 2;
  params.shards = 2;
  Cluster cluster(params);
  ASSERT_NE(&cluster.engine_for(0), &cluster.engine_for(3));
  constexpr int kRounds = 8;
  const Message* sent = nullptr;
  int delivered = 0;
  auto send = [&](NodeId src, NodeId dst) {
    auto msg = std::make_unique<Message>();
    msg->protocol = ProtocolId::kXmm;
    msg->page = AllocPage(cluster.page_size());
    sent = msg.get();
    cluster.sts().Send(src, dst, std::move(msg));
  };
  for (NodeId node : {0, 3}) {
    cluster.sts().RegisterHandler(ProtocolId::kXmm, node, [&, node](NodeId src, Message& msg) {
      EXPECT_EQ(&msg, sent);
      EXPECT_EQ(msg.page->size(), cluster.page_size());
      if (++delivered < kRounds) {
        send(node, src);
      }
    });
  }
  cluster.engine_for(0).Schedule(0, [&] { send(0, 3); });
  cluster.Run();
  EXPECT_EQ(delivered, kRounds);
  EXPECT_EQ(cluster.stats().Get("mesh.messages"), kRounds);
}

// --- Stall watchdog ------------------------------------------------------------

TEST(ClusterStallTest, SilentWhenNoProbeReportsBlockedWork) {
  Cluster cluster(ClusterParams{});
  std::string stall;
  cluster.SetStallHandler([&](const std::string& report) { stall = report; });
  cluster.AddStallProbe([](std::string&) { return false; });
  cluster.engine().Schedule(10, []() {});
  cluster.Run();
  EXPECT_TRUE(stall.empty());
  EXPECT_EQ(cluster.stalls_detected(), 0u);
}

TEST(ClusterStallTest, FiresWhenMachineDrainsWithBlockedWork) {
  Cluster cluster(ClusterParams{});
  // Model an orphaned pending op: a reply that will never be scheduled. The
  // probe is the agent-side registry that still holds the entry.
  bool op_resolved = false;
  cluster.AddStallProbe([&](std::string& report) {
    if (op_resolved) {
      return false;
    }
    report += "  asvm node 3: pending op 17 (invalidate-round) awaiting 1 reply\n";
    return true;
  });
  std::string stall;
  cluster.SetStallHandler([&](const std::string& report) { stall = report; });
  cluster.engine().Schedule(5 * kMicrosecond, []() {});  // unrelated traffic; then silence
  cluster.Run();
  EXPECT_EQ(cluster.stalls_detected(), 1u);
  // The report names the culprit and the stall time.
  EXPECT_NE(stall.find("simulation stalled at t=5000 ns"), std::string::npos) << stall;
  EXPECT_NE(stall.find("pending op 17 (invalidate-round)"), std::string::npos) << stall;

  // Once the op resolves, further drains are clean.
  op_resolved = true;
  stall.clear();
  cluster.engine().Schedule(kMicrosecond, []() {});
  cluster.Run();
  EXPECT_TRUE(stall.empty());
  EXPECT_EQ(cluster.stalls_detected(), 1u);
}

TEST(ClusterStallTest, RemovedProbeNoLongerFires) {
  Cluster cluster(ClusterParams{});
  std::string stall;
  cluster.SetStallHandler([&](const std::string& report) { stall = report; });
  const int id = cluster.AddStallProbe([](std::string& report) {
    report += "  blocked\n";
    return true;
  });
  cluster.RemoveStallProbe(id);
  cluster.engine().Schedule(1, []() {});
  cluster.Run();
  EXPECT_TRUE(stall.empty());
}

TEST(ClusterStallTest, NoHandlerMeansNoChecks) {
  Cluster cluster(ClusterParams{});
  int probed = 0;
  cluster.AddStallProbe([&](std::string&) {
    ++probed;
    return true;
  });
  cluster.engine().Schedule(1, []() {});
  cluster.Run();
  EXPECT_EQ(probed, 0);  // probes only run when a handler wants the report
  EXPECT_EQ(cluster.stalls_detected(), 0u);
}

TEST(ClusterStallTest, ShardDrainingWhileAMessageIsInFlightIsNotAStall) {
  // Node 0 (shard 0) sends to node 3 (shard 1). Shard 0's queue drains while
  // the message still waits in the mailbox, so a per-engine check would call
  // the work blocked. The cluster checks only at the final drain, when the
  // message has landed.
  ClusterParams params;
  params.node_count = 4;
  params.nodes_per_io_group = 2;
  params.shards = 2;
  Cluster cluster(params);
  ASSERT_EQ(cluster.shards(), 2);
  bool delivered = false;
  cluster.sts().RegisterHandler(ProtocolId::kXmm, 3, [&](NodeId, Message&) { delivered = true; });
  cluster.AddStallProbe([&](std::string& report) {
    report += "  node 3: waiting for node 0's message\n";
    return !delivered;
  });
  int stalls = 0;
  cluster.SetStallHandler([&](const std::string&) { ++stalls; });
  cluster.engine_for(0).Schedule(0, [&cluster]() {
    auto msg = std::make_unique<Message>();
    msg->protocol = ProtocolId::kXmm;
    cluster.sts().Send(0, 3, std::move(msg));
  });
  cluster.Run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(stalls, 0);
  EXPECT_EQ(cluster.stalls_detected(), 0u);
}

TEST(MachineConfigPlumbingTest, UserMemoryTranslatesToFrames) {
  MachineConfig config;
  config.nodes = 2;
  config.page_size = 4096;
  config.user_memory_bytes = 1024 * 1024;
  Machine machine(config);
  EXPECT_EQ(machine.cluster().vm(0).frames_capacity(), 256u);
}

TEST(MachineConfigPlumbingTest, FilePagerCountReachesCluster) {
  MachineConfig config;
  config.nodes = 6;
  config.file_pager_count = 3;
  Machine machine(config);
  EXPECT_EQ(machine.cluster().file_pager_count(), 3);
}

TEST(MachineConfigPlumbingTest, AsvmConfigReachesSystem) {
  MachineConfig config;
  config.nodes = 3;
  config.dsm = DsmKind::kAsvm;
  config.asvm.dynamic_forwarding = false;
  Machine machine(config);
  auto& system = static_cast<AsvmSystem&>(machine.dsm());
  EXPECT_FALSE(system.config().dynamic_forwarding);
}

}  // namespace
}  // namespace asvm
