// Cluster assembly: node/VM wiring, I/O groups, file pagers, and parameter
// plumbing from MachineConfig down to the per-node components.
#include <gtest/gtest.h>

#include "src/core/machine.h"
#include "src/dsm/cluster.h"

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
  cluster.sts().RegisterHandler(ProtocolId::kPagerControl, 2,
                                [&](NodeId, Message) { delivered = true; });
  Message msg;
  msg.protocol = ProtocolId::kPagerControl;
  cluster.sts().Send(0, 2, std::move(msg));
  cluster.Run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(cluster.stats().Get("transport.sts.messages"), 1);
  EXPECT_EQ(cluster.stats().Get("mesh.messages"), 1);
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
