#include <gtest/gtest.h>

#include <vector>

#include "src/common/stats.h"
#include "src/mesh/fault_plan.h"
#include "src/mesh/network.h"
#include "src/mesh/topology.h"

namespace asvm {
namespace {

TEST(TopologyTest, RowMajorCoordinates) {
  Topology topo(4, 3);
  EXPECT_EQ(topo.node_count(), 12);
  EXPECT_EQ(topo.XOf(0), 0);
  EXPECT_EQ(topo.YOf(0), 0);
  EXPECT_EQ(topo.XOf(5), 1);
  EXPECT_EQ(topo.YOf(5), 1);
  EXPECT_EQ(topo.XOf(11), 3);
  EXPECT_EQ(topo.YOf(11), 2);
}

TEST(TopologyTest, XyHopCounts) {
  Topology topo(4, 4);
  EXPECT_EQ(topo.Hops(0, 0), 0);
  EXPECT_EQ(topo.Hops(0, 3), 3);    // same row
  EXPECT_EQ(topo.Hops(0, 12), 3);   // same column
  EXPECT_EQ(topo.Hops(0, 15), 6);   // opposite corner
  EXPECT_EQ(topo.Hops(15, 0), 6);   // symmetric
}

TEST(TopologyTest, ForNodeCountIsRoughlySquare) {
  Topology t64 = Topology::ForNodeCount(64);
  EXPECT_EQ(t64.width(), 8);
  EXPECT_EQ(t64.height(), 8);
  EXPECT_EQ(t64.node_count(), 64);

  Topology t72 = Topology::ForNodeCount(72);
  EXPECT_EQ(t72.node_count(), 72);
  EXPECT_GE(t72.width() * t72.height(), 72);

  Topology t1 = Topology::ForNodeCount(1);
  EXPECT_EQ(t1.node_count(), 1);
  EXPECT_TRUE(t1.Contains(0));
  EXPECT_FALSE(t1.Contains(1));
}

TEST(TopologyTest, ContainsRespectsPartialLastRow) {
  Topology t5 = Topology::ForNodeCount(5);
  EXPECT_TRUE(t5.Contains(4));
  EXPECT_FALSE(t5.Contains(5));
  EXPECT_FALSE(t5.Contains(-1));
}

// The fabric is driven the way the cluster's barrier replay drives it: one
// message at a time through Admit, which returns the delivery completion
// time. An empty fault plan is a healthy fabric.
class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : network_(Topology(4, 4), MeshParams{}, fault_, stats_, trace_) {}

  StatsRegistry stats_;
  TraceSink trace_;
  Engine engine_;
  FaultPlan fault_{engine_, FaultPlanParams{}, 16, stats_};
  Network network_;
};

TEST_F(NetworkTest, UncontendedLatencyMatchesModel) {
  MeshParams p;
  // 8 KB page over 6 hops: setup + 6*hop + 8192/0.2ns.
  SimDuration expected = p.route_setup_ns + 6 * p.per_hop_ns +
                         static_cast<SimDuration>(8192 / p.bandwidth_bytes_per_ns);
  EXPECT_EQ(network_.UncontendedLatency(0, 15, 8192), expected);
}

TEST_F(NetworkTest, DeliversAtModeledTime) {
  EXPECT_EQ(network_.Admit(0, 0, 15, 8192), network_.UncontendedLatency(0, 15, 8192));
  // A later send time shifts the delivery by exactly that much.
  Network fresh(Topology(4, 4), MeshParams{}, fault_, stats_, trace_);
  EXPECT_EQ(fresh.Admit(1000, 0, 15, 8192), 1000 + fresh.UncontendedLatency(0, 15, 8192));
}

TEST_F(NetworkTest, SmallMessagesAreFast) {
  const SimTime delivered = network_.Admit(0, 0, 1, 32);
  // 32 bytes at 200 MB/s is 160 ns; total should be well under 1 us.
  EXPECT_LT(delivered, 1000);
  EXPECT_GT(delivered, 0);
}

TEST_F(NetworkTest, SourceInjectionSerializesBackToBackSends) {
  std::vector<SimTime> deliveries;
  for (int i = 0; i < 4; ++i) {
    deliveries.push_back(network_.Admit(0, 0, 15, 8192));
  }
  const SimDuration ser = static_cast<SimDuration>(8192 / MeshParams{}.bandwidth_bytes_per_ns);
  for (size_t i = 1; i < deliveries.size(); ++i) {
    // Each subsequent page cannot finish earlier than one serialization time
    // after the previous: the source link is the bottleneck.
    EXPECT_GE(deliveries[i] - deliveries[i - 1], ser);
  }
}

TEST_F(NetworkTest, FanInSerializesAtReceiver) {
  // Many senders, one destination: ejection link serializes.
  std::vector<SimTime> deliveries;
  for (NodeId src = 1; src <= 8; ++src) {
    deliveries.push_back(network_.Admit(0, src, 0, 8192));
  }
  const SimDuration ser = static_cast<SimDuration>(8192 / MeshParams{}.bandwidth_bytes_per_ns);
  for (size_t i = 1; i < deliveries.size(); ++i) {
    EXPECT_GE(deliveries[i] - deliveries[i - 1], ser);
  }
}

TEST_F(NetworkTest, DistinctPairsDoNotContend) {
  const SimTime d1 = network_.Admit(0, 0, 1, 8192);
  const SimTime d2 = network_.Admit(0, 2, 3, 8192);
  // Both complete in the uncontended time (equal hops, equal size).
  EXPECT_EQ(d1, network_.UncontendedLatency(0, 1, 8192));
  EXPECT_EQ(d2, network_.UncontendedLatency(2, 3, 8192));
}

TEST_F(NetworkTest, StatsCountMessagesAndBytes) {
  network_.Admit(0, 0, 1, 100);
  network_.Admit(0, 1, 2, 200);
  EXPECT_EQ(stats_.Get("mesh.messages"), 2);
  EXPECT_EQ(stats_.Get("mesh.bytes"), 300);
}

TEST_F(NetworkTest, FartherNodesTakeLonger) {
  EXPECT_GT(network_.UncontendedLatency(0, 15, 32), network_.UncontendedLatency(0, 1, 32));
}

TEST(NetworkDeathTest, LocalSendRejected) {
  StatsRegistry stats;
  TraceSink trace;
  Engine engine;
  FaultPlan fault(engine, FaultPlanParams{}, 4, stats);
  Network network(Topology(2, 2), MeshParams{}, fault, stats, trace);
  EXPECT_DEATH(network.Admit(0, 1, 1, 32), "local delivery");
}

}  // namespace
}  // namespace asvm
