#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/dsm/cluster.h"
#include "src/transport/transport.h"

namespace asvm {
namespace {

ClusterParams SixteenNodes() {
  ClusterParams params;
  params.node_count = 16;
  return params;
}

// The transports of a small 4x4 cluster, drained with Cluster::Run: a
// cross-node send waits in the cluster's mailbox until the cluster replays it
// into the fabric.
class TransportTest : public ::testing::Test {
 protected:
  TransportTest()
      : cluster_(SixteenNodes()), sts_(cluster_.sts()), norma_(cluster_.norma()) {}

  SimTime Now() const { return cluster_.Now(); }
  int64_t Stat(const std::string& name) { return cluster_.stats().Get(name); }

  // A minimal typed message: the ping value rides in PullDone::page.
  std::unique_ptr<Message> MakeMsg(int value, PageBuffer page = nullptr) {
    auto msg = std::make_unique<Message>();
    msg->protocol = ProtocolId::kAsvm;
    msg->type = static_cast<uint32_t>(AsvmMsgType::kPullDone);
    msg->body = AsvmBody{PullDone{MemObjectId{}, value, kInvalidNode}};
    msg->page = std::move(page);
    return msg;
  }

  static int PingValue(const Message& msg) {
    return static_cast<int>(std::get<PullDone>(std::get<AsvmBody>(msg.body)).page);
  }

  Cluster cluster_;
  Transport& sts_;
  Transport& norma_;
};

TEST_F(TransportTest, DeliversBodyToRegisteredHandler) {
  int received = 0;
  NodeId from = kInvalidNode;
  sts_.RegisterHandler(ProtocolId::kAsvm, 3, [&](NodeId src, Message& msg) {
    from = src;
    received = PingValue(msg);
  });
  sts_.Send(0, 3, MakeMsg(42));
  cluster_.Run();
  EXPECT_EQ(received, 42);
  EXPECT_EQ(from, 0);
}

TEST_F(TransportTest, HandlersAreKeyedByProtocolAndNode) {
  int asvm_count = 0;
  int ivy_count = 0;
  sts_.RegisterHandler(ProtocolId::kAsvm, 1, [&](NodeId, Message&) { ++asvm_count; });
  sts_.RegisterHandler(ProtocolId::kIvy, 1, [&](NodeId, Message&) { ++ivy_count; });
  auto msg = std::make_unique<Message>();  // tag-only: a monostate body
  msg->protocol = ProtocolId::kIvy;
  sts_.Send(0, 1, std::move(msg));
  sts_.Send(0, 1, MakeMsg(2));
  cluster_.Run();
  EXPECT_EQ(asvm_count, 1);
  EXPECT_EQ(ivy_count, 1);
}

TEST_F(TransportTest, StsIsMuchFasterThanNorma) {
  SimTime sts_done = 0;
  SimTime norma_done = 0;
  sts_.RegisterHandler(ProtocolId::kAsvm, 1, [&](NodeId, Message&) { sts_done = Now(); });
  norma_.RegisterHandler(ProtocolId::kAsvm, 2,
                         [&](NodeId, Message&) { norma_done = Now(); });
  sts_.Send(0, 1, MakeMsg(1));
  norma_.Send(0, 2, MakeMsg(1));
  cluster_.Run();
  EXPECT_GT(norma_done, (18 * sts_done) / 10);
  // Calibration sanity: one STS control message ~0.5 ms, NORMA ~1 ms.
  EXPECT_LT(sts_done, 1 * kMillisecond);
  EXPECT_GT(norma_done, 9 * kMillisecond / 10);
}

TEST_F(TransportTest, PagePayloadAddsWireTime) {
  SimTime small_done = 0;
  SimTime page_done = 0;
  sts_.RegisterHandler(ProtocolId::kAsvm, 1, [&](NodeId, Message& msg) {
    if (msg.page) {
      page_done = Now();
    } else {
      small_done = Now();
    }
  });
  auto page = std::make_shared<std::vector<std::byte>>(8192);
  // Send from distinct sources so the sends do not serialize on one sender.
  sts_.Send(2, 1, MakeMsg(1));
  sts_.Send(3, 1, MakeMsg(2, page));
  cluster_.Run();
  EXPECT_GT(page_done, small_done);
}

TEST_F(TransportTest, LocalDeliveryBypassesMesh) {
  int received = 0;
  sts_.RegisterHandler(ProtocolId::kAsvm, 5, [&](NodeId src, Message&) {
    EXPECT_EQ(src, 5);
    ++received;
  });
  sts_.Send(5, 5, MakeMsg(9));
  cluster_.Run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(Stat("mesh.messages"), 0);
  EXPECT_LE(Now(), 50 * kMicrosecond);
}

TEST_F(TransportTest, HandlerSeesTheEnvelopeSendWasGiven) {
  // One envelope per message: the handler reads the very box the sender
  // filled, over the mesh (0 -> 3) and on a local delivery (5 -> 5).
  const Message* sent = nullptr;
  int handled = 0;
  for (NodeId dst : {3, 5}) {
    sts_.RegisterHandler(ProtocolId::kAsvm, dst, [&](NodeId, Message& msg) {
      EXPECT_EQ(&msg, sent);
      ++handled;
    });
  }
  for (auto [src, dst] : {std::pair<NodeId, NodeId>{0, 3}, {5, 5}}) {
    auto msg = MakeMsg(dst);
    sent = msg.get();
    sts_.Send(src, dst, std::move(msg));
    cluster_.Run();
  }
  EXPECT_EQ(handled, 2);
  EXPECT_EQ(Stat("mesh.messages"), 1);
}

TEST_F(TransportTest, ReceiverSerializesManyToOne) {
  // A burst of requests to one node is processed sequentially — the effect
  // that throttles a centralized manager.
  std::vector<SimTime> handled;
  sts_.RegisterHandler(ProtocolId::kAsvm, 0,
                       [&](NodeId, Message&) { handled.push_back(Now()); });
  for (NodeId src = 1; src <= 6; ++src) {
    sts_.Send(src, 0, MakeMsg(src));
  }
  cluster_.Run();
  ASSERT_EQ(handled.size(), 6u);
  for (size_t i = 1; i < handled.size(); ++i) {
    EXPECT_GE(handled[i] - handled[i - 1], StsCosts().recv_sw_ns);
  }
}

TEST_F(TransportTest, SenderSerializesFanOut) {
  std::vector<SimTime> handled;
  for (NodeId dst = 1; dst <= 6; ++dst) {
    sts_.RegisterHandler(ProtocolId::kAsvm, dst,
                         [&](NodeId, Message&) { handled.push_back(Now()); });
  }
  for (NodeId dst = 1; dst <= 6; ++dst) {
    sts_.Send(0, dst, MakeMsg(dst));
  }
  cluster_.Run();
  ASSERT_EQ(handled.size(), 6u);
  // Arrival spacing reflects the sender's software send cost (with a little
  // slack for differing hop distances to each destination).
  for (size_t i = 1; i < handled.size(); ++i) {
    EXPECT_GE(handled[i] - handled[i - 1], StsCosts().send_sw_ns - kMicrosecond);
  }
}

TEST_F(TransportTest, StatsTrackPerTransportTraffic) {
  sts_.RegisterHandler(ProtocolId::kAsvm, 1, [](NodeId, Message&) {});
  norma_.RegisterHandler(ProtocolId::kAsvm, 1, [](NodeId, Message&) {});
  auto page = std::make_shared<std::vector<std::byte>>(8192);
  sts_.Send(0, 1, MakeMsg(1, page));
  norma_.Send(0, 1, MakeMsg(1));
  cluster_.Run();
  EXPECT_EQ(Stat("transport.sts.messages"), 1);
  EXPECT_EQ(Stat("transport.sts.page_messages"), 1);
  EXPECT_EQ(Stat("transport.sts.bytes"), 32 + 8192);
  EXPECT_EQ(Stat("transport.norma.messages"), 1);
  // NORMA charges port/typing overhead on the wire.
  EXPECT_EQ(Stat("transport.norma.bytes"),
            static_cast<int64_t>(32 + NormaIpcCosts().control_overhead_bytes));
}

TEST_F(TransportTest, PerTypeCountersAreOptIn) {
  sts_.RegisterHandler(ProtocolId::kAsvm, 1, [](NodeId, Message&) {});
  sts_.Send(0, 1, MakeMsg(1));
  cluster_.Run();
  EXPECT_EQ(Stat("transport.sts.msg.pull_done"), 0);
  sts_.set_per_type_stats(true);
  sts_.Send(0, 1, MakeMsg(2));
  sts_.Send(0, 1, MakeMsg(3));
  cluster_.Run();
  EXPECT_EQ(Stat("transport.sts.msg.pull_done"), 2);
}

TEST_F(TransportTest, DuplicateHandlerRegistrationAborts) {
  sts_.RegisterHandler(ProtocolId::kAsvm, 1, [](NodeId, Message&) {});
  EXPECT_DEATH(sts_.RegisterHandler(ProtocolId::kAsvm, 1, [](NodeId, Message&) {}),
               "duplicate");
}

TEST_F(TransportTest, UnregisteredHandlerAborts) {
  sts_.Send(0, 1, MakeMsg(1));
  EXPECT_DEATH(cluster_.Run(), "no transport handler");
}

}  // namespace
}  // namespace asvm
