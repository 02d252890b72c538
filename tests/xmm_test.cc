// NMK13 XMM baseline: centralized-manager coherency, the dirty-page
// write-to-paging-space behaviour, and delayed copy via the internal copy
// pager (src/dsm/copy_pager.h) with the thread-pool deadlock ASVM's
// asynchronous design removes. XMM and IVY share the copy pager, so its
// tests run on both backends.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/ivy/ivy_agent.h"
#include "src/ivy/ivy_system.h"
#include "src/machvm/task_memory.h"
#include "src/xmm/xmm_agent.h"
#include "src/xmm/xmm_system.h"
#include "tests/dsm_test_util.h"

namespace asvm {
namespace {

class XmmTest : public ::testing::Test {
 protected:
  void BuildRegion(int nodes, VmSize pages = 16) {
    cluster_ = std::make_unique<Cluster>(SmallClusterParams(nodes, 512));
    system_ = std::make_unique<XmmSystem>(*cluster_);
    region_ = system_->CreateSharedRegion(/*home=*/0, pages);
    harness_ = std::make_unique<DsmRegionHarness>(*cluster_, *system_, region_, pages);
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<XmmSystem> system_;
  MemObjectId region_;
  std::unique_ptr<DsmRegionHarness> harness_;
};

TEST_F(XmmTest, SharedRegionCoherence) {
  BuildRegion(4);
  harness_->Write(0, 0, 42);
  EXPECT_EQ(harness_->Read(1, 0), 42u);
  EXPECT_EQ(harness_->Read(2, 0), 42u);
  harness_->Write(3, 0, 43);
  EXPECT_EQ(harness_->Read(0, 0), 43u);
  EXPECT_EQ(harness_->Read(1, 0), 43u);
}

TEST_F(XmmTest, SingleWriterEnforcedViaManager) {
  BuildRegion(4);
  harness_->Write(1, 0, 1);
  harness_->Write(2, 0, 2);
  harness_->Write(1, 0, 3);
  EXPECT_EQ(harness_->Read(3, 0), 3u);
  EXPECT_GT(cluster_->stats().Get("xmm.write_flushes"), 0);
}

TEST_F(XmmTest, DirtyPageWrittenToPagingSpaceOnFirstRemoteRequest) {
  BuildRegion(4);
  harness_->Write(1, 0, 7);  // node 1 holds the page dirty
  const int64_t cleanings = cluster_->stats().Get("xmm.dirty_cleanings");
  SimDuration first = harness_->TimedRead(2, 0);
  EXPECT_EQ(cluster_->stats().Get("xmm.dirty_cleanings"), cleanings + 1);
  // Second remote read: the page is clean at the pager — far cheaper.
  SimDuration second = harness_->TimedRead(3, 0);
  EXPECT_GT(first, 2 * second) << "first remote request pays the paging-space write";
  EXPECT_GT(first, 15 * kMillisecond);
}

TEST_F(XmmTest, AllRequestsSerializeAtManager) {
  BuildRegion(4);
  harness_->Write(0, 0, 1);
  // Reads from three nodes of the same page: all must flow through node 0's
  // manager over NORMA.
  harness_->Read(1, 0);
  harness_->Read(2, 0);
  harness_->Read(3, 0);
  EXPECT_GE(cluster_->stats().Get("xmm.manager_requests"), 4);
  EXPECT_GT(cluster_->stats().Get("transport.norma.messages"), 0);
  EXPECT_EQ(cluster_->stats().Get("transport.sts.messages"), 0);
}

TEST_F(XmmTest, UpgradeGrantCarriesNoData) {
  BuildRegion(4);
  harness_->Write(0, 0, 5);
  EXPECT_EQ(harness_->Read(1, 0), 5u);
  const int64_t pages_before = cluster_->stats().Get("transport.norma.page_messages");
  harness_->Write(1, 8, 6);  // node 1 already has a read copy
  // The flush of node 0's... node 0 holds no copy (write moved); only reader
  // flushes and the upgrade reply travel — no page payload to node 1.
  EXPECT_EQ(cluster_->stats().Get("transport.norma.page_messages"), pages_before);
  EXPECT_EQ(harness_->Read(2, 0), 5u);
  EXPECT_EQ(harness_->Read(2, 8), 6u);
}

TEST_F(XmmTest, ManagerStateTableIsPagesTimesNodes) {
  BuildRegion(8, /*pages=*/64);
  harness_->Write(1, 0, 1);
  // Manager (node 0) pays 64 pages x 8 nodes = 512 bytes minimum.
  EXPECT_GE(system_->MetadataBytes(0), 512u);
  // Non-manager nodes hold only proxy records.
  EXPECT_LT(system_->MetadataBytes(3), 512u);
}

// A backend that forks through the internal copy pager.
template <typename SystemT, typename ConfigT>
struct CopyPagerBackend {
  using System = SystemT;
  using Config = ConfigT;
};

template <typename Backend>
class CopyPagerTest : public ::testing::Test {
 protected:
  using Config = typename Backend::Config;

  void Build(int nodes, Config config = {}, size_t frames = 512) {
    cluster_ = std::make_unique<Cluster>(SmallClusterParams(nodes, frames));
    system_ = std::make_unique<typename Backend::System>(*cluster_, config);
  }

  TaskMemory MakeParent(NodeId node, VmSize pages) {
    NodeVm& vm = cluster_->vm(node);
    VmMap* map = vm.CreateMap();
    auto obj = vm.CreateObject(pages, CopyStrategy::kSymmetric);
    EXPECT_EQ(map->Map(0, pages, obj, 0, Inheritance::kCopy), Status::kOk);
    return TaskMemory(vm, *map);
  }

  TaskMemory Fork(NodeId src, TaskMemory& parent, NodeId dst) {
    auto f = system_->RemoteFork(src, parent.map(), dst);
    cluster_->Run();
    EXPECT_TRUE(f.ready());
    return TaskMemory(cluster_->vm(dst), *f.value());
  }

  uint64_t Read(TaskMemory& mem, VmOffset addr) {
    auto f = mem.ReadU64(addr);
    cluster_->Run();
    EXPECT_TRUE(f.ready());
    return f.ready() ? f.value() : ~0ULL;
  }

  void Write(TaskMemory& mem, VmOffset addr, uint64_t value) {
    auto f = mem.WriteU64(addr, value);
    cluster_->Run();
    ASSERT_TRUE(f.ready());
    ASSERT_EQ(f.value(), Status::kOk);
  }

  // The backend's own counter, e.g. xmm.copy_faults or ivy.copy_faults.
  int64_t Counter(const char* suffix) {
    return cluster_->stats().Get(std::string(system_->name()) + suffix);
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<typename Backend::System> system_;
};

using CopyPagerBackends = ::testing::Types<CopyPagerBackend<XmmSystem, XmmConfig>,
                                           CopyPagerBackend<IvySystem, IvyConfig>>;
TYPED_TEST_SUITE(CopyPagerTest, CopyPagerBackends);

TYPED_TEST(CopyPagerTest, RemoteForkChildSeesSnapshot) {
  this->Build(2);
  TaskMemory parent = this->MakeParent(0, 8);
  this->Write(parent, 0, 100);
  this->Write(parent, 4096, 200);
  TaskMemory child = this->Fork(0, parent, 1);
  EXPECT_EQ(this->Read(child, 0), 100u);
  EXPECT_EQ(this->Read(child, 4096), 200u);
  EXPECT_EQ(this->Read(child, 2 * 4096), 0u);
}

TYPED_TEST(CopyPagerTest, ForkSnapshotSurvivesParentWrites) {
  this->Build(2);
  TaskMemory parent = this->MakeParent(0, 8);
  this->Write(parent, 0, 100);
  TaskMemory child = this->Fork(0, parent, 1);
  this->Write(parent, 0, 999);  // local symmetric COW on the source node
  EXPECT_EQ(this->Read(child, 0), 100u);
  EXPECT_EQ(this->Read(parent, 0), 999u);
}

TYPED_TEST(CopyPagerTest, ChildWritesStayPrivate) {
  this->Build(2);
  TaskMemory parent = this->MakeParent(0, 8);
  this->Write(parent, 0, 1);
  TaskMemory child = this->Fork(0, parent, 1);
  this->Write(child, 0, 2);
  EXPECT_EQ(this->Read(parent, 0), 1u);
  EXPECT_EQ(this->Read(child, 0), 2u);
}

TYPED_TEST(CopyPagerTest, ForkChainTraversesPerNodePagers) {
  this->Build(3);
  TaskMemory gen0 = this->MakeParent(0, 4);
  this->Write(gen0, 0, 11);
  TaskMemory gen1 = this->Fork(0, gen0, 1);
  TaskMemory gen2 = this->Fork(1, gen1, 2);
  EXPECT_EQ(this->Read(gen2, 0), 11u);
  EXPECT_GE(this->Counter(".copy_faults"), 2)
      << "each chain stage runs an internal pager fault";
}

TYPED_TEST(CopyPagerTest, ChainLatencyGrowsSteeply) {
  this->Build(6);
  TaskMemory gen0 = this->MakeParent(0, 4);
  this->Write(gen0, 0, 42);
  std::vector<TaskMemory> gens;
  gens.push_back(gen0);
  for (NodeId n = 1; n < 6; ++n) {
    gens.push_back(this->Fork(n - 1, gens.back(), n));
  }
  SimTime start = this->cluster_->engine().Now();
  EXPECT_EQ(this->Read(gens.back(), 0), 42u);
  SimDuration latency = this->cluster_->engine().Now() - start;
  // Five chained NORMA round trips through blocking pagers: >> 10 ms.
  EXPECT_GT(latency, 10 * kMillisecond);
}

TYPED_TEST(CopyPagerTest, ChildDirtyPagesSurviveEviction) {
  typename TestFixture::Config config;
  this->Build(2, config, /*frames=*/12);
  TaskMemory parent = this->MakeParent(0, 32);
  this->Write(parent, 0, 1);
  TaskMemory child = this->Fork(0, parent, 1);
  for (VmSize p = 0; p < 32; ++p) {
    this->Write(child, p * 4096, 5000 + p);
  }
  for (VmSize p = 0; p < 32; ++p) {
    EXPECT_EQ(this->Read(child, p * 4096), 5000 + p) << "page " << p;
  }
}

TYPED_TEST(CopyPagerTest, CopyChainDeadlocksWithExhaustedThreadPool) {
  // The §3.1 scenario: a copy chain that crosses the same node twice, with a
  // single pager thread per node. ASVM's asynchronous transitions make this
  // impossible; the blocking internal pager deadlocks (we detect and fail the
  // fault).
  typename TestFixture::Config config;
  config.copy_pager_threads = 1;
  this->Build(2, config);
  TaskMemory gen0 = this->MakeParent(0, 4);
  this->Write(gen0, 0, 1);
  TaskMemory gen1 = this->Fork(0, gen0, 1);   // pager on 0
  TaskMemory gen2 = this->Fork(1, gen1, 0);   // pager on 1, chain crosses 0 again
  TaskMemory gen3 = this->Fork(0, gen2, 1);   // pager on 0, chain 1 -> 0 -> 1 -> 0

  // Two concurrent deep faults from both ends exhaust the single-thread
  // pools; at least one must be refused as a deadlock.
  auto f1 = gen3.Touch(0, 8, PageAccess::kRead);
  auto f2 = gen2.Touch(8, 8, PageAccess::kRead);
  this->cluster_->Run();
  ASSERT_TRUE(f1.ready());
  ASSERT_TRUE(f2.ready());
  const bool any_deadlock =
      f1.value() == Status::kDeadlock || f2.value() == Status::kDeadlock;
  EXPECT_TRUE(any_deadlock) << "chain crossing a node twice with 1 thread must deadlock";
  EXPECT_GT(this->Counter(".copy_deadlocks"), 0);
}

}  // namespace
}  // namespace asvm
