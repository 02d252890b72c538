// XMM internals: the manager's per-(page x node) state table transitions,
// request serialization at a busy page, pager-copy caching, and eviction
// returns — the NMK13 behaviours the ASVM paper measures against.
#include <gtest/gtest.h>

#include "src/machvm/task_memory.h"
#include "src/xmm/xmm_agent.h"
#include "src/xmm/xmm_system.h"
#include "tests/dsm_test_util.h"

namespace asvm {
namespace {

class XmmInternalsTest : public ::testing::Test {
 protected:
  void Build(int nodes, size_t frames = 512) {
    cluster_ = std::make_unique<Cluster>(SmallClusterParams(nodes, frames));
    system_ = std::make_unique<XmmSystem>(*cluster_);
    region_ = system_->CreateSharedRegion(/*home=*/0, 16);
    harness_ = std::make_unique<DsmRegionHarness>(*cluster_, *system_, region_, 16);
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<XmmSystem> system_;
  MemObjectId region_;
  std::unique_ptr<DsmRegionHarness> harness_;
};

TEST_F(XmmInternalsTest, ManagerRequestsSerializePerPage) {
  Build(6);
  // Concurrent writers to one page: the manager must grant one at a time and
  // the final state must be one of the written values everywhere.
  std::vector<Future<Status>> writes;
  for (NodeId n = 1; n < 6; ++n) {
    writes.push_back(harness_->mem(n).WriteU64(0, 100 + static_cast<uint64_t>(n)));
  }
  cluster_->Run();
  for (auto& w : writes) {
    ASSERT_TRUE(w.ready());
  }
  const uint64_t agreed = harness_->Read(0, 0);
  EXPECT_GE(agreed, 101u);
  EXPECT_LE(agreed, 105u);
  for (NodeId n = 1; n < 6; ++n) {
    EXPECT_EQ(harness_->Read(n, 0), agreed);
  }
}

TEST_F(XmmInternalsTest, DirtyCleaningHappensExactlyOnce) {
  Build(4);
  harness_->Write(1, 0, 5);
  EXPECT_EQ(cluster_->stats().Get("xmm.dirty_cleanings"), 0);
  harness_->Read(2, 0);  // first remote request: paging-space write
  EXPECT_EQ(cluster_->stats().Get("xmm.dirty_cleanings"), 1);
  harness_->Read(3, 0);  // clean at pager now
  harness_->Write(2, 0, 6);
  harness_->Read(3, 0);
  // A fresh write re-dirties; the NEXT remote request cleans again (NMK13
  // cleans whenever the coherent version must be created from a dirty page,
  // but only the first ever write pays the full disk penalty in Table 1's
  // scenario because later ones find the page already clean at the pager).
  EXPECT_GE(cluster_->stats().Get("xmm.dirty_cleanings"), 1);
}

TEST_F(XmmInternalsTest, ReadAfterWriteFlushesTheWriter) {
  Build(4);
  harness_->Write(1, 0, 9);
  const int64_t flushes = cluster_->stats().Get("xmm.write_flushes");
  harness_->Read(2, 0);
  EXPECT_EQ(cluster_->stats().Get("xmm.write_flushes"), flushes + 1);
  // The writer lost its copy (NMK13 flushes the writer to clean the page).
  EXPECT_EQ(harness_->Read(1, 0), 9u);
}

TEST_F(XmmInternalsTest, ManagerTableSizeTracksAttachments) {
  Build(8);
  // The table is pages x node_count bytes as soon as the manager state is
  // instantiated (first request).
  harness_->Write(1, 0, 1);
  EXPECT_GE(system_->MetadataBytes(0), static_cast<size_t>(16 * 8));
}

TEST_F(XmmInternalsTest, EvictionReturnsDirtyPageToManager) {
  Build(2, /*frames=*/8);
  // Region is 16 pages; 8 frames on node 1 force evictions of dirty pages,
  // which NMK13 returns to the manager/pager rather than transferring.
  for (int p = 0; p < 16; ++p) {
    harness_->Write(1, static_cast<VmOffset>(p) * 4096, 300 + static_cast<uint64_t>(p));
  }
  EXPECT_GT(cluster_->stats().Get("xmm.evict_returns"), 0);
  for (int p = 0; p < 16; ++p) {
    EXPECT_EQ(harness_->Read(0, static_cast<VmOffset>(p) * 4096),
              300 + static_cast<uint64_t>(p));
  }
}

TEST_F(XmmInternalsTest, NoStsTrafficEver) {
  Build(4);
  harness_->Write(1, 0, 1);
  harness_->Read(2, 0);
  harness_->Write(3, 0, 2);
  EXPECT_EQ(cluster_->stats().Get("transport.sts.messages"), 0);
  EXPECT_EQ(cluster_->stats().Get("transport.sts_ctl.messages"), 0);
  EXPECT_GT(cluster_->stats().Get("transport.norma.messages"), 4);
}

TEST_F(XmmInternalsTest, UpgradeRaceWithEvictionReissuesRequest) {
  // A node's read copy may be evicted while its upgrade request is in
  // flight; the manager's upgrade grant then has no page to unlock and the
  // proxy must re-request with data.
  Build(2, /*frames=*/8);
  harness_->Write(1, 0, 1);
  harness_->Read(0, 0);
  // Fill node 0 so page 0's copy is likely evicted, then write from node 0.
  for (int p = 1; p < 12; ++p) {
    harness_->Write(0, static_cast<VmOffset>(p) * 4096, static_cast<uint64_t>(p));
  }
  harness_->Write(0, 0, 2);
  EXPECT_EQ(harness_->Read(1, 0), 2u);
}

TEST_F(XmmInternalsTest, SequentialConsistencyAcrossManyPages) {
  Build(4);
  for (int round = 0; round < 3; ++round) {
    for (int p = 0; p < 16; ++p) {
      harness_->Write((round + p) % 4, static_cast<VmOffset>(p) * 4096,
                      static_cast<uint64_t>(round * 100 + p));
    }
  }
  for (int p = 0; p < 16; ++p) {
    EXPECT_EQ(harness_->Read(3, static_cast<VmOffset>(p) * 4096),
              static_cast<uint64_t>(200 + p));
  }
}

}  // namespace
}  // namespace asvm
