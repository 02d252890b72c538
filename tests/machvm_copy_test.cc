// Delayed-copy semantics: symmetric and asymmetric strategies, local push and
// pull through shadow/copy chains, fork inheritance, and the EMMI extensions
// (lock_request modes, data_supply push mode, pull_request).
#include <gtest/gtest.h>

#include "src/machvm/node_vm.h"
#include "src/machvm/task_memory.h"
#include "src/sim/engine.h"

namespace asvm {
namespace {

class CopyTest : public ::testing::Test {
 protected:
  CopyTest()
      : vm_(engine_, 0, VmParams{.page_size = 4096, .frame_capacity = 256, .costs = {}}, stats_) {}

  uint64_t ReadAt(VmMap& map, VmOffset addr) {
    TaskMemory mem(vm_, map);
    auto f = mem.ReadU64(addr);
    engine_.Run();
    EXPECT_TRUE(f.ready());
    return f.value();
  }

  void WriteAt(VmMap& map, VmOffset addr, uint64_t value) {
    TaskMemory mem(vm_, map);
    auto f = mem.WriteU64(addr, value);
    engine_.Run();
    EXPECT_TRUE(f.ready());
    EXPECT_EQ(f.value(), Status::kOk);
  }

  Engine engine_;
  StatsRegistry stats_;
  NodeVm vm_;
};

TEST_F(CopyTest, SymmetricForkChildSeesSnapshot) {
  VmMap* parent = vm_.CreateMap();
  auto obj = vm_.CreateObject(4, CopyStrategy::kSymmetric);
  ASSERT_EQ(parent->Map(0, 4, obj, 0, Inheritance::kCopy), Status::kOk);
  WriteAt(*parent, 0, 111);
  WriteAt(*parent, 4096, 222);

  VmMap* child = vm_.ForkMap(*parent);
  // Child observes the snapshot.
  EXPECT_EQ(ReadAt(*child, 0), 111u);
  EXPECT_EQ(ReadAt(*child, 4096), 222u);
}

TEST_F(CopyTest, SymmetricForkIsolatesWritesBothWays) {
  VmMap* parent = vm_.CreateMap();
  auto obj = vm_.CreateObject(4, CopyStrategy::kSymmetric);
  ASSERT_EQ(parent->Map(0, 4, obj, 0, Inheritance::kCopy), Status::kOk);
  WriteAt(*parent, 0, 111);

  VmMap* child = vm_.ForkMap(*parent);
  // Parent writes after the fork are invisible to the child...
  WriteAt(*parent, 0, 999);
  EXPECT_EQ(ReadAt(*child, 0), 111u);
  // ...and vice versa.
  WriteAt(*child, 8, 555);
  EXPECT_EQ(ReadAt(*parent, 8), 0u);  // offset 8 was never written in the parent
  EXPECT_EQ(ReadAt(*child, 8), 555u);
  EXPECT_EQ(ReadAt(*parent, 0), 999u);
  // Untouched pages still shared/zero.
  EXPECT_EQ(ReadAt(*child, 2 * 4096), 0u);
  EXPECT_EQ(ReadAt(*parent, 2 * 4096), 0u);
}

TEST_F(CopyTest, SymmetricForkCreatesShadowObjectsLazily) {
  VmMap* parent = vm_.CreateMap();
  auto obj = vm_.CreateObject(4, CopyStrategy::kSymmetric);
  ASSERT_EQ(parent->Map(0, 4, obj, 0, Inheritance::kCopy), Status::kOk);
  WriteAt(*parent, 0, 1);
  vm_.ForkMap(*parent);
  EXPECT_EQ(stats_.Get("vm.shadow_objects"), 0);
  WriteAt(*parent, 0, 2);  // first write after fork shadows
  EXPECT_EQ(stats_.Get("vm.shadow_objects"), 1);
  WriteAt(*parent, 8, 3);  // same entry, no new shadow
  EXPECT_EQ(stats_.Get("vm.shadow_objects"), 1);
}

TEST_F(CopyTest, GrandchildForkChains) {
  VmMap* gen0 = vm_.CreateMap();
  auto obj = vm_.CreateObject(2, CopyStrategy::kSymmetric);
  ASSERT_EQ(gen0->Map(0, 2, obj, 0, Inheritance::kCopy), Status::kOk);
  WriteAt(*gen0, 0, 10);
  VmMap* gen1 = vm_.ForkMap(*gen0);
  WriteAt(*gen1, 0, 20);
  VmMap* gen2 = vm_.ForkMap(*gen1);
  WriteAt(*gen2, 0, 30);
  EXPECT_EQ(ReadAt(*gen0, 0), 10u);
  EXPECT_EQ(ReadAt(*gen1, 0), 20u);
  EXPECT_EQ(ReadAt(*gen2, 0), 30u);
}

TEST_F(CopyTest, ShareInheritanceSharesWrites) {
  VmMap* parent = vm_.CreateMap();
  auto obj = vm_.CreateObject(2, CopyStrategy::kSymmetric);
  ASSERT_EQ(parent->Map(0, 2, obj, 0, Inheritance::kShare), Status::kOk);
  WriteAt(*parent, 0, 7);
  VmMap* child = vm_.ForkMap(*parent);
  WriteAt(*child, 0, 8);
  EXPECT_EQ(ReadAt(*parent, 0), 8u);
}

TEST_F(CopyTest, NoneInheritanceOmitsRange) {
  VmMap* parent = vm_.CreateMap();
  auto obj = vm_.CreateObject(2, CopyStrategy::kSymmetric);
  ASSERT_EQ(parent->Map(0, 2, obj, 0, Inheritance::kNone), Status::kOk);
  VmMap* child = vm_.ForkMap(*parent);
  EXPECT_EQ(child->Resolve(0).entry, nullptr);
}

// --- Asymmetric copies -------------------------------------------------------

TEST_F(CopyTest, AsymmetricCopySeesSnapshotViaPull) {
  VmMap* src_map = vm_.CreateMap();
  auto source = vm_.CreateObject(4, CopyStrategy::kAsymmetric);
  ASSERT_EQ(src_map->Map(0, 4, source, 0, Inheritance::kCopy), Status::kOk);
  WriteAt(*src_map, 0, 42);

  auto copy = vm_.CreateAsymmetricCopy(source);
  VmMap* copy_map = vm_.CreateMap();
  ASSERT_EQ(copy_map->Map(0, 4, copy, 0, Inheritance::kCopy), Status::kOk);

  // Read pulls through the shadow link without copying the page.
  EXPECT_EQ(ReadAt(*copy_map, 0), 42u);
  EXPECT_EQ(copy->resident_count(), 0u);  // delayed-copy: no page copied on read
}

TEST_F(CopyTest, AsymmetricSourceWritePushesPreWriteData) {
  VmMap* src_map = vm_.CreateMap();
  auto source = vm_.CreateObject(4, CopyStrategy::kAsymmetric);
  ASSERT_EQ(src_map->Map(0, 4, source, 0, Inheritance::kCopy), Status::kOk);
  WriteAt(*src_map, 0, 42);

  auto copy = vm_.CreateAsymmetricCopy(source);
  VmMap* copy_map = vm_.CreateMap();
  ASSERT_EQ(copy_map->Map(0, 4, copy, 0, Inheritance::kCopy), Status::kOk);

  // Source modifies the page: pre-write contents must land in the copy.
  WriteAt(*src_map, 0, 100);
  EXPECT_EQ(ReadAt(*copy_map, 0), 42u);
  EXPECT_EQ(ReadAt(*src_map, 0), 100u);
  EXPECT_GE(stats_.Get("vm.local_pushes"), 1);
}

TEST_F(CopyTest, AsymmetricCopyWriteDoesNotDisturbSource) {
  VmMap* src_map = vm_.CreateMap();
  auto source = vm_.CreateObject(4, CopyStrategy::kAsymmetric);
  ASSERT_EQ(src_map->Map(0, 4, source, 0, Inheritance::kCopy), Status::kOk);
  WriteAt(*src_map, 0, 42);

  auto copy = vm_.CreateAsymmetricCopy(source);
  VmMap* copy_map = vm_.CreateMap();
  ASSERT_EQ(copy_map->Map(0, 4, copy, 0, Inheritance::kCopy), Status::kOk);

  WriteAt(*copy_map, 0, 7);  // COW into the copy object
  EXPECT_EQ(ReadAt(*src_map, 0), 42u);
  EXPECT_EQ(ReadAt(*copy_map, 0), 7u);
  // And a source write afterwards must NOT push (copy already has the page).
  WriteAt(*src_map, 0, 43);
  EXPECT_EQ(ReadAt(*copy_map, 0), 7u);
}

TEST_F(CopyTest, CopyChainInsertionOrder) {
  // Two copies: the newer is inserted immediately after the source; the older
  // copy reads through the newer one.
  VmMap* src_map = vm_.CreateMap();
  auto source = vm_.CreateObject(2, CopyStrategy::kAsymmetric);
  ASSERT_EQ(src_map->Map(0, 2, source, 0, Inheritance::kCopy), Status::kOk);
  WriteAt(*src_map, 0, 1);

  auto copy1 = vm_.CreateAsymmetricCopy(source);
  VmMap* map1 = vm_.CreateMap();
  ASSERT_EQ(map1->Map(0, 2, copy1, 0, Inheritance::kCopy), Status::kOk);

  WriteAt(*src_map, 0, 2);  // pushes "1" into copy1

  auto copy2 = vm_.CreateAsymmetricCopy(source);
  VmMap* map2 = vm_.CreateMap();
  ASSERT_EQ(map2->Map(0, 2, copy2, 0, Inheritance::kCopy), Status::kOk);
  EXPECT_EQ(source->copy(), copy2);
  EXPECT_EQ(copy1->shadow(), copy2);  // re-linked through the new copy

  WriteAt(*src_map, 0, 3);  // pushes "2" into copy2

  EXPECT_EQ(ReadAt(*src_map, 0), 3u);
  EXPECT_EQ(ReadAt(*map2, 0), 2u);
  EXPECT_EQ(ReadAt(*map1, 0), 1u);
}

TEST_F(CopyTest, ZeroFillPagePushedBeforeFirstWrite) {
  VmMap* src_map = vm_.CreateMap();
  auto source = vm_.CreateObject(2, CopyStrategy::kAsymmetric);
  ASSERT_EQ(src_map->Map(0, 2, source, 0, Inheritance::kCopy), Status::kOk);

  auto copy = vm_.CreateAsymmetricCopy(source);
  VmMap* copy_map = vm_.CreateMap();
  ASSERT_EQ(copy_map->Map(0, 2, copy, 0, Inheritance::kCopy), Status::kOk);

  // Page never existed; source writes after the copy.
  WriteAt(*src_map, 0, 77);
  EXPECT_EQ(ReadAt(*copy_map, 0), 0u);  // copy sees the zero snapshot
}

// --- EMMI extensions ---------------------------------------------------------

TEST_F(CopyTest, PullRequestFindsResidentData) {
  VmMap* map = vm_.CreateMap();
  auto obj = vm_.CreateObject(2);
  ASSERT_EQ(map->Map(0, 2, obj, 0, Inheritance::kCopy), Status::kOk);
  WriteAt(*map, 0, 1234);

  PullResult got;
  vm_.PullRequest(*obj, 0, [&](PullResult r) { got = r; });
  engine_.Run();
  ASSERT_EQ(got.kind, PullResult::Kind::kData);
  uint64_t v = 0;
  memcpy(&v, got.data->data(), 8);
  EXPECT_EQ(v, 1234u);
}

TEST_F(CopyTest, PullRequestWalksShadowChain) {
  VmMap* src_map = vm_.CreateMap();
  auto source = vm_.CreateObject(2, CopyStrategy::kAsymmetric);
  ASSERT_EQ(src_map->Map(0, 2, source, 0, Inheritance::kCopy), Status::kOk);
  WriteAt(*src_map, 0, 9);
  auto copy = vm_.CreateAsymmetricCopy(source);

  PullResult got;
  vm_.PullRequest(*copy, 0, [&](PullResult r) { got = r; });
  engine_.Run();
  ASSERT_EQ(got.kind, PullResult::Kind::kData);
  uint64_t v = 0;
  memcpy(&v, got.data->data(), 8);
  EXPECT_EQ(v, 9u);
}

TEST_F(CopyTest, PullRequestZeroFillWhenChainEmpty) {
  auto source = vm_.CreateObject(2);
  auto copy = vm_.CreateAsymmetricCopy(source);
  PullResult got;
  vm_.PullRequest(*copy, 1, [&](PullResult r) { got = r; });
  engine_.Run();
  EXPECT_EQ(got.kind, PullResult::Kind::kZeroFill);
}

TEST_F(CopyTest, LockRequestFlushRemovesPage) {
  VmMap* map = vm_.CreateMap();
  auto obj = vm_.CreateObject(2);
  ASSERT_EQ(map->Map(0, 2, obj, 0, Inheritance::kCopy), Status::kOk);
  WriteAt(*map, 0, 5);
  ASSERT_NE(obj->FindResident(0), nullptr);

  LockResult result{};
  vm_.LockRequest(*obj, 0, PageAccess::kNone, LockMode::kFlush,
                  [&](LockResult r) { result = r; });
  engine_.Run();
  EXPECT_EQ(result, LockResult::kDone);
  EXPECT_EQ(obj->FindResident(0), nullptr);
}

TEST_F(CopyTest, LockRequestOnAbsentPageReportsNotResident) {
  auto obj = vm_.CreateObject(2);
  LockResult result{};
  vm_.LockRequest(*obj, 0, PageAccess::kRead, LockMode::kPushAndLock,
                  [&](LockResult r) { result = r; });
  engine_.Run();
  EXPECT_EQ(result, LockResult::kNotResident);
}

TEST_F(CopyTest, LockRequestPushAndLockPushesThenDowngrades) {
  VmMap* src_map = vm_.CreateMap();
  auto source = vm_.CreateObject(2, CopyStrategy::kAsymmetric);
  ASSERT_EQ(src_map->Map(0, 2, source, 0, Inheritance::kCopy), Status::kOk);
  WriteAt(*src_map, 0, 31);
  auto copy = vm_.CreateAsymmetricCopy(source);

  LockResult result{};
  vm_.LockRequest(*source, 0, PageAccess::kRead, LockMode::kPushAndLock,
                  [&](LockResult r) { result = r; });
  engine_.Run();
  EXPECT_EQ(result, LockResult::kDone);
  ASSERT_NE(copy->FindResident(0), nullptr);
  EXPECT_EQ(source->FindResident(0)->lock, PageAccess::kRead);
  uint64_t v = 0;
  memcpy(&v, copy->FindResident(0)->contents().data(), 8);
  EXPECT_EQ(v, 31u);
}

TEST_F(CopyTest, DataSupplyPushModeInsertsIntoCopy) {
  auto source = vm_.CreateObject(2);
  auto copy = vm_.CreateAsymmetricCopy(source);
  auto data = std::make_shared<std::vector<std::byte>>(4096);
  uint64_t v = 88;
  memcpy(data->data(), &v, 8);

  vm_.DataSupply(*source, 0, std::move(data), PageAccess::kRead, SupplyMode::kPushToCopy);
  ASSERT_NE(copy->FindResident(0), nullptr);
  EXPECT_EQ(source->FindResident(0), nullptr);  // supply went down the chain
  EXPECT_TRUE(copy->FindResident(0)->dirty);
}

TEST_F(CopyTest, DataSupplyPushModeSkipsWhenCopyHasPage) {
  auto source = vm_.CreateObject(2);
  auto copy = vm_.CreateAsymmetricCopy(source);
  auto first = std::make_shared<std::vector<std::byte>>(4096);
  uint64_t v1 = 1;
  memcpy(first->data(), &v1, 8);
  vm_.DataSupply(*source, 0, std::move(first), PageAccess::kRead, SupplyMode::kPushToCopy);

  auto second = std::make_shared<std::vector<std::byte>>(4096);
  uint64_t v2 = 2;
  memcpy(second->data(), &v2, 8);
  vm_.DataSupply(*source, 0, std::move(second), PageAccess::kRead, SupplyMode::kPushToCopy);

  uint64_t got = 0;
  memcpy(&got, copy->FindResident(0)->contents().data(), 8);
  EXPECT_EQ(got, 1u);  // first push wins; no overwrite
}

}  // namespace
}  // namespace asvm
