#include <gtest/gtest.h>

#include "src/machvm/node_vm.h"
#include "src/machvm/vm_map.h"
#include "src/sim/engine.h"

namespace asvm {
namespace {

class VmMapTest : public ::testing::Test {
 protected:
  VmMapTest()
      : vm_(engine_, 0, VmParams{.page_size = 4096, .frame_capacity = 64, .costs = {}}, stats_) {}

  Engine engine_;
  StatsRegistry stats_;
  NodeVm vm_;
};

TEST_F(VmMapTest, MapAndResolve) {
  VmMap* map = vm_.CreateMap();
  auto obj = vm_.CreateObject(16);
  ASSERT_EQ(map->Map(10, 16, obj, 0, Inheritance::kCopy), Status::kOk);

  auto r = map->Resolve(10 * 4096);
  ASSERT_NE(r.entry, nullptr);
  EXPECT_EQ(r.entry->object, obj);
  EXPECT_EQ(r.object_page, 0);

  r = map->Resolve(25 * 4096 + 123);
  ASSERT_NE(r.entry, nullptr);
  EXPECT_EQ(r.object_page, 15);

  r = map->Resolve(26 * 4096);
  EXPECT_EQ(r.entry, nullptr);
  r = map->Resolve(9 * 4096);
  EXPECT_EQ(r.entry, nullptr);
}

TEST_F(VmMapTest, ObjectOffsetShiftsPages) {
  VmMap* map = vm_.CreateMap();
  auto obj = vm_.CreateObject(32);
  ASSERT_EQ(map->Map(0, 8, obj, 16, Inheritance::kShare), Status::kOk);
  auto r = map->Resolve(3 * 4096);
  EXPECT_EQ(r.object_page, 19);
}

TEST_F(VmMapTest, OverlapRejected) {
  VmMap* map = vm_.CreateMap();
  auto a = vm_.CreateObject(8);
  auto b = vm_.CreateObject(8);
  ASSERT_EQ(map->Map(0, 8, a, 0, Inheritance::kCopy), Status::kOk);
  EXPECT_EQ(map->Map(4, 8, b, 0, Inheritance::kCopy), Status::kAlreadyExists);
  EXPECT_EQ(map->Map(7, 1, b, 0, Inheritance::kCopy), Status::kAlreadyExists);
  EXPECT_EQ(map->Map(8, 8, b, 0, Inheritance::kCopy), Status::kOk);
}

TEST_F(VmMapTest, AdjacentEntriesResolveIndependently) {
  VmMap* map = vm_.CreateMap();
  auto a = vm_.CreateObject(4);
  auto b = vm_.CreateObject(4);
  ASSERT_EQ(map->Map(0, 4, a, 0, Inheritance::kCopy), Status::kOk);
  ASSERT_EQ(map->Map(4, 4, b, 0, Inheritance::kCopy), Status::kOk);
  EXPECT_EQ(map->Resolve(3 * 4096).entry->object, a);
  EXPECT_EQ(map->Resolve(4 * 4096).entry->object, b);
}

TEST_F(VmMapTest, UnmapRemovesEntry) {
  VmMap* map = vm_.CreateMap();
  auto obj = vm_.CreateObject(8);
  ASSERT_EQ(map->Map(0, 8, obj, 0, Inheritance::kCopy), Status::kOk);
  EXPECT_EQ(map->Unmap(0), Status::kOk);
  EXPECT_EQ(map->Resolve(0).entry, nullptr);
  EXPECT_EQ(map->Unmap(0), Status::kNotFound);
}

TEST_F(VmMapTest, InvalidMapArguments) {
  VmMap* map = vm_.CreateMap();
  auto obj = vm_.CreateObject(8);
  EXPECT_EQ(map->Map(0, 0, obj, 0, Inheritance::kCopy), Status::kInvalidArgument);
  EXPECT_EQ(map->Map(0, 4, nullptr, 0, Inheritance::kCopy), Status::kInvalidArgument);
}

TEST_F(VmMapTest, ZeroFillReadThenWrite) {
  VmMap* map = vm_.CreateMap();
  auto obj = vm_.CreateObject(4);
  ASSERT_EQ(map->Map(0, 4, obj, 0, Inheritance::kCopy), Status::kOk);

  auto f = vm_.Fault(*map, 0, PageAccess::kRead);
  engine_.Run();
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.value(), Status::kOk);
  EXPECT_NE(obj->FindResident(0), nullptr);
  EXPECT_FALSE(obj->FindResident(0)->dirty);

  auto w = vm_.Fault(*map, 8, PageAccess::kWrite);
  engine_.Run();
  EXPECT_EQ(w.value(), Status::kOk);
  EXPECT_TRUE(obj->FindResident(0)->dirty);
}

TEST_F(VmMapTest, UnmappedFaultFails) {
  VmMap* map = vm_.CreateMap();
  auto f = vm_.Fault(*map, 0, PageAccess::kRead);
  engine_.Run();
  EXPECT_EQ(f.value(), Status::kInvalidArgument);
}

TEST_F(VmMapTest, ReadAndWriteFastPathsAfterFault) {
  VmMap* map = vm_.CreateMap();
  auto obj = vm_.CreateObject(4);
  ASSERT_EQ(map->Map(0, 4, obj, 0, Inheritance::kCopy), Status::kOk);
  EXPECT_EQ(vm_.TryRead(*map, 100), nullptr);
  auto f = vm_.Fault(*map, 100, PageAccess::kRead);
  engine_.Run();
  ASSERT_EQ(f.value(), Status::kOk);
  EXPECT_NE(vm_.TryRead(*map, 100), nullptr);
  EXPECT_NE(vm_.TryWrite(*map, 100), nullptr);  // anonymous: write ok
}

// TryWrite writes a page in place only while the page holds its contents
// privately; once they are shared (or were supplied from outside) it copies.
TEST_F(VmMapTest, WritesCopyContentsOnlyOnceShared) {
  VmMap* map = vm_.CreateMap();
  auto obj = vm_.CreateObject(2);
  ASSERT_EQ(map->Map(0, 2, obj, 0, Inheritance::kCopy), Status::kOk);
  auto f = vm_.Fault(*map, 0, PageAccess::kWrite);
  engine_.Run();
  ASSERT_EQ(f.value(), Status::kOk);

  std::byte* zero_filled = vm_.TryWrite(*map, 0);
  ASSERT_NE(zero_filled, nullptr);
  EXPECT_EQ(vm_.TryWrite(*map, 0), zero_filled) << "a private page is written in place";

  const PageBuffer shared = obj->FindResident(0)->Share();
  std::byte* copied = vm_.TryWrite(*map, 0);
  ASSERT_NE(copied, shared->data());
  *copied = std::byte{7};
  EXPECT_EQ((*shared)[0], std::byte{0}) << "the shared contents must not change";
  EXPECT_EQ(vm_.TryWrite(*map, 0), copied) << "the copy is private again";

  // Supplied contents replace the page in its reused slot, shared.
  const PageBuffer supplied = std::make_shared<std::vector<std::byte>>(4096);
  vm_.DataSupply(*obj, 0, supplied, PageAccess::kWrite);
  std::byte* rewritten = vm_.TryWrite(*map, 0);
  ASSERT_NE(rewritten, supplied->data());
  *rewritten = std::byte{9};
  EXPECT_EQ((*supplied)[0], std::byte{0}) << "supplied contents must not change";
  EXPECT_EQ(*vm_.TryRead(*map, 0), std::byte{9});
}

TEST_F(VmMapTest, FaultChargesSimulatedTime) {
  VmMap* map = vm_.CreateMap();
  auto obj = vm_.CreateObject(4);
  ASSERT_EQ(map->Map(0, 4, obj, 0, Inheritance::kCopy), Status::kOk);
  auto f = vm_.Fault(*map, 0, PageAccess::kRead);
  engine_.Run();
  ASSERT_TRUE(f.ready());
  EXPECT_GE(engine_.Now(), vm_.costs().fault_base_ns);
}

}  // namespace
}  // namespace asvm
