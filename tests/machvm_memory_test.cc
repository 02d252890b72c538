// TaskMemory: typed and bulk accessors, page-spanning transfers, fast paths.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/machvm/node_vm.h"
#include "src/machvm/task_memory.h"
#include "src/sim/engine.h"

namespace asvm {
namespace {

class TaskMemoryTest : public ::testing::Test {
 protected:
  TaskMemoryTest()
      : vm_(engine_, 0, VmParams{.page_size = 4096, .frame_capacity = 128, .costs = {}}, stats_) {
    map_ = vm_.CreateMap();
    object_ = vm_.CreateObject(16);
    EXPECT_EQ(map_->Map(0, 16, object_, 0, Inheritance::kCopy), Status::kOk);
    mem_ = std::make_unique<TaskMemory>(vm_, *map_);
  }

  Engine engine_;
  StatsRegistry stats_;
  NodeVm vm_;
  VmMap* map_ = nullptr;
  std::shared_ptr<VmObject> object_;
  std::unique_ptr<TaskMemory> mem_;
};

TEST_F(TaskMemoryTest, WriteThenReadU64) {
  auto w = mem_->WriteU64(128, 0xDEADBEEFCAFEF00DULL);
  engine_.Run();
  ASSERT_TRUE(w.ready());
  auto r = mem_->ReadU64(128);
  engine_.Run();
  ASSERT_TRUE(r.ready());
  EXPECT_EQ(r.value(), 0xDEADBEEFCAFEF00DULL);
}

TEST_F(TaskMemoryTest, ReadOfUntouchedMemoryIsZero) {
  auto r = mem_->ReadU64(4096 * 5);
  engine_.Run();
  ASSERT_TRUE(r.ready());
  EXPECT_EQ(r.value(), 0u);
}

TEST_F(TaskMemoryTest, SecondAccessTakesFastPath) {
  auto w = mem_->WriteU64(0, 1);
  engine_.Run();
  const int64_t faults = stats_.Get("vm.faults");
  uint64_t v = 0;
  EXPECT_TRUE(mem_->TryReadU64(0, &v));
  EXPECT_TRUE(mem_->TryWriteU64(8, 2));
  EXPECT_EQ(stats_.Get("vm.faults"), faults);
}

TEST_F(TaskMemoryTest, BulkWriteSpansPages) {
  std::vector<std::byte> data(10000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i % 251);
  }
  auto w = mem_->WriteBytes(1000, data);
  engine_.Run();
  ASSERT_TRUE(w.ready());
  ASSERT_EQ(w.value(), Status::kOk);

  std::vector<std::byte> back(10000);
  auto r = mem_->ReadBytes(1000, back);
  engine_.Run();
  ASSERT_TRUE(r.ready());
  ASSERT_EQ(r.value(), Status::kOk);
  EXPECT_EQ(back, data);
}

TEST_F(TaskMemoryTest, TouchMakesRangeAccessible) {
  auto t = mem_->Touch(4096 * 2, 4096 * 3, PageAccess::kWrite);
  engine_.Run();
  ASSERT_TRUE(t.ready());
  EXPECT_EQ(t.value(), Status::kOk);
  for (VmOffset page = 2; page < 5; ++page) {
    EXPECT_TRUE(mem_->TryWriteU64(page * 4096, page));
  }
}

TEST_F(TaskMemoryTest, TouchZeroLengthIsOk) {
  auto t = mem_->Touch(0, 0, PageAccess::kRead);
  EXPECT_TRUE(t.ready());
  EXPECT_EQ(t.value(), Status::kOk);
}

TEST_F(TaskMemoryTest, WriteBytesIntoUnmappedRangeFails) {
  std::vector<std::byte> data(64);
  auto w = mem_->WriteBytes(4096 * 20, data);  // beyond mapping
  engine_.Run();
  ASSERT_TRUE(w.ready());
  EXPECT_EQ(w.value(), Status::kInvalidArgument);
}

TEST_F(TaskMemoryTest, FaultsAreCountedPerPage) {
  std::vector<std::byte> data(4096 * 4);
  auto w = mem_->WriteBytes(0, data);
  engine_.Run();
  EXPECT_EQ(stats_.Get("vm.faults"), 4);
}

}  // namespace
}  // namespace asvm
