// Managed objects: data_request/data_unlock upcalls, supplies, lock grants,
// eviction hooks — the kernel/pager contract the DSM layers build on.
#include <gtest/gtest.h>

#include <vector>

#include "src/machvm/node_vm.h"
#include "src/machvm/task_memory.h"
#include "src/sim/engine.h"

namespace asvm {
namespace {

// Scripted pager: records upcalls; the test drives the replies.
class FakePager : public Pager {
 public:
  struct Request {
    PageIndex page;
    PageAccess access;
    bool unlock;
  };
  struct Eviction {
    PageIndex page;
    bool dirty;
    PageBuffer data;
  };

  void DataRequest(VmObject& object, PageIndex page, PageAccess desired) override {
    requests.push_back({page, desired, false});
    last_object = &object;
  }
  void DataUnlock(VmObject& object, PageIndex page, PageAccess desired) override {
    requests.push_back({page, desired, true});
    last_object = &object;
  }
  EvictAction OnEvict(VmObject&, PageIndex page, PageBuffer data, bool dirty) override {
    evictions.push_back({page, dirty, std::move(data)});
    return EvictAction::kTaken;
  }
  void LockCompleted(VmObject&, PageIndex page, LockResult result) override {
    lock_completions.emplace_back(page, result);
  }
  void PullCompleted(VmObject&, PageIndex page, PullResult result) override {
    pull_completions.emplace_back(page, std::move(result));
  }

  std::vector<Request> requests;
  std::vector<Eviction> evictions;
  std::vector<std::pair<PageIndex, LockResult>> lock_completions;
  std::vector<std::pair<PageIndex, PullResult>> pull_completions;
  VmObject* last_object = nullptr;
};

class ManagedObjectTest : public ::testing::Test {
 protected:
  ManagedObjectTest()
      : vm_(engine_, 0, VmParams{.page_size = 4096, .frame_capacity = 16, .costs = {}}, stats_) {
    object_ = vm_.CreateObject(8, CopyStrategy::kAsymmetric);
    vm_.RegisterManaged(object_, MemObjectId{0, 1}, &pager_);
    map_ = vm_.CreateMap();
    EXPECT_EQ(map_->Map(0, 8, object_, 0, Inheritance::kCopy), Status::kOk);
  }

  PageBuffer MakePage(uint64_t value) {
    auto page = std::make_shared<std::vector<std::byte>>(4096);
    memcpy(page->data(), &value, 8);
    return page;
  }

  Engine engine_;
  StatsRegistry stats_;
  NodeVm vm_;
  FakePager pager_;
  std::shared_ptr<VmObject> object_;
  VmMap* map_ = nullptr;
};

TEST_F(ManagedObjectTest, ReadFaultIssuesDataRequest) {
  auto f = vm_.Fault(*map_, 0, PageAccess::kRead);
  engine_.Run();
  EXPECT_FALSE(f.ready());  // pager has not answered yet
  ASSERT_EQ(pager_.requests.size(), 1u);
  EXPECT_EQ(pager_.requests[0].page, 0);
  EXPECT_EQ(pager_.requests[0].access, PageAccess::kRead);
  EXPECT_FALSE(pager_.requests[0].unlock);

  vm_.DataSupply(*object_, 0, MakePage(55), PageAccess::kRead);
  engine_.Run();
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.value(), Status::kOk);
  TaskMemory mem(vm_, *map_);
  uint64_t v = 0;
  EXPECT_TRUE(mem.TryReadU64(0, &v));
  EXPECT_EQ(v, 55u);
}

TEST_F(ManagedObjectTest, WriteFaultRequestsWriteAccess) {
  auto f = vm_.Fault(*map_, 0, PageAccess::kWrite);
  engine_.Run();
  ASSERT_EQ(pager_.requests.size(), 1u);
  EXPECT_EQ(pager_.requests[0].access, PageAccess::kWrite);
  vm_.DataSupply(*object_, 0, MakePage(1), PageAccess::kWrite);
  engine_.Run();
  EXPECT_EQ(f.value(), Status::kOk);
  EXPECT_TRUE(object_->FindResident(0)->dirty);
}

TEST_F(ManagedObjectTest, WriteOnReadLockedPageIssuesUnlock) {
  auto rf = vm_.Fault(*map_, 0, PageAccess::kRead);
  engine_.Run();
  vm_.DataSupply(*object_, 0, MakePage(9), PageAccess::kRead);
  engine_.Run();
  ASSERT_TRUE(rf.ready());

  auto wf = vm_.Fault(*map_, 0, PageAccess::kWrite);
  engine_.Run();
  EXPECT_FALSE(wf.ready());
  ASSERT_EQ(pager_.requests.size(), 2u);
  EXPECT_TRUE(pager_.requests[1].unlock);
  EXPECT_EQ(pager_.requests[1].access, PageAccess::kWrite);

  vm_.LockGranted(*object_, 0, PageAccess::kWrite);
  engine_.Run();
  EXPECT_EQ(wf.value(), Status::kOk);
}

TEST_F(ManagedObjectTest, ConcurrentFaultersShareOneRequest) {
  auto f1 = vm_.Fault(*map_, 0, PageAccess::kRead);
  auto f2 = vm_.Fault(*map_, 8, PageAccess::kRead);  // same page
  engine_.Run();
  EXPECT_EQ(pager_.requests.size(), 1u) << "second faulter must park, not re-request";
  vm_.DataSupply(*object_, 0, MakePage(3), PageAccess::kRead);
  engine_.Run();
  EXPECT_TRUE(f1.ready());
  EXPECT_TRUE(f2.ready());
}

TEST_F(ManagedObjectTest, DataUnavailableZeroFills) {
  auto f = vm_.Fault(*map_, 0, PageAccess::kRead);
  engine_.Run();
  vm_.DataUnavailable(*object_, 0, PageAccess::kRead);
  engine_.Run();
  ASSERT_TRUE(f.ready());
  TaskMemory mem(vm_, *map_);
  uint64_t v = 99;
  EXPECT_TRUE(mem.TryReadU64(0, &v));
  EXPECT_EQ(v, 0u);
}

TEST_F(ManagedObjectTest, ReadLockedPageDeniesSyncWrite) {
  auto f = vm_.Fault(*map_, 0, PageAccess::kRead);
  engine_.Run();
  vm_.DataSupply(*object_, 0, MakePage(9), PageAccess::kRead);
  engine_.Run();
  ASSERT_TRUE(f.ready());
  TaskMemory mem(vm_, *map_);
  uint64_t v = 0;
  EXPECT_TRUE(mem.TryReadU64(0, &v));
  EXPECT_FALSE(mem.TryWriteU64(0, 1)) << "write through read lock must fault";
}

TEST_F(ManagedObjectTest, EvictionCallsPagerHook) {
  auto f = vm_.Fault(*map_, 0, PageAccess::kWrite);
  engine_.Run();
  vm_.DataSupply(*object_, 0, MakePage(42), PageAccess::kWrite);
  engine_.Run();
  ASSERT_TRUE(f.ready());

  ASSERT_EQ(vm_.EvictOnePage(), Status::kOk);
  ASSERT_EQ(pager_.evictions.size(), 1u);
  EXPECT_EQ(pager_.evictions[0].page, 0);
  EXPECT_TRUE(pager_.evictions[0].dirty);
  uint64_t v = 0;
  memcpy(&v, pager_.evictions[0].data->data(), 8);
  EXPECT_EQ(v, 42u);
  EXPECT_EQ(object_->FindResident(0), nullptr);
}

TEST_F(ManagedObjectTest, FaultFailedPropagatesError) {
  auto f = vm_.Fault(*map_, 0, PageAccess::kRead);
  engine_.Run();
  vm_.FaultFailed(*object_, 0, Status::kDeadlock);
  engine_.Run();
  ASSERT_TRUE(f.ready());
  EXPECT_EQ(f.value(), Status::kDeadlock);
}

TEST_F(ManagedObjectTest, FindManagedLocatesObject) {
  EXPECT_EQ(vm_.FindManaged(MemObjectId{0, 1}), object_);
  EXPECT_EQ(vm_.FindManaged(MemObjectId{0, 2}), nullptr);
}

TEST_F(ManagedObjectTest, SupplyWithWriteLockAllowsSyncWrite) {
  auto f = vm_.Fault(*map_, 0, PageAccess::kWrite);
  engine_.Run();
  vm_.DataSupply(*object_, 0, MakePage(7), PageAccess::kWrite);
  engine_.Run();
  ASSERT_TRUE(f.ready());
  TaskMemory mem(vm_, *map_);
  EXPECT_TRUE(mem.TryWriteU64(0, 100));
  uint64_t v = 0;
  EXPECT_TRUE(mem.TryReadU64(0, &v));
  EXPECT_EQ(v, 100u);
}

}  // namespace
}  // namespace asvm
