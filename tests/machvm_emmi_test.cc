// Systematic EMMI matrix: every lock_request mode against every page state,
// supply modes, pull outcomes, fork inheritance combinations, and waiter
// semantics — the contract the DSM layers are built on.
#include <gtest/gtest.h>

#include "src/machvm/default_pager.h"
#include "src/machvm/disk.h"
#include "src/machvm/node_vm.h"
#include "src/machvm/task_memory.h"
#include "src/sim/engine.h"

namespace asvm {
namespace {

class NullPager : public Pager {
 public:
  void DataRequest(VmObject&, PageIndex, PageAccess) override { ++requests; }
  void DataUnlock(VmObject&, PageIndex, PageAccess) override { ++unlocks; }
  EvictAction OnEvict(VmObject&, PageIndex, PageBuffer, bool) override {
    ++evictions;
    return EvictAction::kDiscard;
  }
  void LockCompleted(VmObject&, PageIndex, LockResult) override {}
  void PullCompleted(VmObject&, PageIndex, PullResult) override {}

  int requests = 0;
  int unlocks = 0;
  int evictions = 0;
};

class EmmiMatrixTest : public ::testing::Test {
 protected:
  EmmiMatrixTest()
      : vm_(engine_, 0, VmParams{.page_size = 4096, .frame_capacity = 64, .costs = {}}, stats_) {}

  PageBuffer MakePage(uint64_t value) {
    auto page = std::make_shared<std::vector<std::byte>>(4096);
    memcpy(page->data(), &value, 8);
    return page;
  }

  uint64_t PageValue(VmObject& obj, PageIndex page) {
    VmPage* vp = obj.FindResident(page);
    EXPECT_NE(vp, nullptr);
    uint64_t v = 0;
    memcpy(&v, vp->contents().data(), 8);
    return v;
  }

  Engine engine_;
  StatsRegistry stats_;
  NodeVm vm_;
};

TEST_F(EmmiMatrixTest, LockModeMatrix) {
  struct Case {
    LockMode mode;
    PageAccess new_lock;
    bool expect_resident_after;
    PageAccess expect_lock_after;
  };
  const Case cases[] = {
      {LockMode::kDowngrade, PageAccess::kRead, true, PageAccess::kRead},
      {LockMode::kFlush, PageAccess::kNone, false, PageAccess::kNone},
      {LockMode::kPushAndLock, PageAccess::kRead, true, PageAccess::kRead},
      {LockMode::kPushAndFlush, PageAccess::kNone, false, PageAccess::kNone},
  };
  for (const Case& c : cases) {
    auto obj = vm_.CreateObject(2);
    vm_.DataSupply(*obj, 0, MakePage(7), PageAccess::kWrite);
    LockResult result{};
    vm_.LockRequest(*obj, 0, c.new_lock, c.mode, [&](LockResult r) { result = r; });
    engine_.Run();
    EXPECT_EQ(result, LockResult::kDone) << "mode " << static_cast<int>(c.mode);
    VmPage* vp = obj->FindResident(0);
    EXPECT_EQ(vp != nullptr, c.expect_resident_after) << "mode " << static_cast<int>(c.mode);
    if (vp != nullptr) {
      EXPECT_EQ(vp->lock, c.expect_lock_after);
    }
  }
}

TEST_F(EmmiMatrixTest, LockModesOnAbsentPageAllReportNotResident) {
  auto obj = vm_.CreateObject(2);
  for (LockMode mode : {LockMode::kDowngrade, LockMode::kFlush, LockMode::kPushAndLock,
                        LockMode::kPushAndFlush}) {
    LockResult result = LockResult::kDone;
    vm_.LockRequest(*obj, 0, PageAccess::kRead, mode, [&](LockResult r) { result = r; });
    engine_.Run();
    EXPECT_EQ(result, LockResult::kNotResident) << "mode " << static_cast<int>(mode);
  }
}

TEST_F(EmmiMatrixTest, PushModesFeedTheChainOnceEach) {
  auto source = vm_.CreateObject(2);
  auto copy = vm_.CreateAsymmetricCopy(source);
  vm_.DataSupply(*source, 0, MakePage(11), PageAccess::kWrite);
  // kPushAndLock pushes pre-write data and keeps the source page.
  vm_.LockRequest(*source, 0, PageAccess::kRead, LockMode::kPushAndLock, [](LockResult) {});
  engine_.Run();
  ASSERT_NE(copy->FindResident(0), nullptr);
  EXPECT_EQ(PageValue(*copy, 0), 11u);
  // Overwrite source, then kPushAndFlush: copy already has page -> no second
  // push, source flushed.
  vm_.DataSupply(*source, 0, MakePage(12), PageAccess::kWrite);
  vm_.LockRequest(*source, 0, PageAccess::kNone, LockMode::kPushAndFlush, [](LockResult) {});
  engine_.Run();
  EXPECT_EQ(source->FindResident(0), nullptr);
  EXPECT_EQ(PageValue(*copy, 0), 11u) << "the earlier snapshot must not be overwritten";
}

TEST_F(EmmiMatrixTest, PullResultMatrix) {
  // kData from the object itself.
  auto obj = vm_.CreateObject(2);
  vm_.DataSupply(*obj, 0, MakePage(5), PageAccess::kWrite);
  PullResult r1;
  vm_.PullRequest(*obj, 0, [&](PullResult r) { r1 = r; });
  engine_.Run();
  EXPECT_EQ(r1.kind, PullResult::Kind::kData);

  // kData through an unmanaged shadow.
  auto copy = vm_.CreateAsymmetricCopy(obj);
  PullResult r2;
  vm_.PullRequest(*copy, 0, [&](PullResult r) { r2 = r; });
  engine_.Run();
  EXPECT_EQ(r2.kind, PullResult::Kind::kData);

  // kAskShadow when the chain hits a managed object.
  NullPager pager;
  auto managed = vm_.CreateObject(2);
  vm_.RegisterManaged(managed, MemObjectId{0, 42}, &pager);
  auto copy_of_managed = vm_.CreateAsymmetricCopy(managed);
  PullResult r3;
  vm_.PullRequest(*copy_of_managed, 0, [&](PullResult r) { r3 = r; });
  engine_.Run();
  EXPECT_EQ(r3.kind, PullResult::Kind::kAskShadow);
  EXPECT_EQ(r3.shadow_object, (MemObjectId{0, 42}));

  // kZeroFill when the chain is empty.
  auto empty = vm_.CreateObject(2);
  auto copy_of_empty = vm_.CreateAsymmetricCopy(empty);
  PullResult r4;
  vm_.PullRequest(*copy_of_empty, 1, [&](PullResult r) { r4 = r; });
  engine_.Run();
  EXPECT_EQ(r4.kind, PullResult::Kind::kZeroFill);
}

TEST_F(EmmiMatrixTest, PullFindsPagedOutData) {
  // A page evicted to paging space must still be pullable.
  TraceSink trace;
  Disk disk(engine_, 0, DiskParams{}, stats_, trace);
  DefaultPager pager(engine_, &disk, stats_);
  vm_.SetDefaultPager(&pager);
  auto obj = vm_.CreateObject(2);
  vm_.DataSupply(*obj, 0, MakePage(31), PageAccess::kWrite);
  obj->FindResident(0)->dirty = true;
  ASSERT_EQ(vm_.EvictOnePage(), Status::kOk);
  ASSERT_EQ(obj->FindResident(0), nullptr);
  PullResult got;
  vm_.PullRequest(*obj, 0, [&](PullResult r) { got = r; });
  engine_.Run();
  ASSERT_EQ(got.kind, PullResult::Kind::kData);
  uint64_t v = 0;
  memcpy(&v, got.data->data(), 8);
  EXPECT_EQ(v, 31u);
}

TEST_F(EmmiMatrixTest, ForkInheritanceMatrix) {
  VmMap* parent = vm_.CreateMap();
  auto shared_obj = vm_.CreateObject(2, CopyStrategy::kSymmetric);
  auto copied_obj = vm_.CreateObject(2, CopyStrategy::kSymmetric);
  auto none_obj = vm_.CreateObject(2, CopyStrategy::kSymmetric);
  NullPager pager;
  auto managed_obj = vm_.CreateObject(2, CopyStrategy::kAsymmetric);
  vm_.RegisterManaged(managed_obj, MemObjectId{0, 7}, &pager);

  ASSERT_EQ(parent->Map(0, 2, shared_obj, 0, Inheritance::kShare), Status::kOk);
  ASSERT_EQ(parent->Map(2, 2, copied_obj, 0, Inheritance::kCopy), Status::kOk);
  ASSERT_EQ(parent->Map(4, 2, none_obj, 0, Inheritance::kNone), Status::kOk);
  ASSERT_EQ(parent->Map(6, 2, managed_obj, 0, Inheritance::kCopy), Status::kOk);

  VmMap* child = vm_.ForkMap(*parent);
  // kShare: same object.
  EXPECT_EQ(child->LookupPage(0)->object, shared_obj);
  // kCopy of a temporary object: symmetric (same object + needs_copy).
  EXPECT_EQ(child->LookupPage(2)->object, copied_obj);
  EXPECT_TRUE(child->LookupPage(2)->needs_copy);
  EXPECT_TRUE(parent->LookupPage(2)->needs_copy);
  // kNone: absent.
  EXPECT_EQ(child->LookupPage(4), nullptr);
  // kCopy of a managed object: asymmetric copy object shadowing it.
  ASSERT_NE(child->LookupPage(6), nullptr);
  EXPECT_NE(child->LookupPage(6)->object, managed_obj);
  EXPECT_EQ(child->LookupPage(6)->object->shadow(), managed_obj);
  EXPECT_EQ(managed_obj->copy(), child->LookupPage(6)->object);
}

TEST_F(EmmiMatrixTest, WaitersWakeOnSupplyAndFailure) {
  NullPager pager;
  auto obj = vm_.CreateObject(2, CopyStrategy::kAsymmetric);
  vm_.RegisterManaged(obj, MemObjectId{0, 9}, &pager);
  VmMap* map = vm_.CreateMap();
  ASSERT_EQ(map->Map(0, 2, obj, 0, Inheritance::kShare), Status::kOk);

  auto f1 = vm_.Fault(*map, 0, PageAccess::kRead);
  auto f2 = vm_.Fault(*map, 100, PageAccess::kRead);  // same page
  engine_.Run();
  EXPECT_EQ(pager.requests, 1) << "duplicate requests must be suppressed";
  vm_.DataSupply(*obj, 0, MakePage(1), PageAccess::kRead);
  engine_.Run();
  EXPECT_TRUE(f1.ready());
  EXPECT_TRUE(f2.ready());

  auto f3 = vm_.Fault(*map, 4096, PageAccess::kWrite);
  engine_.Run();
  vm_.FaultFailed(*obj, 1, Status::kUnavailable);
  engine_.Run();
  ASSERT_TRUE(f3.ready());
  EXPECT_EQ(f3.value(), Status::kUnavailable);
}

TEST_F(EmmiMatrixTest, SupplyReplacingResidentPageKeepsFrameCount) {
  auto obj = vm_.CreateObject(2);
  vm_.DataSupply(*obj, 0, MakePage(1), PageAccess::kRead);
  const size_t used = vm_.frames_used();
  vm_.DataSupply(*obj, 0, MakePage(2), PageAccess::kWrite);
  EXPECT_EQ(vm_.frames_used(), used) << "replacement must not leak a frame";
  EXPECT_EQ(PageValue(*obj, 0), 2u);
}

TEST_F(EmmiMatrixTest, ExtractThenSupplyRoundTrip) {
  auto obj = vm_.CreateObject(2);
  vm_.DataSupply(*obj, 0, MakePage(9), PageAccess::kWrite);
  const size_t used_before = vm_.frames_used();
  auto ex = vm_.ExtractPage(*obj, 0);
  EXPECT_TRUE(ex.was_resident);
  EXPECT_EQ(vm_.frames_used(), used_before - 1);
  vm_.DataSupply(*obj, 0, std::move(ex.data), PageAccess::kWrite);
  EXPECT_EQ(vm_.frames_used(), used_before);
  EXPECT_EQ(PageValue(*obj, 0), 9u);
}

}  // namespace
}  // namespace asvm
