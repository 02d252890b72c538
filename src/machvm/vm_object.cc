#include "src/machvm/vm_object.h"

#include "src/common/log.h"
#include "src/machvm/node_vm.h"

namespace asvm {

VmObject::~VmObject() { vm_.OnObjectDestroyed(resident_.size()); }

VmPage* VmObject::FindResident(PageIndex page) {
  auto it = resident_.find(page);
  return it == resident_.end() ? nullptr : &it->second;
}

const VmPage* VmObject::FindResident(PageIndex page) const {
  auto it = resident_.find(page);
  return it == resident_.end() ? nullptr : &it->second;
}

VmPage& VmObject::InsertPage(PageIndex page, PageBuffer data, PageAccess lock, bool dirty) {
  ASVM_CHECK_MSG(page >= 0 && static_cast<VmSize>(page) < page_count_,
                 "page index out of object bounds");
  VmPage& vp = resident_[page];
  vp.Hold(std::move(data));  // a reused slot must not stay private
  vp.lock = lock;
  vp.dirty = dirty;
  vp.wire_count = 0;
  return vp;
}

void VmObject::DropPage(PageIndex page) { resident_.erase(page); }

PageAccess VmObject::OutstandingRequest(PageIndex page) const {
  auto it = outstanding_.find(page);
  return it == outstanding_.end() ? PageAccess::kNone : it->second;
}

void VmObject::SetOutstandingRequest(PageIndex page, PageAccess access) {
  outstanding_[page] = access;
}

void VmObject::ClearOutstandingRequest(PageIndex page) { outstanding_.erase(page); }

void VmObject::AddWaiter(PageIndex page, Promise<Status> waiter) {
  waiters_[page].push_back(std::move(waiter));
}

void VmObject::WakeWaiters(PageIndex page, Status status) {
  auto it = waiters_.find(page);
  if (it == waiters_.end()) {
    return;
  }
  std::vector<Promise<Status>> to_wake = std::move(it->second);
  waiters_.erase(it);
  for (auto& promise : to_wake) {
    promise.Set(status);
  }
}

}  // namespace asvm
