// VM objects: the kernel-side representation of memory objects, including the
// shadow/copy relationships that implement Mach's delayed-copy semantics
// (paper §2.2, Figures 2 and 3).
//
// An object is either *temporary* (anonymous zero-fill memory, implicitly
// backed by the node's default pager once pages are evicted) or *managed*
// (it has a MemObjectId and a Pager — a DSM agent or a local pager adapter).
//
// Links:
//   shadow_  — where to look for pages this object does not have (reads walk
//              down the shadow chain; asymmetric "pull" path).
//   copy_    — the most recent asymmetric copy of this object; pages must be
//              pushed there before they are modified here (the "push" path).
#ifndef SRC_MACHVM_VM_OBJECT_H_
#define SRC_MACHVM_VM_OBJECT_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/machvm/page.h"
#include "src/sim/future.h"

namespace asvm {

class NodeVm;
class Pager;

// How delayed copies of this object are made (paper §2.2).
enum class CopyStrategy {
  kSymmetric,   // fork-style: both sides shadow the frozen original
  kAsymmetric,  // pager-visible: explicit copy object with push/pull links
};

class VmObject : public std::enable_shared_from_this<VmObject> {
 public:
  VmObject(NodeVm& vm, uint64_t serial, VmSize page_count, CopyStrategy strategy)
      : vm_(vm), serial_(serial), page_count_(page_count), copy_strategy_(strategy) {}
  ~VmObject();

  VmObject(const VmObject&) = delete;
  VmObject& operator=(const VmObject&) = delete;

  NodeVm& vm() const { return vm_; }
  uint64_t serial() const { return serial_; }
  VmSize page_count() const { return page_count_; }
  CopyStrategy copy_strategy() const { return copy_strategy_; }

  // Managed-object identity. Valid only when a DSM layer or pager adapter
  // manages this object.
  const MemObjectId& id() const { return id_; }
  bool managed() const { return pager_ != nullptr; }
  Pager* pager() const { return pager_; }
  void SetManager(const MemObjectId& id, Pager* pager) {
    id_ = id;
    pager_ = pager;
  }

  const std::shared_ptr<VmObject>& shadow() const { return shadow_; }
  void set_shadow(std::shared_ptr<VmObject> shadow) { shadow_ = std::move(shadow); }
  const std::shared_ptr<VmObject>& copy() const { return copy_; }
  void set_copy(std::shared_ptr<VmObject> copy) { copy_ = std::move(copy); }

  // --- Residency -----------------------------------------------------------

  VmPage* FindResident(PageIndex page);
  const VmPage* FindResident(PageIndex page) const;
  size_t resident_count() const { return resident_.size(); }
  const std::unordered_map<PageIndex, VmPage>& resident_pages() const { return resident_; }

  // Inserts a resident page (the caller must have reserved a frame through
  // NodeVm). Replaces any existing page; the page holds `data` shared, never
  // privately, even when the slot is reused.
  VmPage& InsertPage(PageIndex page, PageBuffer data, PageAccess lock, bool dirty);

  // Removes residency; the caller is responsible for frame release (NodeVm
  // wraps this correctly).
  void DropPage(PageIndex page);

  // --- Fault coordination --------------------------------------------------
  // At most one pager request is outstanding per page; concurrent faulters
  // park on the waiter list and re-resolve when the page state changes.

  // Returns the access level of the outstanding pager request, or kNone.
  PageAccess OutstandingRequest(PageIndex page) const;
  void SetOutstandingRequest(PageIndex page, PageAccess access);
  void ClearOutstandingRequest(PageIndex page);

  void AddWaiter(PageIndex page, Promise<Status> waiter);
  // Wakes every fault waiting on this page (they retry resolution).
  void WakeWaiters(PageIndex page, Status status);

 private:
  NodeVm& vm_;
  uint64_t serial_;
  VmSize page_count_;
  CopyStrategy copy_strategy_;
  MemObjectId id_;
  Pager* pager_ = nullptr;
  std::shared_ptr<VmObject> shadow_;
  std::shared_ptr<VmObject> copy_;
  std::unordered_map<PageIndex, VmPage> resident_;
  std::unordered_map<PageIndex, PageAccess> outstanding_;
  std::unordered_map<PageIndex, std::vector<Promise<Status>>> waiters_;
};

}  // namespace asvm

#endif  // SRC_MACHVM_VM_OBJECT_H_
