// The per-node Mach VM system: fault handling over shadow/copy chains,
// physical memory as a cache with pageout, and the kernel side of EMMI
// (including the paper's ASVM extensions).
#ifndef SRC_MACHVM_NODE_VM_H_
#define SRC_MACHVM_NODE_VM_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/machvm/emmi.h"
#include "src/machvm/pager.h"
#include "src/machvm/vm_map.h"
#include "src/machvm/vm_object.h"
#include "src/sim/engine.h"
#include "src/sim/future.h"
#include "src/sim/task.h"

namespace asvm {

class DefaultPager;

// Software costs of VM operations (calibrated to a ~50 MHz i860 kernel).
struct VmCosts {
  SimDuration fault_base_ns = 300 * kMicrosecond;  // fault entry/exit + map lookup
  SimDuration page_copy_ns = 40 * kMicrosecond;    // 8 KB copy (COW, push)
  SimDuration zero_fill_ns = 30 * kMicrosecond;
  SimDuration pager_call_ns = 150 * kMicrosecond;  // EMMI call into/out of a pager
  SimDuration map_op_ns = 10 * kMicrosecond;       // entry manipulation, shadow creation
};

struct VmParams {
  size_t page_size = 8192;
  size_t frame_capacity = 2048;  // physical frames available to the VM cache
  VmCosts costs;
};

class NodeVm {
 public:
  NodeVm(Engine& engine, NodeId node, VmParams params, StatsRegistry& stats);
  ~NodeVm();

  NodeVm(const NodeVm&) = delete;
  NodeVm& operator=(const NodeVm&) = delete;

  Engine& engine() { return engine_; }
  NodeId node() const { return node_; }
  size_t page_size() const { return params_.page_size; }
  const VmCosts& costs() const { return params_.costs; }

  // The default pager backs anonymous memory once it is paged out. Must be
  // set before any eviction of dirty anonymous pages can occur.
  void SetDefaultPager(DefaultPager* pager) { default_pager_ = pager; }
  DefaultPager* default_pager() const { return default_pager_; }

  // --- Objects and maps ----------------------------------------------------

  std::shared_ptr<VmObject> CreateObject(VmSize page_count,
                                         CopyStrategy strategy = CopyStrategy::kSymmetric);

  // Marks an object as managed by `pager` under the given global identity and
  // indexes it for FindManaged.
  void RegisterManaged(const std::shared_ptr<VmObject>& object, const MemObjectId& id,
                       Pager* pager);
  std::shared_ptr<VmObject> FindManaged(const MemObjectId& id) const;

  VmMap* CreateMap();

  // Local fork: builds a child map honoring per-entry inheritance, using the
  // symmetric strategy for temporary objects and the asymmetric strategy for
  // managed ones (paper §2.2).
  VmMap* ForkMap(VmMap& parent);

  // Creates an asymmetric delayed copy of `source` and inserts it into the
  // copy chain immediately after the source (re-linking any older copy's
  // shadow through the new copy).
  std::shared_ptr<VmObject> CreateAsymmetricCopy(const std::shared_ptr<VmObject>& source);

  // --- Faults and data access ----------------------------------------------

  // Resolves a page fault at `addr` for the desired access. The future
  // completes when the access may proceed (or with an error status).
  Future<Status> Fault(VmMap& map, VmOffset addr, PageAccess desired);

  // Fast paths: a pointer to the byte at addr if the access can proceed
  // right now without any fault activity, nullptr otherwise. A read sees the
  // contents in place, read-only: they may be shared.
  const std::byte* TryRead(VmMap& map, VmOffset addr);
  // The one writer of page contents: marks the page dirty and, unless the
  // page holds its contents privately, copies them first (copy on first
  // write). No other code gets a writable pointer into a page.
  std::byte* TryWrite(VmMap& map, VmOffset addr);

  // --- EMMI: kernel-side entry points for pagers ----------------------------

  // memory_object_data_supply (with ASVM "mode" extension). `dirty` seeds the
  // page's dirty flag (pushed pages exist nowhere else and must be dirty).
  void DataSupply(VmObject& object, PageIndex page, PageBuffer data, PageAccess lock,
                  SupplyMode mode = SupplyMode::kNormal, bool dirty = false);

  // memory_object_data_unavailable: zero-fill the page with the given lock.
  void DataUnavailable(VmObject& object, PageIndex page, PageAccess lock);

  // Reply to a Pager::DataUnlock upcall: raises the kernel's lock on a
  // resident page (typically read -> write after coherency work).
  void LockGranted(VmObject& object, PageIndex page, PageAccess new_lock);

  // Completes a fault with an error (e.g. XMM copy-pager deadlock).
  void FaultFailed(VmObject& object, PageIndex page, Status status);

  // memory_object_lock_request (with ASVM "mode" extension). Asynchronous;
  // `completed` receives kDone or kNotResident (paper §3.7.1).
  void LockRequest(VmObject& object, PageIndex page, PageAccess new_lock, LockMode mode,
                   std::function<void(LockResult)> completed);

  // memory_object_pull_request (ASVM extension): traverses the local shadow
  // chain starting at `object`; see PullResult.
  void PullRequest(VmObject& object, PageIndex page, std::function<void(PullResult)> completed);

  // Removes a resident page and returns its contents + dirty state (used by
  // DSM layers that need the data while invalidating, e.g. XMM data_return).
  struct Extracted {
    bool was_resident = false;
    PageBuffer data;
    bool dirty = false;
  };
  Extracted ExtractPage(VmObject& object, PageIndex page);

  // --- Physical memory ------------------------------------------------------

  size_t frames_capacity() const { return params_.frame_capacity; }
  size_t frames_used() const { return frames_used_; }
  size_t free_frames() const { return params_.frame_capacity - frames_used_; }

  // Evicts one page (FIFO over resident pages, skipping wired ones).
  // Returns kNotFound when nothing is evictable.
  Status EvictOnePage();

  // Wire/unwire a resident page against pageout during protocol transitions.
  void WirePage(VmObject& object, PageIndex page);
  void UnwirePage(VmObject& object, PageIndex page);

  // Inserts a page, reserving a frame (evicting if necessary). Aborts if no
  // frame can be freed — callers gate on free_frames() where refusal is a
  // legal outcome (internode pageout).
  VmPage& InstallPage(VmObject& object, PageIndex page, PageBuffer data, PageAccess lock,
                      bool dirty);

  // Drops residency and releases the frame.
  void RemovePage(VmObject& object, PageIndex page);

  // --- Diagnostics ----------------------------------------------------------

  // Faults whose coroutine has not completed yet, keyed by a per-node serial
  // (std::map so stall reports list them in start order). Host-side
  // bookkeeping only: maintaining it schedules nothing.
  struct InFlightFault {
    VmOffset addr = 0;
    PageAccess desired = PageAccess::kNone;
    SimTime started = 0;
  };
  const std::map<uint64_t, InFlightFault>& faults_in_flight() const {
    return faults_in_flight_;
  }

 private:
  friend class VmObject;

  struct Classified {
    enum class Kind {
      kResolved,
      kUnmapped,
      kCreateShadow,
      kWaitPager,
      kNeedRequest,
      kNeedUnlock,
      kNeedPagingSpace,
      kZeroFill,
      kCowCopy,
      kNeedLocalPush,
    };
    Kind kind = Kind::kUnmapped;
    VmMapEntry* entry = nullptr;
    VmObject* top = nullptr;
    VmObject* target = nullptr;  // object the action applies to
    PageIndex page = kInvalidPage;
    VmPage* found = nullptr;     // resident page backing a kResolved/kCowCopy
    VmObject* found_in = nullptr;
    PageAccess request_access = PageAccess::kNone;
  };

  Classified Classify(VmMap& map, VmOffset addr, PageAccess desired);
  Task FaultTask(VmMap& map, VmOffset addr, PageAccess desired, Promise<Status> done);

  // True when the copy object already holds the page (resident or paged out),
  // i.e. no push is needed before modifying the source.
  bool CopyHasPage(VmObject& copy, PageIndex page) const;

  // Pushes `from`'s pre-write contents into the source's copy (if needed).
  // Returns true if a push happened.
  bool PushToLocalCopy(VmObject& source, PageIndex page, VmPage& from);

  // Installs a zero-filled page the VM holds privately.
  VmPage& InstallZeroPage(VmObject& object, PageIndex page, PageAccess lock, bool dirty);

  bool ReserveFrame();
  void ReleaseFrame();
  void OnObjectDestroyed(size_t resident_pages);

  struct EvictRef {
    std::weak_ptr<VmObject> object;
    PageIndex page;
    uint64_t tick;
  };

  Engine& engine_;
  NodeId node_;
  VmParams params_;
  StatsRegistry& stats_;
  // Fault-path counters, bound on first use (DESIGN.md §11).
  struct Counters {
    CounterHandle faults, faults_read, faults_write, shadow_objects, zero_fills, cow_copies,
        local_pushes, push_supplies, data_supplies, data_unavailable, lock_requests,
        pull_requests, pageouts;
  } counters_;
  DefaultPager* default_pager_ = nullptr;
  uint64_t next_serial_ = 1;
  uint64_t tick_ = 1;
  size_t frames_used_ = 0;
  std::deque<EvictRef> evict_queue_;
  std::unordered_map<MemObjectId, std::weak_ptr<VmObject>> managed_;
  std::vector<std::unique_ptr<VmMap>> maps_;
  std::vector<std::shared_ptr<VmObject>> owned_objects_;  // keep-alive registry
  std::map<uint64_t, InFlightFault> faults_in_flight_;
  uint64_t next_fault_serial_ = 1;
};

}  // namespace asvm

#endif  // SRC_MACHVM_NODE_VM_H_
