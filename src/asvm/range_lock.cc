#include "src/asvm/range_lock.h"

#include "src/asvm/agent.h"
#include "src/common/log.h"

namespace asvm {

// Agent-side hold/release primitives.

bool AsvmAgent::TryHoldPage(const MemObjectId& id, PageIndex page) {
  ObjectState& os = obj_state(id);
  PageState* found = os.pages.Find(page);
  if (found == nullptr) {
    return false;
  }
  PageState& ps = *found;
  if (!ps.owner || !AccessAllows(ps.access, PageAccess::kWrite) || ps.busy) {
    return false;
  }
  if (ps.hold_count++ == 0) {
    ASVM_CHECK(os.repr != nullptr);
    vm_.WirePage(*os.repr, page);
    counters_.range_lock_holds.Add(stats_, "asvm.range_lock_holds");
  }
  return true;
}

void AsvmAgent::ReleasePage(const MemObjectId& id, PageIndex page) {
  ObjectState& os = obj_state(id);
  PageState* found = os.pages.Find(page);
  if (found == nullptr || !found->held()) {
    return;
  }
  PageState& ps = *found;
  if (--ps.hold_count > 0) {
    return;  // another local holder remains
  }
  ASVM_CHECK(os.repr != nullptr);
  vm_.UnwirePage(*os.repr, page);
  // Serve whatever queued behind the lock.
  std::deque<AccessRequest> queued;
  queued.swap(ps.queue);
  for (auto& q : queued) {
    HandleRequest(std::move(q));
  }
}

// Service API.

Future<Status> RangeLockService::Acquire(NodeId node, TaskMemory& mem, const MemObjectId& id,
                                         VmOffset addr, VmSize len) {
  Promise<Status> done(system_.cluster().engine_for(node));
  (void)AcquireTask(node, mem, id, addr, len, done);
  return done.GetFuture();
}

Task RangeLockService::AcquireTask(NodeId node, TaskMemory& mem, MemObjectId id, VmOffset addr,
                                   VmSize len, Promise<Status> done) {
  Engine& engine = system_.cluster().engine_for(node);
  AsvmAgent& agent = system_.agent(node);
  const size_t ps = mem.map().page_size();
  const VmOffset first = addr / ps;
  const VmOffset last = len == 0 ? first : (addr + len - 1) / ps;
  // Ascending page order: overlapping acquisitions on different nodes cannot
  // deadlock (both block on the lowest contested page).
  for (VmOffset page = first; page <= last; ++page) {
    for (int attempt = 0;; ++attempt) {
      ASVM_CHECK_MSG(attempt < 10000, "range lock acquisition livelocked");
      Status s = co_await mem.Touch(page * ps, 1, PageAccess::kWrite);
      if (!IsOk(s)) {
        done.Set(s);
        co_return;
      }
      if (agent.TryHoldPage(id, static_cast<PageIndex>(page))) {
        break;
      }
      // Lost the ownership race (or a transition is settling); retry.
      co_await Delay(engine, 100 * kMicrosecond);
    }
  }
  done.Set(Status::kOk);
}

void RangeLockService::Release(NodeId node, const MemObjectId& id, VmOffset addr, VmSize len,
                               size_t page_size) {
  AsvmAgent& agent = system_.agent(node);
  const VmOffset first = addr / page_size;
  const VmOffset last = len == 0 ? first : (addr + len - 1) / page_size;
  for (VmOffset page = first; page <= last; ++page) {
    agent.ReleasePage(id, static_cast<PageIndex>(page));
  }
}

}  // namespace asvm
