// Mach-style internal copy pager (paper §2.3.3), shared by the XMM and IVY
// backends. NMK13 implements a remote fork's delayed copy by taking a local
// fork-style copy of the source address space and exporting each copied
// object through an internal pager on the source node. A remote child's copy
// fault blocks one of the source's pager threads for the whole fault — the
// synchronous design ASVM's asynchronous state transitions remove (§3.1) —
// and a fault chain that crosses a node twice while every thread is blocked
// deadlocks. IVY never defined lazy-copy semantics, so it forks the same way.
//
// Agent is the owning per-node agent. It befriends this class and provides
// vm_, reprs_, system_ (whose name() prefixes the counters), stats_,
// counters_.copy_faults and counters_.copy_deadlocks, StackProcess(),
// Trace(), Send(NodeId, Agent::MsgType, body, page), and two trace kinds:
// Agent::kRequestTrace for each copy fault sent and Agent::kCopyServeTrace
// (optional) for each copy fault served.
#ifndef SRC_DSM_COPY_PAGER_H_
#define SRC_DSM_COPY_PAGER_H_

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/log.h"
#include "src/common/types.h"
#include "src/dsm/dsm_messages.h"
#include "src/machvm/default_pager.h"
#include "src/machvm/node_vm.h"
#include "src/machvm/page.h"
#include "src/machvm/pager.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace asvm {

template <class Agent>
class InternalCopyPager {
 public:
  InternalCopyPager(Agent& agent, Engine& engine, int threads)
      : agent_(agent), threads_(engine, threads) {}

  // Fork source: exports copy-pager object `id`, whose page 0 sits at virtual
  // page `base_page` of the frozen `copy_map`.
  void AddPager(const MemObjectId& id, VmMap* copy_map, VmOffset base_page) {
    entries_[id] = Entry{copy_map, base_page};
  }

  // Child side: requests (id, page) of a copy-pager object from its pager on
  // `pager_node`, reached over NORMA like everything else.
  void Request(const MemObjectId& id, PageIndex page, PageAccess access, NodeId pager_node) {
    NodeVm& vm = agent_.vm_;
    // A child's own modified pages paged out locally take priority over the
    // frozen parent copy at the internal pager.
    auto repr_it = agent_.reprs_.find(id);
    if (repr_it != agent_.reprs_.end() &&
        vm.default_pager()->HasPage(repr_it->second->serial(), page)) {
      auto repr = repr_it->second;
      vm.default_pager()->ReadPage(repr->serial(), page, [&vm, repr, page](PageBuffer data) {
        vm.DataSupply(*repr, page, std::move(data), PageAccess::kWrite);
      });
      return;
    }
    CopyFault fault{id, page, agent_.node(), {agent_.node()}};
    if (path_ != nullptr) {
      // We are ourselves inside a copy fault: extend the blocking chain.
      fault.path = *path_;
      fault.path.push_back(agent_.node());
    }
    agent_.Trace(Agent::kRequestTrace, id, page, pager_node, static_cast<int64_t>(access));
    agent_.Send(pager_node, Agent::MsgType::kCopyFault, std::move(fault));
  }

  // Fork source: serves one copy fault on a pager thread, which blocks for
  // the whole fault.
  Task Serve(NodeId src, CopyFault m) {
    auto it = entries_.find(m.object);
    ASVM_CHECK_MSG(it != entries_.end(), "copy fault for unknown internal pager");
    const Entry entry = it->second;
    NodeVm& vm = agent_.vm_;
    if (threads_.available() == 0 &&
        std::find(m.path.begin(), m.path.end(), agent_.node()) != m.path.end()) {
      // The chain crossed this node before and every thread is blocked on it:
      // the deadlock the paper describes.
      Count(agent_.counters_.copy_deadlocks, ".copy_deadlocks");
      agent_.Send(src, Agent::MsgType::kCopyFaultReply,
                  CopyFaultReply{m.object, m.page, false, /*deadlock=*/true});
      co_return;
    }
    co_await threads_.Acquire();
    co_await agent_.StackProcess();
    Count(agent_.counters_.copy_faults, ".copy_faults");
    if (Agent::kCopyServeTrace) {
      agent_.Trace(*Agent::kCopyServeTrace, m.object, m.page, src);
    }

    // Fault the frozen local copy address space. If its objects are themselves
    // copy-pager objects from an earlier inbound fork, this recurses across
    // nodes — one blocking NORMA round trip per chain stage. The path is
    // threaded through so nested copy faults can detect cycles (best-effort
    // under concurrency: detection, not correctness).
    const VmOffset addr = (entry.base_page + static_cast<VmOffset>(m.page)) * vm.page_size();
    path_ = &m.path;
    Status s = co_await vm.Fault(*entry.copy_map, addr, PageAccess::kRead);
    path_ = nullptr;
    if (!IsOk(s)) {
      threads_.Release();
      agent_.Send(src, Agent::MsgType::kCopyFaultReply,
                  CopyFaultReply{m.object, m.page, false, /*deadlock=*/s == Status::kDeadlock});
      co_return;
    }
    const std::byte* p = vm.TryRead(*entry.copy_map, addr);
    PageBuffer data;
    bool zero = true;
    if (p != nullptr) {
      const std::byte* base = p - (addr % vm.page_size());
      data = std::make_shared<std::vector<std::byte>>(base, base + vm.page_size());
      zero = PageIsZero(data);
    }
    threads_.Release();
    agent_.Send(src, Agent::MsgType::kCopyFaultReply,
                CopyFaultReply{m.object, m.page, zero, false}, zero ? nullptr : std::move(data));
  }

  // Child side: applies the pager's answer to the faulting representation.
  void OnReply(const CopyFaultReply& m, PageBuffer data) {
    NodeVm& vm = agent_.vm_;
    auto repr = agent_.reprs_.at(m.object);
    if (m.deadlock) {
      vm.FaultFailed(*repr, m.page, Status::kDeadlock);
    } else if (m.zero_fill) {
      vm.DataUnavailable(*repr, m.page, PageAccess::kWrite);
    } else {
      vm.DataSupply(*repr, m.page, std::move(data), PageAccess::kWrite);
    }
  }

  // Child side: a dirty page of a copy-pager object holds the child's private
  // modifications and pages out to the local default pager; the internal
  // pager only serves the frozen parent snapshot.
  EvictAction PageOut(VmObject& object, PageIndex page, PageBuffer data) {
    agent_.vm_.default_pager()->WritePage(object.serial(), page, std::move(data));
    return EvictAction::kTaken;
  }

 private:
  struct Entry {
    VmMap* copy_map = nullptr;
    VmOffset base_page = 0;  // virtual page in copy_map of the object's page 0
  };

  // Counts `<system name><suffix>`, e.g. xmm.copy_faults.
  void Count(CounterHandle& counter, const char* suffix) {
    counter.Add(agent_.stats_, [&] { return std::string(agent_.system_.name()) + suffix; });
  }

  Agent& agent_;
  SimSemaphore threads_;
  std::unordered_map<MemObjectId, Entry> entries_;
  // Path of the copy fault a local pager thread is serving, so nested faults
  // extend it.
  const std::vector<NodeId>* path_ = nullptr;
};

}  // namespace asvm

#endif  // SRC_DSM_COPY_PAGER_H_
