// Per-node XMM component. On every node it acts as the proxy (the Pager of
// local representations, forwarding requests to the manager over NORMA-IPC);
// on an object's manager node it additionally runs the centralized manager
// with its per-(page × node) state table; on fork-source nodes it hosts the
// internal copy pagers.
#ifndef SRC_XMM_XMM_AGENT_H_
#define SRC_XMM_XMM_AGENT_H_

#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/common/page_table.h"
#include "src/common/types.h"
#include "src/dsm/copy_pager.h"
#include "src/dsm/protocol_agent.h"
#include "src/machvm/node_vm.h"
#include "src/machvm/pager.h"
#include "src/machvm/task_memory.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/xmm/xmm_system.h"

namespace asvm {

class XmmAgent : public Pager, public ProtocolAgent {
 public:
  XmmAgent(XmmSystem& system, NodeId node);
  ~XmmAgent() override;

  // Manager-side state for one object (only on the manager node).
  struct ManagerState {
    // One byte per page per node — the memory consumption the paper calls
    // out as XMM's scalability problem (§3.1).
    std::vector<uint8_t> access;  // [page * nodes + node]
    struct PageCtl {
      bool busy = false;
      std::deque<XmmRequest> queue;
      // After the manager created a "coherent version at the pager", the
      // pager holds the current contents in memory (clean).
      PageBuffer pager_copy;
    };
    PageTable<PageCtl> pages;
    // Failover: pages proven committed-and-lost by a promotion (a survivor
    // witnessed the commit, but the contents died with the manager and every
    // replica). Faults on these answer Status::kDataLost, never zeros.
    std::set<PageIndex> lost;
  };

  size_t MetadataBytes() const;

  // XMM stack processing occupies this node's CPU: one request at a time.
  // This serialization — on top of NORMA's — is what saturates the
  // centralized manager in Table 2.
  Future<Status> StackProcess();

  // --- Pager (EMMI upcalls from the local kernel) ---------------------------

  void DataRequest(VmObject& object, PageIndex page, PageAccess desired) override;
  void DataUnlock(VmObject& object, PageIndex page, PageAccess desired) override;
  EvictAction OnEvict(VmObject& object, PageIndex page, PageBuffer data, bool dirty) override;
  void LockCompleted(VmObject& object, PageIndex page, LockResult result) override;
  void PullCompleted(VmObject& object, PageIndex page, PullResult result) override;

 private:
  friend class XmmSystem;
  friend class DirectorySystem<XmmAgent>;
  friend class InternalCopyPager<XmmAgent>;

  using MsgType = XmmMsgType;
  static constexpr TraceKind kRequestTrace = TraceKind::kXmmRequest;
  static constexpr std::optional<TraceKind> kCopyServeTrace = TraceKind::kXmmCopyFault;

  // reuse_op keeps a reissued request part of the same transaction as the
  // original: the manager's dedup table already knows the id, so a serve still
  // in flight is not started twice, and its eventual reply resolves the live
  // op instead of being dropped as a straggler (which would discard the only
  // copy of the page mid-ownership-transfer and reissue forever).
  void SendRequest(const MemObjectId& id, PageIndex page, PageAccess access, bool has_copy,
                   uint64_t reuse_op = 0);

  // --- Failover (DESIGN.md §14) ---------------------------------------------

  // True when this node used to manage `info`'s object but a promotion moved
  // the role elsewhere (we were removed). A deposed ManagerServe coroutine
  // abandons its exchange instead of touching state that now lives on the
  // promoted backup (or that a cold restart has erased).
  bool Deposed(const DirectoryRecord& info) const;

  // Manager role.
  void ManagerHandle(XmmRequest req);
  Task ManagerServe(XmmRequest req);
  ManagerState& mgr_state(const MemObjectId& id);
  uint8_t& AccessByte(ManagerState& ms, PageIndex page, NodeId node);
  NodeId FindWriter(ManagerState& ms, const MemObjectId& id, PageIndex page);
  std::vector<NodeId> FindReaders(ManagerState& ms, const MemObjectId& id, PageIndex page,
                                  NodeId except);

  void OnMessage(NodeId src, Message& msg) override;
  void Send(NodeId to, XmmMsgType type, XmmBody body, PageBuffer page = nullptr);
  void SendShadow(NodeId to, bool manifest, const ShadowUpdate& m, PageBuffer page) override;

  // Stall-watchdog probe: base pending ops plus the manager-side picture
  // (busy pages, parked request queues) for objects managed here.
  bool DescribeStall(std::string& out) const override;

  // Pending flush rounds live in the ProtocolAgent pending-op table (the
  // write-flush data/dirty/was_resident ride in PendingOp).

  XmmSystem& system_;
  // Shared with every other node's agent (owned by the system).
  XmmAgentCounters& counters_;
  NodeVm& vm_;
  InternalCopyPager<XmmAgent> copy_pager_;
  std::unordered_map<MemObjectId, std::shared_ptr<VmObject>> reprs_;
  std::unordered_map<MemObjectId, std::unique_ptr<ManagerState>> manager_;
};

}  // namespace asvm

#endif  // SRC_XMM_XMM_AGENT_H_
