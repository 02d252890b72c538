// Per-node XMM component. On every node it acts as the proxy (the Pager of
// local representations, forwarding requests to the manager over NORMA-IPC);
// on an object's manager node it additionally runs the centralized manager
// with its per-(page × node) state table; on fork-source nodes it hosts the
// internal copy pagers.
#ifndef SRC_XMM_XMM_AGENT_H_
#define SRC_XMM_XMM_AGENT_H_

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/common/page_table.h"
#include "src/common/types.h"
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

  std::shared_ptr<VmObject> Attach(const MemObjectId& id);

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

  // Copy-pager state on a fork-source node: the frozen local copy map one
  // internal pager object serves from, plus the shared thread pool.
  struct CopyPagerEntry {
    VmMap* copy_map = nullptr;
    VmOffset base_page = 0;  // virtual page in copy_map of the object's page 0
  };

  size_t MetadataBytes() const;
  SimSemaphore& copy_threads() { return copy_threads_; }

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
  bool Deposed(const XmmObjectInfo& info) const;

  // Streams page contents to `primary`'s backup (first alive ring successor).
  // The manager mirrors its coherent pager copies (primary = itself); a proxy
  // evicting a dirty page while the manager is dead redirects the data return
  // here (primary = the dead manager) so the contents survive promotion.
  // No-op with failover disabled or no other node alive.
  void MirrorToBackup(NodeId primary, const MemObjectId& id, PageIndex page,
                      const PageBuffer& data);

  // Re-sends everything in this node's own shadow ledger (pages it has
  // mirrored as a primary) to `backup` — run when the ring rule names a new
  // backup, so a backup's death or rejoin never strands the shadow stream.
  void ReplayShadowLedger(NodeId backup);

  // Death-notice hook: if this node's shadow stream was aimed at `dead`,
  // re-target it at the new ring successor and replay the ledger there.
  void RetargetShadowStream(NodeId dead);

  // Control-only commit witness to the backup's own successor (see
  // XmmShadowUpdate). No-op when no third node is alive.
  void SendShadowManifest(const MemObjectId& id, PageIndex page, NodeId backup);

  // kNodeDown recovery: promote the dead manager's backup at the next
  // sequencing point, then replay the request against the new manager under
  // the original op id (see SendRequest's reuse_op).
  void ReissueAfterPromotion(const MemObjectId& id, PageIndex page, PageAccess access,
                             bool has_copy, uint64_t reuse_op);

  // Manager role.
  void ManagerHandle(XmmRequest req);
  Task ManagerServe(XmmRequest req);
  ManagerState& mgr_state(const MemObjectId& id);
  uint8_t& AccessByte(ManagerState& ms, PageIndex page, NodeId node);
  NodeId FindWriter(ManagerState& ms, const MemObjectId& id, PageIndex page);
  std::vector<NodeId> FindReaders(ManagerState& ms, const MemObjectId& id, PageIndex page,
                                  NodeId except);

  // Copy-pager role.
  Task CopyFaultTask(NodeId src, XmmCopyFault m);

  void OnMessage(NodeId src, Message msg) override;
  void Send(NodeId to, XmmMsgType type, XmmBody body, PageBuffer page = nullptr);

  // Stall-watchdog probe: base pending ops plus the manager-side picture
  // (busy pages, parked request queues) for objects managed here.
  bool DescribeStall(std::string& out) const override;

  // Pending flush rounds live in the ProtocolAgent pending-op table (the
  // write-flush data/dirty/was_resident ride in PendingOp).

  XmmSystem& system_;
  // Shared with every other node's agent (owned by the system).
  XmmAgentCounters& counters_;
  NodeVm& vm_;
  FailoverConfig failover_;
  SimSemaphore copy_threads_;
  // Backup role: newest shadowed page contents per object, streamed from
  // primaries whose ring successor this node is. Ordered maps so promotion
  // seeds pager copies in a shard-count-invariant order.
  std::map<MemObjectId, std::map<PageIndex, PageBuffer>> shadow_;
  // Primary role: the ledger of everything this node has mirrored, plus the
  // node the stream currently feeds. When the ring rule names a new backup
  // (the old one died or rejoined cold) the whole ledger is replayed there
  // (see RetargetShadowStream / ReplayShadowLedger).
  std::map<MemObjectId, std::map<PageIndex, PageBuffer>> sent_shadow_;
  NodeId shadow_target_ = kInvalidNode;
  // Witness role: pages some primary committed (control-only manifest).
  std::map<MemObjectId, std::set<PageIndex>> shadow_manifest_;
  std::unordered_map<MemObjectId, std::shared_ptr<VmObject>> reprs_;
  std::unordered_map<MemObjectId, std::unique_ptr<ManagerState>> manager_;
  std::unordered_map<MemObjectId, CopyPagerEntry> copy_pagers_;
  // Path of the copy fault currently being served by a local pager thread, so
  // nested faults extend it for cycle detection. Best-effort under
  // concurrency (detection, not correctness).
  const std::vector<NodeId>* copy_fault_path_ = nullptr;
};

}  // namespace asvm

#endif  // SRC_XMM_XMM_AGENT_H_
