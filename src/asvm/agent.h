// Per-node ASVM agent: the kernel-resident half of ASVM on one node. It is
// the memory manager (Pager) of every distributed object's local
// representation, the request redirector (Figure 5), the page-state machine
// (Figure 7), the internode paging engine (§3.6), and the push/pull machinery
// (§3.7).
#ifndef SRC_ASVM_AGENT_H_
#define SRC_ASVM_AGENT_H_

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/asvm/asvm_system.h"
#include "src/asvm/messages.h"
#include "src/common/lru_cache.h"
#include "src/common/page_table.h"
#include "src/common/types.h"
#include "src/dsm/protocol_agent.h"
#include "src/machvm/node_vm.h"
#include "src/machvm/pager.h"
#include "src/sim/task.h"

namespace asvm {

class AsvmAgent : public Pager, public ProtocolAgent {
 public:
  AsvmAgent(AsvmSystem& system, NodeId node);
  ~AsvmAgent() override;

  // Per-page protocol state. An entry exists only while the node caches the
  // page or a transition involving this node is in flight — the "limited
  // memory requirements" design rule (§3.1).
  struct PageState {
    PageAccess access = PageAccess::kNone;
    bool owner = false;
    bool busy = false;      // multi-step transition in progress; queue requests
    int hold_count = 0;     // range-lock holds (§6); >0 parks remote requests
    bool pending = false;   // our own access request is outstanding
    bool held() const { return hold_count > 0; }
    uint64_t version = 0;  // page version counter (owner only, §3.7.2)
    std::vector<NodeId> readers;          // owner only: nodes with read copies
    std::deque<AccessRequest> queue;      // requests parked on busy/pending
  };

  // Terminal-role per-page state (home of a backed object / peer of a copy
  // object): serializes first-touch grants when no owner exists.
  struct TerminalCtl {
    bool busy = false;
    std::deque<AccessRequest> queue;
  };

  struct ObjectState {
    std::shared_ptr<VmObject> repr;
    PageTable<PageState> pages;
    std::unique_ptr<LruCache<PageIndex, NodeId>> dyn_hints;
    std::unique_ptr<LruCache<PageIndex, std::pair<StaticHintKind, NodeId>>> static_cache;
    PageTable<TerminalCtl> terminal;
    // Home-role authoritative record: does an owner exist, and what version
    // did the last writeback carry. last_owner is the node the home most
    // recently attributed ownership to — the lease state machine (DESIGN.md
    // §14) reclaims a page only when that node is confirmed removed and its
    // lease has expired, so a transfer racing a removal cannot be reclaimed
    // out from under a live owner.
    struct HomePage {
      bool owner_exists = false;
      uint64_t version = 0;
      NodeId last_owner = kInvalidNode;
    };
    PageTable<HomePage> home_pages;
    // Failover overlay: page contents recovered from the backup's shadow
    // store at promotion. ServeFromBacking consults it before the (fresh,
    // empty) paging space of a promoted home; a later writeback supersedes
    // and erases the entry. Empty on every healthy run.
    struct RecoveredPage {
      PageBuffer data;
      uint64_t version = 0;
    };
    PageTable<RecoveredPage> recovered;
    // Home-role pages promotion proved unrecoverable: a surviving manifest
    // witnesses the page was committed (written back dirty), but the home,
    // its shadow, and every resident copy died. Faults on these pages answer
    // Status::kDataLost instead of silently zero-filling; a later writeback
    // (which cannot happen without new data) would clear the mark.
    std::set<PageIndex> lost;
    // Internode pageout target selection (§3.6): cycling cursor + the node
    // that most recently accepted a transfer.
    size_t pageout_cursor = 0;
    NodeId last_pageout_accept = kInvalidNode;
  };

  // Creates (or returns) the local representation of the object and registers
  // this agent as its memory manager.
  std::shared_ptr<VmObject> Attach(const MemObjectId& id);

  // Adopts an existing local object as the representation (export path).
  void AdoptRepr(const MemObjectId& id, const std::shared_ptr<VmObject>& object);

  ObjectState& obj_state(const MemObjectId& id);
  ObjectState* FindObjState(const MemObjectId& id);
  PageState& page_state(ObjectState& os, PageIndex page) { return os.pages.GetOrCreate(page); }

  // Drops a page-state entry if it carries no information.
  void PruneState(ObjectState& os, PageIndex page);

  size_t MetadataBytes() const;

  // --- Pager (EMMI upcalls from the local kernel) ---------------------------

  void DataRequest(VmObject& object, PageIndex page, PageAccess desired) override;
  void DataUnlock(VmObject& object, PageIndex page, PageAccess desired) override;
  EvictAction OnEvict(VmObject& object, PageIndex page, PageBuffer data, bool dirty) override;
  void LockCompleted(VmObject& object, PageIndex page, LockResult result) override;
  void PullCompleted(VmObject& object, PageIndex page, PullResult result) override;

  // --- Delayed-copy support (called by AsvmSystem) ---------------------------

  // Broadcast handler target: downgrade all resident pages of the source
  // object to read-only (copy creation, §3.7 / Figure 8).
  Future<Status> MarkObjectReadOnly(const MemObjectId& id);

  // --- Range locking (§6 future-work primitive) ------------------------------

  // Pins a page this node owns with write access for exclusive local use;
  // remote requests queue until ReleasePage. Returns false if the node is not
  // currently the write-owner (caller re-faults and retries).
  bool TryHoldPage(const MemObjectId& id, PageIndex page);
  void ReleasePage(const MemObjectId& id, PageIndex page);

  // Application-level monitoring: renders this node's view of an object
  // (per-page access/ownership/version, hint caches) for inspection.
  std::string DumpObjectState(const MemObjectId& id) const;

 private:
  friend class AsvmSystem;

  // --- Request redirector (§3.3/§3.4) ----------------------------------------

  // Entry point for a locally-generated or received access request.
  void HandleRequest(AccessRequest req);

  // Forwards a request we cannot serve: dynamic hint → static manager →
  // terminal/global.
  void RouteRequest(AccessRequest req);

  // Advances a ring-mode request to the next sharer or the terminal.
  void RingForward(AccessRequest req);

  void SendRequest(NodeId to, const AccessRequest& req);
  void SendReply(NodeId to, const AccessReply& reply, PageBuffer data);
  void Send(NodeId to, AsvmMsgType type, AsvmBody body, PageBuffer page = nullptr);

  // --- Failover (DESIGN.md §14) ---------------------------------------------

  // Routes `req` to its forwarding terminal. If the terminal is confirmed
  // dead, promotes its backup at the next sequencing point and resumes the
  // request toward the new terminal.
  void SendToTerminal(AccessRequest req);

  // Registers the request in the pending-op table (targets = the current
  // terminal) and arms its deadline. On kNodeDown the dead home's backup is
  // promoted and the request replayed from scratch against the new terminal.
  void ArmRequest(const AccessRequest& req);

  // Terminal answer for a page promotion marked lost: the origin fails the
  // fault Status::kDataLost.
  void SendLostReply(const AccessRequest& req);

  // Keeps the home's last-owner attribution fresh after an ownership handoff
  // (write grant, eviction offer, pageout transfer) — the lease state machine
  // is only as good as this record. No-op with failover disabled.
  void NotifyHomeOwner(const MemObjectId& id, PageIndex page, NodeId new_owner);

  // --- Owner-side state machine (Figure 7) -----------------------------------

  // Serves a request for a page this node owns.
  void ServeAsOwner(AccessRequest req);
  Task OwnerGrantWrite(AccessRequest req);
  Task SelfUpgrade(MemObjectId id, PageIndex page);

  // Sends invalidations to every reader except `except`; completes when all
  // acks arrived. Readers are consumed from the state.
  Task InvalidateReaders(MemObjectId id, PageIndex page, NodeId except, Promise<Status> done);

  // Runs the push operation for (object, page) if the version counters demand
  // one; `pre_write` is the pre-write contents (§3.7.2). Resolves with the
  // page's new version (== the object version once pushed).
  Task PushIfNeeded(MemObjectId id, PageIndex page, PageBuffer pre_write,
                    uint64_t current_version, Promise<uint64_t> new_version);

  // --- Terminal-side (pager / peer) -------------------------------------------

  // A request arrived at the forwarding terminal: no owner is known. Serialize
  // first-touch grants; serve from backing (home) or the shadow chain (peer).
  void HandleAtTerminal(AccessRequest req);
  Task ServeFromBacking(AccessRequest req);
  Task ServeByPull(AccessRequest req);
  void FinishTerminal(const MemObjectId& id, PageIndex page);

  // --- Internode paging (§3.6) -------------------------------------------------

  Task EvictionTask(MemObjectId id, PageIndex page, PageBuffer data, bool dirty,
                    uint64_t version, std::vector<NodeId> readers);
  // Re-routes requests parked on this node: same-space requests are forwarded
  // toward `next` (new owner or terminal); cross-space (pull) requests get a
  // retry indicator (§3.7.3).
  void ForwardQueue(const MemObjectId& id, PageIndex page, NodeId next);

  // --- Message handlers ---------------------------------------------------------

  void OnMessage(NodeId src, Message& msg) override;
  void SendShadow(NodeId to, bool manifest, const ShadowUpdate& m, PageBuffer page) override;

  // Stall-watchdog probe: base pending ops plus the coherency state of pages
  // stuck busy/pending and the depth of their parked request queues.
  bool DescribeStall(std::string& out) const override;

  void OnAccessReply(NodeId src, const AccessReply& reply, PageBuffer data);
  void OnInvalidate(NodeId src, const InvalidateMsg& m);
  void OnOwnershipOffer(NodeId src, const OwnershipOffer& m);
  void OnPageoutOffer(NodeId src, const PageoutOffer& m, PageBuffer data);
  void OnWriteback(NodeId src, const WritebackMsg& m, PageBuffer data);
  void OnPushRequest(NodeId src, const PushRequest& m);
  void OnPushData(NodeId src, const PushData& m, PageBuffer data);
  void OnMarkReadOnly(NodeId src, const MarkReadOnly& m);
  void OnStaticHint(const StaticHintMsg& m);
  void OnPullDone(const PullDone& m);

  // Pending multi-message exchanges (invalidation rounds, push rounds, ...)
  // live in the ProtocolAgent pending-op table.

  AsvmSystem& system_;
  // Shared with every other node's agent (owned by the system).
  AsvmAgentCounters& counters_;
  NodeVm& vm_;
  std::unordered_map<MemObjectId, std::unique_ptr<ObjectState>> objects_;
  std::unordered_map<uint64_t, Promise<bool>> scan_waiters_;  // push-scan replies
};

}  // namespace asvm

#endif  // SRC_ASVM_AGENT_H_
