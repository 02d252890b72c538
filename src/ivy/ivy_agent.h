// Per-node IVY component (Li & Hudak's dynamic distributed manager). Every
// node is the Pager of its local representations; there is no fixed manager.
// A fault is sent at the node's probable-owner hint and chases hints hop by
// hop until it lands on the true owner, which serves it directly. Ownership
// migrates to the requester on write grants; every hop, grant, and
// invalidation compresses the hint chains it touched. Fork-source nodes host
// the same Mach-style internal copy pagers as XMM.
#ifndef SRC_IVY_IVY_AGENT_H_
#define SRC_IVY_IVY_AGENT_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/page_table.h"
#include "src/common/types.h"
#include "src/dsm/copy_pager.h"
#include "src/dsm/protocol_agent.h"
#include "src/ivy/ivy_system.h"
#include "src/machvm/node_vm.h"
#include "src/machvm/pager.h"
#include "src/machvm/task_memory.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace asvm {

class IvyAgent : public Pager, public ProtocolAgent {
 public:
  IvyAgent(IvySystem& system, NodeId node);
  ~IvyAgent() override;

  // Owner-side state for one page. Exactly one node holds an OwnerState per
  // (object, page) — that node is the page's current owner. The home node is
  // seeded with one for every page at region creation, so ownership is always
  // locally decidable: a node owns a page iff it holds the OwnerState.
  struct OwnerState {
    // Nodes holding read copies (never includes the owner itself).
    std::set<NodeId> copyset;
    bool busy = false;
    std::deque<IvyRequest> queue;
    // Owner's protocol-level copy when the page is not resident in its
    // kernel (evicted, or harvested during a reclaim). Null means the page
    // has never left the backing store / zero-fill state.
    PageBuffer pager_copy;
    // Failover: provably committed but no replica survived the owner's
    // death. Faults answer Status::kDataLost, never silent zeros.
    bool lost = false;
  };

  // Per-object node state: the probable-owner hints plus the pages owned
  // here. `owned` is an ordered map so failover scans and cold restarts walk
  // pages in a shard-count-invariant order.
  struct ObjState {
    struct Hint {
      // kInvalidNode = no hint yet; resolve to the object's home.
      NodeId owner = kInvalidNode;
    };
    PageTable<Hint> hints;
    std::map<PageIndex, OwnerState> owned;
    // Li & Hudak keep the page-table entry locked for the whole fault. Pages
    // this node is currently faulting on live in `faulting`; requests that
    // arrive for one of them park in `parked` instead of bouncing off our
    // hint — which is exactly the stale pointer our unresolved walk is about
    // to replace (a mid-flight write compression can otherwise aim two hints
    // at each other and orbit a request until the hop ceiling drops it). The
    // grant that resolves the fault re-routes the queue (see DrainParked).
    std::set<PageIndex> faulting;
    std::map<PageIndex, std::deque<IvyRequest>> parked;
  };

  // Seeds the home node's OwnerState for every page of a fresh region.
  void AdoptHomePages(const MemObjectId& id, VmSize pages);

  size_t MetadataBytes() const;

  // True iff this node currently owns (id, page).
  bool Owns(const MemObjectId& id, PageIndex page) const;

  // Observability probe (tests, monitors): where a fault from this node would
  // be aimed right now — the recorded probable-owner hint, or the object's
  // home when none has been learned. Never mutates the hint table.
  NodeId ProbableOwner(const MemObjectId& id, PageIndex page) const;

  // Owner-side request processing occupies this node's CPU, one request at a
  // time — IVY distributes this cost across whichever nodes own pages instead
  // of piling it on one manager.
  Future<Status> StackProcess();

  // --- Pager (EMMI upcalls from the local kernel) ---------------------------

  void DataRequest(VmObject& object, PageIndex page, PageAccess desired) override;
  void DataUnlock(VmObject& object, PageIndex page, PageAccess desired) override;
  EvictAction OnEvict(VmObject& object, PageIndex page, PageBuffer data, bool dirty) override;
  void LockCompleted(VmObject& object, PageIndex page, LockResult result) override;
  void PullCompleted(VmObject& object, PageIndex page, PullResult result) override;

 private:
  friend class IvySystem;
  friend class DirectorySystem<IvyAgent>;
  friend class InternalCopyPager<IvyAgent>;

  using MsgType = IvyMsgType;
  static constexpr TraceKind kRequestTrace = TraceKind::kIvyRequest;
  static constexpr std::optional<TraceKind> kCopyServeTrace = std::nullopt;

  // The node this node believes owns (id, page): the recorded hint, or the
  // object's home when no hint has been learned yet.
  NodeId HintFor(const MemObjectId& id, PageIndex page);
  void SetHint(const MemObjectId& id, PageIndex page, NodeId owner);

  // reuse_op keeps a reissued request part of the same transaction as the
  // original: the owner's dedup table already knows the id, so an in-flight
  // serve is not started twice and its reply resolves the live op instead of
  // being dropped as a straggler.
  void SendRequest(const MemObjectId& id, PageIndex page, PageAccess access, bool has_copy,
                   uint64_t reuse_op = 0);

  // Non-owner request handling: charge the per-hop relay cost, compress the
  // local hint toward the eventual owner (write requests will own the page),
  // and pass the request along this node's own hint.
  Task ForwardTask(IvyRequest req);

  // Owner role: queue-or-serve, then the serve coroutine (invalidation round
  // on write, copy supply, ownership transfer).
  OwnerState* OwnedState(const MemObjectId& id, PageIndex page);
  void OwnerHandle(IvyRequest req);
  Task OwnerServe(IvyRequest req);
  // Sends the reply to a remote origin, or resolves the op and applies the
  // grant directly when the owner served its own fault.
  void DeliverReply(const IvyRequest& req, const IvyReply& reply, PageBuffer data);
  // Clears the busy bit and serves the next parked request, if any.
  void FinishServe(const MemObjectId& id, PageIndex page);

  // Applies a grant at the requesting node (shared by the remote reply path
  // and the owner's local-fault shortcut).
  void ApplyGrant(const MemObjectId& id, PageIndex page, const IvyReply& reply, PageBuffer data);

  // Unlocks the page-table entry once the local fault resolved and re-routes
  // every request parked behind it: we now either own the page (write grant)
  // or hold a hint naming the node that answered, so the parked walks make
  // real progress instead of re-entering the stale-hint window.
  void DrainParked(const MemObjectId& id, PageIndex page);

  // --- Failover (DESIGN.md §15) ---------------------------------------------

  // Death-notice hook: first cuts the probable-owner chains through the
  // corpse — every hint pointing at `dead` is re-aimed at its first alive
  // ring successor, so post-death faults walk toward a survivor instead of a
  // black hole (counts dsm.ivy.chain_cuts) — then runs the common hook.
  void OnDeathNotice(NodeId dead) override;

  void OnMessage(NodeId src, Message& msg) override;
  void Send(NodeId to, IvyMsgType type, IvyBody body, PageBuffer page = nullptr);
  void SendShadow(NodeId to, bool manifest, const ShadowUpdate& m, PageBuffer page) override;

  // Stall-watchdog probe: base pending ops plus owned pages that are busy or
  // holding parked requests.
  bool DescribeStall(std::string& out) const override;

  ObjState& obj_state(const MemObjectId& id);

  IvySystem& system_;
  // Shared with every other node's agent (owned by the system).
  IvyAgentCounters& counters_;
  NodeVm& vm_;
  InternalCopyPager<IvyAgent> copy_pager_;
  std::unordered_map<MemObjectId, std::shared_ptr<VmObject>> reprs_;
  std::unordered_map<MemObjectId, std::unique_ptr<ObjState>> objs_;
};

}  // namespace asvm

#endif  // SRC_IVY_IVY_AGENT_H_
