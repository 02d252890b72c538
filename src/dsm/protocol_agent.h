// Shared core of the per-node protocol agents (AsvmAgent, XmmAgent, IvyAgent):
// handler registration on a transport, per-message process-cost charging
// serialized on the node's protocol CPU, the pending-operation table that
// pairs multi-message exchanges (invalidation rounds, flush rounds, push
// rounds) with the coroutine awaiting their completion, and the failover
// pieces every backend runs alike: the shadow stream, the death-notice hook
// and request re-issue.
#ifndef SRC_DSM_PROTOCOL_AGENT_H_
#define SRC_DSM_PROTOCOL_AGENT_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/stats.h"
#include "src/common/trace.h"
#include "src/common/types.h"
#include "src/dsm/dsm_system.h"
#include "src/dsm/shadow_stream.h"
#include "src/sim/engine.h"
#include "src/sim/future.h"
#include "src/transport/message.h"
#include "src/transport/transport.h"

namespace asvm {

class ProtocolAgent {
 public:
  NodeId node() const { return node_; }

  ProtocolAgent(const ProtocolAgent&) = delete;
  ProtocolAgent& operator=(const ProtocolAgent&) = delete;

  // Death-notice fan-in (DESIGN.md §14): resolves every pending op whose
  // still-unanswered targets are all confirmed removed, exactly as OpDeadline
  // would after exhausting its retries — kNodeDown, `on_fail` hook and all —
  // but immediately. Called from the backends' death-notice mutation (every
  // engine quiescent) on each surviving agent, so a bystander mid-backoff
  // fails over now instead of sleeping out its remaining exponential delay
  // (the erased entry turns the already-scheduled deadline event into a
  // no-op). Ops are failed in ascending id order; returns how many failed.
  int FailOpsOnDeadTargets();

  // Death-notice fan-out (DsmSystem::ReportDeath), run on every surviving
  // agent as a mutation. Order matters: re-target a shadow stream aimed at
  // `dead` first, so the replay target never points at the node being
  // buried, then fail every pending op against it (cancels remaining backoff
  // immediately — no second detection horizon).
  virtual void OnDeathNotice(NodeId dead);

  ShadowStream& shadow() { return shadow_; }

  // Stall-watchdog probe body (DsmSystem runs it for every agent): appends a
  // description of every open pending op (and, in subclasses, the coherency
  // state of the implicated pages). Returns true if this agent holds blocked
  // work.
  virtual bool DescribeStall(std::string& out) const;

 protected:
  ProtocolAgent(DsmSystem& dsm, NodeId node, TraceProtocol trace_protocol);
  ~ProtocolAgent() = default;

  // Subclass dispatcher for messages addressed to (protocol, node()). `msg`
  // lives until the dispatcher returns; keep a field by moving it out.
  virtual void OnMessage(NodeId src, Message& msg) = 0;

  // Registers OnMessage as the (protocol, node) handler on `transport`.
  void Listen(Transport& transport, ProtocolId protocol);

  // Charges `cost` of protocol-stack work serialized on this node's protocol
  // CPU: concurrent charges queue behind one another (the XMM manager
  // saturation of Table 2 comes from this serialization).
  Future<Status> Process(SimDuration cost);

  // --- Pending-operation table ----------------------------------------------

  // One entry per in-flight multi-message exchange, keyed by an op id the
  // initiator allocates and every reply echoes.
  struct PendingOp {
    int outstanding = 0;
    Promise<Status> done;
    // Exchange-specific reply payloads, unioned across the protocols: push
    // rounds collect the nodes that asked for contents; XMM write flushes
    // return the page and its state.
    std::vector<NodeId> need_data;
    PageBuffer data;
    bool dirty = false;
    bool was_resident = false;
    // Hardening + diagnostics (host-side; nothing here schedules events).
    const char* what = "op";         // exchange label for stall reports
    MemObjectId object;
    PageIndex page = kInvalidPage;
    SimTime opened_at = 0;
    std::vector<NodeId> acked;       // responders already counted (dup shield)
    int attempts = 0;                // retries fired so far
    std::function<void()> resend;    // re-issues the unanswered requests
    // Failover classification: the nodes this exchange is waiting on. When
    // the deadline exhausts its retries and every unanswered target is
    // confirmed removed by the fault plan, the op resolves kNodeDown instead
    // of kTimeout (and `on_fail`, if set, runs after the entry is dropped —
    // the hook that triggers backup promotion and request re-issue).
    std::vector<NodeId> targets;
    std::function<void(Status)> on_fail;
    explicit PendingOp(Engine& engine) : done(engine) {}
  };

  // Allocates an op id from the owning system's sequence and inserts an entry
  // expecting `outstanding` replies. The label/object/page feed stall reports.
  uint64_t OpenOp(int outstanding, const char* what = "op",
                  MemObjectId object = kInvalidObject, PageIndex page = kInvalidPage);
  // Opens an op awaiting one reply from each of `targets`, which also
  // classify its failure (PendingOp::targets).
  uint64_t OpenRound(std::vector<NodeId> targets, const char* what, MemObjectId object,
                     PageIndex page);
  // Inserts an entry under an id the caller already allocated (protocols whose
  // request ids double as op ids: ASVM AccessRequest::req_id, XMM requests).
  void RegisterOp(uint64_t op_id, int outstanding, const char* what = "op",
                  MemObjectId object = kInvalidObject, PageIndex page = kInvalidPage);
  Future<Status> OpFuture(uint64_t op_id);
  PendingOp* FindOp(uint64_t op_id);
  void EraseOp(uint64_t op_id);
  // Resolves the op with `status` and drops the entry, regardless of how many
  // replies are still outstanding (declined offers, local short-circuits).
  void ResolveOp(uint64_t op_id, Status status);
  // Records one reply from `from`; when the last arrives the op resolves kOk.
  // The entry is dropped then, unless `keep_entry` — set when the awaiting
  // coroutine still harvests payload fields out of the entry before erasing
  // it. A second reply from the same responder (a retry racing the original
  // answer) is suppressed, as is any reply to an op no longer pending.
  void AckOp(uint64_t op_id, NodeId from, bool keep_entry = false);

  // --- Timeout + retry (armed only when RetryPolicy::timeout_ns > 0) --------

  // Arms the op's deadline: if it has not resolved when the deadline fires,
  // `resend` re-issues the unanswered requests and the deadline backs off
  // exponentially; after max_retries the op resolves Status::kTimeout and is
  // dropped. No-op with retries disabled (nothing scheduled, timelines keep
  // their healthy-run digests).
  void ArmOp(uint64_t op_id, std::function<void()> resend);
  // ArmOp for a round: each retry re-sends, through `send`, to every target
  // that has not answered yet.
  void ArmRound(uint64_t op_id, std::function<void(NodeId)> send);

  // Receiver-side idempotence: true if this op id's request was already
  // delivered here (a retry duplicate) and must be ignored. op id 0 marks
  // unsolicited messages (XMM eviction data returns) and is never filtered.
  // Tracking only runs when retries are armed; otherwise always false.
  bool DuplicateDelivery(uint64_t op_id);

  // Counts a suppressed duplicate/late reply (dsm.duplicates_suppressed).
  void CountDuplicate();

  // With failover on, drops the `targets` of an invalidation round that the
  // fault plan has removed: their copies died with them, so the round need
  // not burn its full retry horizon on silence. Each dropped node goes to
  // `forget` and is reported dead (gossip), so every survivor cancels its own
  // ops against it immediately. Returns the targets still alive.
  std::vector<NodeId> DropDeadTargets(std::vector<NodeId> targets,
                                      const std::function<void(NodeId)>& forget);

  // Request re-issue from an `on_fail` hook: `repair` (promote a backup,
  // reclaim a dead owner's page) runs as a cluster mutation at the next
  // sequencing point, so every node observes it in the same global order at
  // every shard count; then `reissue` replays the request from this node's
  // engine. A node the fault plan removed for good re-issues nothing: no
  // reply could ever reach it, so the request would time out and re-issue
  // forever.
  void ReissueAfter(std::function<void()> repair, std::function<void()> reissue);

  // Sends a shadow update (page attached) or a commit manifest (no page)
  // under this protocol's type tags.
  virtual void SendShadow(NodeId to, bool manifest, const ShadowUpdate& m, PageBuffer page) = 0;

  // Emits a protocol event into the machine-wide trace sink, stamped with this
  // agent's node and protocol tag. One branch when no monitor is attached;
  // never schedules events, so timelines are identical traced or not.
  void Trace(TraceKind kind, const MemObjectId& object, PageIndex page,
             NodeId peer = kInvalidNode, int64_t aux = 0, uint64_t op = 0);

  const RetryPolicy& retry_policy() const { return retry_; }

  // Requests carry a pending-op entry when failover and retries are both on,
  // so a silent target is classified kNodeDown and triggers recovery.
  bool ArmsRequests() const { return failover_.enabled && retry_.timeout_ns > 0; }

  // True when failover is on and the fault plan confirms `node` removed now.
  bool NodeDead(NodeId node);

  // True when failover is on and `owner` has been removed for at least the
  // configured lease: its pages may be reclaimed without its answer.
  bool LeaseExpired(NodeId owner);

  Engine& engine() { return engine_; }

  NodeId node_;
  StatsRegistry& stats_;
  FailoverConfig failover_;

 private:
  friend class ShadowStream;

  void OpDeadline(uint64_t op_id);
  SimDuration RetryDelay(int attempts_done) const;

  DsmSystem& dsm_;
  Engine& engine_;
  // Pending-op outcome counters, bound on first use (DESIGN.md §11).
  struct OpCounters {
    CounterHandle op_retries, op_node_down, op_timeouts, duplicates_suppressed;
  } op_counters_;
  std::string system_name_;  // for stall reports ("asvm node 3: ...")
  RetryPolicy retry_;
  TraceSink& trace_;  // the cluster's machine-wide sink
  TraceProtocol trace_protocol_;
  std::unordered_map<uint64_t, std::unique_ptr<PendingOp>> pending_ops_;
  // Delivered request op ids, remembered until no retry of the op can still be
  // in flight (time-based retention, not a fixed-size window: a count-bounded
  // FIFO could evict an id whose exchange was still live under wide fan-out,
  // letting a late retry duplicate re-execute a non-idempotent request).
  std::unordered_set<uint64_t> delivered_ops_;
  std::deque<std::pair<uint64_t, SimTime>> delivered_fifo_;
  SimDuration delivered_retention_ns_ = 0;
  SimTime process_busy_until_ = 0;
  ShadowStream shadow_{*this};
};

}  // namespace asvm

#endif  // SRC_DSM_PROTOCOL_AGENT_H_
