#include "src/dsm/protocol_agent.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "src/common/log.h"
#include "src/dsm/failover.h"

namespace asvm {

ProtocolAgent::ProtocolAgent(DsmSystem& dsm, NodeId node, TraceProtocol trace_protocol)
    : node_(node),
      stats_(dsm.cluster().stats()),
      failover_(dsm.cluster().params().failover),
      dsm_(dsm),
      engine_(dsm.cluster().engine_for(node)),
      system_name_(dsm.name()),
      retry_(dsm.cluster().params().retry),
      trace_(dsm.cluster().trace_sink()),
      trace_protocol_(trace_protocol) {
  // A delivered request id must be remembered for as long as its initiator
  // may still resend it. The last retry fires after the sum of every armed
  // deadline; doubling that span covers transit and service slack, after
  // which the id can be forgotten without readmitting a duplicate.
  if (retry_.timeout_ns > 0) {
    constexpr SimDuration kHorizonCap = INT64_MAX / 4;
    SimDuration horizon = 0;
    for (int k = 0; k <= retry_.max_retries && horizon < kHorizonCap; ++k) {
      horizon += RetryDelay(k);
    }
    delivered_retention_ns_ = 2 * std::min(horizon, kHorizonCap);
  }
}

void ProtocolAgent::Listen(Transport& transport, ProtocolId protocol) {
  transport.RegisterHandler(protocol, node_,
                            [this](NodeId src, Message& msg) { OnMessage(src, msg); });
}

Future<Status> ProtocolAgent::Process(SimDuration cost) {
  Promise<Status> done(engine_);
  const SimTime now = engine_.Now();
  const SimTime ready = std::max(now, process_busy_until_) + cost;
  process_busy_until_ = ready;
  engine_.Schedule(ready - now, [done]() { done.Set(Status::kOk); });
  return done.GetFuture();
}

uint64_t ProtocolAgent::OpenOp(int outstanding, const char* what, MemObjectId object,
                               PageIndex page) {
  const uint64_t op = dsm_.NextOpId(node_);
  RegisterOp(op, outstanding, what, object, page);
  return op;
}

uint64_t ProtocolAgent::OpenRound(std::vector<NodeId> targets, const char* what,
                                  MemObjectId object, PageIndex page) {
  const uint64_t op = OpenOp(static_cast<int>(targets.size()), what, object, page);
  pending_ops_.at(op)->targets = std::move(targets);
  return op;
}

void ProtocolAgent::RegisterOp(uint64_t op_id, int outstanding, const char* what,
                               MemObjectId object, PageIndex page) {
  auto pending = std::make_unique<PendingOp>(engine_);
  pending->outstanding = outstanding;
  pending->what = what;
  pending->object = object;
  pending->page = page;
  pending->opened_at = engine_.Now();
  pending_ops_[op_id] = std::move(pending);
}

Future<Status> ProtocolAgent::OpFuture(uint64_t op_id) {
  return pending_ops_.at(op_id)->done.GetFuture();
}

ProtocolAgent::PendingOp* ProtocolAgent::FindOp(uint64_t op_id) {
  auto it = pending_ops_.find(op_id);
  return it == pending_ops_.end() ? nullptr : it->second.get();
}

void ProtocolAgent::EraseOp(uint64_t op_id) { pending_ops_.erase(op_id); }

void ProtocolAgent::ResolveOp(uint64_t op_id, Status status) {
  auto it = pending_ops_.find(op_id);
  if (it == pending_ops_.end()) {
    // A reply for an op that already resolved (e.g. a retry's duplicate
    // decline, or an answer landing after the deadline gave up).
    CountDuplicate();
    return;
  }
  it->second->done.Set(status);
  pending_ops_.erase(it);
}

void ProtocolAgent::AckOp(uint64_t op_id, NodeId from, bool keep_entry) {
  auto it = pending_ops_.find(op_id);
  if (it == pending_ops_.end()) {
    CountDuplicate();
    return;
  }
  PendingOp& op = *it->second;
  if (from != kInvalidNode &&
      std::find(op.acked.begin(), op.acked.end(), from) != op.acked.end()) {
    // This responder already answered; a retry produced a second copy.
    CountDuplicate();
    return;
  }
  if (from != kInvalidNode) {
    op.acked.push_back(from);
  }
  if (op.done.is_set()) {
    // Entry kept for payload harvest after resolving; nothing left to count.
    return;
  }
  if (--op.outstanding == 0) {
    op.done.Set(Status::kOk);
    if (!keep_entry) {
      pending_ops_.erase(it);
    }
  }
}

void ProtocolAgent::ArmOp(uint64_t op_id, std::function<void()> resend) {
  if (retry_.timeout_ns <= 0) {
    return;
  }
  auto it = pending_ops_.find(op_id);
  if (it == pending_ops_.end()) {
    return;
  }
  it->second->resend = std::move(resend);
  engine_.Schedule(retry_.timeout_ns, [this, op_id]() { OpDeadline(op_id); });
}

void ProtocolAgent::ArmRound(uint64_t op_id, std::function<void(NodeId)> send) {
  ArmOp(op_id, [this, op_id, send = std::move(send)]() {
    const PendingOp& op = *pending_ops_.at(op_id);  // a firing deadline's op is live
    for (NodeId t : op.targets) {
      if (std::find(op.acked.begin(), op.acked.end(), t) == op.acked.end()) {
        send(t);
      }
    }
  });
}

SimDuration ProtocolAgent::RetryDelay(int attempts_done) const {
  // The backoff grows geometrically, so an aggressive policy (large backoff,
  // many retries) exceeds int64 range after a handful of doublings; a raw
  // cast of such a double is UB and in practice lands negative, tripping the
  // scheduler's delay >= 0 check. Grow in double but saturate at the policy
  // cap before ever casting back.
  const SimDuration cap_ns = std::max(retry_.max_delay_ns, retry_.timeout_ns);
  const double cap = static_cast<double>(cap_ns);
  double delay = static_cast<double>(retry_.timeout_ns);
  for (int i = 0; i < attempts_done && delay < cap; ++i) {
    delay *= retry_.backoff;
  }
  if (!(delay < cap)) {
    return cap_ns;
  }
  return static_cast<SimDuration>(delay);
}

void ProtocolAgent::OpDeadline(uint64_t op_id) {
  auto it = pending_ops_.find(op_id);
  if (it == pending_ops_.end() || it->second->done.is_set()) {
    return;  // resolved before the deadline — the common case
  }
  PendingOp& op = *it->second;
  if (op.attempts < retry_.max_retries && op.resend) {
    ++op.attempts;
    op_counters_.op_retries.Add(stats_, "dsm.op_retries");
    const SimDuration next_deadline = RetryDelay(op.attempts);
    Trace(TraceKind::kRetry, op.object, op.page, kInvalidNode, next_deadline, op_id);
    op.resend();
    engine_.Schedule(next_deadline, [this, op_id]() { OpDeadline(op_id); });
    return;
  }
  // Retries exhausted. Classify the failure: when the fault plan confirms
  // every still-unanswered target node is removed, this is not a transient
  // loss — resolve kNodeDown so failover-aware callers can promote a backup
  // rather than blindly retrying. When any silent target is still alive the
  // op resolves kTimeout.
  Status status = Status::kTimeout;
  std::vector<NodeId> dead_targets;
  const FaultPlan& plan = dsm_.cluster().fault_plan();
  if (!op.targets.empty()) {
    const SimTime now = engine_.Now();
    bool all_unanswered_dead = true;
    for (NodeId t : op.targets) {
      if (std::find(op.acked.begin(), op.acked.end(), t) != op.acked.end()) {
        continue;
      }
      if (plan.NodeAlive(t, now)) {
        all_unanswered_dead = false;
        break;
      }
      dead_targets.push_back(t);
    }
    if (!dead_targets.empty() && all_unanswered_dead) {
      status = Status::kNodeDown;
    } else {
      dead_targets.clear();
    }
  }
  if (status == Status::kNodeDown) {
    op_counters_.op_node_down.Add(stats_, "dsm.op_node_down");
  } else {
    op_counters_.op_timeouts.Add(stats_, "dsm.op_timeouts");
  }
  Trace(status == Status::kNodeDown ? TraceKind::kFailover : TraceKind::kTimeout, op.object,
        op.page, kInvalidNode, op.attempts, op_id);
  ASVM_LOG_WARN << system_name_ << " node " << node_ << ": pending op " << op_id << " ("
                << op.what << ") exhausted " << op.attempts << " retries; resolving "
                << ToString(status);
  auto on_fail = std::move(op.on_fail);
  it->second->done.Set(status);
  pending_ops_.erase(it);
  // Gossip the confirmed deaths before the local failover hook runs: the
  // backend enqueues a barrier-ordered death notice so every bystander fails
  // over at the next sequencing point instead of burning its own horizon.
  for (NodeId t : dead_targets) {
    dsm_.ReportDeath(node_, t);
  }
  if (on_fail) {
    on_fail(status);
  }
}

int ProtocolAgent::FailOpsOnDeadTargets() {
  const FaultPlan& plan = dsm_.cluster().fault_plan();
  if (pending_ops_.empty()) {
    return 0;
  }
  const SimTime now = engine_.Now();
  // Snapshot + sort: the unordered table must not decide failure order, and
  // `on_fail` hooks may insert fresh ops while we walk.
  const std::vector<uint64_t> ids = SortedKeys(pending_ops_);
  int failed = 0;
  for (uint64_t id : ids) {
    auto it = pending_ops_.find(id);
    if (it == pending_ops_.end() || it->second->done.is_set()) {
      continue;
    }
    PendingOp& op = *it->second;
    if (op.targets.empty()) {
      continue;
    }
    bool any_unanswered = false;
    bool all_unanswered_dead = true;
    for (NodeId t : op.targets) {
      if (std::find(op.acked.begin(), op.acked.end(), t) != op.acked.end()) {
        continue;
      }
      any_unanswered = true;
      if (plan.NodeAlive(t, now)) {
        all_unanswered_dead = false;
        break;
      }
    }
    if (!any_unanswered || !all_unanswered_dead) {
      continue;
    }
    op_counters_.op_node_down.Add(stats_, "dsm.op_node_down");
    Trace(TraceKind::kFailover, op.object, op.page, kInvalidNode, op.attempts, id);
    auto on_fail = std::move(op.on_fail);
    it->second->done.Set(Status::kNodeDown);
    pending_ops_.erase(it);
    ++failed;
    if (on_fail) {
      on_fail(Status::kNodeDown);
    }
  }
  return failed;
}

std::vector<NodeId> ProtocolAgent::DropDeadTargets(std::vector<NodeId> targets,
                                                   const std::function<void(NodeId)>& forget) {
  if (!failover_.enabled) {
    return targets;
  }
  const FaultPlan& plan = dsm_.cluster().fault_plan();
  std::vector<NodeId> alive;
  alive.reserve(targets.size());
  for (NodeId t : targets) {
    if (plan.NodeAlive(t, engine_.Now())) {
      alive.push_back(t);
    } else {
      forget(t);
      dsm_.ReportDeath(node_, t);
    }
  }
  return alive;
}

bool ProtocolAgent::NodeDead(NodeId node) {
  if (!failover_.enabled || node == kInvalidNode) {
    return false;
  }
  return !dsm_.cluster().fault_plan().NodeAlive(node, engine_.Now());
}

bool ProtocolAgent::LeaseExpired(NodeId owner) {
  if (!failover_.enabled || owner == kInvalidNode) {
    return false;
  }
  const SimTime since = dsm_.cluster().fault_plan().RemovedSince(owner, engine_.Now());
  return since >= 0 && engine_.Now() >= since + failover_.lease_ns;
}

void ProtocolAgent::OnDeathNotice(NodeId dead) {
  shadow_.RetargetShadowStream(dead);
  FailOpsOnDeadTargets();
}

void ProtocolAgent::ReissueAfter(std::function<void()> repair, std::function<void()> reissue) {
  if (dsm_.cluster().fault_plan().RemovedForGood(node_, engine_.Now())) {
    return;
  }
  dsm_.cluster().Mutate(node_, [this, repair = std::move(repair),
                                reissue = std::move(reissue)]() {
    repair();
    engine_.Post([this, reissue]() {
      dsm_.failover_counters().reissues.Add(stats_, kStatReissues);
      reissue();
    });
  });
}

bool ProtocolAgent::DuplicateDelivery(uint64_t op_id) {
  if (retry_.timeout_ns <= 0 || op_id == 0) {
    return false;  // retries disarmed (no duplicates possible) or unsolicited
  }
  // Forget only ids old enough that no retry of their op can still be in
  // flight. Eviction is driven by simulated time, never by table size: under
  // a wide fan-out a count-bounded window would evict live ids and readmit
  // their late duplicates.
  const SimTime now = engine_.Now();
  while (!delivered_fifo_.empty() &&
         now - delivered_fifo_.front().second > delivered_retention_ns_) {
    delivered_ops_.erase(delivered_fifo_.front().first);
    delivered_fifo_.pop_front();
  }
  if (delivered_ops_.count(op_id) != 0) {
    CountDuplicate();
    return true;
  }
  delivered_ops_.insert(op_id);
  delivered_fifo_.emplace_back(op_id, now);
  return false;
}

void ProtocolAgent::CountDuplicate() {
  op_counters_.duplicates_suppressed.Add(stats_, "dsm.duplicates_suppressed");
}

void ProtocolAgent::Trace(TraceKind kind, const MemObjectId& object, PageIndex page,
                          NodeId peer, int64_t aux, uint64_t op) {
  if (!trace_.enabled()) {
    return;
  }
  TraceEvent e;
  e.time = engine_.Now();
  e.node = node_;
  e.protocol = trace_protocol_;
  e.kind = kind;
  e.object = object;
  e.page = page;
  e.peer = peer;
  e.aux = aux;
  e.op = op;
  trace_.Emit(e);
}

bool ProtocolAgent::DescribeStall(std::string& out) const {
  if (pending_ops_.empty()) {
    return false;
  }
  // Sort op ids so reports are deterministic despite the unordered table.
  for (uint64_t id : SortedKeys(pending_ops_)) {
    const PendingOp& op = *pending_ops_.at(id);
    out += "  " + system_name_ + " node " + std::to_string(node_) + ": pending op " +
           std::to_string(id) + " (" + op.what + ")";
    if (op.object.valid()) {
      out += " object " + op.object.ToString();
    }
    if (op.page != kInvalidPage) {
      out += " page " + std::to_string(op.page);
    }
    out += ", " + std::to_string(op.outstanding) + " replies outstanding (" +
           std::to_string(op.acked.size()) + " received), opened t=" +
           std::to_string(op.opened_at) + " ns, " + std::to_string(op.attempts) +
           " retries\n";
  }
  return true;
}

}  // namespace asvm
