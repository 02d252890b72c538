#include "src/dsm/cluster_mutator.h"

#include <utility>

#include "src/common/log.h"

namespace asvm {

ClusterMutator::ClusterMutator(ShardRouter* router, int shard_count, int node_count,
                               SimDuration latency, StatsRegistry* stats)
    : router_(router), latency_(latency), stats_(stats) {
  ASVM_CHECK_MSG(latency_ >= 1, "mutation latency collapsed to zero");
  outboxes_.resize(static_cast<size_t>(shard_count));
  seq_.assign(static_cast<size_t>(node_count), 0);
}

void ClusterMutator::Enqueue(NodeId origin, EventFn fn) {
  Arm();
  Pending p;
  p.send_time = router_->engine_for(origin).Now();
  p.origin = origin;
  p.seq = ++seq_[static_cast<size_t>(origin)];
  p.fn = std::move(fn);
  outboxes_[static_cast<size_t>(router_->shard_of(origin))].push_back(std::move(p));
}

void ClusterMutator::Collect() {
  for (auto& outbox : outboxes_) {
    for (Pending& p : outbox) {
      heap_.push(std::move(p));
    }
    outbox.clear();
  }
}

bool ClusterMutator::Idle() const {
  if (!heap_.empty()) {
    return false;
  }
  for (const auto& outbox : outboxes_) {
    if (!outbox.empty()) {
      return false;
    }
  }
  return true;
}

SimTime ClusterMutator::NextApplyTime() const {
  if (heap_.empty()) {
    return kNever;
  }
  const SimTime t = heap_.top().send_time;
  return latency_ > kNever - t ? kNever : t + latency_;
}

void ClusterMutator::ApplyAt(SimTime when) {
  while (!heap_.empty()) {
    const SimTime t = heap_.top().send_time;
    const SimTime apply = latency_ > kNever - t ? kNever : t + latency_;
    if (apply != when) {
      ASVM_CHECK_MSG(apply > when, "mutation missed its apply time");
      break;
    }
    Pending p = std::move(const_cast<Pending&>(heap_.top()));
    heap_.pop();
    stats_->Add("sim.mutations_applied");
    p.fn();
  }
}

}  // namespace asvm
