#include "src/dsm/cluster_mutator.h"

#include <utility>

#include "src/common/log.h"

namespace asvm {

ClusterMutator::ClusterMutator(ShardedEngine& engines, SimDuration latency, StatsRegistry& stats)
    : engines_(engines), latency_(latency), stats_(stats) {
  ASVM_CHECK_MSG(latency_ >= 1, "mutation latency collapsed to zero");
  outboxes_.resize(static_cast<size_t>(engines.shard_count()));
  seq_.assign(static_cast<size_t>(engines.node_count()), 0);
}

void ClusterMutator::Enqueue(NodeId origin, EventFn fn) {
  Pending p;
  p.send_time = engines_.engine_for_node(origin).Now();
  p.origin = origin;
  p.seq = ++seq_[static_cast<size_t>(origin)];
  p.fn = std::move(fn);
  outboxes_[static_cast<size_t>(engines_.shard_of(origin))].push_back(std::move(p));
}

void ClusterMutator::CollectOutbox(std::vector<Pending>& outbox) {
  for (Pending& p : outbox) {
    heap_.push(std::move(p));
  }
  outbox.clear();
}

void ClusterMutator::ApplyAt(SimTime when) {
  while (!heap_.empty()) {
    const SimTime apply = ApplyTime(heap_.top().send_time);
    if (apply != when) {
      ASVM_CHECK_MSG(apply > when, "mutation missed its apply time");
      break;
    }
    Pending p = std::move(const_cast<Pending&>(heap_.top()));
    heap_.pop();
    stats_.Add("sim.mutations_applied");
    p.fn();
  }
}

}  // namespace asvm
