// Shard-safe, deterministically ordered cluster mutations (DESIGN.md §13).
//
// Driver-originated structural changes — fork directory inserts, region
// creation mid-run, cross-node completion signals — mutate state that many
// nodes (and so, in a sharded run, many engines) observe. Executing them
// directly from whatever thread happens to hold the driver breaks both the
// memory model (a shard thread may be reading the directory concurrently) and
// the lookahead argument (a mutation at time t visible to another shard
// before t + lookahead would invalidate the causally-closed window).
//
// The mutator fixes both with the discipline the mesh mailbox already uses
// for messages: a mutation enqueued from node `origin`'s execution context is
// stamped with that engine's current time and applied exactly one lookahead
// later, at an inter-window sequencing point where every engine is quiescent
// and all clocks equal the apply time. Ties are resolved by
// (origin node, per-origin seq) — the mailbox's own key, and unlike a
// per-shard counter independent of the shard count — so the apply order at
// equal timestamps is byte-identical at --shards=1 and --shards=N. Every
// Cluster drains through the same windowed loop at every shard count, so a
// mutation may be enqueued at any time; shard count stays a pure performance
// knob.
#ifndef SRC_DSM_CLUSTER_MUTATOR_H_
#define SRC_DSM_CLUSTER_MUTATOR_H_

#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/sim/event_fn.h"
#include "src/sim/sharded_engine.h"

namespace asvm {

class ClusterMutator {
 public:
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  ClusterMutator(ShardedEngine& engines, SimDuration latency, StatsRegistry& stats);

  ClusterMutator(const ClusterMutator&) = delete;
  ClusterMutator& operator=(const ClusterMutator&) = delete;

  // Enqueues `fn` from node `origin`'s execution context: an event running on
  // origin's engine, or the driver while the machine is quiescent. The
  // mutation is stamped with origin's current engine time and applied at
  // stamp + latency(), on the coordinator thread, with every engine quiescent
  // and synchronized to the apply time.
  void Enqueue(NodeId origin, EventFn fn);

  // Uniform enqueue→apply latency: the cluster's conservative lookahead.
  SimDuration latency() const { return latency_; }

  // --- Coordinator-side drain interface (Cluster only) -----------------------
  // All four are called with every engine quiescent (between windows). The
  // first three run on every drain-loop iteration, mostly with nothing
  // pending, so they are inline.

  // Moves freshly-enqueued mutations from the per-shard outboxes into the
  // apply heap.
  void Collect() {
    for (auto& outbox : outboxes_) {
      if (!outbox.empty()) {
        CollectOutbox(outbox);
      }
    }
  }
  // No mutation pending anywhere (heap and outboxes).
  bool Idle() const {
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
  // Apply time of the earliest pending mutation, kNever when the heap is
  // empty. Only meaningful after Collect().
  SimTime NextApplyTime() const {
    return heap_.empty() ? kNever : ApplyTime(heap_.top().send_time);
  }
  // Pops and runs every mutation whose apply time is `when`, in
  // (send_time, origin, seq) order. Mutations enqueued by a running mutation
  // land in the outboxes for the next Collect().
  void ApplyAt(SimTime when);

 private:
  struct Pending {
    SimTime send_time;
    NodeId origin;
    uint64_t seq;
    EventFn fn;
  };
  struct ApplyLater {
    bool operator()(const Pending& a, const Pending& b) const {
      if (a.send_time != b.send_time) return a.send_time > b.send_time;
      if (a.origin != b.origin) return a.origin > b.origin;
      return a.seq > b.seq;
    }
  };

  void CollectOutbox(std::vector<Pending>& outbox);
  SimTime ApplyTime(SimTime send_time) const {
    return latency_ > kNever - send_time ? kNever : send_time + latency_;
  }

  ShardedEngine& engines_;
  SimDuration latency_;
  StatsRegistry& stats_;
  // Only shard i's thread (or the quiescent driver) appends to outboxes_[i];
  // the coordinator drains them between windows — the same single-writer
  // discipline as the mesh mailbox. seq_ is per origin node: one origin's
  // enqueues all come from one execution context, and the counter's value
  // does not depend on how nodes are packed into shards.
  std::vector<std::vector<Pending>> outboxes_;
  std::vector<uint64_t> seq_;  // per-origin-node enqueue counter
  std::priority_queue<Pending, std::vector<Pending>, ApplyLater> heap_;
};

}  // namespace asvm

#endif  // SRC_DSM_CLUSTER_MUTATOR_H_
