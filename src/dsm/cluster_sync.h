// Cluster-wide coroutine synchronization for workload drivers whose
// participants live on different nodes — and so, in a sharded run, on
// different engines. The single-engine primitives in src/sim/sync.h mutate a
// plain counter from whatever thread resumes the coroutine, which is exactly
// the cross-thread driver mutation the sharded contract forbids; these route
// every signal through Cluster::Mutate instead, so arrival counts and wake-ups
// are sequenced at deterministic inter-window points and cost one lookahead
// uniformly at every shard count (--shards=1 included: it runs the same
// windowed drain).
//
// Wake order is normalized to ascending node id, so every engine resumes its
// share of the released coroutines in the same relative order at every shard
// count, and anything they send is replayed in (send_time, source node, seq)
// order — ties at the release timestamp stay byte-identical across shard
// counts.
#ifndef SRC_DSM_CLUSTER_SYNC_H_
#define SRC_DSM_CLUSTER_SYNC_H_

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "src/common/log.h"
#include "src/common/types.h"
#include "src/dsm/cluster.h"

namespace asvm {

namespace internal {

struct ClusterWaiter {
  NodeId node;
  uint64_t order;  // registration order, tie-break among same-node waiters
  std::coroutine_handle<> handle;
};

// Resumes every registered waiter on its own node's engine, ascending node
// id (registration order within a node).
inline void ResumeClusterWaiters(Cluster& cluster, std::vector<ClusterWaiter>& waiters) {
  std::sort(waiters.begin(), waiters.end(),
            [](const ClusterWaiter& a, const ClusterWaiter& b) {
              return a.node != b.node ? a.node < b.node : a.order < b.order;
            });
  for (ClusterWaiter& w : waiters) {
    cluster.engine_for(w.node).Post([h = w.handle]() { h.resume(); });
  }
  waiters.clear();
}

}  // namespace internal

// Counted join: Add() from the driver (machine quiescent), Done(from) from
// any node's execution context; Wait(node) suspends until the count reaches
// zero. All internal state is touched only at mutation-apply time (every
// engine quiescent), so participants may live on any mix of shards.
class ClusterWaitGroup {
 public:
  explicit ClusterWaitGroup(Cluster& cluster) : cluster_(cluster) {}
  ClusterWaitGroup(const ClusterWaitGroup&) = delete;
  ClusterWaitGroup& operator=(const ClusterWaitGroup&) = delete;

  // Driver-side only (machine quiescent): signals to expect.
  void Add(int n = 1) { count_ += n; }
  int count() const { return count_; }

  // Signals completion from node `from`'s execution context; takes effect at
  // the next mutation sequencing point, one lookahead later.
  void Done(NodeId from) {
    cluster_.Mutate(from, [this]() {
      ASVM_CHECK_MSG(count_ > 0, "ClusterWaitGroup::Done below zero");
      if (--count_ == 0) {
        internal::ResumeClusterWaiters(cluster_, waiters_);
      }
    });
  }

  struct Awaiter {
    ClusterWaitGroup* wg;
    NodeId node;
    // Reading count_ here is safe: it only changes while every engine is
    // quiescent, and window boundaries order those writes against this read.
    bool await_ready() const { return wg->count_ == 0; }
    void await_suspend(std::coroutine_handle<> handle) {
      // Registration itself is a mutation: waiters_ must not grow from a
      // shard thread while another waiter registers elsewhere.
      wg->cluster_.Mutate(node, [wg = wg, node = node, handle]() {
        if (wg->count_ == 0) {
          wg->cluster_.engine_for(node).Post([handle]() { handle.resume(); });
        } else {
          wg->waiters_.push_back({node, wg->next_order_++, handle});
        }
      });
    }
    void await_resume() const {}
  };

  // Awaitable from node `node`'s execution context.
  Awaiter Wait(NodeId node) { return Awaiter{this, node}; }

 private:
  friend struct Awaiter;
  Cluster& cluster_;
  int count_ = 0;
  uint64_t next_order_ = 0;
  std::vector<internal::ClusterWaiter> waiters_;
};

// Cyclic barrier across nodes: the round releases when all `parties` have
// arrived; reusable for the next round immediately (a party cannot re-arrive
// before its resume, so rounds cannot overlap).
class ClusterBarrier {
 public:
  ClusterBarrier(Cluster& cluster, int parties) : cluster_(cluster), parties_(parties) {
    ASVM_CHECK_MSG(parties >= 1, "barrier needs at least one party");
  }
  ClusterBarrier(const ClusterBarrier&) = delete;
  ClusterBarrier& operator=(const ClusterBarrier&) = delete;

  struct Awaiter {
    ClusterBarrier* barrier;
    NodeId node;
    bool await_ready() const { return barrier->parties_ <= 1; }
    void await_suspend(std::coroutine_handle<> handle) {
      barrier->cluster_.Mutate(node, [b = barrier, node = node, handle]() {
        b->waiters_.push_back({node, b->next_order_++, handle});
        if (static_cast<int>(b->waiters_.size()) == b->parties_) {
          internal::ResumeClusterWaiters(b->cluster_, b->waiters_);
        }
      });
    }
    void await_resume() const {}
  };

  // Awaitable arrival from node `node`'s execution context.
  Awaiter Arrive(NodeId node) { return Awaiter{this, node}; }

 private:
  friend struct Awaiter;
  Cluster& cluster_;
  int parties_;
  uint64_t next_order_ = 0;
  std::vector<internal::ClusterWaiter> waiters_;
};

}  // namespace asvm

#endif  // SRC_DSM_CLUSTER_SYNC_H_
