// Conservative-lookahead parallel simulation: N independent Engines, one per
// shard of the node space, driven in lockstep windows by a persistent worker
// pool. The ShardedEngine owns only the engines and the thread barrier; the
// window/lookahead policy (how far each window may run) lives with the caller
// — for the DSM cluster that is Cluster::DrainSharded (DESIGN.md §13) — and
// cross-node messages and mutations cross the barrier through a ShardMailbox
// (src/sim/shard_mailbox.h). Every Cluster is built on one, whatever its
// shard count: with one shard no worker is spawned and each window runs
// inline on the calling thread.
//
// Threading contract: shard engines run concurrently ONLY inside RunWindow().
// Between windows (and before/after a run) all engines are quiescent and the
// coordinating thread may touch any of them — that is when cross-shard
// deliveries are injected with Engine::ScheduleAt. The worker handoff uses a
// mutex + condition variables, which gives the happens-before edges TSan
// needs and that the deterministic replay relies on.
#ifndef SRC_SIM_SHARDED_ENGINE_H_
#define SRC_SIM_SHARDED_ENGINE_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/types.h"
#include "src/sim/engine.h"

namespace asvm {

class ShardedEngine {
 public:
  // Partitions `node_count` nodes into `shard_count` contiguous runs of
  // `nodes_per_block`-aligned blocks (so co-located resources — e.g. the
  // per-io-group paging disks — never straddle a shard). Requires
  // 1 <= shard_count <= ceil(node_count / nodes_per_block).
  ShardedEngine(int shard_count, int node_count, int nodes_per_block,
                SchedulerKind scheduler);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  int shard_count() const { return static_cast<int>(engines_.size()); }
  int node_count() const { return static_cast<int>(node_shard_.size()); }
  Engine& shard(int i) { return *engines_[i]; }

  // Node -> shard and node -> engine. Transport::Send and Deliver look these
  // up on every message, so both are one load from a per-node table.
  int shard_of(NodeId node) const { return node_shard_[static_cast<size_t>(node)]; }
  Engine& engine_for_node(NodeId node) { return *node_engine_[static_cast<size_t>(node)]; }

  // Runs every shard engine up to and including `deadline`, in parallel.
  // Shard 0 runs on the calling thread; the rest on the persistent workers
  // (none with one shard). Returns once all shards have drained their window.
  void RunWindow(SimTime deadline);

  // The three queries below run on every drain-loop iteration (AwaitLatency
  // polls RunFor millions of times per paper bench), so they are inline.

  // No pending event anywhere. Valid only between windows.
  bool AllEmpty() const {
    for (const auto& engine : engines_) {
      if (!engine->empty()) {
        return false;
      }
    }
    return true;
  }

  // Earliest pending event time across all shards, or kNoEvent when AllEmpty.
  static constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();
  SimTime MinNextTime() {
    SimTime next = kNoEvent;
    for (auto& engine : engines_) {
      if (!engine->empty()) {
        next = std::min(next, engine->NextEventTime());
      }
    }
    return next;
  }

  // Latest shard-local clock; the machine-visible Now() of a sharded run.
  SimTime MaxNow() const {
    SimTime now = 0;
    for (const auto& engine : engines_) {
      now = std::max(now, engine->Now());
    }
    return now;
  }

  uint64_t TotalExecuted() const;

  void set_event_limit(uint64_t per_shard_limit);

 private:
  void WorkerLoop(int shard_index);

  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<int> node_shard_;       // indexed by node
  std::vector<Engine*> node_engine_;  // indexed by node

  // Window barrier state, guarded by mu_.
  std::mutex mu_;
  std::condition_variable work_cv_;   // coordinator -> workers: new window
  std::condition_variable done_cv_;   // workers -> coordinator: window done
  uint64_t generation_ = 0;           // bumps once per window
  int running_ = 0;                   // workers still inside the window
  SimTime window_deadline_ = 0;
  bool shutdown_ = false;

  std::vector<std::thread> workers_;  // shards 1..N-1
};

}  // namespace asvm

#endif  // SRC_SIM_SHARDED_ENGINE_H_
