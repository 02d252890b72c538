// The barrier mailbox of a sharded run (DESIGN.md §13): everything that
// crosses engines — mesh messages, cluster mutations — is posted here from
// its source node's execution context and replayed by the coordinator in one
// global (time, source node, per-source seq) order.
//
// A node's posts all happen on its own shard's thread, in the node's causal
// order, so the per-source seq stamped at Post — and so the whole replay key —
// is the same at every shard count, unlike per-shard emission order, which
// depends on how nodes group into shards. That is what keeps timelines
// byte-identical at --shards=1 and --shards=N.
//
// Threading contract: only shard i's thread (or the driver while every engine
// is quiescent) posts into outbox i, and only for nodes of shard i, so the
// per-source seq of a node is written by one thread. Collect, Pop and the
// queries run on the coordinator between windows.
#ifndef SRC_SIM_SHARD_MAILBOX_H_
#define SRC_SIM_SHARD_MAILBOX_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/time.h"

namespace asvm {

template <typename T>
class ShardMailbox {
 public:
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  struct Entry {
    SimTime time;
    NodeId src;
    uint64_t seq;  // per-source post counter
    T value;
  };

  explicit ShardMailbox(const ShardedEngine& engines)
      : engines_(engines),
        outboxes_(static_cast<size_t>(engines.shard_count())),
        seq_(static_cast<size_t>(engines.node_count()), 0) {}

  ShardMailbox(const ShardMailbox&) = delete;
  ShardMailbox& operator=(const ShardMailbox&) = delete;

  // Posts `value` stamped (time, src) from src's execution context. It stays
  // in src's shard outbox until the next Collect.
  void Post(SimTime time, NodeId src, T&& value) {
    outboxes_[static_cast<size_t>(engines_.shard_of(src))].emplace_back(
        time, src, ++seq_[static_cast<size_t>(src)], std::move(value));
  }

  // Moves every outbox entry into the replay heap. Inline, with empty
  // outboxes skipped: the drain loop runs it on every iteration, mostly with
  // nothing to collect.
  void Collect() {
    for (auto& outbox : outboxes_) {
      if (!outbox.empty()) {
        CollectOutbox(outbox);
      }
    }
  }

  // Nothing in the heap or in any outbox.
  bool Empty() const {
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

  // Time of the earliest collected entry, kNever when the heap is empty.
  SimTime NextTime() const { return heap_.empty() ? kNever : heap_.front().time; }

  // Removes and returns the earliest collected entry. Requires NextTime() !=
  // kNever.
  Entry Pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    return e;
  }

 private:
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.src != b.src) return a.src > b.src;
      return a.seq > b.seq;
    }
  };

  void CollectOutbox(std::vector<Entry>& outbox) {
    for (Entry& e : outbox) {
      heap_.push_back(std::move(e));
      std::push_heap(heap_.begin(), heap_.end(), Later{});
    }
    outbox.clear();
  }

  const ShardedEngine& engines_;
  std::vector<std::vector<Entry>> outboxes_;  // indexed by shard
  std::vector<uint64_t> seq_;                 // indexed by source node
  std::vector<Entry> heap_;                   // min-heap on (time, src, seq)
};

}  // namespace asvm

#endif  // SRC_SIM_SHARD_MAILBOX_H_
