#include "src/sim/sharded_engine.h"

#include <algorithm>

#include "src/common/log.h"

namespace asvm {

ShardedEngine::ShardedEngine(int shard_count, int node_count, int nodes_per_block,
                             SchedulerKind scheduler) {
  ASVM_CHECK_MSG(shard_count >= 1, "shard count must be positive");
  ASVM_CHECK_MSG(node_count >= 1 && nodes_per_block >= 1, "bad shard partition");
  const int block_count = (node_count + nodes_per_block - 1) / nodes_per_block;
  ASVM_CHECK_MSG(shard_count <= block_count,
                 "more shards than io-group blocks; lower --shards or the "
                 "io-group size");
  engines_.reserve(shard_count);
  for (int i = 0; i < shard_count; ++i) {
    engines_.push_back(std::make_unique<Engine>(scheduler));
  }
  node_shard_.resize(static_cast<size_t>(node_count));
  node_engine_.resize(static_cast<size_t>(node_count));
  for (NodeId n = 0; n < node_count; ++n) {
    const int shard = (n / nodes_per_block) * shard_count / block_count;
    node_shard_[static_cast<size_t>(n)] = shard;
    node_engine_[static_cast<size_t>(n)] = engines_[shard].get();
  }
  for (int i = 1; i < shard_count; ++i) {
    workers_.emplace_back([this, i]() { WorkerLoop(i); });
  }
}

ShardedEngine::~ShardedEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

void ShardedEngine::WorkerLoop(int shard_index) {
  uint64_t seen_generation = 0;
  for (;;) {
    SimTime deadline;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [&]() { return shutdown_ || generation_ != seen_generation; });
      if (shutdown_) {
        return;
      }
      seen_generation = generation_;
      deadline = window_deadline_;
    }
    engines_[shard_index]->RunUntil(deadline);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--running_ == 0) {
        done_cv_.notify_one();
      }
    }
  }
}

void ShardedEngine::RunWindow(SimTime deadline) {
  if (shard_count() == 1) {
    engines_[0]->RunUntil(deadline);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    window_deadline_ = deadline;
    running_ = shard_count() - 1;
    ++generation_;
  }
  work_cv_.notify_all();
  engines_[0]->RunUntil(deadline);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&]() { return running_ == 0; });
}

uint64_t ShardedEngine::TotalExecuted() const {
  uint64_t total = 0;
  for (const auto& engine : engines_) {
    total += engine->executed_events();
  }
  return total;
}

void ShardedEngine::set_event_limit(uint64_t per_shard_limit) {
  for (auto& engine : engines_) {
    engine->set_event_limit(per_shard_limit);
  }
}

}  // namespace asvm
