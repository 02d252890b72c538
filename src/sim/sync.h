// Cooperative synchronization primitives for simulated tasks: wait groups
// (fork/join) and counting semaphores (bounded thread pools).
#ifndef SRC_SIM_SYNC_H_
#define SRC_SIM_SYNC_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <vector>

#include "src/common/log.h"
#include "src/sim/engine.h"

namespace asvm {

// Fork/join: Add() before spawning, Done() at each completion, co_await Wait()
// to join. A WaitGroup may be reused after it reaches zero.
class WaitGroup {
 public:
  explicit WaitGroup(Engine& engine) : engine_(engine) {}

  void Add(int64_t n = 1) { count_ += n; }

  void Done() {
    ASVM_CHECK_MSG(count_ > 0, "WaitGroup::Done without Add");
    if (--count_ == 0) {
      WakeAll();
    }
  }

  struct Awaiter {
    WaitGroup* group;
    bool await_ready() const noexcept { return group->count_ == 0; }
    void await_suspend(std::coroutine_handle<> handle) { group->waiters_.push_back(handle); }
    void await_resume() const noexcept {}
  };
  Awaiter Wait() { return Awaiter{this}; }

  int64_t count() const { return count_; }

 private:
  void WakeAll() {
    std::vector<std::coroutine_handle<>> to_resume;
    to_resume.swap(waiters_);
    for (auto handle : to_resume) {
      engine_.Post([handle]() { handle.resume(); });
    }
  }

  Engine& engine_;
  int64_t count_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

// Counting semaphore; models bounded resources such as the fixed pool of
// kernel threads XMM's internal copy pagers block on.
class SimSemaphore {
 public:
  SimSemaphore(Engine& engine, int64_t permits) : engine_(engine), permits_(permits) {}

  struct Awaiter {
    SimSemaphore* sem;
    bool await_ready() const noexcept {
      if (sem->permits_ > 0) {
        --sem->permits_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> handle) {
      sem->queue_.push_back(handle);
      ++sem->blocked_;
    }
    void await_resume() const noexcept {}
  };
  Awaiter Acquire() { return Awaiter{this}; }

  // True if a permit was immediately available (and consumed).
  bool TryAcquire() {
    if (permits_ > 0) {
      --permits_;
      return true;
    }
    return false;
  }

  void Release() {
    if (!queue_.empty()) {
      auto handle = queue_.front();
      queue_.pop_front();
      --blocked_;
      // The released permit passes directly to the waiter.
      engine_.Post([handle]() { handle.resume(); });
    } else {
      ++permits_;
    }
  }

  int64_t available() const { return permits_; }
  int64_t blocked() const { return blocked_; }

 private:
  Engine& engine_;
  int64_t permits_;
  int64_t blocked_ = 0;
  std::deque<std::coroutine_handle<>> queue_;
};

}  // namespace asvm

#endif  // SRC_SIM_SYNC_H_
