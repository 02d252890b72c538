// Deterministic discrete-event simulation engine. Single-threaded: events fire
// in (time, insertion-sequence) order, so runs with equal seeds are bit-stable.
//
// The ordering contract lives in the scheduler behind the engine
// (src/sim/scheduler.h). The default is the pooled timer-wheel core;
// SchedulerKind::kReference selects the original heap implementation, kept as
// the oracle for differential testing (tests/scheduler_equivalence_test.cc).
#ifndef SRC_SIM_ENGINE_H_
#define SRC_SIM_ENGINE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>

#include "src/common/log.h"
#include "src/sim/event_fn.h"
#include "src/sim/scheduler.h"
#include "src/sim/time.h"

namespace asvm {

class Engine {
 public:
  explicit Engine(SchedulerKind scheduler = SchedulerKind::kTimerWheel)
      : scheduler_kind_(scheduler), queue_(MakeScheduler(scheduler)) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime Now() const { return now_; }
  SchedulerKind scheduler_kind() const { return scheduler_kind_; }

  // Schedules fn to run at Now() + delay (delay >= 0). Events with equal time
  // fire in scheduling order.
  void Schedule(SimDuration delay, EventFn fn);

  // Schedules fn at an absolute time (time >= Now()). Used by the sharded
  // barrier to inject cross-shard deliveries at their precomputed arrival
  // time; equal-time events still fire in scheduling order.
  void ScheduleAt(SimTime time, EventFn fn);

  // Schedules fn at the current time, after all currently-runnable events that
  // were scheduled before it. Takes the scheduler's zero-delay fast lane.
  void Post(EventFn fn) { Schedule(0, std::move(fn)); }

  // Runs until the event queue drains. Returns the number of events executed.
  uint64_t Run();

  // Runs until the queue drains or simulated time would pass deadline.
  // Events at exactly deadline still run. Returns true if the queue drained.
  bool RunUntil(SimTime deadline);

  // Saturating: a duration that would overflow SimTime clamps the deadline to
  // the maximum representable time instead of wrapping negative (mirrors the
  // RetryDelay overflow fix).
  bool RunFor(SimDuration duration) {
    ASVM_CHECK_MSG(duration >= 0, "negative RunFor duration");
    const SimTime limit = std::numeric_limits<SimTime>::max();
    return RunUntil(duration > limit - now_ ? limit : now_ + duration);
  }

  // Moves the clock forward without running anything. A drained engine's
  // clock stops at its own last event, so after a sharded drain the shard
  // clocks diverge; the coordinator re-synchronizes them to the global clock
  // the single-threaded timeline would show (Cluster::DrainSharded). Never
  // jumps over a pending event.
  void AdvanceTo(SimTime time) {
    ASVM_CHECK_MSG(time >= now_, "AdvanceTo moving backwards");
    ASVM_CHECK_MSG(queue_->Empty() || queue_->NextTime() >= time,
                   "AdvanceTo would skip pending events");
    now_ = time;
  }

  uint64_t executed_events() const { return executed_; }
  bool empty() const { return queue_->Empty(); }

  // Time of the earliest pending event. Requires !empty(). Used by the sharded
  // barrier to compute the conservative window bound.
  SimTime NextEventTime() { return queue_->NextTime(); }

  // Safety valve for tests: aborts the run if more events than this execute.
  void set_event_limit(uint64_t limit) { event_limit_ = limit; }

 private:
  void RunOne();

  SimTime now_ = 0;
  uint64_t executed_ = 0;
  uint64_t event_limit_ = 0;  // 0 = unlimited
  SchedulerKind scheduler_kind_;
  std::unique_ptr<Scheduler> queue_;
};

}  // namespace asvm

#endif  // SRC_SIM_ENGINE_H_
