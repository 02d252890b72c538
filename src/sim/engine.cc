#include "src/sim/engine.h"

#include "src/common/log.h"

namespace asvm {

void Engine::Schedule(SimDuration delay, EventFn fn) {
  ASVM_CHECK_MSG(delay >= 0, "negative delay scheduled");
  queue_->Push(now_ + delay, std::move(fn));
}

void Engine::ScheduleAt(SimTime time, EventFn fn) {
  ASVM_CHECK_MSG(time >= now_, "ScheduleAt in the past");
  queue_->Push(time, std::move(fn));
}

void Engine::RunOne() {
  // Move the event out before popping so the callback may schedule new events.
  SimTime time;
  EventFn fn = queue_->PopNext(&time);
  ASVM_CHECK_MSG(time >= now_, "event queue time went backwards");
  now_ = time;
  ++executed_;
  if (event_limit_ != 0 && executed_ > event_limit_) {
    ASVM_CHECK_MSG(false, "engine event limit exceeded (possible livelock)");
  }
  fn();
}

uint64_t Engine::Run() {
  const uint64_t start = executed_;
  while (!queue_->Empty()) {
    RunOne();
  }
  return executed_ - start;
}

bool Engine::RunUntil(SimTime deadline) {
  while (!queue_->Empty() && queue_->NextTime() <= deadline) {
    RunOne();
  }
  if (queue_->Empty()) {
    return true;
  }
  now_ = deadline;
  return false;
}

}  // namespace asvm
