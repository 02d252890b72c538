#include <gtest/gtest.h>

#include <vector>

#include "src/sim/engine.h"
#include "src/sim/future.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace asvm {
namespace {

Task Sleeper(Engine& engine, SimDuration d, int* out) {
  co_await Delay(engine, d);
  *out = 1;
}

TEST(TaskTest, RunsEagerlyUntilFirstSuspension) {
  Engine engine;
  int done = 0;
  Task t = Sleeper(engine, 100, &done);
  EXPECT_FALSE(t.done());  // suspended at the delay
  EXPECT_EQ(done, 0);
  engine.Run();
  EXPECT_TRUE(t.done());
  EXPECT_EQ(done, 1);
  EXPECT_EQ(engine.Now(), 100);
}

Task Immediate(int* out) {
  *out = 7;
  co_return;
}

TEST(TaskTest, TaskWithoutSuspensionCompletesInline) {
  int v = 0;
  Task t = Immediate(&v);
  EXPECT_TRUE(t.done());
  EXPECT_EQ(v, 7);
}

Task Awaiter(Engine& engine, Task inner, std::vector<int>* log) {
  log->push_back(1);
  co_await inner;
  log->push_back(2);
  co_await Delay(engine, 5);
  log->push_back(3);
}

TEST(TaskTest, AwaitingAnotherTask) {
  Engine engine;
  std::vector<int> log;
  int done = 0;
  Task inner = Sleeper(engine, 50, &done);
  Task outer = Awaiter(engine, inner, &log);
  EXPECT_EQ(log, (std::vector<int>{1}));
  engine.Run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.Now(), 55);
  EXPECT_TRUE(outer.done());
}

TEST(TaskTest, AwaitingCompletedTaskDoesNotSuspend) {
  Engine engine;
  int v = 0;
  Task inner = Immediate(&v);
  std::vector<int> log;
  Task outer = Awaiter(engine, inner, &log);
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
  engine.Run();
  EXPECT_TRUE(outer.done());
}

Task WaitFuture(Future<int> f, int* out) {
  *out = co_await f;
}

TEST(FutureTest, AwaitBlocksUntilSet) {
  Engine engine;
  Promise<int> promise(engine);
  int out = 0;
  Task t = WaitFuture(promise.GetFuture(), &out);
  EXPECT_FALSE(t.done());
  engine.Run();
  EXPECT_FALSE(t.done());  // nothing set yet
  promise.Set(99);
  engine.Run();
  EXPECT_TRUE(t.done());
  EXPECT_EQ(out, 99);
}

TEST(FutureTest, AwaitReadyFutureResumesImmediately) {
  Engine engine;
  Promise<int> promise(engine);
  promise.Set(5);
  int out = 0;
  Task t = WaitFuture(promise.GetFuture(), &out);
  EXPECT_TRUE(t.done());
  EXPECT_EQ(out, 5);
}

TEST(FutureTest, MultipleWaitersAllResume) {
  Engine engine;
  Promise<int> promise(engine);
  int a = 0;
  int b = 0;
  Task ta = WaitFuture(promise.GetFuture(), &a);
  Task tb = WaitFuture(promise.GetFuture(), &b);
  promise.Set(3);
  engine.Run();
  EXPECT_EQ(a, 3);
  EXPECT_EQ(b, 3);
  EXPECT_TRUE(ta.done() && tb.done());
}

TEST(FutureTest, ValuePeek) {
  Engine engine;
  Promise<int> promise(engine);
  Future<int> f = promise.GetFuture();
  EXPECT_FALSE(f.ready());
  promise.Set(11);
  EXPECT_TRUE(f.ready());
  EXPECT_EQ(f.value(), 11);
}

Task Worker(Engine& engine, WaitGroup& wg, SimDuration d, int* counter) {
  co_await Delay(engine, d);
  ++*counter;
  wg.Done();
}

Task Joiner(WaitGroup& wg, bool* joined) {
  co_await wg.Wait();
  *joined = true;
}

TEST(WaitGroupTest, JoinWaitsForAllWorkers) {
  Engine engine;
  WaitGroup wg(engine);
  int counter = 0;
  bool joined = false;
  wg.Add(3);
  Task w1 = Worker(engine, wg, 10, &counter);
  Task w2 = Worker(engine, wg, 20, &counter);
  Task w3 = Worker(engine, wg, 30, &counter);
  Task j = Joiner(wg, &joined);
  EXPECT_FALSE(joined);
  engine.RunUntil(25);
  EXPECT_FALSE(joined);
  engine.Run();
  EXPECT_TRUE(joined);
  EXPECT_EQ(counter, 3);
  EXPECT_TRUE(j.done());
}

TEST(WaitGroupTest, WaitOnZeroCountReturnsImmediately) {
  Engine engine;
  WaitGroup wg(engine);
  bool joined = false;
  Task j = Joiner(wg, &joined);
  EXPECT_TRUE(joined);
  (void)j;
}

Task AcquireRelease(Engine& engine, SimSemaphore& sem, SimDuration hold,
                    std::vector<SimTime>* log) {
  co_await sem.Acquire();
  log->push_back(engine.Now());
  co_await Delay(engine, hold);
  sem.Release();
}

TEST(SemaphoreTest, SerializesBeyondPermitCount) {
  Engine engine;
  SimSemaphore sem(engine, 2);
  std::vector<SimTime> acquired;
  std::vector<Task> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(AcquireRelease(engine, sem, 100, &acquired));
  }
  engine.Run();
  ASSERT_EQ(acquired.size(), 4u);
  // Two run immediately; the next two wait for releases at t=100.
  EXPECT_EQ(acquired[0], 0);
  EXPECT_EQ(acquired[1], 0);
  EXPECT_EQ(acquired[2], 100);
  EXPECT_EQ(acquired[3], 100);
  EXPECT_EQ(sem.available(), 2);
}

TEST(SemaphoreTest, TryAcquire) {
  Engine engine;
  SimSemaphore sem(engine, 1);
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_FALSE(sem.TryAcquire());
  sem.Release();
  EXPECT_TRUE(sem.TryAcquire());
}

TEST(SemaphoreTest, BlockedCountTracksWaiters) {
  Engine engine;
  SimSemaphore sem(engine, 0);
  std::vector<SimTime> acquired;
  Task t = AcquireRelease(engine, sem, 10, &acquired);
  EXPECT_EQ(sem.blocked(), 1);
  sem.Release();
  engine.Run();
  EXPECT_EQ(sem.blocked(), 0);
  EXPECT_TRUE(t.done());
}

}  // namespace
}  // namespace asvm
