#include <gtest/gtest.h>

#include <limits>
#include <tuple>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/shard_mailbox.h"
#include "src/sim/sharded_engine.h"
#include "src/sim/time.h"

namespace asvm {
namespace {

TEST(EngineTest, StartsAtTimeZero) {
  Engine engine;
  EXPECT_EQ(engine.Now(), 0);
  EXPECT_TRUE(engine.empty());
}

TEST(EngineTest, RunAdvancesTimeToEventTimestamps) {
  Engine engine;
  std::vector<SimTime> observed;
  engine.Schedule(10, [&]() { observed.push_back(engine.Now()); });
  engine.Schedule(5, [&]() { observed.push_back(engine.Now()); });
  engine.Run();
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0], 5);
  EXPECT_EQ(observed[1], 10);
  EXPECT_EQ(engine.Now(), 10);
}

TEST(EngineTest, EqualTimesFireInSchedulingOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.Schedule(7, [&order, i]() { order.push_back(i); });
  }
  engine.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EngineTest, EventsMayScheduleMoreEvents) {
  Engine engine;
  int depth = 0;
  std::function<void()> chain = [&]() {
    if (++depth < 5) {
      engine.Schedule(kMicrosecond, chain);
    }
  };
  engine.Schedule(0, chain);
  uint64_t count = engine.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(count, 5u);
  EXPECT_EQ(engine.Now(), 4 * kMicrosecond);
}

TEST(EngineTest, PostRunsAtCurrentTime) {
  Engine engine;
  SimTime post_time = -1;
  engine.Schedule(42, [&]() {
    engine.Post([&]() { post_time = engine.Now(); });
  });
  engine.Run();
  EXPECT_EQ(post_time, 42);
}

TEST(EngineTest, RunUntilStopsAtDeadline) {
  Engine engine;
  int fired = 0;
  engine.Schedule(10, [&]() { ++fired; });
  engine.Schedule(20, [&]() { ++fired; });
  engine.Schedule(30, [&]() { ++fired; });
  bool drained = engine.RunUntil(20);
  EXPECT_FALSE(drained);
  EXPECT_EQ(fired, 2);  // events at exactly the deadline run
  EXPECT_EQ(engine.Now(), 20);
  EXPECT_TRUE(engine.RunUntil(100));
  EXPECT_EQ(fired, 3);
}

TEST(EngineTest, RunForIsRelative) {
  Engine engine;
  int fired = 0;
  engine.Schedule(10, [&]() { ++fired; });
  engine.RunFor(5);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(engine.Now(), 5);
  engine.RunFor(5);
  EXPECT_EQ(fired, 1);
}

TEST(EngineTest, ExecutedEventsCounts) {
  Engine engine;
  for (int i = 0; i < 17; ++i) {
    engine.Schedule(i, []() {});
  }
  engine.Run();
  EXPECT_EQ(engine.executed_events(), 17u);
}

TEST(EngineDeathTest, NegativeDelayAborts) {
  Engine engine;
  EXPECT_DEATH(engine.Schedule(-1, []() {}), "negative delay");
}

TEST(EngineDeathTest, ScheduleAtRejectsThePast) {
  Engine engine;
  engine.Schedule(100, []() {});
  engine.Run();
  ASSERT_EQ(engine.Now(), 100);
  EXPECT_DEATH(engine.ScheduleAt(99, []() {}), "ScheduleAt in the past");
}

TEST(EngineTest, ScheduleAtFiresAtAbsoluteTime) {
  Engine engine;
  std::vector<int> order;
  engine.ScheduleAt(50, [&]() { order.push_back(1); });
  engine.ScheduleAt(50, [&]() { order.push_back(2); });  // equal-time tie: FIFO
  engine.ScheduleAt(10, [&]() { order.push_back(0); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(engine.Now(), 50);
}

// Regression: RunFor used to compute now_ + duration unchecked, so a huge
// duration wrapped the deadline negative and RunFor returned without running
// anything. It must saturate to the end of time instead.
TEST(EngineTest, RunForSaturatesInsteadOfOverflowing) {
  Engine engine;
  int fired = 0;
  engine.Schedule(5, [&]() { ++fired; });
  engine.Run();
  ASSERT_EQ(engine.Now(), 5);  // now_ > 0 so now_ + max overflows if unchecked
  engine.Schedule(7, [&]() { ++fired; });
  EXPECT_TRUE(engine.RunFor(std::numeric_limits<SimDuration>::max()));
  EXPECT_EQ(fired, 2);
}

TEST(EngineDeathTest, RunForRejectsNegativeDurations) {
  Engine engine;
  EXPECT_DEATH(engine.RunFor(-1), "negative RunFor duration");
}

// Regression: the wheel's zero-delay ring starts at capacity zero; the very
// first Post therefore grows it, and the pre-guard index ring_.size() - 1
// underflowed. The first event through the fast lane must simply fire.
TEST(EngineTest, FirstEverEventMayTakeTheZeroDelayLane) {
  for (SchedulerKind kind : {SchedulerKind::kTimerWheel, SchedulerKind::kReference}) {
    Engine engine(kind);
    int fired = 0;
    engine.Post([&]() { ++fired; });
    engine.Run();
    EXPECT_EQ(fired, 1) << ToString(kind);
  }
}

// Regression companion: growing the ring while entries are queued must keep
// their (time, seq) firing order — a burst posted from inside an event forces
// several doublings with live entries in the ring.
TEST(EngineTest, RingGrowthPreservesSchedulingOrder) {
  for (SchedulerKind kind : {SchedulerKind::kTimerWheel, SchedulerKind::kReference}) {
    Engine engine(kind);
    std::vector<int> order;
    engine.Post([&]() {
      for (int i = 0; i < 100; ++i) {
        engine.Post([&order, i]() { order.push_back(i); });
      }
    });
    engine.Run();
    ASSERT_EQ(order.size(), 100u) << ToString(kind);
    for (int i = 0; i < 100; ++i) {
      EXPECT_EQ(order[i], i) << ToString(kind);
    }
  }
}

TEST(EngineDeathTest, EventLimitCatchesLivelock) {
  Engine engine;
  engine.set_event_limit(100);
  std::function<void()> spin = [&]() { engine.Post(spin); };
  engine.Post(spin);
  EXPECT_DEATH(engine.Run(), "event limit");
}

// Regression: MakeScheduler used to silently hand back the timer wheel for
// any unknown kind (and ToString returned "unknown"), so a corrupted or
// miscast configuration ran on the wrong event core without a word. Both must
// hard-fail: the scheduler choice is part of the deterministic-timeline
// contract.
TEST(SchedulerKindDeathTest, MakeSchedulerRejectsUnknownKinds) {
  EXPECT_DEATH(MakeScheduler(static_cast<SchedulerKind>(99)), "invalid SchedulerKind");
}

TEST(SchedulerKindDeathTest, ToStringRejectsUnknownKinds) {
  EXPECT_DEATH(ToString(static_cast<SchedulerKind>(99)), "invalid SchedulerKind");
}

TEST(SchedulerKindTest, FromNameParsesEveryAlias) {
  SchedulerKind kind = SchedulerKind::kReference;
  EXPECT_TRUE(SchedulerKindFromName("wheel", &kind));
  EXPECT_EQ(kind, SchedulerKind::kTimerWheel);
  EXPECT_TRUE(SchedulerKindFromName("timer-wheel", &kind));
  EXPECT_EQ(kind, SchedulerKind::kTimerWheel);
  EXPECT_TRUE(SchedulerKindFromName("heap", &kind));
  EXPECT_EQ(kind, SchedulerKind::kReference);
  EXPECT_TRUE(SchedulerKindFromName("reference", &kind));
  EXPECT_EQ(kind, SchedulerKind::kReference);
}

TEST(SchedulerKindTest, FromNameRejectsUnknownNamesWithoutWriting) {
  SchedulerKind kind = SchedulerKind::kReference;
  EXPECT_FALSE(SchedulerKindFromName("quantum", &kind));
  EXPECT_EQ(kind, SchedulerKind::kReference);  // *out untouched on failure
}

// --- ShardMailbox ------------------------------------------------------------

// Six nodes in three shards of two: nodes {0,1}, {2,3}, {4,5}.
class ShardMailboxTest : public ::testing::Test {
 protected:
  ShardMailboxTest() : engines_(3, 6, 2, SchedulerKind::kTimerWheel), mailbox_(engines_) {}

  // Drains every collected entry as (time, src, value).
  std::vector<std::tuple<SimTime, NodeId, int>> PopAll() {
    std::vector<std::tuple<SimTime, NodeId, int>> out;
    while (mailbox_.NextTime() != ShardMailbox<int>::kNever) {
      ShardMailbox<int>::Entry e = mailbox_.Pop();
      out.emplace_back(e.time, e.src, e.value);
    }
    return out;
  }

  ShardedEngine engines_;
  ShardMailbox<int> mailbox_;
};

TEST_F(ShardMailboxTest, EqualTimePostsPopInSourceThenSeqOrder) {
  // Posted out of source order from sources on every shard; equal times pop
  // by source node, then by each source's own post order (node 2's values
  // descend, so only the seq can order them).
  mailbox_.Post(7, 5, 50);
  mailbox_.Post(7, 2, 23);
  mailbox_.Post(7, 0, 1);
  mailbox_.Post(3, 4, 40);
  mailbox_.Post(7, 2, 22);
  mailbox_.Post(7, 0, 2);
  mailbox_.Post(7, 2, 21);
  mailbox_.Post(7, 2, 20);
  mailbox_.Collect();
  using E = std::tuple<SimTime, NodeId, int>;
  EXPECT_EQ(PopAll(), (std::vector<E>{{3, 4, 40},
                                      {7, 0, 1},
                                      {7, 0, 2},
                                      {7, 2, 23},
                                      {7, 2, 22},
                                      {7, 2, 21},
                                      {7, 2, 20},
                                      {7, 5, 50}}));
}

TEST_F(ShardMailboxTest, PostsAfterCollectWaitForTheNextCollect) {
  mailbox_.Post(10, 1, 1);
  mailbox_.Collect();
  mailbox_.Post(5, 3, 2);  // earlier, but not collected yet
  EXPECT_EQ(mailbox_.NextTime(), 10);
  EXPECT_EQ(mailbox_.Pop().value, 1);
  EXPECT_EQ(mailbox_.NextTime(), ShardMailbox<int>::kNever);
  mailbox_.Collect();
  EXPECT_EQ(mailbox_.NextTime(), 5);
  EXPECT_EQ(mailbox_.Pop().value, 2);
}

TEST_F(ShardMailboxTest, EmptyCountsEntriesStillInOutboxes) {
  EXPECT_TRUE(mailbox_.Empty());
  mailbox_.Post(1, 4, 4);
  EXPECT_FALSE(mailbox_.Empty());  // posted, not yet collected
  EXPECT_EQ(mailbox_.NextTime(), ShardMailbox<int>::kNever);
  mailbox_.Collect();
  EXPECT_FALSE(mailbox_.Empty());
  mailbox_.Pop();
  EXPECT_TRUE(mailbox_.Empty());
}

}  // namespace
}  // namespace asvm
