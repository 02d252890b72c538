#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace asvm {
namespace {

TEST(MemObjectIdTest, ValidityAndEquality) {
  MemObjectId a{2, 7};
  MemObjectId b{2, 7};
  MemObjectId c{3, 7};
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(kInvalidObject.valid());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.ToString(), "obj(2:7)");
}

TEST(MemObjectIdTest, HashDistinguishesOriginAndSeq) {
  std::unordered_set<MemObjectId> set;
  for (NodeId n = 0; n < 16; ++n) {
    for (uint32_t s = 0; s < 16; ++s) {
      set.insert(MemObjectId{n, s});
    }
  }
  EXPECT_EQ(set.size(), 256u);
}

TEST(PageAccessTest, OrderingAllowsWriteToServeRead) {
  EXPECT_TRUE(AccessAllows(PageAccess::kWrite, PageAccess::kRead));
  EXPECT_TRUE(AccessAllows(PageAccess::kWrite, PageAccess::kWrite));
  EXPECT_TRUE(AccessAllows(PageAccess::kRead, PageAccess::kRead));
  EXPECT_FALSE(AccessAllows(PageAccess::kRead, PageAccess::kWrite));
  EXPECT_FALSE(AccessAllows(PageAccess::kNone, PageAccess::kRead));
  EXPECT_TRUE(AccessAllows(PageAccess::kNone, PageAccess::kNone));
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(ToString(Status::kOk), "ok");
  EXPECT_STREQ(ToString(Status::kUnavailable), "unavailable");
  EXPECT_STREQ(ToString(Status::kDeadlock), "deadlock");
  EXPECT_TRUE(IsOk(Status::kOk));
  EXPECT_FALSE(IsOk(Status::kNotFound));
}

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
  EXPECT_EQ(rng.NextBelow(0), 0u);
}

TEST(RngTest, NextRangeInclusiveBounds) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit over 1000 draws
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.Fork();
  EXPECT_NE(parent.NextU64(), child.NextU64());
}

TEST(RngTest, BoolProbabilityEdges) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(HistogramTest, BasicMoments) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
  EXPECT_DOUBLE_EQ(h.total(), 10.0);
}

TEST(HistogramTest, PercentileNearestRank) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Record(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(h.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1.0);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
}

TEST(HistogramTest, RecordAfterPercentileStillCorrect) {
  Histogram h;
  h.Record(10);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 10.0);
  h.Record(1);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 10.0);
}

TEST(StatsRegistryTest, CountersAccumulate) {
  StatsRegistry stats;
  stats.Add("a");
  stats.Add("a", 4);
  stats.Add("b", -1);
  EXPECT_EQ(stats.Get("a"), 5);
  EXPECT_EQ(stats.Get("b"), -1);
  EXPECT_EQ(stats.Get("missing"), 0);
}

TEST(StatsRegistryTest, HistogramsAndReport) {
  StatsRegistry stats;
  stats.Observe("lat", 5.0);
  stats.Observe("lat", 15.0);
  ASSERT_NE(stats.FindHistogram("lat"), nullptr);
  EXPECT_EQ(stats.FindHistogram("lat")->count(), 2u);
  EXPECT_EQ(stats.FindHistogram("none"), nullptr);
  std::string report = stats.Report();
  EXPECT_NE(report.find("lat"), std::string::npos);
}

TEST(StatsRegistryTest, ClearResets) {
  StatsRegistry stats;
  stats.Add("x", 3);
  stats.Observe("y", 1.0);
  stats.Clear();
  EXPECT_EQ(stats.Get("x"), 0);
  EXPECT_EQ(stats.FindHistogram("y"), nullptr);
}

TEST(CounterHandleTest, CounterAbsentUntilFirstAdd) {
  StatsRegistry stats;
  CounterHandle handle;
  EXPECT_TRUE(stats.counters().empty());
  EXPECT_EQ(stats.Report(), "");
  handle.Add(stats, "events");
  EXPECT_EQ(stats.counters().count("events"), 1u);
  EXPECT_EQ(stats.Report(), "events = 1\n");
}

TEST(CounterHandleTest, SharesTheCounterWithStringAdd) {
  StatsRegistry stats;
  CounterHandle handle;
  stats.Add("shared", 2);
  handle.Add(stats, "shared", 3);
  handle.Add(stats, "shared");
  stats.Add("shared");
  EXPECT_EQ(stats.Get("shared"), 7);
  EXPECT_EQ(stats.counters().size(), 1u);
}

TEST(CounterHandleTest, BuildsACallableNameOnlyToBind) {
  StatsRegistry stats;
  CounterHandle handle;
  int builds = 0;
  auto name = [&builds] {
    ++builds;
    return std::string("built.") + "name";
  };
  for (int i = 0; i < 3; ++i) {
    handle.Add(stats, name);
  }
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(stats.Get("built.name"), 3);
}

TEST(CounterHandleTest, ConcurrentAddsThroughOneUnboundHandleSumExactly) {
  StatsRegistry stats;
  CounterHandle handle;
  constexpr int kThreads = 4;
  constexpr int kAdds = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stats, &handle] {
      for (int i = 0; i < kAdds; ++i) {
        handle.Add(stats, "racy");
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(stats.Get("racy"), int64_t{kThreads} * kAdds);
  EXPECT_EQ(stats.counters().size(), 1u);
}

}  // namespace
}  // namespace asvm
