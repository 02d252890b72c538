// Shared helpers for DSM-level tests: a small cluster, per-node task memory,
// and synchronous read/write drivers that run the cluster to completion.
#ifndef TESTS_DSM_TEST_UTIL_H_
#define TESTS_DSM_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/dsm/cluster.h"
#include "src/dsm/dsm_system.h"
#include "src/machvm/task_memory.h"

namespace asvm {

// Shadow single-writer memory: the coherence oracle. Every committed write is
// replayed into a plain map; every completed read must return exactly what
// the map holds (sequential consistency for the one-op-at-a-time drivers the
// tests use). Any divergence is a coherency-protocol bug, regardless of which
// fault profile was active when it happened.
class CoherenceOracle {
 public:
  void RecordWrite(VmOffset addr, uint64_t value) { shadow_[addr] = value; }

  // Expected value of a read at `addr` (unwritten memory is zero-filled).
  uint64_t Expected(VmOffset addr) const {
    auto it = shadow_.find(addr);
    return it == shadow_.end() ? 0 : it->second;
  }

  void CheckRead(VmOffset addr, uint64_t actual) {
    const uint64_t expected = Expected(addr);
    EXPECT_EQ(actual, expected)
        << "coherence violation at addr " << addr << ": read " << actual
        << " but the last committed write was " << expected;
    if (actual != expected) {
      ++violations_;
    }
  }

  int violations() const { return violations_; }

 private:
  std::unordered_map<VmOffset, uint64_t> shadow_;
  int violations_ = 0;
};

// One task per node mapping the same distributed region at address 0.
class DsmRegionHarness {
 public:
  DsmRegionHarness(Cluster& cluster, DsmSystem& system, const MemObjectId& id, VmSize pages)
      : cluster_(cluster) {
    for (NodeId n = 0; n < cluster.node_count(); ++n) {
      auto repr = system.Attach(n, id);
      VmMap* map = cluster.vm(n).CreateMap();
      EXPECT_EQ(map->Map(0, pages, repr, 0, Inheritance::kShare), Status::kOk);
      memories_.push_back(std::make_unique<TaskMemory>(cluster.vm(n), *map));
    }
  }

  TaskMemory& mem(NodeId n) { return *memories_.at(n); }

  // Synchronous drivers: issue the access, run the cluster until quiescent.
  uint64_t Read(NodeId n, VmOffset addr) {
    auto f = mem(n).ReadU64(addr);
    cluster_.Run();
    EXPECT_TRUE(f.ready()) << "read did not complete (node " << n << ", addr " << addr << ")";
    return f.ready() ? f.value() : ~0ULL;
  }

  void Write(NodeId n, VmOffset addr, uint64_t value) {
    auto f = mem(n).WriteU64(addr, value);
    cluster_.Run();
    ASSERT_TRUE(f.ready()) << "write did not complete (node " << n << ", addr " << addr << ")";
    ASSERT_EQ(f.value(), Status::kOk);
  }

  // Timed variant: returns the simulated duration of the access.
  SimDuration TimedWrite(NodeId n, VmOffset addr, uint64_t value) {
    const SimTime start = cluster_.Now();
    auto f = mem(n).WriteU64(addr, value);
    // Run only until the access completes (background work may continue).
    while (!f.ready() && !cluster_.Empty()) {
      cluster_.RunFor(10 * kMicrosecond);
    }
    EXPECT_TRUE(f.ready());
    const SimDuration elapsed = cluster_.Now() - start;
    cluster_.Run();  // drain background traffic
    return elapsed;
  }

  SimDuration TimedRead(NodeId n, VmOffset addr, uint64_t* out = nullptr) {
    const SimTime start = cluster_.Now();
    auto f = mem(n).ReadU64(addr);
    while (!f.ready() && !cluster_.Empty()) {
      cluster_.RunFor(10 * kMicrosecond);
    }
    EXPECT_TRUE(f.ready());
    if (out != nullptr && f.ready()) {
      *out = f.value();
    }
    const SimDuration elapsed = cluster_.Now() - start;
    cluster_.Run();
    return elapsed;
  }

 private:
  Cluster& cluster_;
  std::vector<std::unique_ptr<TaskMemory>> memories_;
};

inline ClusterParams SmallClusterParams(int nodes, size_t frames = 512) {
  ClusterParams params;
  params.node_count = nodes;
  params.vm.page_size = 4096;
  params.vm.frame_capacity = frames;
  return params;
}

}  // namespace asvm

#endif  // TESTS_DSM_TEST_UTIL_H_
