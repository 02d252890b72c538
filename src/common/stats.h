// Statistics collection: named counters and latency histograms. The Cluster
// owns one StatsRegistry, and every layer that records into it (VM, pagers,
// disks, mesh, fault plan, transports, protocol agents) takes it as a
// constructor reference, so experiments can report message counts, bytes
// moved, disk operations and fault latencies.
//
// Cost: a string Add builds the name, takes the registry mutex and looks the
// name up in a map. That is fine on cold paths and for names built at run
// time. Per-event sites (messages, faults, disk operations, protocol
// requests) count through a CounterHandle instead, which pays that lookup
// once and then costs one relaxed atomic add (DESIGN.md §11).
//
// Thread safety: sharded runs (src/sim/sharded_engine.h) record from several
// shard threads at once. Each counter is an atomic in a mutex-guarded map;
// map nodes are stable, so a handle's cached pointer stays valid and its adds
// need no lock. Histogram recording takes the registry mutex. Because addition
// commutes and summaries are computed over sorted samples, every reported
// value is independent of thread interleaving.
#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

namespace asvm {

// Accumulates observations of a scalar (e.g. latency in nanoseconds) and
// reports count/min/max/mean/percentiles. Stores raw samples; simulation runs
// are short enough that this is cheap and makes percentiles exact. Summaries
// (including mean and total) are computed over the sorted samples, so they do
// not depend on recording order.
class Histogram {
 public:
  void Record(double value);
  void Clear();

  size_t count() const { return samples_.size(); }
  double min() const;
  double max() const;
  double mean() const;
  double total() const;
  // p in [0,100]; nearest-rank on the sorted samples.
  double Percentile(double p) const;

 private:
  void SortIfNeeded() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  mutable double sum_ = 0.0;  // canonical: summed in sorted order
};

// Registry of named counters and histograms. Names are hierarchical by
// convention ("transport.sts.messages", "asvm.fault.write_ns").
class StatsRegistry {
 public:
  void Add(const std::string& name, int64_t delta = 1);
  int64_t Get(const std::string& name) const;

  // Reference to a named counter, creating it at zero. std::map nodes are
  // stable, so the reference stays valid until Clear().
  std::atomic<int64_t>& Counter(const std::string& name);

  void Observe(const std::string& name, double value);
  const Histogram* FindHistogram(const std::string& name) const;
  Histogram& histogram(const std::string& name);

  // Drops every counter and histogram, leaving any bound CounterHandle (and
  // any reference from Counter()) dangling: only for a registry nothing
  // records into any more.
  void Clear();

  // Not safe against concurrent Add/Observe of *new* names; call only while
  // the simulation is quiescent (between runs / after drain).
  const std::map<std::string, std::atomic<int64_t>>& counters() const { return counters_; }
  const std::map<std::string, Histogram>& histograms() const { return histograms_; }

  // Human-readable dump of all counters and histogram summaries.
  std::string Report() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::atomic<int64_t>> counters_;
  std::map<std::string, Histogram> histograms_;
};

// One counter of a StatsRegistry, looked up by name on the handle's first Add
// and reached through a cached pointer after that. Binding on the first Add,
// not at construction, keeps the counter out of counters() and Report() until
// an event counts, exactly as a string Add would. (Counters that must report
// zero before anything counts are registered with Counter() instead, as each
// Transport does for its message, byte and page-message totals.) A handle
// serves one (registry, name) pair for life: every call site that shares a
// handle must pass the same registry and name. Shard threads may share a
// handle: racing first Adds resolve the same map node, so whichever store
// lands wins.
class CounterHandle {
 public:
  // Adds `delta` to the counter `name` of `stats`. `name` is a string, or a
  // callable that builds one; only the Add that binds the handle reads it.
  template <typename Name>
  void Add(StatsRegistry& stats, const Name& name, int64_t delta = 1) {
    std::atomic<int64_t>* counter = counter_.load(std::memory_order_acquire);
    if (counter == nullptr) [[unlikely]] {
      if constexpr (std::is_invocable_v<const Name&>) {
        counter = Bind(stats, name());
      } else {
        counter = Bind(stats, name);
      }
    }
    counter->fetch_add(delta, std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t>* Bind(StatsRegistry& stats, const std::string& name);

  std::atomic<std::atomic<int64_t>*> counter_{nullptr};
};

}  // namespace asvm

#endif  // SRC_COMMON_STATS_H_
