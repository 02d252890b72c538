#include "src/common/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace asvm {

void Histogram::Record(double value) {
  samples_.push_back(value);
  sorted_ = false;
}

void Histogram::Clear() {
  samples_.clear();
  sum_ = 0.0;
  sorted_ = true;
}

void Histogram::SortIfNeeded() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    // Summing in sorted order makes the floating-point total (and mean) a
    // function of the sample multiset, not of recording order — sharded runs
    // record from several threads, so insertion order is not deterministic.
    sum_ = 0.0;
    for (double s : samples_) {
      sum_ += s;
    }
    sorted_ = true;
  }
}

double Histogram::min() const {
  if (samples_.empty()) {
    return 0.0;
  }
  SortIfNeeded();
  return samples_.front();
}

double Histogram::max() const {
  if (samples_.empty()) {
    return 0.0;
  }
  SortIfNeeded();
  return samples_.back();
}

double Histogram::mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  SortIfNeeded();
  return sum_ / static_cast<double>(samples_.size());
}

double Histogram::total() const {
  SortIfNeeded();
  return sum_;
}

double Histogram::Percentile(double p) const {
  if (samples_.empty()) {
    return 0.0;
  }
  SortIfNeeded();
  p = std::clamp(p, 0.0, 100.0);
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(samples_.size())));
  const size_t index = rank == 0 ? 0 : rank - 1;
  return samples_[std::min(index, samples_.size() - 1)];
}

void StatsRegistry::Add(const std::string& name, int64_t delta) {
  Counter(name).fetch_add(delta, std::memory_order_relaxed);
}

int64_t StatsRegistry::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.load(std::memory_order_relaxed);
}

std::atomic<int64_t>& StatsRegistry::Counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_[name];
}

void StatsRegistry::Observe(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  histograms_[name].Record(value);
}

Histogram& StatsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return histograms_[name];
}

const Histogram* StatsRegistry::FindHistogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void StatsRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  histograms_.clear();
}

std::string StatsRegistry::Report() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  for (const auto& [name, value] : counters_) {
    out << name << " = " << value.load(std::memory_order_relaxed) << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    out << name << ": n=" << h.count() << " mean=" << h.mean() << " min=" << h.min()
        << " p50=" << h.Percentile(50) << " p99=" << h.Percentile(99) << " max=" << h.max()
        << "\n";
  }
  return out.str();
}

std::atomic<int64_t>* CounterHandle::Bind(StatsRegistry& stats, const std::string& name) {
  std::atomic<int64_t>* counter = &stats.Counter(name);
  counter_.store(counter, std::memory_order_release);
  return counter;
}

}  // namespace asvm
