// Host-side micro-benchmarks (google-benchmark) of the simulation substrate:
// event-queue throughput, coroutine wake costs, and end-to-end simulated
// fault throughput. These measure the simulator itself, not the modeled
// system.
//
// In addition to the google-benchmark suite, a deterministic scheduler-shape
// comparison runs the same event workloads against both event cores — the
// pooled timer wheel and the reference heap — and reports events/sec plus
// the wheel/heap speedup. The shapes mirror the simulator's real producers:
// uniform schedule/run (transport hops), bursty equal-time wakes (fan-in at
// a manager), exponential inter-arrivals (coherency traffic), retry storms
// (protocol deadlines that fire as no-ops), and zero-delay Post chains
// (coroutine resumption). With --json=FILE the results feed
// scripts/bench_report.sh, which gates on the speedup floor.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/core/machine.h"
#include "src/sim/engine.h"
#include "src/sim/future.h"
#include "src/sim/task.h"

namespace asvm {
namespace {

// --- google-benchmark suite ----------------------------------------------------

template <SchedulerKind kKind>
void BM_EngineScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    Engine engine(kKind);
    for (int i = 0; i < 1000; ++i) {
      engine.Schedule(i, []() {});
    }
    benchmark::DoNotOptimize(engine.Run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineScheduleRun<SchedulerKind::kTimerWheel>)->Name("BM_EngineScheduleRun/wheel");
BENCHMARK(BM_EngineScheduleRun<SchedulerKind::kReference>)->Name("BM_EngineScheduleRun/heap");

Task Chain(Engine& engine, int depth, int* count) {
  for (int i = 0; i < depth; ++i) {
    co_await Delay(engine, 1);
    ++*count;
  }
}

void BM_CoroutineDelayChain(benchmark::State& state) {
  for (auto _ : state) {
    Engine engine;
    int count = 0;
    Task t = Chain(engine, 1000, &count);
    engine.Run();
    benchmark::DoNotOptimize(count);
    benchmark::DoNotOptimize(t.done());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoroutineDelayChain);

void BM_FuturePingPong(benchmark::State& state) {
  for (auto _ : state) {
    Engine engine;
    int received = 0;
    for (int i = 0; i < 100; ++i) {
      Promise<int> promise(engine);
      auto waiter = [](Future<int> f, int* out) -> Task {
        *out += co_await f;
      }(promise.GetFuture(), &received);
      promise.Set(1);
      engine.Run();
      benchmark::DoNotOptimize(waiter.done());
    }
    benchmark::DoNotOptimize(received);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_FuturePingPong);

void BM_SimulatedRemoteFaults(benchmark::State& state) {
  // Wall-clock cost of simulating one coherent write fault end to end.
  for (auto _ : state) {
    state.PauseTiming();
    MachineConfig config;
    config.nodes = 4;
    config.dsm = DsmKind::kAsvm;
    Machine machine(config);
    MemObjectId region = machine.CreateSharedRegion(0, 64);
    TaskMemory& a = machine.MapRegion(1, region);
    TaskMemory& b = machine.MapRegion(2, region);
    state.ResumeTiming();
    for (int p = 0; p < 64; ++p) {
      auto w = a.WriteU64(static_cast<VmOffset>(p) * 8192, p);
      machine.Run();
      auto r = b.ReadU64(static_cast<VmOffset>(p) * 8192);
      machine.Run();
      benchmark::DoNotOptimize(r.ready());
    }
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_SimulatedRemoteFaults);

// --- Scheduler-shape comparison ------------------------------------------------

// A 128-byte payload: EventFn keeps captures up to 144 bytes inline, so the
// shapes measure the pooled inline path with a large closure. The
// simulator's own closures are smaller (the largest is 64 bytes, and a
// transport hop carries a boxed Message in 24), but the gated wheel/heap
// ratios are measured with this size, so it stays.
struct Payload {
  uint64_t words[16] = {0};
};

uint64_t g_sink = 0;

void Consume(const Payload& p) { g_sink += p.words[0]; }

// Each shape runs `events` events through an Engine of the given kind and
// returns the wall-clock seconds spent inside Schedule/Run.
using Shape = double (*)(SchedulerKind kind, int events);

// Uniform spread: the plain schedule-then-drain pattern (disk completions,
// transport hop timers) with delays across several wheel levels.
double ShapeScheduleRun(SchedulerKind kind, int events) {
  Engine engine(kind);
  Rng rng(42);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < events; ++i) {
    Payload p;
    p.words[0] = static_cast<uint64_t>(i);
    engine.Schedule(static_cast<SimDuration>(rng.NextBelow(1 << 20)),
                    [p]() { Consume(p); });
  }
  engine.Run();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Bursty equal-time: thousands of events collapse onto few distinct instants
// (barrier wakes, fan-in at a centralized manager). Stresses seq-ordered
// replay within one slot.
double ShapeBurstyEqualTime(SchedulerKind kind, int events) {
  Engine engine(kind);
  Rng rng(43);
  const auto start = std::chrono::steady_clock::now();
  const int bursts = events / 256;
  for (int b = 0; b < bursts; ++b) {
    const SimDuration at = static_cast<SimDuration>(1 + rng.NextBelow(1 << 16));
    for (int i = 0; i < 256; ++i) {
      Payload p;
      p.words[0] = static_cast<uint64_t>(i);
      engine.Schedule(at, [p]() { Consume(p); });
    }
  }
  engine.Run();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Exponential inter-arrival: every event schedules its successor a random
// (geometric-ish) delay ahead — the steady-state coherency-traffic shape
// where the queue stays small but churns constantly.
double ShapeExponentialArrivals(SchedulerKind kind, int events) {
  Engine engine(kind);
  Rng rng(44);
  int remaining = events;
  struct Arrival {
    Engine& engine;
    Rng& rng;
    int& remaining;
    void Fire() {
      if (--remaining <= 0) {
        return;
      }
      Payload p;
      p.words[0] = static_cast<uint64_t>(remaining);
      // 1 << NextBelow(16): exponentially distributed over wheel levels 0..2.
      const SimDuration d = static_cast<SimDuration>(1) << rng.NextBelow(16);
      Arrival* self = this;
      engine.Schedule(d, [self, p]() {
        Consume(p);
        self->Fire();
      });
    }
  };
  Arrival arrival{engine, rng, remaining};
  const auto start = std::chrono::steady_clock::now();
  // 64 independent arrival processes keep a realistic queue depth.
  for (int i = 0; i < 64; ++i) {
    arrival.Fire();
    ++remaining;  // Fire() consumed one; keep the budget at `events`
  }
  engine.Run();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Retry storm: every op arms a far-out deadline (the ProtocolAgent timeout
// pattern) and completes long before it; the deadline later fires as a no-op.
// Half the live queue is these dead timers — the cancel-heavy shape.
double ShapeRetryStorm(SchedulerKind kind, int events) {
  Engine engine(kind);
  Rng rng(45);
  const auto start = std::chrono::steady_clock::now();
  const int ops = events / 2;
  for (int i = 0; i < ops; ++i) {
    Payload p;
    p.words[0] = static_cast<uint64_t>(i);
    // Completion soon…
    engine.Schedule(static_cast<SimDuration>(1 + rng.NextBelow(1 << 12)),
                    [p]() { Consume(p); });
    // …deadline far out, firing as a cheap already-done check.
    engine.Schedule(static_cast<SimDuration>((1 << 24) + rng.NextBelow(1 << 20)),
                    [p]() { benchmark::DoNotOptimize(p.words[0]); });
  }
  engine.Run();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Zero-delay Post chain: coroutine resumption traffic through the ring lane.
double ShapePostChain(SchedulerKind kind, int events) {
  Engine engine(kind);
  int remaining = events;
  struct Link {
    Engine& engine;
    int& remaining;
    void Fire() {
      if (--remaining <= 0) {
        return;
      }
      Link* self = this;
      engine.Post([self]() { self->Fire(); });
    }
  };
  Link link{engine, remaining};
  const auto start = std::chrono::steady_clock::now();
  engine.Post([&link]() { link.Fire(); });
  engine.Run();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct ShapeSpec {
  const char* name;
  Shape fn;
  int events;
};

void RunSchedulerShapes(BenchJson& json) {
  const ShapeSpec shapes[] = {
      {"schedule_run", ShapeScheduleRun, 1 << 20},
      {"bursty_equal_time", ShapeBurstyEqualTime, 1 << 20},
      {"exponential_arrivals", ShapeExponentialArrivals, 1 << 20},
      {"retry_storm", ShapeRetryStorm, 1 << 20},
      {"post_chain", ShapePostChain, 1 << 20},
  };
  std::printf("\nScheduler shapes: pooled timer wheel vs. reference heap\n");
  std::printf("%-24s %14s %14s %10s\n", "shape", "wheel Mev/s", "heap Mev/s", "speedup");
  for (const ShapeSpec& s : shapes) {
    // Warm-up pass on each core (page in code, populate node pools), then the
    // measured pass; best-of-3 tames scheduler noise on shared CI runners.
    double wheel = 1e9;
    double heap = 1e9;
    for (int rep = 0; rep < 3; ++rep) {
      wheel = std::min(wheel, s.fn(SchedulerKind::kTimerWheel, s.events));
      heap = std::min(heap, s.fn(SchedulerKind::kReference, s.events));
    }
    const double wheel_meps = s.events / wheel / 1e6;
    const double heap_meps = s.events / heap / 1e6;
    const double speedup = heap / wheel;
    std::printf("%-24s %14.1f %14.1f %9.2fx\n", s.name, wheel_meps, heap_meps, speedup);
    const std::string key = std::string("shape.") + s.name;
    json.Metric(key + ".wheel_meps", wheel_meps);
    json.Metric(key + ".heap_meps", heap_meps);
    json.Metric(key + ".speedup", speedup);
  }
  benchmark::DoNotOptimize(g_sink);
}

}  // namespace
}  // namespace asvm

int main(int argc, char** argv) {
  // Peel off --json=FILE (ours) before handing argv to google-benchmark.
  asvm::BenchJson json(argc, argv);
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) != 0) {
      bench_argv.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  asvm::RunSchedulerShapes(json);
  return json.Write("simcore") ? 0 : 1;
}
