// Fault injection end to end: the FaultPlan primitives, the hardened
// pending-op table (timeout + bounded retry + duplicate suppression), and the
// stall watchdog diagnosing an orphaned operation. Delay-only faults must
// never break coherence; message loss (node removal) must surface as a
// bounded kTimeout or, with retries disabled, a diagnosed stall — never as a
// silent hang or a wrong value.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/machine.h"
#include "src/dsm/protocol_agent.h"
#include "src/mesh/fault_plan.h"
#include "src/sim/engine.h"

namespace asvm {
namespace {

// --- FaultPlan unit tests ----------------------------------------------------

TEST(FaultPlanTest, ProfileFactoryBuildsTheCannedPlans) {
  FaultPlanParams p;
  EXPECT_TRUE(FaultProfileFromName("none", 1, 8, &p));
  EXPECT_TRUE(p.Empty());

  EXPECT_TRUE(FaultProfileFromName("jitter", 1, 8, &p));
  EXPECT_EQ(p.max_jitter_ns, 150 * kMicrosecond);

  EXPECT_TRUE(FaultProfileFromName("slow-node", 1, 8, &p));
  ASSERT_EQ(p.slow_nodes.size(), 1u);
  EXPECT_EQ(p.slow_nodes[0].node, 4);
  EXPECT_EQ(p.slow_nodes[0].cost_factor, 8.0);

  EXPECT_TRUE(FaultProfileFromName("degraded-links", 1, 8, &p));
  ASSERT_EQ(p.degraded_links.size(), 2u);
  EXPECT_EQ(p.degraded_links[0].a, 0);
  EXPECT_EQ(p.degraded_links[0].b, kInvalidNode);

  EXPECT_FALSE(FaultProfileFromName("meteor-strike", 1, 8, &p));
}

TEST(FaultPlanTest, JitterIsSeededAndBounded) {
  FaultPlanParams params;
  params.seed = 5;
  params.max_jitter_ns = 150 * kMicrosecond;

  Engine engine;
  StatsRegistry stats;
  FaultPlan a(engine, params, 4, stats);
  FaultPlan b(engine, params, 4, stats);
  params.seed = 6;
  FaultPlan c(engine, params, 4, stats);

  bool diverged = false;
  for (int i = 0; i < 64; ++i) {
    const SimDuration draw = a.NextJitter();
    EXPECT_GE(draw, 0);
    EXPECT_LE(draw, 150 * kMicrosecond);
    EXPECT_EQ(draw, b.NextJitter());  // same seed, same stream
    diverged = diverged || draw != c.NextJitter();
  }
  EXPECT_TRUE(diverged);  // a different seed draws a different stream
}

TEST(FaultPlanTest, RemovalSeversTheNodeAtItsTime) {
  FaultPlanParams params;
  params.removals.push_back({2, 100});

  Engine engine;
  StatsRegistry stats;
  FaultPlan plan(engine, params, 4, stats);
  EXPECT_TRUE(plan.NodeAlive(2));
  EXPECT_TRUE(plan.Delivers(0, 2));

  engine.Schedule(100, []() {});
  engine.Run();
  EXPECT_FALSE(plan.NodeAlive(2));
  EXPECT_FALSE(plan.Delivers(0, 2));  // to the removed node
  EXPECT_FALSE(plan.Delivers(2, 0));  // and from it
  EXPECT_TRUE(plan.Delivers(0, 1));   // other links untouched
}

TEST(FaultPlanTest, LinkDegradationMatchesWildcardAndPairs) {
  FaultPlanParams params;
  params.degraded_links.push_back({0, kInvalidNode, 0.25});
  params.degraded_links.push_back({1, 3, 0.5});

  Engine engine;
  StatsRegistry stats;
  FaultPlan plan(engine, params, 4, stats);
  EXPECT_DOUBLE_EQ(plan.LinkBandwidthFactor(0, 3), 0.25);
  EXPECT_DOUBLE_EQ(plan.LinkBandwidthFactor(2, 0), 0.25);
  EXPECT_DOUBLE_EQ(plan.LinkBandwidthFactor(1, 3), 0.5);
  EXPECT_DOUBLE_EQ(plan.LinkBandwidthFactor(3, 1), 0.5);
  EXPECT_DOUBLE_EQ(plan.LinkBandwidthFactor(1, 2), 1.0);
}

// --- Protocol hardening under live machines ---------------------------------

// A slowed reader delays its invalidation ack past the (deliberately tight)
// deadline: retries fire, their duplicates are suppressed, and the op still
// resolves kOk well before the retry budget runs out. Coherence holds.
TEST(FaultInjectionTest, RetriesFireButCoherenceHolds) {
  MachineConfig config;
  config.nodes = 4;
  config.dsm = DsmKind::kAsvm;
  config.fault.slow_nodes.push_back({2, 16.0});
  config.retry.timeout_ns = 300 * kMicrosecond;
  config.stall_watchdog = true;
  Machine machine(config);

  MemObjectId region = machine.CreateSharedRegion(0, 4);
  TaskMemory& writer = machine.MapRegion(1, region);
  TaskMemory& slow_reader = machine.MapRegion(2, region);
  TaskMemory& reader = machine.MapRegion(3, region);

  auto w1 = writer.WriteU64(0, 41);
  machine.Run();
  ASSERT_TRUE(w1.ready());
  ASSERT_EQ(w1.value(), Status::kOk);

  auto r1 = slow_reader.ReadU64(0);
  machine.Run();
  ASSERT_TRUE(r1.ready());
  EXPECT_EQ(r1.value(), 41u);

  // Upgrading the writer invalidates the slow reader; its ack arrives after
  // at least one deadline has fired.
  auto w2 = writer.WriteU64(0, 42);
  machine.Run();
  ASSERT_TRUE(w2.ready());
  ASSERT_EQ(w2.value(), Status::kOk);

  auto r2 = reader.ReadU64(0);
  machine.Run();
  ASSERT_TRUE(r2.ready());
  EXPECT_EQ(r2.value(), 42u);
  auto r3 = slow_reader.ReadU64(0);
  machine.Run();
  ASSERT_TRUE(r3.ready());
  EXPECT_EQ(r3.value(), 42u);

  EXPECT_GE(machine.stats().Get("dsm.op_retries"), 1);
  EXPECT_EQ(machine.stats().Get("dsm.op_timeouts"), 0);
  EXPECT_EQ(machine.stats().Get("sim.stalls_detected"), 0) << machine.last_stall_report();
}

// A removed reader black-holes its invalidation. With retries armed the op
// exhausts its budget, resolves kNodeDown (the fault plan confirms every
// unanswered target removed — not a generic kTimeout), and the write still
// completes: a bounded, correctly attributed failure instead of a wedge.
TEST(FaultInjectionTest, RemovedNodeTimesOutInsteadOfWedging) {
  constexpr SimTime kRemovalTime = 50 * kMillisecond;
  MachineConfig config;
  config.nodes = 4;
  config.dsm = DsmKind::kAsvm;
  config.fault.removals.push_back({2, kRemovalTime});
  config.retry.timeout_ns = 300 * kMicrosecond;
  config.stall_watchdog = true;
  Machine machine(config);

  MemObjectId region = machine.CreateSharedRegion(0, 4);
  TaskMemory& writer = machine.MapRegion(1, region);
  TaskMemory& doomed = machine.MapRegion(2, region);

  auto w1 = writer.WriteU64(0, 7);
  machine.Run();
  ASSERT_TRUE(w1.ready());
  auto r1 = doomed.ReadU64(0);
  machine.Run();
  ASSERT_TRUE(r1.ready());
  EXPECT_EQ(r1.value(), 7u);
  ASSERT_LT(machine.Now(), kRemovalTime) << "setup overran the removal time";

  // Cross the removal time (a drained RunFor does not advance the clock, so
  // park an empty event past the boundary), then invalidate the dead reader.
  machine.engine().Schedule(kRemovalTime - machine.Now() + kMillisecond, []() {});
  machine.Run();
  ASSERT_GT(machine.Now(), kRemovalTime);
  auto w2 = writer.WriteU64(0, 8);
  machine.Run();
  ASSERT_TRUE(w2.ready()) << "write wedged on the removed reader";

  EXPECT_GE(machine.stats().Get("dsm.op_node_down"), 1);
  EXPECT_EQ(machine.stats().Get("dsm.op_timeouts"), 0)
      << "a confirmed-dead target must classify kNodeDown, not kTimeout";
  EXPECT_GE(machine.stats().Get("fault.messages_dropped"), 1);

  // The surviving nodes still agree on the new value.
  auto r2 = writer.ReadU64(0);
  machine.Run();
  ASSERT_TRUE(r2.ready());
  EXPECT_EQ(r2.value(), 8u);
}

// The XMM manager's flush of a removed writer must also classify kNodeDown:
// the fault plan confirms the flush target dead at the first deadline, the
// manager treats the writer as holding nothing, and the read completes served
// from the pager (the dirty contents died with the writer). No failover
// needed — classification is always on and timeline-neutral.
TEST(FaultInjectionTest, XmmFlushOfRemovedWriterResolvesNodeDown) {
  constexpr SimTime kRemovalTime = 50 * kMillisecond;
  MachineConfig config;
  config.nodes = 4;
  config.dsm = DsmKind::kXmm;
  config.fault.removals.push_back({2, kRemovalTime});
  config.retry.timeout_ns = 300 * kMicrosecond;
  config.stall_watchdog = true;
  Machine machine(config);

  MemObjectId region = machine.CreateSharedRegion(0, 4);
  TaskMemory& doomed_writer = machine.MapRegion(2, region);
  TaskMemory& reader = machine.MapRegion(3, region);

  auto w1 = doomed_writer.WriteU64(0, 7);
  machine.Run();
  ASSERT_TRUE(w1.ready());
  ASSERT_EQ(w1.value(), Status::kOk);
  ASSERT_LT(machine.Now(), kRemovalTime) << "setup overran the removal time";

  machine.engine().Schedule(kRemovalTime - machine.Now() + kMillisecond, []() {});
  machine.Run();
  ASSERT_GT(machine.Now(), kRemovalTime);

  auto r1 = reader.ReadU64(0);
  machine.Run();
  ASSERT_TRUE(r1.ready()) << "read wedged on the removed writer's flush";
  EXPECT_EQ(r1.value(), 0u) << "the dirty contents died with the writer";
  EXPECT_GE(machine.stats().Get("dsm.op_node_down"), 1);
  EXPECT_EQ(machine.stats().Get("dsm.op_timeouts"), 0);
  EXPECT_EQ(machine.stats().Get("sim.stalls_detected"), 0) << machine.last_stall_report();
}

// The same black hole with retries disabled: the op can never resolve, the
// event queue drains, and the watchdog must diagnose the stall — naming the
// orphaned invalidation op rather than silently returning.
TEST(FaultInjectionTest, WatchdogDiagnosesAnOrphanedOp) {
  constexpr SimTime kRemovalTime = 50 * kMillisecond;
  MachineConfig config;
  config.nodes = 4;
  config.dsm = DsmKind::kAsvm;
  config.fault.removals.push_back({2, kRemovalTime});
  config.retry.timeout_ns = 0;  // hardening off: nothing rescues the op
  config.stall_watchdog = true;
  Machine machine(config);

  MemObjectId region = machine.CreateSharedRegion(0, 4);
  TaskMemory& writer = machine.MapRegion(1, region);
  TaskMemory& doomed = machine.MapRegion(2, region);

  auto w1 = writer.WriteU64(0, 7);
  machine.Run();
  auto r1 = doomed.ReadU64(0);
  machine.Run();
  ASSERT_TRUE(r1.ready());
  ASSERT_LT(machine.Now(), kRemovalTime);

  machine.engine().Schedule(kRemovalTime - machine.Now() + kMillisecond, []() {});
  machine.Run();
  ASSERT_GT(machine.Now(), kRemovalTime);
  auto w2 = writer.WriteU64(0, 8);
  machine.Run();

  EXPECT_FALSE(w2.ready());  // genuinely blocked — that's what stalled means
  EXPECT_GE(machine.stats().Get("sim.stalls_detected"), 1);
  const std::string& report = machine.last_stall_report();
  EXPECT_NE(report.find("simulation stalled"), std::string::npos) << report;
  EXPECT_NE(report.find("invalidate-round"), std::string::npos)
      << "stall report does not name the orphaned op:\n"
      << report;
  EXPECT_NE(report.find("node 1"), std::string::npos) << report;
}

// Delay-only profiles across both DSMs: a short contended workload completes
// with zero timeouts and zero stalls (faults slow the timeline, never break
// it). This is the cheap smoke version of the property-test regimes.
TEST(FaultInjectionTest, DelayOnlyProfilesNeverTimeOut) {
  for (DsmKind kind : {DsmKind::kAsvm, DsmKind::kXmm}) {
    for (const char* profile : {"jitter", "slow-node", "degraded-links"}) {
      MachineConfig config;
      config.nodes = 4;
      config.dsm = kind;
      ASSERT_TRUE(FaultProfileFromName(profile, 9, config.nodes, &config.fault));
      config.retry.timeout_ns = 20 * kMillisecond;
      config.stall_watchdog = true;
      Machine machine(config);

      MemObjectId region = machine.CreateSharedRegion(0, 2);
      std::vector<TaskMemory*> mems;
      for (NodeId n = 0; n < 4; ++n) {
        mems.push_back(&machine.MapRegion(n, region));
      }
      for (int i = 0; i < 12; ++i) {
        const NodeId node = static_cast<NodeId>(i % 4);
        auto w = mems[node]->WriteU64(0, static_cast<uint64_t>(100 + i));
        machine.Run();
        ASSERT_TRUE(w.ready()) << ToString(kind) << "/" << profile << " op " << i;
        ASSERT_EQ(w.value(), Status::kOk);
      }
      uint64_t agreed = 111;  // the last write
      for (NodeId n = 0; n < 4; ++n) {
        auto r = mems[n]->ReadU64(0);
        machine.Run();
        ASSERT_TRUE(r.ready());
        EXPECT_EQ(r.value(), agreed) << ToString(kind) << "/" << profile << " node " << n;
      }
      EXPECT_EQ(machine.stats().Get("dsm.op_timeouts"), 0)
          << ToString(kind) << "/" << profile;
      EXPECT_EQ(machine.stats().Get("fault.messages_dropped"), 0)
          << ToString(kind) << "/" << profile;
      EXPECT_EQ(machine.stats().Get("sim.stalls_detected"), 0)
          << ToString(kind) << "/" << profile << "\n"
          << machine.last_stall_report();
    }
  }
}

// Regression (PR 4): an aggressive backoff policy used to overflow the
// exponential delay computation — the double exceeded INT64_MAX, the cast
// produced a negative delay, and the scheduler CHECK-failed. The delay now
// saturates at RetryPolicy::max_delay_ns: the same black-hole scenario must
// resolve kTimeout within a bounded stretch of simulated time.
TEST(FaultInjectionTest, AggressiveBackoffSaturatesInsteadOfOverflowing) {
  constexpr SimTime kRemovalTime = 50 * kMillisecond;
  MachineConfig config;
  config.nodes = 4;
  config.dsm = DsmKind::kAsvm;
  config.fault.removals.push_back({2, kRemovalTime});
  config.retry.timeout_ns = 20 * kMillisecond;
  config.retry.max_retries = 12;
  config.retry.backoff = 8.0;  // unclamped, attempt 12 would wait 20ms * 8^12 ≈ 43 years
  config.stall_watchdog = true;
  Machine machine(config);

  MemObjectId region = machine.CreateSharedRegion(0, 4);
  TaskMemory& writer = machine.MapRegion(1, region);
  TaskMemory& doomed = machine.MapRegion(2, region);

  auto w1 = writer.WriteU64(0, 7);
  machine.Run();
  ASSERT_TRUE(w1.ready());
  auto r1 = doomed.ReadU64(0);
  machine.Run();
  ASSERT_TRUE(r1.ready());
  ASSERT_LT(machine.Now(), kRemovalTime);

  machine.engine().Schedule(kRemovalTime - machine.Now() + kMillisecond, []() {});
  machine.Run();
  auto w2 = writer.WriteU64(0, 8);
  machine.Run();

  ASSERT_TRUE(w2.ready()) << "write wedged instead of timing out";
  EXPECT_GE(machine.stats().Get("dsm.op_node_down"), 1);
  // Every per-attempt delay is capped at max_delay_ns (1 s default), so 12
  // retries finish within seconds of simulated time — not decades, and never
  // a negative-delay CHECK.
  EXPECT_LT(machine.Now(), 60 * kSecond);
  EXPECT_EQ(machine.stats().Get("sim.stalls_detected"), 0) << machine.last_stall_report();
}

// Regression (PR 4): the duplicate-suppression window was a 512-entry FIFO
// bounded by count, so 512 interleaved ops evicted a live op id and a late
// retry duplicate would re-execute a non-idempotent request. Retention is now
// time-based (twice the worst-case retry horizon): op ids must survive any
// number of interleaved deliveries at the same simulated time, and must be
// forgotten once no retry can still be in flight.
TEST(FaultInjectionTest, DuplicateWindowSurvivesAFloodOfInterleavedOps) {
  MachineConfig config;
  config.nodes = 2;
  config.dsm = DsmKind::kAsvm;
  config.retry.timeout_ns = 20 * kMillisecond;  // arms delivered-op tracking
  Machine machine(config);

  struct TestAgent : ProtocolAgent {
    TestAgent(DsmSystem& dsm, NodeId node)
        : ProtocolAgent(dsm, node, TraceProtocol::kAsvm) {}
    using ProtocolAgent::DuplicateDelivery;
    void OnMessage(NodeId, Message&) override {}
    void SendShadow(NodeId, bool, const ShadowUpdate&, PageBuffer) override {}
  };
  TestAgent agent(machine.dsm(), 0);

  EXPECT_FALSE(agent.DuplicateDelivery(1));  // first delivery
  EXPECT_TRUE(agent.DuplicateDelivery(1));   // retry duplicate, suppressed

  // Flood: far more than the old window size, all at the same sim time.
  for (uint64_t id = 2; id <= 1500; ++id) {
    EXPECT_FALSE(agent.DuplicateDelivery(id)) << "fresh id " << id << " misdetected";
  }
  EXPECT_TRUE(agent.DuplicateDelivery(1)) << "live op id evicted by the flood";
  EXPECT_TRUE(agent.DuplicateDelivery(777));

  // Past the retention horizon (2 * sum of all backoff delays; 600 ms for the
  // default policy at 20 ms) the ids are purged — memory stays bounded.
  machine.engine().Schedule(2 * kSecond, []() {});
  machine.Run();
  EXPECT_FALSE(agent.DuplicateDelivery(1));
  EXPECT_FALSE(agent.DuplicateDelivery(777));
}

}  // namespace
}  // namespace asvm
