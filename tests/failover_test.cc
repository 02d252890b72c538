// Manager failover and online recovery end to end (DESIGN.md §14). The
// kill-manager profile removes node 0 — the ASVM forwarding terminal and the
// XMM centralized manager of the test region — mid-run. With failover enabled
// the surviving nodes must keep the region available and coherent:
//  - pre-kill writes survive promotion (owners re-assert, the backup's shadow
//    store resurrects written-back pages whose only copy died with the home);
//  - the whole recovery timeline is deterministic — byte-identical digests
//    across re-runs and across shard counts {1, 4};
//  - a dead owner's pages come back via the lease state machine, never by
//    guessing while the owner might still answer;
//  - rolling-restart brings the removed node back with cold caches and the
//    machine keeps serving both sides.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/machine.h"
#include "src/dsm/failover.h"
#include "src/mesh/fault_plan.h"

#include "dsm_test_util.h"

namespace asvm {
namespace {

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t SyncRead(Machine& machine, TaskMemory& mem, VmOffset addr) {
  auto f = mem.ReadU64(addr);
  machine.Run();
  EXPECT_TRUE(f.ready()) << "read wedged at addr " << addr;
  return f.ready() ? f.value() : ~0ULL;
}

void SyncWrite(Machine& machine, TaskMemory& mem, VmOffset addr, uint64_t value) {
  auto f = mem.WriteU64(addr, value);
  machine.Run();
  ASSERT_TRUE(f.ready()) << "write wedged at addr " << addr;
  ASSERT_EQ(f.value(), Status::kOk);
}

// Parks an empty event past `when` so the drained engine crosses the fault
// plan's removal/restore boundary.
void AdvancePast(Machine& machine, SimTime when) {
  if (machine.Now() <= when) {
    machine.engine().Schedule(when - machine.Now() + kMillisecond, []() {});
    machine.Run();
  }
  ASSERT_GT(machine.Now(), when);
}

// Sliced variants for fault plans that park far-future events (the rolling
// restart wake at 400 ms lives in the queue from construction): a full drain
// would fast-forward the whole run past the rejoin before the first phase, so
// these advance in 1 ms slices only until the access resolves.
uint64_t SlicedRead(Machine& machine, TaskMemory& mem, VmOffset addr) {
  auto f = mem.ReadU64(addr);
  for (int i = 0; i < 4000 && !f.ready(); ++i) {
    machine.RunFor(kMillisecond);
  }
  EXPECT_TRUE(f.ready()) << "read wedged at addr " << addr;
  return f.ready() ? f.value() : ~0ULL;
}

void SlicedWrite(Machine& machine, TaskMemory& mem, VmOffset addr, uint64_t value) {
  auto f = mem.WriteU64(addr, value);
  for (int i = 0; i < 4000 && !f.ready(); ++i) {
    machine.RunFor(kMillisecond);
  }
  ASSERT_TRUE(f.ready()) << "write wedged at addr " << addr;
  ASSERT_EQ(f.value(), Status::kOk);
}

void AdvanceTo(Machine& machine, SimTime when) {
  // Park a wake just past the target: RunFor only advances the clock while
  // the queue holds events, so an empty queue would otherwise spin forever.
  machine.engine().Schedule(when + kMillisecond - machine.Now(), []() {});
  while (machine.Now() <= when) {
    machine.RunFor(kMillisecond);
  }
}

struct FailoverRun {
  uint64_t digest = 0;
  int violations = 0;
};

// The kill-manager workload: an 8-node machine, a region homed on node 0,
// pre-kill writes from the seven survivors (pages 6 and 7 stay untouched so
// post-kill first-touch must reach the promoted terminal), then node 0 dies
// and the survivors read everything back and keep writing.
FailoverRun KillManagerRun(DsmKind kind, int shards) {
  MachineConfig config;
  config.nodes = 8;
  config.dsm = kind;
  config.shards = shards;
  config.nodes_per_io_group = 2;  // 4 shard blocks: shards up to 4 are real
  EXPECT_TRUE(FaultProfileFromName("kill-manager", 1, config.nodes, &config.fault));
  config.retry.timeout_ns = 2 * kMillisecond;
  config.failover.enabled = true;
  config.stall_watchdog = true;
  Machine machine(config);
  CoherenceOracle oracle;

  constexpr VmSize kPages = 8;
  constexpr VmSize kWritten = 6;
  MemObjectId region = machine.CreateSharedRegion(0, kPages);
  std::vector<TaskMemory*> mems;
  for (NodeId n = 0; n < 8; ++n) {
    mems.push_back(&machine.MapRegion(n, region));
  }

  // Healthy phase: survivors write, cross-node reads spread copies around.
  for (VmSize p = 0; p < kWritten; ++p) {
    const NodeId writer = static_cast<NodeId>(1 + p % 7);
    const VmOffset addr = p * machine.page_size();
    SyncWrite(machine, *mems[writer], addr, 1000 + p);
    oracle.RecordWrite(addr, 1000 + p);
    const NodeId reader = static_cast<NodeId>(1 + (p + 3) % 7);
    oracle.CheckRead(addr, SyncRead(machine, *mems[reader], addr));
  }
  EXPECT_LT(machine.Now(), 200 * kMillisecond) << "setup overran the kill time";

  AdvancePast(machine, 200 * kMillisecond);

  // Post-kill: every page — written ones (their owners survived) and untouched
  // ones (first-touch must promote the dead terminal before zero-filling).
  uint64_t digest = 14695981039346656037ULL;
  for (VmSize p = 0; p < kPages; ++p) {
    const NodeId reader = static_cast<NodeId>(1 + (p + 5) % 7);
    const VmOffset addr = p * machine.page_size();
    const uint64_t got = SyncRead(machine, *mems[reader], addr);
    oracle.CheckRead(addr, got);
    digest = Fnv1a(digest, got);
    digest = Fnv1a(digest, static_cast<uint64_t>(machine.Now()));
  }
  // The region stays writable after failover.
  for (VmSize p = 0; p < kPages; ++p) {
    const NodeId writer = static_cast<NodeId>(1 + (p + 2) % 7);
    const VmOffset addr = p * machine.page_size();
    SyncWrite(machine, *mems[writer], addr, 2000 + p);
    oracle.RecordWrite(addr, 2000 + p);
    const NodeId reader = static_cast<NodeId>(1 + (p + 4) % 7);
    const uint64_t got = SyncRead(machine, *mems[reader], addr);
    oracle.CheckRead(addr, got);
    digest = Fnv1a(digest, got);
  }

  EXPECT_GE(machine.stats().Get(kStatPromotions), 1) << ToString(kind);
  EXPECT_EQ(machine.stats().Get("sim.stalls_detected"), 0)
      << ToString(kind) << "\n" << machine.last_stall_report();
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.Now()));
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.stats().Get("mesh.messages")));
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.stats().Get("mesh.bytes")));
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.stats().Get("vm.faults")));
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.stats().Get(kStatPromotions)));
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.stats().Get(kStatReissues)));
  return {digest, oracle.violations()};
}

TEST(FailoverTest, KillManagerKeepsBothDsmsCoherent) {
  for (DsmKind kind : {DsmKind::kAsvm, DsmKind::kXmm}) {
    FailoverRun run = KillManagerRun(kind, 1);
    EXPECT_EQ(run.violations, 0) << ToString(kind);
  }
}

TEST(FailoverTest, KillManagerRecoveryIsByteIdenticalAcrossRunsAndShards) {
  for (DsmKind kind : {DsmKind::kAsvm, DsmKind::kXmm}) {
    const FailoverRun first = KillManagerRun(kind, 1);
    EXPECT_EQ(KillManagerRun(kind, 1).digest, first.digest)
        << ToString(kind) << ": re-run diverged";
    EXPECT_EQ(KillManagerRun(kind, 2).digest, first.digest)
        << ToString(kind) << ": 2-sharded recovery diverged";
    EXPECT_EQ(KillManagerRun(kind, 4).digest, first.digest)
        << ToString(kind) << ": 4-sharded recovery diverged";
  }
}

// The cascade workload: node 0 (the home/manager) dies at 200 ms, and node 1 —
// the freshly promoted backup — dies at 260 ms. The ring rule must re-run,
// the epoch-stamped directory fences the first ex-manager, and the data
// survives both promotions (owners re-assert; the re-mirror pass after the
// first promotion restocked node 2's shadow store before node 1 died).
FailoverRun CascadeRun(DsmKind kind, int shards) {
  MachineConfig config;
  config.nodes = 8;
  config.dsm = kind;
  config.shards = shards;
  config.nodes_per_io_group = 2;  // 4 shard blocks: shards up to 4 are real
  EXPECT_TRUE(FaultProfileFromName("cascade", 1, config.nodes, &config.fault));
  config.retry.timeout_ns = 2 * kMillisecond;
  config.failover.enabled = true;
  config.stall_watchdog = true;
  Machine machine(config);
  CoherenceOracle oracle;

  constexpr VmSize kPages = 8;
  MemObjectId region = machine.CreateSharedRegion(0, kPages);
  std::vector<TaskMemory*> mems;
  for (NodeId n = 0; n < 8; ++n) {
    mems.push_back(&machine.MapRegion(n, region));
  }

  // Healthy phase: writers on the six nodes that survive both kills.
  for (VmSize p = 0; p < 6; ++p) {
    const NodeId writer = static_cast<NodeId>(2 + p % 6);
    const VmOffset addr = p * machine.page_size();
    SyncWrite(machine, *mems[writer], addr, 1000 + p);
    oracle.RecordWrite(addr, 1000 + p);
    const NodeId reader = static_cast<NodeId>(2 + (p + 3) % 6);
    oracle.CheckRead(addr, SyncRead(machine, *mems[reader], addr));
  }
  EXPECT_LT(machine.Now(), 200 * kMillisecond) << "setup overran the first kill";

  // First death: node 0. The next accesses detect it and promote node 1.
  AdvancePast(machine, 200 * kMillisecond);
  uint64_t digest = 14695981039346656037ULL;
  for (VmSize p = 0; p < kPages; ++p) {
    const NodeId reader = static_cast<NodeId>(2 + (p + 5) % 6);
    const VmOffset addr = p * machine.page_size();
    const uint64_t got = SyncRead(machine, *mems[reader], addr);
    oracle.CheckRead(addr, got);
    digest = Fnv1a(digest, got);
    digest = Fnv1a(digest, static_cast<uint64_t>(machine.Now()));
  }

  // Second death: node 1, the node the first failover just promoted. The ring
  // rule must re-run and land on node 2.
  AdvancePast(machine, 260 * kMillisecond);
  for (VmSize p = 0; p < kPages; ++p) {
    const NodeId writer = static_cast<NodeId>(2 + (p + 2) % 6);
    const VmOffset addr = p * machine.page_size();
    SyncWrite(machine, *mems[writer], addr, 2000 + p);
    oracle.RecordWrite(addr, 2000 + p);
    const NodeId reader = static_cast<NodeId>(2 + (p + 4) % 6);
    const uint64_t got = SyncRead(machine, *mems[reader], addr);
    oracle.CheckRead(addr, got);
    digest = Fnv1a(digest, got);
  }

  EXPECT_GE(machine.stats().Get(kStatPromotions), 2)
      << ToString(kind) << ": the cascaded death must re-run the ring rule";
  EXPECT_EQ(machine.stats().Get("sim.stalls_detected"), 0)
      << ToString(kind) << "\n" << machine.last_stall_report();
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.Now()));
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.stats().Get("mesh.messages")));
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.stats().Get("mesh.bytes")));
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.stats().Get(kStatPromotions)));
  digest = Fnv1a(digest, static_cast<uint64_t>(machine.stats().Get(kStatDeathNotices)));
  return {digest, oracle.violations()};
}

TEST(FailoverTest, CascadeKillsThePromotedBackupAndRecoversAgain) {
  for (DsmKind kind : {DsmKind::kAsvm, DsmKind::kXmm}) {
    FailoverRun run = CascadeRun(kind, 1);
    EXPECT_EQ(run.violations, 0) << ToString(kind);
  }
}

TEST(FailoverTest, CascadeRecoveryIsByteIdenticalAcrossShards) {
  for (DsmKind kind : {DsmKind::kAsvm, DsmKind::kXmm}) {
    const FailoverRun first = CascadeRun(kind, 1);
    EXPECT_EQ(CascadeRun(kind, 2).digest, first.digest)
        << ToString(kind) << ": 2-sharded cascade diverged";
    EXPECT_EQ(CascadeRun(kind, 4).digest, first.digest)
        << ToString(kind) << ": 4-sharded cascade diverged";
  }
}

// Two simultaneous deaths (the kill-many profile removes nodes 0 and 2 at the
// same instant): the manager dies together with a bystander that only held
// read copies. Survivors must promote past the dead manager, drop the dead
// reader from every invalidation round, and keep the region coherent.
TEST(FailoverTest, KillManyRemovesManagerAndBystanderTogether) {
  for (DsmKind kind : {DsmKind::kAsvm, DsmKind::kXmm}) {
    MachineConfig config;
    config.nodes = 6;
    config.dsm = kind;
    EXPECT_TRUE(FaultProfileFromName("kill-many", 1, config.nodes, &config.fault));
    config.retry.timeout_ns = 2 * kMillisecond;
    config.failover.enabled = true;
    config.stall_watchdog = true;
    Machine machine(config);
    CoherenceOracle oracle;

    constexpr VmSize kPages = 6;
    MemObjectId region = machine.CreateSharedRegion(0, kPages);
    std::vector<TaskMemory*> mems;
    for (NodeId n = 0; n < 6; ++n) {
      mems.push_back(&machine.MapRegion(n, region));
    }

    // Healthy phase: the surviving nodes {1, 3, 4, 5} write; the doomed
    // bystander (node 2) reads everything, so its copies die with it.
    const NodeId survivors[] = {1, 3, 4, 5};
    for (VmSize p = 0; p < kPages; ++p) {
      const VmOffset addr = p * machine.page_size();
      SyncWrite(machine, *mems[survivors[p % 4]], addr, 4000 + p);
      oracle.RecordWrite(addr, 4000 + p);
      oracle.CheckRead(addr, SyncRead(machine, *mems[2], addr));
    }
    ASSERT_LT(machine.Now(), 200 * kMillisecond) << "setup overran the kill time";

    AdvancePast(machine, 200 * kMillisecond);

    // Survivors read everything back and overwrite it: reads recover through
    // the promotion, writes must not wedge on the dead reader's silence.
    for (VmSize p = 0; p < kPages; ++p) {
      const VmOffset addr = p * machine.page_size();
      oracle.CheckRead(addr, SyncRead(machine, *mems[survivors[(p + 1) % 4]], addr));
      SyncWrite(machine, *mems[survivors[(p + 2) % 4]], addr, 5000 + p);
      oracle.RecordWrite(addr, 5000 + p);
      oracle.CheckRead(addr, SyncRead(machine, *mems[survivors[(p + 3) % 4]], addr));
    }

    EXPECT_EQ(oracle.violations(), 0) << ToString(kind);
    EXPECT_GE(machine.stats().Get(kStatPromotions), 1) << ToString(kind);
    EXPECT_GE(machine.stats().Get(kStatDeathNotices), 1)
        << ToString(kind) << ": two confirmed deaths, no gossip";
    EXPECT_EQ(machine.stats().Get("sim.stalls_detected"), 0)
        << ToString(kind) << "\n" << machine.last_stall_report();
  }
}

// Owner death with a surviving read copy: the dead owner's committed page must
// be reconstructed from the newest surviving copy, not zero-filled. (Contrast
// with LeaseExpiryReclaimsADeadOwnersPages above, where no copy survives and
// the un-written-back write is legitimately lost.)
TEST(FailoverTest, OwnerDeathReconstructsFromSurvivingReadCopy) {
  for (DsmKind kind : {DsmKind::kAsvm, DsmKind::kXmm}) {
    MachineConfig config;
    config.nodes = 4;
    config.dsm = kind;
    config.fault.removals.push_back({0, 200 * kMillisecond});
    config.retry.timeout_ns = 2 * kMillisecond;
    config.failover.enabled = true;
    config.failover.lease_ns = 50 * kMillisecond;
    config.stall_watchdog = true;
    Machine machine(config);

    MemObjectId region = machine.CreateSharedRegion(1, 2);
    TaskMemory& doomed = machine.MapRegion(0, region);
    TaskMemory& holder = machine.MapRegion(2, region);
    TaskMemory& prober = machine.MapRegion(3, region);

    SyncWrite(machine, doomed, 0, 42);          // node 0 owns the committed page
    EXPECT_EQ(SyncRead(machine, holder, 0), 42u);  // node 2 holds a read copy
    ASSERT_LT(machine.Now(), 200 * kMillisecond);

    // Past removal AND past lease expiry (200 ms + 50 ms).
    AdvancePast(machine, 260 * kMillisecond);

    // The committed value must survive the owner: served from node 2's copy
    // (ASVM harvests it during the lease reclaim; XMM's manager already holds
    // the coherent version it created when it flushed the writer for node 2).
    EXPECT_EQ(SyncRead(machine, prober, 0), 42u)
        << ToString(kind) << ": committed page zero-filled despite a survivor";
    if (kind == DsmKind::kAsvm) {
      EXPECT_GE(machine.stats().Get(kStatLeaseReclaims), 1) << ToString(kind);
      EXPECT_GE(machine.stats().Get(kStatReconstructedPages), 1) << ToString(kind);
    }
    EXPECT_EQ(machine.stats().Get("sim.stalls_detected"), 0)
        << ToString(kind) << "\n" << machine.last_stall_report();

    // The reconstructed page is a normal page again: writable and coherent.
    SyncWrite(machine, prober, 0, 43);
    EXPECT_EQ(SyncRead(machine, holder, 0), 43u) << ToString(kind);
  }
}

// Home and owner die together: promotion finds no surviving owner to rebuild
// the moved page's record from, so it must harvest the surviving read copy
// itself (the lease-reclaim path never runs — no terminal outlives the owner).
// The copy sits either on the promoted node (2, node 1's ring successor) or on
// a bystander (3); the fourth node probes.
TEST(FailoverTest, HomeAndOwnerDeathHarvestsReadCopyAtPromotion) {
  for (NodeId holder_node : {2, 3}) {
    const NodeId prober_node = holder_node == 2 ? 3 : 2;
    MachineConfig config;
    config.nodes = 4;
    config.dsm = DsmKind::kAsvm;
    config.fault.removals.push_back({0, 200 * kMillisecond});
    config.fault.removals.push_back({1, 200 * kMillisecond});
    config.retry.timeout_ns = 2 * kMillisecond;
    config.failover.enabled = true;
    config.failover.lease_ns = 50 * kMillisecond;
    config.stall_watchdog = true;
    Machine machine(config);

    MemObjectId region = machine.CreateSharedRegion(1, 2);
    TaskMemory& doomed = machine.MapRegion(0, region);
    TaskMemory& holder = machine.MapRegion(holder_node, region);
    TaskMemory& prober = machine.MapRegion(prober_node, region);

    SyncWrite(machine, doomed, 0, 42);             // node 0 owns the page
    EXPECT_EQ(SyncRead(machine, holder, 0), 42u);  // the holder reads a copy
    ASSERT_LT(machine.Now(), 200 * kMillisecond);

    AdvancePast(machine, 260 * kMillisecond);

    EXPECT_EQ(SyncRead(machine, prober, 0), 42u)
        << "holder " << holder_node << ": committed page lost with home and owner";
    EXPECT_GE(machine.stats().Get(kStatPromotions), 1) << "holder " << holder_node;
    EXPECT_GE(machine.stats().Get(kStatReconstructedPages), 1) << "holder " << holder_node;
    EXPECT_EQ(machine.stats().Get(kStatLeaseReclaims), 0) << "holder " << holder_node;
    EXPECT_EQ(machine.stats().Get("sim.stalls_detected"), 0)
        << "holder " << holder_node << "\n" << machine.last_stall_report();

    SyncWrite(machine, prober, 0, 43);
    EXPECT_EQ(SyncRead(machine, holder, 0), 43u) << "holder " << holder_node;
  }
}

// Committed-and-lost: written-back pages whose home, shadow backup, and writer
// all die must answer Status::kDataLost — never zeros — because the surviving
// manifest witness proves a commit happened. (ReadU64 CHECK-crashes on a
// failed fault by design, so the probe uses the WriteU64 status future.)
TEST(FailoverTest, LosingEveryReplicaOfACommittedPageFailsWithDataLost) {
  for (DsmKind kind : {DsmKind::kAsvm, DsmKind::kXmm}) {
    MachineConfig config;
    config.nodes = 4;
    config.dsm = kind;
    config.user_memory_bytes = 40 * 8192;  // 40 frames: 64 pages must evict
    // Node 0 is the home/manager (and holds the paging-space copies); node 1
    // is both the evicting writer and node 0's ring-successor shadow backup.
    // Killing both at once strands every replica; only node 2's control-only
    // manifests survive.
    config.fault.removals.push_back({0, 1 * kSecond});
    config.fault.removals.push_back({1, 1 * kSecond});
    config.retry.timeout_ns = 2 * kMillisecond;
    config.failover.enabled = true;
    config.stall_watchdog = true;
    Machine machine(config);

    constexpr VmSize kPages = 64;
    MemObjectId region = machine.CreateSharedRegion(0, kPages);
    TaskMemory& writer = machine.MapRegion(1, region);
    TaskMemory& survivor = machine.MapRegion(2, region);

    for (VmSize p = 0; p < kPages; ++p) {
      SyncWrite(machine, writer, p * machine.page_size(), 7000 + p);
    }
    ASSERT_LT(machine.Now(), 1 * kSecond) << "setup overran the kill time";
    ASSERT_GE(machine.stats().Get(kStatShadowUpdates), 1)
        << ToString(kind) << ": no writeback ever reached the backup";

    AdvancePast(machine, 1 * kSecond);

    // Page 0 was evicted and written back long ago: committed, witnessed by
    // node 2's manifest, and now unrecoverable. The access must fail loudly.
    auto f = survivor.WriteU64(0, 9);
    machine.Run();
    ASSERT_TRUE(f.ready()) << ToString(kind) << ": lost-page probe wedged";
    EXPECT_EQ(f.value(), Status::kDataLost)
        << ToString(kind) << ": a committed page silently zero-filled";
    EXPECT_GE(machine.stats().Get(kStatLostPages), 1) << ToString(kind);
    EXPECT_EQ(machine.stats().Get("sim.stalls_detected"), 0)
        << ToString(kind) << "\n" << machine.last_stall_report();
  }
}

// Pure bystander death: the victim holds read copies and nothing else — no
// manager role, no ownership. Recovery must be a non-event: the gossiped death
// notice drops it from invalidation rounds, and there must be EXACTLY zero
// promotions (a promotion here would mean the ring rule fired for a node that
// managed nothing).
TEST(FailoverTest, BystanderDeathCausesZeroPromotions) {
  for (DsmKind kind : {DsmKind::kAsvm, DsmKind::kXmm}) {
    MachineConfig config;
    config.nodes = 4;
    config.dsm = kind;
    config.fault.removals.push_back({3, 200 * kMillisecond});
    config.retry.timeout_ns = 2 * kMillisecond;
    config.failover.enabled = true;
    config.stall_watchdog = true;
    Machine machine(config);
    CoherenceOracle oracle;

    constexpr VmSize kPages = 3;
    MemObjectId region = machine.CreateSharedRegion(0, kPages);
    TaskMemory& writer = machine.MapRegion(1, region);
    TaskMemory& bystander = machine.MapRegion(3, region);
    TaskMemory& observer = machine.MapRegion(2, region);

    for (VmSize p = 0; p < kPages; ++p) {
      const VmOffset addr = p * machine.page_size();
      SyncWrite(machine, writer, addr, 100 + p);
      oracle.RecordWrite(addr, 100 + p);
      oracle.CheckRead(addr, SyncRead(machine, bystander, addr));
    }
    ASSERT_LT(machine.Now(), 200 * kMillisecond);

    AdvancePast(machine, 200 * kMillisecond);

    // Re-writes must invalidate past the dead reader (first write pays the
    // detection horizon, gossips the death, and later rounds skip the victim),
    // and reads elsewhere see the new values.
    for (VmSize p = 0; p < kPages; ++p) {
      const VmOffset addr = p * machine.page_size();
      SyncWrite(machine, writer, addr, 200 + p);
      oracle.RecordWrite(addr, 200 + p);
      oracle.CheckRead(addr, SyncRead(machine, observer, addr));
    }

    EXPECT_EQ(oracle.violations(), 0) << ToString(kind);
    EXPECT_EQ(machine.stats().Get(kStatPromotions), 0)
        << ToString(kind) << ": a bystander death must not promote anything";
    EXPECT_EQ(machine.stats().Get(kStatLeaseReclaims), 0) << ToString(kind);
    EXPECT_GE(machine.stats().Get(kStatDeathNotices), 1)
        << ToString(kind) << ": confirmed death never gossiped";
    EXPECT_EQ(machine.stats().Get("sim.stalls_detected"), 0)
        << ToString(kind) << "\n" << machine.last_stall_report();
  }
}

// Regression for the stranded-shadow-stream bug: the home's shadow backup dies
// mid-writeback-stream. Later writebacks must notice the ring successor
// changed, replay the whole ledger to the new backup, and keep streaming —
// so when the home itself dies later, the new backup resurrects every
// written-back page.
TEST(FailoverTest, BackupDeathRetargetsTheShadowStream) {
  for (DsmKind kind : {DsmKind::kAsvm, DsmKind::kXmm}) {
    MachineConfig config;
    config.nodes = 4;
    config.dsm = kind;
    config.user_memory_bytes = 40 * 8192;  // 40 frames: 64 pages must evict
    config.fault.removals.push_back({1, 600 * kMillisecond});  // the backup
    config.fault.removals.push_back({0, 2 * kSecond});         // then the home
    config.retry.timeout_ns = 2 * kMillisecond;
    config.failover.enabled = true;
    config.stall_watchdog = true;
    Machine machine(config);
    CoherenceOracle oracle;

    constexpr VmSize kPages = 64;
    constexpr VmSize kFirstHalf = 44;
    MemObjectId region = machine.CreateSharedRegion(0, kPages);
    TaskMemory& writer = machine.MapRegion(3, region);

    // First half: evictions stream writebacks to node 0's backup, node 1.
    for (VmSize p = 0; p < kFirstHalf; ++p) {
      const VmOffset addr = p * machine.page_size();
      SyncWrite(machine, writer, addr, 7000 + p);
      oracle.RecordWrite(addr, 7000 + p);
    }
    ASSERT_LT(machine.Now(), 600 * kMillisecond) << "first half overran the backup kill";
    ASSERT_GE(machine.stats().Get(kStatShadowUpdates), 1)
        << ToString(kind) << ": no writeback reached the original backup";

    // Backup dies; the remaining writes must re-target the stream to node 2
    // and replay the ledger there — no detection needed, the ring rule sees
    // the dead successor at the next mirror.
    AdvancePast(machine, 600 * kMillisecond);
    for (VmSize p = kFirstHalf; p < kPages; ++p) {
      const VmOffset addr = p * machine.page_size();
      SyncWrite(machine, writer, addr, 7000 + p);
      oracle.RecordWrite(addr, 7000 + p);
    }
    ASSERT_LT(machine.Now(), 2 * kSecond) << "second half overran the home kill";
    EXPECT_GE(machine.stats().Get(kStatShadowRestreams), 1)
        << ToString(kind) << ": the ledger was never replayed to the new backup";

    // Home dies; promotion lands on node 2 (node 1 is gone), whose replayed
    // shadow store must resurrect every written-back page.
    AdvancePast(machine, 2 * kSecond);
    for (VmSize p = 0; p < kPages; ++p) {
      const VmOffset addr = p * machine.page_size();
      oracle.CheckRead(addr, SyncRead(machine, writer, addr));
    }
    EXPECT_EQ(oracle.violations(), 0) << ToString(kind);
    EXPECT_GE(machine.stats().Get(kStatPromotions), 1) << ToString(kind);
    EXPECT_GE(machine.stats().Get(kStatReconstructedPages), 1) << ToString(kind);
    EXPECT_EQ(machine.stats().Get("sim.stalls_detected"), 0)
        << ToString(kind) << "\n" << machine.last_stall_report();
  }
}

// The shadow-replication path: a memory-starved writer evicts dirty pages all
// the way to the home's paging space, each writeback streaming to the backup.
// When the home dies with the only durable copies, promotion must resurrect
// every one of them from the shadow store — pre-kill writes survive even
// though no surviving kernel holds the pages.
TEST(FailoverTest, ShadowStoreResurrectsWrittenBackPages) {
  for (DsmKind kind : {DsmKind::kAsvm, DsmKind::kXmm}) {
    MachineConfig config;
    config.nodes = 4;
    config.dsm = kind;
    config.user_memory_bytes = 40 * 8192;  // 40 frames: 64 pages must evict
    // The 64 evicting writes take ~300 ms of simulated time; kill well after.
    config.fault.removals.push_back({0, 1 * kSecond});
    config.retry.timeout_ns = 2 * kMillisecond;
    config.failover.enabled = true;
    config.stall_watchdog = true;
    Machine machine(config);
    CoherenceOracle oracle;

    constexpr VmSize kPages = 64;
    MemObjectId region = machine.CreateSharedRegion(0, kPages);
    TaskMemory& writer = machine.MapRegion(1, region);

    for (VmSize p = 0; p < kPages; ++p) {
      const VmOffset addr = p * machine.page_size();
      SyncWrite(machine, writer, addr, 7000 + p);
      oracle.RecordWrite(addr, 7000 + p);
    }
    ASSERT_LT(machine.Now(), 1 * kSecond) << "setup overran the kill time";
    EXPECT_GE(machine.stats().Get(kStatShadowUpdates), 1)
        << ToString(kind) << ": no writeback ever reached the backup";

    AdvancePast(machine, 1 * kSecond);

    for (VmSize p = 0; p < kPages; ++p) {
      const VmOffset addr = p * machine.page_size();
      oracle.CheckRead(addr, SyncRead(machine, writer, addr));
    }
    EXPECT_EQ(oracle.violations(), 0) << ToString(kind);
    EXPECT_GE(machine.stats().Get(kStatPromotions), 1) << ToString(kind);
    EXPECT_GE(machine.stats().Get(kStatReconstructedPages), 1) << ToString(kind);
    EXPECT_EQ(machine.stats().Get("sim.stalls_detected"), 0)
        << ToString(kind) << "\n" << machine.last_stall_report();
  }
}

// The lease state machine: node 0 owns dirty pages when it is removed. The
// home (node 1, alive) must not reclaim while the lease runs — a transfer
// racing the removal could still surface — and must reclaim afterwards,
// serving the newest surviving contents (the un-written-back modifications
// died with the owner).
TEST(FailoverTest, LeaseExpiryReclaimsADeadOwnersPages) {
  for (DsmKind kind : {DsmKind::kAsvm, DsmKind::kXmm}) {
    MachineConfig config;
    config.nodes = 4;
    config.dsm = kind;
    config.fault.removals.push_back({0, 200 * kMillisecond});
    config.retry.timeout_ns = 2 * kMillisecond;
    config.failover.enabled = true;
    config.failover.lease_ns = 50 * kMillisecond;
    config.stall_watchdog = true;
    Machine machine(config);

    MemObjectId region = machine.CreateSharedRegion(1, 2);
    TaskMemory& doomed = machine.MapRegion(0, region);
    TaskMemory& survivor = machine.MapRegion(2, region);

    SyncWrite(machine, doomed, 0, 42);  // node 0 owns the dirty page
    ASSERT_LT(machine.Now(), 200 * kMillisecond);

    // Past removal AND past lease expiry (200 ms + 50 ms).
    AdvancePast(machine, 260 * kMillisecond);

    const uint64_t got = SyncRead(machine, survivor, 0);
    EXPECT_EQ(got, 0u) << ToString(kind)
                       << ": the dead owner's un-written-back write must be lost,"
                          " not invented";
    EXPECT_GE(machine.stats().Get(kStatLeaseReclaims), 1) << ToString(kind);
    EXPECT_EQ(machine.stats().Get("sim.stalls_detected"), 0)
        << ToString(kind) << "\n" << machine.last_stall_report();

    // The reclaimed page is a normal page again: writable and coherent.
    SyncWrite(machine, survivor, 0, 43);
    EXPECT_EQ(SyncRead(machine, survivor, 0), 43u) << ToString(kind);
  }
}

// Rolling restart: the removed manager rejoins at 400 ms with cold caches
// (DsmSystem::ColdRestart runs as a cluster mutation). The machine must serve
// through all three phases — healthy, degraded, rejoined — and the restarted
// node must immediately participate again.
TEST(FailoverTest, RollingRestartRejoinsWithColdCaches) {
  for (DsmKind kind : {DsmKind::kAsvm, DsmKind::kXmm}) {
    MachineConfig config;
    config.nodes = 4;
    config.dsm = kind;
    EXPECT_TRUE(FaultProfileFromName("rolling-restart", 1, config.nodes, &config.fault));
    config.retry.timeout_ns = 2 * kMillisecond;
    config.failover.enabled = true;
    config.stall_watchdog = true;
    Machine machine(config);
    CoherenceOracle oracle;

    constexpr VmSize kPages = 4;
    MemObjectId region = machine.CreateSharedRegion(0, kPages);
    std::vector<TaskMemory*> mems;
    for (NodeId n = 0; n < 4; ++n) {
      mems.push_back(&machine.MapRegion(n, region));
    }

    // Healthy phase, writers on the nodes that will survive. Sliced: the
    // restore wake at 400 ms is already queued, so a full drain would skip
    // straight past the rejoin.
    for (VmSize p = 0; p < kPages; ++p) {
      const VmOffset addr = p * machine.page_size();
      SlicedWrite(machine, *mems[1 + p % 3], addr, 100 + p);
      oracle.RecordWrite(addr, 100 + p);
    }
    ASSERT_LT(machine.Now(), 200 * kMillisecond);

    // Degraded phase: node 0 removed; survivors keep reading and writing.
    AdvanceTo(machine, 200 * kMillisecond);
    for (VmSize p = 0; p < kPages; ++p) {
      const VmOffset addr = p * machine.page_size();
      oracle.CheckRead(addr, SlicedRead(machine, *mems[1 + (p + 1) % 3], addr));
      SlicedWrite(machine, *mems[1 + (p + 2) % 3], addr, 200 + p);
      oracle.RecordWrite(addr, 200 + p);
    }

    // Rejoined phase: past 400 ms the cold restart has run as a mutation; the
    // restarted node reads the survivors' values and takes writes again.
    AdvanceTo(machine, 400 * kMillisecond + kMillisecond);
    EXPECT_GE(machine.stats().Get(kStatRestarts), 1) << ToString(kind);
    for (VmSize p = 0; p < kPages; ++p) {
      const VmOffset addr = p * machine.page_size();
      oracle.CheckRead(addr, SlicedRead(machine, *mems[0], addr));
      SlicedWrite(machine, *mems[0], addr, 300 + p);
      oracle.RecordWrite(addr, 300 + p);
      oracle.CheckRead(addr, SlicedRead(machine, *mems[2], addr));
    }
    EXPECT_EQ(oracle.violations(), 0) << ToString(kind);
    EXPECT_EQ(machine.stats().Get("sim.stalls_detected"), 0)
        << ToString(kind) << "\n" << machine.last_stall_report();
  }
}

// Healthy-run guard: with failover on but a fault plan that never removes a
// node, the machine stays on the healthy protocol path — no promotions, no
// lease reclaims, no restarts — and the timeline is bit-stable across re-runs
// (shadow mirroring is deterministic traffic, not a noise source). Goldens
// with failover *disabled* are covered by the determinism suite.
TEST(FailoverTest, HealthyRunWithFailoverOnIsQuietAndBitStable) {
  for (DsmKind kind : {DsmKind::kAsvm, DsmKind::kXmm}) {
    auto digest = [kind]() {
      MachineConfig config;
      config.nodes = 4;
      config.dsm = kind;
      // 10 ms initial timeout: the retry horizon (10+20+40+80 ms) comfortably
      // exceeds XMM's worst healthy serve (~33 ms: flush round + NMK13 dirty
      // cleaning + pager supply), so a quiet run really is silent. A 2 ms
      // horizon would spuriously exhaust and exercise the (benign, idempotent)
      // reissue path on every manager-side flush.
      config.retry.timeout_ns = 10 * kMillisecond;
      config.failover.enabled = true;
      Machine machine(config);
      MemObjectId region = machine.CreateSharedRegion(0, 4);
      std::vector<TaskMemory*> mems;
      for (NodeId n = 0; n < 4; ++n) {
        mems.push_back(&machine.MapRegion(n, region));
      }
      uint64_t h = 14695981039346656037ULL;
      for (int i = 0; i < 24; ++i) {
        const VmOffset addr = static_cast<VmOffset>(i % 4) * machine.page_size();
        SyncWrite(machine, *mems[i % 4], addr, static_cast<uint64_t>(i));
        h = Fnv1a(h, SyncRead(machine, *mems[(i + 1) % 4], addr));
        h = Fnv1a(h, static_cast<uint64_t>(machine.Now()));
      }
      h = Fnv1a(h, static_cast<uint64_t>(machine.stats().Get("mesh.messages")));
      h = Fnv1a(h, static_cast<uint64_t>(machine.stats().Get("mesh.bytes")));
      EXPECT_EQ(machine.stats().Get(kStatPromotions), 0) << ToString(kind);
      EXPECT_EQ(machine.stats().Get(kStatLeaseReclaims), 0) << ToString(kind);
      EXPECT_EQ(machine.stats().Get(kStatRestarts), 0) << ToString(kind);
      EXPECT_EQ(machine.stats().Get("dsm.op_node_down"), 0) << ToString(kind);
      EXPECT_EQ(machine.stats().Get("dsm.op_timeouts"), 0) << ToString(kind);
      EXPECT_EQ(machine.stats().Get(kStatReissues), 0) << ToString(kind);
      return h;
    };
    EXPECT_EQ(digest(), digest())
        << ToString(kind) << ": healthy failover-on timeline not bit-stable";
  }
}

// A node removed for good never re-issues its own requests. Every reply to
// it is black-holed, but its targets are alive, so each pending op resolves
// kTimeout rather than kNodeDown; re-issuing from the `on_fail` hook would
// time out and re-issue again forever, and the run would never drain. Node 3
// has 64 write requests in flight when kill-owner removes it at 200 ms. They
// go straight through its pager interface, as its kernel's faults would
// issue them, so no faulting task is left waiting on the dead node.
TEST(FailoverTest, NodeRemovedForGoodDoesNotReissueItsRequests) {
  for (DsmKind kind : {DsmKind::kAsvm, DsmKind::kXmm, DsmKind::kIvy}) {
    MachineConfig config;
    config.nodes = 4;
    config.dsm = kind;
    EXPECT_TRUE(FaultProfileFromName("kill-owner", 1, config.nodes, &config.fault));
    config.retry.timeout_ns = 2 * kMillisecond;
    config.failover.enabled = true;
    Machine machine(config);

    constexpr PageIndex kPages = 64;
    MemObjectId region = machine.CreateSharedRegion(0, kPages);
    std::shared_ptr<VmObject> doomed = machine.dsm().Attach(3, region);
    AdvanceTo(machine, 198 * kMillisecond);
    for (PageIndex p = 0; p < kPages; ++p) {
      doomed->pager()->DataRequest(*doomed, p, PageAccess::kWrite);
    }
    EXPECT_TRUE(machine.RunFor(10 * kSecond)) << ToString(kind) << ": the run never drained";
    EXPECT_EQ(machine.stats().Get(kStatReissues), 0) << ToString(kind);
  }
}

}  // namespace
}  // namespace asvm
