// Failover recovery latency under the node-removal fault profiles
// (DESIGN.md §14): what a page access costs while the machine detects a dead
// manager, promotes the ring-successor backup, and — under rolling-restart —
// serves the rejoined node's cold caches. The paper has no reference numbers
// here (its managers never die); the baseline JSON pins our own timeline.
#include "bench/bench_util.h"

#include "src/dsm/failover.h"
#include "src/mesh/fault_plan.h"

namespace asvm {
namespace {

// Like asvmsim's fault sweep: resolve one access in bounded slices, then let
// background traffic (invalidations, shadow updates) settle without draining
// past the fault plan's parked removal/restore wakes.
template <typename T>
double SlicedAccessMs(Machine& machine, Future<T> f) {
  const SimDuration d = AwaitLatency(machine, f);
  machine.RunFor(5 * kMillisecond);
  return ToMilliseconds(d);
}

void AdvanceJustPast(Machine& machine, SimTime when) {
  if (machine.Now() > when) {
    return;
  }
  // RunFor only advances the clock while the queue holds events; park a wake
  // just past the target so an empty queue cannot spin forever.
  machine.engine().Schedule(when + kMillisecond - machine.Now(), []() {});
  while (machine.Now() <= when) {
    machine.RunFor(kMillisecond);
  }
}

struct FailoverLatencies {
  double healthy_read_ms = 0;
  double detect_promote_read_ms = 0;
  double degraded_read_ms = 0;
  double postkill_write_ms = 0;
  double rejoin_read_ms = 0;
  uint64_t promotions = 0;
  uint64_t restarts = 0;
  // IVY recovery evidence: there is no manager to promote, so the post-kill
  // first touch ends in an ownership reclaim instead of a backup promotion.
  uint64_t reclaims = 0;
};

// An 8-node machine with the region homed on the node the profile kills.
// Node 1 creates, node 2 reads, node 3 writes; pages 5-7 stay untouched so
// the post-kill first-touch must forward to the dead terminal and pay the
// full silence-detection + promotion path. Under IVY the home node is every
// untouched page's initial probable owner, so the same first touch pays
// detection + ownership reclaim instead of a backup promotion.
FailoverLatencies MeasureFailover(DsmKind kind, const char* profile) {
  MachineConfig config = BenchConfig(kind, 8);
  if (!FaultProfileFromName(profile, 1, config.nodes, &config.fault)) {
    std::printf("unknown fault profile '%s'\n", profile);
    return {};
  }
  // 10 ms keeps the full 15x retry horizon above XMM's worst healthy serve
  // (~33 ms with a flush + dirty cleaning), so the healthy-phase numbers are
  // free of spurious timeout reissues and only real silence pays the horizon.
  config.retry.timeout_ns = 10 * kMillisecond;
  config.failover.enabled = true;
  Machine machine(config);

  MemObjectId region = machine.CreateSharedRegion(kHomeNode, 8);
  TaskMemory& creator = machine.MapRegion(kCreatorNode, region);
  TaskMemory& reader = machine.MapRegion(kFaultNode, region);
  TaskMemory& writer = machine.MapRegion(kFirstReaderNode, region);

  FailoverLatencies out;
  SlicedAccessMs(machine, creator.WriteU64(0, 1));
  SlicedAccessMs(machine, writer.WriteU64(machine.page_size(), 2));
  out.healthy_read_ms = SlicedAccessMs(machine, reader.ReadU64(0));

  SimTime last_removal = 0;
  SimTime last_restore = 0;
  for (const auto& removal : machine.fault_plan().params().removals) {
    last_removal = std::max(last_removal, removal.at);
    last_restore = std::max(last_restore, removal.restore_at);
  }
  AdvanceJustPast(machine, last_removal);

  out.detect_promote_read_ms =
      SlicedAccessMs(machine, reader.ReadU64(5 * machine.page_size()));
  out.degraded_read_ms =
      SlicedAccessMs(machine, reader.ReadU64(machine.page_size()));
  out.postkill_write_ms =
      SlicedAccessMs(machine, writer.WriteU64(6 * machine.page_size(), 3));

  if (last_restore > 0) {
    AdvanceJustPast(machine, last_restore);
    TaskMemory& rejoined = machine.MapRegion(kHomeNode, region);
    out.rejoin_read_ms = SlicedAccessMs(machine, rejoined.ReadU64(0));
  }

  out.promotions = machine.stats().Get(kStatPromotions);
  out.restarts = machine.stats().Get(kStatRestarts);
  out.reclaims = machine.stats().Get(kStatIvyOwnerReclaims);
  return out;
}

void PrintPhase(const char* label, double asvm_ms, double xmm_ms, double ivy_ms) {
  std::printf("%-58s %9.2f %9.2f %9.2f\n", label, asvm_ms, xmm_ms, ivy_ms);
}

// The gossip A/B: two survivors each hold a pending op against the dead node.
// The detector issues right after the kill and pays the full silence-detection
// horizon (10+20+40+80 = 150 ms at a 10 ms base timeout). The bystander issues
// 100 ms later — deep inside the detector's backoff. With death notices ON the
// detector's kNodeDown classification is gossiped at the next barrier, the
// bystander's pending op is cancelled mid-backoff, and it recovers
// immediately; with notices OFF the bystander serves out its own full retry
// horizon first.
//
// The op that wedges differs per DSM. XMM requesters forward every fault to
// the centralized manager, so killing the manager wedges any first touch.
// ASVM routing consults the removal oracle and never *sends* to a confirmed
// dead node — the ops that still burn a horizon are the ones already aimed at
// the victim, like a write upgrade invalidating a dead reader's copy. So the
// ASVM victim is a reader (kill-owner's node 3) holding copies of two pages
// owned by the detector and the bystander, and both survivors upgrade their
// own pages after the kill. The IVY victim instead *owns* two pages and sits
// at the end of both survivors' probable-owner hint chains, so their write
// upgrades chase a chain into a corpse until silence detection (or a gossiped
// death notice) triggers the ownership reclaim.
struct DeathNoticeLatency {
  double bystander_ms = 0;
  uint64_t notices = 0;
};

DeathNoticeLatency MeasureDeathNotice(DsmKind kind, bool notices_on) {
  MachineConfig config = BenchConfig(kind, 8);
  // XMM wedges on its centralized manager. ASVM and IVY routing never sends
  // to a confirmed-dead node, so their victim must hold protocol state the
  // survivors have to touch: a read copy to invalidate (ASVM) or page
  // ownership at the end of the survivors' hint chains (IVY). kill-owner's
  // victim is node 3 == kFirstReaderNode.
  const bool xmm = kind == DsmKind::kXmm;
  const char* profile = xmm ? "kill-manager" : "kill-owner";
  if (!FaultProfileFromName(profile, 1, config.nodes, &config.fault)) {
    std::printf("unknown fault profile '%s'\n", profile);
    return {};
  }
  config.retry.timeout_ns = 10 * kMillisecond;
  config.failover.enabled = true;
  config.failover.death_notices = notices_on;
  Machine machine(config);

  SimTime kill_at = 0;
  NodeId victim = kHomeNode;
  for (const auto& removal : machine.fault_plan().params().removals) {
    if (removal.at >= kill_at) {
      kill_at = removal.at;
      victim = static_cast<NodeId>(removal.node);
    }
  }

  MemObjectId region = machine.CreateSharedRegion(kHomeNode, 8);
  TaskMemory& creator = machine.MapRegion(kCreatorNode, region);
  // kill-owner's victim is node 3 == kFirstReaderNode; the ASVM/IVY survivors
  // must dodge it.
  TaskMemory& detector = machine.MapRegion(kFaultNode, region);
  TaskMemory& bystander =
      machine.MapRegion(xmm ? kFirstReaderNode : kFirstReaderNode + 1, region);

  SlicedAccessMs(machine, creator.WriteU64(0, 1));
  if (kind == DsmKind::kAsvm) {
    // Seed the wedge: detector and bystander each own a page whose read copy
    // sits on the doomed reader, so their post-kill upgrades must invalidate
    // a dead node.
    TaskMemory& doomed = machine.MapRegion(victim, region);
    SlicedAccessMs(machine, detector.WriteU64(5 * machine.page_size(), 2));
    SlicedAccessMs(machine, doomed.ReadU64(5 * machine.page_size()));
    SlicedAccessMs(machine, bystander.WriteU64(6 * machine.page_size(), 3));
    SlicedAccessMs(machine, doomed.ReadU64(6 * machine.page_size()));
  } else if (kind == DsmKind::kIvy) {
    // Seed the wedge: the doomed node's write faults migrate ownership of
    // pages 5 and 6 to it, and the survivors' read faults leave their
    // probable-owner hints aimed straight at it — so each post-kill write
    // upgrade chases a hint chain that terminates in a corpse.
    TaskMemory& doomed = machine.MapRegion(victim, region);
    SlicedAccessMs(machine, doomed.WriteU64(5 * machine.page_size(), 2));
    SlicedAccessMs(machine, doomed.WriteU64(6 * machine.page_size(), 3));
    SlicedAccessMs(machine, detector.ReadU64(5 * machine.page_size()));
    SlicedAccessMs(machine, bystander.ReadU64(6 * machine.page_size()));
  } else {
    SlicedAccessMs(machine, detector.ReadU64(0));
    SlicedAccessMs(machine, bystander.ReadU64(machine.page_size()));
  }
  AdvanceJustPast(machine, kill_at);

  // Detector's op targets the dead node and starts the clock on silence
  // detection; 100 ms into its backoff, the bystander wedges its own op
  // against the same dead node.
  DeathNoticeLatency out;
  auto measure = [&](auto detect, auto probe_issue) {
    AdvanceJustPast(machine, kill_at + 100 * kMillisecond);
    const SimTime bystander_start = machine.Now();
    auto probe = probe_issue();
    for (int i = 0; i < 4000 && !probe.ready(); ++i) {
      machine.RunFor(kMillisecond);
    }
    out.bystander_ms = probe.ready()
                           ? ToMilliseconds(machine.Now() - bystander_start)
                           : -1.0;
    for (int i = 0; i < 4000 && !detect.ready(); ++i) {
      machine.RunFor(kMillisecond);
    }
  };
  if (xmm) {
    measure(detector.ReadU64(5 * machine.page_size()),
            [&] { return bystander.ReadU64(6 * machine.page_size()); });
  } else {
    measure(detector.WriteU64(5 * machine.page_size(), 4),
            [&] { return bystander.WriteU64(6 * machine.page_size(), 5); });
  }
  out.notices = machine.stats().Get(kStatDeathNotices);
  return out;
}

void RunFailoverBench(BenchJson& json) {
  PrintHeader("Failover: manager death and online recovery (ms)");

  const FailoverLatencies kill_asvm = MeasureFailover(DsmKind::kAsvm, "kill-manager");
  const FailoverLatencies kill_xmm = MeasureFailover(DsmKind::kXmm, "kill-manager");
  const FailoverLatencies kill_ivy = MeasureFailover(DsmKind::kIvy, "kill-manager");
  const FailoverLatencies roll_asvm =
      MeasureFailover(DsmKind::kAsvm, "rolling-restart");
  const FailoverLatencies roll_xmm = MeasureFailover(DsmKind::kXmm, "rolling-restart");
  const FailoverLatencies roll_ivy = MeasureFailover(DsmKind::kIvy, "rolling-restart");

  std::printf("%-58s %9s %9s %9s\n", "", "ASVM", "XMM", "IVY");
  PrintPhase("healthy remote read", kill_asvm.healthy_read_ms, kill_xmm.healthy_read_ms,
             kill_ivy.healthy_read_ms);
  PrintPhase("post-kill first touch (detect + promote/reclaim)",
             kill_asvm.detect_promote_read_ms, kill_xmm.detect_promote_read_ms,
             kill_ivy.detect_promote_read_ms);
  PrintPhase("post-kill read, surviving owner", kill_asvm.degraded_read_ms,
             kill_xmm.degraded_read_ms, kill_ivy.degraded_read_ms);
  PrintPhase("post-kill write via promoted manager / reclaimed owner",
             kill_asvm.postkill_write_ms, kill_xmm.postkill_write_ms,
             kill_ivy.postkill_write_ms);
  PrintPhase("rejoined cold read after rolling restart", roll_asvm.rejoin_read_ms,
             roll_xmm.rejoin_read_ms, roll_ivy.rejoin_read_ms);
  std::printf("promotions: asvm=%llu xmm=%llu; ivy owner reclaims=%llu; restarts "
              "after rolling restart: asvm=%llu xmm=%llu ivy=%llu\n",
              (unsigned long long)kill_asvm.promotions,
              (unsigned long long)kill_xmm.promotions,
              (unsigned long long)kill_ivy.reclaims,
              (unsigned long long)roll_asvm.restarts,
              (unsigned long long)roll_xmm.restarts,
              (unsigned long long)roll_ivy.restarts);

  json.Metric("healthy_read_ms.asvm", kill_asvm.healthy_read_ms);
  json.Metric("healthy_read_ms.xmm", kill_xmm.healthy_read_ms);
  json.Metric("healthy_read_ms.ivy", kill_ivy.healthy_read_ms);
  json.Metric("detect_promote_read_ms.asvm", kill_asvm.detect_promote_read_ms);
  json.Metric("detect_promote_read_ms.xmm", kill_xmm.detect_promote_read_ms);
  json.Metric("detect_promote_read_ms.ivy", kill_ivy.detect_promote_read_ms);
  json.Metric("degraded_read_ms.asvm", kill_asvm.degraded_read_ms);
  json.Metric("degraded_read_ms.xmm", kill_xmm.degraded_read_ms);
  json.Metric("degraded_read_ms.ivy", kill_ivy.degraded_read_ms);
  json.Metric("postkill_write_ms.asvm", kill_asvm.postkill_write_ms);
  json.Metric("postkill_write_ms.xmm", kill_xmm.postkill_write_ms);
  json.Metric("postkill_write_ms.ivy", kill_ivy.postkill_write_ms);
  json.Metric("rejoin_read_ms.asvm", roll_asvm.rejoin_read_ms);
  json.Metric("rejoin_read_ms.xmm", roll_xmm.rejoin_read_ms);
  json.Metric("rejoin_read_ms.ivy", roll_ivy.rejoin_read_ms);
  json.Metric("promotions.asvm", (double)kill_asvm.promotions);
  json.Metric("promotions.xmm", (double)kill_xmm.promotions);
  json.Metric("reclaims.ivy", (double)kill_ivy.reclaims);
  json.Metric("restarts.asvm", (double)roll_asvm.restarts);
  json.Metric("restarts.xmm", (double)roll_xmm.restarts);
  json.Metric("restarts.ivy", (double)roll_ivy.restarts);

  PrintHeader("Gossip death notices: bystander recovery mid-backoff (ms)");
  const DeathNoticeLatency dn_on_asvm = MeasureDeathNotice(DsmKind::kAsvm, true);
  const DeathNoticeLatency dn_off_asvm = MeasureDeathNotice(DsmKind::kAsvm, false);
  const DeathNoticeLatency dn_on_xmm = MeasureDeathNotice(DsmKind::kXmm, true);
  const DeathNoticeLatency dn_off_xmm = MeasureDeathNotice(DsmKind::kXmm, false);
  const DeathNoticeLatency dn_on_ivy = MeasureDeathNotice(DsmKind::kIvy, true);
  const DeathNoticeLatency dn_off_ivy = MeasureDeathNotice(DsmKind::kIvy, false);

  std::printf("%-58s %9s %9s %9s\n", "", "ASVM", "XMM", "IVY");
  PrintPhase("bystander access, death notices on", dn_on_asvm.bystander_ms,
             dn_on_xmm.bystander_ms, dn_on_ivy.bystander_ms);
  PrintPhase("bystander access, death notices off (own full horizon)",
             dn_off_asvm.bystander_ms, dn_off_xmm.bystander_ms, dn_off_ivy.bystander_ms);
  const double speedup_asvm =
      dn_on_asvm.bystander_ms > 0 ? dn_off_asvm.bystander_ms / dn_on_asvm.bystander_ms
                                  : 0;
  const double speedup_xmm =
      dn_on_xmm.bystander_ms > 0 ? dn_off_xmm.bystander_ms / dn_on_xmm.bystander_ms
                                 : 0;
  const double speedup_ivy =
      dn_on_ivy.bystander_ms > 0 ? dn_off_ivy.bystander_ms / dn_on_ivy.bystander_ms
                                 : 0;
  std::printf("speedup: asvm=%.2fx xmm=%.2fx ivy=%.2fx; notices: asvm on/off=%llu/%llu "
              "xmm on/off=%llu/%llu ivy on/off=%llu/%llu\n",
              speedup_asvm, speedup_xmm, speedup_ivy,
              (unsigned long long)dn_on_asvm.notices,
              (unsigned long long)dn_off_asvm.notices,
              (unsigned long long)dn_on_xmm.notices,
              (unsigned long long)dn_off_xmm.notices,
              (unsigned long long)dn_on_ivy.notices,
              (unsigned long long)dn_off_ivy.notices);

  json.Metric("death_notice_read_ms.on.asvm", dn_on_asvm.bystander_ms);
  json.Metric("death_notice_read_ms.off.asvm", dn_off_asvm.bystander_ms);
  json.Metric("death_notice_read_ms.on.xmm", dn_on_xmm.bystander_ms);
  json.Metric("death_notice_read_ms.off.xmm", dn_off_xmm.bystander_ms);
  json.Metric("death_notice_read_ms.on.ivy", dn_on_ivy.bystander_ms);
  json.Metric("death_notice_read_ms.off.ivy", dn_off_ivy.bystander_ms);
  json.Metric("death_notice_speedup.asvm", speedup_asvm);
  json.Metric("death_notice_speedup.xmm", speedup_xmm);
  json.Metric("death_notice_speedup.ivy", speedup_ivy);
  json.Metric("death_notices.on.asvm", (double)dn_on_asvm.notices);
  json.Metric("death_notices.off.asvm", (double)dn_off_asvm.notices);
  json.Metric("death_notices.on.xmm", (double)dn_on_xmm.notices);
  json.Metric("death_notices.off.xmm", (double)dn_off_xmm.notices);
  json.Metric("death_notices.on.ivy", (double)dn_on_ivy.notices);
  json.Metric("death_notices.off.ivy", (double)dn_off_ivy.notices);
}

}  // namespace
}  // namespace asvm

int main(int argc, char** argv) {
  asvm::BenchJson json(argc, argv);
  asvm::RunFailoverBench(json);
  return json.Write("failover") ? 0 : 1;
}
