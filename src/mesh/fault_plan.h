// Seeded, schedule-driven fault model for the mesh fabric and the transport
// software layer. A FaultPlan is fully deterministic given its seed: the same
// plan over the same workload replays the same degraded timeline bit for bit,
// which is what lets fault scenarios carry golden digests just like the
// healthy runs.
//
// Four fault classes:
//  - per-message delivery jitter, uniform in [0, max_jitter_ns];
//  - link degradation: a bandwidth factor applied to chosen links (or to all
//    links touching one node);
//  - node slowdown: a multiplier on a node's software send/recv costs;
//  - node removal: from a chosen simulated time on, the node's fabric
//    interface is severed — every message to or from it is dropped. Local
//    (intra-node) delivery never touches the fabric and keeps working.
//
// Delay-only plans (jitter / degradation / slowdown) never lose messages, so
// a correct protocol still terminates with Status::kOk — retries may fire and
// produce duplicates, which the hardened ProtocolAgent suppresses. Message
// loss happens only under removal, where pending ops resolve kTimeout after
// bounded retries or, with retries disabled, the stall watchdog reports the
// orphaned work.
#ifndef SRC_MESH_FAULT_PLAN_H_
#define SRC_MESH_FAULT_PLAN_H_

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/sim/engine.h"

namespace asvm {

struct LinkDegradation {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;        // kInvalidNode: every link touching `a`
  double bandwidth_factor = 1.0;  // multiplies the link's effective bandwidth
};

struct NodeSlowdown {
  NodeId node = kInvalidNode;
  double cost_factor = 1.0;  // multiplies software send/recv costs
};

struct NodeRemoval {
  NodeId node = kInvalidNode;
  SimTime at = 0;  // the node's fabric interface dies at this simulated time
  // 0: the removal is permanent. Otherwise the node rejoins (with cold
  // caches — see DsmSystem::ColdRestart) at this time; rolling-restart
  // regimes schedule one removal window per restarted node.
  SimTime restore_at = 0;
};

struct FaultPlanParams {
  uint64_t seed = 1;
  SimDuration max_jitter_ns = 0;  // 0 disables jitter
  std::vector<LinkDegradation> degraded_links;
  std::vector<NodeSlowdown> slow_nodes;
  std::vector<NodeRemoval> removals;

  bool Empty() const {
    return max_jitter_ns <= 0 && degraded_links.empty() && slow_nodes.empty() &&
           removals.empty();
  }
};

// Builds a canned profile: "none" (empty plan), "jitter", "slow-node",
// "degraded-links", "kill-manager" (permanently removes node 0 — the
// fault-sweep region's home/manager — mid-run), "rolling-restart" (same
// removal, but the node rejoins with cold caches later), "kill-owner"
// (removes node 3 — the fault-sweep writer, a page owner that is not the
// manager), "kill-many" (removes the manager and a bystander reader in the
// same instant), and "cascade" (removes the manager, then the freshly
// promoted backup 60 ms later, so the ring rule must re-run). Returns false
// for unknown names.
bool FaultProfileFromName(const std::string& name, uint64_t seed, int node_count,
                          FaultPlanParams* out);

class FaultPlan {
 public:
  FaultPlan(Engine& engine, FaultPlanParams params, int node_count, StatsRegistry& stats);

  const FaultPlanParams& params() const { return params_; }

  // --- Queried by the Network per message -----------------------------------
  // False: the message is black-holed (src or dst removed by now). Counted.
  // The explicit-time overload serves the barrier replay, which evaluates
  // records at their recorded send time rather than at the plan engine's Now.
  bool Delivers(NodeId src, NodeId dst);
  bool Delivers(NodeId src, NodeId dst, SimTime now);
  // Next jitter draw in [0, max_jitter_ns]; 0 when jitter is disabled.
  SimDuration NextJitter();
  // Product of matching degradation factors for this link (1.0 = healthy).
  double LinkBandwidthFactor(NodeId src, NodeId dst);

  // --- Queried by Transport per message -------------------------------------
  // Product of matching slowdown factors for this node's software costs.
  double NodeCostFactor(NodeId node) const;
  bool NodeAlive(NodeId node) const;
  bool NodeAlive(NodeId node, SimTime now) const;
  // Removal time of the window covering `now`, or -1 if the node is alive at
  // `now`. Lease arithmetic measures reclaim eligibility from this instant.
  SimTime RemovedSince(NodeId node, SimTime now) const;
  // True when a removal with no restore_at covers `now`: the node never
  // rejoins, so nothing it sends will ever be answered.
  bool RemovedForGood(NodeId node, SimTime now) const;
  // True when any removal schedules a rejoin (drives ColdRestart wiring).
  bool HasRestores() const;

  // Human-readable plan summary for --fault-report.
  std::string Describe() const;

 private:
  Engine& engine_;
  FaultPlanParams params_;
  int node_count_;
  StatsRegistry& stats_;
  CounterHandle messages_dropped_;
  CounterHandle jitter_messages_;
  CounterHandle jitter_ns_;
  CounterHandle degraded_messages_;
  Rng rng_;
};

}  // namespace asvm

#endif  // SRC_MESH_FAULT_PLAN_H_
