#include "src/mesh/fault_plan.h"

#include "src/common/log.h"

namespace asvm {

bool FaultProfileFromName(const std::string& name, uint64_t seed, int node_count,
                          FaultPlanParams* out) {
  FaultPlanParams params;
  params.seed = seed;
  if (name == "none") {
    *out = params;
    return true;
  }
  if (name == "jitter") {
    // Bounded per-message delivery jitter, large against software costs
    // (tens of µs) so message orderings actually shift.
    params.max_jitter_ns = 150 * kMicrosecond;
    *out = params;
    return true;
  }
  if (name == "slow-node") {
    // One node's protocol stack runs 8x slower — the "slow participant" the
    // paper's distributed manager must tolerate without collapsing.
    params.slow_nodes.push_back({static_cast<NodeId>(node_count / 2), 8.0});
    *out = params;
    return true;
  }
  if (name == "kill-manager" || name == "rolling-restart") {
    // Remove node 0 — where the fault-sweep workload homes its region, so the
    // removal takes out the ASVM terminal / XMM centralized manager — after
    // the healthy measurement phase. rolling-restart brings the node back
    // with cold caches for the post-restore phase.
    NodeRemoval removal;
    removal.node = 0;
    removal.at = 200 * kMillisecond;
    if (name == "rolling-restart") {
      removal.restore_at = 400 * kMillisecond;
    }
    params.removals.push_back(removal);
    *out = params;
    return true;
  }
  if (name == "kill-owner") {
    // Remove the fault-sweep writer (node 3): a page owner that is neither
    // the home nor the manager. Survivors must reclaim its pages through the
    // lease state machine and reconstruct from surviving read copies — no
    // promotion at all.
    params.removals.push_back({static_cast<NodeId>(node_count > 3 ? 3 : node_count - 1),
                               200 * kMillisecond, 0});
    *out = params;
    return true;
  }
  if (name == "kill-many") {
    // Two nodes die in the same instant: the manager (node 0) and a bystander
    // reader (node 2). One promotion, plus every agent's pending ops against
    // either victim must fail over.
    params.removals.push_back({0, 200 * kMillisecond, 0});
    if (node_count > 2) {
      params.removals.push_back({2, 200 * kMillisecond, 0});
    }
    *out = params;
    return true;
  }
  if (name == "cascade") {
    // Cascade failover: the manager dies, its ring successor (node 1) is
    // promoted, and then that freshly promoted backup dies too — the ring
    // rule must re-run and the second promotion must not trust any state the
    // ex-backup streamed while it was primary.
    params.removals.push_back({0, 200 * kMillisecond, 0});
    if (node_count > 1) {
      params.removals.push_back({1, 260 * kMillisecond, 0});
    }
    *out = params;
    return true;
  }
  if (name == "degraded-links") {
    // Every link touching node 0 runs at quarter bandwidth, plus one
    // seed-chosen additional link at half bandwidth.
    params.degraded_links.push_back({0, kInvalidNode, 0.25});
    if (node_count > 2) {
      Rng rng(seed);
      const NodeId a = static_cast<NodeId>(1 + rng.NextBelow(node_count - 1));
      NodeId b = static_cast<NodeId>(1 + rng.NextBelow(node_count - 1));
      if (b == a) {
        b = (a + 1 < node_count) ? a + 1 : 1;
      }
      params.degraded_links.push_back({a, b, 0.5});
    }
    *out = params;
    return true;
  }
  return false;
}

FaultPlan::FaultPlan(Engine& engine, FaultPlanParams params, int node_count, StatsRegistry& stats)
    : engine_(engine),
      params_(std::move(params)),
      node_count_(node_count),
      stats_(stats),
      rng_(params_.seed) {
  for (const LinkDegradation& d : params_.degraded_links) {
    ASVM_CHECK_MSG(d.bandwidth_factor > 0.0, "link bandwidth factor must be positive");
  }
  for (const NodeSlowdown& s : params_.slow_nodes) {
    ASVM_CHECK_MSG(s.cost_factor > 0.0, "node cost factor must be positive");
  }
}

bool FaultPlan::NodeAlive(NodeId node) const { return NodeAlive(node, engine_.Now()); }

bool FaultPlan::NodeAlive(NodeId node, SimTime now) const {
  return RemovedSince(node, now) < 0;
}

SimTime FaultPlan::RemovedSince(NodeId node, SimTime now) const {
  for (const NodeRemoval& r : params_.removals) {
    if (r.node == node && now >= r.at && (r.restore_at == 0 || now < r.restore_at)) {
      return r.at;
    }
  }
  return -1;
}

bool FaultPlan::RemovedForGood(NodeId node, SimTime now) const {
  for (const NodeRemoval& r : params_.removals) {
    if (r.node == node && r.restore_at == 0 && now >= r.at) {
      return true;
    }
  }
  return false;
}

bool FaultPlan::HasRestores() const {
  for (const NodeRemoval& r : params_.removals) {
    if (r.restore_at != 0) {
      return true;
    }
  }
  return false;
}

bool FaultPlan::Delivers(NodeId src, NodeId dst) {
  return Delivers(src, dst, engine_.Now());
}

bool FaultPlan::Delivers(NodeId src, NodeId dst, SimTime now) {
  const bool src_alive = NodeAlive(src, now);
  const bool dst_alive = NodeAlive(dst, now);
  if (src_alive && dst_alive) {
    return true;
  }
  // Aggregate plus per-removed-endpoint attribution, so a multi-removal
  // plan shows which black hole ate the traffic.
  messages_dropped_.Add(stats_, "fault.messages_dropped");
  if (!src_alive) {
    stats_.Add("fault.messages_dropped.node" + std::to_string(src));
  }
  if (!dst_alive && dst != src) {
    stats_.Add("fault.messages_dropped.node" + std::to_string(dst));
  }
  return false;
}

SimDuration FaultPlan::NextJitter() {
  if (params_.max_jitter_ns <= 0) {
    return 0;
  }
  const SimDuration jitter =
      static_cast<SimDuration>(rng_.NextBelow(static_cast<uint64_t>(params_.max_jitter_ns) + 1));
  jitter_messages_.Add(stats_, "fault.jitter_messages");
  jitter_ns_.Add(stats_, "fault.jitter_ns", jitter);
  return jitter;
}

double FaultPlan::LinkBandwidthFactor(NodeId src, NodeId dst) {
  double factor = 1.0;
  for (const LinkDegradation& d : params_.degraded_links) {
    const bool touches_wildcard = d.b == kInvalidNode && (src == d.a || dst == d.a);
    const bool matches_pair =
        d.b != kInvalidNode && ((src == d.a && dst == d.b) || (src == d.b && dst == d.a));
    if (touches_wildcard || matches_pair) {
      factor *= d.bandwidth_factor;
    }
  }
  if (factor != 1.0) {
    degraded_messages_.Add(stats_, "fault.degraded_messages");
  }
  return factor;
}

double FaultPlan::NodeCostFactor(NodeId node) const {
  double factor = 1.0;
  for (const NodeSlowdown& s : params_.slow_nodes) {
    if (s.node == node) {
      factor *= s.cost_factor;
    }
  }
  return factor;
}

std::string FaultPlan::Describe() const {
  std::string out = "  fault plan (seed " + std::to_string(params_.seed) + "):\n";
  if (params_.max_jitter_ns > 0) {
    out += "    delivery jitter: uniform [0, " + std::to_string(params_.max_jitter_ns) +
           " ns] per message\n";
  }
  for (const LinkDegradation& d : params_.degraded_links) {
    if (d.b == kInvalidNode) {
      out += "    links of node " + std::to_string(d.a) + ": bandwidth x" +
             std::to_string(d.bandwidth_factor) + "\n";
    } else {
      out += "    link " + std::to_string(d.a) + "<->" + std::to_string(d.b) + ": bandwidth x" +
             std::to_string(d.bandwidth_factor) + "\n";
    }
  }
  for (const NodeSlowdown& s : params_.slow_nodes) {
    out += "    node " + std::to_string(s.node) + ": software costs x" +
           std::to_string(s.cost_factor) + "\n";
  }
  for (const NodeRemoval& r : params_.removals) {
    out += "    node " + std::to_string(r.node) + ": removed at t=" + std::to_string(r.at) +
           " ns";
    if (r.restore_at != 0) {
      out += ", restored at t=" + std::to_string(r.restore_at) + " ns";
    }
    out += "\n";
  }
  if (params_.Empty()) {
    out += "    (empty)\n";
  }
  return out;
}

}  // namespace asvm
