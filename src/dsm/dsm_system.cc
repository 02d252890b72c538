#include "src/dsm/dsm_system.h"

#include <utility>

#include "src/common/log.h"
#include "src/dsm/failover.h"
#include "src/dsm/protocol_agent.h"

namespace asvm {

DsmSystem::~DsmSystem() {
  if (stall_cluster_ != nullptr) {
    stall_cluster_->RemoveStallProbe(stall_probe_id_);
  }
}

void DsmSystem::AddAgentStallProbe() {
  // The cluster runs its probes once, at the final global drain, when every
  // shard is quiescent and pending-op state is safe to read.
  stall_cluster_ = &cluster();
  stall_probe_id_ = stall_cluster_->AddStallProbe([this](std::string& report) {
    bool blocked = false;
    for (NodeId n = 0; n < cluster().node_count(); ++n) {
      blocked |= protocol_agent(n).DescribeStall(report);
    }
    return blocked;
  });
}

void DsmSystem::ReportDeath(NodeId reporter, NodeId dead) {
  const FailoverConfig& fo = cluster().params().failover;
  if (!fo.enabled || !fo.death_notices) {
    return;  // A/B baseline: every agent pays its own detection horizon
  }
  // The notice applies at the next barrier, stamped at the reporter's clock —
  // ordered against every other cluster mutation, so all shard counts see the
  // same interleaving. Dedup happens at apply time (two agents may confirm the
  // same death in one window).
  cluster().Mutate(reporter, [this, dead]() { ApplyDeathNotice(dead); });
}

void DsmSystem::ApplyDeathNotice(NodeId dead) {
  Cluster& cluster = this->cluster();
  cluster.AssertDriverQuiescent("death notice from inside a shard window");
  const FaultPlan& plan = cluster.fault_plan();
  const SimTime now = cluster.Now();
  if (plan.NodeAlive(dead, now)) {
    return;  // stale notice: the victim already rejoined
  }
  if (!death_noticed_.insert(dead).second) {
    return;  // first notice wins
  }
  cluster.stats().Add(kStatDeathNotices);
  ASVM_LOG_WARN << name() << ": death notice for node " << dead;
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    if (n != dead && plan.NodeAlive(n, now)) {
      protocol_agent(n).OnDeathNotice(dead);
    }
  }
}

bool DsmSystem::Alive(NodeId node) {
  return cluster().fault_plan().NodeAlive(node, cluster().Now());
}

bool DsmSystem::SurvivorWitnessedCommit(const MemObjectId& id, PageIndex page) {
  for (NodeId n = 0; n < cluster().node_count(); ++n) {
    if (Alive(n) && protocol_agent(n).shadow().Witnessed(id, page)) {
      return true;
    }
  }
  return false;
}

bool DsmSystem::TakeShadowCopy(const MemObjectId& id, PageIndex page, NodeId preferred,
                               PageBuffer& out) {
  auto find = [&](NodeId n) -> ShadowStream::Page* {
    ShadowStream::Store& store = protocol_agent(n).shadow().backup_store();
    auto sit = store.find(id);
    if (sit == store.end()) {
      return nullptr;
    }
    auto pit = sit->second.find(page);
    return pit == sit->second.end() ? nullptr : &pit->second;
  };
  ShadowStream::Page* src = find(preferred);
  for (NodeId n = 0; src == nullptr && n < cluster().node_count(); ++n) {
    if (Alive(n)) {
      src = find(n);
    }
  }
  const bool found = src != nullptr;
  if (found) {
    out = std::move(src->data);
  }
  for (NodeId n = 0; n < cluster().node_count(); ++n) {
    if (!Alive(n)) {
      continue;
    }
    ShadowStream::Store& store = protocol_agent(n).shadow().backup_store();
    if (auto sit = store.find(id); sit != store.end()) {
      sit->second.erase(page);
      if (sit->second.empty()) {
        store.erase(sit);
      }
    }
  }
  return found;
}

void DsmSystem::ResetFailoverState(NodeId node) {
  protocol_agent(node).shadow().Clear();
  death_noticed_.erase(node);
}

}  // namespace asvm
