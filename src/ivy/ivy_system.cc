#include "src/ivy/ivy_system.h"

#include <algorithm>
#include <vector>

#include "src/common/log.h"
#include "src/dsm/failover.h"
#include "src/ivy/ivy_agent.h"
#include "src/machvm/page.h"

namespace asvm {

IvySystem::IvySystem(Cluster& cluster, IvyConfig config)
    : DirectorySystem(cluster, /*backing_tag=*/1ULL << 61), config_(config) {
  CreateAgents(*this);
}

IvySystem::~IvySystem() = default;

void IvySystem::OnRegionCreated(const DirectoryRecord& rec) {
  agent(rec.home).AdoptHomePages(rec.id, rec.pages);
}

// --- Failover (DESIGN.md §15) ------------------------------------------------

bool IvySystem::HarvestNewestCopy(const MemObjectId& id, PageIndex page, NodeId new_owner) {
  const FaultPlan& plan = cluster_.fault_plan();
  const SimTime now = cluster_.Now();
  IvyAgent::OwnerState* st = agent(new_owner).OwnedState(id, page);
  ASVM_CHECK_MSG(st != nullptr, "harvest without an owner record");
  // Shadow stores first — the dead owner mirrored its dirty contents there.
  bool harvested = TakeShadowCopy(id, page, new_owner, st->pager_copy);
  if (!harvested) {
    // Any surviving read copy is coherent with the last committed write
    // (writes invalidate readers first): the lowest alive holder seeds the
    // new owner's copy.
    for (NodeId n = 0; n < cluster_.node_count() && !harvested; ++n) {
      if (n == new_owner || !plan.NodeAlive(n, now)) {
        continue;
      }
      auto rit = agent(n).reprs_.find(id);
      if (rit == agent(n).reprs_.end()) {
        continue;
      }
      if (VmPage* vp = rit->second->FindResident(page); vp != nullptr) {
        st->pager_copy = vp->Share();
        harvested = true;
      }
    }
  }
  if (harvested) {
    cluster_.stats().Add(kStatReconstructedPages);
    cluster_.stats().Add(kStatIvyHarvestedPages);
  }
  return harvested;
}

void IvySystem::ResetOwnerRecord(const MemObjectId& id, PageIndex page, NodeId owner) {
  IvyAgent::OwnerState& st = *agent(owner).OwnedState(id, page);
  st.busy = false;
  st.queue.clear();
  st.lost = false;
  // Copyset rebuild: every alive kernel still holding the page is a reader.
  st.copyset.clear();
  for (NodeId n = 0; n < cluster_.node_count(); ++n) {
    if (n == owner || !Alive(n)) {
      continue;
    }
    auto rit = agent(n).reprs_.find(id);
    if (rit != agent(n).reprs_.end() && rit->second->FindResident(page) != nullptr) {
      st.copyset.insert(n);
    }
  }
}

void IvySystem::ReclaimIfOwnerDead(const MemObjectId& id, PageIndex page, NodeId requester) {
  cluster_.AssertDriverQuiescent("IVY reclaim from inside a shard window");
  DirectoryRecord& obj = info(id);
  const FaultPlan& plan = cluster_.fault_plan();
  const SimTime now = cluster_.Now();
  if (!plan.NodeAlive(requester, now)) {
    return;
  }
  // The owner is whichever node holds the page's owner record (exactly one
  // does, except when a transfer died in flight). Ascending scan: every shard
  // count resolves the same owner.
  NodeId owner = kInvalidNode;
  for (NodeId n = 0; n < cluster_.node_count(); ++n) {
    if (agent(n).Owns(id, page)) {
      owner = n;
      break;
    }
  }
  if (owner != kInvalidNode && plan.NodeAlive(owner, now)) {
    // The chain walk found a corpse along the way, not a dead owner: aim the
    // requester straight at the live owner (includes owner == requester, when
    // a straggler grant landed ownership here already).
    agent(requester).SetHint(id, page, owner);
    return;
  }
  if (owner != kInvalidNode) {
    // Owner confirmed dead: its ownership lease must expire before the page
    // can be stolen — the corpse may still think it owns the page.
    const SimTime since = plan.RemovedSince(owner, now);
    if (since < 0 || now < since + cluster_.params().failover.lease_ns) {
      return;  // lease still live; the reissued request re-walks and re-tries
    }
    cluster_.stats().Add(kStatLeaseReclaims);
    agent(requester).Trace(TraceKind::kLeaseReclaim, id, page, owner);
  }
  // Steal: the requester becomes the owner. (owner == kInvalidNode means the
  // record died in flight with a transfer — reclaim immediately; the lease
  // was the granter's to hold and the granter is gone.)
  IvyAgent& ra = agent(requester);
  IvyAgent::ObjState& ros = ra.obj_state(id);
  IvyAgent::OwnerState& st = ros.owned[page];
  ResetOwnerRecord(id, page, requester);
  if (!HarvestNewestCopy(id, page, requester) && st.copyset.empty() &&
      !(obj.home == requester && obj.backing != nullptr)) {
    // No replica anywhere: lost if some survivor witnessed the commit,
    // otherwise never written (zero-fill).
    if (SurvivorWitnessedCommit(id, page)) {
      st.lost = true;
      cluster_.stats().Add(kStatLostPages);
    }
  }
  // Bury the corpse's record and chains: erase its owner record (it must not
  // resurrect ownership on a cold restart) and re-aim every survivor's hint
  // at the new owner, collapsing the dead chains in one stroke.
  if (owner != kInvalidNode) {
    if (auto oit = agent(owner).objs_.find(id); oit != agent(owner).objs_.end()) {
      oit->second->owned.erase(page);
    }
  }
  for (NodeId n = 0; n < cluster_.node_count(); ++n) {
    if (n == requester || !plan.NodeAlive(n, now)) {
      continue;
    }
    agent(n).SetHint(id, page, requester);
  }
  if (owner != kInvalidNode && owner != requester) {
    agent(owner).SetHint(id, page, requester);
  }
  // Re-home anonymous objects whose home died: the home anchors hint
  // fallbacks and the backing store, both of which are gone. The new owner
  // takes the role with fresh (empty) backing; harvested/shadowed contents
  // stand in for everything committed.
  if (!obj.file_backed && obj.home != requester && !plan.NodeAlive(obj.home, now)) {
    obj.home = requester;
    obj.backing = std::make_unique<AnonBacking>(cluster_.engine_for(requester),
                                                cluster_.default_pager(requester),
                                                NextBackingKey());
  }
  ++obj.epoch;
  cluster_.stats().Add(kStatIvyOwnerReclaims);
  ra.Trace(TraceKind::kPromote, id, page, owner, static_cast<int64_t>(obj.epoch));
}

void IvySystem::ColdRestart(NodeId node) {
  cluster_.AssertDriverQuiescent("IVY cold restart from inside a shard window");
  cluster_.stats().Add(kStatRestarts);
  PurgeResidentPages(node);
  ResetFailoverState(node);
  IvyAgent& a = agent(node);
  // Hints are volatile: reset every one to the home fallback.
  for (const MemObjectId& id : SortedKeys(a.objs_)) {
    IvyAgent::ObjState& os = *a.objs_.at(id);
    os.hints.ForEach([](PageIndex, IvyAgent::ObjState::Hint& h) { h.owner = kInvalidNode; });
    // Pages this node still owns were untouched during the outage (any fault
    // on them would have reclaimed ownership away). The records survive but
    // their contents are volatile: re-seed from the newest surviving replica,
    // the local backing (which outlives a restart), or mark them lost.
    const DirectoryRecord& obj = info(id);
    for (auto& [page, st] : os.owned) {
      st.pager_copy = nullptr;
      ResetOwnerRecord(id, page, node);
      if (HarvestNewestCopy(id, page, node) || !st.copyset.empty() ||
          (obj.home == node && obj.backing != nullptr && obj.backing->HasData(page))) {
        continue;
      }
      if (SurvivorWitnessedCommit(id, page)) {
        st.lost = true;
        cluster_.stats().Add(kStatLostPages);
      }
    }
  }
}

}  // namespace asvm
