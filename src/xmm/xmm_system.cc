#include "src/xmm/xmm_system.h"

#include <utility>

#include "src/common/log.h"
#include "src/dsm/failover.h"
#include "src/xmm/xmm_agent.h"

namespace asvm {

XmmSystem::XmmSystem(Cluster& cluster, XmmConfig config)
    : DirectorySystem(cluster, /*backing_tag=*/1ULL << 62), config_(config) {
  CreateAgents(*this);
}

XmmSystem::~XmmSystem() = default;

// --- Failover ----------------------------------------------------------------

void XmmSystem::PromoteIfManagerDead(const MemObjectId& id) {
  cluster_.AssertDriverQuiescent("XMM promotion from inside a shard window");
  DirectoryRecord& obj = info(id);
  const FaultPlan& plan = cluster_.fault_plan();
  const SimTime now = cluster_.Now();
  if (plan.NodeAlive(obj.home, now)) {
    return;  // an earlier mutation this barrier already promoted (idempotent)
  }
  const NodeId old_manager = obj.home;
  const NodeId new_manager = RingSuccessor(old_manager, cluster_.node_count(), plan, now);
  ASVM_CHECK_MSG(new_manager != kInvalidNode, "no surviving node to promote");
  obj.home = new_manager;
  // Epoch fencing: the directory's manager assignment now carries a newer
  // epoch; a deposed ex-manager (Deposed()) abandons in-flight exchanges
  // instead of serving with stale authority — across a cascade too.
  ++obj.epoch;
  XmmAgent& backup = agent(new_manager);
  // The old paging space died with the manager. Fresh anonymous backing on the
  // promoted node; the shadow store stands in for every dirty page the old
  // manager had cleaned into it.
  if (!obj.file_backed && !obj.IsCopyObject()) {
    obj.backing = std::make_unique<AnonBacking>(cluster_.engine_for(new_manager),
                                                cluster_.default_pager(new_manager),
                                                NextBackingKey());
  }
  XmmAgent::ManagerState& ms = backup.mgr_state(id);
  // Fold the shadow streams into the new manager's pager copies.
  for (PageIndex p = 0; p < static_cast<PageIndex>(obj.pages); ++p) {
    PageBuffer copy;
    if (TakeShadowCopy(id, p, new_manager, copy)) {
      ms.pages.GetOrCreate(p).pager_copy = std::move(copy);
      cluster_.stats().Add(kStatReconstructedPages);
    }
  }
  // Rebuild the access table by asking every surviving kernel what it holds.
  // Per-slot assignments are independent, so host iteration order of the
  // resident maps cannot leak into the result; nodes scan in ascending order
  // regardless (shard-count invariance).
  for (NodeId n = 0; n < cluster_.node_count(); ++n) {
    if (!plan.NodeAlive(n, now)) {
      continue;
    }
    XmmAgent& peer = agent(n);
    auto rit = peer.reprs_.find(id);
    if (rit == peer.reprs_.end()) {
      continue;
    }
    for (const auto& [page, vp] : rit->second->resident_pages()) {
      backup.AccessByte(ms, page, n) = AccessAllows(vp.lock, PageAccess::kWrite) ? 2 : 1;
    }
  }
  if (!obj.file_backed && !obj.IsCopyObject()) {
    ms.lost.clear();  // re-derived below from the surviving witnesses
    for (PageIndex p = 0; p < static_cast<PageIndex>(obj.pages); ++p) {
      if (backup.FindWriter(ms, id, p) != kInvalidNode) {
        continue;  // a surviving writer holds the newest contents
      }
      XmmAgent::ManagerState::PageCtl& ctl = ms.pages.GetOrCreate(p);
      if (ctl.pager_copy != nullptr) {
        continue;  // the shadow fold already recovered this page
      }
      // Reconstruction from surviving read copies: any reader's copy is
      // coherent with the last committed contents (writes flush readers
      // first), so the lowest alive reader seeds the pager copy.
      bool harvested = false;
      for (NodeId n = 0; n < cluster_.node_count() && !harvested; ++n) {
        if (!plan.NodeAlive(n, now) || backup.AccessByte(ms, p, n) != 1) {
          continue;
        }
        auto rit = agent(n).reprs_.find(id);
        if (rit == agent(n).reprs_.end()) {
          continue;
        }
        if (VmPage* vp = rit->second->FindResident(p); vp != nullptr) {
          ctl.pager_copy = vp->Share();
          cluster_.stats().Add(kStatReconstructedPages);
          harvested = true;
        }
      }
      if (harvested) {
        continue;
      }
      // Provable loss: a survivor witnessed the commit, but no copy survived
      // anywhere. Faults answer Status::kDataLost instead of inventing zeros.
      if (SurvivorWitnessedCommit(id, p) && ms.lost.insert(p).second) {
        cluster_.stats().Add(kStatLostPages);
      }
    }
  }
  cluster_.stats().Add(kStatPromotions);
  backup.Trace(TraceKind::kPromote, id, kInvalidPage, old_manager,
               static_cast<int64_t>(obj.epoch));
  // Re-arm durability: the folded pager copies are the only replica until the
  // next cleaning, so mirror them onward to the new manager's own backup.
  // The sends are ordinary engine work — post them.
  XmmAgent* nm = &backup;
  cluster_.engine_for(new_manager).Post([nm, new_manager, id]() {
    auto it = nm->manager_.find(id);
    if (it == nm->manager_.end()) {
      return;
    }
    it->second->pages.ForEach([&](PageIndex p, XmmAgent::ManagerState::PageCtl& ctl) {
      if (ctl.pager_copy != nullptr) {
        nm->shadow().MirrorToBackup(new_manager, id, p, /*version=*/0, ctl.pager_copy);
      }
    });
  });
}

void XmmSystem::ColdRestart(NodeId node) {
  cluster_.AssertDriverQuiescent("XMM cold restart from inside a shard window");
  cluster_.stats().Add(kStatRestarts);
  PurgeResidentPages(node);
  // Any shadow state this node held as a backup — and any ledger/manifest it
  // kept as a primary or witness — is equally volatile.
  ResetFailoverState(node);
  XmmAgent& a = agent(node);
  // Manager records: drop state for objects promoted away while we were dark.
  // An object still managed here saw no grants during the outage (any request
  // would have promoted it away), so the surviving table is still conservative
  // — only our own column and the in-memory pager copies are volatile.
  for (auto it = a.manager_.begin(); it != a.manager_.end();) {
    const DirectoryRecord& obj = info(it->first);
    if (obj.home != node) {
      it = a.manager_.erase(it);
      continue;
    }
    XmmAgent::ManagerState& ms = *it->second;
    for (PageIndex p = 0; p < static_cast<PageIndex>(obj.pages); ++p) {
      a.AccessByte(ms, p, node) = 0;
    }
    ms.pages.ForEach(
        [](PageIndex, XmmAgent::ManagerState::PageCtl& ctl) { ctl.pager_copy = nullptr; });
    ++it;
  }
}

}  // namespace asvm
