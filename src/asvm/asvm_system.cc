#include "src/asvm/asvm_system.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "src/asvm/agent.h"
#include "src/common/log.h"
#include "src/dsm/cluster_sync.h"
#include "src/dsm/failover.h"

namespace asvm {

AsvmSystem::AsvmSystem(Cluster& cluster, AsvmConfig config)
    : cluster_(cluster), config_(config) {
  InitOpIds(cluster.node_count());
  agents_.reserve(cluster.node_count());
  for (NodeId n = 0; n < cluster.node_count(); ++n) {
    agents_.push_back(std::make_unique<AsvmAgent>(*this, n));
  }
  AddAgentStallProbe();
}

AsvmSystem::~AsvmSystem() = default;

AsvmObjectInfo& AsvmSystem::info(const MemObjectId& id) {
  auto it = directory_.find(id);
  ASVM_CHECK_MSG(it != directory_.end(), "unknown ASVM object");
  return *it->second;
}

const AsvmObjectInfo* AsvmSystem::FindInfo(const MemObjectId& id) const {
  auto it = directory_.find(id);
  return it == directory_.end() ? nullptr : it->second.get();
}

NodeId AsvmSystem::StaticManagerOf(const AsvmObjectInfo& info, PageIndex page) const {
  if (info.sharing.empty()) {
    return info.Terminal(page);
  }
  return info.sharing[static_cast<size_t>(page) % info.sharing.size()];
}

void AsvmSystem::AddSharer(AsvmObjectInfo& info, NodeId node) {
  if (std::find(info.sharing.begin(), info.sharing.end(), node) == info.sharing.end()) {
    info.sharing.push_back(node);
  }
}

MemObjectId AsvmSystem::CreateSharedRegion(NodeId home, VmSize pages) {
  cluster_.AssertDriverQuiescent("ASVM CreateSharedRegion from inside a shard window");
  MemObjectId id = NewObjectId(home);
  auto info = std::make_unique<AsvmObjectInfo>();
  info->id = id;
  info->pages = pages;
  info->home = home;
  info->backing = std::make_unique<AnonBacking>(cluster_.engine_for(home),
                                                cluster_.default_pager(home), NextBackingKey());
  directory_[id] = std::move(info);
  return id;
}

MemObjectId AsvmSystem::CreateFileRegion(int32_t file_id, VmSize pages) {
  cluster_.AssertDriverQuiescent("ASVM CreateFileRegion from inside a shard window");
  FilePager& pager = cluster_.file_pager();
  MemObjectId id = NewObjectId(pager.node());
  auto info = std::make_unique<AsvmObjectInfo>();
  info->id = id;
  info->pages = pages;
  info->home = pager.node();
  info->file_backed = true;
  info->backing = std::make_unique<FileBacking>(pager, file_id);
  directory_[id] = std::move(info);
  return id;
}

MemObjectId AsvmSystem::CreateStripedRegion(const std::vector<StripedBacking::Stripe>& stripes,
                                            VmSize pages) {
  cluster_.AssertDriverQuiescent("ASVM CreateStripedRegion from inside a shard window");
  ASVM_CHECK(!stripes.empty());
  MemObjectId id = NewObjectId(stripes[0].pager->node());
  auto info = std::make_unique<AsvmObjectInfo>();
  info->id = id;
  info->pages = pages;
  info->home = stripes[0].pager->node();
  for (const auto& stripe : stripes) {
    info->stripe_homes.push_back(stripe.pager->node());
  }
  info->file_backed = true;
  info->backing = std::make_unique<StripedBacking>(stripes);
  directory_[id] = std::move(info);
  return id;
}

std::shared_ptr<VmObject> AsvmSystem::Attach(NodeId node, const MemObjectId& id) {
  return agent(node).Attach(id);
}

MemObjectId AsvmSystem::ExportObject(NodeId node, const std::shared_ptr<VmObject>& object) {
  cluster_.AssertDriverQuiescent("ASVM ExportObject from inside a shard window");
  if (object->managed()) {
    return object->id();
  }
  MemObjectId id = NewObjectId(node);
  auto info = std::make_unique<AsvmObjectInfo>();
  info->id = id;
  info->pages = object->page_count();
  info->home = node;
  const uint64_t key = NextBackingKey();
  if (object->shadow() == nullptr) {
    // Without a shadow chain the terminal serves from this backing, so the
    // pages the private object already paged out move into it. (A shadowed
    // object is served through its chain, which reads them by serial.)
    cluster_.default_pager(node).Rename(object->serial(), key);
  }
  info->backing =
      std::make_unique<AnonBacking>(cluster_.engine_for(node), cluster_.default_pager(node), key);
  directory_[id] = std::move(info);

  AsvmAgent& a = agent(node);
  a.AdoptRepr(id, object);
  // Existing resident pages are now owned by the exporting node.
  AsvmAgent::ObjectState& os = a.obj_state(id);
  for (const auto& [page, vp] : object->resident_pages()) {
    AsvmAgent::PageState& ps = a.page_state(os, page);
    ps.owner = true;
    ps.access = AccessAllows(vp.lock, PageAccess::kWrite) ? PageAccess::kWrite
                                                          : PageAccess::kRead;
    ps.version = 0;
    auto& hp = os.home_pages.GetOrCreate(page);
    hp.owner_exists = true;
    hp.last_owner = node;
  }
  cluster_.stats().Add("asvm.exports");
  return id;
}

MemObjectId AsvmSystem::RegisterCopy(const MemObjectId& source, NodeId peer, VmSize pages) {
  cluster_.AssertDriverQuiescent("ASVM RegisterCopy from inside a shard window");
  AsvmObjectInfo& src_info = info(source);
  MemObjectId copy_id = NewObjectId(peer);
  auto copy_info = std::make_unique<AsvmObjectInfo>();
  copy_info->id = copy_id;
  copy_info->pages = pages;
  copy_info->home = peer;  // unused for copies; Terminal() uses peer
  copy_info->peer = peer;
  copy_info->shadow = source;
  directory_[copy_id] = std::move(copy_info);

  // New copies enter the chain immediately after the source; the previous
  // newest copy now reads through the fresh one (§2.2 / §3.7).
  const MemObjectId old_copy = src_info.newest_copy;
  if (old_copy.valid()) {
    AsvmObjectInfo& old_info = info(old_copy);
    old_info.shadow = copy_id;
    // Re-link the old copy's VM shadow on its peer node through a local
    // representation of the new copy.
    AsvmAgent& old_peer_agent = agent(old_info.peer);
    AsvmAgent::ObjectState* old_os = old_peer_agent.FindObjState(old_copy);
    if (old_os != nullptr && old_os->repr != nullptr) {
      old_os->repr->set_shadow(old_peer_agent.Attach(copy_id));
    }
  }
  src_info.newest_copy = copy_id;
  ++src_info.object_version;
  cluster_.stats().Add("asvm.copies_created");
  return copy_id;
}

Future<VmMap*> AsvmSystem::RemoteFork(NodeId src, VmMap& parent, NodeId dst) {
  Promise<VmMap*> done(cluster_.engine_for(src));
  (void)RemoteForkTask(src, parent, dst, done);
  return done.GetFuture();
}

Task AsvmSystem::RemoteForkTask(NodeId src, VmMap& parent, NodeId dst, Promise<VmMap*> done) {
  Engine& engine = cluster_.engine_for(src);
  // Task-creation control traffic (map description shipped to the child).
  co_await Delay(engine, 300 * kMicrosecond);
  // All structural work — directory inserts, child map construction, copy
  // registration — touches cluster-wide state, so it runs as one mutation at
  // the next deterministic sequencing point (every engine quiescent), one
  // lookahead after this instant.
  auto ro_done = std::make_shared<ClusterWaitGroup>(cluster_);
  Promise<VmMap*> built(engine);
  VmMap* parent_ptr = &parent;
  cluster_.Mutate(src, [this, src, parent_ptr, dst, ro_done, built]() {
    built.Set(ApplyRemoteFork(src, *parent_ptr, dst, *ro_done));
  });
  VmMap* child = co_await built.GetFuture();
  // The read-only broadcast acks complete on their own nodes' engines; join
  // them before reporting the fork done.
  co_await ro_done->Wait(src);
  done.Set(child);
}

VmMap* AsvmSystem::ApplyRemoteFork(NodeId src, VmMap& parent, NodeId dst,
                                   ClusterWaitGroup& ro_done) {
  cluster_.stats().Add("asvm.remote_forks");
  NodeVm& dst_vm = cluster_.vm(dst);
  VmMap* child = dst_vm.CreateMap();

  for (auto& [start, entry] : parent.entries()) {
    if (entry.inheritance == Inheritance::kNone) {
      continue;
    }
    if (entry.inheritance == Inheritance::kShare) {
      MemObjectId id = ExportObject(src, entry.object);
      auto repr = Attach(dst, id);
      Status s = child->Map(entry.start_page, entry.page_count, repr, entry.object_offset,
                            entry.inheritance);
      ASVM_CHECK(IsOk(s));
      continue;
    }
    // Delayed copy across nodes (§3.7, Figure 8): share the source on the
    // destination, create the copy through the standard VM mechanisms there,
    // then mark resident source pages read-only everywhere.
    MemObjectId source_id = ExportObject(src, entry.object);
    AsvmObjectInfo& src_info = info(source_id);
    std::shared_ptr<VmObject> src_repr = Attach(dst, source_id);
    MemObjectId copy_id = RegisterCopy(source_id, dst, entry.object->page_count());
    std::shared_ptr<VmObject> copy_obj = dst_vm.CreateAsymmetricCopy(src_repr);
    // The copy object is the peer-side representation; registering it as
    // managed keeps its identity stable across further forks.
    agent(dst).AdoptRepr(copy_id, copy_obj);

    Status s = child->Map(entry.start_page, entry.page_count, copy_obj, entry.object_offset,
                          Inheritance::kCopy);
    ASVM_CHECK(IsOk(s));

    // Broadcast: downgrade all resident pages of the source to read-only.
    // The downgrades run synchronously here (the machine is quiescent); their
    // completion acks arrive on each sharer's engine and join through the
    // fork-wide cluster wait group.
    for (NodeId sharer : src_info.sharing) {
      if (sharer == dst) {
        // The new sharer has nothing resident yet.
        continue;
      }
      ro_done.Add();
      Future<Status> f = agent(sharer).MarkObjectReadOnly(source_id);
      (void)[](Future<Status> f, ClusterWaitGroup* wg, NodeId sharer) -> Task {
        co_await f;
        wg->Done(sharer);
      }(f, &ro_done, sharer);
      // Wire cost of the broadcast message.
      if (sharer != src) {
        cluster_.stats().Add("asvm.mark_readonly_msgs");
      }
    }
  }
  return child;
}

size_t AsvmSystem::MetadataBytes(NodeId node) const {
  return agents_.at(node)->MetadataBytes();
}

ProtocolAgent& AsvmSystem::protocol_agent(NodeId node) { return agent(node); }

// --- Failover ----------------------------------------------------------------

void AsvmSystem::PromoteIfHomeDead(const MemObjectId& id) {
  cluster_.AssertDriverQuiescent("ASVM promotion from inside a shard window");
  const FaultPlan& plan = cluster_.fault_plan();
  const SimTime now = cluster_.Now();
  AsvmObjectInfo& obj = info(id);
  if (obj.IsCopy()) {
    // Copy objects are out of failover scope: their peer holds unreplicated
    // VM shadow links that cannot be reconstructed from surviving state.
    return;
  }

  // Snapshot every page's forwarding terminal before touching the directory —
  // the rebuild below needs to know which pages actually moved.
  std::vector<NodeId> old_term(obj.pages);
  for (PageIndex p = 0; p < static_cast<PageIndex>(obj.pages); ++p) {
    old_term[static_cast<size_t>(p)] = obj.Terminal(p);
  }

  // Replace each dead home with its first alive ring successor. For striped
  // regions every dead stripe home moves independently; the stripes' external
  // storage survives, so only the forwarding role transfers.
  std::vector<std::pair<NodeId, NodeId>> moves;  // old home -> new home
  auto move_home = [&](NodeId& home) {
    if (plan.NodeAlive(home, now)) {
      return;  // an earlier mutation this barrier already promoted (idempotent)
    }
    const NodeId next = RingSuccessor(home, cluster_.node_count(), plan, now);
    ASVM_CHECK_MSG(next != kInvalidNode, "no surviving node to promote");
    bool seen = false;
    for (const auto& mv : moves) {
      seen = seen || mv.first == home;
    }
    if (!seen) {
      moves.emplace_back(home, next);
    }
    home = next;
  };
  if (obj.stripe_homes.empty()) {
    move_home(obj.home);
    if (!moves.empty() && !obj.file_backed) {
      // The old paging space died with the home. Fresh anonymous backing on
      // the promoted node; the shadow store stands in for every dirty page
      // the old home had written back into it.
      obj.backing = std::make_unique<AnonBacking>(cluster_.engine_for(obj.home),
                                                  cluster_.default_pager(obj.home),
                                                  NextBackingKey());
    }
  } else {
    for (NodeId& sh : obj.stripe_homes) {
      move_home(sh);
    }
  }
  if (moves.empty()) {
    return;
  }
  // Epoch fencing: the directory's terminal assignments now carry a newer
  // epoch; anything still in flight toward an ex-manager re-routes through
  // the directory (see HandleAtTerminal) instead of being served stale.
  ++obj.epoch;

  // Rebuild the home-role directory for the pages that moved: reset the new
  // terminal's records, then let every surviving owner re-assert itself.
  // Nodes and pages are visited in ascending order and per-page assignments
  // are independent, so shard count cannot leak into the result.
  auto moved = [&](PageIndex p) {
    return old_term[static_cast<size_t>(p)] != obj.Terminal(p);
  };
  for (PageIndex p = 0; p < static_cast<PageIndex>(obj.pages); ++p) {
    if (!moved(p)) {
      continue;
    }
    AsvmAgent::ObjectState& hs = agent(obj.Terminal(p)).obj_state(id);
    hs.home_pages.Erase(p);
    hs.terminal.Erase(p);
    hs.recovered.Erase(p);
    hs.lost.erase(p);
  }
  for (NodeId n = 0; n < cluster_.node_count(); ++n) {
    if (!plan.NodeAlive(n, now)) {
      continue;
    }
    AsvmAgent::ObjectState* os = agent(n).FindObjState(id);
    if (os == nullptr) {
      continue;
    }
    os->pages.ForEach([&](PageIndex p, const AsvmAgent::PageState& ps) {
      if (!ps.owner || !moved(p)) {
        return;
      }
      auto& hp = agent(obj.Terminal(p)).obj_state(id).home_pages.GetOrCreate(p);
      hp.owner_exists = true;
      hp.last_owner = n;
      hp.version = ps.version;
    });
  }

  // Owner-death reconstruction: a moved page with no surviving owner may
  // still live on as untracked read copies (its owner died holding the reader
  // list); harvest the newest into the new terminal. A harvested copy
  // postdates any shadowed writeback, so this pass runs before the fold.
  if (!obj.file_backed) {
    for (PageIndex p = 0; p < static_cast<PageIndex>(obj.pages); ++p) {
      if (!moved(p)) {
        continue;
      }
      AsvmAgent::ObjectState& hs = agent(obj.Terminal(p)).obj_state(id);
      if (const auto* hp = hs.home_pages.Find(p); hp != nullptr && hp->owner_exists) {
        continue;
      }
      HarvestReadCopy(id, p, obj.Terminal(p));
    }
  }

  // Pages whose only copy died with the old home (written back, no surviving
  // owner or read copy): a survivor's shadow store seeds the recovered-page
  // overlay. Every alive store is consulted — a re-targeted stream may have
  // left the newest entry somewhere other than the promoted node — and the
  // consumed entries are erased everywhere.
  if (!obj.file_backed) {
    for (PageIndex p = 0; p < static_cast<PageIndex>(obj.pages); ++p) {
      if (!moved(p)) {
        continue;
      }
      AsvmAgent::ObjectState& hs = agent(obj.Terminal(p)).obj_state(id);
      const auto* hp0 = hs.home_pages.Find(p);
      const auto* rp0 = hs.recovered.Find(p);
      const bool have_source = (hp0 != nullptr && hp0->owner_exists) ||
                               (rp0 != nullptr && rp0->data != nullptr);
      ShadowStream::Page* best = nullptr;
      for (NodeId n = 0; n < cluster_.node_count(); ++n) {
        if (have_source || !plan.NodeAlive(n, now)) {
          continue;
        }
        ShadowStream::Store& store = agent(n).shadow().backup_store();
        auto sit = store.find(id);
        if (sit == store.end()) {
          continue;
        }
        auto pit = sit->second.find(p);
        if (pit == sit->second.end() || pit->second.data == nullptr) {
          continue;
        }
        if (best == nullptr || pit->second.version > best->version) {
          best = &pit->second;
        }
      }
      if (best != nullptr) {
        auto& rp = hs.recovered.GetOrCreate(p);
        rp.data = std::move(best->data);
        rp.version = best->version;
        hs.home_pages.GetOrCreate(p).version = best->version;
        cluster_.stats().Add(kStatReconstructedPages);
      }
      for (NodeId n = 0; n < cluster_.node_count(); ++n) {
        if (!plan.NodeAlive(n, now)) {
          continue;
        }
        ShadowStream::Store& store = agent(n).shadow().backup_store();
        if (auto sit = store.find(id); sit != store.end()) {
          sit->second.erase(p);
          if (sit->second.empty()) {
            store.erase(sit);
          }
        }
      }
    }
  }

  // Provable loss: a page some survivor witnessed as committed (a shadow
  // manifest or a home's own ledger), with no surviving owner, no harvested
  // copy, and no shadow fold — every durable copy died with the victims.
  // Faults on these pages answer Status::kDataLost instead of inventing
  // zeros; pages with no witness are genuinely never-written and zero-fill.
  if (!obj.file_backed) {
    for (PageIndex p = 0; p < static_cast<PageIndex>(obj.pages); ++p) {
      if (!moved(p)) {
        continue;
      }
      AsvmAgent::ObjectState& hs = agent(obj.Terminal(p)).obj_state(id);
      if (const auto* hp = hs.home_pages.Find(p); hp != nullptr && hp->owner_exists) {
        continue;
      }
      if (const auto* rp = hs.recovered.Find(p); rp != nullptr && rp->data != nullptr) {
        continue;
      }
      if (SurvivorWitnessedCommit(id, p) && hs.lost.insert(p).second) {
        cluster_.stats().Add(kStatLostPages);
      }
    }
  }

  for (const auto& [old_home, new_home] : moves) {
    cluster_.stats().Add(kStatPromotions);
    AsvmAgent& backup = agent(new_home);
    backup.Trace(TraceKind::kPromote, id, kInvalidPage, old_home,
                 static_cast<int64_t>(obj.epoch));
    // Re-arm durability: the recovered overlay is the only copy of the folded
    // pages until the next writeback, so mirror it onward to the new home's
    // own backup. The sends are ordinary engine work — post them.
    AsvmAgent* nh = &backup;
    cluster_.engine_for(new_home).Post([nh, new_home, id]() {
      AsvmAgent::ObjectState* os = nh->FindObjState(id);
      if (os == nullptr) {
        return;
      }
      os->recovered.ForEach([&](PageIndex p, AsvmAgent::ObjectState::RecoveredPage& rp) {
        if (rp.data != nullptr) {
          nh->shadow().MirrorToBackup(new_home, id, p, rp.version, rp.data);
        }
      });
    });
  }
}

void AsvmSystem::ColdRestart(NodeId node) {
  cluster_.AssertDriverQuiescent("ASVM cold restart from inside a shard window");
  cluster_.stats().Add(kStatRestarts);
  const FaultPlan& plan = cluster_.fault_plan();
  const SimTime now = cluster_.Now();
  AsvmAgent& a = agent(node);
  NodeVm& vm = cluster_.vm(node);

  for (const MemObjectId& id : SortedKeys(a.objects_)) {
    AsvmAgent::ObjectState& os = *a.objects_.at(id);
    AsvmObjectInfo& obj = info(id);

    // Reconcile first: ownership this node held died with it. Drop the
    // attribution at each surviving terminal so the next request re-grants
    // from backing instead of chasing a node with empty memory.
    os.pages.ForEach([&](PageIndex p, const AsvmAgent::PageState& ps) {
      if (!ps.owner) {
        return;
      }
      const NodeId term = obj.Terminal(p);
      if (term == node || !plan.NodeAlive(term, now)) {
        return;
      }
      AsvmAgent::ObjectState* tos = agent(term).FindObjState(id);
      if (tos == nullptr) {
        return;
      }
      if (auto* hp = tos->home_pages.Find(p); hp != nullptr && hp->last_owner == node) {
        hp->owner_exists = false;
        hp->last_owner = kInvalidNode;
      }
    });
    // Same rule for records this node keeps as a terminal about itself. Other
    // nodes' entries stay: like XMM's manager table, the surviving records are
    // still conservative — any grant during the outage promoted the role away.
    os.home_pages.ForEach([&](PageIndex, AsvmAgent::ObjectState::HomePage& hp) {
      if (hp.last_owner == node) {
        hp.owner_exists = false;
        hp.last_owner = kInvalidNode;
      }
    });

    // Volatile per-page state resets in place: suspended coroutines may hold
    // references into these tables, so entries are cleared, never erased.
    os.pages.ForEach([](PageIndex, AsvmAgent::PageState& ps) { ps = {}; });
    os.terminal.ForEach([](PageIndex, AsvmAgent::TerminalCtl& tc) {
      tc.busy = false;
      tc.queue.clear();
    });
    os.recovered.ForEach(
        [](PageIndex, AsvmAgent::ObjectState::RecoveredPage& rp) { rp = {}; });
    os.lost.clear();
    os.dyn_hints->Clear();
    os.static_cache->Clear();
    os.pageout_cursor = 0;
    os.last_pageout_accept = kInvalidNode;

    if (os.repr != nullptr) {
      for (PageIndex page : SortedKeys(os.repr->resident_pages())) {
        vm.RemovePage(*os.repr, page);
      }
    }
  }
  // Any shadow state this node held as a backup — and any ledger/manifest it
  // kept as a primary or witness — is equally volatile.
  ResetFailoverState(node);
}

void AsvmSystem::ReclaimDeadOwnerPage(const MemObjectId& id, PageIndex page) {
  cluster_.AssertDriverQuiescent("ASVM lease reclaim from inside a shard window");
  const FaultPlan& plan = cluster_.fault_plan();
  const SimTime now = cluster_.Now();
  AsvmObjectInfo& obj = info(id);
  const NodeId term = obj.Terminal(page);
  if (!plan.NodeAlive(term, now)) {
    return;  // the terminal itself is dead; promotion owns this recovery
  }
  AsvmAgent& home = agent(term);
  AsvmAgent::ObjectState* os = home.FindObjState(id);
  if (os == nullptr) {
    return;
  }
  auto* hp = os->home_pages.Find(page);
  if (hp == nullptr || !hp->owner_exists) {
    return;  // already reclaimed (idempotent): the serve path takes over
  }
  const NodeId owner = hp->last_owner;
  if (owner == kInvalidNode || plan.NodeAlive(owner, now)) {
    return;  // owner rejoined between enqueue and apply — not reclaimable
  }
  const SimTime since = plan.RemovedSince(owner, now);
  if (since < 0 || now < since + cluster_.params().failover.lease_ns) {
    return;  // lease still running; the caller re-handles and waits again
  }
  cluster_.stats().Add(kStatLeaseReclaims);
  home.Trace(TraceKind::kLeaseReclaim, id, page, owner);
  hp->owner_exists = false;
  hp->last_owner = kInvalidNode;
  if (obj.file_backed) {
    return;  // external storage already holds the last writeback
  }
  HarvestReadCopy(id, page, term);
}

void AsvmSystem::HarvestReadCopy(const MemObjectId& id, PageIndex page, NodeId terminal) {
  const FaultPlan& plan = cluster_.fault_plan();
  const SimTime now = cluster_.Now();
  PageBuffer best;
  uint64_t best_version = 0;
  for (NodeId n = 0; n < cluster_.node_count(); ++n) {
    if (!plan.NodeAlive(n, now)) {
      continue;
    }
    AsvmAgent::ObjectState* ros = agent(n).FindObjState(id);
    if (ros == nullptr || ros->repr == nullptr) {
      continue;
    }
    AsvmAgent::PageState* ps = ros->pages.Find(page);
    if (ps == nullptr || ps->owner || ps->busy || ps->held() ||
        ps->access == PageAccess::kNone) {
      continue;
    }
    VmPage* vp = ros->repr->FindResident(page);
    if (vp == nullptr) {
      continue;
    }
    if (best == nullptr || ps->version > best_version) {
      best_version = ps->version;
      best = vp->Share();
    }
    cluster_.vm(n).RemovePage(*ros->repr, page);
    ps->access = PageAccess::kNone;
    agent(n).PruneState(*ros, page);
  }
  if (best != nullptr) {
    AsvmAgent::ObjectState& hs = agent(terminal).obj_state(id);
    auto& rp = hs.recovered.GetOrCreate(page);
    rp.data = std::move(best);
    rp.version = best_version;
    hs.home_pages.GetOrCreate(page).version = best_version;
    cluster_.stats().Add(kStatReconstructedPages);
  }
}

}  // namespace asvm
