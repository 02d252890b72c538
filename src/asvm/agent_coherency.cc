// AsvmAgent part 2: the owner-side page state machine (Figure 7), grant
// handling at the origin, and terminal (pager/peer) serving.
#include <algorithm>

#include "src/asvm/agent.h"
#include "src/common/log.h"
#include "src/dsm/failover.h"

namespace asvm {

namespace {

void EraseNode(std::vector<NodeId>& nodes, NodeId node) {
  nodes.erase(std::remove(nodes.begin(), nodes.end(), node), nodes.end());
}

bool Contains(const std::vector<NodeId>& nodes, NodeId node) {
  return std::find(nodes.begin(), nodes.end(), node) != nodes.end();
}

}  // namespace

// --- Owner side ----------------------------------------------------------------

void AsvmAgent::ServeAsOwner(AccessRequest req) {
  ObjectState& os = obj_state(req.search);
  PageState& ps = page_state(os, req.page);
  ASVM_CHECK(ps.owner && !ps.busy);
  ASVM_CHECK_MSG(os.repr != nullptr, "owner without local representation");
  VmPage* vp = os.repr->FindResident(req.page);
  ASVM_CHECK_MSG(vp != nullptr, "owner invariant violated: page not resident");

  if (req.origin == node_) {
    // Our own queued request came due after we became owner (a deferred
    // self-upgrade, or a request that looped back after a grant).
    if (req.access == PageAccess::kWrite && ps.access != PageAccess::kWrite) {
      (void)SelfUpgrade(req.search, req.page);
    } else if (ps.access != PageAccess::kNone) {
      // Access already sufficient; wake any kernel waiters.
      vm_.LockGranted(*os.repr, req.page, vp->lock);
    }
    return;
  }

  if (req.target != req.search) {
    // Cross-space pull: a copy object's read-through of our (source) data.
    // Serve the snapshot value; ownership bookkeeping belongs to the target
    // space and was serialized by the copy object's peer (§3.7.3).
    AccessReply reply;
    reply.target = req.target;
    reply.req_id = req.req_id;
    reply.page = req.page;
    reply.granted = req.access;
    reply.ownership = true;
    reply.page_version = 0;
    reply.terminal = req.terminal;
    counters_.pull_served_by_owner.Add(stats_, "asvm.pull_served_by_owner");
    SendReply(req.origin, reply, vp->Share());
    return;
  }

  Trace(TraceKind::kServeOwner, req.search, req.page, req.origin, 0, req.req_id);
  if (req.access == PageAccess::kRead) {
    // Transition 5: grant read access, record the reader, keep ownership.
    if (ps.access == PageAccess::kWrite) {
      vp->lock = PageAccess::kRead;
      ps.access = PageAccess::kRead;
    }
    if (!Contains(ps.readers, req.origin)) {
      ps.readers.push_back(req.origin);
    }
    AccessReply reply;
    reply.target = req.target;
    reply.req_id = req.req_id;
    reply.page = req.page;
    reply.granted = PageAccess::kRead;
    reply.ownership = false;
    reply.page_version = ps.version;
    counters_.read_grants.Add(stats_, "asvm.read_grants");
    SendReply(req.origin, reply, vp->Share());
    return;
  }

  // Transitions 4/6: grant write access (and ownership) to another node.
  (void)OwnerGrantWrite(std::move(req));
}

Task AsvmAgent::OwnerGrantWrite(AccessRequest req) {
  const MemObjectId id = req.search;
  ObjectState& os = obj_state(id);
  PageState& ps = page_state(os, req.page);
  ps.busy = true;
  vm_.WirePage(*os.repr, req.page);

  PageBuffer pre_write = os.repr->FindResident(req.page)->Share();

  // Delayed-copy rule: the pre-write contents must reach every copy of the
  // object before the page may be modified (§3.7.2).
  Promise<uint64_t> version_done(vm_.engine());
  (void)PushIfNeeded(id, req.page, pre_write, ps.version, version_done);
  const uint64_t new_version = co_await version_done.GetFuture();
  ps.version = new_version;

  // Transition 6: invalidate every reader except the new writer (who keeps
  // its copy and only needs the lock upgrade — no page contents travel).
  const bool upgrade = Contains(ps.readers, req.origin);
  Promise<Status> inval_done(vm_.engine());
  (void)InvalidateReaders(id, req.page, req.origin, inval_done);
  co_await inval_done.GetFuture();

  // Hand over page + ownership. Our own copy is invalidated (single writer).
  AccessReply reply;
  reply.target = req.target;
  reply.req_id = req.req_id;
  reply.page = req.page;
  reply.granted = PageAccess::kWrite;
  reply.ownership = true;
  reply.upgrade = upgrade;
  reply.page_version = ps.version;
  if (upgrade) {
    counters_.write_upgrade_grants.Add(stats_, "asvm.write_upgrade_grants");
  } else {
    counters_.write_grants.Add(stats_, "asvm.write_grants");
  }
  vm_.UnwirePage(*os.repr, req.page);
  SendReply(req.origin, reply, upgrade ? nullptr : std::move(pre_write));

  vm_.LockRequest(*os.repr, req.page, PageAccess::kNone, LockMode::kFlush,
                  [](LockResult) {});
  ps.owner = false;
  ps.access = PageAccess::kNone;
  ps.busy = false;
  ps.readers.clear();
  os.dyn_hints->Put(req.page, req.origin);
  // Keep the static manager's hint fresh (cheap, asynchronous).
  const AsvmObjectInfo& info = system_.info(id);
  if (system_.config().static_forwarding) {
    const NodeId mgr = system_.StaticManagerOf(info, req.page);
    StaticHintMsg hint{id, req.page, StaticHintKind::kOwner, req.origin};
    if (mgr == node_) {
      OnStaticHint(hint);
    } else {
      Send(mgr, AsvmMsgType::kStaticHint, hint);
    }
  }
  NotifyHomeOwner(id, req.page, req.origin);
  ForwardQueue(id, req.page, req.origin);
  PruneState(os, req.page);
}

Task AsvmAgent::SelfUpgrade(MemObjectId id, PageIndex page) {
  ObjectState& os = obj_state(id);
  PageState& ps = page_state(os, page);
  ASVM_CHECK(ps.owner && !ps.busy);
  ps.busy = true;
  vm_.WirePage(*os.repr, page);

  PageBuffer pre_write = os.repr->FindResident(page)->Share();

  Promise<uint64_t> version_done(vm_.engine());
  (void)PushIfNeeded(id, page, pre_write, ps.version, version_done);
  ps.version = co_await version_done.GetFuture();

  // Transition 7: invalidate all readers, then upgrade in place.
  Promise<Status> inval_done(vm_.engine());
  (void)InvalidateReaders(id, page, node_, inval_done);
  co_await inval_done.GetFuture();

  vm_.UnwirePage(*os.repr, page);
  vm_.LockGranted(*os.repr, page, PageAccess::kWrite);
  ps.access = PageAccess::kWrite;
  ps.busy = false;
  counters_.self_upgrades.Add(stats_, "asvm.self_upgrades");
  // Serve whatever queued while we were busy.
  std::deque<AccessRequest> queued;
  queued.swap(ps.queue);
  for (auto& q : queued) {
    HandleRequest(std::move(q));
  }
}

Task AsvmAgent::InvalidateReaders(MemObjectId id, PageIndex page, NodeId except,
                                  Promise<Status> done) {
  ObjectState& os = obj_state(id);
  PageState& ps = page_state(os, page);
  std::vector<NodeId> targets;
  for (NodeId r : ps.readers) {
    if (r != except && r != node_) {
      targets.push_back(r);
    }
  }
  ps.readers.clear();
  if (except != node_) {
    // The writer-to-be is tracked by the new owner, not here.
  }
  if (targets.empty()) {
    done.Set(Status::kOk);
    co_return;
  }
  // A dead reader resolves the round kNodeDown, not a wedge.
  const uint64_t op = OpenRound(targets, "invalidate-round", id, page);
  Future<Status> all_acked = OpFuture(op);
  for (NodeId r : targets) {
    Send(r, AsvmMsgType::kInvalidate, InvalidateMsg{id, page, op});
    Trace(TraceKind::kInvalidate, id, page, r, 0, op);
    counters_.invalidations.Add(stats_, "asvm.invalidations");
  }
  ArmRound(op, [this, id, page, op](NodeId r) {
    Send(r, AsvmMsgType::kInvalidate, InvalidateMsg{id, page, op});
  });
  const Status s = co_await all_acked;
  done.Set(s);
}

// --- Origin side: grants -------------------------------------------------------

void AsvmAgent::OnAccessReply(NodeId src, const AccessReply& reply, PageBuffer data) {
  if (reply.is_scan) {
    auto it = scan_waiters_.find(reply.req_id);
    if (it != scan_waiters_.end()) {
      it->second.Set(reply.scan_found);
      scan_waiters_.erase(it);
    }
    return;
  }
  if (ArmsRequests() && FindOp(reply.req_id) == nullptr) {
    // A grant for a request we already resolved (a resend's duplicate, or a
    // straggler that raced a kNodeDown reissue): applying it twice would
    // double-serve the page.
    CountDuplicate();
    return;
  }
  ObjectState& os = obj_state(reply.target);
  PageState& ps = page_state(os, reply.page);

  if (reply.lost) {
    // The terminal proved the page was committed and then lost with its home
    // and every replica. The fault fails Status::kDataLost — waking the
    // kernel's waiters with an error, never inventing zeros.
    counters_.lost_page_faults.Add(stats_, "asvm.lost_page_faults");
    if (ArmsRequests()) {
      ResolveOp(reply.req_id, Status::kDataLost);
    }
    ps.pending = false;
    ASVM_CHECK_MSG(os.repr != nullptr, "lost-page reply for unattached object");
    vm_.FaultFailed(*os.repr, reply.page, Status::kDataLost);
    Trace(TraceKind::kGrantApplied, reply.target, reply.page, src, -1, reply.req_id);
    std::deque<AccessRequest> queued;
    queued.swap(ps.queue);
    for (auto& q : queued) {
      RouteRequest(std::move(q));
    }
    PruneState(os, reply.page);
    return;
  }

  if (reply.retry) {
    // Push/pull race (§3.7.3): re-issue the request from scratch.
    counters_.retries.Add(stats_, "asvm.retries");
    ASVM_CHECK(ps.pending);
    AccessRequest req;
    req.target = reply.target;
    req.search = reply.target;
    req.page = reply.page;
    req.access = reply.granted;  // the retried access rides in `granted`
    req.origin = node_;
    req.req_id = system_.NextOpId(node_);
    if (ArmsRequests()) {
      // The bounce re-keys the exchange: retire the old op entry before its
      // deadline fires against a request that no longer exists, and arm the
      // new id so the re-issue keeps its kNodeDown classification.
      EraseOp(reply.req_id);
      ArmRequest(req);
    }
    vm_.engine().Schedule(system_.config().agent_process_ns,
                          [this, req = std::move(req)]() mutable {
                            HandleRequest(std::move(req));
                          });
    return;
  }

  if (ArmsRequests()) {
    ResolveOp(reply.req_id, Status::kOk);
  }
  ps.pending = false;
  ps.access = reply.granted;
  ASVM_CHECK_MSG(os.repr != nullptr, "grant for unattached object");
  if (reply.zero_fill) {
    vm_.DataUnavailable(*os.repr, reply.page, reply.granted);
  } else if (reply.upgrade) {
    vm_.LockGranted(*os.repr, reply.page, reply.granted);
  } else {
    ASVM_CHECK_MSG(data != nullptr, "grant without data");
    vm_.DataSupply(*os.repr, reply.page, std::move(data), reply.granted);
  }

  Trace(TraceKind::kGrantApplied, reply.target, reply.page, src,
        static_cast<int64_t>(reply.granted), reply.req_id);
  if (reply.ownership) {
    Trace(TraceKind::kOwnershipMoved, reply.target, reply.page, node_);
    ps.owner = true;
    ps.version = reply.page_version;
    ps.readers = reply.readers;
    EraseNode(ps.readers, node_);
    // Detach the parked requests NOW: OnPullDone below can synchronously
    // drain the terminal queue into a full write-grant that hands the page
    // away and prunes this very state entry (completed futures resume
    // without suspending), so `ps` must not be touched afterwards.
    std::deque<AccessRequest> queued;
    queued.swap(ps.queue);
    if (reply.terminal != kInvalidNode) {
      // Tell the serializing terminal the first-touch grant landed.
      PullDone msg{reply.target, reply.page, node_};
      if (reply.terminal == node_) {
        OnPullDone(msg);
      } else {
        Send(reply.terminal, AsvmMsgType::kPullDone, msg);
      }
    }
    // We can now serve requests that piled up while our request was in
    // flight.
    for (auto& q : queued) {
      HandleRequest(std::move(q));
    }
  } else {
    // Read grant: remember who served us — that's the owner.
    os.dyn_hints->Put(reply.page, src);
    std::deque<AccessRequest> queued;
    queued.swap(ps.queue);
    for (auto& q : queued) {
      RouteRequest(std::move(q));
    }
    PruneState(os, reply.page);
  }
}

// --- Terminal side (pager / peer) ------------------------------------------------

void AsvmAgent::HandleAtTerminal(AccessRequest req) {
  AsvmObjectInfo& info = system_.info(req.search);
  if (info.Terminal(req.page) != node_) {
    // Epoch fence: the directory moved this role while the request was in
    // flight (a cascade promoted past us). Re-route through the directory
    // instead of serving with stale authority.
    counters_.stale_terminal_reroutes.Add(stats_, "asvm.stale_terminal_reroutes");
    req.to_terminal = false;
    SendToTerminal(std::move(req));
    return;
  }
  ObjectState& os = obj_state(req.search);

  if (req.target == req.search) {
    auto& hp = os.home_pages.GetOrCreate(req.page);
    if (hp.owner_exists && req.ring && req.ring_left == 0 && LeaseExpired(hp.last_owner)) {
      // A full ring (which skips removed nodes) found no live owner, the last
      // node we attributed ownership to is confirmed removed, and its lease
      // has expired: reclaim the page. The reclaim harvests the newest
      // surviving read copy into the recovered overlay — it reads and edits
      // other kernels' page tables, so it runs as a cluster mutation; the
      // request is re-handled once the reclaim has applied.
      system_.cluster().Mutate(node_, [this, req]() {
        system_.ReclaimDeadOwnerPage(req.search, req.page);
        engine().Post([this, req]() mutable { HandleAtTerminal(std::move(req)); });
      });
      return;
    }
    if (hp.owner_exists) {
      // Someone owns the page; the caches just failed to find it. Fall back
      // to a global scan (never fails while an owner exists, §3.4).
      if (req.ring && req.ring_left == 0 && hp.last_owner == req.origin) {
        // The ring skips the origin by design, but the directory attributes
        // ownership to exactly that node — either a resend's duplicate kept
        // wandering after the live copy was served (the origin is, or is
        // about to become, the owner), or the attribution is merely lagging
        // a transfer notice. Re-arming the ring can never resolve this: hand
        // the request to the attributed owner itself. A true owner drops its
        // own straggler (HandleRequest); a non-owner re-routes it once the
        // in-flight grant or ownership notice has landed.
        counters_.owner_is_origin_forwards.Add(stats_, "asvm.owner_is_origin_forwards");
        AccessRequest fwd = req;
        fwd.ring = false;
        fwd.ring_pos = 0;
        fwd.ring_left = 0;
        fwd.to_terminal = false;
        vm_.engine().Schedule(system_.config().agent_process_ns * 4,
                              [this, fwd = std::move(fwd)]() mutable {
                                if (fwd.origin == node_) {
                                  HandleRequest(std::move(fwd));
                                } else {
                                  SendRequest(fwd.origin, fwd);
                                }
                              });
        return;
      }
      if (req.ring && req.ring_left == 0) {
        // A full ring missed a live owner: a transfer was in flight. Retry
        // the ring after a short delay.
        counters_.ring_retries.Add(stats_, "asvm.ring_retries");
        AccessRequest retry = req;
        retry.ring_pos = 0;
        retry.ring_left = static_cast<int>(info.sharing.size());
        vm_.engine().Schedule(system_.config().agent_process_ns * 4,
                              [this, retry = std::move(retry)]() mutable {
                                RingForward(std::move(retry));
                              });
        return;
      }
      req.ring = true;
      req.ring_pos = 0;
      req.ring_left = static_cast<int>(info.sharing.size());
      RingForward(std::move(req));
      return;
    }
    if (os.lost.count(req.page) != 0) {
      // Promotion proved this page was committed and then lost with its home
      // and every replica: the fault must fail, not zero-fill (DESIGN.md §14).
      SendLostReply(req);
      return;
    }
    // No owner anywhere: we serialize the first-touch grant.
    TerminalCtl& tc = os.terminal.GetOrCreate(req.page);
    if (tc.busy) {
      tc.queue.push_back(std::move(req));
      return;
    }
    tc.busy = true;
    req.terminal = node_;
    // Copy objects — and backed objects whose local representation carries a
    // VM shadow chain (an exported local fork) — resolve through the chain;
    // plain backed objects go straight to their pager.
    if (info.IsCopy() || (os.repr != nullptr && os.repr->shadow() != nullptr)) {
      (void)ServeByPull(std::move(req));
    } else {
      (void)ServeFromBacking(std::move(req));
    }
    return;
  }

  // Cross-space read-through (pull into another object's space): idempotent,
  // no serialization or ownership bookkeeping in this space.
  if (!info.IsCopy() && os.lost.count(req.page) != 0) {
    SendLostReply(req);
    return;
  }
  if (info.IsCopy() || (os.repr != nullptr && os.repr->shadow() != nullptr)) {
    (void)ServeByPull(std::move(req));
  } else {
    (void)ServeFromBacking(std::move(req));
  }
}

void AsvmAgent::SendLostReply(const AccessRequest& req) {
  AccessReply reply;
  reply.target = req.target;
  reply.req_id = req.req_id;
  reply.page = req.page;
  reply.granted = req.access;
  reply.lost = true;
  counters_.lost_page_replies.Add(stats_, "asvm.lost_page_replies");
  Trace(TraceKind::kServeTerminal, req.search, req.page, req.origin, -1, req.req_id);
  SendReply(req.origin, reply, nullptr);
}

Task AsvmAgent::ServeFromBacking(AccessRequest req) {
  AsvmObjectInfo& info = system_.info(req.search);
  ASVM_CHECK(info.backing != nullptr);
  ObjectState& os = obj_state(req.search);
  auto& hp = os.home_pages.GetOrCreate(req.page);

  PageBuffer data;
  uint64_t version = hp.version;
  if (const ObjectState::RecoveredPage* rp = os.recovered.Find(req.page);
      rp != nullptr && rp->data != nullptr) {
    // Promotion seeded this page from the old home's shadow stream; the
    // fresh paging space has nothing newer.
    data = rp->data;
    version = rp->version;
    counters_.recovered_serves.Add(stats_, "asvm.recovered_serves");
  } else if (info.backing->HasData(req.page)) {
    data = co_await info.backing->ReadAsync(vm_.engine(), req.page, vm_.page_size());
    counters_.backing_reads.Add(stats_, "asvm.backing_reads");
  } else {
    co_await info.backing->GrantFreshAsync(vm_.engine(), req.page);
    counters_.fresh_grants.Add(stats_, "asvm.fresh_grants");
  }

  const bool same_space = req.target == req.search;
  if (same_space && req.access == PageAccess::kWrite && info.newest_copy.valid() &&
      version != info.object_version) {
    // Even a fresh/paged page's snapshot must reach the copies before the
    // first post-copy write (§3.7.2).
    PageBuffer pre_write = data != nullptr ? data : AllocPage(vm_.page_size());
    Promise<uint64_t> push_done(vm_.engine());
    (void)PushIfNeeded(req.search, req.page, pre_write, version, push_done);
    version = co_await push_done.GetFuture();
  }

  AccessReply reply;
  reply.target = req.target;
  reply.req_id = req.req_id;
  reply.page = req.page;
  reply.granted = req.access;
  reply.ownership = true;
  reply.zero_fill = data == nullptr;
  reply.page_version = version;
  reply.terminal = same_space ? node_ : req.terminal;
  if (same_space) {
    hp.owner_exists = true;  // the grant is on its way; PullDone confirms
    hp.last_owner = req.origin;
  }
  Trace(TraceKind::kServeTerminal, req.search, req.page, req.origin, 0, req.req_id);
  SendReply(req.origin, reply, std::move(data));
}

Task AsvmAgent::ServeByPull(AccessRequest req) {
  AsvmObjectInfo& info = system_.info(req.search);
  ObjectState& os = obj_state(req.search);
  ASVM_CHECK_MSG(os.repr != nullptr, "peer without copy-object representation");

  Promise<PullResult> pull_done(vm_.engine());
  vm_.PullRequest(*os.repr, req.page,
                  [pull_done](PullResult r) { pull_done.Set(std::move(r)); });
  PullResult result = co_await pull_done.GetFuture();
  counters_.peer_pulls.Add(stats_, "asvm.peer_pulls");
  Trace(TraceKind::kPull, req.search, req.page, req.origin, 0, req.req_id);

  const bool same_space = req.target == req.search;
  switch (result.kind) {
    case PullResult::Kind::kData: {
      AccessReply reply;
      reply.target = req.target;
      reply.req_id = req.req_id;
      reply.page = req.page;
      reply.granted = req.access;
      reply.ownership = true;
      reply.page_version = same_space ? os.home_pages.GetOrCreate(req.page).version : 0;
      reply.terminal = req.terminal;
      if (same_space) {
        auto& hp = os.home_pages.GetOrCreate(req.page);
        hp.owner_exists = true;
        hp.last_owner = req.origin;
      }
      SendReply(req.origin, reply, std::move(result.data));
      co_return;
    }
    case PullResult::Kind::kZeroFill: {
      if (info.backing != nullptr) {
        // Exported local object: the chain had nothing, but the object has a
        // pager of its own (paging space) that may hold the page.
        (void)ServeFromBacking(std::move(req));
        co_return;
      }
      AccessReply reply;
      reply.target = req.target;
      reply.req_id = req.req_id;
      reply.page = req.page;
      reply.granted = req.access;
      reply.ownership = true;
      reply.zero_fill = true;
      reply.page_version = 0;
      reply.terminal = req.terminal;
      if (same_space) {
        auto& hp = os.home_pages.GetOrCreate(req.page);
        hp.owner_exists = true;
        hp.last_owner = req.origin;
      }
      SendReply(req.origin, reply, nullptr);
      co_return;
    }
    case PullResult::Kind::kAskShadow: {
      // The chain continues behind another memory manager: forward the
      // request into that object's space, preserving origin and terminal
      // (§3.7.3, the Figure 9 walk).
      AccessRequest forwarded = req;
      forwarded.search = result.shadow_object;
      forwarded.hops = 0;
      forwarded.ring = false;
      counters_.pull_chain_forwards.Add(stats_, "asvm.pull_chain_forwards");
      HandleRequest(std::move(forwarded));
      co_return;
    }
  }
}

void AsvmAgent::FinishTerminal(const MemObjectId& id, PageIndex page) {
  ObjectState& os = obj_state(id);
  TerminalCtl& tc = os.terminal.GetOrCreate(page);
  tc.busy = false;
  if (tc.queue.empty()) {
    return;
  }
  std::deque<AccessRequest> queued;
  queued.swap(tc.queue);
  for (auto& q : queued) {
    HandleRequest(std::move(q));
  }
}

void AsvmAgent::OnPullDone(const PullDone& m) {
  ObjectState& os = obj_state(m.target);
  auto& hp = os.home_pages.GetOrCreate(m.page);
  hp.owner_exists = true;
  hp.last_owner = m.new_owner;
  os.dyn_hints->Put(m.page, m.new_owner);
  if (system_.config().static_forwarding) {
    const AsvmObjectInfo& info = system_.info(m.target);
    const NodeId mgr = system_.StaticManagerOf(info, m.page);
    StaticHintMsg hint{m.target, m.page, StaticHintKind::kOwner, m.new_owner};
    if (mgr == node_) {
      OnStaticHint(hint);
    } else {
      Send(mgr, AsvmMsgType::kStaticHint, hint);
    }
  }
  FinishTerminal(m.target, m.page);
}

void AsvmAgent::OnStaticHint(const StaticHintMsg& m) {
  ObjectState& os = obj_state(m.object);
  os.static_cache->Put(m.page, std::make_pair(m.kind, m.owner));
  if (failover_.enabled && m.kind == StaticHintKind::kOwner &&
      system_.info(m.object).Terminal(m.page) == node_) {
    // The lease state machine tracks the newest attribution it hears about;
    // it never flips owner_exists (writebacks own that transition).
    os.home_pages.GetOrCreate(m.page).last_owner = m.owner;
  }
}

void AsvmAgent::ForwardQueue(const MemObjectId& id, PageIndex page, NodeId next) {
  ObjectState& os = obj_state(id);
  PageState* ps = os.pages.Find(page);
  if (ps == nullptr || ps->queue.empty()) {
    return;
  }
  std::deque<AccessRequest> queued;
  queued.swap(ps->queue);
  for (auto& q : queued) {
    if (q.target != q.search) {
      // Cross-space pull that raced a transition: bounce with a retry
      // indicator so the origin re-enters through the target space (§3.7.3).
      AccessReply reply;
      reply.target = q.target;
      reply.req_id = q.req_id;
      reply.page = q.page;
      reply.granted = q.access;
      reply.retry = true;
      Send(q.origin, AsvmMsgType::kAccessReply, reply);
      continue;
    }
    if (next != kInvalidNode && next != node_) {
      SendRequest(next, q);
    } else {
      RouteRequest(std::move(q));
    }
  }
}

}  // namespace asvm
