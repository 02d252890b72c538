// AsvmAgent part 3: internode paging (§3.6), the push operation and push
// scans (§3.7.2), copy creation support, and the message dispatcher.
#include <algorithm>
#include <utility>

#include "src/asvm/agent.h"
#include "src/common/log.h"
#include "src/dsm/failover.h"

namespace asvm {

// --- Internode paging (§3.6) ----------------------------------------------------

EvictAction AsvmAgent::OnEvict(VmObject& object, PageIndex page, PageBuffer data, bool dirty) {
  const MemObjectId id = object.id();
  ObjectState& os = obj_state(id);
  PageState* found = os.pages.Find(page);
  if (found == nullptr || !found->owner) {
    // Step 1: not the owner — the page can be re-fetched from the owner at
    // any time; simply discard it.
    if (found != nullptr) {
      found->access = PageAccess::kNone;
      PruneState(os, page);
    }
    counters_.evict_discards.Add(stats_, "asvm.evict_discards");
    Trace(TraceKind::kEvictStep, id, page, kInvalidNode, 1);
    return EvictAction::kDiscard;
  }
  PageState& ps = *found;
  ASVM_CHECK_MSG(!ps.busy, "evicting a page with a transition in flight");
  // The owner is losing its copy: keep a "zombie" owner record (busy) so
  // forwarding still finds us and requests queue here until the ownership or
  // the contents land somewhere else.
  ps.busy = true;
  ps.access = PageAccess::kNone;
  counters_.evict_owner.Add(stats_, "asvm.evict_owner");
  (void)EvictionTask(id, page, std::move(data), dirty, ps.version, ps.readers);
  return EvictAction::kTaken;
}

Task AsvmAgent::EvictionTask(MemObjectId id, PageIndex page, PageBuffer data, bool dirty,
                             uint64_t version, std::vector<NodeId> readers) {
  AsvmObjectInfo& info = system_.info(id);
  ObjectState& os = obj_state(id);

  // Step 2: offer bare ownership to a node that still has a read copy — no
  // page contents travel.
  if (!system_.config().internode_paging) {
    readers.clear();  // ablation: no ownership transfer, no page transfer
  }
  for (NodeId r : readers) {
    if (r == node_) {
      continue;
    }
    // A dead reader resolves the offer kNodeDown (= declined).
    const uint64_t op = OpenRound({r}, "ownership-offer", id, page);
    Future<Status> replied = OpFuture(op);
    std::vector<NodeId> remaining;
    for (NodeId other : readers) {
      if (other != r && other != node_) {
        remaining.push_back(other);
      }
    }
    Send(r, AsvmMsgType::kOwnershipOffer, OwnershipOffer{id, page, version, remaining, op});
    ArmOp(op, [this, r, id, page, version, remaining, op]() {
      Send(r, AsvmMsgType::kOwnershipOffer, OwnershipOffer{id, page, version, remaining, op});
    });
    Status s = co_await replied;
    if (IsOk(s)) {
      // Accepted: ownership moved without the page contents.
      counters_.evict_ownership_transfers.Add(stats_, "asvm.evict_ownership_transfers");
      Trace(TraceKind::kEvictStep, id, page, r, 2);
      PageState& ps = page_state(os, page);
      ps.owner = false;
      ps.busy = false;
      ps.readers.clear();
      os.dyn_hints->Put(page, r);
      NotifyHomeOwner(id, page, r);
      ForwardQueue(id, page, r);
      PruneState(os, page);
      co_return;
    }
    // Declined: that node discarded its copy; drop it from the list.
  }

  // Step 3: try to transfer the page to another node sharing the object.
  // A cycling counter picks the candidate; a node that recently accepted is
  // retried first (the algorithm "locks onto" nodes with free memory).
  std::vector<NodeId> candidates;
  {
    const size_t n = info.sharing.size();
    if (n > 1 && system_.config().internode_paging) {
      const NodeId cursor_node = info.sharing[os.pageout_cursor % n];
      ++os.pageout_cursor;
      if (cursor_node != node_) {
        candidates.push_back(cursor_node);
      }
      if (os.last_pageout_accept != kInvalidNode && os.last_pageout_accept != node_ &&
          os.last_pageout_accept != cursor_node) {
        candidates.push_back(os.last_pageout_accept);
      }
    }
  }
  for (NodeId target : candidates) {
    const uint64_t op = OpenRound({target}, "pageout-offer", id, page);
    Future<Status> replied = OpFuture(op);
    Send(target, AsvmMsgType::kPageoutOffer, PageoutOffer{id, page, version, dirty, op}, data);
    ArmOp(op, [this, target, id, page, version, dirty, data, op]() {
      Send(target, AsvmMsgType::kPageoutOffer, PageoutOffer{id, page, version, dirty, op}, data);
    });
    Status s = co_await replied;
    if (IsOk(s)) {
      counters_.evict_page_transfers.Add(stats_, "asvm.evict_page_transfers");
      Trace(TraceKind::kEvictStep, id, page, target, 3);
      os.last_pageout_accept = target;
      PageState& ps = page_state(os, page);
      ps.owner = false;
      ps.busy = false;
      ps.readers.clear();
      os.dyn_hints->Put(page, target);
      NotifyHomeOwner(id, page, target);
      ForwardQueue(id, page, target);
      PruneState(os, page);
      co_return;
    }
  }

  // Step 4: return the page to the memory object's pager (its home; for copy
  // objects the peer stores it in local paging space).
  for (;;) {
    const uint64_t op = OpenOp(1, "writeback", id, page);
    Future<Status> acked = OpFuture(op);
    const NodeId home = info.Terminal(page);
    WritebackMsg m{id, page, version, dirty, op};
    if (home == node_) {
      OnWriteback(node_, m, data);
    } else {
      if (PendingOp* pending = FindOp(op); pending != nullptr) {
        pending->targets = {home};
      }
      Send(home, AsvmMsgType::kWriteback, m, data);
      ArmOp(op, [this, home, m, data]() { Send(home, AsvmMsgType::kWriteback, m, data); });
    }
    const Status ws = co_await acked;
    if (!IsOk(ws) && failover_.enabled && !info.IsCopy()) {
      // The home died with the only copy of this page in flight: promote its
      // backup at the next sequencing point and return the contents there,
      // so they survive the failover.
      Promise<Status> promoted(vm_.engine());
      system_.cluster().Mutate(node_, [this, id, promoted]() {
        system_.PromoteIfHomeDead(id);
        vm_.engine().Post([promoted]() { promoted.Set(Status::kOk); });
      });
      co_await promoted.GetFuture();
      system_.failover_counters().reissues.Add(stats_, kStatReissues);
      continue;
    }
    counters_.evict_writebacks.Add(stats_, "asvm.evict_writebacks");
    Trace(TraceKind::kEvictStep, id, page, home, 4);
    PageState& ps = page_state(os, page);
    ps.owner = false;
    ps.busy = false;
    ps.readers.clear();
    os.dyn_hints->Erase(page);
    ForwardQueue(id, page, home);
    PruneState(os, page);
    co_return;
  }
}

void AsvmAgent::OnOwnershipOffer(NodeId src, const OwnershipOffer& m) {
  if (DuplicateDelivery(m.op_id)) {
    return;  // a retry's second copy; the first answer already went out
  }
  ObjectState& os = obj_state(m.object);
  PageState* found = os.pages.Find(m.page);
  const bool have_copy = os.repr != nullptr && os.repr->FindResident(m.page) != nullptr &&
                         found != nullptr && found->access != PageAccess::kNone &&
                         !found->busy;
  if (have_copy) {
    PageState& ps = *found;
    ps.owner = true;
    ps.version = m.page_version;
    ps.readers = m.readers;
    counters_.ownership_offers_accepted.Add(stats_, "asvm.ownership_offers_accepted");
  }
  Send(src, AsvmMsgType::kOwnershipOfferReply, OfferReply{m.object, m.page, have_copy, m.op_id});
}

void AsvmAgent::OnPageoutOffer(NodeId src, const PageoutOffer& m, PageBuffer data) {
  if (DuplicateDelivery(m.op_id)) {
    return;
  }
  ObjectState& os = obj_state(m.object);
  const PageState* found = os.pages.Find(m.page);
  const bool busy_here = found != nullptr && (found->busy || found->pending);
  const bool room = vm_.free_frames() > system_.config().pageout_min_free_frames;
  const bool accept = room && !busy_here && os.repr != nullptr;
  if (accept) {
    vm_.DataSupply(*os.repr, m.page, std::move(data), PageAccess::kRead,
                   SupplyMode::kNormal, m.dirty);
    PageState& ps = page_state(os, m.page);
    ps.owner = true;
    ps.access = PageAccess::kRead;
    ps.version = m.page_version;
    ps.readers.clear();
    counters_.pageout_offers_accepted.Add(stats_, "asvm.pageout_offers_accepted");
  } else {
    counters_.pageout_offers_declined.Add(stats_, "asvm.pageout_offers_declined");
  }
  Send(src, AsvmMsgType::kPageoutOfferReply, OfferReply{m.object, m.page, accept, m.op_id});
}

void AsvmAgent::OnWriteback(NodeId src, const WritebackMsg& m, PageBuffer data) {
  if (DuplicateDelivery(m.op_id)) {
    return;
  }
  AsvmObjectInfo& info = system_.info(m.object);
  ASVM_CHECK(info.Terminal(m.page) == node_);
  ObjectState& os = obj_state(m.object);
  auto& hp = os.home_pages.GetOrCreate(m.page);
  hp.owner_exists = false;
  hp.last_owner = kInvalidNode;
  hp.version = m.page_version;
  Trace(TraceKind::kWriteback, m.object, m.page, src);
  // This writeback supersedes any promotion-recovered contents, and (dirty,
  // home-backed) is the one durable copy — shadow it to the backup so the
  // contents survive if this home dies next (DESIGN.md §14).
  os.recovered.Erase(m.page);
  os.lost.erase(m.page);
  if (failover_.enabled && m.dirty && !info.IsCopy() && !info.file_backed) {
    shadow().MirrorToBackup(node_, m.object, m.page, m.page_version, data);
  }

  auto finish = [this, src, m]() {
    if (src == node_) {
      ResolveOp(m.op_id, Status::kOk);
    } else {
      Send(src, AsvmMsgType::kWritebackAck, OfferReply{m.object, m.page, true, m.op_id});
    }
  };

  // Tell the static ownership manager the page is with the pager now.
  if (system_.config().static_forwarding) {
    const NodeId mgr = system_.StaticManagerOf(info, m.page);
    StaticHintMsg hint{m.object, m.page, StaticHintKind::kPaged, kInvalidNode};
    if (mgr == node_) {
      OnStaticHint(hint);
    } else {
      Send(mgr, AsvmMsgType::kStaticHint, hint);
    }
  }

  if (!m.dirty) {
    // Clean: the backing (or zero-fill origin) still covers the contents.
    finish();
    return;
  }
  if (info.IsCopy()) {
    // Copy objects have no pager of their own: the peer keeps the contents in
    // its paging space, where the pull walk will find them.
    ASVM_CHECK(os.repr != nullptr);
    vm_.default_pager()->WritePage(os.repr->serial(), m.page, std::move(data));
    finish();
    return;
  }
  info.backing->Write(m.page, std::move(data), finish);
}

// --- Push operation and scans (§3.7.2) -------------------------------------------

Task AsvmAgent::PushIfNeeded(MemObjectId id, PageIndex page, PageBuffer pre_write,
                             uint64_t current_version, Promise<uint64_t> new_version) {
  AsvmObjectInfo& info = system_.info(id);
  if (!info.newest_copy.valid() || current_version == info.object_version) {
    new_version.Set(info.object_version);
    co_return;
  }
  const uint64_t target_version = info.object_version;
  const AsvmObjectInfo& copy_info = system_.info(info.newest_copy);
  counters_.push_operations.Add(stats_, "asvm.push_operations");
  Trace(TraceKind::kPush, id, page);

  // Push scan: if the copy object is shared, the page may already exist in
  // its space (an earlier pull or push) — then this push is cancelled.
  if (copy_info.sharing.size() > 1) {
    AccessRequest scan;
    scan.target = info.newest_copy;
    scan.search = info.newest_copy;
    scan.page = page;
    scan.access = PageAccess::kRead;
    scan.origin = node_;
    scan.is_push_scan = true;
    scan.req_id = system_.NextOpId(node_);
    Promise<bool> found(vm_.engine());
    scan_waiters_.emplace(scan.req_id, found);
    counters_.push_scans.Add(stats_, "asvm.push_scans");
    Trace(TraceKind::kPushScan, info.newest_copy, page);
    HandleRequest(std::move(scan));
    const bool present = co_await found.GetFuture();
    if (present) {
      counters_.push_cancelled_by_scan.Add(stats_, "asvm.push_cancelled_by_scan");
      new_version.Set(target_version);
      co_return;
    }
  }

  // Local side: if this node holds the copy-chain links, push in place.
  ObjectState& os = obj_state(id);
  if (copy_info.peer == node_ && os.repr != nullptr && os.repr->copy() != nullptr) {
    if (os.repr->FindResident(page) != nullptr) {
      Promise<Status> lock_done(vm_.engine());
      vm_.LockRequest(*os.repr, page, PageAccess::kRead, LockMode::kPushAndLock,
                      [lock_done](LockResult) { lock_done.Set(Status::kOk); });
      co_await lock_done.GetFuture();
    } else {
      vm_.DataSupply(*os.repr, page, pre_write, PageAccess::kRead, SupplyMode::kPushToCopy);
    }
    // The pushed page now lives in the copy object on this node; claim its
    // ownership in the copy space so scans and requests find it.
    ObjectState& cs = obj_state(info.newest_copy);
    PageState& cps = page_state(cs, page);
    if (!cps.owner) {
      cps.owner = true;
      cps.access = PageAccess::kRead;
      cps.version = 0;
      cs.home_pages.GetOrCreate(page).owner_exists = true;
    }
  }

  // Remote side: every other node sharing the source pushes/flushes; the
  // newest copy's peer additionally feeds its copy chain.
  std::vector<NodeId> targets;
  for (NodeId s : info.sharing) {
    if (s != node_) {
      targets.push_back(s);
    }
  }
  if (!targets.empty()) {
    // Dead sharers resolve the round kNodeDown, not a wedge.
    const uint64_t op = OpenRound(targets, "push-round", id, page);
    Future<Status> all_replied = OpFuture(op);
    const NodeId copy_peer = copy_info.peer;
    for (NodeId s : targets) {
      Send(s, AsvmMsgType::kPushRequest,
           PushRequest{id, page, /*push_into_copy=*/s == copy_peer, op});
    }
    ArmRound(op, [this, id, page, op, copy_peer](NodeId s) {
      Send(s, AsvmMsgType::kPushRequest, PushRequest{id, page, s == copy_peer, op});
    });
    co_await all_replied;

    // Second round: ship contents to nodes whose copy chain needs the page.
    PendingOp* pending = FindOp(op);
    std::vector<NodeId> need_data;
    if (pending != nullptr) {
      need_data = std::move(pending->need_data);
      EraseOp(op);
    }
    if (!need_data.empty()) {
      const uint64_t op2 = OpenRound(need_data, "push-data-round", id, page);
      Future<Status> all_acked = OpFuture(op2);
      for (NodeId s : need_data) {
        Send(s, AsvmMsgType::kPushData, PushData{id, page, op2}, pre_write);
      }
      ArmRound(op2, [this, id, page, op2, pre_write](NodeId s) {
        Send(s, AsvmMsgType::kPushData, PushData{id, page, op2}, pre_write);
      });
      co_await all_acked;
    }
  }
  new_version.Set(target_version);
}

void AsvmAgent::OnPushRequest(NodeId src, const PushRequest& m) {
  if (DuplicateDelivery(m.op_id)) {
    return;
  }
  ObjectState& os = obj_state(m.object);
  PushReply reply{m.object, m.page, false, false, m.op_id};
  if (os.repr == nullptr) {
    Send(src, AsvmMsgType::kPushReply, reply);
    return;
  }
  const bool resident = os.repr->FindResident(m.page) != nullptr;
  reply.was_resident = resident;
  const bool has_chain = m.push_into_copy && os.repr->copy() != nullptr;

  auto claim_copy_ownership = [this, m]() {
    const AsvmObjectInfo& info = system_.info(m.object);
    ObjectState& cs = obj_state(info.newest_copy);
    PageState& cps = page_state(cs, m.page);
    if (!cps.owner) {
      cps.owner = true;
      cps.access = PageAccess::kRead;
      cps.version = 0;
      cs.home_pages.GetOrCreate(m.page).owner_exists = true;
    }
  };

  if (resident) {
    // Push down the local chain (if present), then invalidate in the source.
    const LockMode mode = has_chain ? LockMode::kPushAndFlush : LockMode::kFlush;
    vm_.LockRequest(*os.repr, m.page, PageAccess::kNone, mode,
                    [this, src, reply, has_chain, claim_copy_ownership](LockResult) {
                      if (has_chain) {
                        claim_copy_ownership();
                      }
                      Send(src, AsvmMsgType::kPushReply, reply);
                    });
    // Our source-page state is gone now.
    if (PageState* src_ps = os.pages.Find(m.page); src_ps != nullptr) {
      src_ps->access = PageAccess::kNone;
      PruneState(os, m.page);
    }
    return;
  }
  if (has_chain) {
    // Ask the initiator for the contents unless the chain already has them.
    VmObject* copy = os.repr->copy().get();
    const bool copy_has =
        copy->FindResident(m.page) != nullptr ||
        vm_.default_pager()->HasPage(copy->serial(), m.page);
    reply.needs_data = !copy_has;
  }
  Send(src, AsvmMsgType::kPushReply, reply);
}

void AsvmAgent::OnPushData(NodeId src, const PushData& m, PageBuffer data) {
  if (DuplicateDelivery(m.op_id)) {
    return;
  }
  ObjectState& os = obj_state(m.object);
  ASVM_CHECK(os.repr != nullptr && os.repr->copy() != nullptr);
  vm_.DataSupply(*os.repr, m.page, std::move(data), PageAccess::kRead,
                 SupplyMode::kPushToCopy);
  const AsvmObjectInfo& info = system_.info(m.object);
  ObjectState& cs = obj_state(info.newest_copy);
  PageState& cps = page_state(cs, m.page);
  if (!cps.owner) {
    cps.owner = true;
    cps.access = PageAccess::kRead;
    cps.version = 0;
    cs.home_pages.GetOrCreate(m.page).owner_exists = true;
  }
  Send(src, AsvmMsgType::kPushDataAck, OfferReply{m.object, m.page, true, m.op_id});
}

// --- Copy creation support -------------------------------------------------------

Future<Status> AsvmAgent::MarkObjectReadOnly(const MemObjectId& id) {
  Promise<Status> done(vm_.engine());
  ObjectState& os = obj_state(id);
  if (os.repr != nullptr) {
    for (auto& [page, vp] : os.repr->resident_pages()) {
      VmPage* p = os.repr->FindResident(page);
      if (p->lock == PageAccess::kWrite) {
        p->lock = PageAccess::kRead;
      }
      if (PageState* sp = os.pages.Find(page);
          sp != nullptr && sp->access == PageAccess::kWrite) {
        sp->access = PageAccess::kRead;
      }
    }
  }
  // One lock_request sweep worth of work.
  vm_.engine().Schedule(vm_.costs().pager_call_ns,
                        [done]() { done.Set(Status::kOk); });
  return done.GetFuture();
}

void AsvmAgent::OnMarkReadOnly(NodeId src, const MarkReadOnly& m) {
  if (DuplicateDelivery(m.op_id)) {
    return;
  }
  Future<Status> f = MarkObjectReadOnly(m.object);
  // Completion is quick and local; ack once done.
  (void)[](AsvmAgent* self, NodeId src, MarkReadOnly m, Future<Status> f) -> Task {
    co_await f;
    self->Send(src, AsvmMsgType::kMarkReadOnlyAck, OfferReply{m.object, 0, true, m.op_id});
  }(this, src, m, f);
}

// --- Dispatcher --------------------------------------------------------------------

void AsvmAgent::OnMessage(NodeId src, Message& msg) {
  AsvmBody& body = std::get<AsvmBody>(msg.body);
  // -Werror=switch keeps this dispatcher exhaustive over AsvmMsgType.
  switch (static_cast<AsvmMsgType>(msg.type)) {
    case AsvmMsgType::kAccessRequest:
      HandleRequest(std::get<AccessRequest>(std::move(body)));
      return;
    case AsvmMsgType::kAccessReply:
      OnAccessReply(src, std::get<AccessReply>(body), std::move(msg.page));
      return;
    case AsvmMsgType::kPullDone:
      OnPullDone(std::get<PullDone>(body));
      return;
    case AsvmMsgType::kInvalidate:
      OnInvalidate(src, std::get<InvalidateMsg>(body));
      return;
    case AsvmMsgType::kInvalidateAck:
    case AsvmMsgType::kOwnershipOfferReply:
    case AsvmMsgType::kPageoutOfferReply:
    case AsvmMsgType::kWritebackAck:
    case AsvmMsgType::kPushDataAck:
    case AsvmMsgType::kMarkReadOnlyAck: {
      const auto& reply = std::get<OfferReply>(body);
      if (!reply.accepted &&
          static_cast<AsvmMsgType>(msg.type) != AsvmMsgType::kInvalidateAck) {
        // Offers: a decline resolves the single-shot op with failure.
        ResolveOp(reply.op_id, Status::kUnavailable);
        return;
      }
      AckOp(reply.op_id, src);
      return;
    }
    case AsvmMsgType::kOwnershipOffer:
      OnOwnershipOffer(src, std::get<OwnershipOffer>(body));
      return;
    case AsvmMsgType::kPageoutOffer:
      OnPageoutOffer(src, std::get<PageoutOffer>(body), std::move(msg.page));
      return;
    case AsvmMsgType::kWriteback:
      OnWriteback(src, std::get<WritebackMsg>(body), std::move(msg.page));
      return;
    case AsvmMsgType::kPushRequest:
      OnPushRequest(src, std::get<PushRequest>(body));
      return;
    case AsvmMsgType::kPushReply: {
      const auto& reply = std::get<PushReply>(body);
      PendingOp* op = FindOp(reply.op_id);
      if (op == nullptr) {
        CountDuplicate();  // late reply to a push round that already resolved
        return;
      }
      if (std::find(op->acked.begin(), op->acked.end(), src) != op->acked.end()) {
        CountDuplicate();  // a retry's second reply; need_data already recorded
        return;
      }
      if (reply.needs_data) {
        op->need_data.push_back(src);
      }
      // Keep the op alive on completion: the push coroutine harvests
      // need_data, then erases it.
      AckOp(reply.op_id, src, /*keep_entry=*/true);
      return;
    }
    case AsvmMsgType::kPushData:
      OnPushData(src, std::get<PushData>(body), std::move(msg.page));
      return;
    case AsvmMsgType::kMarkReadOnly:
      OnMarkReadOnly(src, std::get<MarkReadOnly>(body));
      return;
    case AsvmMsgType::kStaticHint:
      OnStaticHint(std::get<StaticHintMsg>(body));
      return;
    case AsvmMsgType::kShadowUpdate:
      shadow().OnUpdate(std::get<ShadowUpdate>(body), std::move(msg.page));
      return;
    case AsvmMsgType::kShadowManifest:
      shadow().OnManifest(std::get<ShadowUpdate>(body));
      return;
  }
  ASVM_CHECK_MSG(false, "unknown ASVM message type");
}

void AsvmAgent::OnInvalidate(NodeId src, const InvalidateMsg& m) {
  if (DuplicateDelivery(m.op_id)) {
    return;  // already invalidated and acked; the initiator dedupes acks too
  }
  ObjectState& os = obj_state(m.object);
  if (os.repr != nullptr && os.repr->FindResident(m.page) != nullptr) {
    vm_.LockRequest(*os.repr, m.page, PageAccess::kNone, LockMode::kFlush,
                    [](LockResult) {});
  }
  if (PageState* inv_ps = os.pages.Find(m.page); inv_ps != nullptr) {
    inv_ps->access = PageAccess::kNone;
    PruneState(os, m.page);
  }
  counters_.invalidations_received.Add(stats_, "asvm.invalidations_received");
  Send(src, AsvmMsgType::kInvalidateAck, OfferReply{m.object, m.page, true, m.op_id});
}

}  // namespace asvm
