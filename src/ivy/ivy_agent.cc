#include "src/ivy/ivy_agent.h"

#include <algorithm>
#include <utility>

#include "src/common/log.h"
#include "src/dsm/failover.h"
#include "src/machvm/page.h"

namespace asvm {

namespace {

// Forwarding-hop ceiling: a healthy chain never exceeds one hop per node
// (each hop lands on a strictly newer hint), so anything longer is a cycle
// opened by a mid-walk death. The request is dropped and the origin's retry
// machinery chases the repaired chain instead of orbiting forever.
int MaxHops(int node_count) { return node_count * 4; }

}  // namespace

IvyAgent::IvyAgent(IvySystem& system, NodeId node)
    : ProtocolAgent(system, node, TraceProtocol::kIvy),
      system_(system),
      counters_(system.agent_counters()),
      vm_(system.cluster().vm(node)),
      copy_pager_(*this, system.cluster().engine_for(node), system.config().copy_pager_threads) {
  Listen(system_.cluster().norma(), ProtocolId::kIvy);
}

IvyAgent::~IvyAgent() = default;

IvyAgent::ObjState& IvyAgent::obj_state(const MemObjectId& id) {
  auto it = objs_.find(id);
  if (it == objs_.end()) {
    auto os = std::make_unique<ObjState>();
    os->hints.SetPageCount(system_.info(id).pages);
    it = objs_.emplace(id, std::move(os)).first;
  }
  return *it->second;
}

void IvyAgent::AdoptHomePages(const MemObjectId& id, VmSize pages) {
  ObjState& os = obj_state(id);
  for (PageIndex p = 0; p < static_cast<PageIndex>(pages); ++p) {
    os.owned.try_emplace(p);
  }
}

bool IvyAgent::Owns(const MemObjectId& id, PageIndex page) const {
  auto it = objs_.find(id);
  return it != objs_.end() && it->second->owned.count(page) != 0;
}

NodeId IvyAgent::ProbableOwner(const MemObjectId& id, PageIndex page) const {
  auto it = objs_.find(id);
  if (it != objs_.end()) {
    if (const ObjState::Hint* h = it->second->hints.Find(page);
        h != nullptr && h->owner != kInvalidNode) {
      return h->owner;
    }
  }
  return system_.info(id).home;
}

NodeId IvyAgent::HintFor(const MemObjectId& id, PageIndex page) {
  ObjState& os = obj_state(id);
  if (ObjState::Hint* h = os.hints.Find(page); h != nullptr && h->owner != kInvalidNode) {
    return h->owner;
  }
  return system_.info(id).home;
}

void IvyAgent::SetHint(const MemObjectId& id, PageIndex page, NodeId owner) {
  obj_state(id).hints.GetOrCreate(page).owner = owner;
}

size_t IvyAgent::MetadataBytes() const {
  // IVY's pitch against the centralized manager: per-node state is one hint
  // per locally touched page plus owner records for pages owned here — no
  // Θ(pages × nodes) table anywhere.
  size_t bytes = 0;
  for (const auto& [id, os] : objs_) {
    bytes += os->hints.size() * sizeof(ObjState::Hint);
    for (const auto& [page, st] : os->owned) {
      bytes += sizeof(OwnerState) + st.copyset.size() * sizeof(NodeId);
    }
  }
  bytes += reprs_.size() * 64;  // per-object kernel records
  return bytes;
}

bool IvyAgent::DescribeStall(std::string& out) const {
  bool blocked = ProtocolAgent::DescribeStall(out);
  for (const MemObjectId& id : SortedKeys(objs_)) {
    for (const auto& [page, st] : objs_.at(id)->owned) {
      if (!st.busy && st.queue.empty()) {
        continue;
      }
      blocked = true;
      out += "  ivy owner node " + std::to_string(node_) + ": object " + id.ToString() +
             " page " + std::to_string(page) + (st.busy ? " busy" : " idle") + ", " +
             std::to_string(st.queue.size()) + " requests queued\n";
    }
    for (const auto& [page, parked] : objs_.at(id)->parked) {
      if (parked.empty()) {
        continue;
      }
      blocked = true;
      out += "  ivy faulter node " + std::to_string(node_) + ": object " + id.ToString() +
             " page " + std::to_string(page) + ", " + std::to_string(parked.size()) +
             " requests parked behind local fault\n";
    }
  }
  return blocked;
}

// --- Pager upcalls ----------------------------------------------------------

void IvyAgent::DataRequest(VmObject& object, PageIndex page, PageAccess desired) {
  counters_.data_requests.Add(stats_, "ivy.data_requests");
  SendRequest(object.id(), page, desired, /*has_copy=*/false);
}

void IvyAgent::DataUnlock(VmObject& object, PageIndex page, PageAccess desired) {
  counters_.data_unlocks.Add(stats_, "ivy.data_unlocks");
  SendRequest(object.id(), page, desired, /*has_copy=*/true);
}

void IvyAgent::SendRequest(const MemObjectId& id, PageIndex page, PageAccess access,
                           bool has_copy, uint64_t reuse_op) {
  const DirectoryRecord& info = system_.info(id);
  if (info.IsCopyObject()) {
    copy_pager_.Request(id, page, access, info.copy_pager_node);
    return;
  }
  IvyRequest req{id, page, access, node_, has_copy, /*op_id=*/0, /*hops=*/0};
  if (Owns(id, page)) {
    // The faulting node is the owner: no wire traffic at all — the property
    // the paper credits dynamic ownership for on write-heavy sharing.
    counters_.local_serves.Add(stats_, "dsm.ivy.local_serves");
    Trace(TraceKind::kIvyRequest, id, page, node_, static_cast<int64_t>(access));
    OwnerHandle(std::move(req));
    return;
  }
  // Lock the page-table entry for the whole fault (Li & Hudak): until the
  // grant comes back, this node's hint for the page is exactly the stale
  // pointer the walk is chasing, so requests forwarded here meanwhile park
  // behind the fault instead of being routed by it (see ForwardTask).
  obj_state(id).faulting.insert(page);
  const NodeId target = HintFor(id, page);
  // A reissue keeps the original id (ASVM's ArmRequest discipline): if the
  // true owner already started serving the first attempt, the resend dedups
  // there and the eventual reply resolves the live op instead of being
  // dropped as a straggler — which would lose a granted transfer and loop.
  req.op_id = reuse_op != 0 ? reuse_op : system_.NextOpId(node_);
  counters_.requests.Add(stats_, "dsm.ivy.requests");
  Trace(TraceKind::kIvyRequest, id, page, target, static_cast<int64_t>(access), req.op_id);
  if (ArmsRequests()) {
    // Arm a pending op on the request itself so owner silence is detected.
    // The resend re-reads the hint: a death notice or a bystander's reclaim
    // may have re-aimed the chain since the last attempt.
    RegisterOp(req.op_id, 1, "ivy-request", id, page);
    if (PendingOp* op = FindOp(req.op_id); op != nullptr) {
      op->targets = {target};
      // kNodeDown/kTimeout: reclaim the page if its owner died, then replay
      // the request along the repaired chain under the original op id.
      op->on_fail = [this, id, page, access, has_copy, op_id = req.op_id](Status) {
        ReissueAfter([this, id, page]() { system_.ReclaimIfOwnerDead(id, page, node_); },
                     [this, id, page, access, has_copy, op_id]() {
                       SendRequest(id, page, access, has_copy, op_id);
                     });
      };
    }
    ArmOp(req.op_id, [this, req]() {
      if (Owns(req.object, req.page)) {
        // Ownership landed here while the op was in flight (a straggler
        // write grant): serve the fault locally through the owner path.
        OwnerHandle(req);
        return;
      }
      const NodeId t = HintFor(req.object, req.page);
      if (PendingOp* op = FindOp(req.op_id); op != nullptr) {
        op->targets = {t};
      }
      Send(t, IvyMsgType::kRequest, req);
    });
  }
  Send(target, IvyMsgType::kRequest, req);
}

// --- Forwarding -------------------------------------------------------------

Task IvyAgent::ForwardTask(IvyRequest req) {
  // Relaying costs CPU on every hop — the price IVY pays instead of the
  // centralized manager's single (congested) hop.
  co_await Delay(vm_.engine(), system_.config().forward_process_ns);
  if (Owns(req.object, req.page)) {
    // Ownership arrived here while the relay was in flight.
    OwnerHandle(std::move(req));
    co_return;
  }
  if (req.hops >= MaxHops(system_.cluster().node_count())) {
    counters_.dropped_forwards.Add(stats_, "dsm.ivy.dropped_forwards");
    co_return;
  }
  ObjState& os = obj_state(req.object);
  if (req.origin != node_ && os.faulting.count(req.page) != 0) {
    // This node's own fault on the page is unresolved, so its hint is the
    // stale pointer that walk is busy replacing — routing someone else's
    // request by it can orbit (two in-flight write compressions aiming hints
    // at each other). Park the request behind our fault; the grant names the
    // true owner (or makes us the owner) and DrainParked re-routes it.
    os.parked[req.page].push_back(std::move(req));
    counters_.parked_requests.Add(stats_, "dsm.ivy.parked_requests");
    co_return;
  }
  NodeId next = HintFor(req.object, req.page);
  if (next == node_) {
    // Stale self-hint (a cut chain landed here): fall back to the home.
    next = system_.info(req.object).home;
  }
  ++req.hops;
  counters_.forwards.Add(stats_, "dsm.ivy.forwards");
  Trace(TraceKind::kIvyForward, req.object, req.page, next, req.hops, req.op_id);
  if (req.access == PageAccess::kWrite) {
    // The requester is about to become the owner: compress this node's chain
    // toward it now instead of after another full walk (Li & Hudak's path
    // compression on forwards).
    SetHint(req.object, req.page, req.origin);
  }
  if (next == node_) {
    co_return;  // nowhere live to aim; the origin's retries chase the repair
  }
  Send(next, IvyMsgType::kRequest, std::move(req));
}

// --- Owner role -------------------------------------------------------------

IvyAgent::OwnerState* IvyAgent::OwnedState(const MemObjectId& id, PageIndex page) {
  auto it = objs_.find(id);
  if (it == objs_.end()) {
    return nullptr;
  }
  auto pit = it->second->owned.find(page);
  return pit == it->second->owned.end() ? nullptr : &pit->second;
}

void IvyAgent::OwnerHandle(IvyRequest req) {
  OwnerState* st = OwnedState(req.object, req.page);
  if (st == nullptr) {
    // Raced with an ownership transfer: relay along the (fresh) hint.
    (void)ForwardTask(std::move(req));
    return;
  }
  if (st->busy) {
    st->queue.push_back(std::move(req));
    return;
  }
  st->busy = true;
  (void)OwnerServe(std::move(req));
}

Future<Status> IvyAgent::StackProcess() {
  return Process(system_.config().stack_process_ns);
}

void IvyAgent::DeliverReply(const IvyRequest& req, const IvyReply& reply, PageBuffer data) {
  Trace(TraceKind::kIvyGrant, req.object, req.page, req.origin,
        reply.lost ? -1 : static_cast<int64_t>(reply.granted), req.op_id);
  if (req.origin == node_) {
    if (req.op_id != 0 && FindOp(req.op_id) != nullptr) {
      ResolveOp(req.op_id, reply.lost ? Status::kDataLost : Status::kOk);
    }
    ApplyGrant(req.object, req.page, reply, std::move(data));
    return;
  }
  Send(req.origin, IvyMsgType::kReply, reply, std::move(data));
}

Task IvyAgent::OwnerServe(IvyRequest req) {
  Engine& engine = vm_.engine();
  const MemObjectId id = req.object;
  DirectoryRecord& info = system_.info(id);
  const bool self = req.origin == node_;

  co_await StackProcess();
  OwnerState* st = OwnedState(id, req.page);
  if (st == nullptr) {
    co_return;  // reclaimed away (buried or cold-restarted) while parked
  }
  counters_.owner_requests.Add(stats_, "dsm.ivy.owner_requests");
  stats_.Observe("dsm.ivy.chain_length", static_cast<double>(req.hops));
  Trace(TraceKind::kIvyServe, id, req.page, req.origin, req.hops, req.op_id);

  if (st->lost) {
    // A reclaim proved this page was committed and then lost with its owner
    // and every replica: the fault must fail, not zero-fill.
    IvyReply reply{id,    req.page,           req.access, /*zero_fill=*/false,
                   false, /*ownership=*/false, node_,      req.op_id,
                   /*lost=*/true};
    counters_.lost_page_replies.Add(stats_, "dsm.ivy.lost_page_replies");
    DeliverReply(req, reply, nullptr);
    FinishServe(id, req.page);
    co_return;
  }

  auto rit = reprs_.find(id);
  VmObject* repr = rit == reprs_.end() ? nullptr : rit->second.get();
  const SimDuration supply_cost =
      info.file_backed ? vm_.costs().pager_call_ns : system_.config().pager_supply_ns;
  const bool is_home = info.home == node_ && info.backing != nullptr;

  if (req.access == PageAccess::kWrite) {
    // Invalidate every read copy except the requester's, re-aiming each
    // reader's hint at the new owner (chain compression on invalidation).
    const bool upgrade =
        req.has_copy &&
        (self ? (repr != nullptr && repr->FindResident(req.page) != nullptr)
              : st->copyset.count(req.origin) != 0);
    std::vector<NodeId> targets(st->copyset.begin(), st->copyset.end());
    targets.erase(std::remove(targets.begin(), targets.end(), req.origin), targets.end());
    const NodeId new_owner = self ? node_ : req.origin;
    targets = DropDeadTargets(std::move(targets), [&](NodeId r) { st->copyset.erase(r); });
    if (!targets.empty()) {
      const uint64_t op = OpenRound(targets, "ivy-invalidate-round", id, req.page);
      Future<Status> acked = OpFuture(op);
      for (NodeId r : targets) {
        Trace(TraceKind::kIvyInvalidate, id, req.page, r, 0, op);
        counters_.invalidations.Add(stats_, "dsm.ivy.invalidations");
        Send(r, IvyMsgType::kInvalidate, IvyInvalidate{id, req.page, new_owner, op});
      }
      ArmRound(op, [this, id, page = req.page, new_owner, op](NodeId r) {
        Send(r, IvyMsgType::kInvalidate, IvyInvalidate{id, page, new_owner, op});
      });
      co_await acked;
      EraseOp(op);
      st = OwnedState(id, req.page);
      if (st == nullptr) {
        co_return;
      }
    }
    st->copyset.clear();

    if (self) {
      // Already the owner: upgrade or first-touch supply in place.
      if (upgrade) {
        vm_.LockGranted(*repr, req.page, PageAccess::kWrite);
        counters_.self_upgrades.Add(stats_, "dsm.ivy.self_upgrades");
        Trace(TraceKind::kIvyGrant, id, req.page, node_,
              static_cast<int64_t>(PageAccess::kWrite), req.op_id);
        if (req.op_id != 0 && FindOp(req.op_id) != nullptr) {
          ResolveOp(req.op_id, Status::kOk);
        }
        // This is the one fault resolution that bypasses ApplyGrant — unlock
        // the page-table entry here too, or requests parked behind the fault
        // (see ForwardTask) stay parked forever.
        DrainParked(id, req.page);
        FinishServe(id, req.page);
        co_return;
      }
      PageBuffer data = st->pager_copy;
      bool zero_fill = false;
      if (data != nullptr) {
        co_await Delay(engine, supply_cost);
      } else if (is_home && info.backing->HasData(req.page)) {
        data = co_await info.backing->ReadAsync(engine, req.page, vm_.page_size());
        co_await Delay(engine, info.file_backed ? 0 : system_.config().pager_supply_ns);
      } else {
        if (is_home) {
          co_await info.backing->GrantFreshAsync(engine, req.page);
        }
        co_await Delay(engine, system_.config().pager_fresh_ns);
        zero_fill = true;
      }
      st = OwnedState(id, req.page);
      if (st == nullptr) {
        co_return;
      }
      // The kernel's writable copy supersedes the protocol-level one.
      st->pager_copy = nullptr;
      IvyReply reply{id,    req.page, PageAccess::kWrite, zero_fill,
                     false, /*ownership=*/false, node_, req.op_id, false};
      counters_.write_grants.Add(stats_, "dsm.ivy.write_grants");
      DeliverReply(req, reply, zero_fill ? nullptr : std::move(data));
      FinishServe(id, req.page);
      co_return;
    }

    // Remote writer: extract our own copy (single-writer), gather the newest
    // contents, and hand the page plus ownership over. Contents travel even
    // on upgrades when we hold them — insurance against the requester's read
    // copy having been evicted while the upgrade was in flight.
    PageBuffer data;
    bool zero_fill = false;
    if (repr != nullptr) {
      NodeVm::Extracted ex = vm_.ExtractPage(*repr, req.page);
      if (ex.was_resident) {
        data = std::move(ex.data);
      }
    }
    if (data == nullptr && st->pager_copy != nullptr) {
      data = std::move(st->pager_copy);
    }
    if (data != nullptr) {
      if (!upgrade) {
        co_await Delay(engine, supply_cost);
      }
    } else if (is_home && info.backing->HasData(req.page)) {
      data = co_await info.backing->ReadAsync(engine, req.page, vm_.page_size());
      co_await Delay(engine, info.file_backed ? 0 : system_.config().pager_supply_ns);
    } else if (!upgrade) {
      if (is_home) {
        co_await info.backing->GrantFreshAsync(engine, req.page);
      }
      co_await Delay(engine, system_.config().pager_fresh_ns);
      zero_fill = true;
    }
    st = OwnedState(id, req.page);
    if (st == nullptr) {
      co_return;
    }
    // Transfer: drain the parked queue first, then erase the owner record and
    // aim our own chain at the new owner.
    std::deque<IvyRequest> parked = std::move(st->queue);
    objs_.at(id)->owned.erase(req.page);
    SetHint(id, req.page, req.origin);
    IvyReply reply{id,
                   req.page,
                   PageAccess::kWrite,
                   zero_fill && !upgrade,
                   upgrade,
                   /*ownership=*/true,
                   req.origin,
                   req.op_id,
                   false};
    if (upgrade) {
      counters_.write_upgrade_grants.Add(stats_, "dsm.ivy.write_upgrade_grants");
    } else {
      counters_.write_grants.Add(stats_, "dsm.ivy.write_grants");
    }
    counters_.ownership_moves.Add(stats_, "dsm.ivy.ownership_moves");
    Trace(TraceKind::kOwnershipMoved, id, req.page, req.origin, 0, req.op_id);
    DeliverReply(req, reply, zero_fill ? nullptr : std::move(data));
    for (auto& q : parked) {
      if (q.origin == node_) {
        // Our own parked fault: re-enter the request path so it gets a fresh
        // op id and failover arming toward the new owner.
        SendRequest(id, q.page, q.access, q.has_copy);
      } else {
        (void)ForwardTask(std::move(q));
      }
    }
    co_return;
  }

  // Read request: serve a copy, record the reader, keep ownership.
  if (!self) {
    st->copyset.insert(req.origin);
  }
  PageBuffer data;
  bool zero_fill = false;
  VmPage* vp = repr == nullptr ? nullptr : repr->FindResident(req.page);
  if (vp != nullptr) {
    if (AccessAllows(vp->lock, PageAccess::kWrite)) {
      vp->lock = PageAccess::kRead;  // single-writer: downgrade our own copy
    }
    data = vp->Share();
    co_await Delay(engine, supply_cost);
  } else if (st->pager_copy != nullptr) {
    data = st->pager_copy;
    co_await Delay(engine, supply_cost);
  } else if (is_home && info.backing->HasData(req.page)) {
    data = co_await info.backing->ReadAsync(engine, req.page, vm_.page_size());
    co_await Delay(engine, info.file_backed ? 0 : system_.config().pager_supply_ns);
  } else {
    if (is_home) {
      co_await info.backing->GrantFreshAsync(engine, req.page);
    }
    co_await Delay(engine, system_.config().pager_fresh_ns);
    zero_fill = true;
  }
  st = OwnedState(id, req.page);
  if (st == nullptr) {
    co_return;
  }
  IvyReply reply{id,    req.page, PageAccess::kRead, zero_fill,
                 false, /*ownership=*/false, node_, req.op_id, false};
  counters_.read_grants.Add(stats_, "dsm.ivy.read_grants");
  DeliverReply(req, reply, zero_fill ? nullptr : std::move(data));
  FinishServe(id, req.page);
}

void IvyAgent::FinishServe(const MemObjectId& id, PageIndex page) {
  OwnerState* st = OwnedState(id, page);
  if (st == nullptr) {
    return;
  }
  st->busy = false;
  if (!st->queue.empty()) {
    IvyRequest next = std::move(st->queue.front());
    st->queue.pop_front();
    OwnerHandle(std::move(next));
  }
}

// --- Grant application at the origin ----------------------------------------

void IvyAgent::ApplyGrant(const MemObjectId& id, PageIndex page, const IvyReply& reply,
                          PageBuffer data) {
  auto repr = reprs_.at(id);
  if (reply.lost) {
    counters_.lost_page_faults.Add(stats_, "dsm.ivy.lost_page_faults");
    Trace(TraceKind::kGrantApplied, id, page, reply.owner, /*aux=*/-1, reply.op_id);
    vm_.FaultFailed(*repr, page, Status::kDataLost);
    DrainParked(id, page);
    return;
  }
  if (reply.ownership) {
    // The write grant carries ownership: install the owner record (empty
    // copyset — the granter invalidated every reader first).
    ObjState& os = obj_state(id);
    os.owned.try_emplace(page);
  } else {
    // Path compression: aim the hint straight at whoever answered.
    SetHint(id, page, reply.owner);
  }
  Trace(TraceKind::kGrantApplied, id, page, reply.owner,
        static_cast<int64_t>(reply.granted), reply.op_id);
  if (reply.upgrade) {
    if (repr->FindResident(page) != nullptr) {
      vm_.LockGranted(*repr, page, reply.granted);
    } else if (data != nullptr) {
      // Our read copy was evicted while the upgrade was in flight; the owner
      // attached the contents as insurance.
      vm_.DataSupply(*repr, page, std::move(data), reply.granted);
    } else {
      // No copy anywhere on this path: re-fault through the owner machinery
      // (we own the page now, so this resolves locally).
      SendRequest(id, page, reply.granted, false);
    }
  } else if (reply.zero_fill) {
    vm_.DataUnavailable(*repr, page, reply.granted);
  } else {
    vm_.DataSupply(*repr, page, std::move(data), reply.granted);
  }
  DrainParked(id, page);
}

void IvyAgent::DrainParked(const MemObjectId& id, PageIndex page) {
  ObjState& os = obj_state(id);
  os.faulting.erase(page);
  auto pit = os.parked.find(page);
  if (pit == os.parked.end()) {
    return;
  }
  std::deque<IvyRequest> parked = std::move(pit->second);
  os.parked.erase(pit);
  for (auto& q : parked) {
    // ForwardTask re-decides with post-grant state: ownership landed here →
    // owner path; read grant → the hint now names the node that answered.
    (void)ForwardTask(std::move(q));
  }
}

// --- Eviction ----------------------------------------------------------------

EvictAction IvyAgent::OnEvict(VmObject& object, PageIndex page, PageBuffer data, bool dirty) {
  const MemObjectId id = object.id();
  const DirectoryRecord& info = system_.info(id);
  if (info.IsCopyObject()) {
    if (!dirty) {
      counters_.evict_discards.Add(stats_, "ivy.evict_discards");
      return EvictAction::kDiscard;
    }
    return copy_pager_.PageOut(object, page, std::move(data));
  }
  if (OwnerState* st = OwnedState(id, page); st != nullptr) {
    // The owner's kernel copy is the page's authoritative contents — capture
    // it (clean or dirty) as the protocol-level copy future grants serve.
    counters_.evict_captures.Add(stats_, "ivy.evict_captures");
    st->pager_copy = std::move(data);
    if (dirty) {
      if (info.file_backed) {
        // The file backing lives at the home node; ship the contents there so
        // the write lands on the home's own timeline (shard safety).
        if (info.home == node_) {
          if (info.backing != nullptr) {
            info.backing->Write(page, st->pager_copy, []() {});
          }
        } else {
          Send(info.home, IvyMsgType::kWriteback, IvyWriteback{id, page, true}, st->pager_copy);
        }
      } else {
        // Anonymous page: the captured copy is the only replica — mirror it
        // to this node's backup so the contents survive our death.
        shadow().MirrorToBackup(node_, id, page, /*version=*/0, st->pager_copy);
      }
    }
    return EvictAction::kTaken;
  }
  // Non-owner read copy: discard. The owner still lists us in its copyset —
  // conservative; a re-touch simply re-requests.
  counters_.evict_discards.Add(stats_, "ivy.evict_discards");
  return EvictAction::kDiscard;
}

void IvyAgent::LockCompleted(VmObject&, PageIndex, LockResult) {}
void IvyAgent::PullCompleted(VmObject&, PageIndex, PullResult) {}

// --- Failover (DESIGN.md §15) ------------------------------------------------

void IvyAgent::OnDeathNotice(NodeId dead) {
  const NodeId succ = RingSuccessor(dead, system_.cluster().node_count(),
                                    system_.cluster().fault_plan(), engine().Now());
  for (const MemObjectId& id : SortedKeys(objs_)) {
    ObjState& os = *objs_.at(id);
    std::vector<PageIndex> cut;
    os.hints.ForEach([&](PageIndex p, const ObjState::Hint& h) {
      if (h.owner == dead) {
        cut.push_back(p);
      }
    });
    std::sort(cut.begin(), cut.end());
    for (PageIndex p : cut) {
      // Aim at the corpse's ring successor — not provably the owner, but a
      // live node whose own (also-cut) chain converges on one. Pointing at
      // ourselves would orbit; fall back to the home instead.
      os.hints.GetOrCreate(p).owner = succ == node_ ? kInvalidNode : succ;
      counters_.chain_cuts.Add(stats_, kStatIvyChainCuts);
      Trace(TraceKind::kIvyChainCut, id, p, dead);
    }
  }
  ProtocolAgent::OnDeathNotice(dead);
}

// --- Dispatcher --------------------------------------------------------------

void IvyAgent::OnMessage(NodeId src, Message& msg) {
  IvyBody& body = std::get<IvyBody>(msg.body);
  // -Werror=switch keeps this dispatcher exhaustive over IvyMsgType.
  switch (static_cast<IvyMsgType>(msg.type)) {
    case IvyMsgType::kRequest: {
      auto req = std::get<IvyRequest>(std::move(body));
      if (req.origin == node_) {
        if (Owns(req.object, req.page)) {
          // Our own request orbited back after ownership already landed here
          // (a reclaim or a straggler grant): the fault was served locally.
          CountDuplicate();
          return;
        }
        (void)ForwardTask(std::move(req));
        return;
      }
      if (Owns(req.object, req.page)) {
        if (DuplicateDelivery(req.op_id)) {
          return;  // a retry of a request already parked or being served here
        }
        OwnerHandle(std::move(req));
      } else {
        // No dedup at forwarders: a retry must be free to chase the *current*
        // chain, which may differ from the one the original took.
        (void)ForwardTask(std::move(req));
      }
      return;
    }
    case IvyMsgType::kReply: {
      const auto& reply = std::get<IvyReply>(body);
      // Requests carry op ids even with retries disarmed (they key the
      // --breakdown fault matching), but pending ops are only registered when
      // failover is armed — a missing op means "straggler" only in that mode.
      if (reply.op_id != 0 && ArmsRequests() && FindOp(reply.op_id) == nullptr) {
        CountDuplicate();
        if (reply.ownership && !reply.lost && !Owns(reply.object, reply.page)) {
          // A straggler write grant carries ownership; dropping it would
          // evaporate the page's only owner record (the PR 9 livelock shape).
          // Accept the role: empty copyset, payload as the protocol copy.
          ObjState& os = obj_state(reply.object);
          auto [it, inserted] = os.owned.try_emplace(reply.page);
          if (inserted && msg.page != nullptr) {
            it->second.pager_copy = std::move(msg.page);
          }
          counters_.straggler_ownership_grants.Add(stats_, "dsm.ivy.straggler_ownership_grants");
        }
        return;
      }
      if (reply.op_id != 0 && ArmsRequests()) {
        ResolveOp(reply.op_id, reply.lost ? Status::kDataLost : Status::kOk);
      }
      ApplyGrant(reply.object, reply.page, reply, std::move(msg.page));
      return;
    }
    case IvyMsgType::kInvalidate: {
      const auto& m = std::get<IvyInvalidate>(body);
      if (DuplicateDelivery(m.op_id)) {
        return;  // already flushed and acked; the owner dedupes acks
      }
      auto rit = reprs_.find(m.object);
      if (!Owns(m.object, m.page) && rit != reprs_.end() &&
          rit->second->FindResident(m.page) != nullptr) {
        vm_.LockRequest(*rit->second, m.page, PageAccess::kNone, LockMode::kFlush,
                        [](LockResult) {});
      }
      // Chain compression: ownership is about to land at new_owner.
      SetHint(m.object, m.page, m.new_owner);
      counters_.invalidated_copies.Add(stats_, "dsm.ivy.invalidated_copies");
      Send(src, IvyMsgType::kInvalidateAck,
           IvyInvalidate{m.object, m.page, m.new_owner, m.op_id});
      return;
    }
    case IvyMsgType::kInvalidateAck: {
      const auto& m = std::get<IvyInvalidate>(body);
      // The owner coroutine erases the op after the round completes.
      AckOp(m.op_id, src, /*keep_entry=*/true);
      return;
    }
    case IvyMsgType::kWriteback: {
      const auto& m = std::get<IvyWriteback>(body);
      // Dirty file-backed eviction shipped home: commit it to the backing
      // store on this (the home's) timeline.
      DirectoryRecord& info = system_.info(m.object);
      if (info.backing != nullptr && m.dirty && msg.page != nullptr) {
        info.backing->Write(m.page, std::move(msg.page), []() {});
      }
      return;
    }
    case IvyMsgType::kCopyFault:
      (void)copy_pager_.Serve(src, std::get<CopyFault>(std::move(body)));
      return;
    case IvyMsgType::kCopyFaultReply:
      copy_pager_.OnReply(std::get<CopyFaultReply>(body), std::move(msg.page));
      return;
    case IvyMsgType::kShadowUpdate:
      shadow().OnUpdate(std::get<ShadowUpdate>(body), std::move(msg.page));
      return;
    case IvyMsgType::kShadowManifest:
      shadow().OnManifest(std::get<ShadowUpdate>(body));
      return;
  }
  ASVM_CHECK_MSG(false, "unknown IVY message type");
}

void IvyAgent::Send(NodeId to, IvyMsgType type, IvyBody body, PageBuffer page) {
  auto msg = std::make_unique<Message>();
  msg->protocol = ProtocolId::kIvy;
  msg->type = static_cast<uint32_t>(type);
  msg->control_bytes = 128;  // typed NORMA message with port rights
  msg->body = std::move(body);
  msg->page = std::move(page);
  system_.cluster().norma().Send(node_, to, std::move(msg));
}

void IvyAgent::SendShadow(NodeId to, bool manifest, const ShadowUpdate& m, PageBuffer page) {
  Send(to, manifest ? IvyMsgType::kShadowManifest : IvyMsgType::kShadowUpdate, m,
       std::move(page));
}

}  // namespace asvm
