// AsvmAgent part 1: construction, attach/state management, the request
// redirector (forwarding tiers), and the EMMI upcalls from the local kernel.
#include "src/asvm/agent.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/common/log.h"
#include "src/dsm/failover.h"

namespace asvm {

AsvmAgent::AsvmAgent(AsvmSystem& system, NodeId node)
    : ProtocolAgent(system, node, TraceProtocol::kAsvm),
      system_(system),
      counters_(system.agent_counters()),
      vm_(system.cluster().vm(node)) {
  Transport& main_transport = system.config().use_norma_transport
                                  ? static_cast<Transport&>(system_.cluster().norma())
                                  : static_cast<Transport&>(system_.cluster().sts());
  Listen(main_transport, ProtocolId::kAsvm);
  if (!system.config().use_norma_transport) {
    Listen(system_.cluster().sts_ctl(), ProtocolId::kAsvm);
  }
}

AsvmAgent::~AsvmAgent() = default;

AsvmAgent::ObjectState& AsvmAgent::obj_state(const MemObjectId& id) {
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    auto os = std::make_unique<ObjectState>();
    os->dyn_hints = std::make_unique<LruCache<PageIndex, NodeId>>(
        system_.config().dyn_cache_capacity);
    os->static_cache =
        std::make_unique<LruCache<PageIndex, std::pair<StaticHintKind, NodeId>>>(
            system_.config().static_cache_capacity);
    // The directory knows the object's page count; size the per-page tables
    // so fault-path lookups are dense vector indexes.
    if (const AsvmObjectInfo* info = system_.FindInfo(id); info != nullptr) {
      os->pages.SetPageCount(info->pages);
      os->terminal.SetPageCount(info->pages);
      os->home_pages.SetPageCount(info->pages);
      os->recovered.SetPageCount(info->pages);
    }
    it = objects_.emplace(id, std::move(os)).first;
  }
  return *it->second;
}

AsvmAgent::ObjectState* AsvmAgent::FindObjState(const MemObjectId& id) {
  auto it = objects_.find(id);
  return it == objects_.end() ? nullptr : it->second.get();
}

std::shared_ptr<VmObject> AsvmAgent::Attach(const MemObjectId& id) {
  ObjectState& os = obj_state(id);
  if (os.repr == nullptr) {
    AsvmObjectInfo& info = system_.info(id);
    os.repr = vm_.CreateObject(info.pages, CopyStrategy::kAsymmetric);
    vm_.RegisterManaged(os.repr, id, this);
    system_.AddSharer(info, node_);
  }
  return os.repr;
}

void AsvmAgent::AdoptRepr(const MemObjectId& id, const std::shared_ptr<VmObject>& object) {
  ObjectState& os = obj_state(id);
  ASVM_CHECK_MSG(os.repr == nullptr || os.repr == object, "conflicting repr adoption");
  os.repr = object;
  if (!object->managed()) {
    vm_.RegisterManaged(object, id, this);
  }
  system_.AddSharer(system_.info(id), node_);
}

void AsvmAgent::PruneState(ObjectState& os, PageIndex page) {
  const PageState* ps = os.pages.Find(page);
  if (ps == nullptr) {
    return;
  }
  if (ps->access == PageAccess::kNone && !ps->owner && !ps->busy && !ps->held() &&
      !ps->pending && ps->queue.empty()) {
    os.pages.Erase(page);
  }
}

std::string AsvmAgent::DumpObjectState(const MemObjectId& id) const {
  std::ostringstream out;
  out << "node " << node_ << " view of " << id.ToString() << ":\n";
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    out << "  (no state)\n";
    return out.str();
  }
  const ObjectState& os = *it->second;
  os.pages.ForEach([&out](PageIndex page, const PageState& ps) {
    out << "  page " << page << ": access=" << ToString(ps.access)
        << (ps.owner ? " OWNER" : "") << (ps.busy ? " busy" : "") << (ps.held() ? " held" : "")
        << (ps.pending ? " pending" : "") << " v" << ps.version;
    if (!ps.readers.empty()) {
      out << " readers=[";
      for (size_t i = 0; i < ps.readers.size(); ++i) {
        out << (i ? "," : "") << ps.readers[i];
      }
      out << "]";
    }
    if (!ps.queue.empty()) {
      out << " queued=" << ps.queue.size();
    }
    out << "\n";
  });
  out << "  dynamic hints: " << os.dyn_hints->size()
      << ", static cache: " << os.static_cache->size()
      << ", home records: " << os.home_pages.size() << "\n";
  return out.str();
}

size_t AsvmAgent::MetadataBytes() const {
  // Rough but honest accounting of non-pageable protocol state.
  size_t bytes = 0;
  for (const auto& [id, os] : objects_) {
    bytes += sizeof(ObjectState);
    bytes += os->pages.MetadataBytes();
    os->pages.ForEach([&bytes](PageIndex, const PageState& ps) {
      bytes += ps.readers.size() * sizeof(NodeId);
    });
    bytes += os->dyn_hints->size() * (sizeof(PageIndex) + sizeof(NodeId) + 16);
    bytes += os->static_cache->size() * (sizeof(PageIndex) + sizeof(NodeId) + 17);
    bytes += os->home_pages.MetadataBytes();
  }
  return bytes;
}

bool AsvmAgent::DescribeStall(std::string& out) const {
  bool blocked = ProtocolAgent::DescribeStall(out);
  // Coherency state of pages stuck mid-transition (busy or pending) and the
  // requests parked behind them. Objects are sorted for determinism.
  for (const MemObjectId& id : SortedKeys(objects_)) {
    const ObjectState& os = *objects_.at(id);
    os.pages.ForEach([&](PageIndex page, const PageState& ps) {
      if (!ps.busy && !ps.pending && ps.queue.empty()) {
        return;
      }
      blocked = true;
      out += "  asvm node " + std::to_string(node_) + ": object " + id.ToString() + " page " +
             std::to_string(page) + " access=" + std::string(ToString(ps.access)) +
             (ps.owner ? " OWNER" : "") + (ps.busy ? " busy" : "") +
             (ps.pending ? " pending" : "") + ", " + std::to_string(ps.queue.size()) +
             " requests queued\n";
    });
    os.terminal.ForEach([&](PageIndex page, const TerminalCtl& ctl) {
      if (!ctl.busy && ctl.queue.empty()) {
        return;
      }
      blocked = true;
      out += "  asvm node " + std::to_string(node_) + ": terminal for object " + id.ToString() +
             " page " + std::to_string(page) + (ctl.busy ? " busy" : " idle") + ", " +
             std::to_string(ctl.queue.size()) + " requests queued\n";
    });
  }
  return blocked;
}

// --- EMMI upcalls (local kernel -> ASVM) --------------------------------------

void AsvmAgent::DataRequest(VmObject& object, PageIndex page, PageAccess desired) {
  const MemObjectId id = object.id();
  ObjectState& os = obj_state(id);
  PageState& ps = page_state(os, page);
  if (ps.pending) {
    return;  // a request for this page is already in flight
  }
  ps.pending = true;
  counters_.data_requests.Add(stats_, "asvm.data_requests");
  AccessRequest req;
  req.target = id;
  req.search = id;
  req.page = page;
  req.access = desired;
  req.origin = node_;
  req.req_id = system_.NextOpId(node_);
  Trace(TraceKind::kFaultRequest, id, page, kInvalidNode, static_cast<int64_t>(desired),
        req.req_id);
  ArmRequest(req);
  HandleRequest(std::move(req));
}

void AsvmAgent::DataUnlock(VmObject& object, PageIndex page, PageAccess desired) {
  const MemObjectId id = object.id();
  ObjectState& os = obj_state(id);
  PageState& ps = page_state(os, page);
  counters_.data_unlocks.Add(stats_, "asvm.data_unlocks");
  if (ps.owner) {
    // Transition 7: the owner upgrades its own access.
    if (!ps.busy) {
      (void)SelfUpgrade(id, page);
    } else {
      // A transition is in flight; retry through the normal request path once
      // it settles by queueing a self-request.
      AccessRequest req;
      req.target = id;
      req.search = id;
      req.page = page;
      req.access = desired;
      req.origin = node_;
      ps.queue.push_back(std::move(req));
    }
    return;
  }
  if (ps.pending) {
    return;
  }
  ps.pending = true;
  AccessRequest req;
  req.target = id;
  req.search = id;
  req.page = page;
  req.access = desired;
  req.origin = node_;
  req.req_id = system_.NextOpId(node_);
  ArmRequest(req);
  HandleRequest(std::move(req));
}

void AsvmAgent::LockCompleted(VmObject&, PageIndex, LockResult) {
  // Local lock requests complete through inline callbacks; nothing to do.
}

void AsvmAgent::PullCompleted(VmObject&, PageIndex, PullResult) {
  // Pull requests complete through inline callbacks; nothing to do.
}

// --- Request redirector --------------------------------------------------------

void AsvmAgent::HandleRequest(AccessRequest req) {
  ObjectState& os = obj_state(req.search);
  PageState* ps = os.pages.Find(req.page);

  if (req.is_push_scan) {
    // A push-scan asks whether the page exists in this (copy-object) space.
    if (ps != nullptr && ps->owner) {
      AccessReply reply;
      reply.target = req.target;
      reply.page = req.page;
      reply.is_scan = true;
      reply.scan_found = true;
      reply.req_id = req.req_id;
      Send(req.origin, AsvmMsgType::kAccessReply, reply);
      return;
    }
    const AsvmObjectInfo& info = system_.info(req.search);
    if (info.Terminal(req.page) == node_) {
      // End of the line: check the local representation (resident or paged).
      bool found = false;
      if (os.repr != nullptr) {
        found = os.repr->FindResident(req.page) != nullptr ||
                vm_.default_pager()->HasPage(os.repr->serial(), req.page);
      }
      if (!found && os.home_pages.GetOrCreate(req.page).owner_exists &&
          !(req.ring && req.ring_left == 0)) {
        // An owner exists somewhere but the caches missed: scan the ring so
        // the owner itself can answer.
        req.ring = true;
        req.ring_pos = 0;
        req.ring_left = static_cast<int>(info.sharing.size());
        RingForward(std::move(req));
        return;
      }
      AccessReply reply;
      reply.target = req.target;
      reply.page = req.page;
      reply.is_scan = true;
      reply.scan_found = found;
      reply.req_id = req.req_id;
      Send(req.origin, AsvmMsgType::kAccessReply, reply);
      return;
    }
    RouteRequest(std::move(req));
    return;
  }

  if (ps != nullptr && ps->owner) {
    if (req.origin == node_) {
      // Our own request came back to us while we already own the page: a
      // straggler duplicate whose live copy was served (dedup retired its
      // op). Serving it would hand ownership away and the self-grant would
      // then be dropped as a duplicate, evaporating the page — drop the
      // request instead.
      counters_.self_stragglers_dropped.Add(stats_, "asvm.self_stragglers_dropped");
      return;
    }
    if (ps->busy || ps->held()) {
      // A transition (write grant, push, eviction handoff) is in flight, or
      // the page is range-locked for exclusive local access; park until it
      // settles. Busy/held states always complete, so parking here cannot
      // deadlock — unlike parking at merely-pending nodes, where two nodes
      // waiting on the same page could park each other's requests.
      ps->queue.push_back(std::move(req));
      return;
    }
    ServeAsOwner(std::move(req));
    return;
  }
  const AsvmObjectInfo& info = system_.info(req.search);
  if (req.to_terminal && info.Terminal(req.page) == node_) {
    HandleAtTerminal(std::move(req));
    return;
  }
  RouteRequest(std::move(req));
}

void AsvmAgent::RouteRequest(AccessRequest req) {
  AsvmObjectInfo& info = system_.info(req.search);
  ObjectState& os = obj_state(req.search);
  ++req.hops;
  ASVM_CHECK_MSG(req.hops < 8 * system_.cluster().node_count() + 64,
                 "request forwarding failed to terminate");


  if (req.ring) {
    RingForward(std::move(req));
    return;
  }

  // Stale hints can form transient cycles (A's hint says B, B's says A).
  // After a generous number of hops, stop trusting caches and escalate to
  // the terminal, whose authoritative owner record falls back to the global
  // ring — which always terminates.
  if (req.hops > system_.cluster().node_count() + 2) {
    counters_.fwd_escalations.Add(stats_, "asvm.fwd_escalations");
    SendToTerminal(std::move(req));
    return;
  }

  const bool dyn = system_.config().dynamic_forwarding;
  const bool stat = system_.config().static_forwarding;

  if (dyn) {
    NodeId* hint = os.dyn_hints->Get(req.page);
    if (hint != nullptr && NodeDead(*hint)) {
      // The hinted owner is confirmed removed: the hint can only mislead.
      os.dyn_hints->Erase(req.page);
      hint = nullptr;
    }
    if (hint != nullptr && *hint != node_) {
      NodeId target = *hint;
      if (req.access == PageAccess::kWrite && req.target == req.search &&
          req.origin != node_) {
        // Path compression toward the future owner (Li's optimization).
        os.dyn_hints->Put(req.page, req.origin);
      }
      counters_.fwd_dynamic.Add(stats_, "asvm.fwd_dynamic");
      Trace(TraceKind::kForwardDynamic, req.search, req.page, target, 0, req.req_id);
      SendRequest(target, req);
      return;
    }
  }

  if (stat) {
    const NodeId mgr = system_.StaticManagerOf(info, req.page);
    if (mgr != node_ && NodeDead(mgr)) {
      // The static ownership manager is removed: its cache is unreachable;
      // escalate straight to the terminal's authoritative record.
      SendToTerminal(std::move(req));
      return;
    }
    if (mgr != node_) {
      counters_.fwd_static.Add(stats_, "asvm.fwd_static");
      Trace(TraceKind::kForwardStatic, req.search, req.page, mgr, 0, req.req_id);
      SendRequest(mgr, req);
      return;
    }
    // We are the static ownership manager: consult the static cache.
    auto* entry = os.static_cache->Get(req.page);
    if (entry != nullptr) {
      if (entry->first == StaticHintKind::kOwner && entry->second != node_ &&
          !NodeDead(entry->second)) {
        counters_.fwd_static_hit.Add(stats_, "asvm.fwd_static_hit");
        SendRequest(entry->second, req);
        return;
      }
      if (entry->first == StaticHintKind::kFresh || entry->first == StaticHintKind::kPaged) {
        counters_.fwd_static_terminal.Add(stats_, "asvm.fwd_static_terminal");
        SendToTerminal(std::move(req));
        return;
      }
    }
    counters_.fwd_static_miss.Add(stats_, "asvm.fwd_static_miss");
    SendToTerminal(std::move(req));
    return;
  }

  if (dyn) {
    // Dynamic enabled but no hint, and static disabled: fall back to global.
    req.ring = true;
    req.ring_left = static_cast<int>(info.sharing.size());
    req.ring_pos = 0;
    RingForward(std::move(req));
    return;
  }

  // Global-only forwarding: visit every sharer in turn (paper §3.4).
  req.ring = true;
  req.ring_left = static_cast<int>(info.sharing.size());
  req.ring_pos = 0;
  counters_.fwd_global_started.Add(stats_, "asvm.fwd_global_started");
  RingForward(std::move(req));
}

void AsvmAgent::RingForward(AccessRequest req) {
  AsvmObjectInfo& info = system_.info(req.search);
  while (req.ring_left > 0) {
    const size_t idx = static_cast<size_t>(req.ring_pos) % info.sharing.size();
    NodeId next = info.sharing[idx];
    ++req.ring_pos;
    --req.ring_left;
    if (next == node_ || next == req.origin) {
      continue;  // we already know neither holds the page as owner
    }
    if (NodeDead(next)) {
      continue;  // removed sharer: a message there is a black hole
    }
    counters_.fwd_global_hop.Add(stats_, "asvm.fwd_global_hop");
    Trace(TraceKind::kForwardGlobal, req.search, req.page, next, 0, req.req_id);
    SendRequest(next, req);
    return;
  }
  // Ring exhausted: deliver to the terminal (pager / peer).
  SendToTerminal(std::move(req));
}

void AsvmAgent::SendRequest(NodeId to, const AccessRequest& req) {
  ASVM_CHECK_MSG(to != node_, "routing to self");
  Send(to, AsvmMsgType::kAccessRequest, req);
}

void AsvmAgent::SendReply(NodeId to, const AccessReply& reply, PageBuffer data) {
  // A local grant goes through Send too, which charges the local handoff.
  Send(to, AsvmMsgType::kAccessReply, reply, std::move(data));
}

void AsvmAgent::Send(NodeId to, AsvmMsgType type, AsvmBody body, PageBuffer page) {
  auto msg = std::make_unique<Message>();
  msg->protocol = ProtocolId::kAsvm;
  msg->type = static_cast<uint32_t>(type);
  msg->control_bytes = 32;  // fixed-size untyped ASVM control block (§3.1)
  msg->body = std::move(body);
  msg->page = std::move(page);
  if (system_.config().use_norma_transport) {
    // Transport ablation: everything over NORMA-IPC, as pre-ASVM XMM did.
    msg->control_bytes = 64;
    system_.cluster().norma().Send(node_, to, std::move(msg));
    return;
  }
  // Invalidation rounds ride the trivial-control channel; everything else
  // uses the regular STS path.
  if (type == AsvmMsgType::kInvalidate || type == AsvmMsgType::kInvalidateAck) {
    system_.cluster().sts_ctl().Send(node_, to, std::move(msg));
  } else {
    system_.cluster().sts().Send(node_, to, std::move(msg));
  }
}

void AsvmAgent::SendShadow(NodeId to, bool manifest, const ShadowUpdate& m, PageBuffer page) {
  Send(to, manifest ? AsvmMsgType::kShadowManifest : AsvmMsgType::kShadowUpdate, m,
       std::move(page));
}

// --- Failover (DESIGN.md §14) ---------------------------------------------------

void AsvmAgent::SendToTerminal(AccessRequest req) {
  AsvmObjectInfo& info = system_.info(req.search);
  req.to_terminal = true;
  const NodeId term = info.Terminal(req.page);
  if (term == node_) {
    HandleAtTerminal(std::move(req));
    return;
  }
  if (info.IsCopy() || !NodeDead(term)) {
    // Copy objects have no backup (the peer's chain is unrecoverable); a dead
    // peer black-holes the request and the origin's deadline reports it.
    SendRequest(term, req);
    return;
  }
  // The forwarding terminal is confirmed removed: promote its backup at the
  // next sequencing point, then resume toward the (now alive) new terminal.
  system_.cluster().Mutate(node_, [this, req]() {
    system_.PromoteIfHomeDead(req.search);
    engine().Post([this, req]() mutable { SendToTerminal(std::move(req)); });
  });
}

namespace {

// `req` as a fresh walk from its origin: no hops taken, off the ring, not yet
// bound for the terminal.
AccessRequest Restarted(AccessRequest req) {
  req.hops = 0;
  req.ring = false;
  req.ring_pos = 0;
  req.ring_left = 0;
  req.to_terminal = false;
  return req;
}

}  // namespace

void AsvmAgent::ArmRequest(const AccessRequest& req) {
  if (!ArmsRequests()) {
    return;
  }
  RegisterOp(req.req_id, 1, "asvm-request", req.target, req.page);
  if (PendingOp* op = FindOp(req.req_id); op != nullptr) {
    const AsvmObjectInfo& info = system_.info(req.target);
    op->targets = {info.Terminal(req.page)};
    op->on_fail = [this, req](Status) {
      ReissueAfter([this, target = req.target]() { system_.PromoteIfHomeDead(target); },
                   [this, req]() {
                     AccessRequest fresh = Restarted(req);
                     ArmRequest(fresh);
                     HandleRequest(std::move(fresh));
                   });
    };
  }
  ArmOp(req.req_id, [this, req]() {
    // The terminal is the authority of last resort; re-point the op's
    // classification at wherever that role lives now, then re-route from
    // scratch (hints may have healed, the home may have been promoted).
    if (PendingOp* op = FindOp(req.req_id); op != nullptr) {
      const AsvmObjectInfo& info = system_.info(req.target);
      op->targets = {info.Terminal(req.page)};
    }
    HandleRequest(Restarted(req));
  });
}

void AsvmAgent::NotifyHomeOwner(const MemObjectId& id, PageIndex page, NodeId new_owner) {
  if (!failover_.enabled) {
    return;
  }
  const AsvmObjectInfo& info = system_.info(id);
  if (info.IsCopy()) {
    return;
  }
  const NodeId home = info.Terminal(page);
  StaticHintMsg hint{id, page, StaticHintKind::kOwner, new_owner};
  if (home == node_) {
    OnStaticHint(hint);
  } else if (!NodeDead(home)) {
    Send(home, AsvmMsgType::kStaticHint, hint);
  }
}

}  // namespace asvm
