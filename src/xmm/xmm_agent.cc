#include "src/xmm/xmm_agent.h"

#include <algorithm>
#include <utility>

#include "src/common/log.h"
#include "src/dsm/failover.h"

namespace asvm {

XmmAgent::XmmAgent(XmmSystem& system, NodeId node)
    : ProtocolAgent(system, node, TraceProtocol::kXmm),
      system_(system),
      counters_(system.agent_counters()),
      vm_(system.cluster().vm(node)),
      copy_pager_(*this, system.cluster().engine_for(node), system.config().copy_pager_threads) {
  Listen(system_.cluster().norma(), ProtocolId::kXmm);
}

XmmAgent::~XmmAgent() = default;

size_t XmmAgent::MetadataBytes() const {
  size_t bytes = 0;
  for (const auto& [id, ms] : manager_) {
    bytes += ms->access.size();  // 1 byte per page per node, non-pageable
    bytes += ms->pages.size() * sizeof(ManagerState::PageCtl);
  }
  bytes += reprs_.size() * 64;  // proxy records
  return bytes;
}

bool XmmAgent::DescribeStall(std::string& out) const {
  bool blocked = ProtocolAgent::DescribeStall(out);
  // Manager-side picture: pages stuck busy and the requests parked behind
  // them. Objects are sorted so the report is deterministic.
  for (const MemObjectId& id : SortedKeys(manager_)) {
    const ManagerState& ms = *manager_.at(id);
    ms.pages.ForEach([&](PageIndex page, const ManagerState::PageCtl& ctl) {
      if (!ctl.busy && ctl.queue.empty()) {
        return;
      }
      blocked = true;
      out += "  xmm manager node " + std::to_string(node_) + ": object " + id.ToString() +
             " page " + std::to_string(page) + (ctl.busy ? " busy" : " idle") + ", " +
             std::to_string(ctl.queue.size()) + " requests queued\n";
    });
  }
  return blocked;
}

// --- Pager upcalls ----------------------------------------------------------

void XmmAgent::DataRequest(VmObject& object, PageIndex page, PageAccess desired) {
  counters_.data_requests.Add(stats_, "xmm.data_requests");
  SendRequest(object.id(), page, desired, /*has_copy=*/false);
}

void XmmAgent::DataUnlock(VmObject& object, PageIndex page, PageAccess desired) {
  counters_.data_unlocks.Add(stats_, "xmm.data_unlocks");
  SendRequest(object.id(), page, desired, /*has_copy=*/true);
}

void XmmAgent::SendRequest(const MemObjectId& id, PageIndex page, PageAccess access,
                           bool has_copy, uint64_t reuse_op) {
  const DirectoryRecord& info = system_.info(id);
  if (info.IsCopyObject()) {
    copy_pager_.Request(id, page, access, info.copy_pager_node);
    return;
  }
  XmmRequest req{id, page, access, node_, has_copy};
  Trace(TraceKind::kXmmRequest, id, page, info.home, static_cast<int64_t>(access));
  if (info.home == node_) {
    ManagerHandle(std::move(req));
    return;
  }
  if (ArmsRequests()) {
    // Arm a pending op on the request itself so manager silence is detected.
    // The resend re-reads the directory: if another origin already promoted
    // the backup, retries go straight to the new manager. A reissue keeps the
    // original id (ASVM's ArmRequest discipline): the serve it may have
    // started stays one transaction, and its reply resolves the live op.
    req.op_id = reuse_op != 0 ? reuse_op : system_.NextOpId(node_);
    RegisterOp(req.op_id, 1, "xmm-request", id, page);
    if (PendingOp* op = FindOp(req.op_id); op != nullptr) {
      op->targets = {info.home};
      // kNodeDown: promote the dead manager's backup, then replay the request
      // against the new manager under the original op id.
      op->on_fail = [this, id, page, access, has_copy, op_id = req.op_id](Status) {
        ReissueAfter([this, id]() { system_.PromoteIfManagerDead(id); },
                     [this, id, page, access, has_copy, op_id]() {
                       SendRequest(id, page, access, has_copy, op_id);
                     });
      };
    }
    ArmOp(req.op_id, [this, req]() {
      const DirectoryRecord& current = system_.info(req.object);
      if (PendingOp* op = FindOp(req.op_id); op != nullptr) {
        op->targets = {current.home};
      }
      if (current.home == node_) {
        ManagerHandle(req);  // the promotion landed the manager role here
      } else {
        Send(current.home, XmmMsgType::kRequest, req);
      }
    });
  }
  Send(info.home, XmmMsgType::kRequest, req);
}

bool XmmAgent::Deposed(const DirectoryRecord& info) const {
  return failover_.enabled && info.home != node_;
}

EvictAction XmmAgent::OnEvict(VmObject& object, PageIndex page, PageBuffer data, bool dirty) {
  // XMM has no internode paging: a dirty page evicted from the cache is
  // returned to the pager through the manager; clean pages are discarded
  // (the manager keeps thinking we have access — its state is conservative,
  // so a re-touch simply re-requests).
  if (!dirty) {
    counters_.evict_discards.Add(stats_, "xmm.evict_discards");
    return EvictAction::kDiscard;
  }
  counters_.evict_returns.Add(stats_, "xmm.evict_returns");
  const DirectoryRecord& info = system_.info(object.id());
  if (info.IsCopyObject()) {
    return copy_pager_.PageOut(object, page, std::move(data));
  }
  if (!info.file_backed && NodeDead(info.home)) {
    // The manager is dead: a data return would be black-holed, losing the
    // only copy. Ship the contents to the manager's backup instead;
    // promotion turns the shadow entry into the new manager's pager copy.
    shadow().MirrorToBackup(info.home, object.id(), page, /*version=*/0, data);
    return EvictAction::kTaken;
  }
  XmmFlushWriteReply ret{object.id(), page, /*dirty=*/true, /*was_resident=*/true,
                         /*op_id=*/0};
  Send(info.home, XmmMsgType::kFlushWriteReply, ret, std::move(data));
  return EvictAction::kTaken;
}

void XmmAgent::LockCompleted(VmObject&, PageIndex, LockResult) {}
void XmmAgent::PullCompleted(VmObject&, PageIndex, PullResult) {}

// --- Manager role -------------------------------------------------------------

XmmAgent::ManagerState& XmmAgent::mgr_state(const MemObjectId& id) {
  auto it = manager_.find(id);
  if (it == manager_.end()) {
    auto ms = std::make_unique<ManagerState>();
    const DirectoryRecord& info = system_.info(id);
    // The centralized manager's state table: 1 byte of non-pageable memory
    // per page per node (§3.1, "Limited Memory Requirements").
    ms->access.assign(info.pages * system_.cluster().node_count(), 0);
    ms->pages.SetPageCount(info.pages);
    it = manager_.emplace(id, std::move(ms)).first;
  }
  return *it->second;
}

uint8_t& XmmAgent::AccessByte(ManagerState& ms, PageIndex page, NodeId node) {
  return ms.access[static_cast<size_t>(page) * system_.cluster().node_count() +
                   static_cast<size_t>(node)];
}

NodeId XmmAgent::FindWriter(ManagerState& ms, const MemObjectId&, PageIndex page) {
  const int nodes = system_.cluster().node_count();
  for (NodeId n = 0; n < nodes; ++n) {
    if (AccessByte(ms, page, n) == 2) {
      return n;
    }
  }
  return kInvalidNode;
}

std::vector<NodeId> XmmAgent::FindReaders(ManagerState& ms, const MemObjectId&, PageIndex page,
                                          NodeId except) {
  std::vector<NodeId> readers;
  const int nodes = system_.cluster().node_count();
  for (NodeId n = 0; n < nodes; ++n) {
    if (n != except && AccessByte(ms, page, n) == 1) {
      readers.push_back(n);
    }
  }
  return readers;
}

void XmmAgent::ManagerHandle(XmmRequest req) {
  ManagerState& ms = mgr_state(req.object);
  ManagerState::PageCtl& ctl = ms.pages.GetOrCreate(req.page);
  if (ctl.busy) {
    ctl.queue.push_back(std::move(req));
    return;
  }
  ctl.busy = true;
  (void)ManagerServe(std::move(req));
}

Future<Status> XmmAgent::StackProcess() {
  return Process(system_.config().stack_process_ns);
}

Task XmmAgent::ManagerServe(XmmRequest req) {
  Engine& engine = vm_.engine();
  DirectoryRecord& info = system_.info(req.object);
  ManagerState& ms = mgr_state(req.object);

  // XMM stack processing at the manager (proxy + manager layer work),
  // serialized on the manager's CPU.
  co_await StackProcess();
  if (Deposed(info)) {
    co_return;  // promoted away while this request was parked; abandon it
  }
  counters_.manager_requests.Add(stats_, "xmm.manager_requests");
  Trace(TraceKind::kXmmManagerServe, req.object, req.page, req.origin,
        static_cast<int64_t>(req.access));

  if (ms.lost.count(req.page) != 0) {
    // Promotion proved this page was committed and then lost with the old
    // manager and every replica: the fault must fail, not zero-fill.
    ManagerState::PageCtl& lctl = ms.pages.GetOrCreate(req.page);
    XmmReply reply{req.object, req.page,   req.access, /*zero_fill=*/false,
                   /*upgrade=*/false, req.op_id};
    reply.lost = true;
    counters_.lost_page_replies.Add(stats_, "xmm.lost_page_replies");
    Trace(TraceKind::kXmmGrant, req.object, req.page, req.origin, /*aux=*/-1);
    Send(req.origin, XmmMsgType::kReply, reply);
    lctl.busy = false;
    if (!lctl.queue.empty()) {
      XmmRequest next = std::move(lctl.queue.front());
      lctl.queue.pop_front();
      ManagerHandle(std::move(next));
    }
    co_return;
  }

  // Step 1 (§2.3.2): create a coherent version of the page at the pager.
  // `ctl` stays valid across co_await: the dense PageTable never reallocates
  // for in-range pages.
  NodeId writer = FindWriter(ms, req.object, req.page);
  ManagerState::PageCtl& ctl = ms.pages.GetOrCreate(req.page);
  if (writer != kInvalidNode && writer != req.origin && LeaseExpired(writer)) {
    // Lease check: a removed writer can never answer a flush. Once its lease
    // has expired the manager reclaims the page without the round — the last
    // contents died with the node, exactly as on the kNodeDown path below.
    AccessByte(ms, req.page, writer) = 0;
    counters_.lease_reclaims.Add(stats_, kStatLeaseReclaims);
    Trace(TraceKind::kLeaseReclaim, req.object, req.page, writer);
    writer = kInvalidNode;
  }
  if (writer != kInvalidNode && writer != req.origin) {
    const uint64_t op = OpenRound({writer}, "flush-write", req.object, req.page);
    Future<Status> flushed = OpFuture(op);
    Trace(TraceKind::kXmmFlush, req.object, req.page, writer, /*aux=*/1, op);
    Send(writer, XmmMsgType::kFlushWrite, XmmFlush{req.object, req.page, op});
    ArmOp(op, [this, writer, object = req.object, page = req.page, op]() {
      Send(writer, XmmMsgType::kFlushWrite, XmmFlush{object, page, op});
    });
    co_await flushed;
    // On timeout / kNodeDown (the writer's node was removed) the entry is
    // already gone: treat the writer as holding nothing and clear its access
    // byte — the page's last contents died with the node.
    PageBuffer data;
    bool dirty = false;
    bool resident = false;
    if (PendingOp* pending = FindOp(op); pending != nullptr) {
      data = std::move(pending->data);
      dirty = pending->dirty;
      resident = pending->was_resident;
      EraseOp(op);
    }
    if (Deposed(info)) {
      co_return;  // ms/ctl may now belong to a cold-restarted table
    }
    AccessByte(ms, req.page, writer) = 0;
    if (resident) {
      if (dirty) {
        // NMK13 behaviour the paper measures in Table 1: the dirty page is
        // written to the paging space when first requested by another node.
        Promise<Status> written(engine);
        if (info.backing != nullptr) {
          info.backing->Write(req.page, data, [written]() { written.Set(Status::kOk); });
          co_await written.GetFuture();
          counters_.dirty_cleanings.Add(stats_, "xmm.dirty_cleanings");
          if (Deposed(info)) {
            co_return;
          }
        }
        if (!info.file_backed) {
          shadow().MirrorToBackup(node_, req.object, req.page, /*version=*/0, data);
        }
      }
      ctl.pager_copy = std::move(data);
    }
  }

  // Step 2: a write request flushes every reader (except the requester).
  if (req.access == PageAccess::kWrite) {
    const std::vector<NodeId> readers =
        DropDeadTargets(FindReaders(ms, req.object, req.page, req.origin),
                        [&](NodeId r) { AccessByte(ms, req.page, r) = 0; });
    if (!readers.empty()) {
      const uint64_t op = OpenRound(readers, "flush-read-round", req.object, req.page);
      Future<Status> acked = OpFuture(op);
      for (NodeId r : readers) {
        Trace(TraceKind::kXmmFlush, req.object, req.page, r, /*aux=*/2, op);
        Send(r, XmmMsgType::kFlushRead, XmmFlush{req.object, req.page, op});
        counters_.reader_flushes.Add(stats_, "xmm.reader_flushes");
      }
      ArmRound(op, [this, object = req.object, page = req.page, op](NodeId r) {
        Send(r, XmmMsgType::kFlushRead, XmmFlush{object, page, op});
      });
      co_await acked;
      EraseOp(op);
      if (Deposed(info)) {
        co_return;
      }
      for (NodeId r : readers) {
        AccessByte(ms, req.page, r) = 0;
      }
    }
  }

  // Step 3: forward the request to the pager and relay its answer. The
  // upgrade case needs no contents and skips the pager entirely.
  const bool upgrade = req.has_copy && AccessByte(ms, req.page, req.origin) != 0;
  PageBuffer data;
  bool zero_fill = false;
  // Supplying contents through the default pager task costs two typed IPC
  // messages with the page inline; the file pager charges its own CPU.
  const SimDuration supply_cost =
      info.file_backed ? vm_.costs().pager_call_ns : system_.config().pager_supply_ns;
  if (upgrade) {
    // No data path.
  } else if (ctl.pager_copy != nullptr) {
    // The pager already holds a coherent in-memory copy.
    co_await Delay(engine, supply_cost);
    data = ctl.pager_copy;
  } else if (info.backing != nullptr && info.backing->HasData(req.page)) {
    data = co_await info.backing->ReadAsync(engine, req.page, vm_.page_size());
    co_await Delay(engine, info.file_backed ? 0 : system_.config().pager_supply_ns);
  } else {
    Promise<Status> grant(engine);
    if (info.backing != nullptr) {
      info.backing->GrantFresh(req.page, [grant]() { grant.Set(Status::kOk); });
    } else {
      engine.Post([grant]() { grant.Set(Status::kOk); });
    }
    co_await grant.GetFuture();
    co_await Delay(engine, system_.config().pager_fresh_ns);
    zero_fill = true;
  }
  if (Deposed(info)) {
    co_return;
  }
  AccessByte(ms, req.page, req.origin) = req.access == PageAccess::kWrite ? 2 : 1;
  if (req.access == PageAccess::kWrite) {
    // The new writer's modifications supersede the pager's copy.
    ctl.pager_copy = nullptr;
  }

  XmmReply reply{req.object, req.page, req.access, zero_fill && !upgrade, upgrade, req.op_id};
  if (req.access == PageAccess::kWrite) {
    counters_.write_grants.Add(stats_, "xmm.write_grants");
  } else {
    counters_.read_grants.Add(stats_, "xmm.read_grants");
  }
  Trace(TraceKind::kXmmGrant, req.object, req.page, req.origin,
        static_cast<int64_t>(req.access));
  Send(req.origin, XmmMsgType::kReply, reply,
       (zero_fill || upgrade) ? nullptr : std::move(data));

  ctl.busy = false;
  if (!ctl.queue.empty()) {
    XmmRequest next = std::move(ctl.queue.front());
    ctl.queue.pop_front();
    ManagerHandle(std::move(next));
  }
}

// --- Dispatcher -------------------------------------------------------------------

void XmmAgent::OnMessage(NodeId src, Message& msg) {
  XmmBody& body = std::get<XmmBody>(msg.body);
  // -Werror=switch keeps this dispatcher exhaustive over XmmMsgType.
  switch (static_cast<XmmMsgType>(msg.type)) {
    case XmmMsgType::kRequest: {
      auto req = std::get<XmmRequest>(std::move(body));
      if (DuplicateDelivery(req.op_id)) {
        return;  // a retry of a request already parked or being served here
      }
      ManagerHandle(std::move(req));
      return;
    }
    case XmmMsgType::kReply: {
      const auto& reply = std::get<XmmReply>(body);
      if (reply.op_id != 0) {
        if (FindOp(reply.op_id) == nullptr) {
          // The op resolved kNodeDown and the request was reissued; applying
          // this straggler grant as well would double-supply the page.
          CountDuplicate();
          return;
        }
        ResolveOp(reply.op_id, reply.lost ? Status::kDataLost : Status::kOk);
      }
      auto repr = reprs_.at(reply.object);
      if (reply.lost) {
        // The manager proved the page was committed and then lost with every
        // replica. Fail the fault — waking the kernel's waiters with an
        // error, never inventing zeros.
        counters_.lost_page_faults.Add(stats_, "xmm.lost_page_faults");
        Trace(TraceKind::kGrantApplied, reply.object, reply.page, src, /*aux=*/-1);
        vm_.FaultFailed(*repr, reply.page, Status::kDataLost);
        return;
      }
      Trace(TraceKind::kGrantApplied, reply.object, reply.page, src,
            static_cast<int64_t>(reply.granted));
      if (reply.upgrade) {
        if (repr->FindResident(reply.page) != nullptr) {
          vm_.LockGranted(*repr, reply.page, reply.granted);
        } else {
          // Our copy vanished (evicted) while the upgrade was in flight; the
          // manager thinks we have it. Zero-filling would be wrong — re-ask.
          SendRequest(reply.object, reply.page, reply.granted, false);
        }
      } else if (reply.zero_fill) {
        vm_.DataUnavailable(*repr, reply.page, reply.granted);
      } else {
        vm_.DataSupply(*repr, reply.page, std::move(msg.page), reply.granted);
      }
      return;
    }
    case XmmMsgType::kFlushWrite: {
      const auto& m = std::get<XmmFlush>(body);
      if (DuplicateDelivery(m.op_id)) {
        return;  // already extracted and replied; the manager dedupes replies
      }
      auto repr = reprs_.at(m.object);
      NodeVm::Extracted ex = vm_.ExtractPage(*repr, m.page);
      XmmFlushWriteReply reply{m.object, m.page, ex.dirty, ex.was_resident, m.op_id};
      Send(src, XmmMsgType::kFlushWriteReply, reply, std::move(ex.data));
      counters_.write_flushes.Add(stats_, "xmm.write_flushes");
      return;
    }
    case XmmMsgType::kFlushWriteReply: {
      const auto& m = std::get<XmmFlushWriteReply>(body);
      if (m.op_id == 0) {
        // Unsolicited data return from an eviction: refresh the pager copy.
        ManagerState& ms = mgr_state(m.object);
        ManagerState::PageCtl& ctl = ms.pages.GetOrCreate(m.page);
        ctl.pager_copy = std::move(msg.page);
        AccessByte(ms, m.page, src) = 0;
        DirectoryRecord& info = system_.info(m.object);
        if (info.backing != nullptr && m.dirty) {
          info.backing->Write(m.page, ctl.pager_copy, []() {});
        }
        if (m.dirty && !info.file_backed) {
          shadow().MirrorToBackup(node_, m.object, m.page, /*version=*/0, ctl.pager_copy);
        }
        return;
      }
      PendingOp* op = FindOp(m.op_id);
      if (op == nullptr) {
        CountDuplicate();  // reply landed after the flush timed out
        return;
      }
      if (std::find(op->acked.begin(), op->acked.end(), src) != op->acked.end()) {
        CountDuplicate();  // a retry's second reply; payload already recorded
        return;
      }
      op->data = std::move(msg.page);
      op->dirty = m.dirty;
      op->was_resident = m.was_resident;
      // The manager coroutine harvests the flush payload, then erases the op.
      AckOp(m.op_id, src, /*keep_entry=*/true);
      return;
    }
    case XmmMsgType::kFlushRead: {
      const auto& m = std::get<XmmFlush>(body);
      if (DuplicateDelivery(m.op_id)) {
        return;
      }
      auto repr = reprs_.at(m.object);
      if (repr->FindResident(m.page) != nullptr) {
        vm_.LockRequest(*repr, m.page, PageAccess::kNone, LockMode::kFlush,
                        [](LockResult) {});
      }
      Send(src, XmmMsgType::kFlushReadAck,
           XmmFlushWriteReply{m.object, m.page, false, false, m.op_id});
      return;
    }
    case XmmMsgType::kFlushReadAck: {
      const auto& m = std::get<XmmFlushWriteReply>(body);
      // The manager coroutine erases the op after the round completes.
      AckOp(m.op_id, src, /*keep_entry=*/true);
      return;
    }
    case XmmMsgType::kCopyFault:
      (void)copy_pager_.Serve(src, std::get<CopyFault>(std::move(body)));
      return;
    case XmmMsgType::kShadowUpdate:
      shadow().OnUpdate(std::get<ShadowUpdate>(body), std::move(msg.page));
      return;
    case XmmMsgType::kShadowManifest:
      shadow().OnManifest(std::get<ShadowUpdate>(body));
      return;
    case XmmMsgType::kCopyFaultReply:
      copy_pager_.OnReply(std::get<CopyFaultReply>(body), std::move(msg.page));
      return;
  }
  ASVM_CHECK_MSG(false, "unknown XMM message type");
}

void XmmAgent::Send(NodeId to, XmmMsgType type, XmmBody body, PageBuffer page) {
  auto msg = std::make_unique<Message>();
  msg->protocol = ProtocolId::kXmm;
  msg->type = static_cast<uint32_t>(type);
  msg->control_bytes = 128;  // typed NORMA message with port rights
  msg->body = std::move(body);
  msg->page = std::move(page);
  system_.cluster().norma().Send(node_, to, std::move(msg));
}

void XmmAgent::SendShadow(NodeId to, bool manifest, const ShadowUpdate& m, PageBuffer page) {
  Send(to, manifest ? XmmMsgType::kShadowManifest : XmmMsgType::kShadowUpdate, m,
       std::move(page));
}

}  // namespace asvm
