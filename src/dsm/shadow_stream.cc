#include "src/dsm/shadow_stream.h"

#include <utility>

#include "src/dsm/failover.h"
#include "src/dsm/protocol_agent.h"
#include "src/machvm/page.h"

namespace asvm {

void ShadowStream::MirrorToBackup(NodeId primary, const MemObjectId& id, PageIndex page,
                                  uint64_t version, const PageBuffer& data) {
  Cluster& cluster = agent_.dsm_.cluster();
  if (!agent_.failover_.enabled) {
    return;
  }
  const NodeId backup =
      RingSuccessor(primary, cluster.node_count(), cluster.fault_plan(), agent_.engine().Now());
  if (backup == kInvalidNode) {
    return;  // no other node alive to shadow into
  }
  if (primary == agent_.node()) {
    // Stranded-shadow repair: if the ring rule now names a different backup
    // than the one this stream has been feeding (the old one died, or rejoined
    // with cold caches), replay the whole ledger there before the new update.
    // In a healthy run the target never changes, so this costs nothing.
    if (backup != target_ && target_ != kInvalidNode) {
      ReplayShadowLedger(backup);
    }
    target_ = backup;
    ledger_[id][page] = Page{version, data};
  }
  agent_.dsm_.failover_counters().shadow_updates.Add(agent_.stats_, kStatShadowUpdates);
  if (backup == agent_.node()) {
    // We are the primary's backup ourselves (eviction redirect): no wire hop.
    backup_[id][page] = Page{version, data};
    SendShadowManifest(id, page, version, backup);
    return;
  }
  agent_.SendShadow(backup, /*manifest=*/false, ShadowUpdate{id, page, version}, data);
  SendShadowManifest(id, page, version, backup);
}

void ShadowStream::SendShadowManifest(const MemObjectId& id, PageIndex page, uint64_t version,
                                      NodeId backup) {
  // The witness is the backup's own successor: a control-only record that the
  // page was committed, surviving the simultaneous loss of primary + backup so
  // recovery can answer kDataLost instead of zero-filling (DESIGN.md §14).
  Cluster& cluster = agent_.dsm_.cluster();
  const NodeId witness =
      RingSuccessor(backup, cluster.node_count(), cluster.fault_plan(), agent_.engine().Now());
  if (witness == kInvalidNode || witness == agent_.node()) {
    return;  // two-node cluster: the primary itself is the only other survivor
  }
  agent_.SendShadow(witness, /*manifest=*/true, ShadowUpdate{id, page, version}, nullptr);
}

void ShadowStream::ReplayShadowLedger(NodeId backup) {
  for (auto& [id, pages] : ledger_) {
    for (auto& [page, sp] : pages) {
      agent_.dsm_.failover_counters().shadow_restreams.Add(agent_.stats_, kStatShadowRestreams);
      agent_.SendShadow(backup, /*manifest=*/false, ShadowUpdate{id, page, sp.version}, sp.data);
      SendShadowManifest(id, page, sp.version, backup);
    }
  }
}

void ShadowStream::RetargetShadowStream(NodeId dead) {
  Cluster& cluster = agent_.dsm_.cluster();
  if (!agent_.failover_.enabled || target_ != dead || ledger_.empty()) {
    return;
  }
  const NodeId backup = RingSuccessor(agent_.node(), cluster.node_count(), cluster.fault_plan(),
                                      agent_.engine().Now());
  if (backup == kInvalidNode) {
    target_ = kInvalidNode;
    return;
  }
  target_ = backup;
  agent_.engine().Post([this, backup]() { ReplayShadowLedger(backup); });
}

void ShadowStream::OnUpdate(const ShadowUpdate& m, PageBuffer data) {
  Page& sp = backup_[m.object][m.page];
  sp.version = m.version;
  sp.data = std::move(data);
}

bool ShadowStream::Witnessed(const MemObjectId& id, PageIndex page) const {
  if (auto mit = manifest_.find(id); mit != manifest_.end() && mit->second.count(page) != 0) {
    return true;
  }
  auto lit = ledger_.find(id);
  return lit != ledger_.end() && lit->second.count(page) != 0;
}

void ShadowStream::Clear() {
  backup_.clear();
  ledger_.clear();
  manifest_.clear();
  target_ = kInvalidNode;
}

}  // namespace asvm
