// Failover shadow stream (DESIGN.md §14), one per protocol agent. A primary —
// an ASVM home, an XMM manager, an IVY page owner, or a proxy redirecting an
// eviction away from a dead primary — mirrors each page it commits to the
// primary's backup, the first alive ring successor (RingSuccessor), plus a
// control-only commit witness to the backup's own successor. Each node's
// stream plays three roles:
//   - backup: the newest shadowed buffer per page, which promotion or reclaim
//     turns into the recovered copy;
//   - primary: the ledger of everything mirrored so far and the node it went
//     to. When the ring rule names a new backup (the old one died, or rejoined
//     with cold caches), the whole ledger is replayed there;
//   - witness: pages some primary committed, recorded without contents.
// Ordered maps, so recovery scans stores in a shard-count-invariant order.
#ifndef SRC_DSM_SHADOW_STREAM_H_
#define SRC_DSM_SHADOW_STREAM_H_

#include <map>
#include <set>

#include "src/common/types.h"
#include "src/dsm/dsm_messages.h"
#include "src/transport/message.h"

namespace asvm {

class ProtocolAgent;

class ShadowStream {
 public:
  struct Page {
    uint64_t version = 0;  // ASVM's page version; 0 for XMM and IVY
    PageBuffer data;
  };
  using Store = std::map<MemObjectId, std::map<PageIndex, Page>>;

  explicit ShadowStream(ProtocolAgent& agent) : agent_(agent) {}

  // Streams (id, page) to `primary`'s backup; `primary` is this node except
  // for an eviction redirected away from a dead primary, which only feeds
  // the backup (no ledger entry here). No-op with failover disabled or no
  // other node alive.
  void MirrorToBackup(NodeId primary, const MemObjectId& id, PageIndex page, uint64_t version,
                      const PageBuffer& data);

  // Death-notice hook: if this stream fed `dead`, re-target it at the new
  // ring successor and replay the ledger there. Called from the death-notice
  // mutation (engines quiescent), so the replay sends are posted.
  void RetargetShadowStream(NodeId dead);

  // Receiving side of kShadowUpdate / kShadowManifest.
  void OnUpdate(const ShadowUpdate& m, PageBuffer data);
  void OnManifest(const ShadowUpdate& m) { manifest_[m.object].insert(m.page); }

  // True when this node witnessed (id, page) as committed: a manifest, or
  // its own ledger as a primary.
  bool Witnessed(const MemObjectId& id, PageIndex page) const;

  // The backup-role store, consumed by promotion and reclaim folds.
  Store& backup_store() { return backup_; }

  // Cold restart: every role's state died with the node.
  void Clear();

 private:
  // Control-only commit witness to `backup`'s successor. No-op when no third
  // node is alive.
  void SendShadowManifest(const MemObjectId& id, PageIndex page, uint64_t version,
                          NodeId backup);
  // Re-sends the whole ledger to `backup`.
  void ReplayShadowLedger(NodeId backup);

  ProtocolAgent& agent_;
  Store backup_;
  Store ledger_;
  NodeId target_ = kInvalidNode;
  std::map<MemObjectId, std::set<PageIndex>> manifest_;
};

}  // namespace asvm

#endif  // SRC_DSM_SHADOW_STREAM_H_
