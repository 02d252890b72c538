// The Advanced Shared Virtual Memory system (the paper's contribution):
// distributed dynamic page ownership with layered forwarding (dynamic hints →
// static ownership managers → global scan), internode paging, and delayed-copy
// management over the STS transport.
//
// AsvmSystem owns one AsvmAgent per node plus the object directory. The
// directory holds configuration-level facts about each object (home, peer,
// sharing set, copy-chain shape, version counter) that the real system kept
// replicated via its setup protocol; holding them centrally is a simulation
// convenience and is never consulted for page-level state, which lives
// strictly per node in the agents.
#ifndef SRC_ASVM_ASVM_SYSTEM_H_
#define SRC_ASVM_ASVM_SYSTEM_H_

#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/asvm/messages.h"
#include "src/common/trace.h"
#include "src/common/types.h"
#include "src/dsm/backing.h"
#include "src/dsm/cluster.h"
#include "src/dsm/dsm_system.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace asvm {

class AsvmAgent;
class ClusterWaitGroup;

struct AsvmConfig {
  bool dynamic_forwarding = true;
  bool static_forwarding = true;
  size_t dyn_cache_capacity = 1024;     // owner hints per object per node
  size_t static_cache_capacity = 4096;  // static-manager cache per object
  size_t pageout_min_free_frames = 4;   // accept threshold for pageout offers
  // Step 2/3 of the eviction algorithm (§3.6). Disabling falls straight
  // through to the pager — the ablation showing why internode paging matters.
  bool internode_paging = true;
  // Run the ASVM protocol over NORMA-IPC instead of the dedicated STS — the
  // §3.1 "Dedicated Transport Service" ablation.
  bool use_norma_transport = false;
  SimDuration agent_process_ns = 60 * kMicrosecond;  // per-message handling
};

// Directory record for one distributed memory object.
struct AsvmObjectInfo {
  MemObjectId id;
  VmSize pages = 0;
  NodeId home = kInvalidNode;       // where the backing pager runs
  NodeId peer = kInvalidNode;       // copy objects: node holding the VM links
  MemObjectId shadow;               // copy objects: the source object
  MemObjectId newest_copy;          // source side: current copy-epoch head
  uint64_t object_version = 0;      // bumped on each copy creation
  std::vector<NodeId> sharing;      // nodes with a local representation
  std::unique_ptr<ObjectBacking> backing;  // null for copy objects
  // File/striped regions survive a home's death in external storage — failover
  // re-homes them without shadow replication. Anonymous regions do not; their
  // homes stream written-back pages to a backup (DESIGN.md §14).
  bool file_backed = false;
  // Failover epoch: bumped on every promotion of this object's home role(s).
  // The directory (terminal assignments stamped by this epoch) is the fence
  // against stale ex-managers after a cascade: a request that reaches a node
  // the current epoch no longer names re-routes instead of being served with
  // stale authority.
  uint64_t epoch = 0;

  // §6 striped regions: one forwarding terminal per stripe (page p belongs
  // to stripe_homes[p % k]); empty for ordinary objects.
  std::vector<NodeId> stripe_homes;

  bool IsCopy() const { return shadow.valid(); }
  // The terminal of request forwarding when no owner exists: the pager (home)
  // for backed objects — per stripe for striped ones — and the peer node
  // (shadow-chain walk) for copies.
  NodeId Terminal(PageIndex page) const {
    if (IsCopy()) {
      return peer;
    }
    if (!stripe_homes.empty()) {
      return stripe_homes[static_cast<size_t>(page) % stripe_homes.size()];
    }
    return home;
  }
};

// Per-request counters of the agents, bound on first use (DESIGN.md §11).
// The system owns one set for all nodes, so each name binds once per
// machine and the agents stay small.
struct AsvmAgentCounters {
  // Requests and forwarding tiers.
  CounterHandle data_requests, data_unlocks, self_stragglers_dropped, fwd_escalations,
      fwd_dynamic, fwd_static, fwd_static_hit, fwd_static_terminal, fwd_static_miss,
      fwd_global_started, fwd_global_hop, retries, stale_terminal_reroutes,
      owner_is_origin_forwards, ring_retries;
  // Owner and terminal service.
  CounterHandle pull_served_by_owner, read_grants, write_grants, write_upgrade_grants,
      self_upgrades, invalidations, invalidations_received, lost_page_faults,
      lost_page_replies, recovered_serves, backing_reads, fresh_grants, peer_pulls,
      pull_chain_forwards, range_lock_holds;
  // Internode paging and pushes.
  CounterHandle evict_discards, evict_owner, evict_ownership_transfers, evict_page_transfers,
      evict_writebacks, ownership_offers_accepted, pageout_offers_accepted,
      pageout_offers_declined, push_operations, push_scans, push_cancelled_by_scan;
};

class AsvmSystem : public DsmSystem {
 public:
  AsvmSystem(Cluster& cluster, AsvmConfig config = {});
  ~AsvmSystem() override;

  std::string_view name() const override { return "asvm"; }

  MemObjectId CreateSharedRegion(NodeId home, VmSize pages) override;
  MemObjectId CreateFileRegion(int32_t file_id, VmSize pages) override;
  MemObjectId CreateStripedRegion(const std::vector<StripedBacking::Stripe>& stripes,
                                  VmSize pages) override;
  std::shared_ptr<VmObject> Attach(NodeId node, const MemObjectId& id) override;
  Future<VmMap*> RemoteFork(NodeId src, VmMap& parent, NodeId dst) override;
  size_t MetadataBytes(NodeId node) const override;

  Cluster& cluster() override { return cluster_; }
  const AsvmConfig& config() const { return config_; }
  AsvmAgentCounters& agent_counters() { return agent_counters_; }
  AsvmAgent& agent(NodeId node) { return *agents_.at(node); }

  // System-level monitoring, now machine-wide: the monitor attaches to the
  // cluster's shared sink, so transport/mesh/disk events arrive alongside the
  // ASVM protocol events (nullptr detaches).
  void AttachMonitor(ProtocolMonitor* monitor) { cluster_.AttachMonitor(monitor); }
  ProtocolMonitor* monitor() const { return cluster_.monitor(); }

  // --- Directory -------------------------------------------------------------

  AsvmObjectInfo& info(const MemObjectId& id);
  const AsvmObjectInfo* FindInfo(const MemObjectId& id) const;

  // The static ownership manager of (object, page): a fixed function over the
  // nodes sharing the object (paper §3.4, "static forwarding").
  NodeId StaticManagerOf(const AsvmObjectInfo& info, PageIndex page) const;

  // Registers `node` as a sharer (idempotent).
  void AddSharer(AsvmObjectInfo& info, NodeId node);

  // Exports a node-local anonymous object as a distributed object: assigns an
  // identity, registers the local agent as its manager, and marks existing
  // resident pages as owned by `node`.
  MemObjectId ExportObject(NodeId node, const std::shared_ptr<VmObject>& object);

  // Creates a copy-object identity for a delayed copy of `source` whose VM
  // links live on `peer`; bumps the source's version and maintains the copy
  // chain (older epoch re-linked through the new one).
  MemObjectId RegisterCopy(const MemObjectId& source, NodeId peer, VmSize pages);

  MemObjectId NewObjectId(NodeId origin) {
    return MemObjectId{origin, next_seq_++};
  }

  // --- Failover (DESIGN.md §14) ---------------------------------------------

  // Re-homes `id` if its forwarding terminal(s) are confirmed dead: each dead
  // home (or dead stripe home) moves to its first alive ring successor, the
  // home-role directory is rebuilt from surviving owners' page state, and the
  // backup's shadow store seeds the recovered-page overlay for pages whose
  // only copy died with the old home. Idempotent; must run as a cluster
  // mutation (all shards at a barrier). Copy objects are out of scope — their
  // peer holds unreplicated VM links.
  void PromoteIfHomeDead(const MemObjectId& id);

  // Owner-death reconstruction: reclaims (object, page) from its confirmed-
  // dead, lease-expired owner and seeds the home's recovered overlay with the
  // newest surviving read copy (survivors' now-untracked copies are dropped
  // so a future writer cannot leave them stale). Idempotent; must run as a
  // cluster mutation — it reads and edits other kernels' page tables.
  void ReclaimDeadOwnerPage(const MemObjectId& id, PageIndex page);

  // Rejoin support: `node` restarts with empty caches. Clears its page/hint/
  // terminal/shadow state in place (reference-stable: suspended coroutines may
  // hold entry references), purges its resident pages, and drops home records
  // attributed to it at surviving terminals. Must run as a cluster mutation.
  void ColdRestart(NodeId node) override;

 private:
  Task RemoteForkTask(NodeId src, VmMap& parent, NodeId dst, Promise<VmMap*> done);
  // The structural half of a fork — directory inserts, child map build, copy
  // registration, read-only broadcast launch. Runs as ONE cluster mutation at
  // a deterministic sequencing point (Cluster::Mutate), so sharded
  // runs fork byte-identically to single-threaded ones.
  VmMap* ApplyRemoteFork(NodeId src, VmMap& parent, NodeId dst, ClusterWaitGroup& ro_done);

  ProtocolAgent& protocol_agent(NodeId node) override;

  // Owner-death reconstruction, shared by promotion and lease reclaim: clones
  // the highest-version read copy of (`id`, `page`) that an alive non-owner
  // still holds into the recovered overlay of the page's terminal node
  // `terminal`, and drops every such survivor's copy — no owner tracks them
  // anymore, so a future writer could never invalidate them. Must run as a
  // cluster mutation.
  void HarvestReadCopy(const MemObjectId& id, PageIndex page, NodeId terminal);

  // Keys for anonymous backing in the home's paging space; the high bit keeps
  // them disjoint from local VM object serials.
  uint64_t NextBackingKey() { return (1ULL << 63) | next_backing_key_++; }

  Cluster& cluster_;
  AsvmConfig config_;
  AsvmAgentCounters agent_counters_;
  std::vector<std::unique_ptr<AsvmAgent>> agents_;
  std::unordered_map<MemObjectId, std::unique_ptr<AsvmObjectInfo>> directory_;
  uint32_t next_seq_ = 1;
  // Per-system (not process-global) so that identical machines allocate
  // identical paging-space positions — traces must be byte-stable run to run.
  uint64_t next_backing_key_ = 0;
};

}  // namespace asvm

#endif  // SRC_ASVM_ASVM_SYSTEM_H_
