// IVY-style dynamic distributed manager (Li & Hudak), the third DSM backend:
// no fixed manager — each page has exactly one owner, found by chasing
// per-node probable-owner hints hop by hop. Ownership migrates to the
// requester on write grants, the owner keeps the page's copyset and
// invalidates it before granting write access, and every hop, grant, and
// invalidation compresses the hint chains it touches.
#ifndef SRC_IVY_IVY_SYSTEM_H_
#define SRC_IVY_IVY_SYSTEM_H_

#include <memory>
#include <set>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/types.h"
#include "src/dsm/backing.h"
#include "src/dsm/cluster.h"
#include "src/dsm/dsm_system.h"
#include "src/ivy/ivy_messages.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace asvm {

class IvyAgent;

struct IvyConfig {
  // Kernel threads available per node for internal copy pagers (forks share
  // the Mach-style internal pager with XMM — see ivy_messages.h).
  int copy_pager_threads = 16;
  // Owner-side per-request processing, serialized on the owner's CPU.
  SimDuration stack_process_ns = 1300 * kMicrosecond;
  // Per-hop cost of relaying a request along the probable-owner chain — the
  // price IVY pays instead of a fixed manager hop.
  SimDuration forward_process_ns = 400 * kMicrosecond;
  // Supplying page contents out of the owner's protocol-level copy.
  SimDuration pager_supply_ns = 5000 * kMicrosecond;
  // Zero-fill grant for a never-written page: no contents move.
  SimDuration pager_fresh_ns = 1200 * kMicrosecond;
};

// Directory record. Unlike XMM there is no manager field to consult on the
// fault path — ownership is found by chasing hints — but the record anchors
// the hint chains (home = initial owner of every page) and holds the backing
// store that lives at the home node.
struct IvyObjectInfo {
  MemObjectId id;
  VmSize pages = 0;
  NodeId home = kInvalidNode;  // initial owner; fallback when a hint is cut
  std::unique_ptr<ObjectBacking> backing;  // null for copy-pager objects
  bool file_backed = false;
  // Copy-pager objects: where the internal pager (and the frozen local copy
  // of the source address space) lives.
  NodeId copy_pager_node = kInvalidNode;
  // Bumped on every reclaim of a dead owner's page (audit trail for traces).
  uint64_t epoch = 0;
  bool IsCopyObject() const { return copy_pager_node != kInvalidNode; }
};

// Per-request counters of the agents, bound on first use (DESIGN.md §11).
// The system owns one set for all nodes, so each name binds once per
// machine and the agents stay small.
struct IvyAgentCounters {
  CounterHandle data_requests, data_unlocks, requests, local_serves, forwards,
      dropped_forwards, parked_requests, owner_requests, read_grants, write_grants,
      write_upgrade_grants, self_upgrades, ownership_moves, invalidations, invalidated_copies,
      straggler_ownership_grants, evict_discards, evict_captures, copy_faults, copy_deadlocks,
      lost_page_faults, lost_page_replies;
  // Failover.
  CounterHandle chain_cuts, reissues, shadow_updates, shadow_restreams;
};

class IvySystem : public DsmSystem {
 public:
  IvySystem(Cluster& cluster, IvyConfig config = {});
  ~IvySystem() override;

  std::string_view name() const override { return "ivy"; }

  MemObjectId CreateSharedRegion(NodeId home, VmSize pages) override;
  MemObjectId CreateFileRegion(int32_t file_id, VmSize pages) override;
  MemObjectId CreateStripedRegion(const std::vector<StripedBacking::Stripe>& stripes,
                                  VmSize pages) override;
  std::shared_ptr<VmObject> Attach(NodeId node, const MemObjectId& id) override;
  Future<VmMap*> RemoteFork(NodeId src, VmMap& parent, NodeId dst) override;
  size_t MetadataBytes(NodeId node) const override;

  // --- Failover (DESIGN.md §15) ---------------------------------------------

  // Reclaims (id, page) for `requester` if its owner is confirmed removed and
  // the ownership lease has expired: harvests the newest surviving copy
  // (shadow store first, then any alive read copy), rebuilds the copyset from
  // surviving kernels, and marks witnessed-but-unrecoverable pages lost.
  // When an alive owner exists the requester's hint is aimed straight at it
  // instead (the chain walk found a corpse, not a dead owner). Idempotent;
  // must run as a cluster mutation (every engine quiescent).
  void ReclaimIfOwnerDead(const MemObjectId& id, PageIndex page, NodeId requester);

  // Gossip death notification: fans the death out to every surviving agent,
  // which cuts every probable-owner hint aimed at the corpse, re-targets any
  // shadow stream feeding it, and fails its pending ops against it.
  void ReportDeath(NodeId reporter, NodeId dead) override;

  // Rejoin after FaultPlan::NodeRemoval::restore_at: resident pages, shadow
  // state, and hints are gone; pages the node still owns are re-seeded from
  // surviving replicas (or marked lost) exactly like a reclaim.
  void ColdRestart(NodeId node) override;

  Cluster& cluster() override { return cluster_; }
  const IvyConfig& config() const { return config_; }
  IvyAgentCounters& agent_counters() { return agent_counters_; }
  IvyAgent& agent(NodeId node) { return *agents_.at(node); }

  IvyObjectInfo& info(const MemObjectId& id);
  MemObjectId NewObjectId(NodeId origin) { return MemObjectId{origin, next_seq_++}; }

 private:
  Task RemoteForkTask(NodeId src, VmMap& parent, NodeId dst, Promise<VmMap*> done);
  VmMap* ApplyRemoteFork(NodeId src, VmMap& parent, NodeId dst);

  // Applies one gossiped death at a barrier: dedup, then survivor fan-out.
  void ApplyDeathNotice(NodeId dead);

  // Seeds (or repairs, after a cold restart) an owner's protocol-level copy
  // of `page` from the newest surviving replica; returns false when the page
  // was provably committed but no replica survived (caller marks it lost).
  bool HarvestNewestCopy(const MemObjectId& id, PageIndex page, NodeId new_owner);

  // Keys for anonymous backing in the home's paging space; a distinct high
  // bit keeps them disjoint from local VM serials and ASVM/XMM keys.
  uint64_t NextIvyBackingKey() { return (1ULL << 61) | next_backing_key_++; }

  Cluster& cluster_;
  IvyConfig config_;
  IvyAgentCounters agent_counters_;
  std::vector<std::unique_ptr<IvyAgent>> agents_;
  std::unordered_map<MemObjectId, std::unique_ptr<IvyObjectInfo>> directory_;
  uint32_t next_seq_ = 1;
  // Per-system so identical machines allocate identical paging-space
  // positions — traces must be byte-stable run to run.
  uint64_t next_backing_key_ = 0;
  // Nodes whose death has already been gossiped (first notice wins).
  std::set<NodeId> death_noticed_;
};

}  // namespace asvm

#endif  // SRC_IVY_IVY_SYSTEM_H_
