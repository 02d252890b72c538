// IVY-style dynamic distributed manager (Li & Hudak), the third DSM backend:
// no fixed manager — each page has exactly one owner, found by chasing
// per-node probable-owner hints hop by hop. Ownership migrates to the
// requester on write grants, the owner keeps the page's copyset and
// invalidates it before granting write access, and every hop, grant, and
// invalidation compresses the hint chains it touches.
#ifndef SRC_IVY_IVY_SYSTEM_H_
#define SRC_IVY_IVY_SYSTEM_H_

#include <string_view>

#include "src/common/types.h"
#include "src/dsm/cluster.h"
#include "src/dsm/directory_system.h"
#include "src/ivy/ivy_messages.h"

namespace asvm {

class IvyAgent;

struct IvyConfig {
  // Kernel threads available per node for internal copy pagers (forks share
  // the Mach-style internal pager with XMM — see src/dsm/copy_pager.h).
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

// Per-request counters of the agents, bound on first use (DESIGN.md §11).
// The system owns one set for all nodes, so each name binds once per
// machine and the agents stay small.
struct IvyAgentCounters {
  CounterHandle data_requests, data_unlocks, requests, local_serves, forwards,
      dropped_forwards, parked_requests, owner_requests, read_grants, write_grants,
      write_upgrade_grants, self_upgrades, ownership_moves, invalidations, invalidated_copies,
      straggler_ownership_grants, evict_discards, evict_captures, copy_faults, copy_deadlocks,
      lost_page_faults, lost_page_replies;
  CounterHandle chain_cuts;  // failover
};

class IvySystem : public DirectorySystem<IvyAgent> {
 public:
  IvySystem(Cluster& cluster, IvyConfig config = {});
  ~IvySystem() override;

  std::string_view name() const override { return "ivy"; }

  // --- Failover (DESIGN.md §15) ---------------------------------------------

  // Reclaims (id, page) for `requester` if its owner is confirmed removed and
  // the ownership lease has expired: harvests the newest surviving copy
  // (shadow store first, then any alive read copy), rebuilds the copyset from
  // surviving kernels, and marks witnessed-but-unrecoverable pages lost.
  // When an alive owner exists the requester's hint is aimed straight at it
  // instead (the chain walk found a corpse, not a dead owner). Idempotent;
  // must run as a cluster mutation (every engine quiescent).
  void ReclaimIfOwnerDead(const MemObjectId& id, PageIndex page, NodeId requester);

  // Rejoin after FaultPlan::NodeRemoval::restore_at: resident pages, shadow
  // state, and hints are gone; pages the node still owns are re-seeded from
  // surviving replicas (or marked lost) exactly like a reclaim.
  void ColdRestart(NodeId node) override;

  const IvyConfig& config() const { return config_; }
  IvyAgentCounters& agent_counters() { return agent_counters_; }

 private:
  // The home is every page's initial owner — ownership is always locally
  // decidable, and the hint chains all terminate there until writes migrate
  // pages away.
  void OnRegionCreated(const DirectoryRecord& rec) override;

  // Clears `owner`'s volatile record of (id, page) after its previous owner
  // died (reclaim) or its own memory did (cold restart), rebuilding the
  // copyset from the surviving kernels that still hold the page.
  void ResetOwnerRecord(const MemObjectId& id, PageIndex page, NodeId owner);

  // Seeds (or repairs, after a cold restart) an owner's protocol-level copy
  // of `page` from the newest surviving replica; returns false when the page
  // was provably committed but no replica survived (caller marks it lost).
  bool HarvestNewestCopy(const MemObjectId& id, PageIndex page, NodeId new_owner);

  IvyConfig config_;
  IvyAgentCounters agent_counters_;
};

}  // namespace asvm

#endif  // SRC_IVY_IVY_SYSTEM_H_
