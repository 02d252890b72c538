// Primary-backup placement shared by every DSM backend (DESIGN.md §14).
//
// The backup of a manager/home node is its first *alive* ring successor
// (node + 1 mod N, skipping nodes the fault plan has removed). Shadow
// directory updates stream to that node while the primary is healthy, and
// promotion — run as a cluster mutation with every engine quiescent — picks
// the successor by the same rule, so the promoted manager already holds the
// shadowed state. Keeping the rule in one place is what makes the two sides
// agree without any extra coordination protocol.
#ifndef SRC_DSM_FAILOVER_H_
#define SRC_DSM_FAILOVER_H_

#include "src/common/types.h"
#include "src/mesh/fault_plan.h"

namespace asvm {

// First alive ring successor of `node` at `now`; kInvalidNode only when every
// other node is dead.
NodeId RingSuccessor(NodeId node, int node_count, const FaultPlan& plan, SimTime now);

// dsm.failover.* stat names, kept in one place so the emitting sites and the
// --fault-report counter list stay in sync.
inline constexpr const char* kStatPromotions = "dsm.failover.promotions";
inline constexpr const char* kStatShadowUpdates = "dsm.failover.shadow_updates";
inline constexpr const char* kStatLeaseReclaims = "dsm.failover.lease_reclaims";
inline constexpr const char* kStatReconstructedPages = "dsm.failover.reconstructed_pages";
inline constexpr const char* kStatRestarts = "dsm.failover.restarts";
inline constexpr const char* kStatReissues = "dsm.failover.reissued_requests";
inline constexpr const char* kStatDeathNotices = "dsm.failover.death_notices";
inline constexpr const char* kStatLostPages = "dsm.failover.lost_pages";
inline constexpr const char* kStatShadowRestreams = "dsm.failover.shadow_restreams";

// IVY-specific failover counters: a death notice re-aims probable-owner hints
// off the corpse (chain cuts) and a requester reclaims a dead owner's page
// after its lease expires (owner reclaims, with harvested-copy count).
inline constexpr const char* kStatIvyChainCuts = "dsm.ivy.chain_cuts";
inline constexpr const char* kStatIvyOwnerReclaims = "dsm.ivy.owner_reclaims";
inline constexpr const char* kStatIvyHarvestedPages = "dsm.ivy.harvested_pages";

// Every failover counter, in report order. `asvmsim --fault-report` iterates
// this array, so a counter added above (and here) shows up in the report
// without touching the CLI — the lists cannot drift apart.
inline constexpr const char* kFailoverStatNames[] = {
    kStatPromotions,     kStatShadowUpdates,   kStatLeaseReclaims,    kStatReconstructedPages,
    kStatRestarts,       kStatReissues,        kStatDeathNotices,     kStatLostPages,
    kStatShadowRestreams, kStatIvyChainCuts,   kStatIvyOwnerReclaims, kStatIvyHarvestedPages,
};

}  // namespace asvm

#endif  // SRC_DSM_FAILOVER_H_
