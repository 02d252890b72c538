// NMK13 XMM — the baseline the paper measures against: a centralized manager
// per memory object, speaking XMMI over NORMA-IPC, with per-(page × node)
// state bytes at the manager and delayed copies implemented by blocking
// internal copy pagers on the source node (paper §2.3).
#ifndef SRC_XMM_XMM_SYSTEM_H_
#define SRC_XMM_XMM_SYSTEM_H_

#include <string_view>

#include "src/common/types.h"
#include "src/dsm/cluster.h"
#include "src/dsm/directory_system.h"
#include "src/xmm/xmm_messages.h"

namespace asvm {

class XmmAgent;

struct XmmConfig {
  // Kernel threads available per node for internal copy pagers; the pool is
  // what deadlocks when a copy chain crosses a node twice under load.
  int copy_pager_threads = 16;
  // Per-request processing in the XMM stack (proxy + manager layers).
  SimDuration stack_process_ns = 1300 * kMicrosecond;
  // Supplying page contents through the default pager task: two typed NORMA
  // messages with 8 KB inline data plus the pager's own work. Dominates
  // Table 1's read-fault rows. (File regions use the file pager's own CPU
  // model instead.)
  SimDuration pager_supply_ns = 5000 * kMicrosecond;
  // data_unavailable round for fresh (zero-fill) pages: no contents move.
  SimDuration pager_fresh_ns = 1200 * kMicrosecond;
};

// Per-request counters of the agents, bound on first use (DESIGN.md §11).
// The system owns one set for all nodes, so each name binds once per
// machine and the agents stay small.
struct XmmAgentCounters {
  CounterHandle data_requests, data_unlocks, manager_requests, read_grants, write_grants,
      dirty_cleanings, reader_flushes, write_flushes, evict_discards, evict_returns,
      copy_faults, copy_deadlocks, lost_page_faults, lost_page_replies;
  CounterHandle lease_reclaims;  // failover
};

class XmmSystem : public DirectorySystem<XmmAgent> {
 public:
  XmmSystem(Cluster& cluster, XmmConfig config = {});
  ~XmmSystem() override;

  std::string_view name() const override { return "xmm"; }

  // --- Failover (DESIGN.md §14) ---------------------------------------------

  // Promotes the backup (first alive ring successor) of `id`'s manager if the
  // manager is confirmed removed by the fault plan: re-homes the directory
  // record, rebuilds the access table from surviving kernels, and turns the
  // backup's shadow store into the new manager's pager copies. Idempotent;
  // must run as a cluster mutation (every engine quiescent).
  void PromoteIfManagerDead(const MemObjectId& id);

  // Rejoin after FaultPlan::NodeRemoval::restore_at: the node comes back with
  // cold caches — resident pages, shadow store, and in-memory pager copies
  // are gone; paging-space (disk) contents survive. Runs as a mutation.
  void ColdRestart(NodeId node) override;

  const XmmConfig& config() const { return config_; }
  XmmAgentCounters& agent_counters() { return agent_counters_; }

 private:
  XmmConfig config_;
  XmmAgentCounters agent_counters_;
};

}  // namespace asvm

#endif  // SRC_XMM_XMM_SYSTEM_H_
