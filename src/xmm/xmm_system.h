// NMK13 XMM — the baseline the paper measures against: a centralized manager
// per memory object, speaking XMMI over NORMA-IPC, with per-(page × node)
// state bytes at the manager and delayed copies implemented by blocking
// internal copy pagers on the source node (paper §2.3).
#ifndef SRC_XMM_XMM_SYSTEM_H_
#define SRC_XMM_XMM_SYSTEM_H_

#include <memory>
#include <set>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/types.h"
#include "src/dsm/backing.h"
#include "src/dsm/cluster.h"
#include "src/dsm/dsm_system.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
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

// Directory record; page-level state lives at the manager node's agent.
struct XmmObjectInfo {
  MemObjectId id;
  VmSize pages = 0;
  NodeId manager = kInvalidNode;
  std::unique_ptr<ObjectBacking> backing;  // null for copy-pager objects
  bool file_backed = false;                // served by the file pager (own CPU model)
  // Copy-pager objects: where the internal pager (and the frozen local copy
  // of the source address space) lives.
  NodeId copy_pager_node = kInvalidNode;
  // Failover epoch: bumped on every promotion of this object's manager. The
  // directory (manager assignment stamped by this epoch) is the fence against
  // stale ex-managers after a cascade — Deposed() compares against it via the
  // manager field, and traces carry it so recovery timelines are auditable.
  uint64_t epoch = 0;
  bool IsCopyObject() const { return copy_pager_node != kInvalidNode; }
};

// Per-request counters of the agents, bound on first use (DESIGN.md §11).
// The system owns one set for all nodes, so each name binds once per
// machine and the agents stay small.
struct XmmAgentCounters {
  CounterHandle data_requests, data_unlocks, manager_requests, read_grants, write_grants,
      dirty_cleanings, reader_flushes, write_flushes, evict_discards, evict_returns,
      copy_faults, copy_deadlocks, lost_page_faults, lost_page_replies;
  // Failover.
  CounterHandle lease_reclaims, reissues, shadow_updates, shadow_restreams;
};

class XmmSystem : public DsmSystem {
 public:
  XmmSystem(Cluster& cluster, XmmConfig config = {});
  ~XmmSystem() override;

  std::string_view name() const override { return "xmm"; }

  MemObjectId CreateSharedRegion(NodeId home, VmSize pages) override;
  MemObjectId CreateFileRegion(int32_t file_id, VmSize pages) override;
  MemObjectId CreateStripedRegion(const std::vector<StripedBacking::Stripe>& stripes,
                                  VmSize pages) override;
  std::shared_ptr<VmObject> Attach(NodeId node, const MemObjectId& id) override;
  Future<VmMap*> RemoteFork(NodeId src, VmMap& parent, NodeId dst) override;
  size_t MetadataBytes(NodeId node) const override;

  // --- Failover (DESIGN.md §14) ---------------------------------------------

  // Promotes the backup (first alive ring successor) of `id`'s manager if the
  // manager is confirmed removed by the fault plan: re-homes the directory
  // record, rebuilds the access table from surviving kernels, and turns the
  // backup's shadow store into the new manager's pager copies. Idempotent;
  // must run as a cluster mutation (every engine quiescent).
  void PromoteIfManagerDead(const MemObjectId& id);

  // Gossip death notification (DESIGN.md §14): the first agent to classify a
  // silent peer kNodeDown reports it here; a barrier-ordered mutation then
  // fans the death out to every surviving agent, which fails its own pending
  // ops against the victim immediately (no second retry horizon) and
  // re-targets any shadow stream aimed at it. One notice per death.
  void ReportDeath(NodeId reporter, NodeId dead) override;

  // Rejoin after FaultPlan::NodeRemoval::restore_at: the node comes back with
  // cold caches — resident pages, shadow store, and in-memory pager copies
  // are gone; paging-space (disk) contents survive. Runs as a mutation.
  void ColdRestart(NodeId node) override;

  Cluster& cluster() override { return cluster_; }
  const XmmConfig& config() const { return config_; }
  XmmAgentCounters& agent_counters() { return agent_counters_; }
  XmmAgent& agent(NodeId node) { return *agents_.at(node); }

  XmmObjectInfo& info(const MemObjectId& id);
  MemObjectId NewObjectId(NodeId origin) { return MemObjectId{origin, next_seq_++}; }

 private:
  Task RemoteForkTask(NodeId src, VmMap& parent, NodeId dst, Promise<VmMap*> done);
  // The structural half of a fork (source-side map copy, directory inserts,
  // internal copy pagers, child map build), run as ONE cluster mutation at a
  // deterministic sequencing point (src/dsm/cluster_mutator.h).
  VmMap* ApplyRemoteFork(NodeId src, VmMap& parent, NodeId dst);

  // Applies one gossiped death at a barrier: dedup, then survivor fan-out.
  void ApplyDeathNotice(NodeId dead);

  // Keys for anonymous backing in the manager's paging space; a distinct high
  // bit keeps them disjoint from local VM object serials and from ASVM keys.
  uint64_t NextXmmBackingKey() { return (1ULL << 62) | next_backing_key_++; }

  Cluster& cluster_;
  XmmConfig config_;
  XmmAgentCounters agent_counters_;
  std::vector<std::unique_ptr<XmmAgent>> agents_;
  std::unordered_map<MemObjectId, std::unique_ptr<XmmObjectInfo>> directory_;
  uint32_t next_seq_ = 1;
  // Per-system (not process-global) so that identical machines allocate
  // identical paging-space positions — traces must be byte-stable run to run.
  uint64_t next_backing_key_ = 0;
  // Nodes whose death has already been gossiped (first notice wins).
  // ColdRestart removes rejoined nodes so a second death is noticed afresh.
  std::set<NodeId> death_noticed_;
};

}  // namespace asvm

#endif  // SRC_XMM_XMM_SYSTEM_H_
