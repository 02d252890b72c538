// Common interface of the three distributed memory managers (ASVM, XMM and
// IVY), so workloads and benchmarks run unchanged against any of them, plus
// the failover plumbing they share: gossip death notices and the scans over
// every agent's shadow stream (DESIGN.md §14).
#ifndef SRC_DSM_DSM_SYSTEM_H_
#define SRC_DSM_DSM_SYSTEM_H_

#include <memory>
#include <set>
#include <string_view>
#include <vector>

#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/dsm/backing.h"
#include "src/dsm/cluster.h"
#include "src/machvm/vm_map.h"
#include "src/machvm/vm_object.h"
#include "src/sim/future.h"

namespace asvm {

class ProtocolAgent;

class DsmSystem {
 public:
  DsmSystem() = default;
  virtual ~DsmSystem();

  // The agents' stall probe holds this system's address.
  DsmSystem(const DsmSystem&) = delete;
  DsmSystem& operator=(const DsmSystem&) = delete;

  virtual std::string_view name() const = 0;

  // The simulated multicomputer the system is built on.
  virtual Cluster& cluster() = 0;

  // Allocates an id for a multi-message protocol exchange (invalidation
  // rounds, flush rounds, push rounds) originated by `origin`. Ids embed the
  // originating node and count per node, so allocation is deterministic and
  // race-free under sharding (a global counter would hand out ids in thread
  // interleaving order); the agents' pending-op tables only need uniqueness.
  uint64_t NextOpId(NodeId origin) {
    return (static_cast<uint64_t>(origin) + 1) << 40 | ++next_op_id_[origin];
  }

  // Creates an anonymous distributed shared memory region homed at `home`
  // (zero-filled; paging space on the home's I/O group as backing).
  virtual MemObjectId CreateSharedRegion(NodeId home, VmSize pages) = 0;

  // Creates a distributed region backed by `file_id` of the cluster's file
  // pager.
  virtual MemObjectId CreateFileRegion(int32_t file_id, VmSize pages) = 0;

  // §6 extension: a region over a striped file — page p is served by stripe
  // p % k, each stripe its own (pager, file) pair on its own I/O node.
  // ASVM forwards per stripe; XMM still funnels through one manager (the
  // UFS/PFS contrast the paper's future-work section draws).
  virtual MemObjectId CreateStripedRegion(const std::vector<StripedBacking::Stripe>& stripes,
                                          VmSize pages) = 0;

  // Returns the node-local VM representation of the object, creating and
  // registering it on first use (the node becomes a sharer of the object).
  virtual std::shared_ptr<VmObject> Attach(NodeId node, const MemObjectId& id) = 0;

  // Remote task creation: builds a map on `dst` that delayed-copies every
  // kCopy entry of `parent` (on `src`) and shares kShare entries. Completes
  // when the child map is usable.
  virtual Future<VmMap*> RemoteFork(NodeId src, VmMap& parent, NodeId dst) = 0;

  // Non-pageable DSM metadata held on `node`, in bytes (invariant 7: ASVM is
  // O(resident); the XMM manager is Θ(pages × sharers)).
  virtual size_t MetadataBytes(NodeId node) const = 0;

  // Failover (DESIGN.md §14): a removed node with FaultPlan restore_at set
  // rejoins at that instant with cold caches. Called from a cluster mutation
  // (every engine quiescent); the system purges the node's cached page state
  // and hints, and reconstructs any manager/home records the node still
  // legitimately holds from the surviving agents. Default: nothing to do.
  virtual void ColdRestart(NodeId node) { (void)node; }

  // Gossip death notification (DESIGN.md §14): the first agent to classify a
  // silent peer kNodeDown reports it here, from its own engine context. A
  // barrier-ordered mutation then fans the death out to every surviving
  // agent (ProtocolAgent::OnDeathNotice), so each bystander fails over at the
  // next sequencing point instead of independently burning its full retry
  // horizon. One notice per death; none with failover or notices disabled.
  void ReportDeath(NodeId reporter, NodeId dead);

  // Failover counters every agent shares, so each name binds once per machine.
  struct FailoverCounters {
    CounterHandle reissues, shadow_updates, shadow_restreams;
  };
  FailoverCounters& failover_counters() { return failover_counters_; }

 protected:
  // Concrete systems size the per-node id space during construction.
  void InitOpIds(int node_count) { next_op_id_.assign(static_cast<size_t>(node_count), 0); }

  // The protocol agent running on `node`.
  virtual ProtocolAgent& protocol_agent(NodeId node) = 0;

  // Registers the stall-watchdog probe that reports every agent's blocked
  // work, in node order. Concrete systems call it once their agents exist.
  void AddAgentStallProbe();

  // True unless the fault plan has removed `node` by now.
  bool Alive(NodeId node);

  // The committed-witness scan: true when some alive node witnessed (id, page)
  // as committed — a shadow manifest, or a primary's own ledger. Recovery
  // that finds no surviving copy of such a page marks it lost (kDataLost)
  // instead of zero-filling it; pages with no witness were never written.
  bool SurvivorWitnessedCommit(const MemObjectId& id, PageIndex page);

  // The XMM and IVY shadow fold: moves the shadowed copy of (id, page) into
  // `out`, taken from `preferred`'s store if it holds one, else from the
  // lowest alive node's, and erases the page from every alive store (after
  // a cascade or a re-targeted stream the newest entry may sit anywhere).
  // Returns false when no store held the page. ASVM folds by page version.
  bool TakeShadowCopy(const MemObjectId& id, PageIndex page, NodeId preferred, PageBuffer& out);

  // Cold restart of `node`: its shadow stream died with it, and its next
  // death must gossip afresh.
  void ResetFailoverState(NodeId node);

 private:
  // Applies one gossiped death at a barrier: dedup, then survivor fan-out.
  void ApplyDeathNotice(NodeId dead);

  // Indexed by originating node; each slot is only touched from its node's
  // shard thread, so no synchronization is needed.
  std::vector<uint64_t> next_op_id_;
  FailoverCounters failover_counters_;
  // Nodes whose death has already been gossiped (first notice wins).
  std::set<NodeId> death_noticed_;
  // The agents' stall probe, removed by ~DsmSystem (null until added).
  Cluster* stall_cluster_ = nullptr;
  int stall_probe_id_ = -1;
};

}  // namespace asvm

#endif  // SRC_DSM_DSM_SYSTEM_H_
