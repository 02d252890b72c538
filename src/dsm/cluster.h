// The simulated multicomputer: engines, mesh, transports, and one kernel VM
// (plus paging machinery) per node — everything below the DSM layer. ASVM,
// XMM and IVY are constructed on top of a Cluster.
#ifndef SRC_DSM_CLUSTER_H_
#define SRC_DSM_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/common/trace.h"
#include "src/common/types.h"
#include "src/machvm/default_pager.h"
#include "src/machvm/disk.h"
#include "src/machvm/file_pager.h"
#include "src/machvm/node_vm.h"
#include "src/mesh/fault_plan.h"
#include "src/mesh/network.h"
#include "src/sim/engine.h"
#include "src/sim/event_fn.h"
#include "src/sim/shard_mailbox.h"
#include "src/sim/sharded_engine.h"
#include "src/transport/transport.h"

namespace asvm {

// Timeout/retry hardening for the protocol agents' pending-op table
// (ProtocolAgent). timeout_ns == 0 leaves the machinery disarmed: no deadline
// events are scheduled and timelines stay bit-identical to the unhardened
// simulator. Attempt k's deadline is timeout_ns * backoff^k, saturating at
// max_delay_ns so aggressive policies cannot overflow the scheduler's clock.
struct RetryPolicy {
  SimDuration timeout_ns = 0;
  int max_retries = 3;
  double backoff = 2.0;
  SimDuration max_delay_ns = kSecond;
};

// Manager-failover configuration (DESIGN.md §14). Disabled, none of the
// shadowing / lease / promotion machinery runs and timelines keep their
// healthy goldens. lease_ns must comfortably exceed the worst in-flight
// message latency (fault jitter included) so an ownership transfer racing a
// removal has settled before the terminal reclaims the dead owner's page.
struct FailoverConfig {
  bool enabled = false;
  SimDuration lease_ns = 50 * kMillisecond;
  // Gossip death notification: the first node whose pending op resolves
  // kNodeDown broadcasts a barrier-ordered death notice, so bystanders fail
  // over immediately instead of each burning its own retry horizon. Off, every
  // requester pays full silence detection (the PR 8 behaviour — kept as the
  // bench_failover A/B baseline).
  bool death_notices = true;
};

struct ClusterParams {
  int node_count = 4;
  // Event core behind the engine; kReference selects the heap-based oracle
  // (identical timelines, slower — see src/sim/scheduler.h).
  SchedulerKind scheduler = SchedulerKind::kTimerWheel;
  VmParams vm;                       // per-node VM configuration
  MeshParams mesh;
  DiskParams disk;
  FilePagerParams file_pager;
  int nodes_per_io_group = 32;       // one disk per 32 compute nodes (Paragon)
  // File pagers (each with its own disk) on nodes 0..count-1; >1 enables the
  // §6 striped-file extension.
  int file_pager_count = 1;
  FaultPlanParams fault;  // empty = perfectly reliable fabric
  RetryPolicy retry;      // timeout_ns = 0: no pending-op deadlines
  FailoverConfig failover;  // primary-backup manager replication (off = legacy)
  // Parallel simulation: partition the node space into this many shards, each
  // with its own engine, synchronized by conservative-lookahead windows
  // (DESIGN.md §13). Every shard count runs the same drain loop and the same
  // fabric path; shards == 1 just runs each window inline on one engine.
  // Shards divide along nodes_per_io_group boundaries; a request above
  // ceil(node_count / nodes_per_io_group) is clamped to that block count
  // (the timeline is byte-identical at every shard count, so clamping is a
  // performance decision, not a behavioural one).
  int shards = 1;
};

class Cluster {
 public:
  explicit Cluster(ClusterParams params);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const ClusterParams& params() const { return params_; }
  int node_count() const { return params_.node_count; }
  size_t page_size() const { return params_.vm.page_size; }

  // The root engine: shard 0's engine. Workload driver code (promise
  // completion, measurement probes) runs here. Drain the machine with Run /
  // RunFor, never through this engine directly: cross-node messages wait in
  // the mailbox until the cluster's drain loop replays them.
  Engine& engine() { return engines_->shard(0); }
  // The engine that simulates `node`.
  Engine& engine_for(NodeId node) { return engines_->engine_for_node(node); }
  int shards() const { return params_.shards; }

  // Machine-visible simulated time: the furthest shard clock (between
  // windows every cross-shard effect with a timestamp at or before any shard
  // clock has been applied).
  SimTime Now() const { return engines_->MaxNow(); }

  // No runnable event on any engine, no message and no mutation waiting in a
  // mailbox. Valid between runs / windows.
  bool Empty() const;

  // Drains the machine: every engine empty and every mailbox replayed. Returns
  // the number of events executed. Both Run and RunFor are the one
  // conservative-lookahead barrier loop (DrainSharded, DESIGN.md §13).
  uint64_t Run();

  // Runs until the machine drains or simulated time would pass Now() + d.
  // Returns true if it drained (Engine::RunFor semantics).
  bool RunFor(SimDuration d);

  // Event-count safety valve, applied per engine.
  void set_event_limit(uint64_t per_engine_limit);

  // Deterministically ordered cluster mutations: driver-originated structural
  // changes (fork directory inserts, death notices, cross-node completion
  // signals) that many nodes — and so, in a sharded run, many engines —
  // observe. Call from node `origin`'s execution context: an event running on
  // origin's engine, or the driver while the machine is quiescent. `fn` is
  // stamped with origin's engine time t and applied at t + lookahead, on the
  // coordinator, with every engine quiescent and its clock at the apply time.
  // Equal apply times run in (origin node, per-origin seq) order, the same
  // at every shard count (DESIGN.md §13).
  void Mutate(NodeId origin, EventFn fn) {
    mutations_->Post(engine_for(origin).Now(), origin, std::move(fn));
  }

  // DSM directory state may only be mutated while every engine is quiescent:
  // from the driver between runs, or from a mutation applied at a sequencing
  // point. Call from directory-mutating entry points to catch stray mid-window
  // access (`what` names the operation in the failure message).
  void AssertDriverQuiescent(const char* what) const {
    ASVM_CHECK_MSG(!in_window_, what);
  }

  StatsRegistry& stats() { return stats_; }

  // Opt-in per-message-type transport counters ("transport.<name>.msg.<type>")
  // on all three transports. Off by default: the per-send lookup is host-side
  // cost every message pays.
  void EnablePerTypeMessageStats();

  // Machine-wide observability: every layer (the DSM agents, the transports,
  // the mesh fabric, the disks) emits TraceEvents into this one sink. With no
  // monitor attached emission is a single branch, so timelines are
  // bit-identical to an unmonitored run.
  void AttachMonitor(ProtocolMonitor* monitor) { trace_sink_.monitor = monitor; }
  ProtocolMonitor* monitor() const { return trace_sink_.monitor; }
  TraceSink& trace_sink() { return trace_sink_; }

  Network& network() { return *network_; }
  Transport& sts() { return *sts_; }
  Transport& sts_ctl() { return *sts_ctl_; }
  Transport& norma() { return *norma_; }
  // Always present; empty params mean a healthy machine.
  FaultPlan& fault_plan() { return *fault_plan_; }

  // --- Stall watchdog --------------------------------------------------------
  // Components that can hold blocked coroutines (pending protocol ops,
  // in-flight page faults) register a probe. When a handler is installed and
  // the machine drains (Run, or a RunFor that drains) while some probe still
  // reports blocked work, the simulation has stalled: simulated time can
  // never advance again, yet work remains incomplete. The handler receives a
  // diagnostic report assembled from every blocked probe, so the run ends
  // with a diagnosis instead of a silently missing result. The check runs
  // only at that final drain, with every shard quiescent; with no handler
  // installed it is skipped entirely (zero behavioural and timeline change).
  using StallProbe = std::function<bool(std::string& report)>;

  // Returns an id for RemoveStallProbe. Probes run in registration order.
  int AddStallProbe(StallProbe probe);
  void RemoveStallProbe(int id);
  void SetStallHandler(std::function<void(const std::string&)> handler) {
    stall_handler_ = std::move(handler);
  }
  uint64_t stalls_detected() const { return stalls_detected_; }

  NodeVm& vm(NodeId node) { return *nodes_.at(node).vm; }
  DefaultPager& default_pager(NodeId node) { return *nodes_.at(node).default_pager; }
  Disk& paging_disk(NodeId node) { return *disks_.at(node / params_.nodes_per_io_group); }

  // The file pager lives on node 0's I/O group (node 0 stands in for the I/O
  // node; the pager CPU and disk are the bottleneck either way).
  FilePager& file_pager(int index = 0) { return *file_pagers_.at(index); }
  int file_pager_count() const { return static_cast<int>(file_pagers_.size()); }

 private:
  struct Node {
    std::unique_ptr<NodeVm> vm;
    std::unique_ptr<DefaultPager> default_pager;
  };

  // Re-synchronizes every shard clock to `time` (see DrainSharded).
  void SyncClocks(SimTime time);
  // Replays every collected message safely below the conservative horizon.
  // Returns the earliest pending event time across all shards afterwards.
  SimTime ReplayMessages();
  // Apply time of the earliest collected mutation, kNever when none is.
  SimTime NextMutationTime() const;
  // Runs every collected mutation whose apply time is `when`, in
  // (send_time, origin, seq) order. Mutations a running mutation posts wait
  // for the next Collect.
  void ApplyMutations(SimTime when);
  // Runs the stall probes at the final drain (see AddStallProbe).
  void CheckStall();
  // The barrier loop behind Run and RunFor, at every shard count. Runs
  // windows until every engine is empty and no message or mutation is
  // pending, or simulated time would pass `until`. Returns true if the
  // machine drained.
  bool DrainSharded(SimTime until);

  ClusterParams params_;
  std::unique_ptr<ShardedEngine> engines_;
  // Cross-node messages and cluster mutations, each replayed in
  // (send_time, source node, per-source seq) order at the barrier.
  std::unique_ptr<ShardMailbox<MeshRecord>> messages_;
  std::unique_ptr<ShardMailbox<EventFn>> mutations_;
  // Conservative bounds, fixed at construction: the cheapest software send
  // cost any message can pay (fault slowdown factors below 1 included) and
  // the full cross-shard lookahead min_send_sw_ + route_setup + one hop.
  // Mutations apply exactly one lookahead after they are posted.
  SimDuration min_send_sw_ = 0;
  SimDuration lookahead_ = 0;
  // True while shard engines are executing a window; written by the
  // coordinator only, before and after the window barrier, so
  // AssertDriverQuiescent reads it race-free.
  bool in_window_ = false;
  StatsRegistry stats_;
  CounterHandle records_replayed_;
  CounterHandle mutations_applied_;
  CounterHandle windows_;
  std::vector<std::pair<int, StallProbe>> stall_probes_;
  int next_stall_probe_id_ = 0;
  std::function<void(const std::string&)> stall_handler_;
  uint64_t stalls_detected_ = 0;
  TraceSink trace_sink_;  // must outlive everything that emits into it
  std::unique_ptr<FaultPlan> fault_plan_;
  std::unique_ptr<Network> network_;
  std::unique_ptr<Transport> sts_;
  std::unique_ptr<Transport> sts_ctl_;
  std::unique_ptr<Transport> norma_;
  std::vector<std::unique_ptr<Disk>> disks_;  // one per I/O group
  std::vector<std::unique_ptr<Disk>> file_disks_;
  std::vector<std::unique_ptr<FilePager>> file_pagers_;
  std::vector<Node> nodes_;
};

}  // namespace asvm

#endif  // SRC_DSM_CLUSTER_H_
