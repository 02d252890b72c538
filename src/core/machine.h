// Machine — the library's public entry point: a simulated Paragon-like
// multicomputer with a chosen distributed memory manager (ASVM or NMK13 XMM),
// plus convenience APIs for building workloads against it.
//
//   MachineConfig config;
//   config.nodes = 16;
//   config.dsm = DsmKind::kAsvm;
//   Machine machine(config);
//   MemObjectId region = machine.CreateSharedRegion(0, 128);
//   TaskMemory& mem = machine.MapRegion(3, region);
//   auto f = mem.WriteU64(0, 42);
//   machine.Run();
#ifndef SRC_CORE_MACHINE_H_
#define SRC_CORE_MACHINE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/asvm/asvm_system.h"
#include "src/common/types.h"
#include "src/dsm/cluster.h"
#include "src/dsm/dsm_system.h"
#include "src/ivy/ivy_system.h"
#include "src/machvm/task_memory.h"
#include "src/xmm/xmm_system.h"

namespace asvm {

enum class DsmKind {
  kAsvm,  // the paper's system (§3)
  kXmm,   // NMK13 XMM baseline (§2.3)
  kIvy,   // Li & Hudak dynamic distributed manager (probable-owner chains)
};

const char* ToString(DsmKind kind);

struct MachineConfig {
  int nodes = 4;
  DsmKind dsm = DsmKind::kAsvm;

  // Event core behind the simulation engine. kTimerWheel is the pooled
  // production scheduler; kReference keeps the original heap implementation
  // for differential testing and A/B benchmarking. Both produce bit-identical
  // timelines (enforced by tests/scheduler_equivalence_test.cc).
  SchedulerKind scheduler = SchedulerKind::kTimerWheel;

  // Parallel simulation: shard the node space across this many engines, one
  // worker thread each, synchronized with conservative-lookahead windows.
  // Timelines (and golden digests) are byte-identical to shards = 1 for every
  // workload, fork/file drivers included (DESIGN.md §13). Shards divide along
  // I/O-group boundaries; a request above ceil(nodes / nodes_per_io_group) is
  // clamped to that block count.
  int shards = 1;

  // Paragon GP node: 8 KB pages, 16 MB memory of which ~9 MB is available to
  // user applications (paper §4.3).
  size_t page_size = 8192;
  size_t user_memory_bytes = 9 * 1024 * 1024;

  // Number of file pagers / I/O disks (on nodes 0..k-1); >1 enables striping.
  int file_pager_count = 1;

  // One paging disk per this many compute nodes (Paragon: 32). Shard
  // boundaries align to these groups, so it also caps the effective shard
  // count at ceil(nodes / nodes_per_io_group) blocks (higher requests clamp).
  int nodes_per_io_group = 32;

  // Record per-message-type transport counters (see
  // Cluster::EnablePerTypeMessageStats).
  bool per_type_message_stats = false;

  AsvmConfig asvm;
  XmmConfig xmm;
  IvyConfig ivy;
  MeshParams mesh;
  DiskParams disk;
  FilePagerParams file_pager;
  VmCosts vm_costs;

  // Deterministic fault injection (empty = faults off, timelines unchanged)
  // and the protocol timeout/retry policy (timeout_ns = 0 = retries off).
  FaultPlanParams fault;
  RetryPolicy retry;
  // Primary-backup manager replication with online failover (DESIGN.md §14).
  // Requires an armed retry policy to detect silence; promotions and cold
  // restarts run as cluster mutations.
  FailoverConfig failover;
  // Install the cluster's stall watchdog (implied whenever `fault` is
  // non-empty): when the machine drains while work is still blocked, it
  // captures a diagnostic report instead of silently returning.
  bool stall_watchdog = false;

  ClusterParams ToClusterParams() const;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const MachineConfig& config() const { return config_; }
  Cluster& cluster() { return *cluster_; }
  DsmSystem& dsm() { return *dsm_; }
  Engine& engine() { return cluster_->engine(); }
  StatsRegistry& stats() { return cluster_->stats(); }
  int nodes() const { return config_.nodes; }
  size_t page_size() const { return config_.page_size; }

  // --- Region management -----------------------------------------------------

  MemObjectId CreateSharedRegion(NodeId home, VmSize pages) {
    return dsm_->CreateSharedRegion(home, pages);
  }

  // Creates a file on the machine's file pager and a DSM region over it.
  MemObjectId CreateMappedFile(const std::string& name, VmSize pages, bool prefilled);

  // §6 extension: a striped file over the machine's file pagers (configure
  // ClusterParams::file_pager_count > 1 via MachineConfig::file_pager_count).
  MemObjectId CreateStripedFile(const std::string& name, VmSize pages, int stripes,
                                bool prefilled);

  // Maps the region into a fresh task on `node` at virtual page `at_page` and
  // returns an accessor (owned by the Machine).
  TaskMemory& MapRegion(NodeId node, const MemObjectId& id, VmOffset at_page = 0);

  // Creates a task on `node` with a private anonymous region (for fork-based
  // workloads).
  TaskMemory& CreatePrivateTask(NodeId node, VmSize pages);

  // Remote task creation through the active DSM.
  Future<VmMap*> RemoteFork(NodeId src, TaskMemory& parent, NodeId dst) {
    return dsm_->RemoteFork(src, parent.map(), dst);
  }
  TaskMemory& WrapMap(NodeId node, VmMap* map);

  // --- Execution ---------------------------------------------------------------

  void Run() { cluster_->Run(); }
  bool RunFor(SimDuration d) { return cluster_->RunFor(d); }
  SimTime Now() const { return cluster_->Now(); }

  size_t DsmMetadataBytes(NodeId node) const { return dsm_->MetadataBytes(node); }

  // --- Observability -----------------------------------------------------------

  // Attaches a machine-wide protocol monitor: DSM protocol events, transport
  // sends/receives, mesh drops/jitter, and disk I/O all flow into it
  // (nullptr detaches; zero cost while detached).
  void AttachMonitor(ProtocolMonitor* monitor) { cluster_->AttachMonitor(monitor); }
  ProtocolMonitor* monitor() const { return cluster_->monitor(); }

  // --- Fault injection & stall diagnostics -------------------------------------

  // The machine's fault plan; empty params when faults are disabled.
  FaultPlan& fault_plan() { return cluster_->fault_plan(); }

  // Diagnostic report from the most recent stall the watchdog detected
  // (empty if none). Also counted under the "sim.stalls_detected" stat.
  const std::string& last_stall_report() const { return last_stall_report_; }

 private:
  MachineConfig config_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<DsmSystem> dsm_;
  std::vector<std::unique_ptr<TaskMemory>> tasks_;
  std::string last_stall_report_;
};

}  // namespace asvm

#endif  // SRC_CORE_MACHINE_H_
