// asvmsim — command-line driver for the simulated multicomputer: pick a
// memory manager, a node count and a workload, get timings and protocol
// statistics. The quickest way to explore configurations beyond what the
// canned benchmarks sweep.
//
//   asvmsim --dsm=asvm --nodes=16 --workload=em3d --cells=64000 --iters=100
//   asvmsim --dsm=xmm  --nodes=8  --workload=file-read --mb=4
//   asvmsim --dsm=asvm --nodes=4  --workload=fault-sweep --trace
//   asvmsim --dsm=asvm --nodes=6  --workload=fork-chain --chain=5
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/asvm/agent.h"
#include "src/asvm/asvm_system.h"
#include "src/common/trace.h"
#include "src/core/machine.h"
#include "src/core/measure.h"
#include "src/dsm/failover.h"
#include "src/apps/sor.h"
#include "src/em3d/em3d.h"
#include "src/mappedfs/file_bench.h"

namespace asvm {
namespace {

struct Options {
  DsmKind dsm = DsmKind::kAsvm;
  SchedulerKind scheduler = SchedulerKind::kTimerWheel;
  int shards = 1;
  int nodes = 8;
  std::string workload = "fault-sweep";
  int64_t cells = 64000;
  int iters = 100;
  int measure_iters = 5;
  double mb = 4.0;
  int chain = 4;
  int stripes = 1;
  int io_group = 0;  // 0: keep the MachineConfig default (Paragon: 32)
  bool trace = false;
  std::string trace_json;  // --trace-json=FILE: Chrome trace_event output
  bool breakdown = false;  // per-fault causal breakdown table
  bool stats = false;
  bool msg_stats = false;
  bool dynamic_fwd = true;
  bool static_fwd = true;
  std::string fault_profile = "none";
  uint64_t fault_seed = 1;
  bool fault_report = false;
  // --fault-victim=N[,N...]: overrides the profile's removal nodes in order;
  // extra victims clone the last removal's schedule. Validated against
  // --nodes once the whole command line is parsed.
  std::vector<long long> fault_victims;
};

void Usage() {
  std::printf(
      "asvmsim — ASVM/XMM distributed memory simulator\n\n"
      "  --dsm=asvm|xmm|ivy       memory manager (default asvm)\n"
      "  --scheduler=wheel|heap   event scheduler: pooled timer wheel or the\n"
      "                           reference heap (identical timelines; default wheel)\n"
      "  --shards=N               parallel simulation shards (worker threads); every\n"
      "                           workload's timeline stays byte-identical to\n"
      "                           --shards=1 (default 1; clamped to the I/O-group\n"
      "                           block count, ceil(nodes / io-group))\n"
      "  --nodes=N                node count (default 8)\n"
      "  --io-group=N             compute nodes per paging disk (default 32, the\n"
      "                           Paragon ratio); shard boundaries align to these\n"
      "                           groups\n"
      "  --workload=W             em3d | sor | file-read | file-write | fault-sweep | fork-chain\n"
      "  --cells=N                EM3D cells (default 64000)\n"
      "  --iters=N                EM3D iterations to report (default 100)\n"
      "  --mb=F                   file size in MB (default 4)\n"
      "  --chain=N                fork-chain length (default 4)\n"
      "  --stripes=N              file stripes / I/O nodes (default 1)\n"
      "  --no-dynamic             disable dynamic forwarding (ASVM)\n"
      "  --no-static              disable static forwarding (ASVM)\n"
      "  --trace                  print the machine-wide event trace (ASVM, XMM and IVY)\n"
      "  --trace-json=FILE        write the trace as Chrome trace_event JSON\n"
      "                           (open in Perfetto / chrome://tracing)\n"
      "  --breakdown              per-fault causal breakdown (request/forward/\n"
      "                           manager-service/data-transfer/retry segments)\n"
      "  --stats                  dump the statistics registry\n"
      "  --msg-stats              count transport messages per protocol type\n"
      "  --fault-profile=P        none | jitter | slow-node | degraded-links |\n"
      "                           kill-manager | kill-owner | kill-many | cascade |\n"
      "                           rolling-restart (default none); node-removal\n"
      "                           profiles auto-enable manager failover (replicated\n"
      "                           directories, leases, online promotion)\n"
      "  --fault-victim=N[,N...]  override the profile's removal nodes in order\n"
      "                           (any node may be the victim — manager, page owner,\n"
      "                           or bystander); extra victims repeat the last\n"
      "                           removal's schedule\n"
      "  --fault-seed=N           seed for the fault plan's RNG (default 1)\n"
      "  --fault-report           print the fault plan and robustness counters\n");
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

// Strict numeric parsing: the whole value must be a number in [lo, hi].
// "--shards=abc" and "--nodes=99999999999999" are errors, not silent zeros.
bool ParseInt64(const char* flag, const std::string& value, long long lo, long long hi,
                long long* out) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
    std::printf("%s expects an integer in [%lld, %lld], got '%s'\n", flag, lo, hi,
                value.c_str());
    return false;
  }
  *out = v;
  return true;
}

bool ParseInt(const char* flag, const std::string& value, int lo, int hi, int* out) {
  long long v = 0;
  if (!ParseInt64(flag, value, lo, hi, &v)) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool ParseU64(const char* flag, const std::string& value, uint64_t* out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || value[0] == '-' || *end != '\0' || errno == ERANGE) {
    std::printf("%s expects a non-negative integer, got '%s'\n", flag, value.c_str());
    return false;
  }
  *out = v;
  return true;
}

// Strict victim-list parsing: comma-separated integers, no empty elements, no
// trailing junk, no duplicates. Range (< nodes) is checked after the whole
// command line is parsed, since --nodes may come later.
bool ParseVictimList(const std::string& value, std::vector<long long>* out) {
  out->clear();
  size_t pos = 0;
  while (pos <= value.size()) {
    const size_t comma = value.find(',', pos);
    const std::string elem =
        value.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    long long v = 0;
    if (!ParseInt64("--fault-victim", elem, 0, std::numeric_limits<long long>::max(), &v)) {
      return false;
    }
    for (long long seen : *out) {
      if (seen == v) {
        std::printf("--fault-victim lists node %lld twice\n", v);
        return false;
      }
    }
    out->push_back(v);
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  return !out->empty();
}

bool ParseDouble(const char* flag, const std::string& value, double lo, double hi,
                 double* out) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || *end != '\0' || errno == ERANGE || !(v >= lo && v <= hi)) {
    std::printf("%s expects a number in [%g, %g], got '%s'\n", flag, lo, hi, value.c_str());
    return false;
  }
  *out = v;
  return true;
}

bool Parse(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--dsm", &value)) {
      if (value == "asvm") {
        opts->dsm = DsmKind::kAsvm;
      } else if (value == "xmm") {
        opts->dsm = DsmKind::kXmm;
      } else if (value == "ivy") {
        opts->dsm = DsmKind::kIvy;
      } else {
        std::printf("unknown dsm '%s'\n", value.c_str());
        return false;
      }
    } else if (ParseFlag(argv[i], "--scheduler", &value)) {
      if (!SchedulerKindFromName(value, &opts->scheduler)) {
        std::printf("unknown scheduler '%s'\n", value.c_str());
        return false;
      }
    } else if (ParseFlag(argv[i], "--shards", &value)) {
      if (!ParseInt("--shards", value, 1, 4096, &opts->shards)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--nodes", &value)) {
      if (!ParseInt("--nodes", value, 1, 1 << 20, &opts->nodes)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--io-group", &value)) {
      if (!ParseInt("--io-group", value, 1, 1 << 20, &opts->io_group)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--workload", &value)) {
      opts->workload = value;
    } else if (ParseFlag(argv[i], "--cells", &value)) {
      long long cells = 0;
      if (!ParseInt64("--cells", value, 1, std::numeric_limits<long long>::max() / 1024,
                      &cells)) {
        return false;
      }
      opts->cells = cells;
    } else if (ParseFlag(argv[i], "--iters", &value)) {
      if (!ParseInt("--iters", value, 1, 1 << 30, &opts->iters)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--mb", &value)) {
      if (!ParseDouble("--mb", value, 1.0 / 1024.0, 1 << 20, &opts->mb)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--chain", &value)) {
      if (!ParseInt("--chain", value, 1, 1 << 20, &opts->chain)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--stripes", &value)) {
      if (!ParseInt("--stripes", value, 1, 1 << 20, &opts->stripes)) {
        return false;
      }
    } else if (std::strcmp(argv[i], "--no-dynamic") == 0) {
      opts->dynamic_fwd = false;
    } else if (std::strcmp(argv[i], "--no-static") == 0) {
      opts->static_fwd = false;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      opts->trace = true;
    } else if (ParseFlag(argv[i], "--trace-json", &value)) {
      opts->trace_json = value;
    } else if (std::strcmp(argv[i], "--breakdown") == 0) {
      opts->breakdown = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      opts->stats = true;
    } else if (std::strcmp(argv[i], "--msg-stats") == 0) {
      opts->msg_stats = true;
    } else if (ParseFlag(argv[i], "--fault-profile", &value)) {
      opts->fault_profile = value;
    } else if (ParseFlag(argv[i], "--fault-victim", &value)) {
      if (!ParseVictimList(value, &opts->fault_victims)) {
        return false;
      }
    } else if (ParseFlag(argv[i], "--fault-seed", &value)) {
      if (!ParseU64("--fault-seed", value, &opts->fault_seed)) {
        return false;
      }
    } else if (std::strcmp(argv[i], "--fault-report") == 0) {
      opts->fault_report = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      return false;
    } else {
      std::printf("unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

int RunEm3d(Machine& machine, const Options& opts) {
  Em3dParams params;
  params.cells = opts.cells;
  params.iterations = opts.iters;
  if (opts.nodes == 1) {
    std::printf("em3d %lld cells sequential: %.1f s (%d iterations, modeled)\n",
                static_cast<long long>(opts.cells), Em3dSequentialSeconds(params),
                opts.iters);
    return 0;
  }
  Em3dResult r = RunEm3dTimed(machine, params, opts.nodes, opts.measure_iters);
  std::printf("em3d %lld cells on %d nodes under %s: %.1f s for %d iterations\n",
              static_cast<long long>(opts.cells), opts.nodes, ToString(opts.dsm), r.seconds,
              opts.iters);
  std::printf("  faults in measured window: %lld, wire traffic: %.1f MB\n",
              static_cast<long long>(r.faults), r.bytes_on_wire / (1024.0 * 1024.0));
  return 0;
}

int RunSor(Machine& machine, const Options& opts) {
  SorParams params;
  // Interpret --cells as total grid cells (square grid).
  int64_t side = 1;
  while ((side + 1) * (side + 1) <= opts.cells) {
    ++side;
  }
  params.rows = side;
  params.cols = side;
  params.iterations = opts.iters;
  if (opts.nodes == 1) {
    std::printf("sor %lldx%lld sequential: %.2f s (%d iterations, modeled)\n",
                static_cast<long long>(side), static_cast<long long>(side),
                SorSequentialSeconds(params), opts.iters);
    return 0;
  }
  SorResult r = RunSorTimed(machine, params, opts.nodes, opts.measure_iters);
  std::printf("sor %lldx%lld on %d nodes under %s: %.2f s for %d iterations\n",
              static_cast<long long>(side), static_cast<long long>(side), opts.nodes,
              ToString(opts.dsm), r.seconds, opts.iters);
  return 0;
}

int RunFile(Machine& machine, const Options& opts, bool write) {
  const VmSize pages =
      static_cast<VmSize>(opts.mb * 1024 * 1024) / machine.page_size();
  const int compute_nodes = opts.nodes - 1;
  if (compute_nodes < 1) {
    std::printf("file workloads need --nodes >= 2 (node 0 is the I/O node)\n");
    return 1;
  }
  MemObjectId region;
  if (opts.stripes > 1) {
    region = machine.CreateStripedFile("cli", pages, opts.stripes, /*prefilled=*/!write);
  } else if (write) {
    region = machine.CreateMappedFile("cli", pages, /*prefilled=*/false);
  } else {
    int32_t file_id = machine.cluster().file_pager().CreateFile("cli", pages, true);
    region = machine.dsm().CreateFileRegion(file_id, pages);
  }
  FileBenchResult r =
      write ? RunParallelFileWrite(machine, region, pages, compute_nodes, /*first_node=*/1)
            : RunParallelFileRead(machine, region, pages, compute_nodes, /*first_node=*/1);
  std::printf("%s of a %.1f MB file by %d nodes under %s: %.2f MB/s per node "
              "(makespan %.3f s)\n",
              write ? "parallel write" : "parallel read", opts.mb, compute_nodes,
              ToString(opts.dsm), r.per_node_mb_s, r.makespan_seconds);
  return 0;
}

// Advances simulated time just past `when` in bounded slices. A parked wake
// guarantees clock progress even when the queue is otherwise empty (RunFor
// only advances the clock while events remain).
void AdvanceJustPast(Machine& machine, SimTime when) {
  if (machine.Now() > when) {
    return;
  }
  machine.engine().Schedule(when + kMillisecond - machine.Now(), []() {});
  while (machine.Now() <= when) {
    machine.RunFor(kMillisecond);
  }
}

// Latency of one access without the full-drain quiescence of MeasureReadMs /
// MeasureWriteMs: a failover plan parks far-future removal/restore wakes in
// the queue, and a full drain would fast-forward the sweep past them.
template <typename T>
double SlicedAccessMs(Machine& machine, Future<T> f) {
  const SimDuration d = AwaitLatency(machine, f);
  machine.RunFor(5 * kMillisecond);  // bounded settle for background traffic
  return ToMilliseconds(d);
}

int RunFaultSweep(Machine& machine, const Options& opts, bool failover) {
  MemObjectId region = machine.CreateSharedRegion(0, 8);
  if (opts.nodes < 4) {
    std::printf("fault-sweep needs --nodes >= 4\n");
    return 1;
  }
  TaskMemory& creator = machine.MapRegion(1, region);
  TaskMemory& reader = machine.MapRegion(2, region);
  TaskMemory& writer = machine.MapRegion(3, region);
  double ms = failover ? SlicedAccessMs(machine, creator.WriteU64(0, 1))
                       : MeasureWriteMs(machine, creator, 0, 1);
  std::printf("first write (zero-fill grant):        %7.2f ms\n", ms);
  ms = failover ? SlicedAccessMs(machine, reader.ReadU64(0))
                : MeasureReadMs(machine, reader, 0);
  std::printf("remote read (owner serve):            %7.2f ms\n", ms);
  ms = failover ? SlicedAccessMs(machine, writer.WriteU64(0, 2))
                : MeasureWriteMs(machine, writer, 0, 2);
  std::printf("remote write (invalidate + transfer): %7.2f ms\n", ms);
  ms = failover ? SlicedAccessMs(machine, writer.WriteU64(0, 3))
                : MeasureWriteMs(machine, writer, 0, 3);
  std::printf("local re-write (cache hit):           %7.2f ms\n", ms);

  if (!failover) {
    return 0;
  }
  // Recovery phase: cross the plan's removals, then access through the
  // promotion — the read pays silence detection plus backup promotion, the
  // write runs against the already-promoted manager.
  const FaultPlan& plan = machine.fault_plan();
  SimTime last_removal = 0;
  SimTime last_restore = 0;
  for (const NodeRemoval& r : plan.params().removals) {
    last_removal = std::max(last_removal, r.at);
    last_restore = std::max(last_restore, r.restore_at);
  }
  AdvanceJustPast(machine, last_removal);
  // Any node may be the victim now (--fault-victim), so the recovery actors
  // must be picked from the survivors: the first two alive nodes at or above
  // node 2 (nodes 0/1 keep their early-phase roles when alive). With the
  // default profiles this reproduces the historical reader=2 / writer=3 pair.
  NodeId survivor_reader = kInvalidNode;
  NodeId survivor_writer = kInvalidNode;
  for (NodeId n = 2; n < static_cast<NodeId>(opts.nodes); ++n) {
    if (!plan.NodeAlive(n, machine.Now())) {
      continue;
    }
    if (survivor_reader == kInvalidNode) {
      survivor_reader = n;
    } else {
      survivor_writer = n;
      break;
    }
  }
  if (survivor_reader == kInvalidNode || survivor_writer == kInvalidNode) {
    std::printf("fault-sweep needs two surviving nodes >= 2\n");
    return 1;
  }
  // Reuse the early-phase mappings where the survivor kept its role, so the
  // historical profiles replay the exact same timeline as before.
  TaskMemory& post_reader =
      survivor_reader == 2 ? reader : machine.MapRegion(survivor_reader, region);
  TaskMemory& post_writer =
      survivor_writer == 3 ? writer : machine.MapRegion(survivor_writer, region);
  // An untouched page: first-touch forwarding terminates at the dead home, so
  // the access pays silence detection plus backup promotion. (Previously
  // touched pages may be served by their surviving owners without ever
  // noticing the kill — that is the point of distributed ownership.)
  const VmOffset fresh = 4 * machine.page_size();
  ms = SlicedAccessMs(machine, post_reader.ReadU64(fresh));
  std::printf("post-kill read (detect + promote):    %7.2f ms\n", ms);
  ms = SlicedAccessMs(machine, post_writer.WriteU64(fresh, 4));
  std::printf("post-kill write (promoted manager):   %7.2f ms\n", ms);
  if (last_restore > 0) {
    // Rejoin phase: the removed node is back with cold caches and must be
    // able to fault the region in again.
    AdvanceJustPast(machine, last_restore);
    NodeId rejoined_node = 0;
    for (const NodeRemoval& r : plan.params().removals) {
      if (r.restore_at == last_restore) {
        rejoined_node = r.node;
        break;
      }
    }
    TaskMemory& rejoined = machine.MapRegion(rejoined_node, region);
    ms = SlicedAccessMs(machine, rejoined.ReadU64(0));
    std::printf("rejoined read (cold cache):           %7.2f ms\n", ms);
  }
  return 0;
}

int RunForkChain(Machine& machine, const Options& opts) {
  if (opts.chain + 1 > opts.nodes) {
    std::printf("fork-chain needs --nodes >= chain+1\n");
    return 1;
  }
  TaskMemory& origin = machine.CreatePrivateTask(0, 8);
  for (VmOffset p = 0; p < 8; ++p) {
    auto w = origin.WriteU64(p * machine.page_size(), 500 + p);
    machine.Run();
  }
  TaskMemory* current = &origin;
  for (int hop = 1; hop <= opts.chain; ++hop) {
    auto fork = machine.RemoteFork(hop - 1, *current, hop);
    machine.Run();
    if (!fork.ready()) {
      std::printf("fork to node %d failed\n", hop);
      return 1;
    }
    current = &machine.WrapMap(hop, fork.value());
  }
  double total = 0;
  for (VmOffset p = 0; p < 8; ++p) {
    uint64_t v = 0;
    total += MeasureReadMs(machine, *current, p * machine.page_size(), &v);
    if (v != 500 + p) {
      std::printf("DATA MISMATCH at page %llu\n", static_cast<unsigned long long>(p));
      return 1;
    }
  }
  std::printf("fault across a %d-stage copy chain under %s: %.2f ms/page (8 pages)\n",
              opts.chain, ToString(opts.dsm), total / 8.0);
  return 0;
}

int Run(const Options& opts) {
  // Every workload is in the sharded contract: driver-side directory
  // mutations (forks, region setup) are serialized through the cluster
  // mutation API at deterministic barriers (DESIGN.md §13), so --shards=N
  // reproduces the --shards=1 timeline byte for byte.
  MachineConfig config;
  config.nodes = opts.nodes;
  config.dsm = opts.dsm;
  config.scheduler = opts.scheduler;
  config.shards = opts.shards;
  if (opts.io_group > 0) {
    config.nodes_per_io_group = opts.io_group;
  }
  config.file_pager_count = opts.stripes;
  config.asvm.dynamic_forwarding = opts.dynamic_fwd;
  config.asvm.static_forwarding = opts.static_fwd;
  config.per_type_message_stats = opts.msg_stats;
  bool failover = false;
  if (opts.fault_profile != "none") {
    if (!FaultProfileFromName(opts.fault_profile, opts.fault_seed, opts.nodes,
                              &config.fault)) {
      std::printf("unknown fault profile '%s'\n", opts.fault_profile.c_str());
      return 2;
    }
    // Faulty links need the protocol hardening on: deadline + bounded retry.
    config.retry.timeout_ns = 20 * kMillisecond;
    config.stall_watchdog = true;
    // Node-removal profiles additionally need the failover machinery, or the
    // run would wedge the moment the dead manager is asked for a page.
    failover = !config.fault.removals.empty();
    config.failover.enabled = failover;
  }
  if (!opts.fault_victims.empty()) {
    if (config.fault.removals.empty()) {
      std::printf("--fault-victim requires a node-removal profile "
                  "(profile '%s' removes no nodes)\n",
                  opts.fault_profile.c_str());
      return 2;
    }
    for (long long v : opts.fault_victims) {
      if (v >= opts.nodes) {
        std::printf("--fault-victim node %lld is out of range (--nodes=%d)\n", v,
                    opts.nodes);
        return 2;
      }
    }
    // Override the profile's victims in order; extra victims repeat the last
    // removal's schedule, so "--fault-profile=kill-manager
    // --fault-victim=1,2,5" kills three nodes at the same instant.
    auto& removals = config.fault.removals;
    for (size_t i = 0; i < opts.fault_victims.size(); ++i) {
      if (i < removals.size()) {
        removals[i].node = static_cast<NodeId>(opts.fault_victims[i]);
      } else {
        NodeRemoval extra = removals.back();
        extra.node = static_cast<NodeId>(opts.fault_victims[i]);
        removals.push_back(extra);
      }
    }
  }
  Machine machine(config);

  // One machine-wide trace stream, independent of the DSM choice. The JSON
  // and breakdown modes want the full timeline, so give them a deep buffer.
  const bool tracing = opts.trace || !opts.trace_json.empty() || opts.breakdown;
  TraceBuffer trace(1 << 18);
  if (tracing) {
    machine.AttachMonitor(&trace);
  }

  int rc = 1;
  if (opts.workload == "em3d") {
    rc = RunEm3d(machine, opts);
  } else if (opts.workload == "sor") {
    rc = RunSor(machine, opts);
  } else if (opts.workload == "file-read") {
    rc = RunFile(machine, opts, /*write=*/false);
  } else if (opts.workload == "file-write") {
    rc = RunFile(machine, opts, /*write=*/true);
  } else if (opts.workload == "fault-sweep") {
    rc = RunFaultSweep(machine, opts, failover);
  } else if (opts.workload == "fork-chain") {
    rc = RunForkChain(machine, opts);
  } else {
    std::printf("unknown workload '%s'\n", opts.workload.c_str());
  }

  std::printf("\nsimulated time: %.3f s, mesh traffic: %.2f MB in %lld messages\n",
              ToSeconds(machine.Now()),
              static_cast<double>(machine.stats().Get("mesh.bytes")) / (1024.0 * 1024.0),
              static_cast<long long>(machine.stats().Get("mesh.messages")));
  if (opts.trace) {
    std::printf("\nprotocol trace (last %zu events):\n%s", trace.events().size(),
                trace.Render().c_str());
  }
  if (!opts.trace_json.empty()) {
    const std::string json = ChromeTraceJson(trace);
    std::FILE* f = std::fopen(opts.trace_json.c_str(), "w");
    if (f == nullptr) {
      std::printf("cannot write %s\n", opts.trace_json.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %zu trace events to %s (load in Perfetto or chrome://tracing)\n",
                trace.events().size(), opts.trace_json.c_str());
  }
  if (opts.breakdown) {
    const std::vector<FaultBreakdown> faults = AnalyzeFaultBreakdowns(trace.events());
    RecordFaultBreakdowns(faults, machine.stats());
    std::printf("\n%s", RenderFaultBreakdowns(faults).c_str());
  }
  if (opts.msg_stats && !opts.stats) {
    // Print just the per-type transport counters without the full registry.
    std::printf("\nper-type message counts:\n");
    for (const auto& [name, value] : machine.stats().counters()) {
      if (name.find(".msg.") != std::string::npos) {
        std::printf("  %-48s %lld\n", name.c_str(), static_cast<long long>(value));
      }
    }
  }
  if (opts.fault_report) {
    std::printf("\nfault report:\n");
    if (!machine.fault_plan().params().Empty()) {
      std::printf("%s", machine.fault_plan().Describe().c_str());
    } else {
      std::printf("  faults disabled\n");
    }
    const char* counters[] = {"fault.messages_dropped", "fault.jitter_messages",
                              "fault.jitter_ns",        "fault.degraded_messages",
                              "fault.slowed_messages",  "dsm.op_retries",
                              "dsm.op_timeouts",        "dsm.op_node_down",
                              "dsm.duplicates_suppressed", "sim.stalls_detected"};
    for (const char* name : counters) {
      std::printf("  %-28s %lld\n", name,
                  static_cast<long long>(machine.stats().Get(name)));
    }
    // The failover block is derived from the canonical list in failover.h so
    // a new counter can never silently drift out of the report.
    for (const char* name : kFailoverStatNames) {
      std::printf("  %-28s %lld\n", name,
                  static_cast<long long>(machine.stats().Get(name)));
    }
    if (!machine.last_stall_report().empty()) {
      std::printf("\nlast stall report:\n%s", machine.last_stall_report().c_str());
    }
  }
  if (opts.stats) {
    std::printf("\nstatistics registry:\n%s", machine.stats().Report().c_str());
  }
  return rc;
}

}  // namespace
}  // namespace asvm

int main(int argc, char** argv) {
  asvm::Options opts;
  if (!asvm::Parse(argc, argv, &opts)) {
    asvm::Usage();
    return 2;
  }
  return asvm::Run(opts);
}
