#include "src/mappedfs/file_bench.h"

#include <algorithm>

#include "src/common/log.h"
#include "src/dsm/cluster_sync.h"
#include "src/machvm/file_pager.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace asvm {

namespace {

Task SequentialTouch(TaskMemory& mem, VmOffset first_page, VmOffset end_page, size_t ps,
                     PageAccess access, SimTime* finished, ClusterWaitGroup& wg) {
  for (VmOffset p = first_page; p < end_page; ++p) {
    Status s = co_await mem.Touch(p * ps, 8, access);
    ASVM_CHECK_MSG(IsOk(s), "file touch failed");
  }
  // The worker completes on its own node's engine; under --shards that clock
  // is the node-local one, which keeps Table 2's per-node rates byte-stable.
  *finished = mem.vm().engine().Now();
  wg.Done(mem.vm().node());
}

// The parallel-touch driver behind the three public runs: maps the region
// on `nodes_used` nodes from `first_node`, has each touch its page range in
// sequential order, and reports each node's MB/s over that range. Sectioned,
// node n's range is its disjoint 1/nodes_used section (the last node takes
// the remainder); otherwise every node touches the whole file.
FileBenchResult RunParallelTouch(Machine& machine, const MemObjectId& region, VmSize file_pages,
                                 int nodes_used, NodeId first_node, PageAccess access,
                                 bool sectioned) {
  ASVM_CHECK(nodes_used >= 1 && first_node + nodes_used <= machine.nodes());
  const size_t ps = machine.page_size();
  std::vector<TaskMemory*> mems;
  for (NodeId n = 0; n < nodes_used; ++n) {
    mems.push_back(&machine.MapRegion(first_node + n, region));
  }
  const VmSize section = file_pages / nodes_used;
  ASVM_CHECK_MSG(!sectioned || section > 0, "file smaller than node count");
  std::vector<VmOffset> lo(nodes_used, 0);
  std::vector<VmOffset> hi(nodes_used, file_pages);
  for (NodeId n = 0; sectioned && n < nodes_used; ++n) {
    lo[n] = static_cast<VmOffset>(n) * section;
    hi[n] = n == nodes_used - 1 ? file_pages : lo[n] + section;
  }
  std::vector<SimTime> finished(nodes_used, 0);
  ClusterWaitGroup wg(machine.cluster());
  wg.Add(nodes_used);
  const SimTime start = machine.Now();
  for (NodeId n = 0; n < nodes_used; ++n) {
    (void)SequentialTouch(*mems[n], lo[n], hi[n], ps, access, &finished[n], wg);
  }
  machine.Run();
  ASVM_CHECK(wg.count() == 0);

  FileBenchResult result;
  double rate_sum = 0;
  SimTime last = start;
  for (NodeId n = 0; n < nodes_used; ++n) {
    const double mb =
        static_cast<double>(hi[n] - lo[n]) * static_cast<double>(ps) / (1024.0 * 1024.0);
    const double secs = ToSeconds(finished[n] - start);
    result.node_seconds.push_back(secs);
    rate_sum += mb / secs;
    last = std::max(last, finished[n]);
  }
  result.per_node_mb_s = rate_sum / nodes_used;
  result.makespan_seconds = ToSeconds(last - start);
  return result;
}

}  // namespace

FileBenchResult RunParallelFileRead(Machine& machine, const MemObjectId& region,
                                    VmSize file_pages, int nodes_used, NodeId first_node) {
  return RunParallelTouch(machine, region, file_pages, nodes_used, first_node, PageAccess::kRead,
                          /*sectioned=*/false);
}

FileBenchResult RunParallelFileWrite(Machine& machine, const MemObjectId& region,
                                     VmSize file_pages, int nodes_used, NodeId first_node) {
  return RunParallelTouch(machine, region, file_pages, nodes_used, first_node,
                          PageAccess::kWrite, /*sectioned=*/true);
}

FileBenchResult RunParallelFileReadSections(Machine& machine, const MemObjectId& region,
                                            VmSize file_pages, int nodes_used,
                                            NodeId first_node) {
  return RunParallelTouch(machine, region, file_pages, nodes_used, first_node, PageAccess::kRead,
                          /*sectioned=*/true);
}

int VerifyFileContents(Machine& machine, TaskMemory& mem, int32_t file_id, VmSize pages) {
  const size_t ps = machine.page_size();
  int bad = 0;
  std::vector<std::byte> got(ps);
  std::vector<std::byte> want(ps);
  for (VmOffset p = 0; p < pages; ++p) {
    auto f = mem.ReadBytes(p * ps, got);
    machine.Run();
    if (!f.ready() || !IsOk(f.value())) {
      ++bad;
      continue;
    }
    FilePager::FillPattern(file_id, static_cast<PageIndex>(p), want);
    if (got != want) {
      ++bad;
    }
  }
  return bad;
}

}  // namespace asvm
