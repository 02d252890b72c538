#include "src/em3d/em3d.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <unordered_set>

#include "src/common/log.h"
#include "src/common/rng.h"
#include "src/dsm/cluster_sync.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace asvm {

namespace {

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

}  // namespace

Em3dGraph::Em3dGraph(const Em3dParams& params, int nodes) : params_(params), nodes_(nodes) {
  ASVM_CHECK(nodes >= 1);
  e_cells_ = params.cells / 2;
  h_cells_ = params.cells - e_cells_;
  e_per_node_ = CeilDiv(e_cells_, nodes);
  h_per_node_ = CeilDiv(h_cells_, nodes);
  pages_per_e_slice_ = static_cast<VmSize>(
      CeilDiv(e_per_node_ * params.bytes_per_cell, static_cast<int64_t>(page_size_)));
  pages_per_h_slice_ = static_cast<VmSize>(
      CeilDiv(h_per_node_ * params.bytes_per_cell, static_cast<int64_t>(page_size_)));
  h_base_page_ = pages_per_e_slice_ * nodes;
  region_pages_ = h_base_page_ + pages_per_h_slice_ * nodes;

  // Deterministic random bipartite graph with the spatial locality of a 3-D
  // field decomposition: a remote edge leads to a ring-neighbouring node and
  // lands in the boundary region of that node's slice.
  Rng rng(params.seed);
  const int k = params.edges_per_cell;
  e_neighbors_.resize(static_cast<size_t>(e_cells_) * k);
  h_neighbors_.resize(static_cast<size_t>(h_cells_) * k);
  auto pick_neighbor = [&](NodeId my_node, int64_t per_node, int64_t total) -> int64_t {
    if (nodes_ == 1 || !rng.NextBool(params.remote_fraction)) {
      const int64_t lo = my_node * per_node;
      const int64_t hi = std::min(total, (my_node + 1) * per_node);
      ASVM_CHECK(hi > lo);
      return lo + static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(hi - lo)));
    }
    const int dir = rng.NextBool(0.5) ? 1 : -1;
    const NodeId target = static_cast<NodeId>((my_node + dir + nodes_) % nodes_);
    const int64_t lo = target * per_node;
    const int64_t hi = std::min(total, (target + 1) * per_node);
    ASVM_CHECK(hi > lo);
    const int64_t window = std::max<int64_t>(
        1, static_cast<int64_t>(static_cast<double>(hi - lo) * params.boundary_fraction));
    // Moving "up" the ring reaches the target's low boundary; "down" its high
    // boundary.
    const int64_t base = dir > 0 ? lo : hi - window;
    return base + static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(window)));
  };
  for (int64_t i = 0; i < e_cells_; ++i) {
    const NodeId owner = EOwner(i);
    for (int j = 0; j < k; ++j) {
      e_neighbors_[static_cast<size_t>(i) * k + j] =
          pick_neighbor(owner, h_per_node_, h_cells_);
    }
  }
  for (int64_t i = 0; i < h_cells_; ++i) {
    const NodeId owner = HOwner(i);
    for (int j = 0; j < k; ++j) {
      h_neighbors_[static_cast<size_t>(i) * k + j] =
          pick_neighbor(owner, e_per_node_, e_cells_);
    }
  }

  // Page access sets per node per phase.
  e_write_pages_.resize(nodes_);
  e_read_pages_.resize(nodes_);
  h_write_pages_.resize(nodes_);
  h_read_pages_.resize(nodes_);
  for (NodeId n = 0; n < nodes_; ++n) {
    std::unordered_set<VmOffset> e_writes;
    std::unordered_set<VmOffset> e_reads;
    auto [e_lo, e_hi] = ERange(n);
    for (int64_t i = e_lo; i < e_hi; ++i) {
      e_writes.insert(EAddr(i) / page_size_);
      for (int j = 0; j < k; ++j) {
        e_reads.insert(HAddr(e_neighbors_[static_cast<size_t>(i) * k + j]) / page_size_);
      }
    }
    e_write_pages_[n].assign(e_writes.begin(), e_writes.end());
    e_read_pages_[n].assign(e_reads.begin(), e_reads.end());
    std::sort(e_write_pages_[n].begin(), e_write_pages_[n].end());
    std::sort(e_read_pages_[n].begin(), e_read_pages_[n].end());

    std::unordered_set<VmOffset> h_writes;
    std::unordered_set<VmOffset> h_reads;
    auto [h_lo, h_hi] = HRange(n);
    for (int64_t i = h_lo; i < h_hi; ++i) {
      h_writes.insert(HAddr(i) / page_size_);
      for (int j = 0; j < k; ++j) {
        h_reads.insert(EAddr(h_neighbors_[static_cast<size_t>(i) * k + j]) / page_size_);
      }
    }
    h_write_pages_[n].assign(h_writes.begin(), h_writes.end());
    h_read_pages_[n].assign(h_reads.begin(), h_reads.end());
    std::sort(h_write_pages_[n].begin(), h_write_pages_[n].end());
    std::sort(h_read_pages_[n].begin(), h_read_pages_[n].end());
  }
}

VmOffset Em3dGraph::EAddr(int64_t e_index) const {
  const NodeId node = EOwner(e_index);
  const int64_t local = e_index - node * e_per_node_;
  return (static_cast<VmOffset>(node) * pages_per_e_slice_) * page_size_ +
         static_cast<VmOffset>(local * params_.bytes_per_cell);
}

VmOffset Em3dGraph::HAddr(int64_t h_index) const {
  const NodeId node = HOwner(h_index);
  const int64_t local = h_index - node * h_per_node_;
  return (h_base_page_ + static_cast<VmOffset>(node) * pages_per_h_slice_) * page_size_ +
         static_cast<VmOffset>(local * params_.bytes_per_cell);
}

std::pair<int64_t, int64_t> Em3dGraph::ERange(NodeId node) const {
  const int64_t lo = node * e_per_node_;
  return {std::min(lo, e_cells_), std::min(lo + e_per_node_, e_cells_)};
}

std::pair<int64_t, int64_t> Em3dGraph::HRange(NodeId node) const {
  const int64_t lo = node * h_per_node_;
  return {std::min(lo, h_cells_), std::min(lo + h_per_node_, h_cells_)};
}

// --- Timed mode ------------------------------------------------------------------

namespace {

Task TouchAll(TaskMemory& mem, const std::vector<VmOffset>& pages, size_t page_size,
              PageAccess access, WaitGroup& wg) {
  // Issue every touch, then await; faults proceed concurrently (the node's
  // message coprocessor overlaps protocol work with the compute processor).
  // Joined per node, on that node's own engine.
  std::vector<Future<Status>> futures;
  futures.reserve(pages.size());
  for (VmOffset page : pages) {
    futures.push_back(mem.Touch(page * page_size, 8, access));
  }
  for (auto& f : futures) {
    Status s = co_await f;
    ASVM_CHECK_MSG(IsOk(s), "EM3D touch failed");
  }
  wg.Done();
}

// Driver-side variant: the joiner is the main thread waiting on nodes spread
// across shards, so completion signals route through cluster mutations.
Task TouchAllCluster(TaskMemory& mem, const std::vector<VmOffset>& pages, size_t page_size,
                     PageAccess access, NodeId node, ClusterWaitGroup& wg) {
  std::vector<Future<Status>> futures;
  futures.reserve(pages.size());
  for (VmOffset page : pages) {
    futures.push_back(mem.Touch(page * page_size, 8, access));
  }
  for (auto& f : futures) {
    Status s = co_await f;
    ASVM_CHECK_MSG(IsOk(s), "EM3D touch failed");
  }
  wg.Done(node);
}

Task Em3dNodeWorker(Machine& machine, const Em3dGraph& graph, const Em3dParams& params,
                    TaskMemory& mem, NodeId node, int total_iters, ClusterBarrier& barrier,
                    ClusterWaitGroup& done) {
  // The worker lives on its own node's engine; only barrier arrivals and the
  // final completion signal cross shard boundaries (via the cluster mutator).
  Engine& engine = machine.cluster().engine_for(node);
  const size_t ps = graph.page_size();
  auto [e_lo, e_hi] = graph.ERange(node);
  auto [h_lo, h_hi] = graph.HRange(node);
  const int64_t own_cells = (e_hi - e_lo) + (h_hi - h_lo);
  const SimDuration compute_per_phase = params.compute_per_cell_ns * own_cells / 2;

  const SimDuration barrier_cost =
      graph.nodes() > 1 ? params.barrier_per_node_ns * graph.nodes() : 0;
  for (int iter = 0; iter < total_iters; ++iter) {
    // Phase E: read H neighbours, update own E cells.
    {
      WaitGroup wg(engine);
      wg.Add(2);
      (void)TouchAll(mem, graph.EPhaseReadPages(node), ps, PageAccess::kRead, wg);
      (void)TouchAll(mem, graph.EPhaseWritePages(node), ps, PageAccess::kWrite, wg);
      co_await wg.Wait();
      co_await Delay(engine, compute_per_phase);
    }
    co_await barrier.Arrive(node);
    co_await Delay(engine, barrier_cost);
    // Phase H: read E neighbours, update own H cells.
    {
      WaitGroup wg(engine);
      wg.Add(2);
      (void)TouchAll(mem, graph.HPhaseReadPages(node), ps, PageAccess::kRead, wg);
      (void)TouchAll(mem, graph.HPhaseWritePages(node), ps, PageAccess::kWrite, wg);
      co_await wg.Wait();
      co_await Delay(engine, compute_per_phase);
    }
    co_await barrier.Arrive(node);
    co_await Delay(engine, barrier_cost);
  }
  done.Done(node);
}

}  // namespace

Em3dResult RunEm3dTimed(Machine& machine, const Em3dParams& params, int nodes_used,
                        int measure_iters) {
  ASVM_CHECK(nodes_used >= 1 && nodes_used <= machine.nodes());
  Em3dGraph graph(params, nodes_used);
  MemObjectId region = machine.CreateSharedRegion(/*home=*/0, graph.region_pages());

  std::vector<TaskMemory*> mems;
  for (NodeId n = 0; n < nodes_used; ++n) {
    mems.push_back(&machine.MapRegion(n, region));
  }

  // Initialization (not measured, like the paper): owners populate their
  // slices.
  {
    ClusterWaitGroup init(machine.cluster());
    for (NodeId n = 0; n < nodes_used; ++n) {
      init.Add(2);
      (void)TouchAllCluster(*mems[n], graph.EPhaseWritePages(n), graph.page_size(),
                            PageAccess::kWrite, n, init);
      (void)TouchAllCluster(*mems[n], graph.HPhaseWritePages(n), graph.page_size(),
                            PageAccess::kWrite, n, init);
    }
    machine.Run();
    ASVM_CHECK(init.count() == 0);
  }

  // Warmup (1 iteration) + measured iterations.
  const int warmup = 1;
  ClusterBarrier barrier(machine.cluster(), nodes_used);

  {
    ClusterWaitGroup done(machine.cluster());
    done.Add(nodes_used);
    ClusterBarrier warm_barrier(machine.cluster(), nodes_used);
    for (NodeId n = 0; n < nodes_used; ++n) {
      (void)Em3dNodeWorker(machine, graph, params, *mems[n], n, warmup, warm_barrier, done);
    }
    machine.Run();
    ASVM_CHECK(done.count() == 0);
  }

  const SimTime start = machine.Now();
  const int64_t faults_before = machine.stats().Get("vm.faults");
  const int64_t bytes_before = machine.stats().Get("mesh.bytes");
  {
    ClusterWaitGroup done(machine.cluster());
    done.Add(nodes_used);
    for (NodeId n = 0; n < nodes_used; ++n) {
      (void)Em3dNodeWorker(machine, graph, params, *mems[n], n, measure_iters, barrier, done);
    }
    machine.Run();
    ASVM_CHECK(done.count() == 0);
  }
  const SimDuration measured = machine.Now() - start;

  Em3dResult result;
  result.seconds = ToSeconds(measured) * static_cast<double>(params.iterations) /
                   static_cast<double>(measure_iters);
  result.faults = machine.stats().Get("vm.faults") - faults_before;
  result.bytes_on_wire =
      static_cast<double>(machine.stats().Get("mesh.bytes") - bytes_before);
  return result;
}

// --- Verified mode -----------------------------------------------------------------

namespace {

uint64_t DoubleBits(double v) { return std::bit_cast<uint64_t>(v); }
double BitsDouble(uint64_t b) { return std::bit_cast<double>(b); }

Task Em3dVerifiedWorker(Machine& machine, const Em3dGraph& graph, const Em3dParams& params,
                        TaskMemory& mem, NodeId node, ClusterBarrier& barrier,
                        ClusterWaitGroup& done) {
  const int k = params.edges_per_cell;
  for (int iter = 0; iter < params.iterations; ++iter) {
    auto [e_lo, e_hi] = graph.ERange(node);
    for (int64_t i = e_lo; i < e_hi; ++i) {
      double sum = 0;
      for (int j = 0; j < k; ++j) {
        const int64_t nb = graph.e_neighbors()[static_cast<size_t>(i) * k + j];
        const uint64_t bits = co_await mem.ReadU64(graph.HAddr(nb));
        sum += Em3dGraph::Weight(j) * BitsDouble(bits);
      }
      Status s = co_await mem.WriteU64(graph.EAddr(i), DoubleBits(sum));
      ASVM_CHECK(IsOk(s));
    }
    co_await barrier.Arrive(node);
    auto [h_lo, h_hi] = graph.HRange(node);
    for (int64_t i = h_lo; i < h_hi; ++i) {
      double sum = 0;
      for (int j = 0; j < k; ++j) {
        const int64_t nb = graph.h_neighbors()[static_cast<size_t>(i) * k + j];
        const uint64_t bits = co_await mem.ReadU64(graph.EAddr(nb));
        sum += Em3dGraph::Weight(j) * BitsDouble(bits);
      }
      Status s = co_await mem.WriteU64(graph.HAddr(i), DoubleBits(sum));
      ASVM_CHECK(IsOk(s));
    }
    co_await barrier.Arrive(node);
  }
  (void)machine;
  done.Done(node);
}

}  // namespace

uint64_t RunEm3dVerified(Machine& machine, const Em3dParams& params, int nodes_used) {
  ASVM_CHECK(nodes_used >= 1 && nodes_used <= machine.nodes());
  Em3dGraph graph(params, nodes_used);
  MemObjectId region = machine.CreateSharedRegion(/*home=*/0, graph.region_pages());
  std::vector<TaskMemory*> mems;
  for (NodeId n = 0; n < nodes_used; ++n) {
    mems.push_back(&machine.MapRegion(n, region));
  }

  // Initial values: cell index + 1 (E cells), -(index + 1) (H cells).
  for (int64_t i = 0; i < graph.e_cells(); ++i) {
    auto f = mems[graph.EOwner(i)]->WriteU64(graph.EAddr(i),
                                             DoubleBits(static_cast<double>(i + 1)));
    machine.Run();
    ASVM_CHECK(f.ready() && IsOk(f.value()));
  }
  for (int64_t i = 0; i < graph.h_cells(); ++i) {
    auto f = mems[graph.HOwner(i)]->WriteU64(graph.HAddr(i),
                                             DoubleBits(-static_cast<double>(i + 1)));
    machine.Run();
    ASVM_CHECK(f.ready() && IsOk(f.value()));
  }

  ClusterBarrier barrier(machine.cluster(), nodes_used);
  ClusterWaitGroup done(machine.cluster());
  done.Add(nodes_used);
  for (NodeId n = 0; n < nodes_used; ++n) {
    (void)Em3dVerifiedWorker(machine, graph, params, *mems[n], n, barrier, done);
  }
  machine.Run();
  ASVM_CHECK(done.count() == 0);

  uint64_t checksum = 0;
  for (int64_t i = 0; i < graph.e_cells(); ++i) {
    auto f = mems[graph.EOwner(i)]->ReadU64(graph.EAddr(i));
    machine.Run();
    ASVM_CHECK(f.ready());
    checksum ^= f.value() + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(i);
  }
  for (int64_t i = 0; i < graph.h_cells(); ++i) {
    auto f = mems[graph.HOwner(i)]->ReadU64(graph.HAddr(i));
    machine.Run();
    ASVM_CHECK(f.ready());
    checksum ^= f.value() + 0x517cc1b727220a95ULL * static_cast<uint64_t>(i);
  }
  return checksum;
}

uint64_t Em3dSequentialChecksum(const Em3dParams& params, int nodes_layout) {
  Em3dGraph graph(params, nodes_layout);
  const int k = params.edges_per_cell;
  std::vector<double> e(graph.e_cells());
  std::vector<double> h(graph.h_cells());
  for (int64_t i = 0; i < graph.e_cells(); ++i) {
    e[i] = static_cast<double>(i + 1);
  }
  for (int64_t i = 0; i < graph.h_cells(); ++i) {
    h[i] = -static_cast<double>(i + 1);
  }
  for (int iter = 0; iter < params.iterations; ++iter) {
    for (int64_t i = 0; i < graph.e_cells(); ++i) {
      double sum = 0;
      for (int j = 0; j < k; ++j) {
        sum += Em3dGraph::Weight(j) *
               h[graph.e_neighbors()[static_cast<size_t>(i) * k + j]];
      }
      e[i] = sum;
    }
    for (int64_t i = 0; i < graph.h_cells(); ++i) {
      double sum = 0;
      for (int j = 0; j < k; ++j) {
        sum += Em3dGraph::Weight(j) *
               e[graph.h_neighbors()[static_cast<size_t>(i) * k + j]];
      }
      h[i] = sum;
    }
  }
  uint64_t checksum = 0;
  for (int64_t i = 0; i < graph.e_cells(); ++i) {
    checksum ^= DoubleBits(e[i]) + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(i);
  }
  for (int64_t i = 0; i < graph.h_cells(); ++i) {
    checksum ^= DoubleBits(h[i]) + 0x517cc1b727220a95ULL * static_cast<uint64_t>(i);
  }
  return checksum;
}

double Em3dSequentialSeconds(const Em3dParams& params) {
  return ToSeconds(params.compute_per_cell_ns * params.cells) *
         static_cast<double>(params.iterations);
}

}  // namespace asvm
