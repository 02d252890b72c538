// EM3D — the SVM application of the paper's §4.3: a bipartite graph of E and
// H cells; each iteration updates every E cell from its H neighbours, then
// every H cell from its E neighbours. Cells are partitioned contiguously
// across nodes (page-aligned slices, as each processor's cells live in its
// own memory); a configurable fraction of edges crosses node boundaries.
//
// Two execution modes:
//  * Verified — every neighbour value flows through the DSM; the final
//    checksum must match a sequential reference bit-for-bit. For small
//    graphs in tests.
//  * Timed — the page-fault traffic of each phase is simulated exactly
//    (write upgrades on own cells, read faults on remote neighbours) while
//    the floating-point work is charged as modeled compute time. This is
//    what regenerates Table 3 at full problem sizes.
#ifndef SRC_EM3D_EM3D_H_
#define SRC_EM3D_EM3D_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/machine.h"

namespace asvm {

struct Em3dParams {
  int64_t cells = 64000;        // total cells; half E, half H
  int edges_per_cell = 6;       // paper: 6
  double remote_fraction = 0.2; // paper: 20%
  int iterations = 100;         // reported iteration count
  uint64_t seed = 1;
  int64_t bytes_per_cell = 224;  // paper: 224 bytes of memory per cell
  // Spatial locality of the electromagnetic grid: remote edges lead to a
  // neighbouring node (ring) and land in that node's boundary region — the
  // fraction of its slice adjacent to the cut. Without this locality an
  // SVM EM3D shares every page and cannot speed up at all.
  double boundary_fraction = 0.075;
  // Cost of each phase barrier at the coordinating node (arrive + release
  // message handling per participant); dominates ASVM's per-iteration time at
  // high node counts, flattening its speedup curve as in Table 3.
  SimDuration barrier_per_node_ns = 500 * kMicrosecond;
  // Compute cost per cell per iteration, calibrated so the sequential 64000-
  // cell run matches the paper's 43.6 s for 100 iterations.
  SimDuration compute_per_cell_ns = 6812;
};

// Deterministic bipartite graph + the page-level access sets each node needs
// per phase. Identical for a given (params, node count) regardless of DSM.
class Em3dGraph {
 public:
  Em3dGraph(const Em3dParams& params, int nodes);

  int nodes() const { return nodes_; }
  int64_t e_cells() const { return e_cells_; }
  int64_t h_cells() const { return h_cells_; }
  VmSize region_pages() const { return region_pages_; }
  size_t page_size() const { return page_size_; }

  // Address of a cell's value (8 bytes) in the shared region.
  VmOffset EAddr(int64_t e_index) const;
  VmOffset HAddr(int64_t h_index) const;

  NodeId EOwner(int64_t e_index) const { return static_cast<NodeId>(e_index / e_per_node_); }
  NodeId HOwner(int64_t h_index) const { return static_cast<NodeId>(h_index / h_per_node_); }

  // Owned index ranges per node.
  std::pair<int64_t, int64_t> ERange(NodeId node) const;
  std::pair<int64_t, int64_t> HRange(NodeId node) const;

  // Neighbour lists (indices into the other cell class).
  const std::vector<int64_t>& e_neighbors() const { return e_neighbors_; }
  const std::vector<int64_t>& h_neighbors() const { return h_neighbors_; }

  // Edge weight of the j-th edge (same for both phases; deterministic).
  static double Weight(int j) { return 1.0 / (3.0 + j); }

  // Per-node page sets for the timed mode.
  const std::vector<VmOffset>& EPhaseWritePages(NodeId node) const {
    return e_write_pages_[node];
  }
  const std::vector<VmOffset>& EPhaseReadPages(NodeId node) const {
    return e_read_pages_[node];
  }
  const std::vector<VmOffset>& HPhaseWritePages(NodeId node) const {
    return h_write_pages_[node];
  }
  const std::vector<VmOffset>& HPhaseReadPages(NodeId node) const {
    return h_read_pages_[node];
  }

 private:
  Em3dParams params_;
  int nodes_;
  size_t page_size_ = 8192;
  int64_t e_cells_;
  int64_t h_cells_;
  int64_t e_per_node_;
  int64_t h_per_node_;
  VmSize pages_per_e_slice_;
  VmSize pages_per_h_slice_;
  VmSize h_base_page_;
  VmSize region_pages_;
  std::vector<int64_t> e_neighbors_;  // e_cells * edges_per_cell H-indices
  std::vector<int64_t> h_neighbors_;  // h_cells * edges_per_cell E-indices
  std::vector<std::vector<VmOffset>> e_write_pages_;
  std::vector<std::vector<VmOffset>> e_read_pages_;
  std::vector<std::vector<VmOffset>> h_write_pages_;
  std::vector<std::vector<VmOffset>> h_read_pages_;
};

struct Em3dResult {
  double seconds = 0;       // projected time for params.iterations iterations
  int64_t faults = 0;       // VM faults during the measured window
  double bytes_on_wire = 0; // transport traffic during the measured window
};

// Timed run on `machine` using `nodes_used` nodes. Runs one warmup iteration
// plus `measure_iters` measured ones, then projects to params.iterations.
Em3dResult RunEm3dTimed(Machine& machine, const Em3dParams& params, int nodes_used,
                        int measure_iters = 10);

// Full-data run through the DSM; returns the XOR checksum of all final cell
// values. Must equal Em3dSequentialChecksum for the same (params, nodes).
uint64_t RunEm3dVerified(Machine& machine, const Em3dParams& params, int nodes_used);

// Sequential reference (host-side arrays, same graph and update order).
uint64_t Em3dSequentialChecksum(const Em3dParams& params, int nodes_layout);

// Modeled single-node execution time (pure compute; no DSM traffic).
double Em3dSequentialSeconds(const Em3dParams& params);

}  // namespace asvm

#endif  // SRC_EM3D_EM3D_H_
