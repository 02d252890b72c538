// Timing model of the mesh fabric. Wormhole-pipelined: an uncontended message
// of S bytes over h hops arrives after route_setup + h*per_hop + S/bandwidth.
// Contention is modeled at the endpoints — each node has one injection and one
// ejection channel that serialize traffic at link bandwidth — which captures
// the effects the paper's evaluation depends on (fan-in saturation at a
// centralized manager or file pager, fan-out serialization at a page owner)
// without simulating per-link flit occupancy.
#ifndef SRC_MESH_NETWORK_H_
#define SRC_MESH_NETWORK_H_

#include <vector>

#include "src/common/stats.h"
#include "src/common/trace.h"
#include "src/common/types.h"
#include "src/mesh/fault_plan.h"
#include "src/mesh/topology.h"
#include "src/sim/event_fn.h"

namespace asvm {

struct MeshParams {
  // Paragon: 200 MB/s raw per direction; wormhole per-hop delay ~40 ns;
  // a small fixed route-setup/packetization cost per message.
  double bandwidth_bytes_per_ns = 0.2;           // 200 MB/s = 0.2 bytes/ns
  SimDuration per_hop_ns = 40;                   // router delay per hop
  SimDuration route_setup_ns = 500;              // packetize + inject
};

// A cross-node message on its way into the fabric. The transport posts it,
// stamped with the send-side software completion time and the source node,
// into the cluster's barrier mailbox (src/sim/shard_mailbox.h); all fabric
// math — endpoint busy channels, jitter, stats — is deferred to the
// inter-window barrier, which replays records in global (send_time, source
// node, per-source seq) order so the tx/rx busy-channel updates happen in one
// canonical sequence at every shard count (DESIGN.md §13).
struct MeshRecord {
  NodeId dst = kInvalidNode;
  size_t bytes = 0;
  EventFn deliver;
};

class Network {
 public:
  // Every message consults `fault` (empty params: a healthy fabric); dropped
  // messages and injected jitter are emitted into `trace` as events.
  Network(Topology topology, MeshParams params, FaultPlan& fault, StatsRegistry& stats,
          TraceSink& trace)
      : topology_(topology),
        params_(params),
        fault_(fault),
        stats_(stats),
        trace_(trace),
        tx_busy_until_(topology.node_count(), 0),
        rx_busy_until_(topology.node_count(), 0) {}

  const Topology& topology() const { return topology_; }

  // Admits `bytes` from `src` to `dst` into the fabric at send time `now`.
  // Returns the delivery completion time (the caller injects the record's
  // deliver event into the destination's engine at that time), or -1 when the
  // fault plan drops the message. src == dst is not a network operation and
  // is rejected; the transport handles local delivery itself.
  SimTime Admit(SimTime now, NodeId src, NodeId dst, size_t bytes);

  // Modeled one-way latency of an uncontended message (for tests/diagnostics).
  SimDuration UncontendedLatency(NodeId src, NodeId dst, size_t bytes) const;

  const MeshParams& params() const { return params_; }

 private:
  Topology topology_;
  MeshParams params_;
  FaultPlan& fault_;
  StatsRegistry& stats_;
  TraceSink& trace_;
  CounterHandle messages_;
  CounterHandle bytes_;
  std::vector<SimTime> tx_busy_until_;
  std::vector<SimTime> rx_busy_until_;
};

}  // namespace asvm

#endif  // SRC_MESH_NETWORK_H_
