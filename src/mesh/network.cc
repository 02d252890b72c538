#include "src/mesh/network.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/common/log.h"

namespace asvm {

namespace {

SimDuration SerializationTime(size_t bytes, double bandwidth_bytes_per_ns) {
  return static_cast<SimDuration>(
      std::llround(static_cast<double>(bytes) / bandwidth_bytes_per_ns));
}

}  // namespace

SimTime Network::Admit(SimTime now, NodeId src, NodeId dst, size_t bytes) {
  ASVM_CHECK_MSG(topology_.Contains(src) && topology_.Contains(dst),
                 "Network: node out of range: src " + std::to_string(src) + ", dst " +
                     std::to_string(dst) + " (mesh has " +
                     std::to_string(topology_.node_count()) + " nodes)");
  ASVM_CHECK_MSG(src != dst, "Network used for local delivery: src == dst == " +
                                 std::to_string(src) +
                                 "; intra-node messages must bypass the mesh "
                                 "(Transport delivers them itself)");

  if (!fault_.Delivers(src, dst, now)) {
    if (trace_.enabled()) {
      TraceEvent e;
      e.time = now;
      e.node = src;
      e.protocol = TraceProtocol::kMesh;
      e.kind = TraceKind::kMsgDropped;
      e.peer = dst;
      e.aux = static_cast<int64_t>(bytes);
      trace_.Emit(e);
    }
    return -1;  // black hole: a removed node's traffic silently vanishes (counted)
  }

  const double bandwidth = params_.bandwidth_bytes_per_ns * fault_.LinkBandwidthFactor(src, dst);
  const SimDuration jitter = fault_.NextJitter();
  const SimDuration ser = SerializationTime(bytes, bandwidth);

  // Injection channel: the message occupies the source's outbound link for its
  // serialization time starting when the link is free.
  const SimTime tx_start = std::max(now, tx_busy_until_[src]) + params_.route_setup_ns;
  tx_busy_until_[src] = tx_start + ser;

  // Wormhole pipeline: the head races ahead per-hop; the tail trails by the
  // serialization time.
  const SimTime head_arrival = tx_start + params_.per_hop_ns * topology_.Hops(src, dst);

  // Ejection channel: delivery completes when the tail has drained through the
  // destination's inbound link. Fault jitter extends the drain, so jittered
  // delivery stays FIFO per destination (rx_busy_until_ remains monotone).
  const SimTime rx_done = std::max(head_arrival, rx_busy_until_[dst]) + ser + jitter;
  rx_busy_until_[dst] = rx_done;

  messages_.Add(stats_, "mesh.messages");
  bytes_.Add(stats_, "mesh.bytes", static_cast<int64_t>(bytes));
  if (jitter != 0 && trace_.enabled()) {
    TraceEvent e;
    e.time = now;
    e.node = dst;
    e.protocol = TraceProtocol::kMesh;
    e.kind = TraceKind::kJitter;
    e.peer = src;
    e.aux = jitter;
    trace_.Emit(e);
  }

  return rx_done;
}

SimDuration Network::UncontendedLatency(NodeId src, NodeId dst, size_t bytes) const {
  const SimDuration ser = SerializationTime(bytes, params_.bandwidth_bytes_per_ns);
  return params_.route_setup_ns + params_.per_hop_ns * topology_.Hops(src, dst) + ser;
}

}  // namespace asvm
