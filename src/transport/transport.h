// The cost-modeled transport service. One class serves every transport; a
// Transport is a name plus a cost preset, mirroring the paper:
//  * "sts" (StsCosts) — the dedicated SVM Transport Service: tiny fixed-size
//    untyped control messages, preallocated page receive buffers, low
//    per-message software overhead;
//  * "sts_ctl" (StsCtlCosts) — the STS channel for trivial preformatted
//    control messages (invalidation rounds);
//  * "norma" (NormaIpcCosts) — Mach NORMA-IPC: port-right translation and
//    complex typed message structures impose a large per-message software
//    cost (the paper attributes ~90% of XMM's remote-fault latency to it).
//
// Each charges a software send overhead serialized on the sending node and a
// software receive overhead serialized on the receiving node, over the same
// mesh fabric. A cross-node send never touches the fabric directly: it is
// posted as a MeshRecord into the cluster's barrier mailbox, which replays it
// through Network::Admit (DESIGN.md §13).
#ifndef SRC_TRANSPORT_TRANSPORT_H_
#define SRC_TRANSPORT_TRANSPORT_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/stats.h"
#include "src/common/trace.h"
#include "src/common/types.h"
#include "src/mesh/network.h"
#include "src/sim/engine.h"
#include "src/sim/shard_mailbox.h"
#include "src/sim/sharded_engine.h"
#include "src/transport/message.h"

namespace asvm {

struct TransportCosts {
  SimDuration send_sw_ns = 0;       // software cost to send, serialized per sender
  SimDuration recv_sw_ns = 0;       // software cost to receive, serialized per receiver
  SimDuration local_delivery_ns = 0;  // cost of a node sending to itself
  size_t control_overhead_bytes = 0;  // extra wire bytes per message (headers, port data)
};

class Transport {
 public:
  // Handlers get the envelope by reference; it lives until the handler
  // returns.
  using Handler = std::function<void(NodeId src, Message& msg)>;

  // `engines` maps each node to the engine that simulates it; cross-node
  // sends are posted into `mailbox`, which the cluster replays. Slow-node
  // faults in `fault` scale a node's software send/recv costs. Every send and
  // delivery emits a kMsgSend/kMsgRecv event into `trace`, carrying the
  // message type and, when the body has one, the protocol op id. All of them
  // must outlive the transport. The transport's messages, bytes and
  // page_messages counters are registered here, so they report zero on a run
  // that never uses it.
  Transport(ShardedEngine& engines, ShardMailbox<MeshRecord>& mailbox, std::string name,
            TransportCosts costs, FaultPlan& fault, StatsRegistry& stats, TraceSink& trace);

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // Registers the receive handler for (protocol, node). At most one handler
  // per pair; protocol modules register during machine construction.
  void RegisterHandler(ProtocolId protocol, NodeId node, Handler handler);

  // Sends msg from src to dst. Delivery invokes the registered handler after
  // the modeled software + wire latency. src == dst is a local delivery that
  // bypasses the mesh; any other send waits in the mailbox and enters the
  // fabric when the cluster replays it. The box travels as is: the handler
  // sees the very Message the sender filled.
  void Send(NodeId src, NodeId dst, std::unique_ptr<Message> msg);

  const std::string& name() const { return name_; }
  const TransportCosts& costs() const { return costs_; }

  // When enabled, every send also bumps a per-message-type counter
  // ("transport.<name>.msg.<MsgTypeName>"). Off by default: the extra counter
  // per message is only worth paying for when a tool asks for the breakdown.
  void set_per_type_stats(bool enabled) { per_type_stats_ = enabled; }

 private:
  // Protocol ids are small contiguous integers; message-type tags are small
  // per-protocol enums. Both are bounded so dispatch and the per-type counter
  // cache can be flat arrays instead of map lookups on the hot path.
  static constexpr size_t kMaxProtocols = 5;
  static constexpr size_t kMaxMsgTypes = 32;

  void Deliver(NodeId src, NodeId dst, std::unique_ptr<Message> msg);
  // Runs dst's handler for msg.protocol; the caller's event owns the box.
  void Handle(NodeId src, NodeId dst, Message& msg);
  Handler& HandlerSlot(ProtocolId protocol, NodeId node);
  void CountType(const Message& msg);
  SimDuration SwCost(SimDuration base, NodeId node);
  Engine& node_engine(NodeId node) { return engines_.engine_for_node(node); }

  ShardedEngine& engines_;
  ShardMailbox<MeshRecord>& mailbox_;
  std::string name_;
  TransportCosts costs_;
  FaultPlan& fault_;
  StatsRegistry& stats_;
  TraceSink& trace_;
  // Indexed [protocol * node_count + node]; empty std::function = unregistered.
  std::vector<Handler> handlers_;
  // One protocol CPU per node: sending and receiving share it, so a node
  // fanning out invalidations also pays for each ack it absorbs (the additive
  // per-reader slope of Table 1 / Figure 10).
  std::vector<SimTime> cpu_busy_until_;
  // Cached counter references so the per-send cost is an increment, not a
  // string build + map lookup. Atomics: shard threads send concurrently.
  std::atomic<int64_t>& messages_counter_;
  std::atomic<int64_t>& bytes_counter_;
  std::atomic<int64_t>& page_messages_counter_;
  bool per_type_stats_ = false;
  std::array<std::array<CounterHandle, kMaxMsgTypes>, kMaxProtocols> type_counters_;
  CounterHandle slowed_messages_;
};

// The calibrated cost models (see DESIGN.md §4).
TransportCosts StsCosts();
// STS channel for trivial preformatted control messages (invalidation
// rounds): Table 1's ~0.1 ms-per-reader slope comes from this path.
TransportCosts StsCtlCosts();
TransportCosts NormaIpcCosts();

}  // namespace asvm

#endif  // SRC_TRANSPORT_TRANSPORT_H_
