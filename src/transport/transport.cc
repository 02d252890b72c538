#include "src/transport/transport.h"

#include <algorithm>
#include <cmath>

#include "src/common/log.h"

namespace asvm {

namespace {

// Pulls the protocol op/request id out of whatever typed body the envelope
// carries, so transport-level trace events can be correlated with the
// protocol-level exchange they belong to. Bodies without an id yield 0.
uint64_t MessageOpId(const Message& msg) {
  return std::visit(
      [](const auto& body) -> uint64_t {
        using Body = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<Body, std::monostate>) {
          return 0;
        } else {
          return std::visit(
              [](const auto& m) -> uint64_t {
                using M = std::decay_t<decltype(m)>;
                if constexpr (requires(const M& x) { x.op_id; }) {
                  return m.op_id;
                } else if constexpr (requires(const M& x) { x.req_id; }) {
                  return m.req_id;
                } else {
                  return 0;
                }
              },
              body);
        }
      },
      msg.body);
}

}  // namespace

Transport::Transport(ShardedEngine& engines, ShardMailbox<MeshRecord>& mailbox, std::string name,
                     TransportCosts costs, FaultPlan& fault, StatsRegistry& stats,
                     TraceSink& trace)
    : engines_(engines),
      mailbox_(mailbox),
      name_(std::move(name)),
      costs_(costs),
      fault_(fault),
      stats_(stats),
      trace_(trace),
      handlers_(kMaxProtocols * engines.node_count()),
      cpu_busy_until_(engines.node_count(), 0),
      messages_counter_(stats.Counter("transport." + name_ + ".messages")),
      bytes_counter_(stats.Counter("transport." + name_ + ".bytes")),
      page_messages_counter_(stats.Counter("transport." + name_ + ".page_messages")) {}

Transport::Handler& Transport::HandlerSlot(ProtocolId protocol, NodeId node) {
  const size_t p = static_cast<size_t>(protocol);
  ASVM_CHECK_MSG(p < kMaxProtocols, "protocol id out of range");
  ASVM_CHECK_MSG(node >= 0 && static_cast<size_t>(node) < cpu_busy_until_.size(),
                 "node id out of range");
  return handlers_[p * cpu_busy_until_.size() + static_cast<size_t>(node)];
}

void Transport::CountType(const Message& msg) {
  const size_t p = static_cast<size_t>(msg.protocol);
  const size_t t = static_cast<size_t>(msg.type);
  if (p < kMaxProtocols && t < kMaxMsgTypes) {
    type_counters_[p][t].Add(
        stats_, [&] { return "transport." + name_ + ".msg." + MsgTypeName(msg); });
    return;
  }
  stats_.Add("transport." + name_ + ".msg.unknown");
}

SimDuration Transport::SwCost(SimDuration base, NodeId node) {
  const double factor = fault_.NodeCostFactor(node);
  if (factor == 1.0) {
    return base;
  }
  slowed_messages_.Add(stats_, "fault.slowed_messages");
  return static_cast<SimDuration>(std::llround(static_cast<double>(base) * factor));
}

void Transport::RegisterHandler(ProtocolId protocol, NodeId node, Handler handler) {
  Handler& slot = HandlerSlot(protocol, node);
  ASVM_CHECK_MSG(!slot, "duplicate transport handler for protocol '" +
                            std::string(ProtocolName(protocol)) + "' on node " +
                            std::to_string(node) + " (transport '" + name_ +
                            "'); each (protocol, node) pair registers exactly once "
                            "during machine construction");
  slot = std::move(handler);
}

void Transport::Send(NodeId src, NodeId dst, std::unique_ptr<Message> msg) {
  const size_t bytes = msg->WireBytes() + costs_.control_overhead_bytes;
  messages_counter_.fetch_add(1, std::memory_order_relaxed);
  bytes_counter_.fetch_add(static_cast<int64_t>(bytes), std::memory_order_relaxed);
  if (msg->page) {
    page_messages_counter_.fetch_add(1, std::memory_order_relaxed);
  }
  if (per_type_stats_) {
    CountType(*msg);
  }
  if (trace_.enabled()) {
    TraceEvent e;
    e.time = node_engine(src).Now();
    e.node = src;
    e.protocol = TraceProtocol::kTransport;
    e.kind = TraceKind::kMsgSend;
    e.peer = dst;
    e.op = MessageOpId(*msg);
    e.aux = static_cast<int64_t>(bytes);
    e.detail = MsgTypeName(*msg);
    trace_.Emit(e);
  }

  if (src == dst) {
    // Node-local delivery: no wire, no port/receive queue — just the modeled
    // local handoff cost.
    node_engine(src).Schedule(costs_.local_delivery_ns,
                              [this, src, dst, msg = std::move(msg)] { Handle(src, dst, *msg); });
    return;
  }

  // Software send path serializes on the sending node's protocol CPU:
  // back-to-back sends (an invalidation fan-out, for example) queue behind
  // one another and behind incoming-message processing. cpu_busy_until_[n] is
  // only ever touched from node n's engine (its shard's thread), so sharded
  // runs race nowhere here.
  const SimTime now = node_engine(src).Now();
  const SimTime send_done = std::max(now, cpu_busy_until_[src]) + SwCost(costs_.send_sw_ns, src);
  cpu_busy_until_[src] = send_done;

  // All fabric math (tx/rx busy channels, jitter, mesh stats) is deferred to
  // the barrier, which replays records in (send_time, source node,
  // per-source seq) order — including same-shard traffic, so the endpoint
  // busy channels update in one canonical sequence at every shard count.
  mailbox_.Post(send_done, src,
                MeshRecord{dst, bytes, [this, src, dst, msg = std::move(msg)]() mutable {
                             Deliver(src, dst, std::move(msg));
                           }});
}

void Transport::Deliver(NodeId src, NodeId dst, std::unique_ptr<Message> msg) {
  Engine& dst_engine = node_engine(dst);
  if (trace_.enabled()) {
    TraceEvent e;
    e.time = dst_engine.Now();
    e.node = dst;
    e.protocol = TraceProtocol::kTransport;
    e.kind = TraceKind::kMsgRecv;
    e.peer = src;
    e.op = MessageOpId(*msg);
    e.aux = static_cast<int64_t>(msg->WireBytes() + costs_.control_overhead_bytes);
    e.detail = MsgTypeName(*msg);
    trace_.Emit(e);
  }
  // Software receive path serializes on the receiving node's protocol CPU: a
  // node flooded with requests (a centralized manager) processes them one at
  // a time.
  const SimTime now = dst_engine.Now();
  const SimTime handled_at = std::max(now, cpu_busy_until_[dst]) + SwCost(costs_.recv_sw_ns, dst);
  cpu_busy_until_[dst] = handled_at;

  dst_engine.Schedule(handled_at - now,
                      [this, src, dst, msg = std::move(msg)] { Handle(src, dst, *msg); });
}

void Transport::Handle(NodeId src, NodeId dst, Message& msg) {
  Handler& handler = HandlerSlot(msg.protocol, dst);
  ASVM_CHECK_MSG(handler, "no transport handler registered");
  handler(src, msg);
}

TransportCosts StsCosts() {
  TransportCosts costs;
  // Dedicated low-level protocol stack: fixed 32-byte untyped control block,
  // preallocated page receive buffers, no port translation.
  costs.send_sw_ns = 250 * kMicrosecond;
  costs.recv_sw_ns = 250 * kMicrosecond;
  costs.local_delivery_ns = 20 * kMicrosecond;
  costs.control_overhead_bytes = 0;
  return costs;
}

TransportCosts StsCtlCosts() {
  TransportCosts costs;
  // Minimal preformatted control messages (invalidations and their acks):
  // no buffer management at all, just a 32-byte block into a preposted slot.
  costs.send_sw_ns = 40 * kMicrosecond;
  costs.recv_sw_ns = 40 * kMicrosecond;
  costs.local_delivery_ns = 10 * kMicrosecond;
  costs.control_overhead_bytes = 0;
  return costs;
}

TransportCosts NormaIpcCosts() {
  TransportCosts costs;
  // Port-right bookkeeping, typed message parsing, kernel IPC queueing: the
  // paper measures NORMA-IPC at ~90% of XMM's remote page-fault latency.
  costs.send_sw_ns = 500 * kMicrosecond;
  costs.recv_sw_ns = 450 * kMicrosecond;
  costs.local_delivery_ns = 300 * kMicrosecond;
  costs.control_overhead_bytes = 256;
  return costs;
}

}  // namespace asvm
