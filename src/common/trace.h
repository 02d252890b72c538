// Cross-DSM observability: structured protocol events from every layer of the
// simulated machine (ASVM, XMM, the transports, the mesh fabric, the
// disk/pager path, and the fault plan) flow into one per-machine trace.
//
// The paper's authors built system- and application-level monitoring
// interfaces for ASVM on the Paragon; this generalizes that facility so both
// memory managers and everything beneath them emit into the same sink. Each
// event carries the simulated timestamp, the node it happened on, the
// emitting protocol layer, a message/event kind, the protocol op id (when the
// event belongs to a multi-message exchange), and the object/page involved.
//
// Sinks:
//  * TraceBuffer — bounded in-memory ring + per-kind counters, renderable as
//    the human timeline asvmsim --trace prints.
//  * ChromeTraceJson — serializes a TraceBuffer as Chrome trace_event JSON
//    (one track per node), viewable in Perfetto / chrome://tracing.
//  * AnalyzeFaultBreakdowns — folds a trace into per-fault causal breakdowns
//    (request / forward / manager-service / data-transfer / retry segments)
//    feeding the <dsm>.fault.breakdown.* histograms.
//
// Everything here is host-side: emission never schedules simulator events, so
// with no monitor attached timelines are bit-identical to an untraced run.
#ifndef SRC_COMMON_TRACE_H_
#define SRC_COMMON_TRACE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/sim/time.h"

namespace asvm {

class StatsRegistry;

// Which layer of the machine emitted the event.
enum class TraceProtocol : uint8_t {
  kAsvm = 0,    // ASVM protocol agents
  kXmm,         // XMM proxies / the centralized manager
  kIvy,         // IVY dynamic distributed manager (probable-owner chains)
  kTransport,   // STS / NORMA software send-receive path
  kMesh,        // fabric-level events (fault-plan jitter, dropped messages)
  kDisk,        // paging/file disks (the pager path's physical tail)
  kProtocolCount,
};

const char* ToString(TraceProtocol protocol);

enum class TraceKind : uint8_t {
  // --- ASVM protocol (the original monitor's vocabulary) --------------------
  kFaultRequest = 0,   // node asked its agent for access (page, access in aux)
  kForwardDynamic,     // request forwarded via a dynamic hint (peer = target)
  kForwardStatic,      // request forwarded to/via the static manager
  kForwardGlobal,      // request on the global ring
  kServeOwner,         // owner answered (peer = requester)
  kServeTerminal,      // pager/peer answered a first touch
  kGrantApplied,       // origin integrated a grant (ASVM and XMM)
  kInvalidate,         // owner -> reader invalidation
  kOwnershipMoved,     // ownership changed hands (peer = new owner)
  kEvictStep,          // internode paging step (aux = 1..4)
  kPush,               // push operation initiated
  kPushScan,           // push scan issued
  kPull,               // pull walk executed at a peer
  kWriteback,          // page returned to the pager
  // --- XMM protocol ----------------------------------------------------------
  kXmmRequest,         // proxy sent a request toward the manager (peer)
  kXmmManagerServe,    // manager began serving a request (peer = origin)
  kXmmFlush,           // manager flushed a writer/reader (aux: 1 write, 2 read)
  kXmmGrant,           // manager sent the grant back (peer = origin)
  kXmmCopyFault,       // internal copy pager served a copy fault (peer = src)
  // --- IVY protocol ----------------------------------------------------------
  kIvyRequest,         // origin sent a request toward its probable owner (peer)
  kIvyForward,         // non-owner forwarded along its hint (peer = next hop,
                       // aux = hops so far) — the chain-hop span --breakdown
                       // charges to the forward segment
  kIvyServe,           // true owner began serving (peer = origin, aux = hops)
  kIvyInvalidate,      // owner invalidated a copyset member (peer = reader)
  kIvyGrant,           // owner sent the grant (peer = origin; aux = access,
                       // -1 for a lost-page reply)
  kIvyChainCut,        // death notice re-aimed a hint off a corpse (peer = dead)
  // --- Transport / mesh ------------------------------------------------------
  kMsgSend,            // software send started (peer = dst, aux = wire bytes)
  kMsgRecv,            // handler dispatched (peer = src, aux = wire bytes)
  kMsgDropped,         // fault plan black-holed the message (peer = dst)
  kJitter,             // fault plan delayed a delivery (aux = jitter ns)
  // --- Disk / pager path -----------------------------------------------------
  kDiskRead,           // aux = bytes, page = block position
  kDiskWrite,
  // --- Protocol hardening ----------------------------------------------------
  kRetry,              // pending-op deadline fired a resend (aux = next delay)
  kTimeout,            // pending op exhausted its retries
  // --- Failover ---------------------------------------------------------------
  kFailover,           // op resolved kNodeDown: peer confirmed removed (peer)
  kPromote,            // backup promoted to manager/home (peer = old manager)
  kLeaseReclaim,       // dead owner's lease expired; ownership reclaimed
  kKindCount,
};

const char* ToString(TraceKind kind);

struct TraceEvent {
  SimTime time = 0;
  NodeId node = kInvalidNode;   // where the event happened
  TraceProtocol protocol = TraceProtocol::kAsvm;
  TraceKind kind = TraceKind::kFaultRequest;
  MemObjectId object;
  PageIndex page = kInvalidPage;
  NodeId peer = kInvalidNode;   // counterpart node, if any
  uint64_t op = 0;              // protocol op / request id (0 = none)
  int64_t aux = 0;              // kind-specific detail
  const char* detail = nullptr;  // static label (message type for transport events)
  // Per-node emission sequence, stamped by TraceSink::Emit. A node's events
  // are emitted in its deterministic causal order regardless of shard count,
  // so (time, node, node_seq) is a canonical total order shared by
  // single-threaded and sharded runs (ChromeTraceJson sorts by it).
  uint64_t node_seq = 0;
};

class ProtocolMonitor {
 public:
  virtual ~ProtocolMonitor() = default;
  virtual void OnEvent(const TraceEvent& event) = 0;
};

// Stable indirection the emitting layers hold: the Cluster owns one TraceSink
// and every layer that emits takes it as a constructor reference, so a
// monitor can be attached or detached at any time without re-wiring.
// Emission with no monitor attached is one branch.
//
// Thread safety: sharded runs emit from several shard threads; the mutex
// serializes monitor delivery and the per-node sequence stamping. Emission
// with no monitor attached stays lock-free.
struct TraceSink {
  ProtocolMonitor* monitor = nullptr;

  bool enabled() const { return monitor != nullptr; }
  void Emit(TraceEvent event) {
    if (monitor != nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      event.node_seq = ++node_seq_[event.node];
      monitor->OnEvent(event);
    }
  }

 private:
  std::mutex mu_;
  std::map<NodeId, uint64_t> node_seq_;
};

// Bounded ring-buffer trace + per-kind counters.
class TraceBuffer : public ProtocolMonitor {
 public:
  explicit TraceBuffer(size_t capacity = 4096) : capacity_(capacity) {}

  void OnEvent(const TraceEvent& event) override {
    ++counts_[static_cast<size_t>(event.kind)];
    ++total_;
    events_.push_back(event);
    if (events_.size() > capacity_) {
      events_.pop_front();
    }
  }

  const std::deque<TraceEvent>& events() const { return events_; }
  int64_t count(TraceKind kind) const { return counts_[static_cast<size_t>(kind)]; }
  int64_t total() const { return total_; }
  void Clear() {
    events_.clear();
    counts_.fill(0);
    total_ = 0;
  }

  // Renders the trace (optionally only events touching `page`) as a
  // timeline, one line per event.
  std::string Render(PageIndex page = kInvalidPage) const;

 private:
  size_t capacity_;
  std::deque<TraceEvent> events_;
  std::array<int64_t, static_cast<size_t>(TraceKind::kKindCount)> counts_{};
  int64_t total_ = 0;
};

// Serializes the trace as Chrome trace_event JSON: instant events on one
// track per node (pid 0, tid = node id), timestamps in microseconds. Events
// are serialized in canonical (time, node, node_seq) order, so the output is
// a pure function of the event multiset — identical runs serialize
// byte-identically, and sharded runs match their single-threaded twin
// byte-for-byte even though buffer insertion order differs.
std::string ChromeTraceJson(const TraceBuffer& trace);

// --- Per-fault causal breakdown ----------------------------------------------

// One completed page-fault exchange, decomposed into the segments the paper's
// Table 1 discusses. Milestones missing from the trace collapse their segment
// to zero, so the four path segments always sum to total_ns; retry_ns is the
// overlapping share of the path spent waiting on deadline-driven resends.
struct FaultBreakdown {
  TraceProtocol protocol = TraceProtocol::kAsvm;
  NodeId origin = kInvalidNode;
  MemObjectId object;
  PageIndex page = kInvalidPage;
  uint64_t op = 0;
  SimTime started = 0;
  SimDuration total_ns = 0;
  SimDuration request_ns = 0;          // origin fault -> first forward / serve
  SimDuration forward_ns = 0;          // forwarding-chain walk
  SimDuration manager_service_ns = 0;  // route end -> grant sent
  SimDuration data_transfer_ns = 0;    // grant sent -> applied at the origin
  SimDuration retry_ns = 0;            // deadline-driven resend delay charged
  int forwards = 0;
  int retries = 0;
};

// Folds the event stream into completed fault breakdowns. ASVM exchanges are
// matched by op id (AccessRequest::req_id); XMM exchanges (which carry no op
// id on the request path) by (origin, object, page).
std::vector<FaultBreakdown> AnalyzeFaultBreakdowns(const std::deque<TraceEvent>& events);

// Observes every breakdown into `<protocol>.fault.breakdown.{total,request,
// forward,manager_service,data_transfer,retry}_ns` histograms.
void RecordFaultBreakdowns(const std::vector<FaultBreakdown>& faults, StatsRegistry& stats);

// Human-readable per-fault table plus per-protocol segment means.
std::string RenderFaultBreakdowns(const std::vector<FaultBreakdown>& faults);

}  // namespace asvm

#endif  // SRC_COMMON_TRACE_H_
