// ASVM protocol messages. On the wire each is a fixed 32-byte untyped control
// block, optionally followed by one page of contents (paper §3.1, "Specialized
// Communication Protocol"); here the bodies are typed structs carried through
// the STS transport.
#ifndef SRC_ASVM_MESSAGES_H_
#define SRC_ASVM_MESSAGES_H_

#include <cstdint>
#include <variant>
#include <vector>

#include "src/common/types.h"
#include "src/dsm/dsm_messages.h"

namespace asvm {

enum class AsvmMsgType : uint32_t {
  kAccessRequest = 1,   // find the page owner and obtain access
  kAccessReply,         // grant (data / zero-fill / upgrade / retry)
  kPullDone,            // origin -> terminal node: first-touch grant landed
  kInvalidate,          // owner -> reader
  kInvalidateAck,
  kOwnershipOffer,      // eviction step 2: pass ownership to a reader (no data)
  kOwnershipOfferReply,
  kPageoutOffer,        // eviction step 3: move the page to another sharer
  kPageoutOfferReply,
  kWriteback,           // eviction step 4: return the page to the pager (home)
  kWritebackAck,
  kPushRequest,         // push initiator -> sharing node (lock_request w/ mode)
  kPushReply,
  kPushData,            // initiator -> copy peer: contents for the copy chain
  kPushDataAck,
  kMarkReadOnly,        // copy creation: downgrade resident source pages
  kMarkReadOnlyAck,
  kStaticHint,          // maintain a static ownership-manager cache entry
  kShadowUpdate,        // failover: home -> backup, newest written-back page
  kShadowManifest,      // failover: home -> witness, "this page was committed"
};

// What a static ownership manager may know about a page (paper §3.4).
enum class StaticHintKind : uint8_t {
  kOwner,  // a node is believed to own the page
  kFresh,  // the page has never been initialized
  kPaged,  // the page has been written back to the pager
};

struct AccessRequest {
  MemObjectId target;       // object the origin faulted on (supply goes here)
  MemObjectId search;       // object space currently being searched
  PageIndex page = kInvalidPage;
  PageAccess access = PageAccess::kRead;
  NodeId origin = kInvalidNode;
  bool is_push_scan = false;  // query only: does the page exist in this space?
  // The node serializing a first-touch grant for this request's target space;
  // the eventual reply carries it back so the origin can report completion.
  NodeId terminal = kInvalidNode;
  // Set when the request was explicitly routed to the forwarding terminal
  // (pager/peer); the terminal then serves instead of re-routing.
  bool to_terminal = false;
  int hops = 0;
  // Global-forwarding (ring) state.
  bool ring = false;
  int ring_pos = 0;    // index into sharing list of `search`
  int ring_left = 0;   // nodes still to visit
  uint64_t req_id = 0;  // for tracing/stats
};

struct AccessReply {
  MemObjectId target;
  PageIndex page = kInvalidPage;
  PageAccess granted = PageAccess::kNone;
  bool ownership = false;
  bool zero_fill = false;   // no payload; zero-fill with `granted` lock
  bool upgrade = false;     // no payload; raise existing lock
  bool retry = false;       // push/pull race: re-issue the request
  bool is_scan = false;     // reply to a push-scan (routed via req_id)
  bool scan_found = false;  // push-scan outcome
  // Failover: the page was committed (written back) but its home and every
  // replica died before promotion could fold it in — the fault must fail
  // Status::kDataLost instead of silently zero-filling (DESIGN.md §14).
  bool lost = false;
  uint64_t req_id = 0;
  uint64_t page_version = 0;
  NodeId terminal = kInvalidNode;  // node that serialized a first-touch grant
  std::vector<NodeId> readers;     // reader list handed over with ownership
};

struct InvalidateMsg {
  MemObjectId object;
  PageIndex page;
  uint64_t op_id;
};

struct OwnershipOffer {
  MemObjectId object;
  PageIndex page;
  uint64_t page_version;
  std::vector<NodeId> readers;  // remaining readers if the offer is accepted
  uint64_t op_id;
};

struct OfferReply {
  MemObjectId object;
  PageIndex page;
  bool accepted;
  uint64_t op_id;
};

struct PageoutOffer {
  MemObjectId object;
  PageIndex page;
  uint64_t page_version;
  bool dirty;
  uint64_t op_id;
};

struct WritebackMsg {
  MemObjectId object;
  PageIndex page;
  uint64_t page_version;
  bool dirty;
  uint64_t op_id;
};

struct PushRequest {
  MemObjectId object;  // source object
  PageIndex page;
  bool push_into_copy;  // true only at the newest copy's peer node
  uint64_t op_id;
};

// Reply to PushRequest.
struct PushReply {
  MemObjectId object;
  PageIndex page;
  bool was_resident;   // source page was cached (pushed/flushed as asked)
  bool needs_data;     // copy chain present but page absent: send contents
  uint64_t op_id;
};

struct PushData {
  MemObjectId object;  // source object (supply uses push mode)
  PageIndex page;
  uint64_t op_id;
};

struct MarkReadOnly {
  MemObjectId object;
  uint64_t op_id;
};

struct StaticHintMsg {
  MemObjectId object;
  PageIndex page;
  StaticHintKind kind;
  NodeId owner;  // kOwner only
};

struct PullDone {
  MemObjectId target;
  PageIndex page;
  NodeId new_owner;
};

// The typed envelope body for the ASVM protocol: exactly one alternative per
// distinct wire format. Several message types share a format (the six ack
// types all carry an OfferReply; the receiver disambiguates on the type tag).
// Dispatch is an exhaustive std::visit — adding an alternative without a
// handler fails to compile.
using AsvmBody =
    std::variant<AccessRequest, AccessReply, InvalidateMsg, OwnershipOffer, OfferReply,
                 PageoutOffer, WritebackMsg, PushRequest, PushReply, PushData, MarkReadOnly,
                 StaticHintMsg, PullDone, ShadowUpdate>;

// Stats/debug label for each message type. The switch is exhaustive and the
// build carries -Werror=switch: adding an AsvmMsgType value without extending
// this table fails to compile.
constexpr const char* MsgTypeName(AsvmMsgType type) {
  switch (type) {
    case AsvmMsgType::kAccessRequest:
      return "access_request";
    case AsvmMsgType::kAccessReply:
      return "access_reply";
    case AsvmMsgType::kPullDone:
      return "pull_done";
    case AsvmMsgType::kInvalidate:
      return "invalidate";
    case AsvmMsgType::kInvalidateAck:
      return "invalidate_ack";
    case AsvmMsgType::kOwnershipOffer:
      return "ownership_offer";
    case AsvmMsgType::kOwnershipOfferReply:
      return "ownership_offer_reply";
    case AsvmMsgType::kPageoutOffer:
      return "pageout_offer";
    case AsvmMsgType::kPageoutOfferReply:
      return "pageout_offer_reply";
    case AsvmMsgType::kWriteback:
      return "writeback";
    case AsvmMsgType::kWritebackAck:
      return "writeback_ack";
    case AsvmMsgType::kPushRequest:
      return "push_request";
    case AsvmMsgType::kPushReply:
      return "push_reply";
    case AsvmMsgType::kPushData:
      return "push_data";
    case AsvmMsgType::kPushDataAck:
      return "push_data_ack";
    case AsvmMsgType::kMarkReadOnly:
      return "mark_read_only";
    case AsvmMsgType::kMarkReadOnlyAck:
      return "mark_read_only_ack";
    case AsvmMsgType::kStaticHint:
      return "static_hint";
    case AsvmMsgType::kShadowUpdate:
      return "shadow_update";
    case AsvmMsgType::kShadowManifest:
      return "shadow_manifest";
  }
  return "unknown";
}

}  // namespace asvm

#endif  // SRC_ASVM_MESSAGES_H_
