// IVY-style dynamic distributed manager messages, carried over NORMA-IPC.
// There is no fixed manager: a fault chases per-node probable-owner hints
// hop by hop until it lands on the page's true owner (Li & Hudak's dynamic
// distributed manager). Ownership migrates on write grants, the owner keeps
// the page's copyset, and every hop/grant/invalidation compresses the hint
// chains it touches.
#ifndef SRC_IVY_IVY_MESSAGES_H_
#define SRC_IVY_IVY_MESSAGES_H_

#include <cstdint>
#include <variant>

#include "src/common/types.h"
#include "src/dsm/dsm_messages.h"

namespace asvm {

enum class IvyMsgType : uint32_t {
  kRequest = 1,     // requester -> probable owner (forwarded hop by hop)
  kReply,           // true owner -> requester: grant (+ ownership on writes)
  kInvalidate,      // owner -> copyset member: drop the read copy
  kInvalidateAck,   // copyset member -> owner
  kWriteback,       // owner -> home: dirty file-backed page contents
  kCopyFault,       // remote child -> internal copy pager on the fork source
  kCopyFaultReply,
  kShadowUpdate,    // owner -> backup: replicated page contents (failover)
  kShadowManifest,  // owner -> witness: "this page was committed" (no data)
};

struct IvyRequest {
  MemObjectId object;
  PageIndex page = kInvalidPage;
  PageAccess access = PageAccess::kRead;
  NodeId origin = kInvalidNode;
  bool has_copy = false;  // origin already holds a read copy (upgrade)
  // Pending-op id armed at the origin; also the dedup key at the owner, so a
  // retry that raced the original along a different hint chain is dropped
  // instead of served twice (0 = local fault, never on the wire).
  uint64_t op_id = 0;
  // Forwarding hops taken so far; the owner observes the final count into the
  // dsm.ivy.chain_length histogram and the breakdown's forward segment.
  int32_t hops = 0;
};

struct IvyReply {
  MemObjectId object;
  PageIndex page = kInvalidPage;
  PageAccess granted = PageAccess::kNone;
  bool zero_fill = false;
  bool upgrade = false;
  // Write grants carry ownership: the origin becomes the page's owner (and
  // the copyset is empty — the old owner invalidated it first).
  bool ownership = false;
  // The page's owner after this exchange; the origin aims its probable-owner
  // hint here (path compression on every grant).
  NodeId owner = kInvalidNode;
  uint64_t op_id = 0;  // echo of IvyRequest::op_id
  // The page was provably committed but every replica died with its owner
  // before a reclaim could harvest it: the fault fails Status::kDataLost.
  bool lost = false;
};

struct IvyInvalidate {
  MemObjectId object;
  PageIndex page = kInvalidPage;
  // Where ownership is about to land; invalidated readers re-aim their hints
  // here, so the old chain through the ex-owner collapses to one hop.
  NodeId new_owner = kInvalidNode;
  uint64_t op_id = 0;  // invalidation round id at the owner (ack echoes it)
};

// Owner -> home on dirty eviction of a file-backed page (the file pager's
// backing store lives at the home node).
struct IvyWriteback {
  MemObjectId object;
  PageIndex page = kInvalidPage;
  bool dirty = false;
};

// Typed envelope body for the IVY protocol; IvyInvalidate serves both the
// invalidation and its ack, ShadowUpdate both shadow directions — the type
// tag disambiguates, as on the real wire.
using IvyBody = std::variant<IvyRequest, IvyReply, IvyInvalidate, IvyWriteback, CopyFault,
                             CopyFaultReply, ShadowUpdate>;

// Stats/debug label per message type; exhaustive under -Werror=switch.
constexpr const char* MsgTypeName(IvyMsgType type) {
  switch (type) {
    case IvyMsgType::kRequest:
      return "request";
    case IvyMsgType::kReply:
      return "reply";
    case IvyMsgType::kInvalidate:
      return "invalidate";
    case IvyMsgType::kInvalidateAck:
      return "invalidate_ack";
    case IvyMsgType::kWriteback:
      return "writeback";
    case IvyMsgType::kCopyFault:
      return "copy_fault";
    case IvyMsgType::kCopyFaultReply:
      return "copy_fault_reply";
    case IvyMsgType::kShadowUpdate:
      return "shadow_update";
    case IvyMsgType::kShadowManifest:
      return "shadow_manifest";
  }
  return "unknown";
}

}  // namespace asvm

#endif  // SRC_IVY_IVY_MESSAGES_H_
