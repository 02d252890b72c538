// XMMI protocol messages, carried over NORMA-IPC. XMMI extends EMMI between
// the per-node XMM proxies and the centralized manager (paper §2.3); its
// verbosity — five messages, two carrying page contents, for one write
// transfer — is one of the inefficiencies ASVM removes.
#ifndef SRC_XMM_XMM_MESSAGES_H_
#define SRC_XMM_XMM_MESSAGES_H_

#include <cstdint>
#include <variant>

#include "src/common/types.h"
#include "src/dsm/dsm_messages.h"

namespace asvm {

enum class XmmMsgType : uint32_t {
  kRequest = 1,      // proxy -> manager: data_request / data_unlock
  kReply,            // manager -> proxy: data supply / zero fill / upgrade
  kFlushWrite,       // manager -> current writer: return modified page
  kFlushWriteReply,  // writer -> manager: page contents + dirty flag
  kFlushRead,        // manager -> reader: invalidate read copy
  kFlushReadAck,
  kCopyFault,        // remote child -> internal copy pager on the source node
  kCopyFaultReply,
  kShadowUpdate,     // manager -> backup: replicated page contents (failover)
  kShadowManifest,   // manager -> witness: "this page was committed" (no data)
};

struct XmmRequest {
  MemObjectId object;
  PageIndex page = kInvalidPage;
  PageAccess access = PageAccess::kRead;
  NodeId origin = kInvalidNode;
  bool has_copy = false;  // origin already holds a read copy (upgrade)
  // Failover: pending-op id armed at the proxy so manager silence is
  // detected (0 = legacy fire-and-forget request, never retried).
  uint64_t op_id = 0;
};

struct XmmReply {
  MemObjectId object;
  PageIndex page = kInvalidPage;
  PageAccess granted = PageAccess::kNone;
  bool zero_fill = false;
  bool upgrade = false;
  uint64_t op_id = 0;  // echo of XmmRequest::op_id
  // Failover: the page was committed (cleaned into the manager's pager level)
  // but the manager and every replica died before promotion could fold it in —
  // the fault must fail Status::kDataLost instead of silently zero-filling.
  bool lost = false;
};

struct XmmFlush {
  MemObjectId object;
  PageIndex page = kInvalidPage;
  uint64_t op_id = 0;
};

struct XmmFlushWriteReply {
  MemObjectId object;
  PageIndex page = kInvalidPage;
  bool dirty = false;
  bool was_resident = false;
  uint64_t op_id = 0;
};

// Typed envelope body for the XMMI protocol; one alternative per wire format
// (XmmFlush serves both flush directions, XmmFlushWriteReply doubles as the
// read-flush ack — the type tag disambiguates, as on the real wire).
using XmmBody = std::variant<XmmRequest, XmmReply, XmmFlush, XmmFlushWriteReply, CopyFault,
                             CopyFaultReply, ShadowUpdate>;

// Stats/debug label per message type; exhaustive under -Werror=switch.
constexpr const char* MsgTypeName(XmmMsgType type) {
  switch (type) {
    case XmmMsgType::kRequest:
      return "request";
    case XmmMsgType::kReply:
      return "reply";
    case XmmMsgType::kFlushWrite:
      return "flush_write";
    case XmmMsgType::kFlushWriteReply:
      return "flush_write_reply";
    case XmmMsgType::kFlushRead:
      return "flush_read";
    case XmmMsgType::kFlushReadAck:
      return "flush_read_ack";
    case XmmMsgType::kCopyFault:
      return "copy_fault";
    case XmmMsgType::kCopyFaultReply:
      return "copy_fault_reply";
    case XmmMsgType::kShadowUpdate:
      return "shadow_update";
    case XmmMsgType::kShadowManifest:
      return "shadow_manifest";
  }
  return "unknown";
}

}  // namespace asvm

#endif  // SRC_XMM_XMM_MESSAGES_H_
