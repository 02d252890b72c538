// Transport-neutral message container. Protocol modules (ASVM, XMM) define
// their own typed bodies, carried here as a closed std::variant envelope;
// `control_bytes` models the on-wire size of the control part, and `page`
// carries optional page contents whose size is added to the wire cost.
//
// The envelope is deliberately closed: adding a protocol or a body type means
// adding a variant alternative here or in the protocol's messages header, and
// every std::visit dispatch over it is exhaustive — a new alternative without
// a handler is a compile error, not a bad_any_cast at run time. No RTTI.
//
// One envelope per message, and one heap allocation: the sender fills a
// std::make_unique<Message>() in place and hands the box to Transport::Send.
// Only the pointer travels through closures, the mailbox and the scheduler;
// the handler gets a reference, and the box is freed after the handler
// returns, when its event is destroyed. A Message is never copied or moved:
// both are compile errors.
#ifndef SRC_TRANSPORT_MESSAGE_H_
#define SRC_TRANSPORT_MESSAGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "src/asvm/messages.h"
#include "src/ivy/ivy_messages.h"
#include "src/xmm/xmm_messages.h"

namespace asvm {

// Dispatch key: which subsystem's handler receives the message on the
// destination node.
enum class ProtocolId : uint32_t {
  kAsvm = 1,
  kXmm = 2,
  kIvy = 4,
};

// The closed set of protocol bodies a Message can carry. monostate covers
// tag-only control messages (and default construction).
using MessageBody = std::variant<std::monostate, AsvmBody, XmmBody, IvyBody>;

// Helper for exhaustive std::visit dispatch over message bodies:
//   std::visit(Overloaded{[](const AccessRequest& r) {...}, ...}, body);
// No generic fallback lambda is provided at call sites, so an unhandled
// alternative fails to compile.
template <typename... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <typename... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

// Page contents travel by reference and are immutable once shared: every
// holder (message, pager store, VM page) reads the same bytes, and a writer
// copies first (src/machvm/page.h).
using PageBuffer = std::shared_ptr<const std::vector<std::byte>>;

struct Message {
  Message() = default;
  Message(const Message&) = delete;
  Message(Message&&) = delete;
  Message& operator=(const Message&) = delete;
  Message& operator=(Message&&) = delete;

  ProtocolId protocol = ProtocolId::kAsvm;
  // Protocol-specific type tag, used for stats labels and debugging.
  uint32_t type = 0;
  // Modeled size of the control part on the wire (ASVM: fixed 32 bytes).
  size_t control_bytes = 32;
  // Typed protocol body; the receiving protocol module std::get's the
  // alternative named by (protocol, type).
  MessageBody body;
  // Optional page contents; its size is charged to the wire.
  PageBuffer page;

  size_t WireBytes() const { return control_bytes + (page ? page->size() : 0); }
};

// Stats/debug label for a message's (protocol, type) pair, from the
// per-protocol MsgTypeName tables.
constexpr const char* MsgTypeName(const Message& msg) {
  switch (msg.protocol) {
    case ProtocolId::kAsvm:
      return MsgTypeName(static_cast<AsvmMsgType>(msg.type));
    case ProtocolId::kXmm:
      return MsgTypeName(static_cast<XmmMsgType>(msg.type));
    case ProtocolId::kIvy:
      return MsgTypeName(static_cast<IvyMsgType>(msg.type));
  }
  return "unknown";
}

constexpr const char* ProtocolName(ProtocolId protocol) {
  switch (protocol) {
    case ProtocolId::kAsvm:
      return "asvm";
    case ProtocolId::kXmm:
      return "xmm";
    case ProtocolId::kIvy:
      return "ivy";
  }
  return "unknown";
}

}  // namespace asvm

#endif  // SRC_TRANSPORT_MESSAGE_H_
