// The typed message envelope: every protocol message type round-trips through
// a Message with its body intact, the stats label tables cover every type, and
// the wire-size accounting is unchanged from the untyped-body era (32-byte
// control block + optional page). A Message is boxed once by its sender and
// never copied or moved.
#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <utility>
#include <variant>

#include "src/machvm/page.h"
#include "src/transport/message.h"

namespace asvm {
namespace {

static_assert(!std::is_copy_constructible_v<Message> && !std::is_move_constructible_v<Message>);
static_assert(!std::is_copy_assignable_v<Message> && !std::is_move_assignable_v<Message>);

const MemObjectId kObj{2, 7};

std::unique_ptr<Message> Envelope(AsvmMsgType type, AsvmBody body, PageBuffer page = nullptr) {
  auto msg = std::make_unique<Message>();
  msg->protocol = ProtocolId::kAsvm;
  msg->type = static_cast<uint32_t>(type);
  msg->body = std::move(body);
  msg->page = std::move(page);
  return msg;
}

std::unique_ptr<Message> Envelope(XmmMsgType type, XmmBody body, PageBuffer page = nullptr) {
  auto msg = std::make_unique<Message>();
  msg->protocol = ProtocolId::kXmm;
  msg->type = static_cast<uint32_t>(type);
  msg->body = std::move(body);
  msg->page = std::move(page);
  return msg;
}

template <typename T, typename BodyVariant>
const T& Unwrap(const Message& msg) {
  return std::get<T>(std::get<BodyVariant>(msg.body));
}

TEST(MessageEnvelopeTest, DefaultMessageIsEmpty) {
  Message msg;
  EXPECT_TRUE(std::holds_alternative<std::monostate>(msg.body));
  EXPECT_EQ(msg.WireBytes(), 32u);
}

TEST(MessageEnvelopeTest, AsvmBodiesRoundTrip) {
  {
    AccessRequest req;
    req.target = kObj;
    req.search = kObj;
    req.page = 5;
    req.access = PageAccess::kWrite;
    req.origin = 3;
    req.hops = 2;
    req.req_id = 77;
    auto msg = Envelope(AsvmMsgType::kAccessRequest, req);
    const auto& out = Unwrap<AccessRequest, AsvmBody>(*msg);
    EXPECT_EQ(out.target, kObj);
    EXPECT_EQ(out.page, 5);
    EXPECT_EQ(out.access, PageAccess::kWrite);
    EXPECT_EQ(out.origin, 3);
    EXPECT_EQ(out.hops, 2);
    EXPECT_EQ(out.req_id, 77u);
  }
  {
    AccessReply reply;
    reply.target = kObj;
    reply.page = 5;
    reply.granted = PageAccess::kWrite;
    reply.ownership = true;
    reply.page_version = 9;
    reply.readers = {1, 4};
    auto msg = Envelope(AsvmMsgType::kAccessReply, reply);
    const auto& out = Unwrap<AccessReply, AsvmBody>(*msg);
    EXPECT_TRUE(out.ownership);
    EXPECT_EQ(out.page_version, 9u);
    EXPECT_EQ(out.readers, (std::vector<NodeId>{1, 4}));
  }
  {
    auto msg = Envelope(AsvmMsgType::kPullDone, PullDone{kObj, 3, 2});
    const auto& out = Unwrap<PullDone, AsvmBody>(*msg);
    EXPECT_EQ(out.page, 3);
    EXPECT_EQ(out.new_owner, 2);
  }
  {
    auto msg = Envelope(AsvmMsgType::kInvalidate, InvalidateMsg{kObj, 4, 11});
    EXPECT_EQ((Unwrap<InvalidateMsg, AsvmBody>(*msg).op_id), 11u);
  }
  {
    auto msg = Envelope(AsvmMsgType::kOwnershipOffer, OwnershipOffer{kObj, 4, 6, {0, 5}, 12});
    const auto& out = Unwrap<OwnershipOffer, AsvmBody>(*msg);
    EXPECT_EQ(out.page_version, 6u);
    EXPECT_EQ(out.readers, (std::vector<NodeId>{0, 5}));
  }
  {
    // OfferReply is the shared ack format: the type tag disambiguates the six
    // ack message types carrying it.
    for (AsvmMsgType ack : {AsvmMsgType::kInvalidateAck, AsvmMsgType::kOwnershipOfferReply,
                            AsvmMsgType::kPageoutOfferReply, AsvmMsgType::kWritebackAck,
                            AsvmMsgType::kPushDataAck, AsvmMsgType::kMarkReadOnlyAck}) {
      auto msg = Envelope(ack, OfferReply{kObj, 4, true, 13});
      const auto& out = Unwrap<OfferReply, AsvmBody>(*msg);
      EXPECT_TRUE(out.accepted);
      EXPECT_EQ(out.op_id, 13u);
    }
  }
  {
    auto msg = Envelope(AsvmMsgType::kPageoutOffer, PageoutOffer{kObj, 4, 6, true, 14});
    EXPECT_TRUE((Unwrap<PageoutOffer, AsvmBody>(*msg).dirty));
  }
  {
    auto msg = Envelope(AsvmMsgType::kWriteback, WritebackMsg{kObj, 4, 6, false, 15});
    EXPECT_FALSE((Unwrap<WritebackMsg, AsvmBody>(*msg).dirty));
  }
  {
    auto msg = Envelope(AsvmMsgType::kPushRequest, PushRequest{kObj, 4, true, 16});
    EXPECT_TRUE((Unwrap<PushRequest, AsvmBody>(*msg).push_into_copy));
  }
  {
    auto msg = Envelope(AsvmMsgType::kPushReply, PushReply{kObj, 4, true, true, 17});
    const auto& out = Unwrap<PushReply, AsvmBody>(*msg);
    EXPECT_TRUE(out.was_resident);
    EXPECT_TRUE(out.needs_data);
  }
  {
    auto msg = Envelope(AsvmMsgType::kPushData, PushData{kObj, 4, 18});
    EXPECT_EQ((Unwrap<PushData, AsvmBody>(*msg).op_id), 18u);
  }
  {
    auto msg = Envelope(AsvmMsgType::kMarkReadOnly, MarkReadOnly{kObj, 19});
    EXPECT_EQ((Unwrap<MarkReadOnly, AsvmBody>(*msg).op_id), 19u);
  }
  {
    auto msg = Envelope(AsvmMsgType::kStaticHint,
                        StaticHintMsg{kObj, 4, StaticHintKind::kOwner, 3});
    const auto& out = Unwrap<StaticHintMsg, AsvmBody>(*msg);
    EXPECT_EQ(out.kind, StaticHintKind::kOwner);
    EXPECT_EQ(out.owner, 3);
  }
}

TEST(MessageEnvelopeTest, XmmBodiesRoundTrip) {
  {
    auto msg = Envelope(XmmMsgType::kRequest, XmmRequest{kObj, 6, PageAccess::kWrite, 1, true});
    const auto& out = Unwrap<XmmRequest, XmmBody>(*msg);
    EXPECT_EQ(out.access, PageAccess::kWrite);
    EXPECT_TRUE(out.has_copy);
  }
  {
    auto msg = Envelope(XmmMsgType::kReply, XmmReply{kObj, 6, PageAccess::kRead, true, false});
    EXPECT_TRUE((Unwrap<XmmReply, XmmBody>(*msg).zero_fill));
  }
  {
    // XmmFlush serves both flush directions; the tag says which.
    for (XmmMsgType t : {XmmMsgType::kFlushWrite, XmmMsgType::kFlushRead}) {
      auto msg = Envelope(t, XmmFlush{kObj, 6, 21});
      EXPECT_EQ((Unwrap<XmmFlush, XmmBody>(*msg).op_id), 21u);
    }
  }
  {
    for (XmmMsgType t : {XmmMsgType::kFlushWriteReply, XmmMsgType::kFlushReadAck}) {
      auto msg = Envelope(t, XmmFlushWriteReply{kObj, 6, true, true, 22});
      const auto& out = Unwrap<XmmFlushWriteReply, XmmBody>(*msg);
      EXPECT_TRUE(out.dirty);
      EXPECT_TRUE(out.was_resident);
    }
  }
  {
    auto msg = Envelope(XmmMsgType::kCopyFault, CopyFault{kObj, 6, 2, {2, 4}});
    EXPECT_EQ((Unwrap<CopyFault, XmmBody>(*msg).path), (std::vector<NodeId>{2, 4}));
  }
  {
    auto msg = Envelope(XmmMsgType::kCopyFaultReply, CopyFaultReply{kObj, 6, false, true});
    EXPECT_TRUE((Unwrap<CopyFaultReply, XmmBody>(*msg).deadlock));
  }
}

TEST(MessageEnvelopeTest, WireBytesUnchangedByTypedBody) {
  // The body is simulator-side metadata; the wire carries the fixed control
  // block plus the optional page, exactly as before the typed envelope.
  auto small = Envelope(AsvmMsgType::kInvalidate, InvalidateMsg{kObj, 4, 1});
  EXPECT_EQ(small->WireBytes(), 32u);

  auto paged = Envelope(AsvmMsgType::kAccessReply, AccessReply{}, AllocPage(8192));
  EXPECT_EQ(paged->WireBytes(), 32u + 8192u);

  auto norma = Envelope(XmmMsgType::kRequest, XmmRequest{});
  norma->control_bytes = 128;  // typed NORMA message with port rights
  EXPECT_EQ(norma->WireBytes(), 128u);
}

TEST(MessageEnvelopeTest, MsgTypeNameCoversEveryType) {
  auto msg = Envelope(AsvmMsgType::kAccessRequest, AccessRequest{});
  EXPECT_STREQ(MsgTypeName(*msg), "access_request");
  msg = Envelope(AsvmMsgType::kMarkReadOnlyAck, OfferReply{kObj, 0, true, 1});
  EXPECT_STREQ(MsgTypeName(*msg), "mark_read_only_ack");
  msg = Envelope(XmmMsgType::kCopyFaultReply, CopyFaultReply{});
  EXPECT_STREQ(MsgTypeName(*msg), "copy_fault_reply");

  EXPECT_STREQ(ProtocolName(ProtocolId::kAsvm), "asvm");
  EXPECT_STREQ(ProtocolName(ProtocolId::kXmm), "xmm");
}

TEST(MessageEnvelopeTest, VisitDispatchesByAlternative) {
  auto msg = Envelope(AsvmMsgType::kAccessRequest, AccessRequest{});
  bool saw_asvm = false;
  std::visit(Overloaded{
                 [&](const AsvmBody&) { saw_asvm = true; },
                 [](const auto&) {},
             },
             msg->body);
  EXPECT_TRUE(saw_asvm);
}

}  // namespace
}  // namespace asvm
