#include "orb/message.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "cdr/decoder.hpp"
#include "orb/exceptions.hpp"
#include "util/bytes.hpp"

namespace maqs::orb {
namespace {

TEST(Message, RequestRoundTrip) {
  RequestMessage req;
  req.request_id = 77;
  req.kind = RequestKind::kServiceRequest;
  req.qos_aware = true;
  req.object_key = "obj-1";
  req.operation = "echo";
  req.context["qos.module"] = util::to_bytes("compression");
  req.body = {1, 2, 3};

  const util::Bytes wire = req.encode();
  EXPECT_TRUE(is_request_frame(wire));
  const RequestMessage back = RequestMessage::decode(wire);
  EXPECT_EQ(back.request_id, 77u);
  EXPECT_EQ(back.kind, RequestKind::kServiceRequest);
  EXPECT_TRUE(back.qos_aware);
  EXPECT_EQ(back.object_key, "obj-1");
  EXPECT_EQ(back.operation, "echo");
  EXPECT_EQ(back.context.at("qos.module"), util::to_bytes("compression"));
  EXPECT_EQ(back.body, (util::Bytes{1, 2, 3}));
}

TEST(Message, CommandRoundTrip) {
  RequestMessage req;
  req.request_id = 5;
  req.kind = RequestKind::kCommand;
  req.qos_aware = true;
  req.target_module = "replication";
  req.operation = "join_group";

  const RequestMessage back = RequestMessage::decode(req.encode());
  EXPECT_EQ(back.kind, RequestKind::kCommand);
  EXPECT_EQ(back.target_module, "replication");
  EXPECT_EQ(back.operation, "join_group");
  EXPECT_TRUE(back.object_key.empty());
}

TEST(Message, ReplyRoundTrip) {
  ReplyMessage rep;
  rep.request_id = 99;
  rep.status = ReplyStatus::kUserException;
  rep.exception = "IDL:test/Fault:1.0";
  rep.context["qos.timestamp"] = util::to_bytes("12345");
  rep.body = {9, 8};

  const util::Bytes wire = rep.encode();
  EXPECT_FALSE(is_request_frame(wire));
  const ReplyMessage back = ReplyMessage::decode(wire);
  EXPECT_EQ(back.request_id, 99u);
  EXPECT_EQ(back.status, ReplyStatus::kUserException);
  EXPECT_EQ(back.exception, "IDL:test/Fault:1.0");
  EXPECT_EQ(back.context.at("qos.timestamp"), util::to_bytes("12345"));
  EXPECT_EQ(back.body, (util::Bytes{9, 8}));
}

TEST(Message, EmptyBodiesAndContexts) {
  RequestMessage req;
  req.request_id = 1;
  const RequestMessage back = RequestMessage::decode(req.encode());
  EXPECT_TRUE(back.body.empty());
  EXPECT_TRUE(back.context.empty());
  EXPECT_FALSE(back.qos_aware);
}

TEST(Message, FrameDetectionRejectsGarbage) {
  EXPECT_THROW(is_request_frame(util::Bytes{}), MarshalError);
  EXPECT_THROW(is_request_frame(util::Bytes{0x55}), MarshalError);
}

TEST(Message, DecodeRejectsWrongMagic) {
  ReplyMessage rep;
  rep.request_id = 1;
  EXPECT_THROW(RequestMessage::decode(rep.encode()), MarshalError);
  RequestMessage req;
  req.request_id = 1;
  EXPECT_THROW(ReplyMessage::decode(req.encode()), MarshalError);
}

TEST(Message, DecodeRejectsBadKind) {
  RequestMessage req;
  req.request_id = 1;
  util::Bytes wire = req.encode();
  wire[9] = 0x7F;  // kind octet (after magic + u64 id)
  EXPECT_THROW(RequestMessage::decode(wire), MarshalError);
}

TEST(Message, DecodeRejectsBadStatus) {
  ReplyMessage rep;
  rep.request_id = 1;
  util::Bytes wire = rep.encode();
  wire[9] = 0x7F;  // status octet
  EXPECT_THROW(ReplyMessage::decode(wire), MarshalError);
}

TEST(Message, DecodeRejectsTrailingBytes) {
  RequestMessage req;
  req.request_id = 1;
  util::Bytes wire = req.encode();
  wire.push_back(0);
  EXPECT_THROW(RequestMessage::decode(wire), cdr::CdrError);
}

TEST(Message, StatusNames) {
  EXPECT_STREQ(reply_status_name(ReplyStatus::kOk), "OK");
  EXPECT_STREQ(reply_status_name(ReplyStatus::kNotNegotiated),
               "NOT_NEGOTIATED");
}

TEST(Message, DecodeRejectsHostileContextCount) {
  // Empty context and body: the frame ends with the context count and the
  // body length, four octets each. A count of FF FF FF FF must be a typed
  // error, not a reservation of four billion entries.
  RequestMessage req;
  req.request_id = 1;
  util::Bytes request_wire = req.encode();
  std::fill_n(request_wire.end() - 8, 4, 0xFF);
  EXPECT_THROW(RequestMessage::decode(request_wire), cdr::CdrError);

  ReplyMessage rep;
  rep.request_id = 1;
  util::Bytes reply_wire = rep.encode();
  std::fill_n(reply_wire.end() - 8, 4, 0xFF);
  EXPECT_THROW(ReplyMessage::decode(reply_wire), cdr::CdrError);
}

}  // namespace
}  // namespace maqs::orb
