// Dynamic Invocation Interface: wire-compatibility with static skeletons,
// command arg marshaling.
#include "orb/dii.hpp"

#include <gtest/gtest.h>

#include "cdr/decoder.hpp"

#include "net/network.hpp"
#include "support/echo.hpp"

namespace maqs::orb {
namespace {

class DiiTest : public ::testing::Test {
 protected:
  DiiTest()
      : net_(loop_),
        server_(net_, "server", 9000),
        client_(net_, "client", 9001) {
    impl_ = std::make_shared<maqs::testing::EchoImpl>();
    ref_ = server_.adapter().activate("echo-1", impl_);
  }

  sim::EventLoop loop_;
  net::Network net_;
  Orb server_;
  Orb client_;
  std::shared_ptr<maqs::testing::EchoImpl> impl_;
  ObjRef ref_;
};

TEST_F(DiiTest, DynamicCallHitsStaticSkeleton) {
  DiiRequest req(client_, ref_, "add");
  req.add_arg(cdr::Any::from_long(40)).add_arg(cdr::Any::from_long(2));
  req.set_return_type(cdr::TypeCode::long_tc());
  EXPECT_EQ(req.invoke().as_long(), 42);
}

TEST_F(DiiTest, StringArgsAndResult) {
  DiiRequest req(client_, ref_, "echo");
  req.add_arg(cdr::Any::from_string("dynamic"));
  req.set_return_type(cdr::TypeCode::string_tc());
  EXPECT_EQ(req.invoke().as_string(), "dynamic");
}

TEST_F(DiiTest, VoidOperation) {
  DiiRequest set(client_, ref_, "set_value");
  set.add_arg(cdr::Any::from_long(123));
  EXPECT_EQ(set.invoke().kind(), cdr::TCKind::kVoid);

  DiiRequest get(client_, ref_, "value");
  get.set_return_type(cdr::TypeCode::long_tc());
  EXPECT_EQ(get.invoke().as_long(), 123);
}

TEST_F(DiiTest, UserExceptionPropagates) {
  DiiRequest req(client_, ref_, "boom");
  EXPECT_THROW(req.invoke(), UserException);
}

TEST_F(DiiTest, WrongArgumentTypesRejectedByServer) {
  DiiRequest req(client_, ref_, "add");
  req.add_arg(cdr::Any::from_string("not a number"));
  req.set_return_type(cdr::TypeCode::long_tc());
  // The skeleton either underflows or leaves trailing bytes -> MARSHAL.
  EXPECT_THROW(req.invoke(), SystemException);
}

TEST_F(DiiTest, CommandArgsRoundTrip) {
  const std::vector<cdr::Any> args{
      cdr::Any::from_string("grp-1"), cdr::Any::from_long(3),
      cdr::Any::from_sequence(cdr::TypeCode::octet_tc(),
                              {cdr::Any::from_octet(1),
                               cdr::Any::from_octet(2)})};
  const auto back = decode_command_args(encode_command_args(args));
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0], args[0]);
  EXPECT_EQ(back[1], args[1]);
  EXPECT_EQ(back[2], args[2]);
}

TEST_F(DiiTest, EmptyCommandArgs) {
  EXPECT_TRUE(decode_command_args(encode_command_args({})).empty());
}

TEST_F(DiiTest, SendCommandWithoutTransportRaises) {
  EXPECT_THROW(
      send_command(client_, ref_.endpoint, "", "list_modules", {}),
      NoQosTransport);
}

TEST(DiiCommandArgs, DecodeRejectsHostileArgumentCount) {
  const util::Bytes body = {0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_THROW(decode_command_args(body), cdr::CdrError);
}

}  // namespace
}  // namespace maqs::orb
