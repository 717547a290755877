#include "cdr/typecode.hpp"

#include <gtest/gtest.h>

#include "cdr/decoder.hpp"
#include "cdr/encoder.hpp"

namespace maqs::cdr {
namespace {

TEST(TypeCode, BasicSingletonsShareIdentity) {
  EXPECT_EQ(TypeCode::long_tc().get(), TypeCode::long_tc().get());
  EXPECT_EQ(TypeCode::string_tc().get(), TypeCode::string_tc().get());
}

TEST(TypeCode, KindNames) {
  EXPECT_EQ(TypeCode::long_tc()->to_string(), "long");
  EXPECT_EQ(TypeCode::sequence_tc(TypeCode::octet_tc())->to_string(),
            "sequence<octet>");
}

TEST(TypeCode, StructuralEqualityForSequences) {
  auto a = TypeCode::sequence_tc(TypeCode::long_tc());
  auto b = TypeCode::sequence_tc(TypeCode::long_tc());
  auto c = TypeCode::sequence_tc(TypeCode::short_tc());
  EXPECT_TRUE(a->equal(*b));
  EXPECT_FALSE(a->equal(*c));
}

TEST(TypeCode, StructEquality) {
  auto make = [](const std::string& name) {
    return TypeCode::struct_tc(
        name, {{"x", TypeCode::long_tc()}, {"y", TypeCode::string_tc()}});
  };
  EXPECT_TRUE(make("P")->equal(*make("P")));
  EXPECT_FALSE(make("P")->equal(*make("Q")));
  auto different_member = TypeCode::struct_tc(
      "P", {{"x", TypeCode::long_tc()}, {"z", TypeCode::string_tc()}});
  EXPECT_FALSE(make("P")->equal(*different_member));
}

TEST(TypeCode, EnumEquality) {
  auto a = TypeCode::enum_tc("Color", {"red", "green"});
  auto b = TypeCode::enum_tc("Color", {"red", "green"});
  auto c = TypeCode::enum_tc("Color", {"red", "blue"});
  EXPECT_TRUE(a->equal(*b));
  EXPECT_FALSE(a->equal(*c));
}

TEST(TypeCode, ObjRefEqualityByRepoId) {
  auto a = TypeCode::objref_tc("IDL:demo/Hello:1.0");
  auto b = TypeCode::objref_tc("IDL:demo/Hello:1.0");
  auto c = TypeCode::objref_tc("IDL:demo/Other:1.0");
  EXPECT_TRUE(a->equal(*b));
  EXPECT_FALSE(a->equal(*c));
}

TEST(TypeCode, DifferentKindsNeverEqual) {
  EXPECT_FALSE(TypeCode::long_tc()->equal(*TypeCode::short_tc()));
}

TEST(TypeCode, NullSequenceElementThrows) {
  EXPECT_THROW(TypeCode::sequence_tc(nullptr), Error);
}

TEST(TypeCode, EmptyEnumThrows) {
  EXPECT_THROW(TypeCode::enum_tc("E", {}), Error);
}

TEST(TypeCode, MarshalingRoundTripsComposite) {
  auto tc = TypeCode::struct_tc(
      "Sample",
      {{"id", TypeCode::longlong_tc()},
       {"tags", TypeCode::sequence_tc(TypeCode::string_tc())},
       {"color", TypeCode::enum_tc("Color", {"r", "g", "b"})},
       {"peer", TypeCode::objref_tc("IDL:x/Y:1.0")}});
  Encoder enc;
  tc->encode(enc);
  Decoder dec(enc.buffer());
  auto back = TypeCode::decode(dec);
  EXPECT_TRUE(dec.at_end());
  EXPECT_TRUE(tc->equal(*back));
}

TEST(TypeCode, MarshalingRoundTripsBasics) {
  for (auto tc : {TypeCode::void_tc(), TypeCode::boolean_tc(),
                  TypeCode::octet_tc(), TypeCode::short_tc(),
                  TypeCode::long_tc(), TypeCode::longlong_tc(),
                  TypeCode::float_tc(), TypeCode::double_tc(),
                  TypeCode::string_tc()}) {
    Encoder enc;
    tc->encode(enc);
    Decoder dec(enc.buffer());
    EXPECT_TRUE(tc->equal(*TypeCode::decode(dec)));
  }
}

TEST(TypeCode, DecodeRejectsBadKindOctet) {
  Encoder enc;
  enc.write_u8(0xFF);
  Decoder dec(enc.buffer());
  EXPECT_THROW(TypeCode::decode(dec), CdrError);
}

TEST(TypeCode, NestedSequenceRoundTrip) {
  auto tc = TypeCode::sequence_tc(
      TypeCode::sequence_tc(TypeCode::double_tc()));
  Encoder enc;
  tc->encode(enc);
  Decoder dec(enc.buffer());
  EXPECT_TRUE(tc->equal(*TypeCode::decode(dec)));
}

TEST(TypeCode, DecodeRejectsHostileStructMemberCount) {
  Encoder enc;
  enc.write_u8(static_cast<std::uint8_t>(TCKind::kStruct));
  enc.write_string("S");
  enc.write_u32(0xFFFFFFFFu);
  Decoder dec(enc.buffer());
  EXPECT_THROW(TypeCode::decode(dec), CdrError);
}

TEST(TypeCode, DecodeRejectsHostileEnumeratorCount) {
  Encoder enc;
  enc.write_u8(static_cast<std::uint8_t>(TCKind::kEnum));
  enc.write_string("E");
  enc.write_u32(0xFFFFFFFFu);
  Decoder dec(enc.buffer());
  EXPECT_THROW(TypeCode::decode(dec), CdrError);
}

TEST(TypeCode, DecodeBoundsNestingDepth) {
  // A megabyte of sequence kind octets used to recurse once per octet and
  // overflow the stack; past kMaxDecodeDepth it is a typed error.
  const util::Bytes hostile(1 << 20,
                            static_cast<std::uint8_t>(TCKind::kSequence));
  Decoder dec(hostile);
  EXPECT_THROW(TypeCode::decode(dec), CdrError);

  // Exactly at the bound still decodes.
  TypeCodePtr deep = TypeCode::long_tc();
  for (int i = 0; i < TypeCode::kMaxDecodeDepth; ++i) {
    deep = TypeCode::sequence_tc(deep);
  }
  Encoder ok;
  deep->encode(ok);
  Decoder ok_dec(ok.buffer());
  EXPECT_TRUE(TypeCode::decode(ok_dec)->equal(*deep));

  Encoder too_deep;
  TypeCode::sequence_tc(deep)->encode(too_deep);
  Decoder too_deep_dec(too_deep.buffer());
  EXPECT_THROW(TypeCode::decode(too_deep_dec), CdrError);
}

}  // namespace
}  // namespace maqs::cdr
