// Generated marshaling end to end: a qidlc-generated skeleton unmarshals
// bulk-copied sequences, and a hostile sequence length fails as a CdrError
// without sizing anything from it.
#include <gtest/gtest.h>

#include <numeric>

#include "marshal_gen.hpp"

namespace {

using maqs::cdr::CdrError;
using maqs::cdr::Decoder;
using maqs::cdr::Encoder;
using maqs::util::Bytes;

class SequencesImpl final : public maqs_gen::marshal::SequencesSkeleton {
 public:
  std::int32_t sum(const std::vector<std::int32_t>& values) override {
    return std::accumulate(values.begin(), values.end(), 0);
  }
  std::int32_t count(
      const std::vector<maqs_gen::marshal::Point>& points) override {
    return static_cast<std::int32_t>(points.size());
  }
  std::vector<std::uint8_t> octets(
      const std::vector<std::uint8_t>& data) override {
    return data;
  }
  std::vector<double> doubles(const std::vector<double>& data) override {
    return data;
  }
};

/// Runs one skeleton dispatch over `args`; returns the result stream.
Bytes dispatch(SequencesImpl& servant, const std::string& op,
               const Bytes& args) {
  maqs::orb::RequestMessage req;
  req.operation = op;
  maqs::orb::ServiceContext reply_context;
  maqs::orb::ServerContext ctx(req, maqs::net::Address{}, reply_context);
  Decoder dec{maqs::util::BytesView(args)};
  Encoder out;
  servant.dispatch(op, dec, out, ctx);
  return out.take();
}

TEST(GeneratedMarshal, SkeletonDecodesBulkSequences) {
  SequencesImpl servant;
  Encoder longs;
  longs.write_u32(3);
  for (std::int32_t v : {5, -2, 40}) longs.write_i32(v);
  Decoder sum(dispatch(servant, "sum", longs.take()));
  EXPECT_EQ(sum.read_i32(), 43);

  Encoder octets;
  octets.write_bytes(Bytes{1, 2, 3, 250});
  const Bytes octet_args = octets.take();
  // Echoed octets come back as the identical frame.
  EXPECT_EQ(dispatch(servant, "octets", octet_args), octet_args);

  Encoder doubles;
  doubles.write_u32(2);
  doubles.write_f64(0.5);
  doubles.write_f64(-1e300);
  const Bytes double_args = doubles.take();
  EXPECT_EQ(dispatch(servant, "doubles", double_args), double_args);
}

TEST(GeneratedMarshal, HostileSequenceLengthThrowsCdrError) {
  // A bare 0xFFFFFFFF length with nothing behind it: the decoder must
  // reject it from the bytes it has, never reserve 4G elements
  // (std::bad_alloc or an OOM kill).
  SequencesImpl servant;
  const Bytes hostile = {0xFF, 0xFF, 0xFF, 0xFF};
  for (const char* op : {"sum", "count", "octets", "doubles"}) {
    EXPECT_THROW(dispatch(servant, op, hostile), CdrError) << op;
  }
  // Same with a few real elements behind the length.
  Bytes short_points = hostile;
  short_points.insert(short_points.end(), 16, 0x01);
  EXPECT_THROW(dispatch(servant, "count", short_points), CdrError);
}

}  // namespace
