// Property tests for the blob path: generated sequence marshaling and the
// LZ77 parser on incompressible input.
//
//  P1  bulk sequence marshaling (qidl::gen write/read) produces the exact
//      CDR of the element-by-element encoding and round-trips, for every
//      fixed-width element type at sizes 0, 1, 255, 4096 and 65537.
//  P2  LZ77 round-trips and stays within max_compressed_size on noise,
//      phrase-redundant text, and a noise prefix followed by a redundant
//      tail; skip-ahead over the prefix costs the tail a bounded number
//      of octets.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>

#include "compress/lz77.hpp"
#include "qidl/generated_support.hpp"
#include "util/rng.hpp"

namespace maqs {
namespace {

using util::Bytes;

constexpr std::size_t kSizes[] = {0, 1, 255, 4096, 65537};

/// Random element whose bits cover the full type (NaNs and infinities
/// included for floating point, so the bulk copy must preserve payloads).
template <typename T>
T random_element(util::Rng& rng) {
  if constexpr (std::is_same_v<T, float>) {
    return std::bit_cast<float>(static_cast<std::uint32_t>(rng.next()));
  } else if constexpr (std::is_same_v<T, double>) {
    return std::bit_cast<double>(rng.next());
  } else {
    return static_cast<T>(rng.next());
  }
}

/// The reference: one primitive write per element, as the generic
/// sequence loop does.
template <typename T>
Bytes encode_per_element(const std::vector<T>& v) {
  cdr::Encoder enc;
  enc.write_u32(static_cast<std::uint32_t>(v.size()));
  for (const T x : v) {
    if constexpr (std::is_same_v<T, std::uint8_t>) enc.write_u8(x);
    if constexpr (std::is_same_v<T, std::int16_t>) enc.write_i16(x);
    if constexpr (std::is_same_v<T, std::int32_t>) enc.write_i32(x);
    if constexpr (std::is_same_v<T, std::int64_t>) enc.write_i64(x);
    if constexpr (std::is_same_v<T, float>) enc.write_f32(x);
    if constexpr (std::is_same_v<T, double>) enc.write_f64(x);
  }
  return enc.take();
}

template <typename T>
class SequenceMarshalP : public ::testing::Test {};

using ElementTypes = ::testing::Types<std::uint8_t, std::int16_t, std::int32_t,
                                      std::int64_t, float, double>;
TYPED_TEST_SUITE(SequenceMarshalP, ElementTypes);

TYPED_TEST(SequenceMarshalP, BulkMatchesPerElementAndRoundTrips) {
  using T = TypeParam;
  util::Rng rng(sizeof(T) * 7919);
  for (const std::size_t n : kSizes) {
    std::vector<T> v(n);
    for (T& x : v) x = random_element<T>(rng);

    cdr::Encoder enc;
    qidl::gen::write(enc, v);
    const Bytes bulk = enc.take();
    ASSERT_EQ(bulk, encode_per_element(v)) << "n=" << n;

    // Decode with trailing data behind the sequence: the bulk read must
    // consume exactly its own octets.
    Bytes framed = bulk;
    framed.push_back(0xA5);
    cdr::Decoder dec{util::BytesView(framed)};
    std::vector<T> back{random_element<T>(rng)};  // overwritten, not appended
    qidl::gen::read(dec, back);
    ASSERT_EQ(back.size(), n);
    if (n != 0) {
      EXPECT_EQ(std::memcmp(back.data(), v.data(), n * sizeof(T)), 0)
          << "n=" << n;
    }
    EXPECT_EQ(dec.read_u8(), 0xA5);
    EXPECT_TRUE(dec.at_end());

    // A stream cut anywhere inside the elements underflows.
    if (n != 0) {
      const Bytes cut(bulk.begin(), bulk.end() - 1);
      cdr::Decoder short_dec{util::BytesView(cut)};
      std::vector<T> lost;
      EXPECT_THROW(qidl::gen::read(short_dec, lost), cdr::CdrError);
    }
  }
}

// ---- P2: LZ77 on incompressible, redundant and mixed input ----

Bytes noise(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

Bytes phrases(std::size_t n, std::uint64_t seed) {
  static const char* const kWords[] = {
      "quality ",  "of ",         "service ",     "middleware ",
      "aspect ",   "weaving ",    "mediator ",    "agreement ",
      "contract ", "compression ", "encryption ", "actuality "};
  util::Rng rng(seed);
  Bytes out;
  out.reserve(n);
  while (out.size() < n) {
    const char* word = kWords[rng.next_below(12)];
    for (; *word != '\0' && out.size() < n; ++word) {
      out.push_back(static_cast<std::uint8_t>(*word));
    }
  }
  return out;
}

void expect_round_trip_within_bound(const Bytes& input, const Bytes& packed) {
  const compress::Lz77Codec codec;
  EXPECT_LE(packed.size(), codec.max_compressed_size(input.size()));
  EXPECT_EQ(codec.decompress(packed), input);
}

class Lz77SkipP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lz77SkipP, NoiseShipsAsStoredForm) {
  const compress::Lz77Codec codec;
  for (const std::size_t n : {std::size_t{256}, std::size_t{4096},
                              std::size_t{16384}, std::size_t{70000}}) {
    const Bytes input = noise(n, GetParam() + n);
    const Bytes packed = codec.compress(input);
    expect_round_trip_within_bound(input, packed);
    EXPECT_EQ(packed.size(), codec.max_compressed_size(n)) << "n=" << n;
  }
}

TEST_P(Lz77SkipP, PhraseRedundantInputCompresses) {
  const compress::Lz77Codec codec;
  const Bytes input = phrases(16384, GetParam());
  const Bytes packed = codec.compress(input);
  expect_round_trip_within_bound(input, packed);
  // Twelve words in random order: about 28% measured.
  EXPECT_LT(packed.size(), input.size() / 3);
}

TEST_P(Lz77SkipP, RedundantTailAfterNoisePrefixStillCompresses) {
  // The case skip-ahead can lose matches on: by the end of the noise
  // prefix the parser steps many octets per probe, and the tail's first
  // phrases are only sampled until a match resets the step.
  const compress::Lz77Codec codec;
  constexpr std::size_t kPrefix = 8192;
  const Bytes tail = phrases(8192, GetParam() + 1);
  Bytes input = noise(kPrefix, GetParam());
  input.insert(input.end(), tail.begin(), tail.end());
  const Bytes packed = codec.compress(input);
  expect_round_trip_within_bound(input, packed);
  // Pinned: the prefix costs its stored form, and the tail at most 512
  // octets more than it costs compressed on its own (about 400 measured;
  // no skipping would cost 0).
  const std::size_t tail_alone = compress::Lz77Codec().compress(tail).size();
  EXPECT_LE(packed.size(),
            codec.max_compressed_size(kPrefix) + tail_alone + 512);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lz77SkipP, ::testing::Values(1u, 2u, 3u, 42u));

}  // namespace
}  // namespace maqs
